//! Naming types shared across the program model: class names, method
//! references, lock expressions and synchronized-site locations.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A fully qualified class name, e.g. `org.jboss.tm.TxManager`.
///
/// Internally reference-counted: programs reference the same class name
/// from thousands of frames, and cloning must stay cheap.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassName(Arc<str>);

impl ClassName {
    /// Creates a class name. Dots are package separators, as in Java.
    pub fn new(name: impl Into<String>) -> Self {
        ClassName(Arc::from(name.into().as_str()))
    }

    /// The full dotted name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The simple (unqualified) name after the last dot.
    pub fn simple_name(&self) -> &str {
        self.0.rsplit('.').next().unwrap_or(&self.0)
    }
}

impl fmt::Debug for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassName({})", self.0)
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName::new(s)
    }
}

impl From<String> for ClassName {
    fn from(s: String) -> Self {
        ClassName::new(s)
    }
}

impl From<Arc<str>> for ClassName {
    /// Shares `name` instead of copying it.
    fn from(name: Arc<str>) -> Self {
        ClassName(name)
    }
}

impl FromStr for ClassName {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(ClassName::new(s))
    }
}

/// A reference to a method: `class` + `method` name.
///
/// The model has no overloading, so the pair is unique within a program.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodRef {
    /// Declaring class.
    pub class: ClassName,
    /// Method name.
    pub method: Arc<str>,
}

impl MethodRef {
    /// Creates a method reference.
    pub fn new(class: impl Into<ClassName>, method: impl Into<String>) -> Self {
        MethodRef {
            class: class.into(),
            method: Arc::from(method.into().as_str()),
        }
    }

    /// The method name.
    pub fn method_name(&self) -> &str {
        &self.method
    }
}

impl fmt::Debug for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MethodRef({}.{})", self.class, self.method)
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.method)
    }
}

/// Which lock object a `synchronized` construct locks.
///
/// Java locks on object identity; the model provides the two shapes the
/// evaluation needs: `this` (synchronized methods and `synchronized(this)`
/// blocks, resolved per-instance at runtime) and named global locks
/// (static fields / singletons, the common source of lock-order
/// inversions).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockExpr {
    /// Lock on the receiver instance.
    This,
    /// Lock on a process-wide named lock object.
    Global(Arc<str>),
}

impl LockExpr {
    /// A named global lock.
    pub fn global(name: impl Into<String>) -> Self {
        LockExpr::Global(Arc::from(name.into().as_str()))
    }
}

impl fmt::Debug for LockExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockExpr::This => f.write_str("LockExpr::This"),
            LockExpr::Global(n) => write!(f, "LockExpr::Global({n})"),
        }
    }
}

impl fmt::Display for LockExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockExpr::This => f.write_str("this"),
            LockExpr::Global(n) => write!(f, "lock:{n}"),
        }
    }
}

/// The source location of a synchronized block or method: the identity the
/// paper calls a "lock statement" (the top frame of an outer or inner call
/// stack).
///
/// Two signatures delimit the same deadlock bug iff their outer and inner
/// lock statements — values of this type — coincide.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyncSite {
    /// Declaring class.
    pub class: ClassName,
    /// Enclosing method name.
    pub method: Arc<str>,
    /// Source line of the `synchronized` keyword.
    pub line: u32,
}

impl SyncSite {
    /// Creates a sync site.
    pub fn new(class: impl Into<ClassName>, method: impl Into<String>, line: u32) -> Self {
        SyncSite {
            class: class.into(),
            method: Arc::from(method.into().as_str()),
            line,
        }
    }

    /// The enclosing method as a [`MethodRef`].
    pub fn method_ref(&self) -> MethodRef {
        MethodRef {
            class: self.class.clone(),
            method: self.method.clone(),
        }
    }
}

impl fmt::Debug for SyncSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SyncSite({}.{}:{})", self.class, self.method, self.line)
    }
}

impl fmt::Display for SyncSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}:{}", self.class, self.method, self.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_name_simple() {
        let c = ClassName::new("org.jboss.tm.TxManager");
        assert_eq!(c.simple_name(), "TxManager");
        assert_eq!(c.as_str(), "org.jboss.tm.TxManager");
        assert_eq!(c.to_string(), "org.jboss.tm.TxManager");
    }

    #[test]
    fn class_name_without_package() {
        let c = ClassName::new("Main");
        assert_eq!(c.simple_name(), "Main");
    }

    #[test]
    fn class_name_equality_by_value() {
        assert_eq!(ClassName::new("a.B"), ClassName::from("a.B"));
        assert_ne!(ClassName::new("a.B"), ClassName::new("a.C"));
    }

    #[test]
    fn method_ref_display() {
        let m = MethodRef::new("a.B", "run");
        assert_eq!(m.to_string(), "a.B.run");
        assert_eq!(m.method_name(), "run");
    }

    #[test]
    fn lock_expr_display() {
        assert_eq!(LockExpr::This.to_string(), "this");
        assert_eq!(LockExpr::global("cache").to_string(), "lock:cache");
    }

    #[test]
    fn sync_site_identity() {
        let a = SyncSite::new("a.B", "run", 10);
        let b = SyncSite::new("a.B", "run", 10);
        let c = SyncSite::new("a.B", "run", 11);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "a.B.run:10");
        assert_eq!(a.method_ref(), MethodRef::new("a.B", "run"));
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [
            SyncSite::new("b.B", "m", 1),
            SyncSite::new("a.A", "m", 2),
            SyncSite::new("a.A", "m", 1),
        ];
        v.sort();
        assert_eq!(v[0], SyncSite::new("a.A", "m", 1));
        assert_eq!(v[2], SyncSite::new("b.B", "m", 1));
    }
}
