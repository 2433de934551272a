//! Classes, methods, whole programs, and canonical bytecode hashing.

use std::collections::BTreeMap;

use communix_crypto::{Digest, Sha256};

use crate::ast::Stmt;
use crate::names::{ClassName, LockExpr, MethodRef, SyncSite};

/// A method of a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Method name (no overloading in the model).
    pub name: String,
    /// Whether the method is declared `synchronized`. Lowering wraps the
    /// body in a `synchronized(this)` block, mirroring the paper's AspectJ
    /// transformation (§III-C3).
    pub synchronized: bool,
    /// Source line of the method declaration (the sync site for
    /// synchronized methods).
    pub decl_line: u32,
    /// Structured body.
    pub body: Vec<Stmt>,
    /// If true, the static analyzer cannot retrieve this method's CFG —
    /// models Soot's failures on reflective/native code (Table I analyzed
    /// only 11–54% of sync blocks).
    pub opaque: bool,
}

impl Method {
    /// Creates a plain (non-synchronized, analyzable) method.
    pub fn new(name: impl Into<String>, decl_line: u32, body: Vec<Stmt>) -> Self {
        Method {
            name: name.into(),
            synchronized: false,
            decl_line,
            body,
            opaque: false,
        }
    }

    /// Number of `synchronized` constructs: blocks in the body plus one if
    /// the method itself is synchronized. This is what Table I counts as
    /// "Sync bl/meths".
    pub fn sync_count(&self) -> usize {
        let blocks: usize = self.body.iter().map(Stmt::count_sync_blocks).sum();
        blocks + usize::from(self.synchronized)
    }

    /// Number of explicit `ReentrantLock` lock/unlock call sites.
    pub fn explicit_op_count(&self) -> usize {
        self.body.iter().map(Stmt::count_explicit_ops).sum()
    }

    /// Approximate source-line footprint of the method (declaration line
    /// plus one line per statement), used for the Table I LOC column.
    pub fn loc(&self) -> usize {
        let mut lines = 2; // declaration + closing brace
        for s in &self.body {
            s.visit(&mut |_| lines += 1);
        }
        lines
    }
}

/// A class: a named set of methods, hashable as "bytecode".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassFile {
    /// Fully qualified class name.
    pub name: ClassName,
    /// Methods in declaration order.
    pub methods: Vec<Method>,
}

impl ClassFile {
    /// Creates a class.
    pub fn new(name: impl Into<ClassName>, methods: Vec<Method>) -> Self {
        ClassFile {
            name: name.into(),
            methods,
        }
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// The SHA-256 hash of the class's canonical serialization.
    ///
    /// Any change to any method body changes the hash — this is the
    /// version-identity Communix uses to match signatures to the classes
    /// actually loaded (§III-B: "hash values of class bytecodes, in order
    /// to distinguish different versions of the same class or different
    /// classes having the same name").
    ///
    /// The serializer behind [`ClassFile::canonical_bytes`] streams its
    /// bytes straight into SHA-256 here, through a stack buffer: the text
    /// is never built, and hashing a class allocates nothing.
    pub fn bytecode_hash(&self) -> Digest {
        let mut sink = HashSink::new();
        self.serialize(&mut sink);
        sink.finish()
    }

    /// Canonical textual serialization (a stable "disassembly") that the
    /// hash is computed over.
    ///
    /// One serializer, two sinks: this collects the bytes that
    /// [`ClassFile::bytecode_hash`] hashes as they are produced, so the two
    /// cannot disagree.
    pub fn canonical_bytes(&self) -> String {
        let mut out = Vec::new();
        self.serialize(&mut out);
        String::from_utf8(out).expect("the canonical text is made of UTF-8 pieces")
    }

    /// Writes the canonical text: a `class` line, then per method a
    /// `method` line and its statements, two spaces of indent per level.
    fn serialize(&self, out: &mut impl Sink) {
        out.put(b"class ");
        out.text(self.name.as_str());
        out.put(b"\n");
        for m in &self.methods {
            out.put(b"method ");
            out.text(&m.name);
            out.put(b" sync=");
            out.boolean(m.synchronized);
            out.put(b" opaque=");
            out.boolean(m.opaque);
            out.put(b" line=");
            out.decimal(m.decl_line);
            out.put(b"\n");
            for s in &m.body {
                serialize_stmt(s, 1, out);
            }
        }
    }

    /// Total sync blocks + synchronized methods in the class.
    pub fn sync_block_count(&self) -> usize {
        self.methods.iter().map(Method::sync_count).sum()
    }

    /// Approximate LOC of the class.
    pub fn loc(&self) -> usize {
        2 + self.methods.iter().map(Method::loc).sum::<usize>()
    }
}

/// Where the canonical serializer writes. Every piece is UTF-8.
trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    fn text(&mut self, s: &str) {
        self.put(s.as_bytes());
    }

    fn boolean(&mut self, b: bool) {
        self.put(if b { b"true" } else { b"false" });
    }

    /// `n` in decimal.
    fn decimal(&mut self, mut n: u32) {
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.put(&digits[at..]);
    }

    /// Two spaces per nesting level.
    fn indent(&mut self, depth: usize) {
        const SPACES: &[u8; 64] = &[b' '; 64];
        let mut n = 2 * depth;
        while n > 0 {
            let run = n.min(SPACES.len());
            self.put(&SPACES[..run]);
            n -= run;
        }
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// SHA-256 behind a stack buffer: the serializer's pieces are a few bytes
/// each, so they are gathered into whole runs of blocks, which the hasher
/// compresses in place.
struct HashSink {
    hasher: Sha256,
    buf: [u8; 4096],
    len: usize,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            hasher: Sha256::new(),
            buf: [0; 4096],
            len: 0,
        }
    }

    fn finish(mut self) -> Digest {
        self.hasher.update(&self.buf[..self.len]);
        self.hasher.finalize()
    }
}

impl Sink for HashSink {
    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.len == self.buf.len() {
                self.hasher.update(&self.buf);
                self.len = 0;
            }
            let take = bytes.len().min(self.buf.len() - self.len);
            self.buf[self.len..self.len + take].copy_from_slice(&bytes[..take]);
            self.len += take;
            bytes = &bytes[take..];
        }
    }
}

fn serialize_stmt(s: &Stmt, depth: usize, out: &mut impl Sink) {
    out.indent(depth);
    match s {
        Stmt::Sync { lock, line, body } => {
            out.put(b"sync ");
            match lock {
                LockExpr::This => out.put(b"this"),
                LockExpr::Global(name) => {
                    out.put(b"lock:");
                    out.text(name);
                }
            }
            at_line(*line, out);
            serialize_block(body, depth, out);
        }
        Stmt::Call { target, line } => {
            out.put(b"call ");
            out.text(target.class.as_str());
            out.put(b".");
            out.text(target.method_name());
            at_line(*line, out);
        }
        Stmt::Work { ticks, line } => {
            out.put(b"work ");
            out.decimal(*ticks);
            at_line(*line, out);
        }
        Stmt::If {
            then_branch,
            else_branch,
            line,
        } => {
            out.put(b"if");
            at_line(*line, out);
            for c in then_branch {
                serialize_stmt(c, depth + 1, out);
            }
            out.indent(depth);
            out.put(b"else\n");
            serialize_block(else_branch, depth, out);
        }
        Stmt::Repeat { times, body, line } => {
            out.put(b"repeat ");
            out.decimal(*times);
            at_line(*line, out);
            serialize_block(body, depth, out);
        }
        Stmt::ExplicitLock { name, line } => {
            out.put(b"xlock ");
            out.text(name);
            at_line(*line, out);
        }
        Stmt::ExplicitUnlock { name, line } => {
            out.put(b"xunlock ");
            out.text(name);
            at_line(*line, out);
        }
    }
}

/// ` @line` and the end of the statement's line.
fn at_line(line: u32, out: &mut impl Sink) {
    out.put(b" @");
    out.decimal(line);
    out.put(b"\n");
}

/// The statements of a block one level in, then its `end` line.
fn serialize_block(body: &[Stmt], depth: usize, out: &mut impl Sink) {
    for c in body {
        serialize_stmt(c, depth + 1, out);
    }
    out.indent(depth);
    out.put(b"end\n");
}

/// A complete program: the closed set of classes an application consists
/// of. (Class *loading* is modelled separately by [`crate::ClassLoader`].)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    classes: BTreeMap<ClassName, ClassFile>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds (or replaces) a class. Returns the previous definition if the
    /// class already existed — replacing a class models shipping a new
    /// version of it.
    pub fn add_class(&mut self, class: ClassFile) -> Option<ClassFile> {
        self.classes.insert(class.name.clone(), class)
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassFile> {
        self.classes.get(&ClassName::new(name))
    }

    /// Looks up a class by [`ClassName`].
    pub fn class_by_name(&self, name: &ClassName) -> Option<&ClassFile> {
        self.classes.get(name)
    }

    /// Resolves a method reference.
    pub fn resolve(&self, mref: &MethodRef) -> Option<&Method> {
        self.classes
            .get(&mref.class)
            .and_then(|c| c.method(mref.method_name()))
    }

    /// Iterates over classes in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassFile> {
        self.classes.values()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the program has no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The bytecode hash of each class, keyed by name. This is what the
    /// running application exposes to the agent's hash validation.
    pub fn hash_index(&self) -> BTreeMap<ClassName, Digest> {
        self.classes
            .iter()
            .map(|(n, c)| (n.clone(), c.bytecode_hash()))
            .collect()
    }

    /// All synchronized sites (blocks and methods) in the program, the
    /// universe the nesting analysis classifies.
    pub fn sync_sites(&self) -> Vec<SyncSite> {
        let mut sites = Vec::new();
        for class in self.classes.values() {
            for m in &class.methods {
                if m.synchronized {
                    sites.push(SyncSite::new(
                        class.name.clone(),
                        m.name.clone(),
                        m.decl_line,
                    ));
                }
                for s in &m.body {
                    s.visit(&mut |st| {
                        if let Stmt::Sync { line, .. } = st {
                            sites.push(SyncSite::new(class.name.clone(), m.name.clone(), *line));
                        }
                    });
                }
            }
        }
        sites
    }

    /// Whole-program statistics, matching the columns of Table I.
    pub fn stats(&self) -> ProgramStats {
        let mut stats = ProgramStats {
            classes: self.classes.len(),
            ..ProgramStats::default()
        };
        for class in self.classes.values() {
            stats.loc += class.loc();
            stats.sync_blocks_and_methods += class.sync_block_count();
            for m in &class.methods {
                stats.methods += 1;
                stats.explicit_sync_ops += m.explicit_op_count();
                if m.opaque {
                    stats.opaque_methods += 1;
                }
            }
        }
        stats
    }
}

impl FromIterator<ClassFile> for Program {
    fn from_iter<T: IntoIterator<Item = ClassFile>>(iter: T) -> Self {
        let mut p = Program::new();
        for c in iter {
            p.add_class(c);
        }
        p
    }
}

impl Extend<ClassFile> for Program {
    fn extend<T: IntoIterator<Item = ClassFile>>(&mut self, iter: T) {
        for c in iter {
            self.add_class(c);
        }
    }
}

/// Whole-program statistics: the inputs to the Table I columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Number of classes.
    pub classes: usize,
    /// Number of methods.
    pub methods: usize,
    /// Approximate lines of code.
    pub loc: usize,
    /// `synchronized` blocks + methods ("Sync bl/meths" in Table I).
    pub sync_blocks_and_methods: usize,
    /// Explicit `ReentrantLock.lock/unlock()` call sites.
    pub explicit_sync_ops: usize,
    /// Methods whose CFG the analyzer cannot retrieve.
    pub opaque_methods: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::LockExpr;

    fn class_with_sync() -> ClassFile {
        ClassFile::new(
            "app.C",
            vec![
                Method {
                    name: "syncMethod".into(),
                    synchronized: true,
                    decl_line: 1,
                    body: vec![Stmt::Work { ticks: 1, line: 2 }],
                    opaque: false,
                },
                Method::new(
                    "blockMethod",
                    10,
                    vec![Stmt::Sync {
                        lock: LockExpr::global("L"),
                        line: 11,
                        body: vec![],
                    }],
                ),
            ],
        )
    }

    #[test]
    fn sync_counts() {
        let c = class_with_sync();
        assert_eq!(c.sync_block_count(), 2);
    }

    #[test]
    fn hash_changes_with_body() {
        let a = class_with_sync();
        let mut b = a.clone();
        b.methods[0].body.push(Stmt::Work { ticks: 9, line: 3 });
        assert_ne!(a.bytecode_hash(), b.bytecode_hash());
    }

    #[test]
    fn hash_stable_for_identical_classes() {
        assert_eq!(
            class_with_sync().bytecode_hash(),
            class_with_sync().bytecode_hash()
        );
    }

    #[test]
    fn hash_differs_by_name() {
        let a = class_with_sync();
        let mut b = a.clone();
        b.name = ClassName::new("app.D");
        assert_ne!(a.bytecode_hash(), b.bytecode_hash());
    }

    #[test]
    fn program_resolution() {
        let mut p = Program::new();
        p.add_class(class_with_sync());
        assert!(p.resolve(&MethodRef::new("app.C", "syncMethod")).is_some());
        assert!(p.resolve(&MethodRef::new("app.C", "nope")).is_none());
        assert!(p.resolve(&MethodRef::new("app.X", "syncMethod")).is_none());
    }

    #[test]
    fn sync_sites_enumerated() {
        let mut p = Program::new();
        p.add_class(class_with_sync());
        let sites = p.sync_sites();
        assert_eq!(sites.len(), 2);
        assert!(sites.contains(&SyncSite::new("app.C", "syncMethod", 1)));
        assert!(sites.contains(&SyncSite::new("app.C", "blockMethod", 11)));
    }

    #[test]
    fn stats_roll_up() {
        let mut p = Program::new();
        p.add_class(class_with_sync());
        let s = p.stats();
        assert_eq!(s.classes, 1);
        assert_eq!(s.methods, 2);
        assert_eq!(s.sync_blocks_and_methods, 2);
        assert_eq!(s.explicit_sync_ops, 0);
        assert!(s.loc > 4);
    }

    #[test]
    fn replacing_class_returns_old_version() {
        let mut p = Program::new();
        assert!(p.add_class(class_with_sync()).is_none());
        let mut v2 = class_with_sync();
        v2.methods[0].body.clear();
        let old = p.add_class(v2.clone()).expect("old version returned");
        assert_eq!(old, class_with_sync());
        assert_eq!(p.class("app.C").unwrap(), &v2);
    }

    #[test]
    fn from_iterator_collects() {
        let p: Program = vec![class_with_sync()].into_iter().collect();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn hash_index_covers_all_classes() {
        let mut p = Program::new();
        p.add_class(class_with_sync());
        let idx = p.hash_index();
        assert_eq!(idx.len(), 1);
        assert_eq!(
            idx[&ClassName::new("app.C")],
            p.class("app.C").unwrap().bytecode_hash()
        );
    }
}
