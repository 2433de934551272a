//! Call-stack frames and call stacks.
//!
//! A signature call stack "is encoded as a sequence of frames
//! `[c1.m1:l1:h1, …, cn.mn:ln:hn]`, where ci are class names, mi are
//! method names, li are line numbers, and hi is the hash of class ci's
//! bytecode" (§III-C3). Frame *n* is the **top** frame; in our
//! representation the top frame is the *last* element, so the paper's
//! "call stack suffix" (the innermost frames) is a `Vec` tail.
//!
//! Parsing walks a stack's text once. A hashed frame's 64 digest digits
//! are decoded where they lie instead of being scanned for separators
//! first, and a frame whose class or method is the same text as the
//! previous frame's (within one stack or signature) shares that frame's
//! `Arc<str>` instead of allocating its own. What that saves depends on
//! the input: consecutive frames share a class when one method of a
//! class calls another, but share a method only under recursion.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use communix_crypto::{Digest, DIGEST_LEN};

/// A source location: class, method, line. Two frames denote the same
/// *lock statement* iff their sites are equal — hashes are deliberately
/// excluded (they denote code *versions*, not locations, and are only
/// consulted by validation).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// Fully qualified class name.
    pub class: Arc<str>,
    /// Method name.
    pub method: Arc<str>,
    /// Source line.
    pub line: u32,
}

impl Site {
    /// Creates a site.
    pub fn new(class: impl AsRef<str>, method: impl AsRef<str>, line: u32) -> Self {
        Site {
            class: Arc::from(class.as_ref()),
            method: Arc::from(method.as_ref()),
            line,
        }
    }
}

impl fmt::Debug for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Site({self})")
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}:{}", self.class, self.method, self.line)
    }
}

/// One call-stack frame: a [`Site`] plus an optional bytecode hash.
///
/// Dimmunix produces frames without hashes; the Communix plugin "attaches
/// to each call stack frame of the signature the hash of the class
/// bytecode containing that frame" (§III-C) before upload.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame {
    /// Source location.
    pub site: Site,
    /// Bytecode hash of the declaring class, if attached.
    pub hash: Option<Digest>,
}

impl Frame {
    /// Creates a frame without a hash.
    pub fn new(class: impl AsRef<str>, method: impl AsRef<str>, line: u32) -> Self {
        Frame {
            site: Site::new(class, method, line),
            hash: None,
        }
    }

    /// Creates a frame with a hash attached.
    pub fn with_hash(
        class: impl AsRef<str>,
        method: impl AsRef<str>,
        line: u32,
        hash: Digest,
    ) -> Self {
        Frame {
            site: Site::new(class, method, line),
            hash: Some(hash),
        }
    }

    /// Location equality, ignoring hashes. All signature matching and
    /// merging compares frames this way; hashes matter only to the
    /// validation pipeline.
    pub fn site_eq(&self, other: &Frame) -> bool {
        self.site == other.site
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({self})")
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Serialized form: class#method:line[:hash]. `#` separates class
        // from method so dotted class names parse unambiguously.
        write!(
            f,
            "{}#{}:{}",
            self.site.class, self.site.method, self.site.line
        )?;
        if let Some(h) = &self.hash {
            write!(f, ":{h}")?;
        }
        Ok(())
    }
}

/// Error parsing a [`Frame`] or [`CallStack`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFrameError {
    msg: String,
}

impl ParseFrameError {
    fn new(msg: impl Into<String>) -> Self {
        ParseFrameError { msg: msg.into() }
    }
}

impl fmt::Display for ParseFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid frame: {}", self.msg)
    }
}

impl std::error::Error for ParseFrameError {}

impl FromStr for Frame {
    type Err = ParseFrameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_frame(s, None, &mut SharedNames::default()).map(|(frame, _)| frame)
    }
}

/// The class and method names of the frame parsed last. A frame whose
/// class or method is the same text shares the previous frame's
/// `Arc<str>` instead of allocating its own, so a parse saves one
/// allocation per name that repeats its predecessor's. Only the previous
/// frame is remembered, so a stack of all-distinct names costs one
/// comparison per name and nothing more.
#[derive(Default)]
pub(crate) struct SharedNames {
    class: Option<Arc<str>>,
    method: Option<Arc<str>>,
}

impl SharedNames {
    fn site(&mut self, class: &str, method: &str, line: u32) -> Site {
        Site {
            class: share(&mut self.class, class),
            method: share(&mut self.method, method),
            line,
        }
    }
}

/// `prev` when it holds `name`; otherwise a new `Arc` for `name`, which
/// becomes `prev`.
fn share(prev: &mut Option<Arc<str>>, name: &str) -> Arc<str> {
    match prev {
        Some(p) if **p == *name => p.clone(),
        _ => prev.insert(Arc::from(name)).clone(),
    }
}

/// Index of the first `a` or `sep` in `bytes` at or after `from`.
fn find(bytes: &[u8], from: usize, a: u8, sep: Option<u8>) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&x| x == a || Some(x) == sep)
        .map(|i| from + i)
}

/// Parses the frame at the head of `s` (`class#method:line[:hash]`, up
/// to the first `sep` or the end). Returns it with the text after that
/// `sep`, or `None` when the frame ended the text. A stack separates its
/// frames with `|`; a lone frame has no separator.
///
/// The fields and errors are those of splitting the stack on `|`, the
/// frame once on `#` and then on `:`, in that order, but the text is
/// walked once: a hash of 64 hex digits followed by the frame's end is
/// decoded in place and never scanned for separators.
fn parse_frame<'s>(
    s: &'s str,
    sep: Option<u8>,
    names: &mut SharedNames,
) -> Result<(Frame, Option<&'s str>), ParseFrameError> {
    let b = s.as_bytes();
    // Each separator is ASCII, so every index below is a char boundary.
    let class_end = match find(b, 0, b'#', sep) {
        Some(i) if b[i] == b'#' => i,
        end => {
            let piece = &s[..end.unwrap_or(s.len())];
            return Err(ParseFrameError::new(format!("missing '#' in {piece:?}")));
        }
    };
    if class_end == 0 {
        return Err(ParseFrameError::new("empty class name"));
    }
    let method_start = class_end + 1;
    let method_end = find(b, method_start, b':', sep).unwrap_or(b.len());
    if method_end == method_start {
        return Err(ParseFrameError::new("empty method name"));
    }
    if b.get(method_end) != Some(&b':') {
        return Err(ParseFrameError::new("missing line number"));
    }
    let line_start = method_end + 1;
    let line_end = find(b, line_start, b':', sep).unwrap_or(b.len());
    let line: u32 = s[line_start..line_end]
        .parse()
        .map_err(|e| ParseFrameError::new(format!("bad line number: {e}")))?;
    let (hash, end) = if b.get(line_end) == Some(&b':') {
        let hash_start = line_end + 1;
        let after = hash_start + 2 * DIGEST_LEN;
        // Hex digits hold no separator, so a digest that decodes and is
        // followed by one (or by the end) is the whole field.
        let ends_field = match b.get(after) {
            None | Some(b':') => true,
            Some(&x) => Some(x) == sep,
        };
        let in_place = s
            .get(hash_start..after)
            .filter(|_| ends_field)
            .and_then(|h| Digest::from_hex(h).ok());
        match in_place {
            Some(d) => (Some(d), after),
            None => {
                let hash_end = find(b, hash_start, b':', sep).unwrap_or(b.len());
                let d = Digest::from_hex(&s[hash_start..hash_end])
                    .map_err(|e| ParseFrameError::new(format!("bad hash: {e}")))?;
                (Some(d), hash_end)
            }
        }
    } else {
        (None, line_end)
    };
    if b.get(end) == Some(&b':') {
        return Err(ParseFrameError::new("trailing fields"));
    }
    let frame = Frame {
        site: names.site(&s[..class_end], &s[method_start..method_end], line),
        hash,
    };
    Ok((frame, (end < b.len()).then(|| &s[end + 1..])))
}

/// Parses a `|`-separated stack, sharing names through `names` (which
/// the caller may carry from one stack to the next).
pub(crate) fn parse_stack(s: &str, names: &mut SharedNames) -> Result<CallStack, ParseFrameError> {
    let mut frames = Vec::new();
    let mut rest = Some(s).filter(|s| !s.is_empty());
    while let Some(text) = rest {
        let (frame, next) = parse_frame(text, Some(b'|'), names)?;
        frames.push(frame);
        rest = next;
    }
    Ok(CallStack { frames })
}

/// A call stack: outermost frame first, **top (innermost) frame last**.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CallStack {
    frames: Vec<Frame>,
}

impl CallStack {
    /// Creates a stack from frames (outermost first).
    pub fn new(frames: Vec<Frame>) -> Self {
        CallStack { frames }
    }

    /// An empty stack.
    pub fn empty() -> Self {
        CallStack::default()
    }

    /// The frames, outermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Mutable access for hash attachment (plugin) and trimming
    /// (validation).
    pub fn frames_mut(&mut self) -> &mut Vec<Frame> {
        &mut self.frames
    }

    /// The top (innermost) frame — the paper's "lock statement" when this
    /// is an outer or inner stack of a signature.
    pub fn top(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Number of frames — the paper's "depth".
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stack has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Pushes a frame on top.
    pub fn push(&mut self, frame: Frame) {
        self.frames.push(frame);
    }

    /// Pops the top frame.
    pub fn pop(&mut self) -> Option<Frame> {
        self.frames.pop()
    }

    /// Whether `self` is a suffix of `other`, comparing frame *sites*
    /// (hashes ignored). An empty stack is a suffix of everything.
    ///
    /// This is the signature-matching primitive: a runtime stack matches a
    /// signature stack when the signature stack is a suffix of it.
    pub fn is_suffix_of(&self, other: &CallStack) -> bool {
        if self.depth() > other.depth() {
            return false;
        }
        let offset = other.depth() - self.depth();
        self.frames
            .iter()
            .zip(&other.frames[offset..])
            .all(|(a, b)| a.site_eq(b))
    }

    /// The longest common suffix of two stacks (site comparison), used by
    /// signature generalization (§III-D). Hashes are taken from `self`'s
    /// frames.
    pub fn longest_common_suffix(&self, other: &CallStack) -> CallStack {
        let mut n = 0;
        let a = &self.frames;
        let b = &other.frames;
        while n < a.len() && n < b.len() && a[a.len() - 1 - n].site_eq(&b[b.len() - 1 - n]) {
            n += 1;
        }
        CallStack {
            frames: a[a.len() - n..].to_vec(),
        }
    }

    /// Keeps only the top `n` frames (no-op if already ≤ n deep).
    pub fn truncate_to_suffix(&mut self, n: usize) {
        if self.frames.len() > n {
            self.frames.drain(..self.frames.len() - n);
        }
    }
}

impl fmt::Debug for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CallStack[{self}]")
    }
}

impl fmt::Display for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for fr in &self.frames {
            if !first {
                f.write_str("|")?;
            }
            write!(f, "{fr}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for CallStack {
    type Err = ParseFrameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_stack(s, &mut SharedNames::default())
    }
}

impl FromIterator<Frame> for CallStack {
    fn from_iter<T: IntoIterator<Item = Frame>>(iter: T) -> Self {
        CallStack {
            frames: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_crypto::sha256;

    fn stack(names: &[(&str, u32)]) -> CallStack {
        names
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    #[test]
    fn frame_roundtrip_without_hash() {
        let f = Frame::new("org.jboss.X", "run", 42);
        let s = f.to_string();
        assert_eq!(s, "org.jboss.X#run:42");
        assert_eq!(s.parse::<Frame>().unwrap(), f);
    }

    #[test]
    fn frame_roundtrip_with_hash() {
        let f = Frame::with_hash("a.B", "m", 7, sha256(b"x"));
        let s = f.to_string();
        assert_eq!(s.parse::<Frame>().unwrap(), f);
    }

    #[test]
    fn frame_parse_errors() {
        assert!("noHash".parse::<Frame>().is_err());
        assert!("#m:1".parse::<Frame>().is_err());
        assert!("c#:1".parse::<Frame>().is_err());
        assert!("c#m".parse::<Frame>().is_err());
        assert!("c#m:xyz".parse::<Frame>().is_err());
        assert!("c#m:1:nothex".parse::<Frame>().is_err());
        assert!("c#m:1:aa:bb".parse::<Frame>().is_err());
    }

    #[test]
    fn site_eq_ignores_hash() {
        let a = Frame::new("a.B", "m", 1);
        let b = Frame::with_hash("a.B", "m", 1, sha256(b"v2"));
        assert!(a.site_eq(&b));
        assert_ne!(a, b); // full equality does see the hash
    }

    #[test]
    fn suffix_matching() {
        let sig = stack(&[("mid", 2), ("top", 3)]);
        let runtime = stack(&[("bottom", 1), ("mid", 2), ("top", 3)]);
        assert!(sig.is_suffix_of(&runtime));
        assert!(!runtime.is_suffix_of(&sig));
        // Top frame must coincide.
        let other = stack(&[("mid", 2), ("different", 9)]);
        assert!(!other.is_suffix_of(&runtime));
    }

    #[test]
    fn empty_stack_is_suffix_of_everything() {
        let e = CallStack::empty();
        assert!(e.is_suffix_of(&stack(&[("m", 1)])));
        assert!(e.is_suffix_of(&e));
    }

    #[test]
    fn equal_stacks_are_suffixes() {
        let a = stack(&[("m", 1), ("n", 2)]);
        assert!(a.is_suffix_of(&a.clone()));
    }

    #[test]
    fn suffix_ignores_hashes() {
        let mut sig = stack(&[("top", 3)]);
        sig.frames_mut()[0].hash = Some(sha256(b"v1"));
        let mut rt = stack(&[("bottom", 1), ("top", 3)]);
        rt.frames_mut()[1].hash = Some(sha256(b"v2"));
        assert!(sig.is_suffix_of(&rt));
    }

    #[test]
    fn longest_common_suffix_basic() {
        let a = stack(&[("x", 1), ("mid", 2), ("top", 3)]);
        let b = stack(&[("y", 9), ("mid", 2), ("top", 3)]);
        let lcs = a.longest_common_suffix(&b);
        assert_eq!(lcs, stack(&[("mid", 2), ("top", 3)]));
    }

    #[test]
    fn longest_common_suffix_disjoint_is_empty() {
        let a = stack(&[("x", 1)]);
        let b = stack(&[("y", 2)]);
        assert!(a.longest_common_suffix(&b).is_empty());
    }

    #[test]
    fn longest_common_suffix_identical_is_whole() {
        let a = stack(&[("x", 1), ("top", 2)]);
        assert_eq!(a.longest_common_suffix(&a.clone()), a);
    }

    #[test]
    fn truncate_to_suffix_keeps_top() {
        let mut a = stack(&[("a", 1), ("b", 2), ("c", 3)]);
        a.truncate_to_suffix(2);
        assert_eq!(a, stack(&[("b", 2), ("c", 3)]));
        a.truncate_to_suffix(10); // no-op
        assert_eq!(a.depth(), 2);
    }

    #[test]
    fn callstack_roundtrip() {
        let a = stack(&[("a", 1), ("b", 2)]);
        let s = a.to_string();
        assert_eq!(s.parse::<CallStack>().unwrap(), a);
        assert_eq!("".parse::<CallStack>().unwrap(), CallStack::empty());
    }

    #[test]
    fn push_pop_top() {
        let mut s = CallStack::empty();
        s.push(Frame::new("c.C", "a", 1));
        s.push(Frame::new("c.C", "b", 2));
        assert_eq!(s.top().unwrap().site.method.as_ref(), "b");
        assert_eq!(s.depth(), 2);
        s.pop();
        assert_eq!(s.top().unwrap().site.method.as_ref(), "a");
    }
}
