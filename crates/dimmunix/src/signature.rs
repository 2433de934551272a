//! Deadlock signatures.
//!
//! "A deadlock signature consists of (1) the call stacks the deadlocked
//! threads had when they acquired the locks involved in the deadlock and
//! (2) the call stacks of the deadlocked threads at the moment of the
//! deadlock. We call the former *outer call stacks* and the latter *inner
//! call stacks*; we call the top frames of these call stacks *outer* and
//! respectively *inner* lock statements. A deadlock bug is uniquely
//! delimited by the outer and inner lock statements." (§II-A)

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use crate::frame::{parse_stack, CallStack, SharedNames, Site};

/// Where a signature came from. The generalization rule differs for local
/// and remote signatures (§III-D): two local signatures merge freely, but
/// a merge involving a remote signature must keep outer depth ≥ 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SigOrigin {
    /// Produced by this machine's own Dimmunix.
    Local,
    /// Downloaded from the Communix server.
    Remote,
}

impl fmt::Display for SigOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigOrigin::Local => f.write_str("local"),
            SigOrigin::Remote => f.write_str("remote"),
        }
    }
}

/// One deadlocked thread's view: its outer and inner call stacks.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigEntry {
    /// Stack at the acquisition of the lock the thread *held* at deadlock.
    pub outer: CallStack,
    /// Stack at the moment of deadlock (blocked acquisition).
    pub inner: CallStack,
}

impl SigEntry {
    /// Creates an entry.
    pub fn new(outer: CallStack, inner: CallStack) -> Self {
        SigEntry { outer, inner }
    }

    /// The outer lock statement (top frame site of the outer stack).
    pub fn outer_site(&self) -> Option<&Site> {
        self.outer.top().map(|f| &f.site)
    }

    /// The inner lock statement.
    pub fn inner_site(&self) -> Option<&Site> {
        self.inner.top().map(|f| &f.site)
    }

    /// The (outer, inner) lock statements, when both stacks have a top.
    fn lock_pair(&self) -> Option<(&Site, &Site)> {
        Some((self.outer_site()?, self.inner_site()?))
    }
}

/// A deadlock signature: one [`SigEntry`] per deadlocked thread, stored
/// in canonical (sorted) order so signature identity is independent of
/// thread enumeration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    entries: Vec<SigEntry>,
    origin: SigOrigin,
}

impl Signature {
    /// Creates a signature, canonicalizing entry order.
    pub fn new(mut entries: Vec<SigEntry>, origin: SigOrigin) -> Self {
        entries.sort();
        Signature { entries, origin }
    }

    /// Creates a local signature.
    pub fn local(entries: Vec<SigEntry>) -> Self {
        Signature::new(entries, SigOrigin::Local)
    }

    /// Creates a remote signature.
    pub fn remote(entries: Vec<SigEntry>) -> Self {
        Signature::new(entries, SigOrigin::Remote)
    }

    /// The entries, in canonical order.
    pub fn entries(&self) -> &[SigEntry] {
        &self.entries
    }

    /// The signature's origin.
    pub fn origin(&self) -> SigOrigin {
        self.origin
    }

    /// Returns this signature re-labelled with `origin`.
    pub fn with_origin(mut self, origin: SigOrigin) -> Self {
        self.origin = origin;
        self
    }

    /// Number of threads involved in the deadlock.
    pub fn arity(&self) -> usize {
        self.entries.len()
    }

    /// Minimum outer-stack depth across entries — the quantity the agent's
    /// depth-≥5 DoS rule constrains (§III-C1).
    pub fn min_outer_depth(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.outer.depth())
            .min()
            .unwrap_or(0)
    }

    /// Whether two signatures denote the same deadlock bug — "the top
    /// frames of S have to be identical to the top frames of S′" (§III-D).
    /// The bug identity is the multiset of (outer, inner) lock-statement
    /// pairs: "a deadlock bug is uniquely delimited by the outer and inner
    /// lock statements" (§II-A). The two multisets are compared in place,
    /// so a history probe neither clones nor sorts a site.
    pub fn same_bug(&self, other: &Signature) -> bool {
        self.arity() == other.arity()
            && self.lock_pairs().all(|pair| {
                let theirs = other.lock_pairs().filter(|p| *p == pair).count();
                theirs != 0 && theirs == self.lock_pairs().filter(|p| *p == pair).count()
            })
            && self.lock_pairs().count() == other.lock_pairs().count()
    }

    /// The (outer, inner) lock statements of the entries that have both.
    fn lock_pairs(&self) -> impl Iterator<Item = (&Site, &Site)> {
        self.entries.iter().filter_map(SigEntry::lock_pair)
    }

    /// All top frames (outer and inner lock statements) as a site set —
    /// the unit of the server's adjacency check (§III-C2).
    pub fn top_frame_sites(&self) -> BTreeSet<Site> {
        let mut set = BTreeSet::new();
        for e in &self.entries {
            if let Some(s) = e.outer_site() {
                set.insert(s.clone());
            }
            if let Some(s) = e.inner_site() {
                set.insert(s.clone());
            }
        }
        set
    }

    /// Whether `self` and `other` are *adjacent*: they share "some (but
    /// not all) top frames" (§III-C2). The server rejects a signature
    /// adjacent to one already sent by the same user.
    pub fn adjacent_to(&self, other: &Signature) -> bool {
        Signature::sorted_adjacent(&self.top_frame_sites(), &other.top_frame_sites())
    }

    /// Adjacency over two top-frame site sets, each given as a sorted
    /// sequence without repeats — the one definition: some sites shared,
    /// not all equal. [`Signature::adjacent_to`] asks it of two
    /// [`Signature::top_frame_sites`]; the server keeps each sender's
    /// sets as sorted site keys and asks it of those. One merge walk,
    /// which stops once both answers are known.
    pub fn sorted_adjacent<T: Ord>(
        a: impl IntoIterator<Item = T>,
        b: impl IntoIterator<Item = T>,
    ) -> bool {
        let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
        let (mut shared, mut equal) = (false, true);
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => {
                        equal = false;
                        a.next();
                    }
                    Ordering::Greater => {
                        equal = false;
                        b.next();
                    }
                    Ordering::Equal => {
                        shared = true;
                        a.next();
                        b.next();
                    }
                },
                (None, None) => return shared && !equal,
                // What is left on one side is on that side only.
                _ => return shared,
            }
            if shared && !equal {
                return true;
            }
        }
    }

    /// Merges two signatures of the same bug into their generalization:
    /// per-entry longest common suffixes of outer and inner stacks
    /// (§III-D).
    ///
    /// Returns `None` when the signatures denote different bugs, or when
    /// the merge would violate the depth rule: a merge involving a remote
    /// signature must leave every outer stack at depth ≥ `min_depth`
    /// (the agent passes 5; two local signatures merge unconditionally).
    pub fn merge(&self, other: &Signature, min_depth: usize) -> Option<Signature> {
        if !self.same_bug(other) {
            return None;
        }
        // Pair entries by their (outer, inner) lock statements. Entries
        // are sorted, and same_bug guarantees identical multisets of lock
        // statement pairs, but multiple entries can share a pair; pair
        // them in order within each group: the k-th of `self`'s entries
        // with a key takes the k-th of `other`'s.
        fn key(e: &SigEntry) -> (Option<&Site>, Option<&Site>) {
            (e.outer_site(), e.inner_site())
        }
        let mut merged = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            let k = key(e);
            let rank = self.entries[..i].iter().filter(|p| key(p) == k).count();
            let o = other.entries.iter().filter(|o| key(o) == k).nth(rank)?;
            merged.push(SigEntry::new(
                e.outer.longest_common_suffix(&o.outer),
                e.inner.longest_common_suffix(&o.inner),
            ));
        }
        let both_local = self.origin == SigOrigin::Local && other.origin == SigOrigin::Local;
        let origin = if both_local {
            SigOrigin::Local
        } else {
            SigOrigin::Remote
        };
        let result = Signature::new(merged, origin);
        if !both_local && result.min_outer_depth() < min_depth {
            return None;
        }
        Some(result)
    }

    /// Approximate serialized size in bytes (the paper reports 1.7 KB per
    /// signature; Figure 3's bandwidth model uses this).
    pub fn size_bytes(&self) -> usize {
        self.to_string().len()
    }
}

impl fmt::Display for Signature {
    /// Serialized form, one signature per line-group:
    /// `sig <origin>` then alternating `outer`/`inner` stack lines.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sig {}", self.origin)?;
        for e in &self.entries {
            writeln!(f, "outer {}", e.outer)?;
            writeln!(f, "inner {}", e.inner)?;
        }
        write!(f, "end")
    }
}

/// Error parsing a [`Signature`] from its text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSignatureError {
    msg: String,
}

impl ParseSignatureError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ParseSignatureError { msg: msg.into() }
    }
}

impl fmt::Display for ParseSignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid signature: {}", self.msg)
    }
}

impl std::error::Error for ParseSignatureError {}

impl std::str::FromStr for Signature {
    type Err = ParseSignatureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut lines = s.lines().map(str::trim);
        let header = lines
            .next()
            .ok_or_else(|| ParseSignatureError::new("empty input"))?;
        let origin = match header {
            "sig local" => SigOrigin::Local,
            "sig remote" => SigOrigin::Remote,
            other => {
                return Err(ParseSignatureError::new(format!(
                    "bad header {other:?} (expected 'sig local' or 'sig remote')"
                )))
            }
        };
        let mut entries = Vec::new();
        let mut names = SharedNames::default();
        let mut pending_outer: Option<CallStack> = None;
        let mut saw_end = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if saw_end {
                return Err(ParseSignatureError::new("content after 'end'"));
            }
            if line == "end" {
                saw_end = true;
                continue;
            }
            if let Some(rest) =
                line.strip_prefix("outer ")
                    .or(if line == "outer" { Some("") } else { None })
            {
                if pending_outer.is_some() {
                    return Err(ParseSignatureError::new("two 'outer' lines in a row"));
                }
                pending_outer = Some(
                    parse_stack(rest, &mut names)
                        .map_err(|e| ParseSignatureError::new(format!("{e}")))?,
                );
            } else if let Some(rest) =
                line.strip_prefix("inner ")
                    .or(if line == "inner" { Some("") } else { None })
            {
                let outer = pending_outer
                    .take()
                    .ok_or_else(|| ParseSignatureError::new("'inner' without 'outer'"))?;
                let inner = parse_stack(rest, &mut names)
                    .map_err(|e| ParseSignatureError::new(format!("{e}")))?;
                entries.push(SigEntry::new(outer, inner));
            } else {
                return Err(ParseSignatureError::new(format!("bad line {line:?}")));
            }
        }
        if !saw_end {
            return Err(ParseSignatureError::new("missing 'end'"));
        }
        if pending_outer.is_some() {
            return Err(ParseSignatureError::new("'outer' without 'inner'"));
        }
        if entries.is_empty() {
            return Err(ParseSignatureError::new("signature has no entries"));
        }
        Ok(Signature::new(entries, origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn cs(frames: &[(&str, &str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(c, m, l)| Frame::new(*c, *m, *l))
            .collect()
    }

    /// The canonical two-thread deadlock used throughout these tests:
    /// t1 acquires A at `fooA` then blocks on B at `barB`;
    /// t2 acquires B at `fooB` then blocks on A at `barA`.
    fn sig_ab(extra_outer_depth: usize) -> Signature {
        let mut outer1 = vec![("app.M", "caller", 1), ("app.A", "fooA", 10)];
        let mut outer2 = vec![("app.M", "caller", 2), ("app.B", "fooB", 20)];
        for i in 0..extra_outer_depth {
            outer1.insert(0, ("app.D", "deep", 100 + i as u32));
            outer2.insert(0, ("app.D", "deep", 200 + i as u32));
        }
        let o1: Vec<(&str, &str, u32)> = outer1;
        let o2: Vec<(&str, &str, u32)> = outer2;
        Signature::local(vec![
            SigEntry::new(cs(&o1), cs(&[("app.A", "barB", 11)])),
            SigEntry::new(cs(&o2), cs(&[("app.B", "barA", 21)])),
        ])
    }

    #[test]
    fn canonical_order_is_independent_of_entry_order() {
        let e1 = SigEntry::new(cs(&[("a.A", "x", 1)]), cs(&[("a.A", "y", 2)]));
        let e2 = SigEntry::new(cs(&[("b.B", "x", 1)]), cs(&[("b.B", "y", 2)]));
        let s1 = Signature::local(vec![e1.clone(), e2.clone()]);
        let s2 = Signature::local(vec![e2, e1]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn same_bug_requires_identical_top_frames() {
        let a = sig_ab(0);
        let b = sig_ab(3); // deeper outer stacks, same lock statements
        assert!(a.same_bug(&b));

        let different = Signature::local(vec![
            SigEntry::new(cs(&[("app.A", "fooA", 10)]), cs(&[("app.A", "OTHER", 99)])),
            SigEntry::new(cs(&[("app.B", "fooB", 20)]), cs(&[("app.B", "barA", 21)])),
        ]);
        assert!(!a.same_bug(&different));
    }

    #[test]
    fn same_bug_requires_same_arity() {
        let a = sig_ab(0);
        let three = Signature::local(vec![
            a.entries()[0].clone(),
            a.entries()[1].clone(),
            SigEntry::new(cs(&[("c.C", "z", 1)]), cs(&[("c.C", "w", 2)])),
        ]);
        assert!(!a.same_bug(&three));
    }

    #[test]
    fn adjacency_shares_some_but_not_all() {
        let a = sig_ab(0);
        // Shares fooA/barB tops but has different second entry.
        let b = Signature::local(vec![
            SigEntry::new(cs(&[("app.A", "fooA", 10)]), cs(&[("app.A", "barB", 11)])),
            SigEntry::new(cs(&[("x.X", "other", 5)]), cs(&[("x.X", "inner", 6)])),
        ]);
        assert!(a.adjacent_to(&b));
        assert!(b.adjacent_to(&a));
        // Same bug (all tops equal) is NOT adjacent.
        assert!(!a.adjacent_to(&sig_ab(4)));
        // Fully disjoint is NOT adjacent.
        let c = Signature::local(vec![SigEntry::new(
            cs(&[("z.Z", "q", 1)]),
            cs(&[("z.Z", "r", 2)]),
        )]);
        assert!(!a.adjacent_to(&c));
    }

    #[test]
    fn merge_takes_longest_common_suffixes() {
        let a = sig_ab(2);
        let b = sig_ab(0);
        let m = a.merge(&b, 5).or_else(|| a.merge(&b, 0)).unwrap();
        // Common suffix of the outer stacks is the 2 shared frames.
        assert_eq!(m.entries()[0].outer.depth(), 2);
        assert!(m.same_bug(&a));
    }

    #[test]
    fn merge_of_different_bugs_fails() {
        let a = sig_ab(0);
        let c = Signature::local(vec![SigEntry::new(
            cs(&[("z.Z", "q", 1)]),
            cs(&[("z.Z", "r", 2)]),
        )]);
        assert!(a.merge(&c, 0).is_none());
    }

    #[test]
    fn merge_depth_rule_applies_to_remote_only() {
        let a = sig_ab(0); // outer depth 2 after merge
        let b = sig_ab(3).with_origin(SigOrigin::Remote);
        // Remote merge would give outer depth 2 < 5: refused.
        assert!(a.merge(&b, 5).is_none());
        // Local+local merge at the same depth is fine.
        let b_local = sig_ab(3);
        let m = a.merge(&b_local, 5).unwrap();
        assert_eq!(m.min_outer_depth(), 2);
        assert_eq!(m.origin(), SigOrigin::Local);
    }

    #[test]
    fn merge_involving_remote_yields_remote() {
        let a = sig_ab(4);
        let b = sig_ab(5).with_origin(SigOrigin::Remote);
        // Common outer depth = 6 ≥ 5 (4 extra + 2 base vs 5 extra + 2).
        let m = a.merge(&b, 5).expect("deep merge allowed");
        assert_eq!(m.origin(), SigOrigin::Remote);
        assert!(m.min_outer_depth() >= 5);
    }

    #[test]
    fn merge_is_commutative_on_stacks() {
        let a = sig_ab(2);
        let b = sig_ab(0);
        let m1 = a.merge(&b, 0).unwrap();
        let m2 = b.merge(&a, 0).unwrap();
        assert_eq!(m1.entries(), m2.entries());
    }

    #[test]
    fn merge_is_idempotent() {
        let a = sig_ab(1);
        let m = a.merge(&a, 0).unwrap();
        assert_eq!(m.entries(), a.entries());
    }

    #[test]
    fn min_outer_depth() {
        assert_eq!(sig_ab(0).min_outer_depth(), 2);
        assert_eq!(sig_ab(3).min_outer_depth(), 5);
    }

    #[test]
    fn text_roundtrip() {
        let a = sig_ab(2);
        let s = a.to_string();
        let parsed: Signature = s.parse().unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn text_roundtrip_remote() {
        let a = sig_ab(0).with_origin(SigOrigin::Remote);
        assert_eq!(a.to_string().parse::<Signature>().unwrap(), a);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("".parse::<Signature>().is_err());
        assert!("sig bogus\nend".parse::<Signature>().is_err());
        assert!("sig local\nend".parse::<Signature>().is_err()); // no entries
        assert!("sig local\nouter a#b:1\nend".parse::<Signature>().is_err()); // dangling outer
        assert!("sig local\ninner a#b:1\nend".parse::<Signature>().is_err()); // inner first
        assert!("sig local\nouter a#b:1\ninner a#c:2"
            .parse::<Signature>()
            .is_err()); // no end
        assert!("sig local\nouter a#b:1\nouter a#c:2\ninner a#d:3\nend"
            .parse::<Signature>()
            .is_err()); // double outer
        assert!("sig local\nouter a#b:1\ninner a#c:2\nend\ntrailing"
            .parse::<Signature>()
            .is_err());
    }

    #[test]
    fn size_bytes_is_plausible() {
        // A realistic depth-10, 2-thread signature with hashes should be
        // on the order of the paper's 1.7 KB.
        use communix_crypto::sha256;
        let deep: CallStack = (0..10)
            .map(|i| {
                Frame::with_hash(
                    "org.jboss.system.ServiceController",
                    "startService",
                    100 + i,
                    sha256(&[i as u8]),
                )
            })
            .collect();
        let sig = Signature::local(vec![
            SigEntry::new(deep.clone(), deep.clone()),
            SigEntry::new(deep.clone(), deep),
        ]);
        let size = sig.size_bytes();
        assert!(size > 800 && size < 6000, "size={size}");
    }

    #[test]
    fn same_bug_is_stable_under_entry_permutation() {
        let a = sig_ab(0);
        let b = Signature::local(vec![a.entries()[1].clone(), a.entries()[0].clone()]);
        assert!(a.same_bug(&b) && b.same_bug(&a));
    }
}
