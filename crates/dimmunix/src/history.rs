//! The deadlock history.
//!
//! Dimmunix "extracts the signature of the deadlock, stores it in a
//! persistent history, then alters future thread schedules … to avoid
//! execution flows matching the signature" (§II-A). The history is an
//! ordered set of signatures. It persists as the operations that built
//! it: a Communix node logs each detection and each admission to its
//! repository log and folds them back through [`History::add`] and
//! [`History::add_generalizing`] in log order at the next start.

use crate::signature::Signature;

/// What [`History::add`] did with a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The signature was new and was appended.
    Added,
    /// An identical signature was already present.
    Duplicate,
    /// The signature was merged into an existing signature of the same
    /// bug (generalization, §III-D); the index of the merged entry.
    Merged(usize),
}

/// An ordered set of deadlock signatures.
#[derive(Debug, Clone, Default)]
pub struct History {
    sigs: Vec<Signature>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// The signatures, in insertion order.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Appends `sig` verbatim if not an exact duplicate, without
    /// attempting generalization. Dimmunix's detection path uses this;
    /// the agent uses [`History::add_generalizing`].
    pub fn add(&mut self, sig: Signature) -> AddOutcome {
        if self.sigs.contains(&sig) {
            return AddOutcome::Duplicate;
        }
        self.sigs.push(sig);
        AddOutcome::Added
    }

    /// Adds `sig`, first trying to merge it with an existing signature of
    /// the same bug under the depth rule (`min_depth`, the agent passes
    /// 5). Replaces the matched signature with the generalization.
    pub fn add_generalizing(&mut self, sig: Signature, min_depth: usize) -> AddOutcome {
        if self.sigs.contains(&sig) {
            return AddOutcome::Duplicate;
        }
        for (i, existing) in self.sigs.iter().enumerate() {
            if let Some(merged) = existing.merge(&sig, min_depth) {
                if merged == *existing {
                    // Generalization changed nothing: the incoming
                    // signature was already covered.
                    return AddOutcome::Duplicate;
                }
                self.sigs[i] = merged;
                return AddOutcome::Merged(i);
            }
        }
        self.sigs.push(sig);
        AddOutcome::Added
    }

    /// Signatures representing the same bug as `sig`.
    pub fn same_bug(&self, sig: &Signature) -> Vec<&Signature> {
        self.sigs.iter().filter(|s| s.same_bug(sig)).collect()
    }

    /// Removes the signature at `index`.
    pub fn remove(&mut self, index: usize) -> Signature {
        self.sigs.remove(index)
    }

    /// Removes all signatures, returning them.
    pub fn clear(&mut self) -> Vec<Signature> {
        std::mem::take(&mut self.sigs)
    }

    /// The history as text: a header line, then one `sig … end` block
    /// per signature.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# dimmunix deadlock history v1\n");
        for s in &self.sigs {
            out.push_str(&s.to_string());
            out.push('\n');
        }
        out
    }
}

impl FromIterator<Signature> for History {
    fn from_iter<T: IntoIterator<Item = Signature>>(iter: T) -> Self {
        let mut h = History::new();
        for s in iter {
            h.add(s);
        }
        h
    }
}

impl Extend<Signature> for History {
    fn extend<T: IntoIterator<Item = Signature>>(&mut self, iter: T) {
        for s in iter {
            self.add(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{CallStack, Frame};
    use crate::signature::SigEntry;

    fn cs(frames: &[(&str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    fn sig(tag: u32, depth: usize) -> Signature {
        let mut outer1 = vec![("fooA", tag * 100 + 10)];
        let mut outer2 = vec![("fooB", tag * 100 + 20)];
        for i in 0..depth {
            outer1.insert(0, ("deep", tag * 100 + 30 + i as u32));
            outer2.insert(0, ("deep", tag * 100 + 60 + i as u32));
        }
        Signature::local(vec![
            SigEntry::new(cs(&outer1), cs(&[("barB", tag * 100 + 11)])),
            SigEntry::new(cs(&outer2), cs(&[("barA", tag * 100 + 21)])),
        ])
    }

    #[test]
    fn add_and_dedup() {
        let mut h = History::new();
        assert_eq!(h.add(sig(1, 0)), AddOutcome::Added);
        assert_eq!(h.add(sig(1, 0)), AddOutcome::Duplicate);
        assert_eq!(h.add(sig(2, 0)), AddOutcome::Added);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn generalizing_add_merges_same_bug() {
        let mut h = History::new();
        h.add(sig(1, 3)); // deeper manifestation
        match h.add_generalizing(sig(1, 1), 0) {
            AddOutcome::Merged(0) => {}
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(h.len(), 1);
        // The merged signature is the common suffix (depth 2 outers).
        assert_eq!(h.signatures()[0].min_outer_depth(), 2);
    }

    #[test]
    fn generalizing_add_keeps_distinct_bugs() {
        let mut h = History::new();
        h.add_generalizing(sig(1, 0), 0);
        h.add_generalizing(sig(2, 0), 0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn generalizing_add_covered_signature_is_duplicate() {
        let mut h = History::new();
        h.add(sig(1, 1));
        // sig(1, 1) merged with a deeper manifestation keeps the existing
        // (shorter) suffix: nothing changes.
        assert_eq!(h.add_generalizing(sig(1, 4), 0), AddOutcome::Duplicate);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn same_bug_lookup() {
        let mut h = History::new();
        h.add(sig(1, 0));
        h.add(sig(2, 0));
        assert_eq!(h.same_bug(&sig(1, 5)).len(), 1);
        assert_eq!(h.same_bug(&sig(9, 0)).len(), 0);
    }

    #[test]
    fn collect_and_extend() {
        let h: History = vec![sig(1, 0), sig(2, 0), sig(1, 0)].into_iter().collect();
        assert_eq!(h.len(), 2); // dedup applied
        let mut h2 = History::new();
        h2.extend(h.signatures().iter().cloned());
        assert_eq!(h2.len(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut h = History::new();
        h.add(sig(1, 0));
        h.add(sig(2, 0));
        let removed = h.remove(0);
        assert!(removed.same_bug(&sig(1, 0)));
        assert_eq!(h.len(), 1);
        let all = h.clear();
        assert_eq!(all.len(), 1);
        assert!(h.is_empty());
    }
}
