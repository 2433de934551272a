//! Signature-instantiation matching: the avoidance decision kernel.
//!
//! "For a signature with outer call stacks CS1, …, CSn to be instantiated,
//! there must exist threads t1, …, tn that either hold or are block
//! waiting for locks l1, …, ln while having call stacks CS1, …, CSn. If no
//! signature from the deadlock history can be instantiated, the avoidance
//! module allows the caller thread to proceed with the lock acquisition;
//! otherwise, it suspends the thread." (§II-A)
//!
//! The matcher answers one question: *would adding this hold-or-wait
//! record complete an instantiation of any history signature?* Threads and
//! locks must be pairwise distinct across positions, so this is a small
//! exact-matching problem solved by backtracking (deadlock arity is 2–4 in
//! practice).

use std::collections::HashMap;

use crate::frame::{CallStack, Site};
use crate::history::History;
use crate::ids::{LockId, ThreadId};

/// A hold-or-wait record: thread `thread` holds (or waits for) `lock`,
/// and had call stack `stack` at the acquisition (or at the blocked
/// request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRecord {
    /// The thread.
    pub thread: ThreadId,
    /// The lock held or waited for.
    pub lock: LockId,
    /// Call stack at acquisition / blocked request.
    pub stack: CallStack,
}

/// A [`LockRecord`] by reference: what the matcher reads. The core hands
/// the matcher its published holds and waits in this form, so deciding an
/// acquisition copies no stack.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// The thread.
    pub thread: ThreadId,
    /// The lock held or waited for.
    pub lock: LockId,
    /// Call stack at acquisition / blocked request.
    pub stack: &'a CallStack,
}

impl LockRecord {
    /// This record, borrowed.
    pub fn as_ref(&self) -> RecordRef<'_> {
        RecordRef {
            thread: self.thread,
            lock: self.lock,
            stack: &self.stack,
        }
    }
}

/// A completed instantiation found by the matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instantiation {
    /// Index of the instantiated signature in the history.
    pub sig_index: usize,
    /// The records filling the signature positions (threads and locks are
    /// pairwise distinct). Includes the candidate record.
    pub participants: Vec<(ThreadId, LockId)>,
}

/// Pre-indexed outer stacks of every history signature.
#[derive(Debug, Clone, Default)]
pub struct AvoidanceMatcher {
    /// Outer stacks per signature.
    positions: Vec<Vec<CallStack>>,
    /// Top-frame site → (signature, position) pairs whose outer stack ends
    /// at that site. Suffix matching requires equal top frames, so a
    /// candidate whose top site no signature names costs one probe of this
    /// map and nothing else. What the index does not prune: at a named
    /// site every listed slot still pays a suffix comparison, and every
    /// slot whose suffix matches pays a backtracking pass over the
    /// published records.
    by_top: HashMap<Site, Vec<(usize, usize)>>,
    /// Cumulative count of stack-suffix comparisons performed — the cost
    /// driver of signature matching. Runtimes convert the delta per
    /// request into simulated time, reproducing the paper's observation
    /// that shallow (depth-1) signatures cost far more than deep ones.
    work: u64,
}

impl AvoidanceMatcher {
    /// Builds a matcher over the signatures of `history`.
    pub fn new(history: &History) -> Self {
        let mut m = AvoidanceMatcher::default();
        m.rebuild(history);
        m
    }

    /// Rebuilds the index after the history changed.
    pub fn rebuild(&mut self, history: &History) {
        self.positions.clear();
        self.by_top.clear();
        for (si, sig) in history.signatures().iter().enumerate() {
            let outers: Vec<CallStack> = sig.entries().iter().map(|e| e.outer.clone()).collect();
            for (pi, outer) in outers.iter().enumerate() {
                if let Some(top) = outer.top() {
                    self.by_top
                        .entry(top.site.clone())
                        .or_default()
                        .push((si, pi));
                }
            }
            self.positions.push(outers);
        }
    }

    /// Cumulative suffix-comparison count (monotonic). The difference
    /// across a call is the matching work that call performed.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of indexed signatures.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether any signatures are indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Would adding `candidate` to `records` complete an instantiation of
    /// any signature? Returns the first instantiation found.
    ///
    /// `records` are the current hold-or-wait records of all *other*
    /// activity; records belonging to `candidate.thread` are ignored for
    /// the other positions (a deadlock needs n distinct threads).
    pub fn would_instantiate(
        &mut self,
        candidate: &LockRecord,
        records: &[LockRecord],
    ) -> Option<Instantiation> {
        self.would_instantiate_ref(candidate.as_ref(), records.iter().map(LockRecord::as_ref))
    }

    /// [`would_instantiate`](Self::would_instantiate) over borrowed
    /// records. `records` is walked once per open signature position, in
    /// its own order, so the order decides which of several eligible
    /// records is reported and how much [`work`](Self::work) is charged.
    pub fn would_instantiate_ref<'a>(
        &mut self,
        candidate: RecordRef<'_>,
        records: impl Iterator<Item = RecordRef<'a>> + Clone,
    ) -> Option<Instantiation> {
        let top = candidate.stack.top()?;
        let slots = self.by_top.get(&top.site)?;
        for &(si, pi) in slots {
            self.work += 1;
            let outers = &self.positions[si];
            if !outers[pi].is_suffix_of(candidate.stack) {
                continue;
            }
            let mut assignment = vec![None; outers.len()];
            assignment[pi] = Some((candidate.thread, candidate.lock));
            if backtrack(
                &mut self.work,
                outers,
                &records,
                &mut assignment,
                0,
                Some(candidate.thread),
            ) {
                return Some(Instantiation {
                    sig_index: si,
                    participants: assignment.into_iter().flatten().collect(),
                });
            }
        }
        None
    }

    /// Whether the current records alone (no candidate) instantiate
    /// signature `si`. Used by re-check logic and tests.
    pub fn is_instantiated(
        &mut self,
        si: usize,
        records: &[LockRecord],
    ) -> Option<Vec<(ThreadId, LockId)>> {
        let outers = self.positions.get(si)?;
        let mut assignment = vec![None; outers.len()];
        let records = records.iter().map(LockRecord::as_ref);
        backtrack(&mut self.work, outers, &records, &mut assignment, 0, None)
            .then(|| assignment.into_iter().flatten().collect())
    }
}

/// Fills unassigned positions from `records`, requiring pairwise distinct
/// threads and locks. `exclude_thread` (the candidate's thread) may not
/// fill any other position. Every suffix comparison is added to `work`.
fn backtrack<'a, I>(
    work: &mut u64,
    outers: &[CallStack],
    records: &I,
    assignment: &mut [Option<(ThreadId, LockId)>],
    from: usize,
    exclude_thread: Option<ThreadId>,
) -> bool
where
    I: Iterator<Item = RecordRef<'a>> + Clone,
{
    let Some(pos) = (from..outers.len()).find(|i| assignment[*i].is_none()) else {
        return true; // all positions filled
    };
    for r in records.clone() {
        if Some(r.thread) == exclude_thread {
            continue;
        }
        let clash = assignment
            .iter()
            .flatten()
            .any(|(t, l)| *t == r.thread || *l == r.lock);
        if clash {
            continue;
        }
        *work += 1;
        if !outers[pos].is_suffix_of(r.stack) {
            continue;
        }
        assignment[pos] = Some((r.thread, r.lock));
        if backtrack(work, outers, records, assignment, pos + 1, exclude_thread) {
            return true;
        }
        assignment[pos] = None;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::signature::{SigEntry, Signature};

    fn cs(frames: &[(&str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    /// Signature of the classic AB/BA deadlock: outer stacks end at
    /// lockA:10 and lockB:20.
    fn history_ab() -> History {
        let sig = Signature::local(vec![
            SigEntry::new(
                cs(&[("run", 1), ("lockA", 10)]),
                cs(&[("run", 1), ("lockA", 10), ("lockB", 11)]),
            ),
            SigEntry::new(
                cs(&[("run", 2), ("lockB", 20)]),
                cs(&[("run", 2), ("lockB", 20), ("lockA", 21)]),
            ),
        ]);
        let mut h = History::new();
        h.add(sig);
        h
    }

    fn rec(t: u64, l: u64, frames: &[(&str, u32)]) -> LockRecord {
        LockRecord {
            thread: ThreadId(t),
            lock: LockId(l),
            stack: cs(frames),
        }
    }

    #[test]
    fn completing_record_detected() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        // Thread 1 already holds lock 1 at the lockA position.
        let records = vec![rec(1, 1, &[("main", 0), ("run", 1), ("lockA", 10)])];
        // Thread 2 now asks to hold lock 2 at the lockB position: together
        // they instantiate the signature.
        let cand = rec(2, 2, &[("main", 0), ("run", 2), ("lockB", 20)]);
        let inst = m.would_instantiate(&cand, &records).expect("instantiation");
        assert_eq!(inst.sig_index, 0);
        assert_eq!(inst.participants.len(), 2);
        assert!(inst.participants.contains(&(ThreadId(2), LockId(2))));
    }

    #[test]
    fn no_instantiation_without_partner() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        let cand = rec(2, 2, &[("run", 2), ("lockB", 20)]);
        assert!(m.would_instantiate(&cand, &[]).is_none());
    }

    #[test]
    fn top_frame_mismatch_is_cheaply_rejected() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        let records = vec![rec(1, 1, &[("run", 1), ("lockA", 10)])];
        let cand = rec(2, 2, &[("elsewhere", 99)]);
        assert!(m.would_instantiate(&cand, &records).is_none());
    }

    #[test]
    fn suffix_must_match_not_just_top() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        let records = vec![rec(1, 1, &[("run", 1), ("lockA", 10)])];
        // Same top frame (lockB:20) but different caller (run:7 ≠ run:2):
        // signature stack [run:2, lockB:20] is NOT a suffix.
        let cand = rec(2, 2, &[("run", 7), ("lockB", 20)]);
        assert!(m.would_instantiate(&cand, &records).is_none());
    }

    #[test]
    fn distinct_threads_required() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        // The same thread holds the lockA-position record.
        let records = vec![rec(2, 1, &[("run", 1), ("lockA", 10)])];
        let cand = rec(2, 2, &[("run", 2), ("lockB", 20)]);
        assert!(m.would_instantiate(&cand, &records).is_none());
    }

    #[test]
    fn distinct_locks_required() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        // Partner record uses the same lock id as the candidate.
        let records = vec![rec(1, 2, &[("run", 1), ("lockA", 10)])];
        let cand = rec(2, 2, &[("run", 2), ("lockB", 20)]);
        assert!(m.would_instantiate(&cand, &records).is_none());
    }

    #[test]
    fn waiting_records_count_like_holds() {
        // The matcher is agnostic: callers pass wait records in `records`.
        let mut m = AvoidanceMatcher::new(&history_ab());
        let records = vec![rec(5, 9, &[("wrap", 3), ("run", 1), ("lockA", 10)])];
        let cand = rec(6, 8, &[("run", 2), ("lockB", 20)]);
        assert!(m.would_instantiate(&cand, &records).is_some());
    }

    #[test]
    fn three_thread_signature_requires_all_positions() {
        let sig = Signature::local(vec![
            SigEntry::new(cs(&[("p1", 1)]), cs(&[("q1", 2)])),
            SigEntry::new(cs(&[("p2", 3)]), cs(&[("q2", 4)])),
            SigEntry::new(cs(&[("p3", 5)]), cs(&[("q3", 6)])),
        ]);
        let mut h = History::new();
        h.add(sig);
        let mut m = AvoidanceMatcher::new(&h);

        let r1 = rec(1, 1, &[("p1", 1)]);
        let r2 = rec(2, 2, &[("p2", 3)]);
        let cand = rec(3, 3, &[("p3", 5)]);
        // Only one partner: incomplete.
        assert!(m
            .would_instantiate(&cand, std::slice::from_ref(&r1))
            .is_none());
        // Both partners: instantiation.
        let inst = m.would_instantiate(&cand, &[r1, r2]).unwrap();
        assert_eq!(inst.participants.len(), 3);
    }

    #[test]
    fn candidate_can_fill_any_matching_position() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        // Candidate matches the lockA position; partner fills lockB.
        let records = vec![rec(9, 7, &[("run", 2), ("lockB", 20)])];
        let cand = rec(1, 1, &[("run", 1), ("lockA", 10)]);
        assert!(m.would_instantiate(&cand, &records).is_some());
    }

    #[test]
    fn is_instantiated_without_candidate() {
        let mut m = AvoidanceMatcher::new(&history_ab());
        let records = vec![
            rec(1, 1, &[("run", 1), ("lockA", 10)]),
            rec(2, 2, &[("run", 2), ("lockB", 20)]),
        ];
        assert!(m.is_instantiated(0, &records).is_some());
        assert!(m.is_instantiated(0, &records[..1]).is_none());
        assert!(m.is_instantiated(7, &records).is_none()); // no such sig
    }

    #[test]
    fn rebuild_reflects_history_changes() {
        let mut h = history_ab();
        let mut m = AvoidanceMatcher::new(&h);
        assert_eq!(m.len(), 1);
        h.clear();
        m.rebuild(&h);
        assert!(m.is_empty());
        let cand = rec(2, 2, &[("run", 2), ("lockB", 20)]);
        assert!(m
            .would_instantiate(&cand, &[rec(1, 1, &[("run", 1), ("lockA", 10)])])
            .is_none());
    }

    #[test]
    fn backtracking_explores_alternatives() {
        // Two records could fill position lockA, but only one leaves a
        // distinct lock for the candidate's position.
        let mut m = AvoidanceMatcher::new(&history_ab());
        let records = vec![
            rec(1, 2, &[("run", 1), ("lockA", 10)]), // clashes with cand's lock
            rec(3, 4, &[("run", 1), ("lockA", 10)]), // works
        ];
        let cand = rec(2, 2, &[("run", 2), ("lockB", 20)]);
        let inst = m.would_instantiate(&cand, &records).unwrap();
        assert!(inst.participants.contains(&(ThreadId(3), LockId(4))));
    }
}
