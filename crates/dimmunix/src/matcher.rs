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
//!
//! It works on stacks of [`SiteId`]s from its [`SiteTable`]: a suffix
//! comparison compares integers. The owned-record entry points look their
//! `CallStack`s up in the table first; a site the table lacks matches no
//! signature frame.

use std::sync::Arc;

use crate::frame::CallStack;
use crate::history::History;
use crate::ids::{LockId, ThreadId};
use crate::signature::Signature;
use crate::sites::{SiteId, SiteTable};

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

/// A hold-or-wait record by reference, its stack as ids from the
/// matcher's [`SiteTable`]: what the matcher reads. The core hands the
/// matcher its published holds and waits in this form, so deciding an
/// acquisition copies no stack.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// The thread.
    pub thread: ThreadId,
    /// The lock held or waited for.
    pub lock: LockId,
    /// Call stack at acquisition / blocked request, outermost first.
    pub stack: &'a [SiteId],
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

/// Pre-indexed outer stacks of every history signature. A clone shares
/// the site table.
#[derive(Debug, Clone, Default)]
pub struct AvoidanceMatcher {
    /// Interns the outer stacks; shared with the core and runtime that
    /// use this matcher.
    sites: Arc<SiteTable>,
    /// Outer stacks per signature.
    positions: Vec<Vec<Box<[SiteId]>>>,
    /// Indexed by top-frame site id: the (signature, position) pairs whose
    /// outer stack ends at that site, up to the highest such id. Suffix
    /// matching requires equal top frames, so a candidate whose top site
    /// no signature names costs one bounds-checked index and nothing else.
    /// What the index does not prune: at a named site every listed slot
    /// still pays a suffix comparison (a compare of two id slices), and
    /// every slot whose suffix matches pays a backtracking pass over the
    /// published records.
    by_top: Vec<Vec<(usize, usize)>>,
    /// Cumulative count of stack-suffix comparisons performed — the cost
    /// driver of signature matching. Runtimes convert the delta per
    /// request into simulated time, reproducing the paper's observation
    /// that shallow (depth-1) signatures cost far more than deep ones.
    work: u64,
    /// The backtracking pass's position assignment, kept so a suffix hit
    /// allocates nothing.
    scratch: Vec<Option<(ThreadId, LockId)>>,
}

impl AvoidanceMatcher {
    /// Builds a matcher over the signatures of `history`, with a site
    /// table of its own.
    pub fn new(history: &History) -> Self {
        let mut m = AvoidanceMatcher::default();
        m.rebuild(history);
        m
    }

    /// The table the matcher's stacks are ids in.
    pub fn sites(&self) -> &Arc<SiteTable> {
        &self.sites
    }

    /// Rebuilds the index after the history changed. Interns the outer
    /// stacks' sites.
    pub fn rebuild(&mut self, history: &History) {
        self.positions.clear();
        self.by_top.clear();
        for sig in history.signatures() {
            self.push(sig);
        }
    }

    /// Indexes `sig` as the history's next signature: what [`rebuild`]
    /// would do after [`History::add`] appended it, without re-indexing
    /// the others.
    ///
    /// [`rebuild`]: Self::rebuild
    pub fn push(&mut self, sig: &Signature) {
        let si = self.positions.len();
        let outers: Vec<Box<[SiteId]>> = sig
            .entries()
            .iter()
            .map(|e| self.sites.intern_stack(&e.outer))
            .collect();
        for (pi, outer) in outers.iter().enumerate() {
            if let Some(top) = outer.last() {
                let top = top.index();
                if top >= self.by_top.len() {
                    self.by_top.resize_with(top + 1, Vec::new);
                }
                self.by_top[top].push((si, pi));
            }
        }
        self.positions.push(outers);
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
        // Suffix matching needs equal top sites: a candidate at a site no
        // signature names is turned away before any stack is looked up.
        let top = candidate.stack.frames().last()?;
        let top = self.sites.read().get_site(&top.site)?;
        if self.by_top.get(top.index()).is_none_or(Vec::is_empty) {
            return None;
        }
        let candidate_ids = self.sites.read().lookup(&candidate.stack);
        let record_ids = self.lookup(records);
        let candidate = RecordRef {
            thread: candidate.thread,
            lock: candidate.lock,
            stack: &candidate_ids,
        };
        self.would_instantiate_ref(candidate, by_ref(records, &record_ids))
    }

    /// [`would_instantiate`](Self::would_instantiate) over borrowed
    /// records, their stacks ids from [`sites`](Self::sites). `records`
    /// is walked once per open signature position, in its own order, so
    /// the order decides which of several eligible records is reported and
    /// how much [`work`](Self::work) is charged.
    pub fn would_instantiate_ref<'a>(
        &mut self,
        candidate: RecordRef<'_>,
        records: impl Iterator<Item = RecordRef<'a>> + Clone,
    ) -> Option<Instantiation> {
        let top = candidate.stack.last()?;
        let slots = self.by_top.get(top.index())?;
        for &(si, pi) in slots {
            self.work += 1;
            let outers = &self.positions[si];
            if !candidate.stack.ends_with(&outers[pi]) {
                continue;
            }
            let assignment = &mut self.scratch;
            assignment.clear();
            assignment.resize(outers.len(), None);
            assignment[pi] = Some((candidate.thread, candidate.lock));
            if backtrack(
                &mut self.work,
                outers,
                &records,
                assignment,
                0,
                Some(candidate.thread),
            ) {
                return Some(Instantiation {
                    sig_index: si,
                    participants: assignment.iter().flatten().copied().collect(),
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
        let record_ids = self.lookup(records);
        let outers = self.positions.get(si)?;
        let mut assignment = vec![None; outers.len()];
        let records = by_ref(records, &record_ids);
        backtrack(&mut self.work, outers, &records, &mut assignment, 0, None)
            .then(|| assignment.into_iter().flatten().collect())
    }

    /// The ids of each record's stack, a site the table lacks as an id
    /// that matches nothing.
    fn lookup(&self, records: &[LockRecord]) -> Vec<Vec<SiteId>> {
        let sites = self.sites.read();
        records.iter().map(|r| sites.lookup(&r.stack)).collect()
    }
}

/// `records` with their stacks replaced by `ids` (one per record, in
/// order).
fn by_ref<'a>(
    records: &'a [LockRecord],
    ids: &'a [Vec<SiteId>],
) -> impl Iterator<Item = RecordRef<'a>> + Clone {
    records.iter().zip(ids).map(|(r, stack)| RecordRef {
        thread: r.thread,
        lock: r.lock,
        stack,
    })
}

/// Fills unassigned positions from `records`, requiring pairwise distinct
/// threads and locks. `exclude_thread` (the candidate's thread) may not
/// fill any other position. Every suffix comparison is added to `work`.
fn backtrack<'a, I>(
    work: &mut u64,
    outers: &[Box<[SiteId]>],
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
        if !r.stack.ends_with(&outers[pos]) {
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
    use crate::signature::SigEntry;

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
        let partner = [rec(1, 1, &[("run", 1), ("lockA", 10)])];
        assert!(m.would_instantiate(&cand, &partner).is_none());
        // Pushing the signature back indexes it as rebuilding would.
        m.push(&history_ab().signatures()[0]);
        assert_eq!(m.len(), 1);
        let inst = m.would_instantiate(&cand, &partner).expect("instantiation");
        assert_eq!(inst.sig_index, 0);
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
