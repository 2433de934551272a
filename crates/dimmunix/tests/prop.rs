//! Property-based tests for signature algebra, history persistence, and
//! the avoidance matcher.

use communix_dimmunix::{
    AvoidanceMatcher, CallStack, Frame, History, LockId, LockRecord, RecordRef, SigEntry,
    SigOrigin, Signature, ThreadId,
};
use proptest::prelude::*;

/// Strategy for a frame with a small vocabulary so collisions (shared
/// suffixes, shared top frames) actually happen.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (0..4u8, 0..6u8, 1..50u32)
        .prop_map(|(c, m, l)| Frame::new(format!("pkg.Class{c}"), format!("method{m}"), l))
}

fn arb_stack(max_depth: usize) -> impl Strategy<Value = CallStack> {
    proptest::collection::vec(arb_frame(), 1..=max_depth)
        .prop_map(|frames| frames.into_iter().collect())
}

fn arb_entry() -> impl Strategy<Value = SigEntry> {
    (arb_stack(8), arb_stack(8)).prop_map(|(o, i)| SigEntry::new(o, i))
}

fn arb_signature() -> impl Strategy<Value = Signature> {
    (
        proptest::collection::vec(arb_entry(), 1..4),
        proptest::bool::ANY,
    )
        .prop_map(|(entries, local)| {
            Signature::new(
                entries,
                if local {
                    SigOrigin::Local
                } else {
                    SigOrigin::Remote
                },
            )
        })
}

/// Stacks over four sites and at most two frames, so that top frames and
/// whole suffixes collide often enough for the matcher to get past its
/// index, into backtracking, and to an instantiation.
fn arb_colliding_stack() -> impl Strategy<Value = CallStack> {
    proptest::collection::vec((0..2u8, 1..3u32), 1..=2).prop_map(|frames| {
        frames
            .into_iter()
            .map(|(m, l)| Frame::new("pkg.Class", format!("method{m}"), l))
            .collect()
    })
}

fn arb_colliding_history() -> impl Strategy<Value = History> {
    let entry = (arb_colliding_stack(), arb_colliding_stack())
        .prop_map(|(outer, inner)| SigEntry::new(outer, inner));
    let signature = proptest::collection::vec(entry, 2..4).prop_map(Signature::local);
    proptest::collection::vec(signature, 0..6).prop_map(|sigs| sigs.into_iter().collect())
}

proptest! {
    /// Signature text serialization round-trips.
    #[test]
    fn signature_text_roundtrip(sig in arb_signature()) {
        let parsed: Signature = sig.to_string().parse().unwrap();
        prop_assert_eq!(parsed, sig);
    }

    /// A stack is always a suffix of itself; a deeper stack never is.
    #[test]
    fn suffix_reflexivity(s in arb_stack(10)) {
        prop_assert!(s.is_suffix_of(&s));
        let mut deeper = s.clone();
        deeper.frames_mut().insert(0, Frame::new("x.X", "pad", 999));
        prop_assert!(s.is_suffix_of(&deeper));
        prop_assert!(!deeper.is_suffix_of(&s));
    }

    /// The longest common suffix is a suffix of both inputs, and is the
    /// whole of either input iff they are site-equal.
    #[test]
    fn lcs_is_common_suffix(a in arb_stack(10), b in arb_stack(10)) {
        let l = a.longest_common_suffix(&b);
        prop_assert!(l.is_suffix_of(&a));
        prop_assert!(l.is_suffix_of(&b));
        prop_assert!(l.depth() <= a.depth().min(b.depth()));
    }

    /// LCS is commutative (on sites).
    #[test]
    fn lcs_commutative(a in arb_stack(10), b in arb_stack(10)) {
        let ab = a.longest_common_suffix(&b);
        let ba = b.longest_common_suffix(&a);
        prop_assert_eq!(ab.depth(), ba.depth());
        prop_assert!(ab.is_suffix_of(&ba) && ba.is_suffix_of(&ab));
    }

    /// Merging a signature with itself yields itself (idempotence), and
    /// merge never deepens any outer stack.
    #[test]
    fn merge_idempotent_and_never_deepens(sig in arb_signature()) {
        if let Some(m) = sig.merge(&sig, 0) {
            prop_assert_eq!(m.entries(), sig.entries());
        }
        let other = sig.clone();
        if let Some(m) = sig.merge(&other, 0) {
            prop_assert!(m.min_outer_depth() <= sig.min_outer_depth());
        }
    }

    /// same_bug is an equivalence on the generated space: reflexive,
    /// symmetric.
    #[test]
    fn same_bug_reflexive_symmetric(a in arb_signature(), b in arb_signature()) {
        prop_assert!(a.same_bug(&a));
        prop_assert_eq!(a.same_bug(&b), b.same_bug(&a));
    }

    /// Adjacency is irreflexive and symmetric.
    #[test]
    fn adjacency_irreflexive_symmetric(a in arb_signature(), b in arb_signature()) {
        prop_assert!(!a.adjacent_to(&a));
        prop_assert_eq!(a.adjacent_to(&b), b.adjacent_to(&a));
    }

    /// The matcher never reports an instantiation whose participants
    /// repeat a thread or lock, and always includes the candidate.
    #[test]
    fn matcher_participants_are_distinct(
        sig in arb_signature(),
        records in proptest::collection::vec(
            (1..6u64, 1..6u64, arb_stack(6)),
            0..6
        ),
        cand in (10..12u64, 10..12u64, arb_stack(6)),
    ) {
        let mut h = History::new();
        h.add(sig);
        let mut m = AvoidanceMatcher::new(&h);
        let records: Vec<LockRecord> = records
            .into_iter()
            .map(|(t, l, s)| LockRecord { thread: ThreadId(t), lock: LockId(l), stack: s })
            .collect();
        let candidate = LockRecord {
            thread: ThreadId(cand.0),
            lock: LockId(cand.1),
            stack: cand.2,
        };
        if let Some(inst) = m.would_instantiate(&candidate, &records) {
            let mut threads: Vec<_> = inst.participants.iter().map(|(t, _)| *t).collect();
            let mut locks: Vec<_> = inst.participants.iter().map(|(_, l)| *l).collect();
            threads.sort(); threads.dedup();
            locks.sort(); locks.dedup();
            prop_assert_eq!(threads.len(), inst.participants.len());
            prop_assert_eq!(locks.len(), inst.participants.len());
            prop_assert!(inst.participants.contains(&(candidate.thread, candidate.lock)));
        }
    }

    /// The id walk over borrowed records and the owned-records
    /// `would_instantiate` decide alike and charge the same work, whatever
    /// holds the records and whichever sites the table had before.
    #[test]
    fn borrowed_walk_agrees_with_owned_records(
        history in arb_colliding_history(),
        records in proptest::collection::vec(
            (1..5u64, 1..5u64, arb_colliding_stack()),
            0..8
        ),
        cand in (1..5u64, 1..5u64, arb_colliding_stack()),
    ) {
        let owned: Vec<LockRecord> = records
            .iter()
            .map(|(t, l, s)| LockRecord { thread: ThreadId(*t), lock: LockId(*l), stack: s.clone() })
            .collect();
        let candidate = LockRecord {
            thread: ThreadId(cand.0),
            lock: LockId(cand.1),
            stack: cand.2,
        };
        let mut by_slice = AvoidanceMatcher::new(&history);
        let mut by_ids = by_slice.clone();

        let expected = by_slice.would_instantiate(&candidate, &owned);
        // Interning adds the sites no signature names, which the owned
        // path only looks up: neither may match.
        let sites = by_ids.sites().clone();
        let ids: Vec<_> = records.iter().map(|(_, _, s)| sites.intern_stack(s)).collect();
        let candidate_ids = sites.intern_stack(&candidate.stack);
        let borrowed = records.iter().zip(&ids).map(|((t, l, _), stack)| RecordRef {
            thread: ThreadId(*t),
            lock: LockId(*l),
            stack,
        });
        let candidate = RecordRef {
            thread: candidate.thread,
            lock: candidate.lock,
            stack: &candidate_ids,
        };
        let got = by_ids.would_instantiate_ref(candidate, borrowed);

        prop_assert_eq!(got, expected);
        prop_assert_eq!(by_ids.work(), by_slice.work());
    }

    /// Truncating to a suffix then re-checking: the truncated stack is a
    /// suffix of the original.
    #[test]
    fn truncate_produces_suffix(s in arb_stack(10), n in 0usize..12) {
        let mut t = s.clone();
        t.truncate_to_suffix(n);
        prop_assert!(t.is_suffix_of(&s));
        prop_assert!(t.depth() <= n.min(s.depth()) || s.depth() <= n);
    }
}
