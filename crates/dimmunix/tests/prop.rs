//! Property-based tests for signature algebra, history persistence, and
//! the avoidance matcher, and the signature parser and generalization
//! held to the split-based parser and `bug_id`-based merge they replaced,
//! kept here as reference models.

use std::collections::BTreeSet;
use std::sync::Arc;

use communix_crypto::{sha256, Digest};
use communix_dimmunix::{
    AddOutcome, AvoidanceMatcher, CallStack, Frame, History, LockId, LockRecord, RecordRef,
    SigEntry, SigOrigin, Signature, Site, ThreadId,
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

    /// The merge walk that `adjacent_to` and the server's site-key check
    /// share answers as the set definition it replaced — some element
    /// shared, the sets not equal — on small sets that overlap often,
    /// given as sets and as sorted slices.
    #[test]
    fn sorted_adjacency_is_the_set_definition(
        a in proptest::collection::vec(0..6u64, 0..5),
        b in proptest::collection::vec(0..6u64, 0..5),
    ) {
        let (a, b): (BTreeSet<u64>, BTreeSet<u64>) = (a.into_iter().collect(), b.into_iter().collect());
        let model = a.intersection(&b).next().is_some() && a != b;
        prop_assert_eq!(Signature::sorted_adjacent(&a, &b), model);
        let (a, b): (Vec<u64>, Vec<u64>) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(Signature::sorted_adjacent(a.iter(), b.iter()), model);
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

// ---------------------------------------------------------------------
// The parser against its reference model
// ---------------------------------------------------------------------

/// The split-based `Frame` parser the in-place one replaced: split once
/// on `#`, then on `:`. Errors are their `Display` text.
fn reference_frame(s: &str) -> Result<Frame, String> {
    let err = |m: String| format!("invalid frame: {m}");
    let (class, rest) = s
        .split_once('#')
        .ok_or_else(|| err(format!("missing '#' in {s:?}")))?;
    if class.is_empty() {
        return Err(err("empty class name".into()));
    }
    let mut parts = rest.split(':');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| err("empty method name".into()))?;
    let line: u32 = parts
        .next()
        .ok_or_else(|| err("missing line number".into()))?
        .parse()
        .map_err(|e| err(format!("bad line number: {e}")))?;
    let hash = match parts.next() {
        None => None,
        Some(h) => Some(Digest::from_hex(h).map_err(|e| err(format!("bad hash: {e}")))?),
    };
    if parts.next().is_some() {
        return Err(err("trailing fields".into()));
    }
    Ok(Frame {
        site: Site::new(class, method, line),
        hash,
    })
}

/// The reference `CallStack` parser: split on `|`, parse each frame.
fn reference_stack(s: &str) -> Result<CallStack, String> {
    if s.is_empty() {
        return Ok(CallStack::empty());
    }
    s.split('|').map(reference_frame).collect()
}

/// The reference `Signature` parser, line by line.
fn reference_signature(s: &str) -> Result<Signature, String> {
    let err = |m: String| format!("invalid signature: {m}");
    let mut lines = s.lines().map(str::trim);
    let header = lines.next().ok_or_else(|| err("empty input".into()))?;
    let origin = match header {
        "sig local" => SigOrigin::Local,
        "sig remote" => SigOrigin::Remote,
        other => {
            return Err(err(format!(
                "bad header {other:?} (expected 'sig local' or 'sig remote')"
            )))
        }
    };
    let mut entries = Vec::new();
    let mut pending_outer: Option<CallStack> = None;
    let mut saw_end = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if saw_end {
            return Err(err("content after 'end'".into()));
        }
        if line == "end" {
            saw_end = true;
            continue;
        }
        let stack_of = |kind: &str| {
            line.strip_prefix(kind)
                .and_then(|r| r.strip_prefix(' '))
                .or((line == kind).then_some(""))
        };
        if let Some(rest) = stack_of("outer") {
            if pending_outer.is_some() {
                return Err(err("two 'outer' lines in a row".into()));
            }
            pending_outer = Some(reference_stack(rest).map_err(err)?);
        } else if let Some(rest) = stack_of("inner") {
            let outer = pending_outer
                .take()
                .ok_or_else(|| err("'inner' without 'outer'".into()))?;
            entries.push(SigEntry::new(outer, reference_stack(rest).map_err(err)?));
        } else {
            return Err(err(format!("bad line {line:?}")));
        }
    }
    if !saw_end {
        return Err(err("missing 'end'".into()));
    }
    if pending_outer.is_some() {
        return Err(err("'outer' without 'inner'".into()));
    }
    if entries.is_empty() {
        return Err(err("signature has no entries".into()));
    }
    Ok(Signature::new(entries, origin))
}

/// An [`arb_signature`] whose frames carry one of three digests or none,
/// chosen by `seed`'s bits, so texts hold hashed and unhashed frames.
fn arb_hashed_signature() -> impl Strategy<Value = Signature> {
    (arb_signature(), any::<u64>()).prop_map(|(sig, mut seed)| {
        let digests = [sha256(b"v1"), sha256(b"v2"), sha256(b"v3")];
        let mut hash = || {
            seed = seed.rotate_left(2);
            digests.get((seed & 3) as usize).copied()
        };
        let mut stack = |s: &CallStack| -> CallStack {
            s.frames()
                .iter()
                .map(|f| Frame {
                    site: f.site.clone(),
                    hash: hash(),
                })
                .collect()
        };
        let entries = sig
            .entries()
            .iter()
            .map(|e| SigEntry::new(stack(&e.outer), stack(&e.inner)))
            .collect();
        Signature::new(entries, sig.origin())
    })
}

/// Byte offsets where a 64-digit digest starts in `text`.
fn digest_starts(text: &str) -> Vec<usize> {
    let b = text.as_bytes();
    (1..b.len().saturating_sub(63))
        .filter(|&i| b[i - 1] == b':' && b[i..i + 64].iter().all(u8::is_ascii_hexdigit))
        .collect()
}

/// `text` with one damage of kind `kind` at a place `at` picks: a
/// separator dropped or inserted, a digest cut short, lengthened or
/// spoiled, an empty frame, an empty stack line, a trailing `|`, or a
/// class, method or line emptied or rewritten.
fn mutate(text: &str, kind: u8, at: u64) -> String {
    let mut t = text.to_string();
    let pick = |n: usize| (at % n.max(1) as u64) as usize;
    let seps: Vec<usize> = t
        .bytes()
        .enumerate()
        .filter(|(_, c)| b"|:#".contains(c))
        .map(|(i, _)| i)
        .collect();
    let digests = digest_starts(&t);
    let line_ends: Vec<usize> = t
        .match_indices('\n')
        .map(|(i, _)| i)
        .filter(|&i| {
            t[..i]
                .rsplit('\n')
                .next()
                .is_some_and(|l| l.starts_with("outer") || l.starts_with("inner"))
        })
        .collect();
    match kind {
        1 if !seps.is_empty() => {
            t.remove(seps[pick(seps.len())]);
        }
        2 => {
            let c = ['|', ':', '#'][(at % 3) as usize];
            t.insert(pick(t.len() + 1), c);
        }
        3 if !digests.is_empty() => {
            let start = digests[pick(digests.len())];
            let cut = 1 + (at / 7 % 4) as usize;
            t.replace_range(start + 64 - cut..start + 64, "");
        }
        4 if !digests.is_empty() => {
            let start = digests[pick(digests.len())];
            t.insert_str(
                start + 64,
                ["a", "0f", "x", ":", ":x"][(at / 7 % 5) as usize],
            );
        }
        5 if !digests.is_empty() => {
            let start = digests[pick(digests.len())];
            let digit = start + (at / 7 % 64) as usize;
            let with = ["g", ":", "|", "#", "é"][(at / 500 % 5) as usize];
            t.replace_range(digit..digit + 1, with);
        }
        6 if !seps.is_empty() => {
            let i = seps[pick(seps.len())];
            t.insert(i, '|');
        }
        7 if !line_ends.is_empty() => {
            let end = line_ends[pick(line_ends.len())];
            let start = t[..end].rfind('\n').map_or(0, |i| i + 1);
            let kind_len = 5 + (at / 3 % 2) as usize;
            t.replace_range(start + kind_len..end, "");
        }
        8 if !line_ends.is_empty() => {
            t.insert(line_ends[pick(line_ends.len())], '|');
        }
        9 => {
            let hashes: Vec<usize> = t.match_indices('#').map(|(i, _)| i).collect();
            let Some(&i) = hashes.get(pick(hashes.len())) else {
                return t;
            };
            let class_start = t[..i].rfind([' ', '|']).map_or(0, |j| j + 1);
            let method_end = i + t[i..].find(':').unwrap_or(t.len() - i);
            let line_end = method_end + 1 + t[method_end + 1..].find([':', '|', '\n']).unwrap_or(0);
            match at / 11 % 5 {
                0 => t.replace_range(class_start..i, ""),
                1 => t.replace_range(i + 1..method_end, ""),
                n => {
                    let line = ["+7", "4294967296", ""][n as usize - 2];
                    t.replace_range(method_end + 1..line_end, line);
                }
            }
        }
        _ => {}
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On signature texts and on damaged ones, the in-place parser gives
    /// the reference parser's value or its error message, for the whole
    /// signature, each stack line and each frame.
    #[test]
    fn parser_matches_the_split_based_reference(
        sig in arb_hashed_signature(),
        kind in 0..10u8,
        at in any::<u64>(),
    ) {
        let text = mutate(&sig.to_string(), kind, at);
        let parsed = text.parse::<Signature>().map_err(|e| e.to_string());
        prop_assert_eq!(parsed, reference_signature(&text), "{}", text);
        for line in text.lines() {
            let stack = line.split_once(' ').map_or("", |(_, s)| s);
            let parsed = stack.parse::<CallStack>().map_err(|e| e.to_string());
            prop_assert_eq!(parsed, reference_stack(stack), "{}", stack);
            for piece in stack.split('|').chain([stack]) {
                let parsed = piece.parse::<Frame>().map_err(|e| e.to_string());
                prop_assert_eq!(parsed, reference_frame(piece), "{}", piece);
            }
        }
        if kind == 0 {
            prop_assert_eq!(text.parse::<Signature>().unwrap(), sig);
        }
    }

    /// A frame whose class (method) is the previous frame's shares that
    /// frame's `Arc`, across the stack lines of one signature.
    #[test]
    fn consecutive_frames_share_their_names(sig in arb_hashed_signature()) {
        let parsed: Signature = sig.to_string().parse().unwrap();
        let frames: Vec<&Frame> = parsed
            .entries()
            .iter()
            .flat_map(|e| e.outer.frames().iter().chain(e.inner.frames()))
            .collect();
        for pair in frames.windows(2) {
            let (a, b) = (&pair[0].site, &pair[1].site);
            prop_assert_eq!(a.class == b.class, Arc::ptr_eq(&a.class, &b.class));
            prop_assert_eq!(a.method == b.method, Arc::ptr_eq(&a.method, &b.method));
        }
    }
}

// ---------------------------------------------------------------------
// Generalization against its reference model
// ---------------------------------------------------------------------

/// The reference bug identity: the sorted (outer, inner) site pairs.
fn reference_bug_id(sig: &Signature) -> Vec<(Site, Site)> {
    let mut id: Vec<(Site, Site)> = sig
        .entries()
        .iter()
        .filter_map(|e| Some((e.outer_site()?.clone(), e.inner_site()?.clone())))
        .collect();
    id.sort();
    id
}

fn reference_same_bug(a: &Signature, b: &Signature) -> bool {
    a.arity() == b.arity() && reference_bug_id(a) == reference_bug_id(b)
}

/// The reference merge: pair each entry greedily with the first unused
/// entry of `b` with the same lock statements.
fn reference_merge(a: &Signature, b: &Signature, min_depth: usize) -> Option<Signature> {
    if !reference_same_bug(a, b) {
        return None;
    }
    let mut used = vec![false; b.entries().len()];
    let mut merged = Vec::new();
    for e in a.entries() {
        let key = (e.outer_site().cloned(), e.inner_site().cloned());
        let (j, o) = b.entries().iter().enumerate().find(|(j, o)| {
            !used[*j] && (o.outer_site().cloned(), o.inner_site().cloned()) == key
        })?;
        used[j] = true;
        merged.push(SigEntry::new(
            e.outer.longest_common_suffix(&o.outer),
            e.inner.longest_common_suffix(&o.inner),
        ));
    }
    let both_local = a.origin() == SigOrigin::Local && b.origin() == SigOrigin::Local;
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

/// The reference `History::add_generalizing` over a plain list.
fn reference_add_generalizing(
    sigs: &mut Vec<Signature>,
    sig: Signature,
    min_depth: usize,
) -> AddOutcome {
    if sigs.contains(&sig) {
        return AddOutcome::Duplicate;
    }
    for (i, existing) in sigs.iter_mut().enumerate() {
        if let Some(merged) = reference_merge(existing, &sig, min_depth) {
            if merged == *existing {
                return AddOutcome::Duplicate;
            }
            *existing = merged;
            return AddOutcome::Merged(i);
        }
    }
    sigs.push(sig);
    AddOutcome::Added
}

/// A stack over the colliding vocabulary ending at site `top`, with up
/// to four frames below it; empty when `empty`.
fn generalizing_stack(top: u8, below: &[(u8, u32)], empty: bool) -> CallStack {
    if empty {
        return CallStack::empty();
    }
    let frame = |m: u8, l: u32| Frame::new("pkg.Class", format!("method{m}"), l);
    below
        .iter()
        .map(|&(m, l)| frame(m, l))
        .chain([frame(top % 2, 1 + u32::from(top / 2))])
        .collect()
}

/// A run of signatures for [`History::add_generalizing`]: each is one of
/// three bugs, whose arity-1–3 (outer, inner) lock-statement lists often
/// repeat a pair, with its own frames below the tops, local or remote
/// origin, and now and then an empty stack; and the depth rule's minimum.
fn arb_generalizing_run() -> impl Strategy<Value = (Vec<Signature>, usize)> {
    let pair = (0..3u8, 0..3u8);
    let bug = proptest::collection::vec(pair, 1..=3);
    let below = || proptest::collection::vec((0..2u8, 1..3u32), 0..=4);
    let stacks = (below(), below(), 0..10u8);
    let sig = (
        0..3usize,
        proptest::bool::ANY,
        proptest::collection::vec(stacks, 3),
    );
    (
        proptest::collection::vec(bug, 3),
        proptest::collection::vec(sig, 1..12),
        prop_oneof![Just(0usize), Just(2usize), Just(5usize)],
    )
        .prop_map(|(bugs, run, min_depth)| {
            let sigs = run
                .into_iter()
                .map(|(b, local, stacks)| {
                    let entries = bugs[b]
                        .iter()
                        .zip(stacks)
                        .map(|(&(o, i), (ob, ib, empty))| {
                            SigEntry::new(
                                generalizing_stack(o, &ob, empty == 0),
                                generalizing_stack(i, &ib, empty == 1),
                            )
                        })
                        .collect();
                    let origin = if local {
                        SigOrigin::Local
                    } else {
                        SigOrigin::Remote
                    };
                    Signature::new(entries, origin)
                })
                .collect();
            (sigs, min_depth)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `same_bug`, `merge` and `add_generalizing` decide as the
    /// `bug_id`-based reference does, outcome by outcome, and leave the
    /// same signatures.
    #[test]
    fn generalization_matches_the_bug_id_reference((run, min_depth) in arb_generalizing_run()) {
        for a in &run {
            for b in &run {
                prop_assert_eq!(a.same_bug(b), reference_same_bug(a, b));
                prop_assert_eq!(a.merge(b, min_depth), reference_merge(a, b, min_depth));
            }
        }
        let mut history = History::new();
        let mut reference = Vec::new();
        for sig in run {
            let expected = reference_add_generalizing(&mut reference, sig.clone(), min_depth);
            prop_assert_eq!(history.add_generalizing(sig, min_depth), expected);
        }
        prop_assert_eq!(history.signatures(), &reference[..]);
    }
}
