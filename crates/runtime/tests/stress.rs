//! Stress test for the real-OS-threads runtime: the classic bank-transfer
//! deadlock under genuine concurrency.
//!
//! `transfer(a, b)` locks account `a` then account `b`; concurrent
//! opposite-direction transfers deadlock. After Dimmunix captures one
//! signature, *no transfer ever deadlocks again* — the signature's call
//! stacks match every account pair (lock identity is existential in the
//! instantiation check), so avoidance serializes conflicting transfers.
//! This is also the paper's false-positive trade-off made visible: one
//! signature, learned once, covers (and serializes) the whole transfer
//! path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use communix_dimmunix::{DimmunixConfig, Event, LockId};
use communix_runtime::{DlxRuntime, DlxThread};

const ACCOUNTS: usize = 6;
const THREADS: usize = 6;
const TRANSFERS_PER_THREAD: usize = 40;

/// The deadlock-prone transfer: from-lock, then to-lock, identical call
/// sites for every pair. `before_credit` runs while the from-lock is
/// held. Returns whether the transfer completed (`false`: a victim).
fn transfer(thread: &DlxThread, from: LockId, to: LockId, before_credit: impl FnOnce()) -> bool {
    thread.push_frame("bank.Teller", "transfer", 10);
    let done = match thread.lock(from) {
        Err(_) => false,
        Ok(guard_a) => {
            before_credit();
            thread.push_frame("bank.Teller", "credit", 11);
            let credited = thread.lock(to).is_ok();
            thread.pop_frame();
            drop(guard_a);
            credited
        }
    };
    thread.pop_frame();
    done
}

/// Waits, for at most 10 s, until the core has decided `n` requests in
/// all. A request counts once the core has acquired, queued or
/// suspended it, so this never waits for a suspended thread to get its
/// lock.
fn await_requests(rt: &DlxRuntime, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.stats().requests < n {
        assert!(
            Instant::now() < deadline,
            "the peer's request never arrived"
        );
        std::thread::yield_now();
    }
}

/// Runs a randomized transfer workload; returns (completed, aborted,
/// deadlocks detected during this phase).
///
/// It opens with one meeting, before any other transfer: teller 0 moves
/// account 0 to account 1 and teller 1 the other way, and teller 0 holds
/// account 0 until the core has decided teller 1's first request. With
/// no history that request takes account 1, so the two requests that
/// follow close a cycle: a deadlock. With the signature of that cycle,
/// avoidance suspends it, as teller 0's hold completes the signature.
fn run_phase(rt: &DlxRuntime, seed: u64) -> (u64, u64, usize) {
    let accounts: Vec<LockId> = (0..ACCOUNTS)
        .map(|i| rt.named_lock(&format!("account{i}")))
        .collect();
    let completed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let meeting = Arc::new(Barrier::new(2));
    let start = Arc::new(Barrier::new(THREADS));
    let requests_before = rt.stats().requests;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = rt.clone();
            let accounts = accounts.clone();
            let completed = completed.clone();
            let aborted = aborted.clone();
            let (meeting, start) = (meeting.clone(), start.clone());
            scope.spawn(move || {
                let thread = rt.register_thread();
                // Same entry site for every teller thread: signatures
                // must generalize over thread identity, as in Java where
                // every worker runs the same `run()` line.
                thread.push_frame("bank.Teller", "run", 1);
                let count = |done: bool| {
                    let counter = if done { &completed } else { &aborted };
                    counter.fetch_add(1, Ordering::Relaxed);
                };
                let mut transfers = TRANSFERS_PER_THREAD;
                if t == 0 {
                    transfers -= 1;
                    count(transfer(&thread, accounts[0], accounts[1], || {
                        meeting.wait();
                        // Teller 0's request, then teller 1's.
                        await_requests(&rt, requests_before + 2);
                    }));
                } else if t == 1 {
                    transfers -= 1;
                    meeting.wait();
                    count(transfer(&thread, accounts[1], accounts[0], || {}));
                }
                start.wait();

                let mut state = seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                for _ in 0..transfers {
                    let from = next() % ACCOUNTS;
                    let mut to = next() % ACCOUNTS;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    count(transfer(&thread, accounts[from], accounts[to], || {}));
                }
            });
        }
    });

    let deadlocks = rt
        .drain_events()
        .iter()
        .filter(|e| matches!(e, Event::DeadlockDetected { .. }))
        .count();
    (
        completed.load(Ordering::Relaxed),
        aborted.load(Ordering::Relaxed),
        deadlocks,
    )
}

#[test]
fn immunity_accumulates_under_real_concurrency() {
    // Phase 1: detection only — deadlocks happen (the meeting's at
    // least), victims abort, every thread still terminates (no hangs),
    // signatures accumulate.
    let rt = DlxRuntime::new(DimmunixConfig::detection_only());
    let (done1, aborted1, deadlocks1) = run_phase(&rt, 0xBEEF);
    let total = (THREADS * TRANSFERS_PER_THREAD) as u64;
    assert_eq!(done1 + aborted1, total, "every transfer concludes");
    assert!(deadlocks1 >= 1, "the meeting deadlocks");
    assert_eq!(
        aborted1 as usize, deadlocks1,
        "every abort corresponds to a detected deadlock"
    );

    // Phase 2: a fresh runtime armed with phase 1's history. Its
    // signature covers *every* transfer pair, so phase 2 must complete
    // all transfers with zero deadlocks.
    let rt2 = DlxRuntime::new(DimmunixConfig::default());
    rt2.set_history(rt.history());
    let (done2, aborted2, deadlocks2) = run_phase(&rt2, 0xF00D);
    assert_eq!(deadlocks2, 0, "immunized run must not deadlock");
    assert_eq!(aborted2, 0, "no victims without deadlocks");
    assert_eq!(done2, total, "all transfers complete (serialized)");
    assert!(
        rt2.stats().suspensions > 0,
        "the protection is avoidance, not luck"
    );
}

#[test]
fn ordered_locking_never_triggers_avoidance() {
    // The fixed program (lock lower-numbered account first) neither
    // deadlocks nor matches the inversion signature's second position —
    // ordered code runs at full speed even with the signature loaded.
    let rt = DlxRuntime::new(DimmunixConfig::detection_only());
    let (_, _, _) = run_phase(&rt, 0xBEEF); // learn the buggy signature
    let history = rt.history();
    assert!(!history.is_empty(), "the meeting deadlocks");

    let rt2 = DlxRuntime::new(DimmunixConfig::default());
    rt2.set_history(history);
    let accounts: Vec<LockId> = (0..ACCOUNTS)
        .map(|i| rt2.named_lock(&format!("account{i}")))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = rt2.clone();
            let accounts = accounts.clone();
            scope.spawn(move || {
                let thread = rt.register_thread();
                thread.push_frame("bank.Teller", "runOrdered", 2);
                for i in 0..20 {
                    let a = i % ACCOUNTS;
                    let b = (i + 1 + t) % ACCOUNTS;
                    if a == b {
                        continue;
                    }
                    let (lo, hi) = (a.min(b), a.max(b));
                    // Different call sites than the buggy transfer(): the
                    // signature cannot be instantiated by this code.
                    thread.push_frame("bank.Teller", "orderedTransfer", 30);
                    let ga = thread.lock(accounts[lo]).expect("no deadlock");
                    thread.push_frame("bank.Teller", "orderedCredit", 31);
                    let gb = thread.lock(accounts[hi]).expect("no deadlock");
                    drop(gb);
                    thread.pop_frame();
                    drop(ga);
                    thread.pop_frame();
                }
            });
        }
    });
    let stats = rt2.stats();
    assert_eq!(stats.deadlocks_detected, 0);
    assert_eq!(
        stats.suspensions, 0,
        "ordered code's stacks do not match the buggy signature"
    );
}
