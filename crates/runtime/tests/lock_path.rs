//! The lock path, core and real-thread runtime: what an acquisition
//! allocates (counted rather than timed), and that draining events cannot
//! hang against it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use communix_clock::VirtualClock;
use communix_dimmunix::{
    CallStack, DimmunixConfig, DimmunixCore, Event, Frame, History, LockId, SigEntry, Signature,
    ThreadId,
};
use communix_runtime::DlxRuntime;

thread_local! {
    /// Allocations made by this thread (the harness runs other tests on
    /// other threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// after the thread's storage is torn down (`try_with` covers that case).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn stack(class: &str, depth: u32) -> CallStack {
    (0..depth)
        .map(|d| Frame::new(class, format!("m{d}"), 10 + d))
        .collect()
}

/// `n` two-thread signatures over sites of their own.
fn history(n: usize) -> History {
    (0..n)
        .map(|i| {
            Signature::local(vec![
                SigEntry::new(
                    stack(&format!("sig.A{i}"), 5),
                    stack(&format!("sig.B{i}"), 6),
                ),
                SigEntry::new(
                    stack(&format!("sig.C{i}"), 5),
                    stack(&format!("sig.D{i}"), 6),
                ),
            ])
        })
        .collect()
}

/// Allocations of the 100th request+release pair on a core with `history`.
/// The earlier pairs create the thread's and the lock's entries, and the
/// undrained event buffer last doubled at its 128th event — this pair
/// pushes the 199th and 200th.
fn steady_pair_allocations(history: History) -> u64 {
    let mut core = DimmunixCore::with_history(
        DimmunixConfig::default(),
        Arc::new(VirtualClock::new()),
        history,
    );
    let app = stack("app.Hot", 12);
    let mut counted = 0;
    for round in 0..100 {
        let s = app.clone();
        let n = allocations(|| {
            let _ = core.request(ThreadId(1), LockId(1), s);
            let _ = core.release(ThreadId(1), LockId(1));
        });
        if round == 99 {
            counted = n;
        }
    }
    assert_eq!(core.stats().requests, 100);
    counted
}

#[test]
fn unnamed_site_allocates_the_same_with_and_without_a_history() {
    let full = history(64);
    assert_eq!(full.len(), 64);
    let with_empty = steady_pair_allocations(History::new());
    let with_full = steady_pair_allocations(full);
    assert_eq!(with_full, with_empty);
    // The stack arrives owned and moves into the hold: in the steady
    // state the pair allocates nothing at all.
    assert_eq!(with_full, 0);
}

#[test]
fn an_acquisition_allocates_only_the_stack_copy_its_hold_keeps() {
    const LOCKS: u64 = 1024;
    let rt = DlxRuntime::new(DimmunixConfig::default());
    let l = rt.fresh_lock();
    let t = rt.register_thread();
    for d in 0..12 {
        t.push_frame("app.Hot", &format!("m{d}"), 10 + d);
    }
    // Creates the thread's and the lock's entries in the core.
    drop(t.lock(l).expect("uncontended"));

    let allocs = allocations(|| {
        for _ in 0..LOCKS {
            drop(t.lock(l).expect("uncontended"));
        }
    });

    // One copy of the stack per acquisition; beyond that only the
    // undrained event buffer, which doubles ten times on its way from 2
    // to 2050 events.
    assert!(allocs >= LOCKS);
    assert!(
        allocs - LOCKS <= 12,
        "{allocs} allocations for {LOCKS} lock+unlock"
    );
    assert_eq!(rt.drain_events().len() as u64, 2 * (LOCKS + 1));
}

/// `drain_events` used to take an `events` mutex and then `core`, while
/// `DlxThread::lock` took `core` and then `events`: a drain overlapping
/// another thread's acquisition hung both within a second. Events now
/// live behind the one `core` mutex.
#[test]
fn draining_while_another_thread_locks_neither_hangs_nor_loses_events() {
    const PAIRS: usize = 10_000;
    let rt = DlxRuntime::new(DimmunixConfig::default());
    let (outer, inner) = (rt.fresh_lock(), rt.fresh_lock());
    let start = Arc::new(Barrier::new(2));
    let locking_done = Arc::new(AtomicBool::new(false));
    let (report, watchdog) = mpsc::channel::<Result<ThreadId, Vec<Event>>>();

    let locker = {
        let (rt, start, done, report) = (
            rt.clone(),
            start.clone(),
            locking_done.clone(),
            report.clone(),
        );
        std::thread::spawn(move || {
            let t = rt.register_thread();
            t.push_frame("app.Worker", "run", 1);
            start.wait();
            for _ in 0..PAIRS {
                let g_outer = t.lock(outer).expect("private locks");
                t.push_frame("app.Worker", "nested", 2);
                let g_inner = t.lock(inner).expect("private locks");
                drop(g_inner);
                t.pop_frame();
                drop(g_outer);
            }
            done.store(true, Ordering::SeqCst);
            let _ = report.send(Ok(t.id()));
        })
    };
    let drainer = {
        let (rt, start, done) = (rt.clone(), start, locking_done);
        std::thread::spawn(move || {
            start.wait();
            let mut seen = Vec::new();
            while !done.load(Ordering::SeqCst) {
                seen.extend(rt.drain_events());
            }
            seen.extend(rt.drain_events());
            let _ = report.send(Err(seen));
        })
    };

    // The watchdog: a hang fails the test here instead of hanging it.
    let (mut locker_id, mut seen) = (None, None);
    for _ in 0..2 {
        match watchdog.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(id)) => locker_id = Some(id),
            Ok(Err(events)) => seen = Some(events),
            Err(_) => panic!("locker and drainer are stuck on each other"),
        }
    }
    locker.join().expect("locker panicked");
    drainer.join().expect("drainer panicked");

    // Exactly once, in order: the drains, laid end to end, are the
    // locker's acquire/release sequence and nothing else.
    let thread = locker_id.expect("locker reported");
    let acquired = |lock: LockId| Event::Acquired {
        thread,
        lock,
        reentrant: false,
    };
    let released = |lock: LockId| Event::Released { thread, lock };
    let pair = [
        acquired(outer),
        acquired(inner),
        released(inner),
        released(outer),
    ];
    let seen = seen.expect("drainer reported");
    assert_eq!(seen.len(), 4 * PAIRS);
    assert!(seen.chunks(4).all(|c| c == pair));
}
