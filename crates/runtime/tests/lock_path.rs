//! The lock path, core and real-thread runtime: what an acquisition
//! allocates (counted rather than timed), that the site table holds each
//! site once however many acquisitions run, and that draining events
//! cannot hang against it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use communix_clock::VirtualClock;
use communix_dimmunix::{
    CallStack, DimmunixConfig, DimmunixCore, Event, Frame, History, LockId, SigEntry, Signature,
    Site, ThreadId,
};
use communix_runtime::{DlxRuntime, DlxThread};

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

/// Allocations of the 100th request+release pair on a core with `history`,
/// the stack handed over as ids. The earlier pairs create the thread's and
/// the lock's entries, and the undrained event buffer last doubled at its
/// 128th event — this pair pushes the 199th and 200th.
fn steady_pair_allocations(history: History) -> u64 {
    let mut core = DimmunixCore::with_history(
        DimmunixConfig::default(),
        Arc::new(VirtualClock::new()),
        history,
    );
    let app = core.sites().intern_stack(&stack("app.Hot", 12));
    let mut counted = 0;
    for round in 0..100 {
        let s = app.clone();
        let n = allocations(|| {
            let _ = core.request_ids(ThreadId(1), LockId(1), s);
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
    // The ids arrive owned and move into the hold: in the steady state
    // the pair allocates nothing at all.
    assert_eq!(with_full, 0);
}

const HOT: &str = "lockbench.Hot";
/// Frames under each hot site.
const CALLERS: u32 = 11;
/// Hot sites the outer acquisition rotates over.
const SITES: u32 = 8;

/// The frame at hot site `site`.
fn hot_frame(site: u32) -> Frame {
    Frame::new(HOT, format!("site{site}"), 100 + site)
}

/// One near miss per hot site: its first outer stack is the top five
/// frames of an acquisition there, so every acquisition at the site
/// compares that suffix, matches it and backtracks; its second ends where
/// no thread goes, so it is never instantiated.
fn near_misses() -> History {
    (0..SITES)
        .map(|site| {
            let outer: CallStack = (CALLERS - 4..CALLERS)
                .map(|d| Frame::new(HOT, format!("caller{d}"), 10 + d))
                .chain(std::iter::once(hot_frame(site)))
                .collect();
            let cold: CallStack = (0..5)
                .map(|d| Frame::new("lockbench.Cold", format!("cold{site}_{d}"), 900 + d))
                .collect();
            let inner =
                |line: u32| CallStack::new(vec![Frame::new("lockbench.Cold", "inner", line)]);
            Signature::local(vec![
                SigEntry::new(outer, inner(700 + site)),
                SigEntry::new(cold, inner(800 + site)),
            ])
        })
        .collect()
}

/// The benchmark's `lock_overhead` shape: one thread, [`CALLERS`] caller
/// frames, nested pairs of two private locks with the outer acquisition
/// rotating over [`SITES`] hot sites, a history of [`near_misses`].
struct HotPath {
    rt: DlxRuntime,
    thread: DlxThread,
    outer: LockId,
    inner: LockId,
    /// Method names of the hot sites, made before anything is counted.
    sites: Vec<String>,
    next: usize,
}

impl HotPath {
    fn new() -> HotPath {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        rt.set_history(near_misses());
        let thread = rt.register_thread();
        for d in 0..CALLERS {
            thread.push_frame(HOT, &format!("caller{d}"), 10 + d);
        }
        HotPath {
            outer: rt.fresh_lock(),
            inner: rt.fresh_lock(),
            sites: (0..SITES)
                .map(|s| hot_frame(s).site.method.to_string())
                .collect(),
            thread,
            rt,
            next: 0,
        }
    }

    /// One nested pair at the next hot site: two acquires, two releases.
    fn pair(&mut self) {
        let site = self.next;
        self.next = (site + 1) % self.sites.len();
        let t = &self.thread;
        t.push_frame(HOT, &self.sites[site], 100 + site as u32);
        let outer = t.lock(self.outer).expect("private locks");
        t.push_frame(HOT, "nested", 200 + site as u32);
        let inner = t.lock(self.inner).expect("private locks");
        drop(inner);
        t.pop_frame();
        drop(outer);
        t.pop_frame();
    }
}

#[test]
fn a_hot_pair_allocates_only_its_two_id_copies() {
    const PAIRS: u64 = 8;
    let mut hot = HotPath::new();
    for _ in 0..64 {
        hot.pair();
    }
    hot.rt.drain_events();
    let before = hot.rt.stats();

    let allocs = allocations(|| {
        for _ in 0..PAIRS {
            hot.pair();
        }
    });

    // Each outer acquisition compared one suffix, which matched, and
    // backtracked; nothing was suspended.
    let after = hot.rt.stats();
    assert_eq!(after.match_work - before.match_work, PAIRS);
    assert_eq!(after.suspensions, 0);
    // One copy of the thread's ids per acquisition. Beyond them only the
    // event buffer, empty after the drain, which doubles at most five
    // times on its way to 32 events.
    assert!(
        allocs >= 2 * PAIRS && allocs - 2 * PAIRS <= 5,
        "{allocs} allocations for {PAIRS} lock pairs: 2 id copies each, plus at most 5 event-buffer doublings"
    );
    // A frame at a site the table has: a read lock and a hash, no heap.
    let site = &hot.sites[3];
    let push = allocations(|| {
        hot.thread.push_frame(HOT, site, 103);
        hot.thread.pop_frame();
    });
    assert_eq!(push, 0, "push_frame of a known site allocated");
}

#[test]
fn the_site_table_keeps_each_site_once_however_many_acquisitions() {
    const PAIRS: usize = 100_000;
    let mut hot = HotPath::new();
    for i in 0..PAIRS {
        hot.pair();
        if i % 1024 == 0 {
            hot.rt.drain_events();
        }
    }
    assert_eq!(hot.rt.stats().requests, 2 * PAIRS as u64);

    // The program's sites: the callers, each hot site and the nested
    // acquisition under it. The history's: its outer stacks (inner stacks
    // are not matched, so not interned).
    let mut expected: BTreeSet<Site> = (0..CALLERS)
        .map(|d| Site::new(HOT, format!("caller{d}"), 10 + d))
        .chain((0..SITES).map(|s| hot_frame(s).site))
        .chain((0..SITES).map(|s| Site::new(HOT, "nested", 200 + s)))
        .collect();
    for sig in near_misses().signatures() {
        for e in sig.entries() {
            expected.extend(e.outer.frames().iter().map(|f| f.site.clone()));
        }
    }
    assert_eq!(expected.len(), 11 + 8 + 8 + 8 * 5);
    assert_eq!(hot.rt.site_count(), expected.len());
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
