//! The real-OS-threads runtime: an instrumented lock for Rust threads.
//!
//! Rust's ownership model rules out transparently interposing on
//! `std::sync::Mutex` (the repro caveat this project was scoped with), so
//! applications opt in by taking a [`DlxLock`] guard through a
//! [`DlxThread`] handle — the moral equivalent of running a Java program
//! under Dimmunix's AspectJ instrumentation. Every acquisition consults
//! the avoidance module; the detection module sees every blocked
//! acquisition; deadlock victims get an `Err` back instead of hanging
//! forever, so applications (and tests) can unwind and continue.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use communix_clock::{Clock, SystemClock};
use communix_dimmunix::{
    CoreStats, DimmunixConfig, DimmunixCore, Event, History, LockId, RequestOutcome, SiteId,
    SiteTable, ThreadId, Wake,
};
use parking_lot::{Condvar, Mutex};

/// Error returned when an acquisition is aborted as a deadlock victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockAborted {
    /// The lock whose acquisition was aborted.
    pub lock: LockId,
}

impl fmt::Display for DeadlockAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acquisition of {} aborted: deadlock victim", self.lock)
    }
}

impl std::error::Error for DeadlockAborted {}

#[derive(Debug, Default)]
struct Parker {
    slot: Mutex<Option<Wake>>,
    cv: Condvar,
}

/// Events stay in the core until [`DlxRuntime::drain_events`] takes them
/// under the same `core` mutex every acquisition takes: with one lock
/// there is no order for a drain and an acquisition to disagree on.
///
/// `sites` is the core's own table: a thread pushing a frame interns its
/// site there without taking `core`.
#[derive(Debug)]
struct Inner {
    core: Mutex<DimmunixCore>,
    sites: Arc<SiteTable>,
    parkers: Mutex<HashMap<ThreadId, Arc<Parker>>>,
    lock_names: Mutex<HashMap<String, LockId>>,
    next_thread: AtomicU64,
    next_lock: AtomicU64,
}

/// A shared runtime hosting one [`DimmunixCore`] for many OS threads.
///
/// # Example
///
/// ```
/// use communix_runtime::DlxRuntime;
/// use communix_dimmunix::DimmunixConfig;
///
/// let rt = DlxRuntime::new(DimmunixConfig::default());
/// let l = rt.named_lock("cache");
/// let t = rt.register_thread();
/// t.push_frame("app.Main", "run", 1);
/// let guard = t.lock(l).expect("no deadlock");
/// drop(guard);
/// ```
#[derive(Debug, Clone)]
pub struct DlxRuntime {
    inner: Arc<Inner>,
}

impl DlxRuntime {
    /// Creates a runtime with an empty history and the system clock.
    pub fn new(config: DimmunixConfig) -> Self {
        DlxRuntime::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Creates a runtime with an explicit clock (tests use a virtual one).
    pub fn with_clock(config: DimmunixConfig, clock: Arc<dyn Clock>) -> Self {
        let core = DimmunixCore::new(config, clock);
        DlxRuntime {
            inner: Arc::new(Inner {
                sites: core.sites().clone(),
                core: Mutex::new(core),
                parkers: Mutex::new(HashMap::new()),
                lock_names: Mutex::new(HashMap::new()),
                next_thread: AtomicU64::new(1),
                next_lock: AtomicU64::new(1),
            }),
        }
    }

    /// Seeds the runtime's history (as the Communix agent does at
    /// application start).
    pub fn set_history(&self, history: History) {
        self.inner.core.lock().set_history(history);
    }

    /// Snapshot of the current history.
    pub fn history(&self) -> History {
        self.inner.core.lock().history().clone()
    }

    /// Core counters.
    pub fn stats(&self) -> CoreStats {
        self.inner.core.lock().stats()
    }

    /// Distinct sites interned so far: those of the frames threads pushed
    /// and of the history's outer stacks, however many acquisitions ran.
    pub fn site_count(&self) -> usize {
        self.inner.sites.len()
    }

    /// Drains the deadlocks detected and the false-positive warnings
    /// raised since the last call. Lock operations add nothing here
    /// ([`stats`](Self::stats) counts them), so a runtime nobody drains
    /// does not grow with its acquisitions.
    pub fn drain_events(&self) -> Vec<Event> {
        self.inner.core.lock().drain_events()
    }

    /// Interns a named global lock (Java: a static lock object).
    pub fn named_lock(&self, name: &str) -> LockId {
        let mut names = self.inner.lock_names.lock();
        if let Some(id) = names.get(name) {
            return *id;
        }
        let id = LockId(self.inner.next_lock.fetch_add(1, Ordering::Relaxed));
        names.insert(name.to_string(), id);
        id
    }

    /// Mints a fresh anonymous lock (Java: a new object used as monitor).
    pub fn fresh_lock(&self) -> LockId {
        LockId(self.inner.next_lock.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers the calling OS thread, returning its handle.
    pub fn register_thread(&self) -> DlxThread {
        let id = ThreadId(self.inner.next_thread.fetch_add(1, Ordering::Relaxed));
        self.inner
            .parkers
            .lock()
            .insert(id, Arc::new(Parker::default()));
        DlxThread {
            runtime: self.clone(),
            id,
            stack: std::cell::RefCell::new(Vec::new()),
        }
    }

    fn deliver(&self, wakes: Vec<Wake>) {
        if wakes.is_empty() {
            return;
        }
        let parkers = self.inner.parkers.lock();
        for wake in wakes {
            if let Some(p) = parkers.get(&wake.thread()) {
                *p.slot.lock() = Some(wake);
                p.cv.notify_all();
            }
        }
    }

    fn parker_of(&self, id: ThreadId) -> Arc<Parker> {
        self.inner
            .parkers
            .lock()
            .get(&id)
            .cloned()
            .expect("thread not registered")
    }
}

/// A per-thread handle: owns the thread's Dimmunix identity and its
/// logical call stack, kept as site ids of the runtime's core (outermost
/// first). Not `Sync` — each OS thread registers its own.
#[derive(Debug)]
pub struct DlxThread {
    runtime: DlxRuntime,
    id: ThreadId,
    stack: std::cell::RefCell<Vec<SiteId>>,
}

impl DlxThread {
    /// This thread's Dimmunix id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Pushes a logical stack frame (entering a method / sync site). A
    /// site pushed before allocates nothing; no call takes the core's
    /// mutex.
    pub fn push_frame(&self, class: &str, method: &str, line: u32) {
        let site = self.runtime.inner.sites.intern(class, method, line);
        self.stack.borrow_mut().push(site);
    }

    /// Pops the top logical stack frame.
    pub fn pop_frame(&self) {
        self.stack.borrow_mut().pop();
    }

    /// Acquires `lock`, consulting Dimmunix avoidance first; blocks until
    /// granted.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlockAborted`] when the detection module picked this
    /// acquisition as a deadlock victim (the deadlock's signature has
    /// already been added to the history). The caller should unwind,
    /// dropping its other guards.
    pub fn lock(&self, lock: LockId) -> Result<DlxGuard<'_>, DeadlockAborted> {
        // The one copy an acquisition makes: the hold (or wait) keeps it.
        let stack: Box<[SiteId]> = self.stack.borrow().as_slice().into();
        let (outcome, wakes) = self
            .runtime
            .inner
            .core
            .lock()
            .request_ids(self.id, lock, stack);
        self.runtime.deliver(wakes);
        match outcome {
            RequestOutcome::Acquired => Ok(DlxGuard { thread: self, lock }),
            RequestOutcome::Aborted => Err(DeadlockAborted { lock }),
            RequestOutcome::Parked => {
                let parker = self.runtime.parker_of(self.id);
                let mut slot = parker.slot.lock();
                loop {
                    if let Some(wake) = slot.take() {
                        match wake {
                            Wake::Granted(_) => return Ok(DlxGuard { thread: self, lock }),
                            Wake::Aborted(_) => return Err(DeadlockAborted { lock }),
                        }
                    }
                    parker.cv.wait(&mut slot);
                }
            }
        }
    }

    /// Convenience: acquire, run `f`, release.
    ///
    /// # Errors
    ///
    /// Propagates [`DeadlockAborted`] from the acquisition.
    pub fn with_lock<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> Result<R, DeadlockAborted> {
        let guard = self.lock(lock)?;
        let r = f();
        drop(guard);
        Ok(r)
    }

    fn release(&self, lock: LockId) {
        let wakes = self.runtime.inner.core.lock().release(self.id, lock);
        self.runtime.deliver(wakes);
    }
}

impl Drop for DlxThread {
    fn drop(&mut self) {
        let wakes = {
            let mut core = self.runtime.inner.core.lock();
            core.thread_exited(self.id)
        };
        self.runtime.deliver(wakes);
        self.runtime.inner.parkers.lock().remove(&self.id);
    }
}

/// RAII guard: releases the lock on drop.
#[derive(Debug)]
pub struct DlxGuard<'t> {
    thread: &'t DlxThread,
    lock: LockId,
}

impl DlxGuard<'_> {
    /// The held lock.
    pub fn lock_id(&self) -> LockId {
        self.lock
    }
}

impl Drop for DlxGuard<'_> {
    fn drop(&mut self) {
        self.thread.release(self.lock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_dimmunix::Signature;
    use std::sync::Barrier;

    fn run_ab_deadlock(rt: &DlxRuntime) -> Vec<Signature> {
        let la = rt.named_lock("A");
        let lb = rt.named_lock("B");
        let barrier = Arc::new(Barrier::new(2));

        let rt1 = rt.clone();
        let b1 = barrier.clone();
        let h1 = std::thread::spawn(move || {
            let t = rt1.register_thread();
            t.push_frame("app.T1", "run", 1);
            t.push_frame("app.T1", "lockA", 10);
            let ga = t.lock(la).unwrap();
            b1.wait();
            t.push_frame("app.T1", "needB", 11);
            let r = t.lock(lb);
            let ok = r.is_ok();
            drop(r);
            drop(ga);
            ok
        });
        let rt2 = rt.clone();
        let b2 = barrier;
        let h2 = std::thread::spawn(move || {
            let t = rt2.register_thread();
            t.push_frame("app.T2", "run", 1);
            t.push_frame("app.T2", "lockB", 20);
            let gb = t.lock(lb).unwrap();
            b2.wait();
            t.push_frame("app.T2", "needA", 21);
            let r = t.lock(la);
            let ok = r.is_ok();
            drop(r);
            drop(gb);
            ok
        });
        let ok1 = h1.join().unwrap();
        let ok2 = h2.join().unwrap();
        // Exactly one of the two acquisitions is aborted (the victim) —
        // or, rarely, no deadlock formed because one thread won both.
        let events = rt.drain_events();
        let sigs: Vec<Signature> = events
            .iter()
            .filter_map(|e| match e {
                Event::DeadlockDetected { signature, .. } => Some(signature.clone()),
                _ => None,
            })
            .collect();
        if !sigs.is_empty() {
            assert!(ok1 ^ ok2, "exactly one victim when a deadlock formed");
        }
        sigs
    }

    #[test]
    fn uncontended_lock_unlock() {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        let l = rt.named_lock("L");
        let t = rt.register_thread();
        t.push_frame("app.C", "m", 1);
        let g = t.lock(l).unwrap();
        drop(g);
        assert_eq!(rt.stats().immediate_acquisitions, 1);
    }

    #[test]
    fn contention_is_serialized() {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        let l = rt.named_lock("L");
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..8 {
            let rt = rt.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                let t = rt.register_thread();
                t.push_frame("app.W", "run", i);
                for _ in 0..100 {
                    let g = t.lock(l).unwrap();
                    let v = counter.load(Ordering::SeqCst);
                    std::hint::spin_loop();
                    counter.store(v + 1, Ordering::SeqCst);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 800);
    }

    #[test]
    fn deadlock_detected_and_victim_aborted() {
        let rt = DlxRuntime::new(DimmunixConfig::detection_only());
        let sigs = run_ab_deadlock(&rt);
        // The barrier forces both threads to hold their first lock before
        // requesting the second, so the deadlock always forms.
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].arity(), 2);
        assert_eq!(rt.history().len(), 1);
    }

    /// Drives the immunized interleaving: t1 acquires A first, then t2
    /// requests B while t1 still holds A (so avoidance must suspend t2),
    /// then t1 walks through B and releases everything.
    ///
    /// The plain [`run_ab_deadlock`] harness cannot be reused here: with
    /// avoidance on, t2's *first* acquisition parks, so a barrier between
    /// the first and second acquisitions would deadlock the test itself.
    fn run_ab_avoidance(rt: &DlxRuntime) -> (bool, bool) {
        let la = rt.named_lock("A");
        let lb = rt.named_lock("B");
        let barrier = Arc::new(Barrier::new(2));

        let rt1 = rt.clone();
        let b1 = barrier.clone();
        let h1 = std::thread::spawn(move || {
            let t = rt1.register_thread();
            t.push_frame("app.T1", "run", 1);
            t.push_frame("app.T1", "lockA", 10);
            let ga = t.lock(la).unwrap();
            b1.wait(); // t2 may now request B
                       // Wait until t2's request actually got suspended, so the
                       // avoidance path is provably exercised (bounded wait: t2 must
                       // suspend because we still hold A).
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while rt1.stats().suspensions == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "t2 was never suspended by avoidance"
                );
                std::thread::yield_now();
            }
            t.push_frame("app.T1", "needB", 11);
            let r = t.lock(lb);
            let ok = r.is_ok();
            drop(r);
            drop(ga);
            ok
        });
        let rt2 = rt.clone();
        let b2 = barrier;
        let h2 = std::thread::spawn(move || {
            let t = rt2.register_thread();
            t.push_frame("app.T2", "run", 1);
            b2.wait(); // t1 already holds A
            t.push_frame("app.T2", "lockB", 20);
            let gb = t.lock(lb).unwrap();
            t.push_frame("app.T2", "needA", 21);
            let r = t.lock(la);
            let ok = r.is_ok();
            drop(r);
            drop(gb);
            ok
        });
        (h1.join().unwrap(), h2.join().unwrap())
    }

    #[test]
    fn avoidance_prevents_second_occurrence() {
        // First: experience the deadlock with detection only.
        let rt = DlxRuntime::new(DimmunixConfig::detection_only());
        let sigs = run_ab_deadlock(&rt);
        assert_eq!(sigs.len(), 1);
        let history = rt.history();

        // Second: fresh runtime with avoidance + the learned history.
        let rt2 = DlxRuntime::new(DimmunixConfig::default());
        rt2.set_history(history);
        let (ok1, ok2) = run_ab_avoidance(&rt2);
        assert!(ok1 && ok2, "both threads complete in the immunized run");
        let deadlocked = rt2
            .drain_events()
            .iter()
            .any(|e| matches!(e, Event::DeadlockDetected { .. }));
        assert!(!deadlocked, "immunized run must not deadlock");
        assert!(rt2.stats().suspensions >= 1, "avoidance must have engaged");
    }

    #[test]
    fn reentrant_locking_works() {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        let l = rt.named_lock("L");
        let t = rt.register_thread();
        t.push_frame("app.C", "outer", 1);
        let g1 = t.lock(l).unwrap();
        t.push_frame("app.C", "inner", 2);
        let g2 = t.lock(l).unwrap();
        drop(g2);
        drop(g1);
        let stats = rt.stats();
        assert_eq!(stats.requests, 1, "reentrant acquisition is not a request");
    }

    #[test]
    fn with_lock_scopes_release() {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        let l = rt.named_lock("L");
        let t = rt.register_thread();
        t.push_frame("app.C", "m", 1);
        let v = t.with_lock(l, || 42).unwrap();
        assert_eq!(v, 42);
        // Re-acquirable immediately.
        let t2 = rt.register_thread();
        t2.push_frame("app.C", "m", 2);
        assert!(t2.lock(l).is_ok());
    }

    #[test]
    fn fresh_locks_are_distinct() {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        assert_ne!(rt.fresh_lock(), rt.fresh_lock());
        assert_eq!(rt.named_lock("x"), rt.named_lock("x"));
        assert_ne!(rt.named_lock("x"), rt.named_lock("y"));
    }
}
