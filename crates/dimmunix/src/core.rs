//! The Dimmunix core: lock-state tracking, the avoidance module, and the
//! detection module, behind a runtime-agnostic API.
//!
//! The core is single-threaded by design: hosting runtimes (the
//! deterministic simulator and the real-thread runtime in
//! `communix-runtime`) serialize calls into it, exactly as Dimmunix
//! serializes its interposition logic inside the target JVM. Every method
//! that can unblock *other* threads returns [`Wake`] instructions the
//! runtime must apply.
//!
//! Stacks inside the core are slices of [`SiteId`]s from the core's
//! [`SiteTable`] (see [`DimmunixCore::sites`]): a hold, a wait and a
//! suspended request each keep a boxed id slice, and the avoidance
//! decision compares ids. A runtime that keeps its threads' stacks as ids
//! in the same table hands them over through
//! [`DimmunixCore::request_ids`]; [`DimmunixCore::request`] takes a
//! [`CallStack`] and interns it first. Only an extracted deadlock
//! signature turns ids back into a `CallStack` — without bytecode hashes,
//! which Dimmunix frames never carry: the Communix plugin attaches them to
//! the signature after detection.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use communix_clock::Clock;

use crate::config::{BreakPolicy, DimmunixConfig};
use crate::events::{Event, Wake};
use crate::fp::FalsePositiveDetector;
use crate::frame::CallStack;
use crate::history::{AddOutcome, History};
use crate::ids::{LockId, ThreadId};
use crate::matcher::{AvoidanceMatcher, Instantiation, RecordRef};
use crate::signature::{SigEntry, Signature};
use crate::sites::{SiteId, SiteTable};

/// Outcome of a lock request, from the requester's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock is now held; proceed.
    Acquired,
    /// The thread must park until a [`Wake`] names it (either blocked on
    /// a busy lock or suspended by avoidance).
    Parked,
    /// The request was aborted immediately as a deadlock victim.
    Aborted,
}

/// Aggregate counters, used by overhead benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Total non-reentrant lock requests.
    pub requests: u64,
    /// Requests granted immediately.
    pub immediate_acquisitions: u64,
    /// Requests that blocked on a busy lock.
    pub blocks: u64,
    /// Requests suspended by the avoidance module (signature
    /// instantiations, in the paper's terms).
    pub suspensions: u64,
    /// Avoidance yields cancelled to resolve starvation.
    pub forced_grants: u64,
    /// Deadlocks detected.
    pub deadlocks_detected: u64,
    /// Acquisitions aborted as deadlock victims.
    pub aborts: u64,
    /// Cumulative stack-suffix comparisons performed by the avoidance
    /// matcher (the cost driver of signature matching; simulated runtimes
    /// convert this into virtual time).
    pub match_work: u64,
}

#[derive(Debug, Clone)]
struct HoldInfo {
    stack: Box<[SiteId]>,
    reentrancy: u32,
}

#[derive(Debug, Clone)]
struct WaitInfo {
    lock: LockId,
    stack: Box<[SiteId]>,
}

#[derive(Debug, Clone, Default)]
struct ThreadState {
    /// Ordered, like `DimmunixCore::threads`: see [`published`].
    holds: BTreeMap<LockId, HoldInfo>,
    waiting: Option<WaitInfo>,
}

/// Every published hold and wait, borrowed (suspended requests excluded —
/// they yielded before publishing). The order is fixed — thread id, then
/// the thread's holds by lock id, then its wait — because the matcher
/// takes the first eligible record: which participants it reports and how
/// much `match_work` it charges must follow from the calls made, not from
/// a hash seed.
fn published(
    threads: &BTreeMap<ThreadId, ThreadState>,
) -> impl Iterator<Item = RecordRef<'_>> + Clone {
    threads.iter().flat_map(|(&thread, ts)| {
        let holds = ts.holds.iter().map(move |(&lock, h)| RecordRef {
            thread,
            lock,
            stack: &h.stack,
        });
        let wait = ts.waiting.iter().map(move |w| RecordRef {
            thread,
            lock: w.lock,
            stack: &w.stack,
        });
        holds.chain(wait)
    })
}

/// The avoidance decision: would `thread` taking `lock` with `stack`
/// complete an instantiation of a history signature? Borrows the
/// candidate and every published record; a top site no signature names
/// costs one index into the matcher's by-top-site table.
fn instantiation(
    matcher: &mut AvoidanceMatcher,
    threads: &BTreeMap<ThreadId, ThreadState>,
    thread: ThreadId,
    lock: LockId,
    stack: &[SiteId],
) -> Option<Instantiation> {
    let candidate = RecordRef {
        thread,
        lock,
        stack,
    };
    matcher.would_instantiate_ref(candidate, published(threads))
}

#[derive(Debug, Clone, Default)]
struct LockState {
    owner: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
}

#[derive(Debug)]
struct SuspendedReq {
    thread: ThreadId,
    lock: LockId,
    stack: Box<[SiteId]>,
    /// Threads participating in the instantiation that blocks this
    /// request (for starvation detection).
    blockers: Vec<ThreadId>,
    seq: u64,
}

/// The Dimmunix engine: "an avoidance module that prevents reoccurrences
/// of previously encountered deadlocks, and a detection module that
/// detects deadlocks, extracts their signatures, and adds them to a
/// persistent history" (§II-A).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use communix_clock::SystemClock;
/// use communix_dimmunix::{
///     CallStack, DimmunixConfig, DimmunixCore, Frame, LockId, RequestOutcome, ThreadId,
/// };
///
/// let mut core = DimmunixCore::new(DimmunixConfig::default(), Arc::new(SystemClock::new()));
/// let stack: CallStack = vec![Frame::new("app.C", "run", 3)].into_iter().collect();
/// let (outcome, _wakes) = core.request(ThreadId(1), LockId(1), stack);
/// assert_eq!(outcome, RequestOutcome::Acquired);
/// let _wakes = core.release(ThreadId(1), LockId(1));
/// ```
#[derive(Debug)]
pub struct DimmunixCore {
    config: DimmunixConfig,
    history: History,
    matcher: AvoidanceMatcher,
    fp: FalsePositiveDetector,
    locks: HashMap<LockId, LockState>,
    threads: BTreeMap<ThreadId, ThreadState>,
    suspended: Vec<SuspendedReq>,
    /// Pushed at the back, handed over whole by `drain_events`.
    events: Vec<Event>,
    clock: Arc<dyn Clock>,
    stats: CoreStats,
    seq: u64,
}

impl DimmunixCore {
    /// Creates a core with an empty history.
    pub fn new(config: DimmunixConfig, clock: Arc<dyn Clock>) -> Self {
        let fp = FalsePositiveDetector::new(
            config.fp_instantiation_threshold,
            config.fp_burst_threshold,
            config.fp_burst_window,
        );
        DimmunixCore {
            config,
            history: History::new(),
            matcher: AvoidanceMatcher::default(),
            fp,
            locks: HashMap::new(),
            threads: BTreeMap::new(),
            suspended: Vec::new(),
            events: Vec::new(),
            clock,
            stats: CoreStats::default(),
            seq: 0,
        }
    }

    /// Creates a core seeded with an existing history.
    pub fn with_history(config: DimmunixConfig, clock: Arc<dyn Clock>, history: History) -> Self {
        let mut core = DimmunixCore::new(config, clock);
        core.set_history(history);
        core
    }

    /// The current deadlock history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Replaces the history wholesale (agent start-up pipeline) and
    /// rebuilds avoidance state. False-positive statistics restart.
    pub fn set_history(&mut self, history: History) {
        self.history = history;
        self.matcher.rebuild(&self.history);
        self.fp.reset();
    }

    /// The table this core's stacks are ids in, shared with its matcher.
    /// A hosting runtime interns its threads' frames here (without the
    /// core's mutex) and passes the ids to [`request_ids`](Self::request_ids).
    pub fn sites(&self) -> &Arc<SiteTable> {
        self.matcher.sites()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.match_work = self.matcher.work();
        s
    }

    /// Drains pending events: the buffer itself is handed over, nothing
    /// is copied.
    pub fn drain_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Whether the false-positive detector flagged `sig_index`.
    pub fn is_fp_suspect(&self, sig_index: usize) -> bool {
        self.fp.is_suspect(sig_index)
    }

    /// Requests `lock` for `thread`, with the thread's current call
    /// stack. Runs the avoidance module, then the normal mutex path, then
    /// (on a new wait edge) the detection module.
    ///
    /// Returns the requester-side outcome plus wakes for *other* threads.
    ///
    /// The frames must carry no bytecode hash: a stack the core keeps is
    /// ids, so a hash would be lost, and Dimmunix never has one (the
    /// plugin attaches hashes to an extracted signature).
    pub fn request(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        stack: CallStack,
    ) -> (RequestOutcome, Vec<Wake>) {
        debug_assert!(
            stack.frames().iter().all(|f| f.hash.is_none()),
            "Dimmunix frames carry no bytecode hash: {stack}"
        );
        let stack = self.sites().intern_stack(&stack);
        self.request_ids(thread, lock, stack)
    }

    /// [`request`](Self::request) with the stack as ids from
    /// [`sites`](Self::sites), outermost first: the lock path of a runtime
    /// that keeps its threads' stacks as ids. The core keeps `stack` as it
    /// is, so a request allocates nothing the caller did not.
    pub fn request_ids(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        mut stack: Box<[SiteId]>,
    ) -> (RequestOutcome, Vec<Wake>) {
        // Reentrant re-acquisition: Java monitors are reentrant; no new
        // record is published and avoidance is bypassed.
        if let Some(hold) = self.threads.entry(thread).or_default().holds.get_mut(&lock) {
            hold.reentrancy += 1;
            self.events.push(Event::Acquired {
                thread,
                lock,
                reentrant: true,
            });
            return (RequestOutcome::Acquired, Vec::new());
        }

        self.stats.requests += 1;

        let inst = if self.config.avoidance {
            instantiation(&mut self.matcher, &self.threads, thread, lock, &stack)
        } else {
            None
        };
        if let Some(inst) = inst {
            self.stats.suspensions += 1;
            let now = self.clock.now();
            if self.fp.record_instantiation(inst.sig_index, now) {
                self.events.push(Event::FalsePositiveSuspect {
                    sig_index: inst.sig_index,
                });
            }
            self.events.push(Event::Suspended {
                thread,
                lock,
                sig_index: inst.sig_index,
            });
            self.seq += 1;
            self.suspended.push(SuspendedReq {
                thread,
                lock,
                stack,
                blockers: blockers_of(&inst, thread),
                seq: self.seq,
            });
            // Avoidance-induced starvation: if the yield closes a
            // cycle (the blockers transitively wait on this thread),
            // cancel it and let the thread through (best-effort, as in
            // Dimmunix; detection will catch any real deadlock).
            if !self.in_extended_cycle(thread) {
                return (RequestOutcome::Parked, Vec::new());
            }
            stack = self.suspended.pop().expect("pushed above").stack;
            self.stats.forced_grants += 1;
            self.events.push(Event::ForcedGrant {
                thread,
                lock,
                sig_index: inst.sig_index,
            });
        }

        self.publish_request(thread, lock, stack)
    }

    /// Releases `lock` held by `thread` (outermost release hands the lock
    /// to the next queued waiter and re-checks suspended requests).
    pub fn release(&mut self, thread: ThreadId, lock: LockId) -> Vec<Wake> {
        let ts = self
            .threads
            .get_mut(&thread)
            .unwrap_or_else(|| panic!("release by unknown thread {thread}"));
        let hold = ts
            .holds
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("{thread} releasing {lock} it does not hold"));
        if hold.reentrancy > 1 {
            hold.reentrancy -= 1;
            return Vec::new();
        }
        ts.holds.remove(&lock);
        self.events.push(Event::Released { thread, lock });

        let mut wakes = Vec::new();
        let ls = self.locks.entry(lock).or_default();
        ls.owner = None;
        if let Some(next) = ls.queue.pop_front() {
            ls.owner = Some(next);
            let nts = self.threads.entry(next).or_default();
            let wait = nts
                .waiting
                .take()
                .expect("queued thread must have wait info");
            debug_assert_eq!(wait.lock, lock);
            nts.holds.insert(
                lock,
                HoldInfo {
                    stack: wait.stack,
                    reentrancy: 1,
                },
            );
            self.events.push(Event::Granted { thread: next, lock });
            wakes.push(Wake::Granted(next));
        }

        self.recheck_suspended(&mut wakes);
        wakes
    }

    /// Removes a thread from all core state, releasing anything it still
    /// holds (application unwind / thread death). Returns wakes for
    /// threads unblocked by the releases.
    pub fn thread_exited(&mut self, thread: ThreadId) -> Vec<Wake> {
        let mut wakes = Vec::new();
        if let Some(ts) = self.threads.get(&thread) {
            debug_assert!(
                ts.waiting.is_none(),
                "{thread} exited while queued on a lock"
            );
            let held: Vec<LockId> = ts.holds.keys().copied().collect();
            for l in held {
                // Collapse reentrancy: the thread is gone.
                if let Some(h) = self
                    .threads
                    .get_mut(&thread)
                    .and_then(|ts| ts.holds.get_mut(&l))
                {
                    h.reentrancy = 1;
                }
                wakes.extend(self.release(thread, l));
            }
        }
        self.remove_suspended(thread);
        self.threads.remove(&thread);
        wakes
    }

    /// The number of threads currently suspended by avoidance.
    pub fn suspended_count(&self) -> usize {
        self.suspended.len()
    }

    /// Whether `thread` currently holds `lock`.
    pub fn holds(&self, thread: ThreadId, lock: LockId) -> bool {
        self.threads
            .get(&thread)
            .is_some_and(|ts| ts.holds.contains_key(&lock))
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Publishes a request past avoidance: acquire a free lock or join the
    /// queue of a busy one (running detection on the new wait edge).
    fn publish_request(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        stack: Box<[SiteId]>,
    ) -> (RequestOutcome, Vec<Wake>) {
        let ls = self.locks.entry(lock).or_default();
        match ls.owner {
            None => {
                ls.owner = Some(thread);
                self.threads.entry(thread).or_default().holds.insert(
                    lock,
                    HoldInfo {
                        stack,
                        reentrancy: 1,
                    },
                );
                self.stats.immediate_acquisitions += 1;
                self.events.push(Event::Acquired {
                    thread,
                    lock,
                    reentrant: false,
                });
                (RequestOutcome::Acquired, Vec::new())
            }
            Some(_owner) => {
                ls.queue.push_back(thread);
                self.threads.entry(thread).or_default().waiting = Some(WaitInfo { lock, stack });
                self.stats.blocks += 1;
                self.events.push(Event::Blocked { thread, lock });

                if self.config.detection {
                    if let Some(cycle) = self.find_wait_cycle(thread) {
                        return (self.handle_deadlock(thread, lock, cycle), Vec::new());
                    }
                }
                (RequestOutcome::Parked, Vec::new())
            }
        }
    }

    /// Walks the wait graph from `start`: each waiting thread points at
    /// the owner of the lock it waits for. Returns the cycle (thread list)
    /// if the walk returns to a visited node.
    fn find_wait_cycle(&self, start: ThreadId) -> Option<Vec<ThreadId>> {
        let mut path: Vec<ThreadId> = Vec::new();
        let mut cur = start;
        loop {
            if let Some(pos) = path.iter().position(|t| *t == cur) {
                return Some(path[pos..].to_vec());
            }
            path.push(cur);
            let wait = self.threads.get(&cur).and_then(|ts| ts.waiting.as_ref())?;
            let owner = self.locks.get(&wait.lock).and_then(|l| l.owner)?;
            cur = owner;
        }
    }

    /// Extracts the deadlock signature from a wait cycle, records
    /// true-positive credit, appends the signature to the history, and
    /// applies the break policy. Returns the requester-side outcome.
    fn handle_deadlock(
        &mut self,
        requester: ThreadId,
        requested_lock: LockId,
        cycle: Vec<ThreadId>,
    ) -> RequestOutcome {
        self.stats.deadlocks_detected += 1;
        let n = cycle.len();
        let mut entries = Vec::with_capacity(n);
        let mut locks = Vec::with_capacity(n);
        {
            let sites = self.matcher.sites().read();
            for (i, &t) in cycle.iter().enumerate() {
                let prev = cycle[(i + n - 1) % n];
                let ts = &self.threads[&t];
                let wait = ts.waiting.as_ref().expect("cycle member must wait");
                // The lock t holds that its predecessor waits for.
                let held_lock = self.threads[&prev]
                    .waiting
                    .as_ref()
                    .expect("cycle member must wait")
                    .lock;
                let outer = sites.stack(&ts.holds[&held_lock].stack);
                let inner = sites.stack(&wait.stack);
                entries.push(SigEntry::new(outer, inner));
                locks.push(held_lock);
            }
        }
        let signature = Signature::local(entries);

        // True positives: any history signature describing this bug has
        // just been vindicated.
        for (i, s) in self.history.signatures().iter().enumerate() {
            if s.same_bug(&signature) {
                self.fp.record_true_positive(i);
            }
        }

        if self.history.add(signature.clone()) == AddOutcome::Added {
            self.matcher.push(&signature);
        }
        self.events.push(Event::DeadlockDetected {
            signature,
            threads: cycle.clone(),
            locks,
        });

        match self.config.break_policy {
            BreakPolicy::AbortRequester => {
                // Withdraw the requester's wait so the application can
                // unwind; everyone else stays blocked until the unwind
                // releases their locks.
                self.stats.aborts += 1;
                let ts = self.threads.get_mut(&requester).expect("requester exists");
                ts.waiting = None;
                if let Some(ls) = self.locks.get_mut(&requested_lock) {
                    ls.queue.retain(|t| *t != requester);
                }
                self.events.push(Event::VictimAborted {
                    thread: requester,
                    lock: requested_lock,
                });
                RequestOutcome::Aborted
            }
            BreakPolicy::LeaveDeadlocked => RequestOutcome::Parked,
        }
    }

    fn remove_suspended(&mut self, thread: ThreadId) {
        self.suspended.retain(|s| s.thread != thread);
    }

    /// Re-evaluates suspended requests (FIFO) after a state change.
    fn recheck_suspended(&mut self, wakes: &mut Vec<Wake>) {
        self.suspended.sort_by_key(|s| s.seq);
        let mut i = 0;
        while i < self.suspended.len() {
            let SuspendedReq {
                thread,
                lock,
                ref stack,
                ..
            } = self.suspended[i];
            match instantiation(&mut self.matcher, &self.threads, thread, lock, stack) {
                None => {
                    // Safe now: re-admit through the normal path.
                    self.events.push(Event::Resumed { thread, lock });
                }
                Some(inst) => {
                    self.suspended[i].blockers = blockers_of(&inst, thread);
                    if !self.in_extended_cycle(thread) {
                        i += 1;
                        continue;
                    }
                    self.stats.forced_grants += 1;
                    self.events.push(Event::ForcedGrant {
                        thread,
                        lock,
                        sig_index: inst.sig_index,
                    });
                }
            }
            let req = self.suspended.remove(i);
            let (outcome, mut w) = self.publish_request(thread, lock, req.stack);
            wakes.append(&mut w);
            match outcome {
                RequestOutcome::Acquired => wakes.push(Wake::Granted(thread)),
                RequestOutcome::Aborted => wakes.push(Wake::Aborted(thread)),
                RequestOutcome::Parked => {}
            }
            // Restart: the admission may have changed records.
            i = 0;
        }
    }

    /// Starvation check: does `start` sit on a cycle in the graph whose
    /// edges are (a) waits-for-owner and (b) suspended-yields-to-blocker?
    fn in_extended_cycle(&self, start: ThreadId) -> bool {
        // Adjacency on demand.
        let edges = |t: ThreadId| -> Vec<ThreadId> {
            let mut out = Vec::new();
            if let Some(ts) = self.threads.get(&t) {
                if let Some(w) = &ts.waiting {
                    if let Some(owner) = self.locks.get(&w.lock).and_then(|l| l.owner) {
                        out.push(owner);
                    }
                }
            }
            for s in &self.suspended {
                if s.thread == t {
                    out.extend(s.blockers.iter().copied());
                }
            }
            out
        };
        // DFS looking for a path back to start.
        let mut stack: Vec<ThreadId> = edges(start);
        let mut seen: Vec<ThreadId> = Vec::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            stack.extend(edges(t));
        }
        false
    }
}

/// The threads a suspended `thread` yields to: the other participants of
/// the instantiation that stopped it.
fn blockers_of(inst: &Instantiation, thread: ThreadId) -> Vec<ThreadId> {
    inst.participants
        .iter()
        .map(|(t, _)| *t)
        .filter(|t| *t != thread)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use communix_clock::VirtualClock;

    fn cs(frames: &[(&str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    fn core() -> DimmunixCore {
        DimmunixCore::new(DimmunixConfig::default(), Arc::new(VirtualClock::new()))
    }

    /// Drives the canonical AB/BA deadlock to detection and returns the
    /// core afterwards.
    fn deadlock_ab(core: &mut DimmunixCore) -> Signature {
        let (o, _) = core.request(ThreadId(1), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        assert_eq!(o, RequestOutcome::Acquired);
        let (o, _) = core.request(ThreadId(2), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(o, RequestOutcome::Acquired);
        let (o, _) = core.request(
            ThreadId(1),
            LockId(2),
            cs(&[("run", 1), ("lockA", 10), ("needB", 11)]),
        );
        assert_eq!(o, RequestOutcome::Parked);
        let (o, _) = core.request(
            ThreadId(2),
            LockId(1),
            cs(&[("run", 2), ("lockB", 20), ("needA", 21)]),
        );
        assert_eq!(o, RequestOutcome::Aborted, "requester aborted as victim");
        let events = core.drain_events();
        let sig = events
            .iter()
            .find_map(|e| match e {
                Event::DeadlockDetected { signature, .. } => Some(signature.clone()),
                _ => None,
            })
            .expect("deadlock detected");
        sig
    }

    #[test]
    fn uncontended_acquire_release() {
        let mut c = core();
        let (o, w) = c.request(ThreadId(1), LockId(1), cs(&[("m", 1)]));
        assert_eq!(o, RequestOutcome::Acquired);
        assert!(w.is_empty());
        assert!(c.holds(ThreadId(1), LockId(1)));
        let w = c.release(ThreadId(1), LockId(1));
        assert!(w.is_empty());
        assert!(!c.holds(ThreadId(1), LockId(1)));
    }

    #[test]
    fn contention_queues_and_grants_fifo() {
        let mut c = core();
        c.request(ThreadId(1), LockId(1), cs(&[("m", 1)]));
        let (o, _) = c.request(ThreadId(2), LockId(1), cs(&[("m", 2)]));
        assert_eq!(o, RequestOutcome::Parked);
        let (o, _) = c.request(ThreadId(3), LockId(1), cs(&[("m", 3)]));
        assert_eq!(o, RequestOutcome::Parked);
        let w = c.release(ThreadId(1), LockId(1));
        assert_eq!(w, vec![Wake::Granted(ThreadId(2))]);
        assert!(c.holds(ThreadId(2), LockId(1)));
        let w = c.release(ThreadId(2), LockId(1));
        assert_eq!(w, vec![Wake::Granted(ThreadId(3))]);
    }

    #[test]
    fn reentrancy_is_free_and_balanced() {
        let mut c = core();
        c.request(ThreadId(1), LockId(1), cs(&[("m", 1)]));
        let (o, _) = c.request(ThreadId(1), LockId(1), cs(&[("m", 1), ("again", 2)]));
        assert_eq!(o, RequestOutcome::Acquired);
        // One release keeps the lock (reentrancy 2 -> 1).
        c.release(ThreadId(1), LockId(1));
        assert!(c.holds(ThreadId(1), LockId(1)));
        c.release(ThreadId(1), LockId(1));
        assert!(!c.holds(ThreadId(1), LockId(1)));
    }

    #[test]
    fn deadlock_detected_and_signature_extracted() {
        let mut c = core();
        let sig = deadlock_ab(&mut c);
        assert_eq!(sig.arity(), 2);
        assert_eq!(c.stats().deadlocks_detected, 1);
        assert_eq!(c.stats().aborts, 1);
        assert_eq!(c.history().len(), 1);
        // Outer tops are the acquisition sites, inner tops the blocked
        // sites.
        let tops = sig.top_frame_sites();
        let top_methods: Vec<&str> = tops.iter().map(|s| s.method.as_ref()).collect();
        assert!(top_methods.contains(&"lockA"));
        assert!(top_methods.contains(&"lockB"));
        assert!(top_methods.contains(&"needB"));
        assert!(top_methods.contains(&"needA"));
    }

    #[test]
    fn avoidance_suspends_matching_second_thread() {
        let mut c = core();
        let sig = deadlock_ab(&mut c);
        assert_eq!(c.history().signatures()[0], sig);

        // Unwind the deadlock participants.
        let _ = c.release(ThreadId(2), LockId(2));
        let _ = c.release(ThreadId(1), LockId(1)); // t1's pending grant of l2 …
        let _ = c.release(ThreadId(1), LockId(2)); // … release it too
        assert_eq!(c.suspended_count(), 0);

        // Re-run the same flows: t3 takes the lockA role, t4 the lockB
        // role. t4's acquisition would complete the signature: suspend.
        let (o, _) = c.request(ThreadId(3), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        assert_eq!(o, RequestOutcome::Acquired);
        let (o, _) = c.request(ThreadId(4), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(o, RequestOutcome::Parked);
        assert_eq!(c.suspended_count(), 1);
        assert_eq!(c.stats().suspensions, 1);

        // When t3 releases, t4 resumes and acquires.
        let w = c.release(ThreadId(3), LockId(1));
        assert!(w.contains(&Wake::Granted(ThreadId(4))));
        assert!(c.holds(ThreadId(4), LockId(2)));
        assert_eq!(c.suspended_count(), 0);
    }

    #[test]
    fn avoidance_prevents_deadlock_reoccurrence() {
        let mut c = core();
        deadlock_ab(&mut c);
        let _ = c.release(ThreadId(2), LockId(2));
        let _ = c.release(ThreadId(1), LockId(1));
        let _ = c.release(ThreadId(1), LockId(2));

        // Replay the interleaving with fresh threads; avoidance must
        // serialize them so no new deadlock is detected.
        let (o, _) = c.request(ThreadId(5), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        assert_eq!(o, RequestOutcome::Acquired);
        let (o, _) = c.request(ThreadId(6), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(o, RequestOutcome::Parked); // suspended, not deadlocked
        let (o, _) = c.request(
            ThreadId(5),
            LockId(2),
            cs(&[("run", 1), ("lockA", 10), ("needB", 11)]),
        );
        assert_eq!(
            o,
            RequestOutcome::Acquired,
            "t5 proceeds through both locks"
        );
        let mut wakes = c.release(ThreadId(5), LockId(2));
        wakes.extend(c.release(ThreadId(5), LockId(1)));
        assert!(wakes.contains(&Wake::Granted(ThreadId(6))));
        assert_eq!(c.stats().deadlocks_detected, 1, "no second deadlock");
    }

    #[test]
    fn avoidance_disabled_lets_deadlock_reoccur() {
        let mut c = DimmunixCore::new(
            DimmunixConfig::detection_only(),
            Arc::new(VirtualClock::new()),
        );
        deadlock_ab(&mut c);
        let _ = c.release(ThreadId(2), LockId(2));
        let _ = c.release(ThreadId(1), LockId(1));
        let _ = c.release(ThreadId(1), LockId(2));

        c.request(ThreadId(5), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        c.request(ThreadId(6), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        c.request(
            ThreadId(5),
            LockId(2),
            cs(&[("run", 1), ("lockA", 10), ("needB", 11)]),
        );
        let (o, _) = c.request(
            ThreadId(6),
            LockId(1),
            cs(&[("run", 2), ("lockB", 20), ("needA", 21)]),
        );
        assert_eq!(o, RequestOutcome::Aborted);
        assert_eq!(c.stats().deadlocks_detected, 2);
    }

    #[test]
    fn duplicate_manifestation_not_duplicated_in_history() {
        let mut c = core();
        deadlock_ab(&mut c);
        let _ = c.release(ThreadId(2), LockId(2));
        let _ = c.release(ThreadId(1), LockId(1));
        let _ = c.release(ThreadId(1), LockId(2));
        // Same flows again but avoidance off for these threads? We cannot
        // disable per-thread; instead verify history doesn't grow on the
        // suspension path.
        c.request(ThreadId(3), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        c.request(ThreadId(4), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(c.history().len(), 1);
    }

    #[test]
    fn starvation_yield_is_cancelled() {
        // t1 holds l1 at the lockA position. t2 is suspended trying the
        // lockB position. Then t1 blocks on t2's... construct: make t2
        // hold l9 and t1 wait for l9. The suspension's blocker is t1;
        // t1 waits on a lock owned by t2 => cycle t2 -> t1 -> t2: the
        // yield must be cancelled, else neither makes progress.
        let mut c = core();
        deadlock_ab(&mut c);
        let _ = c.release(ThreadId(2), LockId(2));
        let _ = c.release(ThreadId(1), LockId(1));
        let _ = c.release(ThreadId(1), LockId(2));

        // t2' (id 12) takes some unrelated lock l9 first.
        let (o, _) = c.request(ThreadId(12), LockId(9), cs(&[("init", 5)]));
        assert_eq!(o, RequestOutcome::Acquired);
        // t1' (id 11) occupies the lockA position.
        let (o, _) = c.request(ThreadId(11), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        assert_eq!(o, RequestOutcome::Acquired);
        // t2' tries the lockB position: suspended (blocker: t1').
        let (o, _) = c.request(ThreadId(12), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(o, RequestOutcome::Parked);
        assert_eq!(c.suspended_count(), 1);
        // Now t1' blocks on l9 (owned by t2'): closes the extended cycle.
        let (o, w) = c.request(
            ThreadId(11),
            LockId(9),
            cs(&[("run", 1), ("lockA", 10), ("needL9", 12)]),
        );
        assert_eq!(o, RequestOutcome::Parked);
        // The recheck runs on release; but the cycle already exists. The
        // suspension is only re-examined on state change — trigger one.
        // (Release of an unrelated lock suffices to drive recheck.)
        let (o2, _) = c.request(ThreadId(13), LockId(7), cs(&[("x", 1)]));
        assert_eq!(o2, RequestOutcome::Acquired);
        let w2 = c.release(ThreadId(13), LockId(7));
        let forced = c
            .drain_events()
            .iter()
            .any(|e| matches!(e, Event::ForcedGrant { .. }));
        assert!(
            forced
                || w.iter()
                    .chain(w2.iter())
                    .any(|wk| wk.thread() == ThreadId(12)),
            "suspended thread must eventually be let through"
        );
        assert_eq!(c.suspended_count(), 0);
    }

    #[test]
    fn fp_suspect_event_emitted_for_noisy_signature() {
        let clock = Arc::new(VirtualClock::new());
        let cfg = DimmunixConfig {
            fp_instantiation_threshold: 20, // keep the test small
            ..DimmunixConfig::default()
        };
        let mut c = DimmunixCore::new(cfg, clock.clone());
        // Seed history with the AB signature.
        {
            let mut seed = core();
            let sig = deadlock_ab(&mut seed);
            c.set_history({
                let mut h = History::new();
                h.add(sig);
                h
            });
        }
        // Repeatedly create the suspension: t_even holds A-position,
        // t_odd gets suspended at B-position, then both retreat.
        let mut suspect = false;
        for i in 0..30u64 {
            let ta = ThreadId(100 + 2 * i);
            let tb = ThreadId(101 + 2 * i);
            let (o, _) = c.request(ta, LockId(1), cs(&[("run", 1), ("lockA", 10)]));
            assert_eq!(o, RequestOutcome::Acquired);
            let (o, _) = c.request(tb, LockId(2), cs(&[("run", 2), ("lockB", 20)]));
            assert_eq!(o, RequestOutcome::Parked);
            clock.advance(communix_clock::Duration::from_millis(10));
            let w = c.release(ta, LockId(1));
            assert!(w.iter().any(|wk| wk.thread() == tb));
            let _ = c.release(tb, LockId(2));
            suspect |= c
                .drain_events()
                .iter()
                .any(|e| matches!(e, Event::FalsePositiveSuspect { .. }));
        }
        assert!(suspect, "noisy signature must be flagged");
        assert!(c.is_fp_suspect(0));
    }

    #[test]
    fn decision_is_a_function_of_the_calls_not_of_hash_seeds() {
        let sig = deadlock_ab(&mut core());
        let run = || {
            let mut h = History::new();
            h.add(sig.clone());
            let mut c = DimmunixCore::with_history(
                DimmunixConfig::default(),
                Arc::new(VirtualClock::new()),
                h,
            );
            // Three threads fill the lockA position, each also holding a
            // lock taken elsewhere; any of the three completes the
            // signature for t9 at the lockB position.
            for t in [3, 1, 2] {
                let (o, _) = c.request(ThreadId(t), LockId(t), cs(&[("other", 7)]));
                assert_eq!(o, RequestOutcome::Acquired);
                let (o, _) = c.request(
                    ThreadId(t),
                    LockId(10 + t),
                    cs(&[("run", 1), ("lockA", 10)]),
                );
                assert_eq!(o, RequestOutcome::Acquired);
            }
            let before = c.stats().match_work;
            let (o, _) = c.request(ThreadId(9), LockId(9), cs(&[("run", 2), ("lockB", 20)]));
            assert_eq!(o, RequestOutcome::Parked);
            (
                c.suspended[0].blockers.clone(),
                c.stats().match_work - before,
            )
        };
        // One slot at lockB's site, then t1's records in lock order: l1
        // (taken elsewhere) before l11 (lockA: fills the position).
        let first = run();
        assert_eq!(first, (vec![ThreadId(1)], 3));
        for _ in 0..19 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn thread_exit_releases_holds() {
        let mut c = core();
        c.request(ThreadId(1), LockId(1), cs(&[("m", 1)]));
        c.request(ThreadId(2), LockId(1), cs(&[("m", 2)]));
        let w = c.thread_exited(ThreadId(1));
        assert_eq!(w, vec![Wake::Granted(ThreadId(2))]);
    }

    #[test]
    fn set_history_resets_matcher() {
        let mut c = core();
        let sig = deadlock_ab(&mut c);
        let _ = c.release(ThreadId(2), LockId(2));
        let _ = c.release(ThreadId(1), LockId(1));
        let _ = c.release(ThreadId(1), LockId(2));
        // Clear history: the old signature must no longer suspend anyone.
        c.set_history(History::new());
        let (o, _) = c.request(ThreadId(3), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        assert_eq!(o, RequestOutcome::Acquired);
        let (o, _) = c.request(ThreadId(4), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(o, RequestOutcome::Acquired);
        // Restore it: suspension returns.
        let _ = c.release(ThreadId(3), LockId(1));
        let _ = c.release(ThreadId(4), LockId(2));
        let mut h = History::new();
        h.add(sig);
        c.set_history(h);
        c.request(ThreadId(5), LockId(1), cs(&[("run", 1), ("lockA", 10)]));
        let (o, _) = c.request(ThreadId(6), LockId(2), cs(&[("run", 2), ("lockB", 20)]));
        assert_eq!(o, RequestOutcome::Parked);
    }

    #[test]
    fn three_thread_cycle_detected() {
        let mut c = DimmunixCore::new(
            DimmunixConfig::detection_only(),
            Arc::new(VirtualClock::new()),
        );
        c.request(ThreadId(1), LockId(1), cs(&[("a", 1)]));
        c.request(ThreadId(2), LockId(2), cs(&[("b", 2)]));
        c.request(ThreadId(3), LockId(3), cs(&[("c", 3)]));
        let (o, _) = c.request(ThreadId(1), LockId(2), cs(&[("a", 1), ("w", 4)]));
        assert_eq!(o, RequestOutcome::Parked);
        let (o, _) = c.request(ThreadId(2), LockId(3), cs(&[("b", 2), ("w", 5)]));
        assert_eq!(o, RequestOutcome::Parked);
        let (o, _) = c.request(ThreadId(3), LockId(1), cs(&[("c", 3), ("w", 6)]));
        assert_eq!(o, RequestOutcome::Aborted);
        let sig = c.history().signatures().last().unwrap();
        assert_eq!(sig.arity(), 3);
    }

    #[test]
    fn leave_deadlocked_policy_parks_requester() {
        let mut cfg = DimmunixConfig::detection_only();
        cfg.break_policy = BreakPolicy::LeaveDeadlocked;
        let mut c = DimmunixCore::new(cfg, Arc::new(VirtualClock::new()));
        c.request(ThreadId(1), LockId(1), cs(&[("a", 1)]));
        c.request(ThreadId(2), LockId(2), cs(&[("b", 2)]));
        c.request(ThreadId(1), LockId(2), cs(&[("a", 1), ("w", 3)]));
        let (o, _) = c.request(ThreadId(2), LockId(1), cs(&[("b", 2), ("w", 4)]));
        assert_eq!(o, RequestOutcome::Parked);
        assert_eq!(c.stats().deadlocks_detected, 1);
        assert_eq!(c.stats().aborts, 0);
        assert_eq!(c.history().len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = core();
        c.request(ThreadId(1), LockId(1), cs(&[("m", 1)]));
        c.request(ThreadId(2), LockId(1), cs(&[("m", 2)]));
        let s = c.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.immediate_acquisitions, 1);
        assert_eq!(s.blocks, 1);
    }
}
