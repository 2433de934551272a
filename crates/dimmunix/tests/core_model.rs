//! The core's borrowed decision path against a reference model.
//!
//! [`Model`] is the clone-and-collect core this crate shipped before the
//! decision learned to borrow: every request copies the candidate's stack
//! into a `LockRecord`, collects an owned record for every published hold
//! and wait, and hands both to the owned-records
//! `AvoidanceMatcher::would_instantiate`; every recheck clones the
//! suspended request. It is kept here, test-only, as the statement of what
//! the core must still decide. Random schedules of requests, releases and
//! thread exits must produce the same outcomes, wakes, events and counters
//! from both.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use communix_clock::{Clock, VirtualClock};
use communix_dimmunix::{
    AddOutcome, AvoidanceMatcher, CallStack, CoreStats, DimmunixConfig, DimmunixCore, Event,
    FalsePositiveDetector, Frame, History, LockId, LockRecord, RequestOutcome, SigEntry, Signature,
    ThreadId, Wake,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Hold {
    stack: CallStack,
    reentrancy: u32,
}

#[derive(Clone)]
struct Wait {
    lock: LockId,
    stack: CallStack,
}

#[derive(Clone, Default)]
struct ThreadState {
    holds: BTreeMap<LockId, Hold>,
    waiting: Option<Wait>,
}

#[derive(Clone, Default)]
struct LockState {
    owner: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
}

#[derive(Clone)]
struct Suspended {
    thread: ThreadId,
    lock: LockId,
    stack: CallStack,
    blockers: Vec<ThreadId>,
    seq: u64,
}

struct Model {
    history: History,
    matcher: AvoidanceMatcher,
    fp: FalsePositiveDetector,
    locks: HashMap<LockId, LockState>,
    threads: BTreeMap<ThreadId, ThreadState>,
    suspended: Vec<Suspended>,
    events: Vec<Event>,
    clock: Arc<dyn Clock>,
    stats: CoreStats,
    seq: u64,
}

impl Model {
    fn new(config: &DimmunixConfig, clock: Arc<dyn Clock>, history: History) -> Model {
        assert!(config.avoidance && config.detection);
        Model {
            matcher: AvoidanceMatcher::new(&history),
            history,
            fp: FalsePositiveDetector::new(
                config.fp_instantiation_threshold,
                config.fp_burst_threshold,
                config.fp_burst_window,
            ),
            locks: HashMap::new(),
            threads: BTreeMap::new(),
            suspended: Vec::new(),
            events: Vec::new(),
            clock,
            stats: CoreStats::default(),
            seq: 0,
        }
    }

    fn stats(&self) -> CoreStats {
        CoreStats {
            match_work: self.matcher.work(),
            ..self.stats
        }
    }

    fn drain_events(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }

    fn held(&self, thread: ThreadId) -> Vec<LockId> {
        self.threads
            .get(&thread)
            .map(|ts| ts.holds.keys().copied().collect())
            .unwrap_or_default()
    }

    fn current_records(&self) -> Vec<LockRecord> {
        let mut records = Vec::new();
        for (t, ts) in &self.threads {
            for (l, h) in &ts.holds {
                records.push(LockRecord {
                    thread: *t,
                    lock: *l,
                    stack: h.stack.clone(),
                });
            }
            if let Some(w) = &ts.waiting {
                records.push(LockRecord {
                    thread: *t,
                    lock: w.lock,
                    stack: w.stack.clone(),
                });
            }
        }
        records
    }

    fn request(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        stack: CallStack,
    ) -> (RequestOutcome, Vec<Wake>) {
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

        if !self.matcher.is_empty() {
            let candidate = LockRecord {
                thread,
                lock,
                stack: stack.clone(),
            };
            let records = self.current_records();
            if let Some(inst) = self.matcher.would_instantiate(&candidate, &records) {
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
                let blockers = inst
                    .participants
                    .iter()
                    .map(|(t, _)| *t)
                    .filter(|t| *t != thread)
                    .collect();
                self.seq += 1;
                self.suspended.push(Suspended {
                    thread,
                    lock,
                    stack: stack.clone(),
                    blockers,
                    seq: self.seq,
                });
                if self.in_extended_cycle(thread) {
                    self.suspended.retain(|s| s.thread != thread);
                    self.stats.forced_grants += 1;
                    self.events.push(Event::ForcedGrant {
                        thread,
                        lock,
                        sig_index: inst.sig_index,
                    });
                } else {
                    return (RequestOutcome::Parked, Vec::new());
                }
            }
        }
        self.publish_request(thread, lock, stack)
    }

    fn release(&mut self, thread: ThreadId, lock: LockId) -> Vec<Wake> {
        let ts = self.threads.get_mut(&thread).expect("known thread");
        let hold = ts.holds.get_mut(&lock).expect("held lock");
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
            let wait = nts.waiting.take().expect("queued thread waits");
            nts.holds.insert(
                lock,
                Hold {
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

    fn thread_exited(&mut self, thread: ThreadId) -> Vec<Wake> {
        let mut wakes = Vec::new();
        for l in self.held(thread) {
            self.threads
                .get_mut(&thread)
                .and_then(|ts| ts.holds.get_mut(&l))
                .expect("still held")
                .reentrancy = 1;
            wakes.extend(self.release(thread, l));
        }
        self.suspended.retain(|s| s.thread != thread);
        self.threads.remove(&thread);
        wakes
    }

    fn publish_request(
        &mut self,
        thread: ThreadId,
        lock: LockId,
        stack: CallStack,
    ) -> (RequestOutcome, Vec<Wake>) {
        let ls = self.locks.entry(lock).or_default();
        if ls.owner.is_none() {
            ls.owner = Some(thread);
            self.threads.entry(thread).or_default().holds.insert(
                lock,
                Hold {
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
            return (RequestOutcome::Acquired, Vec::new());
        }
        ls.queue.push_back(thread);
        self.threads.entry(thread).or_default().waiting = Some(Wait { lock, stack });
        self.stats.blocks += 1;
        self.events.push(Event::Blocked { thread, lock });
        match self.find_wait_cycle(thread) {
            Some(cycle) => (self.handle_deadlock(thread, lock, cycle), Vec::new()),
            None => (RequestOutcome::Parked, Vec::new()),
        }
    }

    fn find_wait_cycle(&self, start: ThreadId) -> Option<Vec<ThreadId>> {
        let mut path: Vec<ThreadId> = Vec::new();
        let mut cur = start;
        loop {
            if let Some(pos) = path.iter().position(|t| *t == cur) {
                return Some(path[pos..].to_vec());
            }
            path.push(cur);
            let wait = self.threads.get(&cur).and_then(|ts| ts.waiting.as_ref())?;
            cur = self.locks.get(&wait.lock).and_then(|l| l.owner)?;
        }
    }

    fn handle_deadlock(
        &mut self,
        requester: ThreadId,
        requested_lock: LockId,
        cycle: Vec<ThreadId>,
    ) -> RequestOutcome {
        self.stats.deadlocks_detected += 1;
        let n = cycle.len();
        let mut entries = Vec::new();
        let mut locks = Vec::new();
        for (i, &t) in cycle.iter().enumerate() {
            let prev = cycle[(i + n - 1) % n];
            let ts = &self.threads[&t];
            let wait = ts.waiting.as_ref().expect("cycle member waits");
            let held_lock = self.threads[&prev]
                .waiting
                .as_ref()
                .expect("cycle member waits")
                .lock;
            entries.push(SigEntry::new(
                ts.holds[&held_lock].stack.clone(),
                wait.stack.clone(),
            ));
            locks.push(held_lock);
        }
        let signature = Signature::local(entries);
        for (i, s) in self.history.signatures().iter().enumerate() {
            if s.same_bug(&signature) {
                self.fp.record_true_positive(i);
            }
        }
        if self.history.add(signature.clone()) == AddOutcome::Added {
            self.matcher.rebuild(&self.history);
        }
        self.events.push(Event::DeadlockDetected {
            signature,
            threads: cycle,
            locks,
        });
        self.stats.aborts += 1;
        self.threads
            .get_mut(&requester)
            .expect("requester exists")
            .waiting = None;
        if let Some(ls) = self.locks.get_mut(&requested_lock) {
            ls.queue.retain(|t| *t != requester);
        }
        self.events.push(Event::VictimAborted {
            thread: requester,
            lock: requested_lock,
        });
        RequestOutcome::Aborted
    }

    fn recheck_suspended(&mut self, wakes: &mut Vec<Wake>) {
        self.suspended.sort_by_key(|s| s.seq);
        let mut i = 0;
        while i < self.suspended.len() {
            let req = self.suspended[i].clone();
            let candidate = LockRecord {
                thread: req.thread,
                lock: req.lock,
                stack: req.stack.clone(),
            };
            let records = self.current_records();
            match self.matcher.would_instantiate(&candidate, &records) {
                None => {
                    self.suspended.remove(i);
                    self.events.push(Event::Resumed {
                        thread: req.thread,
                        lock: req.lock,
                    });
                }
                Some(inst) => {
                    self.suspended[i].blockers = inst
                        .participants
                        .iter()
                        .map(|(t, _)| *t)
                        .filter(|t| *t != req.thread)
                        .collect();
                    if !self.in_extended_cycle(req.thread) {
                        i += 1;
                        continue;
                    }
                    self.suspended.remove(i);
                    self.stats.forced_grants += 1;
                    self.events.push(Event::ForcedGrant {
                        thread: req.thread,
                        lock: req.lock,
                        sig_index: inst.sig_index,
                    });
                }
            }
            let (outcome, mut w) = self.publish_request(req.thread, req.lock, req.stack);
            wakes.append(&mut w);
            match outcome {
                RequestOutcome::Acquired => wakes.push(Wake::Granted(req.thread)),
                RequestOutcome::Aborted => wakes.push(Wake::Aborted(req.thread)),
                RequestOutcome::Parked => {}
            }
            i = 0;
        }
    }

    fn in_extended_cycle(&self, start: ThreadId) -> bool {
        let edges = |t: ThreadId| -> Vec<ThreadId> {
            let mut out = Vec::new();
            if let Some(w) = self.threads.get(&t).and_then(|ts| ts.waiting.as_ref()) {
                out.extend(self.locks.get(&w.lock).and_then(|l| l.owner));
            }
            for s in self.suspended.iter().filter(|s| s.thread == t) {
                out.extend(s.blockers.iter().copied());
            }
            out
        };
        let mut stack = edges(start);
        let mut seen: Vec<ThreadId> = Vec::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if !seen.contains(&t) {
                seen.push(t);
                stack.extend(edges(t));
            }
        }
        false
    }
}

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

const THREADS: u64 = 4;
const LOCKS: u64 = 4;

/// Stacks a request can carry: the four acquisition sites of the two
/// seeded signatures (each under an extra caller frame, so the match is a
/// proper suffix match), a deeper frame under each (the inner sites), and
/// one site no signature names.
fn stacks() -> Vec<CallStack> {
    let cs = |frames: &[(&str, u32)]| -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    };
    vec![
        cs(&[("main", 0), ("run", 1), ("lockA", 10)]),
        cs(&[("main", 0), ("run", 2), ("lockB", 20)]),
        cs(&[("main", 0), ("run", 3), ("lockC", 30)]),
        cs(&[("main", 0), ("run", 4), ("lockD", 40)]),
        cs(&[("main", 0), ("run", 1), ("lockA", 10), ("needB", 11)]),
        cs(&[("main", 0), ("run", 2), ("lockB", 20), ("needA", 21)]),
        cs(&[("main", 0), ("elsewhere", 99)]),
    ]
}

/// Two two-thread signatures over the sites of [`stacks`]: A/B and C/D.
fn seeded_history() -> History {
    let s = stacks();
    let outer = |i: usize| {
        let mut o = s[i].clone();
        o.truncate_to_suffix(2);
        o
    };
    let mut h = History::new();
    h.add(Signature::local(vec![
        SigEntry::new(outer(0), s[4].clone()),
        SigEntry::new(outer(1), s[5].clone()),
    ]));
    h.add(Signature::local(vec![
        SigEntry::new(outer(2), s[6].clone()),
        SigEntry::new(outer(3), s[6].clone()),
    ]));
    h
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Request {
        thread: u64,
        lock: u64,
        stack: usize,
    },
    /// Releases the `pick`-th lock the thread holds, if it holds any.
    Release {
        thread: u64,
        pick: usize,
    },
    Exit {
        thread: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let n_stacks = stacks().len();
    prop_oneof![
        (1..=THREADS, 1..=LOCKS, 0..n_stacks).prop_map(|(thread, lock, stack)| Op::Request {
            thread,
            lock,
            stack
        }),
        (1..=THREADS, 1..=LOCKS, 0..n_stacks).prop_map(|(thread, lock, stack)| Op::Request {
            thread,
            lock,
            stack
        }),
        (1..=THREADS, 0..LOCKS as usize).prop_map(|(thread, pick)| Op::Release { thread, pick }),
        (1..=THREADS, 0..LOCKS as usize).prop_map(|(thread, pick)| Op::Release { thread, pick }),
        (1..=THREADS).prop_map(|thread| Op::Exit { thread }),
    ]
}

/// Runs `ops` on the core and on the model, comparing after every call.
/// Returns the core's final counters and every event it emitted.
fn compare(ops: &[Op]) -> Result<(CoreStats, Vec<Event>), TestCaseError> {
    let config = DimmunixConfig::default();
    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
    let mut core = DimmunixCore::with_history(config.clone(), clock.clone(), seeded_history());
    let mut model = Model::new(&config, clock, seeded_history());
    let stacks = stacks();
    // A parked thread (blocked or suspended) makes no call until a wake
    // names it.
    let mut parked = [false; THREADS as usize + 1];
    let mut events = Vec::new();

    for &op in ops {
        let wakes = match op {
            Op::Request {
                thread,
                lock,
                stack,
            } => {
                if parked[thread as usize] {
                    continue;
                }
                let (t, l, s) = (ThreadId(thread), LockId(lock), &stacks[stack]);
                let got = core.request(t, l, s.clone());
                prop_assert_eq!(&got, &model.request(t, l, s.clone()));
                let (outcome, wakes) = got;
                parked[thread as usize] = outcome == RequestOutcome::Parked;
                wakes
            }
            Op::Release { thread, pick } => {
                let held = model.held(ThreadId(thread));
                if parked[thread as usize] || held.is_empty() {
                    continue;
                }
                let l = held[pick % held.len()];
                prop_assert!(core.holds(ThreadId(thread), l));
                let wakes = core.release(ThreadId(thread), l);
                prop_assert_eq!(&wakes, &model.release(ThreadId(thread), l));
                wakes
            }
            Op::Exit { thread } => {
                if parked[thread as usize] {
                    continue;
                }
                let wakes = core.thread_exited(ThreadId(thread));
                prop_assert_eq!(&wakes, &model.thread_exited(ThreadId(thread)));
                wakes
            }
        };
        for w in wakes {
            parked[w.thread().0 as usize] = false;
        }
        let emitted = core.drain_events();
        prop_assert_eq!(&emitted, &model.drain_events());
        events.extend(emitted);
        prop_assert_eq!(core.stats(), model.stats());
        prop_assert_eq!(core.suspended_count(), model.suspended.len());
    }
    prop_assert_eq!(core.history().signatures(), model.history.signatures());
    Ok((core.stats(), events))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same schedule, same outcome sequence, wakes, events and counters.
    #[test]
    fn core_decides_as_the_clone_and_collect_model(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        compare(&ops)?;
    }
}

/// The comparison on a schedule that is known to suspend, resume,
/// force-grant and deadlock — so it cannot pass by never reaching them.
#[test]
fn comparison_covers_suspension_resumption_forced_grant_and_deadlock() {
    let req = |thread, lock, stack| Op::Request {
        thread,
        lock,
        stack,
    };
    let rel = |thread| Op::Release { thread, pick: 0 };
    let (stats, events) = compare(&[
        // t1 fills the lockA position; t2 at the lockB position is
        // suspended, and resumed by t1's release.
        req(1, 1, 0),
        req(2, 2, 1),
        rel(1),
        rel(2),
        // Forced grant: t2 holds l3, t1 fills lockA, t2 is suspended at
        // lockB behind t1, t1 then blocks on l3 — the yield closes a
        // cycle, and the next state change (t3's release) lets t2 through.
        req(2, 3, 6),
        req(1, 1, 0),
        req(2, 2, 1),
        req(1, 3, 4),
        req(3, 4, 6),
        rel(3),
        // t2 (holding l2 and l3) asks for l1, which t1 holds while waiting
        // for l3: a real deadlock, t2 the victim.
        req(2, 1, 5),
    ])
    .expect("core and model agree");
    let (thread, lock) = (ThreadId(2), LockId(2));
    assert_eq!(stats.suspensions, 2);
    assert!(events.contains(&Event::Resumed { thread, lock }));
    assert_eq!(stats.forced_grants, 1);
    assert!(events.contains(&Event::ForcedGrant {
        thread,
        lock,
        sig_index: 0
    }));
    assert_eq!(stats.deadlocks_detected, 1);
    assert_eq!(stats.aborts, 1);
    assert!(stats.match_work > 0);
}
