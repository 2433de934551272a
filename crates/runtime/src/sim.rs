//! The deterministic discrete-event runtime.
//!
//! Executes a lowered program with simulated threads over virtual time.
//! Every lock operation routes through [`DimmunixCore`], exactly like the
//! paper's AspectJ interposition routes every `monitorenter` through
//! Dimmunix. Determinism (fixed seed ⇒ fixed schedule) makes deadlock
//! scenarios, avoidance serialization, and the Table II overhead
//! measurements reproducible.
//!
//! Virtual-time cost model:
//! * `Work { ticks }` costs `ticks × TICK` (10 µs);
//! * every other instruction costs `INSTR_COST` (100 ns);
//! * lock operations add `LOCK_OP_COST` (500 ns);
//! * avoidance matching adds `MATCH_UNIT_NANOS` (200 ns) per stack-suffix
//!   comparison the matcher performed (so shallow, promiscuous signatures
//!   — the depth-1 DoS attack — cost more than deep ones, as in §IV-B).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use communix_bytecode::{ClassName, Instr, LockExpr, LoweredProgram, MethodRef, SyncSite};
use communix_clock::{Clock, Duration, Instant, VirtualClock};
use communix_dimmunix::{
    CoreStats, DimmunixConfig, DimmunixCore, Event, History, LockId, RequestOutcome, Signature,
    SiteId, ThreadId, Wake,
};

/// Virtual duration of one work tick.
const TICK: Duration = Duration::from_micros(10);
/// Virtual cost of a non-work instruction.
const INSTR_COST: Duration = Duration::from_nanos(100);
/// Virtual cost of a monitor operation (uncontended bookkeeping).
const LOCK_OP_COST: Duration = Duration::from_nanos(500);
/// Virtual cost of one avoidance suffix comparison, in nanoseconds.
const MATCH_UNIT_NANOS: u64 = 200;

/// Simulator tunables.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Schedule/branch seed.
    pub seed: u64,
    /// Hard cap on executed instructions per run (runaway guard).
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5EED,
            max_steps: 50_000_000,
        }
    }
}

/// One simulated thread's assignment: run `entry` with receiver instance
/// `instance` (the lock identity of `synchronized(this)` constructs).
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Entry method.
    pub entry: MethodRef,
    /// Receiver instance id for `LockExpr::This`.
    pub instance: u64,
}

impl ThreadSpec {
    /// Creates a spec with its own receiver instance.
    pub fn new(class: &str, method: &str, instance: u64) -> Self {
        ThreadSpec {
            entry: MethodRef::new(class, method),
            instance,
        }
    }
}

/// How a simulated thread's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadResult {
    /// Ran to completion.
    Finished,
    /// Aborted as a deadlock victim (the modelled "application restart").
    DeadlockVictim,
    /// Still blocked when the simulation ended (deadlocked with detection
    /// off, or starved).
    Hung,
    /// Failed on a program error (e.g. call to a missing method).
    Error,
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-thread results, indexed like the input specs.
    pub results: Vec<ThreadResult>,
    /// Virtual time at completion (the workload's makespan).
    pub virtual_time: Duration,
    /// Dimmunix counters accumulated during this run.
    pub stats: CoreStats,
    /// Signatures of deadlocks detected during this run.
    pub deadlocks: Vec<Signature>,
    /// History indices flagged as false-positive suspects this run.
    pub fp_suspects: Vec<usize>,
    /// Classes touched (loaded) during the run.
    pub touched_classes: BTreeSet<ClassName>,
    /// Instructions executed.
    pub steps: u64,
}

impl SimOutcome {
    /// Whether every thread finished cleanly.
    pub fn all_finished(&self) -> bool {
        self.results.iter().all(|r| *r == ThreadResult::Finished)
    }

    /// Number of threads that ended as deadlock victims.
    pub fn victim_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| **r == ThreadResult::DeadlockVictim)
            .count()
    }
}

/// Tiny deterministic PRNG (SplitMix64) for branch decisions.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[derive(Debug)]
struct Activation {
    mref: MethodRef,
    pc: usize,
    /// Remaining iterations per LoopHead pc.
    loop_counts: HashMap<usize, u32>,
}

#[derive(Debug)]
enum ThreadPhase {
    Ready,
    /// Parked in the core (blocked or suspended); on `Wake::Granted` the
    /// pending monitor enter completes.
    Parked {
        lock: LockId,
    },
    Done(ThreadResult),
}

#[derive(Debug)]
struct SimThread {
    id: ThreadId,
    spec: ThreadSpec,
    stack: Vec<Activation>,
    /// Locks acquired via monitorenter, innermost last (for unwinding).
    monitor_scope: Vec<LockId>,
    phase: ThreadPhase,
    ready_at: Instant,
    rng: SplitMix64,
}

/// The deterministic simulator. The [`DimmunixCore`] (and so the deadlock
/// history) persists across [`Simulator::run`] calls — each call models
/// one "run" of the application, so immunity accumulates exactly like
/// restarting a Dimmunix-protected program.
#[derive(Debug)]
pub struct Simulator {
    program: LoweredProgram,
    core: DimmunixCore,
    clock: Arc<VirtualClock>,
    config: SimConfig,
    lock_ids: BTreeMap<String, LockId>,
    next_lock: u64,
}

impl Simulator {
    /// Creates a simulator with an empty history.
    pub fn new(program: LoweredProgram, dimmunix: DimmunixConfig, config: SimConfig) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let core = DimmunixCore::new(dimmunix, clock.clone());
        Simulator {
            program,
            core,
            clock,
            config,
            lock_ids: BTreeMap::new(),
            next_lock: 1,
        }
    }

    /// Creates a simulator seeded with a deadlock history.
    pub fn with_history(
        program: LoweredProgram,
        dimmunix: DimmunixConfig,
        config: SimConfig,
        history: History,
    ) -> Self {
        let mut sim = Simulator::new(program, dimmunix, config);
        sim.core.set_history(history);
        sim
    }

    /// The accumulated deadlock history.
    pub fn history(&self) -> &History {
        self.core.history()
    }

    /// Replaces the history (e.g. after an agent pipeline run).
    pub fn set_history(&mut self, history: History) {
        self.core.set_history(history);
    }

    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.clock.now()
    }

    /// Runs `specs` to completion (or to the step cap) and reports.
    pub fn run(&mut self, specs: &[ThreadSpec]) -> SimOutcome {
        let start_time = self.clock.now();
        let base_stats = self.core.stats();
        let mut touched = BTreeSet::new();
        let mut threads: Vec<SimThread> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                touched.insert(spec.entry.class.clone());
                SimThread {
                    id: ThreadId(i as u64 + 1),
                    spec: spec.clone(),
                    stack: vec![Activation {
                        mref: spec.entry.clone(),
                        pc: 0,
                        loop_counts: HashMap::new(),
                    }],
                    monitor_scope: Vec::new(),
                    phase: ThreadPhase::Ready,
                    ready_at: start_time,
                    rng: SplitMix64::new(self.config.seed ^ (i as u64).wrapping_mul(0xA5A5)),
                }
            })
            .collect();

        let mut steps: u64 = 0;
        let mut deadlocks = Vec::new();
        let mut fp_suspects = Vec::new();
        let mut prev_match_work = self.core.stats().match_work;

        loop {
            // Pick the ready thread with the earliest ready time (then
            // lowest id) — a deterministic event-driven schedule.
            let next = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.phase, ThreadPhase::Ready))
                .min_by_key(|(i, t)| (t.ready_at, *i))
                .map(|(i, _)| i);
            let Some(ti) = next else {
                // No runnable thread: either all done, or the rest are
                // parked forever (hung).
                for t in threads.iter_mut() {
                    if !matches!(t.phase, ThreadPhase::Done(_)) {
                        t.phase = ThreadPhase::Done(ThreadResult::Hung);
                    }
                }
                break;
            };
            steps += 1;
            if steps > self.config.max_steps {
                for t in threads.iter_mut() {
                    if !matches!(t.phase, ThreadPhase::Done(_)) {
                        t.phase = ThreadPhase::Done(ThreadResult::Error);
                    }
                }
                break;
            }

            // Advance virtual time to the scheduled thread.
            let at = threads[ti].ready_at.max(self.clock.now());
            if at > self.clock.now() {
                self.clock.set(at);
            }

            self.step(ti, &mut threads, &mut touched, &mut prev_match_work);

            for ev in self.core.drain_events() {
                match ev {
                    Event::DeadlockDetected { signature } => deadlocks.push(signature),
                    Event::FalsePositiveSuspect { sig_index } => fp_suspects.push(sig_index),
                }
            }

            if threads
                .iter()
                .all(|t| matches!(t.phase, ThreadPhase::Done(_)))
            {
                break;
            }
        }

        let end_stats = self.core.stats();
        SimOutcome {
            results: threads
                .iter()
                .map(|t| match t.phase {
                    ThreadPhase::Done(r) => r,
                    _ => ThreadResult::Hung,
                })
                .collect(),
            virtual_time: self.clock.now() - start_time,
            stats: CoreStats {
                requests: end_stats.requests - base_stats.requests,
                immediate_acquisitions: end_stats.immediate_acquisitions
                    - base_stats.immediate_acquisitions,
                blocks: end_stats.blocks - base_stats.blocks,
                suspensions: end_stats.suspensions - base_stats.suspensions,
                forced_grants: end_stats.forced_grants - base_stats.forced_grants,
                deadlocks_detected: end_stats.deadlocks_detected - base_stats.deadlocks_detected,
                aborts: end_stats.aborts - base_stats.aborts,
                match_work: end_stats.match_work - base_stats.match_work,
            },
            deadlocks,
            fp_suspects,
            touched_classes: touched,
            steps,
        }
    }

    /// Executes one instruction of thread `ti`.
    fn step(
        &mut self,
        ti: usize,
        threads: &mut [SimThread],
        touched: &mut BTreeSet<ClassName>,
        prev_match_work: &mut u64,
    ) {
        let now = self.clock.now();
        let instr = {
            let t = &threads[ti];
            let Some(act) = t.stack.last() else {
                threads[ti].phase = ThreadPhase::Done(ThreadResult::Finished);
                return;
            };
            let Some(method) = self.program.method(&act.mref) else {
                threads[ti].phase = ThreadPhase::Done(ThreadResult::Error);
                return;
            };
            method.code[act.pc].clone()
        };

        match instr {
            Instr::Work { ticks } => {
                threads[ti].ready_at = now + TICK * ticks;
                Self::advance_pc(&mut threads[ti]);
            }
            Instr::Call { target, .. } => {
                if self.program.method(&target).is_none() {
                    self.fail_thread(ti, threads, ThreadResult::Error);
                    return;
                }
                touched.insert(target.class.clone());
                // Return resumes after the call.
                threads[ti].stack.last_mut().unwrap().pc += 1;
                threads[ti].stack.push(Activation {
                    mref: target,
                    pc: 0,
                    loop_counts: HashMap::new(),
                });
                threads[ti].ready_at = now + INSTR_COST;
            }
            Instr::Branch { target } => {
                let t = &mut threads[ti];
                let act = t.stack.last_mut().unwrap();
                if t.rng.next_bool() {
                    act.pc += 1; // then-arm
                } else {
                    act.pc = target; // else-arm
                }
                t.ready_at = now + INSTR_COST;
            }
            Instr::Jump { target } => {
                let t = &mut threads[ti];
                t.stack.last_mut().unwrap().pc = target;
                t.ready_at = now + INSTR_COST;
            }
            Instr::LoopHead { times, exit } => {
                let t = &mut threads[ti];
                let act = t.stack.last_mut().unwrap();
                let pc = act.pc;
                let remaining = act.loop_counts.entry(pc).or_insert(times);
                if *remaining == 0 {
                    act.loop_counts.remove(&pc);
                    act.pc = exit;
                } else {
                    *remaining -= 1;
                    act.pc += 1;
                }
                t.ready_at = now + INSTR_COST;
            }
            Instr::Return => {
                let t = &mut threads[ti];
                t.stack.pop();
                if t.stack.is_empty() {
                    t.phase = ThreadPhase::Done(ThreadResult::Finished);
                } else {
                    t.ready_at = now + INSTR_COST;
                }
            }
            Instr::MonitorEnter { lock, site } => {
                touched.insert(site.class.clone());
                let lid = self.resolve_lock(&lock, threads[ti].spec.instance, &site);
                let stack = self.build_stack(&threads[ti], &site);
                let tid = threads[ti].id;
                let (outcome, wakes) = self.core.request_ids(tid, lid, stack);
                // Charge matching work.
                let work = self.core.stats().match_work;
                let delta = work - *prev_match_work;
                *prev_match_work = work;
                let cost = LOCK_OP_COST + Duration::from_nanos(MATCH_UNIT_NANOS * delta);
                match outcome {
                    RequestOutcome::Acquired => {
                        threads[ti].monitor_scope.push(lid);
                        Self::advance_pc(&mut threads[ti]);
                        threads[ti].ready_at = self.clock.now() + cost;
                    }
                    RequestOutcome::Parked => {
                        threads[ti].phase = ThreadPhase::Parked { lock: lid };
                    }
                    RequestOutcome::Aborted => {
                        self.fail_thread(ti, threads, ThreadResult::DeadlockVictim);
                    }
                }
                self.apply_wakes(wakes, threads);
            }
            Instr::MonitorExit { lock, site } => {
                let lid = self.resolve_lock(&lock, threads[ti].spec.instance, &site);
                let tid = threads[ti].id;
                let wakes = self.core.release(tid, lid);
                // Innermost matching scope entry retires.
                if let Some(pos) = threads[ti].monitor_scope.iter().rposition(|l| *l == lid) {
                    threads[ti].monitor_scope.remove(pos);
                }
                Self::advance_pc(&mut threads[ti]);
                threads[ti].ready_at = self.clock.now() + LOCK_OP_COST;
                self.apply_wakes(wakes, threads);
            }
            Instr::ExplicitLock { .. } | Instr::ExplicitUnlock { .. } => {
                // Invisible to Communix (§III-C1); modelled as plain cost.
                threads[ti].ready_at = now + INSTR_COST;
                Self::advance_pc(&mut threads[ti]);
            }
        }
    }

    fn advance_pc(t: &mut SimThread) {
        if let Some(act) = t.stack.last_mut() {
            act.pc += 1;
        }
    }

    /// Applies core wake instructions to parked threads.
    fn apply_wakes(&mut self, wakes: Vec<Wake>, threads: &mut [SimThread]) {
        for wake in wakes {
            let Some(ti) = threads.iter().position(|t| t.id == wake.thread()) else {
                continue;
            };
            match wake {
                Wake::Granted(_) => {
                    let ThreadPhase::Parked { lock, .. } = &threads[ti].phase else {
                        continue;
                    };
                    let lock = *lock;
                    threads[ti].monitor_scope.push(lock);
                    threads[ti].phase = ThreadPhase::Ready;
                    Self::advance_pc(&mut threads[ti]);
                    threads[ti].ready_at = self.clock.now() + LOCK_OP_COST;
                }
                Wake::Aborted(_) => {
                    self.fail_thread(ti, threads, ThreadResult::DeadlockVictim);
                }
            }
        }
    }

    /// Unwinds a failed thread: releases every monitor it holds (in
    /// reverse order), which can wake further threads, recursively.
    fn fail_thread(&mut self, ti: usize, threads: &mut [SimThread], result: ThreadResult) {
        threads[ti].phase = ThreadPhase::Done(result);
        threads[ti].stack.clear();
        let tid = threads[ti].id;
        let scope: Vec<LockId> = threads[ti].monitor_scope.drain(..).rev().collect();
        for lid in scope {
            let wakes = self.core.release(tid, lid);
            self.apply_wakes(wakes, threads);
        }
        let wakes = self.core.thread_exited(tid);
        self.apply_wakes(wakes, threads);
    }

    /// Maps a lock expression to a stable [`LockId`].
    fn resolve_lock(&mut self, lock: &LockExpr, instance: u64, site: &SyncSite) -> LockId {
        let key = match lock {
            LockExpr::Global(name) => format!("g:{name}"),
            LockExpr::This => format!("this:{}:{instance}", site.class),
        };
        if let Some(id) = self.lock_ids.get(&key) {
            return *id;
        }
        let id = LockId(self.next_lock);
        self.next_lock += 1;
        self.lock_ids.insert(key, id);
        id
    }

    /// Builds the thread's current Dimmunix call stack, as ids in the
    /// core's site table: one frame per activation (callers at their call
    /// line), topped by the sync site.
    fn build_stack(&self, t: &SimThread, site: &SyncSite) -> Box<[SiteId]> {
        let sites = self.core.sites();
        let mut frames = Vec::with_capacity(t.stack.len());
        for (depth, act) in t.stack.iter().enumerate() {
            let is_top = depth + 1 == t.stack.len();
            if is_top {
                // The executing frame is represented by the sync site
                // itself (pushed below).
                continue;
            }
            // The caller sits at its Call instruction; pc was already
            // advanced past it when the callee was pushed.
            let line = self
                .program
                .method(&act.mref)
                .and_then(|m| m.code.get(act.pc.saturating_sub(1)))
                .and_then(|i| match i {
                    Instr::Call { line, .. } => Some(*line),
                    _ => None,
                })
                .unwrap_or(0);
            frames.push(sites.intern(act.mref.class.as_str(), act.mref.method_name(), line));
        }
        frames.push(sites.intern(site.class.as_str(), site.method.as_ref(), site.line));
        frames.into()
    }
}
