//! Behavioural tests for the deterministic simulator: scheduling,
//! control flow, lock identity, deadlock handling, unwinding, and the
//! virtual-time cost model.

use communix_bytecode::{LockExpr, LoweredProgram, ProgramBuilder};
use communix_clock::Duration;
use communix_dimmunix::{DimmunixConfig, History, SigOrigin};
use communix_runtime::{SimConfig, Simulator, ThreadResult, ThreadSpec};

fn lower(f: impl FnOnce(&mut ProgramBuilder)) -> LoweredProgram {
    let mut b = ProgramBuilder::new();
    f(&mut b);
    LoweredProgram::lower(&b.build())
}

fn sim(p: LoweredProgram) -> Simulator {
    Simulator::new(p, DimmunixConfig::default(), SimConfig::default())
}

#[test]
fn straight_line_program_finishes_and_costs_time() {
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("main", |s| {
                s.work(10).work(5);
            })
            .done();
    });
    let mut s = sim(p);
    let o = s.run(&[ThreadSpec::new("t.C", "main", 1)]);
    assert!(o.all_finished());
    // 15 ticks at the default 10 µs tick.
    assert!(o.virtual_time >= Duration::from_micros(150));
    assert!(o.virtual_time < Duration::from_micros(200));
}

#[test]
fn loops_execute_the_declared_number_of_times() {
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("main", |s| {
                s.repeat(7, |s| {
                    s.work(2);
                });
            })
            .done();
    });
    let mut s = sim(p);
    let o = s.run(&[ThreadSpec::new("t.C", "main", 1)]);
    assert!(o.all_finished());
    // 7 iterations × 2 ticks = 140 µs minimum.
    assert!(o.virtual_time >= Duration::from_micros(140));
    assert!(o.virtual_time < Duration::from_micros(200));
}

#[test]
fn branches_are_deterministic_per_seed() {
    let build = || {
        lower(|b| {
            b.class("t.C")
                .plain_method("main", |s| {
                    s.repeat(20, |s| {
                        s.branch(
                            |t| {
                                t.work(1);
                            },
                            |e| {
                                e.work(3);
                            },
                        );
                    });
                })
                .done();
        })
    };
    let run = |seed: u64| {
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut s = Simulator::new(build(), DimmunixConfig::default(), cfg);
        s.run(&[ThreadSpec::new("t.C", "main", 1)]).virtual_time
    };
    assert_eq!(run(1), run(1), "same seed, same schedule");
    assert_ne!(run(1), run(2), "different seeds pick different arms");
}

#[test]
fn this_locks_are_per_instance() {
    // Two threads synchronized(this) on DIFFERENT instances never
    // contend; on the SAME instance they serialize.
    let p = lower(|b| {
        b.class("t.C")
            .sync_method("m", |s| {
                s.work(50);
            })
            .done();
    });
    let mut s = sim(p.clone());
    let o = s.run(&[
        ThreadSpec::new("t.C", "m", 1),
        ThreadSpec::new("t.C", "m", 2),
    ]);
    assert!(o.all_finished());
    assert_eq!(o.stats.blocks, 0, "distinct instances: no contention");
    let parallel = o.virtual_time;

    let mut s = sim(p);
    let o = s.run(&[
        ThreadSpec::new("t.C", "m", 7),
        ThreadSpec::new("t.C", "m", 7),
    ]);
    assert!(o.all_finished());
    assert_eq!(o.stats.blocks, 1, "same instance: serialized");
    assert!(
        o.virtual_time >= parallel + Duration::from_micros(400),
        "serialized run must take ~2x: {} vs {}",
        o.virtual_time.as_secs_f64(),
        parallel.as_secs_f64()
    );
}

#[test]
fn reentrant_sync_methods_do_not_self_deadlock() {
    // m is synchronized and calls n, also synchronized on the same
    // instance: Java monitors are reentrant, so this must complete.
    let p = lower(|b| {
        b.class("t.C")
            .sync_method("m", |s| {
                s.call("t.C", "n");
            })
            .sync_method("n", |s| {
                s.work(1);
            })
            .done();
    });
    let mut s = sim(p);
    let o = s.run(&[ThreadSpec::new("t.C", "m", 1)]);
    assert!(o.all_finished());
    assert_eq!(o.stats.deadlocks_detected, 0);
}

#[test]
fn victim_unwind_releases_every_held_monitor() {
    // Classic AB/BA; the victim holds its outer lock when aborted — the
    // survivor must still be able to finish (the unwind released it).
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("ab", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.work(5).sync(LockExpr::global("B"), |s| {
                        s.work(1);
                    });
                });
            })
            .plain_method("ba", |s| {
                s.sync(LockExpr::global("B"), |s| {
                    s.work(5).sync(LockExpr::global("A"), |s| {
                        s.work(1);
                    });
                });
            })
            .done();
    });
    let mut s = sim(p);
    let o = s.run(&[
        ThreadSpec::new("t.C", "ab", 1),
        ThreadSpec::new("t.C", "ba", 2),
    ]);
    assert_eq!(o.deadlocks.len(), 1);
    assert_eq!(o.victim_count(), 1);
    // Exactly one victim, and the other thread FINISHED (not hung): the
    // victim's monitors were released during unwinding.
    assert_eq!(
        o.results
            .iter()
            .filter(|r| **r == ThreadResult::Finished)
            .count(),
        1
    );
}

#[test]
fn an_undetected_deadlock_reports_hung_threads() {
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("ab", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.work(5).sync(LockExpr::global("B"), |_| {});
                });
            })
            .plain_method("ba", |s| {
                s.sync(LockExpr::global("B"), |s| {
                    s.work(5).sync(LockExpr::global("A"), |_| {});
                });
            })
            .done();
    });
    // Without detection nothing aborts a victim: the threads stay
    // deadlocked, as a JVM without Dimmunix hangs, and the simulator
    // observes it.
    let mut s = Simulator::new(p, DimmunixConfig::vanilla(), SimConfig::default());
    let o = s.run(&[
        ThreadSpec::new("t.C", "ab", 1),
        ThreadSpec::new("t.C", "ba", 2),
    ]);
    assert!(o.deadlocks.is_empty(), "nothing detects it");
    assert_eq!(o.stats.blocks, 2, "both threads wait");
    assert_eq!(o.results, vec![ThreadResult::Hung, ThreadResult::Hung]);
}

#[test]
fn missing_entry_method_is_an_error_not_a_panic() {
    let p = lower(|b| {
        b.class("t.C").plain_method("main", |_| {}).done();
    });
    let mut s = sim(p);
    let o = s.run(&[ThreadSpec::new("t.C", "nope", 1)]);
    assert_eq!(o.results, vec![ThreadResult::Error]);
}

#[test]
fn step_cap_stops_runaway_programs() {
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("spin", |s| {
                s.repeat(1_000_000, |s| {
                    s.work(1);
                });
            })
            .done();
    });
    let cfg = SimConfig {
        max_steps: 10_000,
        ..SimConfig::default()
    };
    let mut s = Simulator::new(p, DimmunixConfig::default(), cfg);
    let o = s.run(&[ThreadSpec::new("t.C", "spin", 1)]);
    assert_eq!(o.results, vec![ThreadResult::Error]);
    assert!(o.steps <= 10_001);
}

#[test]
fn history_persists_across_runs_like_an_app_restart() {
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("ab", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.work(5).sync(LockExpr::global("B"), |s| {
                        s.work(1);
                    });
                });
            })
            .plain_method("ba", |s| {
                s.sync(LockExpr::global("B"), |s| {
                    s.work(5).sync(LockExpr::global("A"), |s| {
                        s.work(1);
                    });
                });
            })
            .done();
    });
    let mut s = sim(p);
    let specs = [
        ThreadSpec::new("t.C", "ab", 1),
        ThreadSpec::new("t.C", "ba", 2),
    ];
    let first = s.run(&specs);
    assert_eq!(first.deadlocks.len(), 1);
    let second = s.run(&specs);
    assert!(second.deadlocks.is_empty());
    assert!(second.all_finished());
    assert_eq!(s.history().len(), 1);
}

#[test]
fn seeded_history_raises_match_work_and_virtual_time() {
    // The cost model: avoidance matching charges virtual time, so a run
    // with a matching signature in the history is (slightly) slower even
    // when nothing suspends — and much slower when threads serialize.
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("ab", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.work(5).sync(LockExpr::global("B"), |s| {
                        s.work(1);
                    });
                });
            })
            .plain_method("ba", |s| {
                s.sync(LockExpr::global("B"), |s| {
                    s.work(5).sync(LockExpr::global("A"), |s| {
                        s.work(1);
                    });
                });
            })
            .done();
    });
    // Harvest the signature.
    let sig = {
        let mut s = sim(p.clone());
        s.run(&[
            ThreadSpec::new("t.C", "ab", 1),
            ThreadSpec::new("t.C", "ba", 2),
        ])
        .deadlocks[0]
            .clone()
            .with_origin(SigOrigin::Remote)
    };
    let mut history = History::new();
    history.add(sig);

    let specs = [
        ThreadSpec::new("t.C", "ab", 1),
        ThreadSpec::new("t.C", "ba", 2),
    ];
    let mut vanilla = Simulator::new(p.clone(), DimmunixConfig::vanilla(), SimConfig::default());
    let v = vanilla.run(&specs);
    assert_eq!(v.stats.match_work, 0);

    let mut protected =
        Simulator::with_history(p, DimmunixConfig::default(), SimConfig::default(), history);
    let g = protected.run(&specs);
    assert!(g.all_finished());
    assert!(g.stats.match_work > 0, "matching was charged");
    assert!(g.stats.suspensions > 0, "avoidance serialized the pair");
    assert!(g.virtual_time > v.virtual_time);
}

#[test]
fn explicit_lock_ops_are_invisible_to_dimmunix() {
    // "Communix does not handle explicit lock/unlock operations (e.g.,
    // calls to ReentrantLock.lock/unlock())" (§III-C1): they execute as
    // plain statements — no Dimmunix requests, no detection, no cost
    // beyond an ordinary instruction.
    let p = lower(|b| {
        b.class("t.C")
            .plain_method("main", |s| {
                s.explicit_lock("rl").work(2).explicit_unlock("rl").sync(
                    LockExpr::global("A"),
                    |s| {
                        s.explicit_lock("rl2").explicit_unlock("rl2");
                    },
                );
            })
            .done();
    });
    let mut s = sim(p);
    let o = s.run(&[ThreadSpec::new("t.C", "main", 1)]);
    assert!(o.all_finished());
    // Exactly ONE monitored request: the synchronized block. The
    // explicit ops never reached the core.
    assert_eq!(o.stats.requests, 1);
    assert_eq!(o.stats.deadlocks_detected, 0);
}

#[test]
fn touched_classes_are_reported() {
    let p = lower(|b| {
        b.class("t.A")
            .plain_method("main", |s| {
                s.call("t.B", "helper");
            })
            .done();
        b.class("t.B")
            .plain_method("helper", |s| {
                s.work(1);
            })
            .done();
        b.class("t.Unused")
            .plain_method("never", |s| {
                s.work(1);
            })
            .done();
    });
    let mut s = sim(p);
    let o = s.run(&[ThreadSpec::new("t.A", "main", 1)]);
    let names: Vec<&str> = o.touched_classes.iter().map(|c| c.as_str()).collect();
    assert!(names.contains(&"t.A"));
    assert!(names.contains(&"t.B"));
    assert!(!names.contains(&"t.Unused"));
}
