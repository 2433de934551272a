//! Integration: every DoS containment mechanism of §III-C, end to end —
//! encrypted ids, adjacency, daily budgets, the signature size cap,
//! hash/depth/nesting validation, the bounded Table II slowdown, and the
//! false-positive detector flagging malicious signatures at runtime.

mod support;

use std::collections::HashSet;
use std::sync::Arc;

use communix::client::{obtain_id, sync_delta, upload_batch, LocalRepository};
use communix::clock::{VirtualClock, DAY};
use communix::dimmunix::{Frame, SigEntry, Signature};
use communix::net::{Reply, Request, MAX_SIG_BYTES};
use communix::server::DurabilityConfig;
use communix::workloads::{AttackDepth, AttackerFactory, DriverApp, DriverProfile, SigGen, JBOSS};
use communix::{CommunixNode, NodeConfig};
use support::framed;

fn tiny_driver() -> DriverProfile {
    DriverProfile {
        app: "Tiny",
        benchmark: "integration",
        workers: 4,
        iterations: 12,
        sections: 4,
        cold_sections: 1,
        section_work: 3,
        inner_work: 1,
        outside_work: 3,
        paper_overhead_pct: 0,
    }
}

#[test]
fn flood_is_capped_by_budget_and_adjacency() {
    let clock = Arc::new(VirtualClock::new());
    let srv = communix::server::builder()
        .clock(clock.clone())
        .build()
        .unwrap();
    let factory = AttackerFactory::new();

    // One attacker id hammers the server for "three days".
    let id = srv.authority().issue(666);
    let mut accepted_total = 0;
    for day in 0..3u64 {
        let mut accepted_today = 0;
        for k in 0..50u64 {
            let reply = srv.handle(Request::Add {
                sender: id,
                sig_text: factory.flood_signature(666, day * 100 + k).to_string(),
            });
            if matches!(reply, Reply::AddAck { accepted: true, .. }) {
                accepted_today += 1;
            }
        }
        assert!(accepted_today <= 10, "day {day}: {accepted_today} > budget");
        accepted_total += accepted_today;
        clock.advance(DAY + communix::clock::Duration::from_secs(1));
    }
    assert!(accepted_total <= 30);
    assert_eq!(srv.db().len(), accepted_total);
}

/// A parseable signature of about `bulk` bytes, nearly all of them one
/// bottom frame's class name; distinct `k` keep top frames disjoint.
fn bulky_flood(k: u32, bulk: usize) -> String {
    let bottom = Frame::new(format!("atk.{}", "x".repeat(bulk)), "run", 1);
    let top = |line: u32| Frame::new("atk.Flood", "f", line);
    Signature::local(vec![
        SigEntry::new(
            [bottom, top(4 * k)].into_iter().collect(),
            [top(4 * k + 1)].into_iter().collect(),
        ),
        SigEntry::new(
            [top(4 * k + 2)].into_iter().collect(),
            [top(4 * k + 3)].into_iter().collect(),
        ),
    ])
    .to_string()
}

#[test]
fn a_byte_flood_cannot_evict_honest_signatures() {
    // A durable store capped at 32 MiB holds 1000 honest signatures from
    // 100 senders (1.7 MB). One fresh id sends three ≈ 12.6 MB ADDs, well
    // inside its daily ten: stored, they would pass the cap, and the
    // oldest-first GC would evict every honest signature to keep them.
    let dir = std::env::temp_dir().join(format!("communix-byte-flood-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durability = DurabilityConfig::new(&dir);
    durability.max_bytes = Some(32 << 20);
    let srv = communix::server::builder()
        .clock(Arc::new(VirtualClock::new()))
        .durability(durability)
        .build()
        .unwrap();
    let mut conn = framed(&srv);
    let honest = SigGen::new(1).random_batch_texts(1000);
    let adds = (0..1000u64)
        .map(|i| (srv.authority().issue(i / 10), honest[i as usize].clone()))
        .collect();
    assert!(upload_batch(&mut conn, adds)
        .unwrap()
        .iter()
        .all(|r| r.accepted && r.reason.is_empty()));

    let flooder = srv.authority().issue(666);
    for k in 0..3 {
        let text = bulky_flood(k, 12_600_000);
        assert!(text.len() > MAX_SIG_BYTES);
        let results = upload_batch(&mut conn, vec![(flooder, text)]).unwrap();
        assert_eq!(
            (results[0].accepted, results[0].reason.as_str()),
            (false, "signature too large to serve")
        );
    }
    assert_eq!(
        srv.telemetry().counter("store.gc.runs").get(),
        0,
        "no GC ran"
    );

    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut conn, &mut repo, 0).unwrap(), 1000);
    let held: HashSet<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    let survivors = honest.iter().filter(|t| held.contains(t.as_str())).count();
    assert_eq!(survivors, 1000, "honest signatures left after the flood");
    drop(srv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_issued_id_cannot_spend_another_senders_budget() {
    // A connection asks for user 5's id and spends a day's budget with
    // what it gets. The server picks the number, so that id is not user
    // 5's: user 5's own next ADD is accepted.
    let srv = communix::server::builder()
        .clock(Arc::new(VirtualClock::new()))
        .build()
        .unwrap();
    let mut conn = framed(&srv);
    let stolen = obtain_id(&mut conn, 5).unwrap();
    let texts = SigGen::new(5).random_batch_texts(11);
    let adds = texts[..10].iter().map(|t| (stolen, t.clone())).collect();
    let results = upload_batch(&mut conn, adds).unwrap();
    assert!(results.iter().all(|r| r.accepted && r.reason.is_empty()));
    let own = srv.authority().issue(5);
    let results = upload_batch(&mut conn, vec![(own, texts[10].clone())]).unwrap();
    assert_eq!(
        (results[0].accepted, results[0].reason.as_str()),
        (true, ""),
        "user 5's own ADD"
    );
    // Two requests naming the same user get two different senders.
    assert_ne!(
        obtain_id(&mut conn, 5).unwrap(),
        obtain_id(&mut conn, 5).unwrap()
    );
    assert_ne!(stolen, own);
}

#[test]
fn adjacency_rejection_is_per_sender_not_global() {
    let srv = communix::server::builder()
        .clock(Arc::new(VirtualClock::new()))
        .build()
        .unwrap();
    let factory = AttackerFactory::new();
    let base = factory.flood_signature(1, 0);
    let adjacent = factory.adjacent_flood_signature(1, 0);

    let id1 = srv.authority().issue(1);
    let id2 = srv.authority().issue(2);
    assert!(matches!(
        srv.handle(Request::Add {
            sender: id1,
            sig_text: base.to_string()
        }),
        Reply::AddAck { accepted: true, .. }
    ));
    // Same sender: rejected.
    assert!(matches!(
        srv.handle(Request::Add {
            sender: id1,
            sig_text: adjacent.to_string()
        }),
        Reply::AddAck {
            accepted: false,
            ..
        }
    ));
    // Different sender: accepted — "the signatures wrongly rejected due
    // to this restriction can be provided by other users."
    assert!(matches!(
        srv.handle(Request::Add {
            sender: id2,
            sig_text: adjacent.to_string()
        }),
        Reply::AddAck { accepted: true, .. }
    ));
}

#[test]
fn malicious_signatures_never_reach_an_unrelated_history() {
    // Server-accepted flood signatures still die at the agent: their
    // classes are not loaded by the protected application.
    let srv = communix::server::builder()
        .clock(Arc::new(VirtualClock::new()))
        .build()
        .unwrap();
    let factory = AttackerFactory::new();
    for a in 0..5u64 {
        let id = srv.authority().issue(a);
        for k in 0..10u64 {
            srv.handle(Request::Add {
                sender: id,
                sig_text: factory.flood_signature(a, k).to_string(),
            });
        }
    }
    assert_eq!(srv.db().len(), 50);

    let profile = JBOSS.scaled(0.05);
    let mut node = CommunixNode::new(profile.generate(), NodeConfig::for_user(9));
    let srv2 = srv.clone();
    let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv2.handle(req)) };
    assert_eq!(node.sync(&mut conn).unwrap(), 50);
    node.startup();
    node.shutdown();
    node.startup();
    assert_eq!(node.history().len(), 0, "nothing malicious sticks");
}

#[test]
fn validated_attack_cost_is_bounded_and_flagged() {
    // The worst *validated* attack: depth-5 signatures covering the
    // whole critical path. It slows the app (Table II) but (a) far less
    // than the rejected depth-1 attack would, and (b) the false-positive
    // detector flags the signatures as suspects, because they keep
    // suspending threads without a single true positive.
    let app = DriverApp::build(&tiny_driver());
    let factory = AttackerFactory::new();
    let hot = app.hot_sections();

    let d5 = factory.critical_path_attack(&hot, 8, AttackDepth::Five);
    let d1 = factory.critical_path_attack(&hot, 8, AttackDepth::One);

    let outcome_d5 = app.run(d5.as_history(), true);
    assert!(outcome_d5.all_finished(), "attack must not hang the app");
    assert!(outcome_d5.stats.suspensions > 0);
    assert_eq!(outcome_d5.stats.deadlocks_detected, 0);

    let o_d5 = app.overhead_vs_vanilla(d5.as_history());
    let o_d1 = app.overhead_vs_vanilla(d1.as_history());
    assert!(o_d1 > o_d5, "depth-1 must hurt more: {o_d1} vs {o_d5}");

    // FP detection: rerun with a longer workload so instantiations pass
    // the 100 threshold within bursts.
    let long = DriverProfile {
        iterations: 100,
        ..tiny_driver()
    };
    let app = DriverApp::build(&long);
    let hot = app.hot_sections();
    let plan = AttackerFactory::new().critical_path_attack(&hot, 8, AttackDepth::One);
    let outcome = app.run(plan.as_history(), true);
    assert!(
        !outcome.fp_suspects.is_empty(),
        "the FP detector must flag signatures that never come true \
         (suspensions: {})",
        outcome.stats.suspensions
    );
}

#[test]
fn generalization_cannot_be_exploited_below_depth_five() {
    // §IV-B: "the agent does not merge signatures below depth 5, for the
    // outer call stacks" — an attacker cannot use merging to erode a
    // legitimate deep signature into a shallow, promiscuous one.
    let profile = JBOSS.scaled(0.05);
    let program = profile.generate();
    let lowered = communix::bytecode::LoweredProgram::lower(&program);
    let report = communix::analysis::NestingAnalyzer::new(&lowered).analyze();
    let mut gen = SigGen::new(42);
    let sigs = gen.valid_remote_sigs(&program, &report, 2);

    // Craft an "eroding" variant of sigs[0]: same bug, but only the top
    // frames in common — a merge would leave depth 1.
    let legit = &sigs[0];
    let mut eroded_entries = Vec::new();
    for e in legit.entries() {
        let mut outer = e.outer.clone();
        let top = outer.frames().last().cloned().unwrap();
        let mut frames: Vec<communix::dimmunix::Frame> = (0..5)
            .map(|i| {
                let mut f = top.clone();
                f.site = communix::dimmunix::Site::new(
                    f.site.class.as_ref(),
                    "attackerFiller",
                    40_000 + i,
                );
                f
            })
            .collect();
        frames.push(top);
        outer = frames.into_iter().collect();
        eroded_entries.push(communix::dimmunix::SigEntry::new(outer, e.inner.clone()));
    }
    let eroding = communix::dimmunix::Signature::remote(eroded_entries);
    assert!(eroding.same_bug(legit), "attack targets the same bug");

    // The merge must refuse (common suffix depth 1 < 5)…
    assert!(legit.merge(&eroding, 5).is_none());
    // …so the history keeps both independent entries rather than one
    // eroded one, and the legitimate deep signature survives intact.
    let mut history = communix::dimmunix::History::new();
    history.add(legit.clone());
    let outcome = history.add_generalizing(eroding, 5);
    assert_eq!(outcome, communix::dimmunix::AddOutcome::Added);
    assert_eq!(history.len(), 2);
    assert!(history.signatures().iter().any(|s| s == legit));
}
