//! Integration: the batched sync protocol end to end — empty batches,
//! partial rejection inside a batch, `GET_DELTA` windowing across shard
//! boundaries, and coexistence with the paper's single-signature
//! protocol (old-style clients against the same sharded server). Every
//! request and reply crosses the codec ([`support::framed`]).

mod support;

use std::sync::Arc;

use communix::client::{sync_delta, upload_batch, Connector, LocalRepository};
use communix::clock::VirtualClock;
use communix::net::{Reply, Request};
use communix::server::ServerBuilder;
use communix::workloads::SigGen;
use support::framed;

/// A server builder on a virtual clock.
fn builder() -> ServerBuilder {
    communix::server::builder().clock(Arc::new(VirtualClock::new()))
}

#[test]
fn empty_batch_and_empty_delta_are_clean_noops() {
    let srv = builder().build().unwrap();
    let mut conn = framed(&srv);

    // An empty upload batch is acked with an empty verdict list…
    let results = upload_batch(&mut conn, Vec::new()).unwrap();
    assert!(results.is_empty());
    assert!(srv.db().is_empty());

    // …and a delta sync against an empty server downloads nothing.
    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut conn, &mut repo, 0).unwrap(), 0);
    assert_eq!(repo.len(), 0);

    let stats = srv.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.deltas, 1);
    assert_eq!(stats.adds_accepted, 0);
}

#[test]
fn forged_id_inside_batch_rejects_only_that_item() {
    // The satellite case: one forged sender id among valid adds. The
    // batch must not be poisoned — every other item lands.
    let srv = builder().build().unwrap();
    let mut conn = framed(&srv);
    let mut gen = SigGen::new(42);

    let adds = vec![
        (srv.authority().issue(1), gen.random_signature().to_string()),
        ([0xEE; 16], gen.random_signature().to_string()), // forged id
        (srv.authority().issue(2), gen.random_signature().to_string()),
        (srv.authority().issue(3), gen.random_signature().to_string()),
    ];
    let results = upload_batch(&mut conn, adds).unwrap();
    assert_eq!(results.len(), 4);
    assert!(results[0].accepted);
    assert!(!results[1].accepted);
    assert_eq!(results[1].reason, "invalid encrypted sender id");
    assert!(results[2].accepted);
    assert!(results[3].accepted);
    assert_eq!(srv.db().len(), 3, "only the three valid adds stored");

    // The forged item's signature is downloadable by nobody — a full
    // delta sync sees exactly the accepted three.
    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut conn, &mut repo, 0).unwrap(), 3);
}

#[test]
fn windowed_delta_walks_shard_boundaries_in_order() {
    // 40 signatures, whichever dedup shards they hash to, downloaded in
    // windows of the client's 7: pagination must reassemble the exact
    // global append order.
    let srv = builder().build().unwrap();
    let mut conn = framed(&srv);
    let mut gen = SigGen::new(7);
    let adds: Vec<_> = (0..40)
        .map(|u| (srv.authority().issue(u), gen.random_signature().to_string()))
        .collect();
    let results = upload_batch(&mut conn, adds).unwrap();
    assert!(results.iter().all(|r| r.accepted));

    let mut repo = LocalRepository::in_memory();
    let n = sync_delta(&mut conn, &mut repo, 7).unwrap();
    assert_eq!(n, 40);
    assert_eq!(srv.stats().deltas, 6, "⌈40/7⌉ = 6 windows");
    // Byte-for-byte the server's global order.
    let server_view = srv.db().get_from(0);
    let client_view: Vec<String> = (0..repo.len())
        .map(|i| repo.sig(i).unwrap().to_string())
        .collect();
    assert_eq!(client_view, server_view);
}

#[test]
fn delta_sync_resumes_mid_window_after_interruption() {
    // A client that lost connectivity mid-pagination resumes from its
    // repository length — even if that length is not window-aligned.
    let srv = builder().build().unwrap();
    let mut gen = SigGen::new(9);
    let adds: Vec<_> = (0..12)
        .map(|u| (srv.authority().issue(u), gen.random_signature().to_string()))
        .collect();
    upload_batch(&mut framed(&srv), adds).unwrap();

    // First sync dies after one window: simulate with a connector that
    // fails on the second call.
    let mut repo = LocalRepository::in_memory();
    let mut calls = 0;
    let mut link = framed(&srv);
    let mut flaky = move |req: Request| -> Result<Reply, String> {
        calls += 1;
        if calls > 1 {
            return Err("link dropped".into());
        }
        link(req)
    };
    assert!(sync_delta(&mut flaky, &mut repo, 5).is_err());
    assert_eq!(repo.len(), 5, "the completed window is kept");

    // The next sync starts at index 5 and finishes the job.
    let n = sync_delta(&mut framed(&srv), &mut repo, 5).unwrap();
    assert_eq!(n, 7);
    assert_eq!(repo.len(), 12);
}

#[test]
fn old_protocol_and_batched_protocol_share_one_server() {
    // Backward compatibility: a seed-era client (single ADD + GET) and a
    // batched client converge to identical repositories.
    let srv = builder().build().unwrap();
    let mut gen = SigGen::new(3);

    // Old-style client uploads one signature the paper's way.
    let id = srv.authority().issue(1);
    let reply = srv.handle(Request::Add {
        sender: id,
        sig_text: gen.random_signature().to_string(),
    });
    assert!(matches!(reply, Reply::AddAck { accepted: true, .. }));

    // Batched client uploads two more in one round trip.
    let adds = vec![
        (srv.authority().issue(2), gen.random_signature().to_string()),
        (srv.authority().issue(3), gen.random_signature().to_string()),
    ];
    assert!(upload_batch(&mut framed(&srv), adds)
        .unwrap()
        .iter()
        .all(|r| r.accepted));

    // Both download styles see the same three signatures in the same
    // order: the paper's GET(0) and a delta sync in windows of two.
    let Reply::Sigs { from: 0, sigs } = framed(&srv).call(Request::Get { from: 0 }).unwrap() else {
        panic!("expected the SIGS reply to GET(0)")
    };
    let mut new_repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut framed(&srv), &mut new_repo, 2).unwrap(), 3);
    let delta: Vec<&str> = (0..3).filter_map(|i| new_repo.sig(i)).collect();
    assert_eq!(sigs, delta);
}

#[test]
fn batch_item_budget_and_adjacency_still_enforced() {
    // Batching is not a validation bypass: per-item daily budgets apply
    // inside one ADD_BATCH exactly as across single ADDs.
    let srv = builder().daily_limit(3).build().unwrap();
    let mut gen = SigGen::new(5);
    let id = srv.authority().issue(1);
    let adds: Vec<_> = (0..5)
        .map(|_| (id, gen.random_signature().to_string()))
        .collect();
    let results = upload_batch(&mut framed(&srv), adds).unwrap();
    let accepted = results.iter().filter(|r| r.accepted).count();
    assert_eq!(accepted, 3, "daily budget caps items inside the batch");
    assert!(results[3..].iter().all(|r| !r.accepted));
    assert_eq!(results[4].reason, "daily signature budget exhausted");
}
