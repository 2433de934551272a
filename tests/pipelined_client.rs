//! Integration: the pipelined client against real servers — windowed
//! in-flight requests, FIFO matching under rejection,
//! backpressure, and clean shutdown, plus the blocking facade running
//! the existing sync helpers unchanged.

#![cfg(unix)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use communix::client::{
    fetch_stats, obtain_id, sync_delta, upload_batch, Connector, LocalRepository, PipelineConfig,
    PipelineError, PipelinedClient, PipelinedConnector,
};
use communix::net::{EncryptedId, Handler, Reply, Request, TcpServer};
use communix::server::CommunixServer;
use communix::workloads::SigGen;
use parking_lot::Mutex;

fn serve() -> (TcpServer, Arc<CommunixServer>) {
    let (srv, tcp) = communix::server::builder().serve("127.0.0.1:0").unwrap();
    (tcp, srv)
}

fn config(window: usize) -> PipelineConfig {
    PipelineConfig { window }
}

/// Records the submission index of each completion, in firing order.
fn ordered(
    order: &Arc<Mutex<Vec<usize>>>,
    index: usize,
) -> Box<dyn FnOnce(Result<Reply, PipelineError>) + Send> {
    let order = order.clone();
    Box::new(move |result| {
        result.expect("request must succeed");
        order.lock().push(index);
    })
}

/// A single-signature upload request from `sender`.
fn add(sender: EncryptedId, gen: &mut SigGen) -> Request {
    Request::Add {
        sender,
        sig_text: gen.random_signature().to_string(),
    }
}

#[test]
fn pipelined_uploads_complete_in_submission_order() {
    let (mut tcp, srv) = serve();
    let mut gen = SigGen::new(7);
    let mut client = PipelinedClient::connect(tcp.addr(), config(8)).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));

    // Six ADDs, a GET wedged in the middle, two more ADDs: one window
    // of mixed frames.
    let mut index = 0;
    for _ in 0..6 {
        let sender = srv.authority().issue(index as u64);
        client.submit(add(sender, &mut gen), ordered(&order, index));
        index += 1;
    }
    client.submit(Request::Get { from: 0 }, ordered(&order, index));
    index += 1;
    for _ in 0..2 {
        let sender = srv.authority().issue(index as u64);
        client.submit(add(sender, &mut gen), ordered(&order, index));
        index += 1;
    }

    client.drain(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        *order.lock(),
        (0..index).collect::<Vec<_>>(),
        "completions must fire in submission order"
    );
    assert_eq!(srv.db().len(), 8, "all eight uploads must land");
    tcp.shutdown();
}

#[test]
fn window_of_one_degenerates_to_blocking_lockstep() {
    let (mut tcp, _srv) = serve();
    let mut client = PipelinedClient::connect(tcp.addr(), config(1)).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    for user in 0..24u64 {
        let done = done.clone();
        client.submit(
            Request::IssueId { user },
            Box::new(move |result| {
                assert!(matches!(result, Ok(Reply::Id { .. })));
                done.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }
    client.drain(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(done.load(Ordering::SeqCst), 24);
    let snapshot = client.telemetry().snapshot();
    let (_, peak) = snapshot.gauge("client.inflight").unwrap();
    assert_eq!(peak, 1, "window=1 must never overlap requests");
    tcp.shutdown();
}

#[test]
fn forged_id_rejection_mid_window_does_not_desync() {
    let (mut tcp, srv) = serve();
    let mut gen = SigGen::new(42);
    let mut client = PipelinedClient::connect(tcp.addr(), config(8)).unwrap();
    let verdicts = Arc::new(Mutex::new(Vec::new()));

    // Three ADDs with a forged id in the middle, then a GET behind them
    // in the same window.
    let ids = [
        srv.authority().issue(1),
        [0xEE; 16], // forged
        srv.authority().issue(2),
    ];
    for sender in ids {
        let verdicts = verdicts.clone();
        client.submit(
            add(sender, &mut gen),
            Box::new(
                move |result| match result.expect("transport must survive") {
                    Reply::AddAck { accepted, reason } => verdicts.lock().push((accepted, reason)),
                    other => panic!("expected AddAck, got {other:?}"),
                },
            ),
        );
    }
    let tail = Arc::new(Mutex::new(None));
    let tail2 = tail.clone();
    client.submit(
        Request::Get { from: 0 },
        Box::new(move |result| {
            *tail2.lock() = Some(result.expect("GET behind the ADDs must succeed"));
        }),
    );

    client.drain(Some(Duration::from_secs(30))).unwrap();
    let verdicts = verdicts.lock();
    assert_eq!(verdicts.len(), 3);
    assert!(verdicts[0].0);
    assert!(!verdicts[1].0, "forged id must be rejected");
    assert_eq!(verdicts[1].1, "invalid encrypted sender id");
    assert!(verdicts[2].0, "rejection must not poison the window");
    match tail.lock().take().expect("GET must complete") {
        Reply::Sigs { from: 0, sigs } => {
            assert_eq!(sigs.len(), 2, "exactly the two accepted signatures");
        }
        other => panic!("GET answered by {other:?} — reply stream desynced"),
    }
    tcp.shutdown();
}

#[test]
fn slow_server_backpressure_fills_window_without_deadlock() {
    let handler: Handler = Arc::new(|req| {
        std::thread::sleep(Duration::from_millis(2));
        match req {
            Request::IssueId { user } => Reply::Id {
                id: [(user & 0xff) as u8; 16],
            },
            other => Reply::Error {
                message: format!("unexpected {other:?}"),
            },
        }
    });
    let mut tcp = TcpServer::bind("127.0.0.1:0", handler).unwrap();
    let mut client = PipelinedClient::connect(tcp.addr(), config(4)).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    for user in 0..64u64 {
        let done = done.clone();
        client.submit(
            Request::IssueId { user },
            Box::new(move |result| {
                result.expect("slow server must still answer");
                done.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }
    assert_eq!(client.pending(), 64);
    client.drain(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(done.load(Ordering::SeqCst), 64);
    assert!(client.is_idle());
    let snapshot = client.telemetry().snapshot();
    let (_, peak) = snapshot.gauge("client.inflight").unwrap();
    assert_eq!(peak, 4, "a deep queue must fill the whole window");
    tcp.shutdown();
}

#[test]
fn shutdown_with_frames_in_flight_completes_every_request() {
    let handler: Handler = Arc::new(|req| {
        std::thread::sleep(Duration::from_millis(50));
        match req {
            Request::IssueId { user } => Reply::Id {
                id: [(user & 0xff) as u8; 16],
            },
            other => Reply::Error {
                message: format!("unexpected {other:?}"),
            },
        }
    });
    let mut tcp = TcpServer::bind("127.0.0.1:0", handler).unwrap();
    let mut client = PipelinedClient::connect(tcp.addr(), config(4)).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let closed = Arc::new(AtomicUsize::new(0));
    for user in 0..16u64 {
        let fired = fired.clone();
        let closed = closed.clone();
        client.submit(
            Request::IssueId { user },
            Box::new(move |result| {
                fired.fetch_add(1, Ordering::SeqCst);
                if matches!(result, Err(PipelineError::Closed)) {
                    closed.fetch_add(1, Ordering::SeqCst);
                }
            }),
        );
    }
    // Put a full window on the wire, then shut down with those frames
    // still in flight: no callback may be lost and none may hang.
    client.pump().unwrap();
    client.shutdown();
    assert_eq!(
        fired.load(Ordering::SeqCst),
        16,
        "every request must complete exactly once on shutdown"
    );
    assert!(
        closed.load(Ordering::SeqCst) >= 4,
        "the in-flight window must fail with Closed, got {}",
        closed.load(Ordering::SeqCst)
    );
    tcp.shutdown();
}

#[test]
fn blocking_facade_runs_existing_sync_helpers_unchanged() {
    let (mut tcp, srv) = serve();
    let mut gen = SigGen::new(3);
    let mut conn = PipelinedConnector::connect(tcp.addr()).unwrap();

    // The request helpers and the paper's ADD/GET verbs share one
    // connection.
    let id = obtain_id(&mut conn, 9).unwrap();
    assert!(srv.authority().verify(&id).is_some());
    let reply = conn
        .call(Request::Add {
            sender: id,
            sig_text: gen.random_signature().to_string(),
        })
        .unwrap();
    assert!(matches!(reply, Reply::AddAck { accepted: true, .. }));
    let results = upload_batch(
        &mut conn,
        vec![
            (srv.authority().issue(1), gen.random_signature().to_string()),
            (srv.authority().issue(2), gen.random_signature().to_string()),
        ],
    )
    .unwrap();
    assert!(results.iter().all(|r| r.accepted));

    let Reply::Sigs { from: 0, sigs } = conn.call(Request::Get { from: 0 }).unwrap() else {
        panic!("expected the SIGS reply to GET(0)")
    };
    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut conn, &mut repo, 2).unwrap(), 3);
    let delta: Vec<&str> = (0..3).filter_map(|i| repo.sig(i)).collect();
    assert_eq!(sigs, delta);
    assert!(fetch_stats(&mut conn).unwrap().contains("\"counters\""));
    tcp.shutdown();
}
