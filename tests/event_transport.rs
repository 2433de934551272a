//! Integration: the event-driven transport behind the facade — protocol
//! coexistence over real sockets. A seed-era client (single ADD +
//! GET(0)) and a batched client (ADD_BATCH + windowed GET_DELTA) share
//! one event-driven server and converge to identical repositories,
//! exactly as `batched_sync.rs` proves in-process.

use std::sync::Arc;

use communix::client::{sync_delta, upload_batch, Connector, LocalRepository, PipelinedConnector};
use communix::net::{Reply, Request};
use communix::server::CommunixServer;
use communix::workloads::SigGen;

fn serve() -> (communix::net::TcpServer, Arc<CommunixServer>) {
    let (srv, tcp) = communix::server::builder().serve("127.0.0.1:0").unwrap();
    (tcp, srv)
}

/// A connection-per-call connector over the real wire, like the old
/// deployed clients.
fn wire_connector(addr: std::net::SocketAddr) -> impl FnMut(Request) -> Result<Reply, String> {
    move |req| {
        let mut c = PipelinedConnector::connect(addr).map_err(|e| e.to_string())?;
        c.call(req)
    }
}

#[test]
fn old_and_batched_clients_share_one_event_driven_server() {
    let (mut tcp, srv) = serve();
    if cfg!(unix) {
        assert!(
            tcp.transport().starts_with("event-"),
            "facade default must be the event transport, got {}",
            tcp.transport()
        );
    }
    let addr = tcp.addr();
    let mut gen = SigGen::new(3);

    // Old-style client uploads one signature the paper's way, over a
    // persistent connection this time.
    let id = srv.authority().issue(1);
    let mut old = PipelinedConnector::connect(addr).unwrap();
    let reply = old
        .call(Request::Add {
            sender: id,
            sig_text: gen.random_signature().to_string(),
        })
        .unwrap();
    assert!(matches!(reply, Reply::AddAck { accepted: true, .. }));

    // Batched client uploads two more in one round trip.
    let adds = vec![
        (srv.authority().issue(2), gen.random_signature().to_string()),
        (srv.authority().issue(3), gen.random_signature().to_string()),
    ];
    assert!(upload_batch(&mut wire_connector(addr), adds)
        .unwrap()
        .iter()
        .all(|r| r.accepted));

    // Both download styles see the same three signatures in the same
    // order — GET(0) through the still-open old connection, windowed
    // GET_DELTA through fresh ones.
    let Reply::Sigs { from: 0, sigs } = old.call(Request::Get { from: 0 }).unwrap() else {
        panic!("expected the SIGS reply to GET(0)")
    };
    let mut new_repo = LocalRepository::in_memory();
    assert_eq!(
        sync_delta(&mut wire_connector(addr), &mut new_repo, 2).unwrap(),
        3
    );
    let delta: Vec<&str> = (0..3).filter_map(|i| new_repo.sig(i)).collect();
    assert_eq!(sigs, delta);
    tcp.shutdown();
}

#[test]
fn batch_validation_is_identical_over_the_wire() {
    // The wire changes nothing about §III-C2 validation: a forged id
    // inside an ADD_BATCH rejects only that item, same as in-process.
    let (mut tcp, srv) = serve();
    let mut gen = SigGen::new(42);
    let adds = vec![
        (srv.authority().issue(1), gen.random_signature().to_string()),
        ([0xEE; 16], gen.random_signature().to_string()), // forged id
        (srv.authority().issue(2), gen.random_signature().to_string()),
    ];
    let results = upload_batch(&mut wire_connector(tcp.addr()), adds).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].accepted);
    assert!(!results[1].accepted);
    assert_eq!(results[1].reason, "invalid encrypted sender id");
    assert!(results[2].accepted);
    assert_eq!(srv.db().len(), 2);
    tcp.shutdown();
}
