//! Integration over real sockets: the full immunization cycle through
//! `TcpServer`/`PipelinedConnector`, plus wire-level failure injection.

use std::io::Write;
use std::sync::Arc;

use communix::client::{sync_delta, upload_batch, Connector, LocalRepository, PipelinedConnector};
use communix::dimmunix::{Frame, SigEntry, Signature};
use communix::net::{Handler, Reply, Request, TcpServer, MAX_FRAME, MAX_SIG_BYTES, REPLY_BUDGET};
use communix::server::CommunixServer;
use communix::workloads::DeadlockApp;
use communix::{CommunixNode, NodeConfig};

/// A connection per call, so a server that went away shows on the very
/// next request.
struct TcpConnector {
    addr: std::net::SocketAddr,
}

impl Connector for TcpConnector {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        let mut c = PipelinedConnector::connect(self.addr).map_err(|e| e.to_string())?;
        c.call(request)
    }
}

fn spawn_server() -> (TcpServer, Arc<CommunixServer>) {
    let (server, tcp) = communix::server::builder().serve("127.0.0.1:0").unwrap();
    (tcp, server)
}

#[test]
fn full_cycle_over_sockets() {
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();
    let app = DeadlockApp::new(4);

    let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn = TcpConnector { addr };
    a.obtain_id(&mut conn).unwrap();
    a.startup();
    assert_eq!(a.run(&app.deadlock_specs()).deadlocks.len(), 1);
    assert_eq!(a.upload_pending(&mut conn).unwrap(), 1);
    assert_eq!(server.db().len(), 1);

    let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let mut conn = TcpConnector { addr };
    assert_eq!(b.sync(&mut conn).unwrap(), 1);
    b.startup();
    b.shutdown();
    b.startup();
    let outcome = b.run(&app.deadlock_specs());
    assert!(outcome.deadlocks.is_empty());
    assert!(outcome.all_finished());

    tcp.shutdown();
}

#[test]
fn concurrent_uploads_from_many_nodes() {
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();

    std::thread::scope(|scope| {
        for user in 0..8u64 {
            let server = server.clone();
            scope.spawn(move || {
                let mut gen = communix::workloads::SigGen::new(user);
                let mut conn = TcpConnector { addr };
                let id = communix::client::obtain_id(&mut conn, user).unwrap();
                for _ in 0..5 {
                    let reply = conn
                        .call(Request::Add {
                            sender: id,
                            sig_text: gen.random_signature().to_string(),
                        })
                        .unwrap();
                    let Reply::AddAck { accepted, reason } = reply else {
                        panic!("expected AddAck, got {reply:?}")
                    };
                    assert!(accepted, "{reason}");
                }
                let _ = server; // keep alive until done
            });
        }
    });
    assert_eq!(server.db().len(), 40);
    tcp.shutdown();
}

#[test]
fn garbage_bytes_do_not_crash_the_server() {
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();

    // A client that speaks nonsense: the server drops the connection.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"definitely not a length-prefixed frame")
            .unwrap();
        // Force the malformed length prefix to be enormous.
        raw.write_all(&[0xFF; 64]).unwrap();
    }

    // A client that frames a huge length: rejected without allocation.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
    }

    // A well-formed request on a fresh connection still gets served.
    {
        let mut c = PipelinedConnector::connect(addr).unwrap();
        let reply = c.call(Request::Get { from: 0 }).unwrap();
        assert!(matches!(reply, Reply::Sigs { .. }));
    }

    // The server is still alive and accepting writes.
    {
        let mut c = PipelinedConnector::connect(addr).unwrap();
        let id = server.authority().issue(3);
        let reply = c
            .call(Request::Add {
                sender: id,
                sig_text: communix::workloads::SigGen::new(9)
                    .random_signature()
                    .to_string(),
            })
            .unwrap();
        assert!(matches!(reply, Reply::AddAck { accepted: true, .. }));
    }
    tcp.shutdown();
}

#[test]
fn unreachable_server_yields_transport_errors() {
    // Bind-then-close to get a (very likely) dead port.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut conn = TcpConnector { addr: dead_addr };
    let mut repo = LocalRepository::in_memory();
    let err = sync_delta(&mut conn, &mut repo, 0);
    assert!(matches!(
        err,
        Err(communix::client::SyncError::Transport(_))
    ));
    assert_eq!(repo.len(), 0, "repository untouched on failure");
}

/// A parseable signature of about `bulk` bytes, nearly all of them one
/// bottom frame's class name; its top frames sit at lines
/// `base..base + 4`, so distinct bases never make two of them adjacent.
fn bulky_signature(base: u32, bulk: usize) -> String {
    let bottom = Frame::new(format!("app.{}", "x".repeat(bulk)), "run", 1);
    let top = |line: u32| Frame::new("app.C", "f", line);
    Signature::local(vec![
        SigEntry::new(
            [bottom, top(base)].into_iter().collect(),
            [top(base + 1)].into_iter().collect(),
        ),
        SigEntry::new(
            [top(base + 2)].into_iter().collect(),
            [top(base + 3)].into_iter().collect(),
        ),
    ])
    .to_string()
}

#[test]
fn a_delta_larger_than_one_frame_arrives_in_several_windows() {
    // 40 signatures just under the size cap, 2.6 MB in all: the server
    // closes each window at the last one within the reply budget, and the
    // client pages on.
    let bulk = MAX_SIG_BYTES - 1_000;
    let (mut tcp, server) = spawn_server();
    let mut conn = PipelinedConnector::connect(tcp.addr()).unwrap();
    let texts: Vec<String> = (0..40).map(|i| bulky_signature(10 * i, bulk)).collect();
    assert!(texts.iter().all(|t| t.len() <= MAX_SIG_BYTES));
    // Ten a day per sender: four senders.
    let adds = (0..40)
        .map(|i| (server.authority().issue(i / 10), texts[i as usize].clone()))
        .collect();
    let results = upload_batch(&mut conn, adds).unwrap();
    assert!(results.iter().all(|r| r.accepted), "{results:?}");
    assert!(server.db().stored_bytes() > 2 * REPLY_BUDGET);

    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut conn, &mut repo, 0).unwrap(), 40);
    assert_eq!(server.stats().deltas, 3, "windows of 16, 16 and 8");
    for (i, text) in texts.iter().enumerate() {
        assert_eq!(repo.sig(i), Some(text.as_str()));
    }

    // A text of ≈ 23 MB, a third of the frame limit, is refused on its
    // length.
    let huge = bulky_signature(1_000, MAX_FRAME / 3 + 1_000_000);
    let results = upload_batch(&mut conn, vec![(server.authority().issue(9), huge)]).unwrap();
    assert_eq!(
        (results[0].accepted, results[0].reason.as_str()),
        (false, "signature too large to serve")
    );
    assert_eq!(server.db().len(), 40);
    tcp.shutdown();
}

#[test]
fn node_survives_flaky_server_and_recovers() {
    let app = DeadlockApp::new(4);
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();

    // Victim uploads, then the server "goes down".
    let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn = TcpConnector { addr };
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    victim.run(&app.deadlock_specs());
    victim.upload_pending(&mut conn).unwrap();
    tcp.shutdown();

    // Node B can't reach it; sync fails cleanly, the node still works
    // (Dimmunix local behaviour is unaffected by connectivity).
    let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let mut dead = TcpConnector { addr };
    assert!(b.sync(&mut dead).is_err());
    b.startup();
    let o = b.run(&app.deadlock_specs());
    assert_eq!(o.deadlocks.len(), 1, "unprotected, but functional");

    // The server comes back (new socket, same database).
    let handler: Handler = Arc::new(move |req| server.handle(req));
    let tcp2 = TcpServer::bind("127.0.0.1:0", handler).unwrap();
    let mut conn2 = TcpConnector { addr: tcp2.addr() };
    assert_eq!(b.sync(&mut conn2).unwrap(), 1);
    b.startup();
    b.shutdown();
    b.startup();
    // B now holds both its own signature and the downloaded one — they
    // describe the same bug, so the history stays at one entry.
    assert_eq!(b.history().len(), 1);
}
