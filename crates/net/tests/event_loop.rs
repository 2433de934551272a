//! Event-transport integration: partial-frame reassembly, short-write
//! resumption, idle eviction (slow-loris defense), shutdown promptness,
//! and a 1000-connection smoke test.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use communix_net::{frame, Handler, Reply, Request, TcpServer, TcpServerConfig, MAX_FRAME};
use communix_telemetry::{EventKind, EvictReason};

mod support;
use support::call;

/// GET(k) answers with k constant-size signatures — large k makes a
/// multi-megabyte reply, which is what forces short writes.
fn echo_handler() -> Handler {
    Arc::new(|req| match req {
        Request::Get { from } => Reply::Sigs {
            from,
            sigs: (0..from).map(|i| format!("sig-{i:08}")).collect(),
        },
        Request::IssueId { user } => Reply::Id {
            id: [(user & 0xff) as u8; 16],
        },
        _ => Reply::Error {
            message: "unsupported in this test".into(),
        },
    })
}

fn event_server(config: TcpServerConfig) -> TcpServer {
    let server = TcpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    assert!(
        server.transport().starts_with("event-"),
        "these tests exercise the event transport, got {}",
        server.transport()
    );
    server
}

/// Each transport flavor, with the given idle timeout.
fn all_transports(idle_timeout: Option<Duration>) -> Vec<TcpServer> {
    let cfg = TcpServerConfig {
        idle_timeout,
        ..TcpServerConfig::default()
    };
    vec![
        event_server(cfg.clone()),
        event_server(TcpServerConfig {
            force_poll_backend: true,
            ..cfg.clone()
        }),
        // Multi-reactor flavor: every invariant below must hold
        // regardless of which shard owns a connection.
        event_server(TcpServerConfig { reactors: 3, ..cfg }),
    ]
}

#[test]
fn partial_frames_reassemble_across_many_reads() {
    for server in all_transports(Some(Duration::from_secs(30))) {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let bytes = frame(&Request::IssueId { user: 9 }.encode());
        // Dribble the frame one byte at a time with pauses: the server
        // sees many partial reads before the frame completes.
        for b in bytes.to_vec() {
            raw.write_all(&[b]).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reply = Vec::new();
        let mut chunk = [0u8; 1024];
        while reply.len() < 4 + 17 {
            let n = raw.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early on {}", server.transport());
            reply.extend_from_slice(&chunk[..n]);
        }
        let payload = bytes::Bytes::from(reply[4..].to_vec());
        assert_eq!(
            Reply::decode(payload).unwrap(),
            Reply::Id { id: [9u8; 16] },
            "transport {}",
            server.transport()
        );
    }
}

#[test]
fn two_pipelined_requests_in_one_write() {
    // Both frames land in one segment; the server must answer both, in
    // order, on every transport.
    for server in all_transports(Some(Duration::from_secs(30))) {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let mut bytes = frame(&Request::IssueId { user: 1 }.encode()).to_vec();
        bytes.extend_from_slice(&frame(&Request::IssueId { user: 2 }.encode()));
        raw.write_all(&bytes).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 1024];
        while got.len() < 2 * (4 + 17) {
            let n = raw.read(&mut chunk).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&chunk[..n]);
        }
        let first = Reply::decode(bytes::Bytes::from(got[4..4 + 17].to_vec())).unwrap();
        let second = Reply::decode(bytes::Bytes::from(got[2 * 4 + 17..].to_vec())).unwrap();
        assert_eq!(first, Reply::Id { id: [1u8; 16] });
        assert_eq!(second, Reply::Id { id: [2u8; 16] });
    }
}

#[test]
fn short_writes_resume_against_a_slow_reader() {
    // A multi-megabyte reply cannot fit in the kernel send buffer: the
    // server necessarily hits WouldBlock mid-reply and must resume via
    // write-interest. The client drains slowly, after a pause.
    for server in all_transports(Some(Duration::from_secs(30))) {
        let transport = server.transport();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        // ~200k sigs × 12 bytes ≈ 2.4 MB of reply payload.
        std::thread::sleep(Duration::from_millis(50));
        let reply = call(&mut client, &Request::Get { from: 200_000 }).unwrap();
        match reply {
            Reply::Sigs { from, sigs } => {
                assert_eq!(from, 200_000, "transport {transport}");
                assert_eq!(sigs.len(), 200_000);
                assert_eq!(sigs[199_999], "sig-00199999");
            }
            other => panic!("unexpected {other:?} on {transport}"),
        }
    }
}

#[test]
fn idle_connections_are_evicted() {
    for server in all_transports(Some(Duration::from_millis(150))) {
        let transport = server.transport();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        // Healthy at first...
        raw.write_all(&frame(&Request::IssueId { user: 1 }.encode()))
            .unwrap();
        let mut chunk = [0u8; 64];
        assert!(raw.read(&mut chunk).unwrap() > 0);
        // ...then silent past the idle timeout: the server must close.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let t0 = Instant::now();
        let n = raw.read(&mut chunk).unwrap_or(0);
        assert_eq!(n, 0, "expected eviction EOF on {transport}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "eviction took {:?} on {transport}",
            t0.elapsed()
        );
        // The connection's resources are released server-side.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().current_connections > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().current_connections, 0, "on {transport}");
    }
}

#[test]
fn slow_loris_mid_frame_is_evicted() {
    // The attack: send a plausible length prefix, then stall inside the
    // frame forever. Without idle eviction this pins a connection
    // indefinitely.
    for server in all_transports(Some(Duration::from_millis(150))) {
        let transport = server.transport();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&1024u32.to_be_bytes()).unwrap(); // frame of 1 KiB...
        raw.write_all(&[0x01, 0x02, 0x03]).unwrap(); // ...but only 3 bytes sent
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut chunk = [0u8; 64];
        let t0 = Instant::now();
        let n = raw.read(&mut chunk).unwrap_or(0);
        assert_eq!(n, 0, "expected eviction EOF on {transport}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "slow-loris held the connection {:?} on {transport}",
            t0.elapsed()
        );
    }
}

#[test]
fn stranger_announcing_max_frame_is_evicted_while_its_shard_keeps_serving() {
    // A header may announce 64 MB; only bytes that arrive cost the server
    // anything (the reactor's own test holds its buffer under 64 KB on
    // exactly these bytes). The stalled connection goes the way of any
    // idle one, and its single shard serves a neighbour throughout.
    let server = event_server(TcpServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        reactors: 1,
        ..TcpServerConfig::default()
    });
    let mut stranger = TcpStream::connect(server.addr()).unwrap();
    stranger
        .write_all(&(MAX_FRAME as u32).to_be_bytes())
        .unwrap();
    stranger.write_all(&[0xAB; 1024]).unwrap();
    stranger.set_nonblocking(true).unwrap();

    let mut neighbour = TcpStream::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut served = 0u64;
    let mut chunk = [0u8; 64];
    loop {
        let reply = call(&mut neighbour, &Request::IssueId { user: served }).unwrap();
        assert_eq!(
            reply,
            Reply::Id {
                id: [(served & 0xff) as u8; 16]
            }
        );
        served += 1;
        match stranger.read(&mut chunk) {
            Ok(0) => break, // evicted
            Ok(_) => panic!("a partial frame earns no reply"),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => break, // reset: evicted as well
        }
        assert!(Instant::now() < deadline, "stranger never evicted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        served > 10,
        "neighbour served only {served} times meanwhile"
    );
    // The EOF can outrun the close's accounting.
    while server.stats().current_connections > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let events = server.tracer().events();
    let evictions: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Evicted(_)))
        .collect();
    assert_eq!(evictions.len(), 1, "exactly the stranger: {events:?}");
    assert_eq!(evictions[0].kind, EventKind::Evicted(EvictReason::Idle));
    assert_eq!(server.stats().current_connections, 1, "the neighbour stays");
}

#[test]
fn a_handler_panic_closes_its_connection_while_its_shard_keeps_serving() {
    /// The request the handler panics on.
    const MARKER: u64 = 0xDEAD;
    let handler: Handler = Arc::new(|req| match req {
        Request::IssueId { user: MARKER } => panic!("the handler fails on the marker"),
        other => echo_handler()(other),
    });
    let server = TcpServer::bind_with(
        "127.0.0.1:0",
        handler,
        TcpServerConfig {
            reactors: 1,
            ..TcpServerConfig::default()
        },
    )
    .unwrap();
    let mut neighbour = TcpStream::connect(server.addr()).unwrap();
    let mut victim = TcpStream::connect(server.addr()).unwrap();
    // Both connections are live on the one shard before the panic.
    assert_eq!(
        call(&mut victim, &Request::IssueId { user: 1 }).unwrap(),
        Reply::Id { id: [1u8; 16] }
    );
    assert_eq!(
        call(&mut neighbour, &Request::IssueId { user: 2 }).unwrap(),
        Reply::Id { id: [2u8; 16] }
    );

    victim
        .write_all(&frame(&Request::IssueId { user: MARKER }.encode()))
        .unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut chunk = [0u8; 64];
    assert_eq!(victim.read(&mut chunk).unwrap_or(0), 0, "closed, no reply");

    for user in 0..50u64 {
        assert_eq!(
            call(&mut neighbour, &Request::IssueId { user }).unwrap(),
            Reply::Id {
                id: [user as u8; 16]
            }
        );
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().current_connections > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().current_connections, 1, "the neighbour stays");
    let snapshot = server.telemetry().snapshot();
    assert_eq!(snapshot.counter("transport.handler_panics"), Some(1));
    let panics: Vec<_> = server
        .tracer()
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::HandlerPanic)
        .collect();
    assert_eq!(panics.len(), 1, "{panics:?}");
}

#[test]
fn truncated_frame_peer_disconnect_releases_the_connection() {
    for server in all_transports(Some(Duration::from_secs(30))) {
        let transport = server.transport();
        {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(&64u32.to_be_bytes()).unwrap();
            raw.write_all(&[0xAA; 10]).unwrap();
            // Dropped here: closed mid-frame.
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().current_connections > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.stats().current_connections,
            0,
            "mid-frame disconnect leaked a connection on {transport}"
        );
    }
}

#[test]
fn one_thousand_concurrent_connections_smoke() {
    // C10K smoke at test scale: 1000 simultaneous connections on one
    // event loop, each answering a call while all others stay open.
    let _ = polling::raise_fd_limit();
    let server = event_server(TcpServerConfig {
        idle_timeout: Some(Duration::from_secs(60)),
        ..TcpServerConfig::default()
    });
    let mut clients: Vec<TcpStream> = (0..1000)
        .map(|i| {
            // Regression (stats invariant): a snapshot taken at any
            // moment — including mid-accept-storm — must never show
            // current above peak.
            if i % 50 == 0 {
                let s = server.stats();
                assert!(
                    s.peak_connections >= s.current_connections,
                    "peak {} < current {} after {} connects",
                    s.peak_connections,
                    s.current_connections,
                    i
                );
            }
            TcpStream::connect(server.addr()).unwrap()
        })
        .collect();
    // All 1000 are open simultaneously before any is dropped.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().current_connections < 1000 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().current_connections, 1000);
    for (i, c) in clients.iter_mut().enumerate() {
        let reply = call(c, &Request::IssueId { user: i as u64 }).unwrap();
        assert_eq!(
            reply,
            Reply::Id {
                id: [(i & 0xff) as u8; 16]
            }
        );
    }
    let stats = server.stats();
    assert_eq!(stats.peak_connections, 1000);
    assert_eq!(stats.accepted, 1000);
    // Half the clients hang up; peak stays monotone at the high-water
    // mark while current falls, and the invariant keeps holding.
    clients.truncate(500);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().current_connections > 500 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.stats();
    assert_eq!(stats.current_connections, 500);
    assert_eq!(stats.peak_connections, 1000, "peak is monotone");
    assert!(stats.peak_connections >= stats.current_connections);
}

#[test]
fn garbage_framing_drops_only_the_offending_connection() {
    let server = event_server(TcpServerConfig::default());
    let mut good = TcpStream::connect(server.addr()).unwrap();
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&(u32::MAX).to_be_bytes()).unwrap(); // absurd length
        raw.write_all(&[0u8; 16]).unwrap();
        let mut chunk = [0u8; 16];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(raw.read(&mut chunk).unwrap_or(0), 0, "server must drop");
    }
    // The well-behaved connection is untouched.
    let reply = call(&mut good, &Request::IssueId { user: 3 }).unwrap();
    assert_eq!(reply, Reply::Id { id: [3u8; 16] });
    // The violation is on the record: one framing-error trace event and
    // one counter tick, attributed to the dropped connection only.
    let framing: Vec<_> = server
        .tracer()
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::FramingError)
        .collect();
    assert_eq!(framing.len(), 1, "{framing:?}");
    assert_eq!(
        server
            .telemetry()
            .snapshot()
            .counter("transport.framing_errors"),
        Some(1)
    );
}

#[test]
fn idle_eviction_leaves_exactly_one_eviction_trace_event() {
    for server in all_transports(Some(Duration::from_millis(150))) {
        let transport = server.transport();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&frame(&Request::IssueId { user: 1 }.encode()))
            .unwrap();
        let mut chunk = [0u8; 64];
        assert!(raw.read(&mut chunk).unwrap() > 0);
        // Go silent; the server evicts and we observe EOF.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(raw.read(&mut chunk).unwrap_or(0), 0, "on {transport}");
        // Wait until the close is accounted server-side.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().current_connections > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let tracer = server.tracer();
        let events = tracer.events();
        let evictions: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Evicted(_)))
            .collect();
        assert_eq!(
            evictions.len(),
            1,
            "expected exactly one eviction on {transport}: {events:?}"
        );
        assert_eq!(
            evictions[0].kind,
            EventKind::Evicted(EvictReason::Idle),
            "wrong reason on {transport}"
        );
        // The same connection's accept is in the record, and nothing
        // was lost to ring wrap or contention.
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Accepted && e.conn == evictions[0].conn));
        assert_eq!(tracer.drops(), 0, "on {transport}");
    }
}
