//! Multi-reactor facade suite: invariants that only matter once
//! connections are spread across shard threads — aggregate STATS
//! accounting, per-victim eviction traces, and clean shutdown while
//! frames are in flight.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use communix_net::{frame, Handler, Reply, Request, TcpServer, TcpServerConfig};
use communix_telemetry::{EventKind, EvictReason};

mod support;
use support::call;

fn echo_handler() -> Handler {
    Arc::new(|req| match req {
        Request::IssueId { user } => Reply::Id {
            id: [(user & 0xff) as u8; 16],
        },
        _ => Reply::Error {
            message: "unsupported in this test".into(),
        },
    })
}

fn sharded(reactors: usize, idle_timeout: Option<Duration>) -> TcpServer {
    let server = TcpServer::bind_with(
        "127.0.0.1:0",
        echo_handler(),
        TcpServerConfig {
            reactors,
            idle_timeout,
            ..TcpServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(server.reactors(), reactors);
    server
}

#[test]
fn aggregate_stats_span_all_shards() {
    let server = sharded(4, Some(Duration::from_secs(30)));
    let mut clients: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let reply = call(c, &Request::IssueId { user: i as u64 }).unwrap();
        assert_eq!(reply, Reply::Id { id: [i as u8; 16] });
    }
    let snap = server.telemetry().snapshot();
    // Every connection is owned by exactly one shard, and the shard
    // gauges sum to the aggregate.
    let per_shard: u64 = (0..4)
        .map(|i| {
            snap.gauge(&format!("transport.reactor.{i}.connections"))
                .map(|(current, _)| current)
                .unwrap_or(0)
        })
        .sum();
    let (aggregate, _) = snap.gauge("transport.connections").unwrap();
    assert_eq!(per_shard, aggregate);
    assert_eq!(per_shard, 8);
    // Every accepted socket went through exactly one handoff.
    assert_eq!(
        snap.counter("transport.accept_handoffs"),
        snap.counter("transport.accepted")
    );
    // All 8 request frames were decoded on some shard.
    let frames: u64 = (0..4)
        .map(|i| {
            snap.counter(&format!("transport.reactor.{i}.frames"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(frames, 8);
}

#[test]
fn each_idle_victim_gets_exactly_one_eviction_event() {
    const VICTIMS: usize = 6;
    let server = sharded(3, Some(Duration::from_millis(150)));
    let mut raws: Vec<TcpStream> = (0..VICTIMS)
        .map(|i| {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(&frame(&Request::IssueId { user: i as u64 }.encode()))
                .unwrap();
            raw
        })
        .collect();
    // Every victim saw its reply, so every shard registered its share.
    for raw in &mut raws {
        let mut chunk = [0u8; 64];
        assert!(raw.read(&mut chunk).unwrap() > 0);
    }
    // Go silent on all of them; each shard's sweep must evict its own.
    for raw in &mut raws {
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut chunk = [0u8; 64];
        assert_eq!(raw.read(&mut chunk).unwrap_or(0), 0);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().current_connections > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let tracer = server.tracer();
    let events = tracer.events();
    let mut evicted_conns: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Evicted(EvictReason::Idle))
        .map(|e| e.conn)
        .collect();
    evicted_conns.sort_unstable();
    let before_dedup = evicted_conns.len();
    evicted_conns.dedup();
    // One eviction per victim, no duplicates regardless of which shard
    // owned the connection, and no trace events lost.
    assert_eq!(before_dedup, evicted_conns.len(), "duplicate evictions");
    assert_eq!(evicted_conns.len(), VICTIMS, "{events:?}");
    assert_eq!(tracer.drops(), 0);
    assert_eq!(server.stats().current_connections, 0);
}

#[test]
fn shutdown_with_frames_in_flight_joins_every_shard() {
    let mut server = sharded(4, None);
    let addr = server.addr();
    // Background load: each worker hammers requests until the server
    // goes away; in-flight frames are guaranteed at shutdown time.
    let workers: Vec<_> = (0..6)
        .map(|w| {
            std::thread::spawn(move || {
                let mut done = 0u32;
                while let Ok(mut c) = TcpStream::connect(addr) {
                    while call(&mut c, &Request::IssueId { user: w as u64 }).is_ok() {
                        done += 1;
                        if done > 50_000 {
                            return done;
                        }
                    }
                }
                done
            })
        })
        .collect();
    // Let the load ramp so every shard owns live connections.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must join acceptor and all shard threads promptly, took {:?}",
        started.elapsed()
    );
    // Idempotent: a second call is a no-op, not a double-join panic.
    server.shutdown();
    for w in workers {
        let _ = w.join().unwrap();
    }
    // Every connection the shards owned was accounted closed.
    assert_eq!(server.stats().current_connections, 0);
}
