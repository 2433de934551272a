//! The TCP transport (std::net) for the Communix protocol.
//!
//! [`TcpServer::bind`] starts [`TcpServerConfig::reactors`] reactor
//! shards of nonblocking sockets (epoll, `poll(2)` where epoll is not
//! available) driving per-connection state machines, fed by a dedicated
//! accept thread; see [`crate::event`] and [`crate::reactor`]. This is
//! the C10K path: one server process holds tens of thousands of
//! concurrent connections, spread across the shard threads.
//!
//! The server evicts connections that make no progress for
//! [`TcpServerConfig::idle_timeout`] (slow-loris defense: a length
//! prefix followed by a stall releases the connection's resources) and
//! counts connections in [`TransportStats`].
//!
//! # Observability
//!
//! The server records into a telemetry [`Registry`] — its own by
//! default, or one passed in via [`TcpServerConfig::registry`] so
//! transport metrics share a `STATS` snapshot with the request path:
//! `transport.accepted` / `transport.connections` (gauge with peak) /
//! `transport.evictions` / `transport.framing_errors` /
//! `transport.handler_panics` / `transport.backpressure_stalls`.
//! Connection lifecycle events (accept, close, evict, backpressure,
//! framing error, handler panic) additionally
//! land in a fixed-capacity ring-buffer [`Tracer`] — a flight recorder
//! that never blocks the hot path and counts what it overwrites.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use communix_telemetry::{Counter, EventKind, EvictReason, Gauge, Registry, Tracer};

use crate::codec::{CodecError, Reply, Request};

/// A request handler: maps each request to a reply. Shared by every
/// reactor shard and called from its readiness loop.
pub type Handler = Arc<dyn Fn(Request) -> Reply + Send + Sync>;

/// Server transport tunables.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Evict a connection after this much time without read or write
    /// progress (`None` disables eviction). Also the slow-loris bound:
    /// a peer stalling mid-frame holds resources at most this long.
    pub idle_timeout: Option<Duration>,
    /// Force the transport onto the portable `poll(2)` backend even
    /// where epoll is available (how the tests cover that backend).
    pub force_poll_backend: bool,
    /// Telemetry registry the transport records into (`None` binds a
    /// fresh private registry). Pass the server's registry so one
    /// `STATS` snapshot covers both the transport and the request path.
    pub registry: Option<Arc<Registry>>,
    /// Reactor shards: each shard is one thread owning a poller and a
    /// disjoint set of connections, fed by a dedicated accept thread
    /// (least-loaded placement). `0` (the default) sizes to the
    /// machine — `available_parallelism` clamped to at most 4.
    pub reactors: usize,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            idle_timeout: Some(Duration::from_secs(30)),
            force_poll_backend: false,
            registry: None,
            reactors: 0,
        }
    }
}

/// Connection counters — a view over the transport's telemetry
/// registry.
///
/// `peak_connections` is a *monotone* high-water mark: it only ever
/// grows, and a snapshot always satisfies `peak_connections >=
/// current_connections`. `current_connections` itself can briefly
/// exceed an externally configured connection limit while accepts race
/// with disconnects (the accept loop counts a connection before the
/// handler learns it exists); it settles once the race drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections currently open.
    pub current_connections: usize,
    /// Highest simultaneous connection count seen (monotone; never
    /// less than `current_connections` within one snapshot).
    pub peak_connections: usize,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
}

/// Why a connection left the server. Maps one-to-one onto the trace
/// event its close emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseCause {
    /// The peer closed or reset the connection.
    Peer,
    /// A socket error ended the connection.
    Io,
    /// The peer violated framing (oversized/absurd frame).
    Framing,
    /// The handler panicked on one of the connection's requests.
    HandlerPanic,
    /// Evicted after [`TcpServerConfig::idle_timeout`] without progress.
    Idle,
    /// Dropped because the server is shutting down.
    Shutdown,
}

/// Pre-resolved transport telemetry handles plus the event tracer,
/// shared by the accept loop and every connection.
#[derive(Debug)]
pub(crate) struct SharedStats {
    connections: Arc<Gauge>,
    accepted: Arc<Counter>,
    evictions: Arc<Counter>,
    framing_errors: Arc<Counter>,
    handler_panics: Arc<Counter>,
    backpressure_stalls: Arc<Counter>,
    tracer: Arc<Tracer>,
    next_conn: AtomicU64,
}

impl SharedStats {
    pub(crate) fn resolve(registry: &Registry) -> SharedStats {
        SharedStats {
            connections: registry.gauge("transport.connections"),
            accepted: registry.counter("transport.accepted"),
            evictions: registry.counter("transport.evictions"),
            framing_errors: registry.counter("transport.framing_errors"),
            handler_panics: registry.counter("transport.handler_panics"),
            backpressure_stalls: registry.counter("transport.backpressure_stalls"),
            tracer: Arc::new(Tracer::default()),
            next_conn: AtomicU64::new(0),
        }
    }

    /// Registers an accepted connection: returns its id for trace
    /// events, bumps the gauge/counter, and emits `Accepted`.
    pub(crate) fn connected(&self) -> u64 {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.accepted.inc();
        self.connections.inc();
        self.tracer.emit(EventKind::Accepted, conn);
        conn
    }

    /// Registers a connection's end: drops the gauge and emits the
    /// event `cause` maps to, bumping cause-specific counters.
    pub(crate) fn closed(&self, conn: u64, cause: CloseCause) {
        self.connections.dec();
        let kind = match cause {
            CloseCause::Peer | CloseCause::Io => EventKind::Closed,
            CloseCause::Framing => {
                self.framing_errors.inc();
                EventKind::FramingError
            }
            CloseCause::HandlerPanic => {
                self.handler_panics.inc();
                EventKind::HandlerPanic
            }
            CloseCause::Idle => {
                self.evictions.inc();
                EventKind::Evicted(EvictReason::Idle)
            }
            CloseCause::Shutdown => EventKind::Evicted(EvictReason::Shutdown),
        };
        self.tracer.emit(kind, conn);
    }

    /// Records one backpressure stall (a connection crossing the
    /// high-water mark; emitted once per crossing, not per byte).
    pub(crate) fn backpressured(&self, conn: u64) {
        self.backpressure_stalls.inc();
        self.tracer.emit(EventKind::Backpressure, conn);
    }

    pub(crate) fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    fn snapshot(&self) -> TransportStats {
        // Gauge::snapshot guarantees peak >= current at the observation
        // point, which TransportStats documents.
        let (current, peak) = self.connections.snapshot();
        TransportStats {
            current_connections: current as usize,
            peak_connections: peak as usize,
            accepted: self.accepted.get(),
        }
    }
}

/// A running TCP server for the Communix protocol.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    transport: &'static str,
    reactors: usize,
    registry: Arc<Registry>,
    stats: Arc<SharedStats>,
    #[cfg(unix)]
    handle: crate::event::EventHandle,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and serves
    /// `handler` with the default [`TcpServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind and poller failures.
    pub fn bind(addr: &str, handler: Handler) -> io::Result<TcpServer> {
        Self::bind_with(addr, handler, TcpServerConfig::default())
    }

    /// [`TcpServer::bind`] with explicit [`TcpServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures, and the poller's own error where the
    /// platform has no usable poller — there is no second transport to
    /// fall back to.
    pub fn bind_with(
        addr: &str,
        handler: Handler,
        config: TcpServerConfig,
    ) -> io::Result<TcpServer> {
        #[cfg(unix)]
        {
            let listener = TcpListener::bind(addr)?;
            let addr = listener.local_addr()?;
            let registry = config
                .registry
                .clone()
                .unwrap_or_else(|| Arc::new(Registry::new()));
            let stats = Arc::new(SharedStats::resolve(&registry));
            let (handle, transport, reactors) =
                crate::event::spawn(listener, handler, &config, stats.clone(), &registry)?;
            Ok(TcpServer {
                addr,
                transport,
                reactors,
                registry,
                stats,
                handle,
            })
        }
        #[cfg(not(unix))]
        polling::Poller::new().and_then(|_| Err(io::ErrorKind::Unsupported.into()))
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The poller backend serving connections: `"event-epoll"` or
    /// `"event-poll"`.
    pub fn transport(&self) -> &'static str {
        self.transport
    }

    /// Reactor shards serving connections: the resolved value of
    /// [`TcpServerConfig::reactors`].
    pub fn reactors(&self) -> usize {
        self.reactors
    }

    /// Connection counter snapshot.
    pub fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    /// The telemetry registry this transport records into — the one
    /// passed via [`TcpServerConfig::registry`], or a private one.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The connection-lifecycle event tracer (accept/close/evict/
    /// backpressure/framing-error flight recorder).
    pub fn tracer(&self) -> &Arc<Tracer> {
        self.stats.tracer()
    }

    /// Stops serving and joins the transport. Live connections are
    /// dropped, not waited for. Idempotent.
    pub fn shutdown(&mut self) {
        #[cfg(unix)]
        self.handle.shutdown();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Error from a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Underlying socket failure.
    Io(io::Error),
    /// The server sent a malformed reply.
    Codec(CodecError),
    /// The connection closed before a reply arrived.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Codec(e) => write!(f, "codec error: {e}"),
            ClientError::Disconnected => f.write_str("server disconnected"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::sync::Mutex;
    use std::time::Instant;

    use crate::test_io::call;

    fn echo_handler() -> Handler {
        // A toy handler: GET(k) answers with k signatures "s0".."s(k-1)";
        // ADD acks and remembers nothing.
        Arc::new(|req| match req {
            Request::Add { .. } => Reply::AddAck {
                accepted: true,
                reason: String::new(),
            },
            Request::Get { from } => Reply::Sigs {
                from,
                sigs: (0..from).map(|i| format!("s{i}")).collect(),
            },
            Request::IssueId { user } => Reply::Id {
                id: [(user & 0xff) as u8; 16],
            },
            Request::AddBatch { adds } => Reply::BatchAck {
                results: adds
                    .iter()
                    .map(|_| crate::codec::AddResult {
                        accepted: true,
                        reason: String::new(),
                    })
                    .collect(),
            },
            Request::GetDelta { from, max } => Reply::Delta {
                from,
                total: from + u64::from(max),
                sigs: (0..max)
                    .map(|i| format!("s{}", from + u64::from(i)))
                    .collect(),
            },
            Request::Stats => Reply::Stats { json: "{}".into() },
        })
    }

    fn echo_server() -> TcpServer {
        TcpServer::bind("127.0.0.1:0", echo_handler()).expect("bind")
    }

    /// Every flavor of the transport a test may want to exercise.
    fn all_transports() -> Vec<TcpServer> {
        vec![
            TcpServer::bind("127.0.0.1:0", echo_handler()).expect("bind event"),
            TcpServer::bind_with(
                "127.0.0.1:0",
                echo_handler(),
                TcpServerConfig {
                    force_poll_backend: true,
                    ..TcpServerConfig::default()
                },
            )
            .expect("bind event-poll"),
            TcpServer::bind_with(
                "127.0.0.1:0",
                echo_handler(),
                TcpServerConfig {
                    reactors: 2,
                    ..TcpServerConfig::default()
                },
            )
            .expect("bind event 2-shard"),
        ]
    }

    #[test]
    fn transport_names_its_poller_backend() {
        let named: Vec<_> = all_transports().iter().map(|s| s.transport()).collect();
        assert!(
            matches!(named[0], "event-epoll" | "event-poll"),
            "got {named:?}"
        );
        assert_eq!(named[1], "event-poll");
    }

    #[test]
    fn request_reply_roundtrip_on_every_transport() {
        for server in all_transports() {
            let mut client = TcpStream::connect(server.addr()).unwrap();
            let add = Request::Add {
                sender: [1u8; 16],
                sig_text: "sig".into(),
            };
            let reply = call(&mut client, &add).unwrap();
            assert_eq!(
                reply,
                Reply::AddAck {
                    accepted: true,
                    reason: String::new()
                },
                "transport {}",
                server.transport()
            );
            let reply = call(&mut client, &Request::Get { from: 3 }).unwrap();
            assert_eq!(
                reply,
                Reply::Sigs {
                    from: 3,
                    sigs: vec!["s0".into(), "s1".into(), "s2".into()]
                }
            );
        }
    }

    #[test]
    fn multiple_sequential_calls_on_one_connection() {
        for server in all_transports() {
            let mut client = TcpStream::connect(server.addr()).unwrap();
            for i in 0..20 {
                let reply = call(&mut client, &Request::Get { from: i }).unwrap();
                match reply {
                    Reply::Sigs { from, sigs } => {
                        assert_eq!(from, i);
                        assert_eq!(sigs.len() as u64, i);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn concurrent_clients() {
        for server in all_transports() {
            let addr = server.addr();
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    for i in 0..50 {
                        let r = call(&mut c, &Request::Get { from: i }).unwrap();
                        assert!(matches!(r, Reply::Sigs { .. }));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let stats = server.stats();
            assert_eq!(stats.accepted, 8, "transport {}", server.transport());
            assert!(stats.peak_connections >= 1);
        }
    }

    #[test]
    fn server_sees_every_add() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let handler: Handler = Arc::new(move |req| {
            if let Request::Add { sig_text, .. } = &req {
                seen2.lock().unwrap().push(sig_text.clone());
            }
            Reply::AddAck {
                accepted: true,
                reason: String::new(),
            }
        });
        let server = TcpServer::bind("127.0.0.1:0", handler).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        for i in 0..5 {
            let add = Request::Add {
                sender: [0u8; 16],
                sig_text: format!("sig-{i}"),
            };
            call(&mut client, &add).unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), 5);
    }

    #[test]
    fn shutdown_is_idempotent_on_every_transport() {
        for mut server in all_transports() {
            server.shutdown();
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_completes_with_a_live_slow_client() {
        // Shutdown drops live connections, it does not wait for them:
        // a connected-but-silent client must not delay it.
        for mut server in all_transports() {
            let transport = server.transport();
            let _parked = TcpStream::connect(server.addr()).unwrap();
            let t0 = Instant::now();
            server.shutdown();
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{transport} shutdown took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn batched_messages_over_tcp() {
        let server = echo_server();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        let batch = Request::AddBatch {
            adds: (0..3)
                .map(|i| crate::codec::BatchAdd {
                    sender: [i as u8; 16],
                    sig_text: format!("sig-{i}"),
                })
                .collect(),
        };
        let reply = call(&mut client, &batch).unwrap();
        match reply {
            Reply::BatchAck { results } => assert_eq!(results.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        let reply = call(&mut client, &Request::GetDelta { from: 4, max: 2 }).unwrap();
        assert_eq!(
            reply,
            Reply::Delta {
                from: 4,
                total: 6,
                sigs: vec!["s4".into(), "s5".into()]
            }
        );
    }

    #[test]
    fn every_client_path_sets_tcp_nodelay() {
        // Pipelined small frames hit Nagle stalls (up to one RTT per
        // frame waiting for the previous ACK) unless TCP_NODELAY is set
        // on both ends: the nonblocking pipelined connection here, the
        // accepted socket in `Reactor::take_handoffs`.
        for server in all_transports() {
            let conn = crate::client_conn::NonblockingClient::connect(server.addr()).unwrap();
            assert!(
                conn.nodelay().unwrap(),
                "NonblockingClient to {} must set TCP_NODELAY",
                server.transport()
            );
        }
    }

    #[test]
    fn reactor_knob_is_honored() {
        let server = TcpServer::bind_with(
            "127.0.0.1:0",
            echo_handler(),
            TcpServerConfig {
                reactors: 3,
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        if cfg!(unix) {
            assert_eq!(server.reactors(), 3);
        }
        // The default resolves to at least one shard on unix.
        let auto = echo_server();
        if cfg!(unix) {
            assert!(auto.reactors() >= 1, "got {}", auto.reactors());
        }
    }

    #[test]
    fn issue_id_roundtrip() {
        let server = echo_server();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        let reply = call(&mut client, &Request::IssueId { user: 7 }).unwrap();
        assert_eq!(reply, Reply::Id { id: [7u8; 16] });
    }
}
