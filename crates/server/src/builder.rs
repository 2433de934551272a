//! The one door for standing up a Communix server.
//!
//! Four values have one chainable setter each on [`ServerBuilder`]: the
//! §III-C daily limit, the store's durability, the reactor shards and
//! the clock. Sizes are not among them: a reply window closes at
//! [`REPLY_BUDGET`](communix_net::REPLY_BUDGET) bytes, a signature text
//! may be [`MAX_SIG_BYTES`](communix_net::MAX_SIG_BYTES) long, and the
//! per-sender state has [`DEFAULT_SHARDS`](crate::DEFAULT_SHARDS) shards.
//! [`build`](ServerBuilder::build) yields an unbound server,
//! [`serve`](ServerBuilder::serve) also binds its TCP transport.
//!
//! ```no_run
//! let (server, tcp) = communix_server::builder()
//!     .reactors(4)
//!     .serve("127.0.0.1:0")
//!     .unwrap();
//! println!("listening on {} via {}", tcp.addr(), tcp.transport());
//! # let _ = server;
//! ```
//!
//! With durability:
//!
//! ```no_run
//! use communix_server::DurabilityConfig;
//!
//! let (server, tcp) = communix_server::builder()
//!     .durability(DurabilityConfig::new("/var/lib/communix"))
//!     .serve("0.0.0.0:7077")
//!     .unwrap();
//! println!("recovered {:?}", server.store().recovery());
//! # let _ = tcp;
//! ```

use std::io;
use std::sync::Arc;

use communix_clock::{Clock, SystemClock};
use communix_net::{Handler, TcpServer, TcpServerConfig};
use communix_telemetry::Registry;

use crate::server::{CommunixServer, DAILY_LIMIT};
use crate::store::{DurabilityConfig, Store};

/// Builder for a [`CommunixServer`] and (optionally) its TCP transport.
/// Start from [`builder`](crate::builder); finish with
/// [`build`](ServerBuilder::build) for an unbound server or
/// [`serve`](ServerBuilder::serve) to also bind the transport.
#[derive(Debug, Default)]
pub struct ServerBuilder {
    daily_limit: Option<usize>,
    durability: Option<DurabilityConfig>,
    reactors: usize,
    clock: Option<Arc<dyn Clock>>,
}

impl ServerBuilder {
    /// Maximum signatures processed per sender per day (paper: 10).
    #[must_use]
    pub fn daily_limit(mut self, limit: usize) -> Self {
        self.daily_limit = Some(limit);
        self
    }

    /// Journals the signature store (see [`DurabilityConfig::new`] for
    /// the defaults); recovery runs inside
    /// [`build`](ServerBuilder::build). Without it the store is in
    /// memory.
    #[must_use]
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Reactor shards of the transport (`0`, the default, sizes to the
    /// machine).
    #[must_use]
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }

    /// Clock driving rate limiting (tests pass a `VirtualClock`).
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the [`CommunixServer`] (recovering the durable store
    /// first, when configured) without binding a transport.
    ///
    /// # Errors
    ///
    /// Propagates durable-store recovery failures.
    pub fn build(self) -> io::Result<Arc<CommunixServer>> {
        Ok(self.build_parts()?.0)
    }

    /// Builds the server and binds it on `addr` (port 0 for ephemeral).
    /// The transport records into the server's telemetry registry, so
    /// one `STATS` snapshot spans the request path, the connection
    /// gauges and every reactor shard (`transport.reactor.<i>.*`).
    ///
    /// # Errors
    ///
    /// Propagates durable-store recovery and bind failures.
    pub fn serve(self, addr: &str) -> io::Result<(Arc<CommunixServer>, TcpServer)> {
        let (server, reactors) = self.build_parts()?;
        let tcp = TcpServerConfig {
            reactors,
            registry: Some(server.telemetry().clone()),
            ..TcpServerConfig::default()
        };
        let handler: Handler = {
            let server = server.clone();
            Arc::new(move |req| server.handle(req))
        };
        let tcp_server = TcpServer::bind_with(addr, handler, tcp)?;
        Ok((server, tcp_server))
    }

    fn build_parts(self) -> io::Result<(Arc<CommunixServer>, usize)> {
        let clock = self.clock.unwrap_or_else(|| Arc::new(SystemClock::new()));
        let registry = Arc::new(Registry::new());
        let store = match self.durability {
            Some(durability) => Store::open(0, durability, &registry)?,
            None => Store::in_memory_with(&registry),
        };
        let daily_limit = self.daily_limit.unwrap_or(DAILY_LIMIT);
        let server = CommunixServer::new(daily_limit, clock, registry, store);
        Ok((Arc::new(server), self.reactors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_client::{Connector, PipelinedConnector};
    use communix_clock::VirtualClock;
    use communix_net::{Reply, Request};

    #[test]
    fn builder_defaults_match_server_defaults() {
        let server = crate::builder().build().unwrap();
        assert!(!server.store().is_durable());
    }

    /// The verdict of one `ADD` of `sig_text` from `user`.
    fn add(server: &CommunixServer, user: u64, sig_text: String) -> (bool, String) {
        let sender = server.authority().issue(user);
        let Reply::AddAck { accepted, reason } = server.handle(Request::Add { sender, sig_text })
        else {
            panic!("expected AddAck")
        };
        (accepted, reason)
    }

    #[test]
    fn builder_knobs_reach_the_server() {
        let clock = Arc::new(VirtualClock::new());
        let server = crate::builder()
            .daily_limit(2)
            .clock(clock.clone())
            .build()
            .unwrap();
        // daily_limit(2): the sender's third ADD of the day is refused.
        assert_eq!(add(&server, 7, sig_with(100)), (true, String::new()));
        assert_eq!(add(&server, 7, sig_with(1100)), (true, String::new()));
        assert_eq!(
            add(&server, 7, sig_with(2100)),
            (false, "daily signature budget exhausted".to_string())
        );
        // clock(..): the budget refreshes once the virtual day is over.
        clock.advance(communix_clock::DAY + communix_clock::Duration::from_secs(1));
        assert_eq!(add(&server, 7, sig_with(2100)), (true, String::new()));
    }

    #[test]
    fn builder_serves_over_tcp() {
        let (server, tcp) = crate::builder().serve("127.0.0.1:0").unwrap();
        assert!(tcp.transport().starts_with("event-"));
        let mut c = PipelinedConnector::connect(tcp.addr()).unwrap();
        let Reply::Id { id } = c.call(Request::IssueId { user: 4 }).unwrap() else {
            panic!("expected Id")
        };
        assert!(server.authority().verify(&id).is_some());
        let sig_text = sig_with(100);
        assert_eq!(
            c.call(Request::Add {
                sender: id,
                sig_text
            })
            .unwrap(),
            Reply::AddAck {
                accepted: true,
                reason: String::new()
            }
        );
        assert!(matches!(
            c.call(Request::Get { from: 0 }).unwrap(),
            Reply::Sigs { .. }
        ));
    }

    #[test]
    fn builder_reactor_knob_reaches_the_transport() {
        let (_server, tcp) = crate::builder().reactors(2).serve("127.0.0.1:0").unwrap();
        assert_eq!(tcp.reactors(), 2);
    }

    /// The numbers of a `STATS` reply fetched over `c`, by path.
    fn stats_over(c: &mut PipelinedConnector) -> impl Fn(&str) -> f64 {
        let Reply::Stats { json } = c.call(Request::Stats).unwrap() else {
            panic!("expected Stats reply");
        };
        let nums = communix_telemetry::json::flatten_numbers(&json).expect("valid json");
        move |path: &str| {
            nums.iter()
                .find(|(p, _)| p == path)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {path} in {json}"))
        }
    }

    #[test]
    fn stats_over_tcp_covers_server_and_transport() {
        let (srv, tcp) = crate::builder().serve("127.0.0.1:0").unwrap();
        assert!(
            Arc::ptr_eq(srv.telemetry(), tcp.telemetry()),
            "transport must share the server's registry"
        );
        let mut c = PipelinedConnector::connect(tcp.addr()).unwrap();
        c.call(Request::Get { from: 0 }).unwrap();
        let find = stats_over(&mut c);
        // One snapshot sees the request path *and* the connection layer.
        assert_eq!(find("counters.server.gets"), 1.0);
        assert_eq!(find("counters.transport.accepted"), 1.0);
        assert_eq!(find("gauges.transport.connections.current"), 1.0);
        assert!(find("histograms.server.latency.get.count") == 1.0);
    }

    #[test]
    fn stats_snapshot_spans_every_reactor_shard() {
        let (_srv, tcp) = crate::builder().reactors(4).serve("127.0.0.1:0").unwrap();
        assert_eq!(tcp.reactors(), 4);
        // Several live connections so the accept thread has something to
        // spread; each makes a call so every shard's loop actually ran.
        let mut clients: Vec<PipelinedConnector> = (0..6)
            .map(|_| PipelinedConnector::connect(tcp.addr()).unwrap())
            .collect();
        for c in &mut clients {
            c.call(Request::Get { from: 0 }).unwrap();
        }
        let find = stats_over(&mut clients[0]);
        let per_shard: f64 = (0..4)
            .map(|i| find(&format!("gauges.transport.reactor.{i}.connections.current")))
            .sum();
        assert_eq!(per_shard, find("gauges.transport.connections.current"));
        assert_eq!(per_shard, 6.0);
        assert_eq!(
            find("counters.transport.accept_handoffs"),
            find("counters.transport.accepted")
        );
        let shard_frames: f64 = (0..4)
            .map(|i| find(&format!("counters.transport.reactor.{i}.frames")))
            .sum();
        // 6 GETs + 1 STATS, every one decoded on some shard.
        assert_eq!(shard_frames, 7.0);
    }

    #[test]
    fn durable_builder_recovers_across_restarts() {
        let dir =
            std::env::temp_dir().join(format!("communix-builder-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sig = sig_with(100);
        {
            let (server, tcp) = crate::builder()
                .durability(DurabilityConfig::new(&dir))
                .serve("127.0.0.1:0")
                .unwrap();
            assert!(server.store().is_durable());
            let id = server.authority().issue(1);
            let mut c = PipelinedConnector::connect(tcp.addr()).unwrap();
            let Reply::AddAck { accepted, .. } = c
                .call(Request::Add {
                    sender: id,
                    sig_text: sig.clone(),
                })
                .unwrap()
            else {
                panic!("expected AddAck")
            };
            assert!(accepted);
            server.store().sync().unwrap();
        }
        let server = crate::builder()
            .durability(DurabilityConfig::new(&dir))
            .build()
            .unwrap();
        assert_eq!(server.store().recovery().wal_records, 1);
        assert_eq!(server.db().get_from(0), vec![sig]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A parseable depth-6 signature whose frames all sit at lines
    /// `base..base + 506`: bases 1000 apart give signatures with
    /// disjoint frames (never adjacent).
    fn sig_with(base: u32) -> String {
        use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
        let deep = |base: u32| -> CallStack {
            (0..6).map(|i| Frame::new("app.C", "f", base + i)).collect()
        };
        Signature::local(vec![
            SigEntry::new(deep(base), deep(base + 400)),
            SigEntry::new(deep(base + 100), deep(base + 500)),
        ])
        .to_string()
    }
}
