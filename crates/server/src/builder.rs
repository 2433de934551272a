//! One front door for standing up a Communix server.
//!
//! Historically the crate grew three parallel entry points — [`serve`]
//! (event transport), [`serve_reactors`] (event transport with an
//! explicit shard count), and [`serve_threaded`] /
//! `TcpServer::threaded` (the thread-per-connection baseline) — each
//! taking a pre-built [`CommunixServer`] and a loose
//! [`TcpServerConfig`]. [`ServerBuilder`] collapses them: every knob
//! (server tunables, durability, transport choice, reactor shards,
//! telemetry, clock) is a chainable method, and the old functions
//! survive as thin shims over the builder so existing callers compile
//! unchanged.
//!
//! ```no_run
//! let (server, tcp) = communix_server::builder()
//!     .db_shards(32)
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
//! let (server, tcp) = communix_server::builder()
//!     .durable("/var/lib/communix")
//!     .serve("0.0.0.0:7077")
//!     .unwrap();
//! println!("recovered {:?}", server.store().recovery());
//! # let _ = tcp;
//! ```

use std::io;
use std::sync::Arc;
use std::time::Duration;

use communix_clock::{Clock, SystemClock};
use communix_net::{Handler, TcpServer, TcpServerConfig};
use communix_telemetry::Registry;

use crate::server::{CommunixServer, ServerConfig};
use crate::store::DurabilityConfig;

#[allow(unused_imports)] // rustdoc links in the module docs above
use crate::transport::{serve, serve_reactors, serve_threaded};

/// Which transport [`ServerBuilder::serve`] binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The event-driven readiness loop (the C10K default).
    #[default]
    Event,
    /// The thread-per-connection baseline.
    Threaded,
}

/// Builder for a [`CommunixServer`] and (optionally) its TCP transport.
/// Start from [`builder`](crate::builder); finish with
/// [`build`](ServerBuilder::build) for an unbound server or
/// [`serve`](ServerBuilder::serve) to also bind the transport.
#[derive(Debug, Default)]
pub struct ServerBuilder {
    config: ServerConfig,
    durability: Option<DurabilityConfig>,
    transport: TransportKind,
    tcp: TcpServerConfig,
    clock: Option<Arc<dyn Clock>>,
    registry: Option<Arc<Registry>>,
    prebuilt: Option<Arc<CommunixServer>>,
}

impl ServerBuilder {
    /// Maximum signatures processed per sender per day (paper: 10).
    #[must_use]
    pub fn daily_limit(mut self, limit: usize) -> Self {
        self.config.daily_limit = limit;
        self
    }

    /// Signature-store shards; `0` selects the single-lock baseline.
    #[must_use]
    pub fn db_shards(mut self, shards: usize) -> Self {
        self.config.db_shards = shards;
        self
    }

    /// Server-side `GET_DELTA` reply window.
    #[must_use]
    pub fn delta_window(mut self, window: usize) -> Self {
        self.config.delta_window = window;
        self
    }

    /// Replaces the whole [`ServerConfig`] at once.
    #[must_use]
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Journals the signature store under `dir` with default durability
    /// knobs (see [`DurabilityConfig::new`]); recovery runs inside
    /// [`build`](ServerBuilder::build).
    #[must_use]
    pub fn durable(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durability(DurabilityConfig::new(dir))
    }

    /// Journals the signature store with explicit durability knobs.
    #[must_use]
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Uses the event-driven transport (the default).
    #[must_use]
    pub fn event(mut self) -> Self {
        self.transport = TransportKind::Event;
        self
    }

    /// Uses the thread-per-connection baseline transport.
    #[must_use]
    pub fn threaded(mut self) -> Self {
        self.transport = TransportKind::Threaded;
        self
    }

    /// Reactor shards for the event transport (`0` sizes to the
    /// machine).
    #[must_use]
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.tcp.reactors = reactors;
        self
    }

    /// Idle-connection eviction bound (`None` disables eviction).
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.tcp.idle_timeout = timeout;
        self
    }

    /// Forces the portable `poll(2)` backend even where epoll exists.
    #[must_use]
    pub fn force_poll_backend(mut self, force: bool) -> Self {
        self.tcp.force_poll_backend = force;
        self
    }

    /// Replaces the whole [`TcpServerConfig`] at once (its `registry`
    /// field defaults to the server's own at serve time).
    #[must_use]
    pub fn tcp_config(mut self, config: TcpServerConfig) -> Self {
        self.tcp = config;
        self
    }

    /// Telemetry registry the server (and transport) record into;
    /// default is a fresh registry per server.
    #[must_use]
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Clock driving rate limiting (tests pass a `VirtualClock`).
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Serves an existing server instead of building one — the bridge
    /// the legacy `serve*` shims ride through. Server-side knobs
    /// (`daily_limit`, `db_shards`, `durable`, `registry`, `clock`) are
    /// ignored when a server is attached; transport knobs still apply.
    #[must_use]
    pub fn attach(mut self, server: Arc<CommunixServer>) -> Self {
        self.prebuilt = Some(server);
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

    /// Builds (or reuses the attached) server and binds it on `addr`
    /// (port 0 for ephemeral) over the configured transport.
    ///
    /// # Errors
    ///
    /// Propagates durable-store recovery and bind failures.
    pub fn serve(self, addr: &str) -> io::Result<(Arc<CommunixServer>, TcpServer)> {
        let (server, transport, mut tcp) = self.build_parts()?;
        if tcp.registry.is_none() {
            tcp.registry = Some(server.telemetry().clone());
        }
        let handler: Handler = {
            let server = server.clone();
            Arc::new(move |req| server.handle(req))
        };
        let tcp_server = match transport {
            TransportKind::Event => TcpServer::bind_with(addr, handler, tcp)?,
            TransportKind::Threaded => TcpServer::threaded_with(addr, handler, tcp)?,
        };
        Ok((server, tcp_server))
    }

    fn build_parts(self) -> io::Result<(Arc<CommunixServer>, TransportKind, TcpServerConfig)> {
        let server = match self.prebuilt {
            Some(server) => server,
            None => {
                let clock = self.clock.unwrap_or_else(|| Arc::new(SystemClock::new()));
                let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
                match self.durability {
                    Some(durability) => Arc::new(CommunixServer::open_durable(
                        self.config,
                        durability,
                        clock,
                        registry,
                    )?),
                    None => Arc::new(CommunixServer::with_registry(self.config, clock, registry)),
                }
            }
        };
        Ok((server, self.transport, self.tcp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_clock::VirtualClock;
    use communix_net::{Reply, Request, TcpClient};

    #[test]
    fn builder_defaults_match_server_defaults() {
        let server = crate::builder().build().unwrap();
        assert_eq!(server.db().shard_count(), crate::DEFAULT_SHARDS);
        assert!(!server.store().is_durable());
    }

    #[test]
    fn builder_knobs_reach_the_server() {
        let clock = Arc::new(VirtualClock::new());
        let registry = Arc::new(Registry::new());
        let server = crate::builder()
            .daily_limit(2)
            .db_shards(0)
            .delta_window(1)
            .clock(clock)
            .registry(registry.clone())
            .build()
            .unwrap();
        assert_eq!(server.db().shard_count(), 1, "db_shards(0) = single lock");
        assert!(Arc::ptr_eq(server.telemetry(), &registry));
        let Reply::SharedDelta { sigs, .. } = server.handle(Request::GetDelta { from: 0, max: 0 })
        else {
            panic!("expected Delta")
        };
        assert!(sigs.is_empty());
    }

    #[test]
    fn builder_serves_both_transports() {
        let (server, tcp) = crate::builder().serve("127.0.0.1:0").unwrap();
        if cfg!(unix) {
            assert!(tcp.transport().starts_with("event-"));
        }
        assert!(
            Arc::ptr_eq(server.telemetry(), tcp.telemetry()),
            "transport defaults to the server's registry"
        );
        let mut c = TcpClient::connect(tcp.addr()).unwrap();
        assert!(matches!(
            c.call(&Request::Get { from: 0 }).unwrap(),
            Reply::Sigs { .. }
        ));

        let (_server, tcp) = crate::builder().threaded().serve("127.0.0.1:0").unwrap();
        assert_eq!(tcp.transport(), "threaded");
        let mut c = TcpClient::connect(tcp.addr()).unwrap();
        assert!(matches!(
            c.call(&Request::Get { from: 0 }).unwrap(),
            Reply::Sigs { .. }
        ));
    }

    #[cfg(unix)]
    #[test]
    fn builder_reactor_knob_matches_serve_reactors() {
        let (_server, tcp) = crate::builder().reactors(2).serve("127.0.0.1:0").unwrap();
        assert_eq!(tcp.reactors(), 2);
    }

    #[test]
    fn attach_serves_an_existing_server() {
        let existing = crate::builder().daily_limit(3).build().unwrap();
        let (served, tcp) = crate::builder()
            .attach(existing.clone())
            .threaded()
            .serve("127.0.0.1:0")
            .unwrap();
        assert!(Arc::ptr_eq(&existing, &served));
        assert_eq!(tcp.transport(), "threaded");
    }

    #[test]
    fn durable_builder_recovers_across_restarts() {
        let dir =
            std::env::temp_dir().join(format!("communix-builder-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sig = test_sig();
        {
            let (server, tcp) = crate::builder()
                .durable(&dir)
                .threaded()
                .serve("127.0.0.1:0")
                .unwrap();
            assert!(server.store().is_durable());
            let id = server.authority().issue(1);
            let mut c = TcpClient::connect(tcp.addr()).unwrap();
            let Reply::AddAck { accepted, .. } = c
                .call(&Request::Add {
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
        let server = crate::builder().durable(&dir).build().unwrap();
        assert_eq!(server.store().recovery().wal_records, 1);
        assert_eq!(server.db().get_from(0), vec![sig]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A minimal parseable signature (depth ≥ 1 on both stacks).
    fn test_sig() -> String {
        use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
        let deep = |base: u32| -> CallStack {
            (0..6).map(|i| Frame::new("app.C", "f", base + i)).collect()
        };
        Signature::local(vec![
            SigEntry::new(deep(100), deep(500)),
            SigEntry::new(deep(200), deep(600)),
        ])
        .to_string()
    }
}
