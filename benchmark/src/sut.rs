//! The system under test, as the benchmark sees it. This is the only
//! file that names the repo's crates, and it goes in through the doors
//! ROADMAP aim 2 keeps — `server::builder()`, `PipelinedClient` /
//! `PipelinedConnector`, `sync_delta` / `upload_batch` / `obtain_id`,
//! `CommunixNode`, `Store`, `CommunixAgent`, `DlxRuntime` — so the code
//! slated for deletion (`serve*`, `TcpClient`, `spawn*`, `single_lock`)
//! can go without touching the benchmark that judges the deletion.
//!
//! The first half wraps what the six workloads drive; the second half
//! ([`layer_probes`]) lists the public functions timed layer by layer.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use communix::agent::{AgentConfig, CommunixAgent, SignatureValidator, ValidatorConfig};
use communix::analysis::{NestingAnalyzer, NestingReport};
use communix::bytecode::{
    ClassBuilder, ClassLoader, ClassName, LockExpr, LoweredProgram, Program, ProgramBuilder,
    StmtSink,
};
use communix::client::{
    sync_delta, upload_batch, Connector, LocalRepository, PipelineConfig, PipelinedClient,
    PipelinedConnector,
};
use communix::clock::SystemClock;
use communix::crypto::{sha256, Aes128, Digest};
use communix::dimmunix::{
    AvoidanceMatcher, CallStack, DimmunixConfig, DimmunixCore, Frame, History, LockId, LockRecord,
    SigEntry, Signature, ThreadId,
};
use communix::net::{
    deframe, frame_reply_into, frame_request_into, BatchAdd, Handler, Reply, Request, TcpServer,
    TcpServerConfig,
};
use communix::runtime::{DlxRuntime, DlxThread, SimConfig, Simulator, ThreadSpec};
use communix::server::{CommunixServer, DurabilityConfig, Store, DEFAULT_SHARDS};
use communix::telemetry::Registry;
use communix::workloads::{SigGen, JBOSS};
use communix::{CommunixNode, CommunixPlugin, NodeConfig};

use crate::gen::{hash64, sub_seed, SetDigest};
use crate::layers::Probe;

/// An encrypted sender id as it travels in an ADD.
pub type SenderId = [u8; 16];

/// `n` random, structurally realistic signature texts (≈1.7 KB each),
/// pairwise non-adjacent within one call.
pub fn random_sig_texts(seed: u64, n: usize) -> Vec<String> {
    SigGen::new(seed).random_batch_texts(n)
}

/// Whether `text` is a well-formed signature (generator self-check).
#[cfg(test)]
pub fn parses(text: &str) -> bool {
    text.parse::<Signature>().is_ok()
}

/// Every numeric leaf of a JSON document as `("dotted.path", value)`
/// (the repo's own minimal reader; the benchmark vendors no serde).
pub fn json_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    communix::telemetry::json::flatten_numbers(text)
}

/// Escapes `s` for a JSON string (the same reader's counterpart).
pub fn json_escape(s: &str) -> String {
    communix::telemetry::json::escape(s)
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// What the traced handler closure saw of one request: enough for the
/// tracer to find the op it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// A single ADD, keyed by [`hash64`] of its signature text.
    Add(u64),
    /// Any other verb.
    Other,
}

impl Seen {
    fn of(request: &Request) -> Seen {
        match request {
            Request::Add { sig_text, .. } => Seen::Add(hash64(sig_text.as_bytes())),
            _ => Seen::Other,
        }
    }
}

/// The server-side trace seam: told about every
/// `CommunixServer::handle` of a tapped server while it is on.
pub trait HandleTap: Send + Sync {
    /// Whether spans are being recorded right now (off for the
    /// untraced baseline window of a traced run).
    fn on(&self) -> bool;
    /// One request was handled over `start..end`.
    fn handled(&self, seen: Seen, start: Instant, end: Instant);
}

/// The client-side trace seam: told about every blocking request of a
/// tapped [`Conn`] while it is on.
pub trait CallTap: Send + Sync {
    /// Whether spans are being recorded right now.
    fn on(&self) -> bool;
    /// A request is about to leave; the token comes back in `end`.
    fn begin(&self) -> u32;
    /// Its reply arrived.
    fn end(&self, token: u32, start: Instant, end: Instant);
}

/// Server counters read from the existing telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// ADDs newly stored.
    pub adds_accepted: u64,
    /// ADDs acked as duplicates.
    pub adds_duplicate: u64,
    /// ADDs refused by validation.
    pub adds_rejected: u64,
    /// ADDs acked off the dedup probe alone.
    pub dedup_fast_path: u64,
    /// WAL fsyncs.
    pub fsyncs: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
}

impl Counters {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            adds_accepted: self.adds_accepted - earlier.adds_accepted,
            adds_duplicate: self.adds_duplicate - earlier.adds_duplicate,
            adds_rejected: self.adds_rejected - earlier.adds_rejected,
            dedup_fast_path: self.dedup_fast_path - earlier.dedup_fast_path,
            fsyncs: self.fsyncs - earlier.fsyncs,
            snapshots: self.snapshots - earlier.snapshots,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
        }
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.adds_accepted += o.adds_accepted;
        self.adds_duplicate += o.adds_duplicate;
        self.adds_rejected += o.adds_rejected;
        self.dedup_fast_path += o.dedup_fast_path;
        self.fsyncs += o.fsyncs;
        self.snapshots += o.snapshots;
        self.wal_bytes += o.wal_bytes;
    }
}

fn counters_of(registry: &Registry) -> Counters {
    let c = |name: &str| registry.counter(name).get();
    Counters {
        adds_accepted: c("server.adds.accepted"),
        adds_duplicate: c("server.adds.duplicate"),
        adds_rejected: c("server.adds.rejected"),
        dedup_fast_path: c("server.dedup.fast_path_hits"),
        fsyncs: c("store.wal.fsyncs"),
        snapshots: c("store.snapshot.taken"),
        wal_bytes: c("store.wal.bytes"),
    }
}

/// A durable Communix server on loopback: default `ServerConfig`,
/// `DurabilityConfig::new(dir)` (2 ms group commit, 16 MiB snapshot
/// trigger), default reactors, assembled through `builder()`.
pub struct Server {
    core: Arc<CommunixServer>,
    tcp: TcpServer,
}

impl Server {
    /// Opens (or recovers) the store under `wal_dir` and serves it on
    /// `127.0.0.1:0`. With a `tap`, the same server is bound through
    /// `TcpServer::bind_with` with a handler closure around
    /// `CommunixServer::handle` — the seam `server.handle` spans come
    /// from.
    pub fn start(wal_dir: &Path, tap: Option<Arc<dyn HandleTap>>) -> io::Result<Server> {
        let builder = communix::server::builder().durability(DurabilityConfig::new(wal_dir));
        let (core, tcp) = match tap {
            None => builder.serve("127.0.0.1:0")?,
            Some(tap) => {
                let core = builder.build()?;
                let handler: Handler = {
                    let core = core.clone();
                    Arc::new(move |request| {
                        if !tap.on() {
                            return core.handle(request);
                        }
                        let seen = Seen::of(&request);
                        let start = Instant::now();
                        let reply = core.handle(request);
                        tap.handled(seen, start, Instant::now());
                        reply
                    })
                };
                let config = TcpServerConfig {
                    registry: Some(core.telemetry().clone()),
                    ..TcpServerConfig::default()
                };
                let tcp = TcpServer::bind_with("127.0.0.1:0", handler, config)?;
                (core, tcp)
            }
        };
        Ok(Server { core, tcp })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.tcp.addr()
    }

    /// Reactor shards the transport resolved to.
    pub fn reactors(&self) -> usize {
        self.tcp.reactors()
    }

    /// `"event-epoll"`, `"event-poll"` or `"threaded"`.
    pub fn transport(&self) -> &'static str {
        self.tcp.transport()
    }

    /// Signatures stored (`db().len()`).
    pub fn stored(&self) -> usize {
        self.core.db().len()
    }

    /// Mints a sender id in process (stands in for the paper's assumed
    /// issuance service; `obtain_id` is the over-the-wire door).
    pub fn mint_id(&self, user: u64) -> SenderId {
        self.core.authority().issue(user)
    }

    /// Current counter values.
    pub fn counters(&self) -> Counters {
        counters_of(self.core.telemetry())
    }

    /// Handles one request in process (input injection for probes).
    fn handle(&self, request: Request) -> Reply {
        self.core.handle(request)
    }

    /// Stops the transport and closes the store (joins the flusher,
    /// final fsync), so the directory can be reopened.
    ///
    /// # Errors
    ///
    /// Fails if a transport thread still holds the server.
    pub fn stop(self) -> Result<(), String> {
        let Server { core, mut tcp } = self;
        tcp.shutdown();
        drop(tcp);
        Arc::try_unwrap(core)
            .map(drop)
            .map_err(|_| "server still referenced after transport shutdown".to_string())
    }
}

/// Reopens the store under `wal_dir` through `builder()` and returns
/// the digest of everything it recovered.
pub fn recover(wal_dir: &Path) -> io::Result<SetDigest> {
    let core = communix::server::builder()
        .durability(DurabilityConfig::new(wal_dir))
        .build()?;
    let sigs = core.db().get_from(0);
    Ok(SetDigest::of(sigs.iter().map(String::as_str)))
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// Verdicts of one uploaded batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchVerdict {
    /// Newly stored.
    pub stored: usize,
    /// Acked as duplicates.
    pub duplicate: usize,
    /// Refused.
    pub refused: usize,
}

/// The blocking client: a `PipelinedConnector` behind the `Connector`
/// trait the sync helpers and `CommunixNode` take.
pub struct Conn {
    inner: PipelinedConnector,
    tap: Option<Arc<dyn CallTap>>,
}

impl Connector for Conn {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        let Some(tap) = self.tap.as_ref().filter(|t| t.on()) else {
            return self.inner.call(request);
        };
        let token = tap.begin();
        let start = Instant::now();
        let reply = self.inner.call(request);
        tap.end(token, start, Instant::now());
        reply
    }
}

impl Conn {
    /// Connects with the default pipeline config.
    pub fn connect(addr: SocketAddr, tap: Option<Arc<dyn CallTap>>) -> io::Result<Conn> {
        Ok(Conn {
            inner: PipelinedConnector::connect(addr)?,
            tap,
        })
    }

    /// `upload_batch`: one `ADD_BATCH` round trip.
    pub fn upload_batch(&mut self, adds: Vec<(SenderId, String)>) -> Result<BatchVerdict, String> {
        let results = upload_batch(self, adds).map_err(|e| e.to_string())?;
        let mut v = BatchVerdict::default();
        for r in results {
            match (r.accepted, r.reason.is_empty()) {
                (true, true) => v.stored += 1,
                (true, false) => v.duplicate += 1,
                (false, _) => v.refused += 1,
            }
        }
        Ok(v)
    }

    /// `sync_delta` into `repo` from its cursor, server-side window.
    pub fn sync_into(&mut self, repo: &mut Repo) -> Result<usize, String> {
        sync_delta(self, &mut repo.0, 0).map_err(|e| e.to_string())
    }
}

/// A client-side signature repository.
pub struct Repo(LocalRepository);

impl Repo {
    /// A fresh in-memory repository.
    pub fn new() -> Repo {
        Repo(LocalRepository::in_memory())
    }

    /// Signatures held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Order-free digest of the texts held.
    pub fn digest(&self) -> SetDigest {
        SetDigest::of((0..self.0.len()).filter_map(|i| self.0.sig(i)))
    }
}

/// Outcome of one pipelined single ADD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ack {
    /// Newly stored.
    Stored,
    /// Acked as a duplicate (the dedup path — a workload bug here).
    Duplicate,
    /// Refused, failed, or answered with the wrong reply.
    Failed(String),
}

/// The pipelined client engine: a bounded window of frames in flight
/// on one connection, completions by callback.
pub struct Pipe(PipelinedClient);

impl Pipe {
    /// Connects with `window` frames in flight at most.
    pub fn connect(addr: SocketAddr, window: usize) -> io::Result<Pipe> {
        let config = PipelineConfig {
            window,
            ..PipelineConfig::default()
        };
        Ok(Pipe(PipelinedClient::connect(addr, config)?))
    }

    /// Submits one single-`Add` frame (`submit(Request::Add)`, never
    /// coalesced into a batch).
    pub fn submit_add(
        &mut self,
        sender: SenderId,
        sig_text: String,
        done: impl FnOnce(Ack) + Send + 'static,
    ) {
        self.0.submit(
            Request::Add { sender, sig_text },
            Box::new(move |result| {
                done(match result {
                    Ok(Reply::AddAck {
                        accepted: true,
                        reason,
                    }) if reason.is_empty() => Ack::Stored,
                    Ok(Reply::AddAck { accepted: true, .. }) => Ack::Duplicate,
                    Ok(Reply::AddAck { reason, .. }) => Ack::Failed(reason),
                    Ok(other) => Ack::Failed(format!("unexpected reply {other:?}")),
                    Err(e) => Ack::Failed(e.to_string()),
                });
            }),
        );
    }

    /// Submits one `IssueId` frame; `done` hears whether an id came back.
    pub fn submit_issue_id(&mut self, user: u64, done: impl FnOnce(bool) + Send + 'static) {
        self.0.submit(
            Request::IssueId { user },
            Box::new(move |result| done(matches!(result, Ok(Reply::Id { .. })))),
        );
    }

    /// Submits one `GetDelta` frame; `done` hears how many signatures
    /// came back.
    pub fn submit_get_delta(&mut self, from: u64, done: impl FnOnce(usize) + Send + 'static) {
        self.0.submit(
            Request::GetDelta { from, max: 0 },
            Box::new(move |result| {
                done(match result {
                    Ok(Reply::Delta { sigs, .. }) => sigs.len(),
                    _ => 0,
                })
            }),
        );
    }

    /// Makes all progress possible without blocking.
    pub fn pump(&mut self) -> Result<(), String> {
        self.0.pump().map_err(|e| e.to_string())
    }

    /// Parks until the socket can make progress or `timeout` passes.
    pub fn wait(&mut self, timeout: Duration) -> Result<(), String> {
        self.0
            .wait(Some(timeout))
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Blocks until nothing is queued or in flight.
    pub fn drain(&mut self, timeout: Duration) -> Result<(), String> {
        self.0.drain(Some(timeout)).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

/// Depth of the call chain above each lock statement: outer stacks come
/// out `CHAIN_DEPTH + 2` deep, above the agent's minimum of five.
const CHAIN_DEPTH: usize = 4;

/// One generation of the relay's multi-bug application: `bugs` classes,
/// each with one lock-order inversion, built the way `MultiBugApp` is
/// but with per-generation class and lock names, so no signature of one
/// generation equals or neighbours a signature of another.
pub struct RelayApp {
    program: Program,
    specs: Vec<Vec<ThreadSpec>>,
}

fn chain<'p>(
    mut cb: ClassBuilder<'p>,
    class: &str,
    entry: &str,
    leaf: &str,
    first: String,
    second: String,
) -> ClassBuilder<'p> {
    let link = |i: usize| format!("{entry}_link{i}");
    cb = cb.plain_method(entry, |s| {
        s.call(class, &link(0));
    });
    for i in 0..CHAIN_DEPTH {
        let callee = if i + 1 == CHAIN_DEPTH {
            leaf.to_string()
        } else {
            link(i + 1)
        };
        cb = cb.plain_method(&link(i), |s| {
            s.call(class, &callee);
        });
    }
    cb.plain_method(leaf, move |s: &mut StmtSink<'_>| {
        s.sync(LockExpr::global(first), |s| {
            s.work(5).sync(LockExpr::global(second), |s| {
                s.work(1);
            });
        });
    })
}

impl RelayApp {
    /// Builds generation `generation` with `bugs` independent bugs.
    pub fn build(generation: u64, bugs: usize) -> RelayApp {
        let mut b = ProgramBuilder::new();
        let mut specs = Vec::with_capacity(bugs);
        for i in 0..bugs {
            let class = format!("relay.g{generation}.Feature{i}");
            let lock_a = format!("relay.g{generation}.A{i}");
            let lock_b = format!("relay.g{generation}.B{i}");
            let cb = b.class(&class);
            let cb = chain(
                cb,
                &class,
                "first",
                "lockAB",
                lock_a.clone(),
                lock_b.clone(),
            );
            let cb = chain(cb, &class, "second", "lockBA", lock_b, lock_a);
            cb.done();
            specs.push(vec![
                ThreadSpec::new(&class, "first", 1),
                ThreadSpec::new(&class, "second", 2),
            ]);
        }
        RelayApp {
            program: b.build(),
            specs,
        }
    }

    /// Bugs in this generation.
    pub fn bugs(&self) -> usize {
        self.specs.len()
    }

    /// Digest of the program's identity (class names and bytecode
    /// hashes) — what a seed-determinism check compares.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        program_digest(&self.program)
    }
}

#[cfg(test)]
fn program_digest(program: &Program) -> u64 {
    let mut text = String::new();
    for (class, hash) in program.hash_index() {
        text.push_str(class.as_str());
        text.push(' ');
        text.push_str(&hash.to_string());
        text.push('\n');
    }
    hash64(text.as_bytes())
}

/// What one `CommunixNode::startup` did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Repository signatures inspected.
    pub inspected: usize,
    /// Installed as new history entries.
    pub accepted: usize,
    /// Merged into existing entries.
    pub merged: usize,
    /// Already covered.
    pub duplicates: usize,
    /// Rejected by validation.
    pub rejected: usize,
    /// Deferred on nesting.
    pub deferred: usize,
}

impl Tally {
    /// Whether every inspected signature has exactly one outcome.
    pub fn adds_up(&self) -> bool {
        self.accepted + self.merged + self.duplicates + self.rejected + self.deferred
            == self.inspected
    }
}

/// What one simulated run of a bug did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Deadlocks detected.
    pub deadlocks: usize,
    /// Whether every thread ran to completion.
    pub all_finished: bool,
}

/// A `CommunixNode`.
pub struct Node(CommunixNode);

impl Node {
    /// A node running `app` as `user`, with the first-run nesting
    /// analysis already done (one start-up/shutdown cycle), so its next
    /// `startup` validates instead of deferring.
    pub fn for_relay(app: &RelayApp, user: u64) -> Node {
        let mut node = CommunixNode::new(app.program.clone(), NodeConfig::for_user(user));
        node.startup();
        node.shutdown();
        Node(node)
    }

    /// A node running the start-up application, nesting analysis done,
    /// whose repository holds the app's signatures uninspected and
    /// whose history is empty.
    pub fn for_startup(app: &StartupApp, user: u64) -> Node {
        let mut node = CommunixNode::new(app.program.clone(), NodeConfig::for_user(user));
        node.shutdown();
        node.repo_mut()
            .append(app.sig_texts.iter().cloned())
            .expect("in-memory repository");
        Node(node)
    }

    /// `obtain_id` over `conn`.
    pub fn obtain_id(&mut self, conn: &mut Conn) -> Result<(), String> {
        self.0.obtain_id(conn).map_err(|e| e.to_string())
    }

    /// Moves the repository's sync cursor to `cursor` (the server's
    /// tail), so the next sync is a delta of what arrives after.
    pub fn skip_to(&mut self, cursor: usize) {
        self.0
            .repo_mut()
            .set_sync_cursor(cursor)
            .expect("in-memory repository");
    }

    /// `CommunixNode::run` of bug `bug`'s two threads.
    pub fn run(&mut self, app: &RelayApp, bug: usize) -> RunResult {
        let outcome = self.0.run(&app.specs[bug]);
        RunResult {
            deadlocks: outcome.deadlocks.len(),
            all_finished: outcome.all_finished(),
        }
    }

    /// `upload_pending_batched`; returns how many the server accepted.
    pub fn upload(&mut self, conn: &mut Conn) -> Result<usize, String> {
        self.0
            .upload_pending_batched(conn)
            .map_err(|e| e.to_string())
    }

    /// `sync_batched`; returns how many signatures arrived.
    pub fn sync(&mut self, conn: &mut Conn) -> Result<usize, String> {
        self.0.sync_batched(conn).map_err(|e| e.to_string())
    }

    /// `CommunixNode::startup`.
    pub fn startup(&mut self) -> Tally {
        let r = self.0.startup();
        Tally {
            inspected: r.inspected,
            accepted: r.accepted,
            merged: r.merged,
            duplicates: r.duplicates,
            rejected: r.rejected,
            deferred: r.deferred,
        }
    }
}

/// The start-up workload's application and repository contents.
pub struct StartupApp {
    program: Program,
    lowered: LoweredProgram,
    report: NestingReport,
    sig_texts: Vec<String>,
}

impl StartupApp {
    /// `JBOSS.scaled(scale)` (Table I statistics) with `sigs`
    /// application-valid remote signatures from `SigGen`.
    pub fn build(seed: u64, scale: f64, sigs: usize) -> StartupApp {
        let program = JBOSS.scaled(scale).generate();
        let lowered = LoweredProgram::lower(&program);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let sig_texts = SigGen::new(seed).valid_remote_sig_texts(&program, &report, sigs);
        StartupApp {
            program,
            lowered,
            report,
            sig_texts,
        }
    }

    /// Classes in the program.
    pub fn classes(&self) -> usize {
        self.program.len()
    }

    /// Digest of program identity and signature texts.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        program_digest(&self.program) ^ SetDigest::of(self.sig_texts.iter().map(String::as_str)).sum
    }

    /// The stages `CommunixNode::startup` runs, replayed one by one on
    /// this app's inputs: class loading, bytecode hashing, history
    /// clone, agent pipeline. Each stage is handed to `span` with its
    /// name and interval.
    pub fn replay_startup(&self, mut span: impl FnMut(&'static str, Instant, Instant)) {
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            span(name, start, Instant::now());
        };
        let mut loader = ClassLoader::new();
        timed("bytecode.loader.load_all", &mut || {
            loader.load_all(&self.program)
        });
        let mut hashes = HashMap::new();
        timed("bytecode.loaded_hashes", &mut || {
            hashes = owned_hashes(loader.loaded_hashes(&self.program));
        });
        let mut agent = CommunixAgent::new(AgentConfig::default());
        agent.run_nesting_analysis(&self.lowered);
        let mut repo = LocalRepository::in_memory();
        repo.append(self.sig_texts.iter().cloned())
            .expect("in-memory repository");
        let empty = History::new();
        let mut history = History::new();
        timed("dimmunix.history.clone", &mut || history = empty.clone());
        timed("agent.startup", &mut || {
            agent.startup(&hashes, &mut repo, &mut history);
        });
    }
}

fn owned_hashes(hashes: impl IntoIterator<Item = (ClassName, Digest)>) -> HashMap<String, Digest> {
    hashes
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), v))
        .collect()
}

// ---------------------------------------------------------------------
// Lock runtime
// ---------------------------------------------------------------------

/// Hot lock sites the workers rotate over.
pub const LOCK_SITES: usize = 8;
/// Stack depth at each outer acquisition.
pub const LOCK_DEPTH: usize = 12;
/// History signatures that end at the hot sites (matched, never
/// instantiated); the rest of a history is off-path `SigGen` output.
const NEAR_MISSES: usize = 8;

const HOT_CLASS: &str = "lockbench.Hot";

fn hot_stack(site: usize) -> CallStack {
    (0..LOCK_DEPTH - 1)
        .map(|d| Frame::new(HOT_CLASS, format!("caller{d}"), 10 + d as u32))
        .chain(std::iter::once(hot_frame(site)))
        .collect()
}

fn hot_frame(site: usize) -> Frame {
    Frame::new(HOT_CLASS, format!("site{site}"), 100 + site as u32)
}

/// A history of `size` signatures: up to [`NEAR_MISSES`] whose first
/// outer stack is the 5-frame suffix of a hot stack (so the matcher's
/// suffix comparison succeeds on every acquisition at that site) and
/// whose second outer stack ends where no thread ever goes (so the
/// signature is never instantiated); the rest random and off-path.
fn lock_history(seed: u64, size: usize) -> History {
    let mut history = History::new();
    let near = size.min(NEAR_MISSES);
    for site in 0..near {
        let mut outer = hot_stack(site % LOCK_SITES);
        outer.truncate_to_suffix(5);
        let cold: CallStack = (0..5)
            .map(|d| Frame::new("lockbench.Cold", format!("cold{site}_{d}"), 900 + d))
            .collect();
        let inner = |line: u32| -> CallStack {
            std::iter::once(Frame::new("lockbench.Cold", "inner", line)).collect()
        };
        history.add(Signature::local(vec![
            SigEntry::new(outer, inner(700 + site as u32)),
            SigEntry::new(cold, inner(800 + site as u32)),
        ]));
    }
    for sig in SigGen::new(seed).random_batch(size - near) {
        history.add(sig);
    }
    history
}

/// `CoreStats` fields the lock workload checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockStats {
    /// Non-reentrant lock requests.
    pub requests: u64,
    /// Requests granted at once.
    pub immediate: u64,
    /// Deadlocks detected.
    pub deadlocks: u64,
    /// Requests suspended by avoidance.
    pub suspensions: u64,
}

/// A `DlxRuntime` seeded with a history.
#[derive(Clone)]
pub struct LockRuntime {
    rt: DlxRuntime,
    history_len: usize,
}

impl LockRuntime {
    /// A runtime with the default Dimmunix config and a history of
    /// `history` signatures (see [`lock_history`]).
    pub fn new(seed: u64, history: usize) -> LockRuntime {
        let rt = DlxRuntime::new(DimmunixConfig::default());
        let h = lock_history(seed, history);
        let history_len = h.len();
        rt.set_history(h);
        LockRuntime { rt, history_len }
    }

    /// Signatures in the history (equals the requested size unless the
    /// generator produced duplicates).
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Digest of the history's text form.
    #[cfg(test)]
    pub fn history_digest(&self) -> u64 {
        hash64(self.rt.history().to_text().as_bytes())
    }

    /// Registers the calling thread with two private locks.
    pub fn worker(&self) -> LockWorker {
        let thread = self.rt.register_thread();
        for d in 0..LOCK_DEPTH - 1 {
            thread.push_frame(HOT_CLASS, &format!("caller{d}"), 10 + d as u32);
        }
        LockWorker {
            outer: self.rt.fresh_lock(),
            inner: self.rt.fresh_lock(),
            sites: (0..LOCK_SITES).map(|s| format!("site{s}")).collect(),
            thread,
            next_site: 0,
        }
    }

    /// Core counters.
    pub fn stats(&self) -> LockStats {
        let s = self.rt.stats();
        LockStats {
            requests: s.requests,
            immediate: s.immediate_acquisitions,
            deadlocks: s.deadlocks_detected,
            suspensions: s.suspensions,
        }
    }

    /// Drains accumulated events; returns how many there were.
    pub fn drain_events(&self) -> usize {
        self.rt.drain_events().len()
    }
}

/// One registered thread of a [`LockRuntime`].
pub struct LockWorker {
    thread: DlxThread,
    outer: LockId,
    inner: LockId,
    sites: Vec<String>,
    next_site: usize,
}

impl LockWorker {
    /// `n` nested lock pairs (outer at a rotating hot site with a
    /// [`LOCK_DEPTH`]-deep stack, inner one frame deeper; two acquires
    /// and two releases each).
    ///
    /// # Errors
    ///
    /// Returns the aborted acquisition if Dimmunix saw a deadlock —
    /// private locks cannot produce one, so this is an output failure.
    pub fn pairs(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let site = self.next_site;
            self.next_site = (site + 1) % LOCK_SITES;
            self.thread
                .push_frame(HOT_CLASS, &self.sites[site], 100 + site as u32);
            let outer = self.thread.lock(self.outer).map_err(|e| e.to_string())?;
            self.thread
                .push_frame(HOT_CLASS, "nested", 200 + site as u32);
            let inner = self.thread.lock(self.inner).map_err(|e| e.to_string())?;
            drop(inner);
            self.thread.pop_frame();
            drop(outer);
            self.thread.pop_frame();
        }
        Ok(())
    }
}

/// `pairs` nested lock pairs straight on a private `DimmunixCore` (no
/// runtime mutex, no parkers) with the same stacks and history — the
/// isolated replay the lock workload's trace sets beside each batch.
pub struct CoreReplay {
    core: DimmunixCore,
    outer_stacks: Vec<CallStack>,
    inner_stacks: Vec<CallStack>,
}

impl CoreReplay {
    /// A core with the default config and a history of `history`
    /// signatures.
    pub fn new(seed: u64, history: usize) -> CoreReplay {
        let outer_stacks: Vec<CallStack> = (0..LOCK_SITES).map(hot_stack).collect();
        let inner_stacks = outer_stacks
            .iter()
            .enumerate()
            .map(|(s, stack)| {
                let mut deeper = stack.clone();
                deeper.push(Frame::new(HOT_CLASS, "nested", 200 + s as u32));
                deeper
            })
            .collect();
        CoreReplay {
            core: DimmunixCore::with_history(
                DimmunixConfig::default(),
                Arc::new(SystemClock::new()),
                lock_history(seed, history),
            ),
            outer_stacks,
            inner_stacks,
        }
    }

    /// Runs `n` pairs.
    pub fn pairs(&mut self, n: usize) {
        let (t, outer, inner) = (ThreadId(1), LockId(1), LockId(2));
        for i in 0..n {
            let site = i % LOCK_SITES;
            let _ = self.core.request(t, outer, self.outer_stacks[site].clone());
            let _ = self.core.request(t, inner, self.inner_stacks[site].clone());
            let _ = self.core.release(t, inner);
            let _ = self.core.release(t, outer);
        }
        let _ = self.core.drain_events();
    }
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// Scale of the JBoss profile the start-up workload and the
/// bytecode/analysis/agent probes share.
pub const STARTUP_SCALE: f64 = 0.1;
/// Uninspected signatures in the start-up workload's repository.
pub const STARTUP_SIGS: usize = 1000;

/// Runs `threads` workers for `pairs_each` lock pairs on a fresh
/// runtime and returns the wall time of the slowest.
fn lock_pairs_wall(rt: &LockRuntime, threads: usize, pairs_each: usize) -> Duration {
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (rt, barrier) = (rt.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut worker = rt.worker();
                barrier.wait();
                let start = Instant::now();
                worker
                    .pairs(pairs_each)
                    .expect("private locks never deadlock");
                start.elapsed()
            })
        })
        .collect();
    let wall = handles
        .into_iter()
        .map(|h| h.join().expect("lock worker panicked"))
        .max()
        .unwrap_or_default();
    rt.drain_events();
    wall
}

/// Hands out successive chunks of a text pool, each text once, so
/// every timed ADD is new to the store it goes to.
struct Fresh {
    texts: Arc<Vec<String>>,
    next: usize,
}

impl Fresh {
    fn new(texts: &Arc<Vec<String>>) -> Fresh {
        Fresh {
            texts: texts.clone(),
            next: 0,
        }
    }

    fn take(&mut self, n: usize) -> Option<&[String]> {
        let chunk = self.texts.get(self.next..self.next + n)?;
        self.next += n;
        Some(chunk)
    }
}

/// A scratch directory under `root`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(root: &Path, name: &str) -> ScratchDir {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Stores `texts` through `handle`, in process (senders rotating every
/// 8 from `first_user`, as the workloads do).
fn preload_in_process(server: &CommunixServer, texts: &[String], first_user: u64) {
    for (chunk_no, chunk) in texts.chunks(8).enumerate() {
        let sender = server.authority().issue(first_user + chunk_no as u64);
        let adds = chunk
            .iter()
            .map(|t| BatchAdd {
                sender,
                sig_text: t.clone(),
            })
            .collect();
        server.handle(Request::AddBatch { adds });
    }
    assert_eq!(server.db().len(), texts.len(), "probe preload stored all");
}

/// In-memory server holding `texts`.
fn mem_server(texts: &[String]) -> Arc<CommunixServer> {
    let server = communix::server::builder()
        .build()
        .expect("in-memory server");
    preload_in_process(&server, texts, 5_000_000);
    server
}

const ADD_BATCH: usize = 16;

/// Every per-layer probe, in reporting order. Inputs derive from
/// `seed`; durable stores live under `scratch` (on the repo's disk).
/// Probes that need a server start their own and stop it when dropped.
#[allow(clippy::too_many_lines)]
pub fn layer_probes(seed: u64, scratch: &Path) -> Vec<Probe> {
    let texts: Arc<Vec<String>> =
        Arc::new(random_sig_texts(sub_seed(seed, "layers.texts"), 10_000));
    let sigs: Arc<Vec<Signature>> = Arc::new(
        texts[..256]
            .iter()
            .map(|t| t.parse().expect("generated text parses"))
            .collect(),
    );
    let text_bytes = texts[0].len() as f64;
    let startup = Arc::new(StartupApp::build(
        sub_seed(seed, "layers.startup"),
        STARTUP_SCALE,
        STARTUP_SIGS,
    ));
    let valid: Arc<Vec<Signature>> = Arc::new(
        startup.sig_texts[..64]
            .iter()
            .map(|t| t.parse().expect("valid text parses"))
            .collect(),
    );
    let app_hashes = Arc::new(owned_hashes(startup.program.hash_index()));
    let relay = Arc::new(RelayApp::build(
        sub_seed(seed, "layers.relay") % 1_000_000,
        64,
    ));
    let lock_seed = sub_seed(seed, "layers.locks");

    let mut probes: Vec<Probe> = Vec::new();

    // ---- dimmunix ---------------------------------------------------
    {
        let texts = texts.clone();
        let mut at = 0;
        probes.push(Probe::time("dimmunix.signature.parse_us", "us", move |m| {
            let chunk = &texts[at..at + 16];
            at = (at + 16) % 4096;
            m.time(16.0, || {
                for t in chunk {
                    let _ = std::hint::black_box(t.parse::<Signature>());
                }
            });
            true
        }));
    }
    {
        let sigs = sigs.clone();
        probes.push(Probe::time(
            "dimmunix.signature.to_text_us",
            "us",
            move |m| {
                m.time(sigs.len() as f64, || {
                    for s in sigs.iter() {
                        std::hint::black_box(s.to_string());
                    }
                });
                true
            },
        ));
    }
    {
        let sigs = sigs.clone();
        probes.push(Probe::time(
            "dimmunix.signature.adjacent_ns",
            "ns",
            move |m| {
                m.time((sigs.len() - 1) as f64, || {
                    for pair in sigs.windows(2) {
                        std::hint::black_box(pair[0].adjacent_to(&pair[1]));
                    }
                });
                true
            },
        ));
    }
    for (name, h) in [
        ("dimmunix.matcher.probe_ns.h0", 0usize),
        ("dimmunix.matcher.probe_ns.h64", 64),
        ("dimmunix.matcher.probe_ns.h1024", 1024),
    ] {
        let mut matcher = AvoidanceMatcher::new(&lock_history(lock_seed, h));
        let candidates: Vec<LockRecord> = (0..LOCK_SITES)
            .map(|s| LockRecord {
                thread: ThreadId(1),
                lock: LockId(1),
                stack: hot_stack(s),
            })
            .collect();
        let records = vec![LockRecord {
            thread: ThreadId(2),
            lock: LockId(2),
            stack: hot_stack(0),
        }];
        probes.push(Probe::time(name, "ns", move |m| {
            m.time(1000.0, || {
                for i in 0..1000 {
                    std::hint::black_box(
                        matcher.would_instantiate(&candidates[i % LOCK_SITES], &records),
                    );
                }
            });
            true
        }));
    }
    {
        let history = lock_history(lock_seed, 64);
        let mut matcher = AvoidanceMatcher::new(&history);
        probes.push(Probe::time(
            "dimmunix.matcher.rebuild_us.h64",
            "us",
            move |m| {
                m.time(1.0, || matcher.rebuild(&history));
                true
            },
        ));
    }
    for (name, h) in [
        ("dimmunix.core.request_release_ns.h0", 0usize),
        ("dimmunix.core.request_release_ns.h64", 64),
    ] {
        let mut replay = CoreReplay::new(lock_seed, h);
        probes.push(Probe::time(name, "ns", move |m| {
            // A pair is two request/release round trips.
            m.time(2000.0, || replay.pairs(1000));
            true
        }));
    }
    {
        let valid = valid.clone();
        probes.push(Probe::time(
            "dimmunix.history.add_generalizing_us",
            "us",
            move |m| {
                let batch: Vec<Signature> = valid.iter().cloned().collect();
                let mut history = History::new();
                m.time(batch.len() as f64, || {
                    for s in batch {
                        let _ = history.add_generalizing(s, 5);
                    }
                });
                true
            },
        ));
    }
    {
        let history = lock_history(lock_seed, 64);
        probes.push(Probe::time(
            "dimmunix.history.clone_us.h64",
            "us",
            move |m| {
                m.time(1.0, || history.clone());
                true
            },
        ));
    }

    // ---- runtime ----------------------------------------------------
    for (name, threads, h) in [
        ("runtime.threads.lock_pair_ns.t1_h0", 1usize, 0usize),
        ("runtime.threads.lock_pair_ns.t1_h64", 1, 64),
        ("runtime.threads.lock_pair_ns.t2_h64", 2, 64),
        ("runtime.threads.lock_pair_ns.t2_h1024", 2, 1024),
    ] {
        let rt = LockRuntime::new(lock_seed, h);
        probes.push(Probe::time(name, "ns", move |m| {
            let pairs = 4000;
            m.push(lock_pairs_wall(&rt, threads, pairs), pairs as f64);
            true
        }));
    }
    {
        // Detection: each bug deadlocks once per simulator; a fresh
        // simulator (off the clock) when the generation is used up.
        let relay = relay.clone();
        let lowered = LoweredProgram::lower(&relay.program);
        let fresh = move || {
            Simulator::new(
                lowered.clone(),
                DimmunixConfig::default(),
                SimConfig::default(),
            )
        };
        let mut sim = fresh();
        let mut bug = 0;
        probes.push(Probe::time("runtime.sim.run_detect_us", "us", move |m| {
            if bug == relay.bugs() {
                sim = fresh();
                bug = 0;
            }
            let outcome = m.time(1.0, || sim.run(&relay.specs[bug]));
            assert_eq!(outcome.deadlocks.len(), 1, "unprotected run deadlocks");
            bug += 1;
            true
        }));
    }
    {
        let relay = relay.clone();
        let mut sim = Simulator::new(
            LoweredProgram::lower(&relay.program),
            DimmunixConfig::default(),
            SimConfig::default(),
        );
        for specs in &relay.specs {
            sim.run(specs);
        }
        let mut bug = 0;
        probes.push(Probe::time(
            "runtime.sim.run_protected_us",
            "us",
            move |m| {
                let outcome = m.time(1.0, || sim.run(&relay.specs[bug]));
                assert!(outcome.deadlocks.is_empty() && outcome.all_finished());
                bug = (bug + 1) % relay.bugs();
                true
            },
        ));
    }

    // ---- bytecode, crypto, analysis ---------------------------------
    {
        let app = startup.clone();
        probes.push(Probe::time("bytecode.lower_ms", "ms", move |m| {
            m.time(1.0, || LoweredProgram::lower(&app.program));
            true
        }));
    }
    {
        let app = startup.clone();
        probes.push(Probe::time("bytecode.hash_index_ms", "ms", move |m| {
            m.time(1.0, || app.program.hash_index());
            true
        }));
    }
    {
        let app = startup.clone();
        probes.push(Probe::time("bytecode.loader.load_all_us", "us", move |m| {
            let mut loader = ClassLoader::new();
            m.time(1.0, || loader.load_all(&app.program));
            true
        }));
    }
    {
        let block = vec![0xA5u8; 64 * 1024];
        probes.push(Probe::rate("crypto.sha256_mb_per_s", "MB/s", move |m| {
            m.time(16.0 * block.len() as f64 / 1e6, || {
                for _ in 0..16 {
                    std::hint::black_box(sha256(std::hint::black_box(&block)));
                }
            });
            true
        }));
    }
    {
        let aes = Aes128::new(&[7u8; 16]);
        probes.push(Probe::time("crypto.aes128.block_ns", "ns", move |m| {
            m.time(1000.0, || {
                let mut block = [0x42u8; 16];
                for _ in 0..1000 {
                    block = aes.encrypt_block(&block);
                }
                block
            });
            true
        }));
    }
    {
        let app = startup.clone();
        probes.push(Probe::time("analysis.nesting.analyze_ms", "ms", move |m| {
            m.time(1.0, || NestingAnalyzer::new(&app.lowered).analyze());
            true
        }));
    }

    // ---- agent --------------------------------------------------------
    {
        let (app, hashes, valid) = (startup.clone(), app_hashes.clone(), valid.clone());
        probes.push(Probe::time("agent.validate_us", "us", move |m| {
            let validator = SignatureValidator::new(
                hashes.iter().map(|(k, v)| (k.clone(), *v)),
                Some(&app.report),
                ValidatorConfig::default(),
            );
            m.time(valid.len() as f64, || {
                for s in valid.iter() {
                    let _ = std::hint::black_box(validator.validate(s));
                }
            });
            true
        }));
    }
    for (name, unit, n) in [
        ("agent.startup_ms.n1000", "ms", STARTUP_SIGS),
        ("agent.startup_us.n1", "us", 1),
        ("agent.startup_us.n0", "us", 0),
    ] {
        let (app, hashes) = (startup.clone(), app_hashes.clone());
        let mut agent = CommunixAgent::new(AgentConfig::default());
        agent.run_nesting_analysis(&app.lowered);
        probes.push(Probe::time(name, unit, move |m| {
            let mut repo = LocalRepository::in_memory();
            repo.append(app.sig_texts[..n].iter().cloned())
                .expect("in-memory repository");
            let mut history = History::new();
            let report = m.time(1.0, || agent.startup(&hashes, &mut repo, &mut history));
            assert_eq!(report.inspected, n);
            true
        }));
    }
    {
        // Useful outcomes over attempts: a repository that is four
        // parts this application's signatures and one part foreign.
        let (app, hashes, texts) = (startup.clone(), app_hashes.clone(), texts.clone());
        probes.push(Probe::value("agent.reject_share", "ratio", move |m| {
            let mut agent = CommunixAgent::new(AgentConfig::default());
            agent.run_nesting_analysis(&app.lowered);
            let mut repo = LocalRepository::in_memory();
            repo.append(
                app.sig_texts
                    .iter()
                    .chain(&texts[..app.sig_texts.len() / 4])
                    .cloned(),
            )
            .expect("in-memory repository");
            let report = agent.startup(&hashes, &mut repo, &mut History::new());
            m.value(report.rejected as f64 / report.inspected as f64);
            false
        }));
    }

    // ---- core: one relay round, stage by stage, over real TCP -------
    {
        let stages: [(&'static str, usize); 5] = [
            ("core.node.run_detect_us", 0),
            ("core.node.upload_us", 1),
            ("core.node.sync_us", 2),
            ("core.node.startup_us", 3),
            ("core.node.run_protected_us", 4),
        ];
        let rounds: Arc<std::sync::OnceLock<Vec<[Duration; 5]>>> =
            Arc::new(std::sync::OnceLock::new());
        for (name, stage) in stages {
            let (rounds, relay) = (rounds.clone(), relay.clone());
            let scratch = scratch.to_path_buf();
            probes.push(Probe::time(name, "us", move |m| {
                let rounds = rounds.get_or_init(|| relay_stage_times(&relay, &scratch));
                for r in rounds {
                    m.push(r[stage], 1.0);
                }
                false
            }));
        }
    }
    {
        let app = startup.clone();
        let mut node = CommunixNode::new(app.program.clone(), NodeConfig::for_user(1));
        node.shutdown();
        probes.push(Probe::time("core.node.startup_idle_ms", "ms", move |m| {
            let report = m.time(1.0, || node.startup());
            assert_eq!(report.inspected, 0);
            true
        }));
    }
    {
        let relay = relay.clone();
        let plugin = CommunixPlugin::for_program(&relay.program);
        let sig = Simulator::new(
            LoweredProgram::lower(&relay.program),
            DimmunixConfig::default(),
            SimConfig::default(),
        )
        .run(&relay.specs[0])
        .deadlocks
        .remove(0);
        probes.push(Probe::time(
            "core.plugin.attach_hashes_us",
            "us",
            move |m| {
                m.time(64.0, || {
                    for _ in 0..64 {
                        std::hint::black_box(plugin.attach_hashes(&sig));
                    }
                });
                true
            },
        ));
    }

    // ---- client and net transport: a scratch durable server ---------
    let rig = Arc::new(ClientRig::start(scratch, &texts[..4096]));
    {
        let rig = rig.clone();
        let mut pipe = Pipe::connect(rig.server.addr(), 1).expect("connect");
        probes.push(Probe::time("client.pipeline.rtt_us.w1", "us", move |m| {
            m.time(64.0, || issue_ids(&mut pipe, 64));
            true
        }));
    }
    {
        let rig = rig.clone();
        let mut pipe = Pipe::connect(rig.server.addr(), 16).expect("connect");
        probes.push(Probe::rate(
            "client.pipeline.issue_id_ops_per_s.w16",
            "1/s",
            move |m| {
                m.time(2000.0, || issue_ids(&mut pipe, 2000));
                true
            },
        ));
    }
    {
        let (rig, texts) = (rig.clone(), texts.clone());
        let mut conn = Conn::connect(rig.server.addr(), None).expect("connect");
        let mut repo = Repo::new();
        conn.sync_into(&mut repo).expect("initial catch-up");
        let mut fresh = Fresh::new(&texts);
        fresh.take(4096);
        let mut user = 6_000_000u64;
        probes.push(Probe::time("client.sync.delta_tail_us", "us", move |m| {
            let Some(chunk) = fresh.take(1) else {
                return false;
            };
            user += 1;
            let sender = rig.server.mint_id(user);
            rig.server.handle(Request::Add {
                sender,
                sig_text: chunk[0].clone(),
            });
            let got = m.time(1.0, || conn.sync_into(&mut repo));
            assert_eq!(got, Ok(1), "a delta of one");
            true
        }));
    }
    {
        let server = mem_server(&texts[..4096]);
        probes.push(Probe::rate(
            "client.sync.delta_inproc_sigs_per_s",
            "sigs/s",
            move |m| {
                let mut connector =
                    |request: Request| -> Result<Reply, String> { Ok(server.handle(request)) };
                let mut repo = LocalRepository::in_memory();
                let got = m.time(4096.0, || sync_delta(&mut connector, &mut repo, 0));
                assert_eq!(got.ok(), Some(4096));
                true
            },
        ));
    }
    {
        let texts = texts.clone();
        probes.push(Probe::time(
            "client.repo.append_ns_per_sig",
            "ns",
            move |m| {
                let batch: Vec<String> = texts[..1024].to_vec();
                let mut repo = LocalRepository::in_memory();
                m.time(1024.0, || repo.append(batch))
                    .expect("in-memory repository");
                true
            },
        ));
    }
    {
        let (rig, texts) = (rig.clone(), texts.clone());
        let mut conn = Conn::connect(rig.server.addr(), None).expect("connect");
        let mut fresh = Fresh::new(&texts);
        fresh.take(6000);
        let mut sent = 0u64;
        probes.push(Probe::time("client.upload_batch_us.n1", "us", move |m| {
            let Some(chunk) = fresh.take(1) else {
                return false;
            };
            let sender = rig.server.mint_id(7_000_000 + sent / 8);
            sent += 1;
            let adds = vec![(sender, chunk[0].clone())];
            let verdict = m.time(1.0, || conn.upload_batch(adds));
            assert_eq!(verdict.map(|v| v.stored), Ok(1));
            true
        }));
    }

    // ---- net: codec ---------------------------------------------------
    let add_request = Request::Add {
        sender: [7u8; 16],
        sig_text: texts[0].clone(),
    };
    let delta_reply = Arc::new(Reply::Delta {
        from: 0,
        total: 4096,
        sigs: texts[..4096].to_vec(),
    });
    {
        let request = add_request.clone();
        let mut buf = BytesMut::with_capacity(4096);
        probes.push(Probe::time("net.codec.encode_add_us", "us", move |m| {
            m.time(64.0, || {
                for _ in 0..64 {
                    buf.clear();
                    frame_request_into(&request, &mut buf);
                }
            });
            true
        }));
    }
    {
        let payload = add_request.encode();
        probes.push(Probe::time("net.codec.decode_add_us", "us", move |m| {
            m.time(64.0, || {
                for _ in 0..64 {
                    let _ = std::hint::black_box(Request::decode(payload.clone()));
                }
            });
            true
        }));
    }
    {
        let reply = delta_reply.clone();
        let mut buf = BytesMut::with_capacity(8 << 20);
        probes.push(Probe::time(
            "net.codec.encode_delta_ms.n4096",
            "ms",
            move |m| {
                buf.clear();
                m.time(1.0, || frame_reply_into(&reply, &mut buf));
                true
            },
        ));
    }
    {
        let payload = delta_reply.encode();
        probes.push(Probe::time(
            "net.codec.decode_delta_ms.n4096",
            "ms",
            move |m| {
                m.time(1.0, || Reply::decode(payload.clone()))
                    .expect("own encoding decodes");
                true
            },
        ));
    }
    {
        let mut one = BytesMut::new();
        frame_request_into(&add_request, &mut one);
        let frame = one.freeze();
        probes.push(Probe::time("net.codec.deframe_us", "us", move |m| {
            let mut buf = BytesMut::with_capacity(64 * frame.len());
            for _ in 0..64 {
                buf.extend_from_slice(&frame);
            }
            m.time(64.0, || {
                while let Ok(Some(payload)) = deframe(&mut buf) {
                    std::hint::black_box(payload);
                }
            });
            true
        }));
    }

    // ---- net: transport with a constant-reply handler ---------------
    let echo = Arc::new(EchoRig::start(&delta_reply));
    {
        let echo = echo.clone();
        let mut pipe = Pipe::connect(echo.tcp.addr(), 1).expect("connect");
        probes.push(Probe::time("net.transport.echo_rtt_us", "us", move |m| {
            let _keep = &echo;
            m.time(64.0, || issue_ids(&mut pipe, 64));
            true
        }));
    }
    {
        let echo = echo.clone();
        let mut pipe = Pipe::connect(echo.tcp.addr(), 16).expect("connect");
        probes.push(Probe::rate(
            "net.transport.echo_ops_per_s.w16",
            "1/s",
            move |m| {
                let _keep = &echo;
                m.time(2000.0, || issue_ids(&mut pipe, 2000));
                true
            },
        ));
    }
    {
        let echo = echo.clone();
        let mut pipe = Pipe::connect(echo.tcp.addr(), 1).expect("connect");
        let megabytes = 4096.0 * text_bytes / 1e6;
        probes.push(Probe::rate(
            "net.transport.reply_mb_per_s",
            "MB/s",
            move |m| {
                let _keep = &echo;
                let got = Arc::new(std::sync::atomic::AtomicUsize::new(0));
                let seen = got.clone();
                m.time(megabytes, || {
                    pipe.submit_get_delta(0, move |n| {
                        seen.store(n, std::sync::atomic::Ordering::Relaxed);
                    });
                    pipe.drain(Duration::from_secs(30)).expect("echo reply");
                });
                assert_eq!(got.load(std::sync::atomic::Ordering::Relaxed), 4096);
                true
            },
        ));
    }

    // ---- server -------------------------------------------------------
    {
        let server = mem_server(&[]);
        let mut user = 0u64;
        probes.push(Probe::time("server.auth.issue_ns", "ns", move |m| {
            m.time(1000.0, || {
                for _ in 0..1000 {
                    user += 1;
                    std::hint::black_box(server.authority().issue(user));
                }
            });
            true
        }));
    }
    {
        let server = mem_server(&[]);
        let ids: Vec<SenderId> = (0..1000).map(|u| server.authority().issue(u)).collect();
        probes.push(Probe::time("server.auth.verify_ns", "ns", move |m| {
            m.time(ids.len() as f64, || {
                for id in &ids {
                    std::hint::black_box(server.authority().verify(id));
                }
            });
            true
        }));
    }
    {
        let server = mem_server(&texts[..1024]);
        let mut fresh = Fresh::new(&texts);
        fresh.take(1024);
        let mut sent = 0u64;
        probes.push(Probe::time("server.handle.add_new_us", "us", move |m| {
            let Some(chunk) = fresh.take(8) else {
                return false;
            };
            sent += 1;
            let sender = server.authority().issue(sent);
            let requests: Vec<Request> = chunk
                .iter()
                .map(|t| Request::Add {
                    sender,
                    sig_text: t.clone(),
                })
                .collect();
            m.time(8.0, || {
                for r in requests {
                    std::hint::black_box(server.handle(r));
                }
            });
            true
        }));
    }
    {
        let server = mem_server(&texts[..1024]);
        let sender = server.authority().issue(1);
        let texts = texts.clone();
        probes.push(Probe::time("server.handle.add_dup_us", "us", move |m| {
            let requests: Vec<Request> = texts[..64]
                .iter()
                .map(|t| Request::Add {
                    sender,
                    sig_text: t.clone(),
                })
                .collect();
            m.time(64.0, || {
                for r in requests {
                    std::hint::black_box(server.handle(r));
                }
            });
            true
        }));
    }
    {
        let server = mem_server(&texts[..1024]);
        let mut fresh = Fresh::new(&texts);
        fresh.take(1024);
        let mut sent = 0u64;
        probes.push(Probe::time(
            "server.handle.add_batch_us_per_item.n16",
            "us",
            move |m| {
                let Some(chunk) = fresh.take(ADD_BATCH) else {
                    return false;
                };
                let adds = chunk
                    .iter()
                    .map(|t| {
                        sent += 1;
                        BatchAdd {
                            sender: server.authority().issue(1_000_000 + sent / 8),
                            sig_text: t.clone(),
                        }
                    })
                    .collect();
                m.time(ADD_BATCH as f64, || {
                    server.handle(Request::AddBatch { adds })
                });
                true
            },
        ));
    }
    {
        let server = mem_server(&texts[..4097]);
        probes.push(Probe::time(
            "server.handle.get_delta_us.tail",
            "us",
            move |m| {
                m.time(64.0, || {
                    for _ in 0..64 {
                        std::hint::black_box(
                            server.handle(Request::GetDelta { from: 4096, max: 0 }),
                        );
                    }
                });
                true
            },
        ));
    }
    {
        let server = mem_server(&texts[..4096]);
        probes.push(Probe::time(
            "server.handle.get_delta_ms.n4096",
            "ms",
            move |m| {
                m.time(1.0, || server.handle(Request::GetDelta { from: 0, max: 0 }));
                true
            },
        ));
    }
    {
        let server = mem_server(&[]);
        let mut user = 0u64;
        probes.push(Probe::time("server.handle.issue_id_us", "us", move |m| {
            m.time(256.0, || {
                for _ in 0..256 {
                    user += 1;
                    std::hint::black_box(server.handle(Request::IssueId { user }));
                }
            });
            true
        }));
    }
    {
        let mut fresh = Fresh::new(&texts);
        let db = mem_server(&[]).db();
        probes.push(Probe::time("server.db.add_us", "us", move |m| {
            let Some(chunk) = fresh.take(64) else {
                return false;
            };
            m.time(64.0, || {
                for t in chunk {
                    std::hint::black_box(db.add(t));
                }
            });
            true
        }));
    }
    {
        let db = mem_server(&texts[..4096]).db();
        let texts = texts.clone();
        probes.push(Probe::time("server.db.contains_ns", "ns", move |m| {
            m.time(256.0, || {
                // Half hits, half misses.
                for t in texts[3968..4224].iter() {
                    std::hint::black_box(db.contains(t));
                }
            });
            true
        }));
    }
    {
        let db = mem_server(&texts[..4096]).db();
        probes.push(Probe::time("server.db.delta_us.n4096", "us", move |m| {
            m.time(1.0, || db.delta(0, 4096));
            true
        }));
    }
    {
        let store = Store::in_memory(DEFAULT_SHARDS);
        let mut fresh = Fresh::new(&texts);
        probes.push(Probe::time("server.store.add_mem_us", "us", move |m| {
            let Some(chunk) = fresh.take(64) else {
                return false;
            };
            m.time(64.0, || {
                for t in chunk {
                    std::hint::black_box(store.add(t));
                }
            });
            true
        }));
    }
    {
        let dir = ScratchDir::new(scratch, "probe-store-durable");
        let store = Store::open(
            DEFAULT_SHARDS,
            DurabilityConfig::new(&dir.0),
            &Registry::new(),
        )
        .expect("open durable store");
        let mut fresh = Fresh::new(&texts);
        probes.push(Probe::time("server.store.add_durable_us", "us", move |m| {
            let _keep = &dir;
            // Stay below the 16 MiB snapshot trigger: this probe is the
            // append, `snapshot_ms` is the snapshot.
            let Some(chunk) = fresh.take(64).filter(|_| store.len() < 8000) else {
                return false;
            };
            m.time(64.0, || {
                for t in chunk {
                    std::hint::black_box(store.add(t));
                }
            });
            true
        }));
    }
    {
        let dir = ScratchDir::new(scratch, "probe-store-fsync");
        let registry = Registry::new();
        let store = Store::open(
            DEFAULT_SHARDS,
            DurabilityConfig {
                fsync_interval: Duration::ZERO,
                ..DurabilityConfig::new(&dir.0)
            },
            &registry,
        )
        .expect("open durable store");
        let mut fresh = Fresh::new(&texts);
        probes.push(Probe::time("server.store.add_fsync_us", "us", move |m| {
            let _keep = &dir;
            let Some(chunk) = fresh.take(1) else {
                return false;
            };
            m.time(1.0, || store.add(&chunk[0]));
            true
        }));
    }
    {
        let dir = ScratchDir::new(scratch, "probe-store-sync");
        // A group-commit interval longer than the probe, so the timed
        // `sync` finds the appended record still unsynced.
        let store = Store::open(
            DEFAULT_SHARDS,
            DurabilityConfig {
                fsync_interval: Duration::from_secs(3600),
                ..DurabilityConfig::new(&dir.0)
            },
            &Registry::new(),
        )
        .expect("open durable store");
        let mut fresh = Fresh::new(&texts);
        probes.push(Probe::time("server.store.sync_us", "us", move |m| {
            let _keep = &dir;
            let Some(chunk) = fresh.take(1) else {
                return false;
            };
            store.add(&chunk[0]);
            m.time(1.0, || store.sync()).expect("fsync");
            true
        }));
    }
    {
        // One store serves three metrics: 10 000 signatures in, then
        // explicit snapshots, then reopen for recovery, and the WAL's
        // write amplification read from its own counters.
        let big: Arc<std::sync::OnceLock<BigStore>> = Arc::new(std::sync::OnceLock::new());
        let make = {
            let (texts, scratch) = (texts.clone(), scratch.to_path_buf());
            move || BigStore::fill(&scratch, &texts)
        };
        {
            let (big, make) = (big.clone(), make.clone());
            probes.push(Probe::time(
                "server.store.snapshot_ms.n10k",
                "ms",
                move |m| {
                    let big = big.get_or_init(&make);
                    let store = big.store.lock().expect("store lock");
                    let store = store.as_ref().expect("snapshot runs before recovery");
                    m.time(1.0, || store.snapshot()).expect("snapshot");
                    true
                },
            ));
        }
        {
            let (big, make) = (big.clone(), make.clone());
            probes.push(Probe::time("server.store.recovery_ms", "ms", move |m| {
                let big = big.get_or_init(&make);
                // Close (joins the flusher, final fsync), then reopen.
                drop(big.store.lock().expect("store lock").take());
                let reopened = m
                    .time(1.0, || {
                        Store::open(
                            DEFAULT_SHARDS,
                            DurabilityConfig::new(&big.dir.0),
                            &Registry::new(),
                        )
                    })
                    .expect("reopen store");
                assert_eq!(reopened.len(), big.sigs, "recovery returns every signature");
                *big.store.lock().expect("store lock") = Some(reopened);
                true
            }));
        }
        {
            let (big, make) = (big.clone(), make);
            probes.push(Probe::value(
                "server.store.wal_bytes_per_sig_byte",
                "ratio",
                move |m| {
                    let big = big.get_or_init(&make);
                    m.value(big.wal_bytes as f64 / big.sig_bytes as f64);
                    false
                },
            ));
        }
    }

    // ---- telemetry ----------------------------------------------------
    {
        let histogram = Registry::new().histogram("probe");
        probes.push(Probe::time(
            "telemetry.histogram.record_ns",
            "ns",
            move |m| {
                m.time(1000.0, || {
                    for v in 0..1000u64 {
                        histogram.record(v * 37);
                    }
                });
                true
            },
        ));
    }

    probes
}

/// Round-trips `n` `IssueId` requests through `pipe`, as fast as its
/// window allows.
fn issue_ids(pipe: &mut Pipe, n: u64) {
    let ok = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for user in 0..n {
        let ok = ok.clone();
        pipe.submit_issue_id(user, move |got| {
            ok.fetch_add(u64::from(got), std::sync::atomic::Ordering::Relaxed);
        });
    }
    pipe.drain(Duration::from_secs(30)).expect("id replies");
    assert_eq!(ok.load(std::sync::atomic::Ordering::Relaxed), n);
}

/// A durable server over TCP for the client probes, preloaded.
struct ClientRig {
    server: Server,
    _dir: ScratchDir,
}

impl ClientRig {
    fn start(scratch: &Path, preload: &[String]) -> ClientRig {
        let dir = ScratchDir::new(scratch, "probe-client-rig");
        let server = Server::start(&dir.0, None).expect("start probe server");
        preload_in_process(&server.core, preload, 8_000_000);
        ClientRig { server, _dir: dir }
    }
}

/// `TcpServer::bind` with a constant-reply handler: the transport and
/// codec with no server behind them.
struct EchoRig {
    tcp: TcpServer,
}

impl EchoRig {
    fn start(delta: &Arc<Reply>) -> EchoRig {
        let delta = delta.clone();
        let handler: Handler = Arc::new(move |request| match request {
            // The handler type returns an owned reply, so the large
            // reply is cloned per request; that copy is in the number.
            Request::GetDelta { .. } => (*delta).clone(),
            _ => Reply::Id { id: [0u8; 16] },
        });
        EchoRig {
            tcp: TcpServer::bind("127.0.0.1:0", handler).expect("bind echo server"),
        }
    }
}

/// A durable store holding every probe text.
struct BigStore {
    store: std::sync::Mutex<Option<Store>>,
    dir: ScratchDir,
    sigs: usize,
    sig_bytes: u64,
    wal_bytes: u64,
}

impl BigStore {
    fn fill(scratch: &Path, texts: &[String]) -> BigStore {
        let dir = ScratchDir::new(scratch, "probe-store-big");
        let registry = Registry::new();
        let store = Store::open(DEFAULT_SHARDS, DurabilityConfig::new(&dir.0), &registry)
            .expect("open durable store");
        let mut sig_bytes = 0u64;
        for t in texts {
            store.add(t);
            sig_bytes += t.len() as u64;
        }
        BigStore {
            sigs: store.len(),
            store: std::sync::Mutex::new(Some(store)),
            dir,
            sig_bytes,
            wal_bytes: registry.counter("store.wal.bytes").get(),
        }
    }
}

/// One relay round per bug of `app` against a scratch durable server
/// over TCP, returning each round's five stage durations.
fn relay_stage_times(app: &RelayApp, scratch: &Path) -> Vec<[Duration; 5]> {
    let dir = ScratchDir::new(scratch, "probe-relay");
    let server = Server::start(&dir.0, None).expect("start probe server");
    let mut conn_a = Conn::connect(server.addr(), None).expect("connect");
    let mut conn_b = Conn::connect(server.addr(), None).expect("connect");
    let mut b = Node::for_relay(app, 9_000_000);
    let mut rounds = Vec::with_capacity(app.bugs());
    let mut a = None;
    for bug in 0..app.bugs() {
        if bug % 8 == 0 {
            let mut victim = Node::for_relay(app, 9_000_001 + bug as u64);
            victim.obtain_id(&mut conn_a).expect("obtain id");
            a = Some(victim);
        }
        let a = a.as_mut().expect("victim built");
        let mut stage = [Duration::ZERO; 5];
        let mut t = Instant::now();
        let mut lap = |i: usize| {
            let now = Instant::now();
            stage[i] = now - t;
            t = now;
        };
        let detected = a.run(app, bug);
        lap(0);
        let accepted = a.upload(&mut conn_a);
        lap(1);
        let arrived = b.sync(&mut conn_b);
        lap(2);
        let tally = b.startup();
        lap(3);
        let protected = b.run(app, bug);
        lap(4);
        assert_eq!(
            (detected.deadlocks, accepted, arrived, tally.accepted),
            (1, Ok(1), Ok(1), 1)
        );
        assert!(protected.deadlocks == 0 && protected.all_finished);
        rounds.push(stage);
    }
    drop((conn_a, conn_b));
    server.stop().expect("stop probe server");
    rounds
}
