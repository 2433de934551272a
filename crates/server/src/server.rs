//! The Communix server: request handling and server-side validation.
//!
//! "The Communix server collects in a database all the deadlock
//! signatures discovered by Java applications running with Dimmunix on
//! arbitrary machines" (§III-B). Before adding an incoming signature it
//! performs the server-side validation of §III-C2:
//!
//! 1. the signature must carry a valid encrypted sender id;
//! 2. the same sender must not have previously sent an *adjacent*
//!    signature (some but not all top frames in common);
//! 3. at most 10 signatures per day are processed per sender (§III-C1).
//!
//! # Throughput structure
//!
//! The request path is built so the common cases never serialize on a
//! single lock:
//!
//! * exact duplicates are detected under the signature log's *read*
//!   lock before the signature is even parsed (see [`SignatureDb`]), so
//!   re-sent signatures never take a write lock or touch per-user
//!   validation state; a new signature takes the database's one append
//!   lock, and probes and reads share the log's lock, never waiting on
//!   the journal;
//! * per-user rate-limit/adjacency state is sharded by user id, and a
//!   sender's checks and its add run as one step under its shard's lock;
//! * counters live in a lock-free telemetry [`Registry`]
//!   ([`ServerStats`] is a view over it), and every request's latency
//!   is recorded into a per-opcode histogram — one relaxed atomic add
//!   per bucket, never a lock.
//!
//! Batched requests (`ADD_BATCH`, `GET_DELTA`) run the same per-item
//! validation as their single-signature counterparts. `GET` and
//! `GET_DELTA` read through one window, [`SignatureDb::window`]: it
//! holds at most the `GET_DELTA` client's `max` signatures and closes at
//! the last one within [`REPLY_BUDGET`](communix_net::REPLY_BUDGET)
//! bytes of reply. An ADD whose text exceeds [`MAX_SIG_BYTES`] is
//! refused before it costs a dedup probe.
//!
//! # Observability
//!
//! The server answers [`Request::Stats`] with a JSON rendering of its
//! telemetry snapshot: outcome counters, per-reject-reason counters,
//! dedup fast-path hits, per-opcode latency histograms, and the
//! database's size gauges (refreshed at snapshot time, not on the hot
//! path).
//! When served over TCP the transport registers its own connection
//! gauges and counters in the same registry, so one `STATS` round trip
//! observes the whole stack.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use communix_clock::{Clock, Instant, DAY};
use communix_dimmunix::{Signature, Site};
use communix_net::{AddResult, EncryptedId, Reply, Request, MAX_SIG_BYTES};
use communix_telemetry::{Counter, Histogram, Registry, Snapshot};
use parking_lot::Mutex;

use crate::auth::IdAuthority;
use crate::db::SignatureDb;
use crate::store::Store;

/// Why an ADD was rejected (mirrored into the wire reply's reason text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The encrypted id failed verification.
    BadId,
    /// The signature text did not parse.
    Malformed,
    /// The sender already sent an adjacent signature.
    Adjacent,
    /// The sender exhausted its daily budget.
    RateLimited,
    /// The text is longer than [`MAX_SIG_BYTES`].
    TooLarge,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::BadId => "invalid encrypted sender id",
            RejectReason::Malformed => "malformed signature",
            RejectReason::Adjacent => "adjacent signature from same sender",
            RejectReason::RateLimited => "daily signature budget exhausted",
            RejectReason::TooLarge => "signature too large to serve",
        }
    }
}

/// Signatures processed per sender per day unless the builder sets
/// another limit (§III-C1).
pub(crate) const DAILY_LIMIT: usize = 10;

/// Mutexes of the per-sender validation state, by user id. Each is held
/// across its sender's checks and store add; one for all senders cost
/// `upload_durable` 22% of its ADDs per second (2 vCPUs). `Store::open`
/// and `Store::in_memory` take it unused, as `benchmark/` passes it.
pub const DEFAULT_SHARDS: usize = 16;

/// Aggregate server counters — a point-in-time view over the server's
/// telemetry [`Registry`] (the registry owns the live cells; this
/// struct is what [`CommunixServer::stats`] copies out of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// ADDs accepted (newly stored) — batched items count individually.
    pub adds_accepted: u64,
    /// ADDs that were exact duplicates (acked, not re-stored).
    pub adds_duplicate: u64,
    /// ADDs rejected by validation.
    pub adds_rejected: u64,
    /// GET requests served.
    pub gets: u64,
    /// Signature texts shipped in GET / GET_DELTA replies.
    pub sigs_served: u64,
    /// Ids issued.
    pub ids_issued: u64,
    /// ADD_BATCH requests served (items are counted in the `adds_*`).
    pub batches: u64,
    /// GET_DELTA requests served.
    pub deltas: u64,
}

/// Pre-resolved telemetry handles. Registering a metric takes the
/// registry's lock, so the server resolves every series it records on
/// the request path once at construction; recording through the
/// [`Arc`] handles afterwards is lock-free.
#[derive(Debug)]
struct ServerMetrics {
    adds_accepted: Arc<Counter>,
    adds_duplicate: Arc<Counter>,
    adds_rejected: Arc<Counter>,
    gets: Arc<Counter>,
    sigs_served: Arc<Counter>,
    ids_issued: Arc<Counter>,
    batches: Arc<Counter>,
    deltas: Arc<Counter>,
    stats_requests: Arc<Counter>,
    /// ADDs acked off the dedup probe alone (the log's read lock, no
    /// parse, no per-user state).
    dedup_fast_path: Arc<Counter>,
    reject_bad_id: Arc<Counter>,
    reject_malformed: Arc<Counter>,
    reject_adjacent: Arc<Counter>,
    reject_rate_limited: Arc<Counter>,
    reject_too_large: Arc<Counter>,
    latency_add: Arc<Histogram>,
    latency_get: Arc<Histogram>,
    latency_issue_id: Arc<Histogram>,
    latency_add_batch: Arc<Histogram>,
    latency_get_delta: Arc<Histogram>,
    latency_stats: Arc<Histogram>,
}

impl ServerMetrics {
    fn resolve(registry: &Registry) -> Self {
        ServerMetrics {
            adds_accepted: registry.counter("server.adds.accepted"),
            adds_duplicate: registry.counter("server.adds.duplicate"),
            adds_rejected: registry.counter("server.adds.rejected"),
            gets: registry.counter("server.gets"),
            sigs_served: registry.counter("server.sigs_served"),
            ids_issued: registry.counter("server.ids_issued"),
            batches: registry.counter("server.batches"),
            deltas: registry.counter("server.deltas"),
            stats_requests: registry.counter("server.stats_requests"),
            dedup_fast_path: registry.counter("server.dedup.fast_path_hits"),
            reject_bad_id: registry.counter("server.reject.bad_id"),
            reject_malformed: registry.counter("server.reject.malformed"),
            reject_adjacent: registry.counter("server.reject.adjacent"),
            reject_rate_limited: registry.counter("server.reject.rate_limited"),
            reject_too_large: registry.counter("server.reject.too_large"),
            latency_add: registry.histogram("server.latency.add"),
            latency_get: registry.histogram("server.latency.get"),
            latency_issue_id: registry.histogram("server.latency.issue_id"),
            latency_add_batch: registry.histogram("server.latency.add_batch"),
            latency_get_delta: registry.histogram("server.latency.get_delta"),
            latency_stats: registry.histogram("server.latency.stats"),
        }
    }

    /// The latency histogram for a [`Request::opcode`] name.
    fn latency(&self, opcode: &str) -> &Histogram {
        match opcode {
            "add" => &self.latency_add,
            "get" => &self.latency_get,
            "issue_id" => &self.latency_issue_id,
            "add_batch" => &self.latency_add_batch,
            "get_delta" => &self.latency_get_delta,
            _ => &self.latency_stats,
        }
    }

    fn reject(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::BadId => &self.reject_bad_id,
            RejectReason::Malformed => &self.reject_malformed,
            RejectReason::Adjacent => &self.reject_adjacent,
            RejectReason::RateLimited => &self.reject_rate_limited,
            RejectReason::TooLarge => &self.reject_too_large,
        }
    }
}

/// Outcome of validating + storing one ADD (single or batched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddDecision {
    Accepted,
    Duplicate,
    Rejected(RejectReason),
}

/// What the server keeps per sender: only what §III-C's checks read.
#[derive(Debug, Default)]
struct UserState {
    /// The top-frame sites of each signature accepted from this sender —
    /// all the adjacency check compares — built once per ADD; the parsed
    /// signature itself is dropped (its text lives in the store).
    accepted: Vec<BTreeSet<Site>>,
    /// Times of processed ADDs within the trailing day (rate limiting).
    processed: VecDeque<Instant>,
}

/// The Communix server. Thread-safe: [`CommunixServer::handle`] may be
/// called concurrently from any number of threads; over TCP one thread
/// per reactor calls it.
///
/// # Example
///
/// ```
/// use communix_net::{Reply, Request};
///
/// let server = communix_server::builder().build().unwrap();
/// let id = server.authority().issue(1);
/// match server.handle(Request::Get { from: 0 }) {
///     Reply::Sigs { sigs, .. } => assert!(sigs.is_empty()),
///     other => panic!("unexpected {other:?}"),
/// }
/// # let _ = id;
/// ```
#[derive(Debug)]
pub struct CommunixServer {
    /// Maximum signatures processed per sender per day.
    daily_limit: usize,
    store: Store,
    authority: IdAuthority,
    /// Per-user validation state in [`DEFAULT_SHARDS`] shards by user id
    /// (index `user % users.len()`), so concurrent senders rarely share
    /// a mutex.
    users: Box<[Mutex<HashMap<u64, UserState>>]>,
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
}

impl CommunixServer {
    /// A server over `store`, recording into `registry` (the store's
    /// own). [`builder`](crate::builder) is the public door.
    pub(crate) fn new(
        daily_limit: usize,
        clock: Arc<dyn Clock>,
        registry: Arc<Registry>,
        store: Store,
    ) -> Self {
        let metrics = ServerMetrics::resolve(&registry);
        CommunixServer {
            daily_limit,
            store,
            authority: IdAuthority::default(),
            users: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            clock,
            registry,
            metrics,
        }
    }

    /// The id authority (examples use it to mint client ids, standing in
    /// for the paper's assumed issuance service).
    pub fn authority(&self) -> &IdAuthority {
        &self.authority
    }

    /// The current in-memory signature database. The returned `Arc`
    /// pins one epoch: it stays readable across a concurrent GC swap
    /// (which installs a fresh database under the store).
    pub fn db(&self) -> Arc<SignatureDb> {
        self.store.db()
    }

    /// The unified signature store — durability state (epoch, recovery
    /// report, explicit `sync`) lives here.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Counter snapshot (a view over the telemetry registry).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            adds_accepted: self.metrics.adds_accepted.get(),
            adds_duplicate: self.metrics.adds_duplicate.get(),
            adds_rejected: self.metrics.adds_rejected.get(),
            gets: self.metrics.gets.get(),
            sigs_served: self.metrics.sigs_served.get(),
            ids_issued: self.metrics.ids_issued.get(),
            batches: self.metrics.batches.get(),
            deltas: self.metrics.deltas.get(),
        }
    }

    /// The telemetry registry this server records into. Share it with
    /// the transport (as [`ServerBuilder::serve`](crate::ServerBuilder::serve)
    /// does) to fold connection metrics into the same `STATS` snapshot.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time telemetry snapshot. The database gauges
    /// (`server.db.sigs`, `server.db.bytes`, `server.db.epoch`) are
    /// refreshed here, at snapshot time, rather than on the hot path.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let db = self.store.db();
        self.registry.gauge("server.db.sigs").set(db.len() as u64);
        self.registry
            .gauge("server.db.bytes")
            .set(db.stored_bytes() as u64);
        self.registry
            .gauge("server.db.epoch")
            .set(self.store.epoch());
        self.registry.snapshot()
    }

    /// Processes one request — the paper's "request processing routine"
    /// (Figure 2), called over TCP from at most one thread per reactor.
    /// Every request's wall-clock latency lands in the
    /// `server.latency.<opcode>` histogram.
    pub fn handle(&self, request: Request) -> Reply {
        let opcode = request.opcode();
        let start = std::time::Instant::now();
        let reply = self.dispatch(request);
        self.metrics
            .latency(opcode)
            .record_duration(start.elapsed());
        reply
    }

    fn dispatch(&self, request: Request) -> Reply {
        match request {
            Request::Add { sender, sig_text } => {
                let AddResult { accepted, reason } = self.add_one(&sender, &sig_text);
                Reply::AddAck { accepted, reason }
            }
            Request::AddBatch { adds } => {
                self.metrics.batches.inc();
                let results = adds
                    .iter()
                    .map(|add| self.add_one(&add.sender, &add.sig_text))
                    .collect();
                Reply::BatchAck { results }
            }
            Request::Get { from } => self.handle_get(from),
            Request::GetDelta { from, max } => self.handle_get_delta(from, max),
            Request::IssueId { user } => {
                self.metrics.ids_issued.inc();
                Reply::Id {
                    id: self.authority.issue(user),
                }
            }
            Request::Stats => {
                self.metrics.stats_requests.inc();
                Reply::Stats {
                    json: self.telemetry_snapshot().render_json(),
                }
            }
        }
    }

    /// One ADD, decided, counted and answered: a lone `ADD` is an
    /// `ADD_BATCH` of one.
    fn add_one(&self, sender: &EncryptedId, sig_text: &str) -> AddResult {
        let decision = self.process_add(sender, sig_text);
        self.count(decision);
        Self::verdict(decision)
    }

    /// The ADD decision: validation (§III-C) plus storage.
    ///
    /// The dedup probe runs *first*, before the signature is parsed and
    /// before any per-user state is locked: an exact duplicate of a
    /// stored signature was already validated when it was accepted, so
    /// re-sends are acked off the log's read lock alone — they take no
    /// write lock and consume no daily budget.
    fn process_add(&self, sender: &EncryptedId, sig_text: &str) -> AddDecision {
        // Check 1: the encrypted id must verify (§III-C2).
        let Some(user) = self.authority.verify(sender) else {
            return AddDecision::Rejected(RejectReason::BadId);
        };

        // §III-C bounds what one sender can make the server keep: a text
        // many times any real signature's is refused before its probe.
        if sig_text.len() > MAX_SIG_BYTES {
            return AddDecision::Rejected(RejectReason::TooLarge);
        }

        // Dedup fast path (read locks only).
        if self.store.contains(sig_text).is_some() {
            self.metrics.dedup_fast_path.inc();
            return AddDecision::Duplicate;
        }

        // The signature must parse (a malformed signature cannot be
        // validated, stored, or served). Adjacency reads only its top
        // frames, so those are all that outlive the parse.
        let Ok(sites) = sig_text
            .parse::<Signature>()
            .map(|sig| sig.top_frame_sites())
        else {
            return AddDecision::Rejected(RejectReason::Malformed);
        };

        let now = self.clock.now();
        let mut users = self.user_shard(user).lock();
        let state = users.entry(user).or_default();

        // Check 3 (§III-C1): at most `daily_limit` signatures processed
        // per user per trailing day.
        while let Some(front) = state.processed.front() {
            if now.saturating_duration_since(*front) > DAY {
                state.processed.pop_front();
            } else {
                break;
            }
        }
        if state.processed.len() >= self.daily_limit {
            return AddDecision::Rejected(RejectReason::RateLimited);
        }
        state.processed.push_back(now);

        // Check 2 (§III-C2): no adjacent signature from the same sender.
        if state
            .accepted
            .iter()
            .any(|prior| Signature::sites_adjacent(prior, &sites))
        {
            return AddDecision::Rejected(RejectReason::Adjacent);
        }

        let (_, added) = self.store.add(sig_text);
        if added {
            state.accepted.push(sites);
            AddDecision::Accepted
        } else {
            // Lost a race with an identical add that slipped in after
            // the fast-path probe.
            AddDecision::Duplicate
        }
    }

    fn user_shard(&self, user: u64) -> &Mutex<HashMap<u64, UserState>> {
        &self.users[(user as usize) % self.users.len()]
    }

    fn count(&self, decision: AddDecision) {
        match decision {
            AddDecision::Accepted => self.metrics.adds_accepted.inc(),
            AddDecision::Duplicate => self.metrics.adds_duplicate.inc(),
            AddDecision::Rejected(reason) => {
                self.metrics.adds_rejected.inc();
                self.metrics.reject(reason).inc();
            }
        }
    }

    fn verdict(decision: AddDecision) -> AddResult {
        let (accepted, reason) = match decision {
            AddDecision::Accepted => (true, String::new()),
            AddDecision::Duplicate => (true, "duplicate".into()),
            AddDecision::Rejected(reason) => (false, reason.as_str().into()),
        };
        AddResult { accepted, reason }
    }

    /// `GET(k)`: the paper's "everything from index `k`", one budgeted
    /// window at a time — a `GET_DELTA` with no count cap.
    fn handle_get(&self, from: u64) -> Reply {
        let (sigs, _) = self.store.db().window(from as usize, 0);
        self.metrics.gets.inc();
        self.metrics.sigs_served.add(sigs.len() as u64);
        let sigs = sigs.iter().map(|s| String::from(&**s)).collect();
        Reply::Sigs { from, sigs }
    }

    fn handle_get_delta(&self, from: u64, max: u32) -> Reply {
        // After a GC the total falls below old cursors: the client's
        // signal that the store switched epochs.
        let (sigs, total) = self.store.db().window(from as usize, max as usize);
        self.metrics.deltas.inc();
        self.metrics.sigs_served.add(sigs.len() as u64);
        // Handles to the stored texts: the transport encodes the `DELTA`
        // frame straight from them.
        Reply::SharedDelta {
            from,
            total: total as u64,
            sigs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_clock::VirtualClock;
    use communix_dimmunix::{CallStack, Frame, SigEntry};
    use proptest::prelude::*;

    fn server() -> (Arc<CommunixServer>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        (
            crate::builder().clock(clock.clone()).build().unwrap(),
            clock,
        )
    }

    fn cs(frames: &[(&str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    /// A depth-6, two-entry signature parameterized by `tag` (distinct
    /// tags ⇒ fully disjoint top frames).
    fn sig(tag: u32) -> Signature {
        let deep = |base: u32| -> Vec<(String, u32)> {
            (0..6).map(|i| ("f".to_string(), base + i)).collect()
        };
        let mk = |base: u32| -> CallStack {
            deep(base)
                .iter()
                .map(|(m, l)| Frame::new("app.C", m.as_str(), *l))
                .collect()
        };
        Signature::local(vec![
            SigEntry::new(mk(tag * 1000), cs(&[("in1", tag * 1000 + 500)])),
            SigEntry::new(mk(tag * 1000 + 100), cs(&[("in2", tag * 1000 + 600)])),
        ])
    }

    fn add(server: &CommunixServer, user: u64, s: &Signature) -> Reply {
        let id = server.authority().issue(user);
        server.handle(Request::Add {
            sender: id,
            sig_text: s.to_string(),
        })
    }

    #[test]
    fn valid_add_then_get() {
        let (srv, _) = server();
        let r = add(&srv, 1, &sig(1));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: true,
                reason: String::new()
            }
        );
        match srv.handle(Request::Get { from: 0 }) {
            Reply::Sigs { from, sigs } => {
                assert_eq!(from, 0);
                assert_eq!(sigs.len(), 1);
                assert_eq!(sigs[0].parse::<Signature>().unwrap(), sig(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forged_id_rejected() {
        let (srv, _) = server();
        let r = srv.handle(Request::Add {
            sender: [0xAB; 16],
            sig_text: sig(1).to_string(),
        });
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "invalid encrypted sender id".into()
            }
        );
        assert!(srv.db().is_empty());
    }

    #[test]
    fn malformed_signature_rejected() {
        let (srv, _) = server();
        let id = srv.authority().issue(1);
        let r = srv.handle(Request::Add {
            sender: id,
            sig_text: "not a signature".into(),
        });
        assert!(matches!(
            r,
            Reply::AddAck {
                accepted: false,
                ..
            }
        ));
    }

    #[test]
    fn adjacent_from_same_user_rejected() {
        let (srv, _) = server();
        assert!(matches!(
            add(&srv, 1, &sig(1)),
            Reply::AddAck { accepted: true, .. }
        ));
        // Adjacent: shares entry 0's top frames with sig(1), differs in
        // entry 1.
        let adjacent = Signature::local(vec![
            sig(1).entries()[0].clone(),
            SigEntry::new(cs(&[("other", 77)]), cs(&[("otherIn", 78)])),
        ]);
        let r = add(&srv, 1, &adjacent);
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "adjacent signature from same sender".into()
            }
        );
    }

    #[test]
    fn adjacent_from_other_user_accepted() {
        // "the signatures wrongly rejected due to this restriction can be
        // provided by other users."
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let adjacent = Signature::local(vec![
            sig(1).entries()[0].clone(),
            SigEntry::new(cs(&[("other", 77)]), cs(&[("otherIn", 78)])),
        ]);
        let r = add(&srv, 2, &adjacent);
        assert!(matches!(r, Reply::AddAck { accepted: true, .. }));
        assert_eq!(srv.db().len(), 2);
    }

    #[test]
    fn same_bug_resent_is_not_adjacent() {
        // Identical top frames (a deeper manifestation of the same bug)
        // must pass the adjacency check.
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let mut deeper_entries = Vec::new();
        for e in sig(1).entries() {
            let mut outer = e.outer.clone();
            outer
                .frames_mut()
                .insert(0, Frame::new("app.D", "extra", 9999));
            deeper_entries.push(SigEntry::new(outer, e.inner.clone()));
        }
        let deeper = Signature::local(deeper_entries);
        let r = add(&srv, 1, &deeper);
        assert!(matches!(r, Reply::AddAck { accepted: true, .. }));
    }

    #[test]
    fn rate_limit_enforced_per_day() {
        let (srv, clock) = server();
        for i in 0..10 {
            let r = add(&srv, 1, &sig(10 + i));
            assert!(matches!(r, Reply::AddAck { accepted: true, .. }), "i={i}");
        }
        // The 11th within the same day is ignored.
        let r = add(&srv, 1, &sig(99));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "daily signature budget exhausted".into()
            }
        );
        // Another user is unaffected.
        assert!(matches!(
            add(&srv, 2, &sig(98)),
            Reply::AddAck { accepted: true, .. }
        ));
        // After a day passes, the budget refreshes.
        clock.advance(DAY + communix_clock::Duration::from_secs(1));
        assert!(matches!(
            add(&srv, 1, &sig(97)),
            Reply::AddAck { accepted: true, .. }
        ));
    }

    #[test]
    fn rejected_attempts_still_consume_budget() {
        // "The server processes only up to 10 signatures per day" —
        // processing includes validation, so adjacency rejects count.
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let adjacent = Signature::local(vec![
            sig(1).entries()[0].clone(),
            SigEntry::new(cs(&[("other", 77)]), cs(&[("otherIn", 78)])),
        ]);
        for _ in 0..9 {
            add(&srv, 1, &adjacent);
        }
        // Ten ADDs processed; the next is rate-limited even though it is
        // a perfectly valid, fresh signature.
        let r = add(&srv, 1, &sig(50));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: false,
                reason: "daily signature budget exhausted".into()
            }
        );
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        let r = add(&srv, 2, &sig(1));
        assert_eq!(
            r,
            Reply::AddAck {
                accepted: true,
                reason: "duplicate".into()
            }
        );
        assert_eq!(srv.db().len(), 1);
    }

    #[test]
    fn incremental_get() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        add(&srv, 1, &sig(2));
        add(&srv, 1, &sig(3));
        match srv.handle(Request::Get { from: 1 }) {
            Reply::Sigs { from, sigs } => {
                assert_eq!(from, 1);
                assert_eq!(sigs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn issue_id_request() {
        let (srv, _) = server();
        match srv.handle(Request::IssueId { user: 5 }) {
            Reply::Id { id } => assert_eq!(srv.authority().verify(&id), Some(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_track_outcomes() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        add(&srv, 2, &sig(1)); // duplicate
        srv.handle(Request::Add {
            sender: [0u8; 16],
            sig_text: sig(2).to_string(),
        }); // bad id
        srv.handle(Request::Get { from: 0 });
        let s = srv.stats();
        assert_eq!(s.adds_accepted, 1);
        assert_eq!(s.adds_duplicate, 1);
        assert_eq!(s.adds_rejected, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.sigs_served, 1);
    }

    #[test]
    fn stats_request_returns_parseable_snapshot() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1)); // accepted
        add(&srv, 2, &sig(1)); // duplicate, via the dedup fast path
        srv.handle(Request::Add {
            sender: [0u8; 16],
            sig_text: sig(2).to_string(),
        }); // rejected: bad id
        let Reply::Stats { json } = srv.handle(Request::Stats) else {
            panic!("expected Stats reply");
        };
        let nums = communix_telemetry::json::flatten_numbers(&json).expect("valid json");
        let find = |path: &str| {
            nums.iter()
                .find(|(p, _)| p == path)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {path} in {json}"))
        };
        assert_eq!(find("counters.server.adds.accepted"), 1.0);
        assert_eq!(find("counters.server.adds.duplicate"), 1.0);
        assert_eq!(find("counters.server.dedup.fast_path_hits"), 1.0);
        assert_eq!(find("counters.server.reject.bad_id"), 1.0);
        assert_eq!(find("counters.server.reject.malformed"), 0.0);
        assert_eq!(find("counters.server.stats_requests"), 1.0);
        // Occupancy gauges are refreshed at snapshot time.
        assert_eq!(find("gauges.server.db.sigs.current"), 1.0);
        // All three ADDs were timed.
        assert_eq!(find("histograms.server.latency.add.count"), 3.0);
    }

    #[test]
    fn latency_histograms_cover_every_opcode() {
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        srv.handle(Request::Get { from: 0 });
        srv.handle(Request::IssueId { user: 1 });
        srv.handle(Request::AddBatch { adds: vec![] });
        srv.handle(Request::GetDelta { from: 0, max: 0 });
        srv.handle(Request::Stats);
        let snap = srv.telemetry_snapshot();
        for op in ["add", "get", "issue_id", "add_batch", "get_delta", "stats"] {
            let h = snap
                .histogram(&format!("server.latency.{op}"))
                .unwrap_or_else(|| panic!("no histogram for {op}"));
            assert_eq!(h.count(), 1, "opcode {op}");
        }
        // The rollup helper sees all six.
        assert_eq!(snap.merged_histogram("server.latency.").count(), 6);
    }

    #[test]
    fn duplicate_resend_skips_budget_and_write_locks() {
        // The dedup fast path acks re-sent signatures without consuming
        // daily budget: a client replaying its history cannot starve
        // itself out of reporting a genuinely new deadlock.
        let (srv, _) = server();
        add(&srv, 1, &sig(1));
        for _ in 0..50 {
            let r = add(&srv, 1, &sig(1));
            assert_eq!(
                r,
                Reply::AddAck {
                    accepted: true,
                    reason: "duplicate".into()
                }
            );
        }
        // Budget only charged for the one processed signature.
        for i in 0..9 {
            assert!(matches!(
                add(&srv, 1, &sig(20 + i)),
                Reply::AddAck { accepted: true, .. }
            ));
        }
        assert_eq!(srv.stats().adds_duplicate, 50);
    }

    #[test]
    fn batch_add_mixed_results() {
        let (srv, _) = server();
        let good_id = srv.authority().issue(1);
        let other_id = srv.authority().issue(2);
        let adds = vec![
            communix_net::BatchAdd {
                sender: good_id,
                sig_text: sig(1).to_string(),
            },
            communix_net::BatchAdd {
                sender: [0xAB; 16], // forged
                sig_text: sig(2).to_string(),
            },
            communix_net::BatchAdd {
                sender: other_id,
                sig_text: "not a signature".into(),
            },
            communix_net::BatchAdd {
                sender: other_id,
                sig_text: sig(1).to_string(), // duplicate of item 0
            },
            communix_net::BatchAdd {
                sender: other_id,
                sig_text: sig(3).to_string(),
            },
        ];
        let Reply::BatchAck { results } = srv.handle(Request::AddBatch { adds }) else {
            panic!("expected BatchAck");
        };
        assert_eq!(results.len(), 5);
        assert!(results[0].accepted && results[0].reason.is_empty());
        assert!(!results[1].accepted);
        assert_eq!(results[1].reason, "invalid encrypted sender id");
        assert!(!results[2].accepted);
        assert!(results[3].accepted);
        assert_eq!(results[3].reason, "duplicate");
        assert!(results[4].accepted);
        // Only the two fresh valid signatures were stored.
        assert_eq!(srv.db().len(), 2);
        let s = srv.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.adds_accepted, 2);
        assert_eq!(s.adds_duplicate, 1);
        assert_eq!(s.adds_rejected, 2);
    }

    #[test]
    fn empty_batch_is_acked_empty() {
        let (srv, _) = server();
        let Reply::BatchAck { results } = srv.handle(Request::AddBatch { adds: vec![] }) else {
            panic!("expected BatchAck");
        };
        assert!(results.is_empty());
        assert_eq!(srv.stats().batches, 1);
        assert_eq!(srv.stats().adds_accepted, 0);
    }

    #[test]
    fn get_delta_serves_a_window_and_the_total() {
        let (srv, _) = server();
        for i in 0..7 {
            add(&srv, 1, &sig(10 + i));
        }
        let Reply::SharedDelta { from, total, sigs } =
            srv.handle(Request::GetDelta { from: 2, max: 3 })
        else {
            panic!("expected Delta");
        };
        assert_eq!((from, total), (2, 7));
        assert_eq!(sigs.len(), 3);
        let texts: Vec<&str> = sigs.iter().map(|s| &**s).collect();
        assert_eq!(texts, srv.db().get_from(2)[..3]);
        // max == 0: no count cap.
        let Reply::SharedDelta { sigs, .. } = srv.handle(Request::GetDelta { from: 0, max: 0 })
        else {
            panic!("expected Delta");
        };
        assert_eq!(sigs.len(), 7);
        // Past the end: empty window, same total.
        let Reply::SharedDelta { total, sigs, .. } =
            srv.handle(Request::GetDelta { from: 99, max: 0 })
        else {
            panic!("expected Delta");
        };
        assert_eq!((total, sigs.len()), (7, 0));
        let s = srv.stats();
        assert_eq!(s.deltas, 3);
        assert_eq!(s.gets, 0, "GET_DELTA is not a GET");
        assert_eq!(s.sigs_served, 10);
    }

    #[test]
    fn get_and_get_delta_read_one_budgeted_window() {
        let (srv, _) = server();
        for i in 0..40 {
            srv.db().add(&format!("{i:04}{}", "x".repeat(64 * 1024)));
        }
        let Reply::Sigs { sigs, .. } = srv.handle(Request::Get { from: 0 }) else {
            panic!("expected Sigs")
        };
        let fit = sigs.len();
        assert!((1..40).contains(&fit), "{fit} of 40 texts of 64 KiB");
        for max in [0, 1000] {
            let Reply::SharedDelta { total, sigs, .. } =
                srv.handle(Request::GetDelta { from: 0, max })
            else {
                panic!("expected Delta")
            };
            assert_eq!((total, sigs.len()), (40, fit), "max {max}");
        }
    }

    #[test]
    fn a_text_past_the_size_cap_is_refused_before_it_is_probed() {
        let (srv, _) = server();
        // The longest text accepted gets as far as the parser…
        let id = srv.authority().issue(1);
        let Reply::AddAck { accepted, reason } = srv.handle(Request::Add {
            sender: id,
            sig_text: "x".repeat(MAX_SIG_BYTES),
        }) else {
            panic!("expected AddAck")
        };
        assert_eq!((accepted, reason.as_str()), (false, "malformed signature"));
        // …one byte more is refused on its length, even when stored.
        let longer = "x".repeat(MAX_SIG_BYTES + 1);
        srv.db().add(&longer);
        let Reply::AddAck { accepted, reason } = srv.handle(Request::Add {
            sender: id,
            sig_text: longer,
        }) else {
            panic!("expected AddAck")
        };
        assert_eq!(
            (accepted, reason.as_str()),
            (false, "signature too large to serve")
        );
        let snap = srv.telemetry_snapshot();
        assert_eq!(snap.counter("server.reject.too_large"), Some(1));
        assert_eq!(snap.counter("server.dedup.fast_path_hits"), Some(0));
    }

    #[test]
    fn concurrent_mixed_load() {
        let (srv, _) = server();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let srv = srv.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10u32 {
                    let s = sig(100 + (t as u32) * 10 + i);
                    let id = srv.authority().issue(t);
                    srv.handle(Request::Add {
                        sender: id,
                        sig_text: s.to_string(),
                    });
                    srv.handle(Request::Get { from: 0 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 users × 10 sigs, all within daily budget.
        assert_eq!(srv.db().len(), 80);
    }

    /// Sends `sigs[t]` from thread `t`, four threads at once under one
    /// sender id; returns every verdict's reason ("" for a new accept).
    fn one_sender_racing_itself(sigs: [Vec<Signature>; 4]) -> Vec<String> {
        let (srv, _) = server();
        let id = srv.authority().issue(7);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let threads: Vec<_> = sigs
                .iter()
                .map(|sigs| {
                    let (srv, start) = (&srv, &start);
                    s.spawn(move || {
                        start.wait();
                        sigs.iter()
                            .map(|sig| {
                                let request = Request::Add {
                                    sender: id,
                                    sig_text: sig.to_string(),
                                };
                                match srv.handle(request) {
                                    Reply::AddAck { reason, .. } => reason,
                                    other => panic!("unexpected {other:?}"),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn one_sender_racing_itself_is_checked_and_added_in_one_step() {
        let count =
            |reasons: &[String], reason: &str| reasons.iter().filter(|r| *r == reason).count();
        for _ in 0..100 {
            // Twice the daily limit of pairwise non-adjacent signatures:
            // exactly the limit is accepted.
            let sigs = std::array::from_fn(|t| (0..5).map(|i| sig(1 + 5 * t as u32 + i)).collect());
            let reasons = one_sender_racing_itself(sigs);
            assert_eq!(reasons.len(), 2 * DAILY_LIMIT);
            assert_eq!(count(&reasons, ""), DAILY_LIMIT);
            assert_eq!(
                count(&reasons, RejectReason::RateLimited.as_str()),
                DAILY_LIMIT
            );
            // Four mutually adjacent signatures: they share entry 0's top
            // frames and differ in entry 1's, so exactly one is accepted.
            let sigs = std::array::from_fn(|t| {
                let other = 77 + 10 * t as u32;
                vec![Signature::local(vec![
                    sig(1).entries()[0].clone(),
                    SigEntry::new(cs(&[("other", other)]), cs(&[("otherIn", other + 1)])),
                ])]
            });
            let reasons = one_sender_racing_itself(sigs);
            assert_eq!(count(&reasons, ""), 1);
            assert_eq!(count(&reasons, RejectReason::Adjacent.as_str()), 3);
        }
    }

    /// One entry of a generated signature: outer top site, inner top site
    /// (both from a pool of six) and a bottom frame below the outer top,
    /// so equal top frames need not mean equal text.
    fn arb_entry() -> impl Strategy<Value = (u32, u32, u32)> {
        (0u32..6, 0u32..6, 0u32..3)
    }

    /// A signature over the six-site pool: adjacent, same-top-frames and
    /// disjoint pairs all come up often.
    fn pooled(entries: &[(u32, u32, u32)]) -> Signature {
        let site = |i: u32| Frame::new("app.P", format!("m{i}"), 100 + i);
        Signature::local(
            entries
                .iter()
                .map(|&(outer, inner, below)| {
                    SigEntry::new(
                        [Frame::new("app.B", "run", below), site(outer)]
                            .into_iter()
                            .collect(),
                        std::iter::once(site(inner)).collect(),
                    )
                })
                .collect(),
        )
    }

    proptest! {
        /// The server's verdicts equal a model that keeps every accepted
        /// parsed signature per sender and asks `Signature::adjacent_to`;
        /// an already-stored text is a duplicate before anything else.
        #[test]
        fn verdicts_equal_the_parsed_signature_model(
            adds in proptest::collection::vec(
                (0u64..3, proptest::collection::vec(arb_entry(), 1..3)),
                1..40,
            ),
        ) {
            let srv = crate::builder().daily_limit(usize::MAX).build().unwrap();
            let mut stored = std::collections::HashSet::new();
            // (sender, parsed signature) for every accepted ADD.
            let mut kept = Vec::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (user, entries) in &adds {
                let (user, sig) = (*user, pooled(entries));
                let text = sig.to_string();
                want.push(if stored.contains(&text) {
                    (true, "duplicate".to_string())
                } else if kept
                    .iter()
                    .any(|(u, prior): &(u64, Signature)| *u == user && prior.adjacent_to(&sig))
                {
                    (false, "adjacent signature from same sender".to_string())
                } else {
                    stored.insert(text);
                    kept.push((user, sig.clone()));
                    (true, String::new())
                });
                let Reply::AddAck { accepted, reason } = add(&srv, user, &sig) else {
                    panic!("expected AddAck");
                };
                got.push((accepted, reason));
            }
            prop_assert_eq!(got, want);
        }
    }
}
