//! A pipelined, multiplexed sync engine: many requests in flight on one
//! connection.
//!
//! A lock-step client — one request on the wire, wait for its reply,
//! repeat — caps per-connection throughput at `1 / RTT` no matter how
//! fast the server is. [`PipelinedClient`] keeps a bounded *window* of
//! requests in flight on a single [`NonblockingClient`] socket, matching
//! replies to requests by frame order (the protocol is FIFO: reply *n*
//! answers request *n*), and completing each request through a caller
//! -supplied callback. Throughput becomes `window / RTT` until the
//! server or the wire saturates.
//!
//! Two extra tricks ride on the window:
//!
//! * **ADD coalescing** — consecutive queued single-signature uploads
//!   collapse into one `ADD_BATCH` wire frame at flush time; the
//!   server's per-item verdicts fan back out to the individual
//!   callbacks as synthesized [`Reply::AddAck`]s. Callers write the
//!   simple one-ADD-at-a-time code and get batched wire traffic.
//! * **Zero-copy framing** — requests encode straight into the
//!   connection's reusable write buffer (the codec's `*_into` path), so
//!   a full window costs zero per-frame allocations.
//!
//! The engine is deliberately futures-free: [`PipelinedClient::pump`]
//! makes all progress that needs no waiting, [`PipelinedClient::wait`]
//! parks on socket readiness, and callbacks fire from within `pump` on
//! the caller's thread. [`PipelinedConnector`] wraps the engine into
//! the blocking [`Connector`] trait, which is how `sync_delta`,
//! `upload_batch`, the paper's one-signature verbs and
//! [`crate::ClientDaemon`] reach a server over TCP.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use communix_net::{BatchAdd, EncryptedId, NonblockingClient, Reply, Request};
use communix_telemetry::{Gauge, Histogram, Registry};
use parking_lot::Mutex;

use crate::sync::Connector;

/// Completion callback of one pipelined request: receives the server's
/// reply, or the error that killed the request.
pub type Completion = Box<dyn FnOnce(Result<Reply, PipelineError>) + Send>;

/// Errors surfaced through a pipelined request's [`Completion`] or from
/// [`PipelinedClient::pump`]/[`PipelinedClient::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The connection failed; every request at or behind the failure is
    /// completed with this error.
    Transport(String),
    /// The server broke frame-order matching (an unsolicited reply, or
    /// a batch ack that does not match the batch item-for-item). The
    /// connection is dropped — after a desync, no later reply can be
    /// trusted to answer the request it sits behind.
    Protocol(String),
    /// The client was shut down with this request still queued or in
    /// flight.
    Closed,
    /// [`PipelinedClient::drain`] hit its deadline with requests still
    /// outstanding (the requests themselves remain in flight).
    Timeout,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Transport(e) => write!(f, "pipeline transport failure: {e}"),
            PipelineError::Protocol(e) => write!(f, "pipeline protocol violation: {e}"),
            PipelineError::Closed => write!(f, "pipelined client closed"),
            PipelineError::Timeout => write!(f, "drain timed out with requests in flight"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Tuning knobs of a [`PipelinedClient`].
#[derive(Clone)]
pub struct PipelineConfig {
    /// Maximum wire frames in flight (sent, reply not yet received).
    /// `1` degenerates to blocking request→reply behavior.
    pub window: usize,
    /// Maximum single ADDs coalesced into one `ADD_BATCH` frame.
    pub max_coalesce: usize,
    /// Metrics sink; `None` gives the client a private registry.
    pub registry: Option<Arc<Registry>>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: 16,
            max_coalesce: 256,
            registry: None,
        }
    }
}

impl fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("window", &self.window)
            .field("max_coalesce", &self.max_coalesce)
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

/// A request waiting for a window slot.
enum QueuedOp {
    /// A coalescible single-signature upload.
    Add {
        sender: EncryptedId,
        sig_text: String,
        complete: Completion,
    },
    /// Any other request, sent as its own frame.
    Frame {
        request: Request,
        complete: Completion,
    },
}

/// What one in-flight wire frame resolves to.
enum Expect {
    /// One request, one callback.
    Single(Completion),
    /// A coalesced `ADD_BATCH`: the server's per-item verdicts fan out
    /// to these callbacks, in order, as synthesized `AddAck`s.
    Batch(Vec<Completion>),
}

/// One wire frame awaiting its reply.
struct InFlight {
    expect: Expect,
    sent_at: Instant,
}

/// A pipelined Communix client: a bounded window of requests in flight
/// on one nonblocking connection, with FIFO reply matching and ADD
/// coalescing (see the crate docs for the model).
///
/// # Telemetry
///
/// Records into its [`Registry`] (own or shared via
/// [`PipelineConfig::registry`]):
///
/// * `client.inflight` — gauge of wire frames in flight (peak tracks
///   how much of the window a workload actually uses);
/// * `client.rtt` — histogram of per-frame round-trip times, in
///   nanoseconds;
/// * `client.flush_frames` — histogram of frames put on the wire per
///   window refill (how much pipelining each pump achieves).
pub struct PipelinedClient {
    conn: NonblockingClient,
    queue: VecDeque<QueuedOp>,
    inflight: VecDeque<InFlight>,
    window: usize,
    max_coalesce: usize,
    dead: Option<PipelineError>,
    registry: Arc<Registry>,
    inflight_gauge: Arc<Gauge>,
    rtt: Arc<Histogram>,
    flush_frames: Arc<Histogram>,
}

impl fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("window", &self.window)
            .field("queued", &self.queue.len())
            .field("inflight", &self.inflight.len())
            .field("dead", &self.dead)
            .finish()
    }
}

impl PipelinedClient {
    /// Connects to a Communix server.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-setup failures.
    pub fn connect(addr: SocketAddr, config: PipelineConfig) -> io::Result<PipelinedClient> {
        let conn = NonblockingClient::connect(addr)?;
        let registry = config.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let inflight_gauge = registry.gauge("client.inflight");
        let rtt = registry.histogram("client.rtt");
        let flush_frames = registry.histogram("client.flush_frames");
        Ok(PipelinedClient {
            conn,
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            window: config.window.max(1),
            max_coalesce: config.max_coalesce.max(1),
            dead: None,
            registry,
            inflight_gauge,
            rtt,
            flush_frames,
        })
    }

    /// The client's metrics registry.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Submits a request; `complete` fires (from a later
    /// [`PipelinedClient::pump`]) with the server's reply. Requests
    /// complete in submission order. On a dead client, `complete` fires
    /// immediately with the error that killed the connection.
    pub fn submit(&mut self, request: Request, complete: Completion) {
        if let Some(err) = &self.dead {
            complete(Err(err.clone()));
            return;
        }
        self.queue.push_back(QueuedOp::Frame { request, complete });
    }

    /// Submits a single-signature upload that may coalesce: consecutive
    /// queued ADDs leave as one `ADD_BATCH` wire frame, and `complete`
    /// receives this item's verdict as a synthesized
    /// [`Reply::AddAck`] — indistinguishable from an uncoalesced ADD.
    pub fn submit_add(&mut self, sender: EncryptedId, sig_text: String, complete: Completion) {
        if let Some(err) = &self.dead {
            complete(Err(err.clone()));
            return;
        }
        self.queue.push_back(QueuedOp::Add {
            sender,
            sig_text,
            complete,
        });
    }

    /// Requests still queued or in flight. A coalesced batch counts
    /// each of its items.
    pub fn pending(&self) -> usize {
        let batched: usize = self
            .inflight
            .iter()
            .map(|f| match &f.expect {
                Expect::Single(_) => 1,
                Expect::Batch(cbs) => cbs.len(),
            })
            .sum();
        self.queue.len() + batched
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// Makes all progress possible without blocking: fills the window
    /// from the queue (coalescing consecutive ADDs), flushes the write
    /// buffer, and dispatches every reply that has fully arrived.
    /// Callbacks fire on this thread, inside this call.
    ///
    /// # Errors
    ///
    /// Returns the failure that killed the connection — after first
    /// completing every queued and in-flight request with it. Later
    /// calls keep returning the same error.
    pub fn pump(&mut self) -> Result<(), PipelineError> {
        if let Some(err) = &self.dead {
            return Err(err.clone());
        }
        self.fill_and_flush()?;
        loop {
            match self.conn.try_recv() {
                Ok(Some(reply)) => {
                    self.dispatch(reply)?;
                    // A freed slot refills immediately: the pipe stays
                    // as full as the queue allows.
                    self.fill_and_flush()?;
                }
                Ok(None) => return Ok(()),
                Err(e) => return Err(self.kill(PipelineError::Transport(e.to_string()))),
            }
        }
    }

    /// Parks until the socket can make progress (readable, or writable
    /// with queued bytes) or `timeout` elapses (`None` waits forever).
    /// Returns whether readiness arrived. Call [`PipelinedClient::pump`]
    /// after.
    ///
    /// # Errors
    ///
    /// Propagates poller failures.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<bool> {
        self.conn.wait(timeout)
    }

    /// Blocks until every queued and in-flight request has completed,
    /// or `timeout` elapses (`None` waits forever).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Timeout`] on deadline (outstanding requests
    /// remain in flight and may still complete through later pumps);
    /// otherwise the connection failure that completed the outstanding
    /// requests.
    pub fn drain(&mut self, timeout: Option<Duration>) -> Result<(), PipelineError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            self.pump()?;
            if self.is_idle() {
                return Ok(());
            }
            let mut slice = Duration::from_millis(50);
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(PipelineError::Timeout);
                }
                slice = slice.min(left);
            }
            self.wait(Some(slice))
                .map_err(|e| self.kill(PipelineError::Transport(e.to_string())))?;
        }
    }

    /// Shuts the client down. Requests still queued or in flight
    /// complete immediately with [`PipelineError::Closed`] — a clean
    /// failure, not a hang — and the connection drops.
    pub fn shutdown(mut self) {
        let _ = self.kill(PipelineError::Closed);
    }

    /// Moves queued requests into freed window slots and pushes bytes
    /// at the kernel.
    fn fill_and_flush(&mut self) -> Result<(), PipelineError> {
        let mut framed = 0u64;
        while self.inflight.len() < self.window && !self.queue.is_empty() {
            self.frame_next();
            framed += 1;
        }
        if framed > 0 {
            self.flush_frames.record(framed);
            self.inflight_gauge.set(self.inflight.len() as u64);
        }
        match self.conn.flush() {
            Ok(_) => Ok(()),
            Err(e) => Err(self.kill(PipelineError::Transport(e.to_string()))),
        }
    }

    /// Turns the front of the queue into exactly one wire frame:
    /// consecutive ADDs coalesce into one `ADD_BATCH` (up to
    /// `max_coalesce`), anything else goes out as itself.
    fn frame_next(&mut self) {
        let sent_at = Instant::now();
        match self.queue.pop_front() {
            None => {}
            Some(QueuedOp::Frame { request, complete }) => {
                self.conn.queue(&request);
                self.inflight.push_back(InFlight {
                    expect: Expect::Single(complete),
                    sent_at,
                });
            }
            Some(QueuedOp::Add {
                sender,
                sig_text,
                complete,
            }) => {
                let mut adds = vec![BatchAdd { sender, sig_text }];
                let mut completions = vec![complete];
                while adds.len() < self.max_coalesce
                    && matches!(self.queue.front(), Some(QueuedOp::Add { .. }))
                {
                    if let Some(QueuedOp::Add {
                        sender,
                        sig_text,
                        complete,
                    }) = self.queue.pop_front()
                    {
                        adds.push(BatchAdd { sender, sig_text });
                        completions.push(complete);
                    }
                }
                if adds.len() == 1 {
                    let BatchAdd { sender, sig_text } = adds.pop().expect("one add");
                    self.conn.queue(&Request::Add { sender, sig_text });
                    self.inflight.push_back(InFlight {
                        expect: Expect::Single(completions.pop().expect("one completion")),
                        sent_at,
                    });
                } else {
                    self.conn.queue(&Request::AddBatch { adds });
                    self.inflight.push_back(InFlight {
                        expect: Expect::Batch(completions),
                        sent_at,
                    });
                }
            }
        }
    }

    /// Completes the oldest in-flight frame with `reply` (FIFO
    /// matching), fanning a batch ack out to its items' callbacks.
    fn dispatch(&mut self, reply: Reply) -> Result<(), PipelineError> {
        let Some(frame) = self.inflight.pop_front() else {
            return Err(self.kill(PipelineError::Protocol(format!(
                "unsolicited reply with nothing in flight: {reply:?}"
            ))));
        };
        self.rtt.record_duration(frame.sent_at.elapsed());
        self.inflight_gauge.set(self.inflight.len() as u64);
        match frame.expect {
            Expect::Single(complete) => complete(Ok(reply)),
            Expect::Batch(completions) => match reply {
                Reply::BatchAck { results } if results.len() == completions.len() => {
                    for (complete, result) in completions.into_iter().zip(results) {
                        complete(Ok(Reply::AddAck {
                            accepted: result.accepted,
                            reason: result.reason,
                        }));
                    }
                }
                Reply::Error { message } => {
                    // A server-level error answers the whole frame;
                    // every coalesced item sees it, as it would have
                    // uncoalesced.
                    for complete in completions {
                        complete(Ok(Reply::Error {
                            message: message.clone(),
                        }));
                    }
                }
                other => {
                    let err = PipelineError::Protocol(format!(
                        "batch of {} answered by {other:?}",
                        completions.len()
                    ));
                    for complete in completions {
                        complete(Err(err.clone()));
                    }
                    return Err(self.kill(err));
                }
            },
        }
        Ok(())
    }

    /// Fails every queued and in-flight request with `err`, marks the
    /// client dead, and returns `err` for convenience.
    fn kill(&mut self, err: PipelineError) -> PipelineError {
        self.dead = Some(err.clone());
        for op in self.queue.drain(..) {
            let complete = match op {
                QueuedOp::Add { complete, .. } => complete,
                QueuedOp::Frame { complete, .. } => complete,
            };
            complete(Err(err.clone()));
        }
        for frame in self.inflight.drain(..) {
            match frame.expect {
                Expect::Single(complete) => complete(Err(err.clone())),
                Expect::Batch(completions) => {
                    for complete in completions {
                        complete(Err(err.clone()));
                    }
                }
            }
        }
        self.inflight_gauge.set(0);
        err
    }
}

/// Blocking [`Connector`] facade over a [`PipelinedClient`]: each
/// [`Connector::call`] submits, then pumps until that request's reply
/// arrives. The TCP connector for `sync_once`, `sync_delta`,
/// `upload_signature`, `upload_batch`, and [`crate::ClientDaemon`].
#[derive(Debug)]
pub struct PipelinedConnector {
    client: PipelinedClient,
}

impl PipelinedConnector {
    /// Connects with default [`PipelineConfig`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<PipelinedConnector> {
        Self::with_config(addr, PipelineConfig::default())
    }

    /// Connects with an explicit config.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn with_config(addr: SocketAddr, config: PipelineConfig) -> io::Result<PipelinedConnector> {
        Ok(PipelinedConnector {
            client: PipelinedClient::connect(addr, config)?,
        })
    }

    /// The engine underneath, e.g. for its telemetry.
    pub fn client(&self) -> &PipelinedClient {
        &self.client
    }

    /// Unwraps back into the engine.
    pub fn into_inner(self) -> PipelinedClient {
        self.client
    }
}

impl Connector for PipelinedConnector {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        let slot: Arc<Mutex<Option<Result<Reply, PipelineError>>>> = Arc::new(Mutex::new(None));
        let fill = slot.clone();
        self.client.submit(
            request,
            Box::new(move |result| {
                *fill.lock() = Some(result);
            }),
        );
        loop {
            // A connection failure completes the slot with the error
            // before pump returns it — check the slot first so the
            // request's own verdict wins.
            let pumped = self.client.pump();
            if let Some(result) = slot.lock().take() {
                return result.map_err(|e| e.to_string());
            }
            pumped.map_err(|e| e.to_string())?;
            self.client
                .wait(Some(Duration::from_millis(50)))
                .map_err(|e| e.to_string())?;
        }
    }
}
