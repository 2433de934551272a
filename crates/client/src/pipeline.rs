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
//! Requests encode straight into the connection's reusable write buffer
//! (the codec's `*_into` path), so a full window costs zero per-frame
//! allocations. Each request is its own frame; a caller with many
//! signatures to upload sends one `ADD_BATCH` itself
//! ([`upload_batch`](crate::upload_batch)).
//!
//! The engine is deliberately futures-free: [`PipelinedClient::pump`]
//! makes all progress that needs no waiting, [`PipelinedClient::wait`]
//! parks on socket readiness, and callbacks fire from within `pump` on
//! the caller's thread. [`PipelinedConnector`] wraps the engine into
//! the blocking [`Connector`] trait, which is how the request helpers
//! (`sync_delta`, `upload_batch`, `obtain_id`, `fetch_stats`) and
//! [`crate::ClientDaemon`] reach a server over TCP.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use communix_net::{NonblockingClient, Reply, Request};
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
    /// The server broke frame-order matching (an unsolicited reply). The
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
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum wire frames in flight (sent, reply not yet received).
    /// `1` degenerates to blocking request→reply behavior.
    pub window: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { window: 16 }
    }
}

/// One wire frame awaiting its reply.
struct InFlight {
    complete: Completion,
    sent_at: Instant,
}

/// A pipelined Communix client: a bounded window of requests in flight
/// on one nonblocking connection, with FIFO reply matching (see the
/// module docs for the model).
///
/// # Telemetry
///
/// Records into its own [`Registry`] ([`PipelinedClient::telemetry`]):
///
/// * `client.inflight` — gauge of wire frames in flight (peak tracks
///   how much of the window a workload actually uses);
/// * `client.rtt` — histogram of per-frame round-trip times, in
///   nanoseconds;
/// * `client.flush_frames` — histogram of frames put on the wire per
///   window refill (how much pipelining each pump achieves).
pub struct PipelinedClient {
    conn: NonblockingClient,
    /// Requests waiting for a window slot.
    queue: VecDeque<(Request, Completion)>,
    inflight: VecDeque<InFlight>,
    window: usize,
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
        let registry = Arc::new(Registry::new());
        let inflight_gauge = registry.gauge("client.inflight");
        let rtt = registry.histogram("client.rtt");
        let flush_frames = registry.histogram("client.flush_frames");
        Ok(PipelinedClient {
            conn,
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            window: config.window.max(1),
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
        self.queue.push_back((request, complete));
    }

    /// Requests still queued or in flight.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// Makes all progress possible without blocking: fills the window
    /// from the queue, flushes the write
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
        while self.inflight.len() < self.window {
            let Some((request, complete)) = self.queue.pop_front() else {
                break;
            };
            self.conn.queue(&request);
            self.inflight.push_back(InFlight {
                complete,
                sent_at: Instant::now(),
            });
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

    /// Completes the oldest in-flight frame with `reply` (FIFO
    /// matching).
    fn dispatch(&mut self, reply: Reply) -> Result<(), PipelineError> {
        let Some(frame) = self.inflight.pop_front() else {
            return Err(self.kill(PipelineError::Protocol(format!(
                "unsolicited reply with nothing in flight: {reply:?}"
            ))));
        };
        self.rtt.record_duration(frame.sent_at.elapsed());
        self.inflight_gauge.set(self.inflight.len() as u64);
        (frame.complete)(Ok(reply));
        Ok(())
    }

    /// Fails every queued and in-flight request with `err`, marks the
    /// client dead, and returns `err` for convenience.
    fn kill(&mut self, err: PipelineError) -> PipelineError {
        self.dead = Some(err.clone());
        let queued = self.queue.drain(..).map(|(_, complete)| complete);
        let inflight = self.inflight.drain(..).map(|frame| frame.complete);
        for complete in queued.chain(inflight) {
            complete(Err(err.clone()));
        }
        self.inflight_gauge.set(0);
        err
    }
}

/// Blocking [`Connector`] facade over a [`PipelinedClient`]: each
/// [`Connector::call`] submits, then pumps until that request's reply
/// arrives. The TCP connector for the request helpers and
/// [`crate::ClientDaemon`].
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
        Ok(PipelinedConnector {
            client: PipelinedClient::connect(addr, PipelineConfig::default())?,
        })
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
