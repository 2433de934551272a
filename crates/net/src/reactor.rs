//! The reactor core of the event-driven transport: one shard = one
//! thread owning a poller, a wake-able handoff queue, and every
//! connection handed to it.
//!
//! [`crate::event`] composes N of these with a dedicated accept thread.
//! The split keeps the hot path lock-free: a connection is owned by
//! exactly one shard for its whole life, so reads, frame decoding,
//! handler dispatch, and writes touch only that shard's private
//! `HashMap` — no lock is taken per event. The only cross-thread
//! structure is the [`Handoff`]: a mutex-guarded queue of freshly
//! accepted sockets that the accept thread pushes and the shard drains
//! when its waker fires, plus an atomic connection count the accept
//! thread reads to pick the least-loaded shard.
//!
//! Each connection is a small state machine over the length-prefixed
//! codec (unchanged from the single-loop transport):
//!
//! * **framed reads** — the socket is read straight into the
//!   per-connection buffer; complete frames are decoded where they lie,
//!   handled, and their replies appended to the connection's write
//!   buffer. Partial frames simply wait for the next readiness event. The
//!   buffer grows with the bytes that actually arrived, never with what a
//!   length header merely announces.
//! * **short-write resumption** — whatever the kernel doesn't accept
//!   stays queued; the connection registers write interest and resumes
//!   on the next writable event.
//! * **write backpressure** — while [`REPLY_BUDGET`] bytes of replies
//!   are queued, the shard stops *reading* (and stops decoding
//!   already-buffered frames) from that connection, so a peer that
//!   requests faster than it drains replies cannot balloon server
//!   memory.
//! * **buffer give-back** — a read or write buffer that drains above
//!   a small fixed capacity gives its allocation back, so an idle
//!   connection does not keep the largest frame it ever carried.
//! * **idle/heartbeat timeout** — a connection that makes no read or
//!   write progress for the configured idle timeout is evicted. This
//!   also defuses slow-loris peers that send a length prefix and then
//!   stall inside a frame.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{Buf, BytesMut};
use communix_telemetry::{Counter, Gauge, Registry};
use polling::{BackendKind, Events, Poller, Waker};

use crate::codec::{frame_len, frame_reply_into, give_back, Reply, Request, REPLY_BUDGET};
use crate::tcp::{CloseCause, Handler, SharedStats, TcpServerConfig};

/// Reserved poller key for the shard's waker.
const KEY_WAKER: usize = 0;
/// First key handed to a registered connection.
const KEY_FIRST_CONN: usize = 1;

/// Minimum room offered to each socket read; a read that returns less
/// has drained the kernel buffer. Not a copy granularity: reads land in
/// the connection's buffer, and may fill all the room it has.
const CHUNK: usize = 16 * 1024;

/// The accept thread's handle to one shard: a wake-able queue of
/// freshly accepted sockets plus the shard's live connection count
/// (queued + registered), read lock-free for least-loaded placement.
#[derive(Debug)]
pub(crate) struct Handoff {
    queue: Mutex<VecDeque<(TcpStream, u64)>>,
    waker: Waker,
    load: AtomicUsize,
}

impl Handoff {
    /// Connections this shard is responsible for (registered plus still
    /// in its queue). The accept thread's shard-choice signal.
    pub(crate) fn load(&self) -> usize {
        self.load.load(Ordering::Relaxed)
    }

    /// Accept side: queues a socket for this shard and wakes its loop.
    pub(crate) fn push(&self, stream: TcpStream, id: u64) {
        self.load.fetch_add(1, Ordering::Relaxed);
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back((stream, id));
        self.waker.wake();
    }

    /// Wakes the shard's loop (shutdown signal).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn pop(&self) -> Option<(TcpStream, u64)> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    /// Drops sockets no shard will ever register (shutdown ordering: a
    /// shard may exit between the accept thread's final push and its
    /// own queue drain) and settles their accounting.
    pub(crate) fn drain_unregistered(&self, stats: &SharedStats) {
        while let Some((stream, id)) = self.pop() {
            drop(stream);
            self.load.fetch_sub(1, Ordering::Relaxed);
            stats.closed(id, CloseCause::Shutdown);
        }
    }
}

/// One connection's state machine, over its socket `S` (a byte stream
/// standing in for it in tests).
struct Conn<S> {
    stream: S,
    /// Trace-event id assigned at accept time.
    id: u64,
    /// Bytes received but not yet assembled into a complete frame.
    inbuf: BytesMut,
    /// Encoded reply frames not yet accepted by the kernel.
    out: BytesMut,
    /// Last read or write *progress* (stalled writes don't count).
    last_activity: Instant,
    /// Currently registered poller interest.
    want_read: bool,
    want_write: bool,
    /// Whether this connection currently has a full reply budget queued
    /// (lets the crossing emit exactly one trace event).
    backpressured: bool,
}

impl<S> Conn<S> {
    fn new(stream: S, id: u64, now: Instant) -> Conn<S> {
        Conn {
            stream,
            id,
            // Both buffers are allocated by their first use: the first
            // read makes `CHUNK` of room.
            inbuf: BytesMut::new(),
            out: BytesMut::new(),
            last_activity: now,
            want_read: true,
            want_write: false,
            backpressured: false,
        }
    }
}

/// One reactor shard: a poller, a waker, and the connections this
/// thread owns. Runs until the shared stop flag is set.
pub(crate) struct Reactor {
    poller: Poller,
    waker: Waker,
    handler: Handler,
    idle_timeout: Option<Duration>,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    handoff: Arc<Handoff>,
    conns: HashMap<usize, Conn<TcpStream>>,
    next_key: usize,
    /// `transport.reactor.<i>.connections` — this shard's share of the
    /// aggregate `transport.connections` gauge.
    shard_conns: Arc<Gauge>,
    /// `transport.reactor.<i>.frames` — request frames this shard
    /// decoded and handled (per-shard throughput).
    shard_frames: Arc<Counter>,
}

impl Reactor {
    /// Builds shard `index`: its poller, waker, and telemetry handles.
    /// Returns the reactor plus the [`Handoff`] the accept thread feeds.
    pub(crate) fn new(
        index: usize,
        config: &TcpServerConfig,
        handler: Handler,
        stop: Arc<AtomicBool>,
        stats: Arc<SharedStats>,
        registry: &Registry,
    ) -> io::Result<(Reactor, Arc<Handoff>)> {
        let poller = if config.force_poll_backend {
            Poller::with_backend(BackendKind::Poll)?
        } else {
            Poller::new()?
        };
        let waker = Waker::new()?;
        poller.add(waker.fd(), KEY_WAKER, true, false)?;
        let handoff = Arc::new(Handoff {
            queue: Mutex::new(VecDeque::new()),
            waker: waker.clone(),
            load: AtomicUsize::new(0),
        });
        Ok((
            Reactor {
                poller,
                waker,
                handler,
                idle_timeout: config.idle_timeout,
                stop,
                stats,
                handoff: handoff.clone(),
                conns: HashMap::new(),
                next_key: KEY_FIRST_CONN,
                shard_conns: registry.gauge(&format!("transport.reactor.{index}.connections")),
                shard_frames: registry.counter(&format!("transport.reactor.{index}.frames")),
            },
            handoff,
        ))
    }

    pub(crate) fn backend(&self) -> BackendKind {
        self.poller.backend()
    }

    pub(crate) fn run(&mut self) {
        let mut events = Events::new();
        // Idle eviction runs on a coarse sweep; waits are bounded by the
        // sweep cadence so eviction happens even on a silent network.
        let sweep_every = self
            .idle_timeout
            .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
        let mut last_sweep = Instant::now();
        loop {
            if self.poller.wait(&mut events, sweep_every).is_err() {
                // A failing poller cannot make progress; exit rather
                // than spin. Shutdown still joins normally.
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            for ev in events.iter() {
                match ev.key {
                    KEY_WAKER => {
                        self.waker.drain();
                        self.take_handoffs(now);
                    }
                    key => self.conn_ready(key, ev.readable, ev.writable, now),
                }
            }
            if let (Some(every), Some(timeout)) = (sweep_every, self.idle_timeout) {
                if now.duration_since(last_sweep) >= every {
                    last_sweep = now;
                    self.evict_idle(now, timeout);
                }
            }
        }
        // Drop every connection (sends RST/FIN); nothing to wait for.
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            self.close(key, CloseCause::Shutdown);
        }
        // Sockets still queued never registered; account them too.
        self.handoff.drain_unregistered(&self.stats);
    }

    /// Registers every socket the accept thread queued since the last
    /// wake, and drives each once — the peer's first request often
    /// arrived before registration.
    fn take_handoffs(&mut self, now: Instant) {
        while let Some((stream, id)) = self.handoff.pop() {
            if stream.set_nonblocking(true).is_err() {
                self.abandon(id);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let key = self.next_key;
            self.next_key += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), key, true, false)
                .is_err()
            {
                self.abandon(id);
                continue;
            }
            self.shard_conns.inc();
            self.conns.insert(key, Conn::new(stream, id, now));
            self.conn_ready(key, true, false, now);
        }
    }

    /// A handed-off socket that never made it into the poller.
    fn abandon(&mut self, id: u64) {
        self.handoff.load.fetch_sub(1, Ordering::Relaxed);
        self.stats.closed(id, CloseCause::Io);
    }

    /// Drives one connection's state machine for one readiness event.
    fn conn_ready(&mut self, key: usize, readable: bool, writable: bool, now: Instant) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return; // already closed this iteration
        };
        let verdict = match drive(
            &self.handler,
            &self.stats,
            &self.shard_frames,
            conn,
            readable,
            writable,
            now,
        ) {
            Ok(()) if !sync_interest(&self.poller, key, conn) => Err(CloseCause::Io),
            v => v,
        };
        if let Err(cause) = verdict {
            self.close(key, cause);
        }
    }

    fn evict_idle(&mut self, now: Instant, timeout: Duration) {
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) > timeout)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            self.close(key, CloseCause::Idle);
        }
    }

    fn close(&mut self, key: usize, cause: CloseCause) {
        if let Some(conn) = self.conns.remove(&key) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shard_conns.dec();
            self.handoff.load.fetch_sub(1, Ordering::Relaxed);
            self.stats.closed(conn.id, cause);
        }
    }
}

/// Runs reads, frame handling, and writes for one event. Returns the
/// [`CloseCause`] when the connection must be dropped (EOF, error,
/// protocol violation).
fn drive<S: Read + Write>(
    handler: &Handler,
    stats: &SharedStats,
    frames: &Counter,
    conn: &mut Conn<S>,
    readable: bool,
    writable: bool,
    now: Instant,
) -> Result<(), CloseCause> {
    if readable {
        loop {
            if conn.out.len() >= REPLY_BUDGET {
                break; // backpressure: drain before reading more
            }
            match conn.inbuf.read_from(&mut conn.stream, CHUNK) {
                Ok(0) => return Err(CloseCause::Peer),
                Ok(n) => {
                    conn.last_activity = now;
                    process_frames(handler, stats, frames, conn)?;
                    if n < CHUNK {
                        // A short read means the kernel buffer is
                        // drained *right now*; skip the guaranteed
                        // WouldBlock read. Bytes arriving later
                        // re-trigger the level-triggered poller.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseCause::Io),
            }
        }
    }
    if (writable || !conn.out.is_empty()) && !flush(conn, now) {
        return Err(CloseCause::Io);
    }
    // A flush may have drained below the budget: resume decoding frames
    // that backpressure deferred.
    if conn.out.len() < REPLY_BUDGET {
        conn.backpressured = false;
    }
    process_frames(handler, stats, frames, conn)?;
    if flush(conn, now) {
        Ok(())
    } else {
        Err(CloseCause::Io)
    }
}

/// Decodes and handles every complete frame in `inbuf` while less than
/// a reply budget is queued. Fails with [`CloseCause::Framing`] on a
/// framing violation and [`CloseCause::HandlerPanic`] when the handler
/// panics.
fn process_frames<S>(
    handler: &Handler,
    stats: &SharedStats,
    frames: &Counter,
    conn: &mut Conn<S>,
) -> Result<(), CloseCause> {
    while conn.out.len() < REPLY_BUDGET {
        let len = match frame_len(&conn.inbuf) {
            Ok(Some(len)) if conn.inbuf.len() >= 4 + len => len,
            Ok(_) => break,
            Err(_) => return Err(CloseCause::Framing), // oversized/absurd frame: drop
        };
        // Count before dispatch so a STATS snapshot taken by the
        // handler includes the frame that requested it.
        frames.inc();
        // The request is decoded where it lies and the reply framed
        // straight into the connection's reusable write buffer.
        let reply = match Request::decode_from(&conn.inbuf[4..4 + len]) {
            // A panicking handler costs its own connection, not the shard
            // thread and every other connection on it. The handler's
            // state is the handler's to keep consistent across an unwind
            // (the server's locks do not poison).
            Ok(req) => match panic::catch_unwind(AssertUnwindSafe(|| handler(req))) {
                Ok(reply) => reply,
                Err(_) => return Err(CloseCause::HandlerPanic),
            },
            Err(e) => Reply::Error {
                message: format!("bad request: {e}"),
            },
        };
        conn.inbuf.advance(4 + len);
        frame_reply_into(&reply, &mut conn.out);
    }
    give_back(&mut conn.inbuf);
    // Trace the budget crossing once; the flag resets when a flush
    // drains the queue back below it.
    if conn.out.len() >= REPLY_BUDGET && !conn.backpressured {
        conn.backpressured = true;
        stats.backpressured(conn.id);
    }
    Ok(())
}

/// Writes queued replies until done or the kernel would block.
fn flush<S: Write>(conn: &mut Conn<S>, now: Instant) -> bool {
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => return false,
            Ok(n) => {
                conn.out.advance(n);
                conn.last_activity = now;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    give_back(&mut conn.out);
    true
}

/// Re-registers the connection when its desired interest changed:
/// readable unless backpressured, writable while replies are queued.
fn sync_interest(poller: &Poller, key: usize, conn: &mut Conn<TcpStream>) -> bool {
    let want_read = conn.out.len() < REPLY_BUDGET;
    let want_write = !conn.out.is_empty();
    if (want_read, want_write) != (conn.want_read, conn.want_write) {
        if poller
            .modify(conn.stream.as_raw_fd(), key, want_read, want_write)
            .is_err()
        {
            return false;
        }
        conn.want_read = want_read;
        conn.want_write = want_write;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_conn::recv_reply;
    use crate::codec::{frame_request_into, IDLE_CAPACITY, MAX_FRAME};
    use crate::test_io::{trickle, Scripted};

    fn echo() -> Handler {
        Arc::new(|req| match req {
            Request::IssueId { user } => Reply::Id {
                id: [(user & 0xff) as u8; 16],
            },
            Request::Add { sig_text, .. } => Reply::AddAck {
                accepted: true,
                reason: sig_text,
            },
            other => Reply::Error {
                message: format!("unexpected {other:?}"),
            },
        })
    }

    /// Runs `reads` through `drive`, one readiness event per scripted
    /// read at most, and returns the connection as it ended up.
    fn drive_all(reads: Vec<Vec<u8>>) -> Conn<Scripted> {
        let registry = Registry::new();
        let stats = SharedStats::resolve(&registry);
        let frames = registry.counter("frames");
        let now = Instant::now();
        let events = reads.len() + 1;
        let mut conn = Conn::new(Scripted::new(reads), 0, now);
        for _ in 0..events {
            drive(&echo(), &stats, &frames, &mut conn, true, false, now).expect("stays open");
        }
        conn
    }

    fn requests() -> (Vec<Request>, Vec<u8>) {
        let requests = vec![
            Request::IssueId { user: 1 },
            Request::Add {
                sender: [3u8; 16],
                sig_text: "x".repeat(300),
            },
            Request::IssueId { user: 2 },
            Request::Add {
                sender: [4u8; 16],
                sig_text: "y".repeat(40),
            },
        ];
        let mut wire = BytesMut::new();
        for r in &requests {
            frame_request_into(r, &mut wire);
        }
        (requests, wire.to_vec())
    }

    #[test]
    fn fragmented_reads_yield_the_same_replies_in_order() {
        let (requests, wire) = requests();
        let whole = drive_all(vec![wire.clone()]).stream.written;
        let mut expected = BytesMut::new();
        for r in requests.clone() {
            frame_reply_into(&echo()(r), &mut expected);
        }
        assert_eq!(whole, expected.to_vec());

        // 1..=7 bytes a read.
        assert_eq!(drive_all(trickle(&wire)).stream.written, whole);

        // Three frames and a half in one read, the remainder in the next.
        let mut fourth = BytesMut::new();
        frame_request_into(&requests[3], &mut fourth);
        let cut = wire.len() - fourth.len() / 2;
        let split = vec![wire[..cut].to_vec(), wire[cut..].to_vec()];
        assert_eq!(drive_all(split).stream.written, whole);
    }

    #[test]
    fn an_announced_length_does_not_size_the_buffer() {
        // A header announcing MAX_FRAME, 1 KB of it, then silence.
        let mut sent = (MAX_FRAME as u32).to_be_bytes().to_vec();
        sent.extend_from_slice(&[0xAB; 1024]);
        let conn = drive_all(vec![sent]);
        assert_eq!(conn.inbuf.len(), 4 + 1024, "the partial frame waits");
        assert!(
            conn.inbuf.capacity() < 64 * 1024,
            "buffer grew to {} on an unverified header",
            conn.inbuf.capacity()
        );
        assert!(conn.stream.written.is_empty());
    }

    #[test]
    fn a_drained_connection_gives_its_buffers_back() {
        // One 4 MB ADD in, its 4 MB echo out: the server end reads and
        // writes the frame whole, then keeps neither buffer.
        let add = Request::Add {
            sender: [5u8; 16],
            sig_text: "z".repeat(4 << 20),
        };
        let mut wire = BytesMut::new();
        frame_request_into(&add, &mut wire);
        let conn = drive_all(vec![wire.to_vec()]);
        let reply = echo()(add);
        let mut expected = BytesMut::new();
        frame_reply_into(&reply, &mut expected);
        assert_eq!(conn.stream.written, expected.to_vec());
        assert!(conn.inbuf.is_empty() && conn.out.is_empty());
        assert!(
            conn.inbuf.capacity() <= IDLE_CAPACITY && conn.out.capacity() <= IDLE_CAPACITY,
            "a drained server connection keeps {} + {} bytes",
            conn.inbuf.capacity(),
            conn.out.capacity()
        );

        // The client end receives that reply and keeps no buffer either.
        let mut src = Scripted::new([conn.stream.written]);
        let (mut inbuf, mut eof) = (BytesMut::new(), false);
        let got = recv_reply(&mut inbuf, &mut eof, &mut src).expect("receive");
        assert_eq!(got, Some(reply));
        assert!(
            inbuf.capacity() <= IDLE_CAPACITY,
            "a drained client connection keeps {} bytes",
            inbuf.capacity()
        );
    }
}
