//! A fixed-capacity, never-blocking ring buffer of typed trace events.
//!
//! The tracer is a flight recorder: the transports emit one event per
//! connection-lifecycle transition (accept, evict, backpressure,
//! framing error, handler panic, close) and the ring keeps the most recent
//! `capacity` of them. Emitting must never slow a hot path, so slots
//! are taken with `try_lock` only — a contended slot drops the event
//! and bumps the drop counter instead of waiting, and overwriting an
//! old event (normal ring behavior) counts the overwritten event as
//! dropped too.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a transport evicted a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// No read or write progress for the configured idle timeout (also
    /// the slow-loris case: a length prefix followed by a stall).
    Idle,
    /// The server is shutting down.
    Shutdown,
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictReason::Idle => f.write_str("idle"),
            EvictReason::Shutdown => f.write_str("shutdown"),
        }
    }
}

/// What happened, on which connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A connection was accepted.
    Accepted,
    /// A connection closed normally (peer hangup or I/O error).
    Closed,
    /// The server forcibly evicted a connection.
    Evicted(EvictReason),
    /// A connection crossed the write high-water mark; the server
    /// stopped reading from it until its replies drain.
    Backpressure,
    /// The peer sent an oversized or malformed frame; the connection is
    /// dropped.
    FramingError,
    /// The request handler panicked; the connection is dropped and the
    /// rest of its reactor shard keeps serving.
    HandlerPanic,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Accepted => f.write_str("accepted"),
            EventKind::Closed => f.write_str("closed"),
            EventKind::Evicted(r) => write!(f, "evicted/{r}"),
            EventKind::Backpressure => f.write_str("backpressure"),
            EventKind::FramingError => f.write_str("framing-error"),
            EventKind::HandlerPanic => f.write_str("handler-panic"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (gapless across *emitted* events; gaps in
    /// a readout mean the ring wrapped or a slot was contended).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Transport-assigned connection id.
    pub conn: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} conn={} {}", self.seq, self.conn, self.kind)
    }
}

/// The ring buffer. See the module docs for the non-blocking contract.
#[derive(Debug)]
pub struct Tracer {
    slots: Box<[Mutex<Option<TraceEvent>>]>,
    seq: AtomicU64,
    drops: AtomicU64,
}

impl Tracer {
    /// A tracer holding at most `capacity` events (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            seq: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records an event. Never blocks: if the slot is held by a
    /// concurrent reader or writer, the event is counted as dropped
    /// instead. Returns the event's sequence number.
    pub fn emit(&self, kind: EventKind, conn: u64) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => {
                if guard.is_some() {
                    // Ring wrapped: the displaced event is lost unread.
                    self.drops.fetch_add(1, Ordering::Relaxed);
                }
                *guard = Some(TraceEvent { seq, kind, conn });
            }
            Err(_) => {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        seq
    }

    /// Total events emitted over the tracer's lifetime.
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events lost: overwritten by the wrapping ring before being
    /// drained, or skipped because their slot was contended.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first. Uses `try_lock` per slot (a
    /// slot being concurrently written is simply skipped), so reading
    /// never stalls writers either.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.try_lock().ok().and_then(|g| *g))
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl Default for Tracer {
    /// A 1024-event flight recorder.
    fn default() -> Self {
        Tracer::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order() {
        let t = Tracer::new(8);
        t.emit(EventKind::Accepted, 1);
        t.emit(EventKind::Backpressure, 1);
        t.emit(EventKind::Closed, 1);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Accepted);
        assert_eq!(evs[2].kind, EventKind::Closed);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[2].seq, 2);
        assert_eq!(t.drops(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::new(4);
        for i in 0..10 {
            t.emit(EventKind::Accepted, i);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4, "capacity bounds retention");
        assert_eq!(evs[0].seq, 6, "oldest retained is seq 6");
        assert_eq!(t.emitted(), 10);
        assert_eq!(t.drops(), 6, "six events displaced by wrapping");
    }

    #[test]
    fn concurrent_emits_never_block_and_account_for_everything() {
        let t = std::sync::Arc::new(Tracer::new(64));
        std::thread::scope(|s| {
            for th in 0..8u64 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.emit(EventKind::Accepted, th);
                    }
                });
            }
        });
        assert_eq!(t.emitted(), 8000);
        // Every emitted event is either retained or counted dropped.
        assert_eq!(t.events().len() as u64 + t.drops(), 8000);
    }

    #[test]
    fn display_forms() {
        let e = TraceEvent {
            seq: 7,
            kind: EventKind::Evicted(EvictReason::Idle),
            conn: 3,
        };
        assert_eq!(e.to_string(), "#7 conn=3 evicted/idle");
        assert_eq!(EventKind::FramingError.to_string(), "framing-error");
        assert_eq!(EventKind::HandlerPanic.to_string(), "handler-panic");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let t = Tracer::new(0);
        assert_eq!(t.capacity(), 1);
        t.emit(EventKind::Closed, 0);
        assert_eq!(t.events().len(), 1);
    }
}
