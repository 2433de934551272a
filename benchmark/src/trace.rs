//! Spans recorded from outside the program, at seams that already
//! exist (node lifecycle calls, a connector wrapper, a handler closure,
//! completion callbacks). Kept in memory, written once at exit.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover, so the self times of an op's tree sum to
//! the op's latency and say where it went.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root span of one measured op; its subtree is what the 5% check
/// holds against the driver's own latency.
pub const OP: &str = "driver.op";
/// Root span of an isolated replay of an op's stages (outside the op's
/// latency, so excluded from that check).
pub const REPLAY: &str = "driver.replay";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a trace, starting at 1.
    pub id: u32,
    /// `<layer>.<what>`; the layer is the crate that did the work.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// Shared by every span of one op.
    pub req: u64,
}

impl Span {
    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Who caused a span, as the recording site knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// A root.
    None,
    /// A span whose id the recorder holds.
    Id(u32),
    /// The [`OP`] root with the same `req` — for sites (the server-side
    /// handler closure) that can work out which op a request belongs to
    /// but not that op's span id. Resolved by [`Tracer::finish`].
    OpOfReq,
}

const UNRESOLVED: u32 = u32::MAX;

/// In-memory span sink, shared by driver and server threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so children can name a parent that is still open.
    pub fn open(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under a reserved `id`.
    pub fn close(
        &self,
        id: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Parent,
        req: u64,
    ) {
        let parent = match parent {
            Parent::None => 0,
            Parent::Id(id) => id,
            Parent::OpOfReq => UNRESOLVED,
        };
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.lock().expect("tracer lock").push(span);
    }

    /// Records a finished span, reserving its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Parent,
        req: u64,
    ) -> u32 {
        let id = self.open();
        self.close(id, name, start, end, parent, req);
        id
    }

    /// Takes the spans out, resolving [`Parent::OpOfReq`] links and
    /// ordering by start time. A span whose op root was never recorded
    /// (the op failed) becomes a root itself.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("tracer lock"));
        let ops: BTreeMap<u64, u32> = spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| (s.req, s.id))
            .collect();
        for s in &mut spans {
            if s.parent == UNRESOLVED {
                s.parent = ops.get(&s.req).copied().unwrap_or(0);
            }
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, in `spans` order: duration minus the union
/// of its children's intervals (clipped to the span, so a child that
/// overruns its parent or overlaps a sibling is not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// What a trace says in aggregate.
#[derive(Debug, Clone, Default)]
pub struct TraceDigest {
    /// Spans recorded.
    pub spans: usize,
    /// Layers that own at least one span.
    pub layers: Vec<&'static str>,
    /// Self time per span name, ns, summed over the trace.
    pub self_ns_by_name: BTreeMap<&'static str, u64>,
    /// Spans per span name.
    pub count_by_name: BTreeMap<&'static str, u64>,
    /// Self time summed over every [`OP`] tree, ns — equals the summed
    /// op latency when the seams nest properly.
    pub op_tree_self_ns: u64,
}

/// Aggregates `spans` (as returned by [`Tracer::finish`]).
pub fn digest(spans: &[Span]) -> TraceDigest {
    let selfs = self_times(spans);
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let in_op_tree = |mut i: usize| -> bool {
        // Depth is bounded by the seams (op → stage → call → handle).
        for _ in 0..8 {
            if spans[i].name == OP {
                return true;
            }
            match index.get(&spans[i].parent) {
                Some(&p) => i = p,
                None => return false,
            }
        }
        false
    };
    let mut d = TraceDigest {
        spans: spans.len(),
        ..TraceDigest::default()
    };
    for (i, s) in spans.iter().enumerate() {
        *d.self_ns_by_name.entry(s.name).or_default() += selfs[i];
        *d.count_by_name.entry(s.name).or_default() += 1;
        if !d.layers.contains(&s.layer()) {
            d.layers.push(s.layer());
        }
        if in_op_tree(i) {
            d.op_tree_self_ns += selfs[i];
        }
    }
    d.layers.sort_unstable();
    d
}

/// Renders the trace file: every span with its self time, then the
/// per-name self-time totals.
pub fn render(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let d = digest(spans);
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_count\":{},\"self_ns_by_name\":{{",
        spans.len()
    );
    for (i, (name, ns)) in d.self_ns_by_name.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{ns}", if i == 0 { "" } else { "," });
    }
    out.push_str("},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"self_ns\":{}}}{}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.req,
            selfs[i],
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, OP, 0, 100, 0),
            // Two children overlapping on 30..40, plus one nested in
            // the first: the parent's cover is 10..60, not 30 + 30.
            span(2, "core.a", 10, 40, 1),
            span(3, "core.b", 30, 60, 1),
            span(4, "net.c", 15, 25, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(1, OP, 100, 200, 0),
            span(2, "server.handle", 50, 120, 1), // starts before the parent
            span(3, "server.handle", 190, 260, 1), // ends after it
            span(4, "server.handle", 300, 400, 1), // wholly outside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn op_tree_self_times_sum_to_the_op_latency() {
        let spans = vec![
            span(1, OP, 0, 1000, 0),
            span(2, "core.node.upload", 100, 600, 1),
            span(3, "client.call", 150, 550, 2),
            span(4, "server.handle", 200, 300, 3),
            span(5, REPLAY, 2000, 2500, 0),
            span(6, "agent.startup", 2100, 2200, 5),
        ];
        let d = digest(&spans);
        assert_eq!(d.op_tree_self_ns, 1000, "replay spans are not op time");
        assert_eq!(d.self_ns_by_name["server.handle"], 100);
        assert_eq!(d.self_ns_by_name["client.call"], 300);
        assert_eq!(d.count_by_name["client.call"], 1);
        assert_eq!(
            d.layers,
            vec!["agent", "client", "core", "driver", "server"]
        );
    }

    #[test]
    fn handler_spans_find_their_op_by_request_id() {
        let t = Tracer::new();
        let t0 = Instant::now();
        // The handler closure fires before the op's completion callback
        // closes the op span.
        let h = t.record("server.handle", t0, t0, Parent::OpOfReq, 7);
        let op = t.record(OP, t0, t0, Parent::None, 7);
        let orphan = t.record("server.handle", t0, t0, Parent::OpOfReq, 8);
        let spans = t.finish();
        let by_id = |id: u32| spans.iter().find(|s| s.id == id).expect("recorded");
        assert_eq!(by_id(h).parent, op);
        assert_eq!(by_id(orphan).parent, 0, "no op root: becomes a root");
        assert!(t.finish().is_empty(), "finish takes the spans out");
    }

    #[test]
    fn rendered_trace_lists_every_span_with_self_time() {
        let spans = vec![span(1, OP, 0, 10, 0), span(2, "net.x", 2, 4, 1)];
        let text = render("w", 3, &spans);
        assert!(text.contains("\"span_count\":2"));
        assert!(text.contains(
            "\"name\":\"net.x\",\"start_ns\":2,\"end_ns\":4,\"parent\":1,\"req\":1,\"self_ns\":2"
        ));
        assert!(text.contains("\"driver.op\":8"));
    }
}
