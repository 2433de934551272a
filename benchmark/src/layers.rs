//! The per-layer harness: times a public function of one crate on
//! generated inputs, from outside, and reports the median of its
//! samples. What is timed lives in `sut.rs`; how it is timed lives
//! here.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// Collects the samples of one probe. A sample is nanoseconds per op;
/// work that prepares an op stays outside [`Meter::time`].
#[derive(Debug, Default)]
pub struct Meter {
    ns_per_op: Vec<f64>,
    spent: Duration,
}

impl Meter {
    /// Times `f`, which performs `ops` ops (a fraction for byte rates:
    /// 0.065 MB per call), and records one sample.
    pub fn time<R>(&mut self, ops: f64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = black_box(f());
        let took = start.elapsed();
        self.spent += took;
        self.ns_per_op.push(took.as_nanos() as f64 / ops);
        out
    }

    /// Records a sample timed elsewhere (threads timing themselves).
    pub fn push(&mut self, took: Duration, ops: f64) {
        self.spent += took;
        self.ns_per_op.push(took.as_nanos() as f64 / ops);
    }

    /// Records a value that is not a time (a ratio, a count).
    pub fn value(&mut self, v: f64) {
        self.ns_per_op.push(v);
    }
}

/// How a probe's samples become its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Median time per op, in `ns`, `us` or `ms`.
    Time(&'static str),
    /// Ops per second at the median time per op; the unit names the op
    /// (`1/s`, `MB/s`, `sigs/s`).
    Rate(&'static str),
    /// Median of directly recorded values.
    Value(&'static str),
}

impl Kind {
    /// The unit string reported with the value.
    pub fn unit(self) -> &'static str {
        match self {
            Kind::Time(u) | Kind::Rate(u) | Kind::Value(u) => u,
        }
    }
}

/// One per-layer metric and the code that measures it. The body runs
/// one round (preparing untimed, timing through the [`Meter`]) and
/// returns whether another round is possible.
pub struct Probe {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit and reduction.
    pub kind: Kind,
    /// One round.
    pub body: Box<dyn FnMut(&mut Meter) -> bool>,
}

impl Probe {
    /// A probe reporting median time per op.
    pub fn time(
        name: &'static str,
        unit: &'static str,
        body: impl FnMut(&mut Meter) -> bool + 'static,
    ) -> Probe {
        Probe {
            name,
            kind: Kind::Time(unit),
            body: Box::new(body),
        }
    }

    /// A probe reporting ops per second.
    pub fn rate(
        name: &'static str,
        unit: &'static str,
        body: impl FnMut(&mut Meter) -> bool + 'static,
    ) -> Probe {
        Probe {
            name,
            kind: Kind::Rate(unit),
            body: Box::new(body),
        }
    }

    /// A probe reporting a directly recorded value.
    pub fn value(
        name: &'static str,
        unit: &'static str,
        body: impl FnMut(&mut Meter) -> bool + 'static,
    ) -> Probe {
        Probe {
            name,
            kind: Kind::Value(unit),
            body: Box::new(body),
        }
    }
}

/// Most rounds one probe runs, however fast they are.
const MAX_ROUNDS: usize = 400;

/// Runs `probe` until `budget` of timed work is spent (at least two
/// rounds, the first discarded as warm-up when more follow) and reduces
/// the samples to the reported value.
pub fn run(probe: &mut Probe, budget: Duration) -> f64 {
    let mut meter = Meter::default();
    for round in 0..MAX_ROUNDS {
        let more = (probe.body)(&mut meter);
        if !more || (round >= 1 && meter.spent >= budget) {
            break;
        }
    }
    reduce(probe.kind, &meter.ns_per_op)
}

fn reduce(kind: Kind, samples: &[f64]) -> f64 {
    let kept = if samples.len() > 2 {
        &samples[1..]
    } else {
        samples
    };
    let mid = stats::median(kept);
    match kind {
        Kind::Time("ns") | Kind::Value(_) => mid,
        Kind::Time("us") => mid / 1e3,
        Kind::Time("ms") => mid / 1e6,
        Kind::Time(other) => panic!("probe time unit {other:?} is not ns, us or ms"),
        Kind::Rate(_) => {
            if mid > 0.0 {
                1e9 / mid
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_takes_the_median_and_drops_the_warm_up_round() {
        // First round 10× slower (cold): dropped.
        let s = [10_000.0, 1000.0, 1100.0, 900.0];
        assert_eq!(reduce(Kind::Time("ns"), &s), 1000.0);
        assert_eq!(reduce(Kind::Time("us"), &s), 1.0);
        assert_eq!(reduce(Kind::Rate("1/s"), &s), 1_000_000.0);
        assert_eq!(reduce(Kind::Value("ratio"), &[0.2]), 0.2);
        assert_eq!(reduce(Kind::Time("ms"), &[2e6, 4e6]), 2.0);
    }

    #[test]
    fn a_probe_stops_when_its_body_runs_dry() {
        let mut left = 3;
        let mut p = Probe::time("x.y", "ns", move |m| {
            m.time(1.0, || ());
            left -= 1;
            left > 0
        });
        let _ = run(&mut p, Duration::from_secs(60));
        // Three rounds ran, then the body said stop; no hang.
    }
}
