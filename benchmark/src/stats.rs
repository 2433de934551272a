//! The arithmetic every reported number goes through: nearest-rank
//! percentiles, quartile spread, and the ten-slice noise band.

/// Number of equally populated slices a timed window is cut into for
/// the `.iqr` noise bands.
pub const SLICES: usize = 10;

/// Each end-to-end number of a window (`ops_per_s`, `lat_p50_us`,
/// `lat_p95_us`) is read off this many consecutive and equally populated
/// slices of the window: every slice has its own rate, median and 95th
/// percentile, and the window's value is the slice value at the
/// favourable decile ([`QUIET_PERCENTILE`]): the 4th best of 40.
///
/// Why not the median slice. The box this runs on is a few vCPUs of a
/// shared host, and its neighbours only ever slow it down: for minutes
/// at a time the same SHA-256 loop runs at 250 MB/s or 165 MB/s from one
/// tenth of a second to the next, and a snapshot fsync takes 0.1 s or
/// 1 s as the shared disk pleases. The slow side of a window's slices is
/// the neighbours' doing and differs from run to run; the fast side is
/// the program's and repeats. Over ten 24 s runs with ten seeds taken in
/// such a spell, the median of five slices spread (inter-quartile range
/// over median) by 10-25% on every workload, the favourable decile of
/// forty by 4-9% on all but `immunity_relay`. A change that slows every
/// op moves every slice and so moves the decile in full; a change that
/// adds an occasional stall moves the whole-window values reported
/// beside it (`driver.ops_per_s.overall`, `driver.lat_p95_us.window`,
/// `driver.lat_p99_us`) and the trial-based `upload_durable`.
pub const RATE_SLICES: usize = 40;

/// Percentile of the slices, counted from the favourable end, at which
/// an end-to-end value is read.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// Nearest-rank percentile (`p` in 0..=100) of a sorted sample: the
/// smallest value with at least `p`% of the sample at or below it.
/// Returns 0.0 for an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// The value at the favourable [`QUIET_PERCENTILE`] of `values`, by
/// nearest rank: the 4th lowest of 40 latencies, the 4th highest of 40
/// rates, the best of up to ten.
pub fn favourable(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    let rank = (QUIET_PERCENTILE / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the driver judges run-to-run spread with that function,
/// so the slice bands use the same one. Fewer than two values have no
/// spread: both quartiles are the value itself (or 0.0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range (`q3 - q1`) of `values`.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// One measured op (or batch of ops) inside a timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion time, nanoseconds since the window opened.
    pub end_ns: u64,
    /// The latency reported for it, nanoseconds.
    pub lat_ns: f64,
    /// How many ops it stands for (a catch-up delivers 10 000
    /// signatures, a lock batch is 1000 pairs).
    pub units: u64,
    /// Time on the clock it accounts for, nanoseconds: the op's own
    /// duration (a whole lock batch, where `lat_ns` is per pair).
    pub span_ns: f64,
}

/// What the denominator of `ops_per_s` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clocking {
    /// The whole window is one timed region (drivers never leave it).
    Wall,
    /// As [`Clocking::Wall`], for an open loop: `ops_per_s` is the
    /// completions of the whole window over its length. After every
    /// stall an open loop completes its backlog in a burst, so the rate
    /// of a slice says when the burst was, not what the server can do; a
    /// backlog that never clears shows in the whole-window rate.
    OpenLoop,
    /// Timed regions are the samples themselves; work between them
    /// (rebuilding nodes, generations) is off the clock.
    SumOfSamples,
}

/// End-to-end numbers of one window plus their ten-slice noise bands.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Latency samples in the window.
    pub samples: usize,
    /// Ops the samples stand for.
    pub units: u64,
    /// Seconds inside timed regions.
    pub timed_s: f64,
    /// Correct ops per second of timed region: the favourable decile of
    /// [`RATE_SLICES`] equally populated slices (the whole window's
    /// rate for an open loop).
    pub ops_per_s: f64,
    /// Correct ops over the whole timed region, per second.
    pub ops_per_s_overall: f64,
    /// Median latency, µs: the favourable decile of the slices'.
    pub lat_p50_us: f64,
    /// 95th percentile latency, µs: the favourable decile of the slices'.
    pub lat_p95_us: f64,
    /// Median latency over the whole window, µs (diagnostic).
    pub lat_p50_us_window: f64,
    /// 95th percentile latency over the whole window, µs (diagnostic).
    pub lat_p95_us_window: f64,
    /// 99th percentile latency, µs (diagnostic).
    pub lat_p99_us: f64,
    /// 99.9th percentile latency, µs (diagnostic).
    pub lat_p999_us: f64,
    /// IQR of the per-slice `ops_per_s`.
    pub ops_per_s_iqr: f64,
    /// IQR of the per-slice median latency, µs.
    pub lat_p50_us_iqr: f64,
    /// IQR of the per-slice p95 latency, µs.
    pub lat_p95_us_iqr: f64,
}

fn timed_seconds(samples: &[Sample], wall_ns: u64, clocking: Clocking) -> f64 {
    match clocking {
        Clocking::Wall | Clocking::OpenLoop => wall_ns as f64 / 1e9,
        Clocking::SumOfSamples => samples.iter().map(|s| s.span_ns).sum::<f64>() / 1e9,
    }
}

/// Rate, p50 and p95 (ns) of each of `k` consecutive slices holding
/// equally many samples (all in one slice when there are fewer than
/// `k`). `by_end` is ordered by completion time; a wall-clocked slice
/// lasts from the previous slice's last completion (the window's start
/// for the first) to its own.
fn equal_count_slices(by_end: &[Sample], k: usize, clocking: Clocking) -> Vec<(f64, f64, f64)> {
    let n = by_end.len();
    let k = if n < k { 1 } else { k };
    (0..k)
        .filter_map(|i| {
            let (lo, hi) = (i * n / k, (i + 1) * n / k);
            let slice = by_end.get(lo..hi).filter(|s| !s.is_empty())?;
            let units: u64 = slice.iter().map(|s| s.units).sum();
            let from = if lo == 0 { 0 } else { by_end[lo - 1].end_ns };
            let secs = timed_seconds(slice, by_end[hi - 1].end_ns - from, clocking);
            let lats = sorted(&slice.iter().map(|s| s.lat_ns).collect::<Vec<_>>());
            (secs > 0.0).then(|| {
                (
                    units as f64 / secs,
                    percentile_sorted(&lats, 50.0),
                    percentile_sorted(&lats, 95.0),
                )
            })
        })
        .collect()
}

/// Summarises a window of `window_ns` nanoseconds. Rate, p50 and p95
/// are the favourable decile of `rate_slices` equally populated slices
/// ([`RATE_SLICES`] unless the workload says otherwise); the noise
/// bands are the inter-quartile ranges over [`SLICES`] such slices.
pub fn summarize(
    samples: &[Sample],
    window_ns: u64,
    clocking: Clocking,
    rate_slices: usize,
) -> Summary {
    let mut by_end = samples.to_vec();
    by_end.sort_by_key(|s| s.end_ns);
    let lats = sorted(&samples.iter().map(|s| s.lat_ns).collect::<Vec<_>>());
    let units: u64 = samples.iter().map(|s| s.units).sum();
    let timed_s = timed_seconds(samples, window_ns, clocking);
    let rate = |units: u64, secs: f64| if secs > 0.0 { units as f64 / secs } else { 0.0 };

    let bands = equal_count_slices(&by_end, SLICES, clocking);
    let band = |f: fn(&(f64, f64, f64)) -> f64| iqr(&bands.iter().map(f).collect::<Vec<_>>());
    let per_slice = equal_count_slices(&by_end, rate_slices, clocking);
    let quiet = |f: fn(&(f64, f64, f64)) -> f64, higher_is_better: bool| {
        favourable(
            &per_slice.iter().map(f).collect::<Vec<_>>(),
            higher_is_better,
        )
    };
    let ops_per_s_overall = rate(units, timed_s);
    Summary {
        samples: samples.len(),
        units,
        timed_s,
        ops_per_s: match clocking {
            Clocking::OpenLoop => ops_per_s_overall,
            Clocking::Wall | Clocking::SumOfSamples => quiet(|s| s.0, true),
        },
        ops_per_s_overall,
        lat_p50_us: quiet(|s| s.1, false) / 1e3,
        lat_p95_us: quiet(|s| s.2, false) / 1e3,
        lat_p50_us_window: percentile_sorted(&lats, 50.0) / 1e3,
        lat_p95_us_window: percentile_sorted(&lats, 95.0) / 1e3,
        lat_p99_us: percentile_sorted(&lats, 99.0) / 1e3,
        lat_p999_us: percentile_sorted(&lats, 99.9) / 1e3,
        ops_per_s_iqr: band(|s| s.0),
        lat_p50_us_iqr: band(|s| s.1) / 1e3,
        lat_p95_us_iqr: band(|s| s.2) / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 99.9), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        // 20 samples: p95 is the 19th, so exactly one lies beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 95.0), 19.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(iqr(&v), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert_eq!(iqr(&[]), 0.0);
    }

    #[test]
    fn wall_clocked_summary_and_slice_bands() {
        // 1 s window, one sample every 10 ms, latency 100 µs except in
        // the last slice (200 µs): the p50 band stays flat (9 of 10
        // slices agree), the overall rate is exact.
        let window = 1_000_000_000u64;
        let samples: Vec<Sample> = (0..100u64)
            .map(|i| Sample {
                end_ns: i * 10_000_000 + 5_000_000,
                lat_ns: if i >= 90 { 200_000.0 } else { 100_000.0 },
                units: 1,
                span_ns: if i >= 90 { 200_000.0 } else { 100_000.0 },
            })
            .collect();
        let s = summarize(&samples, window, Clocking::Wall, RATE_SLICES);
        assert_eq!(s.samples, 100);
        assert_eq!(s.ops_per_s_overall, 100.0);
        // Forty slices of two or three samples, each at one per 10 ms
        // but the first (the window opens 5 ms before the first
        // completion): the 4th best rate is the common one.
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.lat_p50_us, 100.0);
        assert_eq!(
            s.lat_p95_us, 100.0,
            "only the last four of forty slices are slow"
        );
        assert_eq!(s.lat_p95_us_window, 200.0, "the whole window's tail has it");
        assert_eq!(s.ops_per_s_iqr, 0.0, "every slice holds ten samples");
        assert_eq!(s.lat_p50_us_iqr, 0.0);
    }

    #[test]
    fn sample_clocked_summary_ignores_off_clock_gaps() {
        // Ten 1 ms ops of 1000 units each spread over a 1 s window: the
        // rate is per second of *timed* region, not of wall.
        let samples: Vec<Sample> = (0..10u64)
            .map(|i| Sample {
                end_ns: i * 100_000_000 + 1_000_000,
                lat_ns: 1_000_000.0,
                units: 1000,
                span_ns: 1_000_000.0,
            })
            .collect();
        let s = summarize(&samples, 1_000_000_000, Clocking::SumOfSamples, RATE_SLICES);
        assert!((s.timed_s - 0.01).abs() < 1e-12);
        assert!((s.ops_per_s - 1_000_000.0).abs() < 1e-3);
        assert_eq!(s.units, 10_000);
        assert!(s.ops_per_s_iqr.abs() < 1e-3);
    }

    #[test]
    fn one_stalled_slice_does_not_move_the_rate() {
        // 50 ops at one per ms, except a 400 ms stall before op 25.
        let mut t = 0u64;
        let samples: Vec<Sample> = (0..50)
            .map(|i| {
                t += if i == 25 { 400_000_000 } else { 1_000_000 };
                Sample {
                    end_ns: t,
                    lat_ns: 1000.0,
                    units: 1,
                    span_ns: 1000.0,
                }
            })
            .collect();
        let s = summarize(&samples, t, Clocking::Wall, RATE_SLICES);
        assert!(
            (s.ops_per_s - 1000.0).abs() < 1e-6,
            "thirty-nine of forty slices saw no stall"
        );
        assert_eq!(s.lat_p95_us, 1.0);
        assert!(s.ops_per_s_overall < 120.0, "the overall rate carries it");
        // Fewer samples than slices: one slice, the overall rate.
        let few = summarize(&samples[..3], 3_000_000, Clocking::Wall, RATE_SLICES);
        assert!((few.ops_per_s - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn favourable_decile_by_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(favourable(&v, false), 4.0, "4th lowest of 40");
        assert_eq!(favourable(&v, true), 37.0, "4th highest of 40");
        assert_eq!(favourable(&[3.0, 1.0, 2.0], false), 1.0, "best of few");
        assert_eq!(favourable(&[3.0, 1.0, 2.0], true), 3.0);
        assert_eq!(favourable(&[], true), 0.0);
    }

    #[test]
    fn neighbours_slowing_most_of_a_window_do_not_move_it() {
        // 400 ops of 1 ms; in 80% of the window a neighbour makes them
        // 1.4 ms. The decile reads the quiet fifth.
        let mut t = 0u64;
        let samples: Vec<Sample> = (0..400)
            .map(|i| {
                let lat = if i % 50 < 10 { 1_000_000 } else { 1_400_000 };
                t += lat;
                Sample {
                    end_ns: t,
                    lat_ns: lat as f64,
                    units: 1,
                    span_ns: lat as f64,
                }
            })
            .collect();
        let s = summarize(&samples, t, Clocking::SumOfSamples, RATE_SLICES);
        assert_eq!(s.lat_p50_us, 1000.0);
        assert_eq!(s.lat_p95_us, 1000.0);
        assert!((s.ops_per_s - 1000.0).abs() < 1e-6);
        assert!(s.ops_per_s_overall < 800.0, "the overall rate carries it");
        // Every op 1.4 ms: nothing hides that.
        let slow: Vec<Sample> = samples
            .iter()
            .map(|s| Sample {
                lat_ns: 1_400_000.0,
                span_ns: 1_400_000.0,
                ..*s
            })
            .collect();
        let s = summarize(&slow, t, Clocking::SumOfSamples, RATE_SLICES);
        assert_eq!(s.lat_p50_us, 1400.0);
    }

    #[test]
    fn open_loop_rate_is_the_whole_windows() {
        // 2 s at 100/s with a 1 s stall in the middle whose backlog
        // completes in a burst: slices in the burst run at 1000/s, the
        // window at 100/s.
        let samples: Vec<Sample> = (0..200u64)
            .map(|i| {
                let due = i * 10_000_000;
                let end = if (50..150).contains(&i) {
                    1_500_000_000 + (i - 50) * 1_000_000
                } else {
                    due + 1_000_000
                };
                Sample {
                    end_ns: end,
                    lat_ns: (end - due) as f64,
                    units: 1,
                    span_ns: (end - due) as f64,
                }
            })
            .collect();
        let open = summarize(&samples, 2_000_000_000, Clocking::OpenLoop, RATE_SLICES);
        assert_eq!(open.ops_per_s, 100.0);
        let closed = summarize(&samples, 2_000_000_000, Clocking::Wall, RATE_SLICES);
        assert!(closed.ops_per_s > 900.0, "a slice of the burst");
        assert_eq!(open.lat_p50_us, closed.lat_p50_us);
    }

    #[test]
    fn slice_band_widens_with_a_stall() {
        // Half the slices run at half rate: the band is non-zero.
        let mut samples = Vec::new();
        for slice in 0..10u64 {
            let n = if slice % 2 == 0 { 10 } else { 5 };
            for k in 0..n {
                samples.push(Sample {
                    end_ns: slice * 100_000_000 + k * 1_000_000,
                    lat_ns: 1000.0,
                    units: 1,
                    span_ns: 1000.0,
                });
            }
        }
        let s = summarize(&samples, 1_000_000_000, Clocking::Wall, RATE_SLICES);
        assert!(s.ops_per_s_iqr > 0.0);
    }
}
