//! The repo benchmark. One workload per process (so `peak_rss_mb` is
//! its own); without `--workload`, every workload in turn, each in a
//! child process, untraced then traced.
//!
//! ```text
//! communix-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! communix-benchmark [--seed <n>] [--seconds <s>] [--repeat <k>]
//! communix-benchmark --describe          # prints BENCHMARK.json
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. The benchmark claims no gain; it is what later
//! claims are judged with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod layers;
mod metrics;
mod pace;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::Metric;
use stats::Summary;
use workloads::{Check, Pass, Plan, Taps, Workload};

/// Discarded window before the measured one.
const WARM_UP: Duration = Duration::from_secs(2);
/// Fewest times a workload is set up in an untraced run; `setup_s` is
/// the median.
const MIN_SETUPS: usize = 3;
/// A quick set-up repeats (up to this often) until [`SETUP_BUDGET_S`]
/// has gone into set-ups, so its median is as steady as a slow one's.
const MAX_SETUPS: usize = 31;
/// Seconds of set-ups after which no further one is started.
const SETUP_BUDGET_S: f64 = 2.0;
/// Timed work each layer probe gets.
const PROBE_BUDGET: Duration = Duration::from_millis(60);
/// Most a trace's op trees may differ from the driver's own summed op
/// latency.
const TRACE_GAP_LIMIT: f64 = 0.05;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            args.describe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value).filter(|w| w != "all"),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.05 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds between 0.05 and 600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = value
                    .parse()
                    .ok()
                    .filter(|k| (1..=10).contains(k))
                    .ok_or_else(|| bad("1 to 10"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("communix-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("communix-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where WAL directories, traces and result files go: inside the
/// benchmark's own directory in this checkout (ignored by git).
fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

// ---------------------------------------------------------------------
// One workload, this process
// ---------------------------------------------------------------------

/// Everything one run reports beyond the metrics themselves.
struct Report {
    workload: String,
    args: Args,
    facts: Vec<(&'static str, String)>,
    checks: Vec<Check>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Further numbers printed and stored, not in the result line.
    diagnostics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|(w, _)| *w == name) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload {name:?}; one of {known:?}"));
    }
    let out = out_dir()?;
    let report = if args.trace {
        traced_run(name, args, &out)?
    } else {
        untraced_run(name, args, &out)?
    };
    let correct = report.correct();
    print_report(&report);
    let suffix = if args.trace { "-traced" } else { "" };
    let path = out.join(format!("result-{name}{suffix}.json"));
    std::fs::write(&path, render_result(&report))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    // Failed checks count as failed ops: `failed_share` > 0.
    let failed = report.failed + report.checks.iter().filter(|c| !c.ok).count() as u64;
    println!(
        "{}",
        report::result_line(correct, report.attempted, failed, &report.metrics)
    );
    Ok(correct)
}

fn window_facts(args: &Args, windows: &str) -> Vec<(&'static str, String)> {
    vec![
        ("windows", windows.to_string()),
        ("seed", args.seed.to_string()),
        ("nproc", report::nproc().to_string()),
        ("rustc", report::rustc_version()),
        (
            "git_commit",
            report::git_commit(Path::new(env!("CARGO_MANIFEST_DIR"))),
        ),
    ]
}

/// The window's diagnostics: tails, noise bands, lag, saturation.
fn diagnostics(s: &Summary, pass: &Pass, cpu_s: f64) -> Vec<Metric> {
    let wall_s = pass.window_ns as f64 / 1e9;
    let lag_p99 = stats::percentile_sorted(&stats::sorted(&pass.lag_ns), 99.0) / 1e3;
    [
        ("driver.lat_p99_us", s.lat_p99_us),
        ("driver.lat_p999_us", s.lat_p999_us),
        ("driver.ops_per_s.iqr", s.ops_per_s_iqr),
        ("driver.lat_p50_us.iqr", s.lat_p50_us_iqr),
        ("driver.lat_p95_us.iqr", s.lat_p95_us_iqr),
        ("driver.generator_lag_p99_us", lag_p99),
        (
            "driver.busy_share",
            cpu_s / (wall_s * report::nproc() as f64),
        ),
        ("driver.samples", s.samples as f64),
        ("driver.ops_per_s.overall", s.ops_per_s_overall),
        ("driver.lat_p50_us.window", s.lat_p50_us_window),
        ("driver.lat_p95_us.window", s.lat_p95_us_window),
        ("server.store.fsyncs", pass.counters.fsyncs as f64),
        ("server.store.snapshots", pass.counters.snapshots as f64),
        (
            "server.dedup_fast_path",
            pass.counters.dedup_fast_path as f64,
        ),
        ("server.adds_rejected", pass.counters.adds_rejected as f64),
    ]
    .into_iter()
    .map(|(name, value)| layer_metric(name, value))
    .collect()
}

fn layer_metric(name: &str, value: f64) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer table"))
        .1;
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Checks on a measured window that every workload shares.
fn window_checks(pass: &Pass, summary: &Summary) -> Vec<Check> {
    vec![
        Check {
            what: "the window produced latency samples",
            ok: summary.samples > 0 && summary.ops_per_s > 0.0,
            detail: format!("samples={}", summary.samples),
        },
        Check {
            what: "dedup_fast_path and adds_rejected read 0 in the timed window",
            ok: pass.counters.dedup_fast_path == 0 && pass.counters.adds_rejected == 0,
            detail: format!("{:?}", pass.counters),
        },
    ]
}

fn untraced_run(name: &str, args: &Args, out: &Path) -> Result<Report, String> {
    let window = Duration::from_secs_f64(args.seconds);
    let plan = Plan {
        seed: args.seed,
        planned_seconds: (WARM_UP + window).as_secs_f64() + 1.0,
        longest_window: window.as_secs_f64(),
        out_dir: out.to_path_buf(),
    };
    let timed_setup = || -> Result<(Box<dyn Workload>, f64), String> {
        let start = Instant::now();
        let workload = workloads::setup(name, &plan, None)?;
        Ok((workload, start.elapsed().as_secs_f64()))
    };
    let (mut workload, first_setup) = timed_setup()?;
    let mut setups = vec![first_setup];

    let warm = workload.run(WARM_UP.min(window));
    let cpu0 = report::cpu_seconds();
    let pass = workload.run(window);
    let cpu_s = report::cpu_seconds() - cpu0;
    let summary = stats::summarize(
        &pass.samples,
        pass.window_ns,
        workload.clocking(),
        workload.rate_slices(),
    );

    let mut facts = workload.facts();
    let mut checks = window_checks(&pass, &summary);
    checks.extend(workload.finish());
    let peak_rss_mb = report::peak_rss_mb();

    // `setup_s` is the median of several set-ups. The others happen
    // here, after the run is torn down and its peak memory read, so
    // what they leave behind in the allocator is in nobody's number.
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (again, took) = timed_setup()?;
        drop(again);
        setups.push(took);
    }
    facts.extend(window_facts(
        args,
        &format!(
            "{:.1} s warm-up discarded, {:.1} s measured, tracing off; {} set-ups, median reported",
            WARM_UP.min(window).as_secs_f64(),
            args.seconds,
            setups.len()
        ),
    ));

    let value_of = |name: &str| match name {
        "ops_per_s" => summary.ops_per_s,
        "lat_p50_us" => summary.lat_p50_us,
        "lat_p95_us" => summary.lat_p95_us,
        "peak_rss_mb" => peak_rss_mb,
        "setup_s" => stats::median(&setups),
        other => panic!("no source for end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: value_of(m.name),
            unit: m.unit,
        })
        .collect();
    let mut errors = warm.errors;
    errors.extend(pass.errors.iter().cloned());
    Ok(Report {
        workload: name.to_string(),
        args: args.clone(),
        facts,
        checks,
        errors,
        attempted: pass.attempted,
        failed: pass.failed + warm.failed,
        metrics,
        diagnostics: diagnostics(&summary, &pass, cpu_s),
    })
}

fn traced_run(name: &str, args: &Args, out: &Path) -> Result<Report, String> {
    // Two short windows on one set-up: tracing off, then on; their
    // difference is the tracing overhead.
    let window = Duration::from_secs_f64((args.seconds / 4.0).clamp(0.05, 3.0));
    let warm_up = window.min(Duration::from_secs(1));
    let plan = Plan {
        seed: args.seed,
        planned_seconds: (warm_up + 2 * window).as_secs_f64() + 1.0,
        longest_window: window.as_secs_f64(),
        out_dir: out.to_path_buf(),
    };
    let taps = Arc::new(Taps::new());
    let mut workload = workloads::setup(name, &plan, Some(&taps))?;
    let warm = workload.run(warm_up);
    let base = workload.run(window);
    taps.set_on(true);
    let cpu0 = report::cpu_seconds();
    let pass = workload.run(window);
    let cpu_s = report::cpu_seconds() - cpu0;
    taps.set_on(false);
    let (clocking, slices) = (workload.clocking(), workload.rate_slices());
    let base_summary = stats::summarize(&base.samples, base.window_ns, clocking, slices);
    let summary = stats::summarize(&pass.samples, pass.window_ns, clocking, slices);

    let mut facts = workload.facts();
    facts.extend(window_facts(
        args,
        &format!(
            "1 set-up, {:.1} s warm-up discarded, {:.1} s tracing off then {:.1} s tracing on, then the layer probes",
            warm_up.as_secs_f64(),
            window.as_secs_f64(),
            window.as_secs_f64()
        ),
    ));
    let expected_layers = workload.trace_layers();
    let mut checks = window_checks(&pass, &summary);
    checks.extend(workload.finish());

    // The trace: written whole at exit, checked before it is trusted.
    let spans = taps.tracer.finish();
    let digest = trace::digest(&spans);
    let trace_path = out.join(format!("trace-{name}.json"));
    std::fs::write(&trace_path, trace::render(name, args.seed, &spans))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    facts.push(("trace_file", trace_path.display().to_string()));
    let missing: Vec<&str> = expected_layers
        .iter()
        .copied()
        .filter(|l| !digest.layers.contains(l))
        .collect();
    checks.push(Check {
        what: "the trace has spans, one at least for every layer this workload lists",
        ok: digest.spans > 0 && missing.is_empty(),
        detail: format!(
            "spans={} layers={:?} missing={missing:?}",
            digest.spans, digest.layers
        ),
    });
    let op_ns = pass.op_ns();
    let gap = if op_ns > 0.0 {
        (digest.op_tree_self_ns as f64 - op_ns).abs() / op_ns
    } else {
        1.0
    };
    checks.push(Check {
        what: "stage self-times sum to within 5% of the traced op latency",
        ok: gap <= TRACE_GAP_LIMIT,
        detail: format!(
            "op_tree_self_ns={} driver_op_ns={}",
            digest.op_tree_self_ns, op_ns
        ),
    });

    // Per-layer: the driver's own rows, then the probes.
    let mut metrics = diagnostics(&summary, &pass, cpu_s);
    let overhead = if base_summary.ops_per_s > 0.0 {
        1.0 - summary.ops_per_s / base_summary.ops_per_s
    } else {
        0.0
    };
    for (name, value) in [
        ("driver.trace_overhead_share", overhead),
        ("driver.trace.spans", digest.spans as f64),
        (
            "driver.trace.op_self_us",
            digest.op_tree_self_ns as f64 / 1e3 / summary.samples.max(1) as f64,
        ),
        (
            "driver.trace.op_latency_us",
            op_ns / 1e3 / summary.samples.max(1) as f64,
        ),
        ("driver.trace.self_time_gap_share", gap),
        ("driver.timer_overhead_ns", timer_overhead_ns()),
    ] {
        metrics.push(layer_metric(name, value));
    }
    let probe_dir = out.join(format!("probes-{}", std::process::id()));
    for mut probe in sut::layer_probes(args.seed, &probe_dir) {
        let value = layers::run(&mut probe, PROBE_BUDGET);
        let metric = layer_metric(probe.name, value);
        assert_eq!(metric.unit, probe.kind.unit(), "{} unit", probe.name);
        metrics.push(metric);
    }
    let _ = std::fs::remove_dir_all(&probe_dir);

    // Report in table order, and insist on every row.
    let by_name: BTreeMap<&str, &Metric> = metrics.iter().map(|m| (m.name.as_str(), m)).collect();
    let absent: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .filter(|n| !by_name.contains_key(n))
        .collect();
    checks.push(Check {
        what: "every per-layer metric was measured",
        ok: absent.is_empty() && by_name.len() == PER_LAYER.len(),
        detail: format!("absent={absent:?} measured={}", by_name.len()),
    });
    let ordered: Vec<Metric> = PER_LAYER
        .iter()
        .filter_map(|m| by_name.get(m.0).map(|m| (*m).clone()))
        .collect();

    let mut errors = warm.errors;
    errors.extend(base.errors);
    errors.extend(pass.errors.iter().cloned());
    let mut diag: Vec<Metric> = [
        ("traced.ops_per_s", summary.ops_per_s, "1/s"),
        ("traced.lat_p50_us", summary.lat_p50_us, "us"),
        ("traced.lat_p95_us", summary.lat_p95_us, "us"),
        ("untraced.ops_per_s", base_summary.ops_per_s, "1/s"),
        ("untraced.lat_p50_us", base_summary.lat_p50_us, "us"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric {
        name: name.into(),
        value,
        unit,
    })
    .collect();
    for (name, ns) in &digest.self_ns_by_name {
        diag.push(Metric {
            name: format!("trace.mean_self_us.{name}"),
            value: *ns as f64 / 1e3 / digest.count_by_name[name].max(1) as f64,
            unit: "us",
        });
        diag.push(Metric {
            name: format!("trace.spans.{name}"),
            value: digest.count_by_name[name] as f64,
            unit: "count",
        });
    }
    Ok(Report {
        workload: name.to_string(),
        args: args.clone(),
        facts,
        checks,
        errors,
        attempted: pass.attempted,
        failed: pass.failed + base.failed + warm.failed,
        metrics: ordered,
        diagnostics: diag,
    })
}

/// Cost of one `Instant::now()` pair, the resolution floor of every
/// latency here.
fn timer_overhead_ns() -> f64 {
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..1000 {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    stats::median(&rounds)
}

fn print_report(r: &Report) {
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == r.workload)
        .map_or("", |w| w.1);
    println!(
        "== {} (seed {}, trace {}) — {why}",
        r.workload,
        r.args.seed,
        u8::from(r.args.trace)
    );
    for (k, v) in &r.facts {
        println!("   {k}: {v}");
    }
    for m in r.metrics.iter().chain(&r.diagnostics) {
        println!("   {:<46} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "   {:<46} {:>16.6} ratio ({} of {})",
        "failed_share",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for c in &r.checks {
        println!(
            "   check {}: {} ({})",
            if c.ok { "ok  " } else { "FAIL" },
            c.what,
            c.detail
        );
    }
    for e in &r.errors {
        println!("   failure: {e}");
    }
}

/// The result file: everything printed, machine-readable.
fn render_result(r: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", r.workload);
    let _ = writeln!(out, "  \"trace\": {},", r.args.trace);
    let _ = writeln!(out, "  \"seconds\": {},", r.args.seconds);
    let _ = writeln!(out, "  \"claim\": null,");
    let _ = writeln!(out, "  \"correct\": {},", r.correct());
    let _ = writeln!(out, "  \"attempted\": {},", r.attempted);
    let _ = writeln!(out, "  \"failed\": {},", r.failed);
    out.push_str("  \"facts\": {");
    for (i, (k, v)) in r.facts.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{k}\": \"{}\"",
            if i == 0 { "" } else { ", " },
            sut::json_escape(v)
        );
    }
    out.push_str("},\n  \"checks\": [");
    for (i, c) in r.checks.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"what\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            sut::json_escape(c.what),
            c.ok,
            sut::json_escape(&c.detail)
        );
    }
    let _ = writeln!(
        out,
        "],\n  \"metrics\": {},",
        report::metrics_object(&r.metrics)
    );
    let _ = writeln!(
        out,
        "  \"diagnostics\": {}",
        report::metrics_object(&r.diagnostics)
    );
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------
// Every workload, a child process each
// ---------------------------------------------------------------------

/// Runs one workload in a child process and returns its result line's
/// numbers (`metrics.<name>.value` → value) and whether it was correct.
fn spawn_one(
    name: &str,
    args: &Args,
    trace: bool,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let numbers = sut::json_numbers(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let values = numbers
        .into_iter()
        .filter_map(|(path, v)| {
            let name = path.strip_prefix("metrics.")?.strip_suffix(".value")?;
            Some((name.to_string(), v))
        })
        .collect();
    let correct = output.status.success() && last.contains("\"correct\": true");
    Ok((correct, values))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    // rounds[k][workload] = end-to-end values of repeat k.
    let mut rounds: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    for k in 0..args.repeat {
        let mut round = BTreeMap::new();
        for (name, _) in WORKLOADS {
            println!("-- repeat {} of {}: {name}", k + 1, args.repeat);
            let (ok, values) = spawn_one(name, args, false)?;
            all_correct &= ok;
            round.insert(name, values);
            let (ok, _) = spawn_one(name, args, true)?;
            all_correct &= ok;
        }
        rounds.push(round);
    }

    println!(
        "\n== end to end (seed {}, {} s windows)",
        args.seed, args.seconds
    );
    print!("   {:<16}", "workload");
    for m in END_TO_END {
        print!(" {:>14}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for (name, _) in WORKLOADS {
        print!("   {name:<16}");
        for m in END_TO_END {
            let v = rounds[0][name].get(m.name).copied().unwrap_or(f64::NAN);
            print!(" {v:>14.3}");
        }
        println!();
    }
    if let [first, second, ..] = rounds.as_slice() {
        println!("\n== repeat 2 against repeat 1: change as a share of repeat 1 (bound); ! = worse by more than the bound");
        for (name, _) in WORKLOADS {
            print!("   {name:<16}");
            for m in END_TO_END {
                let (a, b) = (first[name].get(m.name), second[name].get(m.name));
                let cell = match (a, b) {
                    (Some(a), Some(b)) if *a != 0.0 => {
                        let change = (b - a) / a;
                        let worse = if m.better == "lower" { change } else { -change };
                        format!(
                            "{:+.1}% ({:.0}%){}",
                            change * 100.0,
                            m.bound * 100.0,
                            if worse > m.bound { "!" } else { "" }
                        )
                    }
                    _ => "n/a".to_string(),
                };
                print!(" {cell:>14}");
            }
            println!();
        }
    }
    println!("\n\"claim\": null — this run defines the numbers later changes are judged by.");
    println!(
        "{}",
        report::result_line(
            all_correct,
            WORKLOADS.len() as u64 * 2 * args.repeat as u64,
            u64::from(!all_correct),
            &[]
        )
    );
    Ok(all_correct)
}
