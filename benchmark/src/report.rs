//! Box facts read from `/proc`, and the JSON a run leaves behind.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `metrics.rs`.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit from `metrics.rs`.
    pub unit: &'static str,
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at
/// 100 on every architecture this runs on.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, or `"none"` outside a git
/// checkout (the driver's checkouts are not repositories).
pub fn git_commit(dir: &Path) -> String {
    first_line_of(
        Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(["rev-parse", "HEAD"]),
    )
    .unwrap_or_else(|| "none".into())
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    out.push('}');
    out
}

/// The one-line result the driver reads from the end of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = vec![
            Metric {
                name: "lat_p50_us".into(),
                value: 1.2034,
                unit: "us",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
            },
        ];
        assert_eq!(
            result_line(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"lat_p50_us\": {\"value\": 1.2034, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_line(false, 0, 0, &[]).contains("\"attempted\": 1,"));
    }

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mb() > 1.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
