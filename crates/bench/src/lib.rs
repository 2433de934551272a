//! Shared reporting helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§IV) and prints it in a comparable layout:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig2` | Figure 2 — Communix server throughput |
//! | `fig3` | Figure 3 — end-to-end signature distribution |
//! | `fig4` | Figure 4 — agent start-up cost |
//! | `table1` | Table I — application statistics & nesting analysis |
//! | `table2` | Table II — worst-case DoS overhead |
//! | `dos_capacity` | §IV-B in-text flood-capacity numbers |
//! | `protection_time` | §IV-C time-to-full-protection estimates |
//!
//! Absolute numbers differ from the paper's (2011 Xeon + JVM vs. this
//! Rust reproduction); the harness reproduces the *shape* of each result
//! and prints the paper's reference values next to the measured ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// Prints a figure/table banner with the paper context.
pub fn banner(experiment: &str, paper_result: &str) {
    println!("{}", "=".repeat(76));
    println!("{experiment}");
    println!("paper: {paper_result}");
    println!("{}", "=".repeat(76));
}

/// Prints a row of columns: first column left-aligned (28 wide), the
/// rest right-aligned (14 wide). Use for both headers and data rows.
pub fn row(cells: &[&str]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<28}"));
        } else {
            line.push_str(&format!("{c:>14}"));
        }
    }
    println!("{line}");
}

/// Formats a duration compactly (ns/µs/ms/s as appropriate).
pub fn fmt_dur(d: Duration) -> String {
    let n = d.as_nanos();
    if n < 1_000 {
        format!("{n} ns")
    } else if n < 1_000_000 {
        format!("{:.1} µs", n as f64 / 1e3)
    } else if n < 1_000_000_000 {
        format!("{:.1} ms", n as f64 / 1e6)
    } else {
        format!("{:.2} s", n as f64 / 1e9)
    }
}

/// Formats a rate as requests/second.
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1000.0 {
        format!("{:.1}k/s", per_sec / 1000.0)
    } else {
        format!("{per_sec:.0}/s")
    }
}

/// Formats a fraction as a signed percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Parses `--key value` style arguments; returns the value for `key`.
pub fn arg_value(key: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
}

/// Whether a bare `--flag` argument is present.
pub fn arg_flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_dur(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_dur(Duration::from_micros(1500)), "1.5 ms");
        assert_eq!(fmt_dur(Duration::from_millis(2500)), "2.50 s");
    }

    #[test]
    fn rates_and_percentages() {
        assert_eq!(fmt_rate(9000.0), "9.0k/s");
        assert_eq!(fmt_rate(42.0), "42/s");
        assert_eq!(fmt_pct(0.4), "+40.0%");
        assert_eq!(fmt_pct(-0.013), "-1.3%");
    }
}
