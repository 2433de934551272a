//! Dimmunix's false-positive detection mechanism.
//!
//! "If after 100 instantiations of a signature S there was no true
//! positive, and there was at least one interval of 1 second having more
//! than 10 instantiations of S, Dimmunix decides to warn the user about
//! signature S" (§III-C1). Communix relies on this to defuse functionality
//! DoS attacks: malicious signatures that over-serialize an application
//! get flagged so the user can drop them.

use std::collections::VecDeque;

use communix_clock::{Duration, Instant};

/// Instantiation count after which a signature with no true positives
/// becomes suspect ("after 100 instantiations").
const INSTANTIATION_THRESHOLD: u64 = 100;
/// Burst size that must be exceeded within one window ("more than 10").
const BURST_THRESHOLD: usize = 10;
/// Burst window length ("an interval of 1 second").
const BURST_WINDOW: Duration = Duration::from_secs(1);

/// Per-signature instantiation statistics.
#[derive(Debug, Clone, Default)]
struct SigStats {
    instantiations: u64,
    true_positives: u64,
    /// Timestamps of recent instantiations, pruned to [`BURST_WINDOW`].
    recent: VecDeque<Instant>,
    /// Whether some window of [`BURST_WINDOW`] ever saw more than
    /// [`BURST_THRESHOLD`] instantiations.
    burst_seen: bool,
    warned: bool,
}

/// Tracks instantiations and true positives per history signature and
/// raises at most one warning per signature, by the paper's thresholds.
#[derive(Debug, Clone, Default)]
pub struct FalsePositiveDetector {
    stats: Vec<SigStats>,
}

impl FalsePositiveDetector {
    /// Creates a detector that has seen nothing.
    pub fn new() -> Self {
        FalsePositiveDetector::default()
    }

    fn ensure(&mut self, sig_index: usize) -> &mut SigStats {
        if self.stats.len() <= sig_index {
            self.stats.resize_with(sig_index + 1, SigStats::default);
        }
        &mut self.stats[sig_index]
    }

    /// Records an avoidance instantiation of signature `sig_index` at time
    /// `now`. Returns `true` if this event makes the signature a
    /// false-positive suspect (fires once per signature).
    pub fn record_instantiation(&mut self, sig_index: usize, now: Instant) -> bool {
        let s = self.ensure(sig_index);
        s.instantiations += 1;
        s.recent.push_back(now);
        while let Some(front) = s.recent.front() {
            if now.saturating_duration_since(*front) > BURST_WINDOW {
                s.recent.pop_front();
            } else {
                break;
            }
        }
        if s.recent.len() > BURST_THRESHOLD {
            s.burst_seen = true;
        }
        if !s.warned
            && s.true_positives == 0
            && s.burst_seen
            && s.instantiations >= INSTANTIATION_THRESHOLD
        {
            s.warned = true;
            return true;
        }
        false
    }

    /// Records a true positive for `sig_index`: an actual deadlock
    /// matching the signature occurred (so avoidances of it are genuine).
    pub fn record_true_positive(&mut self, sig_index: usize) {
        self.ensure(sig_index).true_positives += 1;
    }

    /// Instantiation count of `sig_index`.
    pub fn instantiations(&self, sig_index: usize) -> u64 {
        self.stats.get(sig_index).map_or(0, |s| s.instantiations)
    }

    /// True-positive count of `sig_index`.
    pub fn true_positives(&self, sig_index: usize) -> u64 {
        self.stats.get(sig_index).map_or(0, |s| s.true_positives)
    }

    /// Whether `sig_index` has been flagged as a suspected false positive.
    pub fn is_suspect(&self, sig_index: usize) -> bool {
        self.stats.get(sig_index).is_some_and(|s| s.warned)
    }

    /// Forgets everything (e.g. after the user confirms keeping a
    /// signature, or the history is replaced wholesale).
    pub fn reset(&mut self) {
        self.stats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> Instant {
        Instant::from_nanos((secs * 1e9) as u64)
    }

    #[test]
    fn warns_after_burst_and_threshold() {
        let mut d = FalsePositiveDetector::default();
        let mut warned = false;
        // 100 instantiations packed into one second: burst + threshold.
        for i in 0..100 {
            warned |= d.record_instantiation(0, t(i as f64 * 0.005));
        }
        assert!(warned);
        assert!(d.is_suspect(0));
    }

    #[test]
    fn warning_fires_exactly_once() {
        let mut d = FalsePositiveDetector::default();
        let mut count = 0;
        for i in 0..300 {
            if d.record_instantiation(0, t(i as f64 * 0.005)) {
                count += 1;
            }
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn no_warning_without_burst() {
        // 150 instantiations, but spaced 1 per second: never >10 in 1 s.
        let mut d = FalsePositiveDetector::default();
        for i in 0..150 {
            assert!(!d.record_instantiation(0, t(i as f64)));
        }
        assert!(!d.is_suspect(0));
        assert_eq!(d.instantiations(0), 150);
    }

    #[test]
    fn no_warning_below_instantiation_threshold() {
        // A strong burst of 50 is still below the 100 threshold.
        let mut d = FalsePositiveDetector::default();
        for i in 0..50 {
            assert!(!d.record_instantiation(0, t(i as f64 * 0.005)));
        }
        assert!(!d.is_suspect(0));
    }

    #[test]
    fn true_positive_suppresses_warning() {
        let mut d = FalsePositiveDetector::default();
        d.record_true_positive(0);
        for i in 0..500 {
            assert!(!d.record_instantiation(0, t(i as f64 * 0.001)));
        }
        assert!(!d.is_suspect(0));
        assert_eq!(d.true_positives(0), 1);
    }

    #[test]
    fn burst_earlier_then_slow_accumulation_still_warns() {
        // Burst happens early (instantiations 0..12 in 0.1 s), then the
        // count creeps up slowly; once it crosses 100 the warning fires.
        let mut d = FalsePositiveDetector::default();
        let mut warned = false;
        for i in 0..12 {
            warned |= d.record_instantiation(0, t(i as f64 * 0.005));
        }
        assert!(!warned);
        for i in 0..90 {
            warned |= d.record_instantiation(0, t(10.0 + i as f64 * 2.0));
        }
        assert!(warned);
    }

    #[test]
    fn signatures_tracked_independently() {
        let mut d = FalsePositiveDetector::default();
        for i in 0..100 {
            d.record_instantiation(3, t(i as f64 * 0.005));
        }
        assert!(d.is_suspect(3));
        assert!(!d.is_suspect(0));
        assert_eq!(d.instantiations(0), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = FalsePositiveDetector::default();
        d.record_true_positive(2);
        d.reset();
        assert_eq!(d.true_positives(2), 0);
    }

    #[test]
    fn exactly_burst_threshold_in_window_is_not_enough() {
        // "more than 10": 90 instantiations 2 s apart, then exactly 10
        // within 0.9 s — the count reaches 100, but no window ever held
        // more than 10, so no warning. The 11th in the window is a burst.
        let mut d = FalsePositiveDetector::new();
        let mut warned = false;
        for i in 0..90 {
            warned |= d.record_instantiation(0, t(i as f64 * 2.0));
        }
        for i in 0..10 {
            warned |= d.record_instantiation(0, t(1000.0 + i as f64 * 0.1));
        }
        assert!(!warned);
        assert!(!d.is_suspect(0));
        assert!(d.record_instantiation(0, t(1000.95)));
    }
}
