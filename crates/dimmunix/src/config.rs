//! Dimmunix configuration.

/// Which of [`crate::DimmunixCore`]'s two modules run.
///
/// A detected deadlock always aborts the requesting thread's acquisition
/// so the hosting application can unwind and "restart". Real Dimmunix
/// leaves the JVM hung and relies on the user restarting it; aborting the
/// requester models that restart while keeping tests and simulations
/// running. The false-positive rule's thresholds are the paper's
/// (§III-C1) and fixed: see [`crate::FalsePositiveDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimmunixConfig {
    /// Run the avoidance module before each acquisition (§II-A). Disabled
    /// for "vanilla" baselines and detection-only configurations.
    pub avoidance: bool,
    /// Run cycle detection on each new wait edge.
    pub detection: bool,
}

impl Default for DimmunixConfig {
    fn default() -> Self {
        DimmunixConfig {
            avoidance: true,
            detection: true,
        }
    }
}

impl DimmunixConfig {
    /// A detection-only configuration (no schedule alteration) — the
    /// configuration a first run uses before any history exists.
    pub fn detection_only() -> Self {
        DimmunixConfig {
            avoidance: false,
            detection: true,
        }
    }

    /// A fully disabled configuration (vanilla baseline for overhead
    /// measurements).
    pub fn vanilla() -> Self {
        DimmunixConfig {
            avoidance: false,
            detection: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_both_modules() {
        let c = DimmunixConfig::default();
        assert!(c.avoidance);
        assert!(c.detection);
    }

    #[test]
    fn presets() {
        assert!(!DimmunixConfig::detection_only().avoidance);
        assert!(DimmunixConfig::detection_only().detection);
        let v = DimmunixConfig::vanilla();
        assert!(!v.avoidance && !v.detection);
    }
}
