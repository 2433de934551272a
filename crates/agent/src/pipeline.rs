//! The Communix agent's start-up and shutdown pipelines.
//!
//! "When the application starts, the agent selects from the local
//! repository the new signatures that are valid … If a new signature S is
//! found valid, the agent attempts to merge S with an existing signature
//! from the running application's deadlock history. If S cannot be merged
//! …, the agent adds S to the history." (§III-A)
//!
//! "For efficiency, the Communix agent precomputes the locations of all
//! the nested synchronized blocks/methods, when the application runs for
//! the first time. … The nesting analysis is performed at shutdown, first
//! time the application runs, and each time new classes … are loaded."
//! (§III-C3)
//!
//! A pass reads each signature's text where the repository keeps it,
//! borrowed, and allocates per signature only for what it parses, the
//! stack suffixes validation keeps and the merge generalization builds:
//! a parsed frame shares a class or method name equal to the previous
//! frame's, validation shares names with the nesting lookups, and a
//! history probe compares lock statements in place.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use communix_analysis::{MinDepths, NestingAnalyzer, NestingReport};
use communix_bytecode::LoweredProgram;
use communix_client::LocalRepository;
use communix_crypto::Digest;
use communix_dimmunix::{AddOutcome, History, Signature};

use crate::validate::{SignatureValidator, ValidationError, ValidatorConfig};

/// Agent configuration.
#[derive(Debug, Clone, Default)]
pub struct AgentConfig {
    /// Validation thresholds.
    pub validator: ValidatorConfig,
}

/// What the start-up pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StartupReport {
    /// Signatures inspected (each inspected exactly once, §III-B).
    pub inspected: usize,
    /// Signatures accepted and added as new history entries.
    pub accepted: usize,
    /// Signatures merged into existing history entries (generalization).
    pub merged: usize,
    /// Signatures already covered by the history.
    pub duplicates: usize,
    /// Signatures rejected by validation.
    pub rejected: usize,
    /// Signatures deferred: hash check passed but nesting could not be
    /// decided yet (re-checked when new classes load).
    pub deferred: usize,
    /// Wall-clock duration of the pipeline (the Figure 4 quantity).
    pub elapsed: Duration,
}

impl StartupReport {
    fn absorb_outcome(&mut self, outcome: AddOutcome) {
        match outcome {
            AddOutcome::Added => self.accepted += 1,
            AddOutcome::Merged(_) => self.merged += 1,
            AddOutcome::Duplicate => self.duplicates += 1,
        }
    }
}

/// The Communix agent: runs "together with Dimmunix, in a Java
/// application's address space" (§III-A), validating and generalizing the
/// signatures the client downloaded.
#[derive(Debug, Default)]
pub struct CommunixAgent {
    config: AgentConfig,
    /// Precomputed nesting classification (absent before the first
    /// shutdown-time analysis).
    nesting: Option<NestingReport>,
    /// Precomputed per-site minimal stack depths, used by the adaptive
    /// depth threshold (§III-C1's `min(d, 5)` alternative).
    min_depths: Option<MinDepths>,
}

impl CommunixAgent {
    /// Creates an agent with no precomputed analysis.
    pub fn new(config: AgentConfig) -> Self {
        CommunixAgent {
            config,
            nesting: None,
            min_depths: None,
        }
    }

    /// The current nesting report, if the analysis has run.
    pub fn nesting(&self) -> Option<&NestingReport> {
        self.nesting.as_ref()
    }

    /// The current min-depth analysis, if it has run (computed together
    /// with the nesting analysis when the adaptive threshold is on).
    pub fn min_depths(&self) -> Option<&MinDepths> {
        self.min_depths.as_ref()
    }

    /// Runs (or re-runs) the nesting analysis over the application's
    /// loaded bytecode — the shutdown-time step of §III-C3. Returns the
    /// analysis duration (the Table I "Nesting check" column).
    ///
    /// When the adaptive depth threshold is configured, the per-site
    /// min-depth analysis runs in the same pass (it reuses the call
    /// graph the nesting analysis builds anyway).
    pub fn run_nesting_analysis(&mut self, lowered: &LoweredProgram) -> Duration {
        let analyzer = NestingAnalyzer::new(lowered);
        if self.config.validator.adaptive_depth {
            self.min_depths = Some(MinDepths::compute(lowered, analyzer.callgraph()));
        }
        let report = analyzer.analyze();
        let elapsed = report.elapsed();
        self.nesting = Some(report);
        elapsed
    }

    /// The start-up pipeline: inspect every not-yet-inspected signature
    /// in the repository, validate it against the application, and
    /// generalize it into `history`.
    ///
    /// `app_hashes` are the bytecode hashes of the classes the running
    /// application has loaded.
    pub fn startup(
        &self,
        app_hashes: &HashMap<String, Digest>,
        repo: &mut LocalRepository,
        history: &mut History,
    ) -> StartupReport {
        let start = Instant::now();
        let mut report = StartupReport::default();
        let (admitted, deferred) = self.inspect(
            app_hashes,
            repo.uninspected(),
            repo.is_durable(),
            history,
            &mut report,
        );
        // One append: the admissions, then the retry set and the cursor.
        // An I/O error costs a re-inspection at the next start, never
        // correctness.
        let retries = repo.nesting_retry_indices().into_iter().chain(deferred);
        let _ = repo.commit_agent_pass(&admitted, retries, repo.len());
        report.elapsed = start.elapsed();
        report
    }

    /// Re-validates signatures that previously failed only the nesting
    /// check — called after new classes were loaded, which "can only
    /// uncover new nested synchronized blocks/methods" (§III-C3).
    pub fn recheck_after_class_load(
        &self,
        app_hashes: &HashMap<String, Digest>,
        repo: &mut LocalRepository,
        history: &mut History,
    ) -> StartupReport {
        let start = Instant::now();
        let mut report = StartupReport::default();
        let (admitted, deferred) = self.inspect(
            app_hashes,
            repo.nesting_retries(),
            repo.is_durable(),
            history,
            &mut report,
        );
        let cursor = repo.len() - repo.uninspected_count();
        let _ = repo.commit_agent_pass(&admitted, deferred, cursor);
        report.elapsed = start.elapsed();
        report
    }

    /// Builds the validator for the current analyses and configuration.
    fn validator<'a>(&'a self, app_hashes: &'a HashMap<String, Digest>) -> SignatureValidator<'a> {
        let v = SignatureValidator::borrowing(
            app_hashes,
            self.nesting.as_ref(),
            self.config.validator.clone(),
        );
        match &self.min_depths {
            Some(d) => v.with_min_depths(d),
            None => v,
        }
    }

    /// Validates and files each `(index, text)` of `pending` into
    /// `history`, parsing each text where the repository keeps it.
    /// Returns the signatures that changed the history, as validated
    /// (kept only when `keep_admitted`: a durable repository logs them),
    /// and the indices deferred on the nesting check.
    fn inspect<'r>(
        &self,
        app_hashes: &HashMap<String, Digest>,
        pending: impl Iterator<Item = (usize, &'r str)>,
        keep_admitted: bool,
        history: &mut History,
        report: &mut StartupReport,
    ) -> (Vec<Signature>, Vec<usize>) {
        let validator = self.validator(app_hashes);
        let (mut admitted, mut deferred) = (Vec::new(), Vec::new());
        for (idx, text) in pending {
            report.inspected += 1;
            let Ok(sig) = text.parse::<Signature>() else {
                report.rejected += 1;
                continue;
            };
            match validator.validate(&sig) {
                Ok(valid) => {
                    let kept = keep_admitted.then(|| valid.clone());
                    let outcome =
                        history.add_generalizing(valid, self.config.validator.min_outer_depth);
                    report.absorb_outcome(outcome);
                    if outcome != AddOutcome::Duplicate {
                        admitted.extend(kept);
                    }
                }
                Err(ValidationError::NestingUnknown { .. }) => {
                    report.deferred += 1;
                    deferred.push(idx);
                }
                Err(_) => report.rejected += 1,
            }
        }
        (admitted, deferred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_bytecode::{LockExpr, Program, ProgramBuilder};
    use communix_dimmunix::{CallStack, Frame, SigEntry};

    /// App with a nested site app.C.outer:2 plus helper class app.D.
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        b.class("app.C")
            .plain_method("outer", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.sync(LockExpr::global("B"), |_| {});
                });
            })
            .done();
        b.class("app.D")
            .plain_method("helper", |s| {
                s.work(1);
            })
            .done();
        b.build()
    }

    fn hashes(p: &Program) -> HashMap<String, Digest> {
        p.hash_index()
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v))
            .collect()
    }

    fn frame(p: &Program, class: &str, method: &str, line: u32) -> Frame {
        Frame::with_hash(class, method, line, p.class(class).unwrap().bytecode_hash())
    }

    /// Valid remote signature with `extra` additional outer depth.
    /// Different `extra` values model different manifestations of the
    /// same bug: they share the 5 innermost (top) frames and differ only
    /// in the frames below, so generalization can merge them at depth 5.
    fn sig_text(p: &Program, extra: usize) -> String {
        sig_text_at(p, extra, 2)
    }

    /// As [`sig_text`], with the outer lock statement at `line` of
    /// `app.C.outer` (line 2 is the nested one).
    fn sig_text_at(p: &Program, extra: usize, line: u32) -> String {
        let outer = |final_line: u32| -> CallStack {
            let mut frames: Vec<Frame> = (0..extra)
                .map(|i| frame(p, "app.D", "helper", 50 + i as u32))
                .collect();
            frames.extend((0..4).map(|i| frame(p, "app.D", "helper", 10 + i)));
            frames.push(frame(p, "app.C", "outer", final_line));
            frames.into_iter().collect()
        };
        let inner: CallStack = vec![frame(p, "app.C", "outer", 3)].into_iter().collect();
        Signature::remote(vec![
            SigEntry::new(outer(line), inner.clone()),
            SigEntry::new(outer(line), inner),
        ])
        .to_string()
    }

    fn ready_agent(p: &Program) -> CommunixAgent {
        let mut agent = CommunixAgent::new(AgentConfig::default());
        let lowered = LoweredProgram::lower(p);
        agent.run_nesting_analysis(&lowered);
        agent
    }

    #[test]
    fn startup_accepts_valid_signature() {
        let p = program();
        let agent = ready_agent(&p);
        let mut repo = LocalRepository::in_memory();
        repo.append([sig_text(&p, 0)]).unwrap();
        let mut history = History::new();
        let report = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.inspected, 1);
        assert_eq!(report.accepted, 1);
        assert_eq!(history.len(), 1);
        assert_eq!(repo.uninspected_count(), 0);
    }

    #[test]
    fn signatures_inspected_only_once() {
        let p = program();
        let agent = ready_agent(&p);
        let mut repo = LocalRepository::in_memory();
        repo.append([sig_text(&p, 0)]).unwrap();
        let mut history = History::new();
        agent.startup(&hashes(&p), &mut repo, &mut history);
        // Second startup with nothing new: zero inspections.
        let report = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.inspected, 0);
    }

    #[test]
    fn same_bug_signatures_generalize() {
        let p = program();
        let agent = ready_agent(&p);
        let mut repo = LocalRepository::in_memory();
        // Two manifestations of the same bug with different outer depth.
        repo.append([sig_text(&p, 2), sig_text(&p, 0)]).unwrap();
        let mut history = History::new();
        let report = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.merged + report.duplicates, 1);
        assert_eq!(history.len(), 1, "one generalized signature");
    }

    #[test]
    fn garbage_rejected() {
        let p = program();
        let agent = ready_agent(&p);
        let mut repo = LocalRepository::in_memory();
        repo.append(["complete garbage".to_string()]).unwrap();
        let mut history = History::new();
        let report = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.rejected, 1);
        assert!(history.is_empty());
    }

    #[test]
    fn nesting_unknown_defers_and_rechecks() {
        let p = program();
        // Agent WITHOUT the nesting analysis: everything defers.
        let agent = CommunixAgent::new(AgentConfig::default());
        let mut repo = LocalRepository::in_memory();
        repo.append([sig_text(&p, 0)]).unwrap();
        let mut history = History::new();
        let report = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.deferred, 1);
        assert!(history.is_empty());
        assert_eq!(repo.nesting_retry_indices(), vec![0]);

        // The analysis runs (shutdown), then the retry succeeds.
        let mut agent = agent;
        agent.run_nesting_analysis(&LoweredProgram::lower(&p));
        let report = agent.recheck_after_class_load(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.accepted, 1);
        assert_eq!(history.len(), 1);
        assert!(repo.nesting_retry_indices().is_empty());
    }

    #[test]
    fn startup_handles_thousands_quickly() {
        // §IV-A: "the agent can analyze 1,000 new deadlock signatures in
        // 2-3 seconds" on 2011 hardware; our pipeline should do it much
        // faster, and certainly within the test timeout.
        let p = program();
        let agent = ready_agent(&p);
        let mut repo = LocalRepository::in_memory();
        let texts: Vec<String> = (0..1000).map(|i| sig_text(&p, i % 7)).collect();
        repo.append(texts).unwrap();
        let mut history = History::new();
        let report = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(report.inspected, 1000);
        assert_eq!(report.accepted + report.merged + report.duplicates, 1000);
        // All manifestations of the same bug collapse into one entry.
        assert_eq!(history.len(), 1);
        assert!(report.elapsed < Duration::from_secs(3));
    }

    #[test]
    fn report_counts_are_consistent() {
        let p = program();
        let agent = ready_agent(&p);
        let mut repo = LocalRepository::in_memory();
        repo.append([sig_text(&p, 0), "garbage".to_string(), sig_text(&p, 1)])
            .unwrap();
        let mut history = History::new();
        let r = agent.startup(&hashes(&p), &mut repo, &mut history);
        assert_eq!(
            r.inspected,
            r.accepted + r.merged + r.duplicates + r.rejected + r.deferred
        );
    }

    /// A start-up writes its admissions, the retry set and the cursor in
    /// one append, the cursor last. Cut at each of its record
    /// boundaries, the log reopens to a history that one more start-up
    /// completes to the uncut run's.
    #[test]
    fn a_startup_cut_at_any_record_completes_to_the_uncut_history() {
        let p = program();
        let agent = ready_agent(&p);
        let dir = std::env::temp_dir().join(format!("communix-agent-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("repository.log");
        // One bug's manifestations: the second generalizes the first, the
        // last is covered. Line 9 is no lock statement, so its signature
        // waits for a nesting verdict.
        let texts = [
            sig_text(&p, 2),
            sig_text_at(&p, 0, 9),
            sig_text(&p, 0),
            "garbage".to_string(),
            sig_text(&p, 1),
        ];
        let mut uncut = History::new();
        let start = {
            let mut repo = LocalRepository::open(&dir).unwrap();
            repo.append(texts.clone()).unwrap();
            let start = std::fs::metadata(&path).unwrap().len() as usize;
            let r = agent.startup(&hashes(&p), &mut repo, &mut uncut);
            assert_eq!(
                (r.accepted, r.merged, r.duplicates, r.rejected, r.deferred),
                (1, 1, 1, 1, 1)
            );
            start
        };
        let written = std::fs::read(&path).unwrap();
        let mut cuts = vec![start];
        while let Some(&at) = cuts.last().filter(|&&at| at < written.len()) {
            let len = u32::from_le_bytes(written[at..at + 4].try_into().unwrap()) as usize;
            cuts.push(at + 8 + len);
        }
        assert_eq!(cuts.len(), 4, "two admissions and the state record");

        for cut in cuts {
            std::fs::write(&path, &written[..cut]).unwrap();
            let mut repo = LocalRepository::open(&dir).unwrap();
            let min_depth = AgentConfig::default().validator.min_outer_depth;
            let mut history = repo.take_history(min_depth);
            agent.startup(&hashes(&p), &mut repo, &mut history);
            assert_eq!(history.signatures(), uncut.signatures(), "cut {cut}");
            assert_eq!(repo.nesting_retry_indices(), vec![1], "cut {cut}");
            assert_eq!(repo.uninspected_count(), 0, "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
