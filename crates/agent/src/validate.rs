//! Client-side signature validation (§III-C3).
//!
//! For each new signature the agent checks, in order:
//!
//! 1. **Hash matching**: every call stack's hashes are compared against
//!    the bytecode hashes of the classes the running application loaded,
//!    scanning from the top frame down. A top-frame mismatch rejects the
//!    signature; a deeper mismatch trims the stack to its longest
//!    matching suffix. Inner stacks are checked too — "the signature may
//!    correspond to an earlier version of the application" whose
//!    deadlock-prone section was since fixed. Every stack must have a
//!    top frame: a signature with an empty stack is rejected, since
//!    dropping a stack would otherwise skip its check.
//! 2. **Depth rule**: outer call stacks must keep depth ≥ 5; shallower
//!    signatures are the §IV-B slowdown attack and are rejected.
//! 3. **Nesting rule**: outer stacks must end in *nested* synchronized
//!    sites (checked against the precomputed nesting analysis); this
//!    bounds signature-flooding attacks to N = #nested sites.

use std::borrow::Cow;
use std::collections::HashMap;

use communix_analysis::{Nesting, NestingReport};
use communix_bytecode::SyncSite;
use communix_crypto::Digest;
use communix_dimmunix::{CallStack, SigEntry, SigOrigin, Signature, Site};

/// Why the agent rejected a signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A stack's top-frame hash does not match the running application.
    TopFrameHashMismatch {
        /// The offending top frame's site.
        site: Site,
    },
    /// A top frame names a class the application has not loaded, so its
    /// hash cannot be verified.
    UnknownClass {
        /// The unknown class name.
        class: String,
    },
    /// A frame carries no hash at all (remote signatures must be fully
    /// hashed by the sender's plugin).
    MissingHash {
        /// The unhashed frame's site.
        site: Site,
    },
    /// An outer or inner stack has no frames, so it has no lock
    /// statement and nothing whose version could be checked.
    EmptyStack,
    /// An outer stack's depth fell below the minimum (5).
    OuterTooShallow {
        /// The offending depth.
        depth: usize,
    },
    /// An outer stack's top frame is not a nested synchronized site.
    NotNested {
        /// The offending site.
        site: Site,
    },
    /// The nesting status of an outer top frame could not be analyzed
    /// (opaque method); the signature should be retried after new classes
    /// load.
    NestingUnknown {
        /// The unanalyzable site.
        site: Site,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::TopFrameHashMismatch { site } => {
                write!(f, "top frame hash mismatch at {site}")
            }
            ValidationError::UnknownClass { class } => {
                write!(f, "class {class} not loaded by this application")
            }
            ValidationError::MissingHash { site } => {
                write!(f, "frame {site} carries no bytecode hash")
            }
            ValidationError::EmptyStack => f.write_str("empty call stack"),
            ValidationError::OuterTooShallow { depth } => {
                write!(f, "outer call stack depth {depth} below minimum")
            }
            ValidationError::NotNested { site } => {
                write!(f, "outer lock statement {site} is not nested")
            }
            ValidationError::NestingUnknown { site } => {
                write!(f, "nesting of {site} could not be analyzed")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// The agent's validation configuration.
#[derive(Debug, Clone)]
pub struct ValidatorConfig {
    /// Minimum outer stack depth (paper: 5).
    pub min_outer_depth: usize,
    /// Use the paper's §III-C1 *adaptive* threshold: `min(d, 5)` per
    /// outer lock statement, where `d` is the minimal stack depth with
    /// which that site can be reached (requires the agent to have run
    /// the min-depth analysis; falls back to the fixed threshold for
    /// sites without a known minimal depth).
    pub adaptive_depth: bool,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            min_outer_depth: 5,
            adaptive_depth: false,
        }
    }
}

/// Validates incoming signatures against one application's loaded classes
/// and nesting report.
#[derive(Debug)]
pub struct SignatureValidator<'a> {
    /// Bytecode hash per loaded class name: the agent's pipeline
    /// borrows the node's index, a caller of [`SignatureValidator::new`]
    /// hands one over.
    hashes: Cow<'a, HashMap<String, Digest>>,
    /// Nesting classification of the application's synchronized sites.
    nesting: Option<&'a NestingReport>,
    /// Per-site minimal achievable stack depths (adaptive threshold).
    min_depths: Option<&'a communix_analysis::MinDepths>,
    config: ValidatorConfig,
}

impl<'a> SignatureValidator<'a> {
    /// Creates a validator over the given loaded-class hash index.
    /// `nesting` may be absent on the very first run (the analysis runs
    /// at shutdown); in that case the nesting rule reports
    /// [`ValidationError::NestingUnknown`].
    pub fn new(
        hashes: impl IntoIterator<Item = (String, Digest)>,
        nesting: Option<&'a NestingReport>,
        config: ValidatorConfig,
    ) -> Self {
        SignatureValidator {
            hashes: Cow::Owned(hashes.into_iter().collect()),
            nesting,
            min_depths: None,
            config,
        }
    }

    /// A validator over a borrowed hash index: the pipeline's, which
    /// validates at every start-up against the one index its node built.
    pub(crate) fn borrowing(
        hashes: &'a HashMap<String, Digest>,
        nesting: Option<&'a NestingReport>,
        config: ValidatorConfig,
    ) -> Self {
        SignatureValidator {
            hashes: Cow::Borrowed(hashes),
            nesting,
            min_depths: None,
            config,
        }
    }

    /// Supplies the min-depth analysis used by the adaptive threshold
    /// (`config.adaptive_depth`); without it the fixed threshold applies.
    pub fn with_min_depths(mut self, depths: &'a communix_analysis::MinDepths) -> Self {
        self.min_depths = Some(depths);
        self
    }

    /// The depth threshold applying to an outer stack ending at `site`.
    fn depth_threshold(&self, site: &Site) -> usize {
        if self.config.adaptive_depth {
            if let Some(depths) = self.min_depths {
                return depths.threshold(&to_bytecode_site(site), self.config.min_outer_depth);
            }
        }
        self.config.min_outer_depth
    }

    /// Validates `sig`, returning the (possibly suffix-trimmed) signature
    /// ready for generalization, or the reason it was rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError`] describing the first failed check.
    pub fn validate(&self, sig: &Signature) -> Result<Signature, ValidationError> {
        let mut entries = Vec::with_capacity(sig.arity());
        for e in sig.entries() {
            let outer = self.check_stack(&e.outer)?;
            let inner = self.check_stack(&e.inner)?;
            let threshold = outer
                .top()
                .map(|f| self.depth_threshold(&f.site))
                .unwrap_or(self.config.min_outer_depth);
            if outer.depth() < threshold {
                return Err(ValidationError::OuterTooShallow {
                    depth: outer.depth(),
                });
            }
            entries.push(SigEntry::new(outer, inner));
        }

        // Nesting rule on the outer lock statements.
        for e in &entries {
            let site = e
                .outer
                .top()
                .map(|f| &f.site)
                .expect("check_stack rejects an empty stack");
            let bc_site = to_bytecode_site(site);
            match self.nesting.and_then(|n| n.classify(&bc_site)) {
                Some(Nesting::Nested) => {}
                Some(Nesting::NonNested) => {
                    return Err(ValidationError::NotNested { site: site.clone() })
                }
                Some(Nesting::NotAnalyzed) | None => {
                    return Err(ValidationError::NestingUnknown { site: site.clone() })
                }
            }
        }

        Ok(Signature::new(entries, SigOrigin::Remote))
    }

    /// The hash check of §III-C3: scan from the top frame down; reject on
    /// a top mismatch, trim to the longest matching suffix otherwise. An
    /// empty stack has no top to check and is rejected.
    fn check_stack(&self, stack: &CallStack) -> Result<CallStack, ValidationError> {
        let frames = stack.frames();
        let Some((top, below)) = frames.split_last() else {
            return Err(ValidationError::EmptyStack);
        };
        // Top frame must verify.
        self.frame_matches(top)?;
        // Walk down from the frame below the top; the first mismatch
        // trims everything below (and including) it.
        let keep_from = below
            .iter()
            .rposition(|f| self.frame_matches(f).is_err())
            .map_or(0, |i| i + 1);
        Ok(CallStack::new(frames[keep_from..].to_vec()))
    }

    fn frame_matches(&self, frame: &communix_dimmunix::Frame) -> Result<(), ValidationError> {
        let class = frame.site.class.as_ref();
        let Some(app_hash) = self.hashes.get(class) else {
            return Err(ValidationError::UnknownClass {
                class: class.to_string(),
            });
        };
        let Some(sig_hash) = &frame.hash else {
            return Err(ValidationError::MissingHash {
                site: frame.site.clone(),
            });
        };
        if sig_hash != app_hash {
            return Err(ValidationError::TopFrameHashMismatch {
                site: frame.site.clone(),
            });
        }
        Ok(())
    }
}

/// Converts a dimmunix frame site to the bytecode crate's site type used
/// by the nesting report, sharing the site's names.
fn to_bytecode_site(site: &Site) -> SyncSite {
    SyncSite {
        class: site.class.clone().into(),
        method: site.method.clone(),
        line: site.line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_analysis::NestingAnalyzer;
    use communix_bytecode::{LockExpr, LoweredProgram, Program, ProgramBuilder};
    use communix_crypto::sha256;
    use communix_dimmunix::Frame;

    /// A program with one nested sync site (app.C.outer:2) and one
    /// non-nested site (app.C.outer:3 — the inner block).
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

    fn hashes(p: &Program) -> Vec<(String, Digest)> {
        p.hash_index()
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v))
            .collect()
    }

    /// Builds a hashed frame that matches the program.
    fn frame(p: &Program, class: &str, method: &str, line: u32) -> Frame {
        Frame::with_hash(class, method, line, p.class(class).unwrap().bytecode_hash())
    }

    /// A fully valid remote signature (outer stacks depth ≥ 5 ending at
    /// the nested site app.C.outer:2).
    fn valid_sig(p: &Program) -> Signature {
        let deep_outer = |final_line: u32| -> CallStack {
            let mut frames: Vec<Frame> = (0..4)
                .map(|i| frame(p, "app.D", "helper", 10 + i))
                .collect();
            frames.push(frame(p, "app.C", "outer", final_line));
            frames.into_iter().collect()
        };
        let inner = |line: u32| -> CallStack {
            vec![frame(p, "app.C", "outer", line)].into_iter().collect()
        };
        Signature::remote(vec![
            SigEntry::new(deep_outer(2), inner(3)),
            SigEntry::new(deep_outer(2), inner(3)),
        ])
    }

    fn validator_with_nesting<'a>(
        p: &Program,
        report: &'a NestingReport,
    ) -> SignatureValidator<'a> {
        SignatureValidator::new(hashes(p), Some(report), ValidatorConfig::default())
    }

    #[test]
    fn valid_signature_passes() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let out = v.validate(&valid_sig(&p)).expect("valid");
        assert_eq!(out.origin(), SigOrigin::Remote);
        assert_eq!(out.min_outer_depth(), 5);
    }

    #[test]
    fn top_frame_hash_mismatch_rejects() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let mut sig = valid_sig(&p);
        // Corrupt the top frame hash of one outer stack.
        let mut entries: Vec<SigEntry> = sig.entries().to_vec();
        entries[0].outer.frames_mut().last_mut().unwrap().hash = Some(sha256(b"different version"));
        sig = Signature::remote(entries);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::TopFrameHashMismatch { .. })
        ));
    }

    #[test]
    fn deeper_mismatch_trims_to_suffix() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);

        // Build outer stacks: 6 valid frames with one stale frame at the
        // bottom — the stack should be trimmed to the 6 valid ones.
        let stale = Frame::with_hash("app.D", "helper", 1, sha256(b"old version"));
        let mk_outer = || -> CallStack {
            let mut frames = vec![stale.clone()];
            frames.extend((0..5).map(|i| frame(&p, "app.D", "helper", 20 + i)));
            frames.push(frame(&p, "app.C", "outer", 2));
            frames.into_iter().collect()
        };
        let inner: CallStack = vec![frame(&p, "app.C", "outer", 3)].into_iter().collect();
        let sig = Signature::remote(vec![
            SigEntry::new(mk_outer(), inner.clone()),
            SigEntry::new(mk_outer(), inner),
        ]);
        let out = v.validate(&sig).expect("trimmed but valid");
        assert_eq!(out.entries()[0].outer.depth(), 6);
        assert!(out.entries()[0]
            .outer
            .frames()
            .iter()
            .all(|f| f.site.line != 1));
    }

    #[test]
    fn trim_below_min_depth_rejects() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);

        // 4 stale frames + 2 valid: trimming leaves depth 2 < 5.
        let stale = Frame::with_hash("app.D", "helper", 1, sha256(b"old"));
        let mk_outer = || -> CallStack {
            let mut frames = vec![stale.clone(); 4];
            frames.push(frame(&p, "app.D", "helper", 30));
            frames.push(frame(&p, "app.C", "outer", 2));
            frames.into_iter().collect()
        };
        let inner: CallStack = vec![frame(&p, "app.C", "outer", 3)].into_iter().collect();
        let sig = Signature::remote(vec![
            SigEntry::new(mk_outer(), inner.clone()),
            SigEntry::new(mk_outer(), inner),
        ]);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::OuterTooShallow { depth: 2 })
        ));
    }

    #[test]
    fn shallow_attack_signature_rejected() {
        // The §IV-B attack: outer stacks of depth 1.
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let outer: CallStack = vec![frame(&p, "app.C", "outer", 2)].into_iter().collect();
        let inner: CallStack = vec![frame(&p, "app.C", "outer", 3)].into_iter().collect();
        let sig = Signature::remote(vec![
            SigEntry::new(outer.clone(), inner.clone()),
            SigEntry::new(outer, inner),
        ]);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::OuterTooShallow { depth: 1 })
        ));
    }

    #[test]
    fn non_nested_outer_site_rejected() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        // Outer stacks ending at the INNER block (line 3), which is a
        // non-nested site.
        let mk_outer = || -> CallStack {
            let mut frames: Vec<Frame> = (0..4)
                .map(|i| frame(&p, "app.D", "helper", 40 + i))
                .collect();
            frames.push(frame(&p, "app.C", "outer", 3));
            frames.into_iter().collect()
        };
        let inner: CallStack = vec![frame(&p, "app.C", "outer", 3)].into_iter().collect();
        let sig = Signature::remote(vec![
            SigEntry::new(mk_outer(), inner.clone()),
            SigEntry::new(mk_outer(), inner),
        ]);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::NotNested { .. })
        ));
    }

    #[test]
    fn unknown_class_in_top_frame_rejects() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let mut sig = valid_sig(&p);
        let mut entries: Vec<SigEntry> = sig.entries().to_vec();
        let top = entries[0].outer.frames_mut().last_mut().unwrap();
        *top = Frame::with_hash("ghost.Class", "m", 1, sha256(b"x"));
        sig = Signature::remote(entries);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::UnknownClass { .. })
        ));
    }

    #[test]
    fn missing_hash_rejects() {
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let mut sig = valid_sig(&p);
        let mut entries: Vec<SigEntry> = sig.entries().to_vec();
        entries[0].outer.frames_mut().last_mut().unwrap().hash = None;
        sig = Signature::remote(entries);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::MissingHash { .. })
        ));
    }

    #[test]
    fn adaptive_threshold_accepts_shallow_but_honest_signatures() {
        // A nested site directly inside an entry method can never be
        // reached 5 deep; the paper's adaptive rule (min(d,5)) accepts
        // its honest shallow signatures while the fixed rule rejects
        // them.
        use communix_analysis::{CallGraph, MinDepths};
        let mut b = ProgramBuilder::new();
        b.class("app.E")
            .plain_method("entry", |s| {
                s.sync(LockExpr::global("A"), |s| {
                    s.sync(LockExpr::global("B"), |_| {});
                });
            })
            .done();
        let p = b.build();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let depths = MinDepths::compute(&lowered, &CallGraph::build(&lowered));

        // The honest signature: outer stacks of depth 1 at the nested
        // entry-method site (the only achievable shape).
        let frame = |line: u32| {
            Frame::with_hash(
                "app.E",
                "entry",
                line,
                p.class("app.E").unwrap().bytecode_hash(),
            )
        };
        let outer: CallStack = vec![frame(2)].into_iter().collect();
        let inner: CallStack = vec![frame(3)].into_iter().collect();
        let sig = Signature::remote(vec![
            SigEntry::new(outer.clone(), inner.clone()),
            SigEntry::new(outer, inner),
        ]);

        // Fixed rule: rejected.
        let fixed = SignatureValidator::new(hashes(&p), Some(&report), ValidatorConfig::default());
        assert!(matches!(
            fixed.validate(&sig),
            Err(ValidationError::OuterTooShallow { depth: 1 })
        ));

        // Adaptive rule: threshold min(1, 5) = 1 → accepted.
        let adaptive = SignatureValidator::new(
            hashes(&p),
            Some(&report),
            ValidatorConfig {
                adaptive_depth: true,
                ..ValidatorConfig::default()
            },
        )
        .with_min_depths(&depths);
        assert!(adaptive.validate(&sig).is_ok());
    }

    #[test]
    fn adaptive_threshold_still_blocks_deep_site_shallow_attack() {
        // For sites only reachable ≥5 deep, the adaptive rule changes
        // nothing: min(d, 5) = 5, and a depth-1 attack stays rejected.
        use communix_analysis::{CallGraph, MinDepths};
        let mut b = ProgramBuilder::new();
        let mut cb = b.class("app.D6").plain_method("entry", |s| {
            s.call("app.D6", "m1");
        });
        for i in 1..=5 {
            let callee = if i == 5 {
                "leaf".to_string()
            } else {
                format!("m{}", i + 1)
            };
            cb = cb.plain_method(&format!("m{i}"), move |s| {
                s.call("app.D6", &callee);
            });
        }
        cb.plain_method("leaf", |s| {
            s.sync(LockExpr::global("A"), |s| {
                s.sync(LockExpr::global("B"), |_| {});
            });
        })
        .done();
        let p = b.build();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let depths = MinDepths::compute(&lowered, &CallGraph::build(&lowered));

        // The nested site sits 7 frames deep at minimum: threshold 5.
        let outer_line = report.nested()[0].line;
        let mk = |line: u32| {
            Frame::with_hash(
                "app.D6",
                "leaf",
                line,
                p.class("app.D6").unwrap().bytecode_hash(),
            )
        };
        let outer: CallStack = vec![mk(outer_line)].into_iter().collect();
        let inner: CallStack = vec![mk(outer_line + 1)].into_iter().collect();
        let sig = Signature::remote(vec![
            SigEntry::new(outer.clone(), inner.clone()),
            SigEntry::new(outer, inner),
        ]);
        let v = SignatureValidator::new(
            hashes(&p),
            Some(&report),
            ValidatorConfig {
                adaptive_depth: true,
                ..ValidatorConfig::default()
            },
        )
        .with_min_depths(&depths);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::OuterTooShallow { depth: 1 })
        ));

        // And without min-depth data, adaptive falls back to the fixed
        // threshold as well.
        let no_data = SignatureValidator::new(
            hashes(&p),
            Some(&report),
            ValidatorConfig {
                adaptive_depth: true,
                ..ValidatorConfig::default()
            },
        );
        assert!(matches!(
            no_data.validate(&sig),
            Err(ValidationError::OuterTooShallow { .. })
        ));
    }

    #[test]
    fn missing_nesting_report_defers() {
        let p = program();
        let v = SignatureValidator::new(hashes(&p), None, ValidatorConfig::default());
        assert!(matches!(
            v.validate(&valid_sig(&p)),
            Err(ValidationError::NestingUnknown { .. })
        ));
    }

    #[test]
    fn empty_stack_rejects() {
        // Dropping the inner stacks must not skip their version check:
        // two valid depth-5 outer stacks with empty inner lines.
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let entries: Vec<SigEntry> = valid_sig(&p)
            .entries()
            .iter()
            .map(|e| SigEntry::new(e.outer.clone(), CallStack::empty()))
            .collect();
        let text = Signature::remote(entries.clone()).to_string();
        assert!(text.contains("\ninner \n"), "{text}");
        let sig: Signature = text.parse().expect("empty stack lines parse");
        assert_eq!(v.validate(&sig), Err(ValidationError::EmptyStack));
        // An empty outer stack is refused the same way.
        let mut entries = entries;
        entries[1] = SigEntry::new(CallStack::empty(), valid_sig(&p).entries()[1].inner.clone());
        assert_eq!(
            v.validate(&Signature::remote(entries)),
            Err(ValidationError::EmptyStack)
        );
    }

    #[test]
    fn inner_stack_hash_mismatch_rejects() {
        // "The hash checking covers also the inner call stacks" — a stale
        // inner top frame means the deadlock-prone section was fixed.
        let p = program();
        let lowered = LoweredProgram::lower(&p);
        let report = NestingAnalyzer::new(&lowered).analyze();
        let v = validator_with_nesting(&p, &report);
        let mut sig = valid_sig(&p);
        let mut entries: Vec<SigEntry> = sig.entries().to_vec();
        entries[1].inner.frames_mut().last_mut().unwrap().hash = Some(sha256(b"patched"));
        sig = Signature::remote(entries);
        assert!(matches!(
            v.validate(&sig),
            Err(ValidationError::TopFrameHashMismatch { .. })
        ));
    }
}
