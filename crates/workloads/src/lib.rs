//! Synthetic applications, workload drivers, attacker models and the
//! protection-time model — everything the evaluation (§IV) runs on.
//!
//! The paper evaluates Communix on real Java applications (JBoss,
//! Limewire, Vuze, Eclipse, MySQL-JDBC) driven by standard benchmarks
//! (RUBiS, JDBCBench, upload tests). Every Communix mechanism observes an
//! application only through its lock behaviour, its class hashes, and its
//! CFG: Dimmunix sees acquisitions and call stacks, the agent sees hashes
//! and the nesting analysis' verdicts, the server sees signature text.
//! Profile-driven synthetic programs that reproduce those three surfaces
//! therefore reproduce the workloads, whatever the applications compute.
//!
//! * [`profiles`] — Table I application profiles (JBoss/Limewire/Vuze)
//!   and the generator that realizes them as [`communix_bytecode`]
//!   programs;
//! * [`deadlock_apps`] — deadlock-prone applications: the canonical
//!   two-lock inversion, multi-bug applications, and multi-manifestation
//!   applications for generalization experiments;
//! * [`sig_gen`] — deterministic signature generators: random signatures
//!   for server load tests (Figure 2/3) and application-valid remote
//!   signatures for agent pipelines (Figure 4);
//! * [`attacker`] — the §IV-B attacker models: critical-path DoS
//!   signatures of configurable depth and server-flooding factories;
//! * [`drivers`] — the Table II workload drivers (request mix,
//!   transaction loop, upload loop, startup+shutdown) with per-application
//!   profiles;
//! * [`protection`] — the §IV-C time-to-full-protection model
//!   (Monte-Carlo plus the paper's closed forms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod deadlock_apps;
pub mod drivers;
pub mod profiles;
pub mod protection;
pub mod sig_gen;

pub use attacker::{AttackDepth, AttackPlan, AttackerFactory};
pub use deadlock_apps::{DeadlockApp, ManifestationApp, MultiBugApp};
pub use drivers::{
    DriverApp, DriverProfile, Section, ALL_DRIVERS, ECLIPSE_STARTUP, JDBCBENCH_MYSQL,
    LIMEWIRE_UPLOAD, RUBIS_JBOSS, VUZE_STARTUP,
};
pub use profiles::{AppProfile, ALL_PROFILES, JBOSS, LIMEWIRE, VUZE};
pub use protection::{EncounterModel, ProtectionParams, ProtectionReport};
pub use sig_gen::SigGen;
