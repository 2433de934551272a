//! Instrumented lock runtimes hosting Dimmunix.
//!
//! The paper's Dimmunix "runs within the address space of the target
//! program" via AspectJ bytecode instrumentation. This crate provides the
//! two Rust equivalents used throughout the reproduction:
//!
//! * [`Simulator`] — a deterministic discrete-event runtime that executes
//!   [`communix_bytecode`] programs with simulated threads over virtual
//!   time. All deadlock scenarios, avoidance-serialization measurements
//!   (Table II) and protection-time experiments (§IV-C) run here, because
//!   virtual time makes them exact and reproducible.
//! * [`DlxRuntime`] — real OS threads taking instrumented locks through a
//!   per-thread handle. Used by the runnable examples and stress tests;
//!   deadlock victims get [`DeadlockAborted`] back instead of hanging, so
//!   programs can unwind (modelling the user restarting a hung app).
//!
//! Both runtimes drive the identical [`communix_dimmunix::DimmunixCore`];
//! nothing in the avoidance/detection logic is runtime-specific. Both
//! build their threads' stacks as ids in the core's
//! [`communix_dimmunix::SiteTable`] and hand them over through
//! [`DimmunixCore::request_ids`](communix_dimmunix::DimmunixCore::request_ids).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sim;
mod threads;

pub use sim::{SimConfig, SimOutcome, Simulator, ThreadResult, ThreadSpec};
pub use threads::{DeadlockAborted, DlxGuard, DlxRuntime, DlxThread};
