//! Dimmunix: the deadlock-immunity substrate Communix builds on.
//!
//! "Programs augmented with Dimmunix develop antibodies against each
//! deadlock they encounter: Dimmunix extracts the signature of the
//! deadlock, stores it in a persistent history, then alters future thread
//! schedules transparently to the application, in order to avoid execution
//! flows matching the signature." (§II-A of the Communix paper; original
//! system published at OSDI'08.)
//!
//! This crate implements the full substrate:
//!
//! * [`Frame`], [`CallStack`] — the paper's frame encoding
//!   `c.m:l:h`, with the top frame last and the "call stack suffix"
//!   semantics used everywhere;
//! * [`Signature`], [`SigEntry`] — outer + inner call stacks per
//!   deadlocked thread, canonical ordering, bug identity, adjacency and
//!   the §III-D merge (generalization);
//! * [`History`] — the ordered signature set avoidance matches against;
//! * [`SiteTable`], [`SiteId`] — a core's numbering of the sites its lock
//!   path sees, so that stacks on that path are integer slices;
//! * [`AvoidanceMatcher`] — the instantiation-matching kernel;
//! * [`DimmunixCore`] — lock-state tracking, the avoidance module
//!   (suspension + starvation-yield cancellation), the detection module
//!   (wait-cycle discovery + signature extraction) and the
//!   false-positive detector, behind a runtime-agnostic API;
//! * [`FalsePositiveDetector`] — the §III-C1 warning rule.
//!
//! Hosting runtimes live in `communix-runtime`; this crate is pure logic
//! and fully deterministic given a [`communix_clock::Clock`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod events;
mod fp;
mod frame;
mod history;
mod ids;
mod matcher;
mod signature;
mod sites;

pub use config::{BreakPolicy, DimmunixConfig};
pub use core::{CoreStats, DimmunixCore, RequestOutcome};
pub use events::{Event, Wake};
pub use fp::FalsePositiveDetector;
pub use frame::{CallStack, Frame, ParseFrameError, Site};
pub use history::{AddOutcome, History};
pub use ids::{LockId, ThreadId};
pub use matcher::{AvoidanceMatcher, Instantiation, LockRecord, RecordRef};
pub use signature::{ParseSignatureError, SigEntry, SigOrigin, Signature};
pub use sites::{SiteId, SiteTable};
