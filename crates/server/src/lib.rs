//! The Communix server: collects deadlock signatures from Dimmunix
//! deployments and serves them back to clients (§III-B), with the
//! server-side validation of §III-C2 (encrypted sender ids, adjacency
//! rejection, 10-per-day rate limiting).
//!
//! Standing a server up goes through one door, [`builder`]: the
//! §III-C daily limit, the store's durability, reactor shards and the
//! clock each have one chainable setter on [`ServerBuilder`]; sizes are
//! fixed constants, not settings. The signature store is durable when asked
//! ([`ServerBuilder::durability`]): accepted signatures are journaled to a
//! write-ahead log whose segments are the store — nothing is rewritten —
//! and recovered by replaying them on the next boot; a byte cap evicts a
//! prefix and renumbers nothing (see the [`store`] module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auth;
mod builder;
mod db;
mod server;
pub mod store;

pub use auth::IdAuthority;
pub use builder::ServerBuilder;
pub use db::SignatureDb;
pub use server::{CommunixServer, RejectReason, ServerStats, DEFAULT_SHARDS};
pub use store::{DurabilityConfig, RecoveryReport, Store};

/// Starts a [`ServerBuilder`] with every value at its default: the
/// paper's 10 signatures per sender per day, an in-memory store, the
/// system clock.
pub fn builder() -> ServerBuilder {
    ServerBuilder::default()
}
