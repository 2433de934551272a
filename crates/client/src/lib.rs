//! The Communix client: a local signature repository kept in sync with
//! the Communix server by a background daemon (§III-B).
//!
//! The server is reached through the [`Connector`] trait — one open
//! request/reply channel. The four request helpers ([`sync_delta`],
//! [`upload_batch`], [`obtain_id`], [`fetch_stats`]) run over any
//! connector; over TCP the connector is [`PipelinedConnector`], the
//! blocking face of the [`PipelinedClient`] engine, which keeps a window
//! of requests in flight on one nonblocking connection. The paper's
//! one-signature `GET`/`ADD` remain wire verbs that any caller can send
//! through [`Connector::call`].
//!
//! On disk, [`LocalRepository`] is one append-only file of the server
//! WAL's CRC-framed records ([`communix_net::record`]).
//!
//! [`ClientDaemon::spawn`] takes a *dial* closure rather than a live
//! connector, so it redials after a server restart and resumes syncing
//! against the recovered durable store ([`sync_delta`] skips a gap the
//! server evicted and re-reads a server that lost its log).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
#[cfg(unix)]
mod pipeline;
mod repo;
mod sync;

pub use daemon::{ClientDaemon, DaemonStats};
#[cfg(unix)]
pub use pipeline::{
    Completion, PipelineConfig, PipelineError, PipelinedClient, PipelinedConnector,
};
pub use repo::LocalRepository;
pub use sync::{fetch_stats, obtain_id, sync_delta, upload_batch, Connector, SyncError};
