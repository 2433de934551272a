//! Network substrate for Communix: the wire protocol, a simulated network
//! with NIC bandwidth modelling, and a real TCP transport.
//!
//! Three transports implement the same protocol:
//!
//! * [`SimNet`] — deterministic, virtual-time message passing where each
//!   node's outgoing traffic serializes through a finite-bandwidth NIC.
//!   This reproduces Figure 3's collapse: the server pushing
//!   `(k+½)·N²·1.7 KB` per round through one NIC.
//! * [`TcpServer::bind`] — the event-driven C10K server:
//!   [`TcpServerConfig::reactors`] readiness shards (epoll on Linux,
//!   `poll(2)` fallback, via the vendored `polling` stand-in) of
//!   nonblocking sockets with per-connection framed state machines,
//!   write backpressure, and idle eviction, fed by a dedicated accept
//!   thread with least-loaded placement.
//! * [`TcpServer::threaded`] — the thread-per-connection baseline the
//!   event loop is benchmarked against.
//!
//! Two clients are wire-compatible with both servers: [`TcpClient`], a
//! blocking one-request-at-a-time client, and [`NonblockingClient`]
//! (unix), a nonblocking framed connection for pipelined clients that
//! keep a window of requests in flight on one socket. A
//! [`ReadinessPool`] (unix) shares one poller across many nonblocking
//! connections — the substrate for a client-side reactor where a single
//! thread drives many pipelined sockets. All unsafe syscall plumbing
//! lives in the vendored `polling` crate; this crate stays
//! `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(unix)]
mod client_conn;
mod codec;
#[cfg(unix)]
mod event;
#[cfg(unix)]
mod reactor;
mod simnet;
mod tcp;
#[cfg(all(test, unix))]
mod test_io;

#[cfg(unix)]
pub use client_conn::{NonblockingClient, ReadinessPool};
pub use codec::{
    deframe, frame, frame_reply_into, frame_request_into, AddResult, BatchAdd, CodecError,
    EncryptedId, Reply, Request, MAX_FRAME,
};
pub use simnet::{Delivery, NicConfig, NodeId, SimNet};
pub use tcp::{ClientError, Handler, TcpClient, TcpServer, TcpServerConfig, TransportStats};
