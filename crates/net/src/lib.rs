//! Network substrate for Communix: the wire protocol and a real TCP
//! transport.
//!
//! [`TcpServer`] is the event-driven C10K server:
//! [`TcpServerConfig::reactors`] readiness shards (epoll on Linux,
//! `poll(2)` elsewhere, via the vendored `polling` stand-in) of
//! nonblocking sockets with per-connection framed state machines,
//! write backpressure, and idle eviction, fed by a dedicated accept
//! thread with least-loaded placement.
//!
//! Its client end is [`NonblockingClient`] (unix), a nonblocking framed
//! connection on which `communix-client`'s pipelined engine keeps a
//! window of requests in flight. All unsafe syscall plumbing lives in
//! the vendored `polling` crate; this crate stays `forbid(unsafe_code)`.
//!
//! [`record`] is the CRC-framed, append-only log format both sides keep
//! on disk: the server's WAL and the client's local repository.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(unix)]
mod client_conn;
mod codec;
#[cfg(unix)]
mod event;
#[cfg(unix)]
mod reactor;
pub mod record;
mod tcp;
#[cfg(all(test, unix))]
mod test_io;

#[cfg(unix)]
pub use client_conn::NonblockingClient;
pub use codec::{
    deframe, frame, frame_reply_into, frame_request_into, AddResult, BatchAdd, CodecError,
    EncryptedId, Reply, Request, MAX_FRAME, MAX_SIG_BYTES, REPLY_BUDGET,
};
pub use tcp::{ClientError, Handler, TcpServer, TcpServerConfig, TransportStats};
