//! # Communix — collaborative deadlock immunity
//!
//! A from-scratch Rust reproduction of *“Communix: A Framework for
//! Collaborative Deadlock Immunity”* (Jula, Tözün, Candea — DSN 2011),
//! including the Dimmunix deadlock-immunity engine it builds on and every
//! substrate the evaluation needs.
//!
//! Deadlock immunity lets a program avoid deadlocks it has encountered
//! before: Dimmunix detects a deadlock, extracts its *signature* (the
//! call stacks that led to it), and thereafter steers thread schedules
//! away from execution flows matching that signature. Communix makes the
//! immunity *collaborative*: signatures are uploaded to a server,
//! redistributed to every node running the same application, validated
//! against the local bytecode (hash matching, depth and nesting rules —
//! which also contain DoS attacks by malicious signature senders), and
//! generalized by merging signatures of the same bug.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`dimmunix`] | signatures, history, avoidance + detection engine |
//! | [`runtime`] | deterministic simulator & real-thread lock runtime |
//! | [`bytecode`] | Java-like program model, hashing, class loading |
//! | [`analysis`] | call graph + §III-C3 nesting analysis (Soot stand-in) |
//! | [`agent`] | client-side validation & generalization |
//! | [`server`] | signature DB, encrypted ids, adjacency & rate limits |
//! | [`client`] | local repository, incremental sync, daemon |
//! | [`net`] | wire codec, event-driven C10K TCP transport |
//! | [`crypto`] | SHA-256 and AES-128 (FIPS-tested, from scratch) |
//! | [`clock`] | virtual + system clocks |
//! | [`telemetry`] | lock-free metrics registry, latency histograms, event tracer |
//! | [`workloads`] | Table I/II workloads, attackers, §IV-C model |
//! | [`evaluation`] | the paper's tables as checked rows |
//! | re-exports | [`CommunixNode`], [`NodeConfig`], [`CommunixPlugin`] |
//!
//! ## Quickstart
//!
//! One node deadlocks; a second node is immunized through the server
//! without ever experiencing the bug:
//!
//! ```
//! use communix::{CommunixNode, NodeConfig};
//! use communix::net::{Reply, Request};
//! use communix::workloads::DeadlockApp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = communix::server::builder().build()?;
//! let app = DeadlockApp::new(4);
//!
//! let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
//! let srv = server.clone();
//! let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
//! victim.obtain_id(&mut conn)?;
//! victim.startup();
//! assert_eq!(victim.run(&app.deadlock_specs()).deadlocks.len(), 1);
//! victim.upload_pending(&mut conn)?;
//!
//! let mut protected = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
//! let srv = server.clone();
//! let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
//! protected.sync(&mut conn)?;
//! protected.startup();
//! protected.shutdown(); // first-run nesting analysis
//! protected.startup();
//! assert!(protected.run(&app.deadlock_specs()).deadlocks.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios (the paper's browser-applet and
//! Eclipse-plugin stories, a TCP deployment, and a contained DoS attack)
//! and [`evaluation`] for the paper's tables recomputed as checked rows
//! (`tests/paper_claims.rs` asserts them, `examples/paper_evaluation.rs`
//! prints them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use communix_core::{CommunixNode, CommunixPlugin, NodeConfig, ShutdownReport};

pub mod evaluation;

pub use communix_agent as agent;
pub use communix_analysis as analysis;
pub use communix_bytecode as bytecode;
pub use communix_client as client;
pub use communix_clock as clock;
pub use communix_core as core;
pub use communix_crypto as crypto;
pub use communix_dimmunix as dimmunix;
pub use communix_net as net;
pub use communix_runtime as runtime;
pub use communix_server as server;
pub use communix_telemetry as telemetry;
pub use communix_workloads as workloads;
