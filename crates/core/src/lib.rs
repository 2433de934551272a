//! Communix: the collaborative deadlock-immunity framework (DSN 2011),
//! wired end to end.
//!
//! Communix has five components (Figure 1 of the paper): Dimmunix (the
//! deadlock-immunity engine), the Communix *plugin* (uploads freshly
//! detected signatures with bytecode hashes attached), the Communix
//! *server* (collects and redistributes signatures), the Communix
//! *client* (keeps a local repository in sync), and the Communix *agent*
//! (validates and generalizes downloaded signatures into the running
//! application's deadlock history).
//!
//! This crate provides the plugin ([`CommunixPlugin`]) and the node
//! wiring ([`CommunixNode`]) that assembles all five around one
//! application. The individual components live in their own crates
//! (`communix-dimmunix`, `communix-server`, `communix-client`,
//! `communix-agent`, …); the umbrella `communix` crate re-exports
//! everything.
//!
//! # Example: two nodes immunizing each other
//!
//! ```
//! use communix_core::{CommunixNode, NodeConfig};
//! use communix_net::{Reply, Request};
//! use communix_workloads::DeadlockApp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = communix_server::builder().build()?;
//! let app = DeadlockApp::new(4);
//!
//! // Node A deadlocks and shares the signature.
//! let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
//! let srv = server.clone();
//! let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
//! a.obtain_id(&mut conn)?;
//! a.startup();
//! let outcome = a.run(&app.deadlock_specs());
//! assert_eq!(outcome.deadlocks.len(), 1);
//! a.upload_pending(&mut conn)?;
//!
//! // Node B downloads it and becomes immune without ever deadlocking.
//! let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
//! let srv = server.clone();
//! let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
//! b.sync(&mut conn)?;
//! b.startup();
//! b.shutdown(); // first-run nesting analysis + deferred re-check
//! b.startup();
//! assert!(b.run(&app.deadlock_specs()).deadlocks.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod plugin;

pub use node::{CommunixNode, NodeConfig, ShutdownReport};
pub use plugin::CommunixPlugin;
