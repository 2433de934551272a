//! A complete Communix node: the five components of Figure 1 wired
//! together around one application.
//!
//! * **Dimmunix** — inside the [`Simulator`]: detects deadlocks, saves
//!   signatures, avoids their reoccurrence;
//! * **Communix plugin** — attaches bytecode hashes and uploads freshly
//!   detected signatures to the server;
//! * **Communix client** — the [`LocalRepository`] plus an incremental
//!   [`CommunixNode::sync`] (the production deployment would run
//!   [`communix_client::ClientDaemon`] instead; the node keeps sync
//!   explicit so simulations control time);
//! * **Communix agent** — validates and generalizes downloaded
//!   signatures into the application's history at start-up, and runs the
//!   nesting analysis at shutdown;
//! * the **Communix server** is the node's counterparty, reached through
//!   any [`Connector`] (in-process or TCP).
//!
//! # Lifecycle
//!
//! ```text
//! sync ─▶ startup ─▶ run … run ─▶ upload_pending ─▶ shutdown
//!            ▲                                          │
//!            └────────── (next application start) ◀─────┘
//! ```
//!
//! The nesting analysis runs at the *first* shutdown and again whenever a
//! run loaded classes no previous run had loaded (§III-C3); signatures
//! that were deferred pending the analysis are re-checked right after it.
//!
//! # Persistence
//!
//! The [`LocalRepository`] is the node's only durable state. On disk,
//! each step logs its part before it returns: `sync` the windows and
//! cursor, `startup` and the shutdown re-check what the agent admitted
//! and its cursors, `run` the deadlocks Dimmunix detected, and
//! `upload_pending` the acked count. [`CommunixNode::with_repo`] folds
//! the history back, so a node killed after `run` loses no detection.

use communix_agent::{AgentConfig, CommunixAgent, StartupReport};
use communix_bytecode::{ClassLoader, LoweredProgram, Program};
use communix_client::{obtain_id, sync_delta, Connector, LocalRepository, SyncError};
use communix_dimmunix::{DimmunixConfig, History, Signature};
use communix_net::EncryptedId;
use communix_runtime::{SimConfig, SimOutcome, Simulator, ThreadSpec};

use crate::plugin::CommunixPlugin;

/// Node configuration.
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// The user number this node identifies as (encrypted into its
    /// sender id by the server's authority).
    pub user: u64,
    /// Dimmunix configuration.
    pub dimmunix: DimmunixConfig,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Agent configuration.
    pub agent: AgentConfig,
}

impl NodeConfig {
    /// A config for user `user` with all defaults.
    pub fn for_user(user: u64) -> Self {
        NodeConfig {
            user,
            ..NodeConfig::default()
        }
    }
}

/// What [`CommunixNode::shutdown`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Whether the nesting analysis ran (first shutdown, or new classes
    /// were loaded this run).
    pub analysis_ran: bool,
    /// Duration of the nesting analysis, if it ran.
    pub analysis_time: Option<std::time::Duration>,
    /// Signatures re-checked after the analysis (previously deferred).
    pub rechecked: usize,
    /// Re-checked signatures accepted into the history.
    pub recheck_accepted: usize,
}

/// One machine running one Communix-protected application.
#[derive(Debug)]
pub struct CommunixNode {
    program: Program,
    config: NodeConfig,
    simulator: Simulator,
    agent: CommunixAgent,
    repo: LocalRepository,
    plugin: CommunixPlugin,
    loader: ClassLoader,
    encrypted_id: Option<EncryptedId>,
}

impl CommunixNode {
    /// Creates a node for `program` with an in-memory repository.
    pub fn new(program: Program, config: NodeConfig) -> Self {
        CommunixNode::with_repo(program, config, LocalRepository::in_memory())
    }

    /// Creates a node with an existing (possibly disk-backed) repository.
    /// Dimmunix starts from the deadlock history the repository's log
    /// folds to ([`LocalRepository::take_history`]): every detection and
    /// every admission it recorded, in order. The class-hash index is
    /// built here, one SHA-256 pass per class, and serves the plugin and
    /// every later start-up and shutdown.
    pub fn with_repo(program: Program, config: NodeConfig, mut repo: LocalRepository) -> Self {
        let lowered = LoweredProgram::lower(&program);
        let history = repo.take_history(config.agent.validator.min_outer_depth);
        let simulator = Simulator::with_history(
            lowered,
            config.dimmunix.clone(),
            config.sim.clone(),
            history,
        );
        let plugin = CommunixPlugin::for_program(&program);
        let agent = CommunixAgent::new(config.agent.clone());
        CommunixNode {
            program,
            config,
            simulator,
            agent,
            repo,
            plugin,
            loader: ClassLoader::new(),
            encrypted_id: None,
        }
    }

    /// The application program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The node's user number.
    pub fn user(&self) -> u64 {
        self.config.user
    }

    /// The current deadlock history.
    pub fn history(&self) -> &History {
        self.simulator.history()
    }

    /// The local signature repository.
    pub fn repo(&self) -> &LocalRepository {
        &self.repo
    }

    /// Mutable repository access (tests seed it directly).
    pub fn repo_mut(&mut self) -> &mut LocalRepository {
        &mut self.repo
    }

    /// The agent.
    pub fn agent(&self) -> &CommunixAgent {
        &self.agent
    }

    /// The plugin.
    pub fn plugin(&self) -> &CommunixPlugin {
        &self.plugin
    }

    /// Signatures detected locally and not yet uploaded.
    pub fn pending_uploads(&self) -> &[Signature] {
        self.repo.pending_uploads()
    }

    /// Requests an encrypted sender id from the server (§III-C2: "each
    /// user has to previously obtain the encrypted id").
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport or protocol failures.
    pub fn obtain_id(&mut self, connector: &mut dyn Connector) -> Result<(), SyncError> {
        let id = obtain_id(connector, self.config.user)?;
        self.encrypted_id = Some(id);
        Ok(())
    }

    /// Downloads new signatures from the server into the local
    /// repository through the `GET_DELTA` sync ([`sync_delta`]): one
    /// round trip unless the server windows the reply. A window that
    /// starts past the cursor (the server evicted a gap the node had not
    /// fetched) moves the cursor with it, and a server that lost its log
    /// (its `total` fell below the repository's cursor) is re-read from
    /// index 0 instead of silently answering "nothing new" forever.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport, protocol or persistence
    /// failures.
    pub fn sync(&mut self, connector: &mut dyn Connector) -> Result<usize, SyncError> {
        sync_delta(connector, &mut self.repo, 0)
    }

    /// [`CommunixNode::sync`] under the name `benchmark/` compiles
    /// against (its files are frozen); there is no second sync path.
    ///
    /// # Errors
    ///
    /// As [`CommunixNode::sync`].
    pub fn sync_batched(&mut self, connector: &mut dyn Connector) -> Result<usize, SyncError> {
        self.sync(connector)
    }

    /// Application start: loads the program's classes and runs the
    /// agent's start-up pipeline over the not-yet-inspected repository
    /// signatures, updating the deadlock history.
    ///
    /// Every class is loaded, so the loaded classes' hashes are the
    /// plugin's index, built once when the node was created: the agent
    /// "computes the hash of a class \[the\] first time the class is
    /// loaded, then reuses the computed hash value" (§III-C3), and no
    /// start-up hashes a class.
    pub fn startup(&mut self) -> StartupReport {
        self.loader.load_all(&self.program);
        let mut history = self.simulator.history().clone();
        let report = self
            .agent
            .startup(self.plugin.class_hashes(), &mut self.repo, &mut history);
        self.simulator.set_history(history);
        report
    }

    /// Runs a workload. Deadlock signatures detected during the run are
    /// logged to the repository before this returns, and wait there for
    /// upload (the plugin sends them "right after Dimmunix produces the
    /// signatures" — call [`CommunixNode::upload_pending`]). If the log
    /// write fails they stay in this run's history only.
    pub fn run(&mut self, specs: &[ThreadSpec]) -> SimOutcome {
        let outcome = self.simulator.run(specs);
        let _ = self.repo.log_detections(&outcome.deadlocks);
        outcome
    }

    /// Uploads every pending signature with the node's encrypted id in
    /// a single `ADD_BATCH` round trip (none when nothing is pending).
    /// Returns how many the server accepted; once the batch is acked all
    /// items are marked uploaded either way (each received its verdict).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] if the node has no id, the transport fails
    /// or the repository cannot log the upload; on failure the whole
    /// batch remains pending (after a failed log write: at the next
    /// open), and sending it again is safe (the server acks what it
    /// already stored as duplicates).
    pub fn upload_pending(&mut self, connector: &mut dyn Connector) -> Result<usize, SyncError> {
        let Some(id) = self.encrypted_id else {
            return Err(SyncError::Transport(
                "node has no encrypted id (call obtain_id first)".into(),
            ));
        };
        let pending = self.repo.pending_uploads();
        if pending.is_empty() {
            return Ok(0);
        }
        let results = self.plugin.upload_all(connector, id, pending)?;
        self.repo.mark_uploaded()?;
        Ok(results.iter().filter(|r| r.accepted).count())
    }

    /// [`CommunixNode::upload_pending`] under the name `benchmark/`
    /// compiles against (its files are frozen); there is no second
    /// upload path.
    ///
    /// # Errors
    ///
    /// As [`CommunixNode::upload_pending`].
    pub fn upload_pending_batched(
        &mut self,
        connector: &mut dyn Connector,
    ) -> Result<usize, SyncError> {
        self.upload_pending(connector)
    }

    /// Application shutdown: runs the nesting analysis if this was the
    /// first run or new classes were loaded (§III-C3) and re-checks
    /// signatures that had been deferred on the nesting check. The
    /// history needs no saving: every step that changed it logged the
    /// change.
    pub fn shutdown(&mut self) -> ShutdownReport {
        let new_classes = self.loader.end_run();
        let mut report = ShutdownReport::default();
        if self.agent.nesting().is_none() || !new_classes.is_empty() {
            let lowered = LoweredProgram::lower(&self.program);
            let elapsed = self.agent.run_nesting_analysis(&lowered);
            report.analysis_ran = true;
            report.analysis_time = Some(elapsed);

            // Re-check deferred signatures now that nesting is known.
            // Classes are unloaded after shutdown, but their hashes are
            // version identities, not load state — reuse the full index.
            let mut history = self.simulator.history().clone();
            let recheck = self.agent.recheck_after_class_load(
                self.plugin.class_hashes(),
                &mut self.repo,
                &mut history,
            );
            self.simulator.set_history(history);
            report.rechecked = recheck.inspected;
            report.recheck_accepted = recheck.accepted + recheck.merged;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_net::{Reply, Request};
    use communix_server::CommunixServer;
    use communix_workloads::DeadlockApp;
    use std::sync::Arc;

    /// An in-process connector to a shared server.
    fn connector(server: Arc<CommunixServer>) -> impl FnMut(Request) -> Result<Reply, String> {
        move |req| Ok(server.handle(req))
    }

    fn server() -> Arc<CommunixServer> {
        communix_server::builder().build().unwrap()
    }

    #[test]
    fn full_collaborative_cycle_protects_second_node() {
        let app = DeadlockApp::new(4);
        let srv = server();

        // Node A encounters the deadlock and shares its signature.
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn_a = connector(srv.clone());
        a.obtain_id(&mut conn_a).unwrap();
        a.startup();
        let outcome = a.run(&app.deadlock_specs());
        assert_eq!(outcome.deadlocks.len(), 1);
        assert_eq!(a.pending_uploads().len(), 1);
        let accepted = a.upload_pending(&mut conn_a).unwrap();
        assert_eq!(accepted, 1);
        assert!(a.pending_uploads().is_empty());
        assert_eq!(srv.db().len(), 1);
        assert_eq!(srv.stats().batches, 1, "one ADD_BATCH round trip");

        // Node B never deadlocked; it syncs, starts (validation defers on
        // nesting), shuts down (analysis + recheck), then runs protected.
        let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
        let mut conn_b = connector(srv.clone());
        let downloaded = b.sync(&mut conn_b).unwrap();
        assert_eq!(downloaded, 1);
        assert_eq!(b.sync(&mut conn_b).unwrap(), 0, "second sync downloads 0");
        assert_eq!(srv.stats().gets, 0, "the node never uses GET");
        let report = b.startup();
        assert_eq!(report.inspected, 1);
        assert_eq!(report.deferred, 1, "first run defers on nesting");
        let sd = b.shutdown();
        assert!(sd.analysis_ran);
        assert_eq!(sd.rechecked, 1);
        assert_eq!(sd.recheck_accepted, 1);
        assert_eq!(b.history().len(), 1);

        // Second start: protected.
        b.startup();
        let outcome = b.run(&app.deadlock_specs());
        assert!(outcome.deadlocks.is_empty(), "B must be immune");
        assert!(outcome.all_finished());
    }

    #[test]
    fn batched_upload_without_pending_is_noop() {
        let app = DeadlockApp::new(4);
        let srv = server();
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn = connector(srv.clone());
        a.obtain_id(&mut conn).unwrap();
        assert_eq!(a.upload_pending(&mut conn).unwrap(), 0);
        assert_eq!(srv.stats().batches, 0, "no pending: no round trip");
    }

    #[test]
    fn upload_without_id_fails_cleanly() {
        let app = DeadlockApp::new(4);
        let srv = server();
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        a.startup();
        a.run(&app.deadlock_specs());
        let mut conn = connector(srv);
        let err = a.upload_pending(&mut conn).unwrap_err();
        assert!(matches!(err, SyncError::Transport(_)));
        assert_eq!(a.pending_uploads().len(), 1, "signature stays queued");
    }

    #[test]
    fn second_shutdown_skips_analysis() {
        let app = DeadlockApp::new(4);
        let mut n = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        n.startup();
        let first = n.shutdown();
        assert!(first.analysis_ran);
        n.startup();
        let second = n.shutdown();
        assert!(!second.analysis_ran, "no new classes, no re-analysis");
    }

    #[test]
    fn sync_is_incremental() {
        let app = DeadlockApp::new(4);
        let srv = server();
        // Seed the server with one signature from another node.
        let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        let mut conn = connector(srv.clone());
        a.obtain_id(&mut conn).unwrap();
        a.startup();
        a.run(&app.deadlock_specs());
        a.upload_pending(&mut conn).unwrap();

        let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
        let mut conn_b = connector(srv.clone());
        assert_eq!(b.sync(&mut conn_b).unwrap(), 1);
        assert_eq!(b.sync(&mut conn_b).unwrap(), 0, "nothing new");
        assert_eq!(srv.stats().deltas, 2);
    }

    #[test]
    fn local_detection_still_works_without_server() {
        // A node with no connectivity behaves exactly like Dimmunix.
        let app = DeadlockApp::new(4);
        let mut n = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
        n.startup();
        let o1 = n.run(&app.deadlock_specs());
        assert_eq!(o1.deadlocks.len(), 1);
        let o2 = n.run(&app.deadlock_specs());
        assert!(o2.deadlocks.is_empty(), "local immunity from run 1");
    }
}
