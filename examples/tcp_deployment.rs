//! A real deployment over TCP: the Communix server behind sockets, a
//! background client daemon keeping the local repository fresh, and two
//! machines immunizing each other end to end.
//!
//! This is the wiring of Figure 1 with every arrow crossing a real
//! socket: plugin → server (ADD), server → client (GET), client → agent
//! (local repository), agent → Dimmunix (history).
//!
//! Run with: `cargo run --release --example tcp_deployment`

use std::sync::Arc;
use std::time::Duration;

use communix::client::{ClientDaemon, LocalRepository, PipelinedConnector, SyncError};
use communix::workloads::DeadlockApp;
use communix::{CommunixNode, NodeConfig};
use parking_lot::Mutex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // The immunity server, listening on a real socket.
    // ------------------------------------------------------------------
    let (_server, mut tcp) = communix::server::builder().serve("127.0.0.1:0")?;
    let addr = tcp.addr();
    println!(
        "server: listening on {addr} ({} transport)",
        tcp.transport()
    );

    let app = DeadlockApp::new(4);

    // ------------------------------------------------------------------
    // Machine A: hits the deadlock, uploads through the socket.
    // ------------------------------------------------------------------
    let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn_a = PipelinedConnector::connect(addr)?;
    a.obtain_id(&mut conn_a)?;
    a.startup();
    let outcome = a.run(&app.deadlock_specs());
    let sent = a.upload_pending(&mut conn_a)?;
    println!(
        "node A: {} deadlock detected, {} signature uploaded over TCP",
        outcome.deadlocks.len(),
        sent
    );

    // ------------------------------------------------------------------
    // Machine B: a background daemon polls the server (here: every
    // 50 ms instead of the paper's once-a-day) into a shared repository.
    // The daemon dials through the closure, and dials again should the
    // connection (or the whole server) go away.
    // ------------------------------------------------------------------
    let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
    let dial =
        move || PipelinedConnector::connect(addr).map_err(|e| SyncError::Transport(e.to_string()));
    let mut daemon = ClientDaemon::spawn(dial, repo.clone(), Duration::from_millis(50), 0);

    // Wait for the daemon's first rounds to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while repo.lock().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon should have synced by now"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = daemon.stats();
    println!(
        "node B: daemon synced {} signature(s) in {} round(s)",
        stats.downloaded, stats.rounds
    );
    daemon.shutdown();

    // Hand the daemon's repository to node B and go through the agent
    // lifecycle: startup (defer) → shutdown (analyze + recheck) → run.
    let repo_inner = std::mem::take(&mut *repo.lock());
    let mut b = CommunixNode::with_repo(app.program().clone(), NodeConfig::for_user(2), repo_inner);
    b.startup();
    b.shutdown();
    b.startup();
    println!(
        "node B: history primed with {} signature(s)",
        b.history().len()
    );

    let outcome = b.run(&app.deadlock_specs());
    println!(
        "node B: workload ran — {} deadlocks, all threads finished: {}",
        outcome.deadlocks.len(),
        outcome.all_finished()
    );
    assert!(outcome.deadlocks.is_empty());
    assert!(outcome.all_finished());

    tcp.shutdown();
    println!("\nend-to-end over real sockets: immunity propagated A → server → B.");
    Ok(())
}
