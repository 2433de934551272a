//! Quickstart: deadlock immunity in one node, collaborative immunity in
//! two.
//!
//! Run with: `cargo run --release --example quickstart`

use communix::net::{Reply, Request};
use communix::workloads::DeadlockApp;
use communix::{CommunixNode, NodeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deadlock-prone application: two entry points acquire locks A and
    // B in opposite orders, four stack frames deep.
    let app = DeadlockApp::new(4);

    // ---------------------------------------------------------------
    // Part 1 — Dimmunix alone: immunity develops after the first hit.
    // ---------------------------------------------------------------
    println!("== Part 1: single-node deadlock immunity (Dimmunix) ==");
    let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    node.startup();

    let first = node.run(&app.deadlock_specs());
    println!(
        "first run : {} deadlock(s) detected, {} thread aborted — signature captured",
        first.deadlocks.len(),
        first.victim_count()
    );
    assert_eq!(first.deadlocks.len(), 1);

    let second = node.run(&app.deadlock_specs());
    println!(
        "second run: {} deadlock(s) — avoidance suspended threads {} time(s) instead",
        second.deadlocks.len(),
        second.stats.suspensions
    );
    assert!(second.deadlocks.is_empty());
    assert!(second.all_finished());

    // ---------------------------------------------------------------
    // Part 2 — Communix: a second machine is protected without ever
    // experiencing the deadlock.
    // ---------------------------------------------------------------
    println!("\n== Part 2: collaborative immunity (Communix) ==");
    let server = communix::server::builder().build()?;

    // The victim node uploads its signature (plugin attaches bytecode
    // hashes; the server validates the encrypted sender id).
    let srv = server.clone();
    let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    node.obtain_id(&mut conn)?;
    let accepted = node.upload_pending(&mut conn)?;
    println!("victim    : uploaded {accepted} signature(s) to the Communix server");

    // A fresh machine: sync → validate → immune, no deadlock ever.
    let mut fresh = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let srv = server.clone();
    let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    let downloaded = fresh.sync(&mut conn)?;
    println!("fresh node: downloaded {downloaded} signature(s)");

    fresh.startup(); // validation defers until the nesting analysis ran
    fresh.shutdown(); // first shutdown: nesting analysis + re-check
    fresh.startup();
    println!(
        "fresh node: history primed with {} signature(s) after validation",
        fresh.history().len()
    );

    let outcome = fresh.run(&app.deadlock_specs());
    println!(
        "fresh node: ran the deadlock-prone workload — {} deadlock(s), all finished: {}",
        outcome.deadlocks.len(),
        outcome.all_finished()
    );
    assert!(outcome.deadlocks.is_empty());
    assert!(outcome.all_finished());

    println!("\nimmunity propagated: the second machine never deadlocked.");
    Ok(())
}
