//! The paper's second motivating scenario (§I):
//!
//! > "A deadlock-prone version of a plugin is released for the Eclipse
//! > IDE, which makes Eclipse hang. If the plugin has multiple deadlock
//! > bugs, each user has to encounter all these deadlocks for Dimmunix to
//! > be able to avoid them. Sharing the signatures of the deadlocks with
//! > users who just installed the plugin is useful; these users will not
//! > experience any deadlocks while using the plugin if all deadlocks
//! > have already been encountered by some users."
//!
//! Five early adopters each stumble on a different bug of a five-bug
//! plugin; the sixth developer installs it after one sync and hits none.
//!
//! Run with: `cargo run --release --example eclipse_plugin`

use communix::net::{Reply, Request};
use communix::workloads::MultiBugApp;
use communix::{CommunixNode, NodeConfig};

const BUGS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = communix::server::builder().build()?;
    // The plugin: five independent lock-order inversions, each behind a
    // 3-deep call chain (five distinct "features" that can hang the IDE).
    let plugin = MultiBugApp::new(BUGS, 3);

    // ------------------------------------------------------------------
    // Week 1: five early adopters each use a different feature — and
    // each hits that feature's deadlock. Every crash is shared.
    // ------------------------------------------------------------------
    println!("== week 1: early adopters ==");
    for user in 0..BUGS {
        let mut node =
            CommunixNode::new(plugin.program().clone(), NodeConfig::for_user(user as u64));
        let srv = server.clone();
        let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
        node.obtain_id(&mut conn)?;
        // Each adopter first downloads what earlier adopters found…
        node.sync(&mut conn)?;
        node.startup();
        node.shutdown();
        node.startup();

        // …then exercises their favourite feature.
        let outcome = node.run(&plugin.deadlock_specs(user));
        let uploaded = node.upload_pending(&mut conn)?;
        println!(
            "user {user}: feature {user} -> {} deadlock(s); uploaded {uploaded}; server now holds {}",
            outcome.deadlocks.len(),
            server.db().len()
        );
        assert_eq!(outcome.deadlocks.len(), 1, "each bug manifests once");
    }
    assert_eq!(server.db().len(), BUGS);

    // ------------------------------------------------------------------
    // Week 2: a developer installs the plugin. One overnight sync later
    // they use every feature — no hangs, though they never saw a single
    // deadlock themselves.
    // ------------------------------------------------------------------
    println!("\n== week 2: fresh install ==");
    let mut dev = CommunixNode::new(plugin.program().clone(), NodeConfig::for_user(99));
    let srv = server.clone();
    let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    let got = dev.sync(&mut conn)?;
    println!("dev   : synced {got} signatures from the community");
    dev.startup();
    dev.shutdown(); // first-run nesting analysis validates them all
    dev.startup();
    assert_eq!(dev.history().len(), BUGS);

    for feature in 0..BUGS {
        let outcome = dev.run(&plugin.deadlock_specs(feature));
        println!(
            "dev   : feature {feature} -> {} deadlock(s), finished: {} (suspensions: {})",
            outcome.deadlocks.len(),
            outcome.all_finished(),
            outcome.stats.suspensions
        );
        assert!(outcome.deadlocks.is_empty());
        assert!(outcome.all_finished());
    }

    // ------------------------------------------------------------------
    // Contrast: without Communix the same developer would have had to
    // experience all five deadlocks personally (§IV-C: t·Nd vs t·Nd/Nu).
    // ------------------------------------------------------------------
    let mut loner = CommunixNode::new(plugin.program().clone(), NodeConfig::for_user(100));
    loner.startup();
    let mut hits = 0;
    for feature in 0..BUGS {
        hits += loner.run(&plugin.deadlock_specs(feature)).deadlocks.len();
    }
    println!("\nwithout Communix, a lone user hits {hits} deadlocks before full immunity;");
    println!("with Communix the community absorbed all {BUGS}, and new installs hit none.");
    assert_eq!(hits, BUGS);
    Ok(())
}
