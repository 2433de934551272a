//! The paper's first motivating scenario (§I):
//!
//! > "The user opens a web page, and the browser deadlocks while
//! > rendering the content of the page, due to a Java applet. [...] Even
//! > the first occurrence of the deadlock may have severe consequences:
//! > the browser might be in the middle of some important operation,
//! > like purchasing an expensive product, or booking a flight.
//! > Therefore, a framework like Communix that prevents other users from
//! > encountering the deadlock in the first place is beneficial."
//!
//! One user's browser hits the applet deadlock mid-"purchase"; every
//! other user who merely keeps their Communix client syncing opens the
//! same page safely.
//!
//! Run with: `cargo run --release --example browser_applet`

use communix::net::{Reply, Request};
use communix::runtime::ThreadSpec;
use communix::workloads::ManifestationApp;
use communix::{CommunixNode, NodeConfig};

/// The applet's render/network inversion: the render thread locks the
/// DOM then the socket pool; the applet's worker does the opposite.
fn browser_page() -> ManifestationApp {
    // Three different pages embed the applet (three caller chains into
    // the same buggy locking), with a 3-deep shared rendering pipeline.
    ManifestationApp::new(3, 3)
}

fn open_page(browser: &mut CommunixNode, page: usize, app: &ManifestationApp) -> (usize, bool) {
    let specs: Vec<ThreadSpec> = app.deadlock_specs(page);
    let outcome = browser.run(&specs);
    (outcome.deadlocks.len(), outcome.all_finished())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = communix::server::builder().build()?;
    let app = browser_page();

    // -----------------------------------------------------------------
    // Alice opens the page mid-purchase. The browser hangs; Dimmunix
    // detects the deadlock and aborts the victim thread so the browser
    // can recover — and the Communix plugin shares the signature.
    // -----------------------------------------------------------------
    let mut alice = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let srv = server.clone();
    let mut alice_conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    alice.obtain_id(&mut alice_conn)?;
    alice.startup();

    let (deadlocks, _) = open_page(&mut alice, 0, &app);
    println!("alice : opened the page during checkout — {deadlocks} deadlock (purchase lost!)");
    assert_eq!(deadlocks, 1);

    let uploaded = alice.upload_pending(&mut alice_conn)?;
    println!("alice : Communix plugin uploaded {uploaded} signature automatically");

    // -----------------------------------------------------------------
    // Bob's machine syncs overnight (the client daemon's daily GET).
    // He has never seen this page. When he opens it — mid-flight-booking
    // — nothing bad happens.
    // -----------------------------------------------------------------
    let mut bob = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let srv = server.clone();
    let mut bob_conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    let n = bob.sync(&mut bob_conn)?;
    println!("bob   : overnight sync pulled {n} new signature(s)");

    bob.startup();
    bob.shutdown(); // first-run nesting analysis validates the signature
    bob.startup();
    assert_eq!(bob.history().len(), 1);

    let (deadlocks, finished) = open_page(&mut bob, 0, &app);
    println!(
        "bob   : opened the same page during a flight booking — {deadlocks} deadlocks, page rendered: {finished}"
    );
    assert_eq!(deadlocks, 0);
    assert!(finished);

    // -----------------------------------------------------------------
    // The applet deadlock has other manifestations (other pages embed
    // it through different code paths). Alice's signature alone does not
    // cover page 1 — Carol hits it there, and her signature generalizes
    // everyone's protection (§III-D).
    // -----------------------------------------------------------------
    let mut carol = CommunixNode::new(app.program().clone(), NodeConfig::for_user(3));
    let srv = server.clone();
    let mut carol_conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    carol.obtain_id(&mut carol_conn)?;
    carol.sync(&mut carol_conn)?;
    carol.startup();
    carol.shutdown();
    carol.startup();

    let (deadlocks, _) = open_page(&mut carol, 1, &app);
    println!(
        "carol : a *different* page embeds the applet — {deadlocks} deadlock (new manifestation)"
    );
    assert_eq!(deadlocks, 1, "alice's signature does not cover page 1");
    carol.upload_pending(&mut carol_conn)?;

    // Bob syncs again: the agent merges carol's manifestation with
    // alice's into one generalized signature covering page 2 as well —
    // a page nobody ever deadlocked on.
    bob.sync(&mut bob_conn)?;
    bob.startup();
    let (l, r) = (bob.history().len(), bob.repo().len());
    println!("bob   : now has {r} raw signatures, generalized into {l} history entr(y/ies)");
    assert_eq!(l, 1, "manifestations of one bug merge into one signature");

    let (deadlocks, finished) = open_page(&mut bob, 2, &app);
    println!(
        "bob   : opened page 3 (never deadlocked anywhere) — {deadlocks} deadlocks, rendered: {finished}"
    );
    assert_eq!(deadlocks, 0);
    assert!(finished);

    println!("\ncollective knowledge: two users' crashes now protect every page for everyone.");
    Ok(())
}
