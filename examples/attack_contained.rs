//! A malicious "helper" tries to poison the signature distribution
//! (§III-C, §IV-B) — and every layer of Communix's validation pushes
//! back:
//!
//! 1. the server refuses ADDs without a valid **encrypted sender id**;
//! 2. the server rejects **adjacent** signatures from the same sender;
//! 3. the server enforces the **10-per-day** budget per sender;
//! 4. the agent rejects signatures whose **hashes** don't match the
//!    application, whose outer stacks are **shallower than 5**, or whose
//!    outer lock statements are **not nested** synchronized sites;
//! 5. what little survives slows the application by at most the
//!    Table II worst case — and the **false-positive detector** flags
//!    signatures that keep suspending threads without ever being
//!    vindicated by a real deadlock.
//!
//! Run with: `cargo run --release --example attack_contained`

use communix::dimmunix::{SigEntry, Signature};
use communix::net::{Reply, Request};
use communix::server::CommunixServer;
use communix::workloads::{AttackDepth, AttackerFactory, DriverApp, RUBIS_JBOSS};
use communix::{CommunixNode, NodeConfig};

fn add(server: &CommunixServer, sender: [u8; 16], sig: &Signature) -> (bool, String) {
    match server.handle(Request::Add {
        sender,
        sig_text: sig.to_string(),
    }) {
        Reply::AddAck { accepted, reason } => (accepted, reason),
        other => panic!("unexpected reply {other:?}"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = communix::server::builder().build()?;
    let factory = AttackerFactory::new();

    // ------------------------------------------------------------------
    // Layer 1: forged sender ids bounce at the server.
    // ------------------------------------------------------------------
    println!("== server-side containment ==");
    let (ok, reason) = add(&server, [0xAA; 16], &factory.flood_signature(1, 0));
    println!("forged id        : accepted={ok} ({reason})");
    assert!(!ok);

    // ------------------------------------------------------------------
    // Layer 2: adjacent signatures from the same sender bounce.
    // ------------------------------------------------------------------
    let id = server.authority().issue(7);
    let base = factory.flood_signature(7, 0);
    let (ok, _) = add(&server, id, &base);
    assert!(ok, "the first signature goes through");
    let adjacent = factory.adjacent_flood_signature(7, 0);
    let (ok, reason) = add(&server, id, &adjacent);
    println!("adjacent sig     : accepted={ok} ({reason})");
    assert!(!ok);

    // ------------------------------------------------------------------
    // Layer 3: the daily budget (10/sender) absorbs floods.
    // ------------------------------------------------------------------
    let mut accepted = 1; // `base` above already consumed budget
    for k in 1..40u64 {
        let (ok, _) = add(&server, id, &factory.flood_signature(7, k));
        accepted += usize::from(ok);
    }
    println!("flood of 40      : {accepted} accepted (budget is 10/day)");
    assert!(accepted <= 10);

    // ------------------------------------------------------------------
    // Layer 4: the agent. A victim application syncs the attacker's
    // surviving signatures — none match its bytecode, so none enter the
    // history.
    // ------------------------------------------------------------------
    println!("\n== client-side containment ==");
    let app = DriverApp::build(&RUBIS_JBOSS);
    let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let srv = server.clone();
    let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    let downloaded = node.sync(&mut conn)?;
    node.startup();
    node.shutdown();
    node.startup();
    println!(
        "hash validation  : {downloaded} malicious sigs downloaded, {} entered the history",
        node.history().len()
    );
    assert_eq!(node.history().len(), 0);

    // Even an attacker who *knows the victim's binary* (correct hashes)
    // cannot get shallow signatures through: depth-1 stacks and
    // non-nested outer sites are rejected by the agent. Demonstrate via
    // the validator on crafted plausible signatures.
    use communix::agent::{SignatureValidator, ValidationError, ValidatorConfig};
    use communix::analysis::NestingAnalyzer;
    use communix::bytecode::LoweredProgram;
    let lowered = LoweredProgram::lower(app.program());
    let report = NestingAnalyzer::new(&lowered).analyze();
    let hashes: Vec<(String, communix::crypto::Digest)> = app
        .program()
        .hash_index()
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), v))
        .collect();
    let validator = SignatureValidator::new(hashes, Some(&report), ValidatorConfig::default());

    let hot = app.hot_sections();
    let attach = |stack: &communix::dimmunix::CallStack| -> communix::dimmunix::CallStack {
        let mut s = stack.clone();
        for f in s.frames_mut() {
            let class = f.site.class.as_ref();
            f.hash = Some(app.program().class(class).unwrap().bytecode_hash());
        }
        s
    };
    let shallow = Signature::remote(vec![
        SigEntry::new(attach(&hot[0].top_only_stack), attach(&hot[0].inner_stack)),
        SigEntry::new(attach(&hot[1].top_only_stack), attach(&hot[1].inner_stack)),
    ]);
    let verdict = validator.validate(&shallow);
    println!(
        "depth-1 attack   : {}",
        match &verdict {
            Err(ValidationError::OuterTooShallow { depth }) =>
                format!("rejected (outer depth {depth} < 5)"),
            other => format!("{other:?}"),
        }
    );
    assert!(matches!(
        verdict,
        Err(ValidationError::OuterTooShallow { .. })
    ));

    // Outer stacks ending at a NON-nested site (the inner block) bounce.
    let deep_but_wrong: communix::dimmunix::CallStack = {
        let mut frames: Vec<communix::dimmunix::Frame> = (0..4)
            .map(|i| {
                communix::dimmunix::Frame::with_hash(
                    hot[0].class.as_str(),
                    "svc",
                    900 + i,
                    app.program()
                        .class(hot[0].class.as_str())
                        .unwrap()
                        .bytecode_hash(),
                )
            })
            .collect();
        frames.extend(attach(&hot[0].inner_stack).frames().iter().cloned());
        frames.into_iter().collect()
    };
    let non_nested = Signature::remote(vec![
        SigEntry::new(deep_but_wrong.clone(), attach(&hot[0].inner_stack)),
        SigEntry::new(deep_but_wrong, attach(&hot[0].inner_stack)),
    ]);
    let verdict = validator.validate(&non_nested);
    println!(
        "non-nested outer : {}",
        match &verdict {
            Err(ValidationError::NotNested { site }) => format!("rejected ({site} is not nested)"),
            other => format!("{other:?}"),
        }
    );
    assert!(matches!(verdict, Err(ValidationError::NotNested { .. })));

    // ------------------------------------------------------------------
    // Layer 5: the worst validated attack costs Table II's bound, and
    // the false-positive detector eventually calls it out.
    // ------------------------------------------------------------------
    println!("\n== residual damage (the Table II bound) ==");
    let plan = factory.critical_path_attack(&hot, 20, AttackDepth::Five);
    let overhead = app.overhead_vs_vanilla(plan.as_history());
    println!(
        "20 validated critical-path signatures slow RUBiS/JBoss by {:.1}% (paper: ~40%)",
        overhead * 100.0
    );
    assert!(overhead < 1.0, "contained well below the depth-1 blowup");

    println!("\nevery layer held: the attacker bought at most a bounded slowdown.");
    Ok(())
}
