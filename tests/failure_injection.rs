//! Integration: corrupted persistent state and hostile inputs must
//! degrade safely — a broken history or repository may cost protection,
//! never correctness.

use std::io::Write as _;
use std::sync::Arc;

use communix::client::LocalRepository;
use communix::clock::{VirtualClock, DAY};
use communix::dimmunix::Signature;
use communix::net::{record, Reply, Request};
use communix::server::CommunixServer;
use communix::workloads::{DeadlockApp, ManifestationApp, SigGen};
use communix::{CommunixNode, NodeConfig};

/// A fresh server on a virtual clock.
fn server() -> Arc<CommunixServer> {
    communix::server::builder()
        .clock(Arc::new(VirtualClock::new()))
        .build()
        .unwrap()
}

/// Uploads `node`'s pending signatures to a fresh server and returns the
/// texts its `ADD_BATCH` carried.
fn upload_to_fresh_server(node: &mut CommunixNode) -> Vec<String> {
    let srv = server();
    let mut sent = Vec::new();
    let mut conn = |req: Request| -> Result<Reply, String> {
        if let Request::AddBatch { adds } = &req {
            sent.extend(adds.iter().map(|a| a.sig_text.clone()));
        }
        Ok(srv.handle(req))
    };
    node.obtain_id(&mut conn).unwrap();
    node.upload_pending(&mut conn).unwrap();
    sent
}

/// What the plugin sends for `sigs`.
fn as_uploaded(node: &CommunixNode, sigs: &[Signature]) -> Vec<String> {
    sigs.iter()
        .map(|sig| node.plugin().attach_hashes(sig).to_string())
        .collect()
}

#[test]
fn a_killed_node_loses_no_detection() {
    // A deadlocked application ends by being killed: the node neither
    // shuts down nor drops. What `run` detected is in the repository log
    // by the time it returns.
    let app = DeadlockApp::new(4);
    let dir = std::env::temp_dir().join(format!("communix-fi-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let repo = LocalRepository::open(&dir).unwrap();
        CommunixNode::with_repo(app.program().clone(), NodeConfig::for_user(3), repo)
    };

    let mut node = open();
    node.startup();
    let detected = node.run(&app.deadlock_specs()).deadlocks;
    assert_eq!(detected.len(), 1);
    std::mem::forget(node);

    let mut node = open();
    assert_eq!(node.history().len(), 1, "the detection survives the kill");
    assert_eq!(node.history().signatures(), detected);
    let sent = upload_to_fresh_server(&mut node);
    assert_eq!(sent, as_uploaded(&node, &detected), "exactly the detection");
    drop(node);
    assert!(open().pending_uploads().is_empty(), "the upload was logged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Cuts a node's log — a downloaded signature, the agent's deferral, two
/// detections with an upload between them, and the re-check's admission
/// — at every record boundary and inside every record: each reopen folds
/// to the live history after the operations the prefix holds, and
/// uploads exactly the detections past its last upload count.
#[test]
fn every_node_log_crash_prefix_reopens_to_a_prefix_of_the_live_history() {
    let app = ManifestationApp::new(3, 3);
    let dir = std::env::temp_dir().join(format!("communix-fi-node-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("repository.log");
    let open = || {
        let repo = LocalRepository::open(&dir).unwrap();
        CommunixNode::with_repo(app.program().clone(), NodeConfig::for_user(3), repo)
    };

    // A peer shares the bug's manifestation via path 1.
    let srv = server();
    let mut conn = |req: Request| -> Result<Reply, String> { Ok(srv.handle(req)) };
    let mut peer = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
    peer.obtain_id(&mut conn).unwrap();
    peer.startup();
    peer.run(&app.deadlock_specs(1));
    peer.upload_pending(&mut conn).unwrap();

    // The live node, and each history it passes through.
    let mut lives = vec![Vec::new()];
    let mut detections = Vec::new();
    {
        let mut node = open();
        node.obtain_id(&mut conn).unwrap();
        assert_eq!(node.sync(&mut conn).unwrap(), 1);
        assert_eq!(node.startup().deferred, 1, "no nesting analysis yet");
        for path in [0, 2] {
            detections.extend(node.run(&app.deadlock_specs(path)).deadlocks);
            lives.push(node.history().signatures().to_vec());
            if path == 0 {
                assert_eq!(node.upload_pending(&mut conn).unwrap(), 1);
            }
        }
        assert_eq!(node.shutdown().recheck_accepted, 1);
        lives.push(node.history().signatures().to_vec());
    }
    assert_eq!(detections.len(), 2);
    let sizes: Vec<usize> = lives.iter().map(Vec::len).collect();
    assert_eq!(sizes, [0, 1, 2, 2], "the admission generalized a detection");

    let written = std::fs::read(&path).unwrap();
    let mut records = Vec::new();
    let mut end = 8;
    record::replay(&written[8..], |payload| {
        end += 8 + payload.len();
        records.push((end, payload.to_owned()));
    });
    let kinds: String = records.iter().map(|(_, p)| &p[..1]).collect();
    assert_eq!(kinds, "sclclac");

    let mut cuts = vec![8];
    for (end, _) in &records {
        let start = cuts[cuts.len() - 1];
        cuts.extend([(start + end) / 2, *end]);
    }
    for cut in cuts {
        std::fs::write(&path, &written[..cut]).unwrap();
        let replayed = records.iter().filter(|(end, _)| *end <= cut);
        let (mut ops, mut detected, mut uploaded) = (0, 0, 0);
        for (_, payload) in replayed {
            match &payload[..1] {
                "l" => (ops, detected) = (ops + 1, detected + 1),
                "a" => ops += 1,
                "c" => {
                    if let Some(n) = payload.lines().find_map(|l| l.strip_prefix("uploaded ")) {
                        uploaded = n.parse().unwrap();
                    }
                }
                _ => {}
            }
        }
        let mut node = open();
        assert_eq!(node.history().signatures(), lives[ops], "cut {cut}");
        let sent = upload_to_fresh_server(&mut node);
        let expect = as_uploaded(&node, &detections[uploaded..detected]);
        assert_eq!(sent, expect, "cut {cut}");
        drop(node);
        assert!(open().pending_uploads().is_empty(), "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_repository_contents_are_quarantined_by_the_agent() {
    // Garbage blocks in the repository are rejected one by one; valid
    // signatures around them still make it through.
    let app = DeadlockApp::new(4);

    // A real signature for this app, produced by an actual victim.
    let sig_text = {
        let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(0));
        victim.startup();
        victim.run(&app.deadlock_specs());
        let sig = victim.history().signatures()[0].clone();
        victim.plugin().attach_hashes(&sig).to_string()
    };

    let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    node.repo_mut()
        .append([
            "sig remote\nouter complete#garbage\nend".to_string(),
            sig_text,
            "not even close".to_string(),
        ])
        .unwrap();
    let report = node.startup();
    assert_eq!(report.inspected, 3);
    assert_eq!(report.rejected, 2);
    assert_eq!(report.deferred, 1, "the real one waits for nesting");
    node.shutdown();
    node.startup();
    assert_eq!(node.history().len(), 1, "the real signature survived");

    let o = node.run(&app.deadlock_specs());
    assert!(o.deadlocks.is_empty());
}

#[test]
fn repo_state_file_corruption_is_clamped() {
    let dir = std::env::temp_dir().join(format!("communix-fi-repo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    drop(LocalRepository::open(&dir).unwrap());
    // A state record pointing beyond the (empty) data plus junk retries.
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("repository.log"))
        .unwrap();
    log.write_all(&record::frame("ccursor 10\nretry 3 99 xyz\n"))
        .unwrap();
    let repo = LocalRepository::open(&dir).unwrap();
    assert_eq!(repo.len(), 0);
    assert_eq!(repo.uninspected_count(), 0);
    assert!(repo.nesting_retry_indices().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_clock_abuse_cannot_bank_budget() {
    // The rate limiter uses a trailing window: an attacker cannot "save
    // up" days of budget by staying silent.
    let clock = Arc::new(VirtualClock::new());
    let srv = communix::server::builder()
        .clock(clock.clone())
        .build()
        .unwrap();
    let id = srv.authority().issue(1);
    let mut gen = SigGen::new(7);

    // Silent for a week.
    clock.advance(7 * DAY);

    // Then a burst of 50: still only 10 accepted.
    let mut accepted = 0;
    for _ in 0..50 {
        let r = srv.handle(Request::Add {
            sender: id,
            sig_text: gen.random_signature().to_string(),
        });
        accepted += usize::from(matches!(r, Reply::AddAck { accepted: true, .. }));
    }
    assert_eq!(accepted, 10);

    // Half a day later the window still blocks…
    clock.advance(DAY / 2);
    let r = srv.handle(Request::Add {
        sender: id,
        sig_text: gen.random_signature().to_string(),
    });
    assert!(matches!(
        r,
        Reply::AddAck {
            accepted: false,
            ..
        }
    ));

    // …until a full day has passed since the burst.
    clock.advance(DAY / 2 + communix::clock::Duration::from_secs(1));
    let r = srv.handle(Request::Add {
        sender: id,
        sig_text: gen.random_signature().to_string(),
    });
    assert!(matches!(r, Reply::AddAck { accepted: true, .. }));
}

#[test]
fn malformed_wire_payloads_produce_errors_not_panics() {
    use bytes::BytesMut;
    use communix::net::{deframe, CodecError, MAX_FRAME};

    // Frame longer than the hard cap.
    let mut buf = BytesMut::new();
    buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
    buf.extend_from_slice(&[0u8; 8]);
    assert!(matches!(deframe(&mut buf), Err(CodecError::TooLarge(_))));

    // Unknown request tag.
    let garbage = bytes::Bytes::from_static(&[0x77, 1, 2, 3]);
    assert!(matches!(
        Request::decode(garbage),
        Err(CodecError::BadTag(0x77))
    ));

    // Truncated string field.
    let truncated = bytes::Bytes::from_static(&[0x01, 0, 0]);
    assert!(Request::decode(truncated).is_err());

    // Replies too.
    let garbage = bytes::Bytes::from_static(&[0x55]);
    assert!(Reply::decode(garbage).is_err());
}

#[test]
fn node_without_id_keeps_signatures_for_later() {
    // Losing the id (or never having obtained one) must not lose
    // locally discovered signatures.
    let app = DeadlockApp::new(4);
    let srv = communix::server::builder()
        .clock(Arc::new(VirtualClock::new()))
        .build()
        .unwrap();
    let mut node = CommunixNode::new(app.program().clone(), NodeConfig::for_user(5));
    node.startup();
    node.run(&app.deadlock_specs());

    let srv2 = srv.clone();
    let mut conn = move |req: Request| -> Result<Reply, String> { Ok(srv2.handle(req)) };
    assert!(node.upload_pending(&mut conn).is_err());
    assert_eq!(node.pending_uploads().len(), 1);

    // Once the id arrives, the queued signature goes out.
    node.obtain_id(&mut conn).unwrap();
    assert_eq!(node.upload_pending(&mut conn).unwrap(), 1);
    assert_eq!(srv.db().len(), 1);
}
