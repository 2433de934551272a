//! Integration: corrupted persistent state and hostile inputs must
//! degrade safely — a broken history or repository may cost protection,
//! never correctness.

use std::io::Write as _;
use std::sync::Arc;

use communix::client::LocalRepository;
use communix::clock::{VirtualClock, DAY};
use communix::dimmunix::{History, HistoryError};
use communix::net::{record, Reply, Request};
use communix::server::{CommunixServer, ServerConfig};
use communix::workloads::{DeadlockApp, SigGen};
use communix::{CommunixNode, NodeConfig};

#[test]
fn truncated_history_file_is_rejected_loudly() {
    let dir = std::env::temp_dir().join(format!("communix-fi-hist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("app.history");

    let mut h = History::new();
    h.add(SigGen::new(1).random_signature());
    h.save_to_path(&path).unwrap();

    // Chop the tail off: strict parsing must fail rather than silently
    // load half a history (silent loss would disable avoidance).
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 10]).unwrap();
    assert!(matches!(
        History::load_from_path(&path),
        Err(HistoryError::Parse(_))
    ));

    // A missing file, by contrast, is a legitimate first run.
    std::fs::remove_file(&path).unwrap();
    assert!(History::load_from_path(&path).unwrap().is_empty());
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
    let srv = CommunixServer::new(ServerConfig::default(), clock.clone());
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
    let srv = Arc::new(CommunixServer::new(
        ServerConfig::default(),
        Arc::new(VirtualClock::new()),
    ));
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
