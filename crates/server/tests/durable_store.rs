//! End-to-end facade tests for the durable store: a real server built
//! through [`communix_server::builder`], served over real TCP, driven
//! with the real client facade (`obtain_id` / `upload_batch` /
//! `sync_delta`). The unit suites in `store.rs` prove the WAL and
//! GC machinery; this suite proves the promises the *API*
//! makes — restart recovery, and a GC that drops a prefix of the log and
//! renumbers nothing — hold across the wire, and across a SIGKILL.

use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use communix_client::{
    obtain_id, sync_delta, upload_batch, LocalRepository, PipelinedConnector, SyncError,
};
use communix_server::DurabilityConfig;

/// A parseable, accepted signature; distinct `tag`s give signatures
/// with disjoint frames (no accidental adjacency-limit rejections).
fn sig(tag: u32) -> String {
    use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
    let deep = |base: u32| -> CallStack {
        (0..6)
            .map(|i| Frame::new(format!("app.C{tag}"), "f", base + i))
            .collect()
    };
    Signature::local(vec![
        SigEntry::new(deep(100), deep(500)),
        SigEntry::new(deep(200), deep(600)),
    ])
    .to_string()
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("communix-facade-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dial(addr: SocketAddr) -> PipelinedConnector {
    PipelinedConnector::connect(addr).expect("dial server")
}

fn upload(addr: SocketAddr, user: u64, texts: &[String]) {
    let mut session = dial(addr);
    let sender = obtain_id(&mut session, user).expect("issue id");
    let adds: Vec<_> = texts.iter().map(|t| (sender, t.clone())).collect();
    let results = upload_batch(&mut session, adds).expect("upload batch");
    for (r, t) in results.iter().zip(texts) {
        assert!(r.accepted, "server rejected {t:?}: {}", r.reason);
    }
}

#[test]
fn durable_server_recovers_over_tcp() {
    let dir = scratch_dir("recover");
    let texts: Vec<String> = (0..5).map(sig).collect();

    // First life: accept five signatures over TCP, sync a client.
    {
        let (server, mut tcp) = communix_server::builder()
            .daily_limit(1 << 20)
            .durability(DurabilityConfig::new(&dir))
            .serve("127.0.0.1:0")
            .expect("serve durable");
        upload(tcp.addr(), 1, &texts);
        let mut repo = LocalRepository::in_memory();
        let mut session = dial(tcp.addr());
        assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 5);
        server.store().sync().expect("durable before shutdown");
        tcp.shutdown();
    }

    // Second life, same directory: the log survives the restart and the
    // same client facade reads it back over a fresh connection.
    let (server, mut tcp) = communix_server::builder()
        .daily_limit(1 << 20)
        .durability(DurabilityConfig::new(&dir))
        .serve("127.0.0.1:0")
        .expect("restart durable");
    assert_eq!(server.store().recovery().wal_records, 5);
    let mut session = dial(tcp.addr());
    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 5);
    let have: HashSet<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    for t in &texts {
        assert!(have.contains(t.as_str()), "lost {t:?} across restart");
    }
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A signature of 1765 bytes, the size of a real one (`sig`'s shape with
/// a 66-byte class name), for tags below 10,000.
fn sized(tag: u32) -> String {
    use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
    let class = format!("app.C{tag:04}{}", "x".repeat(56));
    let deep = |base: u32| -> CallStack {
        (0..6)
            .map(|i| Frame::new(class.as_str(), "f", base + i))
            .collect()
    };
    Signature::local(vec![
        SigEntry::new(deep(100), deep(500)),
        SigEntry::new(deep(200), deep(600)),
    ])
    .to_string()
}

/// The GC counter: each pass that ran.
fn gc_runs(server: &communix_server::CommunixServer) -> u64 {
    server.telemetry().counter("store.gc.runs").get()
}

#[test]
fn gc_keeps_indices_so_a_synced_client_fetches_only_the_new_signature() {
    let dir = scratch_dir("skip-ahead");
    // Single-digit tags serialize to identical lengths, so the byte
    // math below is exact: a 7.5-signature cap lets seven signatures
    // in, and the eighth ADD trips the GC (which keeps the newest five
    // — ¾ of the cap).
    let len = sig(0).len() as u64;
    let mut config = DurabilityConfig::new(&dir);
    config.max_bytes = Some(len * 15 / 2);

    let (server, mut tcp) = communix_server::builder()
        .daily_limit(1 << 20)
        .durability(config)
        .serve("127.0.0.1:0")
        .expect("serve durable");

    upload(tcp.addr(), 1, &(0..7).map(sig).collect::<Vec<_>>());
    let mut repo = LocalRepository::in_memory();
    let mut session = dial(tcp.addr());
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 7);
    assert_eq!(repo.sync_cursor(), 7);

    // Overflow the byte cap: the store drops the oldest three from memory
    // and disk, and every survivor keeps its index.
    upload(tcp.addr(), 1, &[sig(7)]);
    assert_eq!(gc_runs(&server), 1, "eighth ADD should trip the GC");
    let served = server.db().get_from(0);
    assert_eq!(served.len(), 5, "GC keeps the newest ¾-cap of signatures");
    assert_eq!(server.db().base(), 3);
    assert_eq!(server.db().contains(&sig(7)), Some(7));

    // The synced client asks from its cursor, once, and is sent only the
    // eighth signature: nothing restarts.
    let before = server.stats();
    let n = sync_delta(&mut session, &mut repo, 0).expect("sync after the GC");
    assert_eq!(n, 1, "exactly the eighth signature is new to the client");
    assert_eq!(repo.sync_cursor(), 8);
    assert_eq!(server.stats().deltas - before.deltas, 1, "one window");
    assert_eq!(server.stats().sigs_served - before.sigs_served, 1);
    let have: HashSet<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    assert!(served.iter().all(|t| have.contains(t.as_str())));
    // Evicted signatures the client saw before the GC stay local.
    assert_eq!(repo.len(), 8);

    // Steady state: the next sync is an ordinary empty delta.
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 0);
    assert_eq!(repo.sync_cursor(), 8);

    // A text the GC evicted is new to the server again. The client, which
    // holds it, reads past it and stores nothing twice.
    upload(tcp.addr(), 2, &[sig(0)]);
    assert_eq!(server.db().contains(&sig(0)), Some(8));
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 0);
    assert_eq!((repo.len(), repo.sync_cursor()), (8, 9));
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable server capped at 1 MiB, 64 KiB segments, over TCP.
fn capped_server(
    dir: &Path,
) -> (
    Arc<communix_server::CommunixServer>,
    communix_net::TcpServer,
) {
    let mut config = DurabilityConfig::new(dir);
    config.max_bytes = Some(1 << 20);
    config.wal_segment_bytes = 64 << 10;
    communix_server::builder()
        .daily_limit(1 << 20)
        .durability(config)
        .serve("127.0.0.1:0")
        .expect("serve durable")
}

/// The live texts of `server` the repository does not hold.
fn lacking(server: &communix_server::CommunixServer, repo: &LocalRepository) -> usize {
    let have: HashSet<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    let live = server.db().get_from(0);
    live.iter().filter(|t| !have.contains(t.as_str())).count()
}

#[test]
fn a_client_behind_a_gc_that_regrew_past_its_cursor_lacks_nothing() {
    let dir = scratch_dir("regrew");
    let (server, mut tcp) = capped_server(&dir);
    let texts: Vec<String> = (0..2000).map(sized).collect();
    upload(tcp.addr(), 1, &texts[..500]);
    let mut repo = LocalRepository::in_memory();
    assert_eq!(
        sync_delta(&mut dial(tcp.addr()), &mut repo, 0).unwrap(),
        500
    );

    // GC runs at about the 600th ADD; the store regrows past 500 live
    // signatures before the client syncs again.
    let (mut next, mut gc_at) = (500, None);
    while gc_at.is_none() || server.store().len() <= 500 {
        upload(tcp.addr(), 1, &texts[next..next + 5]);
        next += 5;
        gc_at = gc_at.or((gc_runs(&server) > 0).then_some(next));
    }
    assert_eq!(gc_runs(&server), 1);
    let gc_at = gc_at.unwrap();
    assert!((580..600).contains(&gc_at), "GC at the {gc_at}th ADD");
    assert!(server.db().base() < 500, "the cursor is still live");

    sync_delta(&mut dial(tcp.addr()), &mut repo, 0).unwrap();
    assert_eq!(
        lacking(&server, &repo),
        0,
        "of {} live",
        server.store().len()
    );
    assert_eq!(repo.sync_cursor(), next);
    assert_eq!(repo.len(), next, "every signature once");
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn after_a_gc_a_synced_client_fetches_only_what_was_added() {
    let dir = scratch_dir("no-refetch");
    let (server, mut tcp) = capped_server(&dir);
    let texts: Vec<String> = (0..2000).map(sized).collect();
    // Fully synced, below the cap.
    upload(tcp.addr(), 1, &texts[..480]);
    let mut repo = LocalRepository::in_memory();
    let mut session = dial(tcp.addr());
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 480);
    assert_eq!(gc_runs(&server), 0);

    // 245 more, and one GC among them (at about the 587th).
    upload(tcp.addr(), 1, &texts[480..725]);
    assert_eq!(gc_runs(&server), 1);
    assert!(server.db().base() > 0);
    let before = server.stats().sigs_served;
    let kept = repo.len();
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 245);
    let fetched = server.stats().sigs_served - before;
    assert_eq!(fetched, 245, "the signatures added since the last sync");
    let bytes: usize = (kept..repo.len())
        .filter_map(|i| repo.sig(i))
        .map(str::len)
        .sum();
    assert_eq!(
        bytes,
        texts[480..725].iter().map(String::len).sum::<usize>()
    );
    assert!(bytes < 500_000, "{bytes} bytes fetched");
    assert_eq!(lacking(&server, &repo), 0);
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_that_paged_halfway_misses_nothing_after_a_restart() {
    // `GET_DELTA(from)` is the client's only cursor, so a restart must
    // number the log the way it was served: a repository that stopped
    // mid-log asks the rebuilt server for the rest by index. Each life
    // of the server is one trial: its first sync pages across a restart.
    const UPLOADERS: u32 = 4;
    const LIVES: u32 = 8;
    let dir = scratch_dir("paged-halfway");
    let serve = || {
        communix_server::builder()
            .daily_limit(1 << 20)
            .reactors(UPLOADERS as usize)
            .durability(DurabilityConfig::new(&dir))
            .serve("127.0.0.1:0")
            .expect("serve durable")
    };
    let mut repo = LocalRepository::in_memory();
    let mut acked: Vec<String> = Vec::new();

    for life in 0..LIVES {
        let (server, mut tcp) = serve();
        let addr = tcp.addr();
        let store = server.store();
        assert_eq!(
            store.len(),
            acked.len(),
            "life {life} recovered another log"
        );
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let uploaders: Vec<_> = (0..UPLOADERS)
                .map(|user| {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut session = dial(addr);
                        let sender = obtain_id(&mut session, user.into()).expect("issue id");
                        let mut acked = Vec::new();
                        // Bounded, so a failed assertion elsewhere cannot
                        // leave the scope joining an endless burst.
                        let first = user * 1_000_000 + life * 10_000;
                        for base in (first..first + 10_000).step_by(8) {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            let texts: Vec<String> = (base..base + 8).map(sig).collect();
                            let adds = texts.iter().map(|t| (sender, t.clone())).collect();
                            let results = upload_batch(&mut session, adds).expect("upload");
                            for (r, t) in results.iter().zip(texts) {
                                assert!(r.accepted, "server rejected {t:?}: {}", r.reason);
                                acked.push(t);
                            }
                        }
                        acked
                    })
                })
                .collect();
            // Page while the burst runs, then let it run on: the cursor
            // stops strictly inside the log, among concurrent adds.
            let wait_for = |len: usize| {
                let stalled = Instant::now() + Duration::from_secs(60);
                while store.len() < len {
                    assert!(Instant::now() < stalled, "burst stalled below {len}");
                    std::thread::yield_now();
                }
            };
            wait_for(acked.len() + 300);
            sync_delta(&mut dial(addr), &mut repo, 0).expect("sync mid-burst");
            wait_for(repo.sync_cursor() + 300);
            stop.store(true, Ordering::Release);
            for uploader in uploaders {
                acked.extend(uploader.join().expect("uploader"));
            }
        });
        let cursor = repo.sync_cursor();
        assert!(0 < cursor && cursor < acked.len(), "{cursor} not inside");
        store.sync().expect("durable before shutdown");
        tcp.shutdown();
    }

    let (server, mut tcp) = serve();
    sync_delta(&mut dial(tcp.addr()), &mut repo, 0).expect("sync after the last restart");
    assert_eq!(repo.sync_cursor(), server.store().len());
    // Exactly once: sorted `Vec`s, so a duplicate shows as well as a gap.
    let mut have: Vec<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    have.sort_unstable();
    acked.sort_unstable();
    let missing = acked
        .iter()
        .filter(|t| have.binary_search(&t.as_str()).is_err())
        .count();
    assert!(
        have.iter().eq(acked.iter()),
        "of {} acked texts the repository misses {missing} and holds {} twice",
        acked.len(),
        have.len() + missing - acked.len()
    );
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where the crash test's parent and child meet: named after the
/// *parent's* pid, which both sides know without being told.
fn crash_dir(parent_pid: u32) -> PathBuf {
    std::env::temp_dir().join(format!("communix-facade-crash-{parent_pid}"))
}

/// The child half of `acked_signatures_survive_sigkill_mid_burst`: this
/// test binary re-executed with `--ignored --exact`. Serves a durable
/// store on the parent's directory, reports `ADDR <addr>` on stdout and
/// parks until killed (a minute at most, should it be run by hand).
#[test]
#[ignore = "child process of acked_signatures_survive_sigkill_mid_burst"]
fn crash_child_serves_until_killed() {
    let (_server, tcp) = communix_server::builder()
        .daily_limit(1 << 20)
        .durability(DurabilityConfig::new(crash_dir(
            std::os::unix::process::parent_id(),
        )))
        .serve("127.0.0.1:0")
        .expect("serve durable");
    println!("ADDR {}", tcp.addr());
    std::thread::sleep(Duration::from_secs(60));
}

/// Everything a server recovered from `dir` serves over TCP, and the
/// `wal_records` its recovery reported.
fn recover_and_drain(dir: &Path) -> (HashSet<String>, u64) {
    let (server, mut tcp) = communix_server::builder()
        .daily_limit(1 << 20)
        .durability(DurabilityConfig::new(dir))
        .serve("127.0.0.1:0")
        .expect("restart on the crashed directory");
    let mut repo = LocalRepository::in_memory();
    sync_delta(&mut dial(tcp.addr()), &mut repo, 0).expect("sync_delta after recovery");
    tcp.shutdown();
    let report = server.store().recovery();
    let have = (0..repo.len())
        .filter_map(|i| repo.sig(i))
        .map(String::from)
        .collect();
    (have, report.wal_records)
}

#[test]
fn acked_signatures_survive_sigkill_mid_burst() {
    const KILL_AFTER: usize = 512;
    let dir = crash_dir(std::process::id());
    let _ = std::fs::remove_dir_all(&dir);

    // A real process to kill: the durable server in a child.
    let mut child = Command::new(std::env::current_exe().expect("test binary"))
        .args(["crash_child_serves_until_killed", "--exact", "--ignored"])
        .arg("--nocapture")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn durable server child");
    let addr: SocketAddr = BufReader::new(child.stdout.take().expect("child stdout"))
        .lines()
        .find_map(|line| {
            line.expect("child stdout")
                .strip_prefix("ADDR ")?
                .parse()
                .ok()
        })
        .expect("child reports its address");

    // The killer fires the moment it is armed; the burst below keeps
    // batches in flight until one of them hits the dead socket.
    let (arm, armed) = mpsc::channel::<()>();
    let killer = std::thread::spawn(move || {
        let _ = armed.recv();
        child.kill().expect("SIGKILL the child");
        child.wait().expect("reap the child");
    });
    let mut session = dial(addr);
    let sender = obtain_id(&mut session, 7).expect("issue sender id");
    let mut acked: Vec<String> = Vec::new();
    for batch in 0u32.. {
        let texts: Vec<String> = (0..32).map(|i| sig(batch * 32 + i)).collect();
        let adds = texts.iter().map(|t| (sender, t.clone())).collect();
        match upload_batch(&mut session, adds) {
            Ok(results) => {
                for (result, text) in results.iter().zip(texts) {
                    assert!(result.accepted, "{text:?}: {}", result.reason);
                    acked.push(text);
                }
                if acked.len() >= KILL_AFTER {
                    let _ = arm.send(());
                }
            }
            // The expected crash: the socket died under a batch.
            Err(SyncError::Transport(_)) => break,
            Err(other) => panic!("burst failed before the kill: {other}"),
        }
        assert!(batch < 1000, "server survived the kill implausibly long");
    }
    killer.join().expect("killer thread");
    assert!(acked.len() >= KILL_AFTER, "kill landed before it was armed");

    // Restart on the same directory: every acked signature is served.
    let (first, recovered) = recover_and_drain(&dir);
    let lost = acked.iter().filter(|t| !first.contains(*t)).count();
    assert_eq!(lost, 0, "{lost} of {} acked signatures lost", acked.len());
    assert!(
        recovered >= acked.len() as u64,
        "recovery reported {recovered} records for {} acked",
        acked.len()
    );
    // Recovery is idempotent: a second restart serves the same set.
    let (second, _) = recover_and_drain(&dir);
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}
