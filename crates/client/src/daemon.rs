//! The Communix client daemon.
//!
//! "The Communix client runs as a background process, decoupled from the
//! agent. Without this decoupling, the Communix agent would have to
//! connect to the server and retrieve new deadlock signatures every time
//! a Java application starts." (§III-B)
//!
//! "The local repository is updated once a day; a high frequency (e.g.,
//! once a minute) would overload the Communix server." (§III-B)

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use crate::repo::LocalRepository;
use crate::sync::{sync_delta, Connector, SyncError};

/// Statistics of a running daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Sync rounds attempted.
    pub rounds: u64,
    /// Signatures downloaded in total.
    pub downloaded: u64,
    /// Rounds that failed (server unreachable etc.); the daemon retries
    /// on the next period.
    pub failures: u64,
    /// Connections dialed: `1` once the first dial succeeds, one more
    /// for every redial after a transport failure.
    pub reconnects: u64,
}

/// A background thread that periodically syncs a repository.
#[derive(Debug)]
pub struct ClientDaemon {
    stop: Sender<()>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<Mutex<DaemonStats>>,
}

impl ClientDaemon {
    /// The paper's refresh period.
    pub const DEFAULT_PERIOD: Duration = Duration::from_secs(24 * 60 * 60);

    /// Spawns a daemon that syncs `repo` every `period` through
    /// [`sync_delta`], each reply window closed by the server's byte
    /// budget. The first round runs immediately.
    ///
    /// `dial` opens a connection to the server. The daemon calls it on
    /// first use and again on the next round whenever a sync fails with
    /// a transport error — which is exactly what a durable-server
    /// restart looks like from here (dead connection, recovered store;
    /// [`sync_delta`] re-reads a server that lost its log). Failed rounds
    /// count in [`DaemonStats::failures`]; successful dials in
    /// [`DaemonStats::reconnects`].
    pub fn spawn<D, C>(
        mut dial: D,
        repo: Arc<Mutex<LocalRepository>>,
        period: Duration,
    ) -> ClientDaemon
    where
        D: FnMut() -> Result<C, SyncError> + Send + 'static,
        C: Connector,
    {
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let stats = Arc::new(Mutex::new(DaemonStats::default()));
        let stats2 = stats.clone();
        let handle = std::thread::spawn(move || {
            let mut session: Option<C> = None;
            loop {
                stats2.lock().rounds += 1;
                // Dial with no lock held: against an unreachable server
                // this takes a whole connect timeout, and an agent
                // reading the repository at application start must not
                // wait for it (the decoupling of §III-B).
                if session.is_none() {
                    match dial() {
                        Ok(s) => {
                            session = Some(s);
                            stats2.lock().reconnects += 1;
                        }
                        Err(_) => stats2.lock().failures += 1,
                    }
                }
                if let Some(s) = session.as_mut() {
                    let synced = sync_delta(s, &mut repo.lock(), 0);
                    let mut stats = stats2.lock();
                    match synced {
                        Ok(n) => stats.downloaded += n as u64,
                        Err(e) => {
                            stats.failures += 1;
                            if matches!(e, SyncError::Transport(_)) {
                                // Dead socket: drop it and redial on
                                // the next round.
                                session = None;
                            }
                        }
                    }
                }
                // Sleep until the next period or until stopped.
                match stop_rx.recv_timeout(period) {
                    Ok(()) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                }
            }
        });
        ClientDaemon {
            stop: stop_tx,
            handle: Some(handle),
            stats,
        }
    }

    /// Snapshot of the daemon's counters.
    pub fn stats(&self) -> DaemonStats {
        *self.stats.lock()
    }

    /// Stops the daemon and joins its thread. Idempotent.
    pub fn shutdown(&mut self) {
        let _ = self.stop.try_send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClientDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_net::{Reply, Request};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    #[test]
    fn daemon_syncs_through_get_delta_immediately_and_periodically() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let conn = move |req: Request| -> Result<Reply, String> {
            let n = calls2.fetch_add(1, Ordering::SeqCst);
            match req {
                Request::GetDelta { from, .. } => Ok(Reply::Delta {
                    from,
                    total: from + 2,
                    // Two new signatures per round, in one window.
                    sigs: vec![format!("a{n}"), format!("b{n}")],
                }),
                other => Err(format!("daemon must use GET_DELTA, sent {other:?}")),
            }
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(
            move || Ok(conn.clone()),
            repo.clone(),
            Duration::from_millis(10),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while calls.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert!(stats.rounds >= 3, "rounds={}", stats.rounds);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.reconnects, 1, "a healthy connection is dialed once");
        assert_eq!(stats.downloaded, 2 * stats.rounds);
        assert_eq!(repo.lock().len() as u64, stats.downloaded);
    }

    #[test]
    fn daemon_redials_after_transport_failures() {
        // Session k fails its (k+1)-th call with a transport error; the
        // daemon must dial a fresh session and keep downloading.
        let dials = Arc::new(AtomicU64::new(0));
        let dials2 = dials.clone();
        let dial = move || {
            let dial = dials2.fetch_add(1, Ordering::SeqCst);
            let mut calls_left = dial + 1;
            Ok(move |req: Request| -> Result<Reply, String> {
                if calls_left == 0 {
                    return Err("connection reset".into());
                }
                calls_left -= 1;
                match req {
                    Request::GetDelta { from, .. } => Ok(Reply::Delta {
                        from,
                        total: from + 1,
                        sigs: vec![format!("sig-{from}")],
                    }),
                    other => Err(format!("unexpected {other:?}")),
                }
            })
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(dial, repo.clone(), Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dials.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert!(stats.reconnects >= 3, "reconnects={}", stats.reconnects);
        assert!(stats.failures >= 2, "failures={}", stats.failures);
        assert!(stats.downloaded >= 2, "downloaded={}", stats.downloaded);
        assert_eq!(repo.lock().len() as u64, stats.downloaded);
    }

    /// The session type a dial would yield, were it ever to succeed.
    type NeverSession = fn(Request) -> Result<Reply, String>;

    #[test]
    fn daemon_survives_failed_dials() {
        let attempts = Arc::new(AtomicU64::new(0));
        let attempts2 = attempts.clone();
        let dial = move || -> Result<NeverSession, SyncError> {
            attempts2.fetch_add(1, Ordering::SeqCst);
            Err(SyncError::Transport("connection refused".into()))
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(dial, repo, Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while attempts.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert_eq!(stats.reconnects, 0);
        assert!(stats.failures >= 3);
        assert_eq!(stats.downloaded, 0);
    }

    #[test]
    fn a_parked_dial_holds_neither_the_repository_nor_the_stats() {
        // A dial against an unreachable server: it reports that it was
        // entered, then parks until released (or until the test's end
        // of the channel is dropped), then fails.
        let (entered_tx, entered) = mpsc::channel::<()>();
        let (release_tx, released) = mpsc::channel::<()>();
        let dial = move || -> Result<NeverSession, SyncError> {
            let _ = entered_tx.send(());
            let _ = released.recv();
            Err(SyncError::Transport("connect timed out".into()))
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let daemon = ClientDaemon::spawn(dial, repo.clone(), Duration::from_millis(5));
        // Declared after the daemon, so dropped before it: a failed
        // assertion below un-parks the dial instead of hanging the join.
        let release = release_tx;
        let wait = Duration::from_secs(5);
        entered.recv_timeout(wait).expect("first dial");

        assert!(
            repo.try_lock().is_some(),
            "an agent must be able to read the repository during a dial"
        );
        let seen = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let daemon = &daemon;
            scope.spawn(move || tx.send(daemon.stats()));
            let seen = rx.recv_timeout(Duration::from_secs(1));
            release.send(()).expect("dial is parked"); // fail the first dial
            seen
        });
        let seen = seen.expect("stats() must not wait for the dial");
        assert_eq!((seen.rounds, seen.failures), (1, 0));

        // The failure is counted, and the next round dials again.
        entered
            .recv_timeout(wait)
            .expect("redial on the next round");
        let stats = daemon.stats();
        assert_eq!((stats.rounds, stats.failures), (2, 1));
        assert_eq!(stats.reconnects, 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let conn = |req: Request| -> Result<Reply, String> {
            Err(format!("never reached within the period: {req:?}"))
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(move || Ok(conn), repo, Duration::from_secs(3600));
        daemon.shutdown();
        daemon.shutdown();
        drop(daemon);
    }
}
