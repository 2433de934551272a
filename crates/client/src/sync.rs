//! Incremental synchronization with the Communix server.
//!
//! [`Connector`] abstracts "a way to reach the server": over TCP in real
//! deployments, or in-process for tests and the benchmark.
//!
//! A node syncs with the batched verbs: [`sync_delta`] downloads with
//! `GET_DELTA` and [`upload_batch`] uploads with `ADD_BATCH`, one round
//! trip per *sync* (the server windows oversized deltas, and the client
//! loops only when a window was cut short). The paper's one-signature
//! `GET`/`ADD` stay on the wire for older clients; a caller that wants
//! them sends the [`Request`] through [`Connector::call`] itself.

use std::fmt;

use communix_net::{AddResult, BatchAdd, EncryptedId, Reply, Request};

use crate::repo::LocalRepository;

/// Transport-agnostic request/reply channel to the server.
pub trait Connector {
    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::Transport`]-worthy failures as strings.
    fn call(&mut self, request: Request) -> Result<Reply, String>;
}

impl<F> Connector for F
where
    F: FnMut(Request) -> Result<Reply, String>,
{
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        self(request)
    }
}

/// Errors from a sync or upload operation.
#[derive(Debug)]
pub enum SyncError {
    /// The transport failed.
    Transport(String),
    /// The server replied with something unexpected.
    Protocol(String),
    /// Persisting the repository failed.
    Io(std::io::Error),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Transport(e) => write!(f, "transport failure: {e}"),
            SyncError::Protocol(e) => write!(f, "protocol violation: {e}"),
            SyncError::Io(e) => write!(f, "repository i/o failure: {e}"),
        }
    }
}

impl std::error::Error for SyncError {}

impl From<std::io::Error> for SyncError {
    fn from(e: std::io::Error) -> Self {
        SyncError::Io(e)
    }
}

/// Downloads everything the repository is missing through windowed
/// `GET_DELTA` requests: usually a single round trip, with follow-up
/// windows only when the server capped the reply. `max_per_round == 0`
/// defers the window size entirely to the server.
///
/// A byte-capped server evicts only a prefix of its log and renumbers
/// nothing, so a window starts at the cursor, or ahead of it when the
/// server evicted what the client had not fetched: the repository takes
/// the window's end as its cursor, in the same write. A window behind the
/// cursor is a protocol error. Each window is merged
/// ([`LocalRepository::merge`]): a text the repository held when the
/// sync began is not stored again, as when the server re-accepts one it
/// evicted.
///
/// A server that lost its log, or a suffix of it not yet fsynced, reports
/// a `total` below the cursor; the client re-reads it from index 0, once.
/// A second shrink in one sync is a protocol error. No GC causes one.
///
/// Returns the number of new signatures stored.
///
/// # Errors
///
/// Returns [`SyncError`] on transport, protocol, or persistence
/// failures. Fully received windows are kept: a failure mid-pagination
/// loses only the not-yet-requested tail, which the next sync fetches.
pub fn sync_delta(
    connector: &mut dyn Connector,
    repo: &mut LocalRepository,
    max_per_round: u32,
) -> Result<usize, SyncError> {
    let mut downloaded = 0;
    let mut from = repo.sync_cursor() as u64;
    let held = repo.len();
    let mut restarted = false;
    loop {
        let reply = connector
            .call(Request::GetDelta {
                from,
                max: max_per_round,
            })
            .map_err(SyncError::Transport)?;
        // An in-process connector hands over the server's reply as it is,
        // texts still shared with the store; take the decoded form.
        match reply.into_owned() {
            Reply::Delta {
                from: start,
                total,
                sigs,
            } => {
                if total < from {
                    // The server lost or replaced its log: re-read it.
                    if restarted {
                        return Err(SyncError::Protocol(format!(
                            "server total shrank twice in one sync (now {total} < {from})"
                        )));
                    }
                    restarted = true;
                    from = 0;
                    continue;
                }
                if start < from {
                    return Err(SyncError::Protocol(format!(
                        "asked for delta from index {from}, server answered from {start}"
                    )));
                }
                let got = sigs.len() as u64;
                if start + got > total {
                    return Err(SyncError::Protocol(format!(
                        "delta overruns the server's own total: {start} + {got} > {total}"
                    )));
                }
                // The window's end is the cursor, so a skipped gap stays so.
                from = start + got;
                downloaded += repo.merge_read(sigs, from as usize, held)?;
                if from >= total {
                    return Ok(downloaded);
                }
                if got == 0 {
                    return Err(SyncError::Protocol(format!(
                        "server reports {total} total but sent an empty window at {from}"
                    )));
                }
            }
            Reply::Error { message } => return Err(SyncError::Protocol(message)),
            other => {
                return Err(SyncError::Protocol(format!(
                    "unexpected reply to GET_DELTA: {other:?}"
                )))
            }
        }
    }
}

/// Uploads many signatures in one `ADD_BATCH` round trip. Each item
/// carries its own sender id and receives its own verdict, in order —
/// one rejected item never poisons the rest of the batch.
///
/// # Errors
///
/// Returns [`SyncError`] on transport or protocol failures, including a
/// server ack that does not match the batch item-for-item.
pub fn upload_batch(
    connector: &mut dyn Connector,
    adds: Vec<(EncryptedId, String)>,
) -> Result<Vec<AddResult>, SyncError> {
    let sent = adds.len();
    let reply = connector
        .call(Request::AddBatch {
            adds: adds
                .into_iter()
                .map(|(sender, sig_text)| BatchAdd { sender, sig_text })
                .collect(),
        })
        .map_err(SyncError::Transport)?;
    match reply {
        Reply::BatchAck { results } => {
            if results.len() != sent {
                return Err(SyncError::Protocol(format!(
                    "sent a batch of {sent}, server acked {}",
                    results.len()
                )));
            }
            Ok(results)
        }
        Reply::Error { message } => Err(SyncError::Protocol(message)),
        other => Err(SyncError::Protocol(format!(
            "unexpected reply to ADD_BATCH: {other:?}"
        ))),
    }
}

/// Requests an encrypted id for `user` from the server's id authority.
///
/// # Errors
///
/// Returns [`SyncError`] on transport or protocol failures.
pub fn obtain_id(connector: &mut dyn Connector, user: u64) -> Result<EncryptedId, SyncError> {
    let reply = connector
        .call(Request::IssueId { user })
        .map_err(SyncError::Transport)?;
    match reply {
        Reply::Id { id } => Ok(id),
        Reply::Error { message } => Err(SyncError::Protocol(message)),
        other => Err(SyncError::Protocol(format!(
            "unexpected reply to ISSUE_ID: {other:?}"
        ))),
    }
}

/// Asks the server for its telemetry snapshot (`STATS`), returning the
/// snapshot as a JSON string — counters, connection gauges, and
/// per-opcode latency histograms, as rendered by the server's registry.
///
/// # Errors
///
/// Returns [`SyncError`] on transport or protocol failures (including
/// pre-`STATS` servers that answer with an error reply).
pub fn fetch_stats(connector: &mut dyn Connector) -> Result<String, SyncError> {
    let reply = connector
        .call(Request::Stats)
        .map_err(SyncError::Transport)?;
    match reply {
        Reply::Stats { json } => Ok(json),
        Reply::Error { message } => Err(SyncError::Protocol(message)),
        other => Err(SyncError::Protocol(format!(
            "unexpected reply to STATS: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted fake server.
    struct Script(Vec<Reply>);

    impl Connector for Script {
        fn call(&mut self, _request: Request) -> Result<Reply, String> {
            if self.0.is_empty() {
                Err("no more scripted replies".into())
            } else {
                Ok(self.0.remove(0))
            }
        }
    }

    #[test]
    fn sync_delta_asks_from_the_sync_cursor() {
        let mut repo = LocalRepository::in_memory();
        repo.append(["a".into(), "b".into()]).unwrap();
        let mut asked = None;
        let mut conn = |req: Request| -> Result<Reply, String> {
            if let Request::GetDelta { from, .. } = req {
                asked = Some(from);
            }
            Ok(Reply::Delta {
                from: 2,
                total: 2,
                sigs: vec![],
            })
        };
        let n = sync_delta(&mut conn, &mut repo, 0).unwrap();
        assert_eq!(n, 0);
        assert_eq!(asked, Some(2));
    }

    #[test]
    fn sync_delta_transport_failure_propagates() {
        let mut repo = LocalRepository::in_memory();
        let mut conn = Script(vec![]);
        assert!(matches!(
            sync_delta(&mut conn, &mut repo, 0),
            Err(SyncError::Transport(_))
        ));
    }

    #[test]
    fn sync_delta_unexpected_reply_is_protocol_error() {
        // The answer to a paper `GET` is not an answer to `GET_DELTA`.
        let mut repo = LocalRepository::in_memory();
        let mut conn = Script(vec![Reply::Sigs {
            from: 0,
            sigs: vec!["s1".into()],
        }]);
        assert!(matches!(
            sync_delta(&mut conn, &mut repo, 0),
            Err(SyncError::Protocol(_))
        ));
        assert_eq!(repo.len(), 0);
    }

    #[test]
    fn sync_delta_single_round_trip_when_window_fits() {
        let mut repo = LocalRepository::in_memory();
        let mut calls = 0;
        let mut conn = |req: Request| -> Result<Reply, String> {
            calls += 1;
            match req {
                Request::GetDelta { from, .. } => {
                    assert_eq!(from, 0);
                    Ok(Reply::Delta {
                        from,
                        total: 3,
                        sigs: vec!["a".into(), "b".into(), "c".into()],
                    })
                }
                other => Err(format!("unexpected {other:?}")),
            }
        };
        let n = sync_delta(&mut conn, &mut repo, 0).unwrap();
        assert_eq!(n, 3);
        assert_eq!(repo.len(), 3);
        assert_eq!(calls, 1, "everything fits: one round trip");
    }

    #[test]
    fn sync_delta_paginates_capped_windows() {
        let mut repo = LocalRepository::in_memory();
        let server: Vec<String> = (0..7).map(|i| format!("s{i}")).collect();
        let mut calls = 0;
        let mut conn = |req: Request| -> Result<Reply, String> {
            calls += 1;
            match req {
                Request::GetDelta { from, max } => {
                    let from = from as usize;
                    let to = (from + max as usize).min(server.len());
                    Ok(Reply::Delta {
                        from: from as u64,
                        total: server.len() as u64,
                        sigs: server[from..to].to_vec(),
                    })
                }
                other => Err(format!("unexpected {other:?}")),
            }
        };
        let n = sync_delta(&mut conn, &mut repo, 3).unwrap();
        assert_eq!(n, 7);
        assert_eq!(calls, 3, "7 signatures in windows of 3");
        assert_eq!(repo.sig(6), Some("s6"));
    }

    #[test]
    fn sync_delta_rejects_stalled_server() {
        // A server that reports more signatures than it ships must not
        // spin the client forever.
        let mut repo = LocalRepository::in_memory();
        let mut conn = |_req: Request| -> Result<Reply, String> {
            Ok(Reply::Delta {
                from: 0,
                total: 5,
                sigs: vec![],
            })
        };
        assert!(matches!(
            sync_delta(&mut conn, &mut repo, 0),
            Err(SyncError::Protocol(_))
        ));
    }

    #[test]
    fn sync_delta_rejects_overrunning_window() {
        let mut repo = LocalRepository::in_memory();
        let mut conn = Script(vec![Reply::Delta {
            from: 0,
            total: 1,
            sigs: vec!["a".into(), "b".into()],
        }]);
        assert!(matches!(
            sync_delta(&mut conn, &mut repo, 0),
            Err(SyncError::Protocol(_))
        ));
        assert_eq!(repo.len(), 0);
    }

    #[test]
    fn sync_delta_mismatched_from_is_protocol_error() {
        // A window that starts behind the cursor would store what the
        // repository holds again.
        let mut repo = LocalRepository::in_memory();
        repo.append(["a".into(), "b".into(), "c".into(), "d".into()])
            .unwrap();
        let mut conn = Script(vec![Reply::Delta {
            from: 2,
            total: 6,
            sigs: vec!["c".into(), "d".into()],
        }]);
        assert!(matches!(
            sync_delta(&mut conn, &mut repo, 0),
            Err(SyncError::Protocol(_))
        ));
        assert_eq!((repo.len(), repo.sync_cursor()), (4, 4));
    }

    #[test]
    fn sync_delta_takes_a_window_that_starts_ahead_of_its_cursor() {
        // The client synced 2 signatures; the server's GC has since
        // evicted up to index 5, so a window asked from 2 starts at 5.
        let mut repo = LocalRepository::in_memory();
        repo.append(["a".into(), "b".into()]).unwrap();
        let log: Vec<String> = (0..8).map(|i| format!("s{i}")).collect();
        let asked = std::cell::RefCell::new(Vec::new());
        let mut conn = |req: Request| -> Result<Reply, String> {
            let Request::GetDelta { from, max } = req else {
                return Err(format!("unexpected {req:?}"));
            };
            asked.borrow_mut().push(from);
            let start = from.max(5) as usize;
            let end = (start + max as usize).min(log.len());
            Ok(Reply::Delta {
                from: start as u64,
                total: log.len() as u64,
                sigs: log[start..end].to_vec(),
            })
        };
        assert_eq!(sync_delta(&mut conn, &mut repo, 2).unwrap(), 3);
        assert_eq!(*asked.borrow(), [2, 7], "no restart, no re-read");
        assert_eq!(repo.sync_cursor(), 8);
        assert_eq!(repo.len(), 5);
        assert_eq!(repo.sig(2), Some("s5"), "the gap is skipped");
        // The next sync asks from the server's index, not the local count.
        assert_eq!(sync_delta(&mut conn, &mut repo, 2).unwrap(), 0);
        assert_eq!(*asked.borrow(), [2, 7, 8]);
    }

    #[test]
    fn sync_delta_restarts_once_when_the_server_lost_its_log() {
        // The client synced 4 signatures, then the server lost its log
        // and now serves 2: one the client already holds, one genuinely
        // new.
        let mut repo = LocalRepository::in_memory();
        repo.append(["a".into(), "b".into(), "c".into(), "d".into()])
            .unwrap();
        let served: Vec<String> = vec!["c".into(), "new".into()];
        let mut asked = Vec::new();
        let mut conn = |req: Request| -> Result<Reply, String> {
            match req {
                Request::GetDelta { from, .. } => {
                    asked.push(from);
                    let start = (from as usize).min(served.len());
                    Ok(Reply::Delta {
                        from,
                        total: served.len() as u64,
                        sigs: served[start..].to_vec(),
                    })
                }
                other => Err(format!("unexpected {other:?}")),
            }
        };
        let n = sync_delta(&mut conn, &mut repo, 0).unwrap();
        assert_eq!(asked, vec![4, 0], "shrink at 4, then restart from 0");
        assert_eq!(n, 1, "only the genuinely new signature counts");
        assert_eq!(repo.len(), 5, "merge kept local copies and indices");
        assert_eq!(repo.sig(4), Some("new"));
        assert_eq!(
            repo.sync_cursor(),
            2,
            "cursor now tracks the server's new log, not local len"
        );
        // The next sync resumes from that cursor — no second restart, no
        // re-reading the world.
        let mut conn2 = |req: Request| -> Result<Reply, String> {
            match req {
                Request::GetDelta { from, .. } => {
                    assert_eq!(from, 2);
                    Ok(Reply::Delta {
                        from,
                        total: 2,
                        sigs: vec![],
                    })
                }
                other => Err(format!("unexpected {other:?}")),
            }
        };
        assert_eq!(sync_delta(&mut conn2, &mut repo, 0).unwrap(), 0);
    }

    #[test]
    fn sync_delta_one_shrink_per_sync_converges() {
        let mut repo = LocalRepository::in_memory();
        repo.append(["a".into(), "b".into()]).unwrap();
        // One lost log per sync is the expected shape; each sync
        // resolves its shrink with a single restart and converges.
        let mut conn = Script(vec![
            Reply::Delta {
                from: 2,
                total: 1,
                sigs: vec![],
            },
            Reply::Delta {
                from: 0,
                total: 1,
                sigs: vec!["x".into()],
            },
        ]);
        // First shrink (1 < 2) restarts from 0; the re-read log is
        // consumed normally.
        assert_eq!(sync_delta(&mut conn, &mut repo, 0).unwrap(), 1);
        assert_eq!(repo.sync_cursor(), 1);
        // A later sync that finds the server shrunk to empty restarts
        // and finishes cleanly with nothing to fetch.
        let mut conn = Script(vec![
            Reply::Delta {
                from: 1,
                total: 0,
                sigs: vec![],
            },
            Reply::Delta {
                from: 0,
                total: 0,
                sigs: vec![],
            },
        ]);
        // total 0 < from 1 → restart; from 0, total 0 → clean empty sync.
        assert_eq!(sync_delta(&mut conn, &mut repo, 0).unwrap(), 0);
        assert_eq!(repo.sync_cursor(), 0);
    }

    #[test]
    fn sync_delta_double_shrink_is_protocol_error() {
        let mut repo = LocalRepository::in_memory();
        repo.set_sync_cursor(5).unwrap();
        // Shrink at 5 → restart at 0; mid-replay the total shrinks
        // *again* below the advancing cursor (a server losing its log
        // over and over). The client
        // must bail instead of restarting forever.
        let mut conn = Script(vec![
            Reply::Delta {
                from: 5,
                total: 2,
                sigs: vec![],
            },
            Reply::Delta {
                from: 0,
                total: 5,
                sigs: vec!["x".into(), "y".into(), "z".into()],
            },
            Reply::Delta {
                from: 3,
                total: 2,
                sigs: vec![],
            },
        ]);
        let err = sync_delta(&mut conn, &mut repo, 0).unwrap_err();
        assert!(
            matches!(&err, SyncError::Protocol(m) if m.contains("shrank twice")),
            "got {err}"
        );
        // The fully received replay window was kept (crash-only design:
        // progress survives, only the tail is lost).
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.sync_cursor(), 3);
    }

    #[test]
    fn upload_batch_roundtrip_preserves_order() {
        let mut conn = |req: Request| -> Result<Reply, String> {
            match req {
                Request::AddBatch { adds } => Ok(Reply::BatchAck {
                    results: adds
                        .iter()
                        .map(|a| AddResult {
                            accepted: a.sender != [0u8; 16],
                            reason: if a.sender == [0u8; 16] {
                                "invalid encrypted sender id".into()
                            } else {
                                String::new()
                            },
                        })
                        .collect(),
                }),
                other => Err(format!("unexpected {other:?}")),
            }
        };
        let results = upload_batch(
            &mut conn,
            vec![
                ([1u8; 16], "sig-a".into()),
                ([0u8; 16], "sig-b".into()),
                ([2u8; 16], "sig-c".into()),
            ],
        )
        .unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].accepted);
        assert!(!results[1].accepted);
        assert!(results[2].accepted);
    }

    #[test]
    fn upload_batch_length_mismatch_is_protocol_error() {
        let mut conn = Script(vec![Reply::BatchAck {
            results: vec![AddResult {
                accepted: true,
                reason: String::new(),
            }],
        }]);
        assert!(matches!(
            upload_batch(
                &mut conn,
                vec![([1u8; 16], "a".into()), ([1u8; 16], "b".into())]
            ),
            Err(SyncError::Protocol(_))
        ));
    }

    #[test]
    fn empty_upload_batch_roundtrips() {
        let mut conn = Script(vec![Reply::BatchAck {
            results: Vec::new(),
        }]);
        assert_eq!(upload_batch(&mut conn, Vec::new()).unwrap().len(), 0);
    }

    #[test]
    fn upload_batch_carries_the_servers_reason() {
        let mut conn = Script(vec![Reply::BatchAck {
            results: vec![AddResult {
                accepted: false,
                reason: "adjacent signature from same sender".into(),
            }],
        }]);
        let results = upload_batch(&mut conn, vec![([0u8; 16], "sig".into())]).unwrap();
        assert!(!results[0].accepted);
        assert!(results[0].reason.contains("adjacent"));
    }

    #[test]
    fn obtain_id_roundtrip() {
        let mut conn = Script(vec![Reply::Id { id: [3u8; 16] }]);
        assert_eq!(obtain_id(&mut conn, 7).unwrap(), [3u8; 16]);
    }

    #[test]
    fn fetch_stats_returns_the_snapshot_json() {
        let mut asked = false;
        let mut conn = |req: Request| -> Result<Reply, String> {
            asked = matches!(req, Request::Stats);
            Ok(Reply::Stats {
                json: r#"{"counters":{}}"#.into(),
            })
        };
        assert_eq!(fetch_stats(&mut conn).unwrap(), r#"{"counters":{}}"#);
        assert!(asked, "helper must send a STATS request");
    }

    #[test]
    fn fetch_stats_rejects_wrong_reply() {
        let mut conn = Script(vec![Reply::Id { id: [0u8; 16] }]);
        assert!(matches!(
            fetch_stats(&mut conn),
            Err(SyncError::Protocol(_))
        ));
    }
}
