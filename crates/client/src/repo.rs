//! The client's local signature repository.
//!
//! "The Communix client, running on an arbitrary machine in the Internet,
//! periodically downloads the new deadlock signatures from the server into
//! a local repository. … The updates are incremental, i.e., the client
//! requests from the server only the signatures that are not present in
//! the local repository." (§III-B)
//!
//! The repository also carries the agent's inspection cursor ("the
//! inspection of the local repository is incremental, i.e., every
//! signature is analyzed only once", §III-B) and the set of signatures
//! that passed the hash check but failed the nesting check — those are
//! re-checked when new classes are loaded (§III-C3).
//!
//! # On-disk layout ([`LocalRepository::open`]'s directory)
//!
//! `repository.log` and nothing else: the 8-byte magic `CXREPO01`, then
//! [`communix_net::record`]s — the server WAL's framing — whose payload
//! is a one-byte kind and text: `s` + a downloaded signature (the *n*-th
//! is local index *n*), or `c` + the cursor state (`cursor`,
//! `server_cursor` and `retry` lines; the last one replayed wins). Each
//! mutating call appends only its own new records, with one write and
//! one `sync_data`; nothing is rewritten.
//!
//! # Crash rule
//!
//! A crash mid-write leaves a torn last record. Opening replays up to it
//! — a prefix of what was written — clamps the cursors to what replayed,
//! and cuts the file back there before anything is appended: a record
//! behind a torn one would never replay. Once an epoch resync has
//! diverged the server cursor from the signature count, each stored
//! signature moves it by one, in memory and on replay, so a cut between
//! two appended records never leaves it behind the signatures held (the
//! next sync would store them twice). Until the cursor record of a
//! resync's first window lands, the cursor is still the old epoch's,
//! past the new total, and the next sync resyncs again.

use std::collections::{BTreeSet, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use communix_net::record;

/// The repository's one file.
const LOG_FILE: &str = "repository.log";
const MAGIC: &[u8; 8] = b"CXREPO01";
/// Record kinds: the payload's first byte.
const SIG: &str = "s";
const STATE: &str = "c";
/// The files of the retired two-file layout; a directory holding one is
/// refused rather than half-read.
const LEGACY_FILES: [&str; 2] = ["signatures.txt", "state.txt"];

/// A local, optionally disk-backed signature repository.
#[derive(Debug, Default)]
pub struct LocalRepository {
    log: Option<Log>,
    /// Downloaded signature texts, in server index order.
    sigs: Vec<String>,
    /// First signature the agent has not inspected yet.
    agent_cursor: usize,
    /// Indices that passed hash validation but failed the nesting check —
    /// candidates for re-checking after new classes load.
    nesting_retry: BTreeSet<usize>,
    /// Server-side index the next incremental sync asks from. `None`
    /// means "same as `len()`" — the invariant before store epochs
    /// existed, and still the steady state. The two diverge only after
    /// an epoch resync ([`LocalRepository::merge`] drops duplicates, so
    /// the local count falls behind the server index).
    server_cursor: Option<usize>,
}

/// The open `repository.log` and the length of its valid prefix.
#[derive(Debug)]
struct Log {
    file: File,
    len: u64,
}

impl Log {
    /// Appends `records` with one write and one `sync_data`. A failed
    /// write is cut back off, so no partial record sits in front of the
    /// next append.
    fn append(&mut self, records: &[u8]) -> io::Result<()> {
        let written = self
            .file
            .write_all(records)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        self.len += records.len() as u64;
        Ok(())
    }
}

impl LocalRepository {
    /// Creates an in-memory repository (tests, simulations).
    pub fn in_memory() -> Self {
        LocalRepository::default()
    }

    /// Opens (or initializes) a repository in `dir`: replays
    /// `repository.log` up to its first torn record and cuts the file
    /// back to what replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a missing directory is created. A file
    /// that is not a repository log, or a directory of the retired
    /// `signatures.txt`/`state.txt` layout, is
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        for legacy in LEGACY_FILES.map(|name| dir.join(name)) {
            if legacy.exists() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: the two-file layout is not read", legacy.display()),
                ));
            }
        }
        let path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let mut repo = LocalRepository::default();
        let len = if data.len() < MAGIC.len() && MAGIC.starts_with(&data) {
            // A new log, or one whose creation a crash cut short.
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.sync_data()?;
            if let Ok(d) = File::open(dir) {
                d.sync_all()?;
            }
            MAGIC.len()
        } else {
            let Some(body) = data.strip_prefix(MAGIC) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: not a repository log", path.display()),
                ));
            };
            let (_, valid_len) = record::replay(body, |payload| repo.apply(payload));
            if valid_len < body.len() {
                file.set_len((MAGIC.len() + valid_len) as u64)?;
                file.sync_data()?;
            }
            MAGIC.len() + valid_len
        };
        // A corrupt/foreign state record must never place the cursor
        // beyond the data.
        repo.agent_cursor = repo.agent_cursor.min(repo.sigs.len());
        repo.nesting_retry.retain(|i| *i < repo.sigs.len());
        repo.log = Some(Log {
            file,
            len: len as u64,
        });
        Ok(repo)
    }

    /// Applies one replayed record; a kind this version does not write
    /// is skipped.
    fn apply(&mut self, payload: &str) {
        if let Some(sig) = payload.strip_prefix(SIG) {
            self.sigs.push(sig.to_owned());
            self.advance_server_cursor(1);
        } else if let Some(state) = payload.strip_prefix(STATE) {
            self.parse_state(state);
        }
    }

    /// Replaces the cursor state with the one `text` holds.
    fn parse_state(&mut self, text: &str) {
        self.agent_cursor = 0;
        self.nesting_retry.clear();
        self.server_cursor = None;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("cursor ") {
                if let Ok(n) = v.trim().parse() {
                    self.agent_cursor = n;
                }
            } else if let Some(v) = line.strip_prefix("retry ") {
                for tok in v.split_whitespace() {
                    if let Ok(i) = tok.parse() {
                        self.nesting_retry.insert(i);
                    }
                }
            } else if let Some(v) = line.strip_prefix("server_cursor ") {
                if let Ok(n) = v.trim().parse() {
                    self.server_cursor = Some(n);
                }
            }
        }
    }

    /// Number of downloaded signatures — the `n` in the client's
    /// incremental `GET(n)` request.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The signature text at `index`.
    pub fn sig(&self, index: usize) -> Option<&str> {
        self.sigs.get(index).map(String::as_str)
    }

    /// Appends newly downloaded signatures — the server's next ones, in
    /// its order — and persists them.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn append(&mut self, sigs: impl IntoIterator<Item = String>) -> io::Result<usize> {
        let before = self.sigs.len();
        self.sigs.extend(sigs);
        self.commit_sigs(before)
    }

    /// The server-side index the next incremental sync should request
    /// from. Equal to [`len`](LocalRepository::len) until an epoch
    /// resync diverges them (see [`LocalRepository::set_sync_cursor`]).
    pub fn sync_cursor(&self) -> usize {
        self.server_cursor.unwrap_or(self.sigs.len())
    }

    /// Records how far into the *server's* log this repository has
    /// synced. [`sync_delta`](crate::sync::sync_delta) advances this as
    /// windows land; after a store epoch switch (the server compacted
    /// and renumbered) the cursor tracks the new epoch's indices while
    /// [`len`](LocalRepository::len) keeps counting locally stored
    /// signatures.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn set_sync_cursor(&mut self, cursor: usize) -> io::Result<()> {
        if self.server_cursor == Some(cursor)
            || (self.server_cursor.is_none() && cursor == self.sigs.len())
        {
            return Ok(());
        }
        self.server_cursor = Some(cursor);
        self.log_state()
    }

    /// Appends only the signatures not already present — the epoch-resync
    /// counterpart of [`append`](LocalRepository::append). When the
    /// server's store switches epochs (compaction renumbered its log),
    /// the client re-reads from index 0; signatures it already holds are
    /// skipped so agent cursors and nesting-retry indices stay valid.
    ///
    /// Returns the number of genuinely new signatures stored.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn merge(&mut self, sigs: impl IntoIterator<Item = String>) -> io::Result<usize> {
        // Membership is decided against borrowed texts — the held ones and
        // the batch's own — and only then are the newcomers moved in.
        let incoming: Vec<String> = sigs.into_iter().collect();
        let mut seen: HashSet<&str> = self.sigs.iter().map(String::as_str).collect();
        let fresh: Vec<bool> = incoming.iter().map(|s| seen.insert(s)).collect();
        drop(seen);
        let before = self.sigs.len();
        self.sigs.extend(
            incoming
                .into_iter()
                .zip(fresh)
                .filter_map(|(s, fresh)| fresh.then_some(s)),
        );
        self.commit_sigs(before)
    }

    /// Logs the signatures stored from local index `first` on, moves a
    /// diverged server cursor past them as replay does, and returns how
    /// many there are. A failed write takes them back out: a signature
    /// the log lost would shift every later index on the next open.
    fn commit_sigs(&mut self, first: usize) -> io::Result<usize> {
        if let Err(e) = self.log_sigs(first) {
            self.sigs.truncate(first);
            return Err(e);
        }
        let added = self.sigs.len() - first;
        self.advance_server_cursor(added);
        Ok(added)
    }

    /// Moves a diverged server cursor past `n` newly stored signatures.
    fn advance_server_cursor(&mut self, n: usize) {
        if let Some(cursor) = &mut self.server_cursor {
            *cursor += n;
        }
    }

    /// Signatures the agent has not inspected yet, with their indices.
    pub fn uninspected(&self) -> impl Iterator<Item = (usize, &str)> {
        self.sigs[self.agent_cursor..]
            .iter()
            .enumerate()
            .map(move |(off, s)| (self.agent_cursor + off, s.as_str()))
    }

    /// Number of signatures awaiting inspection.
    pub fn uninspected_count(&self) -> usize {
        self.sigs.len() - self.agent_cursor
    }

    /// Marks every signature up to the current end as inspected.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn mark_inspected(&mut self) -> io::Result<()> {
        if self.agent_cursor == self.sigs.len() {
            return Ok(());
        }
        self.agent_cursor = self.sigs.len();
        self.log_state()
    }

    /// Records that the signatures at `indices` passed the hash check but
    /// failed the nesting check (re-check them when new classes load).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn mark_nesting_retries(
        &mut self,
        indices: impl IntoIterator<Item = usize>,
    ) -> io::Result<()> {
        let before = self.nesting_retry.len();
        self.nesting_retry.extend(indices);
        if self.nesting_retry.len() == before {
            return Ok(());
        }
        self.log_state()
    }

    /// Takes the nesting-retry set (the caller re-validates them).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn take_nesting_retries(&mut self) -> io::Result<Vec<(usize, String)>> {
        if self.nesting_retry.is_empty() {
            return Ok(Vec::new());
        }
        let out: Vec<(usize, String)> = self
            .nesting_retry
            .iter()
            .filter_map(|&i| self.sigs.get(i).map(|s| (i, s.clone())))
            .collect();
        self.nesting_retry.clear();
        self.log_state()?;
        Ok(out)
    }

    /// Indices currently queued for nesting re-check.
    pub fn nesting_retry_indices(&self) -> Vec<usize> {
        self.nesting_retry.iter().copied().collect()
    }

    /// Logs the signatures from local index `first` on: one write, one
    /// `sync_data`. Writes nothing in memory.
    fn log_sigs(&mut self, first: usize) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        if first == self.sigs.len() {
            return Ok(());
        }
        let records: Vec<u8> = self.sigs[first..]
            .iter()
            .flat_map(|sig| record::frame(&format!("{SIG}{sig}")))
            .collect();
        log.append(&records)
    }

    /// Logs the cursor state, every cursor one line: one record, one
    /// write, one `sync_data`. Writes nothing in memory.
    fn log_state(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let mut text = format!("{STATE}cursor {}\n", self.agent_cursor);
        if let Some(c) = self.server_cursor {
            text.push_str(&format!("server_cursor {c}\n"));
        }
        if !self.nesting_retry.is_empty() {
            text.push_str("retry");
            for i in &self.nesting_retry {
                text.push_str(&format!(" {i}"));
            }
            text.push('\n');
        }
        log.append(&record::frame(&text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use communix_net::{Reply, Request};
    use communix_server::CommunixServer;

    use crate::sync::sync_delta;

    static DIRS: AtomicUsize = AtomicUsize::new(0);

    /// A fresh scratch directory (unique per process × call).
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "communix-repo-{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sig_text(tag: u32) -> String {
        format!(
            "sig remote\nouter a.C#f:{tag}\ninner a.C#g:{}\nend",
            tag + 1
        )
    }

    /// An in-process connector to `server`.
    fn via(server: &Arc<CommunixServer>) -> impl FnMut(Request) -> Result<Reply, String> {
        let server = server.clone();
        move |request| Ok(server.handle(request))
    }

    fn sigs(r: &LocalRepository) -> Vec<&str> {
        (0..r.len()).filter_map(|i| r.sig(i)).collect()
    }

    /// The file offset each record of `log` ends at, in order.
    fn record_ends(log: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut at = MAGIC.len();
        while at < log.len() {
            let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
            at += 8 + len;
            ends.push(at);
        }
        ends
    }

    #[test]
    fn append_and_cursor() {
        let mut r = LocalRepository::in_memory();
        r.append([sig_text(1), sig_text(2)]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.uninspected_count(), 2);
        let idx: Vec<usize> = r.uninspected().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![0, 1]);
        r.mark_inspected().unwrap();
        assert_eq!(r.uninspected_count(), 0);
        r.append([sig_text(3)]).unwrap();
        let idx: Vec<usize> = r.uninspected().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2]);
    }

    #[test]
    fn nesting_retry_bookkeeping() {
        let mut r = LocalRepository::in_memory();
        r.append([sig_text(1), sig_text(2)]).unwrap();
        r.mark_nesting_retries([1]).unwrap();
        assert_eq!(r.nesting_retry_indices(), vec![1]);
        let retries = r.take_nesting_retries().unwrap();
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].0, 1);
        assert!(r.nesting_retry_indices().is_empty());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = scratch("roundtrip");
        {
            let mut r = LocalRepository::open(&dir).unwrap();
            r.append([sig_text(1), sig_text(2), sig_text(3)]).unwrap();
            r.mark_inspected().unwrap();
            r.append([sig_text(4)]).unwrap();
            r.mark_nesting_retries([0]).unwrap();
        }
        {
            let r = LocalRepository::open(&dir).unwrap();
            assert_eq!(r.len(), 4);
            assert_eq!(r.uninspected_count(), 1);
            assert_eq!(
                r.sig(0)
                    .unwrap()
                    .parse::<communix_dimmunix::Signature>()
                    .unwrap()
                    .to_string(),
                sig_text(1)
            );
            assert_eq!(r.nesting_retry_indices(), vec![0]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_state_clamped() {
        let dir = scratch("corrupt");
        drop(LocalRepository::open(&dir).unwrap());
        // A state record pointing past the (empty) data.
        let mut log = OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        log.write_all(&record::frame("ccursor 999\nretry 5 900\n"))
            .unwrap();
        let r = LocalRepository::open(&dir).unwrap();
        assert_eq!(r.uninspected_count(), 0); // cursor clamped to len=0
        assert!(r.nesting_retry_indices().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_two_file_layout_and_foreign_files_are_refused() {
        for (name, bytes) in [
            ("signatures.txt", &b""[..]),
            ("state.txt", b"cursor 0\n"),
            (LOG_FILE, b"CXWAL001"),
        ] {
            let dir = scratch("legacy");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(name), bytes).unwrap();
            let err = LocalRepository::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn merge_skips_duplicates_and_keeps_indices_stable() {
        let mut r = LocalRepository::in_memory();
        r.append([sig_text(1), sig_text(2)]).unwrap();
        r.mark_inspected().unwrap();
        // Epoch resync replays an overlapping window: one dup, one new.
        let added = r.merge([sig_text(2), sig_text(3)]).unwrap();
        assert_eq!(added, 1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.sig(2), Some(sig_text(3).as_str()));
        // Existing signatures kept their indices: the agent cursor is
        // still valid and only the merged-in newcomer awaits inspection.
        let idx: Vec<usize> = r.uninspected().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2]);
        // A text repeated within one batch is stored once, where it first
        // appears.
        let added = r
            .merge([sig_text(4), sig_text(1), sig_text(4), sig_text(5)])
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(r.len(), 5);
        assert_eq!(r.sig(3), Some(sig_text(4).as_str()));
        assert_eq!(r.sig(4), Some(sig_text(5).as_str()));
    }

    #[test]
    fn sync_cursor_defaults_to_len_and_survives_reopen() {
        let dir = scratch("cursor");
        {
            let mut r = LocalRepository::open(&dir).unwrap();
            r.append([sig_text(1), sig_text(2)]).unwrap();
            assert_eq!(r.sync_cursor(), 2, "tracks len until told otherwise");
            // Server compacted down to one signature; we re-synced it.
            r.set_sync_cursor(1).unwrap();
            assert_eq!(r.sync_cursor(), 1);
            assert_eq!(r.len(), 2, "local store unaffected");
            // A diverged cursor moves with the windows appended after it.
            r.append([sig_text(3)]).unwrap();
            assert_eq!(r.sync_cursor(), 2);
        }
        {
            let r = LocalRepository::open(&dir).unwrap();
            assert_eq!(r.len(), 3);
            assert_eq!(r.sync_cursor(), 2, "cursor persisted in a state record");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sig_accessor_bounds() {
        let mut r = LocalRepository::in_memory();
        r.append([sig_text(1)]).unwrap();
        assert!(r.sig(0).is_some());
        assert!(r.sig(1).is_none());
        assert!(!r.is_empty());
    }

    /// Cuts the log of three sync windows, the agent's marks, an epoch
    /// resync and one more window after it at every record boundary, and
    /// inside each record of the last two windows: each cut reopens to a
    /// prefix of what was written, the appends behind it survive a second
    /// reopen, and one sync against the server those records came from
    /// restores its set exactly once.
    #[test]
    fn every_crash_prefix_reopens_to_a_prefix_that_one_sync_completes() {
        let texts: Vec<String> = (0..16).map(|i| sig_text(10 * i)).collect();
        // Epoch 0 serves the first twelve. After a GC evicted the first
        // eight, the next epoch serves the other four and then four new
        // ones, two per window.
        let old = communix_server::builder().build().unwrap();
        let new = communix_server::builder().build().unwrap();
        for t in &texts[..12] {
            old.store().add(t);
        }
        for t in &texts[8..14] {
            new.store().add(t);
        }

        let dir = scratch("crash");
        let path = dir.join(LOG_FILE);
        let epoch_start = {
            let mut r = LocalRepository::open(&dir).unwrap();
            assert_eq!(sync_delta(&mut via(&old), &mut r, 4).unwrap(), 12);
            r.mark_inspected().unwrap();
            r.mark_nesting_retries([1, 5]).unwrap();
            let epoch_start = fs::metadata(&path).unwrap().len() as usize;
            assert_eq!(sync_delta(&mut via(&new), &mut r, 0).unwrap(), 2);
            assert_eq!((r.len(), r.sync_cursor()), (14, 6));
            for t in &texts[14..] {
                new.store().add(t);
            }
            assert_eq!(sync_delta(&mut via(&new), &mut r, 0).unwrap(), 2);
            assert_eq!((r.len(), r.sync_cursor()), (16, 8));
            epoch_start
        };
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [LOG_FILE], "the log is the only file");

        let written = fs::read(&path).unwrap();
        let ends = record_ends(&written);
        // 12 signatures and 2 marks; the resync's 2 newcomers and its
        // cursor; the 2 signatures of the window after it.
        assert_eq!(ends.len(), 19);
        assert_eq!(ends[13], epoch_start);
        let inside = ends[13..].windows(2).map(|pair| (pair[0] + pair[1]) / 2);
        let mut cuts = vec![MAGIC.len()];
        cuts.extend(ends.iter().copied().chain(inside));

        for cut in cuts {
            fs::write(&path, &written[..cut]).unwrap();
            let (server, expect) = if cut <= epoch_start {
                (&old, &texts[..12])
            } else {
                (&new, &texts[..])
            };
            let mut r = LocalRepository::open(&dir).unwrap();
            let held = sigs(&r);
            assert_eq!(held, texts[..held.len()], "cut {cut}: not a prefix");
            // The agent cursor is within the data, or this would slice
            // past the end.
            assert_eq!(r.uninspected().count(), r.uninspected_count(), "cut {cut}");
            assert!(
                r.nesting_retry_indices().iter().all(|&i| i < r.len()),
                "cut {cut}"
            );
            assert_eq!(
                fs::metadata(&path).unwrap().len() as usize,
                boundary_below(&ends, cut),
                "cut {cut}: the torn tail must be cut before an append"
            );

            sync_delta(&mut via(server), &mut r, 4).unwrap();
            assert_eq!(sigs(&r), expect, "cut {cut}: one sync restores the set");
            let cursor = r.sync_cursor();
            drop(r);
            let r = LocalRepository::open(&dir).unwrap();
            assert_eq!(sigs(&r), expect, "cut {cut}: the appends survive a reopen");
            assert_eq!(r.sync_cursor(), cursor, "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The last record boundary at or below `cut`.
    fn boundary_below(ends: &[usize], cut: usize) -> usize {
        let below = ends.iter().copied().rev().find(|&e| e <= cut);
        below.unwrap_or(MAGIC.len())
    }

    /// Twenty windows append to one file: it keeps its inode and every
    /// byte it held, and ends exactly as long as its framed records.
    #[cfg(unix)]
    #[test]
    fn twenty_windows_append_to_one_log_and_rewrite_nothing() {
        use std::os::unix::fs::MetadataExt;

        let dir = scratch("append-only");
        let path = dir.join(LOG_FILE);
        let mut r = LocalRepository::open(&dir).unwrap();
        let inode = fs::metadata(&path).unwrap().ino();
        let mut before = fs::read(&path).unwrap();
        let mut framed = MAGIC.len();
        for w in 0..20 {
            let window: Vec<String> = (0..5).map(|i| sig_text(100 * w + 2 * i)).collect();
            framed += window.iter().map(|s| 8 + 1 + s.len()).sum::<usize>();
            r.append(window).unwrap();
            assert_eq!(
                fs::metadata(&path).unwrap().ino(),
                inode,
                "window {w} replaced the log"
            );
            let now = fs::read(&path).unwrap();
            assert_eq!(
                now[..before.len()],
                before[..],
                "window {w} rewrote earlier bytes"
            );
            before = now;
        }
        assert_eq!(before.len(), framed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
