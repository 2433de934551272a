//! The node's log: the client's local signature repository, and the
//! deadlock history the node builds from it.
//!
//! "The Communix client, running on an arbitrary machine in the Internet,
//! periodically downloads the new deadlock signatures from the server into
//! a local repository. … The updates are incremental, i.e., the client
//! requests from the server only the signatures that are not present in
//! the local repository." (§III-B)
//!
//! The repository also carries the agent's inspection cursor ("the
//! inspection of the local repository is incremental, i.e., every
//! signature is analyzed only once", §III-B), the set of signatures
//! that passed the hash check but failed the nesting check — those are
//! re-checked when new classes are loaded (§III-C3) — and Dimmunix's
//! "persistent history" (§II-A): the signatures detected locally, which
//! wait here for upload, and the ones the agent admitted.
//!
//! # On-disk layout ([`LocalRepository::open`]'s directory)
//!
//! `repository.log` and nothing else: the 8-byte magic `CXREPO01`, then
//! [`communix_net::record`]s — the server WAL's framing — whose payload
//! is a one-byte kind and text:
//!
//! * `s` + a downloaded signature (the *n*-th is local index *n*);
//! * `l` + a signature Dimmunix detected locally;
//! * `a` + a signature the agent admitted, as validated (and possibly
//!   trimmed) against the class hashes of that run;
//! * `c` + the cursor state: `cursor`, `server_cursor`, `retry` and
//!   `uploaded` lines (how many `l` records the server acked); the last
//!   one replayed wins.
//!
//! Each mutating call appends only its own new records, with one write
//! and one `sync_data`; nothing is rewritten. The deadlock history is
//! not stored whole: [`LocalRepository::take_history`] folds the `l` and
//! `a` records in log order, because generalization does not commute.
//!
//! # Crash rule
//!
//! A crash mid-write leaves a torn last record. Opening replays up to it
//! — a prefix of what was written — clamps the cursors to what replayed,
//! and cuts the file back there before anything is appended: a record
//! behind a torn one would never replay. A call's state record ends its
//! write, so a cut leaves the cursors behind its other records, never
//! ahead: what was admitted, uploaded or synced is redone, harmlessly.
//! A window that does not start at the sync cursor (it skipped an
//! evicted gap, or re-reads a lost log from 0) opens its write with a
//! state record at its start; each signature behind it moves a diverged
//! cursor by one, and a closing state record covers dropped duplicates.
//! A cut anywhere leaves the cursor at or behind what landed, and every
//! window is checked against what the repository holds, so nothing is
//! stored twice.

use std::collections::{BTreeSet, HashSet};
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasher, RandomState};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use communix_dimmunix::{History, Signature};
use communix_net::record;

/// The repository's one file.
const LOG_FILE: &str = "repository.log";
const MAGIC: &[u8; 8] = b"CXREPO01";
/// Record kinds: the payload's first byte.
const SIG: &str = "s";
const STATE: &str = "c";
const DETECTED: &str = "l";
const ADMITTED: &str = "a";
/// The files of the retired two-file layout; a directory holding one is
/// refused rather than half-read.
const LEGACY_FILES: [&str; 2] = ["signatures.txt", "state.txt"];

/// A local, optionally disk-backed signature repository.
#[derive(Debug, Default)]
pub struct LocalRepository {
    log: Option<Log>,
    /// Downloaded signature texts, in server index order.
    sigs: Vec<String>,
    /// Keys under `hasher` of `sigs[..hashed]`, computed when a window is
    /// first checked against them; a text with a present key is looked for.
    held: HashSet<u64>,
    hasher: RandomState,
    hashed: usize,
    /// First signature the agent has not inspected yet.
    agent_cursor: usize,
    /// Indices that passed hash validation but failed the nesting check —
    /// candidates for re-checking after new classes load.
    nesting_retry: BTreeSet<usize>,
    /// Server-side index the next incremental sync asks from; `None`
    /// means `len()`. They diverge when a window skips an evicted gap or
    /// a duplicate is dropped.
    server_cursor: Option<usize>,
    /// Local detections the server has not acked yet, in detection order.
    pending: Vec<Signature>,
    /// How many local detections the server has acked.
    uploaded: usize,
    /// The `l` and `a` records replayed at open, in log order, until
    /// [`LocalRepository::take_history`] folds them.
    replayed: Vec<HistoryRecord>,
}

/// A replayed record of the deadlock history.
#[derive(Debug)]
enum HistoryRecord {
    Detected(Signature),
    Admitted(Signature),
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

/// `items` as records of `kind`, back to back.
fn frame_all(kind: &str, items: impl IntoIterator<Item = impl std::fmt::Display>) -> Vec<u8> {
    items
        .into_iter()
        .flat_map(|item| record::frame(&format!("{kind}{item}")))
        .collect()
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

    /// Applies one replayed record; a kind this version does not write,
    /// or a history record that does not parse, is skipped.
    fn apply(&mut self, payload: &str) {
        if let Some(sig) = payload.strip_prefix(SIG) {
            self.sigs.push(sig.to_owned());
            self.advance_server_cursor(1);
        } else if let Some(state) = payload.strip_prefix(STATE) {
            self.parse_state(state);
        } else if let Some(Ok(sig)) = payload.strip_prefix(DETECTED).map(str::parse::<Signature>) {
            self.pending.push(sig.clone());
            self.replayed.push(HistoryRecord::Detected(sig));
        } else if let Some(Ok(sig)) = payload.strip_prefix(ADMITTED).map(str::parse) {
            self.replayed.push(HistoryRecord::Admitted(sig));
        }
    }

    /// Replaces the cursor state with the one `text` holds.
    fn parse_state(&mut self, text: &str) {
        self.agent_cursor = 0;
        self.nesting_retry.clear();
        self.server_cursor = None;
        let mut uploaded: usize = 0;
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
            } else if let Some(v) = line.strip_prefix("uploaded ") {
                uploaded = v.trim().parse().unwrap_or(0);
            }
        }
        // The count only grows, and never past the detections replayed.
        let acked = uploaded
            .saturating_sub(self.uploaded)
            .min(self.pending.len());
        self.pending.drain(..acked);
        self.uploaded += acked;
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

    /// Whether the repository is disk-backed (and so logs admissions).
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// The signature text at `index`.
    pub fn sig(&self, index: usize) -> Option<&str> {
        self.sigs.get(index).map(String::as_str)
    }

    /// Appends the server's next signatures, in its order, unchecked
    /// ([`sync_delta`](crate::sync_delta) merges), and persists them.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn append(&mut self, sigs: impl IntoIterator<Item = String>) -> io::Result<usize> {
        let (first, start) = (self.sigs.len(), self.sync_cursor());
        let n = self.hold(sigs, 0);
        self.commit_sigs(first, start, start + n)
    }

    /// The server-side index the next incremental sync requests from.
    pub fn sync_cursor(&self) -> usize {
        self.sync_cursor_at(self.sigs.len())
    }

    /// The sync cursor while the repository holds `len` signatures.
    fn sync_cursor_at(&self, len: usize) -> usize {
        self.server_cursor.unwrap_or(len)
    }

    /// Records how far into the *server's* log this repository has
    /// synced, while [`len`](LocalRepository::len) keeps counting locally
    /// stored signatures (a caller that starts at the server's tail skips
    /// what came before).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn set_sync_cursor(&mut self, cursor: usize) -> io::Result<()> {
        self.commit_sigs(self.sigs.len(), cursor, cursor).map(drop)
    }

    /// Stores the signatures of the server's window ending at index
    /// `cursor` that the repository does not hold, wherever the sync
    /// cursor is (past an evicted gap, or at 0 re-reading a lost log),
    /// and returns how many.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn merge(
        &mut self,
        sigs: impl IntoIterator<Item = String>,
        cursor: usize,
    ) -> io::Result<usize> {
        self.merge_read(sigs, cursor, usize::MAX)
    }

    /// [`merge`](LocalRepository::merge) of a window of one read of the
    /// server's log begun when the repository held `held` signatures: the
    /// server's live log holds no text twice, so only those are checked,
    /// and a read into an empty repository hashes nothing.
    pub(crate) fn merge_read(
        &mut self,
        sigs: impl IntoIterator<Item = String>,
        cursor: usize,
        held: usize,
    ) -> io::Result<usize> {
        let first = self.sigs.len();
        let n = self.hold(sigs, held);
        self.commit_sigs(first, cursor.saturating_sub(n), cursor)
    }

    /// Moves into `sigs` each of `incoming` that none of the first
    /// `against` of them holds, and returns how many came in.
    fn hold(&mut self, incoming: impl IntoIterator<Item = String>, against: usize) -> usize {
        let mut n = 0;
        for text in incoming {
            n += 1;
            let check = self.sigs.len().min(against);
            if check > 0 {
                for sig in &self.sigs[self.hashed.min(check)..check] {
                    self.held.insert(self.hasher.hash_one(sig));
                }
                self.hashed = self.hashed.max(check);
                let key = self.hasher.hash_one(&text);
                if self.held.contains(&key) && self.sigs[..check].contains(&text) {
                    continue;
                }
            }
            self.sigs.push(text);
        }
        n
    }

    /// Logs the signatures stored from local index `first` on as the
    /// server's window `start..end` in one write (module docs: crash
    /// rule) and returns how many there are. A failed write takes them
    /// back out, or every later index would shift on the next open.
    fn commit_sigs(&mut self, first: usize, start: usize, end: usize) -> io::Result<usize> {
        let before = self.server_cursor;
        let durable = self.is_durable();
        let mut records = Vec::new();
        if start != self.sync_cursor_at(first) {
            self.server_cursor = Some(start);
            if durable {
                records.extend(self.state_record());
            }
        }
        let added = self.sigs.len() - first;
        self.advance_server_cursor(added);
        if durable {
            records.extend(frame_all(SIG, &self.sigs[first..]));
        }
        if self.sync_cursor() != end {
            self.server_cursor = Some(end);
            if durable {
                records.extend(self.state_record());
            }
        }
        if let Err(e) = self.write(&records) {
            // A key left for a text taken back out costs only a look.
            self.sigs.truncate(first);
            self.hashed = self.hashed.min(first);
            self.server_cursor = before;
            return Err(e);
        }
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

    /// The signatures queued for nesting re-check, with their indices.
    pub fn nesting_retries(&self) -> impl Iterator<Item = (usize, &str)> {
        self.nesting_retry
            .iter()
            .filter_map(|&i| self.sigs.get(i).map(|s| (i, s.as_str())))
    }

    /// Indices currently queued for nesting re-check.
    pub fn nesting_retry_indices(&self) -> Vec<usize> {
        self.nesting_retry.iter().copied().collect()
    }

    /// Logs one agent pass with one write and one `sync_data`: an `a`
    /// record per signature it `admitted` into the history, in order,
    /// then the state record with the nesting-retry set replaced by
    /// `retries` and the inspection cursor at `cursor`. An in-memory
    /// repository keeps no admission, so callers format them only when
    /// [`is_durable`](LocalRepository::is_durable).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn commit_agent_pass(
        &mut self,
        admitted: &[Signature],
        retries: impl IntoIterator<Item = usize>,
        cursor: usize,
    ) -> io::Result<()> {
        let retries: BTreeSet<usize> = retries.into_iter().collect();
        let cursor = cursor.min(self.sigs.len());
        if admitted.is_empty() && retries == self.nesting_retry && cursor == self.agent_cursor {
            return Ok(());
        }
        self.nesting_retry = retries;
        self.agent_cursor = cursor;
        if !self.is_durable() {
            return Ok(());
        }
        let mut records = frame_all(ADMITTED, admitted);
        records.extend(self.state_record());
        self.write(&records)
    }

    /// Logs signatures Dimmunix detected in this run (`l` records: one
    /// write, one `sync_data`) and queues them for upload. A failed write
    /// queues nothing, so the `uploaded` count keeps matching the log.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn log_detections(&mut self, sigs: &[Signature]) -> io::Result<()> {
        if self.is_durable() {
            self.write(&frame_all(DETECTED, sigs))?;
        }
        self.pending.extend_from_slice(sigs);
        Ok(())
    }

    /// Local detections the server has not acked yet, in detection order.
    pub fn pending_uploads(&self) -> &[Signature] {
        &self.pending
    }

    /// Records that the server acked every pending upload: one state
    /// record, one `sync_data`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed; the uploads are then
    /// pending again at the next open.
    pub fn mark_uploaded(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.uploaded += self.pending.len();
        self.pending.clear();
        if !self.is_durable() {
            return Ok(());
        }
        self.write(&self.state_record())
    }

    /// Folds the `l` and `a` records replayed at open into the history
    /// they built, in log order: detections through [`History::add`],
    /// admissions through [`History::add_generalizing`] at
    /// `min_outer_depth`. Records logged since the open are in the live
    /// history already, so a second call returns an empty one.
    pub fn take_history(&mut self, min_outer_depth: usize) -> History {
        let mut history = History::new();
        for record in std::mem::take(&mut self.replayed) {
            match record {
                HistoryRecord::Detected(sig) => history.add(sig),
                HistoryRecord::Admitted(sig) => history.add_generalizing(sig, min_outer_depth),
            };
        }
        history
    }

    /// Appends `records` with one write and one `sync_data`, if any.
    fn write(&mut self, records: &[u8]) -> io::Result<()> {
        match &mut self.log {
            Some(log) if !records.is_empty() => log.append(records),
            _ => Ok(()),
        }
    }

    /// The cursor state as one record, every cursor one line.
    fn state_record(&self) -> Vec<u8> {
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
        if self.uploaded > 0 {
            text.push_str(&format!("uploaded {}\n", self.uploaded));
        }
        record::frame(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use communix_dimmunix::{History, Signature};
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
        r.commit_agent_pass(&[], [], r.len()).unwrap();
        assert_eq!(r.uninspected_count(), 0);
        r.append([sig_text(3)]).unwrap();
        let idx: Vec<usize> = r.uninspected().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2]);
    }

    #[test]
    fn nesting_retry_bookkeeping() {
        let mut r = LocalRepository::in_memory();
        r.append([sig_text(1), sig_text(2)]).unwrap();
        r.commit_agent_pass(&[], [1], 2).unwrap();
        assert_eq!(r.nesting_retry_indices(), vec![1]);
        assert!(r.nesting_retries().eq([(1, sig_text(2).as_str())]));
        assert_eq!(r.uninspected_count(), 0);
        r.commit_agent_pass(&[], [], 2).unwrap();
        assert!(r.nesting_retry_indices().is_empty());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = scratch("roundtrip");
        {
            let mut r = LocalRepository::open(&dir).unwrap();
            r.append([sig_text(1), sig_text(2), sig_text(3)]).unwrap();
            r.commit_agent_pass(&[], [], 3).unwrap();
            r.append([sig_text(4)]).unwrap();
            r.commit_agent_pass(&[], [0], 3).unwrap();
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
        r.commit_agent_pass(&[], [], 2).unwrap();
        // Epoch resync replays an overlapping window: one dup, one new.
        let added = r.merge([sig_text(2), sig_text(3)], 2).unwrap();
        assert_eq!(added, 1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.sig(2), Some(sig_text(3).as_str()));
        // Existing signatures kept their indices: the agent cursor is
        // still valid and only the merged-in newcomer awaits inspection.
        let idx: Vec<usize> = r.uninspected().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2]);
        assert_eq!(r.sync_cursor(), 2, "the cursor the window was merged with");
        // A text repeated within one batch is stored once, where it first
        // appears.
        let added = r
            .merge([sig_text(4), sig_text(1), sig_text(4), sig_text(5)], 6)
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

    /// Detections, admissions and the upload count survive a reopen: the
    /// history folds the `l` and `a` records in log order, only the
    /// detections past the last `uploaded` count are pending, and an
    /// in-memory repository keeps no admission.
    #[test]
    fn detections_admissions_and_uploads_replay_in_log_order() {
        let sig = |tag| sig_text(tag).parse::<Signature>().unwrap();
        let dir = scratch("history");
        let mut live = History::new();
        {
            let mut r = LocalRepository::open(&dir).unwrap();
            r.log_detections(&[sig(1), sig(2)]).unwrap();
            live.add(sig(1));
            live.add(sig(2));
            r.mark_uploaded().unwrap();
            r.append([sig_text(3)]).unwrap();
            r.commit_agent_pass(&[sig(3)], [], 1).unwrap();
            live.add_generalizing(sig(3), 5);
            r.log_detections(&[sig(4)]).unwrap();
            live.add(sig(4));
            assert_eq!(r.pending_uploads(), [sig(4)]);
        }
        let mut r = LocalRepository::open(&dir).unwrap();
        assert_eq!(r.pending_uploads(), [sig(4)]);
        assert_eq!(r.uninspected_count(), 0);
        assert_eq!(r.take_history(5).signatures(), live.signatures());
        assert!(r.take_history(5).is_empty(), "folded once");
        std::fs::remove_dir_all(&dir).ok();

        let mut r = LocalRepository::in_memory();
        r.append([sig_text(3)]).unwrap();
        r.commit_agent_pass(&[sig(3)], [], 1).unwrap();
        r.log_detections(&[sig(4)]).unwrap();
        assert_eq!(r.take_history(5).len(), 0, "nothing replayed in memory");
        assert_eq!(r.pending_uploads(), [sig(4)]);
        r.mark_uploaded().unwrap();
        assert!(r.pending_uploads().is_empty());
    }

    #[test]
    fn sig_accessor_bounds() {
        let mut r = LocalRepository::in_memory();
        r.append([sig_text(1)]).unwrap();
        assert!(r.sig(0).is_some());
        assert!(r.sig(1).is_none());
        assert!(!r.is_empty());
    }

    /// Cuts the log of three sync windows, the agent's marks, a re-read
    /// of a server that replaced its log, one more window after it, a
    /// second re-read in windows of two — each later window one held
    /// signature and one newcomer — and windows of two from a server
    /// whose GC moved its base past the cursor, at every record boundary
    /// and inside each record after the first server's: each cut reopens
    /// to a prefix of what was written, the appends behind it survive a
    /// second reopen, and one sync against the server those records came
    /// from restores its set exactly once.
    #[test]
    fn every_crash_prefix_reopens_to_a_prefix_that_one_sync_completes() {
        let texts: Vec<String> = (0..40).map(|i| sig_text(10 * i)).collect();
        // The first server serves the first twelve. The second lost its
        // log and serves four of them, then four new ones, two per window.
        // The third serves held signatures with two new ones in between.
        // The fourth holds the third's log and more, and its GC has
        // evicted past where the third ended.
        let old = communix_server::builder().build().unwrap();
        let new = communix_server::builder().build().unwrap();
        let newest = communix_server::builder().build().unwrap();
        let gc_dir = scratch("crash-gc");
        let mut durability = communix_server::DurabilityConfig::new(&gc_dir);
        durability.max_bytes = Some(8 * sig_text(100).len() as u64);
        let evicted = communix_server::builder()
            .durability(durability)
            .build()
            .unwrap();
        for t in &texts[..12] {
            old.store().add(t);
        }
        for t in &texts[8..14] {
            new.store().add(t);
        }
        for i in [1, 3, 5, 16, 7, 17] {
            newest.store().add(&texts[i]);
            evicted.store().add(&texts[i]);
        }
        for t in &texts[18..] {
            if evicted.db().base() > 6 {
                break;
            }
            evicted.store().add(t);
        }
        assert!(evicted.db().base() > 6, "the GC passed the third's end");

        let dir = scratch("crash");
        let path = dir.join(LOG_FILE);
        let log_len = || fs::metadata(&path).unwrap().len() as usize;
        let (first, second, third, order) = {
            let mut r = LocalRepository::open(&dir).unwrap();
            assert_eq!(sync_delta(&mut via(&old), &mut r, 4).unwrap(), 12);
            r.commit_agent_pass(&[], [1, 5], r.len()).unwrap();
            let first = log_len();
            assert_eq!(sync_delta(&mut via(&new), &mut r, 0).unwrap(), 2);
            assert_eq!((r.len(), r.sync_cursor()), (14, 6));
            for t in &texts[14..16] {
                new.store().add(t);
            }
            assert_eq!(sync_delta(&mut via(&new), &mut r, 0).unwrap(), 2);
            assert_eq!((r.len(), r.sync_cursor()), (16, 8));
            let second = log_len();
            assert_eq!(sync_delta(&mut via(&newest), &mut r, 2).unwrap(), 2);
            assert_eq!((r.len(), r.sync_cursor()), (18, 6));
            let third = log_len();
            let live = evicted.db().get_from(0);
            let total = evicted.db().base() + live.len();
            assert_eq!(
                sync_delta(&mut via(&evicted), &mut r, 2).unwrap(),
                live.len()
            );
            assert_eq!((r.len(), r.sync_cursor()), (18 + live.len(), total));
            (
                first,
                second,
                third,
                sigs(&r).iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(order[..18], texts[..18]);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [LOG_FILE], "the log is the only file");

        let written = fs::read(&path).unwrap();
        let ends = record_ends(&written);
        // 12 signatures and the marks; the first re-read's cursor at 0,
        // its 2 newcomers and its cursor at the window's end; the 2
        // signatures of the window after it; the second re-read's cursor
        // at 0 and at the end of its first window, then a newcomer and a
        // cursor per window; the cursor at the fourth server's base, and
        // a signature per live one there.
        assert_eq!(ends.len(), 25 + 1 + order.len() - 18);
        assert_eq!((ends[12], ends[18], ends[24]), (first, second, third));
        let inside = ends[12..].windows(2).map(|pair| (pair[0] + pair[1]) / 2);
        let mut cuts = vec![MAGIC.len()];
        cuts.extend(ends.iter().copied().chain(inside));

        for cut in cuts {
            fs::write(&path, &written[..cut]).unwrap();
            let (server, expect) = if cut <= first {
                (&old, &order[..12])
            } else if cut <= second {
                (&new, &order[..16])
            } else if cut <= third {
                (&newest, &order[..18])
            } else {
                (&evicted, &order[..])
            };
            let mut r = LocalRepository::open(&dir).unwrap();
            let held = sigs(&r);
            assert_eq!(held, order[..held.len()], "cut {cut}: not a prefix");
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
        drop(evicted);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gc_dir).ok();
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
