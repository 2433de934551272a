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

use std::collections::{BTreeSet, HashSet};
use std::io;
use std::path::{Path, PathBuf};

/// A local, optionally disk-backed signature repository.
#[derive(Debug, Default)]
pub struct LocalRepository {
    dir: Option<PathBuf>,
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

impl LocalRepository {
    /// Creates an in-memory repository (tests, simulations).
    pub fn in_memory() -> Self {
        LocalRepository::default()
    }

    /// Opens (or initializes) a repository in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a missing directory is created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut repo = LocalRepository {
            dir: Some(dir.clone()),
            ..LocalRepository::default()
        };
        let sig_path = dir.join("signatures.txt");
        if sig_path.exists() {
            let text = std::fs::read_to_string(&sig_path)?;
            repo.sigs = split_blocks(&text);
        }
        let state_path = dir.join("state.txt");
        if state_path.exists() {
            let text = std::fs::read_to_string(&state_path)?;
            repo.parse_state(&text);
        }
        // A corrupt/foreign state file must never place the cursor beyond
        // the data.
        repo.agent_cursor = repo.agent_cursor.min(repo.sigs.len());
        repo.nesting_retry.retain(|i| *i < repo.sigs.len());
        Ok(repo)
    }

    fn parse_state(&mut self, text: &str) {
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

    /// Appends newly downloaded signatures (in server order) and persists.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn append(&mut self, sigs: impl IntoIterator<Item = String>) -> io::Result<usize> {
        let before = self.sigs.len();
        self.sigs.extend(sigs);
        let added = self.sigs.len() - before;
        if added > 0 {
            self.persist()?;
        }
        Ok(added)
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
        self.persist_state()
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
        let added = self.sigs.len() - before;
        if added > 0 {
            self.persist()?;
        }
        Ok(added)
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
        self.agent_cursor = self.sigs.len();
        self.persist_state()
    }

    /// Records that signature `index` passed the hash check but failed
    /// the nesting check (re-check it when new classes load).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn mark_nesting_retry(&mut self, index: usize) -> io::Result<()> {
        self.nesting_retry.insert(index);
        self.persist_state()
    }

    /// Takes the nesting-retry set (the caller re-validates them).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures when disk-backed.
    pub fn take_nesting_retries(&mut self) -> io::Result<Vec<(usize, String)>> {
        let out: Vec<(usize, String)> = self
            .nesting_retry
            .iter()
            .filter_map(|&i| self.sigs.get(i).map(|s| (i, s.clone())))
            .collect();
        self.nesting_retry.clear();
        self.persist_state()?;
        Ok(out)
    }

    /// Indices currently queued for nesting re-check.
    pub fn nesting_retry_indices(&self) -> Vec<usize> {
        self.nesting_retry.iter().copied().collect()
    }

    fn persist(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut text = String::new();
        for s in &self.sigs {
            text.push_str(s);
            if !s.ends_with('\n') {
                text.push('\n');
            }
            text.push('\n'); // blank line between blocks
        }
        write_atomic(&dir.join("signatures.txt"), &text)?;
        self.persist_state()
    }

    fn persist_state(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut text = format!("cursor {}\n", self.agent_cursor);
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
        write_atomic(&dir.join("state.txt"), &text)
    }
}

fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Splits a file of `sig … end` blocks (blank-line separated) back into
/// individual signature texts.
fn split_blocks(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut block = String::new();
    for line in text.lines() {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        block.push_str(trimmed);
        if trimmed == "end" {
            out.push(std::mem::take(&mut block));
        } else {
            block.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_text(tag: u32) -> String {
        format!(
            "sig remote\nouter a.C#f:{tag}\ninner a.C#g:{}\nend",
            tag + 1
        )
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
        r.mark_nesting_retry(1).unwrap();
        assert_eq!(r.nesting_retry_indices(), vec![1]);
        let retries = r.take_nesting_retries().unwrap();
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].0, 1);
        assert!(r.nesting_retry_indices().is_empty());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "communix-repo-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        {
            let mut r = LocalRepository::open(&dir).unwrap();
            r.append([sig_text(1), sig_text(2), sig_text(3)]).unwrap();
            r.mark_inspected().unwrap();
            r.append([sig_text(4)]).unwrap();
            r.mark_nesting_retry(0).unwrap();
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
        let dir =
            std::env::temp_dir().join(format!("communix-repo-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("state.txt"), "cursor 999\nretry 5 900\n").unwrap();
        let r = LocalRepository::open(&dir).unwrap();
        assert_eq!(r.uninspected_count(), 0); // cursor clamped to len=0
        assert!(r.nesting_retry_indices().is_empty());
        std::fs::remove_dir_all(&dir).ok();
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
        let dir = std::env::temp_dir().join(format!(
            "communix-repo-cursor-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut r = LocalRepository::open(&dir).unwrap();
            r.append([sig_text(1), sig_text(2)]).unwrap();
            assert_eq!(r.sync_cursor(), 2, "tracks len until told otherwise");
            // Server compacted down to one signature; we re-synced it.
            r.set_sync_cursor(1).unwrap();
            assert_eq!(r.sync_cursor(), 1);
            assert_eq!(r.len(), 2, "local store unaffected");
        }
        {
            let r = LocalRepository::open(&dir).unwrap();
            assert_eq!(r.len(), 2);
            assert_eq!(r.sync_cursor(), 1, "cursor persisted in state.txt");
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
}
