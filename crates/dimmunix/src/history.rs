//! The persistent deadlock history.
//!
//! Dimmunix "extracts the signature of the deadlock, stores it in a
//! persistent history, then alters future thread schedules … to avoid
//! execution flows matching the signature" (§II-A). The history is a set
//! of signatures persisted as a text file, one `sig … end` block per
//! signature (mirroring the original Dimmunix history format).

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::signature::{ParseSignatureError, SigOrigin, Signature};

/// What [`History::add`] did with a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The signature was new and was appended.
    Added,
    /// An identical signature was already present.
    Duplicate,
    /// The signature was merged into an existing signature of the same
    /// bug (generalization, §III-D); the index of the merged entry.
    Merged(usize),
}

/// An in-memory, persistable set of deadlock signatures.
#[derive(Debug, Clone, Default)]
pub struct History {
    sigs: Vec<Signature>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// The signatures, in insertion order.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Appends `sig` verbatim if not an exact duplicate, without
    /// attempting generalization. Dimmunix's detection path uses this;
    /// the agent uses [`History::add_generalizing`].
    pub fn add(&mut self, sig: Signature) -> AddOutcome {
        if self.sigs.contains(&sig) {
            return AddOutcome::Duplicate;
        }
        self.sigs.push(sig);
        AddOutcome::Added
    }

    /// Adds `sig`, first trying to merge it with an existing signature of
    /// the same bug under the depth rule (`min_depth`, the agent passes
    /// 5). Replaces the matched signature with the generalization.
    pub fn add_generalizing(&mut self, sig: Signature, min_depth: usize) -> AddOutcome {
        if self.sigs.contains(&sig) {
            return AddOutcome::Duplicate;
        }
        for (i, existing) in self.sigs.iter().enumerate() {
            if let Some(merged) = existing.merge(&sig, min_depth) {
                if merged == *existing {
                    // Generalization changed nothing: the incoming
                    // signature was already covered.
                    return AddOutcome::Duplicate;
                }
                self.sigs[i] = merged;
                return AddOutcome::Merged(i);
            }
        }
        self.sigs.push(sig);
        AddOutcome::Added
    }

    /// Signatures representing the same bug as `sig`.
    pub fn same_bug(&self, sig: &Signature) -> Vec<&Signature> {
        self.sigs.iter().filter(|s| s.same_bug(sig)).collect()
    }

    /// Removes the signature at `index`.
    pub fn remove(&mut self, index: usize) -> Signature {
        self.sigs.remove(index)
    }

    /// Removes all signatures, returning them.
    pub fn clear(&mut self) -> Vec<Signature> {
        std::mem::take(&mut self.sigs)
    }

    /// Serializes the history to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# dimmunix deadlock history v1\n");
        for s in &self.sigs {
            out.push_str(&s.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a history from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::Parse`] on malformed blocks; parsing is
    /// strict because a corrupt history could silently disable avoidance.
    pub fn from_text(text: &str) -> Result<Self, HistoryError> {
        let mut sigs = Vec::new();
        let mut block = String::new();
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            block.push_str(trimmed);
            block.push('\n');
            if trimmed == "end" {
                let sig: Signature = block.trim_end().parse().map_err(HistoryError::Parse)?;
                sigs.push(sig);
                block.clear();
            }
        }
        if !block.is_empty() {
            return Err(HistoryError::Parse(ParseSignatureError::new(
                "truncated signature block at end of file",
            )));
        }
        Ok(History { sigs })
    }

    /// Writes the history to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_to(&self, mut writer: impl Write) -> io::Result<()> {
        writer.write_all(self.to_text().as_bytes())
    }

    /// Reads a history from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError`] on I/O or parse failures.
    pub fn load_from(mut reader: impl Read) -> Result<Self, HistoryError> {
        let mut text = String::new();
        reader.read_to_string(&mut text).map_err(HistoryError::Io)?;
        History::from_text(&text)
    }

    /// Saves to a file path, atomically and durably: writes `path.tmp`
    /// and fsyncs it, renames it over `path`, then fsyncs the directory.
    /// A crash or power loss at any point leaves the old file or the new
    /// one, never a mix, and once this returns `Ok` the new one survives
    /// a power loss.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_text().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        // Directories cannot be opened as files everywhere; where they
        // can, the rename is durable only once the directory is synced.
        if let Ok(dir) = std::fs::File::open(dir) {
            dir.sync_all()?;
        }
        Ok(())
    }

    /// Loads from a file path; a missing file yields an empty history
    /// (first run of an application).
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError`] on read or parse failures other than
    /// file-not-found.
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<Self, HistoryError> {
        match std::fs::read_to_string(path) {
            Ok(text) => History::from_text(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(History::new()),
            Err(e) => Err(HistoryError::Io(e)),
        }
    }

    /// Counts signatures by origin `(local, remote)`.
    pub fn count_by_origin(&self) -> (usize, usize) {
        let local = self
            .sigs
            .iter()
            .filter(|s| s.origin() == SigOrigin::Local)
            .count();
        (local, self.sigs.len() - local)
    }
}

impl FromIterator<Signature> for History {
    fn from_iter<T: IntoIterator<Item = Signature>>(iter: T) -> Self {
        let mut h = History::new();
        for s in iter {
            h.add(s);
        }
        h
    }
}

impl Extend<Signature> for History {
    fn extend<T: IntoIterator<Item = Signature>>(&mut self, iter: T) {
        for s in iter {
            self.add(s);
        }
    }
}

/// Errors from history persistence.
#[derive(Debug)]
pub enum HistoryError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed history text.
    Parse(ParseSignatureError),
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "history i/o error: {e}"),
            HistoryError::Parse(e) => write!(f, "history parse error: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HistoryError::Io(e) => Some(e),
            HistoryError::Parse(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{CallStack, Frame};
    use crate::signature::SigEntry;

    fn cs(frames: &[(&str, u32)]) -> CallStack {
        frames
            .iter()
            .map(|(m, l)| Frame::new("app.C", *m, *l))
            .collect()
    }

    fn sig(tag: u32, depth: usize) -> Signature {
        let mut outer1 = vec![("fooA", tag * 100 + 10)];
        let mut outer2 = vec![("fooB", tag * 100 + 20)];
        for i in 0..depth {
            outer1.insert(0, ("deep", tag * 100 + 30 + i as u32));
            outer2.insert(0, ("deep", tag * 100 + 60 + i as u32));
        }
        Signature::local(vec![
            SigEntry::new(cs(&outer1), cs(&[("barB", tag * 100 + 11)])),
            SigEntry::new(cs(&outer2), cs(&[("barA", tag * 100 + 21)])),
        ])
    }

    #[test]
    fn add_and_dedup() {
        let mut h = History::new();
        assert_eq!(h.add(sig(1, 0)), AddOutcome::Added);
        assert_eq!(h.add(sig(1, 0)), AddOutcome::Duplicate);
        assert_eq!(h.add(sig(2, 0)), AddOutcome::Added);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn generalizing_add_merges_same_bug() {
        let mut h = History::new();
        h.add(sig(1, 3)); // deeper manifestation
        match h.add_generalizing(sig(1, 1), 0) {
            AddOutcome::Merged(0) => {}
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(h.len(), 1);
        // The merged signature is the common suffix (depth 2 outers).
        assert_eq!(h.signatures()[0].min_outer_depth(), 2);
    }

    #[test]
    fn generalizing_add_keeps_distinct_bugs() {
        let mut h = History::new();
        h.add_generalizing(sig(1, 0), 0);
        h.add_generalizing(sig(2, 0), 0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn generalizing_add_covered_signature_is_duplicate() {
        let mut h = History::new();
        h.add(sig(1, 1));
        // sig(1, 1) merged with a deeper manifestation keeps the existing
        // (shorter) suffix: nothing changes.
        assert_eq!(h.add_generalizing(sig(1, 4), 0), AddOutcome::Duplicate);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn text_roundtrip() {
        let mut h = History::new();
        h.add(sig(1, 2));
        h.add(sig(2, 0).with_origin(SigOrigin::Remote));
        let text = h.to_text();
        let parsed = History::from_text(&text).unwrap();
        assert_eq!(parsed.signatures(), h.signatures());
        assert_eq!(parsed.count_by_origin(), (1, 1));
    }

    #[test]
    fn empty_and_comment_lines_ignored() {
        let text = "# comment\n\n# another\n";
        let h = History::from_text(text).unwrap();
        assert!(h.is_empty());
    }

    #[test]
    fn truncated_block_rejected() {
        let mut text = sig(1, 0).to_string();
        text.truncate(text.len() - 4); // drop "end"
        assert!(matches!(
            History::from_text(&text),
            Err(HistoryError::Parse(_))
        ));
    }

    #[test]
    fn corrupt_line_rejected() {
        let text = "sig local\nouter garbage-without-hash-sep:1\ninner a#b:1\nend\n";
        assert!(History::from_text(text).is_err());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("dimmunix-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.history");

        // Missing file => empty history.
        let h0 = History::load_from_path(&path).unwrap();
        assert!(h0.is_empty());

        let mut h = History::new();
        h.add(sig(1, 2));
        h.save_to_path(&path).unwrap();
        let h2 = History::load_from_path(&path).unwrap();
        assert_eq!(h2.signatures(), h.signatures());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_writer_roundtrip() {
        let mut h = History::new();
        h.add(sig(3, 1));
        let mut buf = Vec::new();
        h.save_to(&mut buf).unwrap();
        let h2 = History::load_from(&buf[..]).unwrap();
        assert_eq!(h2.signatures(), h.signatures());
    }

    #[test]
    fn same_bug_lookup() {
        let mut h = History::new();
        h.add(sig(1, 0));
        h.add(sig(2, 0));
        assert_eq!(h.same_bug(&sig(1, 5)).len(), 1);
        assert_eq!(h.same_bug(&sig(9, 0)).len(), 0);
    }

    #[test]
    fn collect_and_extend() {
        let h: History = vec![sig(1, 0), sig(2, 0), sig(1, 0)].into_iter().collect();
        assert_eq!(h.len(), 2); // dedup applied
        let mut h2 = History::new();
        h2.extend(h.signatures().iter().cloned());
        assert_eq!(h2.len(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut h = History::new();
        h.add(sig(1, 0));
        h.add(sig(2, 0));
        let removed = h.remove(0);
        assert!(removed.same_bug(&sig(1, 0)));
        assert_eq!(h.len(), 1);
        let all = h.clear();
        assert_eq!(all.len(), 1);
        assert!(h.is_empty());
    }
}
