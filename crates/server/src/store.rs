//! Durable signature store: a write-ahead log + bounded GC around
//! [`SignatureDb`], behind one [`Store`] API. The log *is* the store,
//! never rewritten. An index is a client's cursor, so it names one
//! signature for the life of the store: it is assigned and its record
//! written under one append lock (index = journal = recovered order), and
//! each segment's name gives its first index.
//!
//! # On-disk layout (`DurabilityConfig::dir`)
//!
//! `wal-{first:020}.log` segments: the magic `CXWAL001`, then one
//! [`communix_net::record`] per accepted signature, the `k`-th at index
//! `first + k`, fsync'd on a group-commit interval
//! ([`DurabilityConfig::fsync_interval`]; zero: every append). A torn
//! final record is dropped on replay. A record whose write fails is kept
//! and written first by the next append or sync, in a new segment named
//! by its index, so the log on disk has no gap. Segments named
//! `wal-{epoch}-{seq}.log` recover at index 0 in `seq` order and are
//! renamed on open.
//!
//! # Bounded GC and the base rule
//!
//! Over [`DurabilityConfig::max_bytes`], GC picks the oldest sealed
//! segments until what is left fits in 3/4 of the cap, drops their prefix
//! from memory (the base, the first live index, moves up), then unlinks
//! them. It reads no segment and renumbers nothing; a cursor below the
//! base is served from the base. Segments roll at 1/8 of the cap at most,
//! so a pass lands between 5/8 and 3/4 of it, plus the segment being
//! written, which stays. Memory never holds more than disk, but for
//! records awaiting a retry.
//!
//! # Recovery
//!
//! [`Store::open`] replays the segments in index order, each record at
//! its index, stopping within a segment at a torn or corrupt record, and
//! keeps the newest contiguous run. A segment whose successor does not
//! start where its replay ended, every one before it, and one holding
//! bytes but no record are renamed `*.log.evicted` (never deleted or
//! renumbered) and counted in [`RecoveryReport::evicted_segments`]. A
//! header-only segment still says where the log goes on: the fresh
//! segment opens at the next index, over one of that name.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use communix_net::record;
use communix_telemetry::{Counter, Histogram, Registry};
use parking_lot::Mutex;

use crate::db::{Key, SignatureDb};

const WAL_MAGIC: &[u8; 8] = b"CXWAL001";
/// The second file of the retired snapshotting layout; a directory
/// holding one is refused rather than half-read.
const LEGACY_SNAPSHOT: &str = "snapshot.bin";

/// Durability tunables for [`Store::open`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments (created if missing). One
    /// store per directory.
    pub dir: PathBuf,
    /// Group-commit interval: a background flusher fsyncs the WAL this
    /// often (only when dirty). `Duration::ZERO` fsyncs on every append
    /// instead — full durability, no group-commit window.
    pub fsync_interval: Duration,
    /// WAL segment size: the log rolls to a new segment past this many
    /// bytes (GC deletes whole segments, never rewrites one). Under a
    /// byte cap the limit is an eighth of the cap if that is smaller.
    pub wal_segment_bytes: u64,
    /// Capacity bound on stored signature bytes. Exceeding it triggers
    /// the oldest-first GC; `None` leaves the store unbounded.
    pub max_bytes: Option<u64>,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default knobs: 2 ms group
    /// commit, 4 MiB segments, no byte cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync_interval: Duration::from_millis(2),
            wal_segment_bytes: 4 << 20,
            max_bytes: None,
        }
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed into the recovered log.
    pub wal_records: u64,
    /// Whether replay stopped at a torn/corrupt record.
    pub torn_tail: bool,
    /// Segments set aside, not replayed: behind a gap in the indices, or
    /// holding bytes but no record.
    pub evicted_segments: u64,
}

/// Pre-resolved telemetry handles (same pattern as the server's: resolve
/// once, record lock-free).
#[derive(Debug, Clone)]
struct StoreMetrics {
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    wal_errors: Arc<Counter>,
    wal_replayed: Arc<Counter>,
    wal_torn: Arc<Counter>,
    wal_evicted: Arc<Counter>,
    gc_runs: Arc<Counter>,
    gc_evicted_sigs: Arc<Counter>,
    gc_evicted_bytes: Arc<Counter>,
    gc_segments_deleted: Arc<Counter>,
    fsync_latency: Arc<Histogram>,
}

impl StoreMetrics {
    fn resolve(registry: &Registry) -> Self {
        StoreMetrics {
            wal_appends: registry.counter("store.wal.appends"),
            wal_bytes: registry.counter("store.wal.bytes"),
            wal_fsyncs: registry.counter("store.wal.fsyncs"),
            wal_errors: registry.counter("store.wal.errors"),
            wal_replayed: registry.counter("store.wal.replayed"),
            wal_torn: registry.counter("store.wal.torn_records"),
            wal_evicted: registry.counter("store.wal.evicted_segments"),
            gc_runs: registry.counter("store.gc.runs"),
            gc_evicted_sigs: registry.counter("store.gc.evicted_sigs"),
            gc_evicted_bytes: registry.counter("store.gc.evicted_bytes"),
            gc_segments_deleted: registry.counter("store.gc.segments_deleted"),
            fsync_latency: registry.histogram("store.wal.fsync"),
        }
    }

    /// Writes the records still to be retried, then fsyncs `wal` if
    /// dirty, counting and timing a sync that happened.
    fn sync(&self, wal: &mut Wal) -> io::Result<()> {
        wal.write_pending()?;
        let start = Instant::now();
        if wal.sync()? {
            self.wal_fsyncs.inc();
            self.fsync_latency.record_duration(start.elapsed());
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Flusher {
    stop: mpsc::Sender<()>,
    join: JoinHandle<()>,
}

/// The unified signature store: a [`SignatureDb`], in memory
/// ([`Store::in_memory`]) or journaled to a write-ahead log with an
/// optional byte cap ([`Store::open`]). Thread-safe; reads never block on
/// WAL I/O.
#[derive(Debug)]
pub struct Store {
    /// The one for the life of the store; the server reads it directly.
    pub(crate) db: Arc<SignatureDb>,
    wal: Option<Arc<Mutex<Wal>>>,
    /// The byte cap (`DurabilityConfig::max_bytes`).
    max_bytes: Option<u64>,
    sync_every_append: bool,
    metrics: StoreMetrics,
    recovery: RecoveryReport,
    flusher: Option<Flusher>,
}

impl Store {
    /// An in-memory store recording into a private registry. The
    /// argument is unused: it stays because `benchmark/` passes it
    /// (ROADMAP item 1A retires it).
    pub fn in_memory(_shards: usize) -> Self {
        Store::in_memory_with(&Registry::new())
    }

    /// [`Store::in_memory`] recording into an existing `registry`.
    pub fn in_memory_with(registry: &Registry) -> Self {
        Store {
            db: Arc::new(SignatureDb::new()),
            wal: None,
            max_bytes: None,
            sync_every_append: false,
            metrics: StoreMetrics::resolve(registry),
            recovery: RecoveryReport::default(),
            flusher: None,
        }
    }

    /// Opens (or creates) a durable store under `config.dir`,
    /// recovering the newest contiguous run of WAL segments. The first
    /// argument is unused, as in [`Store::in_memory`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the directory and its segments, and
    /// refuses (`InvalidData`) the retired snapshotting layout. A torn
    /// record is not an error: [`Store::recovery`] reports it.
    pub fn open(_shards: usize, config: DurabilityConfig, registry: &Registry) -> io::Result<Self> {
        let metrics = StoreMetrics::resolve(registry);
        let (db, recovery, wal) = recover(&config)?;
        metrics.wal_replayed.add(recovery.wal_records);
        metrics.wal_evicted.add(recovery.evicted_segments);
        if recovery.torn_tail {
            metrics.wal_torn.inc();
        }
        let wal = Arc::new(Mutex::new(wal));
        let sync_every_append = config.fsync_interval.is_zero();
        let flusher = (!sync_every_append)
            .then(|| spawn_flusher(wal.clone(), config.fsync_interval, metrics.clone()));
        Ok(Store {
            db: Arc::new(db),
            wal: Some(wal),
            max_bytes: config.max_bytes,
            sync_every_append,
            metrics,
            recovery,
            flusher,
        })
    }

    /// Whether this store journals to disk.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// What [`Store::open`] found on disk (all-zero in memory).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The in-memory database, the one for the life of the store.
    pub fn db(&self) -> Arc<SignatureDb> {
        self.db.clone()
    }

    /// [`SignatureDb::add`], journaling a new signature to the WAL.
    pub fn add(&self, sig_text: &str) -> (usize, bool) {
        match self.db.probe(sig_text) {
            Ok(i) => (i, false),
            Err(key) => self.add_new(key, sig_text),
        }
    }

    /// [`Store::add`] of a text whose [`SignatureDb::probe`] missed with
    /// `key`, so that the ADD hashes it once.
    pub(crate) fn add_new(&self, key: Key, sig_text: &str) -> (usize, bool) {
        let Some(wal) = &self.wal else {
            return self.db.add_new(key, sig_text, |_| {});
        };
        // Framed (CRC included) before the append lock, written under it:
        // the record lands in the log at the signature's index.
        let record = record::frame(sig_text);
        let (i, added) = self.db.add_new(key, sig_text, |_| {
            let mut wal = wal.lock();
            match wal.append(&record) {
                Ok(()) => {
                    self.metrics.wal_appends.inc();
                    self.metrics.wal_bytes.add(record.len() as u64);
                    if self.sync_every_append {
                        if let Err(e) = self.metrics.sync(&mut wal) {
                            self.wal_error("fsync", &e);
                        }
                    }
                }
                // Degrades durability, not availability: memory serves
                // the add and the record is retried.
                Err(e) => self.wal_error("append", &e),
            }
        });
        // An uncapped store pays nothing for the cap.
        if let (true, Some(cap)) = (added, self.max_bytes) {
            if self.db.stored_bytes() as u64 > cap {
                self.gc(cap);
            }
        }
        (i, added)
    }

    /// Number of live signatures.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether no signature is live.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Writes any record awaiting a retry and fsyncs the WAL (no-op
    /// in-memory). Called on drop.
    ///
    /// # Errors
    ///
    /// Propagates the write/fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        match &self.wal {
            Some(wal) => self.metrics.sync(&mut wal.lock()),
            None => Ok(()),
        }
    }

    /// [`Store::sync`] under the name `benchmark/` compiles against (its
    /// files are frozen); there is no snapshot, the log is the store.
    ///
    /// # Errors
    ///
    /// As [`Store::sync`].
    pub fn snapshot(&self) -> io::Result<()> {
        self.sync()
    }

    fn wal_error(&self, what: &str, e: &io::Error) {
        self.metrics.wal_errors.inc();
        eprintln!("communix store: wal {what} failed: {e}");
    }

    /// Bounded GC (module docs). The WAL lock is held to pick the
    /// segments and for the prefix drop, under the log's write lock; the
    /// unlinks run after both, so appends and reads go on meanwhile (disk
    /// holds more than memory until they end). A failed delete is counted
    /// and passed.
    fn gc(&self, cap: u64) {
        let Some(wal) = &self.wal else { return };
        let mut wal = wal.lock();
        if self.db.stored_bytes() as u64 <= cap {
            return; // a racer collected
        }
        let target = cap.saturating_mul(3) / 4;
        let mut left: u64 = wal.live.iter().map(|s| s.bytes).sum();
        let mut doomed = Vec::new();
        // Only sealed segments go (the back is being written), and every
        // record in one is in memory: it was appended under the append lock.
        while wal.live.len() > 1 && left > target {
            let segment = wal.live.pop_front().expect("len > 1");
            left -= segment.bytes;
            doomed.push(segment.path);
        }
        if doomed.is_empty() {
            return; // disk fits: what memory holds over it awaits a retry
        }
        let (sigs, bytes) = self.db.drop_below(wal.live[0].first);
        drop(wal);
        for path in &doomed {
            if let Err(e) = fs::remove_file(path) {
                self.wal_error("gc delete", &e);
            }
        }
        self.metrics.gc_runs.inc();
        self.metrics.gc_evicted_sigs.add(sigs as u64);
        self.metrics.gc_evicted_bytes.add(bytes as u64);
        self.metrics.gc_segments_deleted.add(doomed.len() as u64);
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(flusher) = self.flusher.take() {
            drop(flusher.stop);
            let _ = flusher.join.join();
        }
        let _ = self.sync();
    }
}

fn spawn_flusher(wal: Arc<Mutex<Wal>>, interval: Duration, metrics: StoreMetrics) -> Flusher {
    let (stop, wake) = mpsc::channel::<()>();
    let join = std::thread::Builder::new()
        .name("communix-wal-flush".into())
        .spawn(move || loop {
            let done = !matches!(
                wake.recv_timeout(interval),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            if metrics.sync(&mut wal.lock()).is_err() {
                metrics.wal_errors.inc();
            }
            if done {
                return;
            }
        })
        .expect("spawn wal flusher");
    Flusher { stop, join }
}

// ---------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------

/// The open write-ahead log: the segment being written, and what every
/// live segment holds.
#[derive(Debug)]
struct Wal {
    dir: PathBuf,
    file: File,
    seg_bytes: u64,
    segment_limit: u64,
    dirty: bool,
    /// The index the next record written holds.
    next: usize,
    /// Records whose write failed, in index order, from `next` on.
    pending: VecDeque<Vec<u8>>,
    /// Every segment on disk, oldest first, the one being written last.
    live: VecDeque<Segment>,
}

/// A live segment: its file, the index of its first record, and the
/// signature bytes in it.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    first: usize,
    bytes: u64,
}

fn segment_path(dir: &Path, first: usize) -> PathBuf {
    dir.join(format!("wal-{first:020}.log"))
}

/// Where a segment file's name puts it in the log: `wal-{first}.log` at
/// index `first`, or — the older naming, which carries no index —
/// `wal-{epoch}-{seq}.log` `seq`-th, before every segment named by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Name {
    Legacy(u64),
    First(usize),
}

fn parse_segment_name(name: &str) -> Option<Name> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    Some(match rest.split_once('-') {
        Some((epoch, seq)) => {
            epoch.parse::<u64>().ok()?;
            Name::Legacy(seq.parse().ok()?)
        }
        None => Name::First(rest.parse().ok()?),
    })
}

/// Every WAL segment under `dir`, in log order.
fn list_segments(dir: &Path) -> io::Result<Vec<(Name, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((name, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// A new segment at `path`, written over one that holds no record.
fn create_segment(path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    file.write_all(WAL_MAGIC)?;
    Ok(file)
}

impl Wal {
    /// Writes one [`record::frame`]d record, the next index's, behind any
    /// awaiting a retry; one whose write fails awaits it too.
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let written = self.write_pending().and_then(|()| self.write(record));
        if written.is_err() {
            self.pending.push_back(record.to_vec());
        }
        written
    }

    /// Writes the records awaiting a retry, in a new segment at the first
    /// one's index: the one a write failed in may end in a torn record.
    fn write_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.roll()?;
        while let Some(record) = self.pending.pop_front() {
            if let Err(e) = self.write(&record) {
                self.pending.push_front(record);
                return Err(e);
            }
        }
        Ok(())
    }

    fn write(&mut self, record: &[u8]) -> io::Result<()> {
        if self.seg_bytes >= self.segment_limit {
            self.roll()?;
        }
        self.file.write_all(record)?;
        self.seg_bytes += record.len() as u64;
        self.dirty = true;
        self.next += 1;
        // Signature bytes: the record less its length and CRC.
        self.live.back_mut().expect("the open segment").bytes += record.len() as u64 - 8;
        Ok(())
    }

    /// Fsyncs if dirty; returns whether a sync happened.
    fn sync(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        self.file.sync_data()?;
        self.dirty = false;
        Ok(true)
    }

    /// Seals the current segment (fsync) and opens one at the next index,
    /// in place of the current one if that holds no record.
    fn roll(&mut self) -> io::Result<()> {
        self.sync()?;
        let path = segment_path(&self.dir, self.next);
        self.file = create_segment(&path)?;
        if self.live.back().is_some_and(|s| s.first == self.next) {
            self.live.pop_back();
        }
        let first = self.next;
        self.live.push_back(Segment {
            path,
            first,
            bytes: 0,
        });
        self.seg_bytes = WAL_MAGIC.len() as u64;
        self.dirty = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Replay + recovery
// ---------------------------------------------------------------------

/// Replays a segment's bytes into `db`, each record at the next index:
/// `(records, signature bytes, torn)`. A foreign magic is torn.
fn replay_segment(data: &[u8], db: &SignatureDb) -> (u64, u64, bool) {
    let Some(body) = data.strip_prefix(WAL_MAGIC) else {
        return (0, 0, true);
    };
    let mut sig_bytes = 0u64;
    let (records, valid_len) = record::replay(body, |text| {
        sig_bytes += text.len() as u64;
        db.replay(text);
    });
    (records, sig_bytes, valid_len < body.len())
}

/// Replays the newest contiguous run of segments under `config.dir` and
/// opens the log behind it.
fn recover(config: &DurabilityConfig) -> io::Result<(SignatureDb, RecoveryReport, Wal)> {
    let dir = &config.dir;
    fs::create_dir_all(dir)?;
    let legacy = dir.join(LEGACY_SNAPSHOT);
    if legacy.exists() {
        // Replaying only the segments would silently serve just what
        // was added after that file was written.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: the snapshotting layout is not read", legacy.display()),
        ));
    }
    let mut db = SignatureDb::new();
    let mut report = RecoveryReport::default();
    let (mut live, mut aside, mut empty) = (VecDeque::new(), Vec::new(), Vec::new());
    for (name, path) in list_segments(dir)? {
        let data = fs::read(&path)?;
        let next = db.base() + db.len();
        let first = match name {
            Name::First(first) => first,
            Name::Legacy(_) => next,
        };
        if first != next {
            // What was replayed is behind a gap.
            aside.extend(live.drain(..).map(|s: Segment| s.path));
            db = SignatureDb::starting_at(first);
        }
        let (records, bytes, torn) = replay_segment(&data, &db);
        report.torn_tail |= torn;
        if records > 0 {
            live.push_back(Segment { path, first, bytes });
        } else if data.len() > WAL_MAGIC.len() {
            aside.push(path);
        } else {
            empty.push(path);
        }
    }
    report.wal_records = db.len() as u64;
    report.evicted_segments = aside.len() as u64;
    for path in &aside {
        fs::rename(path, path.with_extension("log.evicted"))?;
    }
    // Give the older naming its indices, newest first: a failure part way
    // leaves a prefix in that naming that still starts at index 0 and
    // ends where the renamed segments begin.
    for segment in live.iter_mut().rev() {
        let name = segment.path.file_name().and_then(|n| n.to_str());
        if let Some(Name::Legacy(_)) = name.and_then(parse_segment_name) {
            let path = segment_path(dir, segment.first);
            fs::rename(&segment.path, &path)?;
            segment.path = path;
        }
    }
    // Eighth of the cap at most, so a GC pass lands within 5/8–3/4 of it.
    let limit = config.wal_segment_bytes;
    let next = db.base() + db.len();
    let path = segment_path(dir, next);
    let file = create_segment(&path)?;
    live.push_back(Segment {
        path,
        first: next,
        bytes: 0,
    });
    let wal = Wal {
        dir: dir.clone(),
        file,
        seg_bytes: WAL_MAGIC.len() as u64,
        segment_limit: config.max_bytes.map_or(limit, |cap| limit.min(cap / 8)),
        dirty: true, // the magic itself
        next,
        pending: VecDeque::new(),
        live,
    };
    // Only now that the fresh segment says where the log goes on; a
    // restart loop reuses one name instead of growing the directory.
    let fresh = &wal.live.back().expect("fresh").path;
    for path in empty.iter().filter(|&p| p != fresh) {
        let _ = fs::remove_file(path);
    }
    Ok((db, report, wal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use communix_net::record::frame;

    static DIRS: AtomicUsize = AtomicUsize::new(0);

    /// A fresh scratch directory (unique per process × test callsite).
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "communix-store-{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Durability config tuned for tests: tiny segments, no background
    /// flusher (fsync per append keeps everything deterministic).
    fn test_config(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            fsync_interval: Duration::ZERO,
            wal_segment_bytes: 256,
            max_bytes: None,
            ..DurabilityConfig::new(dir)
        }
    }

    /// Opens `dir` under `test_config` with a byte cap.
    fn open(dir: &Path, max_bytes: Option<u64>, registry: &Registry) -> Store {
        let config = DurabilityConfig {
            max_bytes,
            ..test_config(dir)
        };
        Store::open(2, config, registry).unwrap()
    }

    /// Adds the ten-byte signatures `sig-000000`… numbered by `range`.
    fn fill(store: &Store, range: std::ops::Range<usize>) {
        for i in range {
            store.add(&format!("sig-{i:06}"));
        }
    }

    /// The live log as `(base, texts)`: what a client can be served.
    fn served(store: &Store) -> (usize, Vec<String>) {
        (store.db().base(), store.db().get_from(0))
    }

    /// Every segment under `dir` with its name's first index, in order.
    fn segments(dir: &Path) -> Vec<(usize, PathBuf)> {
        let named = |(name, path)| match name {
            Name::First(first) => (first, path),
            Name::Legacy(_) => panic!("{path:?}: the older naming is left"),
        };
        list_segments(dir).unwrap().into_iter().map(named).collect()
    }

    #[test]
    fn in_memory_store_matches_db_semantics() {
        let store = Store::in_memory(4);
        assert_eq!(store.add("a"), (0, true));
        assert_eq!(store.add("a"), (0, false));
        assert_eq!(store.add("b"), (1, true));
        assert_eq!(store.len(), 2);
        assert_eq!(store.db().get_from(1), vec!["b"]);
        assert_eq!(store.db.window(0, 1), (0, vec![Arc::from("a")], 2));
        assert!(!store.is_durable());
        assert!(store.sync().is_ok());
        assert!(store.snapshot().is_ok());
    }

    #[test]
    fn wal_roundtrip_recovers_all_sigs_in_order() {
        let dir = scratch("roundtrip");
        let registry = Registry::new();
        {
            let store = Store::open(4, test_config(&dir), &registry).unwrap();
            for i in 0..50 {
                store.add(&format!("sig-{i:04}"));
            }
            assert_eq!(store.recovery(), RecoveryReport::default());
        }
        let store = Store::open(4, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.len(), 50);
        let expect: Vec<String> = (0..50).map(|i| format!("sig-{i:04}")).collect();
        assert_eq!(store.db().get_from(0), expect, "WAL replay preserves order");
        let report = store.recovery();
        assert_eq!(report.wal_records, 50);
        assert!(!report.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_dropped_not_fatal() {
        let dir = scratch("torn");
        {
            let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
            for i in 0..10 {
                store.add(&format!("torn-sig-{i}"));
            }
        }
        // Truncate the tail of the newest segment: a crash mid-write.
        let (_, last) = segments(&dir).pop().expect("a segment");
        let data = fs::read(&last).unwrap();
        fs::write(&last, &data[..data.len() - 5]).unwrap();

        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        let report = store.recovery();
        assert!(report.torn_tail, "truncation must be detected");
        assert_eq!(store.len(), 9, "all records before the torn one survive");
        assert!(store.db.contains("torn-sig-8").is_some());
        assert!(store.db.contains("torn-sig-9").is_none());
        // The torn record's index goes to the next signature: no client
        // was promised it past a restart (ROADMAP item 15).
        assert_eq!(store.add("after-the-tear"), (9, true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_record_stops_replay_at_the_corruption() {
        let dir = scratch("corrupt");
        {
            let config = DurabilityConfig {
                wal_segment_bytes: 1 << 20, // keep everything in one segment
                ..test_config(&dir)
            };
            let store = Store::open(2, config, &Registry::new()).unwrap();
            for i in 0..10 {
                store.add(&format!("corrupt-sig-{i}"));
            }
        }
        // Flip a payload byte in the middle of the segment: CRC framing
        // must refuse the record and everything after it.
        let (_, seg) = segments(&dir).pop().unwrap();
        let mut data = fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&seg, &data).unwrap();

        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        assert!(store.recovery().torn_tail);
        assert!(store.len() < 10, "replay stopped at the corruption");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_record_mid_log_evicts_what_is_behind_it_and_renumbers_nothing() {
        // Corrupt the first, then the second record of the middle segment:
        // its replay stops short of where the next segment starts.
        for corrupt in 0..2 {
            let dir = scratch("gap");
            let registry = Registry::new();
            let log = {
                let store = open(&dir, None, &Registry::new());
                fill(&store, 0..40);
                store.db().get_from(0)
            };
            let all = segments(&dir);
            let (first, path) = all[all.len() / 2].clone();
            let mut data = fs::read(&path).unwrap();
            data[WAL_MAGIC.len() + 18 * corrupt + 12] ^= 0xFF;
            fs::write(&path, &data).unwrap();
            let behind: Vec<_> = all.iter().filter(|(f, _)| *f <= first).collect();
            let bytes: Vec<_> = behind.iter().map(|(_, p)| fs::read(p).unwrap()).collect();

            let store = open(&dir, None, &registry);
            let after = all[all.len() / 2 + 1].0;
            let report = store.recovery();
            assert!(report.torn_tail);
            assert_eq!(report.evicted_segments, bytes.len() as u64, "the gap's");
            assert_eq!(
                registry.counter("store.wal.evicted_segments").get(),
                bytes.len() as u64
            );
            assert_eq!(report.wal_records, (40 - after) as u64);
            // Every index recovered after the gap keeps its text.
            assert_eq!(served(&store), (after, log[after..].to_vec()));
            for (i, text) in log.iter().enumerate().skip(after) {
                assert_eq!(store.db.contains(text), Some(i), "{text} moved");
            }
            assert_eq!(store.add("after-the-gap"), (40, true));
            let kept = served(&store);
            drop(store);
            // Set aside, not deleted: every evicted segment keeps its bytes.
            for ((_, path), data) in behind.iter().zip(&bytes) {
                assert!(!path.exists());
                assert_eq!(&fs::read(path.with_extension("log.evicted")).unwrap(), data);
            }
            // A second recovery is a no-op: the evicted segments are aside.
            let again = open(&dir, None, &Registry::new());
            assert_eq!(again.recovery().evicted_segments, 0);
            assert!(!again.recovery().torn_tail);
            assert_eq!(served(&again), kept);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rolled_segments_recover_in_order_and_nothing_rewrites_them() {
        let dir = scratch("segments");
        let registry = Registry::new();
        {
            let store = open(&dir, None, &registry);
            fill(&store, 0..40);
            store.snapshot().unwrap(); // `sync` under its old name
        }
        let rolled = segments(&dir);
        assert!(rolled.len() > 1, "tiny segments must have rolled");
        // Each name is the index of the segment's first record.
        let mut at = 0;
        for (first, path) in &rolled {
            assert_eq!(*first, at, "{path:?}");
            at += record::replay(&fs::read(path).unwrap()[8..], |_| {}).0 as usize;
        }
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(parse_segment_name(&name).is_some(), "{name}: not a segment");
        }
        // Each payload byte is written once, behind 8 bytes of framing.
        assert_eq!(registry.counter("store.wal.bytes").get(), 40 * (10 + 8));
        let store = open(&dir, None, &Registry::new());
        let expect: Vec<String> = (0..40).map(|i| format!("sig-{i:06}")).collect();
        assert_eq!(
            store.db().get_from(0),
            expect,
            "segments replay in write order"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_of_the_epoch_naming_recovers_at_index_0_and_is_renamed() {
        let dir = scratch("legacy-names");
        fs::create_dir_all(&dir).unwrap();
        // Two epochs' segments, in `seq` order: the second repeats a text,
        // which takes its own index, as every record does.
        let legacy = |name: &str, texts: &[&str]| {
            let mut data = WAL_MAGIC.to_vec();
            for t in texts {
                data.extend(frame(t));
            }
            fs::write(dir.join(name), data).unwrap();
        };
        legacy("wal-0000000000-0000000003.log", &["a", "b", "c"]);
        legacy("wal-0000000000-0000000004.log", &[]);
        legacy("wal-0000000001-0000000007.log", &["d", "a", "e"]);
        let log = ["a", "b", "c", "d", "a", "e"].map(String::from).to_vec();
        let store = open(&dir, None, &Registry::new());
        assert_eq!(served(&store), (0, log.clone()));
        assert_eq!(store.recovery().wal_records, 6);
        assert_eq!(store.db.contains("a"), Some(0));
        assert_eq!(store.add("f"), (6, true));
        drop(store);
        let names: Vec<usize> = segments(&dir).into_iter().map(|(first, _)| first).collect();
        assert_eq!(names, [0, 3, 6], "renamed by first index");
        let store = open(&dir, None, &Registry::new());
        assert_eq!(store.db().get_from(6), ["f"]);
        assert_eq!(store.len(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_gc_evicts_a_prefix_and_keeps_every_index() {
        let dir = scratch("gc");
        let registry = Registry::new();
        let store = open(&dir, Some(400), &registry);
        // 10-byte signatures; the cap admits ~40 before GC.
        fill(&store, 0..60);
        assert!(registry.counter("store.gc.runs").get() > 0, "cap overshoot");
        assert!(store.db.stored_bytes() <= 400, "under the cap after GC");
        let (base, live) = served(&store);
        assert!(base > 0, "the oldest signatures were evicted");
        assert!(store.db.contains("sig-000000").is_none());
        assert_eq!(live.len(), 60 - base);
        // Nothing renumbered: each survivor is where it was added, and the
        // total is still the next index.
        for i in base..60 {
            assert_eq!(store.db.contains(&format!("sig-{i:06}")), Some(i));
        }
        let (from, window, total) = store.db.window(0, 0);
        assert_eq!((from, window.len(), total), (base, live.len(), 60));
        assert_eq!(
            registry.counter("store.gc.evicted_sigs").get(),
            base as u64,
            "every eviction counted"
        );
        // The GC'd state is what a restart recovers.
        drop(store);
        let reopened = open(&dir, Some(400), &Registry::new());
        assert_eq!(served(&reopened), (base, live));
        assert_eq!(reopened.add("sig-000060"), (60, true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshotting_layout_directory_is_refused() {
        let dir = scratch("legacy");
        drop(open(&dir, None, &Registry::new()));
        fs::write(dir.join(LEGACY_SNAPSHOT), b"the store as of some cut").unwrap();
        let err = Store::open(2, test_config(&dir), &Registry::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(LEGACY_SNAPSHOT), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_loop_keeps_the_base_and_does_not_grow_the_directory() {
        let dir = scratch("restarts");
        let registry = Registry::new();
        let store = open(&dir, Some(400), &registry);
        fill(&store, 0..41); // the 41st trips the GC
        assert_eq!(registry.counter("store.gc.runs").get(), 1);
        let kept = served(&store);
        assert!(kept.0 > 0);
        drop(store);
        // The first restart adds its fresh segment; later ones reuse it.
        drop(open(&dir, Some(400), &Registry::new()));
        let segments = list_segments(&dir).unwrap().len();
        for _ in 0..5 {
            let store = open(&dir, Some(400), &Registry::new());
            assert_eq!(served(&store), kept, "the base lives in the names");
            drop(store);
            assert_eq!(list_segments(&dir).unwrap().len(), segments, "grew");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_whose_every_record_was_evicted_goes_on_at_its_next_index() {
        let dir = scratch("all-evicted");
        drop(open(&dir, None, &Registry::new()));
        // A restart's fresh segment, then every record segment deleted:
        // the empty segment alone says where the log goes on.
        fill(&open(&dir, None, &Registry::new()), 0..12);
        drop(open(&dir, None, &Registry::new()));
        for (first, path) in segments(&dir) {
            if first < 12 {
                fs::remove_file(path).unwrap();
            }
        }
        let store = open(&dir, None, &Registry::new());
        assert_eq!(served(&store), (12, Vec::new()));
        assert_eq!(store.add("sig-000012"), (12, true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_gc_crash_point_recovers_a_suffix_at_its_indices() {
        let dir = scratch("gc-crash");
        let store = open(&dir, None, &Registry::new());
        fill(&store, 0..60);
        let log = store.db().get_from(0);
        drop(store);
        let old = segments(&dir);
        assert!(old.len() > 3, "a multi-segment log");
        // A GC pass by hand: the deletes, oldest first. Die before the
        // first, and after each but the last (GC keeps the segment being
        // written).
        for deleted in 0..old.len() {
            if deleted > 0 {
                fs::remove_file(&old[deleted - 1].1).unwrap();
            }
            let base = old[deleted].0;
            let first = open(&dir, None, &Registry::new());
            assert_eq!(
                served(&first),
                (base, log[base..].to_vec()),
                "died after {deleted} deletes"
            );
            drop(first);
            let again = open(&dir, None, &Registry::new());
            assert_eq!(again.recovery().evicted_segments, 0);
            assert_eq!(
                served(&again),
                (base, log[base..].to_vec()),
                "recovered differently"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_counts_delete_errors_and_keeps_serving() {
        let dir = scratch("gc-errors");
        let registry = Registry::new();
        let store = open(&dir, Some(400), &registry);
        fill(&store, 0..30);
        // Three to a segment. A directory cannot be unlinked as a file:
        // the oldest segment will fail its delete.
        let (_, oldest) = segments(&dir)[0].clone();
        let bytes = fs::read(&oldest).unwrap();
        fs::remove_file(&oldest).unwrap();
        fs::create_dir(&oldest).unwrap();
        fill(&store, 30..41); // the 41st trips the GC
        assert_eq!(
            registry.counter("store.gc.runs").get(),
            1,
            "the pass finished"
        );
        assert_eq!(registry.counter("store.wal.errors").get(), 1);
        assert_eq!(registry.counter("store.gc.segments_deleted").get(), 4);
        // Memory dropped the segment it failed to delete all the same.
        assert_eq!(served(&store), (12, store.db().get_from(12)));
        assert_eq!(store.len(), 41 - 12);
        assert_eq!(store.add("served-after-the-gc"), (41, true));
        let memory = served(&store);
        drop(store);
        // The segment GC failed to delete is back as a file: behind the
        // gap its deleted neighbours leave, it is evicted, not served.
        fs::remove_dir(&oldest).unwrap();
        fs::write(&oldest, bytes).unwrap();
        let reopened = open(&dir, Some(400), &registry);
        assert_eq!(reopened.recovery().evicted_segments, 1);
        assert!(oldest.with_extension("log.evicted").exists(), "set aside");
        assert_eq!(served(&reopened), memory);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_is_retried_at_its_own_index_and_a_restart_keeps_every_one() {
        let dir = scratch("append-error");
        let registry = Registry::new();
        let store = open(&dir, None, &registry);
        // A read-only handle on the segment being written: the next write
        // fails, as on EIO or ENOSPC.
        let fail_next_write = |store: &Store| {
            let mut wal = store.wal.as_ref().unwrap().lock();
            wal.file = File::open(&wal.live.back().unwrap().path).unwrap();
        };
        fill(&store, 0..2);
        fail_next_write(&store);
        fill(&store, 2..5); // index 2 fails; index 3's append writes it first
        assert_eq!(registry.counter("store.wal.errors").get(), 1);
        fail_next_write(&store);
        fill(&store, 5..6); // fails; the sync on drop writes it
        let log = store.db().get_from(0);
        drop(store);
        assert_eq!(registry.counter("store.wal.errors").get(), 2);
        let names: Vec<usize> = segments(&dir).into_iter().map(|(first, _)| first).collect();
        assert_eq!(names, [0, 2, 5], "each retry opens a segment at its index");
        let store = open(&dir, None, &Registry::new());
        assert_eq!(store.recovery().evicted_segments, 0);
        assert_eq!(served(&store), (0, log));
        assert_eq!(store.add("sig-000006"), (6, true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_flusher_syncs_in_background() {
        let dir = scratch("flush");
        let registry = Registry::new();
        let config = DurabilityConfig {
            fsync_interval: Duration::from_millis(1),
            ..test_config(&dir)
        };
        let store = Store::open(2, config, &registry).unwrap();
        for i in 0..20 {
            store.add(&format!("bg-{i}"));
        }
        let fsyncs = registry.counter("store.wal.fsyncs");
        let deadline = Instant::now() + Duration::from_secs(5);
        while fsyncs.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fsyncs.get() > 0, "background flusher must have fsync'd");
        let snap = registry.snapshot();
        assert!(
            snap.merged_histogram("store.wal.fsync").count() > 0,
            "fsync latency lands in the histogram"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_counters_cover_the_wal() {
        let dir = scratch("telemetry");
        let registry = Registry::new();
        {
            let store = Store::open(2, test_config(&dir), &registry).unwrap();
            for i in 0..5 {
                store.add(&format!("tele-{i}"));
            }
            store.add("tele-0"); // duplicate: not journaled
            assert_eq!(registry.counter("store.wal.appends").get(), 5);
            assert!(registry.counter("store.wal.bytes").get() > 0);
        }
        let registry2 = Registry::new();
        let _store = Store::open(2, test_config(&dir), &registry2).unwrap();
        assert_eq!(registry2.counter("store.wal.replayed").get(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_adds_survive_restart() {
        let dir = scratch("concurrent");
        let served = {
            let store = Arc::new(Store::open(8, test_config(&dir), &Registry::new()).unwrap());
            let mut handles = Vec::new();
            for t in 0..4 {
                let store = store.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..50 {
                        store.add(&format!("conc-{t}-{i}"));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(store.len(), 200);
            store.db().get_from(0)
        };
        let store = Store::open(8, test_config(&dir), &Registry::new()).unwrap();
        assert_eq!(store.len(), 200, "every concurrently-acked add recovered");
        for t in 0..4 {
            for i in 0..50 {
                assert!(store.db.contains(&format!("conc-{t}-{i}")).is_some());
            }
        }
        assert_eq!(
            store.db().get_from(0),
            served,
            "recovered in the order served"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_order_survives_a_restart_under_concurrent_adds() {
        // The index is the client's cursor (`GET_DELTA(from)`), so the
        // order a burst was served in is state a restart must keep: a
        // client that paged to the middle asks for the rest by index.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        for round in 0..20 {
            let dir = scratch("order");
            let registry = Registry::new();
            let store = Store::open(8, DurabilityConfig::new(&dir), &registry).unwrap();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (store, start) = (&store, &start);
                    s.spawn(move || {
                        let pad = "x".repeat(180);
                        start.wait();
                        for i in 0..PER_THREAD {
                            store.add(&format!("order-{t}-{i:05}-{pad}"));
                            if i % 100 == 0 {
                                // Every thread races the same text in:
                                // one is stored, none is journaled twice.
                                store.add(&format!("order-shared-{i:05}-{pad}"));
                            }
                        }
                    });
                }
            });
            let served = store.db().get_from(0);
            let total = served.len();
            assert_eq!(total, THREADS * PER_THREAD + PER_THREAD / 100);
            assert_eq!(
                registry.counter("store.wal.appends").get(),
                total as u64,
                "a duplicate journals nothing"
            );
            store.sync().unwrap();
            drop(store);
            let reopened = Store::open(8, DurabilityConfig::new(&dir), &Registry::new()).unwrap();
            let recovered = reopened.db().get_from(0);
            assert_eq!(recovered.len(), served.len(), "round {round}");
            let moved: Vec<usize> = (0..total).filter(|&i| served[i] != recovered[i]).collect();
            assert!(
                moved.is_empty(),
                "round {round}: the recovered order differs from the served one from \
                 slot {} on ({} of {total} slots hold another text)",
                moved[0],
                moved.len()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(
            parse_segment_name("wal-0000000003-0000000041.log"),
            Some(Name::Legacy(41))
        );
        assert_eq!(parse_segment_name("wal-3-41.log"), Some(Name::Legacy(41)));
        assert_eq!(parse_segment_name("wal-41.log"), Some(Name::First(41)));
        assert_eq!(parse_segment_name("snapshot.bin"), None);
        assert_eq!(parse_segment_name("wal-x-1.log"), None);
        let p = segment_path(Path::new("/d"), 41);
        let name = parse_segment_name(p.file_name().unwrap().to_str().unwrap());
        assert_eq!(name, Some(Name::First(41)));
        assert!(
            Name::Legacy(u64::MAX) < Name::First(0),
            "the older naming first"
        );
    }
}
