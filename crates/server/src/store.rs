//! Durable signature store: a write-ahead log + bounded GC wrapped
//! around [`SignatureDb`], behind one unified [`Store`] API. The log *is*
//! the store: its segments are the only on-disk format and nothing in
//! them is ever rewritten.
//!
//! The immunity network is only useful if accumulated signatures survive
//! a server restart (ROADMAP "Durable store"). Dedup'd ADDs commute for
//! the stored *set*, but the *index* is the client's cursor
//! (`GET_DELTA(from)`), so a restart must number the log the way it was
//! served. One lock does it: [`Store::add`] frames the record first, then
//! the database assigns the index and the record is written under its
//! append lock — index order = journal order = recovered order. Recovery
//! replays the segments with no metadata beyond their sequence order, and
//! a segment dropped whole is a valid cut of the log. Signatures are
//! unique, append-only and never modified, so there is nothing to
//! compact: a second, "compacted" copy of the store would hold the same
//! bytes in the same framing (the WAL writes 1.005 bytes per byte stored).
//!
//! # On-disk layout (`DurabilityConfig::dir`)
//!
//! `wal-{epoch:010}-{seq:010}.log` segments and nothing else. Each starts
//! with the 8-byte magic `CXWAL001` followed by records framed as
//! `[len: u32 LE][crc32(payload): u32 LE][payload]`, one per accepted
//! signature, where `payload` is the signature text (UTF-8). The framing,
//! the CRC and the replay walk live in [`communix_net::record`], the one
//! log format the client's local repository writes too. Records are
//! buffered by the OS and fsync'd on a group-commit interval
//! ([`DurabilityConfig::fsync_interval`]; zero means fsync on every
//! append). A torn final record — the crash case group commit tolerates
//! by design — is detected by the length/CRC framing and dropped on
//! replay. `seq` grows by one per segment for the life of the directory;
//! `epoch` is the GC generation the segment was opened under.
//!
//! # Bounded GC and the epoch rule
//!
//! With [`DurabilityConfig::max_bytes`] set, the store is
//! capacity-bounded: when stored bytes exceed the cap, GC — under the
//! database write lock — seals the current segment, opens the next one
//! under `epoch + 1`, fsyncs the directory, deletes the *oldest* whole
//! segments until the signature bytes left fit in 3/4 of the cap, and
//! rebuilds the database by replaying the survivors: the same replay a
//! restart does, so memory equals disk by construction and a crash
//! anywhere in the pass leaves a suffix of the log under the new epoch.
//! Segments roll at 1/8 of the cap at most, so a pass lands between 5/8
//! and 3/4 of it. Indices restart from zero in the new epoch, so
//! `GET_DELTA`'s `total` shrinks below a synced client's cursor — that is
//! the wire-visible epoch signal (`total < from`), and `sync_delta`
//! reacts by re-syncing from zero with a dedup merge; no wire tag changes.
//!
//! # Recovery
//!
//! [`Store::open`] takes the epoch from the largest one in the segment
//! names, replays every segment in sequence order through the dedup'd
//! add path (idempotent, so a repeated record is harmless), stops within
//! a segment at its first torn or corrupt record, opens a fresh segment
//! for new writes, and removes the header-only segments earlier opens
//! left behind. The [`RecoveryReport`] is kept for inspection and
//! mirrored into the `store.*` telemetry counters.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use communix_net::record;
use communix_telemetry::{Counter, Histogram, Registry};
use parking_lot::{Mutex, RwLock};

use crate::db::SignatureDb;

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
    /// the epoch-bumping GC; `None` leaves the store unbounded.
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
    /// Epoch recovered into: the largest in the segment names, else 0.
    pub epoch: u64,
    /// Records replayed from WAL segments (before dedup).
    pub wal_records: u64,
    /// Whether replay stopped at a torn/corrupt trailing record.
    pub torn_tail: bool,
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
            gc_runs: registry.counter("store.gc.runs"),
            gc_evicted_sigs: registry.counter("store.gc.evicted_sigs"),
            gc_evicted_bytes: registry.counter("store.gc.evicted_bytes"),
            gc_segments_deleted: registry.counter("store.gc.segments_deleted"),
            fsync_latency: registry.histogram("store.wal.fsync"),
        }
    }

    /// Fsyncs `wal` if dirty, counting and timing a sync that happened.
    fn sync(&self, wal: &mut Wal) -> io::Result<()> {
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

/// The unified signature store: [`SignatureDb`] semantics (dedup'd
/// append-only adds, index-addressed reads) with optional durability.
///
/// In-memory ([`Store::in_memory`]) it is a thin veneer over
/// [`SignatureDb`]. Durable ([`Store::open`]) it journals every accepted
/// add to a write-ahead log and — with a byte cap — garbage-collects
/// oldest-first, whole segments at a time, under a new epoch. All
/// methods are thread-safe; reads never block on WAL I/O.
#[derive(Debug)]
pub struct Store {
    /// Swapped wholesale by the epoch-bumping GC; adds hold the read
    /// lock across the journaled add so a GC cannot strand an add
    /// between the old database and the new WAL epoch.
    inner: RwLock<Arc<SignatureDb>>,
    epoch: AtomicU64,
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
            inner: RwLock::new(Arc::new(SignatureDb::new())),
            epoch: AtomicU64::new(0),
            wal: None,
            max_bytes: None,
            sync_every_append: false,
            metrics: StoreMetrics::resolve(registry),
            recovery: RecoveryReport::default(),
            flusher: None,
        }
    }

    /// Opens (or creates) a durable store under `config.dir`,
    /// recovering by replaying every WAL segment in sequence order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory, reading a
    /// segment, or opening the fresh WAL segment, and refuses
    /// (`InvalidData`) a directory of the retired snapshotting layout.
    /// A torn trailing WAL record is *not* an error — replay stops there
    /// and reports it in [`Store::recovery`]. The first argument is
    /// unused: it stays because `benchmark/` passes it (ROADMAP item 1A
    /// retires it).
    pub fn open(_shards: usize, config: DurabilityConfig, registry: &Registry) -> io::Result<Self> {
        let metrics = StoreMetrics::resolve(registry);
        let (db, recovery, wal) = recover(&config)?;
        metrics.wal_replayed.add(recovery.wal_records);
        if recovery.torn_tail {
            metrics.wal_torn.inc();
        }
        let wal = Arc::new(Mutex::new(wal));
        let sync_every_append = config.fsync_interval.is_zero();
        let flusher = (!sync_every_append)
            .then(|| spawn_flusher(wal.clone(), config.fsync_interval, metrics.clone()));
        Ok(Store {
            inner: RwLock::new(Arc::new(db)),
            epoch: AtomicU64::new(recovery.epoch),
            wal: Some(wal),
            max_bytes: config.max_bytes,
            sync_every_append,
            metrics,
            recovery,
            flusher,
        })
    }

    /// The current database epoch (bumped by each GC pass).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether this store journals to disk.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// What [`Store::open`] found on disk (all-zero for in-memory
    /// stores).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The current in-memory database. The `Arc` pins one epoch's
    /// database: reads through it are coherent even across a concurrent
    /// GC swap (they just see the pre-GC epoch).
    pub fn db(&self) -> Arc<SignatureDb> {
        self.inner.read().clone()
    }

    /// Appends `sig_text` unless already stored; journals genuinely new
    /// signatures to the WAL. Returns `(index, newly_added)` — exactly
    /// [`SignatureDb::add`]'s contract.
    pub fn add(&self, sig_text: &str) -> (usize, bool) {
        let (i, added) = {
            let db = self.inner.read();
            let Some(wal) = &self.wal else {
                return db.add(sig_text);
            };
            // Framed (CRC included) before the append lock, written under
            // it: the record lands in the log at the signature's index.
            let record = record::frame(sig_text);
            db.add_with(sig_text, |_| {
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
                    // A WAL write failure degrades durability, not
                    // availability: the add stays served from memory,
                    // the failure is counted and logged.
                    Err(e) => self.wal_error("append", &e),
                }
            })
        };
        // An uncapped store pays nothing for the cap.
        if let (true, Some(cap)) = (added, self.max_bytes) {
            if self.inner.read().stored_bytes() as u64 > cap {
                if let Err(e) = self.gc(cap) {
                    self.wal_error("gc", &e);
                }
            }
        }
        (i, added)
    }

    /// Index of `sig_text` if stored (dedup fast path).
    pub fn contains(&self, sig_text: &str) -> Option<usize> {
        self.db().contains(sig_text)
    }

    /// Number of stored signatures (current epoch).
    pub fn len(&self) -> usize {
        self.db().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.db().is_empty()
    }

    /// Total bytes of stored signature text.
    pub fn stored_bytes(&self) -> usize {
        self.db().stored_bytes()
    }

    /// Flushes and fsyncs the WAL now (no-op in-memory). Called on drop;
    /// tests call it before simulating a crash that must be durable.
    ///
    /// # Errors
    ///
    /// Propagates the flush/fsync failure.
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

    /// Epoch-bumping GC: cut the log under a new epoch, delete the
    /// oldest whole segments until what is left fits in 3/4 of the cap,
    /// rebuild the database from the survivors. Holds the database write
    /// lock throughout — a stop-the-world pass, by design rare (it runs
    /// once per cap overshoot, not per add).
    fn gc(&self, cap: u64) -> io::Result<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut guard = self.inner.write();
        let (old_sigs, old_bytes) = (guard.len(), guard.stored_bytes() as u64);
        if old_bytes <= cap {
            return Ok(()); // racer already collected
        }
        let mut wal = wal.lock();
        let new_epoch = self.epoch() + 1;
        // Cut first: a failure here leaves the old epoch serving with
        // nothing deleted. From the directory fsync on, a crash at any
        // point recovers a suffix of the log under the new epoch.
        wal.roll(new_epoch)?;
        if let Ok(d) = File::open(&wal.dir) {
            let _ = d.sync_all();
        }
        let target = cap.saturating_mul(3) / 4;
        let mut left: u64 = wal.live.iter().map(|&(_, bytes)| bytes).sum();
        let (mut freed, mut deleted) = (0u64, 0u64);
        // At least one non-empty segment goes even when the log already
        // fits (appends had failed): the wire's shrink signal needs the
        // total to fall. The segment just opened (the back) stays.
        while wal.live.len() > 1 && (left > target || freed == 0) {
            let (path, bytes) = wal.live.pop_front().expect("len > 1");
            if let Err(e) = fs::remove_file(&path) {
                self.wal_error("gc delete", &e);
            }
            left -= bytes;
            freed += bytes;
            deleted += 1;
        }
        // The replay a restart does. A segment that cannot be read is
        // counted and skipped: memory never holds more than disk.
        let fresh = SignatureDb::new();
        for (path, _) in &wal.live {
            if let Err(e) = replay_segment(path, &fresh) {
                self.wal_error("gc replay", &e);
            }
        }
        self.metrics.gc_runs.inc();
        self.metrics
            .gc_evicted_sigs
            .add((old_sigs as u64).saturating_sub(fresh.len() as u64));
        self.metrics
            .gc_evicted_bytes
            .add(old_bytes.saturating_sub(fresh.stored_bytes() as u64));
        self.metrics.gc_segments_deleted.add(deleted);
        *guard = Arc::new(fresh);
        self.epoch.store(new_epoch, Ordering::Release);
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(flusher) = self.flusher.take() {
            drop(flusher.stop);
            let _ = flusher.join.join();
        }
        if let Some(wal) = &self.wal {
            let _ = wal.lock().sync();
        }
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

/// The open write-ahead log: one current segment file, rolled past the
/// size limit and at each GC cut, plus what every live segment holds.
#[derive(Debug)]
struct Wal {
    dir: PathBuf,
    epoch: u64,
    seq: u64,
    file: File,
    seg_bytes: u64,
    segment_limit: u64,
    dirty: bool,
    /// Every segment on disk, oldest first, with the signature bytes in
    /// it; the back is the one being written. GC reads what a delete
    /// frees from here instead of from the files.
    live: VecDeque<(PathBuf, u64)>,
}

fn segment_path(dir: &Path, epoch: u64, seq: u64) -> PathBuf {
    dir.join(format!("wal-{epoch:010}-{seq:010}.log"))
}

/// Parses `wal-{epoch}-{seq}.log` back into `(epoch, seq)`.
fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (epoch, seq) = rest.split_once('-')?;
    Some((epoch.parse().ok()?, seq.parse().ok()?))
}

/// Every WAL segment under `dir` as `(epoch, seq, path)`, in `seq`
/// order — the order they were written in, across epochs.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((epoch, seq)) = name.to_str().and_then(parse_segment_name) {
            segments.push((epoch, seq, entry.path()));
        }
    }
    segments.sort_by_key(|&(epoch, seq, _)| (seq, epoch));
    Ok(segments)
}

fn create_segment(path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new().create_new(true).write(true).open(path)?;
    file.write_all(WAL_MAGIC)?;
    Ok(file)
}

impl Wal {
    /// Opens a fresh segment `seq` under `epoch` behind the `sealed`
    /// segments recovery replayed.
    fn open(
        dir: PathBuf,
        epoch: u64,
        seq: u64,
        segment_limit: u64,
        mut live: VecDeque<(PathBuf, u64)>,
    ) -> io::Result<Self> {
        let path = segment_path(&dir, epoch, seq);
        let file = create_segment(&path)?;
        live.push_back((path, 0));
        Ok(Wal {
            dir,
            epoch,
            seq,
            file,
            seg_bytes: WAL_MAGIC.len() as u64,
            segment_limit,
            dirty: true, // the magic itself
            live,
        })
    }

    /// Writes one [`record::frame`]d record. Rolls to a new segment first when
    /// the current one is full.
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        if self.seg_bytes >= self.segment_limit {
            self.roll(self.epoch)?;
        }
        self.file.write_all(record)?;
        self.seg_bytes += record.len() as u64;
        self.dirty = true;
        // Signature bytes: the record less its length and CRC.
        self.live.back_mut().expect("the open segment").1 += record.len() as u64 - 8;
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

    /// Seals the current segment (fsync) and opens the next one under
    /// `epoch`: the same epoch when the segment is full, the next at a
    /// GC cut. Sealed segments are never written again.
    fn roll(&mut self, epoch: u64) -> io::Result<()> {
        self.sync()?;
        let path = segment_path(&self.dir, epoch, self.seq + 1);
        self.file = create_segment(&path)?;
        self.live.push_back((path, 0));
        self.epoch = epoch;
        self.seq += 1;
        self.seg_bytes = WAL_MAGIC.len() as u64;
        self.dirty = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Replay + recovery
// ---------------------------------------------------------------------

/// Replays the segment at `path` into `db` through the dedup'd add path
/// — what recovery and a GC rebuild both do. Returns `(records,
/// signature bytes, torn)`; a missing or foreign magic is a torn
/// segment with no records.
fn replay_segment(path: &Path, db: &SignatureDb) -> io::Result<(u64, u64, bool)> {
    let data = fs::read(path)?;
    let Some(body) = data.strip_prefix(WAL_MAGIC) else {
        return Ok((0, 0, true));
    };
    let mut sig_bytes = 0u64;
    let (records, valid_len) = record::replay(body, |text| {
        sig_bytes += text.len() as u64;
        db.add(text);
    });
    Ok((records, sig_bytes, valid_len < body.len()))
}

/// Replays every segment under `config.dir` into a fresh database and
/// opens the log behind them. Returns the database, the report, and the
/// log with a fresh segment for new writes.
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
    let db = SignatureDb::new();
    let segments = list_segments(dir)?;
    let mut report = RecoveryReport {
        epoch: segments.iter().map(|s| s.0).max().unwrap_or(0),
        ..RecoveryReport::default()
    };
    let next_seq = segments.last().map_or(0, |s| s.1 + 1);
    let (mut sealed, mut header_only) = (VecDeque::new(), Vec::new());
    for (_, _, path) in segments {
        let (records, sig_bytes, torn) = replay_segment(&path, &db)?;
        if records == 0 && !torn {
            header_only.push(path);
            continue;
        }
        report.wal_records += records;
        report.torn_tail |= torn;
        sealed.push_back((path, sig_bytes));
    }
    // Worked out from the cap, not a knob: with at least eight segments
    // to a full store, a GC pass that drops whole segments lands between
    // 5/8 and 3/4 of the cap.
    let limit = config.wal_segment_bytes;
    let limit = config.max_bytes.map_or(limit, |cap| limit.min(cap / 8));
    let wal = Wal::open(dir.clone(), report.epoch, next_seq, limit, sealed)?;
    // Every open creates a segment; sweep the ones earlier opens never
    // wrote to, so a restart loop cannot grow the directory. Only now:
    // until the fresh segment exists, one of these may be the only name
    // carrying the epoch.
    for path in &header_only {
        let _ = fs::remove_file(path);
    }
    Ok((db, report, wal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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

    #[test]
    fn in_memory_store_matches_db_semantics() {
        let store = Store::in_memory(4);
        assert_eq!(store.add("a"), (0, true));
        assert_eq!(store.add("a"), (0, false));
        assert_eq!(store.add("b"), (1, true));
        assert_eq!(store.len(), 2);
        assert_eq!(store.db().get_from(1), vec!["b"]);
        assert_eq!(store.db().window(0, 1), (vec![Arc::from("a")], 2));
        assert_eq!(store.epoch(), 0);
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
        let (_, _, last) = list_segments(&dir).unwrap().pop().expect("a segment");
        let data = fs::read(&last).unwrap();
        fs::write(&last, &data[..data.len() - 5]).unwrap();

        let store = Store::open(2, test_config(&dir), &Registry::new()).unwrap();
        let report = store.recovery();
        assert!(report.torn_tail, "truncation must be detected");
        assert_eq!(store.len(), 9, "all records before the torn one survive");
        assert!(store.contains("torn-sig-8").is_some());
        assert!(store.contains("torn-sig-9").is_none());
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
        let (_, _, seg) = list_segments(&dir).unwrap().pop().unwrap();
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
    fn rolled_segments_recover_in_order_and_nothing_rewrites_them() {
        let dir = scratch("segments");
        let registry = Registry::new();
        {
            let store = open(&dir, None, &registry);
            fill(&store, 0..40);
            store.snapshot().unwrap(); // `sync` under its old name
        }
        let rolled = list_segments(&dir).unwrap().len();
        assert!(rolled > 1, "tiny segments must have rolled");
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
    fn repeated_records_in_a_later_segment_replay_idempotently() {
        // A segment that re-covers stored signatures must dedup on
        // replay, not double-store.
        let dir = scratch("overlap");
        fill(&open(&dir, None, &Registry::new()), 0..8);
        // Hand-write a WAL segment duplicating stored contents.
        {
            let mut wal = Wal::open(dir.clone(), 0, 9999, 1 << 20, VecDeque::new()).unwrap();
            for i in 0..8 {
                wal.append(&frame(&format!("sig-{i:06}"))).unwrap();
            }
            wal.append(&frame("ov-fresh")).unwrap();
            wal.sync().unwrap();
        }
        let store = open(&dir, None, &Registry::new());
        assert_eq!(store.recovery().wal_records, 17);
        assert_eq!(store.len(), 9, "duplicates collapse on replay");
        assert!(store.contains("ov-fresh").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_gc_evicts_oldest_and_bumps_epoch() {
        let dir = scratch("gc");
        let config = DurabilityConfig {
            max_bytes: Some(400),
            ..test_config(&dir)
        };
        let registry = Registry::new();
        let store = Store::open(4, config, &registry).unwrap();
        // 10-byte signatures; the cap admits ~40 before GC.
        for i in 0..60 {
            store.add(&format!("gc-sig-{i:03}"));
        }
        assert!(store.epoch() > 0, "cap overshoot must bump the epoch");
        assert!(
            store.stored_bytes() <= 400,
            "store stays under the cap after GC"
        );
        assert!(
            store.contains("gc-sig-000").is_none(),
            "oldest signatures evicted first"
        );
        assert!(
            store.contains("gc-sig-059").is_some(),
            "newest signatures survive"
        );
        // The GC'd state is what a restart recovers.
        let survivors = store.db().get_from(0);
        let epoch = store.epoch();
        drop(store);
        let config = DurabilityConfig {
            max_bytes: Some(400),
            ..test_config(&dir)
        };
        let reopened = Store::open(4, config, &Registry::new()).unwrap();
        assert_eq!(reopened.epoch(), epoch);
        assert_eq!(reopened.db().get_from(0), survivors);
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
    fn restart_loop_keeps_the_epoch_and_does_not_grow_the_directory() {
        let dir = scratch("restarts");
        let store = open(&dir, Some(400), &Registry::new());
        fill(&store, 0..41); // the 41st trips the GC
        assert_eq!(store.epoch(), 1);
        let survivors = store.db().get_from(0);
        drop(store);
        // Nothing was added after the cut: only a name carries the epoch.
        let segments = list_segments(&dir).unwrap().len();
        for _ in 0..5 {
            let store = open(&dir, Some(400), &Registry::new());
            assert_eq!(store.epoch(), 1, "the epoch lives in the segment names");
            assert_eq!(store.db().get_from(0), survivors);
            drop(store);
            assert_eq!(list_segments(&dir).unwrap().len(), segments, "grew");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_gc_crash_point_recovers_a_suffix_under_the_new_epoch() {
        let dir = scratch("gc-crash");
        let store = open(&dir, None, &Registry::new());
        fill(&store, 0..60);
        let log = store.db().get_from(0);
        drop(store);
        let old = list_segments(&dir).unwrap();
        assert!(old.len() > 3, "a multi-segment log");
        // A GC pass by hand. The cut: the next segment, under epoch + 1.
        let next_seq = old.last().unwrap().1 + 1;
        drop(Wal::open(dir.clone(), 1, next_seq, 256, VecDeque::new()).unwrap());
        // Then the deletes, oldest first: die before the first, after each.
        for deleted in 0..=old.len() {
            if deleted > 0 {
                fs::remove_file(&old[deleted - 1].2).unwrap();
            }
            let first = open(&dir, None, &Registry::new());
            assert_eq!(first.epoch(), 1, "died after {deleted} deletes");
            let got = first.db().get_from(0);
            assert!(log.ends_with(&got), "a suffix of the log, in order");
            assert_eq!(got.len() == log.len(), deleted == 0);
            assert_eq!(got.is_empty(), deleted == old.len());
            drop(first);
            let again = open(&dir, None, &Registry::new());
            assert_eq!(again.epoch(), 1);
            assert_eq!(again.db().get_from(0), got, "recovered differently");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_counts_delete_and_replay_errors_and_keeps_serving() {
        let dir = scratch("gc-errors");
        let registry = Registry::new();
        let store = open(&dir, Some(400), &registry);
        fill(&store, 0..30);
        // Three to a segment. A directory can be neither unlinked nor read
        // as a file: the oldest will fail its delete, the ninth its replay.
        let segments = list_segments(&dir).unwrap();
        let broken = [&segments[0].2, &segments[8].2];
        for path in broken {
            fs::remove_file(path).unwrap();
            fs::create_dir(path).unwrap();
        }
        fill(&store, 30..41); // the 41st trips the GC
        assert_eq!(store.epoch(), 1, "the pass finished");
        assert_eq!(registry.counter("store.wal.errors").get(), 2);
        assert_eq!(registry.counter("store.gc.segments_deleted").get(), 4);
        assert_eq!(store.len(), 41 - 4 * 3 - 3, "rebuilt from what was read");
        assert!(store.contains("sig-000024").is_none(), "unreadable");
        assert_eq!(store.add("served-after-the-gc"), (26, true));
        // Memory never holds more than disk: a restart finds all of it.
        let memory = store.db().get_from(0);
        drop(store);
        for path in broken {
            fs::remove_dir(path).unwrap();
        }
        assert_eq!(open(&dir, Some(400), &registry).db().get_from(0), memory);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_a_non_empty_segment_even_when_the_log_already_fits() {
        let dir = scratch("gc-min");
        let registry = Registry::new();
        let store = open(&dir, Some(400), &registry);
        fill(&store, 0..40); // at the cap, not over it
                             // As if appends had failed: the log accounts for far less than
                             // memory holds, so by bytes alone the pass would delete nothing.
        for segment in store.wal.as_ref().unwrap().lock().live.iter_mut() {
            segment.1 = 1;
        }
        fill(&store, 40..41);
        assert_eq!(store.epoch(), 1);
        assert_eq!(registry.counter("store.gc.segments_deleted").get(), 1);
        assert_eq!(
            store.len(),
            41 - 3,
            "the total fell: the wire's shrink signal"
        );
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
                assert!(store.contains(&format!("conc-{t}-{i}")).is_some());
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
            Some((3, 41))
        );
        assert_eq!(parse_segment_name("wal-3-41.log"), Some((3, 41)));
        assert_eq!(parse_segment_name("snapshot.bin"), None);
        assert_eq!(parse_segment_name("wal-x-1.log"), None);
        let p = segment_path(Path::new("/d"), 3, 41);
        let (e, s) = parse_segment_name(p.file_name().unwrap().to_str().unwrap()).unwrap();
        assert_eq!((e, s), (3, 41));
    }
}
