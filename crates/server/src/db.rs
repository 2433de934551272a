//! The server's signature database.
//!
//! An append-only, index-addressed store: GET(k) returns everything from
//! index k (so clients download incrementally, and GET(0) — the worst
//! case used throughout §IV-A — walks the entire database).
//!
//! # Sharding
//!
//! The store is split into two cooperating structures so that the hot
//! paths never meet on one lock:
//!
//! * **Dedup shards** — the text → index map is partitioned into N
//!   shards keyed by a hash of the signature text. A duplicate probe
//!   takes one shard's *read* lock; only a genuinely new signature takes
//!   that shard's *write* lock. Adds to different shards never contend.
//! * **Append log** — global indices come from a lock-free atomic
//!   sequence, and signature texts live in a segmented append-only log
//!   whose slots are written exactly once. Readers
//!   ([`SignatureDb::get_from`], [`SignatureDb::delta`]) walk the
//!   log up to the *committed* watermark without taking any
//!   per-signature lock, so the O(N) GET(0) walk no longer blocks
//!   writers (and vice versa).
//!
//! Because dedup'd adds commute, the order in which shards admit them
//! is immaterial to the stored *set*; the tests hold the store to a
//! `Vec` + set model, which is the whole reference.
//!
//! # One text, shared
//!
//! Dedup'd ADDs are never rewritten, so a signature's text is immutable
//! from the moment its log slot is published. It is therefore stored
//! once, as an `Arc<str>`: the dedup index's key and the log slot are the
//! same allocation, and [`SignatureDb::delta`] hands readers further
//! handles to it instead of copies. Only [`SignatureDb::get_from`] (the
//! old GET verb's owned reply) copies text out.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Default number of dedup shards (a modest power of two: enough to
/// spread 8–64 writer threads, small enough that per-shard stats stay
/// readable).
pub const DEFAULT_SHARDS: usize = 16;

const SEG_SHIFT: usize = 10;
/// Signatures per log segment.
const SEG_LEN: usize = 1 << SEG_SHIFT;

/// Per-shard usage counters (see [`SignatureDb::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Signatures whose dedup entry lives in this shard.
    pub sigs: usize,
    /// Total bytes of those signatures' text.
    pub bytes: usize,
}

/// Thread-safe append-only signature store with exact-duplicate
/// suppression.
#[derive(Debug)]
pub struct SignatureDb {
    shards: Box<[Shard]>,
    hasher: RandomState,
    log: AppendLog,
}

#[derive(Debug, Default)]
struct Shard {
    /// Signature text → global log index. The key is the log slot's
    /// allocation.
    index: RwLock<HashMap<Arc<str>, u64>>,
    count: AtomicUsize,
    bytes: AtomicUsize,
}

impl Default for SignatureDb {
    fn default() -> Self {
        SignatureDb::new()
    }
}

impl SignatureDb {
    /// Creates an empty database with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        SignatureDb::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty database with `shards` dedup shards (clamped to
    /// at least 1).
    pub fn with_shards(shards: usize) -> Self {
        SignatureDb {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            hasher: RandomState::new(),
            log: AppendLog::default(),
        }
    }

    /// Number of dedup shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, sig_text: &str) -> &Shard {
        // Hash the whole text: a prefix/suffix shortcut would let an
        // adversary craft distinct signatures that collapse every dedup
        // probe onto one shard (this server's whole point is surviving
        // hostile senders, §III-C).
        &self.shards[(self.hasher.hash_one(sig_text) as usize) % self.shards.len()]
    }

    /// Appends `sig_text` unless an identical signature is already
    /// stored. Returns `(index, newly_added)`.
    pub fn add(&self, sig_text: &str) -> (usize, bool) {
        let shard = self.shard_of(sig_text);
        // Fast path: read lock for the duplicate probe.
        if let Some(&i) = shard.index.read().get(sig_text) {
            return (i as usize, false);
        }
        let mut index = shard.index.write();
        if let Some(&i) = index.get(sig_text) {
            return (i as usize, false);
        }
        let i = self.log.reserve();
        // The one copy of the text: index key and log slot share it.
        let text: Arc<str> = Arc::from(sig_text);
        index.insert(text.clone(), i);
        shard.count.fetch_add(1, Ordering::AcqRel);
        shard.bytes.fetch_add(sig_text.len(), Ordering::AcqRel);
        // Publish while still holding the shard write lock, so that a
        // racing duplicate add observing the index entry also observes
        // the committed log slot.
        self.log.publish(i, text);
        (i as usize, true)
    }

    /// Index of `sig_text` if it is already stored. Takes only a shard
    /// *read* lock — this is the server's dedup fast path.
    pub fn contains(&self, sig_text: &str) -> Option<usize> {
        self.shard_of(sig_text)
            .index
            .read()
            .get(sig_text)
            .map(|&i| i as usize)
    }

    /// All signatures from index `from` (copies; the caller ships them).
    pub fn get_from(&self, from: usize) -> Vec<String> {
        let (from, total) = (from as u64, self.log.committed());
        let mut sigs = Vec::with_capacity(total.saturating_sub(from) as usize);
        self.log
            .for_each(from, total, |t| sigs.push(String::from(&**t)));
        sigs
    }

    /// At most `max` signatures from index `from`, plus the current
    /// total — the server-side windowing behind `GET_DELTA`. `max == 0`
    /// means "no client-side cap" (the server still applies its own).
    /// The texts are handles to the stored ones, not copies.
    pub fn delta(&self, from: usize, max: usize) -> (Vec<Arc<str>>, usize) {
        let total = self.log.committed();
        let from = (from as u64).min(total);
        let cap = if max == 0 {
            total
        } else {
            from.saturating_add(max as u64)
        };
        let to = cap.min(total);
        let mut sigs = Vec::with_capacity((to - from) as usize);
        self.log.for_each(from, to, |t| sigs.push(t.clone()));
        (sigs, total as usize)
    }

    /// Per-shard `(count, bytes)` counters. Their sums equal
    /// [`SignatureDb::len`] / [`SignatureDb::stored_bytes`] whenever no
    /// add is mid-flight (counters are bumped inside the shard write
    /// lock, before the log slot is published).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|sh| ShardStats {
                sigs: sh.count.load(Ordering::Acquire),
                bytes: sh.bytes.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Number of stored signatures.
    pub fn len(&self) -> usize {
        self.log.committed() as usize
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of stored signature text (reporting).
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.bytes.load(Ordering::Acquire))
            .sum()
    }
}

/// One fixed-size run of log slots, each written exactly once.
type Segment = Arc<[OnceLock<Arc<str>>]>;

/// A segmented append-only log of signature texts.
///
/// Indices come from the lock-free `next` sequence; each slot is written
/// exactly once (`OnceLock`); the `committed` watermark trails `next`
/// and only covers the contiguous prefix of filled slots, so readers
/// below `committed` never observe an empty slot. The segment directory
/// is behind a `RwLock`, but it is only write-locked when a new 1024-slot
/// segment is allocated — reads share it uncontended.
#[derive(Debug, Default)]
struct AppendLog {
    segments: RwLock<Vec<Segment>>,
    next: AtomicU64,
    committed: AtomicU64,
}

impl AppendLog {
    fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Claims the next global index and ensures its segment exists.
    fn reserve(&self) -> u64 {
        let i = self.next.fetch_add(1, Ordering::AcqRel);
        let seg = (i as usize) >> SEG_SHIFT;
        if seg >= self.segments.read().len() {
            let mut segments = self.segments.write();
            while segments.len() <= seg {
                segments.push((0..SEG_LEN).map(|_| OnceLock::new()).collect());
            }
        }
        i
    }

    /// Fills slot `i` and advances the committed watermark over every
    /// contiguous filled slot. Writers cooperate: whichever writer
    /// observes the frontier slot filled advances it, so a slot finished
    /// out of order is published by the (slower) writer in front of it.
    fn publish(&self, i: u64, text: Arc<str>) {
        {
            let segments = self.segments.read();
            let slot = &segments[(i as usize) >> SEG_SHIFT][(i as usize) & (SEG_LEN - 1)];
            slot.set(text).expect("log slot is written exactly once");
        }
        loop {
            let c = self.committed.load(Ordering::Acquire);
            if c >= self.next.load(Ordering::Acquire) {
                break;
            }
            let frontier_filled = {
                let segments = self.segments.read();
                segments
                    .get((c as usize) >> SEG_SHIFT)
                    .is_some_and(|seg| seg[(c as usize) & (SEG_LEN - 1)].get().is_some())
            };
            if !frontier_filled {
                break;
            }
            // Losing the CAS just means another writer advanced it;
            // re-read and keep helping.
            let _ = self
                .committed
                .compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Walks the committed slots in `[from, to)` segment by segment
    /// (`to` must be ≤ committed).
    ///
    /// The segment-directory lock is released before the walk: holding
    /// it across an O(N) GET(0) would park any add that needs to grow
    /// the directory — and, through lock fairness, every other reader
    /// behind that waiting writer. Segments are `Arc`s precisely so a
    /// reader can pin them and iterate lock-free.
    fn for_each(&self, from: u64, to: u64, mut f: impl FnMut(&Arc<str>)) {
        if from >= to {
            return;
        }
        let segments: Vec<Segment> = self.segments.read().clone();
        let mut seg = (from as usize) >> SEG_SHIFT;
        let mut off = (from as usize) & (SEG_LEN - 1);
        let mut remaining = (to - from) as usize;
        while remaining > 0 {
            let take = remaining.min(SEG_LEN - off);
            for slot in &segments[seg][off..off + take] {
                f(slot
                    .get()
                    .expect("slot below the committed watermark is filled"));
            }
            remaining -= take;
            seg += 1;
            off = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use proptest::prelude::*;

    /// One call on the store; texts come from a small key space so
    /// duplicates are common, and differ in length so byte counts tell
    /// them apart.
    #[derive(Debug, Clone)]
    enum Op {
        Add(usize),
        Contains(usize),
        Delta(usize, usize),
        GetFrom(usize),
    }

    fn text(key: usize) -> String {
        format!("sig-{key}-{}", "x".repeat(key % 5))
    }

    /// An index into the log, in range, just past it, or absurd.
    fn arb_index() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..40, Just(usize::MAX)]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..24).prop_map(Op::Add),
            (0usize..24).prop_map(Op::Add),
            (0usize..24).prop_map(Op::Contains),
            (arb_index(), prop_oneof![0usize..6, Just(usize::MAX)])
                .prop_map(|(from, max)| Op::Delta(from, max)),
            arb_index().prop_map(Op::GetFrom),
        ]
    }

    proptest! {
        /// The store against the whole reference: a `Vec` of texts in
        /// admission order and the set of them.
        #[test]
        fn store_behaves_as_a_vec_and_a_set(
            shards in 0usize..6,
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            let db = SignatureDb::with_shards(shards);
            prop_assert_eq!(db.shard_count(), shards.max(1));
            let (mut log, mut set): (Vec<String>, HashSet<String>) = Default::default();
            for op in ops {
                match op {
                    Op::Add(key) => {
                        let t = text(key);
                        let fresh = set.insert(t.clone());
                        if fresh {
                            log.push(t.clone());
                        }
                        let at = log.iter().position(|s| *s == t).expect("admitted");
                        prop_assert_eq!(db.add(&t), (at, fresh));
                    }
                    Op::Contains(key) => {
                        let t = text(key);
                        prop_assert_eq!(db.contains(&t), log.iter().position(|s| *s == t));
                    }
                    Op::Delta(from, max) => {
                        let from = from.min(log.len());
                        let to = if max == 0 {
                            log.len()
                        } else {
                            from.saturating_add(max).min(log.len())
                        };
                        let (sigs, total) = db.delta(from, max);
                        let sigs: Vec<&str> = sigs.iter().map(|s| &**s).collect();
                        prop_assert_eq!(sigs, &log[from..to]);
                        prop_assert_eq!(total, log.len());
                    }
                    Op::GetFrom(from) => {
                        prop_assert_eq!(db.get_from(from), &log[from.min(log.len())..]);
                    }
                }
                prop_assert_eq!(db.len(), log.len());
                prop_assert_eq!(db.is_empty(), log.is_empty());
            }
            let stats = db.shard_stats();
            prop_assert_eq!(stats.len(), db.shard_count());
            prop_assert_eq!(stats.iter().map(|s| s.sigs).sum::<usize>(), db.len());
            prop_assert_eq!(stats.iter().map(|s| s.bytes).sum::<usize>(), db.stored_bytes());
            prop_assert_eq!(db.stored_bytes(), log.iter().map(String::len).sum::<usize>());
        }

        /// Dedup'd adds commute (Malta & Martinez): whatever order a
        /// batch is admitted in, the stored set is the same.
        #[test]
        fn permuting_a_batch_leaves_the_stored_set_unchanged(
            batch in proptest::collection::vec((0usize..24, any::<u32>()), 0..60),
        ) {
            let stored = |keys: &[usize]| -> HashSet<String> {
                let db = SignatureDb::with_shards(3);
                for &key in keys {
                    db.add(&text(key));
                }
                let all = db.get_from(0);
                assert_eq!(all.len(), db.len());
                all.into_iter().collect()
            };
            let as_given: Vec<usize> = batch.iter().map(|&(key, _)| key).collect();
            let mut permuted = batch.clone();
            permuted.sort_by_key(|&(_, order)| order);
            let permuted: Vec<usize> = permuted.into_iter().map(|(key, _)| key).collect();
            prop_assert_eq!(stored(&as_given), stored(&permuted));
        }
    }

    #[test]
    fn sharded_spreads_entries() {
        let db = SignatureDb::with_shards(8);
        for i in 0..200 {
            db.add(&format!("sig-{i}"));
        }
        let used = db.shard_stats().iter().filter(|s| s.sigs > 0).count();
        assert!(used > 1, "200 hashed texts must land in more than 1 shard");
    }

    #[test]
    fn log_grows_past_one_segment() {
        let db = SignatureDb::with_shards(4);
        let n = SEG_LEN + 17;
        for i in 0..n {
            db.add(&format!("s{i}"));
        }
        assert_eq!(db.len(), n);
        assert_eq!(db.get_from(SEG_LEN - 1).len(), 18);
        assert_eq!(db.delta(SEG_LEN - 2, 4).0.len(), 4);
    }

    #[test]
    fn concurrent_adds_unique_indices() {
        let db = std::sync::Arc::new(SignatureDb::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    db.add(&format!("sig-{t}-{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 800);
        // Every stored signature is distinct.
        let all = db.get_from(0);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn concurrent_same_text_added_once() {
        let db = std::sync::Arc::new(SignatureDb::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    db.add("same");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn concurrent_readers_see_contiguous_prefixes() {
        let db = std::sync::Arc::new(SignatureDb::new());
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..2000 {
                    db.add(&format!("sig-{i}"));
                }
            })
        };
        // Readers poll while the writer races: every observed prefix must
        // be fully materialized (no holes below the committed watermark).
        for _ in 0..50 {
            let n = db.len();
            let got = db.get_from(0);
            assert!(got.len() >= n, "len()={n} but get_from(0)={}", got.len());
        }
        writer.join().unwrap();
        assert_eq!(db.len(), 2000);
    }
}
