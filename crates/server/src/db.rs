//! The server's signature database: append-only and index-addressed. A
//! client asks for the signatures from index k (§III-B), served one
//! budgeted window at a time. An index names one signature forever: a
//! byte-capped store evicts a prefix ([`SignatureDb::base`] moves up),
//! and a window asked for below the base starts at the base.
//!
//! # Two locks, one order
//!
//! The index is the client's only cursor, so numbering order is
//! observable: a new signature gets its index, its journal record (a
//! durable store's WAL append) and its visibility under one *append
//! lock* — index order = journal order = replay order. Hashing, the
//! fast-path probe, allocating and framing happen before it. Probes and
//! windows share the other lock, the log (texts in index order, their
//! byte total, the dedup index), which a writer holds for the push alone,
//! a reader for one probe or one window of at most [`REPLY_BUDGET`]
//! bytes, and GC for the prefix drop. Lock order: append lock → log. The
//! tests hold the store to a `Vec` + set model, the whole reference.
//!
//! # One hash per ADD, exact dedup
//!
//! A ≈ 1.7 KB text's hash is most of a probe, so an ADD hashes it once,
//! with the database's keyed `RandomState` (no one can aim texts at one
//! bucket): a probe that misses hands its key to the add that follows,
//! and the database lives as long as the store, so the key is its own.
//! A key only nominates: the text at its index must be equal, and a
//! different text whose key is taken goes to the overflow map, keyed by
//! text. A text is stored once, an `Arc<str>` every window shares.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use communix_net::REPLY_BUDGET;
use parking_lot::{Mutex, RwLock};

/// Thread-safe append-only signature store with exact-duplicate
/// suppression.
#[derive(Debug)]
pub struct SignatureDb {
    hasher: RandomState,
    /// Test builds can narrow every key to a few bits, so that nearly
    /// every insert collides and takes the overflow path.
    #[cfg(test)]
    key_mask: u64,
    /// The append lock.
    tail: Mutex<Tail>,
    log: RwLock<Log>,
}

/// The append lock's token: `push` takes `&mut Tail`, so no index is
/// minted without the lock.
#[derive(Debug)]
struct Tail;

/// A text's dedup key under one database's hasher, from a probe that
/// missed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key(u64);

/// The live texts in index order from `base`, their bytes in all, and
/// the dedup index over them: keyed text hash → index, plus the texts
/// whose hash an earlier, different text already holds.
#[derive(Debug, Default)]
struct Log {
    /// The index of `all[0]`: every index below it was evicted.
    base: usize,
    all: Vec<Arc<str>>,
    bytes: usize,
    by_key: HashMap<u64, usize>,
    /// Text → index for the keys taken twice: a rare map, looked in only
    /// when it holds anything.
    overflow: HashMap<Arc<str>, usize>,
}

impl Log {
    /// The index the next text takes.
    fn end(&self) -> usize {
        self.base + self.all.len()
    }

    /// The live texts from index `from` on (from the base, below it).
    fn from(&self, from: usize) -> &[Arc<str>] {
        &self.all[from.clamp(self.base, self.end()) - self.base..]
    }

    /// The index `text` is stored at, if any.
    fn find(&self, key: u64, text: &str) -> Option<usize> {
        match self.by_key.get(&key) {
            Some(&i) if &*self.all[i - self.base] == text => Some(i),
            _ if self.overflow.is_empty() => None,
            _ => self.overflow.get(text).copied(),
        }
    }

    /// Appends `text` under `key` and returns its index.
    fn push(&mut self, _: &mut Tail, key: u64, text: Arc<str>) -> usize {
        let i = self.end();
        match self.by_key.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(i);
            }
            Entry::Occupied(_) => {
                self.overflow.insert(text.clone(), i);
            }
        }
        self.bytes += text.len();
        self.all.push(text);
        i
    }
}

impl Default for SignatureDb {
    fn default() -> Self {
        SignatureDb::new()
    }
}

impl SignatureDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        SignatureDb::starting_at(0)
    }

    /// An empty database whose first text takes index `base`.
    pub(crate) fn starting_at(base: usize) -> Self {
        SignatureDb {
            hasher: RandomState::new(),
            #[cfg(test)]
            key_mask: u64::MAX,
            tail: Mutex::new(Tail),
            log: RwLock::new(Log {
                base,
                ..Log::default()
            }),
        }
    }

    /// The dedup key of `sig_text`, the one place a text is hashed, and
    /// wholly: a prefix/suffix shortcut would let hostile senders (§III-C)
    /// collapse distinct signatures onto one key.
    fn key(&self, sig_text: &str) -> Key {
        let key = self.hasher.hash_one(sig_text);
        #[cfg(test)]
        let key = {
            tests::HASHES.with(|n| n.set(n.get() + 1));
            key & self.key_mask
        };
        Key(key)
    }

    /// Appends `sig_text` unless an identical signature is already
    /// stored. Returns `(index, newly_added)`.
    pub fn add(&self, sig_text: &str) -> (usize, bool) {
        self.add_with(sig_text, |_| {})
    }

    /// [`SignatureDb::add`], calling `journal` as `add_new` does.
    pub(crate) fn add_with(&self, sig_text: &str, journal: impl FnOnce(&str)) -> (usize, bool) {
        match self.probe(sig_text) {
            Ok(i) => (i, false),
            Err(key) => self.add_new(key, sig_text, journal),
        }
    }

    /// The index `sig_text` is stored at, or its key for the add that
    /// follows. Takes only the log's *read* lock: the dedup fast path.
    pub(crate) fn probe(&self, sig_text: &str) -> Result<usize, Key> {
        let key = self.key(sig_text);
        self.log.read().find(key.0, sig_text).ok_or(key)
    }

    /// Appends `sig_text`, whose probe missed with `key`, unless it
    /// arrived since; `journal` runs under the append lock, after that
    /// final probe and before the text is visible, so journal calls come
    /// in index order and a duplicate makes none. `(index, newly_added)`.
    pub(crate) fn add_new(
        &self,
        key: Key,
        sig_text: &str,
        journal: impl FnOnce(&str),
    ) -> (usize, bool) {
        // The one copy of the text: the log and an overflow entry share it.
        let text: Arc<str> = Arc::from(sig_text);
        let mut tail = self.tail.lock();
        // Every insert happens under the append lock, so this probe is final.
        if let Some(i) = self.log.read().find(key.0, sig_text) {
            return (i, false);
        }
        journal(sig_text);
        let i = self.log.write().push(&mut tail, key.0, text);
        (i, true)
    }

    /// Appends `sig_text` at the next index even if it is stored already:
    /// recovery's replay, where a record's index is its place in the log.
    pub(crate) fn replay(&self, sig_text: &str) {
        let key = self.key(sig_text);
        let mut tail = self.tail.lock();
        self.log.write().push(&mut tail, key.0, Arc::from(sig_text));
    }

    /// Evicts every text below index `base` under the log's write lock
    /// and returns how many texts and bytes went; the survivors keep
    /// their indices.
    pub(crate) fn drop_below(&self, base: usize) -> (usize, usize) {
        let mut log = self.log.write();
        let n = base.clamp(log.base, log.end()) - log.base;
        if n == 0 {
            return (0, 0);
        }
        let bytes: usize = log.all.drain(..n).map(|t| t.len()).sum();
        log.base += n;
        log.bytes -= bytes;
        let base = log.base;
        log.by_key.retain(|_, i| *i >= base);
        log.overflow.retain(|_, i| *i >= base);
        (n, bytes)
    }

    /// Index of `sig_text` if it is stored (the log's read lock only).
    pub fn contains(&self, sig_text: &str) -> Option<usize> {
        self.probe(sig_text).ok()
    }

    /// Copies of the live signatures from index `from`.
    pub fn get_from(&self, from: usize) -> Vec<String> {
        let handles = self.log.read().from(from).to_vec();
        handles.iter().map(|t| String::from(&**t)).collect()
    }

    /// The window behind `GET` and `GET_DELTA`: where it starts (`from`,
    /// or the base if later), the texts — at most `max` (`0`: no cap),
    /// closed at the last whose `DELTA` reply fits [`REPLY_BUDGET`], but
    /// at least one while any is left — and the total, the next index.
    pub fn window(&self, from: usize, max: usize) -> (usize, Vec<Arc<str>>, usize) {
        let log = self.log.read();
        let from = from.max(log.base);
        let rest = log.from(from);
        let rest = match max {
            0 => rest,
            max => &rest[..max.min(rest.len())],
        };
        let mut text_bytes = 0;
        let fit = rest
            .iter()
            .enumerate()
            .take_while(|(i, t)| {
                text_bytes += t.len();
                reply_bytes(i + 1, text_bytes) <= REPLY_BUDGET
            })
            .count()
            .max(usize::from(!rest.is_empty()));
        (from, rest[..fit].to_vec(), log.end())
    }

    /// [`SignatureDb::window`], by the name `benchmark/` calls (ROADMAP
    /// item 1A retires it).
    pub fn delta(&self, from: usize, max: usize) -> (usize, Vec<Arc<str>>, usize) {
        self.window(from, max)
    }

    /// The index of the first live signature (0 until a GC evicts one).
    pub fn base(&self) -> usize {
        self.log.read().base
    }

    /// Number of live signatures.
    pub fn len(&self) -> usize {
        self.log.read().all.len()
    }

    /// Whether no signature is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of live signature text (reporting).
    pub fn stored_bytes(&self) -> usize {
        self.log.read().bytes
    }
}

/// Payload bytes of a `DELTA` reply carrying `count` texts of `text_bytes`
/// bytes in all: tag, `from`, `total`, the count, and a length prefix per
/// text. A `SIGS` reply has no `total`, so it is 8 bytes smaller.
fn reply_bytes(count: usize, text_bytes: usize) -> usize {
    1 + 8 + 8 + 4 + 4 * count + text_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashSet;

    use proptest::prelude::*;

    thread_local! {
        /// Texts this thread has hashed through [`SignatureDb::key`].
        pub(super) static HASHES: Cell<u64> = const { Cell::new(0) };
    }

    impl SignatureDb {
        /// A database whose keys keep only their low three bits: eight
        /// keys in all, so nearly every insert collides and goes to the
        /// overflow map.
        fn colliding() -> Self {
            SignatureDb {
                key_mask: 0b111,
                ..SignatureDb::new()
            }
        }
    }

    /// Both flavours of every database a test builds: real keys, and
    /// keys masked until they collide.
    fn both_keys() -> [SignatureDb; 2] {
        [SignatureDb::new(), SignatureDb::colliding()]
    }

    /// Texts `f` hashes on this thread.
    fn hashes(f: impl FnOnce()) -> u64 {
        let before = HASHES.with(Cell::get);
        f();
        HASHES.with(Cell::get) - before
    }

    /// One call on the store; texts come from a small key space so
    /// duplicates are common, and differ in length so byte counts tell
    /// them apart.
    #[derive(Debug, Clone)]
    enum Op {
        Add(usize),
        Contains(usize),
        Window(usize, usize),
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
                .prop_map(|(from, max)| Op::Window(from, max)),
            arb_index().prop_map(Op::GetFrom),
        ]
    }

    /// Runs `ops` on `db` and on the whole reference: a `Vec` of texts in
    /// admission order and the set of them. The ordered half: the log and
    /// the journal both hold the first occurrences, in call order.
    fn check_against_the_model(db: &SignatureDb, ops: &[Op]) -> Result<(), TestCaseError> {
        let (mut log, mut set): (Vec<String>, HashSet<String>) = Default::default();
        let mut journal: Vec<String> = Vec::new();
        for op in ops {
            match *op {
                Op::Add(key) => {
                    let t = text(key);
                    let fresh = set.insert(t.clone());
                    if fresh {
                        log.push(t.clone());
                    }
                    let at = log.iter().position(|s| *s == t).expect("admitted");
                    let added = db.add_with(&t, |text| journal.push(text.to_owned()));
                    prop_assert_eq!(added, (at, fresh));
                }
                Op::Contains(key) => {
                    let t = text(key);
                    prop_assert_eq!(db.contains(&t), log.iter().position(|s| *s == t));
                }
                Op::Window(from, max) => {
                    let from = from.min(log.len());
                    let to = if max == 0 {
                        log.len()
                    } else {
                        from.saturating_add(max).min(log.len())
                    };
                    let (start, sigs, total) = db.window(from, max);
                    prop_assert_eq!(start, from);
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
            prop_assert_eq!(
                db.stored_bytes(),
                log.iter().map(String::len).sum::<usize>()
            );
        }
        prop_assert_eq!(&db.get_from(0), &log);
        prop_assert_eq!(&journal, &log);
        Ok(())
    }

    proptest! {
        /// The model check under real keys, and under keys masked until
        /// nearly every insert takes the overflow path.
        #[test]
        fn store_behaves_as_a_vec_and_a_set(
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            for db in both_keys() {
                check_against_the_model(&db, &ops)?;
            }
        }

        /// Dedup'd adds commute (Malta & Martinez): whatever order a
        /// batch is admitted in, the stored set is the same.
        #[test]
        fn permuting_a_batch_leaves_the_stored_set_unchanged(
            batch in proptest::collection::vec((0usize..24, any::<u32>()), 0..60),
        ) {
            let stored = |keys: &[usize]| -> HashSet<String> {
                let db = SignatureDb::new();
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

    /// A database holding one text of each of `lens` bytes, in order.
    fn holding(lens: &[usize]) -> SignatureDb {
        let db = SignatureDb::new();
        for (i, &n) in lens.iter().enumerate() {
            db.add(&format!("{i:08}{}", "x".repeat(n - 8)));
        }
        db
    }

    #[test]
    fn a_window_closes_at_the_last_text_within_the_budget() {
        // Sixteen texts of 64 KiB with their length prefixes would fill
        // the budget exactly; the reply's header leaves room for fifteen.
        let n = 64 * 1024 - 4;
        let db = holding(&[n; 20]);
        assert!(reply_bytes(15, 15 * n) <= REPLY_BUDGET);
        assert!(reply_bytes(16, 16 * n) > REPLY_BUDGET);
        assert_eq!(db.window(0, 0).1.len(), 15);
        assert_eq!(db.window(3, 0), (3, db.window(3, 15).1, 20));
        assert_eq!(db.window(15, 0).1.len(), 5);
        // The client's count cap closes it earlier.
        assert_eq!(db.window(0, 4).1.len(), 4);
        // A window ends exactly at the budget: one byte less and the last
        // text waits for the next window.
        let fits = REPLY_BUDGET - reply_bytes(2, 0) - 1000;
        assert_eq!(holding(&[1000, fits]).window(0, 0).1.len(), 2);
        assert_eq!(holding(&[1000, fits + 1]).window(0, 0).1.len(), 1);
    }

    #[test]
    fn a_window_holds_one_text_even_past_the_budget() {
        let db = holding(&[REPLY_BUDGET + 1, 10]);
        assert_eq!(db.window(0, 0).1.len(), 1);
        assert_eq!(db.window(1, 0).1.len(), 1);
        assert_eq!(db.window(2, 0), (2, Vec::new(), 2));
    }

    #[test]
    fn reply_bytes_are_the_encoded_payload() {
        use communix_net::Reply;
        let sigs = vec!["sig-a".to_string(), "sig-bb".to_string()];
        let delta = Reply::Delta {
            from: 3,
            total: 9,
            sigs: sigs.clone(),
        };
        assert_eq!(delta.encode().len(), reply_bytes(2, 11));
        let get = Reply::Sigs { from: 3, sigs };
        assert!(get.encode().len() < reply_bytes(2, 11));
        assert_eq!(
            Reply::Delta {
                from: 0,
                total: 0,
                sigs: vec![]
            }
            .encode()
            .len(),
            reply_bytes(0, 0)
        );
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
    fn concurrent_journal_order_is_index_order() {
        let db = SignatureDb::new();
        let journal = Mutex::new(Vec::new());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (db, journal, start) = (&db, &journal, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..2000 {
                        // Every tenth text is raced in by all four threads.
                        let who = if i % 10 == 0 { 9 } else { t };
                        db.add_with(&format!("sig-{who}-{i}"), |text| {
                            journal.lock().push(text.to_owned());
                        });
                    }
                });
            }
        });
        assert_eq!(db.len(), 4 * 1800 + 200);
        assert_eq!(
            journal.into_inner(),
            db.get_from(0),
            "journaled in index order"
        );
    }

    #[test]
    fn concurrent_same_text_added_once() {
        // Eight threads add the same texts in the same order, twice, so
        // threads in step race one new text through the fast-path miss
        // and the re-probe; under masked keys the texts share eight keys.
        const TEXTS: usize = 200;
        for db in both_keys() {
            let start = std::sync::Barrier::new(8);
            let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..8)
                    .map(|_| {
                        let (db, start) = (&db, &start);
                        s.spawn(move || {
                            start.wait();
                            (0..2 * TEXTS).map(|i| db.add(&text(i % TEXTS)).0).collect()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            assert_eq!(db.len(), TEXTS);
            let stored: HashSet<String> = db.get_from(0).into_iter().collect();
            assert_eq!(stored, (0..TEXTS).map(text).collect());
            // Every thread was handed the one index each text is stored at.
            for indices in seen {
                for (i, at) in indices.into_iter().enumerate() {
                    assert_eq!(db.contains(&text(i % TEXTS)), Some(at));
                }
            }
        }
    }

    #[test]
    fn a_new_add_hashes_its_text_once_and_a_duplicate_probe_once() {
        // The index is filled first, so the count does not depend on
        // whether a map skips hashing a probe of an empty table.
        let db = SignatureDb::new();
        for i in 0..256 {
            db.add(&format!("warm-{i}"));
        }
        for i in 256..320 {
            let t = format!("sig-{i}-{}", "h".repeat(1700));
            // The server's order: the fast-path probe misses, and the add
            // carries the key it returned.
            let new = hashes(|| {
                let Err(key) = db.probe(&t) else {
                    panic!("{t} is new")
                };
                assert_eq!(db.add_new(key, &t, |_| {}), (i, true));
            });
            assert_eq!(new, 1, "text hashes per new add");
            let dup = hashes(|| assert_eq!(db.contains(&t), Some(i)));
            assert_eq!(dup, 1, "text hashes per duplicate probe");
        }
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
        // be fully materialized (no holes below the observed length).
        for _ in 0..50 {
            let n = db.len();
            let got = db.get_from(0);
            assert!(got.len() >= n, "len()={n} but get_from(0)={}", got.len());
        }
        writer.join().unwrap();
        assert_eq!(db.len(), 2000);
    }

    #[test]
    fn no_reader_waits_on_the_journal() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let db = SignatureDb::new();
        db.add("stored");
        let (entered, journaling) = channel();
        let (release, held) = channel::<()>();
        let (read, reads) = channel();
        std::thread::scope(|s| {
            let db = &db;
            let writer = s.spawn(move || {
                db.add_with("new", |_| {
                    entered.send(()).unwrap();
                    held.recv().unwrap();
                })
            });
            // The writer holds the append lock inside its journal call.
            journaling.recv().unwrap();
            s.spawn(move || {
                let window = db.window(0, 0);
                let found = db.contains("stored");
                read.send((window, found, db.len(), db.stored_bytes()))
                    .unwrap();
            });
            let got = reads.recv_timeout(Duration::from_secs(10));
            release.send(()).unwrap();
            let (window, found, len, bytes) = got.expect("a reader waited on the journal");
            assert_eq!(window, (0, vec![Arc::from("stored")], 1));
            assert_eq!((found, len, bytes), (Some(0), 1, 6));
            assert_eq!(writer.join().unwrap(), (1, true));
        });
        assert_eq!(db.get_from(0), ["stored", "new"]);
    }

    /// `ops` with a prefix drop at every `drops` step, against the model
    /// of a `Vec` whose evicted slots read `None`: every live text keeps
    /// its index and a window below the base starts at it.
    fn check_drops_against_the_model(
        db: &SignatureDb,
        ops: &[(usize, usize)],
    ) -> Result<(), TestCaseError> {
        let mut log: Vec<Option<String>> = Vec::new();
        for &(key, drop) in ops {
            let t = text(key);
            let at = log.iter().position(|s| s.as_deref() == Some(&t));
            let added = db.add(&t);
            prop_assert_eq!(added, (at.unwrap_or(log.len()), at.is_none()));
            if at.is_none() {
                log.push(Some(t));
            }
            // Drop below a base anywhere from the current one to the end.
            let base = db.base();
            let to = base + drop % (log.len() - base + 1);
            let gone: Vec<String> = log[base..to].iter().flatten().cloned().collect();
            let (sigs, bytes) = db.drop_below(to);
            prop_assert_eq!(
                (sigs, bytes),
                (gone.len(), gone.iter().map(String::len).sum())
            );
            log[base..to].iter_mut().for_each(|s| *s = None);
            prop_assert_eq!(db.base(), to);
            let live: Vec<String> = log[to..].iter().flatten().cloned().collect();
            prop_assert_eq!(&db.get_from(0), &live);
            prop_assert_eq!(db.len(), live.len());
            for (i, s) in log.iter().enumerate() {
                let probe = s.as_ref().map(|s| db.contains(s));
                prop_assert!(probe.is_none() || probe == Some(Some(i)), "index {}", i);
            }
            for k in 0..24 {
                let t = text(k);
                let want = log.iter().position(|s| s.as_deref() == Some(&t));
                prop_assert_eq!(db.contains(&t), want);
            }
            let (start, sigs, total) = db.window(0, 2);
            prop_assert_eq!((start, total), (to, log.len()));
            let sigs: Vec<String> = sigs.iter().map(|s| s.to_string()).collect();
            prop_assert_eq!(&sigs[..], &live[..live.len().min(2)]);
        }
        Ok(())
    }

    proptest! {
        /// Prefix drops under real keys and under keys masked until
        /// overflow survivors must take their evicted key over.
        #[test]
        fn a_prefix_drop_keeps_every_live_index_and_key(
            ops in proptest::collection::vec((0usize..24, 0usize..6), 1..80),
        ) {
            for db in both_keys() {
                check_drops_against_the_model(&db, &ops)?;
            }
        }
    }

    #[test]
    fn a_window_below_the_base_starts_at_it() {
        let db = holding(&[10; 6]);
        assert_eq!(db.drop_below(4), (4, 40));
        assert_eq!((db.base(), db.len(), db.stored_bytes()), (4, 2, 20));
        let (start, sigs, total) = db.window(1, 0);
        assert_eq!((start, sigs.len(), total), (4, 2, 6));
        assert_eq!(db.window(5, 0).1, db.window(0, 0).1[1..]);
        assert_eq!(db.window(9, 0), (9, Vec::new(), 6));
        assert_eq!(db.add("new"), (6, true));
        // Dropping to the end leaves an empty log that goes on there.
        assert_eq!(db.drop_below(usize::MAX).0, 3);
        assert_eq!((db.base(), db.window(0, 0)), (7, (7, Vec::new(), 7)));
        assert_eq!(db.add("newer"), (7, true));
        let again = SignatureDb::starting_at(7);
        assert_eq!(again.add("newer"), (7, true));
    }

    #[test]
    fn a_replayed_duplicate_keeps_its_place() {
        // Recovery puts each record at its place in the log, even a text
        // stored twice there: the first copy answers probes, and once it
        // is evicted, the second does.
        for db in both_keys() {
            for t in ["a", "b", "a", "c"] {
                db.replay(t);
            }
            assert_eq!(db.get_from(0), ["a", "b", "a", "c"]);
            assert_eq!(db.contains("a"), Some(0));
            db.drop_below(1);
            assert_eq!(db.contains("a"), Some(2));
            assert_eq!(db.add("a"), (2, false));
            db.drop_below(3);
            assert_eq!(db.add("a"), (4, true));
        }
    }
}
