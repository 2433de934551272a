//! The server's signature database.
//!
//! An append-only, index-addressed store: a client asks for the
//! signatures from index k (§III-B) and is served them one budgeted
//! window at a time, so it downloads incrementally.
//!
//! # Two locks, one order
//!
//! Dedup'd adds commute for the stored *set*, but the *index* is the
//! client's only cursor (`GET_DELTA(from)`), so the order signatures are
//! numbered in is observable state and appends take one lock, the
//! *append lock*. A new signature gets its index, its journal record
//! ([`SignatureDb::add_with`]'s hook: a durable store's WAL append) and
//! its visibility under it: index order = journal order = the order a
//! replay recovers. What needs no order — hashing, the fast-path probe,
//! allocating the text, framing the record — happens before the lock.
//!
//! Probes and bounded reads commute, so they share the other lock: the
//! log, which holds the texts in index order, their byte total and the
//! dedup index. A writer takes it for the push alone, which inserts the
//! text and its index entry together, never across the journal; a
//! reader takes it for one probe or one window of at most
//! [`REPLY_BUDGET`] bytes, so no reader waits on file I/O. Lock order:
//! append lock → log. The tests hold the store to a `Vec` + set model,
//! which is the whole reference.
//!
//! # One hash per call, exact dedup
//!
//! A signature text is ≈ 1.7 KB, so hashing it is most of a probe. Each
//! call hashes the text once, with the database's keyed `RandomState`
//! (an adversary who cannot predict the keys cannot aim distinct texts at
//! one bucket), and that 64-bit key finds the index: a new ADD costs two
//! hashes, the server's fast-path [`SignatureDb::contains`] and
//! [`SignatureDb::add_with`], and a duplicate probe one. The hash is not
//! carried from one call to the next: GC swaps in a fresh database with
//! fresh keys, so a carried hash could probe with the wrong ones.
//!
//! A key only nominates a candidate. Dedup is exact: the text at the
//! candidate's index must be equal, and a different text whose key is
//! taken goes to the overflow map, keyed by the text itself — the rare
//! case, hashed a second time there. A text is stored once, as an
//! `Arc<str>` the overflow map shares, and [`SignatureDb::window`] hands
//! readers further handles to it instead of copies.

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

/// The append lock's token: `push` takes `&mut Tail`, so minting an
/// index without the append lock is a compile error.
#[derive(Debug)]
struct Tail;

/// Every stored text in index order, their bytes in all, and the dedup
/// index over them: keyed text hash → index, plus the texts whose hash
/// an earlier, different text already holds.
#[derive(Debug, Default)]
struct Log {
    all: Vec<Arc<str>>,
    bytes: usize,
    by_key: HashMap<u64, usize>,
    /// Text → index for the keys taken twice. An entry's key is always
    /// in `by_key` too, so a probe whose key is absent there stops.
    overflow: HashMap<Arc<str>, usize>,
}

impl Log {
    /// The index `text` is stored at, if any.
    fn find(&self, key: u64, text: &str) -> Option<usize> {
        let &i = self.by_key.get(&key)?;
        if &*self.all[i] == text {
            return Some(i);
        }
        self.overflow.get(text).copied()
    }

    /// Appends `text` under `key` and returns its index.
    fn push(&mut self, _: &mut Tail, key: u64, text: Arc<str>) -> usize {
        let i = self.all.len();
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
        SignatureDb {
            hasher: RandomState::new(),
            #[cfg(test)]
            key_mask: u64::MAX,
            tail: Mutex::new(Tail),
            log: RwLock::default(),
        }
    }

    /// The dedup key of `sig_text`: the one place the database hashes a
    /// text. It hashes the whole text: a prefix/suffix shortcut would let
    /// an adversary craft distinct signatures that collapse every dedup
    /// probe onto one key (this server's whole point is surviving
    /// hostile senders, §III-C).
    fn key(&self, sig_text: &str) -> u64 {
        let key = self.hasher.hash_one(sig_text);
        #[cfg(test)]
        let key = {
            tests::HASHES.with(|n| n.set(n.get() + 1));
            key & self.key_mask
        };
        key
    }

    /// Appends `sig_text` unless an identical signature is already
    /// stored. Returns `(index, newly_added)`.
    pub fn add(&self, sig_text: &str) -> (usize, bool) {
        self.add_with(sig_text, |_| {})
    }

    /// [`SignatureDb::add`], calling `journal` with the text of a
    /// genuinely new signature under the append lock, after the dedup
    /// re-probe and before the signature becomes visible: journal calls
    /// happen in index order, and a duplicate makes none.
    pub(crate) fn add_with(&self, sig_text: &str, journal: impl FnOnce(&str)) -> (usize, bool) {
        let key = self.key(sig_text);
        // Fast path: read lock for the duplicate probe.
        if let Some(i) = self.log.read().find(key, sig_text) {
            return (i, false);
        }
        // The one copy of the text: the log and an overflow entry share it.
        let text: Arc<str> = Arc::from(sig_text);
        let mut tail = self.tail.lock();
        // Every insert happens under the append lock, so this probe is final.
        if let Some(i) = self.log.read().find(key, sig_text) {
            return (i, false);
        }
        journal(sig_text);
        // Text and index entry appear together under the log's write lock,
        // held for the push alone, never across the journal.
        let i = self.log.write().push(&mut tail, key, text);
        (i, true)
    }

    /// Index of `sig_text` if it is already stored. Takes only the log's
    /// *read* lock — this is the server's dedup fast path.
    pub fn contains(&self, sig_text: &str) -> Option<usize> {
        let key = self.key(sig_text);
        self.log.read().find(key, sig_text)
    }

    /// All signatures from index `from` (copies, made after the lock is
    /// released; the caller ships them).
    pub fn get_from(&self, from: usize) -> Vec<String> {
        let handles = {
            let log = self.log.read();
            log.all[from.min(log.all.len())..].to_vec()
        };
        handles.iter().map(|t| String::from(&**t)).collect()
    }

    /// The window behind `GET` and `GET_DELTA`: the signatures from index
    /// `from`, at most `max` of them (`0`: no count cap), closed at the
    /// last one whose `DELTA` reply stays within [`REPLY_BUDGET`] bytes,
    /// plus the current total. A window holds at least one signature
    /// while any is left, so every window moves its reader on. The walk
    /// measures before it copies: the texts are handles to the stored
    /// ones, and only those served are handed out.
    pub fn window(&self, from: usize, max: usize) -> (Vec<Arc<str>>, usize) {
        let log = self.log.read();
        let total = log.all.len();
        let from = from.min(total);
        let to = match max {
            0 => total,
            max => from.saturating_add(max).min(total),
        };
        let mut text_bytes = 0;
        let fit = log.all[from..to]
            .iter()
            .enumerate()
            .take_while(|(i, t)| {
                text_bytes += t.len();
                reply_bytes(i + 1, text_bytes) <= REPLY_BUDGET
            })
            .count()
            .max(usize::from(from < to));
        (log.all[from..from + fit].to_vec(), total)
    }

    /// [`SignatureDb::window`], by the name `benchmark/` calls (ROADMAP
    /// item 1A retires it).
    pub fn delta(&self, from: usize, max: usize) -> (Vec<Arc<str>>, usize) {
        self.window(from, max)
    }

    /// Number of stored signatures.
    pub fn len(&self) -> usize {
        self.log.read().all.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of stored signature text (reporting).
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
                    let (sigs, total) = db.window(from, max);
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
        assert_eq!(db.window(0, 0).0.len(), 15);
        assert_eq!(db.window(3, 0), (db.window(3, 15).0, 20));
        assert_eq!(db.window(15, 0).0.len(), 5);
        // The client's count cap closes it earlier.
        assert_eq!(db.window(0, 4).0.len(), 4);
        // A window ends exactly at the budget: one byte less and the last
        // text waits for the next window.
        let fits = REPLY_BUDGET - reply_bytes(2, 0) - 1000;
        assert_eq!(holding(&[1000, fits]).window(0, 0).0.len(), 2);
        assert_eq!(holding(&[1000, fits + 1]).window(0, 0).0.len(), 1);
    }

    #[test]
    fn a_window_holds_one_text_even_past_the_budget() {
        let db = holding(&[REPLY_BUDGET + 1, 10]);
        assert_eq!(db.window(0, 0).0.len(), 1);
        assert_eq!(db.window(1, 0).0.len(), 1);
        assert_eq!(db.window(2, 0), (Vec::new(), 2));
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
    fn a_new_add_hashes_its_text_twice_and_a_duplicate_probe_once() {
        // The index is filled first, so the count does not depend on
        // whether a map skips hashing a probe of an empty table.
        let db = SignatureDb::new();
        for i in 0..256 {
            db.add(&format!("warm-{i}"));
        }
        for i in 256..320 {
            let t = format!("sig-{i}-{}", "h".repeat(1700));
            // The server's order: the fast-path probe misses, then the add.
            let new = hashes(|| {
                assert_eq!(db.contains(&t), None);
                assert_eq!(db.add(&t), (i, true));
            });
            assert_eq!(new, 2, "text hashes per new add");
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
            assert_eq!(window, (vec![Arc::from("stored")], 1));
            assert_eq!((found, len, bytes), (Some(0), 1, 6));
            assert_eq!(writer.join().unwrap(), (1, true));
        });
        assert_eq!(db.get_from(0), ["stored", "new"]);
    }
}
