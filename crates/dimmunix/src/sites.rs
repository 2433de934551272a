//! The site table: every lock-path site a core has seen, numbered.
//!
//! The lock path compares call stacks frame by frame, and a [`Site`] is
//! two `Arc<str>` names and a line: copying one costs two refcount
//! updates, and a new one two allocations. So each [`DimmunixCore`]
//! numbers the distinct `(class, method, line)` triples it meets, and
//! everything an acquisition touches — the hosting runtime's per-thread
//! stack, the holds, waits and suspended requests, the matcher's index
//! and its suffix compare — is a slice of [`SiteId`]s. Copying a stack
//! copies integers; comparing two compares integers. A [`CallStack`] is
//! rebuilt from ids only when a deadlock's signature is extracted.
//!
//! The table is append-only and shared, through an `Arc`, by a core, its
//! matcher and the runtime that hosts them, so a thread pushing a frame
//! interns its site without the core's mutex. Lookups take a read lock and
//! do not block each other; only a site never seen before takes the write
//! lock. Lock order: a holder of the core's mutex may take the table's
//! lock, never the reverse.
//!
//! # Bound
//!
//! An entry is added for a site of the program (a frame a runtime pushes,
//! a stack handed to [`DimmunixCore::request`]) or of an outer stack of a
//! history the core was given. Queries never add one: the owned-record
//! matcher entry points look sites up, and a site the table lacks matches
//! nothing. Nothing is ever removed, so the table holds the union of the
//! program's sites and those of every history installed — not one entry
//! per acquisition, and none for network input: the server and the agent
//! work on [`Signature`](crate::Signature)s, never on a core.
//!
//! Each lookup hashes the triple once with the table's keyed
//! `RandomState`; the key maps to the first id that had it, which must be
//! equal to count as a hit. A different site whose key is taken goes to a
//! short overflow list, scanned only on such a collision.
//!
//! [`DimmunixCore`]: crate::DimmunixCore
//! [`DimmunixCore::request`]: crate::DimmunixCore::request

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, RandomState};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::frame::{CallStack, Frame, Site};

/// A site's number in its [`SiteTable`]. Ids from one table mean nothing
/// to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(u32);

impl SiteId {
    /// The id as an index: ids are dense, from 0 in order of arrival.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// What a lookup reports for a site the table lacks: equal to no id
    /// the table hands out, so a stack holding it matches no signature
    /// frame there.
    const UNKNOWN: SiteId = SiteId(u32::MAX);
}

/// An append-only, thread-safe `(class, method, line)` ↔ [`SiteId`]
/// table: a core's numbering of the sites its lock path sees (see
/// [`DimmunixCore::sites`](crate::DimmunixCore::sites)).
///
/// It holds the sites of the program and of the outer stacks of every
/// history the core was given, each once: an acquisition or a lookup adds
/// nothing, and nothing is removed.
#[derive(Debug, Default)]
pub struct SiteTable {
    sites: RwLock<Sites>,
}

impl SiteTable {
    /// An empty table.
    pub fn new() -> Self {
        SiteTable::default()
    }

    /// The id of `class.method:line`, added if the table lacks it. A site
    /// already present costs a read lock and one hash, and allocates
    /// nothing.
    pub fn intern(&self, class: &str, method: &str, line: u32) -> SiteId {
        if let Some(id) = self.read().get(class, method, line) {
            return id;
        }
        self.write().intern(class, method, line)
    }

    /// The ids of `stack`'s frames, outermost first, adding the sites the
    /// table lacks. Frame hashes are ignored, as in every site comparison.
    pub fn intern_stack(&self, stack: &CallStack) -> Box<[SiteId]> {
        let frames = stack.frames();
        let known: Option<Box<[SiteId]>> = {
            let sites = self.read();
            frames.iter().map(|f| sites.get_site(&f.site)).collect()
        };
        known.unwrap_or_else(|| {
            let mut sites = self.write();
            frames.iter().map(|f| sites.intern_site(&f.site)).collect()
        })
    }

    /// The site `id` stands for.
    ///
    /// # Panics
    ///
    /// If `id` was not handed out by this table.
    pub fn resolve(&self, id: SiteId) -> Site {
        self.read().resolve(id).clone()
    }

    /// Number of distinct sites interned.
    pub fn len(&self) -> usize {
        self.read().sites.len()
    }

    /// Whether no site was interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access, for resolving or looking up many sites under one
    /// lock. Do not intern while holding it: the write lock waits for it.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Sites> {
        self.sites
            .read()
            .expect("site table poisoned: a thread panicked while interning")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Sites> {
        self.sites
            .write()
            .expect("site table poisoned: a thread panicked while interning")
    }
}

/// The table's contents, behind its lock.
#[derive(Debug)]
pub(crate) struct Sites {
    hasher: RandomState,
    /// Test builds can narrow every key to a few bits, so that nearly
    /// every insert collides and takes the overflow path.
    #[cfg(test)]
    key_mask: u64,
    /// Keyed hash of the triple → the first id with that key.
    by_key: HashMap<u64, SiteId>,
    /// Ids whose key an earlier, different site holds. An entry's key is
    /// always in `by_key` too, so a probe whose key is absent there stops.
    overflow: Vec<SiteId>,
    /// Indexed by id.
    sites: Vec<Site>,
}

impl Default for Sites {
    fn default() -> Self {
        Sites {
            hasher: RandomState::new(),
            #[cfg(test)]
            key_mask: u64::MAX,
            by_key: HashMap::new(),
            overflow: Vec::new(),
            sites: Vec::new(),
        }
    }
}

impl Sites {
    fn key(&self, class: &str, method: &str, line: u32) -> u64 {
        let key = self.hasher.hash_one((class, method, line));
        #[cfg(test)]
        let key = key & self.key_mask;
        key
    }

    fn is(&self, id: SiteId, class: &str, method: &str, line: u32) -> bool {
        let s = &self.sites[id.index()];
        s.line == line && *s.method == *method && *s.class == *class
    }

    fn find(&self, key: u64, class: &str, method: &str, line: u32) -> Option<SiteId> {
        let &first = self.by_key.get(&key)?;
        if self.is(first, class, method, line) {
            return Some(first);
        }
        self.overflow
            .iter()
            .copied()
            .find(|&id| self.is(id, class, method, line))
    }

    /// The id of `class.method:line`, if interned.
    fn get(&self, class: &str, method: &str, line: u32) -> Option<SiteId> {
        self.find(self.key(class, method, line), class, method, line)
    }

    /// The id of `site`, if interned.
    pub(crate) fn get_site(&self, site: &Site) -> Option<SiteId> {
        self.get(&site.class, &site.method, site.line)
    }

    fn intern(&mut self, class: &str, method: &str, line: u32) -> SiteId {
        let key = self.key(class, method, line);
        self.find(key, class, method, line)
            .unwrap_or_else(|| self.insert(key, Site::new(class, method, line)))
    }

    /// [`intern`](Self::intern) for a site someone already holds: a new
    /// entry shares its names.
    fn intern_site(&mut self, site: &Site) -> SiteId {
        let (class, method, line) = (&site.class, &site.method, site.line);
        let key = self.key(class, method, line);
        self.find(key, class, method, line)
            .unwrap_or_else(|| self.insert(key, site.clone()))
    }

    fn insert(&mut self, key: u64, site: Site) -> SiteId {
        let id = u32::try_from(self.sites.len())
            .ok()
            .filter(|&n| n != SiteId::UNKNOWN.0)
            .map(SiteId)
            .expect("site table full: 2^32 - 1 distinct sites");
        self.sites.push(site);
        match self.by_key.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.overflow.push(id),
        }
        id
    }

    /// The site `id` stands for.
    pub(crate) fn resolve(&self, id: SiteId) -> &Site {
        self.sites
            .get(id.index())
            .expect("site id from another table")
    }

    /// The ids of `stack`'s frames, a site this table lacks as an id that
    /// matches nothing. Adds nothing.
    pub(crate) fn lookup(&self, stack: &CallStack) -> Vec<SiteId> {
        stack
            .frames()
            .iter()
            .map(|f| self.get_site(&f.site).unwrap_or(SiteId::UNKNOWN))
            .collect()
    }

    /// The call stack `ids` stand for. Dimmunix frames carry no bytecode
    /// hash (the Communix plugin attaches hashes to an extracted
    /// signature), so neither do these.
    pub(crate) fn stack(&self, ids: &[SiteId]) -> CallStack {
        ids.iter()
            .map(|&id| Frame {
                site: self.resolve(id).clone(),
                hash: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Barrier;

    use communix_crypto::sha256;

    use super::*;

    impl SiteTable {
        /// A table whose keys keep only `mask`'s bits.
        fn with_key_mask(mask: u64) -> SiteTable {
            let table = SiteTable::new();
            table.write().key_mask = mask;
            table
        }
    }

    /// 64 distinct sites, some sharing a class and method or a line.
    fn sites() -> Vec<Site> {
        (0..64u32)
            .map(|i| Site::new(format!("app.C{}", i % 4), format!("m{}", i % 8), i / 2))
            .collect()
    }

    fn intern(table: &SiteTable, s: &Site) -> SiteId {
        table.intern(&s.class, &s.method, s.line)
    }

    #[test]
    fn interning_is_idempotent() {
        let table = SiteTable::new();
        let a = table.intern("app.C", "run", 3);
        assert_eq!(table.intern("app.C", "run", 3), a);
        assert_eq!(table.len(), 1);
        let b = table.intern("app.C", "run", 4);
        assert_ne!(a, b);
        assert_eq!(table.intern("app.C", "run", 3), a);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn resolve_inverts_intern() {
        for table in [SiteTable::new(), SiteTable::with_key_mask(0b11)] {
            let ids: Vec<SiteId> = sites().iter().map(|s| intern(&table, s)).collect();
            assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), 64);
            for (s, &id) in sites().iter().zip(&ids) {
                assert_eq!(table.resolve(id), *s);
                assert_eq!(intern(&table, s), id, "a second intern finds {s}");
            }
            assert_eq!(table.len(), 64);
        }
    }

    #[test]
    fn colliding_keys_take_the_overflow_list_and_stay_exact() {
        let table = SiteTable::with_key_mask(0);
        let ids: Vec<SiteId> = sites().iter().map(|s| intern(&table, s)).collect();
        assert_eq!(table.read().overflow.len(), 63, "one key for all 64");
        for (s, &id) in sites().iter().zip(&ids) {
            assert_eq!(table.read().get_site(s), Some(id));
        }
        assert_eq!(table.read().get("app.C0", "m0", 999), None);
    }

    #[test]
    fn stacks_round_trip_without_hashes() {
        let table = SiteTable::new();
        let mut stack: CallStack = sites()
            .into_iter()
            .map(|s| Frame {
                site: s,
                hash: None,
            })
            .collect();
        let ids = table.intern_stack(&stack);
        assert_eq!(table.read().stack(&ids), stack);
        // A hash names a code version, not a site: the ids are the same,
        // and a rebuilt stack carries none.
        let plain = stack.clone();
        stack.frames_mut()[0].hash = Some(sha256(b"v2"));
        assert_eq!(table.intern_stack(&stack), ids);
        assert_eq!(table.read().stack(&ids), plain);
        assert_eq!(table.len(), 64);
    }

    #[test]
    fn lookup_adds_nothing_and_an_absent_site_matches_nothing() {
        let table = SiteTable::new();
        let known = table.intern("app.C", "run", 1);
        let stack: CallStack = [
            Frame::new("app.C", "main", 0),
            Frame::new("app.C", "run", 1),
        ]
        .into_iter()
        .collect();
        let ids = table.read().lookup(&stack);
        assert_eq!(ids, vec![SiteId::UNKNOWN, known]);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn concurrent_interning_gives_one_id_per_site() {
        const THREADS: usize = 8;
        let table = SiteTable::with_key_mask(0b111);
        let barrier = Barrier::new(THREADS);
        let per_thread: Vec<Vec<(Site, SiteId)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (table, barrier) = (&table, &barrier);
                    scope.spawn(move || {
                        // Each thread walks the sites from its own offset, so
                        // first sightings race.
                        let mut order = sites();
                        order.rotate_left(t * 8);
                        barrier.wait();
                        order
                            .into_iter()
                            .map(|s| {
                                let id = intern(table, &s);
                                (s, id)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread panicked"))
                .collect()
        });
        assert_eq!(table.len(), 64);
        for seen in &per_thread {
            for (s, id) in seen {
                assert_eq!(table.resolve(*id), *s);
                assert_eq!(intern(&table, s), *id);
            }
        }
    }
}
