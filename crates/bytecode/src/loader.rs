//! The class-loading model.
//!
//! Java loads classes lazily; the paper's agent exploits this in two ways:
//!
//! * it "computes the hash of a class [the] first time the class is
//!   loaded, then reuses the computed hash value" (§III-C3);
//! * "each time new classes are loaded, in addition to the ones loaded in
//!   the previous runs, the Communix agent repeats the nesting check" for
//!   signatures that previously failed it (§III-C3).
//!
//! [`ClassLoader`] tracks which classes of a [`Program`] are loaded in the
//! current run, remembers the set from previous runs, and reports the
//! delta: the second. The first is the node's: it hashes every class
//! once, when it is created, and its start-ups, which load every class,
//! validate against that one index. Nothing here keeps a digest, so
//! [`ClassLoader::loaded_hashes`] runs
//! [`ClassFile::bytecode_hash`](crate::ClassFile::bytecode_hash) for every
//! loaded class on every call. No product code calls it; it stays for
//! `benchmark/`'s replay of a start-up, whose files are frozen.

use std::collections::BTreeSet;

use communix_crypto::Digest;

use crate::class::Program;
use crate::names::ClassName;

/// What happened on a [`ClassLoader::load`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadEvent {
    /// The class was loaded for the first time this run.
    Loaded,
    /// The class was already loaded this run.
    AlreadyLoaded,
    /// The program has no such class.
    NotFound,
}

/// Tracks loaded classes across runs of an application.
#[derive(Debug, Clone, Default)]
pub struct ClassLoader {
    /// Classes loaded in the current run.
    loaded: BTreeSet<ClassName>,
    /// Union of classes loaded in all *previous* runs.
    previously_loaded: BTreeSet<ClassName>,
}

impl ClassLoader {
    /// Creates a loader with no load history.
    pub fn new() -> Self {
        ClassLoader::default()
    }

    /// Loads `name` (idempotent within a run).
    pub fn load(&mut self, program: &Program, name: &ClassName) -> LoadEvent {
        if program.class_by_name(name).is_none() {
            return LoadEvent::NotFound;
        }
        if self.loaded.insert(name.clone()) {
            LoadEvent::Loaded
        } else {
            LoadEvent::AlreadyLoaded
        }
    }

    /// Loads every class of the program (eager start-up, used by the
    /// profile workloads where start-up touches all classes).
    pub fn load_all(&mut self, program: &Program) {
        for c in program.iter() {
            self.loaded.insert(c.name.clone());
        }
    }

    /// Classes loaded in the current run.
    pub fn loaded(&self) -> &BTreeSet<ClassName> {
        &self.loaded
    }

    /// Whether `name` is loaded in the current run.
    pub fn is_loaded(&self, name: &ClassName) -> bool {
        self.loaded.contains(name)
    }

    /// Classes loaded this run that were **not** loaded in any previous
    /// run — the trigger for re-running the nesting analysis.
    pub fn newly_loaded(&self) -> BTreeSet<ClassName> {
        self.loaded
            .difference(&self.previously_loaded)
            .cloned()
            .collect()
    }

    /// Ends the current run: folds this run's loads into the history and
    /// clears the current-run set. Returns the classes that were new this
    /// run.
    pub fn end_run(&mut self) -> BTreeSet<ClassName> {
        let new = self.newly_loaded();
        self.previously_loaded.extend(self.loaded.iter().cloned());
        self.loaded.clear();
        new
    }

    /// Bytecode hashes of currently loaded classes only. The agent matches
    /// incoming signatures against this index (unloaded classes cannot be
    /// matched — their hashes are unknown to the running application).
    pub fn loaded_hashes(&self, program: &Program) -> Vec<(ClassName, Digest)> {
        self.loaded
            .iter()
            .filter_map(|n| {
                program
                    .class_by_name(n)
                    .map(|c| (n.clone(), c.bytecode_hash()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassFile, Method};

    fn two_class_program() -> Program {
        let mut p = Program::new();
        p.add_class(ClassFile::new("a.A", vec![Method::new("m", 1, vec![])]));
        p.add_class(ClassFile::new("b.B", vec![Method::new("m", 1, vec![])]));
        p
    }

    #[test]
    fn load_is_idempotent() {
        let p = two_class_program();
        let mut l = ClassLoader::new();
        let a = ClassName::new("a.A");
        assert_eq!(l.load(&p, &a), LoadEvent::Loaded);
        assert_eq!(l.load(&p, &a), LoadEvent::AlreadyLoaded);
        assert!(l.is_loaded(&a));
    }

    #[test]
    fn missing_class_reported() {
        let p = two_class_program();
        let mut l = ClassLoader::new();
        assert_eq!(l.load(&p, &ClassName::new("x.X")), LoadEvent::NotFound);
    }

    #[test]
    fn newly_loaded_tracks_run_delta() {
        let p = two_class_program();
        let mut l = ClassLoader::new();
        l.load(&p, &ClassName::new("a.A"));
        assert_eq!(l.newly_loaded().len(), 1);
        let new = l.end_run();
        assert_eq!(new.len(), 1);

        // Second run: a.A again (not new) plus b.B (new).
        l.load(&p, &ClassName::new("a.A"));
        l.load(&p, &ClassName::new("b.B"));
        let new = l.newly_loaded();
        assert_eq!(new.len(), 1);
        assert!(new.contains(&ClassName::new("b.B")));
    }

    #[test]
    fn end_run_clears_current_set() {
        let p = two_class_program();
        let mut l = ClassLoader::new();
        l.load_all(&p);
        l.end_run();
        assert!(l.loaded().is_empty());
        // Third run with nothing loaded: no new classes.
        assert!(l.newly_loaded().is_empty());
    }

    #[test]
    fn loaded_hashes_only_cover_loaded_classes() {
        let p = two_class_program();
        let mut l = ClassLoader::new();
        l.load(&p, &ClassName::new("a.A"));
        let hashes = l.loaded_hashes(&p);
        assert_eq!(hashes.len(), 1);
        assert_eq!(hashes[0].0, ClassName::new("a.A"));
    }

    #[test]
    fn load_all_loads_everything() {
        let p = two_class_program();
        let mut l = ClassLoader::new();
        l.load_all(&p);
        assert_eq!(l.loaded().len(), 2);
    }
}
