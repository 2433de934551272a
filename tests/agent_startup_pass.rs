//! The agent's start-up pass on the benchmark's `node_startup` inputs:
//! `JBOSS.scaled(0.1)` with 1000 application-valid remote signatures.
//! Pins what one `CommunixNode::startup` decides (the tally and the
//! history's digest) and counts what it allocates instead of timing it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use communix::analysis::NestingAnalyzer;
use communix::bytecode::LoweredProgram;
use communix::crypto::sha256;
use communix::workloads::{SigGen, JBOSS};
use communix::{CommunixNode, NodeConfig};

thread_local! {
    /// Allocations made by this thread (the harness runs other tests on
    /// other threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// after the thread's storage is torn down (`try_with` covers that case).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SIGS: usize = 1000;

/// SHA-256 of the history's text after one start-up, the same for every
/// `SigGen` seed: the generator draws nothing at random for these
/// signatures.
const HISTORY_SHA256: &str = "b9493e028021bcaf7ba5f18f92516f576091eb74724adf38f4f00090dabfce1d";

/// A node for `JBOSS.scaled(0.1)` shut down once (so its nesting
/// analysis has run) whose repository holds `SIGS` uninspected valid
/// signatures from `SigGen::new(seed)`.
fn node(seed: u64) -> CommunixNode {
    let program = JBOSS.scaled(0.1).generate();
    let report = NestingAnalyzer::new(&LoweredProgram::lower(&program)).analyze();
    let texts = SigGen::new(seed).valid_remote_sig_texts(&program, &report, SIGS);
    let mut node = CommunixNode::new(program, NodeConfig::for_user(1));
    node.shutdown();
    node.repo_mut().append(texts).expect("in-memory repository");
    node
}

#[test]
fn startup_pass_tally_and_history_are_pinned() {
    for seed in [1, 7, 901] {
        let mut node = node(seed);
        let r = node.startup();
        assert_eq!(
            (r.inspected, r.accepted, r.merged, r.duplicates),
            (1000, 12, 12, 976),
            "seed {seed}"
        );
        assert_eq!((r.rejected, r.deferred), (0, 0), "seed {seed}");
        assert_eq!(node.history().len(), 12, "seed {seed}");
        let digest = sha256(node.history().to_text().as_bytes()).to_hex();
        assert_eq!(digest, HISTORY_SHA256, "seed {seed}");
    }
}

/// The pass parses, validates and generalizes each signature without
/// copying its text, re-allocating a name its previous frame already
/// holds or rebuilding its bug identity per history probe, and without
/// hashing a class or copying the node's class-hash index: 20,049
/// allocations per start-up, ≈ 20 per signature. It was 68,269 when the
/// pass did the first three, 20,336 while every start-up re-hashed the
/// classes into a fresh `String`-keyed map that the validator then
/// copied, and 20,189 with the re-hash gone but the copy kept. Every
/// frame of these signatures repeats its predecessor's class and
/// method, so name sharing saves the most it can here.
#[test]
fn a_startup_pass_allocates_at_most_25_per_signature() {
    let mut node = node(1);
    let mut report = None;
    let n = allocations(|| report = Some(node.startup()));
    assert_eq!(report.expect("ran").inspected, SIGS);
    assert_eq!(n, 20_049, "allocations for a {SIGS}-signature start-up");
    assert!(n <= 25 * SIGS as u64);
}

/// A start-up with nothing uninspected, on the node that has just
/// inspected all `SIGS`: it loads the classes and clones and reinstalls
/// the 12-signature history, and hashes and copies no class name: 169
/// allocations. It was 456 while each start-up rebuilt a `String`-keyed
/// map of all 139 classes and the validator copied it, and 309 with
/// only the copy left.
#[test]
fn an_idle_startup_allocates_a_pinned_count() {
    let mut node = node(1);
    node.startup();
    let mut report = None;
    let n = allocations(|| report = Some(node.startup()));
    assert_eq!(report.expect("ran").inspected, 0);
    assert_eq!(n, 169, "allocations for an idle start-up");
}

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}
