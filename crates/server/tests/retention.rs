//! What the server keeps, counted rather than timed: the live heap an
//! accepted ADD leaves behind beyond its own text.
//!
//! §III-C2's adjacency check reads only the top-frame sites of a sender's
//! earlier signatures, so a key of 8 B per site — not the whole parsed
//! signature, nor the sites' names — is what may outlive the request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use communix_crypto::sha256;
use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
use communix_net::{Reply, Request, MAX_SIG_BYTES};

thread_local! {
    /// Bytes this thread has allocated and not yet freed (the server runs
    /// in-memory on the test thread; the harness runs on others).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// after the thread's storage is torn down (`try_with` covers that case).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

const ADDS: usize = 4000;
/// Consecutive ADDs per sender before the next one takes over (inside the
/// daily budget of ten).
const PER_SENDER: usize = 8;

/// Signature `i`, shaped like the benchmark's generated ones: two entries,
/// outer stacks of depth 8 and inner of depth 2, every frame hashed,
/// ≈ 1.7 KB of text, top frames distinct per signature.
fn signature(i: usize) -> Signature {
    let stack = |role: usize, depth: usize| -> CallStack {
        (0..depth)
            .map(|d| {
                let class = format!("srv.p{}.C{}", i % 50, (i * 7 + d * 13 + role * 3) % 40);
                let method = format!("m{}", (i + d * 5 + role) % 30);
                let line = if d + 1 == depth {
                    (i * 10 + role) as u32
                } else {
                    ((i * 31 + d * 97 + role * 7) % 5000 + 1) as u32
                };
                let hash = sha256(format!("bytecode:{class}:{i}").as_bytes());
                Frame::with_hash(class, method, line, hash)
            })
            .collect()
    };
    Signature::local(vec![
        SigEntry::new(stack(0, 8), stack(1, 2)),
        SigEntry::new(stack(2, 8), stack(3, 2)),
    ])
}

/// Entries of a [`wide_signature`].
const WIDE_ENTRIES: usize = 300;

/// A signature of `WIDE_ENTRIES` entries, each entry's outer and inner
/// stack one hashed frame with a top-frame site of its own: 600 sites in
/// ≈ 64 KB of text, just under `MAX_SIG_BYTES`, so close to the most top
/// frames one ADD can make the server keep.
fn wide_signature(i: usize) -> Signature {
    let frame = |e: usize, role: usize| -> CallStack {
        let class = format!("org.example.svc.l{}.Comp{}", i % 7, e % 40);
        let hash = sha256(format!("bytecode:{class}").as_bytes());
        let line = (i * 1000 + e * 2 + role) as u32;
        std::iter::once(Frame::with_hash(class, format!("run{}", e % 9), line, hash)).collect()
    };
    Signature::local(
        (0..WIDE_ENTRIES)
            .map(|e| SigEntry::new(frame(e, 0), frame(e, 1)))
            .collect(),
    )
}

/// Sends each of `texts` as an ADD from user `user(i)` to a fresh
/// in-memory server, each accepted as new, and returns the live bytes
/// the server kept beyond the texts, per ADD.
fn kept_beyond_text_per_add(texts: &[String], user: impl Fn(usize) -> u64) -> i64 {
    let server = communix_server::builder().build().expect("in-memory");
    let adds: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| (server.authority().issue(user(i)), text))
        .collect();
    let text_bytes: i64 = texts.iter().map(|t| t.len() as i64).sum();
    let before = live();
    for (sender, text) in adds {
        // The clone is freed when the request is: it nets to zero.
        let reply = server.handle(Request::Add {
            sender,
            sig_text: text.clone(),
        });
        assert_eq!(
            reply,
            Reply::AddAck {
                accepted: true,
                reason: String::new()
            }
        );
    }
    let kept = live() - before;
    assert_eq!(server.db().len(), texts.len());
    (kept - text_bytes) / texts.len() as i64
}

#[test]
fn an_accepted_add_keeps_its_text_and_little_else() {
    let texts: Vec<_> = (0..ADDS).map(|i| signature(i).to_string()).collect();
    let text_bytes: i64 = texts.iter().map(|t| t.len() as i64).sum();
    assert!((1500..2000).contains(&(text_bytes / ADDS as i64)));

    // 143 B: the log's handle and dedup key for the text, the 32 B key
    // set of its 4 top frames and its share of the sender's state. It was
    // 799 B while each top-frame site was kept whole in a `BTreeSet`.
    let beyond_text = kept_beyond_text_per_add(&texts, |i| (i / PER_SENDER) as u64);
    assert!(
        beyond_text <= 143,
        "{beyond_text} bytes kept per accepted ADD beyond its {} byte text",
        text_bytes / ADDS as i64
    );
}

/// Ten senders send ten 300-entry ADDs each (the daily budget): what
/// each keeps beyond its text grows by at most 16 B per top-frame site
/// over a fixed base. It keeps 4,927 B for 600 sites; it kept 55,572 B
/// (≈ 93 B per site) while each site was kept whole in a `BTreeSet`.
#[test]
fn a_wide_add_keeps_at_most_16_bytes_per_top_frame_site() {
    const WIDE_ADDS: usize = 100;
    const BASE: i64 = 256;
    let texts: Vec<_> = (0..WIDE_ADDS)
        .map(|i| wide_signature(i).to_string())
        .collect();
    let longest = texts.iter().map(String::len).max().expect("texts");
    assert!((60_000..=MAX_SIG_BYTES).contains(&longest), "{longest} B");
    let sites = wide_signature(0).top_frame_sites().len() as i64;
    assert_eq!(sites, 2 * WIDE_ENTRIES as i64);

    let beyond_text = kept_beyond_text_per_add(&texts, |i| (i / 10) as u64);
    assert!(
        beyond_text <= 16 * sites + BASE,
        "{beyond_text} bytes kept per accepted ADD of {sites} top-frame sites"
    );
}
