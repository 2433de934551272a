//! What the server keeps, counted rather than timed: the live heap an
//! accepted ADD leaves behind beyond its own text.
//!
//! §III-C2's adjacency check reads only the top-frame sites of a sender's
//! earlier signatures, so that — not the whole parsed signature — is what
//! may outlive the request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use communix_crypto::sha256;
use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
use communix_net::{Reply, Request};

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

#[test]
fn an_accepted_add_keeps_its_text_and_little_else() {
    let server = communix_server::builder().build().expect("in-memory");
    let adds: Vec<_> = (0..ADDS)
        .map(|i| {
            let sender = server.authority().issue((i / PER_SENDER) as u64);
            (sender, signature(i).to_string())
        })
        .collect();
    let text_bytes: i64 = adds.iter().map(|(_, t)| t.len() as i64).sum();
    assert!((1500..2000).contains(&(text_bytes / ADDS as i64)));

    let before = live();
    for (sender, text) in &adds {
        // The clone is freed when the request is: it nets to zero.
        let reply = server.handle(Request::Add {
            sender: *sender,
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

    assert_eq!(server.db().len(), ADDS);
    let beyond_text = (kept - text_bytes) / ADDS as i64;
    assert!(
        beyond_text <= 1024,
        "{beyond_text} bytes kept per accepted ADD beyond its {} byte text",
        text_bytes / ADDS as i64
    );
}
