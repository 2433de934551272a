//! The read path, counted rather than timed: what serving and receiving a
//! `GET_DELTA` window allocates, what an accepted add allocates, what a
//! resync merge allocates — and that none of it changed a byte on
//! the wire, where a window closes at `REPLY_BUDGET` bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use communix_client::LocalRepository;
use communix_net::{
    frame, frame_reply_into, Handler, NonblockingClient, Reply, Request, TcpServer, REPLY_BUDGET,
};
use communix_server::{CommunixServer, SignatureDb};
use proptest::prelude::*;

thread_local! {
    /// Allocations made by this thread and their bytes (the harness and
    /// the transport run on other threads).
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// after the thread's storage is torn down (`try_with` covers that case).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` this thread made inside `f`, with `f`'s result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    (n1 - n0, b1 - b0, out)
}

/// Texts the servers below hold: more than one window's worth.
const STORED: usize = 4096;

/// A signature-sized text (the paper's 1.7 KB), distinct per `i`.
fn text(i: usize) -> String {
    format!("sig {i:08} {}", "frame a.b.C#method:123\n".repeat(72))
}

/// An in-memory server holding `n` texts.
fn server_holding(n: usize) -> Arc<CommunixServer> {
    let server = communix_server::builder().build().expect("in-memory");
    for i in 0..n {
        assert!(server.db().add(&text(i)).1);
    }
    server
}

/// The texts of a window and their bytes in all.
fn text_bytes(sigs: &[impl AsRef<str>]) -> u64 {
    sigs.iter().map(|s| s.as_ref().len() as u64).sum()
}

#[test]
fn serving_a_window_copies_text_only_into_the_write_buffer() {
    let server = server_holding(STORED);
    let mut out = BytesMut::with_capacity(2 * REPLY_BUDGET);
    let (allocs, bytes, reply) = allocations(|| {
        let reply = server.handle(Request::GetDelta { from: 0, max: 0 });
        frame_reply_into(&reply, &mut out);
        reply
    });
    let Reply::Delta { sigs, .. } = reply.into_owned() else {
        panic!("expected a delta");
    };
    assert!(sigs.len() < STORED, "one budgeted window");
    let text_bytes = text_bytes(&sigs);
    assert!(out.len() as u64 > text_bytes);
    // The window's handles, the timing sample: a handful, whatever the
    // window holds.
    assert!(allocs <= 8, "{allocs} allocations for one window");
    let handles = (sigs.len() * std::mem::size_of::<Arc<str>>()) as u64;
    assert!(
        bytes < 2 * handles,
        "{bytes} bytes allocated serving {text_bytes} bytes of text"
    );
}

#[test]
fn a_budgeted_window_allocates_for_itself_not_for_the_suffix() {
    // 10,000 texts ≈ 16.7 MB: a walk that cloned the suffix and then cut
    // it to the budget would allocate 10,000 handles for ≈ 600 served.
    let db = server_holding(10_000).db();
    let fit = (REPLY_BUDGET - (1 + 8 + 8 + 4)) / (4 + text(0).len());
    let handle = std::mem::size_of::<Arc<str>>() as u64;
    for from in [0, 5_000, 9_990] {
        let (allocs, bytes, (_, sigs, total)) = allocations(|| db.window(from, 0));
        assert_eq!(total, 10_000);
        assert_eq!(sigs.len(), (10_000 - from).min(fit), "served from {from}");
        // The window's exact handle vector, and nothing else.
        assert_eq!(allocs, 1, "allocations for one window");
        assert!(
            bytes <= handle * sigs.len() as u64,
            "{bytes} bytes allocated for a window of {} texts from {from}",
            sigs.len()
        );
    }
}

#[test]
fn receiving_a_window_copies_text_only_into_its_strings() {
    let server = server_holding(STORED);
    let handler: Handler = {
        let server = server.clone();
        Arc::new(move |request| server.handle(request))
    };
    let tcp = TcpServer::bind("127.0.0.1:0", handler).expect("bind");
    let mut conn = NonblockingClient::connect(tcp.addr()).expect("connect");
    let fetch = |conn: &mut NonblockingClient| {
        conn.queue(&Request::GetDelta { from: 0, max: 0 });
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            conn.flush().expect("flush");
            if let Some(reply) = conn.try_recv().expect("receive") {
                return reply;
            }
            assert!(Instant::now() < deadline, "no reply within 30 s");
            conn.wait(Some(Duration::from_millis(50))).expect("wait");
        }
    };
    let first = fetch(&mut conn);
    let (allocs, bytes, second) = allocations(|| fetch(&mut conn));
    assert_eq!(first, second);
    let frame = (4 + second.encode().len()) as f64;
    let Reply::Delta { sigs, .. } = second else {
        panic!("expected a delta");
    };
    let (count, text_bytes) = (sigs.len() as u64, text_bytes(&sigs));
    assert!(count < STORED as u64, "one budgeted window");
    // The strings, their vector, and the receive buffer: a drained
    // connection gave the first window's buffer back.
    assert!(
        allocs <= count + 8,
        "{allocs} allocations for {count} strings and their vector"
    );
    assert!(
        (bytes as f64) < 1.05 * text_bytes as f64 + 1.05 * frame,
        "{bytes} bytes allocated receiving {text_bytes} bytes of text in a {frame} B frame"
    );
}

#[test]
fn an_accepted_add_allocates_its_text_once() {
    let db = SignatureDb::new();
    db.add("warm the shard maps and the first log segment");
    let big = "x".repeat(256 * 1024);
    let (_, bytes, (_, added)) = allocations(|| db.add(&big));
    assert!(added);
    assert!(
        (bytes as f64) < 1.5 * big.len() as f64,
        "{bytes} bytes allocated storing {} bytes once",
        big.len()
    );
    let (_, bytes, (_, added)) = allocations(|| db.add(&big));
    assert!(!added);
    assert_eq!(bytes, 0, "a duplicate probe allocates nothing");
}

#[test]
fn merging_an_all_duplicate_window_copies_no_held_text() {
    let held: Vec<String> = (0..1024).map(text).collect();
    let held_bytes: u64 = held.iter().map(|t| t.len() as u64).sum();
    let mut repo = LocalRepository::in_memory();
    repo.append(held.clone()).expect("in-memory");
    let window = held[256..768].to_vec();
    let (_, bytes, added) = allocations(|| repo.merge(window, 1024).expect("in-memory"));
    assert_eq!(added, 0);
    assert_eq!(repo.len(), 1024);
    // The held texts' 64-bit keys, and no copy of any text.
    assert!(
        bytes < held_bytes / 20,
        "{bytes} bytes allocated merging into {held_bytes} held bytes"
    );
}

/// How many of `rest` one window carries: the longest prefix whose
/// `DELTA` payload (21 header bytes, then a 4-byte length and the text
/// per signature) is within `REPLY_BUDGET`, but at least one, and at
/// most the client's `max` (`0`: no cap).
fn window_len(rest: &[String], max: u32) -> usize {
    let mut bytes = 1 + 8 + 8 + 4;
    let fit = rest
        .iter()
        .take_while(|t| {
            bytes += 4 + t.len();
            bytes <= REPLY_BUDGET
        })
        .count()
        .max(rest.len().min(1));
    match max {
        0 => fit,
        max => fit.min(max as usize),
    }
}

proptest! {
    /// For any store and window, the frame `handle(GET_DELTA)` puts on the
    /// wire is the frame of the owned `Delta` over the same texts, and a
    /// receiver decodes it to that reply. Some texts are padded to
    /// hundreds of KB, so the budget closes windows as often as `max`.
    #[test]
    fn get_delta_frames_are_those_of_the_owned_reply(
        texts in proptest::collection::vec(
            ("[ -~]{0,120}", prop_oneof![Just(0usize), Just(0usize), Just(0usize), 0usize..400_000]),
            0..40,
        ),
        from in 0u64..48,
        max in 0u32..48,
    ) {
        let server = communix_server::builder().build().expect("in-memory");
        for (t, pad) in &texts {
            server.db().add(&format!("{t}{}", "x".repeat(*pad)));
        }
        let stored = server.db().get_from(0);
        let start = (from as usize).min(stored.len());
        let len = window_len(&stored[start..], max);
        let owned = Reply::Delta {
            from,
            total: stored.len() as u64,
            sigs: stored[start..start + len].to_vec(),
        };

        let reply = server.handle(Request::GetDelta { from, max });
        let mut framed = BytesMut::new();
        frame_reply_into(&reply, &mut framed);
        prop_assert_eq!(&framed[..], &frame(&owned.encode())[..]);
        prop_assert!(framed.len() - 4 <= REPLY_BUDGET || len == 1);
        prop_assert_eq!(Reply::decode(framed.freeze().slice(4..)).unwrap(), owned.clone());
        prop_assert_eq!(reply.into_owned(), owned);
    }
}
