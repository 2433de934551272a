//! A class hash: pinned digests and what computing one allocates.
//!
//! A bytecode hash is the version identity every stored signature carries,
//! so a serializer change that moves one byte of the canonical text would
//! silently orphan a whole repository. The digests here are pinned as hex
//! at the values the `format!`-built canonical text produced; the
//! allocation count runs under a counting global allocator (per thread,
//! as the test harness runs other tests on other threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use communix_bytecode::{ClassFile, LockExpr, Method, MethodRef, Program, Stmt};
use communix_crypto::Sha256;
use communix_workloads::JBOSS;

thread_local! {
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

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn work(ticks: u32, line: u32) -> Stmt {
    Stmt::Work { ticks, line }
}

/// Hand-built classes that between them hold every statement kind, both
/// lock shapes, nesting deeper than three, synchronized and opaque
/// methods, and the extreme integers.
fn golden_classes() -> Vec<ClassFile> {
    let nested = Method {
        name: "nested".into(),
        synchronized: true,
        decl_line: 0,
        body: vec![Stmt::Sync {
            lock: LockExpr::This,
            line: 1,
            body: vec![Stmt::Sync {
                lock: LockExpr::global("app.Registry.LOCK"),
                line: 2,
                body: vec![Stmt::Repeat {
                    times: 3,
                    line: 3,
                    body: vec![Stmt::If {
                        then_branch: vec![
                            Stmt::Call {
                                target: MethodRef::new("golden.Other", "callee"),
                                line: 5,
                            },
                            work(7, 6),
                        ],
                        else_branch: vec![],
                        line: 4,
                    }],
                }],
            }],
        }],
        opaque: false,
    };
    let explicit = Method {
        name: "explicit".into(),
        synchronized: false,
        decl_line: u32::MAX,
        body: vec![
            Stmt::ExplicitLock {
                name: "rl".into(),
                line: 10,
            },
            work(0, 0),
            work(u32::MAX, u32::MAX),
            Stmt::If {
                then_branch: vec![work(1, 12)],
                else_branch: vec![work(2, 13)],
                line: 11,
            },
            Stmt::ExplicitUnlock {
                name: "rl".into(),
                line: 14,
            },
        ],
        opaque: true,
    };
    // Forty levels: deeper than the serializer's run of spaces.
    let mut deep = vec![work(1, 1000)];
    for level in 0..40u32 {
        deep = vec![Stmt::Sync {
            lock: if level % 2 == 0 {
                LockExpr::This
            } else {
                LockExpr::global(format!("L{level}"))
            },
            line: 999 - level,
            body: deep,
        }];
    }
    vec![
        ClassFile::new("golden.Empty", vec![]),
        ClassFile::new(
            "golden.Everything",
            vec![nested, explicit, Method::new("empty", 20, vec![])],
        ),
        ClassFile::new("golden.Deep", vec![Method::new("deep", 7, deep)]),
    ]
}

#[test]
fn hand_built_classes_hash_to_their_pinned_digests() {
    let pinned = [
        (
            "golden.Empty",
            "2f9e11899533dbe8d805d96b617bbf587d8ca20d3e90f88eb211a2ad42b7478f",
        ),
        (
            "golden.Everything",
            "1016b0f054f44768847b793db1c380e281cc1d283245c3a063a282a1bdc66371",
        ),
        (
            "golden.Deep",
            "6bf364d6bc0602341ee25dbd1ef1ec32b9e539ba5a4ac125dae1f9dbad87d7e8",
        ),
    ];
    let classes = golden_classes();
    for (class, (name, hex)) in classes.iter().zip(pinned) {
        assert_eq!(class.name.as_str(), name);
        assert_eq!(class.bytecode_hash().to_hex(), hex, "{name}");
    }
}

#[test]
fn the_canonical_text_is_pinned() {
    let text = "\
class golden.Everything
method nested sync=true opaque=false line=0
  sync this @1
    sync lock:app.Registry.LOCK @2
      repeat 3 @3
        if @4
          call golden.Other.callee @5
          work 7 @6
        else
        end
      end
    end
  end
method explicit sync=false opaque=true line=4294967295
  xlock rl @10
  work 0 @0
  work 4294967295 @4294967295
  if @11
    work 1 @12
  else
    work 2 @13
  end
  xunlock rl @14
method empty sync=false opaque=false line=20
";
    assert_eq!(golden_classes()[1].canonical_bytes(), text);
}

fn jboss() -> Program {
    JBOSS.scaled(0.1).generate()
}

#[test]
fn a_generated_application_hashes_to_its_pinned_fold() {
    let mut fold = Sha256::new();
    for digest in jboss().hash_index().values() {
        fold.update(digest.as_bytes());
    }
    assert_eq!(
        fold.finalize().to_hex(),
        "42612691193ed5c98ca6e4ef26850c1474fc97d550dccf344dd59746796bc84b"
    );
}

#[test]
fn hashing_a_class_allocates_nothing() {
    let program = jboss();
    assert!(program.len() > 100, "{} classes", program.len());
    let mut total = 0;
    for class in program.iter() {
        total += allocations(|| {
            std::hint::black_box(class.bytecode_hash());
        });
    }
    assert_eq!(total, 0);
}
