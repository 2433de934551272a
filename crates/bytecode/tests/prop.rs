//! Property-based tests for the lowering pass — the simulator's and the
//! analyses' correctness rests on these invariants holding for *every*
//! structured program:
//!
//! * monitorenter/monitorexit are balanced on every control-flow path;
//! * every `synchronized` construct appears as exactly one sync site;
//! * all branch/jump/loop targets stay in bounds;
//! * lowering is deterministic, and class hashing is stable under
//!   lowering (hashes are computed over the structured form);
//! * the streaming canonical serializer writes exactly the text the
//!   `format!`-built one wrote, and the hash is the SHA-256 of that text.

use communix_bytecode::{
    ClassFile, ClassName, Instr, LockExpr, LoweredProgram, Program, ProgramBuilder, Stmt,
};
use communix_crypto::sha256;
use proptest::prelude::*;

/// A recursive statement-tree strategy over a small vocabulary.
fn arb_stmt(depth: u32) -> BoxedStrategy<StmtSpec> {
    let leaf = prop_oneof![
        (1..5u32).prop_map(StmtSpec::Work),
        any::<u32>().prop_map(StmtSpec::Work),
        (0..3u8).prop_map(StmtSpec::Call),
        (0..3u8).prop_map(StmtSpec::ExplicitPair),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (0..4u8, proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(l, body)| StmtSpec::Sync(l, body)),
            (
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(t, e)| StmtSpec::If(t, e)),
            (1..4u32, proptest::collection::vec(inner, 0..3))
                .prop_map(|(n, body)| StmtSpec::Repeat(n, body)),
        ]
    })
    .boxed()
}

/// A structural spec we can replay through the builder (the builder
/// assigns line numbers, so strategies cannot produce `Stmt` directly).
#[derive(Debug, Clone)]
enum StmtSpec {
    Work(u32),
    Call(u8),
    ExplicitPair(u8),
    /// Lock 3 is `this`; the others are globals.
    Sync(u8, Vec<StmtSpec>),
    If(Vec<StmtSpec>, Vec<StmtSpec>),
    Repeat(u32, Vec<StmtSpec>),
}

fn emit(spec: &StmtSpec, s: &mut communix_bytecode::StmtSink<'_>) {
    match spec {
        StmtSpec::Work(n) => {
            s.work(*n);
        }
        StmtSpec::Call(k) => {
            s.call("p.Helper", &format!("h{k}"));
        }
        StmtSpec::ExplicitPair(k) => {
            s.explicit_lock(&format!("rl{k}"))
                .explicit_unlock(&format!("rl{k}"));
        }
        StmtSpec::Sync(l, body) => {
            let lock = match l {
                3 => LockExpr::This,
                _ => LockExpr::global(format!("L{l}")),
            };
            s.sync(lock, |s| {
                for c in body {
                    emit(c, s);
                }
            });
        }
        StmtSpec::If(t, e) => {
            s.branch(
                |s| {
                    for c in t {
                        emit(c, s);
                    }
                },
                |s| {
                    for c in e {
                        emit(c, s);
                    }
                },
            );
        }
        StmtSpec::Repeat(n, body) => {
            s.repeat(*n, |s| {
                for c in body {
                    emit(c, s);
                }
            });
        }
    }
}

fn build_program(specs: &[StmtSpec], synchronized: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let cb = b.class("p.Main");
    let cb = if synchronized {
        cb.sync_method("main", |s| {
            for spec in specs {
                emit(spec, s);
            }
        })
    } else {
        cb.plain_method("main", |s| {
            for spec in specs {
                emit(spec, s);
            }
        })
    };
    cb.done();
    {
        let mut cb = b.class("p.Helper");
        for k in 0..3 {
            cb = cb.plain_method(&format!("h{k}"), |s| {
                s.work(1);
            });
        }
        cb.done();
    }
    b.build()
}

/// Walks every path-insensitive execution of `code`, tracking monitor
/// balance: at every Return the balance must be zero, and it never goes
/// negative. (Exhaustive DFS over the CFG with a balance per pc; the
/// lowering produces reducible graphs, so (pc, balance) states are
/// finite.)
fn check_balanced(code: &[Instr]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut stack = vec![(0usize, 0i32)];
    while let Some((pc, bal)) = stack.pop() {
        if !seen.insert((pc, bal)) {
            continue;
        }
        if pc >= code.len() {
            return Err(format!("pc {pc} out of bounds (len {})", code.len()));
        }
        match &code[pc] {
            Instr::MonitorEnter { .. } => stack.push((pc + 1, bal + 1)),
            Instr::MonitorExit { .. } => {
                if bal == 0 {
                    return Err(format!("monitorexit with balance 0 at {pc}"));
                }
                stack.push((pc + 1, bal - 1));
            }
            Instr::Return => {
                if bal != 0 {
                    return Err(format!("return with balance {bal} at {pc}"));
                }
            }
            Instr::Branch { target } => {
                stack.push((pc + 1, bal));
                stack.push((*target, bal));
            }
            Instr::Jump { target } => stack.push((*target, bal)),
            Instr::LoopHead { exit, .. } => {
                stack.push((pc + 1, bal));
                stack.push((*exit, bal));
            }
            _ => stack.push((pc + 1, bal)),
        }
    }
    Ok(())
}

/// The `format!`-built serializer the streaming one replaced, kept as the
/// reference model its text is compared against.
fn reference_canonical_bytes(class: &ClassFile) -> String {
    fn serialize_stmt(s: &Stmt, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match s {
            Stmt::Sync { lock, line, body } => {
                out.push_str(&format!("{pad}sync {lock} @{line}\n"));
                for c in body {
                    serialize_stmt(c, depth + 1, out);
                }
                out.push_str(&format!("{pad}end\n"));
            }
            Stmt::Call { target, line } => out.push_str(&format!("{pad}call {target} @{line}\n")),
            Stmt::Work { ticks, line } => out.push_str(&format!("{pad}work {ticks} @{line}\n")),
            Stmt::If {
                then_branch,
                else_branch,
                line,
            } => {
                out.push_str(&format!("{pad}if @{line}\n"));
                for c in then_branch {
                    serialize_stmt(c, depth + 1, out);
                }
                out.push_str(&format!("{pad}else\n"));
                for c in else_branch {
                    serialize_stmt(c, depth + 1, out);
                }
                out.push_str(&format!("{pad}end\n"));
            }
            Stmt::Repeat { times, body, line } => {
                out.push_str(&format!("{pad}repeat {times} @{line}\n"));
                for c in body {
                    serialize_stmt(c, depth + 1, out);
                }
                out.push_str(&format!("{pad}end\n"));
            }
            Stmt::ExplicitLock { name, line } => {
                out.push_str(&format!("{pad}xlock {name} @{line}\n"));
            }
            Stmt::ExplicitUnlock { name, line } => {
                out.push_str(&format!("{pad}xunlock {name} @{line}\n"));
            }
        }
    }

    let mut out = String::new();
    out.push_str("class ");
    out.push_str(class.name.as_str());
    out.push('\n');
    for m in &class.methods {
        out.push_str(&format!(
            "method {} sync={} opaque={} line={}\n",
            m.name, m.synchronized, m.opaque, m.decl_line
        ));
        for s in &m.body {
            serialize_stmt(s, 1, &mut out);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streamed serializer writes the reference model's text, and the
    /// class hash is the SHA-256 of that text, for every class of the
    /// program. Repeating the statements makes classes of up to tens of
    /// KiB, past the hash's 4 KiB stack buffer.
    #[test]
    fn canonical_text_and_hash_match_the_reference_model(
        specs in proptest::collection::vec(arb_stmt(4), 0..6),
        copies in 1usize..64,
        synchronized in any::<bool>(),
    ) {
        let specs: Vec<StmtSpec> = specs.iter().cycle().take(specs.len() * copies).cloned().collect();
        let p = build_program(&specs, synchronized);
        for class in p.iter() {
            let text = class.canonical_bytes();
            prop_assert_eq!(&text, &reference_canonical_bytes(class));
            prop_assert_eq!(class.bytecode_hash(), sha256(text.as_bytes()));
        }
    }

    /// Lowered code is monitor-balanced on every path, in-bounds, and
    /// ends every path with Return.
    #[test]
    fn lowering_is_monitor_balanced(
        specs in proptest::collection::vec(arb_stmt(3), 0..5),
        synchronized in any::<bool>(),
    ) {
        let p = build_program(&specs, synchronized);
        let lowered = LoweredProgram::lower(&p);
        for m in lowered.methods() {
            prop_assert!(!m.code.is_empty(), "method has code");
            check_balanced(&m.code).map_err(|e| {
                TestCaseError::fail(format!("{}: {e}", m.mref))
            })?;
        }
    }

    /// Every structured `synchronized` construct appears as exactly one
    /// monitor-enter site in the lowered code, and sync-site counts agree
    /// between the AST statistics and the lowered form.
    #[test]
    fn sync_sites_preserved(
        specs in proptest::collection::vec(arb_stmt(3), 0..5),
        synchronized in any::<bool>(),
    ) {
        let p = build_program(&specs, synchronized);
        let ast_sites = p.sync_sites();
        let lowered = LoweredProgram::lower(&p);
        let mut lowered_sites = Vec::new();
        for m in lowered.methods() {
            for (_, site) in m.monitor_enters() {
                lowered_sites.push(site.clone());
            }
        }
        lowered_sites.sort();
        let mut ast_sorted = ast_sites.clone();
        ast_sorted.sort();
        prop_assert_eq!(lowered_sites, ast_sorted);
    }

    /// Lowering is deterministic and does not disturb class hashing.
    #[test]
    fn lowering_deterministic_and_hash_stable(
        specs in proptest::collection::vec(arb_stmt(2), 0..4),
    ) {
        let p1 = build_program(&specs, false);
        let p2 = build_program(&specs, false);
        prop_assert_eq!(p1.hash_index(), p2.hash_index());
        let l1 = LoweredProgram::lower(&p1);
        let l2 = LoweredProgram::lower(&p1);
        for (a, b) in l1.methods().zip(l2.methods()) {
            prop_assert_eq!(&a.mref, &b.mref);
            prop_assert_eq!(&a.code, &b.code);
        }
        let _ = l2;
        // Hash stays the hash of the structured form.
        let main = ClassName::new("p.Main");
        prop_assert_eq!(
            p1.class_by_name(&main).unwrap().bytecode_hash(),
            p2.class_by_name(&main).unwrap().bytecode_hash(),
        );
    }

}

#[test]
fn stmt_spec_space_is_nontrivial() {
    // Sanity check on the harness itself: a known nested spec produces a
    // nested program.
    let specs = vec![StmtSpec::Sync(
        0,
        vec![StmtSpec::Sync(1, vec![StmtSpec::Work(1)])],
    )];
    let p = build_program(&specs, false);
    assert_eq!(p.sync_sites().len(), 2);
    let _ = Stmt::Work { ticks: 1, line: 1 };
}
