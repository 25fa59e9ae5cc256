//! Mutation tests for the translation-validated pass manager.
//!
//! Each test seeds one deliberate miscompile — as a fake [`Pass`] mutating
//! known-good IR or bytecode — and asserts the pass manager flags it with
//! the mutation's name attributed in the [`PassError`].  This is the
//! verifier's own test suite: a checker that cannot catch a planted bug
//! would silently pass every real pipeline too.

use super::*;
use crate::buffer::{Buffer, BufferSet};
use crate::bytecode::{Instr, VRhs, VScale};
use crate::expr::Expr;
use crate::value::Value;

/// A seeded miscompile: a named pass applying a fixed mutation.
struct SeededMutation {
    name: &'static str,
    mutate: fn(Repr) -> Repr,
}

impl Pass for SeededMutation {
    fn name(&self) -> &'static str {
        self.name
    }
    fn run(&self, repr: Repr, _ctx: &mut PassCtx<'_>) -> Repr {
        (self.mutate)(repr)
    }
}

/// A known-good sparse-output kernel: walk a dense value array, append
/// coordinates and doubled values into a sparse fiber, accumulate a dense
/// sum, then close both fibers.  Exercises every effect the verifier and
/// the witness comparison reason about (Store, Append, FiberEnd).
fn known_good_kernel() -> (Vec<Stmt>, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let x = bufs.add("x", Buffer::F64(vec![1.0, 0.5, 2.0, 0.25].into()));
    let acc = bufs.add("acc", Buffer::F64(vec![0.0].into()));
    let pos_idx = bufs.add("pos_idx", Buffer::I64(vec![0].into()));
    let pos_val = bufs.add("pos_val", Buffer::I64(vec![0].into()));
    let out_idx = bufs.add("out_idx", Buffer::I64(vec![].into()));
    let out_val = bufs.add("out_val", Buffer::F64(vec![].into()));
    let i = names.fresh("i");
    let v = names.fresh("v");
    let stmts = vec![
        Stmt::For {
            var: i,
            lo: Expr::int(0),
            // `For` bounds are inclusive.
            hi: Expr::sub(Expr::BufLen(x), Expr::int(1)),
            body: vec![
                Stmt::Let { var: v, init: Expr::load(x, Expr::Var(i)) },
                Stmt::Append { buf: out_idx, value: Expr::Var(i) },
                Stmt::Append { buf: out_val, value: Expr::mul(Expr::Var(v), Expr::float(2.0)) },
                Stmt::Store {
                    buf: acc,
                    index: Expr::int(0),
                    value: Expr::Var(v),
                    reduce: Some(crate::expr::BinOp::Add),
                },
            ],
        },
        Stmt::FiberEnd { pos: pos_idx, data: out_idx },
        Stmt::FiberEnd { pos: pos_val, data: out_val },
    ];
    (stmts, names, bufs)
}

/// Run one seeded mutation over the known-good kernel IR at
/// [`ValidationLevel::Full`] and return the manager's verdict.
fn run_ir_mutation(mutation: &SeededMutation) -> Result<Repr, PassError> {
    let (stmts, mut names, bufs) = known_good_kernel();
    let mut stats = OptStats::default();
    let mut ctx = PassCtx { names: &mut names, bufs: &bufs, stats: &mut stats };
    let mut manager = PassManager::new(ValidationLevel::Full);
    manager.run_pass(mutation, Repr::Ir(stmts), &mut ctx)
}

/// Run one seeded mutation over the known-good kernel's compiled bytecode.
fn run_bytecode_mutation(mutation: &SeededMutation) -> Result<Repr, PassError> {
    let (stmts, mut names, bufs) = known_good_kernel();
    let program = Program::compile(&stmts, &names);
    let mut stats = OptStats::default();
    let mut ctx = PassCtx { names: &mut names, bufs: &bufs, stats: &mut stats };
    let mut manager = PassManager::new(ValidationLevel::Full);
    manager.run_pass(mutation, Repr::Bytecode(program), &mut ctx)
}

/// A known-good *typed* dense kernel whose counted inner loop the real
/// vectorize pass fuses into a kernel op: `y[i] = x[i] * 2.0` over the
/// whole input.  Used by the bad-vectorization mutation tests below.
fn known_good_typed_kernel() -> (Program, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    // Twelve elements so the kernel op's bulk path actually executes on
    // the validation witnesses (it declines trips under its runtime
    // minimum, falling back to the scalar loop).
    let data: Vec<f64> = (0..12).map(|k| 2.0_f64.powi(3 - k)).collect();
    let x = bufs.add("x", Buffer::F64(data.into()));
    let y = bufs.add("y", Buffer::F64(vec![0.0; 12].into()));
    let i = names.fresh("i");
    let stmts = vec![Stmt::For {
        var: i,
        lo: Expr::int(0),
        hi: Expr::int(11),
        body: vec![Stmt::Store {
            buf: y,
            index: Expr::Var(i),
            value: Expr::mul(Expr::load(x, Expr::Var(i)), Expr::float(2.0)),
            reduce: None,
        }],
    }];
    let raw = Program::compile(&stmts, &names);
    let fused = peephole(&raw, &mut OptStats::default());
    let typed = typing::specialize(&fused, &bufs, &mut OptStats::default());
    (typed, names, bufs)
}

/// Run one seeded mutation over the typed dense kernel's bytecode.
fn run_typed_bytecode_mutation(mutation: &SeededMutation) -> Result<Repr, PassError> {
    let (program, mut names, bufs) = known_good_typed_kernel();
    let mut stats = OptStats::default();
    let mut ctx = PassCtx { names: &mut names, bufs: &bufs, stats: &mut stats };
    let mut manager = PassManager::new(ValidationLevel::Full);
    manager.run_pass(mutation, Repr::Bytecode(program), &mut ctx)
}

/// Assert that the mutation is caught and the error names it.
fn assert_caught(result: Result<Repr, PassError>, name: &'static str, detail_has: &str) {
    let err = result.expect_err("the seeded miscompile must be flagged");
    assert_eq!(err.pass, name, "the error must attribute the offending pass");
    assert!(err.detail.contains(detail_has), "`{}` should mention `{detail_has}`", err.detail);
}

#[test]
fn the_identity_pass_validates_cleanly() {
    let id = SeededMutation { name: "identity", mutate: |r| r };
    run_ir_mutation(&id).expect("the identity transform is value-exact");
    run_bytecode_mutation(&id).expect("the identity transform is value-exact");
}

#[test]
fn dropping_a_fiber_end_is_caught() {
    let m = SeededMutation {
        name: "drop-fiberend",
        mutate: |r| {
            let mut stmts = r.into_ir();
            stmts.retain(|s| !matches!(s, Stmt::FiberEnd { .. }));
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "drop-fiberend", "diverge");
}

#[test]
fn a_wrongly_folded_constant_is_caught() {
    // Simulates a constant-folding bug: `v * 2.0` "folds" to `v * 3.0`.
    let m = SeededMutation {
        name: "misfold-const",
        mutate: |r| {
            let stmts = r
                .into_ir()
                .iter()
                .map(|s| {
                    s.map_exprs(&mut |e| {
                        e.map(&mut |sub| match sub {
                            Expr::Lit(Value::Float(x)) if *x == 2.0 => Some(Expr::float(3.0)),
                            _ => None,
                        })
                    })
                })
                .collect();
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "misfold-const", "diverge");
}

#[test]
fn hoisting_a_loop_variant_load_is_caught() {
    // Simulates a LICM bug: `let v = x[i]` moves above the loop that
    // binds `i`, so the def-before-use analysis sees an undefined read.
    let m = SeededMutation {
        name: "bad-hoist",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                let hoisted = body.remove(0);
                stmts.insert(0, hoisted);
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "bad-hoist", "dominating definition");
}

#[test]
fn deleting_an_effectful_append_is_caught() {
    let m = SeededMutation {
        name: "drop-append",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                body.retain(|s| !matches!(s, Stmt::Append { .. }));
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "drop-append", "diverge");
}

#[test]
fn reordering_a_use_before_its_def_is_caught() {
    // Move the `let v = x[i]` below the append that reads `v`.
    let m = SeededMutation {
        name: "bad-schedule",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                body.swap(0, 2);
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "bad-schedule", "dominating definition");
}

#[test]
fn changing_a_reduction_operator_is_caught() {
    let m = SeededMutation {
        name: "swap-reduce",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                for s in body.iter_mut() {
                    if let Stmt::Store { reduce, .. } = s {
                        *reduce = Some(crate::expr::BinOp::Mul);
                    }
                }
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "swap-reduce", "diverge");
}

#[test]
fn appending_after_the_fiber_closed_is_caught() {
    let m = SeededMutation {
        name: "late-append",
        mutate: |r| {
            let mut stmts = r.into_ir();
            stmts.push(Stmt::Append { buf: crate::buffer::BufId(4), value: Expr::int(99) });
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "late-append", "after its fiber was closed");
}

#[test]
fn mistyping_a_register_load_is_caught() {
    // Simulates a typing-pass bug: an untyped Load of an F64 buffer is
    // rewritten into the i64-lane form.
    let m = SeededMutation {
        name: "mistype-load",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for instr in program.code.iter_mut() {
                if let Instr::Load { dst, buf, idx } = *instr {
                    if buf.index() == 0 {
                        *instr = Instr::LoadI64 { dst, buf, idx };
                        break;
                    }
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "mistype-load", "to be i64");
}

#[test]
fn a_misaligned_for_back_edge_is_caught() {
    let m = SeededMutation {
        name: "misalign-backedge",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for instr in program.code.iter_mut() {
                if let Instr::ForStep { test, .. } = instr {
                    *test = 0; // pc 0 is a BumpStmt, not a loop head
                    break;
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "misalign-backedge", "not a loop head");
}

#[test]
fn an_out_of_range_register_is_caught() {
    let m = SeededMutation {
        name: "oob-register",
        mutate: |r| {
            let mut program = r.into_bytecode();
            let oob = crate::bytecode::Reg(program.num_regs() as u32 + 5);
            for instr in program.code.iter_mut() {
                if let Instr::Const { dst, .. } = instr {
                    *dst = oob;
                    break;
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "oob-register", "outside the file");
}

#[test]
fn a_jump_past_the_end_is_caught() {
    let m = SeededMutation {
        name: "wild-jump",
        mutate: |r| {
            let mut program = r.into_bytecode();
            let past = program.code.len() as u32 + 7;
            for instr in program.code.iter_mut() {
                if let Instr::ForTest { end, .. } = instr {
                    *end = past;
                    break;
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "wild-jump", "past the end");
}

#[test]
fn the_real_vectorize_pass_validates_cleanly_on_a_fusable_loop() {
    // Control for the bad-vectorization case below: the actual pass
    // inserts a kernel op here and must survive full witness validation
    // (bit-identical buffers, exact work counters).
    let m = SeededMutation {
        name: "vectorize",
        mutate: |r| {
            let p = r.into_bytecode();
            Repr::Bytecode(vectorize(&p, &mut OptStats::default()))
        },
    };
    let out = run_typed_bytecode_mutation(&m).expect("the real pass is value- and stats-exact");
    let fused = out.into_bytecode();
    assert!(
        fused.code().iter().any(|i| matches!(i, Instr::VMapF64 { .. })),
        "the fusable loop must actually produce a kernel op:\n{}",
        fused.disasm()
    );
}

#[test]
fn a_bad_vectorization_is_caught_and_attributed() {
    // Simulates a vectorizer bug: the loop is fused correctly, but the
    // kernel op's inlined scale immediate is off — the kind of semantic
    // slip (wrong constant, wrong trip count, dropped remainder) only the
    // witness comparison can see, since the encoding stays well-formed.
    let m = SeededMutation {
        name: "vectorize",
        mutate: |r| {
            let mut p = vectorize(&r.into_bytecode(), &mut OptStats::default());
            for instr in p.code.iter_mut() {
                if let Instr::VMapF64 { a_pre, rhs, round, .. } = instr {
                    match (a_pre, rhs) {
                        (VScale::Left { imm, .. } | VScale::Right { imm, .. }, _)
                        | (_, VRhs::Imm { imm, .. }) => *imm += 0.5,
                        _ => *round = true,
                    }
                    break;
                }
            }
            Repr::Bytecode(p)
        },
    };
    assert_caught(run_typed_bytecode_mutation(&m), "vectorize", "diverge");
}

#[test]
fn an_overlapping_shard_partition_is_caught_and_attributed() {
    // Seeds a broken parallel plan: the partitioner is corrupted (via the
    // `CORRUPT_PARTITION` test hook) so two shards' row ranges overlap and
    // one iteration runs twice.  The plan itself stays structurally valid —
    // only the sharded witness execution can see the duplicated work, and
    // the failure must be attributed to the `shard` pass.
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let data: Vec<f64> = (0..12).map(|k| k as f64 * 0.5 - 2.0).collect();
    let x = bufs.add("x", Buffer::F64(data.into()));
    let y = bufs.add("y", Buffer::F64(vec![0.0; 12].into()));
    let i = names.fresh("i");
    let stmts = vec![Stmt::For {
        var: i,
        lo: Expr::int(0),
        hi: Expr::int(11),
        body: vec![Stmt::Store {
            buf: y,
            index: Expr::Var(i),
            value: Expr::mul(Expr::load(x, Expr::Var(i)), Expr::float(2.0)),
            reduce: None,
        }],
    }];
    let specs = shard::analyze_ir(&stmts, &names, &bufs);
    assert!(!specs.is_empty(), "the partitioned map is shardable at the IR stage");
    let raw = Program::compile(&stmts, &names);
    let fused = peephole(&raw, &mut OptStats::default());
    let typed = typing::specialize(&fused, &bufs, &mut OptStats::default());
    let pass = shard::ShardPass { specs };
    let run = |program: Program, names: &mut Names, bufs: &BufferSet| {
        let mut stats = OptStats::default();
        let mut ctx = PassCtx { names, bufs, stats: &mut stats };
        let mut manager = PassManager::new(ValidationLevel::Full);
        manager.run_pass(&pass, Repr::Bytecode(program), &mut ctx)
    };
    // Control: with an honest partitioner the real pass validates cleanly
    // and records a non-empty plan.
    let out = run(typed.clone(), &mut names, &bufs).expect("the honest plan is value-exact");
    assert!(!out.into_bytecode().shard_plan().is_empty(), "the map loop must shard");
    // Mutation: overlapping row ranges must fail the sharded witness
    // comparison, attributed to the shard pass.
    crate::par::CORRUPT_PARTITION.with(|c| c.set(true));
    let verdict = run(typed, &mut names, &bufs);
    crate::par::CORRUPT_PARTITION.with(|c| c.set(false));
    assert_caught(verdict, "shard", "sharded");
}

#[test]
fn a_value_mutating_bytecode_rewrite_is_caught_by_witnesses() {
    // A structurally-valid but semantically-wrong rewrite: the constant
    // pool's 2.0 becomes 2.5, so every typed check passes and only the
    // witness comparison can see the miscompile.
    let m = SeededMutation {
        name: "poison-const",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for c in program.consts.iter_mut() {
                if let Value::Float(x) = c {
                    if *x == 2.0 {
                        *x = 2.5;
                    }
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "poison-const", "diverge");
}
