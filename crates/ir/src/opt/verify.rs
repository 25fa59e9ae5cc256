//! Static verifiers run after every optimisation pass.
//!
//! Two layers, one per program representation:
//!
//! * [`verify_ir`] checks the statement tree: def-before-use over a
//!   dominance-respecting walk (a definition inside an `if` branch or a
//!   loop body does not dominate the code after it), loop/scope
//!   well-formedness (loop binders are immutable inside their own body),
//!   `Append`/`FiberEnd` effect-ordering legality for sparse output
//!   assembly, and — when the buffer set is available — buffer-id range
//!   and schema consistency.
//! * [`verify_bytecode`] extends [`Program::validate`] (jump alignment,
//!   const-pool bounds, register limits) with buffer-aware checks: every
//!   buffer id is in range and every monomorphic typed opcode agrees with
//!   the element type of the buffer it touches, reusing the same
//!   buffer-schema seeding the typing pass inferred from.
//!
//! Both verifiers return a human-readable description of the *first*
//! violated invariant; the pass manager attributes it to the pass that
//! produced the representation.

use std::collections::{HashMap, HashSet};

use crate::buffer::{BufId, Buffer, BufferSet};
use crate::bytecode::{Instr, LaneTag, Program, VRhs};
use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::var::{Names, Var};

/// Verify the statement-tree invariants of a lowered (and possibly
/// optimised) IR program.
///
/// The def-before-use and effect-ordering checks are purely structural;
/// `bufs` feeds the buffer-range and schema checks.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_ir(stmts: &[Stmt], names: &Names, bufs: &BufferSet) -> Result<(), String> {
    let mut v = IrVerifier { names, bufs, binders: Vec::new(), fibers: HashMap::new() };
    let mut defined = HashSet::new();
    v.check_seq(stmts, &mut defined)?;
    v.check_effect_order(stmts)?;
    Ok(())
}

struct IrVerifier<'a> {
    names: &'a Names,
    bufs: &'a BufferSet,
    /// `for` binders currently in scope (they may be read, never written).
    binders: Vec<Var>,
    /// `pos -> data` pairing of every `FiberEnd` seen so far.
    fibers: HashMap<BufId, BufId>,
}

impl IrVerifier<'_> {
    fn describe(&self, var: Var) -> String {
        if var.index() < self.names.len() {
            format!("`{}`", self.names.name(var))
        } else {
            format!("variable #{}", var.index())
        }
    }

    fn check_var(&self, var: Var) -> Result<(), String> {
        if var.index() >= self.names.len() {
            return Err(format!(
                "variable #{} is outside the name table of {}",
                var.index(),
                self.names.len()
            ));
        }
        Ok(())
    }

    fn check_buf(&self, buf: BufId, what: &str) -> Result<(), String> {
        if buf.index() >= self.bufs.len() {
            return Err(format!(
                "{what} references buffer #{} outside the set of {}",
                buf.index(),
                self.bufs.len()
            ));
        }
        Ok(())
    }

    /// Check that every variable the expression reads is must-defined, and
    /// that every buffer it loads from is in range.
    fn check_expr(&self, expr: &Expr, defined: &HashSet<Var>) -> Result<(), String> {
        let mut used = Vec::new();
        expr.collect_vars(&mut used);
        for var in used {
            self.check_var(var)?;
            if !defined.contains(&var) {
                return Err(format!(
                    "{} is read before any dominating definition",
                    self.describe(var)
                ));
            }
        }
        let mut buf_err = None;
        expr.visit(&mut |e| {
            if buf_err.is_some() {
                return;
            }
            match e {
                Expr::Load { buf, .. } => buf_err = self.check_buf(*buf, "load").err(),
                Expr::BufLen(buf) => buf_err = self.check_buf(*buf, "len").err(),
                Expr::Search { buf, .. } => buf_err = self.check_buf(*buf, "search").err(),
                _ => {}
            }
        });
        match buf_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn check_write_target(&self, var: Var) -> Result<(), String> {
        if self.binders.contains(&var) {
            return Err(format!(
                "loop binder {} is written inside its own loop body",
                self.describe(var)
            ));
        }
        Ok(())
    }

    /// Walk one statement sequence, threading the must-defined set through
    /// it.  Definitions inside `if` branches survive only when both
    /// branches make them; definitions inside loop bodies do not survive
    /// the loop (the body may run zero times).
    fn check_seq(&mut self, stmts: &[Stmt], defined: &mut HashSet<Var>) -> Result<(), String> {
        for stmt in stmts {
            match stmt {
                Stmt::Comment(_) => {}
                Stmt::Let { var, init } => {
                    self.check_var(*var)?;
                    self.check_write_target(*var)?;
                    self.check_expr(init, defined)?;
                    defined.insert(*var);
                }
                Stmt::Assign { var, value } => {
                    self.check_var(*var)?;
                    self.check_write_target(*var)?;
                    self.check_expr(value, defined)?;
                    defined.insert(*var);
                }
                Stmt::Store { buf, index, value, .. } => {
                    self.check_buf(*buf, "store")?;
                    self.check_expr(index, defined)?;
                    self.check_expr(value, defined)?;
                }
                Stmt::Append { buf, value } => {
                    self.check_buf(*buf, "append")?;
                    self.check_expr(value, defined)?;
                }
                Stmt::FiberEnd { pos, data } => {
                    self.check_buf(*pos, "fiber end")?;
                    self.check_buf(*data, "fiber end")?;
                    if !matches!(self.bufs.get(*pos), Buffer::I64(_)) {
                        return Err(format!(
                            "fiber end writes pos buffer `{}`, which is not an i64 buffer",
                            self.bufs.name(*pos)
                        ));
                    }
                    match self.fibers.get(pos) {
                        Some(prev) if prev != data => {
                            return Err(format!(
                                "pos buffer #{} closes two different data buffers (#{} and #{})",
                                pos.index(),
                                prev.index(),
                                data.index()
                            ));
                        }
                        _ => {
                            self.fibers.insert(*pos, *data);
                        }
                    }
                }
                Stmt::If { cond, then_branch, else_branch } => {
                    self.check_expr(cond, defined)?;
                    let mut then_defs = defined.clone();
                    self.check_seq(then_branch, &mut then_defs)?;
                    let mut else_defs = defined.clone();
                    self.check_seq(else_branch, &mut else_defs)?;
                    // Only definitions made on *both* paths dominate the
                    // code after the `if`.
                    defined.extend(then_defs.intersection(&else_defs).copied());
                }
                Stmt::While { cond, body } => {
                    self.check_expr(cond, defined)?;
                    let mut body_defs = defined.clone();
                    self.check_seq(body, &mut body_defs)?;
                }
                Stmt::For { var, lo, hi, body } => {
                    self.check_var(*var)?;
                    self.check_expr(lo, defined)?;
                    self.check_expr(hi, defined)?;
                    let mut body_defs = defined.clone();
                    body_defs.insert(*var);
                    self.binders.push(*var);
                    let r = self.check_seq(body, &mut body_defs);
                    self.binders.pop();
                    r?;
                }
                Stmt::Block(body) => self.check_seq(body, defined)?,
            }
        }
        Ok(())
    }

    /// Sparse-assembly effect ordering.  Two global invariants plus one
    /// per-sequence one:
    ///
    /// * a `pos` buffer is written only by `FiberEnd` (never `Append` or
    ///   `Store`), and
    /// * within any one statement sequence, once a `FiberEnd` closes a
    ///   data buffer, no later statement of that sequence (however deeply
    ///   nested) may append to it — appends belong *before* the fiber is
    ///   closed.  (A `FiberEnd` nested in a sibling loop body is one fiber
    ///   per iteration and is checked within that body's own sequence.)
    fn check_effect_order(&self, stmts: &[Stmt]) -> Result<(), String> {
        let mut pos_bufs = HashSet::new();
        for s in stmts {
            s.visit(&mut |node| {
                if let Stmt::FiberEnd { pos, .. } = node {
                    pos_bufs.insert(*pos);
                }
            });
        }
        for s in stmts {
            let mut err = None;
            s.visit(&mut |node| {
                if err.is_some() {
                    return;
                }
                match node {
                    Stmt::Append { buf, .. } if pos_bufs.contains(buf) => {
                        err = Some(format!("append targets pos buffer #{}", buf.index()));
                    }
                    Stmt::Store { buf, .. } if pos_bufs.contains(buf) => {
                        err = Some(format!("store targets pos buffer #{}", buf.index()));
                    }
                    _ => {}
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        self.check_append_order(stmts)
    }

    fn check_append_order(&self, stmts: &[Stmt]) -> Result<(), String> {
        let mut closed: HashSet<BufId> = HashSet::new();
        for stmt in stmts {
            // Appends anywhere inside this statement to an already-closed
            // data buffer are out of order.
            let mut err = None;
            stmt.visit(&mut |node| {
                if err.is_some() {
                    return;
                }
                if let Stmt::Append { buf, .. } = node {
                    if closed.contains(buf) {
                        err = Some(format!(
                            "append to data buffer #{} after its fiber was closed",
                            buf.index()
                        ));
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            // Recurse: nested sequences carry their own ordering.
            match stmt {
                Stmt::If { then_branch, else_branch, .. } => {
                    self.check_append_order(then_branch)?;
                    self.check_append_order(else_branch)?;
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Block(body) => {
                    self.check_append_order(body)?;
                }
                Stmt::FiberEnd { data, .. } => {
                    closed.insert(*data);
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Verify a compiled (and possibly fused/typed) bytecode program against
/// its buffer set: the structural invariants of [`Program::validate`] plus
/// buffer-id range checks, typed-opcode/buffer-schema agreement, and
/// pretag consistency.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_bytecode(program: &Program, bufs: &BufferSet) -> Result<(), String> {
    program.validate()?;
    let check_buf = |pc: usize, buf: BufId| -> Result<(), String> {
        if buf.index() >= bufs.len() {
            return Err(format!(
                "instruction at pc {pc} references buffer #{} outside the set of {}",
                buf.index(),
                bufs.len()
            ));
        }
        Ok(())
    };
    let expect = |pc: usize, buf: BufId, want: &str, ok: bool| -> Result<(), String> {
        if !ok {
            return Err(format!(
                "typed opcode at pc {pc} expects buffer `{}` to be {want}",
                bufs.name(buf)
            ));
        }
        Ok(())
    };
    let rhs_buf = |rhs: VRhs| match rhs {
        VRhs::Buf { buf, .. } => Some(buf),
        VRhs::None | VRhs::Imm { .. } => None,
    };
    for (pc, instr) in program.code().iter().enumerate() {
        match *instr {
            Instr::BufLen { buf, .. }
            | Instr::Load { buf, .. }
            | Instr::Store { buf, .. }
            | Instr::Append { buf, .. }
            | Instr::Seek { buf, .. }
            | Instr::LoadBinary { buf, .. }
            | Instr::ILen { buf, .. } => check_buf(pc, buf)?,
            Instr::FiberEnd { pos, data } => {
                check_buf(pc, pos)?;
                check_buf(pc, data)?;
                expect(pc, pos, "i64", matches!(bufs.get(pos), Buffer::I64(_)))?;
            }
            Instr::LoadI64 { buf, .. } | Instr::IAppend { buf, .. } | Instr::ISeek { buf, .. } => {
                check_buf(pc, buf)?;
                expect(pc, buf, "i64", matches!(bufs.get(buf), Buffer::I64(_)))?;
            }
            Instr::LoadF64 { buf, .. }
            | Instr::FMulLoad { buf, .. }
            | Instr::StoreF64 { buf, .. }
            | Instr::FAppend { buf, .. } => {
                check_buf(pc, buf)?;
                expect(pc, buf, "f64", matches!(bufs.get(buf), Buffer::F64(_)))?;
            }
            Instr::LoadU8 { buf, .. } | Instr::StoreU8 { buf, .. } => {
                check_buf(pc, buf)?;
                expect(pc, buf, "u8", matches!(bufs.get(buf), Buffer::U8(_)))?;
            }
            Instr::VFillStoreF64 { buf, .. } => {
                check_buf(pc, buf)?;
                expect(pc, buf, "f64", matches!(bufs.get(buf), Buffer::F64(_)))?;
            }
            Instr::VMapF64 { dst, a, rhs, .. } => {
                for buf in [Some(dst), Some(a), rhs_buf(rhs)].into_iter().flatten() {
                    check_buf(pc, buf)?;
                    expect(pc, buf, "f64", matches!(bufs.get(buf), Buffer::F64(_)))?;
                }
            }
            Instr::VMulAddF64 { acc, a, b, .. } => {
                for buf in [acc, a, b] {
                    check_buf(pc, buf)?;
                    expect(pc, buf, "f64", matches!(bufs.get(buf), Buffer::F64(_)))?;
                }
            }
            Instr::VReduceF64 { acc, src, .. } => {
                for buf in [acc, src] {
                    check_buf(pc, buf)?;
                    expect(pc, buf, "f64", matches!(bufs.get(buf), Buffer::F64(_)))?;
                }
            }
            Instr::VAppendRangeF64 { idx_out, val_out, src, .. } => {
                for buf in [idx_out, val_out, src] {
                    check_buf(pc, buf)?;
                }
                expect(pc, idx_out, "i64", matches!(bufs.get(idx_out), Buffer::I64(_)))?;
                expect(pc, val_out, "f64", matches!(bufs.get(val_out), Buffer::F64(_)))?;
                expect(pc, src, "f64", matches!(bufs.get(src), Buffer::F64(_)))?;
            }
            Instr::VCmpSelectU8 { dst, src, .. } => {
                check_buf(pc, dst)?;
                check_buf(pc, src)?;
                expect(pc, dst, "u8", matches!(bufs.get(dst), Buffer::U8(_)))?;
                expect(pc, src, "f64", matches!(bufs.get(src), Buffer::F64(_)))?;
            }
            _ => {}
        }
    }
    let mut tags: HashMap<crate::bytecode::Reg, LaneTag> = HashMap::new();
    for &(reg, tag) in program.pretags() {
        if let Some(prev) = tags.insert(reg, tag) {
            if prev != tag {
                return Err(format!("register {reg} is pretagged both {prev:?} and {tag:?}"));
            }
        }
    }
    for (r, region) in program.shard_plan().regions.iter().enumerate() {
        for &(buf, role) in &region.roles {
            if buf.index() >= bufs.len() {
                return Err(format!(
                    "shard region #{r} assigns a role to buffer #{} outside the set of {}",
                    buf.index(),
                    bufs.len()
                ));
            }
            if let crate::bytecode::ShardRole::SegmentPos { data } = role {
                if data.index() >= bufs.len() {
                    return Err(format!(
                        "shard region #{r} pos buffer `{}` pairs with data buffer #{} \
                         outside the set of {}",
                        bufs.name(buf),
                        data.index(),
                        bufs.len()
                    ));
                }
            }
            if matches!(role, crate::bytecode::ShardRole::Reduction { .. })
                && !matches!(bufs.get(buf), Buffer::I64(_))
            {
                return Err(format!(
                    "shard region #{r} marks non-i64 buffer `{}` as a reduction",
                    bufs.name(buf)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferSet;
    use crate::expr::Expr;

    fn setup() -> (Names, BufferSet, BufId, BufId) {
        let mut names = Names::new();
        let _ = names.fresh("seed");
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        (names, bufs, x, out)
    }

    #[test]
    fn straight_line_defs_verify() {
        let (mut names, bufs, x, out) = setup();
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::load(x, Expr::int(0)) },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        verify_ir(&prog, &names, &bufs).expect("well-formed program verifies");
    }

    #[test]
    fn use_before_def_is_flagged() {
        let (mut names, bufs, _x, out) = setup();
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
            Stmt::Let { var: a, init: Expr::int(1) },
        ];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("before any dominating definition"), "{err}");
    }

    #[test]
    fn loop_body_defs_do_not_dominate_after_the_loop() {
        let (mut names, bufs, x, out) = setup();
        let i = names.fresh("i");
        let a = names.fresh("a");
        let prog = vec![
            Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(2),
                body: vec![Stmt::Let { var: a, init: Expr::load(x, Expr::Var(i)) }],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("`a`"), "{err}");
    }

    #[test]
    fn if_defs_dominate_only_when_on_both_paths() {
        let (mut names, bufs, _x, out) = setup();
        let a = names.fresh("a");
        let both = vec![
            Stmt::If {
                cond: Expr::bool(true),
                then_branch: vec![Stmt::Let { var: a, init: Expr::int(1) }],
                else_branch: vec![Stmt::Let { var: a, init: Expr::int(2) }],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        verify_ir(&both, &names, &bufs).expect("both-path definition dominates");
        let one = vec![
            Stmt::If {
                cond: Expr::bool(true),
                then_branch: vec![Stmt::Let { var: a, init: Expr::int(1) }],
                else_branch: vec![],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        assert!(verify_ir(&one, &names, &bufs).is_err());
    }

    #[test]
    fn loop_binder_writes_are_flagged() {
        let (mut names, bufs, _x, _out) = setup();
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![Stmt::Assign { var: i, value: Expr::int(0) }],
        }];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("loop binder"), "{err}");
    }

    #[test]
    fn buffer_ids_out_of_range_are_flagged() {
        let (names, bufs, _x, _out) = setup();
        let bogus = BufId(99);
        let prog = vec![Stmt::Store {
            buf: bogus,
            index: Expr::int(0),
            value: Expr::int(1),
            reduce: None,
        }];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("outside the set"), "{err}");
    }

    #[test]
    fn append_after_fiber_end_is_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let good =
            vec![Stmt::Append { buf: idx, value: Expr::int(3) }, Stmt::FiberEnd { pos, data: idx }];
        verify_ir(&good, &names, &bufs).expect("append-then-close verifies");
        let bad =
            vec![Stmt::FiberEnd { pos, data: idx }, Stmt::Append { buf: idx, value: Expr::int(3) }];
        let err = verify_ir(&bad, &names, &bufs).unwrap_err();
        assert!(err.contains("after its fiber was closed"), "{err}");
    }

    #[test]
    fn appends_in_a_sibling_loop_iteration_are_legal() {
        // The canonical lowering: for i { for j { append }; fiberend }.
        // Program-order appends after a *previous iteration's* fiber end
        // must not be flagged.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let (i, j) = (names.fresh("i"), names.fresh("j"));
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![
                Stmt::For {
                    var: j,
                    lo: Expr::int(0),
                    hi: Expr::int(1),
                    body: vec![Stmt::Append { buf: idx, value: Expr::Var(j) }],
                },
                Stmt::FiberEnd { pos, data: idx },
            ],
        }];
        verify_ir(&prog, &names, &bufs).expect("per-iteration fibers verify");
    }

    #[test]
    fn stores_into_pos_buffers_are_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let prog =
            vec![Stmt::Append { buf: pos, value: Expr::int(0) }, Stmt::FiberEnd { pos, data: idx }];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("pos buffer"), "{err}");
    }

    #[test]
    fn inconsistent_fiber_pairing_is_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let val = bufs.add("val", Buffer::F64(Vec::new().into()));
        let prog = vec![Stmt::FiberEnd { pos, data: idx }, Stmt::FiberEnd { pos, data: val }];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("two different data buffers"), "{err}");
    }

    #[test]
    fn fiber_end_into_non_i64_pos_is_flagged() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let posf = bufs.add("posf", Buffer::F64(vec![0.0].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let prog = vec![Stmt::FiberEnd { pos: posf, data: idx }];
        let err = verify_ir(&prog, &names, &bufs).unwrap_err();
        assert!(err.contains("not an i64 buffer"), "{err}");
    }

    #[test]
    fn typed_opcode_schema_mismatch_is_flagged() {
        use crate::var::Names;
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0].into()));
        let a = names.fresh("a");
        let i = names.fresh("i");
        let prog = vec![
            Stmt::Let { var: i, init: Expr::int(0) },
            Stmt::Let { var: a, init: Expr::load(x, Expr::Var(i)) },
        ];
        let mut program = Program::compile(&prog, &names);
        verify_bytecode(&program, &bufs).expect("generic program verifies");
        // Mistype the load: an I64 load from an F64 buffer.
        for instr in &mut program.code {
            if let Instr::Load { dst, buf, idx } = *instr {
                *instr = Instr::LoadI64 { dst, buf, idx };
            }
        }
        let err = verify_bytecode(&program, &bufs).unwrap_err();
        assert!(err.contains("to be i64"), "{err}");
    }

    #[test]
    fn bytecode_buffer_out_of_range_is_flagged() {
        let names = Names::new();
        let bufs = BufferSet::new();
        let program = Program {
            code: vec![Instr::FiberEnd { pos: BufId(7), data: BufId(8) }],
            consts: Vec::new(),
            var_names: Vec::new(),
            num_regs: 0,
            pretags: Vec::new(),
            shard_plan: crate::bytecode::ShardPlan::default(),
        };
        let _ = names;
        let err = verify_bytecode(&program, &bufs).unwrap_err();
        assert!(err.contains("outside the set"), "{err}");
    }
}
