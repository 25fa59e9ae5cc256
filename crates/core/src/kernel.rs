//! The user-facing compiler API: bind tensors, compile a CIN program, run
//! the generated code.

use std::collections::HashMap;

use finch_cin::CinStmt;
use finch_formats::{BoundLevel, BoundTensor, Level, LevelSpec, OutputBuilder, Tensor};
use finch_ir::opt::{PassReport, ValidationLevel};
use finch_ir::pretty::Printer;
use finch_ir::{
    run_sharded, Buffer, BufferSet, ExecStats, Interpreter, Names, OptLevel, OptStats, Program,
    RuntimeError, ShardPlan, Stmt, Vm, Watch,
};
use finch_rewrite::Rewriter;

use crate::error::CompileError;
use crate::lower::statements::{init_output, lower_stmt};
use crate::lower::{Binding, LowerCtx, OutputBinding, OutputSink};

/// The execution engine a [`CompiledKernel`] runs on.
///
/// Both engines execute the same lowered IR and maintain identical
/// [`ExecStats`] work counters; they are differential-tested against each
/// other (outputs and counters bit-identical) in the workspace test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The flat register bytecode VM (`finch_ir::vm`).  The default: the
    /// kernel is compiled once to bytecode and runs in a tight dispatch
    /// loop over unboxed typed registers.
    #[default]
    Bytecode,
    /// The tree-walking interpreter (`finch_ir::interp`), retained as the
    /// semantics oracle for differential testing.
    TreeWalk,
}

/// Resolve a requested worker-thread count: `0` means "auto" — the
/// machine's [`std::thread::available_parallelism`] — and anything else is
/// taken as given (1 is the serial path).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Copy an `i64` array into an existing buffer in place, reusing its
/// capacity (the rebind fast path; replaces the buffer only if a kind
/// mismatch somehow slipped past binding).
fn copy_i64(bufs: &mut BufferSet, id: finch_ir::BufId, src: &[i64]) {
    match bufs.get_mut(id) {
        Buffer::I64(d) => {
            d.clear();
            d.extend_from_slice(src);
        }
        other => *other = Buffer::I64(src.to_vec().into()),
    }
}

impl Engine {
    /// A short stable label, used by the benchmark harness and its JSON
    /// report (`tree_walk` / `bytecode`).
    pub fn label(self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::TreeWalk => "tree_walk",
        }
    }
}

/// A kernel under construction: tensors are bound to it, then a CIN program
/// is compiled against those bindings.
///
/// [`Kernel::compile`] produces both the lowered IR tree and its flat
/// register bytecode; the resulting [`CompiledKernel`] runs on the bytecode
/// VM by default (see [`Engine`] for selecting the tree-walking oracle).
///
/// ```
/// use finch::build::*;
/// use finch::{Kernel, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::sparse_list_vector("A", &[0.0, 1.5, 0.0, 2.0]);
/// let b = Tensor::dense_vector("B", &[1.0, 10.0, 100.0, 1000.0]);
///
/// let mut kernel = Kernel::new();
/// kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
///
/// let i = idx("i");
/// let program = forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
/// let mut compiled = kernel.compile(&program)?;
/// compiled.run()?;   // executes on the bytecode VM
/// assert_eq!(compiled.output_scalar("C")?, 2015.0);
/// // Non-scalar and unknown names are typed errors, not silent `None`s:
/// assert!(compiled.output_scalar("missing").is_err());
/// # Ok(()) }
/// ```
///
/// Outputs are format-polymorphic: [`Kernel::bind_output_format`] selects a
/// sparse list assembled by appending, and
/// [`CompiledKernel::output_tensor`] finalizes it into a [`Tensor`] that can
/// be re-bound as the input of a follow-up kernel:
///
/// ```
/// use finch::build::*;
/// use finch::{Kernel, LevelSpec, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::sparse_list_vector("A", &[0.0, 1.5, 0.0, 2.0]);
/// let b = Tensor::sparse_list_vector("B", &[0.0, 10.0, 5.0, 3.0]);
/// let mut kernel = Kernel::new();
/// kernel
///     .bind_input(&a)
///     .bind_input(&b)
///     .bind_output_format("C", &[LevelSpec::SparseList { size: 4 }]);
/// let i = idx("i");
/// let program = forall(i.clone(), assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))));
/// let mut compiled = kernel.compile(&program)?;
/// compiled.run()?;   // does work proportional to the stored entries
/// let c = compiled.output_tensor("C")?;
/// assert_eq!(c.to_dense(), vec![0.0, 15.0, 0.0, 6.0]);
/// assert_eq!(c.stored(), 2);   // only the intersection was materialised
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct Kernel {
    names: Names,
    bufs: BufferSet,
    bindings: HashMap<String, Binding>,
    rewriter: Rewriter,
    opt_level: OptLevel,
    typed_dispatch: bool,
    simd: bool,
    validation: ValidationLevel,
    threads: usize,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// An empty kernel with the default rewrite rule set.
    pub fn new() -> Self {
        Kernel {
            names: Names::new(),
            bufs: BufferSet::new(),
            bindings: HashMap::new(),
            rewriter: Rewriter::with_default_rules(),
            opt_level: OptLevel::default(),
            typed_dispatch: true,
            simd: true,
            validation: ValidationLevel::default(),
            threads: 1,
        }
    }

    /// The worker-thread count [`CompiledKernel::run`] will use for loops
    /// the shard analysis proved splittable (default 1 = the serial path,
    /// exactly as before the parallel tier existed).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Select the worker-thread count used by the compiled kernel.  `0`
    /// resolves to the machine's [`std::thread::available_parallelism`]
    /// ("auto"); `1` selects the serial path.  Parallel runs are
    /// bit-identical to serial ones — kernels the analysis cannot prove
    /// shardable simply stay serial.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// Builder-style variant of [`Kernel::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// How much post-pass checking [`Kernel::compile`]'s pass manager
    /// performs: always-on translation validation in debug/test builds,
    /// off in release unless opted back in (the figure harness's
    /// `--validate`).
    pub fn validation(&self) -> ValidationLevel {
        self.validation
    }

    /// Select the [`ValidationLevel`] applied by [`Kernel::compile`].
    pub fn set_validation(&mut self, validation: ValidationLevel) -> &mut Self {
        self.validation = validation;
        self
    }

    /// Builder-style variant of [`Kernel::set_validation`].
    pub fn with_validation(mut self, validation: ValidationLevel) -> Self {
        self.validation = validation;
        self
    }

    /// Whether [`Kernel::compile`] will run the register-type inference
    /// stage and emit monomorphic typed bytecode (the default at
    /// [`OptLevel::Default`]; never applied at [`OptLevel::None`]).
    pub fn typed_dispatch(&self) -> bool {
        self.typed_dispatch
    }

    /// Enable or disable the typed-dispatch stage (used by the benchmark
    /// harness to measure the stage's wall-clock win in isolation).
    pub fn set_typed_dispatch(&mut self, typed: bool) -> &mut Self {
        self.typed_dispatch = typed;
        self
    }

    /// Builder-style variant of [`Kernel::set_typed_dispatch`].
    pub fn with_typed_dispatch(mut self, typed: bool) -> Self {
        self.typed_dispatch = typed;
        self
    }

    /// Whether [`Kernel::compile`] will run the vectorize stage over the
    /// typed bytecode, fusing matching inner loops into SIMD-style kernel
    /// ops (the default; requires typed dispatch and
    /// [`OptLevel::Default`] to have any effect).
    pub fn simd(&self) -> bool {
        self.simd
    }

    /// Enable or disable the vectorize stage (used by the benchmark
    /// harness to measure the kernel-op tier's wall-clock win in
    /// isolation).
    pub fn set_simd(&mut self, simd: bool) -> &mut Self {
        self.simd = simd;
        self
    }

    /// Builder-style variant of [`Kernel::set_simd`].
    pub fn with_simd(mut self, simd: bool) -> Self {
        self.simd = simd;
        self
    }

    /// The optimisation level [`Kernel::compile`] will apply.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Select the optimisation level applied by [`Kernel::compile`]
    /// (defaults to [`OptLevel::Default`]).
    pub fn set_opt_level(&mut self, level: OptLevel) -> &mut Self {
        self.opt_level = level;
        self
    }

    /// Builder-style variant of [`Kernel::set_opt_level`].
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Bind a structured input tensor under its own name.
    pub fn bind_input(&mut self, tensor: &Tensor) -> &mut Self {
        let bound = BoundTensor::bind(tensor, &mut self.bufs);
        self.bindings.insert(tensor.name().to_string(), Binding::Input(bound));
        self
    }

    /// Bind a dense output tensor of the given shape, initialised to `init`
    /// by the generated code at the start of every run.
    pub fn bind_output(&mut self, name: &str, shape: &[usize], init: f64) -> &mut Self {
        let len = shape.iter().product::<usize>().max(1);
        let buf = self.bufs.add(&format!("{name}_val"), Buffer::F64(vec![init; len].into()));
        let specs = shape.iter().map(|&size| LevelSpec::Dense { size }).collect();
        self.bindings.insert(
            name.to_string(),
            Binding::Output(OutputBinding { specs, init, sink: OutputSink::Dense { buf } }),
        );
        self
    }

    /// Bind a scalar output, re-initialised to zero before every run.
    pub fn bind_output_scalar(&mut self, name: &str) -> &mut Self {
        self.bind_output(name, &[], 0.0)
    }

    /// Bind an output tensor with an explicit level stack (outermost
    /// first), choosing how the generated code assembles the result.
    ///
    /// * An all-[`LevelSpec::Dense`] stack behaves exactly like
    ///   [`Kernel::bind_output`] with `init = 0.0`.
    /// * A stack whose **innermost** level is [`LevelSpec::SparseList`]
    ///   (any dense levels above it) is assembled by appending: each
    ///   executed store appends the coordinate and value, each fiber is
    ///   closed with its `pos` boundary, and the result does work
    ///   proportional to the number of stored entries instead of the dense
    ///   size.  Only overwriting (`=`) assignments can target it, and the
    ///   assembled result is read back with
    ///   [`CompiledKernel::output_tensor`].
    ///
    /// # Panics
    ///
    /// Panics when a [`LevelSpec::SparseList`] appears anywhere but the
    /// innermost position (sparse-over-sparse output assembly is not
    /// implemented).
    pub fn bind_output_format(&mut self, name: &str, specs: &[LevelSpec]) -> &mut Self {
        match specs.split_last() {
            Some((LevelSpec::SparseList { .. }, outer)) => {
                assert!(
                    outer.iter().all(|s| matches!(s, LevelSpec::Dense { .. })),
                    "sparse output levels are only supported in the innermost position \
                     (output `{name}`)"
                );
                let pos = self.bufs.add(&format!("{name}_pos"), Buffer::I64(vec![0].into()));
                let idx = self.bufs.add(&format!("{name}_idx"), Buffer::I64(Vec::new().into()));
                let val = self.bufs.add(&format!("{name}_val"), Buffer::F64(Vec::new().into()));
                self.bindings.insert(
                    name.to_string(),
                    Binding::Output(OutputBinding {
                        specs: specs.to_vec(),
                        init: 0.0,
                        sink: OutputSink::SparseList { pos, idx, val },
                    }),
                );
                self
            }
            _ => {
                assert!(
                    specs.iter().all(|s| matches!(s, LevelSpec::Dense { .. })),
                    "sparse output levels are only supported in the innermost position \
                     (output `{name}`)"
                );
                let shape: Vec<usize> = specs.iter().map(|s| s.size()).collect();
                self.bind_output(name, &shape, 0.0)
            }
        }
    }

    /// Access the rewrite engine to register domain-specific rules before
    /// compiling (paper §6.1: "users can add custom rules").
    pub fn rewriter_mut(&mut self) -> &mut Rewriter {
        &mut self.rewriter
    }

    /// Compile a CIN program against the bound tensors.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the program references unbound
    /// tensors, is not concordant with the tensors' level orders, or uses
    /// unsupported features.
    pub fn compile(self, program: &CinStmt) -> Result<CompiledKernel, CompileError> {
        let Kernel {
            names,
            bufs,
            bindings,
            rewriter,
            opt_level,
            typed_dispatch,
            simd,
            validation,
            threads,
        } = self;
        let outputs: HashMap<String, OutputBinding> = bindings
            .iter()
            .filter_map(|(name, b)| match b {
                Binding::Output(o) => Some((name.clone(), o.clone())),
                Binding::Input(_) => None,
            })
            .collect();
        let inputs: HashMap<String, BoundTensor> = bindings
            .iter()
            .filter_map(|(name, b)| match b {
                Binding::Input(t) => Some((name.clone(), t.clone())),
                Binding::Output(_) => None,
            })
            .collect();
        let mut ctx = LowerCtx::new(names, bufs, bindings, rewriter);
        // Result arrays are initialised as soon as they enter scope (paper
        // §5.1): dense outputs get initialisation code at the top of the
        // generated program, counted like every other store — so a
        // dense-output kernel honestly pays its O(n) write traffic where a
        // sparse-output kernel pays O(stored).  Sparse outputs start empty
        // and are reset host-side before each run instead.  `where`
        // producers enter scope at their `where`, which emits their
        // (per-iteration) initialisation itself — initialising them here
        // too would double-count the store traffic.
        let mut where_results = std::collections::HashSet::new();
        program.visit(&mut |s| {
            if let CinStmt::Where { producer, .. } = s {
                for r in producer.results() {
                    where_results.insert(r.name().to_string());
                }
            }
        });
        let mut code = Vec::new();
        let mut sorted: Vec<(&String, &OutputBinding)> = outputs.iter().collect();
        sorted.sort_by_key(|(name, _)| name.as_str());
        for (name, ob) in sorted {
            if where_results.contains(name) {
                continue;
            }
            if let OutputSink::Dense { buf } = ob.sink {
                code.extend(init_output(buf, ob.len(), ob.init, &mut ctx));
            }
        }
        code.extend(lower_stmt(program, &mut ctx)?);
        // Finch relies on Julia to clean up the lowered straight-line code
        // (constant folding, copy propagation, invariant-load hoisting);
        // our engines execute the IR as given, so the same clean-up runs
        // here as an explicit staged pipeline, gated by the opt level.
        let raw_code = code;
        let raw_names = ctx.names.clone();
        let (code, bytecode, opt_stats, pass_reports) = optimize_kernel(
            &raw_code,
            &mut ctx.names,
            &ctx.bufs,
            opt_level,
            typed_dispatch,
            simd,
            validation,
        )?;
        let source = Printer::new(&ctx.names, &ctx.bufs).program(&code);
        let vm = Vm::new(&bytecode);
        Ok(CompiledKernel {
            code,
            raw_code,
            raw_names,
            bytecode,
            vm,
            names: ctx.names,
            bufs: ctx.bufs,
            outputs,
            inputs,
            source,
            program: format!("{program}"),
            engine: Engine::default(),
            step_budget: None,
            watch: None,
            alloc_budget: None,
            opt_level,
            opt_stats,
            typed_dispatch,
            simd,
            validation,
            threads,
            pass_reports,
        })
    }
}

/// Run the full optimise-and-lower pipeline — the IR passes, the bytecode
/// lowering, the peephole and (when enabled) the register-type inference
/// stage — through the translation-validated pass manager, producing the
/// artifacts both engines execute.  Used by [`Kernel::compile`] and
/// [`CompiledKernel::reoptimized`].  The typing stage needs the buffer
/// set: buffer element types seed the inference; at
/// [`ValidationLevel::Full`] the same buffers synthesize the witness
/// inputs every pass is differentially checked on.
fn optimize_kernel(
    raw_code: &[Stmt],
    names: &mut Names,
    bufs: &finch_ir::BufferSet,
    level: OptLevel,
    typed: bool,
    simd: bool,
    validation: ValidationLevel,
) -> Result<(Vec<Stmt>, Program, OptStats, Vec<PassReport>), CompileError> {
    let lowered =
        finch_ir::opt::optimize_and_lower(raw_code, names, bufs, level, typed, simd, validation)
            .map_err(|e| CompileError::ValidationFailed {
                pass: e.pass.to_string(),
                detail: e.detail,
            })?;
    Ok((lowered.code, lowered.program, lowered.stats, lowered.reports))
}

/// A compiled kernel: generated code (both the IR tree and its bytecode)
/// plus the buffers it runs against.
///
/// [`CompiledKernel::run`] executes on the flat register bytecode VM by
/// default; select the tree-walking oracle with [`CompiledKernel::set_engine`]
/// or a one-off [`CompiledKernel::run_with`]:
///
/// ```
/// use finch::build::*;
/// use finch::{Engine, Kernel, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Tensor::sparse_list_vector("A", &[0.0, 1.5, 0.0, 2.0]);
/// let b = Tensor::dense_vector("B", &[1.0, 10.0, 100.0, 1000.0]);
/// let mut kernel = Kernel::new();
/// kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
/// let i = idx("i");
/// let program = forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
///
/// let mut compiled = kernel.compile(&program)?.with_step_budget(1_000_000);
/// assert_eq!(compiled.engine(), Engine::Bytecode);      // the default
/// let fast = compiled.run()?;                           // bytecode VM
/// let oracle = compiled.run_with(Engine::TreeWalk)?;    // semantics oracle
/// assert_eq!(fast, oracle);                             // identical work counters
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    code: Vec<Stmt>,
    /// The lowered IR before any optimisation pass ran, kept so the same
    /// kernel can be re-derived at any [`OptLevel`] (see
    /// [`CompiledKernel::reoptimized`]).
    raw_code: Vec<Stmt>,
    /// The name table as it stood before optimisation (LICM creates fresh
    /// variables, so re-optimising must start from the pristine table).
    raw_names: Names,
    bytecode: Program,
    /// The persistent register VM: re-runs reset it in place instead of
    /// allocating a fresh register file per execution.
    vm: Vm,
    names: Names,
    bufs: BufferSet,
    outputs: HashMap<String, OutputBinding>,
    /// The bound input tensors, kept so later runs can swap in fresh data
    /// of the same structure without recompiling (and so the rebind can be
    /// validated against the structure the code was generated for).
    inputs: HashMap<String, BoundTensor>,
    source: String,
    program: String,
    engine: Engine,
    step_budget: Option<u64>,
    /// Cooperative deadline / cancellation applied to every run on either
    /// engine (the service arms this per request).
    watch: Option<Watch>,
    /// Output-allocation element budget applied to every run on either
    /// engine, alongside the step budget.
    alloc_budget: Option<u64>,
    opt_level: OptLevel,
    opt_stats: OptStats,
    typed_dispatch: bool,
    simd: bool,
    /// The validation level the pass manager ran at when this kernel was
    /// compiled (re-optimisations run at the same level).
    validation: ValidationLevel,
    /// Worker threads [`CompiledKernel::run`] uses on the bytecode engine
    /// when the compiled program carries a non-empty shard plan (1 = the
    /// serial path).
    threads: usize,
    /// One report per optimisation pass that ran: transform, verifier and
    /// translation-validation wall-clock in nanoseconds.
    pass_reports: Vec<PassReport>,
}

impl CompiledKernel {
    /// The generated code, rendered as pseudo-Rust (the reproduction of the
    /// paper's Figure 1b listings).
    pub fn code(&self) -> &str {
        &self.source
    }

    /// The CIN program this kernel was compiled from.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The generated statements (for structural assertions in tests).
    pub fn stmts(&self) -> &[Stmt] {
        &self.code
    }

    /// The compiled bytecode (for structural assertions and debugging).
    pub fn bytecode(&self) -> &Program {
        &self.bytecode
    }

    /// The optimisation level this kernel was compiled at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Per-pass optimisation counters from this kernel's compilation (IR
    /// folds, hoisted loads, fused bytecode pairs, ...).
    pub fn opt_stats(&self) -> OptStats {
        self.opt_stats
    }

    /// Re-derive this kernel at a different [`OptLevel`] from the kept
    /// pre-optimisation IR.  Buffers, outputs, engine selection, typed
    /// dispatch and step budget carry over, so the result is directly
    /// comparable against `self` — the benchmark harness uses this to
    /// time `OptLevel::None` against `OptLevel::Default` on identical
    /// kernels.
    pub fn reoptimized(&self, level: OptLevel) -> CompiledKernel {
        self.reoptimized_simd(level, self.typed_dispatch, self.simd)
    }

    /// [`CompiledKernel::reoptimized`] with explicit control over the
    /// typed-dispatch and vectorize stages, so the benchmark harness can
    /// time the same kernel with typed dispatch and the SIMD kernel-op
    /// tier on and off at the same [`OptLevel`].
    pub fn reoptimized_simd(&self, level: OptLevel, typed: bool, simd: bool) -> CompiledKernel {
        self.rederive(level, typed, simd, self.validation)
            .expect("re-optimisation of already-validated code must validate")
    }

    /// Re-derive this kernel at its current [`OptLevel`] and dispatch mode
    /// under a different [`ValidationLevel`] — the benchmark harness uses
    /// this (via `figures --validate`) to measure per-pass verification
    /// and translation-validation cost on release builds, where the
    /// default level is [`ValidationLevel::Off`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ValidationFailed`] when a pass's output
    /// fails the requested checks — which would be a compiler bug, not a
    /// user error.
    pub fn revalidated(&self, validation: ValidationLevel) -> Result<CompiledKernel, CompileError> {
        self.rederive(self.opt_level, self.typed_dispatch, self.simd, validation)
    }

    fn rederive(
        &self,
        level: OptLevel,
        typed: bool,
        simd: bool,
        validation: ValidationLevel,
    ) -> Result<CompiledKernel, CompileError> {
        let mut names = self.raw_names.clone();
        let (code, bytecode, opt_stats, pass_reports) = optimize_kernel(
            &self.raw_code,
            &mut names,
            &self.bufs,
            level,
            typed,
            simd,
            validation,
        )?;
        let source = Printer::new(&names, &self.bufs).program(&code);
        let vm = Vm::new(&bytecode);
        Ok(CompiledKernel {
            code,
            raw_code: self.raw_code.clone(),
            raw_names: self.raw_names.clone(),
            bytecode,
            vm,
            names,
            bufs: self.bufs.clone(),
            outputs: self.outputs.clone(),
            inputs: self.inputs.clone(),
            source,
            program: self.program.clone(),
            engine: self.engine,
            step_budget: self.step_budget,
            watch: self.watch.clone(),
            alloc_budget: self.alloc_budget,
            opt_level: level,
            opt_stats,
            typed_dispatch: typed,
            simd,
            validation,
            threads: self.threads,
            pass_reports,
        })
    }

    /// The [`ValidationLevel`] the pass manager ran at when this kernel was
    /// compiled.
    pub fn validation(&self) -> ValidationLevel {
        self.validation
    }

    /// Per-pass timing and validation reports from this kernel's
    /// compilation, in the order the passes ran.
    pub fn pass_reports(&self) -> &[PassReport] {
        &self.pass_reports
    }

    /// Whether this kernel's bytecode went through the typed-dispatch
    /// (register-type inference) stage.
    pub fn typed_dispatch(&self) -> bool {
        self.typed_dispatch
    }

    /// Whether this kernel's bytecode went through the vectorize stage
    /// (which only has an effect on typed bytecode at
    /// [`OptLevel::Default`]).
    pub fn simd(&self) -> bool {
        self.simd
    }

    /// How many scalar inner-loop body instructions the vectorize stage
    /// replaced with SIMD kernel ops, over how many it examined in
    /// innermost typed counted loops — the vectorized fraction reported
    /// by the benchmark harness.
    pub fn instrs_vectorized(&self) -> (u64, u64) {
        (self.opt_stats.instrs_vectorized, self.opt_stats.instrs_vectorizable)
    }

    /// The worker-thread count [`CompiledKernel::run`] uses on the
    /// bytecode engine (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Select the worker-thread count for subsequent runs.  `0` resolves
    /// to the machine's [`std::thread::available_parallelism`] ("auto");
    /// `1` selects the serial path.  Threads only take effect on the
    /// bytecode engine and only over loops the shard analysis proved
    /// splittable (see [`CompiledKernel::sharded`]); everything else runs
    /// serial, so a parallel run is never incorrect, merely sometimes not
    /// parallel.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// Builder-style variant of [`CompiledKernel::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// Whether the shard analysis proved at least one top-level counted
    /// loop of this kernel splittable across worker threads.  When this is
    /// `false`, [`CompiledKernel::set_threads`] has no effect on execution.
    pub fn sharded(&self) -> bool {
        !self.bytecode.shard_plan().is_empty()
    }

    /// The shard plan the compiler recorded on the bytecode: the loop
    /// regions the parallel driver may split, with per-buffer roles.
    /// Empty when nothing was proved shardable.
    pub fn shard_plan(&self) -> &ShardPlan {
        self.bytecode.shard_plan()
    }

    /// The engine [`CompiledKernel::run`] dispatches to.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Select the engine used by subsequent [`CompiledKernel::run`] calls.
    pub fn set_engine(&mut self, engine: Engine) -> &mut Self {
        self.engine = engine;
        self
    }

    /// Builder-style variant of [`CompiledKernel::set_engine`].
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The configured step budget, if any.
    pub fn step_budget(&self) -> Option<u64> {
        self.step_budget
    }

    /// Bound the number of executed statements on either engine; a run that
    /// exceeds the budget aborts with [`RuntimeError::StepBudgetExceeded`].
    /// Useful to guard long-running kernels (or miscompiled non-terminating
    /// code) at the call site.
    pub fn set_step_budget(&mut self, budget: u64) -> &mut Self {
        self.step_budget = Some(budget);
        self
    }

    /// Builder-style variant of [`CompiledKernel::set_step_budget`].
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Remove a previously configured step budget.
    pub fn clear_step_budget(&mut self) -> &mut Self {
        self.step_budget = None;
        self
    }

    /// The configured cooperative watch (deadline / cancellation), if any.
    pub fn watch(&self) -> Option<&Watch> {
        self.watch.as_ref()
    }

    /// Set or clear a cooperative [`Watch`] applied to every run on either
    /// engine: a run whose deadline expires (or whose cancellation flag is
    /// raised) aborts with [`RuntimeError::Deadline`], checked on the same
    /// statement path as the step budget.  Buffers stay reusable — the
    /// next run resets them in place exactly as after a budget abort.
    pub fn set_watch(&mut self, watch: Option<Watch>) -> &mut Self {
        self.watch = watch;
        self
    }

    /// Builder-style variant of [`CompiledKernel::set_watch`].
    pub fn with_watch(mut self, watch: Watch) -> Self {
        self.watch = Some(watch);
        self
    }

    /// The configured output-allocation element budget, if any.
    pub fn alloc_budget(&self) -> Option<u64> {
        self.alloc_budget
    }

    /// Bound the number of elements a run may append to growable (sparse)
    /// outputs on either engine; exceeding it aborts with
    /// [`RuntimeError::AllocBudgetExceeded`].  The admission-control
    /// companion of the step budget.
    pub fn set_alloc_budget(&mut self, budget: Option<u64>) -> &mut Self {
        self.alloc_budget = budget;
        self
    }

    /// Builder-style variant of [`CompiledKernel::set_alloc_budget`].
    pub fn with_alloc_budget(mut self, budget: u64) -> Self {
        self.alloc_budget = Some(budget);
        self
    }

    /// Replace the data of a bound input tensor in place, without
    /// recompiling: the tensor's arrays are copied into the kernel's
    /// existing buffers (reusing their capacity, so steady-state rebinds
    /// of same-sized instances allocate nothing).
    ///
    /// The new tensor must match the structure the kernel was compiled
    /// against — same name, same level kinds and dimension sizes, same
    /// fill value (the fill is baked into the generated code) — but its
    /// stored entries (coordinates and values) are free to differ.  This
    /// is what lets a kernel cache serve many tensor instances of one
    /// structural shape from a single compilation.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadInputRebind`] (and leaves every buffer
    /// untouched) when the structure does not match.
    pub fn rebind_input(&mut self, tensor: &Tensor) -> Result<(), RuntimeError> {
        let mismatch = |detail: String| RuntimeError::BadInputRebind {
            name: tensor.name().to_string(),
            detail,
        };
        let bound = self.inputs.get(tensor.name()).ok_or_else(|| {
            mismatch("no input tensor was bound under this name at compile time".into())
        })?;
        if tensor.fill().to_bits() != bound.fill().to_bits() {
            return Err(mismatch(format!(
                "fill value {} differs from the compiled fill {}",
                tensor.fill(),
                bound.fill()
            )));
        }
        if tensor.ndim() != bound.ndim() {
            return Err(mismatch(format!(
                "rank {} differs from the compiled rank {}",
                tensor.ndim(),
                bound.ndim()
            )));
        }
        // Validate every level before touching any buffer, so a failed
        // rebind is atomic.
        for (k, (level, blevel)) in tensor.levels().iter().zip(bound.levels()).enumerate() {
            let ok = matches!(
                (level, blevel),
                (Level::Dense { .. }, BoundLevel::Dense { .. })
                    | (Level::SparseList { .. }, BoundLevel::SparseList { .. })
                    | (Level::SparseBand { .. }, BoundLevel::SparseBand { .. })
                    | (Level::SparseVbl { .. }, BoundLevel::SparseVbl { .. })
                    | (Level::RunLength { .. }, BoundLevel::RunLength { .. })
                    | (Level::PackBits { .. }, BoundLevel::PackBits { .. })
                    | (Level::Bitmap { .. }, BoundLevel::Bitmap { .. })
                    | (Level::Triangular { .. }, BoundLevel::Triangular { .. })
                    | (Level::Symmetric { .. }, BoundLevel::Symmetric { .. })
                    | (Level::Ragged { .. }, BoundLevel::Ragged { .. })
            );
            if !ok {
                return Err(mismatch(format!(
                    "level {k} is {}, but the kernel was compiled for a different level kind",
                    level.format_name()
                )));
            }
            if level.size() != blevel.size() {
                return Err(mismatch(format!(
                    "level {k} has size {}, but the kernel was compiled for size {}",
                    level.size(),
                    blevel.size()
                )));
            }
        }
        // Copy the arrays into the existing buffers in place.  Levels are
        // re-fetched by index (a `BoundLevel` clone is heap-free) so the
        // cache-hit rebind path performs no allocation of its own.
        let values_id = bound.values();
        let nlevels = bound.ndim();
        for k in 0..nlevels {
            let blevel = self.inputs[tensor.name()].levels()[k].clone();
            let level = &tensor.levels()[k];
            match (level, blevel) {
                (
                    Level::SparseList { pos, idx, .. },
                    BoundLevel::SparseList { pos: bp, idx: bi, .. },
                )
                | (
                    Level::RunLength { pos, idx, .. },
                    BoundLevel::RunLength { pos: bp, idx: bi, .. },
                ) => {
                    copy_i64(&mut self.bufs, bp, pos);
                    copy_i64(&mut self.bufs, bi, idx);
                }
                (
                    Level::SparseBand { pos, start, .. },
                    BoundLevel::SparseBand { pos: bp, start: bs, .. },
                ) => {
                    copy_i64(&mut self.bufs, bp, pos);
                    copy_i64(&mut self.bufs, bs, start);
                }
                (
                    Level::SparseVbl { pos, idx, ofs, .. },
                    BoundLevel::SparseVbl { pos: bp, idx: bi, ofs: bo, .. },
                )
                | (
                    Level::PackBits { pos, idx, ofs, .. },
                    BoundLevel::PackBits { pos: bp, idx: bi, ofs: bo, .. },
                ) => {
                    copy_i64(&mut self.bufs, bp, pos);
                    copy_i64(&mut self.bufs, bi, idx);
                    copy_i64(&mut self.bufs, bo, ofs);
                }
                (Level::Bitmap { tbl, .. }, BoundLevel::Bitmap { tbl: bt, .. }) => {
                    match self.bufs.get_mut(bt) {
                        Buffer::Bool(d) => {
                            d.clear();
                            d.extend_from_slice(tbl);
                        }
                        other => *other = Buffer::Bool(tbl.clone()),
                    }
                }
                (Level::Ragged { pos, .. }, BoundLevel::Ragged { pos: bp, .. }) => {
                    copy_i64(&mut self.bufs, bp, pos);
                }
                // Dense / Triangular / Symmetric levels carry no arrays.
                _ => {}
            }
        }
        match self.bufs.get_mut(values_id) {
            Buffer::F64(d) => {
                d.clear();
                d.extend_from_slice(tensor.values());
            }
            other => *other = Buffer::F64(tensor.values().to_vec().into()),
        }
        Ok(())
    }

    /// The names of the bound input tensors (rebind targets), sorted.
    pub fn input_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inputs.keys().cloned().collect();
        names.sort();
        names
    }

    /// The kernel's buffer set (crate-internal: the service's tests probe
    /// pointer stability of cache-hit reruns through this).
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> &BufferSet {
        &self.bufs
    }

    /// Re-initialise the outputs and execute the kernel on the selected
    /// engine (the bytecode VM unless changed), returning the engine's work
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the generated code faults (which the
    /// test suite treats as a compiler bug) or exceeds the step budget.
    pub fn run(&mut self) -> Result<ExecStats, RuntimeError> {
        self.run_with(self.engine)
    }

    /// Re-initialise the outputs and execute the kernel on an explicitly
    /// chosen engine, leaving the configured default untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] under the same conditions as
    /// [`CompiledKernel::run`].
    pub fn run_with(&mut self, engine: Engine) -> Result<ExecStats, RuntimeError> {
        self.reset_outputs();
        match engine {
            Engine::Bytecode => {
                // The persistent VM resets in place: re-runs allocate
                // nothing (no register file, no stats, no output vecs).
                self.vm.reset();
                self.vm.set_step_budget(self.step_budget);
                self.vm.set_watch(self.watch.clone());
                self.vm.set_alloc_budget(self.alloc_budget);
                if self.threads > 1 {
                    run_sharded(&mut self.vm, &self.bytecode, &mut self.bufs, self.threads)?;
                } else {
                    self.vm.run(&self.bytecode, &mut self.bufs)?;
                }
                Ok(self.vm.stats())
            }
            Engine::TreeWalk => {
                let mut interp = Interpreter::new(&self.names);
                if let Some(budget) = self.step_budget {
                    interp = interp.with_step_budget(budget);
                }
                interp.set_watch(self.watch.clone());
                interp.set_alloc_budget(self.alloc_budget);
                interp.run(&self.code, &mut self.bufs)?;
                Ok(interp.stats())
            }
        }
    }

    /// Re-initialise the outputs and execute once on the bytecode VM
    /// while collecting per-pc dispatch counts (untimed instrumentation;
    /// semantics and [`ExecStats`] identical to [`CompiledKernel::run`]).
    /// The benchmark harness derives the executed-typed-instruction
    /// fraction and the per-opcode histogram from the counts.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] under the same conditions as
    /// [`CompiledKernel::run`].
    pub fn profile(&mut self) -> Result<(ExecStats, Vec<u64>), RuntimeError> {
        self.reset_outputs();
        self.vm.reset();
        self.vm.set_step_budget(self.step_budget);
        self.vm.set_watch(self.watch.clone());
        self.vm.set_alloc_budget(self.alloc_budget);
        let counts = self.vm.run_profiled(&self.bytecode, &mut self.bufs)?;
        Ok((self.vm.stats(), counts))
    }

    /// Reset sparse outputs to their empty state so re-runs assemble from
    /// scratch.  Dense outputs are initialised by the generated code
    /// itself.  The growable arrays are truncated in place — their
    /// capacity (grown by earlier runs) is reused, so steady-state reruns
    /// perform no output allocation.
    fn reset_outputs(&mut self) {
        for out in self.outputs.values() {
            if let OutputSink::SparseList { pos, idx, val } = out.sink {
                match self.bufs.get_mut(pos) {
                    Buffer::I64(v) => {
                        v.clear();
                        v.push(0);
                    }
                    other => *other = Buffer::I64(vec![0].into()),
                }
                self.bufs.get_mut(idx).clear();
                self.bufs.get_mut(val).clear();
            }
        }
    }

    fn output_binding(&self, name: &str) -> Result<&OutputBinding, RuntimeError> {
        self.outputs.get(name).ok_or_else(|| RuntimeError::BadOutputQuery {
            name: name.to_string(),
            detail: "no output was bound under this name".into(),
        })
    }

    /// The dense (row-major) contents of a named output after the last run;
    /// sparse outputs are materialised through their fill value.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadOutputQuery`] when no output was bound
    /// under `name`, or when a sparse output's assembly is incomplete (the
    /// kernel has not run).
    pub fn output(&self, name: &str) -> Result<Vec<f64>, RuntimeError> {
        let ob = self.output_binding(name)?;
        match ob.sink {
            OutputSink::Dense { buf } => Ok(self.bufs.get(buf).to_f64_vec()),
            OutputSink::SparseList { .. } => Ok(self.output_tensor(name)?.to_dense()),
        }
    }

    /// The value of a scalar output after the last run.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadOutputQuery`] when no output was bound
    /// under `name` or when the binding is not a scalar (use
    /// [`CompiledKernel::output`] or [`CompiledKernel::output_tensor`] for
    /// tensor outputs).
    pub fn output_scalar(&self, name: &str) -> Result<f64, RuntimeError> {
        let ob = self.output_binding(name)?;
        match ob.sink {
            // Read the scalar lane directly — no intermediate vec, so the
            // cache-hit request path performs no read-back allocation.
            OutputSink::Dense { buf } if ob.specs.is_empty() => match self.bufs.get(buf) {
                Buffer::F64(v) => Ok(v[0]),
                other => Ok(other.to_f64_vec()[0]),
            },
            _ => Err(RuntimeError::BadOutputQuery {
                name: name.to_string(),
                detail: format!(
                    "bound as a rank-{} {} output, not a scalar; read it with `output` \
                     or `output_tensor`",
                    ob.specs.len(),
                    ob.specs.last().map_or("dense", |s| s.format_name()),
                ),
            }),
        }
    }

    /// Finalize a named output into a first-class [`Tensor`] (named after
    /// the output), so the result of one kernel can be re-bound as an input
    /// of the next — kernel chaining.
    ///
    /// Dense outputs materialise as dense tensors; sparse outputs keep
    /// their assembled `pos`/`idx`/`val` arrays, validated on the way out.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadOutputQuery`] when no output was bound
    /// under `name`, or when a sparse output's assembly is structurally
    /// invalid — in particular before the kernel has run.
    pub fn output_tensor(&self, name: &str) -> Result<Tensor, RuntimeError> {
        let ob = self.output_binding(name)?;
        let builder = OutputBuilder::new(name, ob.specs.clone());
        let bad = |e: finch_formats::TensorError| RuntimeError::BadOutputQuery {
            name: name.to_string(),
            detail: format!("assembled output is not a valid tensor: {e}"),
        };
        match ob.sink {
            OutputSink::Dense { buf } => {
                builder.finalize_dense(self.bufs.get(buf).to_f64_vec(), ob.init).map_err(bad)
            }
            OutputSink::SparseList { pos, idx, val } => {
                let pos = self.bufs.get(pos).as_i64().expect("pos is an i64 buffer").to_vec();
                let idx = self.bufs.get(idx).as_i64().expect("idx is an i64 buffer").to_vec();
                let val = self.bufs.get(val).as_f64().expect("val is an f64 buffer").to_vec();
                builder.finalize_sparse_list(pos, idx, val, ob.init).map_err(bad)
            }
        }
    }

    /// Names of all outputs.
    pub fn output_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.outputs.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch_cin::build::*;
    use finch_formats::Level;

    fn dot_product(a: &Tensor, b: &Tensor) -> CompiledKernel {
        let mut kernel = Kernel::new();
        kernel.bind_input(a).bind_input(b).bind_output_scalar("C");
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access(a.name(), [i.clone()]), access(b.name(), [i]))),
        );
        kernel.compile(&program).expect("dot product compiles")
    }

    fn reference_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dense_dot_product_matches_reference() {
        let av = vec![1.0, 2.0, 3.0, 4.0];
        let bv = vec![0.5, 0.0, 2.0, 10.0];
        let a = Tensor::dense_vector("A", &av);
        let b = Tensor::dense_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        k.run().unwrap();
        assert_eq!(k.output_scalar("C").unwrap(), reference_dot(&av, &bv));
    }

    #[test]
    fn sparse_times_dense_dot_product() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv: Vec<f64> = (0..11).map(|x| x as f64 * 0.5).collect();
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::dense_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn sparse_times_sparse_dot_product_is_a_two_finger_merge() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::sparse_list_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}");
        // The generated code contains a while loop (the merge) rather than a
        // dense for loop over the whole dimension.
        assert!(k.code().contains("while"), "generated code:\n{}", k.code());
    }

    #[test]
    fn sparse_list_times_band_reproduces_figure_1() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::band_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        let stats = k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}");
        // The looplet code skips to the band: the number of loop iterations
        // should be far below the dense dimension times nonzeros.
        assert!(stats.loop_iters < 64, "stats {stats:?}\ncode:\n{}", k.code());
    }

    #[test]
    fn gallop_protocol_compiles_and_matches() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 0.0, 9.2, 0.0, 8.7, 0.0, 0.0, 5.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::sparse_list_vector("B", &bv);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access("A", [i.gallop()]), access("B", [i.gallop()]))),
        );
        let mut k = kernel.compile(&program).expect("gallop dot compiles");
        k.run().unwrap();
        let got = k.output_scalar("C").unwrap();
        assert!((got - reference_dot(&av, &bv)).abs() < 1e-9, "got {got}\ncode:\n{}", k.code());
        assert!(k.code().contains("search"), "galloping should binary search:\n{}", k.code());
    }

    #[test]
    fn spmv_over_csr_matches_reference() {
        let nrows = 5;
        let ncols = 7;
        let data: Vec<f64> =
            (0..nrows * ncols).map(|k| if k % 3 == 0 { (k % 11) as f64 } else { 0.0 }).collect();
        let xv: Vec<f64> = (0..ncols).map(|k| (k as f64) - 2.5).collect();
        let a = Tensor::csr_matrix("A", nrows, ncols, &data);
        let x = Tensor::dense_vector("x", &xv);

        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_input(&x).bind_output("y", &[nrows], 0.0);
        let (i, j) = (idx("i"), idx("j"));
        let program = forall(
            i.clone(),
            forall(
                j.clone(),
                add_assign(
                    access("y", [i.clone()]),
                    mul(access("A", [i, j.clone()]), access("x", [j])),
                ),
            ),
        );
        let mut k = kernel.compile(&program).expect("spmv compiles");
        k.run().unwrap();
        let y = k.output("y").unwrap();
        for r in 0..nrows {
            let expect: f64 = (0..ncols).map(|c| data[r * ncols + c] * xv[c]).sum();
            assert!((y[r] - expect).abs() < 1e-9, "row {r}: {} vs {expect}", y[r]);
        }
    }

    #[test]
    fn unknown_tensor_is_reported() {
        let kernel = Kernel::new();
        let i = idx("i");
        let program = forall(i.clone(), add_assign(scalar("C"), access("A", [i])));
        let err = kernel.compile(&program).unwrap_err();
        assert!(matches!(err, CompileError::UnknownTensor { .. }));
    }

    #[test]
    fn writing_to_an_input_is_reported() {
        let a = Tensor::dense_vector("A", &[1.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a);
        let i = idx("i");
        let program = forall(i.clone(), add_assign(access("A", [i]), lit(1.0)));
        let err = kernel.compile(&program).unwrap_err();
        assert!(matches!(
            err,
            CompileError::UnsupportedWrite { .. } | CompileError::UnknownTensor { .. }
        ));
    }

    #[test]
    fn non_concordant_access_is_reported() {
        // forall i forall j C[] += A[j, i] cannot be driven concordantly.
        let a = Tensor::csr_matrix("A", 3, 3, &[1.0; 9]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_scalar("C");
        let (i, j) = (idx("i"), idx("j"));
        let program =
            forall(i.clone(), forall(j.clone(), add_assign(scalar("C"), access("A", [j, i]))));
        let err = kernel.compile(&program).unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::NonConcordantAccess { .. } | CompileError::CannotInferExtent { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn bytecode_engine_is_the_default() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0]);
        let b = Tensor::dense_vector("B", &[3.0, 4.0]);
        let k = dot_product(&a, &b);
        assert_eq!(k.engine(), Engine::Bytecode);
        assert!(k.bytecode().validate().is_ok(), "compiled bytecode validates");
    }

    #[test]
    fn engines_agree_on_outputs_and_stats() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::band_vector("B", &bv);
        let mut k = dot_product(&a, &b);
        let fast = k.run_with(Engine::Bytecode).unwrap();
        let fast_out = k.output_scalar("C").unwrap();
        let oracle = k.run_with(Engine::TreeWalk).unwrap();
        let oracle_out = k.output_scalar("C").unwrap();
        assert_eq!(fast, oracle, "work counters must be identical");
        assert_eq!(fast_out.to_bits(), oracle_out.to_bits(), "outputs must be bit-identical");
    }

    #[test]
    fn set_engine_redirects_run() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0]);
        let b = Tensor::dense_vector("B", &[3.0, 4.0]);
        let mut k = dot_product(&a, &b);
        k.set_engine(Engine::TreeWalk);
        assert_eq!(k.engine(), Engine::TreeWalk);
        k.run().unwrap();
        assert_eq!(k.output_scalar("C").unwrap(), 11.0);
        let k2 = k.clone().with_engine(Engine::Bytecode);
        assert_eq!(k2.engine(), Engine::Bytecode);
    }

    #[test]
    fn step_budget_applies_to_both_engines() {
        let a = Tensor::dense_vector("A", &[1.0; 64]);
        let b = Tensor::dense_vector("B", &[2.0; 64]);
        let mut k = dot_product(&a, &b).with_step_budget(3);
        for engine in [Engine::Bytecode, Engine::TreeWalk] {
            let err = k.run_with(engine).unwrap_err();
            assert!(
                matches!(err, RuntimeError::StepBudgetExceeded { budget: 3 }),
                "{engine:?}: got {err:?}"
            );
        }
        k.clear_step_budget();
        assert_eq!(k.step_budget(), None);
        k.run().unwrap();
    }

    #[test]
    fn engine_labels_are_stable() {
        assert_eq!(Engine::Bytecode.label(), "bytecode");
        assert_eq!(Engine::TreeWalk.label(), "tree_walk");
        assert_eq!(Engine::default(), Engine::Bytecode);
    }

    fn sparse_mul_kernel(av: &[f64], bv: &[f64]) -> CompiledKernel {
        let a = Tensor::sparse_list_vector("A", av);
        let b = Tensor::sparse_list_vector("B", bv);
        let mut kernel = Kernel::new();
        kernel
            .bind_input(&a)
            .bind_input(&b)
            .bind_output_format("C", &[LevelSpec::SparseList { size: av.len() }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        kernel.compile(&program).expect("sparse multiply compiles")
    }

    #[test]
    fn sparse_output_assembles_only_the_intersection() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 2.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let mut k = sparse_mul_kernel(&av, &bv);
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        let expect: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x * y).collect();
        assert_eq!(c.to_dense(), expect);
        // Coordinates 1, 3 and 6 are stored in both inputs.
        assert_eq!(c.stored(), 3);
        match &c.levels()[0] {
            Level::SparseList { pos, idx, .. } => {
                assert_eq!(pos, &vec![0, 3]);
                assert_eq!(idx, &vec![1, 3, 6]);
            }
            other => panic!("expected a sparse list level, got {other:?}"),
        }
    }

    #[test]
    fn sparse_output_is_bit_identical_across_engines() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 2.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let mut k = sparse_mul_kernel(&av, &bv);
        let fast = k.run_with(Engine::Bytecode).unwrap();
        let fast_out = k.output_tensor("C").unwrap();
        let oracle = k.run_with(Engine::TreeWalk).unwrap();
        let oracle_out = k.output_tensor("C").unwrap();
        assert_eq!(fast, oracle, "work counters must be identical");
        assert_eq!(fast_out, oracle_out, "pos/idx/val arrays must be identical");
        let bits = |t: &Tensor| -> Vec<u64> { t.values().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&fast_out), bits(&oracle_out), "values must be bit-identical");
    }

    #[test]
    fn sparse_output_stores_strictly_less_than_the_dense_variant() {
        let n = 1000;
        let mut av = vec![0.0; n];
        let mut bv = vec![0.0; n];
        for k in (0..n).step_by(97) {
            av[k] = 1.0 + k as f64;
            bv[k] = 2.0;
        }
        let sparse_stats = {
            let mut k = sparse_mul_kernel(&av, &bv);
            k.run().unwrap()
        };
        let dense_stats = {
            let a = Tensor::sparse_list_vector("A", &av);
            let b = Tensor::sparse_list_vector("B", &bv);
            let mut kernel = Kernel::new();
            kernel.bind_input(&a).bind_input(&b).bind_output("C", &[n], 0.0);
            let i = idx("i");
            let program = forall(
                i.clone(),
                assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
            );
            kernel.compile(&program).expect("dense multiply compiles").run().unwrap()
        };
        // The dense output pays O(n) initialisation; the sparse output pays
        // O(stored) appends.
        assert!(
            sparse_stats.stores < dense_stats.stores,
            "sparse assembly must store less: {} vs {}",
            sparse_stats.stores,
            dense_stats.stores
        );
    }

    #[test]
    fn sparse_output_chains_into_a_follow_up_kernel() {
        let av = vec![0.0, 1.5, 0.0, 2.0, 0.0];
        let bv = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut k = sparse_mul_kernel(&av, &[0.0, 1.0, 1.0, 1.0, 0.0]);
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        // Re-bind the assembled sparse result as an input of a dot product.
        let b = Tensor::dense_vector("B", &bv);
        let mut kernel = Kernel::new();
        kernel.bind_input(&c).bind_input(&b).bind_output_scalar("D");
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("D"), mul(access("C", [i.clone()]), access("B", [i]))),
        );
        let mut chained = kernel.compile(&program).expect("chained kernel compiles");
        chained.run().unwrap();
        let expect: f64 = c.to_dense().iter().zip(&bv).map(|(x, y)| x * y).sum();
        assert_eq!(chained.output_scalar("D").unwrap(), expect);
    }

    #[test]
    fn threshold_filter_assembles_only_passing_entries() {
        let av = vec![0.0, 5.0, 0.0, 1.0, 7.0, 0.0, 2.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format("C", &[LevelSpec::SparseList { size: av.len() }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            sieve(
                gt(access("A", [i.clone()]), lit(3.0)),
                assign(access("C", [i.clone()]), access("A", [i])),
            ),
        );
        let mut k = kernel.compile(&program).expect("filter compiles");
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        assert_eq!(c.to_dense(), vec![0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0]);
        assert_eq!(c.stored(), 2);
    }

    #[test]
    fn matrix_sparse_output_closes_one_fiber_per_row() {
        let data = vec![
            0.0, 1.0, 0.0, 2.0, //
            0.0, 0.0, 0.0, 0.0, //
            3.0, 0.0, 4.0, 0.0,
        ];
        let a = Tensor::csr_matrix("A", 3, 4, &data);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format(
            "C",
            &[LevelSpec::Dense { size: 3 }, LevelSpec::SparseList { size: 4 }],
        );
        let (i, j) = (idx("i"), idx("j"));
        let program = forall(
            i.clone(),
            forall(j.clone(), assign(access("C", [i.clone(), j.clone()]), access("A", [i, j]))),
        );
        let mut k = kernel.compile(&program).expect("copy compiles");
        k.run().unwrap();
        let c = k.output_tensor("C").unwrap();
        assert_eq!(c.to_dense(), data);
        match &c.levels()[1] {
            Level::SparseList { pos, idx, .. } => {
                assert_eq!(pos, &vec![0, 2, 2, 4], "one fiber per row, middle row empty");
                assert_eq!(idx, &vec![1, 3, 0, 2]);
            }
            other => panic!("expected a sparse list level, got {other:?}"),
        }
    }

    #[test]
    fn output_queries_report_typed_errors() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0]);
        let b = Tensor::dense_vector("B", &[3.0, 4.0]);
        let k = dot_product(&a, &b);
        let err = k.output_scalar("nope").unwrap_err();
        assert!(matches!(err, RuntimeError::BadOutputQuery { .. }), "got {err:?}");
        assert!(k.output("nope").is_err());
        assert!(k.output_tensor("nope").is_err());

        let x = Tensor::dense_vector("x", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&x).bind_output("y", &[3], 0.0);
        let i = idx("i");
        let program = forall(i.clone(), assign(access("y", [i.clone()]), access("x", [i])));
        let k = kernel.compile(&program).expect("copy compiles");
        let err = k.output_scalar("y").unwrap_err();
        match err {
            RuntimeError::BadOutputQuery { name, detail } => {
                assert_eq!(name, "y");
                assert!(detail.contains("rank-1"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sparse_output_before_any_run_is_a_typed_error() {
        let k = sparse_mul_kernel(&[0.0, 1.0], &[1.0, 1.0]);
        let err = k.output_tensor("C").unwrap_err();
        assert!(matches!(err, RuntimeError::BadOutputQuery { .. }), "got {err:?}");
    }

    #[test]
    fn sparse_output_written_by_a_non_innermost_loop_is_rejected_at_compile_time() {
        // forall i forall j C[i] = A[j] would append the same coordinate
        // once per j; it must be a CompileError, not a late validity error.
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format("C", &[LevelSpec::SparseList { size: 3 }]);
        let (i, j) = (idx("i"), idx("j"));
        let program = forall_in(
            i.clone(),
            lit_int(0),
            lit_int(2),
            forall(j.clone(), assign(access("C", [i]), access("A", [j]))),
        );
        let err = kernel.compile(&program).unwrap_err();
        match err {
            CompileError::Unsupported { detail } => {
                assert!(detail.contains("innermost"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn where_producers_are_not_double_initialised() {
        // The `where` lowering initialises its producer at scope entry; the
        // top-of-program init must skip it or the store traffic is counted
        // twice.
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_scalar("t").bind_output_scalar("S");
        let i = idx("i");
        let program = where_(
            assign(scalar("S"), mul(lit(2.0), finch_cin::CinExpr::Access(scalar("t")))),
            forall(i.clone(), add_assign(scalar("t"), access("A", [i]))),
        );
        let k = kernel.compile(&program).expect("where compiles");
        // Exactly one init store for S and one (where-emitted) for t: the
        // code must contain exactly two literal stores of 0 into the two
        // scalar buffers before the loop.
        let init_stores = Stmt::count_matching(k.stmts(), &|s| {
            matches!(s, Stmt::Store { value: finch_ir::Expr::Lit(v), reduce: None, .. }
                     if *v == finch_ir::Value::Float(0.0))
        });
        assert_eq!(init_stores, 2, "one init per scalar, no double init:\n{}", k.code());
    }

    #[test]
    fn reductions_into_sparse_outputs_are_rejected() {
        let a = Tensor::sparse_list_vector("A", &[0.0, 1.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format("C", &[LevelSpec::SparseList { size: 2 }]);
        let i = idx("i");
        let program = forall(i.clone(), add_assign(access("C", [i.clone()]), access("A", [i])));
        let err = kernel.compile(&program).unwrap_err();
        assert!(matches!(err, CompileError::Unsupported { .. }), "got {err:?}");
    }

    #[test]
    fn bind_output_format_with_dense_specs_matches_bind_output() {
        let x = Tensor::dense_vector("x", &[1.0, 2.0, 3.0]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&x).bind_output_format("y", &[LevelSpec::Dense { size: 3 }]);
        let i = idx("i");
        let program = forall(i.clone(), assign(access("y", [i.clone()]), access("x", [i])));
        let mut k = kernel.compile(&program).expect("copy compiles");
        k.run().unwrap();
        assert_eq!(k.output("y").unwrap(), vec![1.0, 2.0, 3.0]);
        let t = k.output_tensor("y").unwrap();
        assert_eq!(t.to_dense(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn typed_dispatch_is_on_by_default_and_specializes_the_inner_loop() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::dense_vector("B", &[0.5, 0.0, 2.0, 10.0]);
        let k = dot_product(&a, &b);
        assert!(k.typed_dispatch());
        let stats = k.opt_stats();
        assert!(stats.instrs_typed > 0, "typing ran: {stats:?}");
        assert!(stats.regs_pretagged > 0, "registers pinned: {stats:?}");
        assert!(!k.bytecode().pretags().is_empty());
        // The stage is gated off at OptLevel::None.
        let none = k.reoptimized(OptLevel::None);
        assert_eq!(none.opt_stats().instrs_typed, 0);
        assert!(none.bytecode().pretags().is_empty());
    }

    #[test]
    fn typed_and_generic_dispatch_agree_bit_for_bit() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::band_vector("B", &bv);
        let typed = dot_product(&a, &b);
        let mut generic = typed.reoptimized_simd(OptLevel::Default, false, typed.simd());
        let mut typed = typed;
        assert!(!generic.typed_dispatch());
        assert_eq!(generic.opt_stats().instrs_typed, 0);
        let st = typed.run().unwrap();
        let sg = generic.run().unwrap();
        assert_eq!(st, sg, "typed dispatch must not change the work counters");
        let (t, g) = (typed.output_scalar("C").unwrap(), generic.output_scalar("C").unwrap());
        assert_eq!(t.to_bits(), g.to_bits(), "outputs must be bit-identical");
    }

    #[test]
    fn reruns_reuse_sparse_output_capacity() {
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 2.7, 0.0, 5.5];
        let bv = vec![1.0, 2.0, 0.0, 3.7, 4.7, 1.5, 8.7, 2.0];
        let mut k = sparse_mul_kernel(&av, &bv);
        k.run().unwrap();
        let val = k.bufs.lookup("C_val").expect("val buffer exists");
        let ptr_before = k.bufs.get(val).as_f64().unwrap().as_ptr();
        assert_eq!(
            ptr_before as usize % finch_ir::buffer::LANE_ALIGN,
            0,
            "f64 lanes must start on a {}-byte boundary",
            finch_ir::buffer::LANE_ALIGN
        );
        for _ in 0..3 {
            k.run().unwrap();
            let ptr_after = k.bufs.get(val).as_f64().unwrap().as_ptr();
            assert_eq!(ptr_before, ptr_after, "rerun must reuse the val allocation");
        }
        // The assembled result stays correct across the reuse.
        let c = k.output_tensor("C").unwrap();
        let expect: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x * y).collect();
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn profile_counts_match_run_semantics() {
        let a = Tensor::dense_vector("A", &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::dense_vector("B", &[0.5, 0.0, 2.0, 10.0]);
        let mut k = dot_product(&a, &b);
        let run_stats = k.run().unwrap();
        let (profile_stats, counts) = k.profile().unwrap();
        assert_eq!(run_stats, profile_stats, "profiling must not change semantics");
        assert_eq!(counts.len(), k.bytecode().code().len());
        let executed: u64 = counts.iter().sum();
        assert!(executed > 0);
        // The dense dot inner loop is fully typed: the executed
        // tag-free fraction must be overwhelming.
        let typed_executed: u64 = counts
            .iter()
            .zip(k.bytecode().code())
            .filter(|(_, i)| i.is_tag_free())
            .map(|(c, _)| *c)
            .sum();
        let fraction = typed_executed as f64 / executed as f64;
        assert!(fraction > 0.9, "dense loop should be ~fully typed, got {fraction}");
    }

    #[test]
    fn compiled_kernels_cross_thread_boundaries() {
        // The parallel tier hands kernels and their buffers to worker
        // threads; the public types must stay Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Kernel>();
        assert_send_sync::<CompiledKernel>();
        assert_send_sync::<finch_ir::Program>();
        assert_send_sync::<finch_ir::BufferSet>();
    }

    fn spmv_kernel(threads: usize) -> CompiledKernel {
        let nrows = 17;
        let ncols = 13;
        let data: Vec<f64> = (0..nrows * ncols)
            .map(|k| if k % 3 == 0 { (k % 11) as f64 - 4.0 } else { 0.0 })
            .collect();
        let xv: Vec<f64> = (0..ncols).map(|k| (k as f64) * 0.25 - 1.5).collect();
        let a = Tensor::csr_matrix("A", nrows, ncols, &data);
        let x = Tensor::dense_vector("x", &xv);
        let mut kernel = Kernel::new().with_threads(threads);
        kernel.bind_input(&a).bind_input(&x).bind_output("y", &[nrows], 0.0);
        let (i, j) = (idx("i"), idx("j"));
        let program = forall(
            i.clone(),
            forall(
                j.clone(),
                add_assign(
                    access("y", [i.clone()]),
                    mul(access("A", [i, j.clone()]), access("x", [j])),
                ),
            ),
        );
        kernel.compile(&program).expect("spmv compiles")
    }

    #[test]
    fn parallel_runs_are_bit_identical_to_serial() {
        let mut serial = spmv_kernel(1);
        assert_eq!(serial.threads(), 1);
        let s_stats = serial.run().unwrap();
        let s_out = serial.output("y").unwrap();
        assert!(serial.sharded(), "the dense outer row loop shards:\n{}", serial.code());
        for threads in [2, 3, 4, 8, 64] {
            let mut par = spmv_kernel(threads);
            assert_eq!(par.threads(), threads);
            let p_stats = par.run().unwrap();
            let p_out = par.output("y").unwrap();
            assert_eq!(s_stats, p_stats, "{threads} threads: work counters diverge");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s_out), bits(&p_out), "{threads} threads: outputs diverge");
        }
        // Asking for 64 threads must not grow the shard pool past the
        // machine's cores: extra shards queue on the workers it has.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = finch_ir::par::pool_workers();
        assert!(workers <= cores, "shard pool holds {workers} workers on {cores} cores");
    }

    #[test]
    fn non_shardable_kernels_run_serial_at_any_thread_count() {
        // The sparse-sparse dot product is a while-loop merge with a float
        // reduction: not shardable, so threads must be a silent no-op.
        let av = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let bv = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let a = Tensor::sparse_list_vector("A", &av);
        let b = Tensor::sparse_list_vector("B", &bv);
        let mut serial = dot_product(&a, &b);
        let s_stats = serial.run().unwrap();
        let s_out = serial.output_scalar("C").unwrap();
        let mut par = dot_product(&a, &b);
        par.set_threads(4);
        assert!(!par.sharded(), "a float-reduction merge must not shard");
        assert!(par.shard_plan().is_empty());
        let p_stats = par.run().unwrap();
        let p_out = par.output_scalar("C").unwrap();
        assert_eq!(s_stats, p_stats);
        assert_eq!(s_out.to_bits(), p_out.to_bits());
    }

    #[test]
    fn zero_threads_resolve_to_available_parallelism_and_carry_through_reoptimize() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let a = Tensor::dense_vector("A", &[1.0, 2.0]);
        let b = Tensor::dense_vector("B", &[3.0, 4.0]);
        let mut k = dot_product(&a, &b);
        k.set_threads(0);
        assert_eq!(k.threads(), cores, "0 means one thread per available core");
        k.set_threads(4);
        let re = k.reoptimized(OptLevel::None);
        assert_eq!(re.threads(), 4, "reoptimize must carry the thread count");
        assert_eq!(Kernel::new().with_threads(0).threads(), cores);
    }

    #[test]
    fn generated_code_is_printable_and_mentions_buffers() {
        let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0]);
        let b = Tensor::dense_vector("B", &[1.0; 4]);
        let k = dot_product(&a, &b);
        let code = k.code();
        assert!(code.contains("A_idx"), "{code}");
        assert!(code.contains("C_val"), "{code}");
        assert!(!k.program().is_empty());
    }
}
