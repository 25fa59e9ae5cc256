//! The timing engine shared by every workload.
//!
//! An [`Entry`] holds one compiled kernel with its checked answer.  Every
//! timing is a short batched sample; samples are spread over the whole run
//! in rounds that visit every kernel, alternate the order in which compared
//! sides run, and interleave samples of the frozen reference kernel.  Gated
//! numbers are the fastest sample scaled to the reference speed
//! ([`crate::reference::Sentinel::scale`]): interference only ever adds
//! time, so the fastest of many short samples is the estimator that
//! survives a host with a fast and a slow phase.

use std::collections::BTreeMap;
use std::time::Instant;

use finch::{CompiledKernel, OptLevel, Tensor};

use crate::figures::Class;
use crate::reference::Sentinel;
use crate::spans::{Open, Recorder};
use crate::spec::{matches, Spec, Tol};
use crate::stats;

/// Target length of one batched run sample, µs.
pub const SAMPLE_US: f64 = 200.0;

/// The optimizer passes whose `pass_reports` times are broken out.
pub const PASSES: [&str; 8] =
    ["fold", "licm", "dce", "lower", "peephole", "typing", "vectorize", "shard"];

/// How a kernel's results are checked.
#[derive(Debug, Clone)]
pub enum Check {
    /// Run in place; the checked output must match `want`.
    Steady {
        /// Expected checked output, dense.
        want: std::sync::Arc<Vec<f64>>,
        /// Tolerance.
        tol: Tol,
    },
    /// The cache-hit path: rebind the next instance's inputs, run, read
    /// the output back; it must match that instance's answer bit-for-bit.
    Instances {
        /// Input tensors per instance.
        inputs: Vec<Vec<Tensor>>,
        /// Expected output per instance, dense.
        want: Vec<Vec<f64>>,
        /// Whether the output is a scalar.
        scalar: bool,
        /// Next instance to rebind.
        next: usize,
    },
}

/// What a readback produced: a scalar or an assembled tensor.
enum Readback {
    Scalar(f64),
    Tensor(Tensor),
}

impl Readback {
    fn dense(&self) -> Vec<f64> {
        match self {
            Readback::Scalar(s) => vec![*s],
            Readback::Tensor(t) => t.to_dense(),
        }
    }
}

/// Kernels compiled with one feature switched off, for paired ratios.
pub struct Alternates {
    /// Typed dispatch, no SIMD superinstructions.
    pub nosimd: CompiledKernel,
    /// Untyped dispatch (and so no SIMD).
    pub untyped: CompiledKernel,
    /// Two worker threads, when the shard analysis found a region.
    pub two_threads: Option<CompiledKernel>,
}

/// One kernel under measurement.
pub struct Entry {
    /// Diagnostic label.
    pub label: String,
    /// Baseline or looplet, when the workload draws the distinction.
    pub class: Class,
    /// How to compile it again.
    pub spec: Spec,
    /// The steady-state kernel (default configuration).
    pub kernel: CompiledKernel,
    /// How runs are checked.
    pub check: Check,
    /// Runs per timed sample.
    pub batch: usize,
    /// Raw µs per run, one per sample: `[untraced, traced]` rounds.
    pub runs: [Vec<f64>; 2],
    /// µs per `Kernel::compile`.
    pub compiles: Vec<f64>,
    /// µs per `reoptimized(Default)` (traced rounds).
    pub reopt_default: Vec<f64>,
    /// µs per `reoptimized(None)` (traced rounds).
    pub reopt_none: Vec<f64>,
    /// Fastest transform time per optimizer pass, µs.
    pub passes: BTreeMap<&'static str, f64>,
    /// Counted work of one run (`ExecStats::total_work`).
    pub work: u64,
    /// Bytecode instructions at `Default` and at `None`.
    pub instrs: (u64, u64),
    /// `(vectorized, vectorizable)` instructions.
    pub vectorized: (u64, u64),
    /// Whether the shard analysis found a region.
    pub shardable: bool,
    /// Feature-off kernels (traced runs only).
    pub alternates: Option<Alternates>,
    /// Paired ratios, one per traced visit: SIMD off/on, untyped/typed,
    /// one thread/two threads.
    pub ratios: [Vec<f64>; 3],
    /// Operations attempted and failed (runs and compiles).
    pub attempted: u64,
    /// Operations that errored or gave a wrong answer.
    pub failed: u64,
}

/// Time `batch` runs of `kernel` under `check`; returns µs per run and
/// whether every checked result was right.
fn sample(kernel: &mut CompiledKernel, check: &mut Check, batch: usize, name: &str) -> (f64, bool) {
    match check {
        Check::Steady { want, tol } => {
            let start = Instant::now();
            let mut ok = true;
            for _ in 0..batch {
                ok &= kernel.run().is_ok();
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / batch as f64;
            let right = kernel.output(name).is_ok_and(|got| matches(&got, want, *tol));
            (us, ok && right)
        }
        Check::Instances { inputs, want, scalar, next } => {
            let mut got = Vec::with_capacity(batch);
            let mut which = Vec::with_capacity(batch);
            let start = Instant::now();
            let mut ok = true;
            for _ in 0..batch {
                let k = *next;
                *next = (k + 1) % inputs.len();
                for t in &inputs[k] {
                    ok &= kernel.rebind_input(t).is_ok();
                }
                ok &= kernel.run().is_ok();
                let back = if *scalar {
                    kernel.output_scalar(name).map(Readback::Scalar)
                } else {
                    kernel.output_tensor(name).map(Readback::Tensor)
                };
                match back {
                    Ok(b) => got.push(b),
                    Err(_) => ok = false,
                }
                which.push(k);
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / batch as f64;
            let right = got.len() == batch
                && got.iter().zip(&which).all(|(b, &k)| matches(&b.dense(), &want[k], Tol::Exact));
            (us, ok && right)
        }
    }
}

impl Entry {
    /// Compile `spec`, run it once, check it, and size its batch.
    pub fn new(label: String, class: Class, spec: Spec, check: Check) -> Result<Self, String> {
        let kernel = spec.compile().map_err(|e| format!("{label}: compile failed: {e}"))?;
        let vectorized = kernel.instrs_vectorized();
        let shardable = kernel.sharded();
        let mut e = Entry {
            label,
            class,
            spec,
            kernel,
            check,
            batch: 1,
            runs: [Vec::new(), Vec::new()],
            compiles: Vec::new(),
            reopt_default: Vec::new(),
            reopt_none: Vec::new(),
            passes: BTreeMap::new(),
            work: 0,
            instrs: (0, 0),
            vectorized,
            shardable,
            alternates: None,
            ratios: [Vec::new(), Vec::new(), Vec::new()],
            attempted: 0,
            failed: 0,
        };
        e.work = e.warm()?;
        Ok(e)
    }

    /// Run once (checked) to warm the VM, and size the batch so a sample
    /// lasts about [`SAMPLE_US`].  Returns the counted work of one run.
    fn warm(&mut self) -> Result<u64, String> {
        let stats = match &mut self.check {
            Check::Instances { inputs, .. } => {
                for t in &inputs[0] {
                    self.kernel.rebind_input(t).map_err(|e| format!("{}: {e}", self.label))?;
                }
                self.kernel.run()
            }
            Check::Steady { .. } => self.kernel.run(),
        }
        .map_err(|e| format!("{}: run failed: {e}", self.label))?;
        let (us, ok) = self.sample_once(1);
        let (us2, ok2) = self.sample_once(1);
        self.attempted += 2;
        self.failed += (!ok) as u64 + (!ok2) as u64;
        if !(ok && ok2) {
            eprintln!("loopbench: {}: output does not match its reference", self.label);
        }
        self.batch = ((SAMPLE_US / us.min(us2).max(0.05)).ceil() as usize).clamp(1, 4096);
        Ok(stats.total_work())
    }

    fn sample_once(&mut self, batch: usize) -> (f64, bool) {
        let name = self.spec.checked.clone();
        sample(&mut self.kernel, &mut self.check, batch, &name)
    }

    /// One timed run sample; records a `vm.run` span covering the batch.
    pub fn sample_run(&mut self, rec: &mut Recorder, parent: Option<Open>, key: usize) -> f64 {
        let span = rec.open("vm.run", parent, key);
        let (us, ok) = self.sample_once(self.batch);
        rec.close(span, self.batch, 0);
        self.attempted += self.batch as u64;
        if !ok {
            self.failed += self.batch as u64;
        }
        self.runs[rec.enabled() as usize].push(us);
        us
    }

    /// One timed `Kernel::compile` (binding excluded); in traced rounds
    /// also times the re-derivations at `Default` and `None` and keeps the
    /// per-pass times.
    /// Returns the compile time, µs, unless the compile failed.
    pub fn sample_compile(
        &mut self,
        rec: &mut Recorder,
        parent: Option<Open>,
        key: usize,
    ) -> Option<f64> {
        let kernel = self.spec.kernel();
        let span = rec.open("kernel.compile", parent, key);
        let start = Instant::now();
        let compiled = kernel.compile(&self.spec.program);
        let us = start.elapsed().as_secs_f64() * 1e6;
        rec.close(span, 1, 0);
        self.attempted += 1;
        let Ok(compiled) = compiled else {
            self.failed += 1;
            return None;
        };
        self.compiles.push(us);
        if !rec.enabled() {
            return Some(us);
        }
        for r in compiled.pass_reports() {
            let us = r.transform_nanos as f64 / 1e3;
            let best = self.passes.entry(r.name).or_insert(us);
            *best = best.min(us);
        }
        let span = rec.open("kernel.reoptimized_default", parent, key);
        let start = Instant::now();
        std::hint::black_box(compiled.reoptimized(OptLevel::Default));
        self.reopt_default.push(start.elapsed().as_secs_f64() * 1e6);
        rec.close(span, 1, 0);
        let span = rec.open("kernel.reoptimized_none", parent, key);
        let start = Instant::now();
        std::hint::black_box(compiled.reoptimized(OptLevel::None));
        self.reopt_none.push(start.elapsed().as_secs_f64() * 1e6);
        rec.close(span, 1, 0);
        Some(us)
    }

    /// Count bytecode instructions at `Default` and `None` (after set-up,
    /// so the extra re-derivation is not set-up time).
    pub fn count_instrs(&mut self) {
        let none = self.kernel.reoptimized(OptLevel::None);
        self.instrs =
            (self.kernel.bytecode().code().len() as u64, none.bytecode().code().len() as u64);
    }

    /// Build the feature-off kernels for paired ratios.
    pub fn prepare_alternates(&mut self) {
        let two_threads = self.shardable.then(|| self.kernel.clone().with_threads(2));
        self.alternates = Some(Alternates {
            nosimd: self.kernel.reoptimized_simd(OptLevel::Default, true, false),
            untyped: self.kernel.reoptimized_simd(OptLevel::Default, false, false),
            two_threads,
        });
    }

    /// One visit of paired samples: default vs SIMD off, typed vs untyped
    /// (both without SIMD), one vs two threads — each pair timed back to
    /// back, in an order that flips with `flip`.
    pub fn sample_ratios(
        &mut self,
        rec: &mut Recorder,
        parent: Option<Open>,
        key: usize,
        flip: bool,
    ) {
        let Some(mut alt) = self.alternates.take() else { return };
        let name = self.spec.checked.clone();
        let batch = self.batch;
        let mut pair = |a: &mut CompiledKernel, b: &mut CompiledKernel, check: &mut Check| {
            let span = rec.open("vm.run_pair", parent, key);
            let ((ta, oka), (tb, okb)) = if flip {
                let tb = sample(b, check, batch, &name);
                (sample(a, check, batch, &name), tb)
            } else {
                let ta = sample(a, check, batch, &name);
                (ta, sample(b, check, batch, &name))
            };
            rec.close(span, 2 * batch, 0);
            (ta, tb, oka && okb)
        };
        let mut fails = 0;
        let (on, off, ok) = pair(&mut self.kernel, &mut alt.nosimd, &mut self.check);
        fails += !ok as u64;
        self.ratios[0].push(off / on);
        let (typed, untyped, ok) = pair(&mut alt.nosimd, &mut alt.untyped, &mut self.check);
        fails += !ok as u64;
        self.ratios[1].push(untyped / typed);
        let mut visits = 2;
        if let Some(two) = alt.two_threads.as_mut() {
            let (one, two, ok) = pair(&mut self.kernel, two, &mut self.check);
            fails += !ok as u64;
            self.ratios[2].push(one / two);
            visits += 1;
        }
        self.attempted += (visits * 2 * batch) as u64;
        self.failed += fails * 2 * batch as u64;
        self.alternates = Some(alt);
    }

    /// Fastest run sample of the untraced rounds, raw µs.
    pub fn fastest_run(&self) -> f64 {
        stats::fastest(&self.runs[0])
    }

    /// Fastest run sample of the traced rounds, raw µs.
    pub fn fastest_traced_run(&self) -> f64 {
        stats::fastest(&self.runs[1])
    }

    /// Calibrated fastest run of the untraced rounds, µs: the gated run
    /// time.
    pub fn run_us(&self, s: &Sentinel) -> f64 {
        self.fastest_run() * s.scale_for(self.runs[0].len())
    }

    /// Calibrated fastest run of the traced rounds, µs.
    pub fn traced_run_us(&self, s: &Sentinel) -> f64 {
        self.fastest_traced_run() * s.scale_for(self.runs[1].len())
    }

    /// Calibrated fastest compile, µs: the gated compile time.
    pub fn compile_us(&self, s: &Sentinel) -> f64 {
        self.fastest_compile() * s.scale_for(self.compiles.len())
    }

    /// Calibrated fastest `reoptimized(None)` (`none`) or
    /// `reoptimized(Default)`, µs.
    pub fn reopt_us(&self, s: &Sentinel, none: bool) -> f64 {
        let v = if none { &self.reopt_none } else { &self.reopt_default };
        stats::fastest(v) * s.scale_for(v.len())
    }

    /// Fastest compile, raw µs.
    pub fn fastest_compile(&self) -> f64 {
        stats::fastest(&self.compiles)
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
