//! Machine-readable benchmark report: the `figures` binary serialises every
//! measurement into `BENCH_figures.json` so the perf trajectory is
//! trackable across commits.
//!
//! The JSON is hand-rolled (the build environment has no serde); the schema
//! is documented in `EXPERIMENTS.md` and kept deliberately flat:
//!
//! ```json
//! {
//!   "schema_version": 6,
//!   "opt_speedup": { "engine": "bytecode", "baseline": "none",
//!                    "optimized": "default", "median": 1.62, "samples": 35 },
//!   "typed_speedup": { "engine": "bytecode", "opt_level": "default",
//!                      "median": 1.4, "samples": 35 },
//!   "simd_speedup": { "engine": "bytecode", "opt_level": "default",
//!                     "median": 1.5, "samples": 35 },
//!   "parallel_speedup": { "engine": "bytecode", "opt_level": "default",
//!                         "threads": 4, "median": 2.3, "samples": 12 },
//!   "figures": [
//!     { "figure": "fig01", "group": "band width 50",
//!       "variants": [
//!         { "label": "looplets: list x band",
//!           "opt": { "compile_seconds": 0.0004, "folds": 12, "...": 0 },
//!           "validation": { "level": "full", "verify_seconds": 0.0001,
//!                           "validate_seconds": 0.002, "passes": [
//!             { "pass": "fold", "transform_seconds": 0.0001,
//!               "verify_seconds": 0.00002, "validate_seconds": 0.0004 } ] },
//!           "typed_instr_fraction": 0.93,
//!           "simd_speedup": 1.42,
//!           "vectorized_fraction": 0.86,
//!           "sharded": true,
//!           "parallel_speedup": 2.3,
//!           "engines": [
//!             { "engine": "bytecode", "opt_level": "default", "typed": true,
//!               "simd": true, "threads": 1, "median_seconds": 0.0012,
//!               "instrs": 74, "stmts": 10, "loop_iters": 4, "loads": 8,
//!               "stores": 4, "searches": 0, "total_work": 22 } ] } ] } ] }
//! ```

use std::io::Write as _;

use finch::{Engine, ExecStats, OptLevel, OptStats, PassReport};

/// One engine's measurement of one variant at one opt level and dispatch
/// mode.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The engine measured.
    pub engine: Engine,
    /// The opt level the kernel was compiled at.
    pub opt_level: OptLevel,
    /// Whether the typed-dispatch (register-type inference) stage ran.
    pub typed: bool,
    /// Whether the vectorize (SIMD kernel-op) stage ran.
    pub simd: bool,
    /// Worker-thread count the run used (1 = serial; only shardable
    /// kernels on the bytecode engine actually split work).
    pub threads: usize,
    /// Median wall-clock seconds across the configured repetitions.
    pub median_seconds: f64,
    /// Bytecode instruction count of the kernel at this opt level.
    pub instrs: usize,
    /// Machine-independent work counters of one run.
    pub stats: ExecStats,
}

/// The optimisation record of one variant: how long the optimiser took to
/// re-derive the kernel at `OptLevel::Default`, and the per-pass counters
/// of that compilation.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Wall-clock seconds of one `reoptimized(OptLevel::Default)` call
    /// (IR pipeline + bytecode compile + peephole).
    pub compile_seconds: f64,
    /// Per-pass optimisation counters at `OptLevel::Default`.
    pub stats: OptStats,
}

/// The validation record of one variant: the level the kernel was
/// re-compiled at and the per-pass wall-clock split between the
/// transform, the static verifier, and witness-based translation
/// validation.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The [`finch::ValidationLevel`] label (`off`, `static`, `full`).
    pub level: String,
    /// Per-pass accounting, in pipeline execution order.
    pub passes: Vec<PassReport>,
}

impl ValidationReport {
    /// Total seconds spent in the static verifier across all passes.
    pub fn verify_seconds(&self) -> f64 {
        self.passes.iter().map(|p| p.verify_nanos as f64 * 1e-9).sum()
    }

    /// Total seconds spent executing and comparing witnesses.
    pub fn validate_seconds(&self) -> f64 {
        self.passes.iter().map(|p| p.validate_nanos as f64 * 1e-9).sum()
    }
}

/// One strategy/format variant of a figure, measured on every requested
/// (engine, opt level, dispatch mode) combination.
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// Human-readable strategy/format label.
    pub label: String,
    /// The variant's optimisation record (when the default level was run).
    pub opt: Option<OptReport>,
    /// The variant's validation record (when `--validate` was requested).
    pub validation: Option<ValidationReport>,
    /// Fraction of *executed* bytecode instructions that were tag-free
    /// (typed or tag-neutral) in one profiled run of the typed kernel at
    /// `OptLevel::Default` — the issue's `typed_instr_fraction`.
    pub typed_instr_fraction: Option<f64>,
    /// This variant's wall-clock speedup of the SIMD kernel-op tier:
    /// `simd_off_seconds / simd_on_seconds` on the bytecode engine at
    /// `OptLevel::Default` with typed dispatch on.
    pub simd_speedup: Option<f64>,
    /// Fraction of innermost typed counted-loop body instructions the
    /// vectorize pass replaced with kernel ops
    /// (`instrs_vectorized / instrs_vectorizable`; `None` when the
    /// kernel has no such loops).
    pub vectorized_fraction: Option<f64>,
    /// Whether the shard analysis proved a loop of this kernel splittable
    /// across worker threads (thread counts above 1 are a no-op when
    /// `false`).
    pub sharded: bool,
    /// This variant's wall-clock speedup of the parallel tier:
    /// `serial_seconds / parallel_seconds` on the bytecode engine at
    /// `OptLevel::Default` (typed + simd) at the scaling leg's top thread
    /// count.  `None` when no parallel leg was measured.
    pub parallel_speedup: Option<f64>,
    /// Per-opcode execution counts of the same profiled run (emitted in
    /// debug builds to quantify the remaining dynamic dispatch).
    pub opcode_counts: Option<Vec<(String, u64)>>,
    /// Per-(engine, opt level, dispatch mode) measurements.
    pub engines: Vec<EngineReport>,
}

/// One table of one figure (a figure may sweep a parameter and emit
/// several groups).
#[derive(Debug, Clone)]
pub struct FigureGroup {
    /// Figure identifier (`fig01`, `fig07a`, ...).
    pub figure: String,
    /// The parameter point or dataset of this table.
    pub group: String,
    /// The measured variants.
    pub variants: Vec<VariantReport>,
}

/// The headline optimiser result: the median wall-clock speedup of the
/// bytecode engine at `OptLevel::Default` over `OptLevel::None` across
/// every measured variant.
#[derive(Debug, Clone)]
pub struct OptSpeedup {
    /// The engine both levels were measured on.
    pub engine: Engine,
    /// The baseline opt level.
    pub baseline: OptLevel,
    /// The optimised level the speedup is for.
    pub optimized: OptLevel,
    /// Median of per-variant `baseline_seconds / optimized_seconds`.
    pub median: f64,
    /// Number of variants contributing ratios.
    pub samples: usize,
}

/// The headline typed-dispatch result: the median wall-clock speedup of
/// the bytecode engine at `OptLevel::Default` with the typing stage on
/// over the same kernels with it off.
#[derive(Debug, Clone)]
pub struct TypedSpeedup {
    /// Median of per-variant `generic_seconds / typed_seconds`.
    pub median: f64,
    /// Number of variants contributing ratios.
    pub samples: usize,
}

/// The headline vectorization result: the median wall-clock speedup of
/// the bytecode engine at `OptLevel::Default` with the SIMD kernel-op
/// tier on over the same typed kernels with it off.
#[derive(Debug, Clone)]
pub struct SimdSpeedup {
    /// Median of per-variant `simd_off_seconds / simd_on_seconds`.
    pub median: f64,
    /// Number of variants contributing ratios.
    pub samples: usize,
}

/// The headline parallel-tier result: the median wall-clock speedup of
/// the bytecode engine at `OptLevel::Default` (typed + simd) running
/// sharded at `threads` workers over the same kernels serial, across the
/// variants the shard analysis proved splittable.
#[derive(Debug, Clone)]
pub struct ParallelSpeedup {
    /// The worker-thread count the headline ratio is measured at.
    pub threads: usize,
    /// Median of per-variant `serial_seconds / parallel_seconds`.
    pub median: f64,
    /// Number of (shardable) variants contributing ratios.
    pub samples: usize,
}

/// The full report accumulated by one `figures` invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The headline optimiser speedup, when both levels were measured.
    pub opt_speedup: Option<OptSpeedup>,
    /// The headline typed-dispatch speedup, when both dispatch modes were
    /// measured.
    pub typed_speedup: Option<TypedSpeedup>,
    /// The headline SIMD kernel-op speedup, when both simd modes were
    /// measured.
    pub simd_speedup: Option<SimdSpeedup>,
    /// The headline parallel sharded-execution speedup, when a scaling
    /// leg was measured.
    pub parallel_speedup: Option<ParallelSpeedup>,
    /// Every figure table measured, in print order.
    pub figures: Vec<FigureGroup>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Serialise the report as a JSON document (schema v6 — see
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\n  \"schema_version\": 6,");
        if let Some(s) = &self.opt_speedup {
            out.push_str(&format!(
                "\n  \"opt_speedup\": {{\"engine\": {}, \"baseline\": {}, \
                 \"optimized\": {}, \"median\": {}, \"samples\": {}}},",
                json_string(s.engine.label()),
                json_string(s.baseline.label()),
                json_string(s.optimized.label()),
                json_number(s.median),
                s.samples,
            ));
        }
        if let Some(s) = &self.typed_speedup {
            out.push_str(&format!(
                "\n  \"typed_speedup\": {{\"engine\": \"bytecode\", \"opt_level\": \"default\", \
                 \"median\": {}, \"samples\": {}}},",
                json_number(s.median),
                s.samples,
            ));
        }
        if let Some(s) = &self.simd_speedup {
            out.push_str(&format!(
                "\n  \"simd_speedup\": {{\"engine\": \"bytecode\", \"opt_level\": \"default\", \
                 \"median\": {}, \"samples\": {}}},",
                json_number(s.median),
                s.samples,
            ));
        }
        if let Some(s) = &self.parallel_speedup {
            out.push_str(&format!(
                "\n  \"parallel_speedup\": {{\"engine\": \"bytecode\", \"opt_level\": \"default\", \
                 \"threads\": {}, \"median\": {}, \"samples\": {}}},",
                s.threads,
                json_number(s.median),
                s.samples,
            ));
        }
        out.push_str("\n  \"figures\": [");
        for (i, fig) in self.figures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"figure\": {}, ", json_string(&fig.figure)));
            out.push_str(&format!("\"group\": {},", json_string(&fig.group)));
            out.push_str("\n     \"variants\": [");
            for (j, v) in fig.variants.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      {");
                out.push_str(&format!("\"label\": {},", json_string(&v.label)));
                if let Some(opt) = &v.opt {
                    let s = opt.stats;
                    out.push_str(&format!(
                        "\n       \"opt\": {{\"compile_seconds\": {}, \"folds\": {}, \
                         \"copies_propagated\": {}, \"branches_pruned\": {}, \
                         \"loops_removed\": {}, \"stmts_removed\": {}, \
                         \"loads_hoisted\": {}, \"instrs_fused\": {}, \
                         \"movs_eliminated\": {}, \"regs_saved\": {}, \
                         \"instrs_typed\": {}, \"regs_pretagged\": {}, \
                         \"instrs_vectorized\": {}, \"instrs_vectorizable\": {}, \
                         \"ir_stmts_before\": {}, \"ir_stmts_after\": {}}},",
                        json_number(opt.compile_seconds),
                        s.folds,
                        s.copies_propagated,
                        s.branches_pruned,
                        s.loops_removed,
                        s.stmts_removed,
                        s.loads_hoisted,
                        s.instrs_fused,
                        s.movs_eliminated,
                        s.regs_saved,
                        s.instrs_typed,
                        s.regs_pretagged,
                        s.instrs_vectorized,
                        s.instrs_vectorizable,
                        s.ir_stmts_before,
                        s.ir_stmts_after,
                    ));
                }
                if let Some(val) = &v.validation {
                    out.push_str(&format!(
                        "\n       \"validation\": {{\"level\": {}, \
                         \"verify_seconds\": {}, \"validate_seconds\": {}, \"passes\": [",
                        json_string(&val.level),
                        json_number(val.verify_seconds()),
                        json_number(val.validate_seconds()),
                    ));
                    for (k, p) in val.passes.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!(
                            "{{\"pass\": {}, \"transform_seconds\": {}, \
                             \"verify_seconds\": {}, \"validate_seconds\": {}}}",
                            json_string(p.name),
                            json_number(p.transform_nanos as f64 * 1e-9),
                            json_number(p.verify_nanos as f64 * 1e-9),
                            json_number(p.validate_nanos as f64 * 1e-9),
                        ));
                    }
                    out.push_str("]},");
                }
                if let Some(f) = v.typed_instr_fraction {
                    out.push_str(&format!(
                        "\n       \"typed_instr_fraction\": {},",
                        json_number(f)
                    ));
                }
                if let Some(f) = v.simd_speedup {
                    out.push_str(&format!("\n       \"simd_speedup\": {},", json_number(f)));
                }
                if let Some(f) = v.vectorized_fraction {
                    out.push_str(&format!("\n       \"vectorized_fraction\": {},", json_number(f)));
                }
                out.push_str(&format!("\n       \"sharded\": {},", v.sharded));
                if let Some(f) = v.parallel_speedup {
                    out.push_str(&format!("\n       \"parallel_speedup\": {},", json_number(f)));
                }
                if let Some(counts) = &v.opcode_counts {
                    out.push_str("\n       \"opcode_counts\": {");
                    for (k, (name, count)) in counts.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("{}: {}", json_string(name), count));
                    }
                    out.push_str("},");
                }
                out.push_str("\n       \"engines\": [");
                for (k, e) in v.engines.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n        {{\"engine\": {}, \"opt_level\": {}, \"typed\": {}, \
                         \"simd\": {}, \"threads\": {}, \"median_seconds\": {}, \"instrs\": {}, \
                         \"stmts\": {}, \"loop_iters\": {}, \"loads\": {}, \
                         \"stores\": {}, \"searches\": {}, \"total_work\": {}}}",
                        json_string(e.engine.label()),
                        json_string(e.opt_level.label()),
                        e.typed,
                        e.simd,
                        e.threads,
                        json_number(e.median_seconds),
                        e.instrs,
                        e.stats.stmts,
                        e.stats.loop_iters,
                        e.stats.loads,
                        e.stats.stores,
                        e.stats.searches,
                        e.stats.total_work(),
                    ));
                }
                out.push_str("\n       ]}");
            }
            out.push_str("\n     ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// The machine-readable result of one `serve` bench run
/// (`BENCH_serve.json`): throughput, latency quantiles, cache behaviour, and
/// the resilience counters of the kernel service.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Requests submitted by the driver.
    pub requests: u64,
    /// Concurrent client threads.
    pub clients: u64,
    /// Distinct kernel structures in the trace.
    pub kernels: u64,
    /// Data instances per kernel.
    pub instances: u64,
    /// Service cache capacity.
    pub cache_capacity: u64,
    /// Per-request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Injected-fault rate in permille (0 = fault-free).
    pub faults_permille: u64,
    /// Whether the run was the chaos soak (overload + faults + mid-run
    /// drain/restart) rather than the plain serve bench.
    pub soak: bool,
    /// Trace seed.
    pub seed: u64,
    /// Zipf skew of the trace.
    pub zipf_skew: f64,
    /// Wall-clock duration of the request phase, seconds.
    pub elapsed_seconds: f64,
    /// Completed requests per second (successes and typed errors).
    pub qps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Mean request latency, microseconds.
    pub mean_us: f64,
    /// Median admission-queue wait of successful requests, microseconds.
    pub queue_wait_p50_us: f64,
    /// 99th-percentile admission-queue wait, microseconds.
    pub queue_wait_p99_us: f64,
    /// Deepest admission-queue depth sampled during the run.
    pub max_queue_depth: u64,
    /// Cache hits / (hits + misses).
    pub hit_rate: f64,
    /// Successful responses.
    pub ok: u64,
    /// Responses served below the fast tier.
    pub degraded: u64,
    /// Requests that ended in a typed error (deadline, budget, shed, ...).
    pub typed_errors: u64,
    /// Responses verified bit-identical against the tree-walk reference.
    pub verified: u64,
    /// Verified responses that diverged from the reference (must be 0).
    pub divergences: u64,
    /// Number of mid-run drain/restart cycles performed (soak mode).
    pub drained: u64,
    /// Wall-clock milliseconds the slowest drain took to settle.
    pub drain_latency_ms: f64,
    /// Whether any drain overran its deadline and cancelled in-flight work.
    pub drain_cancelled: bool,
    /// The service's own counters at the end of the run.
    pub stats: finch::ServiceStats,
}

impl ServeReport {
    /// Render the report as a JSON document.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\n  \"schema_version\": 2,\n  \"bench\": \"serve\",\n  \
             \"requests\": {},\n  \"clients\": {},\n  \"kernels\": {},\n  \
             \"instances\": {},\n  \"cache_capacity\": {},\n  \"deadline_ms\": {},\n  \
             \"faults_permille\": {},\n  \"soak\": {},\n  \"seed\": {},\n  \"zipf_skew\": {},\n  \
             \"elapsed_seconds\": {},\n  \"qps\": {},\n  \"p50_us\": {},\n  \
             \"p99_us\": {},\n  \"mean_us\": {},\n  \"queue_wait_p50_us\": {},\n  \
             \"queue_wait_p99_us\": {},\n  \"max_queue_depth\": {},\n  \"hit_rate\": {},\n  \
             \"ok\": {},\n  \"degraded\": {},\n  \"typed_errors\": {},\n  \
             \"verified\": {},\n  \"divergences\": {},\n  \"drained\": {},\n  \
             \"drain_latency_ms\": {},\n  \"drain_cancelled\": {},\n  \"service\": {{\n    \
             \"hits\": {},\n    \"misses\": {},\n    \"compiles\": {},\n    \
             \"recompiles\": {},\n    \"quarantined\": {},\n    \"evictions\": {},\n    \
             \"shed\": {},\n    \"queued\": {},\n    \"queue_timeouts\": {},\n    \
             \"breaker_opens\": {},\n    \"breaker_short_circuits\": {},\n    \
             \"batch_groups\": {},\n    \"panics\": {},\n    \"deadline_errors\": {},\n    \
             \"budget_errors\": {},\n    \"alloc_errors\": {},\n    \
             \"served_by_tier\": {:?},\n    \"faults_by_tier\": {:?}\n  }}\n}}\n",
            self.requests,
            self.clients,
            self.kernels,
            self.instances,
            self.cache_capacity,
            self.deadline_ms,
            self.faults_permille,
            self.soak,
            self.seed,
            json_number(self.zipf_skew),
            json_number(self.elapsed_seconds),
            json_number(self.qps),
            json_number(self.p50_us),
            json_number(self.p99_us),
            json_number(self.mean_us),
            json_number(self.queue_wait_p50_us),
            json_number(self.queue_wait_p99_us),
            self.max_queue_depth,
            json_number(self.hit_rate),
            self.ok,
            self.degraded,
            self.typed_errors,
            self.verified,
            self.divergences,
            self.drained,
            json_number(self.drain_latency_ms),
            self.drain_cancelled,
            s.hits,
            s.misses,
            s.compiles,
            s.recompiles,
            s.quarantined,
            s.evictions,
            s.shed,
            s.queued,
            s.queue_timeouts,
            s.breaker_opens,
            s.breaker_short_circuits,
            s.batch_groups,
            s.panics,
            s.deadline_errors,
            s.budget_errors,
            s.alloc_errors,
            s.served_by_tier,
            s.faults_by_tier,
        )
    }

    /// Write the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Escape a string for JSON (the labels are plain ASCII, but quotes and
/// backslashes must not corrupt the document).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float as a JSON number (Rust's `Display` for finite `f64` is
/// valid JSON; non-finite values have no JSON encoding and become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            opt_speedup: Some(OptSpeedup {
                engine: Engine::Bytecode,
                baseline: OptLevel::None,
                optimized: OptLevel::Default,
                median: 1.75,
                samples: 4,
            }),
            typed_speedup: Some(TypedSpeedup { median: 1.4, samples: 4 }),
            simd_speedup: Some(SimdSpeedup { median: 1.5, samples: 4 }),
            parallel_speedup: Some(ParallelSpeedup { threads: 4, median: 2.25, samples: 3 }),
            figures: vec![FigureGroup {
                figure: "fig01".into(),
                group: "band width \"8\"".into(),
                variants: vec![VariantReport {
                    label: "looplets: list x band".into(),
                    opt: Some(OptReport {
                        compile_seconds: 0.0004,
                        stats: OptStats {
                            folds: 3,
                            loads_hoisted: 2,
                            instrs_typed: 17,
                            regs_pretagged: 5,
                            instrs_vectorized: 12,
                            instrs_vectorizable: 14,
                            ..OptStats::default()
                        },
                    }),
                    validation: Some(ValidationReport {
                        level: "full".into(),
                        passes: vec![
                            PassReport {
                                name: "fold",
                                transform_nanos: 1_000,
                                verify_nanos: 2_000,
                                validate_nanos: 500_000,
                            },
                            PassReport {
                                name: "lower",
                                transform_nanos: 3_000,
                                verify_nanos: 4_000,
                                validate_nanos: 1_500_000,
                            },
                        ],
                    }),
                    typed_instr_fraction: Some(0.9375),
                    simd_speedup: Some(1.4375),
                    vectorized_fraction: Some(0.875),
                    sharded: true,
                    parallel_speedup: Some(2.125),
                    opcode_counts: Some(vec![("load_f64".into(), 100), ("store".into(), 4)]),
                    engines: vec![
                        EngineReport {
                            engine: Engine::TreeWalk,
                            opt_level: OptLevel::Default,
                            typed: true,
                            simd: true,
                            threads: 1,
                            median_seconds: 0.25,
                            instrs: 90,
                            stats: ExecStats {
                                stmts: 10,
                                loop_iters: 4,
                                loads: 8,
                                stores: 4,
                                searches: 1,
                            },
                        },
                        EngineReport {
                            engine: Engine::Bytecode,
                            opt_level: OptLevel::None,
                            typed: false,
                            simd: false,
                            threads: 1,
                            median_seconds: 0.125,
                            instrs: 120,
                            stats: ExecStats {
                                stmts: 12,
                                loop_iters: 4,
                                loads: 9,
                                stores: 4,
                                searches: 1,
                            },
                        },
                    ],
                }],
            }],
        }
    }

    #[test]
    fn json_has_engines_opt_levels_and_escaped_strings() {
        let j = sample().to_json();
        assert!(j.contains("\"schema_version\": 6"));
        assert!(j.contains("\"tree_walk\""));
        assert!(j.contains("\"bytecode\""));
        assert!(j.contains("\"opt_level\": \"default\""));
        assert!(j.contains("\"opt_level\": \"none\""));
        assert!(j.contains("\"typed\": true"));
        assert!(j.contains("\"typed\": false"));
        assert!(j.contains("\"simd\": true"));
        assert!(j.contains("\"simd\": false"));
        assert!(j.contains("\"median_seconds\": 0.125"));
        assert!(j.contains("band width \\\"8\\\""), "{j}");
        assert!(j.contains("\"total_work\": 23"));
        assert!(j.contains("\"opt_speedup\""));
        assert!(j.contains("\"typed_speedup\""));
        assert!(j.contains("\"median\": 1.75"));
        assert!(j.contains("\"median\": 1.4"));
        assert!(j.contains("\"simd_speedup\": {\"engine\": \"bytecode\""));
        assert!(j.contains("\"median\": 1.5"));
        assert!(j.contains("\"parallel_speedup\": {\"engine\": \"bytecode\""));
        assert!(j.contains("\"threads\": 4, \"median\": 2.25, \"samples\": 3"));
        assert!(j.contains("\"sharded\": true"));
        assert!(j.contains("\"parallel_speedup\": 2.125"));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"loads_hoisted\": 2"));
        assert!(j.contains("\"instrs_typed\": 17"));
        assert!(j.contains("\"regs_pretagged\": 5"));
        assert!(j.contains("\"instrs_vectorized\": 12"));
        assert!(j.contains("\"instrs_vectorizable\": 14"));
        assert!(j.contains("\"validation\": {\"level\": \"full\""));
        assert!(j.contains("\"verify_seconds\": 0.000006"));
        assert!(j.contains("\"validate_seconds\": 0.002"));
        assert!(j.contains("{\"pass\": \"fold\", \"transform_seconds\": 0.000001"));
        assert!(j.contains("{\"pass\": \"lower\""));
        assert!(j.contains("\"typed_instr_fraction\": 0.9375"));
        assert!(j.contains("\"simd_speedup\": 1.4375"));
        assert!(j.contains("\"vectorized_fraction\": 0.875"));
        assert!(j.contains("\"opcode_counts\": {\"load_f64\": 100, \"store\": 4}"));
        assert!(j.contains("\"instrs\": 120"));
    }

    #[test]
    fn json_is_structurally_balanced() {
        let j = sample().to_json();
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = j.matches(open).count();
            let closes = j.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close} in:\n{j}");
        }
        // No trailing commas before a closer.
        assert!(!j.contains(",]") && !j.contains(",}"));
    }

    #[test]
    fn report_without_opt_comparison_omits_the_key() {
        let mut r = sample();
        r.opt_speedup = None;
        r.typed_speedup = None;
        r.simd_speedup = None;
        r.figures[0].variants[0].opt = None;
        r.figures[0].variants[0].validation = None;
        r.figures[0].variants[0].typed_instr_fraction = None;
        r.figures[0].variants[0].simd_speedup = None;
        r.figures[0].variants[0].vectorized_fraction = None;
        r.figures[0].variants[0].opcode_counts = None;
        r.parallel_speedup = None;
        r.figures[0].variants[0].parallel_speedup = None;
        let j = r.to_json();
        assert!(!j.contains("opt_speedup"));
        assert!(!j.contains("typed_speedup"));
        assert!(!j.contains("simd_speedup"));
        assert!(!j.contains("parallel_speedup"));
        assert!(!j.contains("vectorized_fraction"));
        assert!(!j.contains("compile_seconds"));
        assert!(!j.contains("validation"));
        assert!(!j.contains("typed_instr_fraction"));
        assert!(!j.contains("opcode_counts"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(j.matches(open).count(), j.matches(close).count());
        }
    }

    #[test]
    fn serve_report_emits_schema_v2_with_front_end_counters() {
        let stats = finch::ServiceStats {
            queued: 7,
            queue_timeouts: 3,
            breaker_opens: 2,
            breaker_short_circuits: 5,
            batch_groups: 4,
            served_by_tier: [10, 2],
            faults_by_tier: [3, 1],
            ..Default::default()
        };
        let r = ServeReport {
            requests: 16,
            clients: 8,
            soak: true,
            queue_wait_p50_us: 120.5,
            queue_wait_p99_us: 950.0,
            max_queue_depth: 6,
            drained: 2,
            drain_latency_ms: 12.25,
            drain_cancelled: false,
            stats,
            ..ServeReport::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"soak\": true"));
        assert!(j.contains("\"queue_wait_p50_us\": 120.5"));
        assert!(j.contains("\"queue_wait_p99_us\": 950"));
        assert!(j.contains("\"max_queue_depth\": 6"));
        assert!(j.contains("\"drained\": 2"));
        assert!(j.contains("\"drain_latency_ms\": 12.25"));
        assert!(j.contains("\"drain_cancelled\": false"));
        assert!(j.contains("\"queued\": 7"));
        assert!(j.contains("\"queue_timeouts\": 3"));
        assert!(j.contains("\"breaker_opens\": 2"));
        assert!(j.contains("\"breaker_short_circuits\": 5"));
        assert!(j.contains("\"batch_groups\": 4"));
        assert!(j.contains("\"served_by_tier\": [10, 2]"));
        assert!(j.contains("\"faults_by_tier\": [3, 1]"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(j.matches(open).count(), j.matches(close).count());
        }
        assert!(!j.contains(",]") && !j.contains(",}"));
    }

    #[test]
    fn non_finite_numbers_are_sanitised() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(1.5), "1.5");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("x\u{1}"), "\"x\\u0001\"");
    }
}
