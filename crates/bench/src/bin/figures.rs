//! Regenerate every figure of the paper's evaluation as a text table,
//! timing each variant on both execution engines — the tree-walking
//! interpreter and the flat register bytecode VM — and on the bytecode
//! engine at `OptLevel::None`, so every run records the optimiser's
//! wall-clock win next to the engine comparison.
//!
//! ```bash
//! cargo run --release -p finch-bench --bin figures                # all figures
//! cargo run --release -p finch-bench --bin figures -- --fig 8     # one figure
//! cargo run --release -p finch-bench --bin figures -- --tiny      # CI smoke sizes
//! cargo run --release -p finch-bench --bin figures -- --json out.json
//! cargo run --release -p finch-bench --bin figures -- --validate  # per-pass validation timings
//! # Re-run one engine/opt-level/dispatch combination in isolation:
//! cargo run --release -p finch-bench --bin figures -- --fig 1 --engine bytecode --opt none
//! cargo run --release -p finch-bench --bin figures -- --engine bytecode --opt default --typed off
//! cargo run --release -p finch-bench --bin figures -- --engine bytecode --opt default --simd off
//! # Time the sharded parallel tier at one worker count only:
//! cargo run --release -p finch-bench --bin figures -- --threads 2
//! ```
//!
//! With no `--engine`/`--opt`/`--typed`/`--simd` flags, each variant is
//! measured five ways: tree-walk and bytecode at `OptLevel::Default` (the
//! engine comparison, with identical work counters asserted), bytecode at
//! `OptLevel::None` (the optimiser comparison), bytecode at
//! `OptLevel::Default` with the typed-dispatch stage off (the
//! register-type-inference comparison), and bytecode at
//! `OptLevel::Default` with the vectorize stage off (the SIMD kernel-op
//! comparison).  Passing `--engine`, `--opt`, `--typed on|off` and/or
//! `--simd on|off` restricts the measured combinations.  Every
//! measurement is appended to a machine-readable JSON report
//! (`BENCH_figures.json` by default, schema v6) including instruction
//! counts, per-pass optimiser counters, the executed
//! `typed_instr_fraction` from one untimed profiled run per variant (plus
//! a per-opcode execution histogram in debug builds), the per-variant
//! `simd_speedup` and `vectorized_fraction` of the kernel-op tier, and
//! the optimiser compile time per variant — which is also guarded by a
//! hard assert so new passes cannot silently blow up compilation
//! latency.
//!
//! The parallel scaling leg: with no restricting flags, every variant the
//! shard analysis proved splittable is additionally timed on the bytecode
//! engine at `OptLevel::Default` (typed + simd) at 2, 4 and 8 worker
//! threads — together with the serial leg, the 1/2/4/8 scaling curve.
//! Before any parallel wall-clock number is recorded, the sharded run's
//! outputs (dense materialisation *and* assembled sparse `pos`/`idx`/
//! `val`) and summed work counters are asserted bit-identical to the
//! serial kernel.  Engine rows carry a `threads` key, variants carry
//! `sharded` and a `parallel_speedup` (serial over the 4-thread leg), and
//! the report gains a headline `parallel_speedup` median.  `--threads N`
//! replaces the 2/4/8 curve with the single worker count `N` (`--threads
//! 1` disables the leg).  With
//! `--validate`, each variant is additionally re-compiled under
//! `ValidationLevel::Full` (post-pass verification plus witness-based
//! translation validation), the per-pass transform/verify/validate
//! wall-clock split is emitted under a `validation` key, and the
//! compile-plus-validate time is held to the same latency budget.  See
//! EXPERIMENTS.md for the schema.
//!
//! Figure S (sparse output assembly) additionally smoke-checks assembly
//! correctness before timing: the sparse-list output's stored-entry count
//! must equal the dense oracle's nnz, its materialisation must equal the
//! dense-output run, and its store counter must be strictly below the
//! dense variant's — so CI (`--tiny`) checks correctness, not just timing.

use std::time::Instant;

use finch::{Engine, OptLevel, ValidationLevel};
use finch_bench::report::{
    EngineReport, FigureGroup, OptReport, OptSpeedup, ParallelSpeedup, Report, SimdSpeedup,
    TypedSpeedup, ValidationReport, VariantReport,
};
use finch_bench::*;

/// Re-deriving a kernel at `OptLevel::Default` (IR pipeline + bytecode
/// compile + peephole) must stay far below human-noticeable latency; the
/// bound is generous so CI machines never flake, while still catching an
/// accidentally quadratic pass.
const COMPILE_BUDGET_SECONDS: f64 = 2.0;

fn wants(figure: &str) -> bool {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--fig") {
        Some(k) => args.get(k + 1).map(|f| figure.starts_with(f.as_str())).unwrap_or(true),
        None => true,
    }
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_after(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|k| args.get(k + 1).cloned())
}

fn runs() -> usize {
    arg_after("--runs").and_then(|v| v.parse().ok()).unwrap_or(7)
}

/// Worker counts for the parallel scaling leg: `--threads N` pins the leg
/// to that single count (1 = leg disabled); with no flag the default full
/// run measures the 2/4/8 curve, while restricted runs (`--engine`,
/// `--opt`, `--typed`, `--simd`) skip the leg.
fn scaling_threads() -> Vec<usize> {
    match arg_after("--threads").map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("bad --threads `{v}` (expected a positive integer)");
            std::process::exit(2);
        })
    }) {
        Some(n) if n > 1 => vec![n],
        Some(_) => vec![],
        None => {
            let restricted = ["--engine", "--opt", "--typed", "--simd"]
                .iter()
                .any(|f| std::env::args().any(|a| a == *f));
            if restricted {
                vec![]
            } else {
                vec![2, 4, 8]
            }
        }
    }
}

/// A run's observable outcome, rendered comparison-ready: the work
/// counters plus, per output, the dense materialisation as exact f64 bit
/// patterns and (where the output finalises) the assembled tensor —
/// including sparse `pos`/`idx`/`val` — via its `Debug` form, which
/// round-trips f64 exactly.
fn outcome_fingerprint(kernel: &mut finch::CompiledKernel) -> (finch::ExecStats, Vec<String>) {
    let stats = kernel.run().expect("kernel runs");
    let mut outputs = Vec::new();
    for name in kernel.output_names() {
        let bits: Vec<u64> =
            kernel.output(&name).expect("output reads").iter().map(|x| x.to_bits()).collect();
        let tensor = kernel.output_tensor(&name).ok().map(|t| format!("{t:?}"));
        outputs.push(format!("{name}: bits {bits:?}, tensor {tensor:?}"));
    }
    (stats, outputs)
}

/// The (engine, opt level, typed dispatch, simd) combinations to measure,
/// from `--engine`, `--opt`, `--typed` and `--simd`:
///
/// * no flags: tree-walk and bytecode at `Default`, bytecode at `None`
///   (the optimiser comparison), bytecode at `Default` with typed
///   dispatch off (the typed-dispatch comparison), and bytecode at
///   `Default` with the vectorize stage off (the SIMD comparison),
/// * `--typed on|off` / `--simd on|off`: restrict every measured
///   combination to that mode (dropping the automatic comparison leg),
/// * only `--engine E`: `E` at `Default` and `None`,
/// * only `--opt O`: both engines at `O`,
/// * `--engine` and `--opt`: exactly `(E, O)`.
fn combos() -> Vec<(Engine, OptLevel, bool, bool)> {
    let engine = arg_after("--engine").map(|v| match v.as_str() {
        "bytecode" => Engine::Bytecode,
        "tree_walk" | "tree-walk" | "treewalk" => Engine::TreeWalk,
        other => {
            eprintln!("unknown --engine `{other}` (expected bytecode|tree_walk)");
            std::process::exit(2);
        }
    });
    let opt = arg_after("--opt").map(|v| {
        OptLevel::parse(&v).unwrap_or_else(|| {
            eprintln!("unknown --opt `{v}` (expected none|default)");
            std::process::exit(2);
        })
    });
    let typed = arg_after("--typed").map(|v| match v.as_str() {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        other => {
            eprintln!("unknown --typed `{other}` (expected on|off)");
            std::process::exit(2);
        }
    });
    let simd = arg_after("--simd").map(|v| match v.as_str() {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        other => {
            eprintln!("unknown --simd `{other}` (expected on|off)");
            std::process::exit(2);
        }
    });
    let t = typed.unwrap_or(true);
    let s = simd.unwrap_or(true);
    match (engine, opt) {
        (None, None) => {
            let mut v = vec![
                (Engine::TreeWalk, OptLevel::Default, t, s),
                (Engine::Bytecode, OptLevel::Default, t, s),
                (Engine::Bytecode, OptLevel::None, t, s),
            ];
            if typed.is_none() {
                // The typed-dispatch comparison leg: same kernels, same
                // level, inference stage off.
                v.push((Engine::Bytecode, OptLevel::Default, false, s));
            }
            if simd.is_none() {
                // The SIMD comparison leg: same kernels, same level,
                // typed dispatch on, vectorize stage off.
                v.push((Engine::Bytecode, OptLevel::Default, t, false));
            }
            v
        }
        (Some(e), None) => vec![(e, OptLevel::Default, t, s), (e, OptLevel::None, t, s)],
        (None, Some(o)) => vec![(Engine::TreeWalk, o, t, s), (Engine::Bytecode, o, t, s)],
        (Some(e), Some(o)) => vec![(e, o, t, s)],
    }
}

fn header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>9} {:>10} {:>5} {:>4} {:>3} {:>11} {:>12} {:>12}",
        "strategy", "engine", "opt", "typed", "simd", "thr", "median (ms)", "total work", "speedup"
    );
}

/// Time a group of variants on every requested (engine, opt) combination,
/// print them, and record them in the JSON report.  The printed `speedup`
/// column is the figure's headline quantity: this variant's bytecode
/// wall-clock at `Default` relative to the group's first (baseline)
/// variant.  Ratios of `None`-vs-`Default` bytecode timings are collected
/// into `opt_ratios` for the report-level median.
#[allow(clippy::too_many_arguments)] // one accumulator per headline comparison
fn table(
    figure: &str,
    group: &str,
    variants: Vec<Variant>,
    reps: usize,
    report: &mut Report,
    opt_ratios: &mut Vec<f64>,
    typed_ratios: &mut Vec<f64>,
    simd_ratios: &mut Vec<f64>,
    parallel_ratios: &mut Vec<f64>,
) {
    let combos = combos();
    let scaling = scaling_threads();
    let mut records = Vec::new();
    for v in &variants {
        // Compile-latency guard: re-deriving the kernel at the default
        // level runs the full optimiser (including the typing stage); it
        // must stay fast.
        let start = Instant::now();
        let mut rederived = v.kernel.reoptimized_simd(OptLevel::Default, true, true);
        let compile_seconds = start.elapsed().as_secs_f64();
        assert!(
            compile_seconds < COMPILE_BUDGET_SECONDS,
            "optimising `{}` took {compile_seconds:.3}s (budget {COMPILE_BUDGET_SECONDS}s)",
            v.label
        );
        let opt = OptReport { compile_seconds, stats: rederived.opt_stats() };

        // With `--validate`, re-derive the same kernel once more under
        // full translation validation and record the per-pass wall-clock
        // split.  The whole compile *including* validation must stay
        // within the same latency budget.
        let validation = if flag("--validate") {
            let start = Instant::now();
            let validated = rederived
                .revalidated(ValidationLevel::Full)
                .expect("validated re-compilation of a working kernel succeeds");
            let validate_seconds = start.elapsed().as_secs_f64();
            assert!(
                validate_seconds < COMPILE_BUDGET_SECONDS,
                "compiling `{}` with full validation took {validate_seconds:.3}s \
                 (budget {COMPILE_BUDGET_SECONDS}s)",
                v.label
            );
            Some(ValidationReport {
                level: validated.validation().label().to_string(),
                passes: validated.pass_reports().to_vec(),
            })
        } else {
            None
        };

        // One untimed profiled run of the typed kernel: the fraction of
        // executed instructions that are tag-free, and (in debug builds)
        // the per-opcode execution histogram.
        let counts = rederived.profile().expect("profiled run succeeds").1;
        let code = rederived.bytecode().code();
        let executed: u64 = counts.iter().sum();
        let typed_executed: u64 =
            counts.iter().zip(code).filter(|(_, i)| i.is_tag_free()).map(|(c, _)| *c).sum();
        let typed_instr_fraction =
            if executed > 0 { Some(typed_executed as f64 / executed as f64) } else { None };
        let opcode_counts = if cfg!(debug_assertions) {
            let mut by_op: std::collections::BTreeMap<&'static str, u64> =
                std::collections::BTreeMap::new();
            for (c, i) in counts.iter().zip(code) {
                *by_op.entry(i.opcode()).or_default() += c;
            }
            let mut hist: Vec<(String, u64)> =
                by_op.into_iter().map(|(k, c)| (k.to_string(), c)).collect();
            hist.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            Some(hist)
        } else {
            None
        };

        // How much of the innermost typed counted-loop bodies the
        // vectorize stage fused into kernel ops (None when the kernel has
        // no such loops to examine).
        let (vectorized, vectorizable) = rederived.instrs_vectorized();
        let vectorized_fraction =
            if vectorizable > 0 { Some(vectorized as f64 / vectorizable as f64) } else { None };

        let mut engines = Vec::new();
        for &(engine, level, typed, simd) in &combos {
            let mut kernel = if level == v.kernel.opt_level()
                && typed == v.kernel.typed_dispatch()
                && simd == v.kernel.simd()
            {
                v.kernel.clone()
            } else {
                v.kernel.reoptimized_simd(level, typed, simd)
            };
            let (secs, stats) = time_kernel_with(&mut kernel, reps, engine);
            engines.push(EngineReport {
                engine,
                opt_level: level,
                // Record the *effective* dispatch mode: the typing stage
                // is gated off at OptLevel::None regardless of the flag,
                // and the vectorize stage additionally requires typed
                // bytecode.
                typed: typed && level != OptLevel::None,
                simd: simd && typed && level != OptLevel::None,
                threads: 1,
                median_seconds: secs,
                instrs: kernel.bytecode().code().len(),
                stats,
            });
        }

        // The parallel scaling leg: the same kernel on the bytecode
        // engine at `Default` (typed + simd), re-run at each requested
        // worker count.  Kernels the shard analysis left serial skip the
        // leg — thread counts above 1 are a no-op there.
        let sharded = rederived.sharded();
        if sharded && !scaling.is_empty() {
            // Parity gate before any timing: the sharded run must be
            // bit-identical to serial — dense output bits, assembled
            // sparse levels, and summed work counters.
            let serial = outcome_fingerprint(&mut rederived.clone());
            for &t in &scaling {
                let mut kernel = rederived.clone().with_threads(t);
                let parallel = outcome_fingerprint(&mut kernel);
                assert_eq!(
                    serial, parallel,
                    "sharded run at {t} threads diverges from serial for `{}` in {figure} ({group})",
                    v.label
                );
                let (secs, stats) = time_kernel_with(&mut kernel, reps, Engine::Bytecode);
                engines.push(EngineReport {
                    engine: Engine::Bytecode,
                    opt_level: OptLevel::Default,
                    typed: true,
                    simd: true,
                    threads: t,
                    median_seconds: secs,
                    instrs: kernel.bytecode().code().len(),
                    stats,
                });
            }
        }
        // Cross-engine and cross-dispatch parity at each measured level:
        // neither the engine nor the typing stage may change a counter.
        for a in &engines {
            for b in &engines {
                if a.opt_level == b.opt_level {
                    assert_eq!(
                        a.stats, b.stats,
                        "work counters diverge between measurements for `{}` in {figure} ({group})",
                        v.label
                    );
                }
            }
        }
        records.push(VariantReport {
            label: v.label.clone(),
            opt: Some(opt),
            validation,
            typed_instr_fraction,
            simd_speedup: None,
            vectorized_fraction,
            sharded,
            parallel_speedup: None,
            opcode_counts,
            engines,
        });
    }

    let find = |r: &VariantReport, engine: Engine, level: OptLevel, typed: bool, simd: bool| {
        r.engines
            .iter()
            .find(|e| {
                e.engine == engine
                    && e.opt_level == level
                    && e.typed == typed
                    && e.simd == simd
                    && e.threads == 1
            })
            .map(|e| e.median_seconds)
    };
    // The effective dispatch/simd mode of the measured bytecode@Default
    // leg (false under `--typed off` / `--simd off`): the optimiser
    // comparison and the headline speedup column follow whichever mode
    // was actually measured.
    let primary =
        combos.iter().find(|&&(e, l, _, _)| e == Engine::Bytecode && l == OptLevel::Default);
    let primary_typed = primary.is_none_or(|&(_, _, t, _)| t);
    let primary_simd = primary.is_none_or(|&(_, _, t, s)| t && s);
    let baseline = records
        .first()
        .and_then(|r| find(r, Engine::Bytecode, OptLevel::Default, primary_typed, primary_simd))
        .or_else(|| records.first().map(|r| r.engines[0].median_seconds));
    for r in &mut records {
        // OptLevel::None rows always record effective typed=false,
        // simd=false.
        let none = find(r, Engine::Bytecode, OptLevel::None, false, false);
        let default = find(r, Engine::Bytecode, OptLevel::Default, primary_typed, primary_simd);
        let typed_on = find(r, Engine::Bytecode, OptLevel::Default, true, primary_simd);
        let default_untyped = find(r, Engine::Bytecode, OptLevel::Default, false, false);
        let simd_on = find(r, Engine::Bytecode, OptLevel::Default, true, true);
        let simd_off = find(r, Engine::Bytecode, OptLevel::Default, true, false);
        if let (Some(n), Some(d)) = (none, default) {
            if d > 0.0 {
                opt_ratios.push(n / d);
            }
        }
        if let (Some(g), Some(d)) = (default_untyped, typed_on) {
            if d > 0.0 {
                typed_ratios.push(g / d);
            }
        }
        if let (Some(off), Some(on)) = (simd_off, simd_on) {
            if on > 0.0 {
                r.simd_speedup = Some(off / on);
                simd_ratios.push(off / on);
            }
        }
        // The parallel ratio: serial over the 4-thread leg (or, when
        // `--threads N` pinned a different count, that leg).
        let top = r
            .engines
            .iter()
            .filter(|e| e.threads > 1)
            .min_by_key(|e| if e.threads == 4 { 0 } else { usize::MAX - e.threads })
            .map(|e| (e.threads, e.median_seconds));
        if let (Some(serial), Some((_, par))) = (simd_on.or(default), top) {
            if par > 0.0 {
                r.parallel_speedup = Some(serial / par);
                parallel_ratios.push(serial / par);
            }
        }
        for e in &r.engines {
            // The headline column: baseline-variant bytecode@Default over
            // this measurement (shown on matching rows only).
            let speedup = match baseline {
                Some(base)
                    if e.engine == Engine::Bytecode
                        && e.opt_level == OptLevel::Default
                        && e.typed == primary_typed
                        && e.simd == primary_simd
                        && e.threads == 1
                        && e.median_seconds > 0.0 =>
                {
                    format!("{:>11.2}x", base / e.median_seconds)
                }
                _ => format!("{:>12}", "-"),
            };
            println!(
                "{:<28} {:>9} {:>10} {:>5} {:>4} {:>3} {:>11.3} {:>12} {}",
                r.label,
                e.engine.label(),
                e.opt_level.label(),
                if e.typed { "on" } else { "off" },
                if e.simd { "on" } else { "off" },
                e.threads,
                e.median_seconds * 1e3,
                e.stats.total_work(),
                speedup
            );
        }
    }
    report.figures.push(FigureGroup {
        figure: figure.to_string(),
        group: group.to_string(),
        variants: records,
    });
}

fn median(ratios: &mut [f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    Some(ratios[ratios.len() / 2])
}

fn main() {
    let reps = runs();
    // `--tiny` shrinks every figure to smoke-test sizes (used by CI to
    // exercise the whole path, including the JSON emission, in seconds).
    let tiny = flag("--tiny");
    let json_path = arg_after("--json").unwrap_or_else(|| "BENCH_figures.json".to_string());
    let mut report = Report::new();
    let mut opt_ratios: Vec<f64> = Vec::new();
    let mut typed_ratios: Vec<f64> = Vec::new();
    let mut simd_ratios: Vec<f64> = Vec::new();
    let mut parallel_ratios: Vec<f64> = Vec::new();

    if wants("1") {
        println!("\n#### Figure 1 — motivating dot product: sparse list x sparse band");
        let (n, nnz, widths): (usize, usize, &[usize]) =
            if tiny { (200, 20, &[8]) } else { (20_000, 400, &[50, 400, 3_000]) };
        for (width, variants) in fig01_variants(n, nnz, widths) {
            header(&format!("band width {width}"));
            table(
                "fig01",
                &format!("band width {width}"),
                variants,
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if wants("7a") || wants("7") {
        println!("\n#### Figure 7a — SpMSpV, x with 10% nonzeros (speedup vs two-finger)");
        let n = if tiny { 32 } else { 128 };
        let seeds: &[u64] = if tiny { &[1] } else { &[1, 2, 3] };
        for &seed in seeds {
            let xv = fig07_vector(n, Some(0.10), None, 70 + seed);
            header(&format!("synthetic HB-like matrix #{seed}"));
            table(
                "fig07a",
                &format!("matrix #{seed}"),
                fig07_variants(n, &xv, seed),
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if wants("7b") || wants("7") {
        println!("\n#### Figure 7b — SpMSpV, x with 10 nonzeros (speedup vs two-finger)");
        let n = if tiny { 32 } else { 128 };
        let seeds: &[u64] = if tiny { &[1] } else { &[1, 2, 3] };
        for &seed in seeds {
            let xv = fig07_vector(n, None, Some(10), 80 + seed);
            header(&format!("synthetic HB-like matrix #{seed}"));
            table(
                "fig07b",
                &format!("matrix #{seed}"),
                fig07_variants(n, &xv, seed),
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if wants("8") {
        println!("\n#### Figure 8 — triangle counting on power-law graphs (speedup vs two-finger)");
        let graphs: &[(usize, usize, u64)] =
            if tiny { &[(24, 2, 3)] } else { &[(64, 3, 11), (96, 4, 12), (128, 3, 13)] };
        for &(n, epn, seed) in graphs {
            header(&format!("graph: {n} vertices, ~{epn} edges/vertex"));
            table(
                "fig08",
                &format!("{n} vertices, ~{epn} edges/vertex"),
                fig08_variants(n, epn, seed),
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if wants("9") {
        println!("\n#### Figure 9 — dense vs sparse convolution as density increases");
        let (size, ksize) = if tiny { (12, 3) } else { (48, 5) };
        let densities: &[f64] = if tiny { &[0.1] } else { &[0.002, 0.01, 0.05, 0.15, 0.40] };
        for (density, variants) in fig09_variants(size, ksize, densities) {
            header(&format!("grid {size}x{size}, filter {ksize}x{ksize}, density {density}"));
            table(
                "fig09",
                &format!("density {density}"),
                variants,
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if wants("10") {
        println!("\n#### Figure 10 — alpha blending (speedup vs dense)");
        let size = if tiny { 16 } else { 64 };
        header(&format!("Omniglot-like stroke images ({size}x{size})"));
        table(
            "fig10",
            "omniglot-like strokes",
            fig10_variants(size, false, 5),
            reps,
            &mut report,
            &mut opt_ratios,
            &mut typed_ratios,
            &mut simd_ratios,
            &mut parallel_ratios,
        );
        header(&format!("Humansketches-like images ({size}x{size})"));
        table(
            "fig10",
            "humansketches-like",
            fig10_variants(size, true, 6),
            reps,
            &mut report,
            &mut opt_ratios,
            &mut typed_ratios,
            &mut simd_ratios,
            &mut parallel_ratios,
        );
    }

    if wants("11") {
        println!("\n#### Figure 11 — all-pairs image similarity (speedup vs dense)");
        let (count, img) = if tiny { (3, 8) } else { (16, 20) };
        let datasets: &[&str] = if tiny { &["mnist"] } else { &["mnist", "emnist", "omniglot"] };
        for dataset in datasets {
            header(&format!("{dataset}-like images ({count} images, {img}x{img})"));
            table(
                "fig11",
                dataset,
                fig11_variants(count, img, dataset),
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if wants("S") {
        println!("\n#### Figure S — sparse output assembly (dense vs sparse-list result)");
        let (n, density) = if tiny { (512, 0.02) } else { (20_000, 0.001) };
        for g in finch_bench::figs_output_groups(n, density, 71) {
            // Smoke-check assembly correctness before timing: stored-entry
            // count equals the oracle's nnz, the materialisation equals the
            // dense run, and the sparse store counter is strictly lower.
            g.assert_assembly();
            header(&format!("{} — {} stored entries", g.group, g.oracle_nnz));
            table(
                "figS",
                &g.group,
                g.variants,
                reps,
                &mut report,
                &mut opt_ratios,
                &mut typed_ratios,
                &mut simd_ratios,
                &mut parallel_ratios,
            );
        }
    }

    if let Some(med) = median(&mut opt_ratios) {
        println!(
            "\noptimizer speedup (bytecode, OptLevel::None / OptLevel::Default): \
             median {med:.2}x over {} variants",
            opt_ratios.len()
        );
        report.opt_speedup = Some(OptSpeedup {
            engine: Engine::Bytecode,
            baseline: OptLevel::None,
            optimized: OptLevel::Default,
            median: med,
            samples: opt_ratios.len(),
        });
    }

    if let Some(med) = median(&mut typed_ratios) {
        println!(
            "typed-dispatch speedup (bytecode at OptLevel::Default, generic / typed): \
             median {med:.2}x over {} variants",
            typed_ratios.len()
        );
        report.typed_speedup = Some(TypedSpeedup { median: med, samples: typed_ratios.len() });
    }

    if let Some(med) = median(&mut simd_ratios) {
        println!(
            "simd kernel-op speedup (bytecode at OptLevel::Default, typed, simd off / on): \
             median {med:.2}x over {} variants",
            simd_ratios.len()
        );
        report.simd_speedup = Some(SimdSpeedup { median: med, samples: simd_ratios.len() });
    }

    if let Some(med) = median(&mut parallel_ratios) {
        let threads = scaling_threads()
            .iter()
            .copied()
            .find(|&t| t == 4)
            .or_else(|| scaling_threads().into_iter().max());
        if let Some(threads) = threads {
            println!(
                "parallel sharded speedup (bytecode at OptLevel::Default, typed+simd, \
                 1 thread / {threads} threads): median {med:.2}x over {} shardable variants",
                parallel_ratios.len()
            );
            report.parallel_speedup =
                Some(ParallelSpeedup { threads, median: med, samples: parallel_ratios.len() });
        }
    }

    if let Err(e) = report.write(&json_path) {
        eprintln!("warning: could not write {json_path}: {e}");
    } else {
        println!("\nwrote machine-readable report to {json_path}");
    }
}
