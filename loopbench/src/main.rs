//! `loopbench`: the phase-robust benchmark of the looplet compiler and its
//! kernel service.
//!
//! ```text
//! loopbench --workload <paper-figures|serve-zipf|serve-cold> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one diagnostic row per measured kernel, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  With `--trace 1` the recorded spans are also written to
//! `.bench_out/spans-<workload>.tsv`.  See `README.md` for every metric.

mod figures;
mod measure;
mod reference;
mod rng;
mod serve;
mod spans;
mod spec;
mod stats;

use std::time::Instant;

use finch::{KernelService, ServiceConfig};

use figures::Class;
use measure::{Check, Entry, PASSES};
use reference::Sentinel;
use spans::{Open, Recorder};

/// Seconds between repeated set-ups during a run.
const SETUP_EVERY_S: f64 = 0.5;
/// Kernels sampled between two reference samples.
const REF_EVERY: usize = 8;
/// Kernels compiled per round of the paper-figures workload.
const COMPILES_PER_ROUND: usize = 3;
/// Served requests between two reference samples.
const REF_EVERY_REQUESTS: usize = 250;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let k = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(k + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// A named metric value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    rows: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn sample_ref(sentinel: &mut Sentinel, rec: &mut Recorder, parent: Option<Open>) {
    let span = rec.open("host.ref", parent, 0);
    sentinel.sample();
    rec.close(span, 1, 0);
}

/// Repeated set-ups: raw seconds and conversion totals (µs).
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    convert_us: Vec<f64>,
    last: Option<Instant>,
}

impl Setups {
    /// Run `setup` once, timed, with reference samples around it.
    fn run<T>(
        &mut self,
        rec: &mut Recorder,
        sentinel: &mut Sentinel,
        setup: impl FnOnce(&mut Recorder, Option<Open>) -> Result<T, String>,
    ) -> Result<T, String> {
        sample_ref(sentinel, rec, None);
        let first = rec.len();
        let span = rec.open("setup", None, self.seconds.len());
        let start = Instant::now();
        let out = setup(rec, span)?;
        self.seconds.push(start.elapsed().as_secs_f64());
        rec.close(span, 1, 0);
        if rec.enabled() {
            let spans = rec.since(first);
            self.convert_us
                .push(spans.iter().filter(|s| s.name == "formats.convert").map(|s| s.us()).sum());
        }
        sample_ref(sentinel, rec, None);
        self.last = Some(Instant::now());
        Ok(out)
    }

    /// Whether the next repeated set-up is due.
    fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= SETUP_EVERY_S)
    }
}

fn class_values(entries: &[Entry], class: Class, f: impl Fn(&Entry) -> f64) -> Vec<f64> {
    entries.iter().filter(|e| e.class == class).map(f).collect()
}

/// The end-to-end metrics every workload derives from its kernels and
/// set-ups: calibrated fastest set-up, peak memory, and geomeans of the
/// calibrated fastest runs (by class) and compiles.
fn suite_e2e(
    report: &mut Report,
    entries: &[Entry],
    setups: &Setups,
    s: &Sentinel,
) -> Result<(), String> {
    let setup = stats::fastest(&setups.seconds) * s.scale_for(setups.seconds.len());
    report.put("setup_s", setup, "s");
    report.put("peak_rss_mib", measure::peak_rss_mib()?, "MiB");
    let runs = |class| stats::geomean(&class_values(entries, class, |e| e.run_us(s)));
    report.put("looplet_run_geomean_us", runs(Class::Looplet), "us");
    report.put("baseline_run_geomean_us", runs(Class::Baseline), "us");
    let compiles: Vec<f64> = entries.iter().map(|e| e.compile_us(s)).collect();
    report.put("compile_geomean_us", stats::geomean(&compiles), "us");
    Ok(())
}

/// The diagnostic row of one entry (raw µs).
fn row(e: &Entry) -> String {
    let fast = e.fastest_run();
    let (v, of) = e.vectorized;
    format!(
        "row {:<34} fastest_us {:>10.3} median_us {:>10.3} work {:>9} ns_per_work {:>7.3} \
         vectorized {:>3}/{:<3}",
        e.label,
        fast,
        stats::median(&e.runs[0]),
        e.work,
        fast * 1e3 / e.work.max(1) as f64,
        v,
        of
    )
}

fn host_row(sentinel: &Sentinel) -> String {
    format!(
        "row {:<34} fastest_us {:.3} median_us {:.3} slow_share {:.3} samples {}",
        "host reference",
        sentinel.fastest(),
        sentinel.median(),
        sentinel.slow_share(),
        sentinel.len()
    )
}

/// Per-layer metrics computed from the kernels (compile layers, VM,
/// vectorize, typing, parallel tier).  Times are calibrated fastest
/// samples.
fn suite_layers(report: &mut Report, entries: &[Entry], s: &Sentinel, looplet_speedup: f64) {
    let sum = |f: &dyn Fn(&Entry) -> f64| entries.iter().map(f).sum::<f64>();
    report.put("lower.frontend_us", sum(&|e| e.compile_us(s) - e.reopt_us(s, false)), "us");
    report.put("opt.passes_us", sum(&|e| e.reopt_us(s, false) - e.reopt_us(s, true)), "us");
    report.put("bytecode.emit_us", sum(&|e| e.reopt_us(s, true)), "us");
    for pass in PASSES {
        // Pass times are the fastest over the traced compiles.
        let us = sum(&|e| {
            e.passes.get(pass).copied().unwrap_or(0.0) * s.scale_for(e.reopt_default.len())
        });
        report.put(format!("opt.{pass}_us"), us, "us");
    }
    report.put("opt.instrs", sum(&|e| e.instrs.0 as f64), "count");
    report.put("opt.instrs_none", sum(&|e| e.instrs.1 as f64), "count");
    for (class, tag) in [(Class::Looplet, "looplet"), (Class::Baseline, "baseline")] {
        let work: u64 = entries.iter().filter(|e| e.class == class).map(|e| e.work).sum();
        let npw = class_values(entries, class, |e| e.run_us(s) * 1e3 / e.work.max(1) as f64);
        report.put(format!("vm.{tag}_work"), work as f64, "count");
        report.put(format!("vm.{tag}_ns_per_work"), stats::geomean(&npw), "ns");
    }
    report.put("vm.looplet_speedup", looplet_speedup, "x");
    report.put("vectorize.instrs_vectorized", sum(&|e| e.vectorized.0 as f64), "count");
    report.put("vectorize.instrs_vectorizable", sum(&|e| e.vectorized.1 as f64), "count");
    let ratio = |k: usize| {
        let per: Vec<f64> = entries
            .iter()
            .filter(|e| !e.ratios[k].is_empty())
            .map(|e| stats::median(&e.ratios[k]))
            .collect();
        if per.is_empty() {
            0.0
        } else {
            stats::geomean(&per)
        }
    };
    report.put("vectorize.speedup", ratio(0), "x");
    report.put("typing.speedup", ratio(1), "x");
    report.put("par.shardable", entries.iter().filter(|e| e.shardable).count() as f64, "count");
    report.put("par.speedup_2t", ratio(2), "x");
    let raw =
        |class: Class, f: &dyn Fn(&Entry) -> f64| stats::geomean(&class_values(entries, class, f));
    let median = |e: &Entry| stats::median(&e.runs[0]);
    report.put("raw.looplet_run_fastest_us", raw(Class::Looplet, &Entry::fastest_run), "us");
    report.put("raw.looplet_run_median_us", raw(Class::Looplet, &median), "us");
    report.put("raw.baseline_run_fastest_us", raw(Class::Baseline, &Entry::fastest_run), "us");
    report.put("raw.baseline_run_median_us", raw(Class::Baseline, &median), "us");
    let compiles =
        |f: &dyn Fn(&Entry) -> f64| stats::geomean(&entries.iter().map(f).collect::<Vec<_>>());
    report.put("raw.compile_fastest_us", compiles(&Entry::fastest_compile), "us");
    report.put("raw.compile_median_us", compiles(&|e| stats::median(&e.compiles)), "us");
}

fn host_layers(report: &mut Report, sentinel: &Sentinel, setups: &Setups, rec: &Recorder) {
    let convert = &setups.convert_us;
    let convert_us = stats::fastest(convert) * sentinel.scale_for(convert.len());
    report.put("formats.convert_us", convert_us, "us");
    let validate: Vec<f64> = rec.named("formats.validate").map(|s| s.us_per_call()).collect();
    let validate_us = stats::fastest(&validate) * sentinel.scale_for(validate.len());
    report.put("formats.validate_us", validate_us, "us");
    report.put("host.native_ref_us", sentinel.fastest(), "us");
    report.put("host.native_ref_median_us", sentinel.median(), "us");
    report.put("host.slow_share", sentinel.slow_share(), "ratio");
    report.put("host.ref_samples", sentinel.len() as f64, "count");
}

/// Validate a kernel's input tensors, one `formats.validate` span each.
fn validate_inputs(
    inputs: &[finch::Tensor],
    rec: &mut Recorder,
    parent: Option<Open>,
    key: usize,
) -> bool {
    inputs.iter().all(|t| {
        let span = rec.open("formats.validate", parent, key);
        let ok = t.validate().is_ok();
        rec.close(span, 1, 0);
        ok
    })
}

fn add_counts(report: &mut Report, entries: &[Entry]) {
    report.attempted += entries.iter().map(|e| e.attempted).sum::<u64>();
    report.failed += entries.iter().map(|e| e.failed).sum::<u64>();
}

fn run_figures(a: &Args) -> Result<Report, String> {
    let data = figures::Data::generate(a.seed);
    let oracles = figures::Oracles::compute(&data);
    let mut rec = Recorder::new(a.trace);
    let mut sentinel = Sentinel::default();
    let mut setups = Setups::default();
    let build = |rec: &mut Recorder, parent: Option<Open>| {
        figures::variants(&data, &oracles, rec, parent)
            .into_iter()
            .map(|v| {
                Entry::new(v.label, v.class, v.spec, Check::Steady { want: v.want, tol: v.tol })
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let mut entries = setups.run(&mut rec, &mut sentinel, build)?;
    let classes: Vec<Class> = entries.iter().map(|e| e.class).collect();
    let pairs = figures::pairs(&classes);
    for e in &mut entries {
        e.count_instrs();
        if a.trace {
            e.prepare_alternates();
        }
    }
    let n = entries.len();
    let mut pair_ratios: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut this_round = vec![0.0; n];
    let mut report = Report::default();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < a.seconds {
        if setups.due() {
            rec.set_enabled(a.trace);
            let fresh = setups.run(&mut rec, &mut sentinel, build)?;
            add_counts(&mut report, &fresh);
        }
        let traced = a.trace && round % 2 == 1;
        rec.set_enabled(traced);
        let span = rec.open("round", None, round);
        // Alternate the order the compared sides run in.
        let forward = (round / 2).is_multiple_of(2);
        for pos in 0..n {
            let k = if forward { pos } else { n - 1 - pos };
            if pos % REF_EVERY == 0 {
                sample_ref(&mut sentinel, &mut rec, span);
            }
            this_round[k] = entries[k].sample_run(&mut rec, span, k);
        }
        if !traced {
            for (p, &(b, l)) in pairs.iter().enumerate() {
                pair_ratios[p].push(this_round[b] / this_round[l]);
            }
        }
        // Three compiles per round, round-robin; in a traced run every
        // kernel's compile is visited in traced and untraced rounds alike.
        for j in 0..COMPILES_PER_ROUND {
            let c = ((round / (1 + a.trace as usize)) * COMPILES_PER_ROUND + j) % n;
            entries[c].sample_compile(&mut rec, span, c);
        }
        if traced {
            let e = (round / 2) % n;
            entries[e].sample_ratios(&mut rec, span, e, (round / 2 / n) % 2 == 1);
            let ok = validate_inputs(&entries[e].spec.inputs, &mut rec, span, e);
            report.attempted += 1;
            report.failed += !ok as u64;
        }
        rec.close(span, 1, 0);
        round += 1;
    }
    rec.set_enabled(false);
    add_counts(&mut report, &entries);
    report.rows = entries.iter().map(row).collect();
    report.rows.push(host_row(&sentinel));
    if a.trace {
        let speedup =
            stats::geomean(&pair_ratios.iter().map(|r| stats::median(r)).collect::<Vec<_>>());
        suite_layers(&mut report, &entries, &sentinel, speedup);
        service_layers_absent(&mut report);
        host_layers(&mut report, &sentinel, &setups, &rec);
        let overhead: Vec<f64> =
            entries.iter().map(|e| e.traced_run_us(&sentinel) / e.run_us(&sentinel)).collect();
        report.put("trace.overhead_pct", (stats::geomean(&overhead) - 1.0) * 100.0, "%");
        report.put("trace.spans", rec.len() as f64, "count");
        write_spans(&rec, &a.workload)?;
    } else {
        suite_e2e(&mut report, &entries, &setups, &sentinel)?;
        // The suite as a closed loop of kernel runs: each run is one
        // request, so a request's latency is its kernel's calibrated run.
        let lat: Vec<f64> = entries.iter().map(|e| e.run_us(&sentinel)).collect();
        report.put("throughput_rps", lat.len() as f64 * 1e6 / lat.iter().sum::<f64>(), "1/s");
        report.put("latency_p50_us", stats::median(&lat), "us");
        report.put("latency_p99_us", stats::quantile(&lat, 0.99), "us");
    }
    Ok(report)
}

/// The service metrics of a workload that bypasses the service.
fn service_layers_absent(report: &mut Report) {
    for (name, unit) in [
        ("service.hit_us", "us"),
        ("service.miss_us", "us"),
        ("service.direct_hit_us", "us"),
        ("service.direct_compile_us", "us"),
        ("service.queue_wait_p99_us", "us"),
        ("service.hit_rate", "ratio"),
        ("service.compiles", "count"),
        ("service.evictions", "count"),
        ("raw.latency_p50_us", "us"),
        ("raw.latency_p99_us", "us"),
    ] {
        report.put(name, 0.0, unit);
    }
}

fn write_spans(rec: &Recorder, workload: &str) -> Result<(), String> {
    let path = std::path::PathBuf::from(".bench_out").join(format!("spans-{workload}.tsv"));
    rec.write_tsv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if rec.dropped() > 0 {
        eprintln!("loopbench: {} spans beyond the store's capacity were not kept", rec.dropped());
    }
    Ok(())
}

/// The fastest latency each request of the trace reached over the replays
/// of one kind (untraced or traced).  Every replay serves the identical
/// sequence on a fresh service, so request `i` is the same operation — the
/// same hit or miss — in every replay.
struct Fastest {
    latency: Vec<f64>,
    replays: usize,
}

impl Fastest {
    fn new(requests: usize) -> Self {
        Fastest { latency: vec![f64::INFINITY; requests], replays: 0 }
    }

    fn add(&mut self, replay: &[f64]) {
        for (best, &us) in self.latency.iter_mut().zip(replay) {
            *best = best.min(us);
        }
        self.replays += 1;
    }

    /// Sum of the per-request fastest latencies, µs.
    fn total(&self) -> f64 {
        self.latency.iter().sum()
    }

    /// Quantile `q` of the fastest latencies of requests that were (not)
    /// cache hits, µs.
    fn quantile_where(&self, hit: &[bool], want: bool, q: f64) -> f64 {
        let v: Vec<f64> =
            self.latency.iter().zip(hit).filter(|(_, &h)| h == want).map(|(&l, _)| l).collect();
        stats::quantile(&v, q)
    }
}

fn run_serve(a: &Args, shape: serve::Shape) -> Result<Report, String> {
    let data = serve::TraceData::generate(shape, a.seed);
    let slots = shape.structures * shape.instances;
    let answers: Vec<Vec<f64>> = (0..slots).map(|s| data.answer(s)).collect();
    let cfg = ServiceConfig { capacity: shape.cache, threads: 1, ..ServiceConfig::default() };
    let mut rec = Recorder::new(a.trace);
    let mut sentinel = Sentinel::default();
    let mut setups = Setups::default();
    let build = |rec: &mut Recorder, parent: Option<Open>| {
        let specs: Vec<spec::Spec> = (0..slots)
            .map(|slot| {
                let span = rec.open("formats.convert", parent, slot);
                let inputs = serve::tensors(&data, slot);
                rec.close(span, inputs.len(), 0);
                serve::spec(&data, slot, inputs)
            })
            .collect();
        let requests: Vec<finch::Request> = specs.iter().map(serve::request).collect();
        let svc = KernelService::new(cfg.clone());
        Ok((specs, requests, svc))
    };
    let (specs, requests, _) = setups.run(&mut rec, &mut sentinel, build)?;
    let mut entries = Vec::new();
    for s in 0..shape.structures {
        let slot0 = s * shape.instances;
        let check = Check::Instances {
            inputs: (0..shape.instances).map(|i| specs[slot0 + i].inputs.clone()).collect(),
            want: (0..shape.instances).map(|i| answers[slot0 + i].clone()).collect(),
            scalar: serve::scalar_output(&data, slot0),
            next: 0,
        };
        let mut e = Entry::new(serve::label(s), serve::class(s), specs[slot0].clone(), check)?;
        e.count_instrs();
        if a.trace {
            e.prepare_alternates();
        }
        entries.push(e);
    }
    let n = entries.len();
    let mut report = Report::default();
    let mut fastest = [Fastest::new(shape.requests), Fastest::new(shape.requests)];
    let mut raw_quantiles: Vec<(f64, f64)> = Vec::new();
    let mut queue_waits: Vec<f64> = Vec::new();
    let mut latency = Vec::with_capacity(shape.requests);
    let mut hit = Vec::with_capacity(shape.requests);
    let mut counts = (0u64, 0u64);
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < a.seconds {
        if setups.due() {
            rec.set_enabled(a.trace);
            setups.run(&mut rec, &mut sentinel, build)?;
        }
        let traced = a.trace && round % 2 == 1;
        rec.set_enabled(traced);
        let span = rec.open("round", None, round);
        let svc = KernelService::new(cfg.clone());
        latency.clear();
        hit.clear();
        for (i, &slot) in data.schedule.iter().enumerate() {
            if i % REF_EVERY_REQUESTS == 0 {
                sample_ref(&mut sentinel, &mut rec, span);
            }
            if traced {
                let ok = validate_inputs(&specs[slot].inputs, &mut rec, span, i);
                report.attempted += 1;
                report.failed += !ok as u64;
            }
            let s = rec.open("service.submit", span, i);
            let t = Instant::now();
            let resp = svc.submit(&requests[slot]);
            let us = t.elapsed().as_secs_f64() * 1e6;
            let was_hit = resp.as_ref().is_ok_and(|r| r.cache_hit);
            rec.close(s, 1, was_hit as u8);
            report.attempted += 1;
            match &resp {
                Ok(resp) => {
                    report.failed += !serve::response_matches(resp, &answers[slot]) as u64;
                    if traced {
                        queue_waits.push(resp.queue_wait.as_secs_f64() * 1e6);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("loopbench: request {i} failed: {e}");
                }
            }
            latency.push(us);
            hit.push(was_hit);
        }
        let st = svc.stats();
        counts = (st.compiles, st.evictions);
        drop(svc);
        fastest[traced as usize].add(&latency);
        if !traced {
            raw_quantiles.push((stats::median(&latency), stats::quantile(&latency, 0.99)));
        }
        // Direct calls on every structure, between replays; compiles
        // round-robin, a quarter of the structures per replay.
        for (k, e) in entries.iter_mut().enumerate() {
            e.sample_run(&mut rec, span, k);
        }
        let per_round = n.div_ceil(4);
        for j in 0..per_round {
            let k = ((round / (1 + a.trace as usize)) * per_round + j) % n;
            entries[k].sample_compile(&mut rec, span, k);
        }
        if traced {
            let k = (round / 2) % n;
            entries[k].sample_ratios(&mut rec, span, k, (round / 2 / n) % 2 == 1);
        }
        rec.close(span, 1, 0);
        round += 1;
    }
    rec.set_enabled(false);
    add_counts(&mut report, &entries);
    report.rows = entries.iter().map(row).collect();
    report.rows.push(host_row(&sentinel));
    let hits = hit.iter().filter(|&&h| h).count();
    report.rows.push(format!(
        "row {:<34} replays {} fastest_total_ms {:.3} hits {}/{} compiles {} evictions {}",
        "service replay",
        round,
        fastest[0].total() / 1e3,
        hits,
        hit.len(),
        counts.0,
        counts.1
    ));
    let untraced = &fastest[0];
    if untraced.replays == 0 {
        return Err("no untraced replay completed".into());
    }
    let scale = sentinel.scale_for(untraced.replays);
    if a.trace {
        suite_layers(&mut report, &entries, &sentinel, 0.0);
        let traced = &fastest[1];
        if traced.replays == 0 {
            return Err("no traced replay completed".into());
        }
        let traced_scale = sentinel.scale_for(traced.replays);
        report.put("service.hit_us", traced.quantile_where(&hit, true, 0.5) * traced_scale, "us");
        report.put("service.miss_us", traced.quantile_where(&hit, false, 0.5) * traced_scale, "us");
        // The direct equivalents of the trace's hits and misses: the p50
        // over hit (miss) requests of their structure's fastest direct hit
        // (compile).
        let direct = |want: bool, f: &dyn Fn(&Entry) -> f64| -> f64 {
            let v: Vec<f64> = data
                .schedule
                .iter()
                .zip(&hit)
                .filter(|(_, &h)| h == want)
                .map(|(&slot, _)| f(&entries[data.structure(slot)]))
                .collect();
            stats::median(&v)
        };
        report.put("service.direct_hit_us", direct(true, &|e| e.traced_run_us(&sentinel)), "us");
        report.put("service.direct_compile_us", direct(false, &|e| e.compile_us(&sentinel)), "us");
        let wait = stats::quantile(&queue_waits, 0.99) * sentinel.scale_for(queue_waits.len());
        report.put("service.queue_wait_p99_us", wait, "us");
        report.put("service.hit_rate", hits as f64 / hit.len() as f64, "ratio");
        report.put("service.compiles", counts.0 as f64, "count");
        report.put("service.evictions", counts.1 as f64, "count");
        let raw = |f: fn(&(f64, f64)) -> f64| {
            stats::median(&raw_quantiles.iter().map(f).collect::<Vec<_>>())
        };
        report.put("raw.latency_p50_us", raw(|q| q.0), "us");
        report.put("raw.latency_p99_us", raw(|q| q.1), "us");
        host_layers(&mut report, &sentinel, &setups, &rec);
        let overhead = traced.total() * traced_scale / (untraced.total() * scale) - 1.0;
        report.put("trace.overhead_pct", overhead * 100.0, "%");
        report.put("trace.spans", rec.len() as f64, "count");
        write_spans(&rec, &a.workload)?;
    } else {
        suite_e2e(&mut report, &entries, &setups, &sentinel)?;
        let all = vec![true; shape.requests];
        report.put(
            "throughput_rps",
            shape.requests as f64 * 1e6 / (untraced.total() * scale),
            "1/s",
        );
        report.put("latency_p50_us", untraced.quantile_where(&all, true, 0.5) * scale, "us");
        report.put("latency_p99_us", untraced.quantile_where(&all, true, 0.99) * scale, "us");
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            eprintln!(
                "usage: loopbench --workload <paper-figures|serve-zipf|serve-cold> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if reference::run() != reference::EXPECTED {
        eprintln!("loopbench: the frozen reference kernel changed; calibration is void");
        std::process::exit(3);
    }
    let result = match args.workload.as_str() {
        "paper-figures" => run_figures(&args),
        "serve-zipf" => run_serve(&args, serve::ZIPF),
        "serve-cold" => run_serve(&args, serve::COLD),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(report) => {
            for r in &report.rows {
                println!("{r}");
            }
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(1);
        }
    }
}
