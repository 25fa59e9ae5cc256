//! Resilience regression tests: aborted executions must leave the
//! persistent VM reusable (the next rerun is bit-identical to a fresh
//! compile), and the kernel service must stay correct under concurrency
//! and injected faults.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    BreakerPolicy, CompiledKernel, DrainReport, Engine, FaultKind, FaultPlan, FaultRule,
    HealthSnapshot, InjectPoint, Kernel, KernelService, LevelSpec, Request, RuntimeError,
    ServiceConfig, ServiceError, ServiceState, Tensor, Tier, Watch,
};

/// A kernel with a sparse (assembled) output: the abort paths must leave
/// its `pos`/`idx`/`val` buffers mid-append, the worst case for reuse.
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
    kernel.compile(&program).expect("sparse mul compiles")
}

fn test_data(n: usize) -> (Vec<f64>, Vec<f64>) {
    let av: Vec<f64> = (0..n).map(|k| if k % 3 != 1 { k as f64 + 0.5 } else { 0.0 }).collect();
    let bv: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 2.0 - k as f64 } else { 0.0 }).collect();
    (av, bv)
}

/// The rerun-after-abort contract, shared by the abort-path tests: after
/// `abort` has driven the kernel into a mid-execution typed error, clearing
/// the limit and re-running must reproduce a fresh compile bit-for-bit.
fn assert_reusable_after(
    engine: Engine,
    abort: impl FnOnce(&mut CompiledKernel) -> RuntimeError,
    what: &str,
) {
    let (av, bv) = test_data(24);
    let mut k = sparse_mul_kernel(&av, &bv);
    k.set_engine(engine);
    let err = abort(&mut k);
    match err {
        RuntimeError::StepBudgetExceeded { .. }
        | RuntimeError::Deadline { .. }
        | RuntimeError::AllocBudgetExceeded { .. } => {}
        other => panic!("{what}: expected a resource abort, got {other}"),
    }

    // Clear every limit and rerun on the same VM and buffers.
    k.clear_step_budget();
    k.set_watch(None);
    k.set_alloc_budget(None);
    let stats = k.run().unwrap_or_else(|e| panic!("{what}: rerun after abort failed: {e}"));
    let rerun = k.output_tensor("C").expect("rerun output");

    // A fresh compile of the same kernel is the reference.
    let mut fresh = sparse_mul_kernel(&av, &bv);
    fresh.set_engine(engine);
    let fresh_stats = fresh.run().expect("fresh run");
    let reference = fresh.output_tensor("C").expect("fresh output");

    assert_eq!(stats, fresh_stats, "{what}: work counters diverge after abort");
    assert_eq!(
        format!("{rerun:?}"),
        format!("{reference:?}"),
        "{what}: assembled sparse output diverges after abort"
    );
    let rerun_bits: Vec<u64> = rerun.values().iter().map(|v| v.to_bits()).collect();
    let fresh_bits: Vec<u64> = reference.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(rerun_bits, fresh_bits, "{what}: value bits diverge after abort");
}

#[test]
fn budget_abort_mid_sparse_append_leaves_vm_reusable() {
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_reusable_after(
            engine,
            |k| {
                k.set_step_budget(7);
                k.run().expect_err("budget must trip")
            },
            &format!("step budget ({engine:?})"),
        );
    }
}

#[test]
fn cancellation_mid_sparse_append_leaves_vm_reusable() {
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_reusable_after(
            engine,
            |k| {
                // A pre-raised cancel flag aborts on the first statement.
                k.set_watch(Some(Watch::cancelled_by(Arc::new(AtomicBool::new(true)), 7)));
                k.run().expect_err("cancellation must trip")
            },
            &format!("cancellation ({engine:?})"),
        );
    }
}

#[test]
fn alloc_budget_abort_mid_sparse_append_leaves_vm_reusable() {
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_reusable_after(
            engine,
            |k| {
                k.set_alloc_budget(Some(2));
                k.run().expect_err("allocation budget must trip")
            },
            &format!("alloc budget ({engine:?})"),
        );
    }
}

#[test]
fn kernel_service_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KernelService>();
    assert_send_sync::<looplets_repro::finch::Request>();
    assert_send_sync::<looplets_repro::finch::Response>();
    assert_send_sync::<ServiceError>();
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<ServiceState>();
    assert_send_sync::<DrainReport>();
    assert_send_sync::<HealthSnapshot>();
    assert_send_sync::<BreakerPolicy>();
}

/// A dense dot-product request plus its expected scalar; every `scale`
/// shares one structure (and therefore one cache entry and one breaker).
fn dense_dot_request(scale: f64) -> (Request, f64) {
    let n = 12;
    let av: Vec<f64> = (0..n).map(|k| scale * (k as f64 + 1.0)).collect();
    let bv: Vec<f64> = (0..n).map(|k| 0.25 * k as f64 - 1.0).collect();
    let expected = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
    let a = Tensor::dense_vector("A", &av);
    let b = Tensor::dense_vector("B", &bv);
    let i = idx("i");
    let program =
        forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
    (Request::new(program).input(&a).input(&b).output_scalar("C"), expected)
}

fn stall_rule(request: u64) -> FaultRule {
    FaultRule { request, point: InjectPoint::PreRun, kind: FaultKind::Stall }
}

#[test]
fn draining_rejects_new_work_and_completes_in_flight_requests() {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        max_in_flight: 2,
        queue_depth: 4,
        ..ServiceConfig::default()
    }));
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0 warms the cache

    // rid 1 stalls in flight: the drain must wait for it.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    svc.install_faults(plan);
    let (in_flight_req, in_flight_expected) = dense_dot_request(2.0);
    let in_flight = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&in_flight_req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }

    let drainer = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.drain(Duration::from_secs(10)))
    };
    while svc.state() == ServiceState::Running {
        std::thread::yield_now();
    }

    // While draining, new work is rejected with the typed shutdown error.
    let (rejected, _) = dense_dot_request(3.0);
    match svc.submit(&rejected) {
        Err(ServiceError::ShuttingDown { state: ServiceState::Draining }) => {}
        other => panic!("expected ShuttingDown while draining, got {other:?}"),
    }

    // Releasing the stall lets the in-flight request complete cleanly and
    // the drain finish without cancelling anything.
    svc.release_stalls();
    let resp = in_flight.join().unwrap().expect("in-flight request completes during drain");
    assert_eq!(resp.scalar.unwrap().to_bits(), in_flight_expected.to_bits());
    let report = drainer.join().unwrap();
    assert!(!report.cancelled, "nothing overran the drain deadline");
    assert_eq!(report.state, ServiceState::Stopped);

    // Resume re-opens admission and the cache survived.
    svc.resume();
    assert_eq!(svc.state(), ServiceState::Running);
    let (after, after_expected) = dense_dot_request(-1.5);
    let resp = svc.submit(&after).unwrap();
    assert!(resp.cache_hit, "the drain kept the compiled cache");
    assert_eq!(resp.scalar.unwrap().to_bits(), after_expected.to_bits());
}

#[test]
fn an_overrun_drain_cancels_stuck_work_with_a_typed_error() {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        max_in_flight: 2,
        queue_depth: 4,
        ..ServiceConfig::default()
    }));
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap();

    // rid 1 stalls with no deadline: only the drain's cancel cuts it loose.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    svc.install_faults(plan);
    let stuck = {
        let svc = Arc::clone(&svc);
        let (req, _) = dense_dot_request(2.0);
        std::thread::spawn(move || svc.submit(&req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }

    let report = svc.drain(Duration::from_millis(40));
    assert!(report.cancelled, "the stalled request overran the drain deadline");
    assert_eq!(report.state, ServiceState::Stopped);
    match stuck.join().unwrap() {
        Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
        other => panic!("expected the drain to cancel the stalled request, got {other:?}"),
    }
    assert_eq!(svc.stalled(), 0, "no thread left parked on the stall gate");

    // A stopped service keeps rejecting until resumed.
    match svc.submit(&req) {
        Err(ServiceError::ShuttingDown { state: ServiceState::Stopped }) => {}
        other => panic!("expected ShuttingDown when stopped, got {other:?}"),
    }
    svc.resume();
    assert!(svc.submit(&req).unwrap().cache_hit);
}

#[test]
fn breaker_opens_after_threshold_and_degrades_to_the_oracle() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(3600),
        breaker_policy: BreakerPolicy::Degrade,
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, expected) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0: clean, breaker stays closed

    // rid 1 faults twice (the fast attempt and its quarantine retry):
    // crosses the threshold inside one request.
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    plan.push(FaultRule { request: 1, point: InjectPoint::PostRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    let resp = svc.submit(&req).unwrap();
    assert_eq!(resp.tier, Tier::Oracle, "two fast-tier faults degrade to the oracle");
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    assert_eq!(svc.health().breakers_open, 1);

    // Within the cooldown the structure short-circuits straight to the
    // oracle tier — still bit-identical, no wasted fast-tier attempts.
    let resp = svc.submit(&req).unwrap();
    assert_eq!(resp.tier, Tier::Oracle);
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    let stats = svc.stats();
    assert_eq!(stats.breaker_opens, 1);
    assert_eq!(stats.breaker_short_circuits, 1);
}

#[test]
fn a_clean_half_open_probe_closes_the_breaker() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::ZERO,
        breaker_policy: BreakerPolicy::Degrade,
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, expected) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    svc.submit(&req).unwrap(); // rid 1: one fault opens the breaker
    assert_eq!(svc.health().breakers_open, 1);

    // Zero cooldown: the next request is the half-open probe.  It runs the
    // full ladder cleanly and closes the breaker.
    let resp = svc.submit(&req).unwrap();
    assert_eq!(resp.tier, Tier::Fast);
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    let health = svc.health();
    assert_eq!(
        (health.breakers_closed, health.breakers_open, health.breakers_half_open),
        (1, 0, 0)
    );
    assert_eq!(svc.stats().breaker_short_circuits, 0, "the probe was admitted, not shed");
}

#[test]
fn a_faulting_probe_reopens_the_breaker() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::ZERO,
        breaker_policy: BreakerPolicy::Degrade,
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, expected) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    plan.push(FaultRule { request: 2, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    svc.submit(&req).unwrap(); // rid 1: opens
    let resp = svc.submit(&req).unwrap(); // rid 2: the probe itself faults
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    let stats = svc.stats();
    assert_eq!(stats.breaker_opens, 2, "the faulting probe re-opened the breaker");
    assert_eq!(svc.health().breakers_open, 1);
}

#[test]
fn an_open_breaker_rejects_when_configured() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(3600),
        breaker_policy: BreakerPolicy::Reject,
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap();
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    svc.submit(&req).unwrap(); // rid 1 opens the breaker
    match svc.submit(&req) {
        Err(ServiceError::CircuitOpen { consecutive_faults: 1, .. }) => {}
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(svc.stats().breaker_short_circuits, 1);
}

#[test]
fn deadline_expiry_is_attributed_to_queue_or_execution_never_lost() {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        max_in_flight: 1,
        queue_depth: 4,
        deadline: Some(Duration::from_millis(30)),
        ..ServiceConfig::default()
    }));
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0

    // Both followers stall: the first holds the only slot until its
    // deadline, the second spends most (or all) of its budget queued.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    plan.push(stall_rule(2));
    svc.install_faults(plan);
    let holder = {
        let svc = Arc::clone(&svc);
        let (req, _) = dense_dot_request(2.0);
        std::thread::spawn(move || svc.submit(&req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }
    let queued_result = svc.submit(&req);

    // The slot holder's expiry is execution-attributed: it was admitted.
    match holder.join().unwrap() {
        Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
        other => panic!("expected the stalled holder to hit its deadline, got {other:?}"),
    }
    // The queued request's expiry is typed either way — as a queue timeout
    // if it was never admitted, or as an execution deadline if it got the
    // slot with too little budget left.  Never shed, never lost.
    let stats = svc.stats();
    match queued_result {
        Err(ServiceError::QueueTimeout { .. }) => {
            assert_eq!(stats.queue_timeouts, 1, "queue expiry counted as a queue timeout");
        }
        Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {
            assert!(stats.deadline_errors >= 2, "execution expiry counted as a deadline");
        }
        other => panic!("expected a typed deadline-family error, got {other:?}"),
    }
    assert_eq!(stats.shed, 0, "a bounded queue waits instead of shedding");
}

#[test]
fn concurrent_clients_share_the_cache_and_agree_with_references() {
    use finch_bench::trace::{self, TraceConfig};

    let tcfg =
        TraceConfig { kernels: 3, instances: 2, requests: 0, scale: 2, ..Default::default() };
    let svc = KernelService::new(ServiceConfig {
        capacity: 8,
        deadline: Some(Duration::from_secs(5)),
        ..ServiceConfig::default()
    });
    std::thread::scope(|scope| {
        for c in 0..4usize {
            let svc = &svc;
            let tcfg = &tcfg;
            scope.spawn(move || {
                for round in 0..6usize {
                    let kernel = (c + round) % 3;
                    let instance = round % 2;
                    let resp = svc
                        .submit(&trace::build_request(tcfg, kernel, instance))
                        .unwrap_or_else(|e| panic!("client {c} round {round}: {e}"));
                    let got: Vec<u64> =
                        trace::response_values(&resp).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = trace::reference_values(tcfg, kernel, instance)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(got, want, "client {c} round {round} diverged");
                }
            });
        }
    });
    let stats = svc.stats();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.compiles, 3, "three structures, each compiled once");
    assert_eq!(stats.hits, 21);
}

#[test]
fn service_survives_a_full_fault_barrage_with_typed_outcomes_only() {
    use finch_bench::trace::{self, TraceConfig};

    let tcfg =
        TraceConfig { kernels: 3, instances: 2, requests: 0, scale: 2, ..Default::default() };
    let svc = KernelService::new(ServiceConfig { capacity: 4, ..ServiceConfig::default() });

    // Every fault kind at every injection point, all on a warm cache.
    let mut rid = 0u64;
    for kernel in 0..3usize {
        svc.submit(&trace::build_request(&tcfg, kernel, 0)).expect("warm-up");
        rid += 1;
    }
    let mut plan = FaultPlan::new();
    let mut expected: Vec<(u64, usize, bool)> = Vec::new(); // (rid, kernel, must_succeed)
    let points =
        [InjectPoint::Lookup, InjectPoint::PreRun, InjectPoint::MidRun, InjectPoint::PostRun];
    let kinds = [
        FaultKind::PoisonEntry,
        FaultKind::Panic,
        FaultKind::BudgetExhaustion,
        FaultKind::DeadlineExpiry,
    ];
    for (pi, point) in points.iter().enumerate() {
        for (ki, kind) in kinds.iter().enumerate() {
            // PoisonEntry pairs with the lookup point and the other kinds
            // with the execution points; mismatched pairs are no-ops.
            if (*point == InjectPoint::Lookup) != (*kind == FaultKind::PoisonEntry) {
                continue;
            }
            plan.push(FaultRule { request: rid, point: *point, kind: *kind });
            let succeeds = matches!(kind, FaultKind::Panic | FaultKind::PoisonEntry);
            expected.push((rid, (pi + ki) % 3, succeeds));
            rid += 1;
        }
    }
    svc.install_faults(plan);

    for (req_id, kernel, must_succeed) in expected {
        let result = svc.submit(&trace::build_request(&tcfg, kernel, 1));
        match result {
            Ok(resp) => {
                assert!(must_succeed, "request {req_id} should have hit a resource error");
                let got: Vec<u64> =
                    trace::response_values(&resp).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    trace::reference_values(&tcfg, kernel, 1).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "request {req_id} served a wrong result");
            }
            Err(ServiceError::Runtime(
                RuntimeError::StepBudgetExceeded { .. } | RuntimeError::Deadline { .. },
            )) => {
                assert!(!must_succeed, "request {req_id} should have been served");
            }
            Err(other) => panic!("request {req_id}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(svc.pending_faults(), 0, "every injected fault fired");
    let stats = svc.stats();
    assert!(stats.panics > 0 && stats.quarantined > 0);
}
