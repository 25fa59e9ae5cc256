//! A resilient, long-lived kernel service.
//!
//! [`KernelService`] owns a bounded LRU cache of [`CompiledKernel`]s keyed by
//! kernel *structure* — the CIN program text, every input's level formats and
//! sizes (not its data), and the requested output formats.  Every entry is
//! compiled with the service's one configuration, so the configuration is
//! not part of the key.  Requests whose structure matches a cached entry skip
//! compilation entirely: the entry's input buffers are overwritten in place
//! ([`CompiledKernel::rebind_input`]) and the persistent VM re-runs without
//! allocating.
//!
//! The service is hardened along four axes:
//!
//! 1. **Deadlines** — each request may carry a wall-clock deadline, enforced
//!    cooperatively by a [`Watch`] on the VM's step-budget path and while
//!    queueing on a busy cache slot.  Expiry surfaces as the typed
//!    [`RuntimeError::Deadline`], never as a stuck worker.
//! 2. **Panic isolation** — every compile and run is wrapped in
//!    `catch_unwind`.  A panicking entry is quarantined (poisoned), recompiled
//!    once after a short backoff, and evicted if the retry also faults.
//! 3. **Degradation ladder** — a kernel that faults on the fast bytecode
//!    tier is quarantined, recompiled, and retried once; if the retry faults
//!    too, the request falls back to the tree-walk oracle ([`Tier`]).  Both
//!    tiers run at the same optimisation level, so a degraded response is
//!    bit-identical to the fast path's.
//! 4. **Deadline-aware admission** — past the in-flight limit, requests
//!    queue FIFO-fairly up to their remaining deadline instead of shedding
//!    instantly; behind the bounded queue the typed
//!    [`ServiceError::Overloaded`] still applies, and a waiter whose
//!    deadline expires leaves with the distinct
//!    [`ServiceError::QueueTimeout`].  An optional output allocation budget
//!    bounds memory per request.
//! 5. **Per-structure circuit breakers** — a structure that keeps faulting
//!    trips its breaker ([`crate::BreakerState`]): requests short-circuit
//!    straight to the oracle tier (or a typed
//!    [`ServiceError::CircuitOpen`], per [`BreakerPolicy`]) until a
//!    half-open probe proves the structure healthy again.
//! 6. **Graceful drain** — [`KernelService::drain`] rejects new work with
//!    the typed [`ServiceError::ShuttingDown`], completes (or
//!    deadline-cancels, through every run's cooperative watch) the work in
//!    flight, and leaves the service inspectable via
//!    [`KernelService::health`] and resumable via
//!    [`KernelService::resume`].
//! 7. **Boundary validation** — every [`Request::input`] tensor is
//!    structurally validated; corrupt level arrays surface as the typed
//!    [`ServiceError::InvalidInput`] instead of a downstream panic or a
//!    wrong result.
//!
//! [`KernelService::submit_batch`] amortises the front-end: a slice of
//! requests is admitted under one queue permit, grouped by structural hash,
//! compiled (or looked up) once per group, and rebound serially against one
//! cache entry — with per-request typed outcomes in submission order.
//!
//! A deterministic [`FaultPlan`] injects panics, budget exhaustion, poisoned
//! entries, deadline expiry, and execution stalls at chosen points so tests
//! (and the `serve` bench's `--faults`/`--soak` modes) can prove that
//! *every* injected fault ends in either a bit-identical degraded result or
//! a typed error.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use finch_cin::CinStmt;
use finch_formats::{LevelSpec, Tensor};
use finch_ir::opt::ValidationLevel;
use finch_ir::{ExecStats, RuntimeError, Watch};

use crate::breaker::{BreakerBoard, BreakerDecision, BreakerPolicy};
use crate::error::{CompileError, ServiceError};
use crate::kernel::{CompiledKernel, Engine, Kernel};
use crate::queue::{AdmissionQueue, AdmitError, Permit, ServiceState};

/// Configuration for a [`KernelService`].  Kernels compile with the
/// [`Kernel`] defaults — the `Default` optimisation level, typed dispatch
/// and SIMD — plus the `threads` and `validation` set here.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of cached compiled kernels (LRU-evicted beyond this).
    pub capacity: usize,
    /// Maximum number of requests admitted concurrently; excess requests
    /// queue (up to [`ServiceConfig::queue_depth`]) until a slot frees or
    /// their deadline expires.
    pub max_in_flight: usize,
    /// Maximum number of requests waiting for admission; arrivals behind a
    /// full queue are shed with [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Consecutive tier-faults on one structure before its circuit breaker
    /// opens.  `0` disables the breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker short-circuits before admitting a half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// What an open breaker does to requests: degrade to the oracle tier or
    /// reject with [`ServiceError::CircuitOpen`].
    pub breaker_policy: BreakerPolicy,
    /// Per-request wall-clock deadline.  `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Per-request VM step budget.  `None` disables the budget.
    pub step_budget: Option<u64>,
    /// Per-request output allocation budget in elements.  `None` disables it.
    pub alloc_budget: Option<u64>,
    /// Worker threads for the fast tier (`0` = one per available core).
    pub threads: usize,
    /// Pass-manager validation level used when compiling.
    pub validation: ValidationLevel,
    /// Backoff slept before recompiling a quarantined entry.
    pub retry_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            capacity: 64,
            max_in_flight: 32,
            queue_depth: 32,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(25),
            breaker_policy: BreakerPolicy::Degrade,
            deadline: None,
            step_budget: None,
            alloc_budget: None,
            threads: 1,
            validation: ValidationLevel::Off,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// What a [`Request`] wants read back out of the kernel after it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadBack {
    /// Only execution statistics; no output value is materialised.
    Stats,
    /// The named scalar output (read without allocating).
    Scalar(String),
    /// The named tensor output, assembled into a [`Tensor`].
    Tensor(String),
}

/// One unit of work for a [`KernelService`]: a CIN program plus bound inputs
/// and requested outputs.
///
/// Structurally identical requests — same program text, same input formats
/// and sizes (data may differ), same output formats — share one cached
/// compiled kernel.
#[derive(Debug, Clone)]
pub struct Request {
    program: CinStmt,
    inputs: Vec<Tensor>,
    outputs: Vec<(String, Vec<LevelSpec>)>,
    read: ReadBack,
    /// First boundary-validation failure among the inputs, recorded at bind
    /// time and surfaced by `submit` as [`ServiceError::InvalidInput`].
    invalid: Option<(String, String)>,
}

impl Request {
    /// A request executing `program`, with no inputs or outputs bound yet.
    pub fn new(program: CinStmt) -> Self {
        Request {
            program,
            inputs: Vec::new(),
            outputs: Vec::new(),
            read: ReadBack::Stats,
            invalid: None,
        }
    }

    /// Bind an input tensor (cloned into the request).
    ///
    /// The tensor is structurally validated ([`Tensor::validate`]): inputs
    /// cross the service's trust boundary here, and a corrupt level array
    /// must surface as the typed [`ServiceError::InvalidInput`] at submit
    /// time, never as a downstream panic or a silently wrong result.
    pub fn input(mut self, tensor: &Tensor) -> Self {
        if self.invalid.is_none() {
            if let Err(e) = tensor.validate() {
                self.invalid = Some((tensor.name().to_string(), e.to_string()));
            }
        }
        self.inputs.push(tensor.clone());
        self
    }

    /// Bind a scalar output and read it back after the run.
    pub fn output_scalar(mut self, name: &str) -> Self {
        self.outputs.push((name.to_string(), Vec::new()));
        self.read = ReadBack::Scalar(name.to_string());
        self
    }

    /// Bind a tensor output with the given per-level storage formats and read
    /// it back after the run.
    pub fn output(mut self, name: &str, specs: &[LevelSpec]) -> Self {
        self.outputs.push((name.to_string(), specs.to_vec()));
        self.read = ReadBack::Tensor(name.to_string());
        self
    }

    /// Read back only execution statistics (no output value), regardless of
    /// which outputs are bound.
    pub fn read_stats(mut self) -> Self {
        self.read = ReadBack::Stats;
        self
    }
}

/// The execution tier a response was served from.  A request falls back
/// to the oracle when the fast tier faults twice (before and after a
/// quarantine recompile); both tiers run at the same optimisation level, so their
/// outputs and [`ExecStats`] are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Bytecode VM with the configured threads, typed dispatch and SIMD.
    Fast,
    /// The tree-walking reference interpreter.
    Oracle,
}

impl Tier {
    /// Both tiers, fastest first — the order the degradation ladder descends.
    pub const ALL: [Tier; 2] = [Tier::Fast, Tier::Oracle];

    /// The tier's position on the ladder (0 = fastest).
    pub fn index(self) -> usize {
        match self {
            Tier::Fast => 0,
            Tier::Oracle => 1,
        }
    }

    /// A short stable label (`fast` / `oracle`).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Oracle => "oracle",
        }
    }
}

/// A successful service response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Execution statistics of the run that produced the result.
    pub stats: ExecStats,
    /// The tier that served the request ([`Tier::Fast`] unless the request
    /// was degraded by faults).
    pub tier: Tier,
    /// Whether the request was served from a cached compiled kernel.
    pub cache_hit: bool,
    /// The scalar output, when the request asked for [`ReadBack::Scalar`].
    pub scalar: Option<f64>,
    /// The tensor output, when the request asked for [`ReadBack::Tensor`].
    pub tensor: Option<Tensor>,
    /// How long the request waited in the admission queue before an
    /// execution slot freed ([`Duration::ZERO`] on fast-path admission).
    pub queue_wait: Duration,
}

/// Where a [`FaultRule`] strikes in the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectPoint {
    /// At cache lookup, before the entry runs (pairs with
    /// [`FaultKind::PoisonEntry`]).
    Lookup,
    /// After inputs are rebound, immediately before execution.
    PreRun,
    /// Mid-execution, with output buffers mid-append (via
    /// [`Watch::with_fault_at_stmt`]).
    MidRun,
    /// After a successful run, before outputs are read back.
    PostRun,
}

/// What kind of fault a [`FaultRule`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A genuine `panic!`, exercising `catch_unwind` isolation and the
    /// degradation ladder.
    Panic,
    /// Step-budget exhaustion: the attempt runs with a budget of 1.
    BudgetExhaustion,
    /// Deadline expiry: the attempt runs with its cancellation flag already
    /// raised.
    DeadlineExpiry,
    /// Mark the cache entry poisoned, exercising quarantine + recompile.
    PoisonEntry,
    /// Deterministically hold the execution slot: the attempt blocks on the
    /// service's stall gate until [`KernelService::release_stalls`], the
    /// request's deadline, or a drain cancellation.  The sleep-free way for
    /// tests to pin `in_flight` while exercising queueing and drain.
    Stall,
}

/// One injected fault: strikes the `request`-th request to reach execution
/// (starting at 0) at the given point.  Requests turned away before they
/// execute — invalid input, admission, an open breaker under
/// [`BreakerPolicy::Reject`], a failed compile — draw no index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Which request (0-based execution index) the fault strikes.
    pub request: u64,
    /// Where in the lifecycle it strikes.
    pub point: InjectPoint,
    /// What kind of fault it is.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan.  Rules are consumed (removed) as
/// they fire: at most one non-lookup rule per execution attempt, so stacking
/// several rules on one request walks it down the degradation ladder.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a rule.
    pub fn push(&mut self, rule: FaultRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Number of rules not yet fired.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules remain.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// A reproducible plan: each of the first `requests` requests is faulted
    /// with probability `permille`/1000, with the point and kind drawn from a
    /// seeded LCG.  The same `(seed, requests, permille)` always produces the
    /// same plan.
    pub fn seeded(seed: u64, requests: u64, permille: u32) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for request in 0..requests {
            let x = next();
            if (x >> 33) % 1000 >= u64::from(permille.min(1000)) {
                continue;
            }
            let point = match (x >> 13) % 4 {
                0 => InjectPoint::Lookup,
                1 => InjectPoint::PreRun,
                2 => InjectPoint::MidRun,
                _ => InjectPoint::PostRun,
            };
            let kind = if point == InjectPoint::Lookup {
                FaultKind::PoisonEntry
            } else {
                match (x >> 23) % 3 {
                    0 => FaultKind::Panic,
                    1 => FaultKind::BudgetExhaustion,
                    _ => FaultKind::DeadlineExpiry,
                }
            };
            plan.push(FaultRule { request, point, kind });
            // Occasionally stack a second panic on the same request so the
            // fast-tier retry also faults and the request degrades to the
            // oracle (a single rule is always absorbed by the retry).
            if kind == FaultKind::Panic && next() % 4 == 0 {
                plan.push(FaultRule {
                    request,
                    point: InjectPoint::PreRun,
                    kind: FaultKind::Panic,
                });
            }
        }
        plan
    }

    /// Remove and return the first rule for `request`, filtered to lookup
    /// rules (`lookup == true`) or execution rules (`lookup == false`).
    fn take(&mut self, request: u64, lookup: bool) -> Option<FaultRule> {
        let pos = self
            .rules
            .iter()
            .position(|r| r.request == request && (r.point == InjectPoint::Lookup) == lookup)?;
        Some(self.rules.remove(pos))
    }
}

/// A snapshot of the service's counters (see [`KernelService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests submitted (including shed and invalid ones).
    pub requests: u64,
    /// Requests rejected by admission control (in-flight limit and queue
    /// both full).
    pub shed: u64,
    /// Requests that had to wait in the admission queue before admission.
    pub queued: u64,
    /// Requests whose deadline expired while waiting in the admission queue.
    pub queue_timeouts: u64,
    /// Times a circuit breaker opened (threshold crossings and failed
    /// half-open probes).
    pub breaker_opens: u64,
    /// Requests short-circuited by an open breaker (degraded to the oracle
    /// tier or rejected, per [`BreakerPolicy`]).
    pub breaker_short_circuits: u64,
    /// Structural groups formed by [`KernelService::submit_batch`] (each
    /// group checks out its cache entry once).
    pub batch_groups: u64,
    /// Requests served from a cached compiled kernel.
    pub hits: u64,
    /// Requests that required compilation.
    pub misses: u64,
    /// Kernel compilations performed.
    pub compiles: u64,
    /// Recompilations of quarantined entries.
    pub recompiles: u64,
    /// Times an entry was quarantined (poisoned) pending recompile.
    pub quarantined: u64,
    /// Cache entries evicted (LRU pressure or condemned after faults).
    pub evictions: u64,
    /// Panics caught (compile- or run-time).
    pub panics: u64,
    /// Requests that failed with [`RuntimeError::Deadline`].
    pub deadline_errors: u64,
    /// Requests that failed with [`RuntimeError::StepBudgetExceeded`].
    pub budget_errors: u64,
    /// Requests that failed with [`RuntimeError::AllocBudgetExceeded`].
    pub alloc_errors: u64,
    /// Successful responses per tier, indexed by [`Tier::index`].
    pub served_by_tier: [u64; 2],
    /// Faults observed per tier, indexed by [`Tier::index`].
    pub faults_by_tier: [u64; 2],
}

#[derive(Default)]
struct AtomicStats {
    requests: AtomicU64,
    shed: AtomicU64,
    queued: AtomicU64,
    queue_timeouts: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_short_circuits: AtomicU64,
    batch_groups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    recompiles: AtomicU64,
    quarantined: AtomicU64,
    evictions: AtomicU64,
    panics: AtomicU64,
    deadline_errors: AtomicU64,
    budget_errors: AtomicU64,
    alloc_errors: AtomicU64,
    served_by_tier: [AtomicU64; 2],
    faults_by_tier: [AtomicU64; 2],
}

impl AtomicStats {
    fn snapshot(&self) -> ServiceStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceStats {
            requests: get(&self.requests),
            shed: get(&self.shed),
            queued: get(&self.queued),
            queue_timeouts: get(&self.queue_timeouts),
            breaker_opens: get(&self.breaker_opens),
            breaker_short_circuits: get(&self.breaker_short_circuits),
            batch_groups: get(&self.batch_groups),
            hits: get(&self.hits),
            misses: get(&self.misses),
            compiles: get(&self.compiles),
            recompiles: get(&self.recompiles),
            quarantined: get(&self.quarantined),
            evictions: get(&self.evictions),
            panics: get(&self.panics),
            deadline_errors: get(&self.deadline_errors),
            budget_errors: get(&self.budget_errors),
            alloc_errors: get(&self.alloc_errors),
            served_by_tier: std::array::from_fn(|i| get(&self.served_by_tier[i])),
            faults_by_tier: std::array::from_fn(|i| get(&self.faults_by_tier[i])),
        }
    }
}

/// Two-lane FNV-style streaming hasher: 128 bits of key material make
/// accidental collisions negligible, and a full structural check on every hit
/// makes even a deliberate collision harmless (it falls back to an uncached
/// compile).
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher { a: 0xcbf2_9ce4_8422_2325, b: 0x9e37_79b9_7f4a_7c15 }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ u64::from(x)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(27);
    }

    fn bytes(&mut self, s: &[u8]) {
        for &x in s {
            self.byte(x);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn finish(&self) -> (u64, u64) {
        (self.a, self.b)
    }
}

impl fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// The structural identity of an input, kept for hit verification.
struct InputSig {
    name: String,
    levels: Vec<(&'static str, usize)>,
    fill_bits: u64,
}

/// Everything a cache key hashes, stored in full so hits can be verified
/// structurally (a hash collision must not serve the wrong kernel).
struct KeyCheck {
    program: String,
    inputs: Vec<InputSig>,
    outputs: Vec<(String, Vec<LevelSpec>)>,
}

impl KeyCheck {
    fn of(req: &Request) -> Self {
        let mut program = String::new();
        let _ = write!(program, "{}", req.program);
        KeyCheck {
            program,
            inputs: req
                .inputs
                .iter()
                .map(|t| InputSig {
                    name: t.name().to_string(),
                    levels: t.levels().iter().map(|l| (l.format_name(), l.size())).collect(),
                    fill_bits: t.fill().to_bits(),
                })
                .collect(),
            outputs: req.outputs.clone(),
        }
    }

    /// Whether `req` (whose program renders to `program`) is structurally the
    /// kernel this entry was compiled for.
    fn matches(&self, program: &str, req: &Request) -> bool {
        if self.program != program {
            return false;
        }
        if self.inputs.len() != req.inputs.len() || self.outputs.len() != req.outputs.len() {
            return false;
        }
        for (sig, t) in self.inputs.iter().zip(&req.inputs) {
            if sig.name != t.name()
                || sig.fill_bits != t.fill().to_bits()
                || sig.levels.len() != t.levels().len()
            {
                return false;
            }
            for (&(fmt_name, size), level) in sig.levels.iter().zip(t.levels()) {
                if fmt_name != level.format_name() || size != level.size() {
                    return false;
                }
            }
        }
        self.outputs.iter().zip(&req.outputs).all(|((n, s), (rn, rs))| n == rn && s == rs)
    }
}

/// One cached kernel: the fast-tier compiled kernel plus the lazily-derived
/// oracle variant, quarantine state, and LRU bookkeeping.
struct Entry {
    base: CompiledKernel,
    oracle: Option<CompiledKernel>,
    check: KeyCheck,
    poisoned: bool,
    last_used: u64,
}

enum SlotState {
    /// The entry is checked out by a request (or still compiling); other
    /// requests for the same key wait on the service condvar.
    Busy,
    /// The entry is available.
    Ready(Box<Entry>),
}

struct CacheInner {
    slots: HashMap<(u64, u64), SlotState>,
    tick: u64,
    /// Reusable render buffer for hit verification, so steady-state cache
    /// hits do not allocate.
    scratch: String,
}

enum AttemptOutcome {
    Ok(Response),
    Typed(RuntimeError),
    Fault(String),
}

/// A long-lived, fault-isolated compiled-kernel cache (see the module docs).
///
/// The service is `Sync`: submit requests from many threads through a shared
/// reference.  Requests for *different* kernels run concurrently; requests
/// for the *same* kernel serialise on its cache slot.
pub struct KernelService {
    cfg: ServiceConfig,
    inner: Mutex<CacheInner>,
    cond: Condvar,
    queue: AdmissionQueue,
    breakers: BreakerBoard,
    /// Raised by an overrun [`KernelService::drain`]; threaded into every
    /// run's cooperative watch so in-flight work aborts with a typed error.
    drain_cancel: Arc<AtomicBool>,
    /// The gate [`FaultKind::Stall`] attempts block on.
    stall: Mutex<StallGate>,
    stall_cond: Condvar,
    next_request: AtomicU64,
    faults: Mutex<FaultPlan>,
    stats: AtomicStats,
}

#[derive(Default)]
struct StallGate {
    released: bool,
    stalled: usize,
}

/// The outcome of a [`KernelService::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// How long the drain took from call to completion.
    pub waited: Duration,
    /// Whether the drain deadline passed and in-flight work was cancelled
    /// through its cooperative watch.
    pub cancelled: bool,
    /// The service state after the drain (always [`ServiceState::Stopped`]).
    pub state: ServiceState,
}

/// A point-in-time health snapshot (see [`KernelService::health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// The lifecycle state.
    pub state: ServiceState,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Requests admitted and executing.
    pub in_flight: usize,
    /// Ready (cached, not checked-out) kernels.
    pub cached: usize,
    /// Circuit breakers in the closed state.
    pub breakers_closed: usize,
    /// Circuit breakers in the open state.
    pub breakers_open: usize,
    /// Circuit breakers half-open (a probe in flight).
    pub breakers_half_open: usize,
    /// Successful responses per tier, indexed by [`Tier::index`].
    pub served_by_tier: [u64; 2],
    /// Faults observed per tier, indexed by [`Tier::index`].
    pub faults_by_tier: [u64; 2],
}

impl Default for KernelService {
    fn default() -> Self {
        KernelService::new(ServiceConfig::default())
    }
}

impl KernelService {
    /// A service with the given configuration and an empty cache.
    pub fn new(cfg: ServiceConfig) -> Self {
        let queue = AdmissionQueue::new(cfg.max_in_flight, cfg.queue_depth);
        let breakers = BreakerBoard::new(cfg.breaker_threshold, cfg.breaker_cooldown);
        KernelService {
            cfg,
            inner: Mutex::new(CacheInner {
                slots: HashMap::new(),
                tick: 0,
                scratch: String::new(),
            }),
            cond: Condvar::new(),
            queue,
            breakers,
            drain_cancel: Arc::new(AtomicBool::new(false)),
            stall: Mutex::new(StallGate::default()),
            stall_cond: Condvar::new(),
            next_request: AtomicU64::new(0),
            faults: Mutex::new(FaultPlan::new()),
            stats: AtomicStats::default(),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }

    /// Number of ready (cached, not checked-out) kernels.
    pub fn cached(&self) -> usize {
        let inner = self.lock_inner();
        inner.slots.values().filter(|s| matches!(s, SlotState::Ready(_))).count()
    }

    /// Install a fault-injection plan, replacing any previous one.
    pub fn install_faults(&self, plan: FaultPlan) {
        *self.faults.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }

    /// Number of installed fault rules that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.faults.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Execute a request: validate its inputs, admit it (queueing up to its
    /// deadline when saturated), consult the structure's circuit breaker,
    /// look up or compile the kernel, rebind the inputs, run (descending
    /// the degradation ladder on faults), and read back the requested
    /// output.
    pub fn submit(&self, req: &Request) -> Result<Response, ServiceError> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Some((name, detail)) = &req.invalid {
            return Err(ServiceError::InvalidInput { name: name.clone(), detail: detail.clone() });
        }
        let deadline = self.request_deadline();
        let permit = self.admit(deadline)?;
        let key = self.key_of(req);
        let mut result = [None];
        self.serve_group(std::slice::from_ref(req), key, &[0], deadline, &permit, &mut result);
        let [result] = result;
        result.expect("the request resolved")
    }

    /// Execute a slice of requests under **one** admission permit, grouped
    /// by structural hash: each group checks its cache entry out once and
    /// rebinds the member requests serially against it, amortising the
    /// lookup (and any compile) across the group.
    ///
    /// Outcomes are per-request and order-preserving: `result[i]` belongs
    /// to `reqs[i]`.  An admission rejection (overload, queue timeout,
    /// shutdown) applies to the whole batch — every slot gets the same
    /// typed error.
    pub fn submit_batch(&self, reqs: &[Request]) -> Vec<Result<Response, ServiceError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        self.stats.requests.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let deadline = self.request_deadline();
        let permit = match self.admit(deadline) {
            Ok(p) => p,
            Err(err) => return reqs.iter().map(|_| Err(err.clone())).collect(),
        };

        // Group indices by key, preserving first-seen order.
        let mut results: Vec<Option<Result<Response, ServiceError>>> = vec![None; reqs.len()];
        let mut groups: Vec<((u64, u64), Vec<usize>)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            if let Some((name, detail)) = &req.invalid {
                results[i] = Some(Err(ServiceError::InvalidInput {
                    name: name.clone(),
                    detail: detail.clone(),
                }));
                continue;
            }
            let key = self.key_of(req);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        self.stats.batch_groups.fetch_add(groups.len() as u64, Ordering::Relaxed);

        for (key, idxs) in groups {
            self.serve_group(reqs, key, &idxs, deadline, &permit, &mut results);
        }
        drop(permit);
        results.into_iter().map(|r| r.expect("every request resolved")).collect()
    }

    /// Serve one structural group against a single checkout: the breaker,
    /// cache, and ladder path shared by `submit` (a one-request group) and
    /// `submit_batch`.  Each member draws its fault-plan request index just
    /// before it executes.
    fn serve_group(
        &self,
        reqs: &[Request],
        key: (u64, u64),
        idxs: &[usize],
        deadline: Option<(Instant, u64)>,
        permit: &Permit<'_>,
        results: &mut [Option<Result<Response, ServiceError>>],
    ) {
        let first = idxs[0];
        let (tier_start, probe, short_circuited) = match self.breaker_gate(key) {
            Ok(gate) => gate,
            Err(err) => {
                for &i in idxs {
                    results[i] = Some(Err(err.clone()));
                }
                return;
            }
        };
        let (mut entry, cache_hit, cached) = match self.checkout(key, &reqs[first], deadline) {
            Ok(x) => x,
            Err(err) => {
                if probe {
                    self.breakers.abort_probe(key);
                }
                for &i in idxs {
                    results[i] = Some(Err(err.clone()));
                }
                return;
            }
        };
        let mut evict_any = false;
        let mut group_faults = 0u32;
        for &i in idxs {
            let rid = self.next_request.fetch_add(1, Ordering::SeqCst);
            // Members after the first rebind against the group's entry: a
            // cache hit whatever the checkout was.
            let hit = cache_hit || i != first;
            if i != first {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
            }
            let (result, evict, faults) =
                self.execute(&mut entry, &reqs[i], deadline, rid, hit, tier_start);
            evict_any |= evict;
            group_faults += faults;
            results[i] = Some(result.map(|mut resp| {
                resp.queue_wait = permit.waited;
                resp
            }));
        }
        if cached {
            self.checkin(key, entry, evict_any);
        }
        if !short_circuited && self.breakers.record(key, group_faults, probe) {
            self.stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consult `key`'s circuit breaker.  Returns the starting tier,
    /// whether this request is the half-open probe, and whether it was
    /// short-circuited (skip breaker recording); or the typed rejection
    /// under [`BreakerPolicy::Reject`].
    fn breaker_gate(&self, key: (u64, u64)) -> Result<(Tier, bool, bool), ServiceError> {
        match self.breakers.admit(key) {
            BreakerDecision::Allow { probe } => Ok((Tier::Fast, probe, false)),
            BreakerDecision::ShortCircuit { consecutive_faults, cooldown_ms } => {
                self.stats.breaker_short_circuits.fetch_add(1, Ordering::Relaxed);
                match self.cfg.breaker_policy {
                    BreakerPolicy::Reject => {
                        Err(ServiceError::CircuitOpen { consecutive_faults, cooldown_ms })
                    }
                    BreakerPolicy::Degrade => Ok((Tier::Oracle, false, true)),
                }
            }
        }
    }

    fn request_deadline(&self) -> Option<(Instant, u64)> {
        self.cfg.deadline.map(|d| (Instant::now() + d, (d.as_millis() as u64).max(1)))
    }

    /// Acquire an admission permit, mapping queue rejections to their typed
    /// service errors and keeping the queue counters.
    fn admit(&self, deadline: Option<(Instant, u64)>) -> Result<Permit<'_>, ServiceError> {
        match self.queue.acquire(deadline.map(|(dl, _)| dl)) {
            Ok(permit) => {
                if permit.was_queued {
                    self.stats.queued.fetch_add(1, Ordering::Relaxed);
                }
                Ok(permit)
            }
            Err(AdmitError::Overloaded { in_flight, limit, queued }) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded { in_flight, limit, queued })
            }
            Err(AdmitError::QueueTimeout { waited_ms, depth }) => {
                self.stats.queue_timeouts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::QueueTimeout { waited_ms, depth })
            }
            Err(AdmitError::ShuttingDown { state }) => Err(ServiceError::ShuttingDown { state }),
        }
    }

    /// The service's lifecycle state.
    pub fn state(&self) -> ServiceState {
        self.queue.snapshot().0
    }

    /// Gracefully drain the service: stop admitting work (new submissions
    /// fail with [`ServiceError::ShuttingDown`], queued waiters are woken
    /// out the same way) and wait for in-flight requests to resolve.  Once
    /// `deadline` passes, the remaining runs are cancelled through their
    /// cooperative watch — they resolve with a typed deadline error, never
    /// a stuck thread.  The service ends [`ServiceState::Stopped`];
    /// [`KernelService::resume`] re-opens it.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let (waited, cancelled) = self.queue.drain(deadline, &self.drain_cancel);
        DrainReport { waited, cancelled, state: self.state() }
    }

    /// Accept work again after a [`KernelService::drain`].
    pub fn resume(&self) {
        self.drain_cancel.store(false, Ordering::SeqCst);
        self.queue.resume();
    }

    /// A point-in-time health snapshot: lifecycle state, queue depth,
    /// in-flight count, cache size, breaker states, and per-tier counters.
    pub fn health(&self) -> HealthSnapshot {
        let (state, queued, in_flight) = self.queue.snapshot();
        let (breakers_closed, breakers_open, breakers_half_open) = self.breakers.counts();
        let stats = self.stats.snapshot();
        HealthSnapshot {
            state,
            queued,
            in_flight,
            cached: self.cached(),
            breakers_closed,
            breakers_open,
            breakers_half_open,
            served_by_tier: stats.served_by_tier,
            faults_by_tier: stats.faults_by_tier,
        }
    }

    /// Release every attempt blocked on [`FaultKind::Stall`], now and in
    /// the future (the gate stays open for the service's lifetime).
    pub fn release_stalls(&self) {
        let mut gate = self.stall.lock().unwrap_or_else(|e| e.into_inner());
        gate.released = true;
        drop(gate);
        self.stall_cond.notify_all();
    }

    /// Number of attempts currently blocked on [`FaultKind::Stall`].
    pub fn stalled(&self) -> usize {
        self.stall.lock().unwrap_or_else(|e| e.into_inner()).stalled
    }

    /// Block a [`FaultKind::Stall`] attempt until the gate opens, the
    /// request's deadline passes, or a drain cancels it (the latter two
    /// resolve the attempt with the typed deadline error).
    fn stall_until_released(&self, deadline: Option<(Instant, u64)>) -> Option<RuntimeError> {
        let mut gate = self.stall.lock().unwrap_or_else(|e| e.into_inner());
        gate.stalled += 1;
        let outcome = loop {
            if gate.released {
                break None;
            }
            if self.drain_cancel.load(Ordering::SeqCst) {
                break Some(RuntimeError::Deadline { ms: deadline.map_or(0, |(_, ms)| ms) });
            }
            if let Some((dl, ms)) = deadline {
                if Instant::now() >= dl {
                    break Some(RuntimeError::Deadline { ms });
                }
            }
            gate = self
                .stall_cond
                .wait_timeout(gate, Duration::from_millis(5))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        gate.stalled -= 1;
        outcome
    }

    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn key_of(&self, req: &Request) -> (u64, u64) {
        let mut h = KeyHasher::new();
        let _ = write!(h, "{}", req.program);
        h.byte(0xfe);
        for t in &req.inputs {
            h.bytes(t.name().as_bytes());
            h.byte(0);
            for level in t.levels() {
                h.bytes(level.format_name().as_bytes());
                h.word(level.size() as u64);
            }
            h.word(t.fill().to_bits());
            h.byte(1);
        }
        for (name, specs) in &req.outputs {
            h.bytes(name.as_bytes());
            h.byte(0);
            for spec in specs {
                h.bytes(spec.format_name().as_bytes());
                h.word(spec.size() as u64);
            }
            h.byte(2);
        }
        h.finish()
    }

    /// Obtain the entry for `key`: a verified cached entry, a freshly
    /// compiled one (inserted as `Busy` while compiling), or — on a verified
    /// hash collision — an uncached one-shot compile.  Returns the entry plus
    /// `(cache_hit, cached)` flags; `cached == false` means the entry does
    /// not own the slot and must not be checked back in.
    fn checkout(
        &self,
        key: (u64, u64),
        req: &Request,
        deadline: Option<(Instant, u64)>,
    ) -> Result<(Box<Entry>, bool, bool), ServiceError> {
        let mut inner = self.lock_inner();
        loop {
            if let Some((dl, ms)) = deadline {
                if Instant::now() >= dl {
                    self.stats.deadline_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::Runtime(RuntimeError::Deadline { ms }));
                }
            }
            match inner.slots.get(&key) {
                None => {
                    inner.slots.insert(key, SlotState::Busy);
                    drop(inner);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return match self.compile_entry(req) {
                        Ok(entry) => Ok((Box::new(entry), false, true)),
                        Err(err) => {
                            self.lock_inner().slots.remove(&key);
                            self.cond.notify_all();
                            Err(err)
                        }
                    };
                }
                Some(SlotState::Busy) => {
                    inner = match deadline {
                        Some((dl, _)) => {
                            let wait = dl.saturating_duration_since(Instant::now());
                            self.cond.wait_timeout(inner, wait).unwrap_or_else(|e| e.into_inner()).0
                        }
                        None => self.cond.wait(inner).unwrap_or_else(|e| e.into_inner()),
                    };
                }
                Some(SlotState::Ready(_)) => {
                    let mut scratch = std::mem::take(&mut inner.scratch);
                    scratch.clear();
                    let _ = write!(scratch, "{}", req.program);
                    let matched = match inner.slots.get(&key) {
                        Some(SlotState::Ready(entry)) => entry.check.matches(&scratch, req),
                        _ => false,
                    };
                    inner.scratch = scratch;
                    if matched {
                        let Some(SlotState::Ready(entry)) =
                            inner.slots.insert(key, SlotState::Busy)
                        else {
                            unreachable!("slot was Ready above");
                        };
                        drop(inner);
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((entry, true, true));
                    }
                    // Hash collision with a structurally different kernel:
                    // serve this request from a one-shot uncached compile.
                    drop(inner);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return self.compile_entry(req).map(|e| (Box::new(e), false, false));
                }
            }
        }
    }

    fn compile_entry(&self, req: &Request) -> Result<Entry, ServiceError> {
        self.stats.compiles.fetch_add(1, Ordering::Relaxed);
        let built = catch_unwind(AssertUnwindSafe(|| self.build_kernel(req)));
        let base = match built {
            Ok(Ok(kernel)) => kernel,
            Ok(Err(err)) => return Err(ServiceError::Compile(err)),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Faulted {
                    attempts: 0,
                    detail: format!("panic during compilation: {}", panic_message(&payload)),
                });
            }
        };
        Ok(Entry { base, oracle: None, check: KeyCheck::of(req), poisoned: false, last_used: 0 })
    }

    fn build_kernel(&self, req: &Request) -> Result<CompiledKernel, CompileError> {
        let mut kernel =
            Kernel::new().with_threads(self.cfg.threads).with_validation(self.cfg.validation);
        for tensor in &req.inputs {
            kernel.bind_input(tensor);
        }
        for (name, specs) in &req.outputs {
            if specs.is_empty() {
                kernel.bind_output_scalar(name);
            } else {
                kernel.bind_output_format(name, specs);
            }
        }
        kernel.compile(&req.program)
    }

    /// Run the entry for `req` on the fast tier — quarantining,
    /// recompiling, and retrying it once after a fault — then on the oracle
    /// if the retry faults too.  A short-circuited structure starts at
    /// `tier_start == Tier::Oracle`.  Returns the outcome, whether the
    /// entry is condemned (must be evicted instead of checked back in), and
    /// the number of tier-faults observed (the breaker's input).
    fn execute(
        &self,
        entry: &mut Entry,
        req: &Request,
        deadline: Option<(Instant, u64)>,
        rid: u64,
        cache_hit: bool,
        tier_start: Tier,
    ) -> (Result<Response, ServiceError>, bool, u32) {
        let mut faults = 0u32;
        // Lookup-point faults poison the entry before it serves.
        if let Some(rule) = self.take_fault(rid, true) {
            if rule.kind == FaultKind::PoisonEntry {
                entry.poisoned = true;
            }
        }
        if entry.poisoned {
            self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
            if let Err(err) = self.backoff(rid, deadline) {
                // Out of deadline before the quarantine retry: leave the
                // entry poisoned for the next request to recompile.
                self.count_runtime(&err);
                return (Err(ServiceError::Runtime(err)), false, faults);
            }
            match self.recompile_base(entry) {
                Ok(()) => entry.poisoned = false,
                Err(detail) => {
                    return (Err(ServiceError::Faulted { attempts: 1, detail }), true, 1);
                }
            }
        }

        let mut attempts = 0u32;
        let mut evict = false;
        if tier_start == Tier::Fast {
            for retried in [false, true] {
                attempts += 1;
                match self.run_tier(entry, Tier::Fast, req, deadline, rid, cache_hit) {
                    Ok(result) => return (result, evict, faults),
                    Err(_) => faults += 1,
                }
                if retried {
                    // The retry faulted too: condemn the entry.
                    evict = true;
                    break;
                }
                // Quarantine: recompile once with backoff, retry the fast
                // tier.
                entry.poisoned = true;
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                if let Err(err) = self.backoff(rid, deadline) {
                    self.count_runtime(&err);
                    return (Err(ServiceError::Runtime(err)), false, faults);
                }
                if self.recompile_base(entry).is_err() {
                    faults += 1;
                    evict = true;
                    break;
                }
                entry.poisoned = false;
            }
        }
        attempts += 1;
        match self.run_tier(entry, Tier::Oracle, req, deadline, rid, cache_hit) {
            Ok(result) => (result, evict, faults),
            // The oracle's fault detail supersedes the fast tier's.
            Err(detail) => (Err(ServiceError::Faulted { attempts, detail }), true, faults + 1),
        }
    }

    /// One attempt at `tier` with the request's next injected fault, if
    /// any.  `Ok` carries the final outcome — a response or a typed
    /// runtime error, both counted; `Err` carries the detail of a caught
    /// fault, counted against the tier.
    fn run_tier(
        &self,
        entry: &mut Entry,
        tier: Tier,
        req: &Request,
        deadline: Option<(Instant, u64)>,
        rid: u64,
        cache_hit: bool,
    ) -> Result<Result<Response, ServiceError>, String> {
        let injected = self.take_fault(rid, false);
        match self.attempt(entry, tier, req, deadline, injected, cache_hit) {
            AttemptOutcome::Ok(resp) => {
                self.stats.served_by_tier[tier.index()].fetch_add(1, Ordering::Relaxed);
                Ok(Ok(resp))
            }
            AttemptOutcome::Typed(err) => {
                self.count_runtime(&err);
                Ok(Err(ServiceError::Runtime(err)))
            }
            AttemptOutcome::Fault(detail) => {
                self.stats.faults_by_tier[tier.index()].fetch_add(1, Ordering::Relaxed);
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                Err(detail)
            }
        }
    }

    /// The quarantine backoff, capped by the request's remaining deadline
    /// and jittered by a seeded per-request LCG draw so concurrent retries
    /// do not stampede the recompile path in lockstep.
    ///
    /// Sleeps somewhere in `[retry_backoff / 2, retry_backoff]`, never past
    /// the deadline; a request already past its deadline gets the typed
    /// error back immediately instead of sleeping through it.
    fn backoff(&self, rid: u64, deadline: Option<(Instant, u64)>) -> Result<(), RuntimeError> {
        let base = self.cfg.retry_backoff;
        let mut wait = if base.is_zero() {
            Duration::ZERO
        } else {
            // One LCG step over the request id: deterministic per request,
            // decorrelated across requests.  Same constants as the seeded
            // fault plan.
            let draw = (rid ^ 0x9e37_79b9_7f4a_7c15)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let frac = (draw >> 33) as f64 / (1u64 << 31) as f64;
            Duration::from_nanos((base.as_nanos() as f64 * (0.5 + 0.5 * frac)) as u64)
        };
        if let Some((dl, ms)) = deadline {
            let remaining = dl.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RuntimeError::Deadline { ms });
            }
            wait = wait.min(remaining);
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        Ok(())
    }

    fn recompile_base(&self, entry: &mut Entry) -> Result<(), String> {
        self.stats.recompiles.fetch_add(1, Ordering::Relaxed);
        let rebuilt =
            catch_unwind(AssertUnwindSafe(|| entry.base.reoptimized(entry.base.opt_level())));
        match rebuilt {
            Ok(kernel) => {
                entry.base = kernel;
                Ok(())
            }
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                Err(format!("panic during recompilation: {}", panic_message(&payload)))
            }
        }
    }

    /// The kernel for a tier.  The oracle is derived lazily from the
    /// fast-tier kernel at the same optimisation level (so results stay
    /// bit-identical).
    fn tier_kernel(entry: &mut Entry, tier: Tier) -> &mut CompiledKernel {
        match tier {
            Tier::Fast => &mut entry.base,
            Tier::Oracle => entry.oracle.get_or_insert_with(|| {
                let opt = entry.base.opt_level();
                entry
                    .base
                    .reoptimized_simd(opt, false, false)
                    .with_threads(1)
                    .with_engine(Engine::TreeWalk)
            }),
        }
    }

    /// One execution attempt at one tier, with any injected fault applied.
    /// Everything — variant derivation, rebinding, the run itself, readback —
    /// happens inside `catch_unwind`, so a panic anywhere degrades instead of
    /// crashing the service.
    fn attempt(
        &self,
        entry: &mut Entry,
        tier: Tier,
        req: &Request,
        deadline: Option<(Instant, u64)>,
        injected: Option<FaultRule>,
        cache_hit: bool,
    ) -> AttemptOutcome {
        let mut step_budget = self.cfg.step_budget;
        let mut fault_stmt = None;
        let mut pre_panic = false;
        let mut post_panic = false;
        let mut cancelled = false;
        if let Some(rule) = injected {
            match rule.kind {
                FaultKind::Panic => match rule.point {
                    InjectPoint::PreRun => pre_panic = true,
                    InjectPoint::PostRun => post_panic = true,
                    _ => fault_stmt = Some(2),
                },
                FaultKind::BudgetExhaustion => {
                    step_budget = Some(step_budget.map_or(1, |b| b.min(1)))
                }
                FaultKind::DeadlineExpiry => cancelled = true,
                FaultKind::PoisonEntry => {} // handled at lookup
                FaultKind::Stall => {
                    // Park on the stall gate before running.  Released by
                    // `release_stalls`, or converted into the typed deadline
                    // error when the request's deadline (or a drain cancel)
                    // fires first.
                    if let Some(err) = self.stall_until_released(deadline) {
                        return AttemptOutcome::Typed(err);
                    }
                }
            }
        }
        // Every run carries a watch wired to the drain-cancel flag, so a
        // drain past its deadline can cut in-flight work off at the next
        // statement boundary with a typed error.
        let mut watch = match deadline {
            Some((dl, dl_ms)) => Watch::until(dl, dl_ms).with_cancel(self.drain_cancel.clone()),
            None => Watch::cancelled_by(self.drain_cancel.clone(), 0),
        };
        if cancelled {
            // An injected expiry pre-raises a private cancel flag (replacing
            // the drain flag) so only this request trips.
            watch = watch.with_cancel(Arc::new(AtomicBool::new(true)));
        }
        if let Some(at) = fault_stmt {
            watch = watch.with_fault_at_stmt(at);
        }
        let watch = Some(watch);
        let alloc_budget = self.cfg.alloc_budget;

        let ran = catch_unwind(AssertUnwindSafe(
            || -> Result<(ExecStats, Option<f64>, Option<Tensor>), RuntimeError> {
                let kernel = Self::tier_kernel(entry, tier);
                for tensor in &req.inputs {
                    kernel.rebind_input(tensor)?;
                }
                match step_budget {
                    Some(b) => kernel.set_step_budget(b),
                    None => kernel.clear_step_budget(),
                };
                kernel.set_watch(watch.clone());
                kernel.set_alloc_budget(alloc_budget);
                if pre_panic {
                    panic!("injected fault: panic before execution");
                }
                let stats = kernel.run()?;
                if post_panic {
                    panic!("injected fault: panic after execution");
                }
                let (scalar, tensor) = match &req.read {
                    ReadBack::Stats => (None, None),
                    ReadBack::Scalar(name) => (Some(kernel.output_scalar(name)?), None),
                    ReadBack::Tensor(name) => (None, Some(kernel.output_tensor(name)?)),
                };
                Ok((stats, scalar, tensor))
            },
        ));
        match ran {
            Ok(Ok((stats, scalar, tensor))) => AttemptOutcome::Ok(Response {
                stats,
                tier,
                cache_hit,
                queue_wait: Duration::ZERO,
                scalar,
                tensor,
            }),
            Ok(Err(err)) => AttemptOutcome::Typed(err),
            Err(payload) => {
                AttemptOutcome::Fault(format!("{} tier: {}", tier.label(), panic_message(&payload)))
            }
        }
    }

    fn take_fault(&self, rid: u64, lookup: bool) -> Option<FaultRule> {
        self.faults.lock().unwrap_or_else(|e| e.into_inner()).take(rid, lookup)
    }

    fn count_runtime(&self, err: &RuntimeError) {
        match err {
            RuntimeError::Deadline { .. } => {
                self.stats.deadline_errors.fetch_add(1, Ordering::Relaxed);
            }
            RuntimeError::StepBudgetExceeded { .. } => {
                self.stats.budget_errors.fetch_add(1, Ordering::Relaxed);
            }
            RuntimeError::AllocBudgetExceeded { .. } => {
                self.stats.alloc_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Return a checked-out entry to the cache (or evict it), then apply LRU
    /// pressure and wake slot waiters.
    fn checkin(&self, key: (u64, u64), mut entry: Box<Entry>, evict: bool) {
        let mut inner = self.lock_inner();
        if evict {
            inner.slots.remove(&key);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.tick += 1;
            entry.last_used = inner.tick;
            inner.slots.insert(key, SlotState::Ready(entry));
            let capacity = self.cfg.capacity.max(1);
            loop {
                let ready =
                    inner.slots.values().filter(|s| matches!(s, SlotState::Ready(_))).count();
                if ready <= capacity {
                    break;
                }
                let victim = inner
                    .slots
                    .iter()
                    .filter_map(|(k, s)| match s {
                        SlotState::Ready(e) if *k != key => Some((*k, e.last_used)),
                        _ => None,
                    })
                    .min_by_key(|&(_, used)| used)
                    .map(|(k, _)| k);
                match victim {
                    Some(vk) => {
                        inner.slots.remove(&vk);
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        drop(inner);
        self.cond.notify_all();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch_cin::build::*;
    use finch_formats::Level;

    fn dot_request(a: &Tensor, b: &Tensor) -> Request {
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access(a.name(), [i.clone()]), access(b.name(), [i]))),
        );
        Request::new(program).input(a).input(b).output_scalar("C")
    }

    fn dense_pair(n: usize, scale: f64) -> (Tensor, Tensor) {
        let av: Vec<f64> = (0..n).map(|k| scale * (k as f64 + 1.0)).collect();
        let bv: Vec<f64> = (0..n).map(|k| 0.5 * (k as f64) - 1.0).collect();
        (Tensor::dense_vector("A", &av), Tensor::dense_vector("B", &bv))
    }

    fn sparse_pair(n: usize) -> (Tensor, Tensor) {
        let av: Vec<f64> = (0..n).map(|k| if k % 3 == 0 { k as f64 + 1.0 } else { 0.0 }).collect();
        let bv: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 2.0 } else { 0.0 }).collect();
        (Tensor::sparse_list_vector("A", &av), Tensor::sparse_list_vector("B", &bv))
    }

    #[test]
    fn structurally_identical_requests_share_one_kernel() {
        let svc = KernelService::default();
        let (a1, b1) = dense_pair(16, 1.0);
        let r1 = svc.submit(&dot_request(&a1, &b1)).unwrap();
        assert!(!r1.cache_hit);

        // Independently rebuilt program, same structure, different data.
        let (a2, b2) = dense_pair(16, -3.0);
        let r2 = svc.submit(&dot_request(&a2, &b2)).unwrap();
        assert!(r2.cache_hit);
        let expected: f64 = a2.values().iter().zip(b2.values()).map(|(x, y)| x * y).sum();
        assert_eq!(r2.scalar.unwrap().to_bits(), expected.to_bits());

        let stats = svc.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.compiles, 1);
        assert_eq!(svc.cached(), 1);
    }

    #[test]
    fn differing_structure_or_flags_miss() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        // Same program, sparse input formats: a different kernel.
        let (sa, sb) = sparse_pair(16);
        svc.submit(&dot_request(&sa, &sb)).unwrap();

        // Same inputs, different output format request.
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        svc.submit(
            &Request::new(program)
                .input(&a)
                .input(&b)
                .output("C", &[LevelSpec::Dense { size: 16 }]),
        )
        .unwrap();

        let stats = svc.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.compiles, 3);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cfg = ServiceConfig { capacity: 2, ..ServiceConfig::default() };
        let svc = KernelService::new(cfg);
        let (da, db) = dense_pair(8, 1.0);
        let (sa, sb) = sparse_pair(8);
        let (wa, wb) = dense_pair(24, 1.0);

        svc.submit(&dot_request(&da, &db)).unwrap(); // dense in cache
        svc.submit(&dot_request(&sa, &sb)).unwrap(); // sparse in cache
        svc.submit(&dot_request(&da, &db)).unwrap(); // dense now most recent
        svc.submit(&dot_request(&wa, &wb)).unwrap(); // evicts sparse (LRU)
        assert_eq!(svc.cached(), 2);
        assert_eq!(svc.stats().evictions, 1);

        let r = svc.submit(&dot_request(&da, &db)).unwrap();
        assert!(r.cache_hit, "dense survived eviction");
        let r = svc.submit(&dot_request(&sa, &sb)).unwrap();
        assert!(!r.cache_hit, "sparse was evicted");
    }

    #[test]
    fn cache_hits_are_pointer_stable() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(32, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        let ptrs = |svc: &KernelService| -> (*const f64, *const f64) {
            let inner = svc.lock_inner();
            let entry = inner
                .slots
                .values()
                .find_map(|s| match s {
                    SlotState::Ready(e) => Some(e),
                    SlotState::Busy => None,
                })
                .expect("one cached entry");
            let bufs = entry.base.buffers();
            let a_val = bufs.lookup("A_val").expect("input values buffer");
            let c_val = bufs.lookup("C_val").expect("output values buffer");
            (bufs.get(a_val).as_f64().unwrap().as_ptr(), bufs.get(c_val).as_f64().unwrap().as_ptr())
        };
        let before = ptrs(&svc);
        for scale in [2.0, -7.0, 0.25] {
            let (a2, b2) = dense_pair(32, scale);
            let r = svc.submit(&dot_request(&a2, &b2)).unwrap();
            assert!(r.cache_hit);
        }
        let after = ptrs(&svc);
        assert_eq!(before, after, "cache-hit reruns must not reallocate buffers");
    }

    #[test]
    fn fault_ladder_degrades_with_bit_identical_results() {
        let (a, b) = sparse_pair(64);
        let expected = {
            let svc = KernelService::default();
            svc.submit(&dot_request(&a, &b)).unwrap().scalar.unwrap()
        };

        // k injected panics walk the ladder: 1 → fast (after quarantine +
        // recompile), 2 → oracle, 3 → typed Faulted error.  Every served
        // tier returns the identical scalar.
        let expect_tier = [Tier::Fast, Tier::Oracle];
        let points = [InjectPoint::PreRun, InjectPoint::MidRun, InjectPoint::PostRun];
        for k in 1..=3u64 {
            let svc = KernelService::default();
            svc.submit(&dot_request(&a, &b)).unwrap(); // warm: rid 0
            let mut plan = FaultPlan::new();
            for p in 0..k {
                plan.push(FaultRule {
                    request: 1,
                    point: points[p as usize],
                    kind: FaultKind::Panic,
                });
            }
            svc.install_faults(plan);
            let result = svc.submit(&dot_request(&a, &b));
            let stats = svc.stats();
            if k <= 2 {
                let resp = result.unwrap();
                assert_eq!(resp.tier, expect_tier[k as usize - 1], "k = {k}");
                assert_eq!(
                    resp.scalar.unwrap().to_bits(),
                    expected.to_bits(),
                    "degraded result must be bit-identical (k = {k})"
                );
            } else {
                match result {
                    Err(ServiceError::Faulted { attempts, .. }) => assert_eq!(attempts, 3),
                    other => panic!("expected Faulted, got {other:?}"),
                }
            }
            assert_eq!(svc.pending_faults(), 0, "all {k} rules fired");
            assert_eq!(stats.panics, k, "every injected panic was caught");
            let faults: u64 = stats.faults_by_tier.iter().sum();
            assert_eq!(faults, k);
            // One quarantine + recompile as soon as the fast tier faults.
            assert_eq!(stats.quarantined, 1);
            assert_eq!(stats.recompiles, 1);
        }
    }

    #[test]
    fn poisoned_entry_is_quarantined_and_recompiled() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        let baseline = svc.submit(&dot_request(&a, &b)).unwrap().scalar.unwrap();

        let mut plan = FaultPlan::new();
        plan.push(FaultRule {
            request: 1,
            point: InjectPoint::Lookup,
            kind: FaultKind::PoisonEntry,
        });
        svc.install_faults(plan);
        let resp = svc.submit(&dot_request(&a, &b)).unwrap();
        assert_eq!(resp.scalar.unwrap().to_bits(), baseline.to_bits());
        assert_eq!(resp.tier, Tier::Fast);
        let stats = svc.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.recompiles, 1);
    }

    #[test]
    fn injected_resource_faults_yield_typed_errors() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        let mut plan = FaultPlan::new();
        plan.push(FaultRule {
            request: 1,
            point: InjectPoint::MidRun,
            kind: FaultKind::BudgetExhaustion,
        });
        plan.push(FaultRule {
            request: 2,
            point: InjectPoint::PreRun,
            kind: FaultKind::DeadlineExpiry,
        });
        svc.install_faults(plan);

        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::Runtime(RuntimeError::StepBudgetExceeded { budget: 1 })) => {}
            other => panic!("expected step-budget error, got {other:?}"),
        }
        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.budget_errors, 1);
        assert_eq!(stats.deadline_errors, 1);
        // Resource errors don't poison the entry: the next plain request
        // still hits and succeeds.
        let resp = svc.submit(&dot_request(&a, &b)).unwrap();
        assert!(resp.cache_hit);
        assert_eq!(resp.tier, Tier::Fast);
    }

    #[test]
    fn admission_control_sheds_typed_overload() {
        let cfg = ServiceConfig { max_in_flight: 0, ..ServiceConfig::default() };
        let svc = KernelService::new(cfg);
        let (a, b) = dense_pair(8, 1.0);
        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::Overloaded { limit: 0, .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.stats().shed, 1);
    }

    #[test]
    fn compile_errors_are_typed_and_do_not_wedge_the_slot() {
        let svc = KernelService::default();
        let (a, _) = dense_pair(8, 1.0);
        let i = idx("i");
        // References an unbound tensor "Z".
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access("A", [i.clone()]), access("Z", [i]))),
        );
        let req = Request::new(program).input(&a).output_scalar("C");
        assert!(matches!(svc.submit(&req), Err(ServiceError::Compile(_))));
        // The Busy marker was removed: resubmitting fails the same way
        // instead of deadlocking on the slot.
        assert!(matches!(svc.submit(&req), Err(ServiceError::Compile(_))));
        assert_eq!(svc.cached(), 0);
    }

    #[test]
    fn seeded_fault_plans_are_reproducible() {
        let p1 = FaultPlan::seeded(42, 500, 250);
        let p2 = FaultPlan::seeded(42, 500, 250);
        assert_eq!(p1.rules, p2.rules);
        assert!(!p1.is_empty());
        // Roughly a quarter of requests faulted; exact count is seeded.
        assert!(p1.len() > 50 && p1.len() < 250, "got {}", p1.len());
        let p3 = FaultPlan::seeded(43, 500, 250);
        assert_ne!(p1.rules, p3.rules);
        assert_eq!(FaultPlan::seeded(7, 100, 0).len(), 0);
        // At full rate every request gets at least one rule (panics may
        // stack a second).
        assert!(FaultPlan::seeded(7, 100, 1000).len() >= 100);
    }

    #[test]
    fn deadline_covers_queueing_on_a_busy_slot() {
        use std::sync::atomic::AtomicBool;

        let cfg =
            ServiceConfig { deadline: Some(Duration::from_millis(30)), ..ServiceConfig::default() };
        let svc = Arc::new(KernelService::new(cfg));
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        // Check out the only entry by hand so the slot stays Busy, then
        // submit from another thread: it must time out with Deadline rather
        // than wait forever.
        let req = dot_request(&a, &b);
        let key = svc.key_of(&req);
        let (entry, hit, cached) = svc.checkout(key, &req, None).unwrap();
        assert!(hit && cached);

        let done = Arc::new(AtomicBool::new(false));
        let waiter = {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            let req = dot_request(&a, &b);
            std::thread::spawn(move || {
                let out = svc.submit(&req);
                done.store(true, Ordering::SeqCst);
                out
            })
        };
        let out = waiter.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        match out {
            Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
            other => panic!("expected Deadline while queued, got {other:?}"),
        }
        svc.checkin(key, entry, false);
        // Slot is usable again.
        assert!(svc.submit(&dot_request(&a, &b)).unwrap().cache_hit);
    }

    #[test]
    fn batches_group_by_structure_and_preserve_order() {
        let svc = KernelService::default();
        let (da, db) = dense_pair(16, 1.0);
        let (da2, db2) = dense_pair(16, -2.0);
        let (sa, sb) = sparse_pair(16);
        let bad = Tensor::from_raw_parts(
            "A",
            vec![
                Level::Dense { size: 2 },
                Level::SparseList { size: 5, pos: vec![0, 3, 1], idx: vec![1, 2, 4] },
            ],
            vec![1.0, 2.0, 3.0],
            0.0,
        );
        let i = idx("i");
        let j = idx("j");
        let bad_req = Request::new(forall(
            i.clone(),
            forall(j.clone(), add_assign(scalar("C"), access("A", [i, j]))),
        ))
        .input(&bad)
        .output_scalar("C");

        let reqs = vec![
            dot_request(&da, &db),   // dense group, compiles
            dot_request(&sa, &sb),   // sparse group, compiles
            dot_request(&da2, &db2), // dense group, rebinds
            bad_req,                 // rejected at the boundary
        ];
        let results = svc.submit_batch(&reqs);
        assert_eq!(results.len(), 4);
        let expect_dense = |scale: f64| -> f64 {
            (0..16).map(|k| scale * (k as f64 + 1.0) * (0.5 * k as f64 - 1.0)).sum()
        };
        assert_eq!(results[0].as_ref().unwrap().scalar.unwrap().to_bits(), {
            expect_dense(1.0).to_bits()
        });
        assert!(!results[0].as_ref().unwrap().cache_hit);
        assert!(!results[1].as_ref().unwrap().cache_hit);
        assert_eq!(results[2].as_ref().unwrap().scalar.unwrap().to_bits(), {
            expect_dense(-2.0).to_bits()
        });
        assert!(results[2].as_ref().unwrap().cache_hit, "group member rebinds the shared entry");
        match &results[3] {
            Err(ServiceError::InvalidInput { name, .. }) => assert_eq!(name, "A"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        let stats = svc.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batch_groups, 2, "dense and sparse structures form two groups");
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn an_empty_batch_is_a_no_op() {
        let svc = KernelService::default();
        assert!(svc.submit_batch(&[]).is_empty());
        assert_eq!(svc.stats().requests, 0);
    }

    #[test]
    fn saturated_admission_queues_instead_of_shedding() {
        let cfg = ServiceConfig { max_in_flight: 1, queue_depth: 8, ..ServiceConfig::default() };
        let svc = Arc::new(KernelService::new(cfg));
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap(); // warm: rid 0

        // rid 1 stalls inside its slot, keeping the service saturated.
        let mut plan = FaultPlan::new();
        plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Stall });
        svc.install_faults(plan);
        let stalled = {
            let svc = Arc::clone(&svc);
            let req = dot_request(&a, &b);
            std::thread::spawn(move || svc.submit(&req))
        };
        while svc.stalled() == 0 {
            std::thread::yield_now();
        }

        // The next request queues behind the stalled one instead of being
        // shed, and completes once the stall releases.
        let queued = {
            let svc = Arc::clone(&svc);
            let req = dot_request(&a, &b);
            std::thread::spawn(move || svc.submit(&req))
        };
        while svc.health().queued == 0 {
            std::thread::yield_now();
        }
        svc.release_stalls();
        assert!(stalled.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
        let stats = svc.stats();
        assert_eq!(stats.shed, 0, "saturation queued rather than shed");
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.queue_timeouts, 0);
    }

    #[test]
    fn quarantine_backoff_is_capped_by_the_deadline() {
        // A huge retry backoff with a tiny deadline: the quarantine path
        // must not sleep through the deadline.
        let cfg = ServiceConfig {
            retry_backoff: Duration::from_secs(10),
            deadline: Some(Duration::from_millis(50)),
            ..ServiceConfig::default()
        };
        let svc = KernelService::new(cfg);
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap(); // warm: rid 0

        let mut plan = FaultPlan::new();
        plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
        svc.install_faults(plan);
        let started = Instant::now();
        let result = svc.submit(&dot_request(&a, &b));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "backoff slept {elapsed:?}, ignoring the 50ms deadline"
        );
        // The retry may finish inside the deadline's last statement-check
        // window or trip it; both are typed, neither hangs.
        match result {
            Ok(resp) => assert_eq!(resp.tier, Tier::Fast),
            Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
            other => panic!("expected Ok or Deadline, got {other:?}"),
        }
    }

    #[test]
    fn queue_timeout_is_attributed_to_the_queue_not_execution() {
        let cfg = ServiceConfig {
            max_in_flight: 1,
            queue_depth: 4,
            deadline: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        };
        let svc = KernelService::new(cfg);
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        // Hold the only execution slot directly: the next submit spends its
        // entire deadline in the admission queue and must say so.
        let slot = svc.queue.acquire(None).unwrap();
        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::QueueTimeout { waited_ms, .. }) => assert!(waited_ms >= 15),
            other => panic!("expected QueueTimeout, got {other:?}"),
        }
        drop(slot);
        let stats = svc.stats();
        assert_eq!(stats.queue_timeouts, 1);
        assert_eq!(stats.deadline_errors, 0, "the expiry was queue-, not execution-attributed");
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn invalid_inputs_are_rejected_at_the_boundary() {
        let svc = KernelService::default();
        let bad = Tensor::from_raw_parts(
            "A",
            vec![Level::SparseList { size: 4, pos: vec![0, 3], idx: vec![2, 1, 3] }],
            vec![1.0, 2.0, 3.0],
            0.0,
        );
        let i = idx("i");
        let req = Request::new(forall(i.clone(), add_assign(scalar("C"), access("A", [i]))))
            .input(&bad)
            .output_scalar("C");
        match svc.submit(&req) {
            Err(ServiceError::InvalidInput { name, detail }) => {
                assert_eq!(name, "A");
                assert!(!detail.is_empty());
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // Nothing was admitted, compiled, or cached for the bad request.
        let stats = svc.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.compiles, 0);
        assert_eq!(svc.cached(), 0);
    }
}
