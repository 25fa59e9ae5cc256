//! Parallel sharded execution of a compiled bytecode program.
//!
//! [`run_sharded`] drives a program whose [`ShardPlan`]
//! (attached by the `shard` optimization pass) marks top-level counted
//! loops safe to split across worker threads.  Execution walks the
//! instruction stream serially between planned regions; at each region
//! it splits the loop's iteration space `[lo, hi]` into contiguous
//! per-thread row ranges, runs every range on a clone of the VM state
//! against copy-on-role shard buffers, and deterministically stitches
//! the per-shard results back into the master state:
//!
//! - **Partitioned** buffers copy each shard's own element range back —
//!   each element is owned by exactly one shard, so the result is the
//!   serial buffer bit for bit.
//! - **Segment** buffers concatenate per-shard appended suffixes in
//!   shard order, reproducing the serial append order.
//! - **SegmentPos** (fiber-boundary) buffers do the same, shifting each
//!   shard's recorded lengths by the entries earlier shards appended to
//!   the data array.
//! - **Reduction** buffers combine per-shard partial accumulators with
//!   the loop's own associative integer operator, in shard order.
//! - **Private** (iteration-scratch) buffers adopt the last shard's
//!   copy: the analysis proved every iteration fully re-defines them,
//!   so the last shard's final state *is* the serial final state.
//!
//! [`crate::interp::ExecStats`] are summed exactly — every kernel op
//! accounts scalar-equivalent per-iteration work, so regrouping
//! iterations into shards cannot change the totals — and the master VM
//! adopts the last shard's register file (the analysis proved every
//! live register is re-defined by the final iteration, which the last
//! shard ran).  The master's outputs, stats, and registers are
//! therefore bit-identical to a serial [`crate::vm::Vm::run`].
//!
//! **The parallel path is never allowed to be wrong.**  Anything
//! unexpected at runtime — a shard faulting, panicking, or writing a
//! buffer outside its planned roles — discards every shard-local state
//! and re-runs the region serially on the untouched master, faithfully
//! reproducing serial behaviour (including the fault, if any).
//!
//! Worker threads come from a lazily-grown process-wide pool, so
//! repeated kernel runs do not pay thread spawn latency.  Shard `0`
//! always runs on the calling thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

use crate::buffer::{BufId, Buffer, BufferSet, VmBufs};
use crate::bytecode::{Program, ShardRegion, ShardRole};
use crate::error::RuntimeError;
use crate::expr::BinOp;
use crate::vm::{Tag, Vm};

// Test hook: corrupt the shard partition so two shards' row ranges
// overlap.  Used by the mutation-coverage tests to prove the sharded
// witness validation catches a broken plan.
#[cfg(test)]
thread_local! {
    pub(crate) static CORRUPT_PARTITION: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: mpsc::Sender<Job>,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    workers: usize,
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

/// Submit jobs to the process-wide worker pool, growing it first to one
/// worker per job, capped at [`std::thread::available_parallelism`].
/// Worker threads live for the process lifetime.  Jobs beyond the worker
/// count queue; shard jobs never wait on each other, so queueing cannot
/// deadlock.
fn pool_submit(jobs: Vec<Job>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let want = jobs.len().min(cores);
    let pool = POOL.get_or_init(|| {
        let (tx, rx) = mpsc::channel::<Job>();
        Mutex::new(Pool { tx, rx: Arc::new(Mutex::new(rx)), workers: 0 })
    });
    let tx = {
        let mut p = pool.lock().unwrap_or_else(|e| e.into_inner());
        while p.workers < want {
            let rx = Arc::clone(&p.rx);
            std::thread::Builder::new()
                .name(format!("finch-shard-{}", p.workers))
                .spawn(move || loop {
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                })
                .expect("failed to spawn shard worker thread");
            p.workers += 1;
        }
        p.tx.clone()
    };
    for job in jobs {
        tx.send(job).expect("shard worker pool hung up");
    }
}

/// Number of worker threads the process-wide shard pool holds.  The pool
/// never grows past [`std::thread::available_parallelism`].
pub fn pool_workers() -> usize {
    POOL.get().map_or(0, |p| p.lock().unwrap_or_else(|e| e.into_inner()).workers)
}

/// A `Send`-able raw pointer to data the master thread keeps alive (and
/// unmodified) while it blocks on the per-region done channel.  The
/// channel receive provides the happens-before edge back to the master.
struct SharedPtr<T>(*const T);

unsafe impl<T: Sync> Send for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    /// # Safety
    /// The master thread must keep the pointee alive and unmodified
    /// until every worker holding this pointer has finished.
    unsafe fn get(&self) -> &T {
        unsafe { &*self.0 }
    }
}

// ---------------------------------------------------------------------
// Shard buffer views
// ---------------------------------------------------------------------

/// The buffer view one shard executes against: buffers with a planned
/// role are private per-shard copies; everything else reads through to
/// the shared master set.  A write to a buffer *without* a role is
/// unexpected (the plan proved there are none) — it is contained by
/// promoting the buffer to a private copy and flagged, and the master
/// then discards the whole parallel attempt.
struct ShardBufs<'a> {
    shared: &'a BufferSet,
    private: Vec<Option<Buffer>>,
    unexpected_write: bool,
}

impl VmBufs for ShardBufs<'_> {
    #[inline]
    fn get(&self, id: BufId) -> &Buffer {
        match &self.private[id.index()] {
            Some(b) => b,
            None => self.shared.get(id),
        }
    }
    #[inline]
    fn get_mut(&mut self, id: BufId) -> &mut Buffer {
        let slot = &mut self.private[id.index()];
        if slot.is_none() {
            *slot = Some(self.shared.get(id).clone());
            self.unexpected_write = true;
        }
        slot.as_mut().expect("just filled")
    }
    #[inline]
    fn name(&self, id: BufId) -> &str {
        self.shared.name(id)
    }
}

/// The reduction identity of an associative integer operator.
fn reduction_identity(op: BinOp) -> Option<i64> {
    match op {
        BinOp::Add => Some(0),
        BinOp::Min => Some(i64::MAX),
        BinOp::Max => Some(i64::MIN),
        _ => None,
    }
}

/// The element range of a partitioned buffer owned by rows `[a, b]`,
/// clamped to the buffer length.
fn owned_range(len: usize, stride: i64, a: i64, b: i64) -> (usize, usize) {
    let from = (a as i128) * (stride as i128);
    let to = ((b as i128) + 1) * (stride as i128);
    let clamp = |x: i128| -> usize {
        if x <= 0 {
            0
        } else if x >= len as i128 {
            len
        } else {
            x as usize
        }
    };
    (clamp(from), clamp(to))
}

/// Copy elements `[from, to)` of `src` over the same range of `dst`.
/// Both buffers have the same kind and length by construction.
fn copy_range(dst: &mut Buffer, src: &Buffer, from: usize, to: usize) {
    if from >= to {
        return;
    }
    match (dst, src) {
        (Buffer::I64(d), Buffer::I64(s)) => d[from..to].copy_from_slice(&s[from..to]),
        (Buffer::F64(d), Buffer::F64(s)) => d[from..to].copy_from_slice(&s[from..to]),
        (Buffer::U8(d), Buffer::U8(s)) => d[from..to].copy_from_slice(&s[from..to]),
        (Buffer::Bool(d), Buffer::Bool(s)) => d[from..to].copy_from_slice(&s[from..to]),
        _ => debug_assert!(false, "shard buffer kind changed under partitioned copy"),
    }
}

/// A zero-filled buffer of the same kind and length as `like`.
fn zeroed_like(like: &Buffer) -> Buffer {
    match like {
        Buffer::I64(v) => Buffer::I64(vec![0i64; v.len()].into()),
        Buffer::F64(v) => Buffer::F64(vec![0f64; v.len()].into()),
        Buffer::U8(v) => Buffer::U8(vec![0u8; v.len()]),
        Buffer::Bool(v) => Buffer::Bool(vec![false; v.len()]),
    }
}

/// Build one shard's private buffers for the region, or `None` when a
/// role's precondition does not hold at runtime (wrong buffer kind, an
/// out-of-range accumulator index) — the caller then runs serially.
fn build_private(
    shared: &BufferSet,
    region: &ShardRegion,
    a: i64,
    b: i64,
    first: bool,
) -> Option<Vec<Option<Buffer>>> {
    let mut private: Vec<Option<Buffer>> = (0..shared.len()).map(|_| None).collect();
    for (buf, role) in &region.roles {
        if buf.index() >= private.len() {
            return None;
        }
        let master = shared.get(*buf);
        let copy = match *role {
            ShardRole::Partitioned { stride } => {
                if stride < 1 {
                    return None;
                }
                let (from, to) = owned_range(master.len(), stride, a, b);
                let mut fresh = zeroed_like(master);
                copy_range(&mut fresh, master, from, to);
                fresh
            }
            ShardRole::Reduction { index, op } => {
                let identity = reduction_identity(op)?;
                let mut clone = master.clone();
                match &mut clone {
                    Buffer::I64(v) => {
                        let i = usize::try_from(index).ok()?;
                        if i >= v.len() {
                            return None;
                        }
                        if !first {
                            v[i] = identity;
                        }
                    }
                    _ => return None,
                }
                clone
            }
            ShardRole::Segment | ShardRole::SegmentPos { .. } | ShardRole::Private => {
                master.clone()
            }
        };
        private[buf.index()] = Some(copy);
    }
    Some(private)
}

// ---------------------------------------------------------------------
// Region execution
// ---------------------------------------------------------------------

/// What one shard hands back to the master.
struct ShardOut {
    vm: Vm,
    private: Vec<Option<Buffer>>,
    unexpected: bool,
    pc: usize,
}

/// Run one shard: clone the VM, reseed the loop registers to the
/// shard's row range, and execute the region against shard buffers.
fn shard_exec(
    program: &Program,
    shared: &BufferSet,
    region: &ShardRegion,
    base_vm: &Vm,
    a: i64,
    b: i64,
    first: bool,
) -> Result<ShardOut, RuntimeError> {
    let private = match build_private(shared, region, a, b, first) {
        Some(p) => p,
        // Signal "run serially" through the unexpected-write flag.
        None => {
            return Ok(ShardOut {
                vm: base_vm.clone(),
                private: Vec::new(),
                unexpected: true,
                pc: region.start as usize,
            })
        }
    };
    let mut vm = base_vm.clone();
    vm.ints[region.counter.index()] = a;
    vm.ints[region.hi.index()] = b;
    let mut bufs = ShardBufs { shared, private, unexpected_write: false };
    let pc = vm.run_span(program, &mut bufs, region.start as usize, region.end as usize)?;
    Ok(ShardOut { vm, private: bufs.private, unexpected: bufs.unexpected_write, pc })
}

/// Split the inclusive iteration range `[lo, hi]` into `shards`
/// contiguous sub-ranges covering it exactly.
fn partition(lo: i64, hi: i64, shards: usize) -> Vec<(i64, i64)> {
    let trip = (hi as i128) - (lo as i128) + 1;
    debug_assert!(trip >= shards as i128 && shards >= 1);
    let base = trip / shards as i128;
    let rem = (trip % shards as i128) as usize;
    let mut ranges = Vec::with_capacity(shards);
    let mut next = lo as i128;
    for k in 0..shards {
        let size = base + i128::from(k < rem);
        let a = next;
        let b = next + size - 1;
        next = b + 1;
        ranges.push((a as i64, b as i64));
    }
    #[cfg(test)]
    CORRUPT_PARTITION.with(|c| {
        if c.get() && ranges.len() >= 2 {
            // Overlap shard 0 into shard 1's first row: that row runs
            // twice, which the sharded witness validation must catch
            // (duplicated appends / double-counted reductions, and an
            // inflated iteration count in the stats).
            ranges[0].1 = (ranges[0].1 + 1).min(hi);
        }
    });
    ranges
}

/// Run `program` to completion, executing planned shard regions across
/// up to `threads` threads and everything else serially on the calling
/// thread.  With `threads <= 1`, or for a program with an empty
/// [`ShardPlan`], this is exactly [`Vm::run`].
///
/// Outputs, registers, and [`crate::interp::ExecStats`] are
/// bit-identical to the serial run; any runtime surprise inside a shard
/// falls back to serial re-execution of that region.
///
/// # Errors
///
/// Exactly the serial program's own [`RuntimeError`]s: a faulting
/// region is re-run serially so the fault surfaces at the same point
/// with the same master state as `Vm::run`.
pub fn run_sharded(
    vm: &mut Vm,
    program: &Program,
    bufs: &mut BufferSet,
    threads: usize,
) -> Result<(), RuntimeError> {
    let plan = program.shard_plan();
    let code_len = program.code().len();
    if threads <= 1 || plan.is_empty() {
        return vm.run(program, bufs);
    }
    let mut pc = 0usize;
    for region in &plan.regions {
        let start = region.start as usize;
        if pc > start {
            continue; // control already jumped past this region
        }
        if pc < start {
            pc = vm.run_span(program, bufs, pc, start)?;
        }
        if pc != start {
            continue; // control left the straight-line path before the region
        }
        pc = run_region(vm, program, bufs, region, threads)?;
    }
    vm.run_span(program, bufs, pc, code_len)?;
    Ok(())
}

/// Execute one planned region, in parallel when profitable, and leave
/// the master state exactly as a serial execution of the region would.
/// Returns the pc after the region.
fn run_region(
    vm: &mut Vm,
    program: &Program,
    bufs: &mut BufferSet,
    region: &ShardRegion,
    threads: usize,
) -> Result<usize, RuntimeError> {
    let start = region.start as usize;
    let end = region.end as usize;
    let serial = |vm: &mut Vm, bufs: &mut BufferSet| vm.run_span(program, bufs, start, end);

    // The loop bounds live in the counter/hi int lanes; anything else
    // (possible only on hand-built untyped programs) runs serially.
    let cidx = region.counter.index();
    let hidx = region.hi.index();
    if vm.tags[cidx] != Tag::Int || vm.tags[hidx] != Tag::Int {
        return serial(vm, bufs);
    }
    let lo = vm.ints[cidx];
    let hi = vm.ints[hidx];
    let trip = (hi as i128) - (lo as i128) + 1;
    if trip < 2 {
        return serial(vm, bufs);
    }
    let shards = threads.min(trip.min(i128::from(u16::MAX)) as usize);
    let ranges = partition(lo, hi, shards);

    // Fan out shards 1.. to the pool; shard 0 runs here.  The workers
    // only *read* the program, master buffers, and master VM snapshot;
    // the channel receive of every result is the happens-before edge
    // that makes their shard-local state visible to the master.
    let base_vm = vm.clone();
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<Result<ShardOut, RuntimeError>>)>();
    let (outs, failed) = {
        let shared: &BufferSet = &*bufs;
        let jobs: Vec<Job> = ranges
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, &(a, b))| {
                let program = SharedPtr(program as *const Program);
                let shared = SharedPtr(shared as *const BufferSet);
                let base = SharedPtr(&base_vm as *const Vm);
                let region = SharedPtr(region as *const ShardRegion);
                let tx = tx.clone();
                let job: Job = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        // Safety: the master blocks on `rx` for this shard's
                        // result before touching or dropping any pointee.
                        let (program, shared, base, region) =
                            unsafe { (program.get(), shared.get(), base.get(), region.get()) };
                        shard_exec(program, shared, region, base, a, b, false)
                    }));
                    let _ = tx.send((k, out));
                });
                job
            })
            .collect();
        let spawned = jobs.len();
        pool_submit(jobs);

        let first = shard_exec(program, shared, region, &base_vm, ranges[0].0, ranges[0].1, true);

        let mut outs: Vec<Option<ShardOut>> = (0..shards).map(|_| None).collect();
        let mut failed = false;
        match first {
            Ok(out) => outs[0] = Some(out),
            Err(_) => failed = true,
        }
        for _ in 0..spawned {
            match rx.recv() {
                Ok((k, Ok(Ok(out)))) => outs[k] = Some(out),
                Ok((_, Ok(Err(_)))) | Ok((_, Err(_))) => failed = true,
                Err(_) => failed = true,
            }
        }
        (outs, failed)
    };
    drop(rx);

    let ok =
        !failed && outs.iter().all(|o| o.as_ref().is_some_and(|o| !o.unexpected && o.pc == end));
    if !ok {
        // Discard every shard-local state and reproduce serial
        // behaviour (including any fault) on the untouched master.
        return serial(vm, bufs);
    }
    let outs: Vec<ShardOut> = outs.into_iter().map(|o| o.expect("checked above")).collect();
    stitch(vm, bufs, region, &ranges, outs);

    // The serial run checks the step and allocation budgets as it
    // counts; the stitched totals are bit-identical, so re-check them
    // once here.
    if let Some(budget) = vm.step_budget {
        if vm.stats.stmts > budget {
            return Err(RuntimeError::StepBudgetExceeded { budget });
        }
    }
    vm.alloc.check()?;
    Ok(end)
}

/// Deterministically merge per-shard results into the master state.
fn stitch(
    vm: &mut Vm,
    bufs: &mut BufferSet,
    region: &ShardRegion,
    ranges: &[(i64, i64)],
    mut outs: Vec<ShardOut>,
) {
    // Stats: each shard started from the master's counters, so its
    // delta is its own work; regrouping iterations cannot change the
    // per-iteration accounting, so the sum is the serial total.
    let s0 = vm.stats;
    let a0 = vm.alloc.used();
    for out in &outs {
        vm.stats.stmts += out.vm.stats.stmts - s0.stmts;
        vm.stats.loop_iters += out.vm.stats.loop_iters - s0.loop_iters;
        vm.stats.loads += out.vm.stats.loads - s0.loads;
        vm.stats.stores += out.vm.stats.stores - s0.stores;
        vm.stats.searches += out.vm.stats.searches - s0.searches;
        vm.alloc.add_used(out.vm.alloc.used() - a0);
    }

    // Buffers, role by role.
    for (buf, role) in &region.roles {
        match *role {
            ShardRole::Partitioned { stride } => {
                let master = bufs.get_mut(*buf);
                for (out, &(a, b)) in outs.iter().zip(ranges) {
                    let src = out.private[buf.index()].as_ref().expect("role buffer is private");
                    let (from, to) = owned_range(master.len(), stride, a, b);
                    copy_range(master, src, from, to);
                }
            }
            ShardRole::Reduction { index, op } => {
                let i = index as usize;
                let mut acc: Option<i64> = None;
                for out in &outs {
                    let Some(Buffer::I64(v)) = &out.private[buf.index()] else { continue };
                    let x = v[i];
                    acc = Some(match acc {
                        None => x,
                        Some(a) => Vm::int_arith(op, a, x),
                    });
                }
                if let (Some(total), Buffer::I64(v)) = (acc, bufs.get_mut(*buf)) {
                    v[i] = total;
                }
            }
            ShardRole::Segment => {
                let prologue = bufs.get(*buf).len();
                for out in &outs {
                    let src = out.private[buf.index()].as_ref().expect("role buffer is private");
                    append_suffix(bufs.get_mut(*buf), src, prologue, 0);
                }
            }
            ShardRole::SegmentPos { data } => {
                let prologue = bufs.get(*buf).len();
                // Each shard recorded lengths of its *own* data array;
                // shift by everything earlier shards appended to it.
                let data_prologue = bufs.get(data).len();
                let mut offset = 0i64;
                for out in &outs {
                    let src = out.private[buf.index()].as_ref().expect("role buffer is private");
                    append_suffix(bufs.get_mut(*buf), src, prologue, offset);
                    let appended = match &out.private[data.index()] {
                        Some(d) => d.len().saturating_sub(data_prologue) as i64,
                        None => 0,
                    };
                    offset += appended;
                }
            }
            ShardRole::Private => {
                // Every iteration fully re-defines the scratch, so the
                // last shard's copy is the serial final state.
                if let Some(last) = outs.last_mut() {
                    if let Some(b) = last.private[buf.index()].take() {
                        *bufs.get_mut(*buf) = b;
                    }
                }
            }
        }
    }

    // Registers: the last shard ran the final iterations, and the
    // analysis proved every downstream-read register is re-defined by
    // them, so its register file is the serial one.
    let last = outs.pop().expect("at least two shards");
    vm.tags = last.vm.tags;
    vm.ints = last.vm.ints;
    vm.floats = last.vm.floats;
    vm.bools = last.vm.bools;
}

/// Append `src[prologue..]` to `dst`, adding `offset` to integer
/// entries (the fiber-boundary shift; zero for plain segments).
fn append_suffix(dst: &mut Buffer, src: &Buffer, prologue: usize, offset: i64) {
    match (dst, src) {
        (Buffer::I64(d), Buffer::I64(s)) => {
            if offset == 0 {
                d.extend_from_slice(&s[prologue.min(s.len())..]);
            } else {
                for &e in &s[prologue.min(s.len())..] {
                    d.push(e.wrapping_add(offset));
                }
            }
        }
        (Buffer::F64(d), Buffer::F64(s)) => d.extend_from_slice(&s[prologue.min(s.len())..]),
        (Buffer::U8(d), Buffer::U8(s)) => d.extend_from_slice(&s[prologue.min(s.len())..]),
        (Buffer::Bool(d), Buffer::Bool(s)) => d.extend_from_slice(&s[prologue.min(s.len())..]),
        _ => debug_assert!(false, "shard buffer kind changed under segment stitch"),
    }
}
