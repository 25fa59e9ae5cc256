//! The serve workloads: a seeded request trace replayed through
//! `KernelService::submit` by one closed-loop client.
//!
//! A trace draws from *structures* (distinct cache keys: one of three
//! program templates at one vector length) crossed with *instances* (same
//! structure, different values, so they share one cached kernel and take
//! the rebind path).  Structure popularity is Zipf-distributed.  Every
//! response is compared bit-for-bit with an answer the benchmark computes
//! natively for the three templates.

use finch::build::*;
use finch::{LevelSpec, Request, Response, Tensor};

use crate::figures::Class;
use crate::rng::{self, Rng};
use crate::spec::{matches, Out, Spec, Tol};

/// The shape of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct structures.
    pub structures: usize,
    /// Instances per structure.
    pub instances: usize,
    /// Zipf exponent of structure popularity (0 = uniform).
    pub skew: f64,
    /// Kernel-cache capacity.
    pub cache: usize,
    /// Requests per replay of the trace.
    pub requests: usize,
}

/// `serve-zipf`: a skewed trace over a cache that holds most of it.
pub const ZIPF: Shape = Shape { structures: 12, instances: 4, skew: 1.1, cache: 8, requests: 2000 };

/// `serve-cold`: a uniform trace over a cache far smaller than it.
pub const COLD: Shape = Shape { structures: 48, instances: 4, skew: 0.0, cache: 4, requests: 1000 };

/// The template a structure instantiates.
fn template(structure: usize) -> usize {
    structure % 3
}

/// Vector length of a structure.
fn length(structure: usize) -> usize {
    24 + 16 * (structure / 3) + structure % 3
}

/// Raw values of one instance: `a` with 40% nonzeros, `b` with 70%, both
/// of magnitude `0.01..1` and either sign.
pub struct Values {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// The schedule and the raw data of a workload, drawn from the seed.
pub struct TraceData {
    /// The workload shape.
    pub shape: Shape,
    /// Requests as `structure * instances + instance`.
    pub schedule: Vec<usize>,
    /// Values per `structure * instances + instance`.
    pub values: Vec<Values>,
}

impl TraceData {
    /// Draw the schedule and every instance's values from `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Self {
        let weights: Vec<f64> =
            (1..=shape.structures).map(|r| 1.0 / (r as f64).powf(shape.skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // The schedule comes from a fixed stream with stratified draws
        // (request `i` takes its popularity quantile from stratum
        // `order[i]`), so every seed requests the same structures in the
        // same order: the cache sees the same hits and misses, and the
        // seed draws the instance of every request and all the values.
        let mut fixed = Rng::new(0x5EED_7ACE, 100);
        let order = rng::permutation(&mut fixed, shape.requests);
        let mut rng = Rng::new(seed, 100);
        let schedule = order
            .iter()
            .map(|&k| {
                let u = (k as f64 + fixed.unit()) / shape.requests as f64;
                let s = cdf.partition_point(|&c| c < u).min(shape.structures - 1);
                s * shape.instances + rng.range(0, shape.instances)
            })
            .collect();
        let mut values = Vec::new();
        for s in 0..shape.structures {
            for i in 0..shape.instances {
                let mut rng = Rng::new(seed, 1000 + (s * shape.instances + i) as u64);
                let n = length(s);
                let mut draw = |share: usize| -> Vec<f64> {
                    // Nonzeros in [-1, -0.01) and [0.01, 1): never zero.
                    let mut v = rng::counted(&mut rng, n, n * share / 10, 0.01, 1.0);
                    for x in v.iter_mut() {
                        if rng.unit() < 0.5 {
                            *x = -*x;
                        }
                    }
                    v
                };
                let a = draw(4);
                let b = draw(7);
                values.push(Values { a, b });
            }
        }
        TraceData { shape, schedule, values }
    }

    /// The structure of a slot.
    pub fn structure(&self, slot: usize) -> usize {
        slot / self.shape.instances
    }

    /// The native answer for a slot, as a dense array.
    pub fn answer(&self, slot: usize) -> Vec<f64> {
        let Values { a, b } = &self.values[slot];
        match template(self.structure(slot)) {
            // Sparse list · dense: accumulate over A's stored entries in
            // coordinate order, as the coiteration does.
            0 => {
                let mut acc = 0.0;
                for (x, y) in a.iter().zip(b) {
                    if *x != 0.0 {
                        acc += x * y;
                    }
                }
                vec![acc]
            }
            // Dense elementwise product.
            1 => a.iter().zip(b).map(|(x, y)| x * y).collect(),
            // Sparse·sparse intersection: stored where both are.
            _ => a
                .iter()
                .zip(b)
                .map(|(x, y)| if *x != 0.0 && *y != 0.0 { x * y } else { 0.0 })
                .collect(),
        }
    }
}

/// Convert a slot's values into its input tensors.
pub fn tensors(data: &TraceData, slot: usize) -> Vec<Tensor> {
    let Values { a, b } = &data.values[slot];
    match template(data.structure(slot)) {
        0 => vec![Tensor::sparse_list_vector("A", a), Tensor::dense_vector("B", b)],
        1 => vec![Tensor::dense_vector("A", a), Tensor::dense_vector("B", b)],
        _ => vec![Tensor::sparse_list_vector("A", a), Tensor::sparse_list_vector("B", b)],
    }
}

/// The program and output binding of a slot, over its input tensors.
pub fn spec(data: &TraceData, slot: usize, inputs: Vec<Tensor>) -> Spec {
    let s = data.structure(slot);
    let n = length(s);
    let i = idx("i");
    let (program, out) = match template(s) {
        0 => (
            forall(
                i.clone(),
                add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))),
            ),
            Out::Scalar("C".into()),
        ),
        t => (
            forall(
                i.clone(),
                assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
            ),
            Out::Format(
                "C".into(),
                vec![if t == 1 {
                    LevelSpec::Dense { size: n }
                } else {
                    LevelSpec::SparseList { size: n }
                }],
            ),
        ),
    };
    Spec { inputs, outputs: vec![out], program, checked: "C".into() }
}

/// The service request for a slot's spec.
pub fn request(spec: &Spec) -> Request {
    let mut r = Request::new(spec.program.clone());
    for t in &spec.inputs {
        r = r.input(t);
    }
    match &spec.outputs[0] {
        Out::Scalar(name) => r.output_scalar(name),
        Out::Format(name, specs) => r.output(name, specs),
        Out::Dense(name, shape) => r.output(name, &[LevelSpec::Dense { size: shape[0] }]),
    }
}

/// Whether a slot's template reads a scalar back.
pub fn scalar_output(data: &TraceData, slot: usize) -> bool {
    template(data.structure(slot)) == 0
}

/// Looplet (structured inputs) or baseline (dense inputs) for a structure.
pub fn class(structure: usize) -> Class {
    if template(structure) == 1 {
        Class::Baseline
    } else {
        Class::Looplet
    }
}

/// A human-readable structure label.
pub fn label(structure: usize) -> String {
    let t = ["dot list.dense", "mul dense.dense", "mul list.list->list"][template(structure)];
    format!("s{structure:02} {t} n={}", length(structure))
}

/// Whether a response carries exactly the expected answer.
pub fn response_matches(resp: &Response, want: &[f64]) -> bool {
    match (&resp.scalar, &resp.tensor) {
        (Some(s), _) => matches(&[*s], want, Tol::Exact),
        (None, Some(t)) => matches(&t.to_dense(), want, Tol::Exact),
        (None, None) => false,
    }
}
