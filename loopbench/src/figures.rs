//! The `paper-figures` workload: the kernels of the paper's §9 (Figures 1,
//! 7, 8, 9, 10, 11 and the sparse-output figure S), with inputs generated
//! from the workload seed.  Each looplet variant is paired with the
//! comparison variant the paper measures it against (two-finger /
//! iterator-over-nonzeros, dense OpenCV-style, dense output), and every
//! variant is checked against an independent native oracle from
//! `finch_baseline::kernels`.

use std::sync::Arc;

use finch::build::*;
use finch::{CinExpr, IndexExpr, IndexVar, LevelSpec, Protocol, Tensor};
use finch_baseline::kernels;

use crate::rng::{self, Rng};
use crate::spans::{Open, Recorder};
use crate::spec::{Out, Spec, Tol};

/// Which side of the paper's comparison a variant is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The comparison point: two-finger, dense/OpenCV-style, dense output.
    Baseline,
    /// A structured looplet variant.
    Looplet,
}

/// One compiled-kernel variant with its reference answer.
#[derive(Debug, Clone)]
pub struct Variant {
    /// `figNN/<strategy>`.
    pub label: String,
    /// Baseline or looplet.
    pub class: Class,
    /// How to compile it.
    pub spec: Spec,
    /// The checked output's expected value, as a dense array.
    pub want: Arc<Vec<f64>>,
    /// Tolerance against the oracle.
    pub tol: Tol,
}

/// Tolerance against the floating-point oracles: the VM and the native
/// oracle may sum in different orders.
pub const ORACLE_TOL: Tol = Tol::Rel(1e-9);

const FIG01_N: usize = 20_000;
const FIG01_NNZ: usize = 400;
const FIG01_BAND: usize = 400;
const FIG07_N: usize = 128;
const FIG08_N: usize = 96;
const FIG08_EDGES: usize = 4;
const FIG09_SIZE: usize = 40;
const FIG09_K: usize = 5;
const FIG09_NNZ: usize = FIG09_SIZE * FIG09_SIZE / 20;
const FIG10_SIZE: usize = 64;
const FIG11_COUNT: usize = 12;
const FIG11_IMG: usize = 20;
const FIGS_N: usize = 20_000;
const FIGS_NNZ: usize = FIGS_N / 1000;
const FIGS_THRESHOLD: f64 = 5.0;
const BLEND: (f64, f64) = (0.6, 0.4);

/// The raw (dense) inputs of every figure, drawn from the seed.
pub struct Data {
    fig01_a: Vec<f64>,
    fig01_b: Vec<f64>,
    fig07_a: Vec<f64>,
    fig07_x: Vec<f64>,
    fig08_adj: Vec<f64>,
    fig09_grid: Vec<f64>,
    fig09_filter: Vec<f64>,
    fig10_fg: Vec<f64>,
    fig10_bg: Vec<f64>,
    fig11_batch: Vec<f64>,
    figs_a: Vec<f64>,
    figs_b: Vec<f64>,
}

impl Data {
    /// Generate every input from `seed`.
    pub fn generate(seed: u64) -> Self {
        let r = |salt| Rng::new(seed, salt);
        let fig01_a = rng::counted_vector(&mut r(1), FIG01_N, FIG01_NNZ);
        let mut fig01_b = vec![0.0; FIG01_N];
        // The band starts on a bucket boundary of A's stratified nonzeros,
        // so it overlaps the same number of them for every seed.
        let mut band = r(2);
        let start = FIG01_N / 3 / (FIG01_N / FIG01_NNZ) * (FIG01_N / FIG01_NNZ);
        for k in 0..FIG01_BAND {
            fig01_b[start + k] = band.uniform(1.0, 8.0);
        }
        let fig07_a = rng::scientific_matrix(&mut r(3), FIG07_N, 2, 4, 64);
        let fig07_x = rng::counted_vector(&mut r(4), FIG07_N, FIG07_N / 8);
        let fig08_adj = rng::power_law_graph(&mut r(5), FIG08_N, FIG08_EDGES);
        let fig09_grid = rng::sparse_grid(&mut r(6), FIG09_SIZE, FIG09_NNZ);
        let fig09_filter = (0..FIG09_K * FIG09_K).map(|v| 0.5 + (v % 5) as f64 * 0.1).collect();
        let fig10_fg = rng::stroke_image(&mut r(7), FIG10_SIZE, 3);
        let fig10_bg = rng::stroke_image(&mut r(8), FIG10_SIZE, 2);
        let mut img = r(9);
        let fig11_batch =
            (0..FIG11_COUNT).flat_map(|_| rng::blob_image(&mut img, FIG11_IMG)).collect();
        // Every other nonzero of A is above the filter threshold, and B
        // shares every other nonzero of A plus its own scatter, so the
        // filter and the product keep about half of A for every seed.
        let mut figs_a = rng::counted_vector(&mut r(10), FIGS_N, FIGS_NNZ);
        let mut figs_b = rng::counted_vector(&mut r(11), FIGS_N, FIGS_NNZ);
        let mut values = r(12);
        let nonzeros: Vec<usize> = (0..FIGS_N).filter(|&k| figs_a[k] != 0.0).collect();
        for (rank, &k) in nonzeros.iter().enumerate() {
            figs_a[k] = if rank % 2 == 0 {
                values.uniform(FIGS_THRESHOLD + 0.5, 10.0)
            } else {
                values.uniform(0.5, FIGS_THRESHOLD - 0.5)
            };
            if rank % 2 == 1 {
                figs_b[k] = values.uniform(0.25, 7.0);
            }
        }
        Data {
            fig01_a,
            fig01_b,
            fig07_a,
            fig07_x,
            fig08_adj,
            fig09_grid,
            fig09_filter,
            fig10_fg,
            fig10_bg,
            fig11_batch,
            figs_a,
            figs_b,
        }
    }
}

/// The expected outputs, computed by the native oracles.
pub struct Oracles {
    fig01: Arc<Vec<f64>>,
    fig07: Arc<Vec<f64>>,
    fig08: Arc<Vec<f64>>,
    fig09_full: Arc<Vec<f64>>,
    fig09_masked: Arc<Vec<f64>>,
    fig10: Arc<Vec<f64>>,
    fig11: Arc<Vec<f64>>,
    figs_mul: Arc<Vec<f64>>,
    figs_filter: Arc<Vec<f64>>,
}

impl Oracles {
    /// Run every oracle on `d`.
    pub fn compute(d: &Data) -> Self {
        let a = Arc::new;
        let csr = kernels::CsrMatrix::from_dense(FIG08_N, FIG08_N, &d.fig08_adj);
        let m = FIG11_IMG * FIG11_IMG;
        Oracles {
            fig01: a(vec![kernels::dot_dense(&d.fig01_a, &d.fig01_b)]),
            fig07: a(kernels::spmv_dense(FIG07_N, FIG07_N, &d.fig07_a, &d.fig07_x)),
            fig08: a(vec![kernels::triangles_two_finger(&csr).0]),
            fig09_full: a(kernels::conv2d_dense_full(
                FIG09_SIZE,
                FIG09_SIZE,
                &d.fig09_grid,
                FIG09_K,
                &d.fig09_filter,
            )),
            fig09_masked: a(kernels::conv2d_dense_masked(
                FIG09_SIZE,
                FIG09_SIZE,
                &d.fig09_grid,
                FIG09_K,
                &d.fig09_filter,
            )),
            fig10: a(kernels::alpha_blend_dense(&d.fig10_fg, &d.fig10_bg, BLEND.0, BLEND.1)),
            fig11: a(kernels::all_pairs_similarity_dense(FIG11_COUNT, m, &d.fig11_batch)),
            figs_mul: a(d.figs_a.iter().zip(&d.figs_b).map(|(x, y)| x * y).collect()),
            figs_filter: a(d
                .figs_a
                .iter()
                .map(|&v| if v > FIGS_THRESHOLD { v } else { 0.0 })
                .collect()),
        }
    }
}

/// Convert one input into a tensor, recording a `formats.convert` span.
fn convert(rec: &mut Recorder, parent: Option<Open>, f: impl FnOnce() -> Tensor) -> Tensor {
    let span = rec.open("formats.convert", parent, 0);
    let t = f();
    rec.close(span, 1, 0);
    t
}

fn protocol(p: Protocol, v: &IndexVar) -> IndexExpr {
    match p {
        Protocol::Gallop => v.gallop(),
        Protocol::Walk => v.walk(),
        Protocol::Locate => v.locate(),
        Protocol::Default => v.clone().into(),
    }
}

fn variant(label: &str, class: Class, spec: Spec, want: &Arc<Vec<f64>>) -> Variant {
    Variant { label: label.to_string(), class, spec, want: Arc::clone(want), tol: ORACLE_TOL }
}

/// `C[] += A[i] * B[i]`.
fn dot(a: &Tensor, b: &Tensor, pa: Protocol, pb: Protocol) -> Spec {
    let i = idx("i");
    let program = forall(
        i.clone(),
        add_assign(
            scalar("C"),
            mul(access(a.name(), [protocol(pa, &i)]), access(b.name(), [protocol(pb, &i)])),
        ),
    );
    Spec {
        inputs: vec![a.clone(), b.clone()],
        outputs: vec![Out::Scalar("C".into())],
        program,
        checked: "C".into(),
    }
}

/// `y[i] += A[i,j] * x[j]`.
fn spmspv(a: &Tensor, x: &Tensor, pa: Protocol, px: Protocol) -> Spec {
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(
                    access(a.name(), [i.into(), protocol(pa, &j)]),
                    access(x.name(), [protocol(px, &j)]),
                ),
            ),
        ),
    );
    Spec {
        inputs: vec![a.clone(), x.clone()],
        outputs: vec![Out::Dense("y".into(), vec![a.shape()[0]])],
        program,
        checked: "y".into(),
    }
}

/// `C[] += A[i,j] * A2[j,k] * At[i,k]` over a symmetric adjacency matrix.
fn triangles(a: &Tensor, a2: &Tensor, at: &Tensor, gallop: bool) -> Spec {
    let (i, j, k) = (idx("i"), idx("j"), idx("k"));
    let inner = |v: &IndexVar| if gallop { v.gallop() } else { v.walk() };
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            forall(
                k.clone(),
                add_assign(
                    scalar("C"),
                    mul3(
                        access("A", [IndexExpr::from(i.clone()), IndexExpr::from(j.clone())]),
                        access("A2", [IndexExpr::from(j), inner(&k)]),
                        access("At", [IndexExpr::from(i), inner(&k)]),
                    ),
                ),
            ),
        ),
    );
    Spec {
        inputs: vec![a.clone(), a2.clone(), at.clone()],
        outputs: vec![Out::Scalar("C".into())],
        program,
        checked: "C".into(),
    }
}

/// The Figure 9 convolution; `masked` multiplies by `A[i,k] != 0`.
fn conv(a: &Tensor, aw: &Tensor, f: &Tensor, masked: bool) -> Spec {
    let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
    let half = (FIG09_K / 2) as i64;
    let row = j.walk().offset(sub(lit_int(half), CinExpr::Index(i.clone()))).permit();
    let col = l.walk().offset(sub(lit_int(half), CinExpr::Index(k.clone()))).permit();
    let window = coalesce(vec![access("Aw", [row, col]).into(), lit(0.0)]);
    let rhs = if masked {
        mul3(
            nonzero_mask(access("A", [i.clone(), k.clone()])),
            window,
            access("F", [j.clone(), l.clone()]),
        )
    } else {
        mul(window, access("F", [j.clone(), l.clone()]))
    };
    let last = lit_int(FIG09_K as i64 - 1);
    let program = forall(
        i.clone(),
        forall(
            k.clone(),
            forall_in(
                j,
                lit_int(0),
                last.clone(),
                forall_in(l, lit_int(0), last, add_assign(access("C", [i, k]), rhs)),
            ),
        ),
    );
    Spec {
        inputs: vec![a.clone(), aw.clone(), f.clone()],
        outputs: vec![Out::Dense("C".into(), vec![FIG09_SIZE, FIG09_SIZE])],
        program,
        checked: "C".into(),
    }
}

/// `A[i,j] = round_u8(α·B[i,j] + β·C[i,j])`.
fn blend(b: &Tensor, c: &Tensor) -> Spec {
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            assign(
                access("A", [i.clone(), j.clone()]),
                round_u8(add(
                    mul(lit(BLEND.0), access(b.name(), [i.clone(), j.clone()])),
                    mul(lit(BLEND.1), access(c.name(), [i, j])),
                )),
            ),
        ),
    );
    Spec {
        inputs: vec![b.clone(), c.clone()],
        outputs: vec![Out::Dense("A".into(), b.shape())],
        program,
        checked: "A".into(),
    }
}

/// All-pairs Euclidean distances between the rows of `A` (`A2` is the same
/// batch under a second name).
fn all_pairs(a: &Tensor, a2: &Tensor) -> Spec {
    let n = a.shape()[0];
    let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
    let squares = forall(
        k.clone(),
        forall(
            ij.clone(),
            add_assign(
                access("R", [k.clone()]),
                mul(access("A", [k.clone(), ij.clone()]), access("A", [k.clone(), ij])),
            ),
        ),
    );
    let pairwise = forall(
        k.clone(),
        forall(
            l.clone(),
            where_(
                assign(
                    access("O", [k.clone(), l.clone()]),
                    sqrt(add(
                        add(access("R", [k.clone()]), access("R", [l.clone()])),
                        mul(lit(-2.0), CinExpr::Access(scalar("o"))),
                    )),
                ),
                forall(
                    ij2.clone(),
                    add_assign(
                        scalar("o"),
                        mul(access("A", [k.clone(), ij2.clone()]), access("A2", [l.clone(), ij2])),
                    ),
                ),
            ),
        ),
    );
    Spec {
        inputs: vec![a.clone(), a2.clone()],
        outputs: vec![
            Out::Dense("R".into(), vec![n]),
            Out::Dense("O".into(), vec![n, n]),
            Out::Scalar("o".into()),
        ],
        program: multi(vec![squares, pairwise]),
        checked: "O".into(),
    }
}

fn vector_out(name: &str, n: usize, sparse: bool) -> Out {
    if sparse {
        Out::Format(name.into(), vec![LevelSpec::SparseList { size: n }])
    } else {
        Out::Dense(name.into(), vec![n])
    }
}

/// `C[i] = A[i] * B[i]`, dense or sparse-list output.
fn ewise_mul(a: &Tensor, b: &Tensor, sparse_out: bool) -> Spec {
    let i = idx("i");
    let program = forall(
        i.clone(),
        assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
    );
    Spec {
        inputs: vec![a.clone(), b.clone()],
        outputs: vec![vector_out("C", FIGS_N, sparse_out)],
        program,
        checked: "C".into(),
    }
}

/// `C[i] = A[i] where A[i] > t`, dense or sparse-list output.
fn threshold(a: &Tensor, sparse_out: bool) -> Spec {
    let i = idx("i");
    let program = forall(
        i.clone(),
        sieve(
            gt(access("A", [i.clone()]), lit(FIGS_THRESHOLD)),
            assign(access("C", [i.clone()]), access("A", [i])),
        ),
    );
    Spec {
        inputs: vec![a.clone()],
        outputs: vec![vector_out("C", FIGS_N, sparse_out)],
        program,
        checked: "C".into(),
    }
}

/// Build every variant: convert the inputs to their formats (recorded as
/// `formats.convert` spans) and assemble the kernel specs.  Baselines come
/// first in each figure, followed by the looplet variants measured against
/// them; [`pairs`] relies on this order.
pub fn variants(d: &Data, o: &Oracles, rec: &mut Recorder, parent: Option<Open>) -> Vec<Variant> {
    use Class::{Baseline as B, Looplet as L};
    use Protocol::{Default as Def, Gallop, Walk};
    let mut cv = |f: &dyn Fn() -> Tensor| convert(rec, parent, f);
    let mut out = Vec::new();

    let a = cv(&|| Tensor::sparse_list_vector("A", &d.fig01_a));
    let b_list = cv(&|| Tensor::sparse_list_vector("B", &d.fig01_b));
    let b_band = cv(&|| Tensor::band_vector("B", &d.fig01_b));
    out.push(variant("fig01/iterator-over-nonzeros", B, dot(&a, &b_list, Walk, Walk), &o.fig01));
    out.push(variant("fig01/list x band", L, dot(&a, &b_band, Walk, Def), &o.fig01));

    let n = FIG07_N;
    let csr = cv(&|| Tensor::csr_matrix("A", n, n, &d.fig07_a));
    let vbl = cv(&|| Tensor::vbl_matrix("A", n, n, &d.fig07_a));
    let x = cv(&|| Tensor::sparse_list_vector("x", &d.fig07_x));
    out.push(variant("fig07/two-finger", B, spmspv(&csr, &x, Walk, Walk), &o.fig07));
    out.push(variant("fig07/A leads (gallop)", L, spmspv(&csr, &x, Gallop, Walk), &o.fig07));
    out.push(variant("fig07/x leads (gallop)", L, spmspv(&csr, &x, Walk, Gallop), &o.fig07));
    out.push(variant("fig07/gallop both", L, spmspv(&csr, &x, Gallop, Gallop), &o.fig07));
    out.push(variant("fig07/VBL", L, spmspv(&vbl, &x, Walk, Walk), &o.fig07));

    let n = FIG08_N;
    let adj = &d.fig08_adj;
    let a = cv(&|| Tensor::csr_matrix("A", n, n, adj));
    let a2 = cv(&|| Tensor::csr_matrix("A2", n, n, adj));
    // The adjacency matrix is symmetric, so it is its own transpose.
    let at = cv(&|| Tensor::csr_matrix("At", n, n, adj));
    out.push(variant("fig08/two-finger", B, triangles(&a, &a2, &at, false), &o.fig08));
    out.push(variant("fig08/gallop", L, triangles(&a, &a2, &at, true), &o.fig08));

    let s = FIG09_SIZE;
    let f = cv(&|| Tensor::dense_matrix("F", FIG09_K, FIG09_K, &d.fig09_filter));
    let a = cv(&|| Tensor::dense_matrix("A", s, s, &d.fig09_grid));
    let aw = cv(&|| Tensor::dense_matrix("Aw", s, s, &d.fig09_grid));
    out.push(variant("fig09/dense (OpenCV-style)", B, conv(&a, &aw, &f, false), &o.fig09_full));
    let a = cv(&|| Tensor::csr_matrix("A", s, s, &d.fig09_grid));
    let aw = cv(&|| Tensor::csr_matrix("Aw", s, s, &d.fig09_grid));
    out.push(variant("fig09/sparse masked (CSR)", L, conv(&a, &aw, &f, true), &o.fig09_masked));

    let s = FIG10_SIZE;
    let (fg, bg) = (&d.fig10_fg, &d.fig10_bg);
    let b = cv(&|| Tensor::dense_matrix("B", s, s, fg));
    let c = cv(&|| Tensor::dense_matrix("Cimg", s, s, bg));
    out.push(variant("fig10/dense (OpenCV-style)", B, blend(&b, &c), &o.fig10));
    let b = cv(&|| Tensor::csr_matrix("B", s, s, fg));
    let c = cv(&|| Tensor::csr_matrix("Cimg", s, s, bg));
    out.push(variant("fig10/sparse list", L, blend(&b, &c), &o.fig10));
    let b = cv(&|| Tensor::rle_matrix("B", s, s, fg));
    let c = cv(&|| Tensor::rle_matrix("Cimg", s, s, bg));
    out.push(variant("fig10/run-length", L, blend(&b, &c), &o.fig10));

    let (n, m) = (FIG11_COUNT, FIG11_IMG * FIG11_IMG);
    let batch = &d.fig11_batch;
    let a = cv(&|| Tensor::dense_matrix("A", n, m, batch));
    let a2 = cv(&|| Tensor::dense_matrix("A2", n, m, batch));
    out.push(variant("fig11/dense", B, all_pairs(&a, &a2), &o.fig11));
    let a = cv(&|| Tensor::csr_matrix("A", n, m, batch));
    let a2 = cv(&|| Tensor::csr_matrix("A2", n, m, batch));
    out.push(variant("fig11/sparse list", L, all_pairs(&a, &a2), &o.fig11));
    let a = cv(&|| Tensor::vbl_matrix("A", n, m, batch));
    let a2 = cv(&|| Tensor::vbl_matrix("A2", n, m, batch));
    out.push(variant("fig11/VBL", L, all_pairs(&a, &a2), &o.fig11));
    let a = cv(&|| Tensor::rle_matrix("A", n, m, batch));
    let a2 = cv(&|| Tensor::rle_matrix("A2", n, m, batch));
    out.push(variant("fig11/run-length", L, all_pairs(&a, &a2), &o.fig11));

    let a = cv(&|| Tensor::sparse_list_vector("A", &d.figs_a));
    let b = cv(&|| Tensor::sparse_list_vector("B", &d.figs_b));
    out.push(variant("figS/multiply, dense output", B, ewise_mul(&a, &b, false), &o.figs_mul));
    out.push(variant("figS/multiply, sparse output", L, ewise_mul(&a, &b, true), &o.figs_mul));
    out.push(variant("figS/filter, dense output", B, threshold(&a, false), &o.figs_filter));
    out.push(variant("figS/filter, sparse output", L, threshold(&a, true), &o.figs_filter));
    out
}

/// `(baseline, looplet)` index pairs: each looplet kernel against the
/// baseline that precedes it in its figure (for figS, its own group).
pub fn pairs(classes: &[Class]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut base = None;
    for (k, c) in classes.iter().enumerate() {
        match (c, base) {
            (Class::Baseline, _) => base = Some(k),
            (Class::Looplet, Some(b)) => out.push((b, k)),
            (Class::Looplet, None) => {}
        }
    }
    out
}
