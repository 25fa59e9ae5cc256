//! Shared helpers for the integration tests: kernel builders for the
//! paper's benchmarks, and tolerant float comparison.
#![allow(dead_code)]

use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    CompiledKernel, Engine, IndexExpr, IndexVar, Kernel, OptLevel, Protocol, Tensor,
};

/// Run a compiled kernel on both execution engines and panic unless the
/// outputs **and** the `ExecStats` work counters are bit-identical (the
/// bytecode VM is differential-tested against the tree-walking oracle).
pub fn assert_engine_parity(kernel: &mut CompiledKernel, what: &str) {
    let tw_stats = kernel.run_with(Engine::TreeWalk).expect("tree-walk runs");
    let tw_outs: Vec<(String, Vec<u64>)> = kernel
        .output_names()
        .into_iter()
        .map(|n| {
            let bits = kernel.output(&n).unwrap().iter().map(|x| x.to_bits()).collect();
            (n, bits)
        })
        .collect();
    let bc_stats = kernel.run_with(Engine::Bytecode).expect("bytecode runs");
    assert_eq!(tw_stats, bc_stats, "{what}: work counters diverge");
    for (name, tw_bits) in tw_outs {
        let bc_bits: Vec<u64> = kernel.output(&name).unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(tw_bits, bc_bits, "{what}: output {name} is not bit-identical");
    }
}

/// Differential-test a kernel across every [`OptLevel`], both engines,
/// **and** both dispatch modes of the bytecode engine (typed and
/// generic): outputs must be bit-identical for every combination, at each
/// level the two engines must agree on the `ExecStats` work counters
/// exactly, and at each level typed and generic dispatch must agree on
/// both outputs and counters exactly (the typing stage is a 1:1 rewrite —
/// it may not change any counter).  (The counters may legitimately
/// *shrink* as the level rises — that is what the optimiser is for — so
/// they are only compared across engines and dispatch modes, never across
/// levels.)
pub fn assert_opt_level_parity(kernel: &CompiledKernel, what: &str) {
    /// Bit-patterns of every output, keyed by output name.
    type OutputBits = Vec<(String, Vec<u64>)>;
    let mut reference: Option<OutputBits> = None;
    for level in OptLevel::all() {
        let mut per_dispatch: Vec<(bool, looplets_repro::finch::ExecStats, OutputBits)> =
            Vec::new();
        for typed in [true, false] {
            let mut k = kernel.reoptimized_simd(level, typed, kernel.simd());
            assert_eq!(k.opt_level(), level);
            assert_eq!(k.typed_dispatch(), typed);
            assert_engine_parity(&mut k, &format!("{what} at {level} (typed={typed})"));
            let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
            let outs: Vec<(String, Vec<u64>)> = k
                .output_names()
                .into_iter()
                .map(|n| {
                    let bits = k.output(&n).unwrap().iter().map(|x| x.to_bits()).collect();
                    (n, bits)
                })
                .collect();
            per_dispatch.push((typed, stats, outs));
        }
        let (_, typed_stats, typed_outs) = &per_dispatch[0];
        let (_, generic_stats, generic_outs) = &per_dispatch[1];
        assert_eq!(
            typed_stats, generic_stats,
            "{what} at {level}: typed dispatch changed the work counters"
        );
        assert_eq!(
            typed_outs, generic_outs,
            "{what} at {level}: typed dispatch changed the outputs"
        );
        match &reference {
            None => reference = Some(typed_outs.clone()),
            Some(r) => {
                assert_eq!(r, typed_outs, "{what}: outputs diverge between opt levels at {level}");
            }
        }
    }
}

/// Assert two float slices are element-wise equal within a small tolerance.
pub fn assert_close(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length mismatch");
    for (k, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g - e).abs() < 1e-6 * (1.0 + e.abs()),
            "{what}: element {k} differs: got {g}, expected {e}"
        );
    }
}

/// Compile `C[] += A[i] * B[i]` over the given vectors and protocols.
pub fn dot_kernel(a: &Tensor, b: &Tensor, pa: Protocol, pb: Protocol) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(b).bind_output_scalar("C");
    let i = idx("i");
    let with = |p: Protocol, i: &IndexVar| match p {
        Protocol::Gallop => i.gallop(),
        Protocol::Walk => i.walk(),
        Protocol::Locate => i.locate(),
        Protocol::Default => i.clone().into(),
    };
    let program = forall(
        i.clone(),
        add_assign(
            scalar("C"),
            mul(access(a.name(), [with(pa, &i)]), access(b.name(), [with(pb, &i)])),
        ),
    );
    kernel.compile(&program).expect("dot kernel compiles")
}

/// Compile the paper's SpMSpV kernel `y[i] += A[i,j] * x[j]` with the given
/// protocol on the inner dimension of `A` and on `x`.
pub fn spmspv_kernel(a: &Tensor, x: &Tensor, pa: Protocol, px: Protocol) -> CompiledKernel {
    let mut kernel = Kernel::new();
    let nrows = a.shape()[0];
    kernel.bind_input(a).bind_input(x).bind_output("y", &[nrows], 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let with = |p: Protocol, v: &IndexVar| match p {
        Protocol::Gallop => v.gallop(),
        Protocol::Walk => v.walk(),
        Protocol::Locate => v.locate(),
        Protocol::Default => v.clone().into(),
    };
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(access(a.name(), [i.into(), with(pa, &j)]), access(x.name(), [with(px, &j)])),
            ),
        ),
    );
    kernel.compile(&program).expect("spmspv kernel compiles")
}

/// Compile the triangle counting kernel
/// `C[] += A[i,j] * A2[j,k] * At[i,k]` (the paper transposes the last
/// argument so that every access is concordant).
pub fn triangle_kernel(a: &Tensor, a2: &Tensor, at: &Tensor, gallop: bool) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(a2).bind_input(at).bind_output_scalar("C");
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
                        access(a.name(), [IndexExpr::from(i.clone()), IndexExpr::from(j.clone())]),
                        access(a2.name(), [IndexExpr::from(j), inner(&k)]),
                        access(at.name(), [IndexExpr::from(i), inner(&k)]),
                    ),
                ),
            ),
        ),
    );
    kernel.compile(&program).expect("triangle kernel compiles")
}

/// Compile the alpha-blending kernel
/// `A[i,j] = round(alpha * B[i,j] + beta * C[i,j])`.
pub fn blend_kernel(b: &Tensor, c: &Tensor, alpha: f64, beta: f64) -> CompiledKernel {
    let mut kernel = Kernel::new();
    let shape = b.shape();
    kernel.bind_input(b).bind_input(c).bind_output("A", &shape, 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            assign(
                access("A", [i.clone(), j.clone()]),
                round_u8(add(
                    mul(lit(alpha), access(b.name(), [i.clone(), j.clone()])),
                    mul(lit(beta), access(c.name(), [i, j])),
                )),
            ),
        ),
    );
    kernel.compile(&program).expect("blend kernel compiles")
}

/// Compile the all-pairs image similarity kernel of Figure 11:
///
/// ```text
/// @forall k ij   R[k] += A[k, ij]^2
/// @forall k l    (O[k,l] = sqrt(R[k] + R[l] - 2*o[])) where (@forall ij o[] += A[k,ij] * A2[l,ij])
/// ```
pub fn all_pairs_kernel(a: &Tensor, a2: &Tensor) -> CompiledKernel {
    let n = a.shape()[0];
    let mut kernel = Kernel::new();
    kernel
        .bind_input(a)
        .bind_input(a2)
        .bind_output("R", &[n], 0.0)
        .bind_output("O", &[n, n], 0.0)
        .bind_output_scalar("o");
    let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
    let squares = forall(
        k.clone(),
        forall(
            ij.clone(),
            add_assign(
                access("R", [k.clone()]),
                mul(access(a.name(), [k.clone(), ij.clone()]), access(a.name(), [k.clone(), ij])),
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
                        mul(lit(-2.0), read_scalar("o")),
                    )),
                ),
                forall(
                    ij2.clone(),
                    add_assign(
                        scalar("o"),
                        mul(
                            access(a.name(), [k.clone(), ij2.clone()]),
                            access(a2.name(), [l.clone(), ij2]),
                        ),
                    ),
                ),
            ),
        ),
    );
    let program = multi(vec![squares, pairwise]);
    kernel.compile(&program).expect("all-pairs kernel compiles")
}

/// A zero-dimensional tensor read as an expression (e.g. the `o[]` of the
/// all-pairs kernel).
pub fn read_scalar(name: &str) -> looplets_repro::finch::CinExpr {
    looplets_repro::finch::CinExpr::Access(scalar(name))
}
