//! Property-based tests: for arbitrary data, every format stores the data
//! faithfully and every compiled coiteration agrees with a dense oracle.

mod common;

use common::{assert_engine_parity, assert_opt_level_parity, dot_kernel, spmspv_kernel};
use looplets_repro::baseline::kernels::{dot_dense, spmv_dense};
use looplets_repro::finch::build::*;
use looplets_repro::finch::{Kernel, LevelSpec, Protocol, Tensor};
use proptest::prelude::*;

/// A vector with a controlled mix of zeros, repeated values and arbitrary
/// values, so every format has something to compress.
fn structured_vector(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(0.0),
            2 => Just(1.5),
            2 => (1i32..100).prop_map(|x| x as f64 / 4.0),
        ],
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vector_formats_roundtrip_arbitrary_data(data in structured_vector(64)) {
        let candidates = vec![
            Tensor::sparse_list_vector("V", &data),
            Tensor::vbl_vector("V", &data),
            Tensor::band_vector("V", &data),
            Tensor::rle_vector("V", &data),
            Tensor::packbits_vector("V", &data),
            Tensor::bitmap_vector("V", &data),
        ];
        for t in candidates {
            prop_assert_eq!(t.to_dense(), data.clone(), "format {}", t.levels()[0].format_name());
        }
    }

    #[test]
    fn matrix_formats_roundtrip_arbitrary_data(
        data in structured_vector(60),
        ncols in 1usize..12,
    ) {
        let ncols = ncols.min(data.len());
        let nrows = data.len() / ncols;
        let data = &data[..nrows * ncols];
        if nrows == 0 {
            return Ok(());
        }
        let candidates = vec![
            Tensor::csr_matrix("A", nrows, ncols, data),
            Tensor::vbl_matrix("A", nrows, ncols, data),
            Tensor::band_matrix("A", nrows, ncols, data),
            Tensor::rle_matrix("A", nrows, ncols, data),
            Tensor::packbits_matrix("A", nrows, ncols, data),
            Tensor::bitmap_matrix("A", nrows, ncols, data),
            Tensor::ragged_matrix("A", nrows, ncols, data),
        ];
        for t in candidates {
            prop_assert_eq!(t.to_dense(), data.to_vec(), "format {}", t.levels()[1].format_name());
        }
    }

    #[test]
    fn compiled_dot_products_agree_with_dense_for_any_data(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let expect = dot_dense(a_data, b_data);
        let a_formats = vec![
            Tensor::sparse_list_vector("A", a_data),
            Tensor::vbl_vector("A", a_data),
            Tensor::rle_vector("A", a_data),
        ];
        let b_formats = vec![
            Tensor::sparse_list_vector("B", b_data),
            Tensor::band_vector("B", b_data),
            Tensor::bitmap_vector("B", b_data),
        ];
        for a in &a_formats {
            for b in &b_formats {
                let mut k = dot_kernel(a, b, Protocol::Default, Protocol::Default);
                k.run().expect("dot runs");
                let got = k.output_scalar("C").unwrap();
                prop_assert!(
                    (got - expect).abs() < 1e-6 * (1.0 + expect.abs()),
                    "dot {} x {}: got {got}, expected {expect}",
                    a.levels()[0].format_name(),
                    b.levels()[0].format_name()
                );
            }
        }
    }

    #[test]
    fn compiled_gallop_agrees_with_walk_for_any_data(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let expect = dot_dense(a_data, b_data);
        let a = Tensor::sparse_list_vector("A", a_data);
        let b = Tensor::sparse_list_vector("B", b_data);
        for (pa, pb) in [
            (Protocol::Gallop, Protocol::Walk),
            (Protocol::Walk, Protocol::Gallop),
            (Protocol::Gallop, Protocol::Gallop),
        ] {
            let mut k = dot_kernel(&a, &b, pa, pb);
            k.run().expect("dot runs");
            let got = k.output_scalar("C").unwrap();
            prop_assert!(
                (got - expect).abs() < 1e-6 * (1.0 + expect.abs()),
                "protocols {pa:?} x {pb:?}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn engines_are_bit_identical_for_any_dot_kernel(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a_formats = vec![
            Tensor::sparse_list_vector("A", a_data),
            Tensor::rle_vector("A", a_data),
            Tensor::packbits_vector("A", a_data),
        ];
        let b_formats = vec![
            Tensor::band_vector("B", b_data),
            Tensor::bitmap_vector("B", b_data),
            Tensor::vbl_vector("B", b_data),
        ];
        for a in &a_formats {
            for b in &b_formats {
                for (pa, pb) in [
                    (Protocol::Default, Protocol::Default),
                    (Protocol::Gallop, Protocol::Walk),
                ] {
                    let mut k = dot_kernel(a, b, pa, pb);
                    assert_engine_parity(
                        &mut k,
                        &format!(
                            "dot {} x {} ({pa:?}/{pb:?})",
                            a.levels()[0].format_name(),
                            b.levels()[0].format_name()
                        ),
                    );
                }
            }
        }
    }

    /// Round-trip random sparse-output kernels: assemble a `SparseList`
    /// output, re-bind the finalized tensor as the input of an
    /// identity-copy kernel, and compare the copy against the dense oracle.
    #[test]
    fn sparse_outputs_roundtrip_through_an_identity_copy(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a = Tensor::sparse_list_vector("A", a_data);
        let b = Tensor::sparse_list_vector("B", b_data);

        // C[i] = A[i] * B[i], assembled as a sparse list.
        let mut kernel = Kernel::new();
        kernel
            .bind_input(&a)
            .bind_input(&b)
            .bind_output_format("C", &[LevelSpec::SparseList { size: n }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        let mut k = kernel.compile(&program).expect("sparse multiply compiles");
        assert_engine_parity(&mut k, "sparse-output multiply");
        let c = k.output_tensor("C").expect("sparse output finalizes");

        let oracle: Vec<f64> = a_data.iter().zip(b_data).map(|(x, y)| x * y).collect();
        prop_assert_eq!(c.to_dense(), oracle.clone(), "assembled tensor");
        prop_assert_eq!(c.stored(), oracle.iter().filter(|&&v| v != 0.0).count());

        // Identity copy: re-bind the assembled tensor as an input.
        let mut copy = Kernel::new();
        copy.bind_input(&c).bind_output("D", &[n], 0.0);
        let i = idx("i");
        let program = forall(i.clone(), assign(access("D", [i.clone()]), access("C", [i])));
        let mut ck = copy.compile(&program).expect("identity copy compiles");
        assert_engine_parity(&mut ck, "identity copy of a sparse output");
        prop_assert_eq!(ck.output("D").unwrap(), oracle, "copied result");
    }

    /// For random kernels, outputs are bit-identical across
    /// `OptLevel::None` and `Default` on both engines, and
    /// the engines agree on `ExecStats` exactly at every level.
    #[test]
    fn opt_levels_are_bit_identical_for_any_dot_kernel(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a_formats = vec![
            Tensor::sparse_list_vector("A", a_data),
            Tensor::rle_vector("A", a_data),
        ];
        let b_formats = vec![
            Tensor::band_vector("B", b_data),
            Tensor::bitmap_vector("B", b_data),
        ];
        for a in &a_formats {
            for b in &b_formats {
                for (pa, pb) in [
                    (Protocol::Default, Protocol::Default),
                    (Protocol::Gallop, Protocol::Walk),
                ] {
                    let k = dot_kernel(a, b, pa, pb);
                    assert_opt_level_parity(
                        &k,
                        &format!(
                            "dot {} x {} ({pa:?}/{pb:?})",
                            a.levels()[0].format_name(),
                            b.levels()[0].format_name()
                        ),
                    );
                }
            }
        }
    }

    #[test]
    fn opt_levels_are_bit_identical_for_any_spmv_kernel(
        data in structured_vector(72),
        xseed in structured_vector(12),
        ncols in 2usize..12,
    ) {
        let ncols = ncols.min(data.len());
        let nrows = data.len() / ncols;
        if nrows == 0 {
            return Ok(());
        }
        let data = &data[..nrows * ncols];
        let xv: Vec<f64> = (0..ncols).map(|c| xseed.get(c % xseed.len().max(1)).copied().unwrap_or(0.0)).collect();
        let x = Tensor::sparse_list_vector("x", &xv);
        for a in [
            Tensor::csr_matrix("A", nrows, ncols, data),
            Tensor::vbl_matrix("A", nrows, ncols, data),
        ] {
            let k = spmspv_kernel(&a, &x, Protocol::Default, Protocol::Default);
            assert_opt_level_parity(
                &k,
                &format!("spmv over {}", a.levels()[1].format_name()),
            );
        }
    }

    /// Random sparse-output kernels keep bit-identical assembled tensors
    /// across every opt level on both engines.
    #[test]
    fn opt_levels_preserve_random_sparse_outputs(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a = Tensor::sparse_list_vector("A", a_data);
        let b = Tensor::sparse_list_vector("B", b_data);
        let mut kernel = Kernel::new();
        kernel
            .bind_input(&a)
            .bind_input(&b)
            .bind_output_format("C", &[LevelSpec::SparseList { size: n }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        let k = kernel.compile(&program).expect("sparse multiply compiles");
        assert_opt_level_parity(&k, "sparse-output multiply");
    }

    /// Typed vs generic dispatch on random sparse-output kernels: the raw
    /// assembled `pos`/`idx`/`val` arrays and the `ExecStats` work
    /// counters must be bit-identical at every opt level, on both engines
    /// (tree-walk never sees typed bytecode, so it anchors both modes).
    #[test]
    fn typed_dispatch_preserves_assembled_sparse_outputs(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        use looplets_repro::finch::{Engine, Level, OptLevel};
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a = Tensor::sparse_list_vector("A", a_data);
        let b = Tensor::sparse_list_vector("B", b_data);
        let mut kernel = Kernel::new();
        kernel
            .bind_input(&a)
            .bind_input(&b)
            .bind_output_format("C", &[LevelSpec::SparseList { size: n }]);
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        let k = kernel.compile(&program).expect("sparse multiply compiles");
        let raw_level = |k: &mut looplets_repro::finch::CompiledKernel| {
            let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
            let t = k.output_tensor("C").expect("sparse output finalizes");
            let (pos, idx, val) = match &t.levels()[0] {
                Level::SparseList { pos, idx, .. } => {
                    let bits: Vec<u64> = t.values().iter().map(|v| v.to_bits()).collect();
                    (pos.clone(), idx.clone(), bits)
                }
                other => panic!("expected a sparse list level, got {other:?}"),
            };
            (stats, pos, idx, val)
        };
        for level in OptLevel::all() {
            let mut typed = k.reoptimized_simd(level, true, k.simd());
            let mut generic = k.reoptimized_simd(level, false, k.simd());
            let t = raw_level(&mut typed);
            let g = raw_level(&mut generic);
            prop_assert_eq!(t, g, "typed vs generic diverge at {}", level);
        }
    }

    /// The SIMD kernel-op tier, end to end: compiled with **full
    /// translation validation**, random kernels mixing a dense map, a
    /// scalar reduction and a guarded sparse-output append produce
    /// bit-identical dense outputs, bit-identical assembled
    /// `pos`/`idx`/`val` arrays, and **exactly** equal `ExecStats` with
    /// the vectorize stage on and off, at every opt level.
    #[test]
    fn simd_kernel_ops_preserve_outputs_and_stats_under_validation(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        use looplets_repro::finch::{Engine, Level, OptLevel, ValidationLevel};
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a = Tensor::dense_vector("A", a_data);
        let b = Tensor::dense_vector("B", b_data);
        let mut kernel = Kernel::new();
        kernel
            .set_validation(ValidationLevel::Full)
            .bind_input(&a)
            .bind_input(&b)
            .bind_output("Y", &[n], 0.0)
            .bind_output_scalar("D")
            .bind_output_format("S", &[LevelSpec::SparseList { size: n }]);
        let i = idx("i");
        let program = multi(vec![
            // A dense scaled map (fuses to a bulk map kernel op).
            forall(
                i.clone(),
                add_assign(access("Y", [i.clone()]), mul(lit(0.75), access("A", [i.clone()]))),
            ),
            // A scalar dot reduction (fuses to a bulk multiply-add).
            forall(
                i.clone(),
                add_assign(scalar("D"), mul(access("A", [i.clone()]), access("B", [i.clone()]))),
            ),
            // A guarded sparse append (fuses to a guarded append range).
            forall(
                i.clone(),
                sieve(
                    gt(access("B", [i.clone()]), lit(0.5)),
                    assign(access("S", [i.clone()]), access("B", [i])),
                ),
            ),
        ]);
        let k = kernel.compile(&program).expect("validated compile succeeds");
        // Point loops unroll away entirely, so only multi-element inputs
        // are guaranteed to leave counted loops for the pass to fuse.
        if n >= 4 {
            let (vectorized, vectorizable) = k.instrs_vectorized();
            prop_assert!(vectorizable > 0, "the kernel has fusable counted loops");
            prop_assert!(vectorized > 0, "the vectorize stage fused at least one loop");
        }
        let snapshot = |k: &mut looplets_repro::finch::CompiledKernel| {
            let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
            let outputs: Vec<(String, Vec<u64>)> = k
                .output_names()
                .into_iter()
                .map(|name| {
                    let out = k.output(&name).expect("output reads");
                    (name, out.iter().map(|v| v.to_bits()).collect())
                })
                .collect();
            let t = k.output_tensor("S").expect("sparse output finalizes");
            let raw = match &t.levels()[0] {
                Level::SparseList { pos, idx, .. } => {
                    let bits: Vec<u64> = t.values().iter().map(|v| v.to_bits()).collect();
                    (pos.clone(), idx.clone(), bits)
                }
                other => panic!("expected a sparse list level, got {other:?}"),
            };
            (stats, outputs, raw)
        };
        for level in OptLevel::all() {
            let mut on = k.reoptimized_simd(level, true, true);
            let mut off = k.reoptimized_simd(level, true, false);
            prop_assert_eq!(on.validation(), ValidationLevel::Full);
            prop_assert_eq!(
                snapshot(&mut on),
                snapshot(&mut off),
                "simd on vs off diverge at {}",
                level
            );
        }
    }

    /// The DCE safety net, end to end: compiled with **full translation
    /// validation**, random sparse-output kernels keep bit-identical
    /// assembled `pos`/`idx`/`val` arrays between `OptLevel::None` and
    /// `OptLevel::Default`.  Dead-code elimination may never delete an
    /// effectful `Append`/`FiberEnd` — if it did, the per-pass validator
    /// would already fail the compile naming `dce`, and this comparison
    /// would catch anything that slipped past it.
    #[test]
    fn dce_never_deletes_effectful_statements_under_validation(
        a_data in structured_vector(48),
        b_data in structured_vector(48),
    ) {
        use looplets_repro::finch::{Engine, Level, OptLevel, ValidationLevel};
        let n = a_data.len().min(b_data.len());
        let (a_data, b_data) = (&a_data[..n], &b_data[..n]);
        let a = Tensor::sparse_list_vector("A", a_data);
        let b = Tensor::sparse_list_vector("B", b_data);
        for op in ["mul", "add"] {
            let mut kernel = Kernel::new();
            kernel
                .set_validation(ValidationLevel::Full)
                .bind_input(&a)
                .bind_input(&b)
                .bind_output_format("C", &[LevelSpec::SparseList { size: n }]);
            let i = idx("i");
            let lhs = access("A", [i.clone()]);
            let rhs = access("B", [i.clone()]);
            let body = if op == "mul" { mul(lhs, rhs) } else { add(lhs, rhs) };
            let program = forall(i.clone(), assign(access("C", [i]), body));
            let k = kernel.compile(&program).expect("validated compile succeeds");
            let raw_level = |k: &mut looplets_repro::finch::CompiledKernel| {
                k.run_with(Engine::Bytecode).expect("bytecode runs");
                let t = k.output_tensor("C").expect("sparse output finalizes");
                match &t.levels()[0] {
                    Level::SparseList { pos, idx, .. } => {
                        let bits: Vec<u64> = t.values().iter().map(|v| v.to_bits()).collect();
                        (pos.clone(), idx.clone(), bits)
                    }
                    other => panic!("expected a sparse list level, got {other:?}"),
                }
            };
            let mut unopt = k.reoptimized(OptLevel::None);
            let mut optimized = k.reoptimized(OptLevel::Default);
            prop_assert_eq!(unopt.validation(), ValidationLevel::Full);
            prop_assert_eq!(
                raw_level(&mut unopt),
                raw_level(&mut optimized),
                "assembled pos/idx/val diverge between None and Default ({op})"
            );
        }
    }

    #[test]
    fn engines_are_bit_identical_for_any_spmv_kernel(
        data in structured_vector(72),
        xseed in structured_vector(12),
        ncols in 2usize..12,
    ) {
        let ncols = ncols.min(data.len());
        let nrows = data.len() / ncols;
        if nrows == 0 {
            return Ok(());
        }
        let data = &data[..nrows * ncols];
        let xv: Vec<f64> = (0..ncols).map(|c| xseed.get(c % xseed.len().max(1)).copied().unwrap_or(0.0)).collect();
        let x = Tensor::sparse_list_vector("x", &xv);
        for a in [
            Tensor::csr_matrix("A", nrows, ncols, data),
            Tensor::vbl_matrix("A", nrows, ncols, data),
            Tensor::rle_matrix("A", nrows, ncols, data),
            Tensor::bitmap_matrix("A", nrows, ncols, data),
        ] {
            let mut k = spmspv_kernel(&a, &x, Protocol::Default, Protocol::Default);
            assert_engine_parity(&mut k, &format!("spmv over {}", a.levels()[1].format_name()));
        }
    }

    /// The parallel sharded tier, end to end: for random CSR matrices, a
    /// dense-output SpMV (a shardable dense outer row loop) produces
    /// bit-identical outputs and **exactly** equal `ExecStats` whether run
    /// serial or sharded, at every opt level, with the SIMD tier on and
    /// off, at every thread count — including more threads than rows.
    #[test]
    fn parallel_execution_is_bit_identical_to_serial(
        data in structured_vector(72),
        xseed in structured_vector(12),
        ncols in 2usize..12,
    ) {
        use looplets_repro::finch::{Engine, OptLevel};
        let ncols = ncols.min(data.len());
        let nrows = data.len() / ncols;
        if nrows == 0 {
            return Ok(());
        }
        let data = &data[..nrows * ncols];
        let xv: Vec<f64> = (0..ncols)
            .map(|c| xseed.get(c % xseed.len().max(1)).copied().unwrap_or(0.0))
            .collect();
        let a = Tensor::csr_matrix("A", nrows, ncols, data);
        let x = Tensor::dense_vector("x", &xv);
        let base = spmspv_kernel(&a, &x, Protocol::Default, Protocol::Default);
        let snapshot = |k: &mut looplets_repro::finch::CompiledKernel| {
            let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
            let bits: Vec<u64> =
                k.output("y").unwrap().iter().map(|v| v.to_bits()).collect();
            (stats, bits)
        };
        for level in OptLevel::all() {
            for simd in [true, false] {
                let mut serial = base.reoptimized_simd(level, true, simd);
                let expect = snapshot(&mut serial);
                for threads in [2usize, 3, 4, 8] {
                    let mut par = serial.clone().with_threads(threads);
                    prop_assert_eq!(par.threads(), threads);
                    let got = snapshot(&mut par);
                    prop_assert_eq!(
                        &expect,
                        &got,
                        "serial vs {} threads diverge at {} (simd={})",
                        threads,
                        level,
                        simd
                    );
                }
            }
        }
    }

    /// Sharded runs that assemble sparse outputs stitch per-shard
    /// `pos`/`idx`/`val` segments; the assembled arrays must be
    /// bit-identical to the serial assembly for random inputs at every
    /// thread count.
    #[test]
    fn parallel_sparse_assembly_is_bit_identical_to_serial(
        data in structured_vector(72),
        ncols in 2usize..12,
    ) {
        use looplets_repro::finch::{Engine, Level, LevelSpec};
        let ncols = ncols.min(data.len());
        let nrows = data.len() / ncols;
        if nrows == 0 {
            return Ok(());
        }
        let data = &data[..nrows * ncols];
        let a = Tensor::csr_matrix("A", nrows, ncols, data);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_output_format(
            "C",
            &[LevelSpec::Dense { size: nrows }, LevelSpec::SparseList { size: ncols }],
        );
        let (i, j) = (idx("i"), idx("j"));
        let program = forall(
            i.clone(),
            forall(j.clone(), assign(access("C", [i.clone(), j.clone()]), access("A", [i, j]))),
        );
        let base = kernel.compile(&program).expect("sparse copy compiles");
        let raw_level = |k: &mut looplets_repro::finch::CompiledKernel| {
            let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
            let t = k.output_tensor("C").expect("sparse output finalizes");
            let (pos, idx) = match &t.levels()[1] {
                Level::SparseList { pos, idx, .. } => (pos.clone(), idx.clone()),
                other => panic!("expected a sparse list level, got {other:?}"),
            };
            let bits: Vec<u64> = t.values().iter().map(|v| v.to_bits()).collect();
            (stats, pos, idx, bits)
        };
        let mut serial = base.clone();
        let expect = raw_level(&mut serial);
        for threads in [2usize, 4, 8] {
            let mut par = base.clone().with_threads(threads);
            let got = raw_level(&mut par);
            prop_assert_eq!(&expect, &got, "assembled pos/idx/val diverge at {} threads", threads);
        }
    }

    #[test]
    fn compiled_spmv_agrees_with_dense_for_any_data(
        data in structured_vector(72),
        xseed in structured_vector(12),
        ncols in 2usize..12,
    ) {
        let ncols = ncols.min(data.len());
        let nrows = data.len() / ncols;
        if nrows == 0 {
            return Ok(());
        }
        let data = &data[..nrows * ncols];
        let xv: Vec<f64> = (0..ncols).map(|c| xseed.get(c % xseed.len().max(1)).copied().unwrap_or(0.0)).collect();
        let expect = spmv_dense(nrows, ncols, data, &xv);
        let x = Tensor::sparse_list_vector("x", &xv);
        for a in [
            Tensor::csr_matrix("A", nrows, ncols, data),
            Tensor::vbl_matrix("A", nrows, ncols, data),
            Tensor::rle_matrix("A", nrows, ncols, data),
        ] {
            let mut k = spmspv_kernel(&a, &x, Protocol::Default, Protocol::Default);
            k.run().expect("spmv runs");
            let y = k.output("y").unwrap();
            for r in 0..nrows {
                prop_assert!(
                    (y[r] - expect[r]).abs() < 1e-6 * (1.0 + expect[r].abs()),
                    "row {r} of {}: got {}, expected {}",
                    a.levels()[1].format_name(),
                    y[r],
                    expect[r]
                );
            }
        }
    }
}
