//! Differential `to_bits` proptests: the dispatched backend must reproduce
//! the scalar reference **bit for bit** on every micro-kernel, for any
//! input. On hardware without AVX2/NEON the dispatched backend *is* the
//! scalar reference and the comparisons hold trivially; on the CI x86_64
//! runners (and any AVX2 machine) these exercise the intrinsic modules.

use mfbo_simd as simd;
use proptest::prelude::*;
use proptest::TestCaseError;
use simd::Backend;

fn assert_bits_eq(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "element {}", i);
    }
    Ok(())
}

/// Mixed-magnitude values: rounding differences (e.g. a hidden FMA) show up
/// fastest when operand magnitudes differ wildly.
fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Lengths straddle the 8/4-wide block boundaries and the scalar tail.
    #[test]
    fn sq_norm_dispatch_bit_identical(
        count in 1usize..40,
        dim in 1usize..8,
        seed in values(40 * 8),
        scale in values(8),
    ) {
        let rows = &seed[..count * dim];
        let inv_l = &scale[..dim];
        let mut fast = vec![0.0; count];
        let mut reference = vec![0.0; count];
        simd::sq_norm(simd::detect(), rows, count, inv_l, &mut fast);
        simd::scalar::sq_norm(rows, count, inv_l, &mut reference);
        assert_bits_eq(&fast, &reference)?;
    }

    /// The fused distance kernel against the scalar reference under every
    /// constructible backend, and against its unfused definition: the
    /// query-minus-point differences laid out dimension-major, then
    /// `sq_norm`. Point counts straddle the 8/4-wide blocks and the tail.
    #[test]
    fn sq_dist_dispatch_bit_identical_and_equal_to_diff_then_sq_norm(
        count in 1usize..40,
        dim in 1usize..8,
        seed in values(40 * 8),
        query in values(8),
        scale in values(8),
    ) {
        let xt = &seed[..count * dim];
        let (q, inv_l) = (&query[..dim], &scale[..dim]);
        let mut want = vec![0.0; count];
        simd::scalar::sq_dist(q, xt, inv_l, &mut want);
        let diffs: Vec<f64> = (0..dim)
            .flat_map(|t| xt[t * count..(t + 1) * count].iter().map(move |&x| q[t] - x))
            .collect();
        let mut unfused = vec![0.0; count];
        simd::scalar::sq_norm(&diffs, count, inv_l, &mut unfused);
        assert_bits_eq(&unfused, &want)?;
        for be in [Backend::Scalar, Backend::Avx2, Backend::Neon, simd::detect()] {
            let mut got = vec![0.0; count];
            simd::sq_dist(be, q, xt, inv_l, &mut got);
            assert_bits_eq(&got, &want)?;
        }
    }

    #[test]
    fn elementwise_kernels_dispatch_bit_identical(
        len in 1usize..20,
        d in values(20),
        l in values(20),
        acc0 in values(20),
        k in -4.0f64..4.0,
        w in -4.0f64..4.0,
    ) {
        let be = simd::detect();
        let d = &d[..len];
        let l = &l[..len];

        let mut fast = vec![0.0; len];
        let mut reference = vec![0.0; len];
        simd::z2_into(be, d, l, &mut fast);
        simd::scalar::z2_into(d, l, &mut reference);
        assert_bits_eq(&fast, &reference)?;

        let z2 = reference.clone();
        let mut fast = acc0[..len].to_vec();
        let mut reference = acc0[..len].to_vec();
        simd::accum_scaled(be, &mut fast, &z2, k, w);
        simd::scalar::accum_scaled(&mut reference, &z2, k, w);
        assert_bits_eq(&fast, &reference)?;

        let mut fast = acc0[..len].to_vec();
        let mut reference = acc0[..len].to_vec();
        simd::accum_scaled2(be, &mut fast, &z2, k, w, 0.7);
        simd::scalar::accum_scaled2(&mut reference, &z2, k, w, 0.7);
        assert_bits_eq(&fast, &reference)?;

        let mut fast = acc0[..len].to_vec();
        let mut reference = acc0[..len].to_vec();
        simd::accum_weighted_sq(be, &mut fast, d, l, k, w);
        simd::scalar::accum_weighted_sq(&mut reference, d, l, k, w);
        assert_bits_eq(&fast, &reference)?;
    }

    #[test]
    fn fold_cols_dispatch_bit_identical(
        len in 1usize..30,
        ncols in 0usize..6,
        src in values(200),
        dst0 in values(30),
        mults in values(6),
    ) {
        // Column offsets spread through `src` like packed Cholesky columns.
        let cols: Vec<(usize, f64)> = (0..ncols)
            .map(|c| (c * (200 - len) / ncols.max(1), mults[c]))
            .collect();
        let mut fast = dst0[..len].to_vec();
        let mut reference = dst0[..len].to_vec();
        simd::fold_cols(simd::detect(), &mut fast, &src, &cols);
        simd::scalar::fold_cols(&mut reference, &src, &cols);
        assert_bits_eq(&fast, &reference)?;
    }

    #[test]
    fn interleaved_forward_solve_bit_identical_to_per_rhs_scalar(
        n in 1usize..24,
        lseed in values(24 * 24),
        bseed in values(24 * 4),
    ) {
        let be = simd::detect();
        let lanes = be.lanes();
        // Well-conditioned lower-triangular factor: unit-offset diagonal.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                l[i * n + j] = lseed[i * n + j] / 1e3;
            }
            l[i * n + i] = 1.0 + l[i * n + i].abs();
        }
        let b = &bseed[..n * lanes];

        let mut fast = vec![0.0; n * lanes];
        simd::forward_solve_interleaved(be, &l, n, b, &mut fast);
        // Reference: each lane is one scalar single-RHS solve.
        let mut reference = vec![0.0; n * lanes];
        for c in 0..lanes {
            let bc: Vec<f64> = (0..n).map(|i| b[i * lanes + c]).collect();
            let mut xc = vec![0.0; n];
            simd::scalar::forward_solve_interleaved(&l, n, 1, &bc, &mut xc);
            for i in 0..n {
                reference[i * lanes + c] = xc[i];
            }
        }
        assert_bits_eq(&fast, &reference)?;
    }

    /// The dispatch *choice* never changes output bits: every constructible
    /// backend value — including a forced-scalar and a foreign-architecture
    /// one — produces identical bits on the same input.
    #[test]
    fn dispatch_choice_never_changes_bits(
        count in 1usize..24,
        dim in 1usize..6,
        seed in values(24 * 6),
        scale in values(6),
    ) {
        let rows = &seed[..count * dim];
        let inv_l = &scale[..dim];
        let mut want = vec![0.0; count];
        simd::scalar::sq_norm(rows, count, inv_l, &mut want);
        for be in [Backend::Scalar, Backend::Avx2, Backend::Neon, simd::detect()] {
            let mut got = vec![0.0; count];
            simd::sq_norm(be, rows, count, inv_l, &mut got);
            assert_bits_eq(&got, &want)?;
        }
    }
}
