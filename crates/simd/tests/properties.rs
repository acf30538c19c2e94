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

/// A well-conditioned row-major `n × n` lower-triangular factor: small
/// off-diagonal entries and a unit-offset diagonal.
fn lower_factor(n: usize, seed: &[f64]) -> Vec<f64> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            l[i * n + j] = seed[i * n + j] / 1e3;
        }
        l[i * n + i] = 1.0 + l[i * n + i].abs();
    }
    l
}

/// The lower triangle of a row-major factor in packed column-major
/// storage: column `j`, `L[j..n][j]`, starting at `j·(2n − j + 1)/2`.
fn packed_columns(n: usize, l: &[f64]) -> Vec<f64> {
    (0..n)
        .flat_map(|j| (j..n).map(move |i| l[i * n + j]))
        .collect()
}

/// Every constructible backend (a foreign one degrades to scalar) with each
/// interleave width its solve kernels take: one and four vectors.
fn widths() -> impl Iterator<Item = (Backend, usize)> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
        .into_iter()
        .flat_map(|be| [(be, be.lanes()), (be, 4 * be.lanes())])
}

/// Runs `solve` on each lane of the `rows × lanes` interleaved right-hand
/// side `b` as a single-RHS problem and interleaves the solutions.
fn per_lane(lanes: usize, rows: usize, b: &[f64], solve: impl Fn(&[f64], &mut [f64])) -> Vec<f64> {
    let mut out = vec![0.0; rows * lanes];
    for c in 0..lanes {
        let bc: Vec<f64> = (0..rows).map(|i| b[i * lanes + c]).collect();
        let mut xc = vec![0.0; rows];
        solve(&bc, &mut xc);
        for (i, &x) in xc.iter().enumerate() {
            out[i * lanes + c] = x;
        }
    }
    out
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

    /// The pair-swept gradient term kernels under every constructible
    /// backend, at lengths that straddle the vector width and leave a
    /// scalar tail.
    #[test]
    fn elementwise_kernels_dispatch_bit_identical(
        len in 1usize..20,
        d in values(20),
        a in values(20),
        b in values(20),
        w in values(20),
        inv_l in -4.0f64..4.0,
    ) {
        let (d, a, b, w) = (&d[..len], &a[..len], &b[..len], &w[..len]);
        let mut want = vec![0.0; len];
        simd::scalar::sq_terms(d, inv_l, a, w, &mut want);
        let mut want2 = vec![0.0; len];
        simd::scalar::sq_terms2(d, inv_l, a, b, w, &mut want2);
        for be in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            let mut got = vec![0.0; len];
            simd::sq_terms(be, d, inv_l, a, w, &mut got);
            assert_bits_eq(&got, &want)?;
            simd::sq_terms2(be, d, inv_l, a, b, w, &mut got);
            assert_bits_eq(&got, &want2)?;
        }
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

    /// The interleaved forward solve from any start row, under every
    /// constructible backend, against one scalar single-RHS solve per lane
    /// whose reduction also starts at that row.
    #[test]
    fn interleaved_forward_solve_bit_identical_to_per_rhs_scalar(
        n in 1usize..24,
        start_seed in 0usize..24,
        lseed in values(24 * 24),
        bseed in values(24 * 16),
    ) {
        let l = lower_factor(n, &lseed);
        let start = start_seed % (n + 1);
        for (be, lanes) in widths() {
            let m = n - start;
            let b = &bseed[..m * lanes];
            let mut fast = vec![0.0; m * lanes];
            simd::forward_solve_interleaved(be, &l, n, start, lanes, b, &mut fast);
            let reference = per_lane(lanes, m, b, |bc, xc| {
                simd::scalar::forward_solve_interleaved(&l, n, start, 1, bc, xc)
            });
            assert_bits_eq(&fast, &reference)?;
        }
    }

    /// The interleaved back solve down to any stop row, under every
    /// constructible backend, against one scalar single-RHS solve per lane;
    /// and its rows at or below the stop row are those of the full solve
    /// (`stop = 0`) of the same right-hand side.
    #[test]
    fn interleaved_back_solve_bit_identical_to_per_rhs_scalar(
        n in 1usize..24,
        stop_seed in 0usize..24,
        lseed in values(24 * 24),
        bseed in values(24 * 16),
    ) {
        let cols = packed_columns(n, &lower_factor(n, &lseed));
        let stop = stop_seed % (n + 1);
        for (be, lanes) in widths() {
            let m = n - stop;
            let b = &bseed[stop * lanes..n * lanes];
            let mut fast = vec![0.0; m * lanes];
            simd::back_solve_interleaved(be, &cols, n, stop, lanes, b, &mut fast);
            let reference = per_lane(lanes, m, b, |bc, xc| {
                simd::scalar::back_solve_interleaved(&cols, n, stop, 1, bc, xc)
            });
            assert_bits_eq(&fast, &reference)?;
            let mut full = vec![0.0; n * lanes];
            simd::back_solve_interleaved(be, &cols, n, 0, lanes, &bseed[..n * lanes], &mut full);
            assert_bits_eq(&fast, &full[stop * lanes..])?;
        }
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
