//! Property-based tests for the linear-algebra kernels.

use mfbo_linalg::{Cholesky, Lu, Matrix};
use proptest::prelude::*;

/// Strategy: a random `n x n` matrix with entries in [-1, 1].
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| Matrix::from_vec(n, n, data))
}

/// Strategy: a random SPD matrix built as `B Bᵀ + n·I` (guaranteed SPD).
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(move |b| {
        let mut a = b.matmul(&b.transpose());
        a.add_diag(n as f64);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(5)) {
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.matmul(&l.transpose());
        prop_assert!(recon.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn cholesky_solve_inverts(a in spd_matrix(5), b in prop::collection::vec(-2.0f64..2.0, 5)) {
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve_vec(&b);
        let back = a.matvec(&x);
        for (u, v) in b.iter().zip(&back) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn cholesky_quad_form_nonnegative(a in spd_matrix(4), b in prop::collection::vec(-2.0f64..2.0, 4)) {
        let chol = Cholesky::new(&a).unwrap();
        prop_assert!(chol.quad_form(&b) >= -1e-12);
    }

    #[test]
    fn cholesky_log_det_matches_lu_det(a in spd_matrix(4)) {
        let chol = Cholesky::new(&a).unwrap();
        let lu = Lu::new(&a).unwrap();
        // det of an SPD matrix is positive, so log|A| should match.
        prop_assert!(lu.det() > 0.0);
        prop_assert!((chol.log_det() - lu.det().ln()).abs() < 1e-7);
    }

    #[test]
    fn lu_solve_inverts(a in spd_matrix(6), b in prop::collection::vec(-2.0f64..2.0, 6)) {
        // SPD matrices are well-conditioned enough for a tight round-trip.
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b);
        let back = a.matvec(&x);
        for (u, v) in b.iter().zip(&back) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn matmul_associativity(
        a in square_matrix(3),
        b in square_matrix(3),
        c in square_matrix(3),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-10);
    }

    #[test]
    fn transpose_of_product(a in square_matrix(4), b in square_matrix(4)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn norm_cdf_inverse_round_trip(p in 1e-5f64..0.99999) {
        let x = mfbo_linalg::norm_inv_cdf(p);
        prop_assert!((mfbo_linalg::norm_cdf(x) - p).abs() < 1e-5);
    }

    #[test]
    fn standardizer_is_affine_invertible(ys in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let s = mfbo_linalg::Standardizer::fit(&ys);
        for &y in &ys {
            prop_assert!((s.inverse(s.transform(y)) - y).abs() < 1e-8);
        }
    }
}

/// Bit-identity pins for the blocked/workspace Cholesky paths: the blocked
/// factorization, the triangular-inverse fast path and the `_into` variants
/// must reproduce their reference counterparts
/// **exactly** — these guard the reproducibility contract, so they compare
/// `f64::to_bits`, not tolerances. Sizes straddle the panel width so the
/// multi-panel code paths run.
mod bit_identity {
    use super::*;
    use proptest::TestCaseError;

    fn assert_bits_eq(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// At a size past the panel width, so the dispatched fold kernels
        /// engage: the blocked factor matches the unblocked reference and
        /// is the same under the scalar and the dispatched SIMD backend.
        #[test]
        fn blocked_factorization_bit_identical_to_unblocked(a in spd_matrix(60)) {
            let blocked = Cholesky::new(&a).unwrap();
            let reference = Cholesky::new_unblocked(&a).unwrap();
            assert_bits_eq(blocked.factor().as_slice(), reference.factor().as_slice())?;
            let scalar = Cholesky::new_with_backend(&a, mfbo_simd::Backend::Scalar).unwrap();
            let dispatched = Cholesky::new_with_backend(&a, mfbo_simd::detect()).unwrap();
            assert_bits_eq(scalar.factor().as_slice(), dispatched.factor().as_slice())?;
        }

        /// Block-edge fuzzing for the blocked factorization: sizes pinned to
        /// `PANEL ± 1`, `2·PANEL ± 1` (PANEL = 48) and nearby primes, where
        /// panel-boundary indexing bugs hide. Every size must reproduce the
        /// unblocked reference bit for bit.
        #[test]
        fn blocked_factorization_bit_identical_at_block_edges(
            size_idx in 0usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let n = [47usize, 48, 49, 53, 89, 95, 96, 97, 101][size_idx];
            // Deterministic pseudo-random SPD matrix seeded per case: a
            // strategy-generated matrix at the largest size would dominate
            // runtime, and the entries' exact distribution is irrelevant to
            // the indexing paths under test.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let b = Matrix::from_fn(n, n, |_, _| next());
            let mut a = b.matmul(&b.transpose());
            a.add_diag(n as f64);
            let blocked = Cholesky::new(&a).unwrap();
            let reference = Cholesky::new_unblocked(&a).unwrap();
            assert_bits_eq(blocked.factor().as_slice(), reference.factor().as_slice())?;
        }

        #[test]
        fn inverse_bit_identical_to_identity_solves(a in spd_matrix(24)) {
            let chol = Cholesky::new(&a).unwrap();
            let inv = chol.inverse();
            // Reference: solve against each identity column.
            let n = a.rows();
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let col = chol.solve_vec(&e);
                for i in 0..n {
                    prop_assert_eq!(inv[(i, j)].to_bits(), col[i].to_bits());
                }
            }
        }

        #[test]
        fn inverse_lower_bit_identical_on_lower_triangle(a in spd_matrix(24)) {
            let chol = Cholesky::new(&a).unwrap();
            let lower = chol.inverse_lower();
            let full = chol.inverse();
            let n = a.rows();
            for i in 0..n {
                for j in 0..=i {
                    prop_assert_eq!(lower[(i, j)].to_bits(), full[(i, j)].to_bits());
                    prop_assert_eq!(lower[(j, i)].to_bits(), lower[(i, j)].to_bits());
                }
            }
        }

        #[test]
        fn into_variants_bit_identical_to_allocating(
            a in spd_matrix(17),
            b in prop::collection::vec(-2.0f64..2.0, 17),
        ) {
            let chol = Cholesky::new(&a).unwrap();
            let n = 17;
            let mut out = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            chol.forward_solve_into(&b, &mut out);
            assert_bits_eq(&chol.forward_solve(&b), &out)?;
            chol.back_solve_into(&b, &mut out);
            assert_bits_eq(&chol.back_solve(&b), &out)?;
            chol.solve_vec_into(&b, &mut scratch, &mut out);
            assert_bits_eq(&chol.solve_vec(&b), &out)?;
            prop_assert_eq!(
                chol.quad_form(&b).to_bits(),
                chol.quad_form_with(&b, &mut scratch).to_bits()
            );
        }

        /// One `Lu` refactored over a sequence of matrices of varying size
        /// must reproduce a fresh `Lu::new` of each, and the indexed
        /// textbook kernel below, bit for bit: factors, permutation,
        /// determinant and solution. One step of the sequence has a zero
        /// column; its `Err` must empty the factorization, and the next
        /// refactor must not see anything of it.
        #[test]
        fn bit_identity_lu_refactor_matches_fresh(
            sizes in prop::collection::vec(1usize..12, 6),
            singular_at in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let mut reused = Lu::default();
            for (step, &n) in sizes.iter().enumerate() {
                let mut a = Matrix::from_fn(n, n, |_, _| next());
                let b: Vec<f64> = (0..n).map(|_| next()).collect();
                if step == singular_at {
                    let col = seed as usize % n;
                    for i in 0..n {
                        a[(i, col)] = 0.0;
                    }
                    prop_assert!(reused.refactor(&a).is_err());
                    prop_assert!(Lu::new(&a).is_err());
                    prop_assert_eq!(reused.dim(), 0);
                    prop_assert_eq!(reused.factor().rows(), 0);
                    prop_assert!(reused.permutation().is_empty());
                    continue;
                }
                reused.refactor(&a).unwrap();
                let fresh = Lu::new(&a).unwrap();
                let (ref_lu, ref_perm, ref_sign) = reference_lu(&a);
                assert_bits_eq(reused.factor().as_slice(), fresh.factor().as_slice())?;
                assert_bits_eq(reused.factor().as_slice(), ref_lu.as_slice())?;
                prop_assert_eq!(reused.permutation(), fresh.permutation());
                prop_assert_eq!(reused.permutation(), &ref_perm[..]);
                prop_assert_eq!(reused.det().to_bits(), fresh.det().to_bits());
                let mut ref_det = ref_sign;
                for i in 0..n {
                    ref_det *= ref_lu[(i, i)];
                }
                prop_assert_eq!(reused.det().to_bits(), ref_det.to_bits());
                let mut x = vec![f64::NAN; n];
                reused.solve_into(&b, &mut x);
                assert_bits_eq(&x, &fresh.solve(&b))?;
                assert_bits_eq(&x, &reference_solve(&ref_lu, &ref_perm, &b))?;
            }
        }
    }

    /// Textbook Doolittle LU with partial pivoting and `(i, j)` indexing:
    /// the differential oracle for the row-slice kernel behind `Lu`. Same
    /// pivot search, row swaps, `m != 0` skip and summation order.
    fn reference_lu(a: &Matrix) -> (Matrix, Vec<usize>, f64) {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                if lu[(i, k)].abs() > pmax {
                    pmax = lu[(i, k)].abs();
                    p = i;
                }
            }
            assert!(pmax != 0.0 && pmax.is_finite(), "oracle input is singular");
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let v = lu[(k, j)];
                        lu[(i, j)] -= m * v;
                    }
                }
            }
        }
        (lu, perm, sign)
    }

    /// Forward then back substitution on [`reference_lu`]'s output.
    fn reference_solve(lu: &Matrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[perm[i]];
            for k in 0..i {
                s -= lu[(i, k)] * y[k];
            }
            y[i] = s;
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= lu[(i, k)] * x[k];
            }
            x[i] = s / lu[(i, i)];
        }
        x
    }
}
