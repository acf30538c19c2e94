//! Property-based tests of the kernel and GP layers.

use mfbo_gp::kernel::{Kernel, NargpKernel, SquaredExponential};
use mfbo_gp::{
    nlml, nlml_grad_cached, nlml_value_cached, nlml_with_grad, nlml_with_grad_cached, DiffBatch,
    Gp, GpConfig,
};
use mfbo_linalg::{Cholesky, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: n points in [0,1]^dim, flattened.
fn points(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(0.0f64..1.0, n * dim)
        .prop_map(move |flat| flat.chunks(dim).map(|c| c.to_vec()).collect())
}

/// Builds the kernel Gram matrix.
fn gram<K: Kernel>(k: &K, p: &[f64], xs: &[Vec<f64>]) -> Matrix {
    Matrix::from_fn(xs.len(), xs.len(), |i, j| k.eval(p, &xs[i], &xs[j]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn se_gram_is_psd(xs in points(8, 2), logsf in -1.0f64..1.0, logl in -2.0f64..1.0) {
        let k = SquaredExponential::new(2);
        let p = vec![logsf, logl, logl];
        let g = gram(&k, &p, &xs);
        prop_assert!(g.is_symmetric(1e-12));
        // PSD: Cholesky with a whisker of jitter must succeed.
        prop_assert!(Cholesky::new_with_jitter(&g, 1e-10, 1e-3).is_ok());
    }

    #[test]
    fn nargp_gram_is_psd(xs in points(7, 3)) {
        // Augmented input: 2 design dims + 1 fidelity feature.
        let k = NargpKernel::new(2);
        let p = k.default_params();
        let g = gram(&k, &p, &xs);
        prop_assert!(g.is_symmetric(1e-12));
        prop_assert!(Cholesky::new_with_jitter(&g, 1e-10, 1e-3).is_ok());
    }

    #[test]
    fn kernel_cauchy_schwarz(a in points(1, 2), b in points(1, 2), logl in -1.5f64..1.0) {
        // |k(a,b)| <= sqrt(k(a,a) k(b,b)) for any PSD kernel.
        let k = SquaredExponential::new(2);
        let p = vec![0.3, logl, logl];
        let kab = k.eval(&p, &a[0], &b[0]);
        let kaa = k.eval(&p, &a[0], &a[0]);
        let kbb = k.eval(&p, &b[0], &b[0]);
        prop_assert!(kab.abs() <= (kaa * kbb).sqrt() + 1e-12);
    }

    #[test]
    fn nlml_gradient_is_consistent(
        xs in points(9, 1),
        theta0 in -0.5f64..0.5,
        theta1 in -1.5f64..0.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
        let k = SquaredExponential::new(1);
        let theta = vec![theta0, theta1, -2.0];
        let (v, g) = nlml_with_grad(&k, &theta, &xs, &ys);
        prop_assume!(v.is_finite());
        let h = 1e-6;
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += h;
            let fp = nlml(&k, &tp, &xs, &ys);
            tp[j] -= 2.0 * h;
            let fm = nlml(&k, &tp, &xs, &ys);
            prop_assume!(fp.is_finite() && fm.is_finite());
            let num = (fp - fm) / (2.0 * h);
            prop_assert!((num - g[j]).abs() < 1e-3 * (1.0 + num.abs()),
                "param {j}: numeric {num} vs analytic {}", g[j]);
        }
    }

    #[test]
    fn posterior_variance_shrinks_at_observations(xs in points(6, 1)) {
        // Deduplicate: coincident points make the latent variance claim
        // trivially true but can stress the jitter path.
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - 0.5).collect();
        let k = SquaredExponential::new(1);
        let cfg = GpConfig::default();
        let gp = Gp::with_params(k, xs.clone(), ys, vec![0.0, -1.0], -4.0, &cfg).unwrap();
        for x in &xs {
            let (_, var_at_obs) = gp.predict_standardized(x);
            // Far from all data the latent variance approaches the prior
            // variance (= 1 here); at observations it must be far below.
            prop_assert!(var_at_obs < 0.1, "var at observation = {var_at_obs}");
        }
        let (_, var_far) = gp.predict_standardized(&[57.0]);
        prop_assert!(var_far > 0.9);
    }

    #[test]
    fn output_shift_equivariance(shift in -50.0f64..50.0) {
        // Standardization makes the posterior mean equivariant under
        // output shifts: predict(y + c) == predict(y) + c.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos()).collect();
        let ys_shifted: Vec<f64> = ys.iter().map(|y| y + shift).collect();
        let k = SquaredExponential::new(1);
        let params = vec![0.0, -1.0];
        let cfg = GpConfig::default();
        let a = Gp::with_params(k.clone(), xs.clone(), ys, params.clone(), -3.0, &cfg)
            .unwrap();
        let b = Gp::with_params(k, xs, ys_shifted, params, -3.0, &cfg).unwrap();
        for q in [0.05, 0.37, 0.81] {
            let pa = a.predict(&[q]);
            let pb = b.predict(&[q]);
            prop_assert!((pb.mean - pa.mean - shift).abs() < 1e-9);
            prop_assert!((pb.var - pa.var).abs() < 1e-9 * (1.0 + pa.var));
        }
    }
}

/// Bit-identity pins for the cached hot paths: the workspace-backed NLML
/// (value and gradient) and the batched posterior must reproduce the naive
/// per-pair/per-point paths **exactly** — compared via `f64::to_bits`, no
/// tolerances — for every kernel that overrides the batch hooks.
mod bit_identity {
    use super::*;
    use proptest::TestCaseError;

    /// Every constructible backend, scalar included: a foreign one degrades
    /// to scalar.
    const BACKENDS: [mfbo_simd::Backend; 3] = [
        mfbo_simd::Backend::Scalar,
        mfbo_simd::Backend::Avx2,
        mfbo_simd::Backend::Neon,
    ];

    /// Both batch hooks of `kernel`, on a lower-triangle batch built for
    /// every backend, reproduce the per-pair paths bit for bit: values
    /// through `Kernel::eval`, and the gradient hook, fed the batch's own
    /// values, through the weighted `eval_grad` accumulation in pair order —
    /// the loop the NLML gradient runs pair by pair.
    fn check_hooks_match_per_pair<K: Kernel>(
        kernel: &K,
        theta: &[f64],
        xs: &[Vec<f64>],
    ) -> Result<(), TestCaseError> {
        let pairs: Vec<(&[f64], &[f64])> = xs
            .iter()
            .enumerate()
            .flat_map(|(i, a)| xs[..=i].iter().map(move |b| (&a[..], &b[..])))
            .collect();
        let weights: Vec<f64> = (0..pairs.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut grad_ref = vec![0.0; kernel.num_params()];
        let mut kg = vec![0.0; kernel.num_params()];
        for (&w, &(a, b)) in weights.iter().zip(&pairs) {
            kernel.eval_grad(theta, a, b, &mut kg);
            for (g, &dk) in grad_ref.iter_mut().zip(&kg) {
                *g += w * dk;
            }
        }
        for be in BACKENDS {
            let batch = DiffBatch::lower_triangle_with_backend(xs, be);
            prop_assert_eq!(batch.len(), pairs.len());
            let mut values = vec![0.0; batch.len()];
            kernel.eval_from_diffs(theta, &batch, &mut values);
            for (v, &(a, b)) in values.iter().zip(&pairs) {
                prop_assert_eq!(v.to_bits(), kernel.eval(theta, a, b).to_bits(), "{:?}", be);
            }
            let mut grad = vec![0.0; kernel.num_params()];
            kernel.grad_from_diffs_with_values(theta, &batch, &weights, &values, &mut grad);
            for (g, r) in grad.iter().zip(&grad_ref) {
                prop_assert_eq!(g.to_bits(), r.to_bits(), "{:?}", be);
            }
        }
        Ok(())
    }

    /// The reference posterior, pair by pair through `Kernel::eval`: the
    /// Gram matrix assembled and factorized exactly as `Gp::with_params`
    /// does (noise on the diagonal, same jitter ladder), then the textbook
    /// mean `k*ᵀα` and variance `k(x, x) − ‖L⁻¹k*‖²`.
    fn oracle_posterior<K: Kernel>(gp: &Gp<K>, x: &[f64]) -> (f64, f64) {
        let (k, p, xs) = (gp.kernel(), gp.params(), gp.xs());
        let n = xs.len();
        let mut km = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = k.eval(p, &xs[i], &xs[j]);
                km[(i, j)] = v;
                km[(j, i)] = v;
            }
            km[(i, i)] += gp.noise_var_standardized();
        }
        let chol = Cholesky::new_with_jitter(&km, 1e-10, 1e-4).unwrap();
        let alpha = chol.solve_vec(gp.ys_standardized());
        let kstar: Vec<f64> = xs.iter().map(|xi| k.eval(p, x, xi)).collect();
        let mean = mfbo_linalg::dot(&kstar, &alpha);
        let v = chol.forward_solve(&kstar);
        (mean, (k.eval(p, x, x) - mfbo_linalg::dot(&v, &v)).max(0.0))
    }

    fn check_predict_against_oracle<K: Kernel>(
        gp: &Gp<K>,
        queries: &[Vec<f64>],
    ) -> Result<(), TestCaseError> {
        let batch = gp.predict_batch_standardized(queries);
        for (q, (bm, bv)) in queries.iter().zip(&batch) {
            let (om, ov) = oracle_posterior(gp, q);
            let (m, v) = gp.predict_standardized(q);
            prop_assert_eq!(m.to_bits(), om.to_bits());
            prop_assert_eq!(v.to_bits(), ov.to_bits());
            prop_assert_eq!(bm.to_bits(), om.to_bits());
            prop_assert_eq!(bv.to_bits(), ov.to_bits());
        }
        prop_assert!(gp.predict_batch_standardized(&[]).is_empty());
        Ok(())
    }

    fn check_cached_nlml_with_grad<K: Kernel>(
        kernel: &K,
        theta: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<(), TestCaseError> {
        let batch = DiffBatch::lower_triangle(xs);
        let (nv, ng) = nlml_with_grad(kernel, theta, xs, ys);
        let (cv, cg) = nlml_with_grad_cached(kernel, theta, &batch, ys);
        prop_assert_eq!(nv.to_bits(), cv.to_bits());
        for (a, b) in ng.iter().zip(&cg) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        Ok(())
    }

    /// The split NLML — value half, then gradient half from the value
    /// half's factor — against the fused `nlml_with_grad_cached` oracle,
    /// on batches built under the detected backend and forced scalar.
    /// The fused path is itself checked against the pair-by-pair
    /// `nlml_with_grad`, which shares no code with the halves. Returns the
    /// fused value so callers can assert which branch ran.
    fn check_split_nlml<K: Kernel>(
        kernel: &K,
        theta: &[f64],
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<f64, TestCaseError> {
        let (nv, ng) = nlml_with_grad(kernel, theta, xs, ys);
        let mut fused_value = f64::NAN;
        for be in [mfbo_simd::detect(), mfbo_simd::Backend::Scalar] {
            let batch = DiffBatch::lower_triangle_with_backend(xs, be);
            let (fv, fg) = nlml_with_grad_cached(kernel, theta, &batch, ys);
            let (sv, factor) = nlml_value_cached(kernel, theta, &batch, ys);
            prop_assert_eq!(factor.is_some(), sv.is_finite());
            let sg = nlml_grad_cached(kernel, theta, &batch, factor);
            prop_assert_eq!(sv.to_bits(), fv.to_bits());
            prop_assert_eq!(sg.len(), fg.len());
            for (a, b) in sg.iter().zip(&fg) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(fv.to_bits(), nv.to_bits());
            for (a, b) in fg.iter().zip(&ng) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            fused_value = fv;
        }
        Ok(fused_value)
    }

    /// A singular θ gives `(inf, zeros)` from both paths: the value half
    /// keeps no factor and the gradient half reports zeros.
    fn check_split_nlml_singular<K: Kernel>(
        kernel: &K,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<(), TestCaseError> {
        // exp(2·400) overflows: every kernel entry is infinite.
        let theta = vec![400.0; kernel.num_params() + 1];
        let v = check_split_nlml(kernel, &theta, xs, ys)?;
        prop_assert_eq!(v, f64::INFINITY);
        let batch = DiffBatch::lower_triangle(xs);
        let (sv, factor) = nlml_value_cached(kernel, &theta, &batch, ys);
        prop_assert_eq!(sv, f64::INFINITY);
        prop_assert!(factor.is_none());
        let g = nlml_grad_cached(kernel, &theta, &batch, None);
        prop_assert!(g.len() == theta.len() && g.iter().all(|&x| x == 0.0));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The two-phase NLML objective L-BFGS trains with is bit-identical
        /// to the fused value-and-gradient path, for SE and NARGP kernels
        /// from one to 36 design dimensions.
        #[test]
        fn split_nlml_bit_identical_to_fused(
            xs in points(10, 37),
            logsf in -0.5f64..0.5,
            logl in -1.5f64..0.5,
            log_noise in -6.0f64..-1.0,
        ) {
            for d in [1usize, 5, 36] {
                let se_xs: Vec<Vec<f64>> = xs.iter().map(|x| x[..d].to_vec()).collect();
                let ys: Vec<f64> = se_xs
                    .iter()
                    .map(|x| (4.0 * x[0]).sin() + x.iter().sum::<f64>() / d as f64)
                    .collect();
                let se = SquaredExponential::new(d);
                let mut theta = vec![logsf];
                theta.extend((0..d).map(|i| logl + 0.1 * i as f64));
                theta.push(log_noise);
                prop_assert!(check_split_nlml(&se, &theta, &se_xs, &ys)?.is_finite());
                check_split_nlml_singular(&se, &se_xs, &ys)?;

                // NARGP: d design dims plus the low-fidelity feature.
                let aug: Vec<Vec<f64>> = xs.iter().map(|x| x[..=d].to_vec()).collect();
                let nargp = NargpKernel::new(d);
                let mut theta = nargp.default_params();
                theta.push(log_noise);
                prop_assert!(check_split_nlml(&nargp, &theta, &aug, &ys)?.is_finite());
                check_split_nlml_singular(&nargp, &aug, &ys)?;
            }
        }

        /// A fit handed a caller's batch — the bundle fitters' sharing
        /// hook — is bit-identical to one that builds its own, whichever
        /// backend the shared batch was built for: the NLML value and
        /// gradient over the shared batch against the per-pair path, and
        /// the θ, NLML and posterior of `Gp::fit_planned` with and without
        /// it. (A frozen refresh reads no batch.)
        #[test]
        fn shared_batch_nlml_bit_identity(
            xs in points(9, 2),
            logsf in -0.5f64..0.5,
            logl in -1.5f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0] - x[1]).sin()).collect();
            let k = SquaredExponential::new(2);
            let theta = [logsf, logl, -1.0, -2.0];
            let (nv, ng) = nlml_with_grad(&k, &theta, &xs, &ys);
            let cfg = GpConfig::fast();
            let starts = Gp::plan_starts(&k, &cfg, None, &mut StdRng::seed_from_u64(3));
            let fit = |batch: Option<&DiffBatch>| {
                let (xs, ys) = (xs.clone(), ys.clone());
                Gp::fit_planned(k.clone(), xs, ys, &cfg, starts.clone(), batch).unwrap()
            };
            let own = fit(None);
            for be in BACKENDS {
                let shared = DiffBatch::lower_triangle_with_backend(&xs, be);
                let (sv, sg) = nlml_with_grad_cached(&k, &theta, &shared, &ys);
                prop_assert_eq!(nv.to_bits(), sv.to_bits());
                for (a, b) in ng.iter().zip(&sg) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                let borrowed = fit(Some(&shared));
                prop_assert_eq!(own.nlml().to_bits(), borrowed.nlml().to_bits());
                for (a, b) in own.theta().iter().zip(&borrowed.theta()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                for q in [[0.13, 0.71], [0.52, 0.05]] {
                    let (a, b) = (own.predict(&q), borrowed.predict(&q));
                    prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                    prop_assert_eq!(a.var.to_bits(), b.var.to_bits());
                }
            }
        }

        #[test]
        fn cached_nlml_bit_identical_se(
            xs in points(9, 2),
            logsf in -0.5f64..0.5,
            logl in -1.5f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0] - x[1]).sin()).collect();
            let k = SquaredExponential::new(2);
            check_cached_nlml_with_grad(&k, &[logsf, logl, -1.0, -2.0], &xs, &ys)?;
        }

        #[test]
        fn cached_nlml_bit_identical_nargp(xs in points(8, 3)) {
            // Augmented input: 2 design dims + 1 fidelity feature.
            let ys: Vec<f64> = xs.iter().map(|x| x[0] + x[1] * x[2]).collect();
            let k = NargpKernel::new(2);
            let mut theta = k.default_params();
            theta.push(-2.0);
            check_cached_nlml_with_grad(&k, &theta, &xs, &ys)?;
        }

        /// Pointwise and batched prediction against the per-pair reference
        /// posterior, for both kernels: every kernel value through
        /// `Kernel::eval`, none through the batch hooks.
        #[test]
        fn predict_matches_per_pair_eval_oracle(
            xs in points(10, 3),
            queries in points(6, 3),
            logl in -1.0f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos() + x[1] * x[2]).collect();
            let nargp = NargpKernel::new(2);
            let mut nargp_params = nargp.default_params();
            nargp_params[1] = logl;
            let se = Gp::with_params(
                SquaredExponential::new(3),
                xs.clone(),
                ys.clone(),
                vec![0.1, logl, logl, -0.3],
                -2.0,
                &GpConfig::default(),
            )
            .unwrap();
            check_predict_against_oracle(&se, &queries)?;
            let cfg = GpConfig::default();
            let fused = Gp::with_params(nargp, xs, ys, nargp_params, -2.0, &cfg).unwrap();
            check_predict_against_oracle(&fused, &queries)?;
        }

        /// The propagated NARGP posterior (design-space factors hoisted out
        /// of the sample loop) against explicit augmented rows `(x, f)` fed
        /// through the generic batched predict, at the charge pump's 36
        /// design dimensions and below, across sample counts that do and do
        /// not fill whole SIMD lane groups, under forced-scalar and the
        /// detected backend. Some samples coincide with training fidelity
        /// values.
        #[test]
        fn propagated_posterior_bit_identical_to_augmented_rows(
            flat in prop::collection::vec(0.0f64..1.0, 13 * 37),
            dim_ix in 0usize..3,
            s_ix in 0usize..4,
            logl in -1.0f64..1.0,
            spread in 0.0f64..2.0,
        ) {
            let d = [1usize, 5, 36][dim_ix];
            let s = [1usize, 2, 12, 20][s_ix];
            let mut rows = flat.chunks(37).map(|c| c[..d + 1].to_vec());
            let x = rows.next().unwrap()[..d].to_vec();
            let train: Vec<Vec<f64>> = rows.collect();
            let ys: Vec<f64> = train.iter().map(|z| (4.0 * z[0]).sin() + z[d]).collect();
            let kernel = NargpKernel::new(d);
            // Every design lengthscale of k2 and k3 (all entries from index
            // 3 on except k3's σ_f at 3 + d) grows like √d, so that k2 and
            // k3 stay away from underflow at 36 dimensions.
            let mut params = kernel.default_params();
            let scale = logl + 0.5 * (d as f64).ln();
            for (j, p) in params.iter_mut().enumerate().skip(3) {
                if j != 2 + d + 1 {
                    *p = scale;
                }
            }
            let cfg = GpConfig::default();
            let gp = Gp::with_params(kernel, train.clone(), ys, params, -2.0, &cfg).unwrap();
            let fs: Vec<f64> = (0..s)
                .map(|k| match k % 3 {
                    0 => train[k % train.len()][d],
                    _ => spread * ((k as f64 * 0.71).sin() - 0.2),
                })
                .collect();
            let augmented: Vec<Vec<f64>> = fs
                .iter()
                .map(|&f| {
                    let mut z = x.clone();
                    z.push(f);
                    z
                })
                .collect();
            for be in [mfbo_simd::detect(), mfbo_simd::Backend::Scalar] {
                let fast = gp.predict_propagated_standardized_with_backend(&x, &fs, be);
                let reference = gp.predict_batch_standardized_with_backend(&augmented, be);
                prop_assert_eq!(fast.len(), s);
                for ((fm, fv), (rm, rv)) in fast.iter().zip(&reference) {
                    prop_assert_eq!(fm.to_bits(), rm.to_bits());
                    prop_assert_eq!(fv.to_bits(), rv.to_bits());
                }
            }
        }

        /// The mean-only and slice-filling posteriors against the full
        /// ones, at 1, 5 and the charge pump's 36 design dimensions: the
        /// means of both kernels against the `.0` of the full posterior, the
        /// SE posteriors written into slices against the returned ones, and
        /// the propagated NARGP sample means against the full propagated
        /// posterior.
        #[test]
        fn mean_only_posteriors_match_full(
            flat in prop::collection::vec(0.0f64..1.0, 22 * 37),
            dim_ix in 0usize..3,
            m in 1usize..10,
            s_ix in 0usize..3,
            logl in -1.0f64..1.0,
        ) {
            let d = [1usize, 5, 36][dim_ix];
            let s = [1usize, 12, 20][s_ix];
            let rows: Vec<Vec<f64>> = flat.chunks(37).map(|c| c[..d + 1].to_vec()).collect();
            let (train, queries) = rows.split_at(12);
            let queries = &queries[..m];
            let ys: Vec<f64> = train.iter().map(|z| (4.0 * z[0]).sin() + z[d]).collect();
            let scale = logl + 0.5 * (d as f64).ln();
            let cfg = GpConfig::default();

            let design = |zs: &[Vec<f64>]| zs.iter().map(|z| z[..d].to_vec()).collect::<Vec<_>>();
            let mut se_params = vec![scale; d + 1];
            se_params[0] = 0.2;
            let se = Gp::with_params(
                SquaredExponential::new(d),
                design(train),
                ys.clone(),
                se_params,
                -2.0,
                &cfg,
            )
            .unwrap();
            let se_queries = design(queries);
            let full = se.predict_batch_standardized(&se_queries);

            // NARGP: design lengthscales grow like √d as in the propagated
            // posterior test above, so k2 and k3 stay away from underflow.
            let kernel = NargpKernel::new(d);
            let mut params = kernel.default_params();
            for (j, p) in params.iter_mut().enumerate().skip(3) {
                if j != 2 + d + 1 {
                    *p = scale;
                }
            }
            let gp = Gp::with_params(kernel, train.to_vec(), ys, params, -2.0, &cfg).unwrap();
            let nargp_full = gp.predict_batch_standardized(queries);
            let fs: Vec<f64> = (0..s).map(|k| (k as f64 * 0.71).sin() - 0.2).collect();

            let mut means = vec![f64::NAN; m];
            let mut vars = vec![f64::NAN; m];
            se.predict_means_standardized(&se_queries, &mut means);
            for ((q, mean), f) in se_queries.iter().zip(&means).zip(&full) {
                prop_assert_eq!(mean.to_bits(), f.0.to_bits());
                prop_assert_eq!(mean.to_bits(), se.predict_standardized(q).0.to_bits());
            }
            se.predict_batch_standardized_into(&se_queries, &mut means, &mut vars);
            for ((mean, var), f) in means.iter().zip(&vars).zip(&full) {
                prop_assert_eq!(mean.to_bits(), f.0.to_bits());
                prop_assert_eq!(var.to_bits(), f.1.to_bits());
            }

            gp.predict_means_standardized(queries, &mut means);
            for (mean, f) in means.iter().zip(&nargp_full) {
                prop_assert_eq!(mean.to_bits(), f.0.to_bits());
            }

            let mut sample_means = vec![f64::NAN; s];
            for x in &se_queries {
                gp.predict_propagated_means(x, &fs, &mut sample_means);
                let full = gp.predict_propagated_standardized(x, &fs);
                prop_assert_eq!(full.len(), s);
                for (mean, f) in sample_means.iter().zip(&full) {
                    prop_assert_eq!(mean.to_bits(), f.0.to_bits());
                }
            }
        }

        /// The SIMD backend choice must be bit-invisible end to end: forced
        /// scalar and the detected backend produce identical predictions.
        /// Query counts sweep the lane-group remainders (0..lanes-1 queries
        /// left over after the interleaved groups).
        #[test]
        fn predict_batch_backend_bit_invisible(
            xs in points(11, 2),
            queries in points(9, 2),
            m in 1usize..9,
            logl in -1.0f64..0.5,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).sin() - x[1]).collect();
            let gp = Gp::with_params(
                SquaredExponential::new(2),
                xs,
                ys,
                vec![0.1, logl, logl],
                -2.0,
                &GpConfig::default(),
            )
            .unwrap();
            let queries = &queries[..m];
            let fast = gp.predict_batch_standardized_with_backend(queries, mfbo_simd::detect());
            let reference =
                gp.predict_batch_standardized_with_backend(queries, mfbo_simd::Backend::Scalar);
            for ((fm, fv), (rm, rv)) in fast.iter().zip(&reference) {
                prop_assert_eq!(fm.to_bits(), rm.to_bits());
                prop_assert_eq!(fv.to_bits(), rv.to_bits());
            }
        }

        /// Kernel batch hooks under every constructible backend, scalar
        /// included, reproduce the per-pair `eval`/`eval_grad` bit for bit,
        /// for both kernels.
        #[test]
        fn kernel_batch_hooks_match_per_pair_eval(xs in points(9, 3)) {
            check_hooks_match_per_pair(&SquaredExponential::new(3), &[0.2, -0.5, 0.1, -1.0], &xs)?;
            let nargp = NargpKernel::new(2);
            let theta = nargp.default_params();
            check_hooks_match_per_pair(&nargp, &theta, &xs)?;
        }
    }
}

#[test]
fn training_is_deterministic_given_seed() {
    let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
    let fit = || {
        let mut rng = StdRng::seed_from_u64(5);
        Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::default(),
            &mut rng,
        )
        .unwrap()
    };
    let a = fit();
    let b = fit();
    assert_eq!(a.theta(), b.theta());
    assert_eq!(a.nlml(), b.nlml());
}
