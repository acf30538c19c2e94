//! Negative log marginal likelihood (paper eq. 3) and its gradient.
//!
//! The hyperparameter vector `θ` is the kernel's log-parameters with
//! `log σ_n` (observation-noise standard deviation) appended:
//! `θ = [kernel params…, log σ_n]`.
//!
//! `NLML(θ) = ½ (yᵀ K_θ⁻¹ y + log|K_θ| + N log 2π)` with
//! `K_θ = K(X, X) + σ_n² I`, and the gradient uses the classic identity
//! `∂NLML/∂θ_j = ½ tr((K⁻¹ − α αᵀ) ∂K/∂θ_j)` with `α = K⁻¹ y`.
//!
//! Three builders make the same kernel matrix bit for bit. The naive
//! [`nlml`] and [`nlml_with_grad`] call [`Kernel::eval`] per pair and serve
//! as the differential oracle. The NLML search, which rebuilds K over one
//! point set at every θ it probes, reads a [`DiffBatch`]
//! ([`nlml_value_cached`], [`nlml_grad_cached`]). A matrix built once — a
//! fit's final factor or a frozen refresh — comes row by row from the
//! model's [`TrainLayout`] (`kernel_matrix_from_layout`), so no
//! O(n²·d) batch is built for it.

use crate::kernel::Kernel;
use crate::scratch::with_scratch;
use crate::workspace::{DiffBatch, TrainLayout};
use mfbo_linalg::{Cholesky, Matrix};

pub(crate) const LOG_2PI: f64 = 1.837_877_066_409_345_5;

/// Assembles the noisy kernel matrix `K(X,X) + σ_n² I`.
pub(crate) fn kernel_matrix<K: Kernel>(
    kernel: &K,
    p: &[f64],
    log_noise: f64,
    xs: &[Vec<f64>],
) -> Matrix {
    let n = xs.len();
    let sn2 = mfbo_simd::exp(2.0 * log_noise);
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(p, &xs[i], &xs[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += sn2;
    }
    mfbo_telemetry::counter!("kernel_matrix_builds", 1u64);
    k
}

/// [`kernel_matrix`] from the fit-time layout of `xs`, under `s =
/// kernel.scales(p)`: row `i` is the kernel row of `xs[i]` against every
/// point ([`Kernel::eval_row`], bit-identical to [`Kernel::eval`] per pair)
/// plus `σ_n²` on the diagonal. The same matrix bit for bit: `eval` is
/// symmetric to the bit (`x_i − x_j` and `x_j − x_i` differ only in sign
/// before they are scaled and squared), so row `i` above the diagonal holds
/// what [`kernel_matrix`] mirrors there.
pub(crate) fn kernel_matrix_from_layout<K: Kernel>(
    kernel: &K,
    s: &K::Scales,
    log_noise: f64,
    xs: &[Vec<f64>],
    layout: &TrainLayout,
) -> Matrix {
    let n = xs.len();
    let (sn2, be) = (mfbo_simd::exp(2.0 * log_noise), mfbo_simd::active());
    let mut k = Matrix::zeros(n, n);
    with_scratch(layout.stride(), |row| {
        for (i, x) in xs.iter().enumerate() {
            kernel.eval_row(s, x, layout, be, row);
            k.row_mut(i).copy_from_slice(&row[..n]);
            k[(i, i)] += sn2;
        }
    });
    mfbo_telemetry::counter!("kernel_matrix_builds", 1u64);
    k
}

/// Mirrors the noisy lower-triangle kernel values into a full symmetric
/// matrix — the assembly half of [`kernel_matrix`] for the NLML search,
/// which keeps the value buffer alive for the gradient.
fn assemble_from_lower(n: usize, kv: &[f64], sn2: f64) -> Matrix {
    let mut k = Matrix::zeros(n, n);
    let mut q = 0;
    for i in 0..n {
        for j in 0..=i {
            let v = kv[q];
            q += 1;
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += sn2;
    }
    mfbo_telemetry::counter!("kernel_matrix_builds", 1u64);
    k
}

/// Computes the NLML for hyperparameters `theta = [kernel params…, log σ_n]`.
///
/// Returns `f64::INFINITY` when the kernel matrix cannot be factorized.
///
/// # Panics
///
/// Panics if `theta.len() != kernel.num_params() + 1` or if `xs`/`ys`
/// lengths disagree.
pub fn nlml<K: Kernel>(kernel: &K, theta: &[f64], xs: &[Vec<f64>], ys: &[f64]) -> f64 {
    assert_eq!(
        theta.len(),
        kernel.num_params() + 1,
        "theta layout mismatch"
    );
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    let (kp, log_noise) = theta.split_at(kernel.num_params());
    let n = xs.len();
    let km = kernel_matrix(kernel, kp, log_noise[0], xs);
    mfbo_telemetry::counter!("nlml_evals", 1u64);
    nlml_from_matrix(&km, n, ys)
}

fn nlml_from_matrix(km: &Matrix, n: usize, ys: &[f64]) -> f64 {
    let chol = match Cholesky::new_with_jitter(km, 1e-10, 1e-4) {
        Ok(c) => c,
        Err(_) => return f64::INFINITY,
    };
    let quad = chol.quad_form(ys);
    0.5 * (quad + chol.log_det() + n as f64 * LOG_2PI)
}

/// Computes the NLML and its gradient with respect to `theta`.
///
/// Returns `(f64::INFINITY, zeros)` when the kernel matrix cannot be
/// factorized — the L-BFGS line search treats that as an infeasible step.
///
/// # Panics
///
/// Panics if `theta.len() != kernel.num_params() + 1` or if `xs`/`ys`
/// lengths disagree.
pub fn nlml_with_grad<K: Kernel>(
    kernel: &K,
    theta: &[f64],
    xs: &[Vec<f64>],
    ys: &[f64],
) -> (f64, Vec<f64>) {
    assert_eq!(
        theta.len(),
        kernel.num_params() + 1,
        "theta layout mismatch"
    );
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    let np = kernel.num_params();
    let (kp, log_noise) = theta.split_at(np);
    let n = xs.len();
    let km = kernel_matrix(kernel, kp, log_noise[0], xs);
    mfbo_telemetry::counter!("nlml_evals", 1u64);
    let chol = match Cholesky::new_with_jitter(&km, 1e-10, 1e-4) {
        Ok(c) => c,
        Err(_) => return (f64::INFINITY, vec![0.0; theta.len()]),
    };
    let alpha = chol.solve_vec(ys);
    let value = 0.5 * (mfbo_linalg::dot(ys, &alpha) + chol.log_det() + n as f64 * LOG_2PI);

    // W = K⁻¹ − α αᵀ (symmetric).
    let kinv = chol.inverse();
    let mut grad = vec![0.0; theta.len()];
    let mut kg = vec![0.0; np];
    let sn2 = mfbo_simd::exp(2.0 * log_noise[0]);
    for i in 0..n {
        for j in 0..=i {
            let w = kinv[(i, j)] - alpha[i] * alpha[j];
            let weight = if i == j { 0.5 * w } else { w };
            kernel.eval_grad(kp, &xs[i], &xs[j], &mut kg);
            for (g, &dk) in grad[..np].iter_mut().zip(kg.iter()) {
                *g += weight * dk;
            }
            if i == j {
                // ∂K_ii/∂log σ_n = 2 σ_n².
                grad[np] += weight * 2.0 * sn2;
            }
        }
    }
    (value, grad)
}

/// [`nlml_with_grad`] evaluated through the lower-triangle difference batch
/// over the training inputs (built once per fit, or shared by a bundle of
/// fits over the same inputs): the value half [`nlml_value_cached`] followed by the gradient half
/// [`nlml_grad_cached`].
///
/// Bit-identical to the naive path: the trace weights `Wᵢⱼ` are the same
/// expressions of the same `K⁻¹` entries (the lane-group inverse
/// [`Cholesky::inverse_lower_each`] reproduces them bit for bit), and
/// [`Kernel::grad_from_diffs_with_values`] (fed the kernel values the eval
/// pass already produced) adds every parameter's terms in the naive loop's
/// pair order. The noise-slot gradient is a separate accumulator, so
/// summing it over the diagonal afterwards reproduces the naive interleaved
/// order bit for bit.
///
/// # Panics
///
/// Panics if `theta.len() != kernel.num_params() + 1` or if `batch` does
/// not cover the lower triangle of `ys.len()` points.
pub fn nlml_with_grad_cached<K: Kernel>(
    kernel: &K,
    theta: &[f64],
    batch: &DiffBatch,
    ys: &[f64],
) -> (f64, Vec<f64>) {
    let (value, factor) = nlml_value_cached(kernel, theta, batch, ys);
    (value, nlml_grad_cached(kernel, theta, batch, factor))
}

/// What the gradient half of the NLML needs from its value half: the raw
/// (noise-free) lower-triangle kernel values, which the gradient hook reads
/// instead of recomputing them, the Cholesky factor of the noisy kernel
/// matrix, from which the gradient solves the lower triangle of `K⁻¹`, and
/// `α = K⁻¹ y`.
#[derive(Debug)]
pub struct NlmlFactor {
    kv: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
}

/// The value half of [`nlml_with_grad_cached`]: the NLML at `theta` plus
/// the factor its gradient is finished from, or `(f64::INFINITY, None)` when
/// the kernel matrix cannot be factorized.
///
/// The value is `½ (yᵀα + log|K| + N log 2π)` — the fused path's form,
/// whose bits differ from the quadratic form of the naive [`nlml`].
///
/// # Panics
///
/// Panics if `theta.len() != kernel.num_params() + 1` or if `batch` does
/// not cover the lower triangle of `ys.len()` points.
pub fn nlml_value_cached<K: Kernel>(
    kernel: &K,
    theta: &[f64],
    batch: &DiffBatch,
    ys: &[f64],
) -> (f64, Option<NlmlFactor>) {
    assert_eq!(
        theta.len(),
        kernel.num_params() + 1,
        "theta layout mismatch"
    );
    let n = ys.len();
    assert_eq!(batch.len(), n * (n + 1) / 2, "batch/ys length mismatch");
    let (kp, log_noise) = theta.split_at(kernel.num_params());
    // Keep the raw (noise-free) kernel values of the eval pass alive: the
    // gradient hook reuses them, saving kernels whose gradient factors
    // through the value a second per-pair `exp` sweep.
    let mut kv = vec![0.0; batch.len()];
    kernel.eval_from_diffs(kp, batch, &mut kv);
    let km = assemble_from_lower(n, &kv, mfbo_simd::exp(2.0 * log_noise[0]));
    mfbo_telemetry::counter!("nlml_evals", 1u64);
    let chol = match Cholesky::new_with_jitter(&km, 1e-10, 1e-4) {
        Ok(c) => c,
        Err(_) => return (f64::INFINITY, None),
    };
    let alpha = chol.solve_vec(ys);
    let value = 0.5 * (mfbo_linalg::dot(ys, &alpha) + chol.log_det() + n as f64 * LOG_2PI);
    (value, Some(NlmlFactor { kv, chol, alpha }))
}

/// The gradient half of [`nlml_with_grad_cached`]: the NLML gradient at
/// `theta`, finished from the factor [`nlml_value_cached`] returned for the
/// same `theta`. A missing factor (singular kernel matrix) gives zeros.
///
/// The trace weights `W = K⁻¹ − ααᵀ` are written in lower-triangle pair
/// order straight from the SIMD lanes of [`Cholesky::inverse_lower_each`],
/// which solves four vectors of `K⁻¹`'s columns at a time; no `n × n`
/// matrix is built. The kernel's gradient hook then sweeps its terms
/// across pairs. Both run on the batch's backend.
///
/// # Panics
///
/// Panics if `theta.len() != kernel.num_params() + 1`.
pub fn nlml_grad_cached<K: Kernel>(
    kernel: &K,
    theta: &[f64],
    batch: &DiffBatch,
    factor: Option<NlmlFactor>,
) -> Vec<f64> {
    let np = kernel.num_params();
    assert_eq!(theta.len(), np + 1, "theta layout mismatch");
    let mut grad = vec![0.0; theta.len()];
    let Some(NlmlFactor { kv, chol, alpha }) = factor else {
        return grad;
    };
    let (kp, log_noise) = theta.split_at(np);
    // W = K⁻¹ − α αᵀ in lower-triangle pair order, the diagonal entries
    // carrying the ½ trace factor, written straight from the lane-group
    // inverse (whose lower-triangle entries are the bits of the full one).
    let mut weights = vec![0.0; batch.len()];
    chol.inverse_lower_each(batch.simd_rows().0, |i, j, v| {
        let w = v - alpha[i] * alpha[j];
        weights[i * (i + 1) / 2 + j] = if i == j { 0.5 * w } else { w };
    });
    kernel.grad_from_diffs_with_values(kp, batch, &weights, &kv, &mut grad[..np]);
    let sn2 = mfbo_simd::exp(2.0 * log_noise[0]);
    for i in 0..alpha.len() {
        // Diagonal pair (i, i) sits at lower-triangle index i(i+3)/2.
        let weight = weights[i * (i + 3) / 2];
        grad[np] += weight * 2.0 * sn2;
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{NargpKernel, SquaredExponential};

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin()).collect();
        (xs, ys)
    }

    #[test]
    fn value_is_finite_for_reasonable_params() {
        let (xs, ys) = toy_data();
        let k = SquaredExponential::new(1);
        let mut theta = k.default_params();
        theta.push(-2.0);
        let v = nlml(&k, &theta, &xs, &ys);
        assert!(v.is_finite());
    }

    #[test]
    fn grad_matches_finite_differences_se() {
        let (xs, ys) = toy_data();
        let k = SquaredExponential::new(1);
        let theta = vec![0.2, -0.8, -1.5];
        let (v, g) = nlml_with_grad(&k, &theta, &xs, &ys);
        assert!(v.is_finite());
        let h = 1e-6;
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += h;
            let fp = nlml(&k, &tp, &xs, &ys);
            tp[j] -= 2.0 * h;
            let fm = nlml(&k, &tp, &xs, &ys);
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - g[j]).abs() < 1e-4 * (1.0 + num.abs()),
                "param {j}: numeric {num} vs analytic {}",
                g[j]
            );
        }
    }

    #[test]
    fn grad_matches_finite_differences_nargp() {
        // Augmented 2-D inputs (x, f_l).
        let xs: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                let x = i as f64 / 9.0;
                vec![x, (8.0 * x).sin()]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|z| (z[0] - 0.3) * z[1] * z[1]).collect();
        let k = NargpKernel::new(1);
        let mut theta = k.default_params();
        theta.push(-2.0);
        let (v, g) = nlml_with_grad(&k, &theta, &xs, &ys);
        assert!(v.is_finite());
        let h = 1e-6;
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += h;
            let fp = nlml(&k, &tp, &xs, &ys);
            tp[j] -= 2.0 * h;
            let fm = nlml(&k, &tp, &xs, &ys);
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - g[j]).abs() < 1e-4 * (1.0 + num.abs()),
                "param {j}: numeric {num} vs analytic {}",
                g[j]
            );
        }
    }

    /// The cached path — value half, lane-group inverse, pair-swept
    /// gradient hook — against the naive `nlml_with_grad` bit for bit, for
    /// both kernels, on every backend, at point counts that do and do not
    /// fill whole lane groups and pair blocks.
    #[test]
    fn cached_path_bit_identical_to_naive() {
        const BACKENDS: [mfbo_simd::Backend; 3] = [
            mfbo_simd::Backend::Scalar,
            mfbo_simd::Backend::Avx2,
            mfbo_simd::Backend::Neon,
        ];
        // Augmented inputs (x_1, x_2, f): the SE kernel reads all three.
        let data = |n: usize| {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let x = (i as f64 * 0.618).fract();
                    let y = (i as f64 * 0.414 + 0.2).fract();
                    vec![x, y, (5.0 * x).sin() + y]
                })
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|z| (4.0 * z[0]).sin() * z[2] + z[1])
                .collect();
            (xs, ys)
        };
        fn check<K: Kernel>(k: &K, theta: &[f64], xs: &[Vec<f64>], ys: &[f64]) {
            let (nv, ng) = nlml_with_grad(k, theta, xs, ys);
            for be in BACKENDS {
                let batch = DiffBatch::lower_triangle_with_backend(xs, be);
                let (cv, cg) = nlml_with_grad_cached(k, theta, &batch, ys);
                assert_eq!(
                    nv.to_bits(),
                    cv.to_bits(),
                    "value, n = {}, {be:?}",
                    xs.len()
                );
                for (j, (a, b)) in ng.iter().zip(&cg).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "param {j}, n = {}, {be:?}",
                        xs.len()
                    );
                }
            }
        }
        let se = SquaredExponential::new(3);
        let nargp = NargpKernel::new(2);
        for n in [1, 2, 3, 4, 5, 7, 9, 13, 28, 33] {
            let (xs, ys) = data(n);
            for theta in [[0.2, -0.8, -0.5, 0.1, -1.5], [0.0, -1.0, -2.0, 0.3, -3.0]] {
                check(&se, &theta, &xs, &ys);
            }
            let mut theta = nargp.default_params();
            theta.push(-2.0);
            check(&nargp, &theta, &xs, &ys);
            let theta: Vec<f64> = (0..theta.len())
                .map(|j| 0.3 * (j as f64).sin() - 0.4)
                .collect();
            check(&nargp, &theta, &xs, &ys);
        }
    }

    #[test]
    fn pathological_params_return_infinity_not_panic() {
        let (xs, ys) = toy_data();
        let k = SquaredExponential::new(1);
        // Gigantic signal with zero noise on duplicated inputs → singular.
        let mut dup_xs = xs.clone();
        dup_xs.extend(xs.iter().cloned());
        let mut dup_ys = ys.clone();
        // Conflicting observations at identical inputs.
        dup_ys.extend(ys.iter().map(|v| v + 3.0));
        let theta = vec![3.0, -5.0, -30.0];
        let v = nlml(&k, &theta, &dup_xs, &dup_ys);
        // Either jitter rescues it (finite) or we get +inf; never NaN/panic.
        assert!(!v.is_nan());
    }

    #[test]
    fn good_fit_has_lower_nlml_than_bad_fit() {
        let (xs, ys) = toy_data();
        let k = SquaredExponential::new(1);
        // Reasonable lengthscale vs absurdly short one with huge noise.
        let good = nlml(&k, &[0.0, -1.0, -3.0], &xs, &ys);
        let bad = nlml(&k, &[0.0, -5.0, 1.0], &xs, &ys);
        assert!(good < bad);
    }
}
