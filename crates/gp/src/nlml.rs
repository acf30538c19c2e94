//! Negative log marginal likelihood (paper eq. 3) and its gradient.
//!
//! The hyperparameter vector `θ` is the kernel's log-parameters with
//! `log σ_n` (observation-noise standard deviation) appended:
//! `θ = [kernel params…, log σ_n]`.
//!
//! `NLML(θ) = ½ (yᵀ K_θ⁻¹ y + log|K_θ| + N log 2π)` with
//! `K_θ = K(X, X) + σ_n² I`, and the gradient uses the classic identity
//! `∂NLML/∂θ_j = ½ tr((K⁻¹ − α αᵀ) ∂K/∂θ_j)` with `α = K⁻¹ y`.

use crate::kernel::Kernel;
use crate::workspace::DiffBatch;
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

/// [`kernel_matrix`] from the lower-triangle difference batch over `n`
/// points: same matrix bit for bit, but the per-pair kernel values come
/// from the batch hook.
pub(crate) fn kernel_matrix_cached<K: Kernel>(
    kernel: &K,
    p: &[f64],
    log_noise: f64,
    batch: &DiffBatch,
    n: usize,
) -> Matrix {
    let mut kv = vec![0.0; batch.len()];
    kernel.eval_from_diffs(p, batch, &mut kv);
    assemble_from_lower(n, &kv, mfbo_simd::exp(2.0 * log_noise))
}

/// Mirrors the noisy lower-triangle kernel values into a full symmetric
/// matrix — the assembly half of [`kernel_matrix`], shared by every cached
/// path so the gradient path can keep the value buffer alive.
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
/// Bit-identical to the naive path: the trace weights `Wᵢⱼ` are computed in
/// the same lower-triangle order and handed to
/// [`Kernel::grad_from_diffs_with_values`] (together with the kernel values
/// the eval pass already produced), whose accumulation contract matches the
/// naive pair-by-pair loop exactly. The noise-slot gradient is a separate
/// accumulator, so summing it over the diagonal afterwards reproduces the
/// naive interleaved order bit for bit.
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
/// (noise-free) lower-triangle kernel values, the Cholesky factor of the
/// noisy kernel matrix and `α = K⁻¹ y`.
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
    let n = alpha.len();
    // W = K⁻¹ − α αᵀ (symmetric), flattened in lower-triangle pair order
    // (diagonal entries carry the ½ trace factor). Only the lower triangle
    // of K⁻¹ is read, so the early-stopped inverse suffices — its computed
    // entries are bit-identical to the full inverse.
    let kinv = chol.inverse_lower();
    let mut weights = vec![0.0; batch.len()];
    let mut q = 0;
    for i in 0..n {
        for j in 0..=i {
            let w = kinv[(i, j)] - alpha[i] * alpha[j];
            weights[q] = if i == j { 0.5 * w } else { w };
            q += 1;
        }
    }
    kernel.grad_from_diffs_with_values(kp, batch, &weights, &kv, &mut grad[..np]);
    let sn2 = mfbo_simd::exp(2.0 * log_noise[0]);
    for i in 0..n {
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

    #[test]
    fn cached_path_bit_identical_to_naive() {
        let (xs, ys) = toy_data();
        let k = SquaredExponential::new(1);
        let batch = DiffBatch::lower_triangle(&xs);
        for theta in [[0.2, -0.8, -1.5], [0.0, -1.0, -3.0], [1.0, 0.5, -2.0]] {
            let (nv, ng) = nlml_with_grad(&k, &theta, &xs, &ys);
            let (cv, cg) = nlml_with_grad_cached(&k, &theta, &batch, &ys);
            assert_eq!(nv.to_bits(), cv.to_bits());
            for (a, b) in ng.iter().zip(&cg) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
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
