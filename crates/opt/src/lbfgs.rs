//! Limited-memory BFGS with projected box bounds.
//!
//! This is the workhorse behind GP hyperparameter training (minimizing the
//! negative log marginal likelihood in log-hyperparameter space) and the
//! final polish of acquisition optima. The implementation is the standard
//! two-loop recursion with an Armijo backtracking line search; box bounds
//! are handled by projecting both the iterates and the search direction
//! (a gradient-projection scheme that is simple and robust for the smooth,
//! low-dimensional problems we solve).

use crate::{Bounds, OptResult};
use std::collections::VecDeque;

/// L-BFGS minimizer configuration.
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, lbfgs::Lbfgs};
///
/// // Minimize the 2-D Rosenbrock function with analytic gradients.
/// let fg = |x: &[f64]| {
///     let v = (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
///     let g = vec![
///         -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
///         200.0 * (x[1] - x[0] * x[0]),
///     ];
///     (v, g)
/// };
/// let bounds = Bounds::symmetric(2, 10.0);
/// let r = Lbfgs::new().with_max_iters(1000).minimize(&fg, &[-1.2, 1.0], &bounds);
/// assert!((r.x[0] - 1.0).abs() < 1e-4);
/// assert!((r.x[1] - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct Lbfgs {
    max_iters: usize,
    grad_tol: f64,
}

/// History length of the two-loop recursion.
const MEMORY: usize = 8;
/// Relative objective-decrease tolerance.
const F_TOL: f64 = 1e-12;
/// Backtracking steps per line search.
const MAX_LINE_SEARCH: usize = 30;

impl Default for Lbfgs {
    fn default() -> Self {
        Lbfgs {
            max_iters: 200,
            grad_tol: 1e-6,
        }
    }
}

impl Lbfgs {
    /// Creates an optimizer with default settings (memory 8, 200 iterations,
    /// gradient tolerance `1e-6`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }

    /// Sets the projected-gradient infinity-norm tolerance.
    pub fn with_grad_tol(mut self, tol: f64) -> Self {
        self.grad_tol = tol;
        self
    }

    /// Minimizes `fg` (returning `(value, gradient)`) from `x0` inside
    /// `bounds`.
    ///
    /// Non-finite objective values are treated as `+inf`, which the line
    /// search simply backs away from; this matters for NLML surfaces that
    /// blow up when a kernel matrix loses positive definiteness.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize<F>(&self, fg: &F, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        F: Fn(&[f64]) -> (f64, Vec<f64>) + ?Sized,
    {
        assert_eq!(x0.len(), bounds.dim(), "x0 dimension mismatch");
        let n = x0.len();
        let mut x = bounds.clamp(x0);
        let (mut f, mut g) = fg(&x);
        let mut evals = 1usize;
        if !f.is_finite() {
            f = f64::INFINITY;
        }

        let mut s_hist: VecDeque<Vec<f64>> = VecDeque::with_capacity(MEMORY);
        let mut y_hist: VecDeque<Vec<f64>> = VecDeque::with_capacity(MEMORY);
        let mut rho_hist: VecDeque<f64> = VecDeque::with_capacity(MEMORY);
        let mut converged = false;
        let mut iters = 0usize;

        for it in 0..self.max_iters {
            iters = it + 1;
            // Projected-gradient convergence test: at active bounds, only the
            // inward gradient component counts.
            let pg = projected_gradient(&x, &g, bounds);
            if mfbo_linalg::infinity_norm(&pg) < self.grad_tol {
                converged = true;
                break;
            }

            // Two-loop recursion on the *projected* gradient so that active
            // bounds do not pollute the search direction (gradient-
            // projection L-BFGS).
            let mut q = pg.clone();
            let k = s_hist.len();
            let mut alpha = vec![0.0; k];
            for i in (0..k).rev() {
                alpha[i] = rho_hist[i] * mfbo_linalg::dot(&s_hist[i], &q);
                mfbo_linalg::axpy(-alpha[i], &y_hist[i], &mut q);
            }
            // Initial Hessian scaling gamma = s'y / y'y.
            if k > 0 {
                let sy = mfbo_linalg::dot(&s_hist[k - 1], &y_hist[k - 1]);
                let yy = mfbo_linalg::dot(&y_hist[k - 1], &y_hist[k - 1]);
                if yy > 0.0 && sy > 0.0 {
                    let gamma = sy / yy;
                    for qi in q.iter_mut() {
                        *qi *= gamma;
                    }
                }
            }
            for i in 0..k {
                let beta = rho_hist[i] * mfbo_linalg::dot(&y_hist[i], &q);
                mfbo_linalg::axpy(alpha[i] - beta, &s_hist[i], &mut q);
            }
            // Descent direction.
            let mut d: Vec<f64> = q.iter().map(|v| -v).collect();
            // Fall back to projected steepest descent if the direction is
            // not a descent direction (can happen right after a curvature
            // reset).
            if mfbo_linalg::dot(&d, &pg) >= 0.0 {
                d = pg.iter().map(|v| -v).collect();
            }

            // Armijo backtracking line search with projection onto bounds.
            let c1 = 1e-4;
            let mut line_search = |d: &[f64]| -> Option<(Vec<f64>, f64)> {
                let g_dot_d = mfbo_linalg::dot(&pg, d);
                let mut step = 1.0;
                let mut x_new = x.clone();
                for _ in 0..MAX_LINE_SEARCH {
                    for i in 0..n {
                        x_new[i] = x[i] + step * d[i];
                    }
                    bounds.clamp_in_place(&mut x_new);
                    let (fv, _) = probe(fg, &x_new);
                    evals += 1;
                    // Armijo on the projected step (use the actual
                    // displacement when the direction was not provably a
                    // descent direction).
                    let actual: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
                    let pred = if g_dot_d < 0.0 {
                        c1 * step * g_dot_d
                    } else {
                        -c1 * mfbo_linalg::norm2(&actual)
                    };
                    if fv.is_finite() && fv <= f + pred {
                        return Some((x_new, fv));
                    }
                    step *= 0.5;
                }
                None
            };
            let attempt = line_search(&d).or_else(|| {
                // The quasi-Newton direction can be useless when the active
                // set just changed; reset to projected steepest descent.
                let sd: Vec<f64> = pg.iter().map(|v| -v).collect();
                let r = line_search(&sd);
                if r.is_some() {
                    s_hist.clear();
                    y_hist.clear();
                    rho_hist.clear();
                }
                r
            });
            let (x_new, f_new) = match attempt {
                Some(v) => v,
                None => {
                    // Both directions failed: we are at a (projected)
                    // stationary point to within line-search resolution.
                    converged = mfbo_linalg::infinity_norm(&pg) < self.grad_tol * 10.0;
                    break;
                }
            };

            let (_, g_new) = fg(&x_new);
            evals += 1;
            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            // Curvature pairs use projected gradients so the memory stays
            // consistent with the projected search directions.
            let pg_new = projected_gradient(&x_new, &g_new, bounds);
            let yv: Vec<f64> = pg_new.iter().zip(&pg).map(|(a, b)| a - b).collect();
            let sy = mfbo_linalg::dot(&s, &yv);
            // Only keep pairs with positive curvature (standard safeguard).
            if sy > 1e-12 * mfbo_linalg::norm2(&s) * mfbo_linalg::norm2(&yv) {
                if s_hist.len() == MEMORY {
                    s_hist.pop_front();
                    y_hist.pop_front();
                    rho_hist.pop_front();
                }
                rho_hist.push_back(1.0 / sy);
                s_hist.push_back(s);
                y_hist.push_back(yv);
            }

            let f_prev = f;
            x = x_new;
            f = f_new;
            g = g_new;

            if (f_prev - f).abs() <= F_TOL * f_prev.abs().max(1.0) {
                converged = true;
                break;
            }
        }

        OptResult {
            x,
            value: f,
            evaluations: evals,
            iterations: iters,
            converged,
        }
    }
}

/// Evaluates `fg`, mapping non-finite values to `+inf` so the line search
/// treats them as "worse than anything".
fn probe<F>(fg: &F, x: &[f64]) -> (f64, Vec<f64>)
where
    F: Fn(&[f64]) -> (f64, Vec<f64>) + ?Sized,
{
    let (f, g) = fg(x);
    if f.is_finite() {
        (f, g)
    } else {
        (f64::INFINITY, g)
    }
}

/// Gradient with components pointing out of the feasible box zeroed.
fn projected_gradient(x: &[f64], g: &[f64], bounds: &Bounds) -> Vec<f64> {
    let eps = 1e-12;
    x.iter()
        .zip(g)
        .zip(bounds.lower().iter().zip(bounds.upper()))
        .map(|((xi, gi), (l, u))| {
            let blocked_low = (xi - l).abs() < eps && *gi > 0.0;
            let blocked_high = (xi - u).abs() < eps && *gi < 0.0;
            if blocked_low || blocked_high {
                0.0
            } else {
                *gi
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numgrad::with_central_gradient;

    #[test]
    fn quadratic_bowl() {
        let fg = |x: &[f64]| {
            let v = x.iter().map(|v| v * v).sum::<f64>();
            let g = x.iter().map(|v| 2.0 * v).collect();
            (v, g)
        };
        let b = Bounds::symmetric(4, 10.0);
        let r = Lbfgs::new().minimize(&fg, &[3.0, -2.0, 1.0, 5.0], &b);
        assert!(r.converged);
        assert!(r.value < 1e-10);
    }

    #[test]
    fn rosenbrock_10d_with_numeric_gradient() {
        let f = |x: &[f64]| {
            x.windows(2)
                .map(|w| (1.0 - w[0]).powi(2) + 100.0 * (w[1] - w[0] * w[0]).powi(2))
                .sum::<f64>()
        };
        let fg = with_central_gradient(f);
        let b = Bounds::symmetric(6, 5.0);
        let r = Lbfgs::new()
            .with_max_iters(2000)
            .minimize(&fg, &[0.0; 6], &b);
        assert!(r.value < 1e-5, "value = {}", r.value);
    }

    #[test]
    fn respects_active_bounds() {
        // Unconstrained optimum at (-3, -3); box forces x >= 0.
        let fg = |x: &[f64]| {
            let v = (x[0] + 3.0).powi(2) + (x[1] + 3.0).powi(2);
            (v, vec![2.0 * (x[0] + 3.0), 2.0 * (x[1] + 3.0)])
        };
        let b = Bounds::new(vec![0.0, 0.0], vec![5.0, 5.0]);
        let r = Lbfgs::new().minimize(&fg, &[2.0, 4.0], &b);
        assert!(r.x[0].abs() < 1e-6);
        assert!(r.x[1].abs() < 1e-6);
        assert!((r.value - 18.0).abs() < 1e-8);
    }

    #[test]
    fn survives_non_finite_regions() {
        // log(x) is -inf for x <= 0; optimizer must stay in the finite
        // region and find the minimum of x - ln(x) at x = 1.
        let fg = |x: &[f64]| {
            let v = x[0] - x[0].ln();
            (v, vec![1.0 - 1.0 / x[0]])
        };
        let b = Bounds::new(vec![1e-12], vec![10.0]);
        let r = Lbfgs::new().minimize(&fg, &[5.0], &b);
        assert!((r.x[0] - 1.0).abs() < 1e-5, "x = {:?}", r.x);
    }

    #[test]
    fn starting_point_outside_bounds_is_clamped() {
        let fg = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        let b = Bounds::new(vec![1.0], vec![2.0]);
        let r = Lbfgs::new().minimize(&fg, &[100.0], &b);
        assert!((r.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reports_evaluation_counts() {
        let fg = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        let b = Bounds::symmetric(1, 10.0);
        let r = Lbfgs::new().minimize(&fg, &[4.0], &b);
        assert!(r.evaluations >= 2);
        assert!(r.iterations >= 1);
    }
}
