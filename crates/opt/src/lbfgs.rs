//! Limited-memory BFGS with projected box bounds.
//!
//! This is the optimizer behind GP hyperparameter training: `Gp::fit_planned`
//! minimizes the negative log marginal likelihood in log-hyperparameter
//! space with it. The implementation is the standard two-loop recursion with
//! an Armijo backtracking line search; box bounds are handled by projecting
//! both the iterates and the search direction (a gradient-projection scheme
//! that is simple and robust for the smooth, low-dimensional problems we
//! solve).
//!
//! The objective is two-phase ([`Objective`]): the line search asks only
//! for values, and the gradient is finished once per accepted step from the
//! state the accepted probe kept. Rejected Armijo probes therefore never pay
//! for a gradient, and no point is evaluated twice. Any
//! `Fn(&[f64]) -> (f64, Vec<f64>)` closure is an [`Objective`] whose value
//! phase computes both halves at once.

use crate::{Bounds, OptResult};
use std::collections::VecDeque;

/// A differentiable objective evaluated in two phases: the value, then —
/// only at points the line search accepts — the gradient.
///
/// [`Objective::value`] returns the value together with whatever state the
/// gradient needs (a matrix factor, say); [`Objective::gradient`] finishes
/// the gradient from that state at the same point. Splitting the two lets
/// rejected line-search probes skip the gradient entirely.
///
/// Every `Fn(&[f64]) -> (f64, Vec<f64>)` closure implements this trait with
/// the gradient itself as the kept state.
pub trait Objective {
    /// State kept from [`Objective::value`] for [`Objective::gradient`].
    type Partial;

    /// The objective value at `x`, plus the state its gradient needs.
    fn value(&self, x: &[f64]) -> (f64, Self::Partial);

    /// The gradient at `x`, finished from the `partial` that
    /// [`Objective::value`] returned for the same `x`.
    fn gradient(&self, x: &[f64], partial: Self::Partial) -> Vec<f64>;
}

impl<F> Objective for F
where
    F: Fn(&[f64]) -> (f64, Vec<f64>) + ?Sized,
{
    type Partial = Vec<f64>;

    fn value(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self(x)
    }

    fn gradient(&self, _x: &[f64], partial: Vec<f64>) -> Vec<f64> {
        partial
    }
}

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

    /// Minimizes `obj` from `x0` inside `bounds`. A `(value, gradient)`
    /// closure is the simplest [`Objective`].
    ///
    /// The value is taken at `x0` and at every line-search probe; the
    /// gradient only at `x0` and at each accepted step.
    ///
    /// Non-finite objective values are treated as `+inf`, which the line
    /// search simply backs away from; this matters for NLML surfaces that
    /// blow up when a kernel matrix loses positive definiteness. A run that
    /// never leaves a non-finite start reports `converged: false`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize<O>(&self, obj: &O, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        O: Objective + ?Sized,
    {
        assert_eq!(x0.len(), bounds.dim(), "x0 dimension mismatch");
        let n = x0.len();
        let mut x = bounds.clamp(x0);
        let (mut f, partial) = probe(obj, &x);
        let mut g = obj.gradient(&x, partial);
        let mut evals = 1usize;

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
            let mut line_search = |d: &[f64]| -> Option<(Vec<f64>, f64, O::Partial)> {
                let g_dot_d = mfbo_linalg::dot(&pg, d);
                let mut step = 1.0;
                let mut x_new = x.clone();
                for _ in 0..MAX_LINE_SEARCH {
                    for i in 0..n {
                        x_new[i] = x[i] + step * d[i];
                    }
                    bounds.clamp_in_place(&mut x_new);
                    let (fv, partial) = probe(obj, &x_new);
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
                        return Some((x_new, fv, partial));
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
            let (x_new, f_new, partial) = match attempt {
                Some(v) => v,
                None => {
                    // Both directions failed: we are at a (projected)
                    // stationary point to within line-search resolution.
                    converged = mfbo_linalg::infinity_norm(&pg) < self.grad_tol * 10.0;
                    break;
                }
            };

            let g_new = obj.gradient(&x_new, partial);
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
            // A non-finite start has no usable gradient (the NLML reports
            // zeros there), so the projected-gradient test passes trivially;
            // that is a failed run, not a converged one.
            converged: converged && f.is_finite(),
        }
    }
}

/// Evaluates the value phase of `obj`, mapping non-finite values to `+inf`
/// so the line search treats them as "worse than anything".
fn probe<O>(obj: &O, x: &[f64]) -> (f64, O::Partial)
where
    O: Objective + ?Sized,
{
    let (f, partial) = obj.value(x);
    if f.is_finite() {
        (f, partial)
    } else {
        (f64::INFINITY, partial)
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
    use std::cell::{Cell, RefCell};

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
    fn non_finite_start_is_not_converged() {
        // The NLML's contract at a singular θ: `(inf, zeros)`. The zero
        // gradient passes the projected-gradient test at once, which must
        // not read as convergence.
        let fg = |x: &[f64]| (f64::INFINITY, vec![0.0; x.len()]);
        let b = Bounds::symmetric(3, 1.0);
        let r = Lbfgs::new().minimize(&fg, &[0.1, 0.2, 0.3], &b);
        assert_eq!(r.value, f64::INFINITY);
        assert!(!r.converged);
        assert_eq!(r.evaluations, 1);
    }

    /// A two-phase objective that logs every call: the value phase keeps
    /// the gradient as its partial state, so the run must follow the plain
    /// closure over the same function bit for bit.
    struct Counting<'a, F> {
        fg: F,
        values: &'a Cell<usize>,
        gradients: &'a RefCell<Vec<(Vec<f64>, usize)>>,
        last_value_x: &'a RefCell<Vec<f64>>,
    }

    impl<F: Fn(&[f64]) -> (f64, Vec<f64>)> Objective for Counting<'_, F> {
        type Partial = Vec<f64>;

        fn value(&self, x: &[f64]) -> (f64, Vec<f64>) {
            self.values.set(self.values.get() + 1);
            *self.last_value_x.borrow_mut() = x.to_vec();
            (self.fg)(x)
        }

        fn gradient(&self, x: &[f64], partial: Vec<f64>) -> Vec<f64> {
            self.gradients
                .borrow_mut()
                .push((x.to_vec(), self.values.get()));
            // The gradient is only ever asked for at the point just valued.
            assert_eq!(*self.last_value_x.borrow(), x);
            partial
        }
    }

    #[test]
    fn gradient_only_at_x0_and_accepted_steps() {
        let rosen = |x: &[f64]| {
            let v = (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
            let g = vec![
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ];
            (v, g)
        };
        let b = Bounds::new(vec![-2.0, -0.5], vec![2.0, 3.0]);
        let x0 = [-1.2, 1.0];
        let opt = Lbfgs::new().with_max_iters(300);
        let plain = opt.minimize(&rosen, &x0, &b);

        let values = Cell::new(0);
        let gradients = RefCell::new(Vec::new());
        let last_value_x = RefCell::new(Vec::new());
        let counting = Counting {
            fg: rosen,
            values: &values,
            gradients: &gradients,
            last_value_x: &last_value_x,
        };
        let split = opt.minimize(&counting, &x0, &b);

        assert_eq!(values.get(), split.evaluations);
        let grads = gradients.into_inner();
        // Once for x0 (right after its value) ...
        assert_eq!(grads[0], (x0.to_vec(), 1));
        // ... then once per accepted step, each at a new iterate, ending at
        // the returned point. Rejected probes in between cost no gradient.
        for w in grads.windows(2) {
            assert!(w[1].1 > w[0].1);
            assert_ne!(w[1].0, w[0].0);
        }
        assert_eq!(grads.last().unwrap().0, split.x);
        assert!(grads.len() - 1 <= split.iterations);
        assert!(values.get() > grads.len(), "no probe was rejected");

        assert_eq!(split.evaluations, plain.evaluations);
        assert_eq!(split.iterations, plain.iterations);
        assert_eq!(split.converged, plain.converged);
        assert_eq!(split.value.to_bits(), plain.value.to_bits());
        for (a, b) in split.x.iter().zip(&plain.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
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
