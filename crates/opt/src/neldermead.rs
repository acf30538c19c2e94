//! Nelder–Mead downhill simplex with box bounds.
//!
//! Used as the derivative-free local searcher inside the
//! multiple-starting-point strategy: the acquisition surface of the
//! multi-fidelity model is evaluated through Monte-Carlo integration and its
//! numeric gradients are noisy, which Nelder–Mead tolerates gracefully.

use crate::{Bounds, OptResult};

/// Nelder–Mead configuration (standard coefficients: reflection 1, expansion
/// 2, contraction 0.5, shrink 0.5).
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, neldermead::NelderMead};
///
/// let f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] + 0.7).powi(2);
/// let b = Bounds::symmetric(2, 2.0);
/// let r = NelderMead::new().minimize(&f, &[1.0, 1.0], &b);
/// assert!((r.x[0] - 0.3).abs() < 1e-4);
/// assert!((r.x[1] + 0.7).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct NelderMead {
    max_iters: usize,
}

/// Simplex value-spread tolerance.
const F_TOL: f64 = 1e-10;
/// Simplex diameter tolerance.
const X_TOL: f64 = 1e-9;
/// Initial simplex edge length as a fraction of each bound width.
const INITIAL_STEP: f64 = 0.05;

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead { max_iters: 400 }
    }
}

impl NelderMead {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }

    /// Minimizes `f` starting from `x0` inside `bounds`.
    ///
    /// Non-finite objective values are treated as `+inf`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize<F>(&self, f: &F, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        F: Fn(&[f64]) -> f64 + ?Sized,
    {
        assert_eq!(x0.len(), bounds.dim(), "x0 dimension mismatch");
        let n = x0.len();
        let eval = |x: &[f64]| {
            let v = f(x);
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };

        // Build the initial simplex: x0 plus a step along each axis,
        // projected into the box (stepping inward when at the upper bound).
        let widths = bounds.widths();
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(bounds.clamp(x0));
        for i in 0..n {
            let mut v = simplex[0].clone();
            let step = (INITIAL_STEP * widths[i]).max(1e-8);
            if v[i] + step <= bounds.upper()[i] {
                v[i] += step;
            } else {
                v[i] -= step;
            }
            bounds.clamp_in_place(&mut v);
            simplex.push(v);
        }
        let mut values: Vec<f64> = simplex.iter().map(|v| eval(v)).collect();
        let mut evals = n + 1;

        let mut iters = 0usize;
        let mut converged = false;
        for it in 0..self.max_iters {
            iters = it + 1;
            // Order the simplex by value.
            let mut idx: Vec<usize> = (0..=n).collect();
            idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("non-NaN"));
            let reorder_s: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
            let reorder_v: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
            simplex = reorder_s;
            values = reorder_v;

            // Convergence: value spread and simplex diameter.
            let spread = values[n] - values[0];
            let diam = simplex[1..]
                .iter()
                .map(|v| {
                    v.iter()
                        .zip(&simplex[0])
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max)
                })
                .fold(0.0, f64::max);
            if spread.abs() < F_TOL && diam < X_TOL {
                converged = true;
                break;
            }

            // Centroid of all but the worst point.
            let mut centroid = vec![0.0; n];
            for v in &simplex[..n] {
                mfbo_linalg::axpy(1.0 / n as f64, v, &mut centroid);
            }

            let worst = values[n];
            let second_worst = values[n - 1];
            let best = values[0];

            // Reflection.
            let reflect = project_combination(&centroid, &simplex[n], 2.0, -1.0, bounds);
            let fr = eval(&reflect);
            evals += 1;

            if fr < best {
                // Expansion.
                let expand = project_combination(&centroid, &simplex[n], 3.0, -2.0, bounds);
                let fe = eval(&expand);
                evals += 1;
                if fe < fr {
                    simplex[n] = expand;
                    values[n] = fe;
                } else {
                    simplex[n] = reflect;
                    values[n] = fr;
                }
            } else if fr < second_worst {
                simplex[n] = reflect;
                values[n] = fr;
            } else {
                // Contraction (outside if the reflection improved on the
                // worst, inside otherwise).
                let (towards, f_ref) = if fr < worst {
                    (reflect.clone(), fr)
                } else {
                    (simplex[n].clone(), worst)
                };
                let contract: Vec<f64> = centroid
                    .iter()
                    .zip(&towards)
                    .map(|(c, t)| 0.5 * c + 0.5 * t)
                    .collect();
                let contract = bounds.clamp(&contract);
                let fc = eval(&contract);
                evals += 1;
                if fc < f_ref {
                    simplex[n] = contract;
                    values[n] = fc;
                } else {
                    // Shrink toward the best vertex.
                    for i in 1..=n {
                        let vi: Vec<f64> = simplex[i]
                            .iter()
                            .zip(&simplex[0])
                            .map(|(v, b)| 0.5 * (v + b))
                            .collect();
                        simplex[i] = bounds.clamp(&vi);
                        values[i] = eval(&simplex[i]);
                        evals += 1;
                    }
                }
            }
        }

        // Return the best vertex.
        let (bi, bv) = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("non-NaN"))
            .expect("simplex is non-empty");
        OptResult {
            x: simplex[bi].clone(),
            value: *bv,
            evaluations: evals,
            iterations: iters,
            converged,
        }
    }
}

/// Computes `a * centroid + b * worst`, projected onto the bounds.
fn project_combination(
    centroid: &[f64],
    worst: &[f64],
    a: f64,
    b: f64,
    bounds: &Bounds,
) -> Vec<f64> {
    let v: Vec<f64> = centroid
        .iter()
        .zip(worst)
        .map(|(c, w)| a * c + b * w)
        .collect();
    bounds.clamp(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_function() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let b = Bounds::symmetric(3, 5.0);
        let r = NelderMead::new()
            .with_max_iters(2000)
            .minimize(&f, &[2.0, -3.0, 1.0], &b);
        assert!(r.value < 1e-8, "value = {}", r.value);
    }

    #[test]
    fn rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let b = Bounds::symmetric(2, 5.0);
        let r = NelderMead::new()
            .with_max_iters(5000)
            .minimize(&f, &[-1.2, 1.0], &b);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn respects_bounds() {
        let f = |x: &[f64]| (x[0] + 10.0).powi(2);
        let b = Bounds::new(vec![-1.0], vec![1.0]);
        let r = NelderMead::new().minimize(&f, &[0.5], &b);
        assert!((r.x[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn starting_at_upper_bound_still_moves() {
        let f = |x: &[f64]| (x[0] - 0.2).powi(2);
        let b = Bounds::unit(1);
        let r = NelderMead::new().minimize(&f, &[1.0], &b);
        assert!((r.x[0] - 0.2).abs() < 1e-5);
    }

    #[test]
    fn tolerates_non_finite_values() {
        // -inf region for x < 0.1 must be avoided.
        let f = |x: &[f64]| {
            if x[0] < 0.1 {
                f64::NAN
            } else {
                (x[0] - 0.5).powi(2)
            }
        };
        let b = Bounds::unit(1);
        let r = NelderMead::new().minimize(&f, &[0.9], &b);
        assert!((r.x[0] - 0.5).abs() < 1e-5);
    }
}
