//! Nelder–Mead downhill simplex with box bounds.
//!
//! Used as the derivative-free local searcher inside the
//! multiple-starting-point strategy. The acquisition surfaces are
//! deterministic — the NARGP propagation uses fixed stratified quantiles,
//! not random draws — but no posterior here has an input gradient, and the
//! surfaces have flat zero regions (wEI far from the data) and kinks (the
//! `max(0, ·)` terms of the eq. (13) drive), which a simplex search
//! tolerates.
//!
//! # Batched objectives
//!
//! The core, [`NelderMead::minimize_batched`], takes a batched objective
//! `f(xs, out)` that must write the objective value at `xs[i]` into
//! `out[i]` for every `i` (`out.len() == xs.len()`). A point's value must
//! not depend on which batch it arrives in, so the batching is invisible in
//! the result. The search makes one call with the `n + 1` points of the
//! initial simplex, one call with the `n` new vertices of each shrink, and
//! one single-point call for each reflection, expansion and contraction.
//! The pointwise [`NelderMead::minimize`] adapts a scalar objective by
//! scoring each batch in point order.

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
        self.minimize_batched(&pointwise(f), x0, bounds)
    }

    /// [`NelderMead::minimize`] with a batched objective (see the module
    /// docs for the contract and the call shapes).
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize_batched<F>(&self, f: &F, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        F: Fn(&[Vec<f64>], &mut [f64]) + ?Sized,
    {
        assert_eq!(x0.len(), bounds.dim(), "x0 dimension mismatch");
        let n = x0.len();
        let score = |xs: &[Vec<f64>], out: &mut [f64]| {
            f(xs, out);
            for v in out.iter_mut().filter(|v| !v.is_finite()) {
                *v = f64::INFINITY;
            }
        };
        let eval = |x: &Vec<f64>| {
            let mut v = [0.0];
            score(std::slice::from_ref(x), &mut v);
            v[0]
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
        let mut values = vec![0.0; n + 1];
        score(&simplex, &mut values);
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
                    // Shrink toward the best vertex, scoring the n new
                    // vertices in one call.
                    for i in 1..=n {
                        let vi: Vec<f64> = simplex[i]
                            .iter()
                            .zip(&simplex[0])
                            .map(|(v, b)| 0.5 * (v + b))
                            .collect();
                        simplex[i] = bounds.clamp(&vi);
                    }
                    score(&simplex[1..], &mut values[1..]);
                    evals += n;
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

/// Adapts a pointwise objective to the batched contract, scoring each
/// batch in point order.
pub(crate) fn pointwise<F>(f: &F) -> impl Fn(&[Vec<f64>], &mut [f64]) + '_
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    move |xs, out| {
        for (x, o) in xs.iter().zip(out) {
            *o = f(x);
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

    /// Records the size of every batch a search scores.
    fn shapes_of(f: impl Fn(&[f64]) -> f64, x0: &[f64], b: &Bounds) -> (Vec<usize>, OptResult) {
        let shapes = std::cell::RefCell::new(Vec::new());
        let batched = |xs: &[Vec<f64>], out: &mut [f64]| {
            shapes.borrow_mut().push(xs.len());
            for (x, o) in xs.iter().zip(out) {
                *o = f(x);
            }
        };
        let r = NelderMead::new().minimize_batched(&batched, x0, b);
        (shapes.into_inner(), r)
    }

    #[test]
    fn batched_call_shapes() {
        let b = Bounds::unit(3);
        // A constant objective rejects every reflection and contraction,
        // so each iteration is reflect, contract, then a 3-point shrink.
        let (shapes, r) = shapes_of(|_| 1.0, &[0.5, 0.5, 0.5], &b);
        assert!(r.converged);
        assert_eq!(shapes[0], 4, "initial simplex in one call");
        assert_eq!(shapes[1..].len(), 3 * r.iterations.saturating_sub(1));
        for it in shapes[1..].chunks(3) {
            assert_eq!(it, [1, 1, 3]);
        }
        assert_eq!(shapes.iter().sum::<usize>(), r.evaluations);
        // A smooth objective mixes the shapes: the simplex first, then only
        // single points and whole shrinks.
        let (shapes, r) = shapes_of(|x| x.iter().map(|v| v * v).sum(), &[0.9, 0.2, 0.7], &b);
        assert_eq!(shapes[0], 4);
        assert!(shapes[1..].iter().all(|&m| m == 1 || m == 3), "{shapes:?}");
        assert_eq!(shapes.iter().sum::<usize>(), r.evaluations);
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
