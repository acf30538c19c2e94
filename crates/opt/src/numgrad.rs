//! Numerical differentiation helpers.
//!
//! Central-difference gradients for objectives without an analytic one,
//! e.g. to run [`crate::lbfgs::Lbfgs`] on a value-only function or to check
//! an analytic gradient in tests. The step size scales with the magnitude of
//! each coordinate to keep relative truncation and rounding error balanced.

/// Central-difference gradient of `f` at `x`.
///
/// Uses per-coordinate step `h_i = eps * max(1, |x_i|)` with
/// `eps = cbrt(machine epsilon) ≈ 6e-6`, the standard optimum for
/// second-order differences.
///
/// # Examples
///
/// ```
/// let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1];
/// let g = mfbo_opt::numgrad::central_gradient(&f, &[2.0, 0.0]);
/// assert!((g[0] - 4.0).abs() < 1e-6);
/// assert!((g[1] - 3.0).abs() < 1e-6);
/// ```
pub fn central_gradient<F: Fn(&[f64]) -> f64 + ?Sized>(f: &F, x: &[f64]) -> Vec<f64> {
    let eps = f64::EPSILON.cbrt();
    let mut xp = x.to_vec();
    let mut g = vec![0.0; x.len()];
    for i in 0..x.len() {
        let h = eps * x[i].abs().max(1.0);
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f(&xp);
        xp[i] = orig - h;
        let fm = f(&xp);
        xp[i] = orig;
        g[i] = (fp - fm) / (2.0 * h);
    }
    g
}

/// Wraps a value-only function into the `(value, gradient)` closure form
/// expected by [`crate::lbfgs::Lbfgs::minimize`], using
/// [`central_gradient`].
pub fn with_central_gradient<F>(f: F) -> impl Fn(&[f64]) -> (f64, Vec<f64>)
where
    F: Fn(&[f64]) -> f64,
{
    move |x: &[f64]| (f(x), central_gradient(&f, x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_quadratic() {
        let f = |x: &[f64]| 0.5 * x.iter().map(|v| v * v).sum::<f64>();
        let x = [1.0, -2.0, 3.5];
        let g = central_gradient(&f, &x);
        for (gi, xi) in g.iter().zip(&x) {
            assert!((gi - xi).abs() < 1e-7);
        }
    }

    #[test]
    fn gradient_of_rosenbrock_matches_analytic() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let x = [0.3, -0.7];
        let g = central_gradient(&f, &x);
        let ga = [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
            200.0 * (x[1] - x[0] * x[0]),
        ];
        for (n, a) in g.iter().zip(&ga) {
            assert!((n - a).abs() < 1e-4, "numeric {n} vs analytic {a}");
        }
    }

    #[test]
    fn scales_step_with_coordinate_magnitude() {
        // f(x) = x^2 at a very large coordinate; a fixed small step would
        // produce pure rounding noise.
        let f = |x: &[f64]| x[0] * x[0];
        let g = central_gradient(&f, &[1e8]);
        assert!((g[0] - 2e8).abs() / 2e8 < 1e-6);
    }

    #[test]
    fn wrapper_bundles_value_and_gradient() {
        let fg = with_central_gradient(|x: &[f64]| x[0] * 3.0);
        let (v, g) = fg(&[2.0]);
        assert_eq!(v, 6.0);
        assert!((g[0] - 3.0).abs() < 1e-7);
    }
}
