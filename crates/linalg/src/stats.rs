//! Gaussian distribution scalars and descriptive statistics.
//!
//! The expected-improvement family of acquisition functions (paper eqs. 5–6)
//! is built from the standard normal PDF `ϕ` and CDF `Φ`; the experiment
//! tables report means/medians/percentiles over repeated optimization runs.
//! Everything here is implemented from scratch: `Φ` via a high-accuracy
//! `erf` rational approximation (Abramowitz & Stegun 7.1.26 refined with the
//! W. J. Cody-style polynomial), and `Φ⁻¹` via Acklam's algorithm with one
//! Halley refinement step.

/// Standard normal probability density `ϕ(x)`.
///
/// # Examples
///
/// ```
/// let p = mfbo_linalg::norm_pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Error function `erf(x)` with absolute error below `1.5e-7` on the real
/// line (A&S 7.1.26). Accurate enough for acquisition functions, which only
/// need a smooth, monotone Φ; the inverse CDF below does not rely on it.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution `Φ(x)`.
///
/// Uses a complementary-error-function formulation so the tails do not
/// suffer catastrophic cancellation around `Φ(x) ≈ 0`.
///
/// # Examples
///
/// ```
/// assert!((mfbo_linalg::norm_cdf(0.0) - 0.5).abs() < 1e-8);
/// assert!(mfbo_linalg::norm_cdf(-8.0) >= 0.0);
/// assert!(mfbo_linalg::norm_cdf(8.0) <= 1.0);
/// ```
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    (0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2))).clamp(0.0, 1.0)
}

/// Inverse standard normal CDF `Φ⁻¹(p)` (Acklam's rational approximation
/// plus one Halley refinement, giving ~1e-15 relative accuracy).
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
pub fn norm_inv_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_inv_cdf requires p in (0, 1)");

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step sharpens the approximation to near machine precision.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Arithmetic mean; `NaN` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n - 1`); `0.0` for fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation (square root of [`variance`]).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median via sorting a copy; `NaN` for empty input.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolation percentile (`q` in `[0, 100]`); `NaN` for empty
/// input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile requires q in [0, 100]"
    );
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("percentile requires non-NaN data"));
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Affine standardization `y ↦ (y - mean) / std` fitted on a data set.
///
/// GP observations are standardized before training so that unit-scale
/// hyperparameter priors and bounds apply regardless of the objective's
/// physical units (efficiencies in percent, currents in microamps, ...).
///
/// # Examples
///
/// ```
/// use mfbo_linalg::Standardizer;
///
/// let s = Standardizer::fit(&[1.0, 2.0, 3.0]);
/// let z = s.transform(2.0);
/// assert!((z - 0.0).abs() < 1e-12);
/// assert!((s.inverse(z) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    mean: f64,
    std: f64,
}

impl Standardizer {
    /// Fits mean and standard deviation on `ys`. A degenerate (constant or
    /// near-constant) data set falls back to `std = 1` so the transform stays
    /// invertible.
    pub fn fit(ys: &[f64]) -> Self {
        let m = if ys.is_empty() { 0.0 } else { mean(ys) };
        let s = std_dev(ys);
        Standardizer {
            mean: m,
            std: if s > 1e-12 { s } else { 1.0 },
        }
    }

    /// Identity transform (mean 0, std 1).
    pub fn identity() -> Self {
        Standardizer {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// The fitted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The fitted (floored) standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Maps raw `y` into standardized space.
    #[inline]
    pub fn transform(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// Maps a standardized value back to raw space.
    #[inline]
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// Scales a standardized *standard deviation* back to raw units (no mean
    /// shift: deviations are translation invariant).
    #[inline]
    pub fn inverse_std(&self, sd: f64) -> f64 {
        sd * self.std
    }

    /// Transforms a whole slice.
    pub fn transform_all(&self, ys: &[f64]) -> Vec<f64> {
        ys.iter().map(|&y| self.transform(y)).collect()
    }
}

impl Default for Standardizer {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-9);
        // Φ(1.96) ≈ 0.9750021.
        assert!((norm_cdf(1.96) - 0.975_002_1).abs() < 2e-6);
        // Symmetry.
        for &x in &[0.3, 1.1, 2.7] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let mut prev = 0.0;
        let mut x = -8.0;
        while x <= 8.0 {
            let c = norm_cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
            x += 0.05;
        }
    }

    #[test]
    fn inv_cdf_round_trip() {
        for &p in &[1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6] {
            let x = norm_inv_cdf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn inv_cdf_known_values() {
        assert!(norm_inv_cdf(0.5).abs() < 1e-8);
        assert!((norm_inv_cdf(0.975) - 1.959_964).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "requires p in")]
    fn inv_cdf_rejects_zero() {
        let _ = norm_inv_cdf(0.0);
    }

    #[test]
    fn descriptive_stats() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 4 * 8/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((median(&xs) - 4.5).abs() < 1e-12);
        assert!((percentile(&xs, 0.0) - 2.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn stats_edge_cases() {
        assert!(mean(&[]).is_nan());
        assert_eq!(variance(&[1.0]), 0.0);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn standardizer_round_trip() {
        let ys = [10.0, 20.0, 30.0, 40.0];
        let s = Standardizer::fit(&ys);
        for &y in &ys {
            assert!((s.inverse(s.transform(y)) - y).abs() < 1e-12);
        }
        let z = s.transform_all(&ys);
        assert!((mean(&z)).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_degenerate_data() {
        let s = Standardizer::fit(&[5.0, 5.0, 5.0]);
        assert_eq!(s.std(), 1.0);
        assert_eq!(s.transform(5.0), 0.0);
        let empty = Standardizer::fit(&[]);
        assert_eq!(empty.transform(1.0), 1.0);
        assert_eq!(Standardizer::default(), Standardizer::identity());
    }
}
