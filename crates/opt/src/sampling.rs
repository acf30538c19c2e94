//! Space-filling designs for initializing surrogate models.
//!
//! Bayesian optimization starts from a small space-filling design (paper
//! Algorithm 1, line 1: "Initialize a training set"). Latin-hypercube
//! sampling is the de-facto standard because it stratifies every axis even
//! with very few points — exactly the regime of the paper's initial sets
//! (10 low + 5 high for the power amplifier).

use crate::Bounds;
use rand::seq::SliceRandom;
use rand::Rng;

/// Latin-hypercube design with `n` points inside `bounds`.
///
/// Each axis is divided into `n` equal strata; each stratum is hit exactly
/// once per axis, with a uniform jitter inside the stratum and an
/// independent random permutation per axis.
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, sampling::latin_hypercube};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pts = latin_hypercube(&Bounds::unit(2), 8, &mut rng);
/// assert_eq!(pts.len(), 8);
/// // Every point lies in the unit box.
/// assert!(pts.iter().all(|p| p.iter().all(|&v| (0.0..=1.0).contains(&v))));
/// ```
pub fn latin_hypercube<R: Rng + ?Sized>(bounds: &Bounds, n: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let d = bounds.dim();
    if n == 0 {
        return Vec::new();
    }
    // One permuted stratum assignment per dimension.
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        strata.push(order);
    }
    (0..n)
        .map(|i| {
            let u: Vec<f64> = (0..d)
                .map(|j| {
                    let stratum = strata[j][i] as f64;
                    (stratum + rng.gen::<f64>()) / n as f64
                })
                .collect();
            bounds.from_unit(&u)
        })
        .collect()
}

/// Draws `n` Gaussian-perturbed copies of `center` (standard deviation
/// `frac` of each bound width), clamped into `bounds`.
///
/// This is the biased fraction of MSP starting points from paper §4.1.
pub fn around<R: Rng + ?Sized>(
    bounds: &Bounds,
    center: &[f64],
    frac: f64,
    n: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| bounds.sample_near(rng, center, frac))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lhs_stratification_per_axis() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 10;
        let pts = latin_hypercube(&Bounds::unit(3), n, &mut rng);
        assert_eq!(pts.len(), n);
        // On each axis, exactly one point per stratum [k/n, (k+1)/n).
        for j in 0..3 {
            let mut counts = vec![0usize; n];
            for p in &pts {
                let k = ((p[j] * n as f64).floor() as usize).min(n - 1);
                counts[k] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1), "axis {j}: {counts:?}");
        }
    }

    #[test]
    fn lhs_respects_general_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = Bounds::new(vec![-5.0, 100.0], vec![-4.0, 200.0]);
        let pts = latin_hypercube(&b, 25, &mut rng);
        for p in &pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn lhs_zero_points() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(latin_hypercube(&Bounds::unit(2), 0, &mut rng).is_empty());
    }

    #[test]
    fn around_concentrates_near_center() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = Bounds::unit(2);
        let center = vec![0.5, 0.5];
        let pts = around(&b, &center, 0.01, 100, &mut rng);
        for p in &pts {
            assert!(b.contains(p));
            assert!((p[0] - 0.5).abs() < 0.1);
            assert!((p[1] - 0.5).abs() < 0.1);
        }
    }
}
