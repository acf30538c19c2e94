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

/// First 25 primes, used as Halton bases.
const PRIMES: [u32; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

/// Radical-inverse function in base `b` (the Halton kernel).
fn radical_inverse(mut i: u64, b: u64) -> f64 {
    let mut f = 1.0;
    let mut r = 0.0;
    while i > 0 {
        f /= b as f64;
        r += f * (i % b) as f64;
        i /= b;
    }
    r
}

/// Deterministic Halton low-discrepancy sequence mapped into `bounds`,
/// starting at index `start + 1` (index 0 is the all-zeros corner and is
/// skipped by convention).
///
/// Unlike [`latin_hypercube`], Halton points are *extensible*: requesting
/// more points later continues the same sequence, which makes it the right
/// design for incremental densification. For more than 25 dimensions the
/// bases repeat modulo 25 with index offsets (Halton quality degrades in
/// very high dimensions anyway; prefer LHS there).
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, sampling::halton};
///
/// let pts = halton(&Bounds::unit(2), 4, 0);
/// assert_eq!(pts.len(), 4);
/// // First point of the (2,3) Halton sequence.
/// assert!((pts[0][0] - 0.5).abs() < 1e-12);
/// assert!((pts[0][1] - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn halton(bounds: &Bounds, n: usize, start: usize) -> Vec<Vec<f64>> {
    let d = bounds.dim();
    (0..n)
        .map(|k| {
            let i = (start + k + 1) as u64;
            let u: Vec<f64> = (0..d)
                .map(|j| {
                    let base = PRIMES[j % PRIMES.len()] as u64;
                    // Offset the index for repeated bases so coordinates
                    // differ.
                    radical_inverse(i + (j / PRIMES.len()) as u64 * 409, base)
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
    fn halton_first_points_match_reference() {
        // The (2,3)-Halton sequence: (1/2, 1/3), (1/4, 2/3), (3/4, 1/9), …
        let pts = halton(&Bounds::unit(2), 3, 0);
        let expect = [[0.5, 1.0 / 3.0], [0.25, 2.0 / 3.0], [0.75, 1.0 / 9.0]];
        for (p, e) in pts.iter().zip(&expect) {
            assert!((p[0] - e[0]).abs() < 1e-12 && (p[1] - e[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn halton_is_extensible() {
        let all = halton(&Bounds::unit(3), 10, 0);
        let head = halton(&Bounds::unit(3), 4, 0);
        let tail = halton(&Bounds::unit(3), 6, 4);
        assert_eq!(&all[..4], &head[..]);
        assert_eq!(&all[4..], &tail[..]);
    }

    #[test]
    fn halton_low_discrepancy_beats_worst_case() {
        // Crude discrepancy check: in 64 points over [0,1]², every quadrant
        // holds between 8 and 24 points (uniform expectation 16).
        let pts = halton(&Bounds::unit(2), 64, 0);
        for qx in 0..2 {
            for qy in 0..2 {
                let count = pts
                    .iter()
                    .filter(|p| {
                        (p[0] >= qx as f64 * 0.5 && p[0] < (qx + 1) as f64 * 0.5)
                            && (p[1] >= qy as f64 * 0.5 && p[1] < (qy + 1) as f64 * 0.5)
                    })
                    .count();
                assert!((8..=24).contains(&count), "quadrant ({qx},{qy}): {count}");
            }
        }
    }

    #[test]
    fn halton_respects_bounds_and_high_dim() {
        let b = Bounds::new(vec![-3.0; 30], vec![5.0; 30]);
        for p in halton(&b, 20, 7) {
            assert!(b.contains(&p));
        }
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
