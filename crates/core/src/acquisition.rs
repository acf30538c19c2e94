//! Acquisition functions (paper §2.4).
//!
//! All functions here are pure scalar formulas over a posterior mean, a
//! posterior standard deviation, and (for improvement-based criteria) an
//! incumbent value `τ`. Composition with surrogate models happens in the
//! [`crate::MfSurrogates`]/[`crate::SfSurrogates`] bundles; keeping the
//! formulas free-standing makes them trivially testable against their
//! closed forms.

use mfbo_linalg::{norm_cdf, norm_pdf};

/// Expected improvement over incumbent `tau` for a *minimization* problem —
/// paper eq. (5):
///
/// `EI(x) = σ(x) (λ Φ(λ) + ϕ(λ))` with `λ = (τ − μ)/σ`.
///
/// Degenerate `σ ≤ 0` collapses to the deterministic improvement
/// `max(0, τ − μ)`.
///
/// # Examples
///
/// ```
/// use mfbo::acquisition::expected_improvement;
///
/// // A point predicted well below the incumbent with confidence has large EI.
/// let good = expected_improvement(-1.0, 0.1, 0.0);
/// // A point predicted above the incumbent with confidence has almost none.
/// let bad = expected_improvement(1.0, 0.1, 0.0);
/// assert!(good > 0.9 && bad < 1e-6);
/// ```
pub fn expected_improvement(mean: f64, std: f64, tau: f64) -> f64 {
    if std <= 0.0 {
        return (tau - mean).max(0.0);
    }
    let lambda = (tau - mean) / std;
    let ei = std * (lambda * norm_cdf(lambda) + norm_pdf(lambda));
    ei.max(0.0)
}

/// Probability that a constraint modelled as `N(mean, std²)` is satisfied
/// (`c < 0`): `PF = Φ(−μ/σ)` — the factor in paper eq. (6).
///
/// Degenerate `σ ≤ 0` collapses to the indicator `1[μ < 0]`.
pub fn probability_of_feasibility(mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return if mean < 0.0 { 1.0 } else { 0.0 };
    }
    norm_cdf(-mean / std)
}

/// Weighted expected improvement — paper eq. (6):
/// `wEI = EI(x) · Π_i PF_i(x)`.
///
/// `constraints` holds `(mean_i, std_i)` pairs of the constraint posteriors.
pub fn weighted_ei(mean: f64, std: f64, tau: f64, constraints: &[(f64, f64)]) -> f64 {
    let mut v = expected_improvement(mean, std, tau);
    for &(cm, cs) in constraints {
        if v == 0.0 {
            break;
        }
        v *= probability_of_feasibility(cm, cs);
    }
    v
}

/// Probability of improvement over incumbent `tau` for a minimization
/// problem: `PI = Φ((τ − μ)/σ)`. Greedier than EI (it ignores the
/// *magnitude* of improvement); listed among the classic acquisitions in
/// paper §2.4's survey references.
pub fn probability_of_improvement(mean: f64, std: f64, tau: f64) -> f64 {
    if std <= 0.0 {
        return if mean < tau { 1.0 } else { 0.0 };
    }
    norm_cdf((tau - mean) / std)
}

/// Lower confidence bound `μ − κσ`, the prescreening rule GASPAD uses.
pub fn lower_confidence_bound(mean: f64, std: f64, kappa: f64) -> f64 {
    mean - kappa * std
}

/// Upper confidence bound `μ + κσ` (for maximization framings).
pub fn upper_confidence_bound(mean: f64, std: f64, kappa: f64) -> f64 {
    mean + kappa * std
}

/// The first-feasible-point surrogate objective — paper eq. (13):
/// `Σ_i max(0, μ_i(x))` over constraint posterior means. Minimizing this
/// drives the search into the feasible region when no feasible point is
/// known yet.
///
/// A NaN mean makes the drive NaN: `f64::max` alone would return the 0.0
/// and score an unknown constraint as satisfied.
pub fn feasibility_drive(constraint_means: &[f64]) -> f64 {
    constraint_means
        .iter()
        .map(|&m| if m.is_nan() { m } else { m.max(0.0) })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_closed_form_checks() {
        // At μ = τ and σ = 1, EI = ϕ(0) = 1/sqrt(2π).
        let e = expected_improvement(0.0, 1.0, 0.0);
        assert!((e - 0.398_942_280_401_432_7).abs() < 1e-7);
    }

    #[test]
    fn ei_is_monotone_in_tau() {
        // Larger incumbent (easier to improve on) gives larger EI.
        let e1 = expected_improvement(0.0, 1.0, -1.0);
        let e2 = expected_improvement(0.0, 1.0, 0.0);
        let e3 = expected_improvement(0.0, 1.0, 1.0);
        assert!(e1 < e2 && e2 < e3);
    }

    #[test]
    fn ei_increases_with_uncertainty_when_mean_is_poor() {
        let low_sigma = expected_improvement(1.0, 0.1, 0.0);
        let high_sigma = expected_improvement(1.0, 2.0, 0.0);
        assert!(high_sigma > low_sigma);
    }

    #[test]
    fn ei_degenerate_sigma() {
        assert_eq!(expected_improvement(1.0, 0.0, 2.0), 1.0);
        assert_eq!(expected_improvement(3.0, 0.0, 2.0), 0.0);
    }

    #[test]
    fn ei_never_negative() {
        for &(m, s, t) in &[(5.0, 0.3, -5.0), (0.0, 1e-12, 0.0), (-2.0, 4.0, 7.0)] {
            assert!(expected_improvement(m, s, t) >= 0.0);
        }
    }

    #[test]
    fn pf_limits() {
        // Deeply satisfied constraint → PF ≈ 1.
        assert!(probability_of_feasibility(-10.0, 1.0) > 0.999);
        // Deeply violated → PF ≈ 0.
        assert!(probability_of_feasibility(10.0, 1.0) < 1e-3);
        // On the boundary → 0.5.
        assert!((probability_of_feasibility(0.0, 1.0) - 0.5).abs() < 1e-7);
        // Degenerate σ.
        assert_eq!(probability_of_feasibility(-1.0, 0.0), 1.0);
        assert_eq!(probability_of_feasibility(1.0, 0.0), 0.0);
    }

    #[test]
    fn wei_multiplies_feasibility() {
        let ei = expected_improvement(0.0, 1.0, 0.5);
        // One certainly-feasible constraint leaves EI unchanged.
        let w1 = weighted_ei(0.0, 1.0, 0.5, &[(-100.0, 1.0)]);
        assert!((w1 - ei).abs() < 1e-9);
        // One certainly-infeasible constraint kills it.
        let w2 = weighted_ei(0.0, 1.0, 0.5, &[(100.0, 1.0)]);
        assert!(w2 < 1e-9);
        // Two 50/50 constraints quarter it.
        let w3 = weighted_ei(0.0, 1.0, 0.5, &[(0.0, 1.0), (0.0, 1.0)]);
        assert!((w3 - 0.25 * ei).abs() < 1e-6);
    }

    #[test]
    fn pi_limits_and_degenerate() {
        // μ far below τ → certain improvement.
        assert!(probability_of_improvement(-10.0, 1.0, 0.0) > 0.999);
        // μ far above τ → no chance.
        assert!(probability_of_improvement(10.0, 1.0, 0.0) < 1e-3);
        // At the incumbent → 50/50.
        assert!((probability_of_improvement(0.0, 1.0, 0.0) - 0.5).abs() < 1e-7);
        // Degenerate σ.
        assert_eq!(probability_of_improvement(-1.0, 0.0, 0.0), 1.0);
        assert_eq!(probability_of_improvement(1.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn ei_dominates_pi_scaled_improvement() {
        // EI >= (τ − μ)·PI when μ < τ (EI accounts for the upside tail).
        for &(m, s, t) in &[(-0.5, 1.0, 0.0), (-2.0, 0.5, 0.0), (0.2, 2.0, 0.5)] {
            let ei = expected_improvement(m, s, t);
            let pi = probability_of_improvement(m, s, t);
            assert!(ei >= (t - m) * pi - 1e-12, "m={m} s={s} t={t}");
        }
    }

    #[test]
    fn confidence_bounds() {
        assert_eq!(lower_confidence_bound(1.0, 0.5, 2.0), 0.0);
        assert_eq!(upper_confidence_bound(1.0, 0.5, 2.0), 2.0);
    }

    #[test]
    fn feasibility_drive_sums_positive_means() {
        assert_eq!(feasibility_drive(&[-1.0, -2.0]), 0.0);
        assert!((feasibility_drive(&[0.5, -1.0, 0.25]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn feasibility_drive_propagates_nan_means() {
        assert!(feasibility_drive(&[f64::NAN, 1.0]).is_nan());
        assert!(feasibility_drive(&[-1.0, f64::NAN]).is_nan());
        assert_eq!(feasibility_drive(&[f64::INFINITY, -1.0]), f64::INFINITY);
    }
}
