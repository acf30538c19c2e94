//! Property-based tests of the acquisition formulas, fidelity selection,
//! and data bookkeeping.

use mfbo::acquisition::{
    expected_improvement, feasibility_drive, lower_confidence_bound, probability_of_feasibility,
    weighted_ei,
};
use mfbo::problem::{Evaluation, Fidelity};
use mfbo::{FidelityData, FidelitySelector};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ei_nonnegative_and_bounded(
        mean in -10.0f64..10.0,
        std in 0.0f64..5.0,
        tau in -10.0f64..10.0,
    ) {
        let ei = expected_improvement(mean, std, tau);
        prop_assert!(ei >= 0.0);
        // EI <= E|τ - y| <= |τ - μ| + σ·sqrt(2/π) <= |τ-μ| + σ.
        prop_assert!(ei <= (tau - mean).abs() + std + 1e-9);
    }

    #[test]
    fn ei_monotone_in_incumbent(
        mean in -5.0f64..5.0,
        std in 0.01f64..3.0,
        tau in -5.0f64..5.0,
        delta in 0.0f64..3.0,
    ) {
        // Raising the incumbent (easier to improve) never decreases EI.
        let lo = expected_improvement(mean, std, tau);
        let hi = expected_improvement(mean, std, tau + delta);
        prop_assert!(hi >= lo - 1e-12);
    }

    #[test]
    fn ei_exceeds_deterministic_improvement(
        mean in -5.0f64..5.0,
        std in 0.0f64..3.0,
        tau in -5.0f64..5.0,
    ) {
        // Jensen: EI >= max(0, τ − μ).
        let ei = expected_improvement(mean, std, tau);
        prop_assert!(ei >= (tau - mean).max(0.0) - 1e-9);
    }

    #[test]
    fn pf_is_probability(mean in -10.0f64..10.0, std in 0.0f64..5.0) {
        let p = probability_of_feasibility(mean, std);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn pf_monotone_decreasing_in_mean(
        m1 in -5.0f64..5.0,
        delta in 0.0f64..5.0,
        std in 0.01f64..3.0,
    ) {
        // Larger constraint mean = more likely violated = lower PF.
        let p1 = probability_of_feasibility(m1, std);
        let p2 = probability_of_feasibility(m1 + delta, std);
        prop_assert!(p2 <= p1 + 1e-12);
    }

    #[test]
    fn wei_never_exceeds_ei(
        mean in -5.0f64..5.0,
        std in 0.0f64..3.0,
        tau in -5.0f64..5.0,
        cons in prop::collection::vec((-3.0f64..3.0, 0.0f64..2.0), 0..4),
    ) {
        let ei = expected_improvement(mean, std, tau);
        let wei = weighted_ei(mean, std, tau, cons.iter().copied());
        prop_assert!(wei >= 0.0);
        prop_assert!(wei <= ei + 1e-12);
    }

    #[test]
    fn lower_confidence_bound_never_exceeds_mean(
        mean in -5.0f64..5.0,
        std in 0.0f64..3.0,
        kappa in 0.0f64..5.0,
    ) {
        prop_assert!(lower_confidence_bound(mean, std, kappa) <= mean + 1e-12);
    }

    #[test]
    fn feasibility_drive_zero_iff_all_nonpositive(means in prop::collection::vec(-3.0f64..3.0, 1..6)) {
        let d = feasibility_drive(&means);
        prop_assert!(d >= 0.0);
        let all_ok = means.iter().all(|&m| m <= 0.0);
        prop_assert_eq!(d == 0.0, all_ok);
    }

    #[test]
    fn fidelity_selector_is_monotone(
        gamma in 0.001f64..0.5,
        v1 in 0.0f64..2.0,
        dv in 0.0f64..2.0,
        nc in 0usize..6,
    ) {
        // If a *more certain* low model already selects Low, a less certain
        // one must too.
        let sel = FidelitySelector::new(gamma);
        if sel.select(v1, nc) == Fidelity::Low {
            prop_assert_eq!(sel.select(v1 + dv, nc), Fidelity::Low);
        }
        // And the constrained threshold is never tighter than the
        // unconstrained one.
        if sel.select(v1, nc) == Fidelity::High {
            prop_assert_eq!(sel.select(v1, nc + 1), Fidelity::High);
        }
    }

    #[test]
    fn fidelity_data_invariants(
        objs in prop::collection::vec(-5.0f64..5.0, 1..20),
        con_vals in prop::collection::vec(-2.0f64..2.0, 1..20),
    ) {
        let n = objs.len().min(con_vals.len());
        let mut data = FidelityData::new(1);
        for k in 0..n {
            data.push(vec![k as f64], &Evaluation {
                objective: objs[k],
                constraints: vec![con_vals[k]],
            });
        }
        prop_assert_eq!(data.len(), n);
        // best_feasible only returns feasible points and is the minimum
        // among them.
        if let Some((k, v)) = data.best_feasible() {
            prop_assert!(data.is_feasible(k));
            prop_assert_eq!(v, data.objective[k]);
            for i in 0..n {
                if data.is_feasible(i) {
                    prop_assert!(v <= data.objective[i]);
                }
            }
        } else {
            for i in 0..n {
                prop_assert!(!data.is_feasible(i));
            }
        }
        // best_any always exists for non-empty data.
        prop_assert!(data.best_any().is_some());
        // Violations are nonnegative and zero exactly for feasible points
        // (strict c < 0 feasibility means c == 0 counts as a violation of
        // measure zero; tolerate it).
        for i in 0..n {
            prop_assert!(data.violation(i) >= 0.0);
            if data.is_feasible(i) {
                prop_assert_eq!(data.violation(i), 0.0);
            }
        }
    }

    #[test]
    fn unit_mapping_preserves_outputs(
        xs in prop::collection::vec((0.0f64..4.0, -3.0f64..3.0), 1..10),
    ) {
        let bounds = mfbo_opt::Bounds::new(vec![0.0, -3.0], vec![4.0, 3.0]);
        let mut data = FidelityData::new(0);
        for (a, b) in &xs {
            data.push(vec![*a, *b], &Evaluation::unconstrained(a + b));
        }
        let unit = data.to_unit(&bounds);
        prop_assert_eq!(unit.len(), data.len());
        for k in 0..unit.len() {
            prop_assert!(unit.xs[k].iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert_eq!(unit.objective[k], data.objective[k]);
        }
    }
}
