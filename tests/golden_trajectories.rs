//! Golden-trajectory regression tests: seeded end-to-end runs whose
//! best-objective-so-far trajectory is pinned to a committed snapshot.
//!
//! Any change to surrogate training, acquisition optimization, fidelity
//! selection, or RNG consumption order shows up here as a trajectory diff —
//! with the iteration at which the histories diverge, which localizes the
//! regression far better than a final-value assertion.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! MFBO_REGEN_GOLDEN=1 cargo test --test golden_trajectories
//! ```
//!
//! and commit the updated files under `tests/golden/`.

use analog_mfbo::circuits::testfns;
use analog_mfbo::prelude::*;
use mfbo::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Comparison tolerance (relative, with an absolute floor). The runs are
/// deterministic, so on one platform the match is exact; the tolerance
/// absorbs cross-platform libm differences (sin/cos/exp vary by ulps).
const REL_TOL: f64 = 1e-6;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// `(cost_so_far, best_objective_so_far)` after every evaluation, using the
/// same best-point rule as [`Outcome`]: best feasible high-fidelity
/// observation, `NaN` until one exists.
fn trajectory(out: &Outcome) -> Vec<(f64, f64)> {
    let mut best = f64::NAN;
    out.history
        .iter()
        .map(|r| {
            let feasible = r.evaluation.constraints.iter().all(|&c| c <= 0.0);
            if r.fidelity == Fidelity::High
                && feasible
                && (best.is_nan() || r.evaluation.objective < best)
            {
                best = r.evaluation.objective;
            }
            (r.cost_so_far, best)
        })
        .collect()
}

/// `(cost_so_far, objective)` of every evaluation, feasible or not — for
/// problems whose short seeded runs find no feasible high-fidelity point,
/// where the best-so-far column would be `NaN` throughout and pin nothing
/// but the fidelity schedule.
fn evaluations(out: &Outcome) -> Vec<(f64, f64)> {
    out.history
        .iter()
        .map(|r| (r.cost_so_far, r.evaluation.objective))
        .collect()
}

fn render(column: &str, traj: &[(f64, f64)]) -> String {
    let mut s = format!("step,cost,{column}\n");
    for (i, (cost, value)) in traj.iter().enumerate() {
        s.push_str(&format!("{i},{cost:.12e},{value:.12e}\n"));
    }
    s
}

fn parse(contents: &str) -> Vec<(f64, f64)> {
    contents
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.split(',').skip(1);
            let cost = cols.next().unwrap().parse().unwrap();
            let best = cols.next().unwrap().parse().unwrap();
            (cost, best)
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

fn check_against_golden(name: &str, out: &Outcome) {
    check_golden_rows(name, "best_objective", &trajectory(out));
}

fn check_golden_rows(name: &str, column: &str, traj: &[(f64, f64)]) {
    let path = golden_path(name);
    if std::env::var("MFBO_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(column, traj)).unwrap();
        return;
    }
    let golden = parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MFBO_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    }));
    assert_eq!(
        golden.len(),
        traj.len(),
        "{name}: trajectory length changed ({} golden vs {} actual)",
        golden.len(),
        traj.len()
    );
    for (i, ((gc, gb), (ac, ab))) in golden.iter().zip(traj).enumerate() {
        assert!(
            close(*gc, *ac),
            "{name}: cost diverged at step {i}: golden {gc}, actual {ac}"
        );
        assert!(
            close(*gb, *ab),
            "{name}: {column} diverged at step {i}: golden {gb}, actual {ab}"
        );
    }
}

#[test]
fn forrester_mfbo_trajectory_matches_golden() {
    let problem = testfns::forrester();
    let mut rng = StdRng::seed_from_u64(7);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget: 10.0,
        ..MfBoConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_against_golden("forrester_mfbo_seed7.csv", &out);
}

#[test]
fn power_amplifier_mfbo_trajectory_matches_golden() {
    // The circuit problem: the class-E power amplifier testbench, with its
    // real constraint set, at a budget small enough for the default suite.
    let problem = PowerAmplifier::new();
    let mut rng = StdRng::seed_from_u64(3);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget: 8.0,
        ..MfBoConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_against_golden("pa_mfbo_seed3.csv", &out);
}

#[test]
fn power_amplifier_refit_every_trajectory_matches_golden() {
    // Amortized-refit schedule on a *constrained* problem: full
    // hyperparameter optimization every 4 iterations, frozen refreshes (via
    // the persistent fit cache) in between. Pins the cross-iteration
    // cache/truncate/append machinery on a multi-constraint bundle.
    let problem = PowerAmplifier::new();
    let mut rng = StdRng::seed_from_u64(3);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget: 8.0,
        refit_every: 4,
        ..MfBoConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_against_golden("pa_mfbo_refit4_seed3.csv", &out);
}

#[test]
fn forrester_weibo_trajectory_matches_golden() {
    let problem = testfns::forrester();
    let mut rng = StdRng::seed_from_u64(9);
    let out = Weibo::new(WeiboConfig {
        initial_points: 6,
        budget: 16,
        ..WeiboConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_against_golden("forrester_weibo_seed9.csv", &out);
}

#[test]
fn charge_pump_mfbo_trajectory_matches_golden() {
    // The paper's 36-variable charge pump: the only golden that drives the
    // 36-dim NARGP fusion kernel with its six-model constraint bundle, so
    // it pins the Monte-Carlo propagation and the low-fidelity MSP search
    // at full design dimensionality. No high-fidelity point of this short
    // run is feasible, so the golden records every evaluation's objective
    // (each one depends on the acquisition that chose its design point)
    // instead of the all-`NaN` best-so-far column.
    let problem = ChargePump::new();
    let mut rng = StdRng::seed_from_u64(11);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 10,
        initial_high: 4,
        max_iterations: 3,
        msp_starts: 4,
        ..MfBoConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_golden_rows(
        "charge_pump_mfbo_seed11.csv",
        "objective",
        &evaluations(&out),
    );
}

#[test]
fn charge_pump_weibo_trajectory_matches_golden() {
    // The constrained single-fidelity path at full charge-pump
    // dimensionality: no initial point is feasible, so every iteration runs
    // the eq. (13) feasibility drive over the six-model bundle, with
    // alternating full refits and frozen refreshes (`refit_every: 2`) of
    // winsorized targets. Like the MFBO charge-pump golden it pins every
    // evaluation's objective, since the best-so-far column stays `NaN`.
    let problem = ChargePump::new();
    let mut rng = StdRng::seed_from_u64(11);
    let out = Weibo::new(WeiboConfig {
        initial_points: 5,
        budget: 9,
        msp_starts: 4,
        refit_every: 2,
        winsorize_sigma: Some(2.5),
        ..WeiboConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_golden_rows(
        "charge_pump_weibo_seed11.csv",
        "objective",
        &evaluations(&out),
    );
}

#[test]
fn power_amplifier_gaspad_trajectory_matches_golden() {
    // GASPAD on the constrained PA with `refit_every: 3`: full
    // hyperparameter searches warm-started from the last optimum, frozen
    // refreshes in between, and the DE/rand/1/bin offspring of each
    // generation all draw from the one seeded stream.
    let problem = PowerAmplifier::new();
    let mut rng = StdRng::seed_from_u64(4);
    let out = Gaspad::new(GaspadConfig {
        initial_points: 8,
        budget: 17,
        population: 8,
        refit_every: 3,
        ..GaspadConfig::default()
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_golden_rows(
        "pa_gaspad_refit3_seed4.csv",
        "objective",
        &evaluations(&out),
    );
}

#[test]
fn charge_pump_de_trajectory_matches_golden() {
    // The paper's DE column on the 36-variable charge pump: the initial
    // population and every DE/rand/1/bin trial come from the seeded stream,
    // so each simulated objective pins the draw order.
    let problem = ChargePump::new();
    let mut rng = StdRng::seed_from_u64(12);
    let out = DifferentialEvolutionBaseline::new(DeBaselineConfig {
        population: 6,
        budget: 14,
    })
    .run(&problem, &mut rng)
    .unwrap();
    check_golden_rows("charge_pump_de_seed12.csv", "objective", &evaluations(&out));
}
