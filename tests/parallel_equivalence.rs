//! Seeded-equivalence harness for the deterministic parallel execution
//! layer: for any thread count, every optimizer must reproduce the serial
//! run **bit for bit** — same evaluation history, same best design, same
//! cost trace. This is the contract that lets `--threads N` be a pure
//! performance knob.

use analog_mfbo::circuits::testfns;
use analog_mfbo::prelude::*;
use mfbo::problem::MultiFidelityProblem;
use mfbo::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Threaded modes compared against a fresh `Serial` baseline run. (A second
/// Serial run is not in the list: seeded reproducibility is covered by
/// `seeded_runs_are_reproducible` in the end-to-end suite.)
const MODES: [Parallelism; 2] = [Parallelism::Threads(2), Parallelism::Threads(8)];

/// Field-wise bit-exact comparison of two outcomes. `telemetry` is excluded
/// (wall-clock timings legitimately differ between runs); everything the
/// optimizer *decided* must match exactly.
fn assert_outcomes_identical(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(a.best_x, b.best_x, "{label}: best_x");
    assert_eq!(
        a.best_evaluation, b.best_evaluation,
        "{label}: best_evaluation"
    );
    assert!(
        a.best_objective.to_bits() == b.best_objective.to_bits(),
        "{label}: best_objective {} vs {}",
        a.best_objective,
        b.best_objective
    );
    assert_eq!(a.feasible, b.feasible, "{label}: feasible");
    assert_eq!(a.n_low, b.n_low, "{label}: n_low");
    assert_eq!(a.n_high, b.n_high, "{label}: n_high");
    assert!(
        a.total_cost.to_bits() == b.total_cost.to_bits(),
        "{label}: total_cost"
    );
    assert!(
        a.cost_to_best.to_bits() == b.cost_to_best.to_bits(),
        "{label}: cost_to_best"
    );
    assert_eq!(a.history.len(), b.history.len(), "{label}: history length");
    for (i, (ra, rb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(ra, rb, "{label}: history record {i}");
    }
}

fn run_mfbo(
    problem: &dyn MultiFidelityProblem,
    seed: u64,
    budget: f64,
    parallelism: Parallelism,
) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget,
        parallelism,
        ..MfBoConfig::default()
    })
    .run(problem, &mut rng)
    .unwrap()
}

#[test]
fn mfbo_history_is_bit_identical_across_thread_counts() {
    let problem = testfns::forrester();
    for seed in [7, 2024] {
        let baseline = run_mfbo(&problem, seed, 10.0, Parallelism::Serial);
        for mode in MODES {
            let out = run_mfbo(&problem, seed, 10.0, mode);
            assert_outcomes_identical(&baseline, &out, &format!("mfbo seed {seed} {mode:?}"));
        }
    }
}

#[test]
fn constrained_mfbo_is_bit_identical_across_thread_counts() {
    // Constrained problem: exercises the per-constraint surrogate fits and
    // the feasibility-drive MSP path.
    let problem = FunctionProblem::builder("c-toy", Bounds::unit(2))
        .high(|x: &[f64]| (x[0] - 0.2).powi(2) + (x[1] - 0.2).powi(2))
        .low(|x: &[f64]| (x[0] - 0.23).powi(2) + (x[1] - 0.17).powi(2) + 0.02)
        .high_constraints(1, |x: &[f64]| vec![1.0 - x[0] - x[1]])
        .low_constraints(|x: &[f64]| vec![1.02 - x[0] - x[1]])
        .low_cost(0.1)
        .build();
    let baseline = run_mfbo(&problem, 11, 7.0, Parallelism::Serial);
    for mode in MODES {
        let out = run_mfbo(&problem, 11, 7.0, mode);
        assert_outcomes_identical(&baseline, &out, &format!("constrained mfbo {mode:?}"));
    }
}

#[test]
fn sfbo_history_is_bit_identical_across_thread_counts() {
    // Single-fidelity BO as `mfbo-serve` starts it: the core with no
    // low-fidelity design (WEIBO's preset is covered below).
    let problem = testfns::forrester();
    let run = |parallelism| {
        let mut rng = StdRng::seed_from_u64(3);
        MfBayesOpt::new(MfBoConfig {
            initial_low: 0,
            initial_high: 6,
            budget: 14.0,
            parallelism,
            ..MfBoConfig::default()
        })
        .run(&problem, &mut rng)
        .unwrap()
    };
    let baseline = run(Parallelism::Serial);
    for mode in MODES {
        assert_outcomes_identical(&baseline, &run(mode), &format!("sfbo {mode:?}"));
    }
}

#[test]
fn weibo_history_is_bit_identical_across_thread_counts() {
    let problem = testfns::forrester();
    let run = |parallelism| {
        let mut rng = StdRng::seed_from_u64(5);
        Weibo::new(WeiboConfig {
            initial_points: 6,
            budget: 14,
            parallelism,
            ..WeiboConfig::default()
        })
        .run(&problem, &mut rng)
        .unwrap()
    };
    let baseline = run(Parallelism::Serial);
    for mode in MODES {
        assert_outcomes_identical(&baseline, &run(mode), &format!("weibo {mode:?}"));
    }
}

#[test]
fn parallel_run_matches_the_pre_pool_serial_code_shape() {
    // The parallelism knob must also leave the *serial* behaviour untouched:
    // a default-config run (Serial) equals an explicit Serial run, and the
    // frozen-refit path (refit_every > 1) stays equivalent too.
    let problem = testfns::forrester();
    let run = |parallelism| {
        let mut rng = StdRng::seed_from_u64(42);
        MfBayesOpt::new(MfBoConfig {
            initial_low: 8,
            initial_high: 4,
            budget: 9.0,
            refit_every: 3,
            parallelism,
            ..MfBoConfig::default()
        })
        .run(&problem, &mut rng)
        .unwrap()
    };
    let baseline = run(Parallelism::Serial);
    for mode in MODES {
        assert_outcomes_identical(&baseline, &run(mode), &format!("frozen-refit {mode:?}"));
    }
}
