//! Cross-crate integration tests: the full optimization pipelines running
//! against the circuit substrate and the analytic benchmarks.

use analog_mfbo::circuits::testfns;
use analog_mfbo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mf_bo_beats_sf_bo_on_forrester_at_equal_cost() {
    // The headline claim, in miniature: at the same equivalent simulation
    // budget the multi-fidelity loop should (on average over seeds) find at
    // least as good a design as the single-fidelity loop.
    let problem = testfns::forrester();
    let budget = 10.0;
    let mut mf_wins = 0;
    let mut ties = 0;
    let seeds = [3u64, 17, 29, 71];
    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mf = MfBayesOpt::new(MfBoConfig {
            initial_low: 8,
            initial_high: 4,
            budget,
            ..MfBoConfig::default()
        })
        .run(&problem, &mut rng)
        .expect("mf run");
        let mut rng = StdRng::seed_from_u64(seed);
        let sf = Weibo::new(WeiboConfig {
            initial_points: 4,
            budget: budget as usize,
            ..WeiboConfig::default()
        })
        .run(&problem, &mut rng)
        .expect("sf run");
        if mf.best_objective < sf.best_objective - 1e-6 {
            mf_wins += 1;
        } else if (mf.best_objective - sf.best_objective).abs() <= 0.2 {
            ties += 1;
        }
    }
    assert!(
        mf_wins + ties >= seeds.len() - 1,
        "mf_wins = {mf_wins}, ties = {ties}"
    );
}

#[test]
fn all_four_algorithms_run_on_the_power_amplifier() {
    // Smoke-level budgets: every algorithm must complete and produce a
    // physical design on the real MNA-simulated testbench.
    let pa = PowerAmplifier::new();
    let bounds = mfbo::problem::MultiFidelityProblem::bounds(&pa);

    let mut rng = StdRng::seed_from_u64(1);
    let ours = MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget: 6.5,
        refit_every: 4,
        msp_starts: 6,
        ..MfBoConfig::default()
    })
    .run(&pa, &mut rng)
    .expect("mf-bo on PA");
    assert!(bounds.contains(&ours.best_x));
    assert!(ours.n_low >= 8 && ours.n_high >= 4);

    let mut rng = StdRng::seed_from_u64(2);
    let weibo = Weibo::new(WeiboConfig {
        initial_points: 6,
        budget: 9,
        msp_starts: 6,
        refit_every: 4,
        ..WeiboConfig::default()
    })
    .run(&pa, &mut rng)
    .expect("weibo on PA");
    assert!(bounds.contains(&weibo.best_x));
    assert_eq!(weibo.n_high, 9);

    let mut rng = StdRng::seed_from_u64(3);
    let gaspad = Gaspad::new(GaspadConfig {
        initial_points: 8,
        budget: 12,
        population: 8,
        refit_every: 4,
        ..GaspadConfig::default()
    })
    .run(&pa, &mut rng)
    .expect("gaspad on PA");
    assert!(bounds.contains(&gaspad.best_x));

    let mut rng = StdRng::seed_from_u64(4);
    let de = DifferentialEvolutionBaseline::new(DeBaselineConfig {
        population: 8,
        budget: 20,
    })
    .run(&pa, &mut rng)
    .expect("de on PA");
    assert!(bounds.contains(&de.best_x));
    assert_eq!(de.n_high, 20);
}

#[test]
#[ignore = "slow (~1 min in debug): full charge-pump pipeline; run with --ignored"]
fn charge_pump_pipeline_runs_end_to_end() {
    let cp = ChargePump::new();
    let mut rng = StdRng::seed_from_u64(5);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 12,
        initial_high: 3,
        budget: 5.0,
        refit_every: 5,
        msp_starts: 6,
        ..MfBoConfig::default()
    })
    .run(&cp, &mut rng)
    .expect("mf-bo on charge pump");
    assert_eq!(out.best_x.len(), 36);
    // FOM is a nonnegative µA-scale quantity.
    assert!(out.best_objective >= 0.0 && out.best_objective < 1e3);
    // Low fidelity must dominate the early exploration (1/27 cost).
    assert!(out.n_low >= 12);
}

#[test]
fn charge_pump_pipeline_smoke() {
    // Fast default-suite variant of `charge_pump_pipeline_runs_end_to_end`:
    // the same 36-dimensional pipeline with fewer MSP starts and a smaller
    // budget, so the wiring stays covered on every `cargo test`.
    let cp = ChargePump::new();
    let mut rng = StdRng::seed_from_u64(5);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 10,
        initial_high: 2,
        budget: 4.0,
        // At a 1/27 low-fidelity cost the budget alone allows dozens of
        // cheap iterations; the iteration cap keeps the smoke test fast.
        max_iterations: 4,
        refit_every: 8,
        msp_starts: 4,
        ..MfBoConfig::default()
    })
    .run(&cp, &mut rng)
    .expect("mf-bo on charge pump");
    assert_eq!(out.best_x.len(), 36);
    assert!(out.best_objective >= 0.0 && out.best_objective < 1e3);
    assert!(out.n_low >= 10);
}

#[test]
fn outcome_bookkeeping_is_consistent_across_algorithms() {
    let problem = testfns::branin();
    let mut rng = StdRng::seed_from_u64(6);
    let out = MfBayesOpt::new(MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget: 9.0,
        ..MfBoConfig::default()
    })
    .run(&problem, &mut rng)
    .expect("run");
    // History covers every simulation; costs increase monotonically.
    assert_eq!(out.history.len(), out.n_low + out.n_high);
    let mut prev = 0.0;
    for r in &out.history {
        assert!(r.cost_so_far > prev);
        prev = r.cost_so_far;
    }
    assert!((prev - out.total_cost).abs() < 1e-9);
    assert!(out.cost_to_best <= out.total_cost + 1e-9);
    // The best design is reproducible from the problem definition.
    let eval = problem.evaluate(&out.best_x, Fidelity::High);
    assert!((eval.objective - out.best_objective).abs() < 1e-9);
}

fn fusion_vs_single_fidelity_on_park_4d(seed: u64, n_low: usize, n_high: usize) {
    use analog_mfbo::gp::kernel::SquaredExponential;
    use analog_mfbo::gp::{Gp, GpConfig};
    use mfbo::{MfGp, MfGpConfig};
    use mfbo_opt::sampling;

    let bounds = Bounds::unit(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let xl = sampling::latin_hypercube(&bounds, n_low, &mut rng);
    let yl: Vec<f64> = xl.iter().map(|x| testfns::park_low(x)).collect();
    let xh = sampling::latin_hypercube(&bounds, n_high, &mut rng);
    let yh: Vec<f64> = xh.iter().map(|x| testfns::park_high(x)).collect();

    let mf = MfGp::fit(
        xl,
        yl,
        xh.clone(),
        yh.clone(),
        &MfGpConfig::default(),
        &mut rng,
    )
    .expect("fusion fit");
    let sf = Gp::fit(
        SquaredExponential::new(4),
        xh,
        yh,
        &GpConfig::default(),
        &mut rng,
    )
    .expect("sf fit");

    let test_points = sampling::latin_hypercube(&bounds, 200, &mut rng);
    let mut mf_se = 0.0;
    let mut sf_se = 0.0;
    for x in &test_points {
        let truth = testfns::park_high(x);
        mf_se += (mf.predict(x).mean - truth).powi(2);
        sf_se += (sf.predict(x).mean - truth).powi(2);
    }
    assert!(
        mf_se < sf_se,
        "fusion RMSE² {mf_se:.4} should beat single-fidelity {sf_se:.4}"
    );
}

#[test]
#[ignore = "slow (~20 s in debug): full-size Park fits; run with --ignored"]
fn fusion_model_beats_single_fidelity_gp_on_park_4d() {
    fusion_vs_single_fidelity_on_park_4d(7, 100, 25);
}

#[test]
fn fusion_model_beats_single_fidelity_gp_on_park_4d_smoke() {
    // Fast default-suite variant: fewer training points (the fits are cubic
    // in n), same model-class comparison.
    fusion_vs_single_fidelity_on_park_4d(3, 70, 20);
}

#[test]
fn seeded_runs_are_reproducible() {
    let problem = testfns::forrester();
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        MfBayesOpt::new(MfBoConfig {
            initial_low: 6,
            initial_high: 3,
            budget: 7.0,
            ..MfBoConfig::default()
        })
        .run(&problem, &mut rng)
        .expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_x, b.best_x);
    assert_eq!(a.n_low, b.n_low);
    assert_eq!(a.n_high, b.n_high);
    assert_eq!(a.best_objective, b.best_objective);
}

/// GASPAD's frozen refits honour the model's inference engine as its full
/// refits do: with subset-of-data capped below the training-set size, every
/// model of every refit selects a subset.
#[test]
fn gaspad_frozen_refits_honour_the_inference_mode() {
    use std::sync::Arc;

    let problem = FunctionProblem::builder("ctoy", Bounds::unit(2))
        .high(|x: &[f64]| x[0] + x[1])
        .high_constraints(1, |x: &[f64]| vec![1.0 - x[0] - x[1]])
        .build();
    let (initial, budget) = (10, 16);
    let config = GaspadConfig {
        initial_points: initial,
        budget,
        population: 10,
        refit_every: 3,
        gp_inference: InferenceMode::SubsetOfData { max_points: 8 },
    };
    let reg = Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
    {
        let _g = mfbo_telemetry::scoped_sink(reg.clone());
        Gaspad::new(config)
            .run(&problem, &mut StdRng::seed_from_u64(8))
            .expect("gaspad run");
    }
    let selections = reg.snapshot().counters["infer_subset_selections"];
    // Six refits (two full, four frozen), each selecting the subset once
    // for its two models (objective and one constraint) — a frozen refit
    // that ignored the mode would select none.
    assert_eq!(selections, (budget - initial) as u64);
}

#[test]
fn weibo_runs_and_journals_under_its_inference_mode() {
    use std::sync::Arc;

    let problem = testfns::forrester();
    let dir = std::env::temp_dir().join(format!("mfbo-e2e-weibo-sod-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |gp_inference| WeiboConfig {
        initial_points: 10,
        budget: 14,
        refit_every: 2,
        gp_inference,
        ..WeiboConfig::default()
    };
    let reg = Arc::new(mfbo_telemetry::metrics::MetricsRegistry::new());
    {
        let _g = mfbo_telemetry::scoped_sink(reg.clone());
        Weibo::new(config(InferenceMode::SubsetOfData { max_points: 8 }))
            .run_with(
                &problem,
                &mut StdRng::seed_from_u64(8),
                &mut RunOptions::journaled(RunStore::open(&dir).unwrap()),
            )
            .expect("weibo run");
    }
    // Ten initial points outgrow the eight-point subset at the first fit.
    assert!(reg.snapshot().counters["infer_subset_selections"] > 0);
    let meta = std::fs::read_to_string(dir.join("meta.json")).unwrap();
    assert!(
        meta.contains("\"inference\":\"subset-of-data\""),
        "meta.json: {meta}"
    );
    // Replaying the journal under another engine would refit different
    // surrogates, so the resume is refused.
    let err = Weibo::new(config(InferenceMode::Exact))
        .run_with(
            &problem,
            &mut StdRng::seed_from_u64(8),
            &mut RunOptions::resuming(RunStore::open(&dir).unwrap()),
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("GP inference engine"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
