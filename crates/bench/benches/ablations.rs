//! Ablation studies of the paper's design choices (beyond the paper's own
//! evaluation; DESIGN.md motivates each).
//!
//! 1. **MSP start biasing** (§4.1): 10 %/40 % anchored starts vs pure
//!    space-filling restarts, on the multimodal pedagogical problem whose
//!    eight narrow basins punish optimizers that cannot refine incumbents.
//! 2. **Fidelity-selection threshold γ** (§3.4): sweep γ and watch the
//!    low/high simulation mix and final quality.
//! 3. **Monte-Carlo propagation samples** (§3.2): accuracy and calibration
//!    of the fusion posterior vs the per-prediction sample count, in the
//!    regime where the low-fidelity model is genuinely uncertain.
//! 4. **Model class** (paper §3.1 motivation): single-fidelity GP vs linear
//!    AR(1) co-kriging (eq. 7) vs the nonlinear NARGP fusion (eq. 8–9), on
//!    a linearly- and a nonlinearly-correlated pair.

use mfbo::{Ar1Gp, MfBayesOpt, MfBoConfig, MfGp, MfGpConfig};
use mfbo_bench::{print_table, Scale};
use mfbo_circuits::testfns;
use mfbo_gp::kernel::SquaredExponential;
use mfbo_gp::{Gp, GpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let runs = scale.pick(3, 10);

    ablate_msp_bias(runs);
    ablate_gamma(runs);
    ablate_mc_samples();
    ablate_model_class();
}

/// MSP biased anchors on/off, on the multimodal pedagogical problem
/// (8 narrow basins of slightly different depth; global minimum
/// f(1/16) ≈ −1.352).
fn ablate_msp_bias(runs: usize) {
    let problem = testfns::pedagogical();
    let mut rows = Vec::new();
    for (label, frac_l, frac_h) in [
        ("paper (10% / 40%)", 0.10, 0.40),
        ("uniform starts", 0.0, 0.0),
    ] {
        let mut bests = Vec::new();
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(500 + r as u64);
            let config = MfBoConfig {
                initial_low: 12,
                initial_high: 5,
                budget: 14.0,
                frac_around_tau_l: frac_l,
                frac_around_tau_h: frac_h,
                parallelism: mfbo_bench::parallelism(),
                ..MfBoConfig::default()
            };
            let out = MfBayesOpt::new(config)
                .run(&problem, &mut rng)
                .expect("run succeeds");
            bests.push(out.best_objective);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", mfbo_linalg::mean(&bests)),
            format!("{:.4}", bests.iter().cloned().fold(f64::INFINITY, f64::min)),
            format!(
                "{:.4}",
                bests.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            ),
        ]);
    }
    print_table(
        "Ablation 1 — MSP start biasing (pedagogical problem; truth ≈ −1.3519)",
        &["variant", "mean", "best", "worst"],
        &rows,
    );
}

/// Fidelity-selection threshold γ sweep.
fn ablate_gamma(runs: usize) {
    let problem = testfns::forrester();
    let mut rows = Vec::new();
    for gamma in [0.001, 0.01, 0.1] {
        let mut bests = Vec::new();
        let mut lows = Vec::new();
        let mut highs = Vec::new();
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(700 + r as u64);
            let config = MfBoConfig {
                initial_low: 8,
                initial_high: 4,
                budget: 12.0,
                gamma,
                parallelism: mfbo_bench::parallelism(),
                ..MfBoConfig::default()
            };
            let out = MfBayesOpt::new(config)
                .run(&problem, &mut rng)
                .expect("run succeeds");
            bests.push(out.best_objective);
            lows.push(out.n_low as f64);
            highs.push(out.n_high as f64);
        }
        rows.push(vec![
            format!("{gamma}"),
            format!("{:.4}", mfbo_linalg::mean(&bests)),
            format!("{:.1}", mfbo_linalg::mean(&lows)),
            format!("{:.1}", mfbo_linalg::mean(&highs)),
        ]);
    }
    print_table(
        "Ablation 2 — fidelity-selection threshold γ (Forrester)",
        &["gamma", "mean best", "avg # low", "avg # high"],
        &rows,
    );
    println!("small γ hoards cheap samples; large γ rushes to expensive ones.");
}

/// Monte-Carlo sample count of the fusion posterior (paper eq. 10), in a
/// regime where the low-fidelity model carries real uncertainty (sparse
/// low-fidelity data).
fn ablate_mc_samples() {
    let n_low = 15;
    let n_high = 14;
    let xl: Vec<Vec<f64>> = (0..n_low)
        .map(|i| vec![i as f64 / (n_low - 1) as f64])
        .collect();
    let yl: Vec<f64> = xl.iter().map(|x| testfns::pedagogical_low(x[0])).collect();
    let xh: Vec<Vec<f64>> = (0..n_high)
        .map(|i| vec![i as f64 / (n_high - 1) as f64])
        .collect();
    let yh: Vec<f64> = xh.iter().map(|x| testfns::pedagogical_high(x[0])).collect();

    let mut rows = Vec::new();
    for mc in [1usize, 5, 20, 100] {
        let mut rng = StdRng::seed_from_u64(3);
        let config = MfGpConfig {
            mc_samples: mc,
            ..MfGpConfig::default()
        };
        let model = MfGp::fit(
            xl.clone(),
            yl.clone(),
            xh.clone(),
            yh.clone(),
            &config,
            &mut rng,
        )
        .expect("fusion model trains");
        let mut se = 0.0;
        let mut var_sum = 0.0;
        let mut covered = 0usize;
        let n = 201;
        let t0 = std::time::Instant::now();
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            let p = model.predict(&[x]);
            let truth = testfns::pedagogical_high(x);
            se += (p.mean - truth).powi(2);
            var_sum += p.var;
            if (p.mean - truth).abs() <= 3.0 * p.std_dev() + 1e-12 {
                covered += 1;
            }
        }
        let dt = t0.elapsed();
        rows.push(vec![
            format!("{mc}"),
            format!("{:.4}", (se / n as f64).sqrt()),
            format!("{:.5}", var_sum / n as f64),
            format!("{:.1}", 100.0 * covered as f64 / n as f64),
            format!("{:.1}", dt.as_secs_f64() * 1e3),
        ]);
    }
    print_table(
        "Ablation 3 — MC propagation samples (sparse low-fidelity data)",
        &[
            "samples",
            "RMSE",
            "mean post. var",
            "3σ coverage %",
            "predict time (ms)",
        ],
        &rows,
    );
    println!("one sample = plug-in: no low-fidelity uncertainty reaches the output.");
}

/// Scalar high-fidelity objective used in the model-class ablation.
type HighFn = fn(f64) -> f64;

/// Model-class comparison: SF GP vs linear AR(1) vs nonlinear NARGP.
fn ablate_model_class() {
    let pairs: [(&str, HighFn); 2] = [
        ("linear pair", |x| {
            1.5 * testfns::pedagogical_low(x) + 0.3 * x
        }),
        ("nonlinear pair", testfns::pedagogical_high),
    ];
    let n_low = 50;
    let n_high = 14;
    let mut rows = Vec::new();
    for (label, fh) in pairs {
        let xl: Vec<Vec<f64>> = (0..n_low)
            .map(|i| vec![i as f64 / (n_low - 1) as f64])
            .collect();
        let yl: Vec<f64> = xl.iter().map(|x| testfns::pedagogical_low(x[0])).collect();
        let xh: Vec<Vec<f64>> = (0..n_high)
            .map(|i| vec![i as f64 / (n_high - 1) as f64])
            .collect();
        let yh: Vec<f64> = xh.iter().map(|x| fh(x[0])).collect();

        let mut rng = StdRng::seed_from_u64(11);
        let sf = Gp::fit(
            SquaredExponential::new(1),
            xh.clone(),
            yh.clone(),
            &GpConfig::default(),
            &mut rng,
        )
        .expect("sf fit");
        let ar1 =
            Ar1Gp::fit(xl.clone(), yl.clone(), xh.clone(), yh.clone(), &mut rng).expect("ar1 fit");
        let nargp = MfGp::fit(xl, yl, xh, yh, &MfGpConfig::default(), &mut rng).expect("nargp fit");

        let n = 201;
        let rmse = |pred: &dyn Fn(f64) -> f64| {
            ((0..n)
                .map(|i| {
                    let x = i as f64 / (n - 1) as f64;
                    (pred(x) - fh(x)).powi(2)
                })
                .sum::<f64>()
                / n as f64)
                .sqrt()
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", rmse(&|x| sf.predict(&[x]).mean)),
            format!("{:.4}", rmse(&|x| ar1.predict(&[x]).mean)),
            format!("{:.4}", rmse(&|x| nargp.predict(&[x]).mean)),
            format!("{:.2}", ar1.rho()),
        ]);
    }
    print_table(
        "Ablation 4 — model class (RMSE; paper eq. 7 linear vs eq. 8 nonlinear)",
        &["fidelity pair", "SF GP", "AR(1)", "NARGP", "ρ̂"],
        &rows,
    );
    println!("AR(1) suffices for the linear pair; only NARGP handles the nonlinear one.");
}
