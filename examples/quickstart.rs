//! Quickstart: multi-fidelity Bayesian optimization on an analytic
//! benchmark.
//!
//! Fits the fusion surrogate on the Forrester pair, runs the Algorithm-1
//! loop, and compares against single-fidelity BO at the same equivalent
//! simulation cost.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use analog_mfbo::circuits::testfns;
use analog_mfbo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), mfbo::MfboError> {
    let problem = testfns::forrester();
    println!("=== Multi-fidelity BO on the Forrester benchmark ===");
    println!("high-fidelity truth:   f(x) = (6x-2)^2 sin(12x-4)");
    println!("low-fidelity model:    0.5 f(x) + 10(x-0.5) - 5   (cost 0.1)");
    println!("global minimum:        f(0.7572) = -6.0207\n");

    let budget = 14.0;
    let mut rng = StdRng::seed_from_u64(42);
    let config = MfBoConfig {
        initial_low: 8,
        initial_high: 4,
        budget,
        ..MfBoConfig::default()
    };
    let mf = MfBayesOpt::new(config).run(&problem, &mut rng)?;
    println!("-- proposed multi-fidelity method --");
    println!("best objective : {:>9.4}", mf.best_objective);
    println!("best design    : x = {:.4}", mf.best_x[0]);
    println!(
        "simulations    : {} low + {} high  (equivalent cost {:.1})",
        mf.n_low, mf.n_high, mf.total_cost
    );

    // Single-fidelity BO with the same equivalent budget.
    let mut rng = StdRng::seed_from_u64(42);
    let sf_config = WeiboConfig {
        initial_points: 5,
        budget: budget as usize,
        ..WeiboConfig::default()
    };
    let sf = Weibo::new(sf_config).run(&problem, &mut rng)?;
    println!("\n-- single-fidelity BO (WEIBO), same budget --");
    println!("best objective : {:>9.4}", sf.best_objective);
    println!("best design    : x = {:.4}", sf.best_x[0]);
    println!("simulations    : {} high", sf.n_high);

    println!("\nconvergence trace of the multi-fidelity run (cost, best-so-far):");
    for (cost, best) in mf.convergence_trace() {
        println!("  {cost:>6.2}  {best:>9.4}");
    }

    // Telemetry rides along on every outcome, no sink required: per-stage
    // wall-clock statistics and the fidelity-decision table of eqs. 11-12.
    println!("\n-- run telemetry (Outcome::telemetry) --");
    print!("{}", mf.telemetry.stage_table());
    println!(
        "high-fidelity picks: {}/{}",
        mf.telemetry.high_count(),
        mf.telemetry.decisions.len()
    );
    Ok(())
}
