//! Single-fidelity constrained Bayesian optimization.
//!
//! This is the GP-BO loop the paper builds upon and compares against: one
//! SE-ARD GP per output, weighted-EI acquisition (eq. 6), MSP acquisition
//! optimization with an anchor around the incumbent, and the
//! first-feasible-point search of eq. (13) when nothing feasible is known.
//! Configured with the paper's settings it *is* the WEIBO baseline
//! (Lyu et al., TCAS-I 2018); `mfbo-baselines` re-exports it as such.
//!
//! It is the one-fidelity case of the multi-fidelity loop: [`SfBayesOpt`]
//! converts its configuration into an [`MfBoConfig`] with no low-fidelity
//! design and runs it on the ask/tell core ([`crate::AskTellMfbo`]).

use crate::evaluator::RunOptions;
use crate::history::Outcome;
use crate::mfbo::{MfBayesOpt, MfBoConfig};
use crate::nargp::MfGpConfig;
use crate::problem::MultiFidelityProblem;
use crate::MfboError;
use mfbo_gp::GpConfig;
use mfbo_pool::Parallelism;
use rand::Rng;

/// Configuration of [`SfBayesOpt`].
#[derive(Debug, Clone)]
pub struct SfBoConfig {
    /// Size of the initial Latin-hypercube design.
    pub initial_points: usize,
    /// Total number of (high-fidelity) simulations, initial design included.
    pub budget: usize,
    /// Number of MSP starting points per acquisition optimization.
    pub msp_starts: usize,
    /// Fraction of starts scattered around the incumbent (paper §4.1 uses
    /// 0.40 for the high-fidelity incumbent).
    pub frac_around_tau: f64,
    /// Relative width of the anchor cloud.
    pub anchor_spread: f64,
    /// GP training configuration.
    pub model: GpConfig,
    /// Re-optimize hyperparameters every `refit_every` iterations.
    pub refit_every: usize,
    /// Optional winsorization of surrogate training targets at
    /// `mean ± k·std` (see [`crate::FidelityData::winsorized`]).
    pub winsorize_sigma: Option<f64>,
    /// Thread-pool mode for the hot paths (surrogate training and MSP
    /// restart optimization). Every mode produces bit-identical optimization
    /// histories — see `mfbo_pool`.
    pub parallelism: Parallelism,
}

impl Default for SfBoConfig {
    fn default() -> Self {
        SfBoConfig {
            initial_points: 20,
            budget: 100,
            msp_starts: 24,
            frac_around_tau: 0.40,
            anchor_spread: 0.05,
            model: GpConfig::fast(),
            refit_every: 1,
            winsorize_sigma: None,
            parallelism: Parallelism::Serial,
        }
    }
}

/// Single-fidelity constrained Bayesian optimizer (the WEIBO substrate).
///
/// All evaluations run at [`Fidelity::High`](crate::problem::Fidelity::High);
/// the low-fidelity model of the problem is simply never called.
///
/// # Examples
///
/// ```
/// use mfbo::problem::FunctionProblem;
/// use mfbo::{SfBayesOpt, SfBoConfig};
/// use mfbo_opt::Bounds;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mfbo::MfboError> {
/// let p = FunctionProblem::builder("quad", Bounds::unit(1))
///     .high(|x: &[f64]| (x[0] - 0.7).powi(2))
///     .build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let config = SfBoConfig { initial_points: 6, budget: 18, ..SfBoConfig::default() };
/// let out = SfBayesOpt::new(config).run(&p, &mut rng)?;
/// assert!(out.best_objective < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SfBayesOpt {
    config: SfBoConfig,
}

impl SfBayesOpt {
    /// Creates a driver with the given configuration.
    pub fn new(config: SfBoConfig) -> Self {
        SfBayesOpt { config }
    }

    /// Runs the optimization on `problem` (high fidelity only).
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::MfBayesOpt::run`].
    pub fn run<P, R>(&self, problem: &P, rng: &mut R) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_with(problem, rng, &mut RunOptions::default())
    }

    /// Runs the optimization with durability and fault-tolerance options —
    /// same semantics as [`crate::MfBayesOpt::run_with`], minus
    /// warm-starting, which seeds a low-fidelity surrogate this loop does
    /// not have.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::MfBayesOpt::run_with`], plus
    /// [`MfboError::InvalidConfig`] when `opts.warm_start` is set.
    pub fn run_with<P, R>(
        &self,
        problem: &P,
        rng: &mut R,
        opts: &mut RunOptions,
    ) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        let cfg = &self.config;
        // `MfBoConfig::validate` refuses an empty design.
        if cfg.budget <= cfg.initial_points {
            return Err(MfboError::InvalidConfig {
                reason: "budget must exceed the initial design size".into(),
            });
        }
        let mf = MfBoConfig {
            initial_low: 0,
            initial_high: cfg.initial_points,
            // `cost(High) = 1.0`, so the budget counts simulations.
            budget: cfg.budget as f64,
            // The budget alone stops the loop.
            max_iterations: usize::MAX,
            msp_starts: cfg.msp_starts,
            frac_around_tau_h: cfg.frac_around_tau,
            anchor_spread: cfg.anchor_spread,
            model: MfGpConfig {
                high: cfg.model.clone(),
                ..MfGpConfig::fast()
            },
            refit_every: cfg.refit_every,
            winsorize_sigma: cfg.winsorize_sigma,
            parallelism: cfg.parallelism,
            gp_inference: cfg.model.inference,
            ..MfBoConfig::default()
        };
        MfBayesOpt::new(mf).run_with(problem, rng, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FunctionProblem;
    use mfbo_opt::Bounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forrester() -> FunctionProblem {
        FunctionProblem::builder("forrester", Bounds::unit(1))
            .high(|x: &[f64]| (6.0 * x[0] - 2.0).powi(2) * (12.0 * x[0] - 4.0).sin())
            .build()
    }

    #[test]
    fn solves_forrester() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = SfBoConfig {
            initial_points: 6,
            budget: 25,
            ..SfBoConfig::default()
        };
        let out = SfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        assert!(out.best_objective < -5.8, "best = {}", out.best_objective);
        assert_eq!(out.n_high, 25);
        assert_eq!(out.n_low, 0);
    }

    #[test]
    fn budget_is_respected_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = SfBoConfig {
            initial_points: 5,
            budget: 12,
            ..SfBoConfig::default()
        };
        let out = SfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        assert_eq!(out.history.len(), 12);
        assert!((out.total_cost - 12.0).abs() < 1e-12);
    }

    #[test]
    #[ignore = "slow (~15 s in debug): full 30-point feasibility drive; run with --ignored"]
    fn constrained_run_reaches_feasibility() {
        // Feasible region is the small corner x0, x1 > 0.8; initial designs
        // will typically miss it, exercising the eq. (13) drive.
        let p = FunctionProblem::builder("corner", Bounds::unit(2))
            .high(|x: &[f64]| x[0] + x[1])
            .high_constraints(2, |x: &[f64]| vec![0.8 - x[0], 0.8 - x[1]])
            .build();
        let mut rng = StdRng::seed_from_u64(3);
        let config = SfBoConfig {
            initial_points: 8,
            budget: 30,
            ..SfBoConfig::default()
        };
        let out = SfBayesOpt::new(config).run(&p, &mut rng).unwrap();
        assert!(out.feasible, "never found the feasible corner");
        assert!(out.best_x[0] > 0.8 && out.best_x[1] > 0.8);
    }

    #[test]
    fn constrained_run_reaches_feasibility_smoke() {
        // Fast default-suite variant of `constrained_run_reaches_feasibility`:
        // a milder corner and a smaller budget still exercise the eq. (13)
        // drive on every `cargo test`.
        let p = FunctionProblem::builder("corner", Bounds::unit(2))
            .high(|x: &[f64]| x[0] + x[1])
            .high_constraints(2, |x: &[f64]| vec![0.6 - x[0], 0.6 - x[1]])
            .build();
        let mut rng = StdRng::seed_from_u64(3);
        let config = SfBoConfig {
            initial_points: 6,
            budget: 14,
            ..SfBoConfig::default()
        };
        let out = SfBayesOpt::new(config).run(&p, &mut rng).unwrap();
        assert!(out.feasible, "never found the feasible corner");
        assert!(out.best_x[0] > 0.6 && out.best_x[1] > 0.6);
    }

    #[test]
    fn rejects_budget_not_exceeding_init() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = SfBayesOpt::new(SfBoConfig {
            initial_points: 10,
            budget: 10,
            ..SfBoConfig::default()
        })
        .run(&forrester(), &mut rng);
        assert!(matches!(e, Err(MfboError::InvalidConfig { .. })));
    }

    #[test]
    fn warm_start_is_refused_without_a_low_fidelity_design() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut opts = RunOptions {
            warm_start: true,
            ..RunOptions::default()
        };
        let e = SfBayesOpt::new(SfBoConfig {
            initial_points: 5,
            budget: 8,
            ..SfBoConfig::default()
        })
        .run_with(&forrester(), &mut rng, &mut opts);
        match e {
            Err(MfboError::InvalidConfig { reason }) => {
                assert!(reason.contains("low-fidelity surrogate"), "{reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_covers_every_iteration() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = SfBoConfig {
            initial_points: 5,
            budget: 12,
            ..SfBoConfig::default()
        };
        let out = SfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        let bo_iters = out.history.iter().filter(|r| r.iteration > 0).count();
        assert_eq!(bo_iters, 7);
        assert_eq!(
            out.telemetry.stages["surrogate_fit"].calls as usize,
            bo_iters
        );
        assert_eq!(out.telemetry.stages["acq_opt"].calls as usize, bo_iters);
        // 5 initial + 7 BO simulations, all at high fidelity.
        assert_eq!(out.telemetry.stages["simulate_high"].calls, 12);
        assert!(out.telemetry.decisions.is_empty());
        assert!(out.telemetry.wall_us > 0);
    }

    #[test]
    fn refit_interval_variant_still_optimizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = SfBoConfig {
            initial_points: 6,
            budget: 22,
            refit_every: 4,
            ..SfBoConfig::default()
        };
        let out = SfBayesOpt::new(config).run(&forrester(), &mut rng).unwrap();
        assert!(out.best_objective < -5.0, "best = {}", out.best_objective);
    }
}
