//! The WEIBO baseline (Lyu et al., TCAS-I 2018).
//!
//! WEIBO is single-fidelity constrained Bayesian optimization with the
//! weighted-EI acquisition — precisely the machinery the DAC'19 paper
//! extends with the fusion model. It therefore runs as [`mfbo::MfBayesOpt`]
//! with no low-fidelity design (`initial_low: 0`), the one-fidelity case of
//! the multi-fidelity ask/tell core. The paper's parameterization (40 % of
//! MSP starts around the incumbent) is the [`MfBoConfig`] default; this
//! wrapper exposes the experiment knobs the tables vary (initial design
//! size, simulation budget).

use mfbo::problem::MultiFidelityProblem;
use mfbo::{MfBayesOpt, MfBoConfig, MfboError, Outcome};
use mfbo_gp::InferenceMode;
use mfbo_pool::Parallelism;
use rand::Rng;

/// WEIBO configuration (paper Table 1 uses 40 initial points / 150 sims on
/// the power amplifier; Table 2 uses 120 / 800 on the charge pump).
#[derive(Debug, Clone)]
pub struct WeiboConfig {
    /// Size of the initial Latin-hypercube design.
    pub initial_points: usize,
    /// Total number of simulations (initial design included).
    pub budget: usize,
    /// Number of MSP starting points per acquisition optimization.
    pub msp_starts: usize,
    /// Re-optimize hyperparameters every `refit_every` iterations.
    pub refit_every: usize,
    /// Optional target winsorization (see
    /// [`mfbo::FidelityData::winsorized`]).
    pub winsorize_sigma: Option<f64>,
    /// Thread-pool mode for the hot paths (forwarded to
    /// [`MfBoConfig::parallelism`]). Every mode produces bit-identical
    /// optimization histories.
    pub parallelism: Parallelism,
    /// GP inference engine for every surrogate fit (forwarded to
    /// [`MfBoConfig::gp_inference`]).
    pub gp_inference: InferenceMode,
}

impl Default for WeiboConfig {
    fn default() -> Self {
        WeiboConfig {
            initial_points: 40,
            budget: 150,
            msp_starts: 24,
            refit_every: 1,
            winsorize_sigma: None,
            parallelism: Parallelism::Serial,
            gp_inference: InferenceMode::Exact,
        }
    }
}

/// The WEIBO optimizer.
///
/// # Examples
///
/// ```
/// use mfbo_baselines::{Weibo, WeiboConfig};
/// use mfbo::problem::FunctionProblem;
/// use mfbo_opt::Bounds;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mfbo::MfboError> {
/// let p = FunctionProblem::builder("quad", Bounds::unit(1))
///     .high(|x: &[f64]| (x[0] - 0.6).powi(2))
///     .build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let config = WeiboConfig { initial_points: 6, budget: 16, ..WeiboConfig::default() };
/// let out = Weibo::new(config).run(&p, &mut rng)?;
/// assert!(out.best_objective < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Weibo {
    config: WeiboConfig,
}

impl Weibo {
    /// Creates a WEIBO driver.
    pub fn new(config: WeiboConfig) -> Self {
        Weibo { config }
    }

    /// Runs WEIBO on `problem` (high fidelity only).
    ///
    /// # Errors
    ///
    /// Same contract as [`Weibo::run_with`] with default options.
    pub fn run<P, R>(&self, problem: &P, rng: &mut R) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_with(problem, rng, &mut mfbo::RunOptions::default())
    }

    /// Runs WEIBO with durability and fault-tolerance options (journaling,
    /// checkpoint/resume, caching, robust evaluation) — the semantics of
    /// [`MfBayesOpt::run_with`], minus warm-starting, which seeds a
    /// low-fidelity surrogate this loop does not have.
    ///
    /// # Errors
    ///
    /// Same contract as [`MfBayesOpt::run_with`], plus
    /// [`MfboError::InvalidConfig`] when the budget does not exceed the
    /// initial design or `opts.warm_start` is set.
    pub fn run_with<P, R>(
        &self,
        problem: &P,
        rng: &mut R,
        opts: &mut mfbo::RunOptions,
    ) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        let cfg = &self.config;
        // `MfBoConfig::validate` refuses only an empty design.
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
            refit_every: cfg.refit_every,
            winsorize_sigma: cfg.winsorize_sigma,
            parallelism: cfg.parallelism,
            gp_inference: cfg.gp_inference,
            ..MfBoConfig::default()
        };
        MfBayesOpt::new(mf).run_with(problem, rng, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo::problem::FunctionProblem;
    use mfbo_circuits::testfns;
    use mfbo_opt::Bounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weibo_solves_forrester() {
        let p = testfns::forrester();
        let mut rng = StdRng::seed_from_u64(9);
        let config = WeiboConfig {
            initial_points: 6,
            budget: 24,
            ..WeiboConfig::default()
        };
        let out = Weibo::new(config).run(&p, &mut rng).unwrap();
        assert!(out.best_objective < -5.5, "best = {}", out.best_objective);
        assert_eq!(out.n_low, 0);
        assert_eq!(out.n_high, 24);
        // The budget counts simulations and is spent exactly.
        assert_eq!(out.history.len(), 24);
        assert!((out.total_cost - 24.0).abs() < 1e-12);
    }

    /// Objective `x0 + x1`, feasible only where both coordinates exceed
    /// `corner`; initial designs typically miss it, exercising the eq. (13)
    /// drive.
    fn corner(corner: f64) -> FunctionProblem {
        FunctionProblem::builder("corner", Bounds::unit(2))
            .high(|x: &[f64]| x[0] + x[1])
            .high_constraints(2, move |x: &[f64]| vec![corner - x[0], corner - x[1]])
            .build()
    }

    #[test]
    #[ignore = "slow (~15 s in debug): full 30-point feasibility drive; run with --ignored"]
    fn constrained_run_reaches_feasibility() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = WeiboConfig {
            initial_points: 8,
            budget: 30,
            ..WeiboConfig::default()
        };
        let out = Weibo::new(config).run(&corner(0.8), &mut rng).unwrap();
        assert!(out.feasible, "never found the feasible corner");
        assert!(out.best_x[0] > 0.8 && out.best_x[1] > 0.8);
    }

    #[test]
    fn constrained_run_reaches_feasibility_smoke() {
        // Fast default-suite variant of `constrained_run_reaches_feasibility`:
        // a milder corner and a smaller budget still exercise the eq. (13)
        // drive on every `cargo test`.
        let mut rng = StdRng::seed_from_u64(3);
        let config = WeiboConfig {
            initial_points: 6,
            budget: 14,
            ..WeiboConfig::default()
        };
        let out = Weibo::new(config).run(&corner(0.6), &mut rng).unwrap();
        assert!(out.feasible, "never found the feasible corner");
        assert!(out.best_x[0] > 0.6 && out.best_x[1] > 0.6);
    }

    #[test]
    fn rejects_budget_not_exceeding_init() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Weibo::new(WeiboConfig {
            initial_points: 10,
            budget: 10,
            ..WeiboConfig::default()
        })
        .run(&testfns::forrester(), &mut rng);
        match e {
            Err(MfboError::InvalidConfig { reason }) => {
                assert!(reason.contains("initial design size"), "{reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn refit_interval_variant_still_optimizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = WeiboConfig {
            initial_points: 6,
            budget: 22,
            refit_every: 4,
            ..WeiboConfig::default()
        };
        let out = Weibo::new(config)
            .run(&testfns::forrester(), &mut rng)
            .unwrap();
        assert!(out.best_objective < -5.0, "best = {}", out.best_objective);
    }
}
