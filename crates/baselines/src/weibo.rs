//! The WEIBO baseline (Lyu et al., TCAS-I 2018).
//!
//! WEIBO is single-fidelity constrained Bayesian optimization with the
//! weighted-EI acquisition — precisely the machinery the DAC'19 paper
//! extends with the fusion model. It therefore runs as [`mfbo::SfBayesOpt`],
//! the one-fidelity case of the multi-fidelity ask/tell core; this wrapper
//! pins the paper's parameterization (40 % of MSP starts around the
//! incumbent) and exposes the experiment knobs the tables vary (initial
//! design size, simulation budget).

use mfbo::problem::MultiFidelityProblem;
use mfbo::{MfboError, Outcome, SfBayesOpt, SfBoConfig};
use mfbo_gp::GpConfig;
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
    /// GP training configuration.
    pub model: GpConfig,
    /// Re-optimize hyperparameters every `refit_every` iterations.
    pub refit_every: usize,
    /// Optional target winsorization (see
    /// [`mfbo::FidelityData::winsorized`]).
    pub winsorize_sigma: Option<f64>,
    /// Thread-pool mode for the hot paths (forwarded to
    /// [`SfBoConfig::parallelism`]). Every mode produces bit-identical
    /// optimization histories.
    pub parallelism: Parallelism,
}

impl Default for WeiboConfig {
    fn default() -> Self {
        WeiboConfig {
            initial_points: 40,
            budget: 150,
            msp_starts: 24,
            model: GpConfig::fast(),
            refit_every: 1,
            winsorize_sigma: None,
            parallelism: Parallelism::Serial,
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
    /// Same contract as [`SfBayesOpt::run`].
    pub fn run<P, R>(&self, problem: &P, rng: &mut R) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_with(problem, rng, &mut mfbo::RunOptions::default())
    }

    /// Runs WEIBO with durability and fault-tolerance options (journaling,
    /// checkpoint/resume, caching, robust evaluation) — forwarded to
    /// [`SfBayesOpt::run_with`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SfBayesOpt::run_with`].
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
        let sf = SfBoConfig {
            initial_points: self.config.initial_points,
            budget: self.config.budget,
            msp_starts: self.config.msp_starts,
            // Paper §4.1: 40 % of the starting points around τ_h.
            frac_around_tau: 0.40,
            anchor_spread: 0.05,
            model: self.config.model.clone(),
            refit_every: self.config.refit_every,
            winsorize_sigma: self.config.winsorize_sigma,
            parallelism: self.config.parallelism,
        };
        SfBayesOpt::new(sf).run_with(problem, rng, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo_circuits::testfns;
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
    }
}
