//! `analog-mfbo` — a reproduction of *"An Efficient Multi-fidelity Bayesian
//! Optimization Approach for Analog Circuit Synthesis"* (Zhang et al.,
//! DAC 2019).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`linalg`] | dense matrices, Cholesky/LU, Gaussian scalars |
//! | [`opt`] | L-BFGS, Nelder–Mead, differential evolution, LHS, MSP |
//! | [`gp`] | GP regression, SE-ARD and NARGP fusion kernels, NLML training |
//! | [`core`](mod@core) | the paper: fusion model, wEI, fidelity selection, Algorithm 1 |
//! | [`circuits`] | MNA spice engine, PVT corners, PA & charge-pump testbenches |
//! | [`baselines`] | WEIBO, GASPAD, DE comparison algorithms |
//!
//! # Quickstart
//!
//! ```
//! use analog_mfbo::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mfbo::MfboError> {
//! // Optimize the Forrester multi-fidelity benchmark.
//! let problem = analog_mfbo::circuits::testfns::forrester();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = MfBoConfig { initial_low: 8, initial_high: 4, budget: 14.0,
//!                           ..MfBoConfig::default() };
//! let outcome = MfBayesOpt::new(config).run(&problem, &mut rng)?;
//! assert!(outcome.best_objective < -5.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use mfbo as core;
pub use mfbo_baselines as baselines;
pub use mfbo_circuits as circuits;
pub use mfbo_gp as gp;
pub use mfbo_linalg as linalg;
pub use mfbo_opt as opt;
pub use mfbo_pool as pool;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use mfbo::problem::{Evaluation, Fidelity, FunctionProblem, MultiFidelityProblem};
    pub use mfbo::{
        AskTellMfbo, Candidate, EvalPolicy, EvalStats, FaultInjector, FaultKind, InferenceMode,
        MfBayesOpt, MfBoConfig, MfGp, MfGpConfig, NonFinitePolicy, Outcome, RunOptions, RunStore,
        Told,
    };
    pub use mfbo_baselines::{
        DeBaselineConfig, DifferentialEvolutionBaseline, Gaspad, GaspadConfig, Weibo, WeiboConfig,
    };
    pub use mfbo_circuits::charge_pump::ChargePump;
    pub use mfbo_circuits::pa::PowerAmplifier;
    pub use mfbo_opt::Bounds;
    pub use mfbo_pool::Parallelism;
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        // Touch one item from every re-exported crate.
        let _ = crate::linalg::Matrix::identity(2);
        let _ = crate::opt::Bounds::unit(1);
        let _ = crate::gp::GpConfig::default();
        let _ = crate::core::MfBoConfig::default();
        let _ = crate::circuits::pa::PowerAmplifier::new();
        let _ = crate::baselines::WeiboConfig::default();
    }
}
