//! Multi-fidelity Bayesian optimization for analog circuit synthesis.
//!
//! This crate is the core of the reproduction of
//! *"An Efficient Multi-fidelity Bayesian Optimization Approach for Analog
//! Circuit Synthesis"* (Zhang et al., DAC 2019). It provides:
//!
//! * [`problem::MultiFidelityProblem`] — the black-box interface an analog
//!   circuit (or any expensive simulator) exposes: a design box, an
//!   objective, inequality constraints, and two evaluation fidelities with
//!   different costs.
//! * [`MfGp`] — the nonlinear information-fusion surrogate (paper §3.1–3.2,
//!   after Perdikaris et al. 2017): a low-fidelity GP plus a high-fidelity
//!   GP over inputs augmented with the low-fidelity posterior mean, with
//!   Monte-Carlo propagation of low-fidelity uncertainty.
//! * [`acquisition`] — expected improvement, probability of feasibility,
//!   weighted EI (paper eqs. 5–6), the eq. (13) feasibility drive and the
//!   lower confidence bound GASPAD prescreens with.
//! * [`FidelitySelector`] — the σ²-threshold fidelity-selection criterion
//!   (paper eqs. 11–12).
//! * [`MfBayesOpt`] — the full Algorithm 1, with the multiple-starting-point
//!   acquisition optimization of §4.1 and the first-feasible-point search of
//!   §4.2.
//! * [`AskTellMfbo`] — the ask/tell decomposition of Algorithm 1 for
//!   asynchronous and batched (constant-liar) evaluation; `MfBayesOpt` is a
//!   thin sequential client of it. With `initial_low: 0` the same core runs
//!   single-fidelity constrained BO, the loop this paper (and its WEIBO
//!   baseline in `mfbo-baselines`) builds upon.
//!
//! # Quickstart
//!
//! ```
//! use mfbo::problem::{Fidelity, FunctionProblem};
//! use mfbo::{MfBayesOpt, MfBoConfig};
//! use mfbo_opt::Bounds;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mfbo::MfboError> {
//! // A cheap biased approximation (low) of an expensive truth (high).
//! let problem = FunctionProblem::builder("toy", Bounds::unit(1))
//!     .high(|x: &[f64]| ((8.0 * x[0] - 2.0).sin() * (x[0] - 0.7)).powi(2))
//!     .low(|x: &[f64]| ((8.0 * x[0] - 2.0).sin() * (x[0] - 0.75)).powi(2) + 0.05)
//!     .low_cost(0.1)
//!     .build();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = MfBoConfig {
//!     initial_low: 8,
//!     initial_high: 4,
//!     budget: 12.0,
//!     ..MfBoConfig::default()
//! };
//! let outcome = MfBayesOpt::new(config).run(&problem, &mut rng)?;
//! assert!(outcome.best_objective < 0.05);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod acquisition;
mod ar1;
mod asktell;
mod error;
mod evaluator;
mod fidelity;
mod history;
mod mfbo;
mod nargp;
pub mod problem;
pub mod report;
pub mod run_report;
mod surrogate;

pub use ar1::Ar1Gp;
pub use asktell::{AskTellMfbo, Candidate, Told};
pub use error::MfboError;
pub use evaluator::{
    robust_evaluate, EvalPolicy, EvalStats, FaultInjector, FaultKind, NonFinitePolicy, RunOptions,
    SimOutcome,
};
pub use fidelity::FidelitySelector;
pub use history::{EvaluationRecord, FidelityData, Outcome};
pub use mfbo::{MfBayesOpt, MfBoConfig};
pub use mfbo_gp::InferenceMode;
pub use mfbo_pool::Parallelism;
pub use mfbo_runstore::{GroupCommitter, RunStore};
pub use nargp::{MfGp, MfGpConfig, MfGpPlan, MfGpThetas};
pub use run_report::RunReport;
pub use surrogate::{MfBundleThetas, MfSurrogates, SfBundleThetas, SfSurrogates};
