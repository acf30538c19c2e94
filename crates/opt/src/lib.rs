//! Optimizers and sampling designs for the `analog-mfbo` workspace.
//!
//! The DAC'19 multi-fidelity Bayesian optimization flow needs three distinct
//! kinds of inner optimizer, all provided here:
//!
//! * **L-BFGS** ([`lbfgs::Lbfgs`]) with projected box bounds — used to
//!   minimize the GP negative log marginal likelihood with analytic
//!   gradients (`Gp::fit_planned` is its one caller in the flow). The
//!   objective is two-phase ([`lbfgs::Objective`]): line-search probes ask
//!   only for the value, and the gradient is finished once per accepted
//!   step from the state the accepted probe kept. A plain
//!   `(value, gradient)` closure — e.g. one built by
//!   [`numgrad::with_central_gradient`] — is an objective too.
//! * **Nelder–Mead** ([`neldermead::NelderMead`]) — a derivative-free local
//!   searcher used inside the multiple-starting-point strategy. The
//!   acquisition surfaces are deterministic (the NARGP propagation uses
//!   fixed stratified quantiles), but they have no input gradient and carry
//!   flat regions and kinks that a simplex search tolerates.
//! * **Differential evolution** ([`de::DifferentialEvolution`]) — both the DE
//!   baseline of the paper and the evolutionary engine inside GASPAD.
//!
//! On top of these, [`msp::MultiStart`] implements the paper's §4.1
//! multiple-starting-point strategy, including the biased start distribution
//! (a fraction of starts near the low- and high-fidelity incumbents), and
//! [`sampling`] provides Latin-hypercube designs (the initial training
//! sets, GP restarts and unbiased MSP starts), the Gaussian-perturbed starts
//! of the biased fraction, and Halton sequences.
//!
//! # Example: minimizing a quadratic under box bounds
//!
//! ```
//! use mfbo_opt::{Bounds, lbfgs::Lbfgs, numgrad::with_central_gradient};
//!
//! let bounds = Bounds::symmetric(2, 5.0);
//! let f = |x: &[f64]| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2);
//! let result = Lbfgs::new().minimize(&with_central_gradient(f), &[0.0, 0.0], &bounds);
//! assert!((result.x[0] - 1.0).abs() < 1e-5);
//! assert!((result.x[1] + 2.0).abs() < 1e-5);
//! ```

#![deny(missing_docs)]

mod bounds;
pub mod de;
pub mod lbfgs;
pub mod msp;
pub mod neldermead;
pub mod numgrad;
pub mod sampling;

pub use bounds::Bounds;

/// Result of a local or global minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at [`OptResult::x`].
    pub value: f64,
    /// Number of objective evaluations consumed. For L-BFGS these are value
    /// evaluations; a gradient is finished only at accepted points.
    pub evaluations: usize,
    /// Number of iterations of the outer loop.
    pub iterations: usize,
    /// Whether the convergence tolerance (rather than the iteration cap)
    /// terminated the run.
    pub converged: bool,
}
