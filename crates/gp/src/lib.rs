//! Gaussian-process regression for the `analog-mfbo` workspace.
//!
//! Implements the surrogate-model layer of the DAC'19 paper (§2.3):
//! zero-mean GPs with squared-exponential ARD kernels, trained by minimizing
//! the negative log marginal likelihood (NLML, paper eq. 3) with analytic
//! gradients and multi-restart L-BFGS, and providing the posterior mean and
//! variance of eq. 4.
//!
//! The multi-fidelity model of paper §3.1 needs one extra ingredient: the
//! composite NARGP kernel of eq. 9,
//! `k_h((x,f), (x',f')) = k1(f, f')·k2(x, x') + k3(x, x')`,
//! which treats the low-fidelity posterior mean as an additional input
//! coordinate. That kernel lives here too ([`kernel::NargpKernel`]) so that
//! the high-fidelity GP is just an ordinary [`Gp`] over augmented inputs.
//!
//! # Example
//!
//! ```
//! use mfbo_gp::{Gp, GpConfig, kernel::SquaredExponential};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mfbo_gp::GpError> {
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let gp = Gp::fit(
//!     SquaredExponential::new(1),
//!     xs.clone(),
//!     ys.clone(),
//!     &GpConfig::default(),
//!     &mut rng,
//! )?;
//! let p = gp.predict(&[0.5]);
//! assert!((p.mean - (3.0f64).sin()).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod gp;
pub mod kernel;
mod nlml;
mod scratch;
pub mod workspace;

pub use error::GpError;
pub use gp::{Gp, GpConfig, Prediction};
pub use mfbo_infer::InferenceMode;
pub use nlml::{
    nlml, nlml_grad_cached, nlml_value_cached, nlml_with_grad, nlml_with_grad_cached, NlmlFactor,
    NlmlWorkspace,
};
pub use scratch::with_scratch;
pub use workspace::{DiffBatch, FitCache, TrainLayout};
