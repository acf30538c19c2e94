//! Baseline synthesis algorithms from the DAC'19 comparison (paper §5).
//!
//! The paper benchmarks its multi-fidelity optimizer against three
//! state-of-the-art analog sizing approaches, all of which are implemented
//! here on top of the same problem interface so the comparison tables can
//! be regenerated end-to-end:
//!
//! * [`Weibo`] — the single-fidelity GP-BO of Lyu et al. (TCAS-I 2018):
//!   weighted-EI acquisition with multiple-starting-point optimization.
//!   This is a paper-parameterized preset of [`mfbo::MfBayesOpt`] with no
//!   low-fidelity design (`initial_low: 0`): the same ask/tell core as the
//!   multi-fidelity optimizer, every sample at high fidelity.
//! * [`Gaspad`] — Liu et al. (TCAD 2014): a surrogate-assisted evolutionary
//!   algorithm; differential-evolution operators propose candidates, a GP
//!   prescreens them with a lower-confidence-bound rule, and only the most
//!   promising candidate is simulated per generation.
//! * [`DifferentialEvolutionBaseline`] — a plain DE global optimizer with
//!   feasibility-rule constraint handling (the paper's "DE" column),
//!   simulating every candidate.
//!
//! All baselines evaluate exclusively at [`mfbo::problem::Fidelity::High`]
//! and report the same [`mfbo::Outcome`] as the multi-fidelity driver, so
//! cost accounting (equivalent high-fidelity simulations) is directly
//! comparable.

#![deny(missing_docs)]

mod de;
mod gaspad;
mod weibo;

pub use de::{DeBaselineConfig, DifferentialEvolutionBaseline};
pub use gaspad::{Gaspad, GaspadConfig};
pub use weibo::{Weibo, WeiboConfig};
