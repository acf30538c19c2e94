//! A small modified-nodal-analysis (MNA) circuit simulation engine.
//!
//! The engine supports the element set the two testbenches need — resistors,
//! capacitors, inductors, independent V/I sources (DC, sine, pulse), diodes,
//! and level-1 (square-law) MOSFETs — with:
//!
//! * **DC operating point** ([`dc::solve_dc`]): damped Newton–Raphson with
//!   g-min stepping and source stepping as fallbacks, the standard SPICE
//!   convergence aids.
//! * **Transient analysis** ([`transient::Transient`]): trapezoidal (default)
//!   or backward-Euler integration with a full Newton solve per timestep.
//! * **Waveform post-processing** ([`waveform`]): single-bin DFT at the
//!   drive frequency and its harmonics, THD, average and dBm measures.
//!
//! The MNA matrices are dense and solved with the pivoted LU from
//! `mfbo-linalg` — our circuits have tens of nodes, where dense is both
//! simpler and faster than sparse machinery.
//!
//! Every Newton solve runs on a reused workspace: the MNA matrix and
//! right-hand side, the `Lu` (refactored in place every iteration) and the
//! iterate buffers are allocated once per analysis, and each iteration
//! zeroes and restamps them in element order, so the arithmetic is that of
//! a fresh allocation and no iteration allocates. A DC sweep goes further:
//! it builds its netlist once, changes only the swept source's value with
//! [`Circuit::set_source_waveform`] and solves each point on the same
//! workspace, warm-started from the previous point's solution with the
//! cold ladder as fallback (the charge-pump testbench does this for every
//! corner and switch phase). Newton iterations, DC fallback-ladder entries
//! and warm starts that fell back are counted on the workspace and emitted
//! once per analysis as the `spice_newton_iters`, `spice_dc_fallbacks` and
//! `spice_dc_warm_misses` telemetry counters.
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use mfbo_circuits::spice::{Circuit, Waveform, transient::Transient};
//!
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let vout = c.node("out");
//! c.vsource(vin, Circuit::GND, Waveform::Dc(1.0));
//! c.resistor(vin, vout, 1e3);
//! c.capacitor(vout, Circuit::GND, 1e-6); // τ = 1 ms
//! let result = Transient::new(1e-5, 5e-3).run(&c).unwrap();
//! let v_end = *result.voltage(vout).last().unwrap();
//! assert!((v_end - 1.0).abs() < 0.01); // fully charged after 5τ
//! ```

mod netlist;
pub use netlist::{Circuit, Element, MosModel, MosPolarity, NodeId, Waveform};

pub mod dc;
pub mod transient;
pub mod waveform;

mod stamp;
pub(crate) use stamp::NewtonWorkspace;

use std::error::Error;
use std::fmt;

/// Error raised by the circuit solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// Newton iteration failed to converge even with stepping aids.
    NoConvergence {
        /// Analysis that failed ("dc" or "transient").
        analysis: &'static str,
        /// Timestep index for transient failures (0 for DC).
        step: usize,
    },
    /// The MNA matrix is singular (e.g. a floating node).
    SingularMatrix,
    /// The netlist is malformed (e.g. zero-valued resistor).
    BadNetlist {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::NoConvergence { analysis, step } => {
                write!(f, "{analysis} analysis failed to converge at step {step}")
            }
            SpiceError::SingularMatrix => write!(f, "singular MNA matrix (floating node?)"),
            SpiceError::BadNetlist { reason } => write!(f, "bad netlist: {reason}"),
        }
    }
}

impl Error for SpiceError {}

impl From<mfbo_linalg::LinalgError> for SpiceError {
    fn from(_: mfbo_linalg::LinalgError) -> Self {
        SpiceError::SingularMatrix
    }
}
