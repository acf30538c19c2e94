//! Dense linear algebra and statistics kernels for the `analog-mfbo` workspace.
//!
//! This crate is deliberately small and self-contained: the Gaussian-process
//! stack (`mfbo-gp`) needs symmetric positive-definite (SPD) factorizations
//! and triangular solves, the circuit substrate (`mfbo-circuits`) needs a
//! pivoted LU for modified-nodal-analysis systems, and everything above needs
//! Gaussian distribution scalars. The LU has a dense kernel and a structured
//! refactor for stamped MNA systems, which replays recorded pivot sequences
//! and returns the dense kernel's bits (see [`Lu::refactor_structured`]). No external linear-algebra dependency is
//! used; every routine here is written from scratch and tested against
//! analytic identities and property-based invariants.
//!
//! # Quick tour
//!
//! ```
//! use mfbo_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), mfbo_linalg::LinalgError> {
//! // A 2x2 SPD matrix.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = Cholesky::new(&a)?;
//! let x = chol.solve_vec(&[1.0, 2.0]);
//! // Verify A x = b.
//! let b = a.matvec(&x);
//! assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cholesky;
mod error;
mod lu;
mod matrix;
mod stats;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use stats::{
    mean, median, norm_cdf, norm_inv_cdf, norm_pdf, percentile, std_dev, variance, Standardizer,
};
pub use vector::{axpy, dot, infinity_norm, norm2};
