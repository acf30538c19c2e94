//! Error type for GP construction and training.

use std::error::Error;
use std::fmt;

/// Error raised by GP fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// The training set is empty or inputs/outputs disagree in length.
    InvalidTrainingSet {
        /// Description of the problem.
        reason: String,
    },
    /// The kernel matrix could not be factorized even with maximum jitter.
    KernelNotPositiveDefinite,
    /// Every training restart produced a non-finite marginal likelihood.
    TrainingFailed,
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::InvalidTrainingSet { reason } => {
                write!(f, "invalid training set: {reason}")
            }
            GpError::KernelNotPositiveDefinite => {
                write!(f, "kernel matrix is not positive definite")
            }
            GpError::TrainingFailed => {
                write!(
                    f,
                    "all hyperparameter restarts failed to produce a finite likelihood"
                )
            }
        }
    }
}

impl Error for GpError {}

impl From<mfbo_linalg::LinalgError> for GpError {
    fn from(_: mfbo_linalg::LinalgError) -> Self {
        GpError::KernelNotPositiveDefinite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GpError::InvalidTrainingSet {
            reason: "empty".into(),
        };
        assert!(e.to_string().contains("empty"));
        assert!(GpError::KernelNotPositiveDefinite
            .to_string()
            .contains("positive definite"));
    }

    #[test]
    fn converts_from_linalg_error() {
        let le = mfbo_linalg::LinalgError::NotPositiveDefinite { pivot: 0 };
        let ge: GpError = le.into();
        assert_eq!(ge, GpError::KernelNotPositiveDefinite);
    }
}
