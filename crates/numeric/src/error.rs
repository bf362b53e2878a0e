use std::fmt;

/// Error type for the numeric substrate.
///
/// Every fallible public function in this crate returns
/// `Result<_, NumericError>`.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// An iterative method failed to converge within its iteration budget.
    ///
    /// Carries the iteration limit and the residual at the final iterate.
    NoConvergence {
        /// The iteration budget that was exhausted.
        iterations: usize,
        /// Residual (method-specific norm) at the last iterate.
        residual: f64,
    },
    /// A matrix was singular (or numerically singular) where a solve was
    /// requested.
    SingularMatrix {
        /// Pivot column at which elimination broke down.
        pivot: usize,
    },
    /// Dimensions of the operands do not agree.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// A statistical estimator was given fewer observations than it
    /// needs to be meaningful (e.g. a confidence interval over a single
    /// replication, whose variance is vacuously zero and would read as
    /// perfect precision).
    InsufficientSamples {
        /// Minimum number of observations the estimator requires.
        required: usize,
        /// Number of observations actually supplied.
        actual: usize,
    },
    /// An argument was outside its documented domain.
    InvalidArgument(String),
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::NoConvergence { iterations, residual } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            NumericError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            NumericError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericError::InsufficientSamples { required, actual } => write!(
                f,
                "insufficient samples: estimator needs at least {required} observations, got {actual}"
            ),
            NumericError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_no_convergence() {
        let e = NumericError::NoConvergence { iterations: 10, residual: 0.5 };
        assert!(e.to_string().contains("10 iterations"));
    }

    #[test]
    fn display_singular() {
        let e = NumericError::SingularMatrix { pivot: 3 };
        assert!(e.to_string().contains("pivot column 3"));
    }

    #[test]
    fn display_dimension_mismatch() {
        let e = NumericError::DimensionMismatch { expected: 4, actual: 2 };
        assert_eq!(e.to_string(), "dimension mismatch: expected 4, got 2");
    }

    #[test]
    fn display_insufficient_samples() {
        let e = NumericError::InsufficientSamples { required: 2, actual: 1 };
        assert_eq!(
            e.to_string(),
            "insufficient samples: estimator needs at least 2 observations, got 1"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
