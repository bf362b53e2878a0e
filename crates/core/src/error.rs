use std::fmt;

use snoop_numeric::NumericError;
use snoop_workload::WorkloadError;

/// Error type of the MVA model crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MvaError {
    /// The workload parameters or timing model were invalid.
    Workload(WorkloadError),
    /// The solve failed (non-convergence or a numerical breakdown).
    Numeric(NumericError),
    /// The requested system size is invalid (at least one processor is
    /// required).
    InvalidSystemSize(usize),
}

impl fmt::Display for MvaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvaError::Workload(e) => write!(f, "workload error: {e}"),
            MvaError::Numeric(e) => write!(f, "numeric error: {e}"),
            MvaError::InvalidSystemSize(n) => {
                write!(f, "invalid system size {n}, need at least one processor")
            }
        }
    }
}

impl std::error::Error for MvaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MvaError::Workload(e) => Some(e),
            MvaError::Numeric(e) => Some(e),
            MvaError::InvalidSystemSize(_) => None,
        }
    }
}

impl From<WorkloadError> for MvaError {
    fn from(e: WorkloadError) -> Self {
        MvaError::Workload(e)
    }
}

impl From<NumericError> for MvaError {
    fn from(e: NumericError) -> Self {
        MvaError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error as _;
        let e = MvaError::InvalidSystemSize(0);
        assert!(e.to_string().contains("0"));
        assert!(e.source().is_none());

        let e = MvaError::from(NumericError::SingularMatrix { pivot: 1 });
        assert!(e.to_string().contains("numeric"));
        assert!(e.source().is_some());

        let e = MvaError::from(WorkloadError::InvalidParameter { name: "tau", value: -1.0 });
        assert!(e.to_string().contains("tau"));
    }
}
