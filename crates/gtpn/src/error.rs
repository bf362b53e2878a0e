use std::fmt;

use snoop_numeric::NumericError;

/// Error type for GTPN construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum GtpnError {
    /// A transition references a place that does not exist.
    UnknownPlace {
        /// Name of the offending transition.
        transition: String,
    },
    /// A transition has an invalid parameter (zero duration on a
    /// deterministic firing, probability outside (0, 1], non-positive
    /// weight…).
    InvalidTransition {
        /// Name of the offending transition.
        transition: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The net is structurally unusable (no places or no transitions).
    EmptyNet,
    /// A model builder was given inputs it cannot represent (no
    /// processors, a non-positive think time…).
    InvalidInput(String),
    /// Reachability analysis exceeded the state budget.
    StateSpaceExplosion {
        /// The budget that was exceeded.
        limit: usize,
    },
    /// A marking would exceed the per-place token bound (likely an unbounded
    /// net).
    UnboundedPlace {
        /// Index of the offending place.
        place: usize,
    },
    /// Immediate-transition resolution did not terminate (an immediate
    /// cycle that consumes and produces the same tokens forever).
    ImmediateLivelock,
    /// Steady-state solution failed.
    Numeric(NumericError),
}

impl fmt::Display for GtpnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GtpnError::UnknownPlace { transition } => {
                write!(f, "transition {transition:?} references an unknown place")
            }
            GtpnError::InvalidTransition { transition, reason } => {
                write!(f, "transition {transition:?} is invalid: {reason}")
            }
            GtpnError::EmptyNet => write!(f, "net has no places or no transitions"),
            GtpnError::InvalidInput(reason) => write!(f, "invalid model input: {reason}"),
            GtpnError::StateSpaceExplosion { limit } => {
                write!(f, "reachability exceeded the state budget of {limit} states")
            }
            GtpnError::UnboundedPlace { place } => {
                write!(f, "place {place} exceeds the token bound; the net looks unbounded")
            }
            GtpnError::ImmediateLivelock => {
                write!(f, "immediate transitions cycle without consuming time")
            }
            GtpnError::Numeric(e) => write!(f, "steady-state solution failed: {e}"),
        }
    }
}

impl std::error::Error for GtpnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GtpnError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for GtpnError {
    fn from(e: NumericError) -> Self {
        GtpnError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(GtpnError::EmptyNet.to_string().contains("no places"));
        assert!(GtpnError::StateSpaceExplosion { limit: 10 }.to_string().contains("10"));
        assert!(GtpnError::UnknownPlace { transition: "t".into() }.to_string().contains("t"));
        assert!(GtpnError::ImmediateLivelock.to_string().contains("time"));
        assert!(GtpnError::InvalidInput("tau".into()).to_string().contains("tau"));
    }
}
