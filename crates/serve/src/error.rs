//! Typed failure modes of the serving layer.

use tigris_pipeline::RegistrationError;

/// Everything that can go wrong between a request arriving at the
/// service and a pose leaving it.
///
/// The admission variants ([`ServeError::SessionsExhausted`],
/// [`ServeError::Saturated`]) are *backpressure*, not bugs: a loaded
/// service rejects typed and fast instead of queueing unboundedly, and
/// callers retry or shed load. The others are per-request outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeError {
    /// The session budget (`ServeConfig::max_sessions`) is fully
    /// allocated; no new session can be admitted until one closes.
    SessionsExhausted {
        /// The configured budget that was hit.
        limit: usize,
    },
    /// The in-flight request budget (`ServeConfig::max_inflight`) is
    /// exhausted: this many localizations are already executing across
    /// all sessions. The frame was rejected without any work done.
    Saturated {
        /// The configured budget that was hit.
        limit: usize,
    },
    /// Cold-start relocalization ran out of candidates: either retrieval
    /// returned none, or every retrieved candidate failed geometric
    /// verification or its gates.
    RelocalizationFailed {
        /// Candidates that reached geometric verification.
        candidates_tried: usize,
    },
    /// The query frame failed in the registration pipeline (empty cloud,
    /// invalid configuration, mismatched preparation…).
    Registration(RegistrationError),
    /// The map offered for publishing holds no points.
    EmptyMap,
    /// The map offered for publishing has no submap with both a stored
    /// keyframe and a signature — nothing could ever verify a cold-start
    /// query against it.
    UnverifiableMap,
    /// The service has no published epoch installed yet: there
    /// is no map version to pin a session or a query to.
    NoEpoch,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::SessionsExhausted { limit } => {
                write!(f, "session budget exhausted ({limit} sessions active)")
            }
            ServeError::Saturated { limit } => {
                write!(f, "service saturated ({limit} localizations already in flight)")
            }
            ServeError::RelocalizationFailed { candidates_tried } => {
                write!(
                    f,
                    "cold-start relocalization failed ({candidates_tried} candidates verified, none accepted)"
                )
            }
            ServeError::Registration(err) => write!(f, "registration failed: {err}"),
            ServeError::EmptyMap => write!(f, "cannot publish an empty map"),
            ServeError::UnverifiableMap => {
                write!(f, "cannot publish a map with no verifiable (keyframed, signed) submap")
            }
            ServeError::NoEpoch => {
                write!(f, "no epoch installed: the service has nothing to serve yet")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Registration(err) => Some(err),
            _ => None,
        }
    }
}

impl From<RegistrationError> for ServeError {
    fn from(err: RegistrationError) -> Self {
        ServeError::Registration(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        for err in [
            ServeError::SessionsExhausted { limit: 4 },
            ServeError::Saturated { limit: 8 },
            ServeError::RelocalizationFailed { candidates_tried: 2 },
            ServeError::Registration(RegistrationError::EmptyCloud),
            ServeError::EmptyMap,
            ServeError::UnverifiableMap,
            ServeError::NoEpoch,
        ] {
            assert!(!err.to_string().is_empty());
        }
        assert_eq!(
            ServeError::from(RegistrationError::IcpStarved),
            ServeError::Registration(RegistrationError::IcpStarved)
        );
    }

    #[test]
    fn registration_errors_expose_their_source() {
        use std::error::Error;
        let err = ServeError::Registration(RegistrationError::EmptyCloud);
        assert!(err.source().is_some());
        assert!(ServeError::EmptyMap.source().is_none());
    }
}
