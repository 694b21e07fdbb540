//! The unified workspace error type.
//!
//! Before the serving-layer redesign every fallible engine surface returned
//! the formats crate's [`FormatError`] directly. That worked while the only
//! failures were shape/format problems, but a request-oriented front end
//! fails in ways no format can express: admission queues overflow, engine
//! pools run out of evictable slots, and per-request verification gates
//! reject traces. [`DtcError`] is the single error the engine-level API
//! ([`crate::SpmmEngine`], [`crate::IterativeSpmm`], `dtc-serve`) speaks;
//! format problems arrive via `From<FormatError>` so `?` keeps working.

use dtc_formats::FormatError;
use std::fmt;

/// Unified error for engine-level operations (pipeline, sessions, serving).
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so future serving-layer failure modes are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DtcError {
    /// A format/shape error from the underlying kernel or conversion.
    Format(FormatError),
    /// A request was rejected at admission (queue full, malformed request,
    /// or tenant over its limit).
    Admission {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The engine pool had no evictable slot for a new engine: every
    /// resident engine is still inside its warmup pin.
    PoolExhausted {
        /// Configured pool capacity.
        capacity: usize,
    },
    /// The per-request verification gate (dtc-verify lint replay) found an
    /// error-severity diagnostic in the engine's lowered trace.
    Verify {
        /// Kernel whose trace failed the gate.
        kernel: String,
        /// First error-severity diagnostic, pre-rendered.
        diagnostic: String,
        /// Total error-severity diagnostics found.
        errors: usize,
    },
}

impl fmt::Display for DtcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtcError::Format(e) => write!(f, "{e}"),
            DtcError::Admission { reason } => write!(f, "request rejected at admission: {reason}"),
            DtcError::PoolExhausted { capacity } => {
                write!(f, "engine pool exhausted: all {capacity} slots pinned by warmup")
            }
            DtcError::Verify { kernel, diagnostic, errors } => {
                write!(f, "verification gate rejected {kernel}: {diagnostic} ({errors} error(s))")
            }
        }
    }
}

impl std::error::Error for DtcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DtcError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for DtcError {
    fn from(e: FormatError) -> Self {
        DtcError::Format(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_errors_convert_and_chain() {
        let src = FormatError::DimensionMismatch { op: "spmm", lhs: (4, 4), rhs: (5, 8) };
        let e: DtcError = src.clone().into();
        assert_eq!(e, DtcError::Format(src.clone()));
        assert_eq!(e.to_string(), src.to_string());
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn display_names_the_failure_mode() {
        let a = DtcError::Admission { reason: "queue full".into() };
        assert!(a.to_string().contains("admission"));
        let p = DtcError::PoolExhausted { capacity: 4 };
        assert!(p.to_string().contains("4"));
        let v = DtcError::Verify {
            kernel: "DTC-SpMM".into(),
            diagnostic: "smem-overflow at tb 3".into(),
            errors: 2,
        };
        assert!(v.to_string().contains("DTC-SpMM"));
        assert!(v.to_string().contains("2 error(s)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DtcError>();
    }
}
