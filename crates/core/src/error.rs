//! The crate-wide error type.
//!
//! Every failure a simulation can produce — a coherence-oracle violation,
//! a protocol-invariant violation, a trace decode error, an invalid
//! configuration — unifies under one [`Error`] enum with full
//! [`std::error::Error::source`] chaining, so binaries can print a cause
//! chain instead of stringifying each layer ad hoc.

use std::fmt;

use dirsim_trace::TraceIoError;

use crate::engine::{SimConfigError, SimError};
use crate::invariant::InvariantViolation;

/// A protocol-invariant violation attributed to a scheme and reference.
///
/// Every engine — [`crate::Simulator::run`] and the broadcast engine
/// alike — reports invariant violations as this value, so a failing run
/// returns [`Error::Invariant`] instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    /// Protocol whose invariant fired.
    pub scheme: String,
    /// Zero-based index of the reference that exposed the violation
    /// (stream-local: under sharded execution, relative to the shard).
    pub ref_index: u64,
    /// The violation.
    pub violation: InvariantViolation,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol invariant violated in {} at reference {}: {}",
            self.scheme, self.ref_index, self.violation
        )
    }
}

impl std::error::Error for InvariantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.violation)
    }
}

/// Any failure a `dirsim` simulation can produce.
#[derive(Debug)]
pub enum Error {
    /// The coherence oracle caught a protocol misbehaving.
    Sim(SimError),
    /// The per-reference invariant audit caught a protocol misbehaving.
    Invariant(InvariantError),
    /// The reference stream failed to decode.
    TraceIo(TraceIoError),
    /// The simulation configuration is invalid.
    Config(SimConfigError),
    /// The synthetic-workload configuration is invalid.
    Workload(dirsim_trace::synth::ConfigError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sim(e) => e.fmt(f),
            Error::Invariant(e) => e.fmt(f),
            Error::TraceIo(e) => e.fmt(f),
            Error::Config(e) => e.fmt(f),
            Error::Workload(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            Error::Invariant(e) => Some(e),
            Error::TraceIo(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Workload(e) => Some(e),
        }
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<InvariantError> for Error {
    fn from(e: InvariantError) -> Self {
        Error::Invariant(e)
    }
}

impl From<TraceIoError> for Error {
    fn from(e: TraceIoError) -> Self {
        Error::TraceIo(e)
    }
}

impl From<SimConfigError> for Error {
    fn from(e: SimConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<dirsim_trace::synth::ConfigError> for Error {
    fn from(e: dirsim_trace::synth::ConfigError) -> Self {
        Error::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_mem::{BlockAddr, CacheId, OracleViolation};
    use std::error::Error as _;

    #[test]
    fn source_chain_reaches_the_violation() {
        let e = Error::Sim(SimError {
            scheme: "Dir0B".into(),
            ref_index: 7,
            violation: OracleViolation::WriterHasNoCopy {
                cache: CacheId::new(1),
                block: BlockAddr::new(2),
            },
        });
        // Error -> SimError -> OracleViolation.
        let sim = e.source().expect("SimError");
        assert!(sim.to_string().contains("reference 7"));
        let violation = sim.source().expect("OracleViolation");
        assert!(violation.to_string().contains("without holding a copy"));
    }

    #[test]
    fn invariant_error_displays_scheme_and_index() {
        let e = InvariantError {
            scheme: "Dragon".into(),
            ref_index: 3,
            violation: InvariantViolation::StateDropped {
                block: BlockAddr::new(1),
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("Dragon"));
        assert!(msg.contains("reference 3"));
        assert!(e.source().is_some());
    }

    #[test]
    fn from_impls_wrap_every_layer() {
        let trace: Error = TraceIoError::TruncatedRecord.into();
        assert!(matches!(trace, Error::TraceIo(_)));
        let config: Error =
            SimConfigError::Geometry(dirsim_mem::InvalidGeometry(dirsim_mem::CacheGeometry {
                sets: 3,
                ways: 0,
            }))
            .into();
        assert!(matches!(config, Error::Config(_)));
        let workload: Error = dirsim_trace::synth::WorkloadConfig::builder()
            .cpus(0)
            .build()
            .unwrap_err()
            .into();
        assert!(matches!(workload, Error::Workload(_)));
    }
}
