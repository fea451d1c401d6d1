//! Typed error layer for the engine crate.
//!
//! Every fallible public entry point of the engine returns [`CdsError`]
//! instead of panicking: quant-domain failures ([`QuantError`]) and
//! simulator failures ([`SimError`]) are wrapped, deployment sizing keeps
//! its dedicated [`MultiEngineError`], and the fault-tolerant paths add
//! variants for work that could not be completed even after recovery.
//! Panics remain only for *internal invariants* — states a correct engine
//! cannot reach regardless of caller input.

use crate::multi::MultiEngineError;
use cds_quant::QuantError;
use dataflow_sim::graph::SimError;

/// Errors surfaced by the engine's fallible APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum CdsError {
    /// A quantitative-finance failure: invalid option or curve input, or
    /// a degenerate contract whose fair spread diverges.
    Quant(QuantError),
    /// The discrete-event simulation failed (deadlock, runaway, or a
    /// mis-wired graph) — with fault injection active these become
    /// graceful terminations instead, so reaching this indicates a
    /// genuine engine bug or an impossible configuration.
    Sim(SimError),
    /// Multi-engine deployment sizing failed (zero engines, or more
    /// engines than fit on the device).
    Deployment(MultiEngineError),
    /// The engine configuration is inconsistent with the requested
    /// operation (e.g. streaming on a per-option region).
    Config {
        /// Human-readable description of the inconsistency.
        reason: &'static str,
    },
    /// Options were lost in flight (dropped by an injected fault or a
    /// dead engine) and recovery was not attempted.
    OptionsLost {
        /// Original indices of the unpriced options.
        lost: Vec<u32>,
    },
    /// Recovery retries were exhausted with work still unpriced.
    Exhausted {
        /// Retry rounds attempted.
        attempts: usize,
        /// Options still unpriced after the final round.
        unpriced: usize,
    },
    /// A run journal could not be parsed or is internally inconsistent
    /// (journal IO is typed, never a panic).
    Journal {
        /// What was wrong with the journal data.
        reason: String,
    },
    /// A curve point tick could not be ingested by the incremental
    /// repricing engine (knot out of bounds, or a value the curve
    /// validation rejects).
    Tick {
        /// What was wrong with the tick.
        reason: String,
    },
}

impl std::fmt::Display for CdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdsError::Quant(e) => write!(f, "quant error: {e}"),
            CdsError::Sim(e) => write!(f, "simulation error: {e}"),
            CdsError::Deployment(e) => write!(f, "deployment error: {e}"),
            CdsError::Config { reason } => write!(f, "invalid engine configuration: {reason}"),
            CdsError::OptionsLost { lost } => {
                write!(f, "{} option(s) lost in flight: {:?}", lost.len(), lost)
            }
            CdsError::Exhausted { attempts, unpriced } => {
                write!(f, "{unpriced} option(s) unpriced after {attempts} recovery attempt(s)")
            }
            CdsError::Journal { reason } => write!(f, "invalid run journal: {reason}"),
            CdsError::Tick { reason } => write!(f, "invalid curve tick: {reason}"),
        }
    }
}

impl std::error::Error for CdsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CdsError::Quant(e) => Some(e),
            CdsError::Sim(e) => Some(e),
            CdsError::Deployment(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QuantError> for CdsError {
    fn from(e: QuantError) -> Self {
        CdsError::Quant(e)
    }
}

impl From<SimError> for CdsError {
    fn from(e: SimError) -> Self {
        CdsError::Sim(e)
    }
}

impl From<MultiEngineError> for CdsError {
    fn from(e: MultiEngineError) -> Self {
        CdsError::Deployment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(CdsError, &str)> = vec![
            (CdsError::Quant(QuantError::CurveTooShort { got: 1 }), "quant"),
            (CdsError::Sim(SimError::Runaway { events: 9 }), "simulation"),
            (CdsError::Deployment(MultiEngineError::NoEngines), "deployment"),
            (CdsError::Config { reason: "streaming requires the continuous region" }, "continuous"),
            (CdsError::OptionsLost { lost: vec![3, 4] }, "lost"),
            (CdsError::Exhausted { attempts: 2, unpriced: 5 }, "unpriced"),
            (CdsError::Journal { reason: "bad magic".to_string() }, "journal"),
            (CdsError::Tick { reason: "knot 9 out of bounds".to_string() }, "tick"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should mention {needle}");
        }
    }

    #[test]
    fn from_impls_wrap_sources() {
        use std::error::Error;
        let e: CdsError = QuantError::CurveTooShort { got: 0 }.into();
        assert!(matches!(e, CdsError::Quant(_)));
        assert!(e.source().is_some());
        let e: CdsError = MultiEngineError::NoEngines.into();
        assert!(matches!(e, CdsError::Deployment(_)));
        let e = CdsError::Config { reason: "x" };
        assert!(e.source().is_none());
    }
}
