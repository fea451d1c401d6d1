//! Differential conformance suite for the CDS engine paths.
//!
//! Two complementary oracles keep every compute path honest without a
//! single golden number checked into the tree:
//!
//! * [`oracle`] — *metamorphic* relations from pricing theory (par
//!   fixed point, monotonicity, LGD homogeneity, schedule-refinement
//!   convergence, degenerate limits) that any correct spread model must
//!   satisfy, checked against the reference pricer, every engine route,
//!   and the deliberately-broken [`mutants`] that prove each relation
//!   can fail.
//! * [`differential`] — a seeded adversarial fuzzer ([`generator`])
//!   driving the same cases through every
//!   [`cds_engine::route::PriceRoute`] (FPGA variants, resilient and
//!   scrubbed multi-engine, scrubbed and journal-resumed streaming,
//!   CPU) and
//!   comparing spreads to the reference under a ULP-bounded comparator,
//!   shrinking any disagreement to a minimal reproducer.
//!
//! Failing cases serialise to a stable text format ([`case`]) and live
//! in `results/conformance_corpus/`, which `cds-harness conformance
//! --check` replays as a regression gate in CI.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod differential;
pub mod generator;
pub mod mutants;
pub mod oracle;

pub use crate::case::{ConformanceCase, CorpusError, MarketSpec};
pub use crate::differential::{fuzz, route_failures, FuzzFailure, FuzzReport, RouteFailure};
pub use crate::generator::{generate_case, shrink};
pub use crate::oracle::{ReferenceModel, Relation, RelationViolation, RouteModel, SpreadModel};
