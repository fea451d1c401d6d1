//! # cds-engine — the paper's FPGA Credit Default Swap engines
//!
//! Implements every engine variant of *"Optimisation of an FPGA Credit
//! Default Swap engine by embracing dataflow techniques"* (CLUSTER 2021)
//! on top of the [`dataflow_sim`] substrate, producing **real spreads**
//! (validated against the [`cds_quant`] reference pricer) together with
//! **cycle-accurate timing** under the declared cost model:
//!
//! | Variant | Paper section | Structure |
//! |---|---|---|
//! | `XilinxBaseline` | Fig 1, Table I row 2 | sequential pipelined loops, II=7 hazard accumulation, prefix scans |
//! | `OptimisedDataflow` | §III, Table I row 3 | concurrent stream-connected stages, Listing-1 accumulator, region restart per option |
//! | `InterOption` | §III, Table I row 4 | options stream through a continuously-running region |
//! | `Vectorised` | Fig 3, Table I row 5 | hazard/interpolation stages replicated with round-robin scheduling |
//! | [`multi::MultiEngine`] | §IV, Table II | N engines over option chunks, U280 resource-gated |
//!
//! The single entry point is [`FpgaCdsEngine`]:
//!
//! ```
//! use cds_engine::prelude::*;
//! use cds_quant::prelude::*;
//!
//! let market = MarketData::paper_workload(42);
//! let options = PortfolioGenerator::uniform(8, 5.5, PaymentFrequency::Quarterly, 0.4);
//! let engine = FpgaCdsEngine::new(market.clone(), EngineVariant::Vectorised.config());
//! let report = engine.price_batch(&options);
//! assert_eq!(report.spreads.len(), 8);
//! let golden = CdsPricer::new(market).price(&options[0]).spread_bps;
//! assert!((report.spreads[0] - golden).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analytic;
pub mod codec;
pub mod config;
pub mod error;
pub mod incremental;
pub mod journal;
pub mod journal_io;
pub mod multi;
pub mod portfolio;
pub mod report;
pub mod route;
pub mod scrub;
pub mod stages;
pub mod streaming;
pub mod tokens;
pub mod variants;

pub use config::{EngineConfig, EngineVariant, HazardIiMode};
pub use error::CdsError;
pub use report::EngineRunReport;

use cds_quant::option::{CdsOption, MarketData};
use std::rc::Rc;

/// One FPGA CDS engine instance: market data (the constant inputs held in
/// UltraRAM) plus a configuration selecting the paper's variant.
pub struct FpgaCdsEngine {
    market: Rc<MarketData<f64>>,
    config: EngineConfig,
}

impl FpgaCdsEngine {
    /// Create an engine over the given market data and configuration.
    pub fn new(market: MarketData<f64>, config: EngineConfig) -> Self {
        FpgaCdsEngine { market: Rc::new(market), config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The constant market data.
    pub fn market(&self) -> &MarketData<f64> {
        &self.market
    }

    /// Price a batch of options, returning spreads plus the full timing
    /// report (kernel cycles, PCIe transfer, options/second).
    pub fn price_batch(&self, options: &[CdsOption]) -> EngineRunReport {
        match self.config.variant {
            EngineVariant::XilinxBaseline => {
                variants::xilinx::run(&self.market, &self.config, options)
            }
            _ => variants::dataflow::run(self.market.clone(), &self.config, options),
        }
    }
}

/// Convenient glob import.
pub mod prelude {
    pub use crate::config::{EngineConfig, EngineVariant, HazardIiMode};
    pub use crate::error::CdsError;
    pub use crate::incremental::{CurveKind, CurveTick, IncrementalEngine};
    pub use crate::journal::{drain_ordering_held, StreamJournal};
    pub use crate::journal_io::{
        enumerate_crash_states, CrashPlan, CrashState, FaultyJournalIo, JournalIo, JournalOp,
        OsJournalIo, RecordingJournalIo, StorageFaultPlan,
    };
    pub use crate::multi::MultiEngine;
    pub use crate::portfolio::{option_reads_hazard, option_reads_interest, PortfolioState};
    pub use crate::report::{EngineRunReport, SpreadDelta, TickReport};
    pub use crate::route::PriceRoute;
    pub use crate::scrub::{scrub_spreads, QuarantineRecord, ScrubPolicy, ScrubReport};
    pub use crate::streaming::{
        poisson_arrivals, resume_streaming_from, run_streaming, run_streaming_journalled,
        run_streaming_with, AdmissionControl, StreamingPolicy, StreamingReport,
    };
    pub use crate::FpgaCdsEngine;
}
