//! [`PriceRoute`] — a uniform enumeration of every compute path that can
//! turn a batch of options into spreads.
//!
//! A route exists only if it runs code no other route runs: a distinct
//! production path (the four Table-I engine variants, the three CPU
//! engines) or a fault-injection oracle (engine loss and re-sharding and
//! result scrubbing over the multi-engine deployment, scrubbing and
//! journal/resume over the streaming ingress). Paths that
//! differ from a route only in timing have no route of their own: the
//! fault-free [`MultiEngine::price_batch`] runs inside the two
//! `resilient/*` routes, and default-policy streaming inside the
//! streaming journal/resume route. Every route must
//! produce the same spreads, which means every one of them must be
//! *enumerable* by correctness tooling. `PriceRoute` names each path and
//! exposes a single fallible [`PriceRoute::price`] so a differential
//! fuzzer — `crates/conformance` — can drive all of them through one
//! loop instead of hand-writing a call site per path.

use crate::config::EngineVariant;
use crate::error::CdsError;
use crate::multi::{MultiEngine, BATCH_RETRY_ROUNDS};
use crate::scrub::ScrubPolicy;
use crate::streaming::{
    resume_streaming_from, run_streaming_journalled, run_streaming_with, StreamingPolicy,
};
use crate::FpgaCdsEngine;
use cds_cpu::{price_parallel, CpuCdsEngine};
use cds_quant::option::{CdsOption, MarketData};
use dataflow_sim::fault::FaultPlan;
use dataflow_sim::Cycle;
use std::rc::Rc;

/// Engines deployed by the multi-engine routes: the paper's full U280
/// complement, so contention and sharding paths are exercised.
const MULTI_ENGINES: usize = 5;

/// Arrival cadence of the streaming routes, in kernel cycles — fast
/// enough to keep the region busy, slow enough that nothing queues
/// unboundedly without admission control.
const STREAM_ARRIVAL_STEP: Cycle = 30_000;

/// Journal fsync cadence (completed options) of the journal/resume
/// route; small so even short conformance batches cross several
/// fsync boundaries.
const RESUME_CADENCE: u32 = 3;

/// Cycle at which the resilient routes' fault plan kills engine `e1.`,
/// forcing the re-shard/recovery machinery to actually run.
const KILL_CYCLE: Cycle = 40_000;

/// One end-to-end path from a batch of options to a vector of spreads.
///
/// [`PriceRoute::ALL`] enumerates every path; [`PriceRoute::price`]
/// executes one. All routes are deterministic, validate their inputs,
/// and return spreads in original option order — so for any two routes
/// the outputs are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriceRoute {
    /// A single FPGA engine of the named Table-I variant.
    Variant(EngineVariant),
    /// Resilient deployment that loses engine `e1.` mid-run and
    /// re-shards its work across the survivors.
    ResilientEngineLoss,
    /// Resilient deployment with the result-integrity scrubber enabled
    /// (guards + sampled CPU cross-check).
    ResilientScrubbed,
    /// Streaming ingress with the scrubber enabled on completion.
    StreamingScrubbed,
    /// Streaming run journalled at `RESUME_CADENCE` (every 3
    /// completions), cut mid-run and resumed from the prefix — the merged
    /// spreads are the output.
    StreamingResume,
    /// The single-threaded CPU reference engine (per-option scalar loop).
    CpuScalar,
    /// The zero-allocation lane-parallel CPU batch kernel (shared
    /// schedule grids + 8-wide stub lanes), bit-identical to the scalar
    /// reference.
    CpuLanes,
    /// The chunked multi-threaded CPU engine (three threads).
    CpuParallel,
}

impl PriceRoute {
    /// Every route, in a stable order: the four engine variants first,
    /// then the multi-engine robustness layers, the streaming paths, and
    /// the CPU engines.
    pub const ALL: [PriceRoute; 11] = [
        PriceRoute::Variant(EngineVariant::XilinxBaseline),
        PriceRoute::Variant(EngineVariant::OptimisedDataflow),
        PriceRoute::Variant(EngineVariant::InterOption),
        PriceRoute::Variant(EngineVariant::Vectorised),
        PriceRoute::ResilientEngineLoss,
        PriceRoute::ResilientScrubbed,
        PriceRoute::StreamingScrubbed,
        PriceRoute::StreamingResume,
        PriceRoute::CpuScalar,
        PriceRoute::CpuLanes,
        PriceRoute::CpuParallel,
    ];

    /// Stable machine-readable label (used in reports and corpus files).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PriceRoute::Variant(EngineVariant::XilinxBaseline) => "fpga/xilinx-baseline",
            PriceRoute::Variant(EngineVariant::OptimisedDataflow) => "fpga/optimised-dataflow",
            PriceRoute::Variant(EngineVariant::InterOption) => "fpga/inter-option",
            PriceRoute::Variant(EngineVariant::Vectorised) => "fpga/vectorised",
            PriceRoute::ResilientEngineLoss => "resilient/engine-loss",
            PriceRoute::ResilientScrubbed => "resilient/scrubbed",
            PriceRoute::StreamingScrubbed => "streaming/scrubbed",
            PriceRoute::StreamingResume => "streaming/journal-resume",
            PriceRoute::CpuScalar => "cpu/scalar",
            PriceRoute::CpuLanes => "cpu/lanes",
            PriceRoute::CpuParallel => "cpu/parallel",
        }
    }

    /// Find a route by its [`PriceRoute::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<PriceRoute> {
        PriceRoute::ALL.into_iter().find(|r| r.label() == label)
    }

    /// Price `options` under `market` through this route.
    ///
    /// Returns one spread per option, in input order. Every route
    /// re-validates the options at its own ingress; routes whose
    /// underlying path can shed or lose work are configured here so that
    /// nothing is shed (conformance requires a spread for every option)
    /// and report an error if work is lost anyway.
    pub fn price(
        &self,
        market: &MarketData<f64>,
        options: &[CdsOption],
    ) -> Result<Vec<f64>, CdsError> {
        for o in options {
            CdsOption::validated(o.maturity, o.frequency, o.recovery_rate)?;
        }
        // Degenerate empty batch: every route agrees on the empty answer
        // rather than exercising per-path "no work" edge behaviour.
        if options.is_empty() {
            return Ok(Vec::new());
        }
        match self {
            PriceRoute::Variant(variant) => {
                let engine = FpgaCdsEngine::new(market.clone(), variant.config());
                Ok(engine.price_batch(options).spreads)
            }
            PriceRoute::ResilientEngineLoss => {
                let plan = FaultPlan::new(1).kill_region("e1.", KILL_CYCLE);
                let report = self.multi(market)?.price_batch_resilient(
                    options,
                    Some(&plan),
                    BATCH_RETRY_ROUNDS,
                    None,
                )?;
                Self::complete_spreads(report.spreads, options.len())
            }
            PriceRoute::ResilientScrubbed => {
                let report = self.multi(market)?.price_batch_resilient(
                    options,
                    None,
                    BATCH_RETRY_ROUNDS,
                    Some(&ScrubPolicy::default()),
                )?;
                Self::complete_spreads(report.spreads, options.len())
            }
            PriceRoute::StreamingScrubbed => {
                let policy = StreamingPolicy {
                    scrub: Some(ScrubPolicy::default()),
                    ..StreamingPolicy::default()
                };
                let config = EngineVariant::Vectorised.config();
                let arrivals = Self::arrivals(options.len());
                let report = run_streaming_with(
                    Rc::new(market.clone()),
                    &config,
                    options,
                    &arrivals,
                    &policy,
                )?;
                Self::complete_spreads(report.spreads, options.len())
            }
            PriceRoute::StreamingResume => {
                let config = EngineVariant::Vectorised.config();
                let arrivals = Self::arrivals(options.len());
                let policy = StreamingPolicy::default();
                let market = Rc::new(market.clone());
                let (_, journal) = run_streaming_journalled(
                    market.clone(),
                    &config,
                    options,
                    &arrivals,
                    &policy,
                    RESUME_CADENCE,
                )?;
                // Cut the journal mid-run, as a crash would.
                let cut = journal.prefix(journal.completed.len() / 2);
                let report =
                    resume_streaming_from(market, &config, options, &arrivals, &policy, &cut)?;
                Self::complete_spreads(report.spreads, options.len())
            }
            PriceRoute::CpuScalar => Ok(CpuCdsEngine::new(market).price_batch_scalar(options)),
            PriceRoute::CpuLanes => Ok(CpuCdsEngine::new(market).price_batch(options)),
            PriceRoute::CpuParallel => Ok(price_parallel(&CpuCdsEngine::new(market), options, 3)),
        }
    }

    /// The shared multi-engine deployment of the `resilient/*` routes.
    fn multi(&self, market: &MarketData<f64>) -> Result<MultiEngine, CdsError> {
        MultiEngine::new(market.clone(), MULTI_ENGINES)
            .map_err(|_| CdsError::Config { reason: "multi-engine deployment does not fit" })
    }

    /// Evenly spaced arrival cycles for the streaming routes.
    fn arrivals(n: usize) -> Vec<Cycle> {
        (0..n as Cycle).map(|i| i * STREAM_ARRIVAL_STEP).collect()
    }

    /// A conformance route must price *everything*: a short spread
    /// vector means the underlying path shed or lost work, which is a
    /// route failure, not a comparison to make.
    fn complete_spreads(spreads: Vec<f64>, expected: usize) -> Result<Vec<f64>, CdsError> {
        if spreads.len() == expected {
            Ok(spreads)
        } else {
            Err(CdsError::Config { reason: "route lost options (incomplete spread vector)" })
        }
    }
}

impl std::fmt::Display for PriceRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::cds::CdsPricer;
    use cds_quant::option::{PaymentFrequency, PortfolioGenerator};
    use cds_quant::ulp::UlpComparator;

    fn ok<T>(r: Result<T, CdsError>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("route failed: {e}"),
        }
    }

    #[test]
    fn labels_are_unique_and_round_trip() {
        let mut seen = std::collections::BTreeSet::new();
        for route in PriceRoute::ALL {
            assert!(seen.insert(route.label()), "duplicate label {}", route.label());
            assert_eq!(PriceRoute::from_label(route.label()), Some(route));
        }
        assert_eq!(PriceRoute::from_label("no-such-route"), None);
    }

    #[test]
    fn every_route_prices_a_small_batch_identically() {
        let market = MarketData::paper_workload(11);
        let options = PortfolioGenerator::new(3).portfolio(7);
        let pricer = CdsPricer::new(market.clone());
        let golden: Vec<f64> = options.iter().map(|o| pricer.price(o).spread_bps).collect();
        for route in PriceRoute::ALL {
            let spreads = ok(route.price(&market, &options));
            assert_eq!(spreads.len(), golden.len(), "{route}");
            if let Err((i, m)) = UlpComparator::ENGINE_F64.check_all(&spreads, &golden) {
                panic!("{route}[{i}]: {m}");
            }
        }
    }

    #[test]
    fn routes_reject_invalid_options() {
        let market = MarketData::flat(0.02, 0.015, 64);
        let bad =
            CdsOption { maturity: -1.0, ..CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4) };
        for route in [PriceRoute::CpuScalar, PriceRoute::Variant(EngineVariant::Vectorised)] {
            assert!(route.price(&market, &[bad]).is_err(), "{route}");
        }
    }

    #[test]
    fn empty_batch_is_empty_everywhere() {
        let market = MarketData::flat(0.02, 0.015, 64);
        for route in [
            PriceRoute::CpuScalar,
            PriceRoute::CpuLanes,
            PriceRoute::Variant(EngineVariant::XilinxBaseline),
            PriceRoute::StreamingResume,
        ] {
            assert!(ok(route.price(&market, &[])).is_empty(), "{route}");
        }
    }
}
