//! Multi-engine scaling (paper §IV, Table II).
//!
//! "We scaled up the number of CDS engines on the FPGA, being able to fit
//! five onto the Alveo U280. There are no dependencies between
//! calculations involving different options, and as such we decomposed
//! based upon the options themselves, splitting the entire set up into N
//! chunks … All engines require the full interest and hazard rate data,
//! which is read in upon initialisation of the engine and stored in
//! UltraRAM."

use crate::config::{EngineConfig, EnginePrecision, EngineVariant};
use crate::error::CdsError;
use crate::scrub::{scrub_spreads, ScrubPolicy, ScrubReport};
use crate::tokens::{corrupted_options, tag_options};
use crate::variants::dataflow::build_graph_into;
use cds_quant::option::{CdsOption, MarketData};
use dataflow_sim::event_sim::EventSim;
use dataflow_sim::fault::FaultPlan;
use dataflow_sim::graph::GraphBuilder;
use dataflow_sim::region::RegionMode;
use dataflow_sim::resource::{op_cost, uram_for_curve, Device, ResourceUsage};
use dataflow_sim::trace::Counters;
use std::rc::Rc;

/// Fault-free re-shard rounds a batch deployment runs after its first
/// (possibly faulted) round: the recovery depth of the resilient routes
/// and of most chaos scenarios.
pub const BATCH_RETRY_ROUNDS: usize = 2;

/// Per-extra-engine slowdown from shared memory interconnect and host
/// sequencing — the linear coefficient of the contention model.
///
/// **Calibrated constant** (DESIGN.md §5): the paper measures 1.943× at
/// two engines and 4.124× at five. The overhead per extra engine is not
/// flat — each additional engine sharing the HBM interconnect costs
/// slightly more than the last — so the model is quadratic in the number
/// of extra engines:
///
/// ```text
/// speedup(n) = n / (1 + (n−1)·(MULTI_ENGINE_CONTENTION
///                             + (n−1)·MULTI_ENGINE_CONTENTION_GROWTH))
/// ```
///
/// The two coefficients are the exact two-point fit through the paper's
/// measurements, reproducing both 1.943×@2 and 4.124×@5 to better than
/// 0.01% (a single flat coefficient can only fit one of the two points;
/// the best single-constant compromise, `f ≈ 0.053`, is 2.2% off at two
/// engines).
pub const MULTI_ENGINE_CONTENTION: f64 = 0.021_413_5;

/// Growth of the per-extra-engine contention with each further engine —
/// the quadratic coefficient of the model above (see
/// [`MULTI_ENGINE_CONTENTION`]).
pub const MULTI_ENGINE_CONTENTION_GROWTH: f64 = 0.007_922_6;

/// Contention multiplier on the makespan at `n` engines:
/// `1 + (n−1)·(α + (n−1)·β)` with the two calibrated coefficients.
pub fn contention_factor(n: usize) -> f64 {
    let extra = n.saturating_sub(1) as f64;
    1.0 + extra * (MULTI_ENGINE_CONTENTION + extra * MULTI_ENGINE_CONTENTION_GROWTH)
}

/// Errors constructing a multi-engine deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiEngineError {
    /// Zero engines requested.
    NoEngines,
    /// The requested engine count does not fit on the device.
    DoesNotFit {
        /// Engines requested.
        requested: usize,
        /// Maximum that fit.
        max: usize,
    },
}

impl std::fmt::Display for MultiEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiEngineError::NoEngines => write!(f, "need at least one engine"),
            MultiEngineError::DoesNotFit { requested, max } => {
                write!(f, "{requested} engines requested but only {max} fit on the device")
            }
        }
    }
}

impl std::error::Error for MultiEngineError {}

/// Estimated FPGA resources of one engine under the given configuration.
///
/// The vectorised engine replicates the hazard and two interpolation
/// functions `V` times; each function keeps its own dual-ported URAM copy
/// of the constant curve data.
pub fn engine_resource_usage(config: &EngineConfig, curve_entries: usize) -> ResourceUsage {
    let v = config.vector_factor.max(1) as u64;
    // The replicated datapath follows the configured precision (the
    // further-work f32 mode roughly halves it); the narrow fixed stages
    // stay double precision in mixed mode.
    let (add, mul, exp) = match config.precision {
        EnginePrecision::Double => (op_cost::DADD, op_cost::DMUL, op_cost::DEXP),
        EnginePrecision::Single => (op_cost::SADD, op_cost::SMUL, op_cost::SEXP),
    };
    // Hazard replica: seven unrolled adders (Listing 1), exp core, two
    // multipliers for the integrand.
    let hazard_replica = add.times(7).plus(exp).plus(mul.times(2));
    // Interpolation replica: segment arithmetic plus discounting exp.
    let interp_replica = add.times(2).plus(mul.times(2)).plus(exp);
    let replicated = hazard_replica.plus(interp_replica.times(2)).times(v);
    // Fixed stages: time-point generation, three calculation stages, two
    // tees, three accumulators (7 adders each), combine (divider), I/O.
    let fixed = op_cost::STAGE_OVERHEAD
        .times(14)
        .plus(op_cost::DADD.times(3 * 7 + 4))
        .plus(op_cost::DMUL.times(5))
        .plus(op_cost::DDIV);
    // Split/merge schedulers when vectorised — lightweight round-robin
    // muxes, roughly half a full stage each.
    let schedulers =
        if v > 1 { op_cost::STAGE_OVERHEAD.times(3) } else { ResourceUsage::default() };
    let uram = ResourceUsage {
        uram: uram_for_curve(curve_entries, 3), // one copy per replicated function
        ..ResourceUsage::default()
    };
    replicated.plus(fixed).plus(schedulers).plus(uram)
}

/// `N` CDS engines on one device, processing option chunks independently.
pub struct MultiEngine {
    market: MarketData<f64>,
    config: EngineConfig,
    device: Device,
    n_engines: usize,
}

/// Report of a multi-engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiEngineReport {
    /// Spreads in original option order.
    pub spreads: Vec<f64>,
    /// Engine count used.
    pub engines: usize,
    /// Wall-clock seconds (slowest engine, with interconnect contention,
    /// plus shared PCIe transfer).
    pub total_seconds: f64,
    /// The paper's headline metric.
    pub options_per_second: f64,
    /// Largest per-engine kernel seconds before contention.
    pub slowest_engine_seconds: f64,
    /// Merged telemetry across all engines (stream high-water is the max,
    /// busy/stall cycles and backpressure events sum).
    pub counters: Counters,
    /// Total faults injected during the run (zero without a fault plan).
    pub faults_injected: u64,
    /// Options re-priced on surviving engines after an engine death or a
    /// lost token.
    pub options_retried: u64,
    /// True when the run survived an engine death or fell back to the CPU
    /// engine — the result is complete but the deployment is impaired.
    pub degraded: bool,
    /// Scrubber outcome when a [`ScrubPolicy`] was supplied.
    pub scrub: Option<ScrubReport>,
}

impl MultiEngine {
    /// Deploy `n_engines` vectorised engines on an Alveo U280.
    ///
    /// ```
    /// use cds_engine::multi::MultiEngine;
    /// use cds_quant::prelude::*;
    ///
    /// let market = MarketData::paper_workload(1);
    /// // Five engines fit the U280 (paper §IV); six do not.
    /// assert!(MultiEngine::new(market.clone(), 5).is_ok());
    /// assert!(MultiEngine::new(market, 6).is_err());
    /// ```
    pub fn new(market: MarketData<f64>, n_engines: usize) -> Result<Self, MultiEngineError> {
        Self::with_config(
            market,
            EngineVariant::Vectorised.config(),
            Device::alveo_u280(),
            n_engines,
        )
    }

    /// Deploy with an explicit configuration and device.
    pub fn with_config(
        market: MarketData<f64>,
        config: EngineConfig,
        device: Device,
        n_engines: usize,
    ) -> Result<Self, MultiEngineError> {
        if n_engines == 0 {
            return Err(MultiEngineError::NoEngines);
        }
        let max =
            device.max_instances(engine_resource_usage(&config, market.hazard.len())) as usize;
        if n_engines > max {
            return Err(MultiEngineError::DoesNotFit { requested: n_engines, max });
        }
        Ok(MultiEngine { market, config, device, n_engines })
    }

    /// Maximum engines of this configuration that fit on the device.
    pub fn max_engines(market: &MarketData<f64>, config: &EngineConfig, device: &Device) -> usize {
        device.max_instances(engine_resource_usage(config, market.hazard.len())) as usize
    }

    /// Number of engines deployed.
    pub fn engines(&self) -> usize {
        self.n_engines
    }

    /// The device hosting the engines.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Contention-adjusted speedup over one engine at `n` engines.
    pub fn model_speedup(n: usize) -> f64 {
        n as f64 / contention_factor(n)
    }

    /// Price a batch across the engines: options are split into `N`
    /// contiguous chunks, one per engine, and every engine's stages and
    /// streams are built into **one discrete-event simulation**
    /// (name-prefixed per engine) that runs them concurrently, so the
    /// makespan — the slowest engine — emerges from the simulation
    /// itself. The calibrated interconnect contention and the shared
    /// PCIe transfer are applied to the simulated kernel time.
    ///
    /// This is [`MultiEngine::price_batch_resilient`] with no fault plan
    /// and no retry rounds. Returns [`CdsError::Config`] for a
    /// per-option-region configuration (one shared graph needs
    /// continuous engines).
    pub fn price_batch(&self, options: &[CdsOption]) -> Result<MultiEngineReport, CdsError> {
        self.price_batch_resilient(options, None, 0, None)
    }

    /// Price a batch fault-tolerantly: one single-simulation round with an
    /// optional [`FaultPlan`] injected, followed by bounded recovery.
    ///
    /// Engine `k`'s processes are name-prefixed `e{k}.`, so a plan built
    /// with [`FaultPlan::kill_region`]`("e2.", cycle)` kills exactly that
    /// engine mid-run. After the faulted round, any engine that delivered
    /// fewer spreads than its chunk is treated as failed; its unpriced
    /// options are **re-sharded across the surviving engines** in up to
    /// `retry_rounds` fault-free rounds ([`BATCH_RETRY_ROUNDS`] is the
    /// usual depth). If no engine survives, the run **degrades gracefully
    /// to the CPU engine** ([`cds_cpu`]), with the retried options'
    /// wall-clock taken from the calibrated Xeon model. Pricing is
    /// deterministic, so recovered spreads are identical to a fault-free
    /// run's.
    ///
    /// With a [`ScrubPolicy`] the result-integrity scrubber is enabled:
    /// every spread is guarded against its option's invariants, options
    /// named by corruption fault events are quarantined, and quarantined
    /// spreads are repriced on the CPU fallback engine (see
    /// [`crate::scrub`]).
    ///
    /// Returns [`CdsError::Exhausted`] if options remain unpriced after
    /// the final round (only reachable with `retry_rounds == 0`, since
    /// retry rounds are fault-free).
    pub fn price_batch_resilient(
        &self,
        options: &[CdsOption],
        plan: Option<&FaultPlan>,
        retry_rounds: usize,
        scrub: Option<&ScrubPolicy>,
    ) -> Result<MultiEngineReport, CdsError> {
        let n = self.n_engines;
        if options.is_empty() {
            return Ok(MultiEngineReport::idle(n));
        }
        if self.config.region_mode != RegionMode::Continuous {
            return Err(CdsError::Config {
                reason: "a single-simulation deployment requires continuous engines",
            });
        }
        for o in options {
            CdsOption::validated(o.maturity, o.frequency, o.recovery_rate)?;
        }

        let market = Rc::new(self.market.clone());
        let chunk_size = options.len().div_ceil(n);
        let mut g = GraphBuilder::new();
        if let Some(p) = plan {
            g.set_fault_plan(tag_options(p));
        }
        let mut sinks = Vec::with_capacity(n);
        let mut base_idx = 0u32;
        for (k, chunk) in options.chunks(chunk_size).enumerate() {
            let sink = build_graph_into(
                &mut g,
                &format!("e{k}."),
                market.clone(),
                &self.config,
                chunk,
                base_idx,
                None,
            );
            sinks.push((sink, chunk.len()));
            base_idx += chunk.len() as u32;
        }
        // Each built engine's region is invoked once; a batch smaller than
        // the deployment leaves the remaining engines without a chunk.
        let engine_processes = g.process_count() / sinks.len();
        let report = EventSim::new(g).run().map_err(CdsError::Sim)?;
        let faults_injected = report.faults.total();

        // Harvest round 0: an engine that under-delivered its chunk is
        // treated as dead for the rest of the run.
        let mut spreads_by_idx: Vec<Option<f64>> = vec![None; options.len()];
        let mut survivors: Vec<usize> = Vec::with_capacity(n);
        for (k, (sink, expected)) in sinks.iter().enumerate() {
            let collected = sink.collected();
            if collected.len() == *expected {
                survivors.push(k);
            }
            for (tok, _) in collected {
                spreads_by_idx[tok.opt_idx as usize] = Some(tok.spread_bps);
            }
        }
        // Options whose tokens a corruption fault mutated (global indices).
        let tainted: Vec<u32> = corrupted_options(&report.fault_events).collect();

        let kernel =
            report.total_cycles + self.config.region_cost.invocation_overhead(engine_processes);
        let curve_load = self
            .config
            .memory
            .curve_load_cycles(self.market.hazard.len().max(self.market.interest.len()));
        let mut compute_seconds =
            self.config.clock.seconds(kernel + curve_load) * contention_factor(n);
        let slowest_engine_seconds = self.config.clock.seconds(kernel + curve_load);
        let trace = self.config.trace.clone().unwrap_or_default();
        let mut counters = Counters::from_run(&trace, &report);

        // Bounded recovery: re-shard missing options over the survivors
        // (fault-free), or degrade to the CPU engine when none remain. A
        // batch smaller than the engine count leaves engines idle, and an
        // idle engine has not died.
        let mut options_retried = 0u64;
        let mut degraded = survivors.len() < sinks.len();
        let mut attempts = 0usize;
        while attempts < retry_rounds {
            let missing: Vec<usize> =
                (0..options.len()).filter(|&i| spreads_by_idx[i].is_none()).collect();
            if missing.is_empty() {
                break;
            }
            attempts += 1;
            options_retried += missing.len() as u64;
            let retry_opts: Vec<CdsOption> = missing.iter().map(|&i| options[i]).collect();
            if survivors.is_empty() {
                // Every FPGA engine is down: fall back to the CPU engine.
                degraded = true;
                let cpu = cds_cpu::CpuCdsEngine::new(&self.market);
                for (&i, spread) in missing.iter().zip(cpu.price_batch(&retry_opts)) {
                    spreads_by_idx[i] = Some(spread);
                }
                compute_seconds +=
                    cds_cpu::CpuPerfModel::xeon_8260m().batch_seconds(retry_opts.len() as u64, 24);
                break;
            }
            let retry_chunk = retry_opts.len().div_ceil(survivors.len());
            let mut rg = GraphBuilder::new();
            let mut retry_sinks = Vec::with_capacity(survivors.len());
            for (k, chunk) in retry_opts.chunks(retry_chunk).enumerate() {
                let sink = build_graph_into(
                    &mut rg,
                    &format!("r{attempts}e{k}."),
                    market.clone(),
                    &self.config,
                    chunk,
                    (retry_chunk * k) as u32,
                    None,
                );
                retry_sinks.push(sink);
            }
            let retry_engine_processes = rg.process_count() / retry_sinks.len();
            let retry_report = EventSim::new(rg).run().map_err(CdsError::Sim)?;
            for sink in retry_sinks {
                for (tok, _) in sink.collected() {
                    spreads_by_idx[missing[tok.opt_idx as usize]] = Some(tok.spread_bps);
                }
            }
            let retry_kernel = retry_report.total_cycles
                + self.config.region_cost.invocation_overhead(retry_engine_processes);
            compute_seconds +=
                self.config.clock.seconds(retry_kernel) * contention_factor(survivors.len());
            counters.merge(&Counters::from_run(&trace, &retry_report));
        }

        // Result-integrity scrub: guard every priced spread, quarantine
        // tainted options, reprice on the CPU fallback.
        let mut scrub_report = None;
        if let Some(sp) = scrub {
            let mut priced: Vec<(u32, f64)> = spreads_by_idx
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|v| (i as u32, v)))
                .collect();
            let sr = scrub_spreads(&self.market, options, &mut priced, &tainted, sp)?;
            for &(i, v) in &priced {
                spreads_by_idx[i as usize] = Some(v);
            }
            scrub_report = Some(sr);
        }

        let Some(spreads) = spreads_by_idx.iter().copied().collect::<Option<Vec<f64>>>() else {
            let unpriced = spreads_by_idx.iter().filter(|s| s.is_none()).count();
            return Err(CdsError::Exhausted { attempts, unpriced });
        };
        let transfer = self.config.pcie.option_batch_seconds(options.len() as u64);
        let total_seconds = compute_seconds + transfer;
        Ok(MultiEngineReport {
            engines: n,
            total_seconds,
            options_per_second: options.len() as f64 / total_seconds,
            slowest_engine_seconds,
            spreads,
            counters,
            faults_injected,
            options_retried,
            degraded,
            scrub: scrub_report,
        })
    }
}

impl MultiEngineReport {
    /// A report of no work on `engines` engines.
    fn idle(engines: usize) -> Self {
        MultiEngineReport {
            spreads: Vec::new(),
            engines,
            total_seconds: 0.0,
            options_per_second: 0.0,
            slowest_engine_seconds: 0.0,
            counters: Counters::default(),
            faults_injected: 0,
            options_retried: 0,
            degraded: false,
            scrub: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    use cds_quant::cds::CdsPricer;
    use cds_quant::option::{PaymentFrequency, PortfolioGenerator};

    fn market() -> MarketData<f64> {
        MarketData::paper_workload(7)
    }

    #[test]
    fn exactly_five_engines_fit_on_u280() {
        // The paper: "being able to fit five onto the Alveo U280".
        let config = EngineVariant::Vectorised.config();
        let max = MultiEngine::max_engines(&market(), &config, &Device::alveo_u280());
        assert_eq!(max, 5, "expected exactly 5 engines to fit");
    }

    #[test]
    fn six_engines_rejected() {
        match MultiEngine::new(market(), 6) {
            Err(MultiEngineError::DoesNotFit { requested: 6, max: 5 }) => {}
            Err(other) => panic!("expected DoesNotFit(6, 5), got {other:?}"),
            Ok(_) => panic!("six engines unexpectedly fit"),
        }
        assert!(matches!(MultiEngine::new(market(), 0), Err(MultiEngineError::NoEngines)));
    }

    #[test]
    fn spreads_match_reference_across_chunks() {
        let market = market();
        let pricer = CdsPricer::new(market.clone());
        let options = PortfolioGenerator::new(5).portfolio(13); // uneven split
        let multi = ok(MultiEngine::new(market, 3));
        let report = ok(multi.price_batch(&options));
        assert_eq!(report.spreads.len(), 13);
        for (o, s) in options.iter().zip(&report.spreads) {
            let golden = pricer.price(o).spread_bps;
            assert!((s - golden).abs() < 1e-7 * (1.0 + golden.abs()));
        }
    }

    #[test]
    fn scaling_matches_contention_model() {
        // Large enough batch that the per-engine fixed costs (region
        // start, pipeline fill, curve load) amortise, as in the paper's
        // full-set runs.
        let market = market();
        let options = PortfolioGenerator::uniform(250, 5.5, PaymentFrequency::Quarterly, 0.4);
        let r1 = ok(ok(MultiEngine::new(market.clone(), 1)).price_batch(&options));
        let r5 = ok(ok(MultiEngine::new(market.clone(), 5)).price_batch(&options));
        let speedup = r5.options_per_second / r1.options_per_second;
        let model = MultiEngine::model_speedup(5) / MultiEngine::model_speedup(1);
        assert!((speedup - model).abs() / model < 0.10, "speedup {speedup} vs model {model}");
    }

    #[test]
    fn model_speedup_fits_paper_points() {
        // Paper: 53763.86/27675.67 = 1.943 at n=2; 114115.92/27675.67 =
        // 4.124 at n=5. The two contention coefficients are the exact
        // two-point fit, so both must reproduce within 1%.
        let s2 = MultiEngine::model_speedup(2);
        let s5 = MultiEngine::model_speedup(5);
        assert!((s2 - 1.943).abs() / 1.943 < 0.01, "s2 {s2}");
        assert!((s5 - 4.124).abs() / 4.124 < 0.01, "s5 {s5}");
        // Sanity at the untuned points: monotone and below linear.
        assert_eq!(MultiEngine::model_speedup(1), 1.0);
        let s3 = MultiEngine::model_speedup(3);
        let s4 = MultiEngine::model_speedup(4);
        assert!(s2 < s3 && s3 < s4 && s4 < s5);
        assert!(s3 < 3.0 && s4 < 4.0);
    }

    #[test]
    fn deployment_equals_max_over_engines_model_bit_for_bit() {
        // The one shared simulation reproduces, bit for bit, the
        // max-over-engines model: each chunk priced on an engine of its
        // own, the slowest engine scaled by the calibrated contention,
        // plus one shared PCIe batch. Batches with fewer chunks than
        // engines leave engines idle, and an idle engine costs nothing.
        let f64_config = EngineVariant::Vectorised.config();
        let mut f32_config = f64_config.clone();
        f32_config.precision = EnginePrecision::Single;
        let mut cases: Vec<(usize, usize, &EngineConfig)> = Vec::new();
        for n in 2..=5 {
            cases.extend([(1, n, &f64_config), (6, n, &f64_config)]);
        }
        cases.extend([(60, 3, &f64_config), (60, 5, &f64_config), (13, 6, &f32_config)]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (len, n, config) in cases {
            let options = PortfolioGenerator::new(len as u64).portfolio(len);
            let multi =
                ok(MultiEngine::with_config(market(), config.clone(), Device::alveo_u280(), n));
            let report = ok(multi.price_batch(&options));
            let mut spreads = Vec::new();
            let mut slowest = 0.0f64;
            for chunk in options.chunks(len.div_ceil(n)) {
                let run = crate::FpgaCdsEngine::new(market(), config.clone()).price_batch(chunk);
                slowest = slowest.max(run.kernel_seconds);
                spreads.extend(run.spreads);
            }
            let total =
                slowest * contention_factor(n) + config.pcie.option_batch_seconds(len as u64);
            let case = format!("{len} options on {n} engines");
            assert_eq!(bits(&report.spreads), bits(&spreads), "{case}: spreads");
            assert_eq!(report.total_seconds.to_bits(), total.to_bits(), "{case}: total seconds");
            assert_eq!(
                report.slowest_engine_seconds.to_bits(),
                slowest.to_bits(),
                "{case}: slowest engine"
            );
        }
    }

    #[test]
    fn single_simulation_rejects_per_option_regions() {
        let options = PortfolioGenerator::uniform(6, 5.5, PaymentFrequency::Quarterly, 0.4);
        let multi = ok(MultiEngine::with_config(
            market(),
            EngineVariant::XilinxBaseline.config(),
            Device::alveo_u280(),
            2,
        ));
        match multi.price_batch(&options) {
            Err(crate::error::CdsError::Config { .. }) => {}
            other => panic!("expected a Config error, got {other:?}"),
        }
    }

    #[test]
    fn idle_engines_do_not_degrade_a_small_batch() {
        // Six options on four engines fill three chunks of two; the
        // fourth engine is idle, not dead.
        let options = PortfolioGenerator::uniform(6, 5.5, PaymentFrequency::Quarterly, 0.4);
        let report = ok(ok(MultiEngine::new(market(), 4)).price_batch(&options));
        assert_eq!(report.spreads.len(), 6);
        assert!(!report.degraded);
    }

    #[test]
    fn engine_death_mid_run_recovers_on_survivors() {
        // The acceptance scenario: the 5-engine Table II deployment with
        // one engine killed mid-run still completes every option, with
        // spreads identical to the fault-free run.
        let market = market();
        let options = PortfolioGenerator::uniform(50, 5.5, PaymentFrequency::Quarterly, 0.4);
        let multi = ok(MultiEngine::new(market, 5));
        let clean = ok(multi.price_batch(&options));
        let plan = FaultPlan::new(0xC0FFEE).kill_region("e2.", 60_000);
        let report = match multi.price_batch_resilient(&options, Some(&plan), 3, None) {
            Ok(r) => r,
            Err(e) => panic!("resilient run must recover: {e}"),
        };
        assert_eq!(report.spreads, clean.spreads, "recovered spreads must be identical");
        assert!(report.degraded, "an engine died: the run is degraded");
        assert!(report.options_retried > 0, "the dead engine's chunk must be retried");
        assert!(report.faults_injected > 0);
        // Recovery costs time: slower than the fault-free deployment.
        assert!(report.total_seconds > clean.total_seconds);
    }

    #[test]
    fn all_engines_dead_degrades_to_cpu() {
        let market = market();
        let pricer = CdsPricer::new(market.clone());
        let options = PortfolioGenerator::uniform(20, 5.5, PaymentFrequency::Quarterly, 0.4);
        let multi = ok(MultiEngine::new(market, 3));
        let mut plan = FaultPlan::new(9);
        for k in 0..3 {
            plan = plan.kill_region(format!("e{k}."), 10_000);
        }
        let report = match multi.price_batch_resilient(&options, Some(&plan), 2, None) {
            Ok(r) => r,
            Err(e) => panic!("CPU fallback must price everything: {e}"),
        };
        assert!(report.degraded);
        assert_eq!(report.spreads.len(), options.len());
        assert_eq!(report.options_retried, options.len() as u64);
        // The CPU engine is numerically identical to the reference pricer.
        for (o, s) in options.iter().zip(&report.spreads) {
            let golden = pricer.price(o).spread_bps;
            assert!((s - golden).abs() < 1e-9 * (1.0 + golden.abs()), "{s} vs {golden}");
        }
    }

    #[test]
    fn resilient_scrub_restores_corrupted_spreads() {
        // Corrupt one spread token on engine 1's output blatantly and one
        // on engine 0's subtly; the scrubber must quarantine both (guard
        // + taint) and converge to the fault-free spreads.
        use crate::tokens::SpreadTok;
        let market = market();
        let options = PortfolioGenerator::uniform(24, 5.5, PaymentFrequency::Quarterly, 0.4);
        let multi = ok(MultiEngine::new(market, 3));
        let clean = ok(multi.price_batch(&options));
        let plan = FaultPlan::new(0xBAD)
            .corrupt_nth::<SpreadTok>("e1.spreads", 3, |t| SpreadTok { spread_bps: f64::NAN, ..t })
            .corrupt_nth::<SpreadTok>("e0.spreads", 1, |t| SpreadTok {
                spread_bps: t.spread_bps + 0.25,
                ..t
            });
        let report = match multi.price_batch_resilient(
            &options,
            Some(&plan),
            BATCH_RETRY_ROUNDS,
            Some(&ScrubPolicy { cross_check_every: 0 }),
        ) {
            Ok(r) => r,
            Err(e) => panic!("scrubbed run must succeed: {e}"),
        };
        let scrub = match &report.scrub {
            Some(s) => s,
            None => panic!("scrub policy must produce a scrub report"),
        };
        assert_eq!(scrub.options_quarantined, 2, "{:?}", scrub.quarantined);
        assert_eq!(report.spreads.len(), clean.spreads.len());
        for (i, (s, c)) in report.spreads.iter().zip(&clean.spreads).enumerate() {
            assert!((s - c).abs() < 1e-6 * (1.0 + c.abs()), "option {i}: {s} vs {c}");
        }
    }

    #[test]
    fn resilient_without_faults_matches_simulated() {
        let market = market();
        let options = PortfolioGenerator::new(3).portfolio(24);
        let multi = ok(MultiEngine::new(market, 4));
        let simulated = ok(multi.price_batch(&options));
        let resilient = match multi.price_batch_resilient(&options, None, 2, None) {
            Ok(r) => r,
            Err(e) => panic!("fault-free resilient run must succeed: {e}"),
        };
        assert_eq!(resilient.spreads, simulated.spreads);
        assert!(!resilient.degraded);
        assert_eq!(resilient.options_retried, 0);
        assert_eq!(resilient.faults_injected, 0);
    }

    #[test]
    fn zero_attempts_with_death_is_exhausted() {
        use crate::error::CdsError;
        let market = market();
        let options = PortfolioGenerator::uniform(20, 5.5, PaymentFrequency::Quarterly, 0.4);
        let multi = ok(MultiEngine::new(market, 2));
        let plan = FaultPlan::new(1).kill_region("e1.", 5_000);
        match multi.price_batch_resilient(&options, Some(&plan), 0, None) {
            Err(CdsError::Exhausted { attempts: 0, unpriced }) => assert!(unpriced > 0),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn resilient_rejects_invalid_option_at_ingress() {
        use crate::error::CdsError;
        let market = market();
        let mut options = PortfolioGenerator::uniform(4, 5.5, PaymentFrequency::Quarterly, 0.4);
        options[1].recovery_rate = 1.5;
        let multi = ok(MultiEngine::new(market, 2));
        match multi.price_batch_resilient(&options, None, 1, None) {
            Err(CdsError::Quant(_)) => {}
            other => panic!("expected Quant error, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch() {
        let multi = ok(MultiEngine::new(market(), 2));
        let r = ok(multi.price_batch(&[]));
        assert!(r.spreads.is_empty());
        assert_eq!(r.options_per_second, 0.0);
    }

    #[test]
    fn resource_estimate_scales_with_vector_factor() {
        let v1 = {
            let mut c = EngineVariant::InterOption.config();
            c.vector_factor = 1;
            engine_resource_usage(&c, 1024)
        };
        let v6 = engine_resource_usage(&EngineVariant::Vectorised.config(), 1024);
        assert!(v6.dsps > 3 * v1.dsps);
        assert!(v6.luts > 2 * v1.luts);
        assert_eq!(v6.uram, v1.uram, "URAM copies are per function, not per replica");
    }
}
