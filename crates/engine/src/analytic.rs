//! Closed-form performance model of the engine variants.
//!
//! The discrete-event simulator is the source of truth; this module
//! predicts its steady-state behaviour analytically from the pipelined-
//! loop algebra, serving three purposes: (1) cross-checking the simulator
//! (tests assert agreement), (2) instant what-if estimates for parameter
//! sweeps without simulation, and (3) documentation of *why* each variant
//! performs as it does.

use crate::config::{EngineConfig, EngineVariant, FP_EXP_LATENCY_CYCLES};
use cds_quant::option::{CdsOption, MarketData};
use cds_quant::schedule::PaymentSchedule;
use dataflow_sim::region::RegionMode;
use dataflow_sim::Cycle;

/// Analytic estimate of kernel cycles for a batch.
pub fn estimate_kernel_cycles(
    market: &MarketData<f64>,
    config: &EngineConfig,
    options: &[CdsOption],
) -> Cycle {
    match config.variant {
        EngineVariant::XilinxBaseline => baseline_cycles(market, config, options),
        _ => dataflow_cycles(market, config, options),
    }
}

/// Analytic options/second including curve load and PCIe transfer.
pub fn estimate_options_per_second(
    market: &MarketData<f64>,
    config: &EngineConfig,
    options: &[CdsOption],
) -> f64 {
    let kernel = estimate_kernel_cycles(market, config, options);
    let load = config.memory.curve_load_cycles(market.hazard.len());
    let seconds = config.clock.seconds(kernel + load)
        + config.pcie.option_batch_seconds(options.len() as u64);
    if seconds > 0.0 {
        options.len() as f64 / seconds
    } else {
        0.0
    }
}

fn schedule_points(option: &CdsOption) -> Vec<f64> {
    match PaymentSchedule::<f64>::generate(option.maturity, option.frequency.per_year()) {
        Ok(s) => s.points().to_vec(),
        Err(e) => panic!("option failed schedule generation: {e}"),
    }
}

/// The baseline runs its loops sequentially per option: the II=7 prefix
/// accumulation dominates, followed by the two interpolation scans.
fn baseline_cycles(
    market: &MarketData<f64>,
    config: &EngineConfig,
    options: &[CdsOption],
) -> Cycle {
    let ii = config.hazard_ii.ii();
    let mut total: Cycle = 0;
    for option in options {
        let points = schedule_points(option);
        let mut per_option: Cycle = 4 + points.len() as Cycle; // time-point generation
        for &t in &points {
            let (_, scanned) = market.hazard.scan_integral(t);
            per_option += 7 + (scanned as Cycle).saturating_sub(1) * ii + FP_EXP_LATENCY_CYCLES;
            let (_, scanned_t) = market.interest.scan_value_at(t);
            per_option += 4 + scanned_t as Cycle - 1 + FP_EXP_LATENCY_CYCLES;
            // Mid-point scan is marginally shorter; approximate with the
            // payment-date scan (within a knot or two).
            per_option += 4 + scanned_t as Cycle - 1 + FP_EXP_LATENCY_CYCLES;
        }
        per_option += 7 + (points.len() as Cycle - 1) * 7; // leg accumulation
        per_option += 16 + 16; // combination + loop control
        total += per_option;
    }
    total
}

/// The dataflow variants are bottlenecked by the slowest stage — the full
/// static-bound curve scan per time point — plus fill/drain and, in
/// per-option mode, the region restart.
fn dataflow_cycles(
    market: &MarketData<f64>,
    config: &EngineConfig,
    options: &[CdsOption],
) -> Cycle {
    let v = config.vector_factor.max(1) as Cycle;
    // Aggregate scan initiation interval per time point after replication,
    // URAM port sharing and datapath precision.
    let scan = config.replica_scan_cycles(market.hazard.len());
    let per_point = scan * config.hazard_ii.ii() / v;
    // Pipeline fill: one scan plus the arithmetic tails down the chain.
    let fill: Cycle = scan + 49 + FP_EXP_LATENCY_CYCLES + 8 * 4 + 51 + 22;
    // Fixed per-invocation dataflow process count (V=1 graph: 14 stages).
    let processes = if config.vector_factor > 1 { 14 + 3 * (config.vector_factor + 1) } else { 14 };
    match config.region_mode {
        RegionMode::Continuous => {
            let steady: Cycle =
                options.iter().map(|o| schedule_points(o).len() as Cycle * per_point).sum();
            steady + fill + config.region_cost.invocation_overhead(processes)
        }
        RegionMode::PerOption => options
            .iter()
            .map(|o| {
                schedule_points(o).len() as Cycle * per_point
                    + fill
                    + config.region_cost.invocation_overhead(processes)
            })
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FpgaCdsEngine;
    use cds_quant::option::{PaymentFrequency, PortfolioGenerator};

    fn market() -> MarketData<f64> {
        MarketData::paper_workload(7)
    }

    fn options(n: usize) -> Vec<CdsOption> {
        PortfolioGenerator::uniform(n, 5.5, PaymentFrequency::Quarterly, 0.4)
    }

    #[test]
    fn analytic_tracks_simulator_within_tolerance() {
        let market = market();
        let opts = options(8);
        for variant in EngineVariant::ALL {
            let config = variant.config();
            let engine = FpgaCdsEngine::new(market.clone(), config.clone());
            let simulated = engine.price_batch(&opts).kernel_cycles as f64;
            let predicted = estimate_kernel_cycles(&market, &config, &opts) as f64;
            let err = (predicted - simulated).abs() / simulated;
            assert!(
                err < 0.15,
                "{variant:?}: analytic {predicted} vs simulated {simulated} ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn analytic_preserves_variant_ordering() {
        let market = market();
        let opts = options(16);
        let rate = |v: EngineVariant| estimate_options_per_second(&market, &v.config(), &opts);
        assert!(rate(EngineVariant::XilinxBaseline) < rate(EngineVariant::OptimisedDataflow));
        assert!(rate(EngineVariant::OptimisedDataflow) < rate(EngineVariant::InterOption));
        assert!(rate(EngineVariant::InterOption) < rate(EngineVariant::Vectorised));
    }

    #[test]
    fn estimate_scales_linearly_in_batch() {
        let market = market();
        let config = EngineVariant::InterOption.config();
        let a = estimate_kernel_cycles(&market, &config, &options(10));
        let b = estimate_kernel_cycles(&market, &config, &options(20));
        let ratio = b as f64 / a as f64;
        assert!(ratio > 1.8 && ratio < 2.1, "ratio {ratio}");
    }
}
