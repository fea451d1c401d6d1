//! Run reports: spreads plus the timing decomposition behind the paper's
//! options/second metric.

use crate::config::{EngineConfig, EngineVariant};
use dataflow_sim::trace::Counters;
use dataflow_sim::Cycle;

/// Outcome of pricing one batch of options on an engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRunReport {
    /// Which variant produced this report.
    pub variant: EngineVariant,
    /// Fair spreads in basis points, in option order.
    pub spreads: Vec<f64>,
    /// Kernel compute cycles (per-option region overheads included).
    pub kernel_cycles: Cycle,
    /// Cycles spent loading the constant curves from HBM into URAM at
    /// initialisation.
    pub curve_load_cycles: Cycle,
    /// Host↔card PCIe transfer time in seconds (options in, spreads out) —
    /// included in every reported figure, as in the paper.
    pub transfer_seconds: f64,
    /// Kernel time in seconds (compute + curve load).
    pub kernel_seconds: f64,
    /// End-to-end seconds.
    pub total_seconds: f64,
    /// The paper's headline metric.
    pub options_per_second: f64,
    /// Run telemetry: per-process busy/stall split (populated when the
    /// config carries a trace recorder), stream occupancy high-water,
    /// backpressure events and region restarts.
    pub counters: Counters,
}

impl EngineRunReport {
    /// Assemble a report from raw cycle counts.
    pub fn from_cycles(
        config: &EngineConfig,
        spreads: Vec<f64>,
        kernel_cycles: Cycle,
        curve_load_cycles: Cycle,
    ) -> Self {
        Self::from_cycles_with_counters(
            config,
            spreads,
            kernel_cycles,
            curve_load_cycles,
            Counters::default(),
        )
    }

    /// As [`EngineRunReport::from_cycles`], carrying the run's telemetry.
    pub fn from_cycles_with_counters(
        config: &EngineConfig,
        spreads: Vec<f64>,
        kernel_cycles: Cycle,
        curve_load_cycles: Cycle,
        counters: Counters,
    ) -> Self {
        let options = spreads.len() as u64;
        let kernel_seconds = config.clock.seconds(kernel_cycles + curve_load_cycles);
        let transfer_seconds = config.pcie.option_batch_seconds(options);
        let total_seconds = kernel_seconds + transfer_seconds;
        EngineRunReport {
            variant: config.variant,
            spreads,
            kernel_cycles,
            curve_load_cycles,
            transfer_seconds,
            kernel_seconds,
            total_seconds,
            options_per_second: if total_seconds > 0.0 {
                options as f64 / total_seconds
            } else {
                0.0
            },
            counters,
        }
    }

    /// Number of options priced.
    pub fn options(&self) -> usize {
        self.spreads.len()
    }

    /// Average kernel cycles per option (excluding curve load).
    pub fn cycles_per_option(&self) -> f64 {
        if self.spreads.is_empty() {
            0.0
        } else {
            self.kernel_cycles as f64 / self.spreads.len() as f64
        }
    }
}

/// One resident option whose fair spread changed under a curve tick.
///
/// Spreads travel as raw `f64` bits: the incremental engine's contract
/// is *bit* identity with a from-scratch full reprice, and carrying
/// bits end-to-end keeps every consumer honest about it (no silent
/// re-rounding through text or comparison through tolerances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpreadDelta {
    /// Stable portfolio id of the repriced option.
    pub id: u32,
    /// Spread bits under the previous epoch.
    pub old_bits: u64,
    /// Spread bits under the new epoch.
    pub new_bits: u64,
}

/// Outcome of ingesting one curve point tick incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Epoch published by this tick (monotonically increasing).
    pub epoch: u64,
    /// True when the tick re-published the identical value bits: the
    /// affected set is empty by construction and no option repriced.
    pub zero_delta: bool,
    /// Number of options whose read set touches the ticked knot (all of
    /// them were repriced; not all necessarily changed spread bits).
    pub affected: usize,
    /// `exp`-bound curve reads the tick evaluated: the affected options'
    /// stub reads it refreshed plus three per shared grid point it
    /// regrew (0 for a zero-delta tick).
    pub curve_reads: u64,
    /// Threads the reprice ran on: 2 when a large affected set split
    /// across two cores ([`cds_cpu::LaneKernel::price_residents_into`]),
    /// 1 on the serial path, 0 when nothing repriced.
    pub threads: usize,
    /// The options whose spread bits actually changed, in id order.
    pub deltas: Vec<SpreadDelta>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_arithmetic() {
        let config = EngineVariant::InterOption.config();
        let r = EngineRunReport::from_cycles(&config, vec![100.0; 10], 3_000_000, 640);
        assert_eq!(r.options(), 10);
        assert!((r.cycles_per_option() - 300_000.0).abs() < 1e-9);
        assert!(r.kernel_seconds > 0.0);
        assert!(r.transfer_seconds > 0.0);
        assert!(r.total_seconds > r.kernel_seconds);
        let implied = 10.0 / r.total_seconds;
        assert!((r.options_per_second - implied).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_degenerate_but_safe() {
        let config = EngineVariant::InterOption.config();
        let r = EngineRunReport::from_cycles(&config, Vec::new(), 0, 0);
        assert_eq!(r.options(), 0);
        assert_eq!(r.cycles_per_option(), 0.0);
        assert_eq!(r.options_per_second, 0.0);
    }
}
