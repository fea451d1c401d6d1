//! `RunMetrics` — the one record every backend's run reduces to.
//!
//! The FPGA simulator, the multi-engine deployment, the streaming
//! deployment and the CPU model all report performance in their own
//! shapes ([`cds_engine::report::EngineRunReport`],
//! [`cds_engine::multi::MultiEngineReport`],
//! [`cds_engine::streaming::StreamingReport`], [`cds_cpu::CpuPerfModel`]).
//! The bench harness flattens each into
//! this struct so one schema covers the whole ladder: throughput, cycle
//! counts, latency percentiles, utilisation, telemetry counters and the
//! modelled energy figures.

use crate::json::Json;
use cds_engine::config::EngineConfig;
use cds_engine::multi::MultiEngineReport;
use cds_engine::report::EngineRunReport;
use cds_engine::streaming::StreamingReport;
use cds_power::options_per_watt;

/// Unified metrics of one benchmarked run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Stable identifier, e.g. `table1/vectorised` or `cpu/threads-8`.
    pub name: String,
    /// Which backend produced the run: `fpga-sim`, `streaming-sim` or
    /// `cpu-model`.
    pub backend: String,
    /// Options priced.
    pub options: u64,
    /// Throughput — the paper's headline metric.
    pub options_per_second: f64,
    /// Kernel cycles (0 for the modelled CPU backend, which has no cycle
    /// notion).
    pub kernel_cycles: u64,
    /// Median per-option latency in microseconds (0 for batch runs,
    /// where per-option latency is not observable).
    pub p50_latency_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_latency_us: f64,
    /// Worst-case latency in microseconds.
    pub max_latency_us: f64,
    /// Mean busy fraction across traced processes (0 when untraced).
    pub mean_utilisation: f64,
    /// Highest FIFO occupancy observed on any stream.
    pub occupancy_high_water: u64,
    /// Rejected stream pushes (scheduler-effort stall pressure).
    pub backpressure_events: u64,
    /// Dataflow region restarts paid during the run.
    pub region_restarts: u64,
    /// Modelled power draw in Watts.
    pub watts: f64,
    /// Modelled efficiency in options/Watt.
    pub options_per_watt: f64,
}

impl RunMetrics {
    /// Flatten a single-engine FPGA batch run.
    pub fn from_engine_report(name: &str, report: &EngineRunReport, watts: f64) -> Self {
        RunMetrics {
            name: name.to_string(),
            backend: "fpga-sim".to_string(),
            options: report.options() as u64,
            options_per_second: report.options_per_second,
            kernel_cycles: report.kernel_cycles,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            max_latency_us: 0.0,
            mean_utilisation: report.counters.mean_utilisation(),
            occupancy_high_water: report.counters.stream_occupancy_high_water as u64,
            backpressure_events: report.counters.backpressure_events,
            region_restarts: report.counters.region_restarts,
            watts,
            options_per_watt: options_per_watt(report.options_per_second, watts),
        }
    }

    /// Flatten a multi-engine deployment run.
    pub fn from_multi_report(name: &str, report: &MultiEngineReport, watts: f64) -> Self {
        RunMetrics {
            name: name.to_string(),
            backend: "fpga-sim".to_string(),
            options: report.spreads.len() as u64,
            options_per_second: report.options_per_second,
            kernel_cycles: report.counters.total_cycles,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            max_latency_us: 0.0,
            mean_utilisation: report.counters.mean_utilisation(),
            occupancy_high_water: report.counters.stream_occupancy_high_water as u64,
            backpressure_events: report.counters.backpressure_events,
            region_restarts: report.counters.region_restarts,
            watts,
            options_per_watt: options_per_watt(report.options_per_second, watts),
        }
    }

    /// Flatten a streaming run; the latency percentiles convert to
    /// microseconds under the engine clock.
    pub fn from_streaming_report(
        name: &str,
        report: &StreamingReport,
        config: &EngineConfig,
        watts: f64,
    ) -> Self {
        RunMetrics {
            name: name.to_string(),
            backend: "streaming-sim".to_string(),
            options: report.spreads.len() as u64,
            options_per_second: report.options_per_second,
            kernel_cycles: report.counters.total_cycles,
            p50_latency_us: report.p50_us(config),
            p99_latency_us: report.p99_us(config),
            max_latency_us: config.clock.seconds(report.max_cycles) * 1e6,
            mean_utilisation: report.counters.mean_utilisation(),
            occupancy_high_water: report.counters.stream_occupancy_high_water as u64,
            backpressure_events: report.counters.backpressure_events,
            region_restarts: report.counters.region_restarts,
            watts,
            options_per_watt: options_per_watt(report.options_per_second, watts),
        }
    }

    /// Flatten a modelled CPU run of `options` options: throughput from
    /// the calibrated Cascade Lake model (deterministic — never wall
    /// clock). Nothing is priced.
    pub fn from_cpu_model(name: &str, options_per_second: f64, options: u64, watts: f64) -> Self {
        RunMetrics {
            name: name.to_string(),
            backend: "cpu-model".to_string(),
            options,
            options_per_second,
            kernel_cycles: 0,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            max_latency_us: 0.0,
            mean_utilisation: 0.0,
            occupancy_high_water: 0,
            backpressure_events: 0,
            region_restarts: 0,
            watts,
            options_per_watt: options_per_watt(options_per_second, watts),
        }
    }

    /// Serialise to the bench JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("backend", Json::Str(self.backend.clone())),
            ("options", Json::Number(self.options as f64)),
            ("options_per_second", Json::Number(self.options_per_second)),
            ("kernel_cycles", Json::Number(self.kernel_cycles as f64)),
            ("p50_latency_us", Json::Number(self.p50_latency_us)),
            ("p99_latency_us", Json::Number(self.p99_latency_us)),
            ("max_latency_us", Json::Number(self.max_latency_us)),
            ("mean_utilisation", Json::Number(self.mean_utilisation)),
            ("occupancy_high_water", Json::Number(self.occupancy_high_water as f64)),
            ("backpressure_events", Json::Number(self.backpressure_events as f64)),
            ("region_restarts", Json::Number(self.region_restarts as f64)),
            ("watts", Json::Number(self.watts)),
            ("options_per_watt", Json::Number(self.options_per_watt)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_metrics_serialise_to_the_bench_schema() {
        let m = RunMetrics::from_cpu_model("cpu/threads-8", 52_000.5, 96, 87.25);
        let json = m.to_json();
        assert_eq!(json.get("name").and_then(Json::as_str), Some("cpu/threads-8"));
        assert_eq!(json.get("backend").and_then(Json::as_str), Some("cpu-model"));
        assert_eq!(json.get("options_per_second").and_then(Json::as_f64), Some(52_000.5));
        assert_eq!(json.get("options").and_then(Json::as_f64), Some(96.0));
        assert!(m.options_per_watt > 0.0);
    }
}
