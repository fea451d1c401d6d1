//! Machine-readable benchmark ladder with a regression gate.
//!
//! [`run`] executes the paper's full experiment ladder — the Table I
//! engine variants, the Table II multi-engine sweep, three streaming
//! load points and the CPU thread sweep — entirely on deterministic
//! models (the cycle-accurate simulator for the FPGA backends, the
//! calibrated Cascade Lake model for the CPU; never wall clock), so two
//! runs with the same seed produce byte-identical reports. [`GATE`]
//! checks one report against a committed baseline
//! (`results/bench_baseline.json`): throughput may not drop and
//! streaming latency may not rise by more than [`TOLERANCE`], and the
//! metric set itself may not silently drift. Batch rows and streaming
//! rows sit in separate keyed arrays, because only a streaming run has
//! per-option latency.

use crate::gate::{Check, Gate};
use crate::json::Json;
use crate::metrics::RunMetrics;
use crate::workload::Workload;
use cds_cpu::CpuPerfModel;
use cds_engine::config::{EngineConfig, EngineVariant};
use cds_engine::multi::MultiEngine;
use cds_engine::streaming::{poisson_arrivals, run_streaming};
use cds_engine::FpgaCdsEngine;
use cds_power::{CpuPowerModel, FpgaPowerModel};
use dataflow_sim::resource::Device;
use dataflow_sim::trace::TraceRecorder;
use std::rc::Rc;

/// Version of the bench JSON schema. Bump on any incompatible change to
/// the report layout so `--check` refuses stale baselines loudly.
pub const SCHEMA_VERSION: u64 = 2;

/// Relative width of the ladder's throughput floors and latency
/// ceilings. The ladder is deterministic, so this only absorbs
/// deliberate model recalibrations below 10%.
pub const TOLERANCE: f64 = 0.10;

/// The `bench --check` gate: same seed and batch, a throughput floor
/// per run, and p99/max latency ceilings per streaming run.
pub static GATE: Gate = Gate {
    name: "bench",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::eq("seed"),
        Check::eq("batch"),
        Check::min("options_per_second", TOLERANCE).within("metrics"),
        Check::min("options_per_second", TOLERANCE).within("streaming"),
        Check::max("p99_latency_us", TOLERANCE).within("streaming"),
        Check::max("max_latency_us", TOLERANCE).within("streaming"),
    ],
};

/// Default option-batch size for `bench` runs — smaller than the
/// table-rendering default so the five-engine simulations stay quick in
/// CI, large enough to amortise fills and restarts.
pub const DEFAULT_BENCH_BATCH: usize = 96;

/// Streaming runs use at most this many arrivals (overload queues grow
/// with the arrival count, not the batch size).
const STREAMING_ARRIVALS: usize = 48;

/// CPU thread counts swept (the paper's machine tops out at 24 cores).
const CPU_THREADS: [u32; 6] = [1, 2, 4, 8, 16, 24];

/// One full deterministic benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// RNG seed the workload and arrivals were generated from.
    pub seed: u64,
    /// Option-batch size of the batch experiments.
    pub batch: usize,
    /// The batch runs (Tables I and II, the CPU thread sweep), in ladder
    /// order.
    pub metrics: Vec<RunMetrics>,
    /// The streaming runs, light load to overload.
    pub streaming: Vec<RunMetrics>,
}

impl BenchReport {
    /// Look a run up by its stable name.
    pub fn find(&self, name: &str) -> Option<&RunMetrics> {
        self.runs().find(|m| m.name == name)
    }

    /// Every run, batch then streaming.
    pub fn runs(&self) -> impl Iterator<Item = &RunMetrics> {
        self.metrics.iter().chain(&self.streaming)
    }

    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("batch", Json::Number(self.batch as f64)),
            ("metrics", Json::Array(self.metrics.iter().map(RunMetrics::to_json).collect())),
            ("streaming", Json::Array(self.streaming.iter().map(RunMetrics::to_json).collect())),
        ])
    }
}

/// Kebab-case metric slug of a Table I variant.
fn variant_slug(v: EngineVariant) -> &'static str {
    match v {
        EngineVariant::XilinxBaseline => "xilinx-baseline",
        EngineVariant::OptimisedDataflow => "optimised-dataflow",
        EngineVariant::InterOption => "inter-option",
        EngineVariant::Vectorised => "vectorised",
    }
}

/// A variant config with a fresh busy-span recorder attached, so the
/// run's utilisation and occupancy counters are populated.
fn traced_config(v: EngineVariant) -> EngineConfig {
    let mut config = v.config();
    config.trace = Some(TraceRecorder::new());
    config
}

/// Execute the full ladder. Deterministic: same `seed` and `batch` give
/// an identical report (all FPGA numbers come from the discrete-event
/// simulator, all CPU numbers from the calibrated model).
pub fn run(seed: u64, batch: usize) -> BenchReport {
    let w = Workload::paper(seed, batch);
    let fpga_power = FpgaPowerModel::alveo_u280_cds();
    let cpu_power = CpuPowerModel::xeon_8260m();
    let cpu_model = CpuPerfModel::xeon_8260m();
    let batch_options = w.options.len() as u64;
    let mut metrics = Vec::new();

    // Table I: the paper's CPU reference core, then the variant ladder.
    metrics.push(RunMetrics::from_cpu_model(
        "table1/cpu-core",
        cpu_model.options_per_second(1),
        batch_options,
        cpu_power.watts(1),
    ));
    for v in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(w.market.clone(), traced_config(v));
        let report = engine.price_batch(&w.options);
        metrics.push(RunMetrics::from_engine_report(
            &format!("table1/{}", variant_slug(v)),
            &report,
            fpga_power.watts(1),
        ));
    }

    // Table II: 1–5 vectorised engines in a single simulation, plus the
    // 24-core CPU row.
    for n in 1..=5usize {
        let multi = match MultiEngine::with_config(
            w.market.clone(),
            traced_config(EngineVariant::Vectorised),
            Device::alveo_u280(),
            n,
        ) {
            Ok(m) => m,
            Err(e) => panic!("1..=5 engines must fit the U280: {e}"),
        };
        let report = multi
            .price_batch_simulated(&w.options)
            .unwrap_or_else(|e| panic!("the vectorised deployment must price: {e}"));
        metrics.push(RunMetrics::from_multi_report(
            &format!("table2/engines-{n}"),
            &report,
            fpga_power.watts(n as u32),
        ));
    }
    metrics.push(RunMetrics::from_cpu_model(
        "table2/cpu-24-core",
        cpu_model.options_per_second(24),
        batch_options,
        cpu_power.watts(24),
    ));

    // Streaming: light load (latency = pipeline fill), near saturation
    // (queueing dominates) and overload (input FIFOs fill, backpressure).
    let market = Rc::new(w.market.clone());
    let stream_opts = &w.options[..w.options.len().min(STREAMING_ARRIVALS)];
    let mut streaming = Vec::new();
    for (label, rate) in [("light", 13_000.0), ("saturated", 25_000.0), ("overload", 120_000.0)] {
        let config = traced_config(EngineVariant::Vectorised);
        let arrivals = poisson_arrivals(&config, rate, stream_opts.len(), seed);
        let report = run_streaming(market.clone(), &config, stream_opts, &arrivals);
        streaming.push(RunMetrics::from_streaming_report(
            &format!("streaming/{label}"),
            &report,
            &config,
            fpga_power.watts(1),
        ));
    }

    // CPU thread sweep: modelled throughput.
    for threads in CPU_THREADS {
        metrics.push(RunMetrics::from_cpu_model(
            &format!("cpu/threads-{threads}"),
            cpu_model.options_per_second(threads),
            batch_options,
            cpu_power.watts(threads),
        ));
    }

    BenchReport { schema_version: SCHEMA_VERSION, seed, batch, metrics, streaming }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> BenchReport {
        run(5, 10)
    }

    #[test]
    fn bench_is_deterministic() {
        // The ISSUE's contract: two runs with the same seed produce
        // identical RunMetrics — nothing in the ladder may consult wall
        // clock or unseeded randomness.
        let a = run(7, 12);
        let b = run(7, 12);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn ladder_covers_all_experiments() {
        let r = small_run();
        for name in [
            "table1/cpu-core",
            "table1/xilinx-baseline",
            "table1/optimised-dataflow",
            "table1/inter-option",
            "table1/vectorised",
            "table2/engines-1",
            "table2/engines-2",
            "table2/engines-3",
            "table2/engines-4",
            "table2/engines-5",
            "table2/cpu-24-core",
            "streaming/light",
            "streaming/saturated",
            "streaming/overload",
            "cpu/threads-1",
            "cpu/threads-24",
        ] {
            let m = r.find(name).unwrap_or_else(|| panic!("missing metric {name}"));
            assert!(m.options_per_second > 0.0, "{name} has zero throughput");
            assert!(m.watts > 0.0, "{name} has zero power");
        }
        // Traced FPGA runs must carry real telemetry.
        let vec = r.find("table1/vectorised").and_then(|m| m.telemetry.clone()).unwrap();
        assert!(vec.mean_utilisation > 0.0 && vec.mean_utilisation <= 1.0);
        assert!(vec.occupancy_high_water > 0);
        // Streaming overload must expose queueing in the percentiles.
        let over = r.find("streaming/overload").unwrap();
        let latency = over.latency.clone().unwrap();
        assert!(latency.p50_us <= latency.p99_us);
        assert!(latency.p99_us <= latency.max_us);
        assert!(over.telemetry.as_ref().unwrap().backpressure_events > 0, "must backpressure");
    }

    /// Each row kind serialises exactly the fields its backend measures:
    /// no batch row carries latency, no modelled CPU row carries
    /// simulator counters, and every streaming row carries all three
    /// latency figures, measured.
    #[test]
    fn rows_serialise_only_what_their_backend_measures() {
        const LATENCY: [&str; 3] = ["p50_latency_us", "p99_latency_us", "max_latency_us"];
        const TELEMETRY: [&str; 4] =
            ["mean_utilisation", "occupancy_high_water", "backpressure_events", "region_restarts"];
        let json = small_run().to_json();
        let rows = |array: &str| json.get(array).and_then(Json::as_array).unwrap().to_vec();
        let (batch, streaming) = (rows("metrics"), rows("streaming"));
        assert_eq!(batch.len(), 17);
        assert_eq!(streaming.len(), 3);
        for row in &batch {
            let name = row.get("name").and_then(Json::as_str).unwrap();
            for key in LATENCY {
                assert!(row.get(key).is_none(), "batch row {name} carries {key}");
            }
            let simulated = row.get("backend").and_then(Json::as_str) == Some("fpga-sim");
            assert_eq!(row.get("kernel_cycles").is_some(), simulated, "{name} kernel_cycles");
            let traced = simulated && name != "table1/xilinx-baseline";
            for key in TELEMETRY {
                assert_eq!(row.get(key).is_some(), traced, "{name} {key}");
            }
        }
        for row in &streaming {
            let name = row.get("name").and_then(Json::as_str).unwrap();
            for key in LATENCY.into_iter().chain(TELEMETRY).chain(["kernel_cycles"]) {
                assert!(row.get(key).is_some(), "streaming row {name} lacks {key}");
            }
            for key in LATENCY {
                let us = row.get(key).and_then(Json::as_f64).unwrap();
                assert!(us > 0.0, "streaming row {name} {key} = {us}");
            }
        }
    }
}
