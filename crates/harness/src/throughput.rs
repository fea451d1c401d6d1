//! Wall-clock throughput measurement with a CI regression gate.
//!
//! Unlike the [`crate::bench`] ladder — which is fully deterministic and
//! would not notice a 5x hot-path regression — this module actually
//! times the CPU engines on the machine it runs on and reports
//! options/second. [`run`] measures three rows (scalar reference on one
//! thread, lane kernel on one thread, lane kernel across a pinned thread
//! count) with the harness's one sampler ([`crate::sampler::rate`]);
//! [`GATE`] checks a report against a committed baseline
//! (`results/throughput_baseline.json`) with a generous relative
//! [`TOLERANCE`] for runner noise, plus one *relative* invariant that
//! is immune to machine speed: the lane kernel must stay at least
//! [`MIN_LANE_SPEEDUP`]× faster than the scalar reference on a single
//! thread.

use crate::gate::{Check, Gate};
use crate::json::Json;
use crate::sampler::{rate, DEFAULT_MIN_SAMPLE};
use crate::workload::Workload;
use cds_cpu::parallel::price_parallel;
use cds_cpu::CpuCdsEngine;
use std::time::Duration;

/// Version of the throughput JSON schema. Bump on any incompatible
/// change so `--check` refuses stale baselines loudly (exit 2, not a
/// silent pass).
pub const SCHEMA_VERSION: u64 = 1;

/// Default option-batch size of a throughput run: large enough that one
/// pass amortises kernel setup, small enough that a pass is well under a
/// second even for the scalar row.
pub const DEFAULT_THROUGHPUT_BATCH: usize = 8192;

/// Relative width of the per-row throughput floors — deliberately
/// generous, since CI runners share hardware and wall-clock numbers
/// jitter far more than the deterministic ladder's.
pub const TOLERANCE: f64 = 0.40;

/// Default pinned thread count of the multi-threaded row — kept at two
/// so the row measures the same parallelism on a laptop, a CI runner and
/// a large server.
pub const DEFAULT_THROUGHPUT_THREADS: usize = 2;

/// The machine-independent floor on `lane_speedup_1t`: the lane kernel
/// must beat the scalar reference by at least this factor on one thread
/// (the ISSUE's ≥4x acceptance criterion). Checked without tolerance —
/// both sides of the ratio see the same machine noise.
pub const MIN_LANE_SPEEDUP: f64 = 4.0;

/// The `bench --throughput --check` gate: same seed, batch and pinned
/// thread count (so floors stay comparable), a throughput floor per row,
/// and the tolerance-free lane-speedup floor.
pub static GATE: Gate = Gate {
    name: "throughput",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::eq("seed"),
        Check::eq("batch"),
        Check::eq("pinned_threads"),
        Check::min("options_per_second", TOLERANCE).within("rows"),
        Check::at_least("lane_speedup_1t", "min_lane_speedup"),
    ],
};

/// One measured kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Stable row name (`cpu/scalar-1t`, `cpu/lanes-1t`, `cpu/lanes-mt`).
    pub name: String,
    /// Measured wall-clock options per second.
    pub options_per_second: f64,
}

/// One wall-clock throughput run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// RNG seed the workload was generated from.
    pub seed: u64,
    /// Options per timed pass.
    pub batch: usize,
    /// Thread count of the `cpu/lanes-mt` row; the gate requires the
    /// baseline and current run to agree, so floors stay comparable.
    pub pinned_threads: usize,
    /// Single-thread lane-kernel speedup over the scalar reference
    /// (`cpu/lanes-1t` / `cpu/scalar-1t`).
    pub lane_speedup_1t: f64,
    /// The speedup floor this report was gated against
    /// ([`MIN_LANE_SPEEDUP`]).
    pub min_lane_speedup: f64,
    /// All measured rows, in a stable order.
    pub rows: Vec<ThroughputRow>,
}

impl ThroughputReport {
    /// Look a row up by its stable name.
    pub fn find(&self, name: &str) -> Option<&ThroughputRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("batch", Json::Number(self.batch as f64)),
            ("pinned_threads", Json::Number(self.pinned_threads as f64)),
            ("lane_speedup_1t", Json::Number(self.lane_speedup_1t)),
            ("min_lane_speedup", Json::Number(self.min_lane_speedup)),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::object(vec![
                                ("name", Json::Str(r.name.clone())),
                                ("options_per_second", Json::Number(r.options_per_second)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Measure the three throughput rows with the default sample window.
pub fn run(seed: u64, batch: usize, threads: usize) -> ThroughputReport {
    run_with(seed, batch, threads, DEFAULT_MIN_SAMPLE)
}

/// As [`run`], with an explicit minimum sample window (tests use a tiny
/// window; CI uses the default).
pub fn run_with(seed: u64, batch: usize, threads: usize, min_sample: Duration) -> ThroughputReport {
    assert!(threads >= 1, "need at least one thread");
    // A realistic mixed book (1–10y maturities, all four frequencies),
    // so all lane-kernel grids are exercised rather than one shared
    // schedule.
    let w = Workload::mixed(seed, batch);
    let engine = CpuCdsEngine::new(&w.market);

    let scalar_1t = rate(|| engine.price_batch_scalar(&w.options).len(), min_sample);

    // Steady-state lane kernel: scratch and grids reused across passes,
    // as a long-running pricing service would.
    let mut kernel = engine.lane_kernel();
    let mut out = Vec::new();
    let lanes_1t = rate(
        || {
            kernel.price_into(&w.options, &mut out);
            out.len()
        },
        min_sample,
    );

    let lanes_mt = rate(|| price_parallel(&engine, &w.options, threads).len(), min_sample);

    ThroughputReport {
        schema_version: SCHEMA_VERSION,
        seed,
        batch,
        pinned_threads: threads,
        lane_speedup_1t: lanes_1t / scalar_1t,
        min_lane_speedup: MIN_LANE_SPEEDUP,
        rows: vec![
            ThroughputRow { name: "cpu/scalar-1t".to_string(), options_per_second: scalar_1t },
            ThroughputRow { name: "cpu/lanes-1t".to_string(), options_per_second: lanes_1t },
            ThroughputRow { name: "cpu/lanes-mt".to_string(), options_per_second: lanes_mt },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run() -> ThroughputReport {
        // A tiny batch and window: this is a plumbing test, not a
        // benchmark — rates are real but noisy.
        run_with(11, 64, 2, Duration::from_millis(1))
    }

    #[test]
    fn rows_and_speedup_are_populated() {
        let r = quick_run();
        for name in ["cpu/scalar-1t", "cpu/lanes-1t", "cpu/lanes-mt"] {
            let row = r.find(name).unwrap_or_else(|| panic!("missing row {name}"));
            assert!(row.options_per_second > 0.0, "{name} has zero throughput");
        }
        assert!(r.lane_speedup_1t > 0.0);
        assert_eq!(r.min_lane_speedup, MIN_LANE_SPEEDUP);
        assert_eq!(r.pinned_threads, 2);
    }
}
