//! `cds-harness bench --tick-storm` — wall-clock tick-storm measurement
//! of the incremental repricing engine, with a CI regression gate.
//!
//! The scenario is ROADMAP item 1 made measurable: a resident book of
//! ≥1M options, a storm of single-point curve ticks, and the question
//! "how much faster is arrangement-driven invalidation than repricing
//! the whole book?". Three rows are timed by the harness's one sampler,
//! [`crate::sampler::rate`]:
//!
//! * `full/reprice` — from-scratch full-book passes per second (the
//!   pre-incremental behaviour, and the oracle);
//! * `incremental/off-lattice-1pt` — single-point interest ticks at
//!   **lattice-free** knots (windows containing no shared payment-grid
//!   time of any resident frequency, so only per-option maturity and
//!   stub-midpoint reads are invalidated — see
//!   `docs/PERFORMANCE.md`), ticks per second;
//! * `incremental/hazard-mid` — deliberately *hot* ticks at the middle
//!   hazard knot, whose prefix window invalidates most of the book.
//!   Reported and floored, but excluded from the speedup gate: no
//!   arrangement can make a tick that every option reads cheap.
//!
//! [`GATE`] checks a run against `results/tick_storm_baseline.json`:
//! absolute per-row floors carry the runner-noise [`TOLERANCE`], while the
//! headline `incremental_speedup` (off-lattice ticks/s over full
//! passes/s) is checked **without tolerance** against
//! [`MIN_TICK_SPEEDUP`] — both sides of the ratio see the same machine.
//! The gate also requires bitwise cleanliness: after the storm the
//! stored spreads must be bit-identical to a full reprice
//! (`bit_mismatches == 0`), no measured tick may have degenerated into
//! a zero-delta no-op, and a zero-delta probe must report an empty
//! affected set.

use crate::gate::{Check, Gate};
use crate::json::Json;
use crate::sampler::{rate, DEFAULT_MIN_SAMPLE};
use cds_engine::incremental::{CurveKind, CurveTick, IncrementalEngine};
use cds_quant::option::{MarketData, PortfolioGenerator};
use std::time::Duration;

/// Version of the tick-storm JSON schema. Bump on any incompatible
/// change so `--check` refuses stale baselines loudly (exit 2).
pub const SCHEMA_VERSION: u64 = 1;

/// Default resident book of a tick-storm run: the ISSUE's ≥1M options.
pub const DEFAULT_TICK_RESIDENTS: usize = 1_048_576;

/// Relative width of the absolute per-row floors (same rationale as the
/// throughput gate: shared CI runners jitter).
pub const TOLERANCE: f64 = 0.40;

/// Machine-independent floor on `incremental_speedup`: off-lattice
/// single-point ticks must process at least this many times faster than
/// full-book repricing. Checked without tolerance — the ratio cancels
/// machine speed.
pub const MIN_TICK_SPEEDUP: f64 = 100.0;

/// The `bench --tick-storm --check` gate: same seed, book and curve, a
/// rate floor per row, the tolerance-free speedup floor, and bitwise
/// cleanliness as literals no baseline can relax.
pub static GATE: Gate = Gate {
    name: "tick-storm",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::eq("seed"),
        Check::eq("residents"),
        Check::eq("knots"),
        Check::min("per_second", TOLERANCE).within("rows"),
        Check::at_least("incremental_speedup", "min_tick_speedup"),
        Check::literal("bit_mismatches", Json::Number(0.0)),
        Check::literal("zero_delta_clean", Json::Bool(true)),
    ],
};

/// One measured tick-storm row.
#[derive(Debug, Clone, PartialEq)]
pub struct TickStormRow {
    /// Stable row name (`full/reprice`, `incremental/off-lattice-1pt`,
    /// `incremental/hazard-mid`).
    pub name: String,
    /// Full passes or ticks per second, depending on the row.
    pub per_second: f64,
}

/// One wall-clock tick-storm run.
#[derive(Debug, Clone, PartialEq)]
pub struct TickStormReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// RNG seed of the resident book.
    pub seed: u64,
    /// Resident options during the storm; the gate requires baseline
    /// and current to agree, so floors stay comparable.
    pub residents: usize,
    /// Interest-curve knot count (fixed by the market; gated likewise).
    pub knots: usize,
    /// How many interest knots were lattice-free for this book.
    pub free_knots: usize,
    /// Mean affected-set size over the measured off-lattice ticks.
    pub mean_affected: f64,
    /// Off-lattice ticks/s over full reprices/s — the headline ratio.
    pub incremental_speedup: f64,
    /// The speedup floor this report is gated against
    /// ([`MIN_TICK_SPEEDUP`]).
    pub min_tick_speedup: f64,
    /// Stored spreads that differed bitwise from a post-storm full
    /// reprice. Must be zero: the whole point of the arrangement.
    pub bit_mismatches: u64,
    /// True when no measured tick degenerated into a zero-delta no-op,
    /// no tick was rejected, and the explicit zero-delta probe reported
    /// `zero_delta` with an empty affected set and no deltas.
    pub zero_delta_clean: bool,
    /// All measured rows, in a stable order.
    pub rows: Vec<TickStormRow>,
}

impl TickStormReport {
    /// Look a row up by its stable name.
    pub fn find(&self, name: &str) -> Option<&TickStormRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("residents", Json::Number(self.residents as f64)),
            ("knots", Json::Number(self.knots as f64)),
            ("free_knots", Json::Number(self.free_knots as f64)),
            ("mean_affected", Json::Number(self.mean_affected)),
            ("incremental_speedup", Json::Number(self.incremental_speedup)),
            ("min_tick_speedup", Json::Number(self.min_tick_speedup)),
            ("bit_mismatches", Json::Number(self.bit_mismatches as f64)),
            ("zero_delta_clean", Json::Bool(self.zero_delta_clean)),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::object(vec![
                                ("name", Json::Str(r.name.clone())),
                                ("per_second", Json::Number(r.per_second)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Measure a tick storm with the default sample window.
pub fn run(seed: u64, residents: usize) -> TickStormReport {
    run_with(seed, residents, DEFAULT_MIN_SAMPLE)
}

/// As [`run`], with an explicit minimum sample window (tests use a tiny
/// window; CI uses the default).
pub fn run_with(seed: u64, residents: usize, min_sample: Duration) -> TickStormReport {
    assert!(residents >= 1, "need at least one resident option");
    let market = MarketData::paper_workload(seed);
    let options = PortfolioGenerator::new(seed).portfolio(residents);
    let mut engine = IncrementalEngine::new(market);
    engine.insert_batch(&options);

    let interest_tenors: Vec<f64> = engine.tenors(CurveKind::Interest).to_vec();
    let knots = interest_tenors.len();
    let mut free = engine.portfolio().lattice_free_interest_knots(&interest_tenors);
    let free_knots = free.len();
    if free.is_empty() {
        // Degenerate book (every knot shares a lattice read): fall back
        // to the last knot so the storm still runs; the speedup gate
        // will report the honest (poor) ratio.
        free.push(knots - 1);
    }

    let full_passes = rate(
        || {
            let _ = engine.full_reprice();
            1
        },
        min_sample,
    );

    // Off-lattice single-point interest ticks. One timed pass ticks every
    // free knot once, so every pass does the same work — the sampler's
    // quiet percentile would otherwise pick out the knots with the
    // smallest affected sets. The value factor grows with a global
    // counter, so no tick ever re-publishes the value already at its
    // knot (which would be a zero-delta no-op and inflate the rate).
    let base: Vec<f64> =
        free.iter().map(|&k| engine.curve_value(CurveKind::Interest, k).unwrap_or(0.0)).collect();
    let mut n = 0u64;
    let mut dirty_ticks = 0u64;
    let mut affected_sum = 0u64;
    let mut measured_ticks = 0u64;
    let off_lattice = rate(
        || {
            for (&knot, &value) in free.iter().zip(&base) {
                let value = value * (1.0 + 1e-9 * (n + 1) as f64) + 1e-12;
                n += 1;
                match engine.apply_tick(CurveTick { curve: CurveKind::Interest, knot, value }) {
                    Ok(report) => {
                        if report.zero_delta {
                            dirty_ticks += 1;
                        }
                        affected_sum += report.affected as u64;
                        measured_ticks += 1;
                    }
                    Err(_) => dirty_ticks += 1,
                }
            }
            free.len()
        },
        min_sample,
    );

    // Hot hazard ticks at the middle knot: the prefix window covers
    // most of the book, the worst case for any invalidation scheme.
    let hazard_mid = engine.tenors(CurveKind::Hazard).len() / 2;
    let hazard_base = engine.curve_value(CurveKind::Hazard, hazard_mid).unwrap_or(0.01);
    let mut hn = 0u64;
    let hazard_rate = rate(
        || {
            let value = hazard_base * (1.0 + 1e-9 * (hn + 1) as f64) + 1e-12;
            hn += 1;
            match engine.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: hazard_mid, value })
            {
                Ok(report) => {
                    if report.zero_delta {
                        dirty_ticks += 1;
                    }
                }
                Err(_) => dirty_ticks += 1,
            }
            1
        },
        min_sample,
    );

    // Bitwise cleanliness after the whole storm: stored spreads vs a
    // fresh full reprice, compared as raw bits.
    let stored = engine.spreads();
    let full = engine.full_reprice();
    let bit_mismatches = stored.iter().zip(&full).filter(|(a, b)| a != b).count() as u64
        + stored.len().abs_diff(full.len()) as u64;

    // Zero-delta probe: re-publishing the current value must advance the
    // epoch without touching anything.
    let probe_value = engine.curve_value(CurveKind::Interest, 0).unwrap_or(0.0);
    let probe_clean = match engine.apply_tick(CurveTick {
        curve: CurveKind::Interest,
        knot: 0,
        value: probe_value,
    }) {
        Ok(report) => report.zero_delta && report.affected == 0 && report.deltas.is_empty(),
        Err(_) => false,
    };

    TickStormReport {
        schema_version: SCHEMA_VERSION,
        seed,
        residents,
        knots,
        free_knots,
        mean_affected: affected_sum as f64 / (measured_ticks as f64).max(1.0),
        incremental_speedup: off_lattice / full_passes,
        min_tick_speedup: MIN_TICK_SPEEDUP,
        bit_mismatches,
        zero_delta_clean: probe_clean && dirty_ticks == 0,
        rows: vec![
            TickStormRow { name: "full/reprice".to_string(), per_second: full_passes },
            TickStormRow {
                name: "incremental/off-lattice-1pt".to_string(),
                per_second: off_lattice,
            },
            TickStormRow { name: "incremental/hazard-mid".to_string(), per_second: hazard_rate },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run() -> TickStormReport {
        // Tiny book and window: a plumbing test, not a benchmark.
        run_with(11, 512, Duration::from_millis(1))
    }

    #[test]
    fn rows_ratio_and_cleanliness_are_populated() {
        let r = quick_run();
        for name in ["full/reprice", "incremental/off-lattice-1pt", "incremental/hazard-mid"] {
            let row = r.find(name).unwrap_or_else(|| panic!("missing row {name}"));
            assert!(row.per_second > 0.0, "{name} has zero rate");
        }
        assert!(r.incremental_speedup > 0.0);
        assert_eq!(r.min_tick_speedup, MIN_TICK_SPEEDUP);
        assert_eq!(r.bit_mismatches, 0, "storm left bit-divergent spreads");
        assert!(r.zero_delta_clean, "zero-delta contract violated");
        assert!(r.free_knots > 0, "paper curves should have lattice-free knots");
        assert_eq!(r.residents, 512);
        assert_eq!(r.knots, 1024);
    }
}
