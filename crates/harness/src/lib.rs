//! # cds-harness — regenerates every table and figure of the paper
//!
//! Library behind the `cds-harness` binary. Each experiment of the
//! CLUSTER 2021 CDS paper has a function here producing a structured
//! result that the binary renders as an aligned table (and optionally
//! CSV), side by side with the paper's published numbers:
//!
//! | function | paper artefact |
//! |---|---|
//! | [`tables::table1`] | Table I — engine-variant throughput |
//! | [`tables::table2`] | Table II — multi-engine scaling, power, efficiency |
//! | [`figures::fig1_dot`] / [`figures::fig2_dot`] / [`figures::fig3_dot`] | Figures 1–3 as Graphviz DOT |
//! | [`ablations::listing1`] | Listing 1 — accumulator kernels (measured on the host) |
//! | [`ablations::vector_sweep`] | replication-factor sweep behind Fig 3 |
//! | [`ablations::ii_sweep`] | hazard-II ablation (§III) |
//! | [`ablations::depth_sweep`] | stream-depth sensitivity |
//! | [`ablations::precision`] | reduced-precision exploration (§V further work) |
//! | [`hostcpu::host_report`] | real host-CPU engine measurement |
//!
//! The [`mod@bench`] module flattens the whole ladder into one
//! machine-readable report ([`metrics::RunMetrics`] records serialised by
//! the hand-rolled [`json`] module) for CI regression gating, the
//! [`chaos`] module drives the engine's fault-injection framework through
//! a deterministic failure matrix whose survival report is gated the same
//! way, the [`journal`] module records runs as replayable journals
//! whose re-execution must be bit-identical, and the [`throughput`]
//! module measures real wall-clock options/second on the host CPU
//! engines and gates them against a committed floor (the only gate that
//! would notice a hot-path regression); it, [`tick_storm`] and
//! [`hostcpu`] take every wall-clock rate from the one [`sampler`]. The
//! [`tick_storm`] module storms
//! the incremental tick-repricing engine with single-point curve ticks
//! against a ≥1M-option resident book and gates the incremental-vs-full
//! speedup ratio (and bitwise cleanliness) against its committed
//! baseline. The [`loadgen`] module drives
//! the `cds-server` serving front-end with open-loop zipf traffic and
//! gates its latency quantiles against committed SLO ceilings, and the
//! [`server_chaos`] module replays serving failure modes (shard death
//! mid-burst, drain-deadline checkpoints, slow consumers, sustained
//! overload) against a boolean survival baseline. Every one of these
//! `--check` gates is a static check list run by the one evaluator in
//! [`gate`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablations;
pub mod bench;
pub mod chaos;
pub mod conformance;
pub mod figures;
pub mod format;
pub mod gate;
pub mod hostcpu;
pub mod journal;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod sampler;
pub mod server_chaos;
pub mod storage_chaos;
pub mod tables;
pub mod throughput;
pub mod tick_storm;
pub mod validate;
pub mod workload;

/// Default option-batch size for throughput experiments (large enough to
/// amortise fills/overheads, as in the paper's batch runs).
pub const DEFAULT_BATCH: usize = 1024;

/// Default RNG seed, for reproducible workloads.
pub const DEFAULT_SEED: u64 = 42;
