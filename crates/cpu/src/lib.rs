//! # cds-cpu — the CPU baseline CDS engine
//!
//! The paper compares its FPGA engines against "a bespoke version of the
//! engine in C++ with OpenMP for multi-threading" on a 24-core Xeon
//! Platinum (Cascade Lake) 8260M. This crate provides:
//!
//! * [`engine::CpuCdsEngine`] — a cache-friendly single-threaded pricer
//!   (the C++ engine's analogue), numerically identical to the reference;
//! * [`lanes::LaneKernel`] — the zero-allocation lane-parallel batch
//!   kernel behind [`engine::CpuCdsEngine::price_batch`]: shared
//!   per-frequency schedule grids with prefix-summed leg accumulators
//!   plus 8-wide stub lanes, bit-for-bit identical to the scalar
//!   reference (the Listing-1 partial-sum trick applied across options);
//! * [`parallel`] — chunked multi-threading over `std::thread::scope`
//!   (the OpenMP analogue), for numerical verification and host-machine
//!   benchmarking;
//! * [`model::CpuPerfModel`] — a calibrated Cascade Lake performance
//!   model reproducing the paper's measured CPU rows (8738.92 options/s
//!   single-core; 8.68× scaling at 24 cores), since the paper's exact
//!   silicon is unavailable here (DESIGN.md substitution ledger).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod lanes;
pub mod model;
pub mod parallel;

pub use engine::{CpuBatchStats, CpuCdsEngine};
pub use lanes::LaneKernel;
pub use model::CpuPerfModel;
pub use parallel::price_parallel;
