//! Overnight batch pricing: the HPC workload that motivates the paper —
//! "the capability to perform batch processing of financial data on HPC
//! machines, for instance overnight, which must still occur within
//! specific time constraints".
//!
//! Prices a realistic mixed portfolio on every engine variant plus the
//! multithreaded CPU engine, reporting throughput and the projected time
//! to price a large overnight book.
//!
//! ```text
//! cargo run --release --example portfolio_pricing
//! ```

use cds_repro::cpu::engine::CpuCdsEngine;
use cds_repro::cpu::parallel::price_parallel;
use cds_repro::engine::multi::MultiEngine;
use cds_repro::engine::prelude::*;
use cds_repro::quant::prelude::*;

const PORTFOLIO: usize = 512;
const OVERNIGHT_BOOK: f64 = 50_000_000.0; // 50M CDS positions to re-mark

fn main() {
    let market = MarketData::paper_workload(2024);
    let mut generator = PortfolioGenerator::new(7);
    let options = generator.portfolio(PORTFOLIO);

    // Reference spreads for validation.
    let reference: Vec<f64> =
        options.iter().map(|o| CdsPricer::new(market.clone()).price(o).spread_bps).collect();
    let stats = |xs: &[f64]| {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        (min, mean, max)
    };
    let (lo, mean, hi) = stats(&reference);
    println!("portfolio of {PORTFOLIO} CDS options");
    println!("  spreads: min {lo:.1} bps  mean {mean:.1} bps  max {hi:.1} bps\n");

    println!("{:<38} {:>14} {:>16}", "engine", "options/s", "50M book (mins)");
    println!("{}", "-".repeat(72));

    // CPU engine, actually executed on this machine.
    let cpu = CpuCdsEngine::new(&market);
    let t0 = std::time::Instant::now();
    let cpu_spreads = price_parallel(&cpu, &options, 4);
    let cpu_rate = PORTFOLIO as f64 / t0.elapsed().as_secs_f64();
    check(&cpu_spreads, &reference, "host CPU");
    row("host CPU engine (4 threads, measured)", cpu_rate);

    // Each simulated FPGA variant.
    for variant in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(market.clone(), variant.config());
        let report = engine.price_batch(&options);
        check(&report.spreads, &reference, variant.paper_label());
        row(variant.paper_label(), report.options_per_second);
    }

    // Full five-engine U280 deployment.
    let multi = MultiEngine::new(market.clone(), 5).expect("five engines fit the U280");
    let report = multi.price_batch(&options).expect("continuous engines");
    check(&report.spreads, &reference, "5-engine U280");
    row("5x vectorised engines (full U280)", report.options_per_second);

    println!("\nall engines agree with the reference pricer ✓");
}

fn row(label: &str, rate: f64) {
    let minutes = OVERNIGHT_BOOK / rate / 60.0;
    println!("{label:<38} {rate:>14.2} {minutes:>16.1}");
}

fn check(spreads: &[f64], reference: &[f64], label: &str) {
    for (s, r) in spreads.iter().zip(reference) {
        assert!((s - r).abs() < 1e-6 * (1.0 + r.abs()), "{label}: {s} vs reference {r}");
    }
}
