//! Numerical equivalence: every engine implementation — baseline,
//! the three dataflow variants, the multi-engine deployment and the CPU
//! engines — must price identically to the golden reference pricer, for
//! arbitrary portfolios.

use cds_repro::cpu::engine::CpuCdsEngine;
use cds_repro::cpu::parallel::price_parallel;
use cds_repro::engine::multi::MultiEngine;
use cds_repro::engine::prelude::*;
use cds_repro::quant::prelude::*;
use proptest::prelude::*;

/// Shared cross-engine agreement budget (see `cds_quant::ulp`): 128 ULPs
/// plus a 1e-9 absolute floor, ~16x the worst divergence ever measured
/// across the routes. Far tighter than the 1e-7 relative tolerance this
/// suite used before the comparator existed.
const CMP: UlpComparator = UlpComparator::ENGINE_F64;

fn assert_close(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    if let Err((i, m)) = CMP.check_all(got, want) {
        panic!("{label}[{i}]: {m}");
    }
}

fn reference(market: &MarketData<f64>, options: &[CdsOption]) -> Vec<f64> {
    let pricer = CdsPricer::new(market.clone());
    options.iter().map(|o| pricer.price(o).spread_bps).collect()
}

#[test]
fn all_engines_agree_on_mixed_portfolio() {
    let market = MarketData::paper_workload(99);
    let options = PortfolioGenerator::new(5).portfolio(24);
    let golden = reference(&market, &options);

    for variant in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(market.clone(), variant.config());
        let report = engine.price_batch(&options);
        assert_close(variant.paper_label(), &report.spreads, &golden);
    }

    let multi = MultiEngine::new(market.clone(), 5).unwrap();
    assert_close("multi-engine", &multi.price_batch(&options).unwrap().spreads, &golden);

    let cpu = CpuCdsEngine::new(&market);
    assert_close("cpu sequential", &cpu.price_batch(&options), &golden);
    assert_close("cpu parallel", &price_parallel(&cpu, &options, 3), &golden);
}

#[test]
fn engines_handle_every_payment_frequency() {
    let market = MarketData::paper_workload(3);
    let pricer = CdsPricer::new(market.clone());
    for freq in PaymentFrequency::ALL {
        let option = CdsOption::new(3.5, freq, 0.45);
        let golden = pricer.price(&option).spread_bps;
        for variant in EngineVariant::ALL {
            let engine = FpgaCdsEngine::new(market.clone(), variant.config());
            let report = engine.price_batch(std::slice::from_ref(&option));
            if let Err(m) = CMP.check(report.spreads[0], golden) {
                panic!("{variant:?} {freq:?}: {m}");
            }
        }
    }
}

#[test]
fn short_stub_only_option() {
    // A maturity shorter than one payment period: single stub time point.
    let market = MarketData::paper_workload(8);
    let option = CdsOption::new(0.1, PaymentFrequency::Quarterly, 0.40);
    let golden = CdsPricer::new(market.clone()).price(&option).spread_bps;
    for variant in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(market.clone(), variant.config());
        let report = engine.price_batch(std::slice::from_ref(&option));
        if let Err(m) = CMP.check(report.spreads[0], golden) {
            panic!("{variant:?}: {m}");
        }
    }
}

#[test]
fn single_option_batch_equals_larger_batch_prefix() {
    // Streaming more options must not change earlier results.
    let market = MarketData::paper_workload(17);
    let options = PortfolioGenerator::new(2).portfolio(8);
    let engine = FpgaCdsEngine::new(market.clone(), EngineVariant::Vectorised.config());
    let full = engine.price_batch(&options);
    let first = engine.price_batch(&options[..1]);
    assert!((full.spreads[0] - first.spreads[0]).abs() < 1e-12);
}

#[test]
fn engines_agree_under_stressed_market() {
    // A crisis-regime market (inverted 9% hazard, near-zero rates) far
    // from the calibration workload: numerics must still agree.
    let market = MarketData::stressed_workload(13);
    let options = PortfolioGenerator::new(6).portfolio(12);
    let golden = reference(&market, &options);
    assert!(golden.iter().all(|s| *s > 200.0), "stressed spreads should be wide: {golden:?}");
    for variant in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(market.clone(), variant.config());
        assert_close(variant.paper_label(), &engine.price_batch(&options).spreads, &golden);
    }
}

#[test]
fn kernel_cycles_monotone_in_batch_size() {
    let market = MarketData::paper_workload(42);
    let engine = FpgaCdsEngine::new(market, EngineVariant::Vectorised.config());
    let mut prev = 0;
    for n in [4usize, 8, 16, 32] {
        let options = PortfolioGenerator::uniform(n, 5.5, PaymentFrequency::Quarterly, 0.4);
        let cycles = engine.price_batch(&options).kernel_cycles;
        assert!(cycles > prev, "n={n}: {cycles} <= {prev}");
        prev = cycles;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vectorised_engine_matches_reference_on_random_options(
        maturities in proptest::collection::vec(0.3f64..9.5, 1..6),
        recovery in 0.0f64..0.9,
        seed in 0u64..50,
    ) {
        let market = MarketData::paper_workload(seed);
        let options: Vec<CdsOption> = maturities
            .iter()
            .map(|&m| CdsOption::new(m, PaymentFrequency::Quarterly, recovery))
            .collect();
        let golden = reference(&market, &options);
        let engine = FpgaCdsEngine::new(market, EngineVariant::Vectorised.config());
        let report = engine.price_batch(&options);
        for (g, w) in report.spreads.iter().zip(&golden) {
            prop_assert!(CMP.matches(*g, *w), "{:?}", CMP.check(*g, *w));
        }
    }

    #[test]
    fn baseline_engine_matches_reference_on_random_options(
        maturity in 0.3f64..9.5,
        recovery in 0.0f64..0.9,
        seed in 0u64..50,
    ) {
        let market = MarketData::paper_workload(seed);
        let option = CdsOption::new(maturity, PaymentFrequency::SemiAnnual, recovery);
        let golden = CdsPricer::new(market.clone()).price(&option).spread_bps;
        let engine = FpgaCdsEngine::new(market, EngineVariant::XilinxBaseline.config());
        let report = engine.price_batch(std::slice::from_ref(&option));
        prop_assert!(
            CMP.matches(report.spreads[0], golden),
            "{:?}", CMP.check(report.spreads[0], golden)
        );
    }
}
