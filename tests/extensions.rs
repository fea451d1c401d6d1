//! Integration tests for the extension features beyond the paper's core
//! tables: bootstrapping, streaming, reduced precision, stage tracing and
//! stream backpressure — each exercised through the full stack.

use cds_repro::engine::config::EnginePrecision;
use cds_repro::engine::multi::MultiEngine;
use cds_repro::engine::prelude::*;
use cds_repro::engine::streaming::{poisson_arrivals, run_streaming};
use cds_repro::engine::variants::dataflow::build_graph;
use cds_repro::quant::bootstrap::{bootstrap_hazard, CdsQuote};
use cds_repro::quant::prelude::*;
use dataflow_sim::event_sim::EventSim;
use dataflow_sim::resource::Device;
use std::rc::Rc;

#[test]
fn bootstrap_round_trip_through_fpga_engine() {
    // Market quotes → bootstrapped curve → FPGA engine reprices to par.
    let interest = Curve::flat(0.025, 64, 30.0);
    let quotes: Vec<CdsQuote> = [(1.0, 60.0), (3.0, 95.0), (5.0, 125.0), (7.0, 140.0)]
        .into_iter()
        .map(|(maturity, spread_bps)| CdsQuote {
            maturity,
            spread_bps,
            frequency: PaymentFrequency::Quarterly,
            recovery: 0.40,
        })
        .collect();
    let fitted = bootstrap_hazard(&interest, &quotes).expect("ladder bootstraps");
    let market = MarketData { interest, hazard: fitted.hazard };
    let options: Vec<CdsOption> =
        quotes.iter().map(|q| CdsOption::new(q.maturity, q.frequency, q.recovery)).collect();
    let engine = FpgaCdsEngine::new(market, EngineVariant::Vectorised.config());
    let report = engine.price_batch(&options);
    for (q, s) in quotes.iter().zip(&report.spreads) {
        assert!(
            (s - q.spread_bps).abs() < 1e-5,
            "maturity {}: {s} vs {}",
            q.maturity,
            q.spread_bps
        );
    }
}

#[test]
fn streaming_saturated_throughput_matches_batch() {
    let market = Rc::new(MarketData::paper_workload(42));
    let options = PortfolioGenerator::uniform(64, 5.5, PaymentFrequency::Quarterly, 0.40);
    let config = EngineVariant::Vectorised.config();

    let batch_rate = FpgaCdsEngine::new((*market).clone(), config.clone())
        .price_batch(&options)
        .options_per_second;

    // Offer far more load than the engine can take: the achieved rate
    // must converge to the batch rate (same hardware, saturated).
    let arrivals = poisson_arrivals(&config, 500_000.0, options.len(), 1);
    let streamed = run_streaming(market, &config, &options, &arrivals);
    let ratio = streamed.options_per_second / batch_rate;
    assert!(
        (0.85..1.15).contains(&ratio),
        "streamed {} vs batch {batch_rate}",
        streamed.options_per_second
    );
}

#[test]
fn streaming_latency_hockey_stick() {
    let market = Rc::new(MarketData::paper_workload(42));
    let options = PortfolioGenerator::uniform(48, 5.5, PaymentFrequency::Quarterly, 0.40);
    let config = EngineVariant::Vectorised.config();
    let light = run_streaming(
        market.clone(),
        &config,
        &options,
        &poisson_arrivals(&config, 3_000.0, options.len(), 2),
    );
    let heavy = run_streaming(
        market,
        &config,
        &options,
        &poisson_arrivals(&config, 150_000.0, options.len(), 2),
    );
    assert!(
        heavy.p99_cycles > 4 * light.p99_cycles,
        "light p99 {} heavy p99 {}",
        light.p99_cycles,
        heavy.p99_cycles
    );
    // Spreads identical regardless of arrival pattern.
    assert_eq!(light.spreads, heavy.spreads);
}

#[test]
fn single_precision_engines_fit_more_and_stay_accurate() {
    let market = MarketData::paper_workload(42);
    let device = Device::alveo_u280();
    let mut config = EngineVariant::Vectorised.config();
    config.precision = EnginePrecision::Single;
    let n32 = MultiEngine::max_engines(&market, &config, &device);
    assert!(n32 > 5, "f32 fits only {n32} engines");

    let options = PortfolioGenerator::new(3).portfolio(24);
    let pricer = CdsPricer::new(market.clone());
    let engine = FpgaCdsEngine::new(market, config);
    let report = engine.price_batch(&options);
    for (o, s) in options.iter().zip(&report.spreads) {
        let golden = pricer.price(o).spread_bps;
        let rel = (s - golden).abs() / golden;
        assert!(rel < 5e-3, "f32 engine {s} vs {golden} (rel {rel})");
        assert!(rel > 0.0, "single precision should differ measurably");
    }
}

#[test]
fn single_precision_is_faster_per_engine() {
    let market = MarketData::paper_workload(42);
    let options = PortfolioGenerator::uniform(16, 5.5, PaymentFrequency::Quarterly, 0.40);
    let f64_cycles = FpgaCdsEngine::new(market.clone(), EngineVariant::Vectorised.config())
        .price_batch(&options)
        .kernel_cycles;
    let mut config = EngineVariant::Vectorised.config();
    config.precision = EnginePrecision::Single;
    let f32_cycles = FpgaCdsEngine::new(market, config).price_batch(&options).kernel_cycles;
    let speedup = f64_cycles as f64 / f32_cycles as f64;
    assert!((1.5..2.3).contains(&speedup), "f32 speedup {speedup}");
}

#[test]
fn engine_trace_records_replica_spans() {
    let mut config = EngineVariant::Vectorised.config();
    let recorder = dataflow_sim::trace::TraceRecorder::new();
    config.trace = Some(recorder.clone());
    let market = MarketData::paper_workload(2);
    let options = PortfolioGenerator::uniform(3, 5.5, PaymentFrequency::Quarterly, 0.40);
    let _ = FpgaCdsEngine::new(market, config).price_batch(&options);
    // Six replicas of each of the three scan functions are traced.
    let stages = recorder.stages();
    assert_eq!(stages.len(), 18, "traced stages: {stages:?}");
    assert!(stages.iter().any(|s| s == "hazard-rep0"), "traced stages: {stages:?}");
    // One busy span per processed time point per function, summed over
    // the replicas: 3 options x 22 points x 3 function types.
    let spans: Vec<_> = stages.iter().flat_map(|s| recorder.spans(s)).collect();
    assert_eq!(spans.len(), 3 * 22 * 3);
    assert!(spans.iter().all(|s| s.start < s.end), "every span is busy for a cycle or more");
}

#[test]
fn cds_run_analysis_flags_scan_streams() {
    let market = Rc::new(MarketData::paper_workload(1));
    let options = PortfolioGenerator::uniform(4, 5.5, PaymentFrequency::Quarterly, 0.40);
    let (g, _sink) = build_graph(market, &EngineVariant::InterOption.config(), &options, 0);
    let report = EventSim::new(g).run().expect("runs");
    // The time-point FIFOs feeding the slow scan units must have filled.
    let saturated: Vec<&str> = report
        .streams
        .iter()
        .filter(|s| s.max_occupancy == s.capacity)
        .map(|s| s.name.as_str())
        .collect();
    assert!(
        saturated.iter().any(|s| s.starts_with("tp_")),
        "expected backpressure on tp_* streams, saturated: {saturated:?}"
    );
}
