//! Whole-system checks: figure artifacts, resource gating, power story,
//! determinism, and the harness-level ablations.

use cds_harness::ablations;
use cds_harness::figures;
use cds_harness::workload::Workload;
use cds_repro::engine::multi::{engine_resource_usage, MultiEngine, MultiEngineError};
use cds_repro::engine::prelude::*;
use cds_repro::power::{CpuPowerModel, EfficiencyComparison, FpgaPowerModel};
use cds_repro::quant::prelude::*;
use dataflow_sim::resource::Device;

#[test]
fn figures_render_and_are_distinct() {
    let market = MarketData::paper_workload(1);
    let f1 = figures::fig1_dot();
    let f2 = figures::fig2_dot(&market);
    let f3 = figures::fig3_dot(&market);
    for dot in [&f1, &f2, &f3] {
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
    // Fig 1 is the sequential flowchart, Fig 2 the dataflow graph, Fig 3
    // adds replication.
    assert!(f1.contains("next option"));
    assert!(f2.contains("payment-calc") && !f2.contains("rep0"));
    assert!(f3.contains("interp-t-rep3"));
    assert_ne!(f2, f3);
}

#[test]
fn five_engine_limit_is_resource_driven() {
    let market = MarketData::paper_workload(2);
    let device = Device::alveo_u280();
    let config = EngineVariant::Vectorised.config();
    let per_engine = engine_resource_usage(&config, market.hazard.len());
    // Five fit, six do not — and it is a genuine resource constraint.
    assert!(per_engine.times(5).fits_in(device.usable()));
    assert!(!per_engine.times(6).fits_in(device.usable()));
    assert!(matches!(
        MultiEngine::new(market, 6),
        Err(MultiEngineError::DoesNotFit { requested: 6, max: 5 })
    ));
}

#[test]
fn smaller_vector_factor_admits_more_engines() {
    // De-vectorised engines are smaller, so more fit — the resource model
    // exposes the area/throughput trade-off behind §IV.
    let market = MarketData::paper_workload(2);
    let device = Device::alveo_u280();
    let mut small = EngineVariant::Vectorised.config();
    small.vector_factor = 1;
    let n_small = MultiEngine::max_engines(&market, &small, &device);
    let n_big = MultiEngine::max_engines(&market, &EngineVariant::Vectorised.config(), &device);
    assert!(n_small > n_big, "V=1 fits {n_small}, V=6 fits {n_big}");
}

#[test]
fn power_story_end_to_end() {
    // Run the actual engines, then feed measured rates through the power
    // models: the paper's efficiency narrative must hold.
    let workload = Workload::paper(42, 128);
    let five = MultiEngine::new(workload.market.clone(), 5).unwrap();
    let fpga_rate = five.price_batch(&workload.options).unwrap().options_per_second;
    let cpu_rate = cds_repro::cpu::CpuPerfModel::xeon_8260m().options_per_second(24);
    let cmp = EfficiencyComparison::new(
        cpu_rate,
        24,
        fpga_rate,
        5,
        &CpuPowerModel::xeon_8260m(),
        &FpgaPowerModel::alveo_u280_cds(),
    );
    assert!(cmp.performance_ratio() > 1.25, "perf {}", cmp.performance_ratio());
    assert!((4.2..5.2).contains(&cmp.power_ratio()), "power {}", cmp.power_ratio());
    assert!(cmp.efficiency_ratio() > 5.5, "efficiency {}", cmp.efficiency_ratio());
}

#[test]
fn runs_are_deterministic() {
    let workload = Workload::paper(11, 32);
    let run = || {
        let engine =
            FpgaCdsEngine::new(workload.market.clone(), EngineVariant::Vectorised.config());
        let r = engine.price_batch(&workload.options);
        (r.spreads.clone(), r.kernel_cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn vector_sweep_shape() {
    // Fig-3 mechanism at system level: V=2 roughly doubles, V=6 matches
    // the paper's observation (no further gain beyond port bandwidth).
    let workload = Workload::paper(42, 48);
    let rows = ablations::vector_sweep(&workload, &[1, 2, 6]);
    assert!((1.6..2.3).contains(&rows[1].speedup), "V=2 speedup {}", rows[1].speedup);
    assert!((1.6..2.3).contains(&rows[2].speedup), "V=6 speedup {}", rows[2].speedup);
}

#[test]
fn listing1_host_and_model() {
    let rows = ablations::listing1(&[1024]);
    let row = &rows[0];
    // The 7-lane kernel must at least not be slower on the host — it
    // typically wins 2-6x by breaking the FP dependency chain. Only
    // meaningful with optimisations; in debug builds the lane kernel's
    // bounds checks dominate.
    if !cfg!(debug_assertions) {
        assert!(row.host_speedup > 0.9, "host speedup {}", row.host_speedup);
    }
    // The hardware model shows the paper's ~7x regardless of build.
    let model = row.fpga_cycles_ii7 as f64 / row.fpga_cycles_listing1 as f64;
    assert!((6.0..7.5).contains(&model), "model speedup {model}");
}

#[test]
fn shallow_accrual_fifo_starves_the_replicas() {
    // The accrual-path FIFO bounds the engine's in-flight window; forcing
    // it below the replica count must cost throughput while leaving the
    // numerics untouched.
    let workload = Workload::paper(42, 48);
    let healthy = FpgaCdsEngine::new(workload.market.clone(), EngineVariant::Vectorised.config())
        .price_batch(&workload.options);
    let mut starved_config = EngineVariant::Vectorised.config();
    starved_config.accrual_fifo_depth = Some(2);
    let starved =
        FpgaCdsEngine::new(workload.market.clone(), starved_config).price_batch(&workload.options);
    assert_eq!(healthy.spreads, starved.spreads, "numerics must be unaffected");
    let slowdown = starved.kernel_cycles as f64 / healthy.kernel_cycles as f64;
    assert!(slowdown > 1.2, "expected starvation, got slowdown {slowdown}");
}

#[test]
fn precision_ablation_reports_small_errors() {
    let report = ablations::precision(&Workload::mixed(5, 48));
    assert!(report.max_relative_error < 5e-3);
    assert!(report.max_error_bps < 1.0);
}
