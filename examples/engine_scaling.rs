//! Engine scaling and power efficiency: the paper's §IV experiment.
//!
//! Sweeps the number of CDS engines on the simulated Alveo U280 from one
//! to the resource limit, comparing throughput, power draw and
//! options/Watt against the 24-core Cascade Lake Xeon.
//!
//! ```text
//! cargo run --release --example engine_scaling
//! ```

use cds_repro::cpu::CpuPerfModel;
use cds_repro::engine::multi::{engine_resource_usage, MultiEngine};
use cds_repro::engine::prelude::*;
use cds_repro::power::{options_per_watt, CpuPowerModel, FpgaPowerModel};
use cds_repro::quant::prelude::*;
use dataflow_sim::resource::Device;

const BATCH: usize = 1024;

fn main() {
    let market = MarketData::paper_workload(42);
    let options = PortfolioGenerator::uniform(BATCH, 5.5, PaymentFrequency::Quarterly, 0.40);

    // Resource fit: how many engines does the U280 take?
    let device = Device::alveo_u280();
    let config = EngineVariant::Vectorised.config();
    let per_engine = engine_resource_usage(&config, market.hazard.len());
    let max = MultiEngine::max_engines(&market, &config, &device);
    println!("one vectorised engine uses:");
    println!(
        "  {} LUTs, {} DSPs, {} URAM blocks",
        per_engine.luts, per_engine.dsps, per_engine.uram
    );
    println!("=> {max} engines fit on the {} (paper: five)\n", device.name);

    let cpu_perf = CpuPerfModel::xeon_8260m();
    let cpu_power = CpuPowerModel::xeon_8260m();
    let fpga_power = FpgaPowerModel::alveo_u280_cds();

    println!(
        "{:<22} {:>14} {:>10} {:>12} {:>10}",
        "configuration", "options/s", "Watts", "opts/Watt", "vs CPU"
    );
    println!("{}", "-".repeat(74));

    let cpu_rate = cpu_perf.options_per_second(24);
    let cpu_watts = cpu_power.watts(24);
    let cpu_eff = options_per_watt(cpu_rate, cpu_watts);
    println!(
        "{:<22} {:>14.2} {:>10.2} {:>12.2} {:>10}",
        "24-core Xeon 8260M", cpu_rate, cpu_watts, cpu_eff, "1.00x"
    );

    for n in 1..=max {
        let multi = MultiEngine::new(market.clone(), n).expect("validated engine count");
        let report = multi.price_batch(&options).expect("continuous engines");
        let watts = fpga_power.watts(n as u32);
        let eff = options_per_watt(report.options_per_second, watts);
        println!(
            "{:<22} {:>14.2} {:>10.2} {:>12.2} {:>9.2}x",
            format!("{n} FPGA engine{}", if n == 1 { "" } else { "s" }),
            report.options_per_second,
            watts,
            eff,
            report.options_per_second / cpu_rate,
        );
    }

    let five = MultiEngine::new(market.clone(), max)
        .unwrap()
        .price_batch(&options)
        .expect("continuous engines");
    println!(
        "\nat {max} engines the FPGA delivers {:.2}x the CPU's throughput while drawing {:.1}x less power",
        five.options_per_second / cpu_rate,
        cpu_watts / fpga_power.watts(max as u32),
    );
    println!(
        "power efficiency advantage: {:.2}x options/Watt (paper: around seven times)",
        options_per_watt(five.options_per_second, fpga_power.watts(max as u32)) / cpu_eff,
    );

    println!("\ncross-checks at {max} engines:");

    // The paper's §V further work: single-precision engines.
    let mut f32_config = EngineVariant::Vectorised.config();
    f32_config.precision = cds_repro::engine::config::EnginePrecision::Single;
    let max32 = MultiEngine::max_engines(&market, &f32_config, &device);
    let f32_multi =
        MultiEngine::with_config(market, f32_config, device, max32).expect("f32 engines fit");
    let f32_report = f32_multi.price_batch(&options).expect("continuous engines");
    println!(
        "  f32 further work      : {:>12.2} opts/s on {max32} engines ({:.2}x the f64 deployment)",
        f32_report.options_per_second,
        f32_report.options_per_second / five.options_per_second,
    );
}
