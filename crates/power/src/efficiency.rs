//! Power-efficiency metrics: the options/Watt comparison of Table II.

use crate::cpu::CpuPowerModel;
use crate::fpga::FpgaPowerModel;

/// Options per Watt — the paper's power-efficiency metric.
pub fn options_per_watt(options_per_second: f64, watts: f64) -> f64 {
    assert!(watts > 0.0, "power must be positive");
    options_per_second / watts
}

/// Side-by-side CPU vs FPGA comparison (the paper's §IV summary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyComparison {
    /// CPU throughput in options/second.
    pub cpu_rate: f64,
    /// CPU power in Watts.
    pub cpu_watts: f64,
    /// FPGA throughput in options/second.
    pub fpga_rate: f64,
    /// FPGA power in Watts.
    pub fpga_watts: f64,
}

impl EfficiencyComparison {
    /// Build from the two power models and measured rates.
    pub fn new(
        cpu_rate: f64,
        cpu_cores: u32,
        fpga_rate: f64,
        fpga_engines: u32,
        cpu_model: &CpuPowerModel,
        fpga_model: &FpgaPowerModel,
    ) -> Self {
        EfficiencyComparison {
            cpu_rate,
            cpu_watts: cpu_model.watts(cpu_cores),
            fpga_rate,
            fpga_watts: fpga_model.watts(fpga_engines),
        }
    }

    /// FPGA performance relative to the CPU (paper: ≈1.55× at 5 engines).
    pub fn performance_ratio(&self) -> f64 {
        self.fpga_rate / self.cpu_rate
    }

    /// How many times less power the FPGA draws (paper: ≈4.7×).
    pub fn power_ratio(&self) -> f64 {
        self.cpu_watts / self.fpga_watts
    }

    /// FPGA power-efficiency advantage in options/Watt (paper: ≈7×).
    pub fn efficiency_ratio(&self) -> f64 {
        options_per_watt(self.fpga_rate, self.fpga_watts)
            / options_per_watt(self.cpu_rate, self.cpu_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_efficiency_reproduced_from_paper_numbers() {
        // Using the paper's own measured rates, our fitted power models
        // must reproduce its options/Watt column.
        let cases = [(27675.67, 1u32, 771.77), (53763.86, 2, 1502.20), (114115.92, 5, 3052.86)];
        let fpga = FpgaPowerModel::alveo_u280_cds();
        for (rate, engines, expect) in cases {
            let got = options_per_watt(rate, fpga.watts(engines));
            let err = (got - expect).abs() / expect;
            assert!(err < 0.02, "{engines} engines: {got} vs paper {expect}");
        }
        let cpu = CpuPowerModel::xeon_8260m();
        let got = options_per_watt(75823.77, cpu.watts(24));
        assert!((got - 432.31).abs() / 432.31 < 0.01, "CPU opts/W {got}");
    }

    #[test]
    fn headline_ratios() {
        let cmp = EfficiencyComparison::new(
            75823.77,
            24,
            114115.92,
            5,
            &CpuPowerModel::xeon_8260m(),
            &FpgaPowerModel::alveo_u280_cds(),
        );
        assert!((cmp.performance_ratio() - 1.505).abs() < 0.08, "{}", cmp.performance_ratio());
        assert!((4.2..5.2).contains(&cmp.power_ratio()), "{}", cmp.power_ratio());
        assert!((6.3..7.8).contains(&cmp.efficiency_ratio()), "{}", cmp.efficiency_ratio());
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_rejected() {
        let _ = options_per_watt(1.0, 0.0);
    }
}
