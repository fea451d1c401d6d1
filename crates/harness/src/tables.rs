//! Table I and Table II reproduction.

use crate::workload::Workload;
use cds_cpu::CpuPerfModel;
use cds_engine::multi::MultiEngine;
use cds_engine::prelude::*;
use cds_power::{options_per_watt, CpuPowerModel, FpgaPowerModel};

/// One row of the Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Row label, matching the paper.
    pub description: String,
    /// Our measured/simulated options per second.
    pub measured: f64,
    /// The paper's published options per second.
    pub paper: f64,
}

/// Full Table I data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Ratio of a row's measured rate to the baseline engine's. `NaN`
    /// when either row is absent, so a renamed row shows up as a bad
    /// number in the table rather than a crash.
    pub fn speedup_over_baseline(&self, description: &str) -> f64 {
        let find = |needle: &str| self.rows.iter().find(|r| r.description.contains(needle));
        match (find("Xilinx"), find(description)) {
            (Some(base), Some(row)) => row.measured / base.measured,
            _ => f64::NAN,
        }
    }
}

/// Reproduce Table I: CPU single core, Xilinx library engine and the
/// three optimised engines, in options/second.
pub fn table1(workload: &Workload) -> Table1 {
    let cpu = CpuPerfModel::xeon_8260m();
    let mut rows = vec![Table1Row {
        description: "Xeon Platinum CPU core".to_string(),
        measured: cpu.options_per_second(1),
        paper: 8738.92,
    }];
    for variant in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(workload.market.clone(), variant.config());
        let report = engine.price_batch(&workload.options);
        rows.push(Table1Row {
            description: variant.paper_label().to_string(),
            measured: report.options_per_second,
            paper: variant.paper_options_per_second(),
        });
    }
    Table1 { rows }
}

/// One row of the Table II reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Row label, matching the paper.
    pub description: String,
    /// Measured/simulated options per second.
    pub measured_rate: f64,
    /// Modelled power draw in Watts.
    pub watts: f64,
    /// Power efficiency in options/Watt.
    pub options_per_watt: f64,
    /// The paper's published (rate, watts, options/Watt).
    pub paper: (f64, f64, f64),
}

/// Full Table II data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Rows in the paper's order: 24-core CPU then 1/2/5 engines.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// FPGA(5 engines) / CPU(24 cores) performance ratio (paper ≈1.55×).
    /// `NaN` on an empty table.
    pub fn fpga_vs_cpu_performance(&self) -> f64 {
        self.rows.last().map_or(f64::NAN, |last| last.measured_rate / self.rows[0].measured_rate)
    }

    /// CPU / FPGA(5) power ratio (paper ≈4.7×). `NaN` on an empty table.
    pub fn power_ratio(&self) -> f64 {
        self.rows.last().map_or(f64::NAN, |last| self.rows[0].watts / last.watts)
    }

    /// FPGA(5) / CPU efficiency ratio (paper ≈7×). `NaN` on an empty
    /// table.
    pub fn efficiency_ratio(&self) -> f64 {
        self.rows
            .last()
            .map_or(f64::NAN, |last| last.options_per_watt / self.rows[0].options_per_watt)
    }
}

/// Reproduce Table II: 24-core CPU versus one, two and five FPGA engines,
/// with power and efficiency columns.
pub fn table2(workload: &Workload) -> Table2 {
    let cpu_perf = CpuPerfModel::xeon_8260m();
    let cpu_power = CpuPowerModel::xeon_8260m();
    let fpga_power = FpgaPowerModel::alveo_u280_cds();

    let cpu_rate = cpu_perf.options_per_second(24);
    let cpu_watts = cpu_power.watts(24);
    let mut rows = vec![Table2Row {
        description: "24 core Xeon CPU".to_string(),
        measured_rate: cpu_rate,
        watts: cpu_watts,
        options_per_watt: options_per_watt(cpu_rate, cpu_watts),
        paper: (75823.77, 175.39, 432.31),
    }];
    let paper_fpga = [
        (1usize, 27675.67, 35.86, 771.77),
        (2, 53763.86, 35.79, 1502.20),
        (5, 114115.92, 37.38, 3052.86),
    ];
    for (n, p_rate, p_watts, p_eff) in paper_fpga {
        let multi = match MultiEngine::new(workload.market.clone(), n) {
            Ok(m) => m,
            Err(e) => panic!("paper-validated engine count {n} must fit the U280: {e}"),
        };
        // All N engines instantiated concurrently in one discrete-event
        // simulation; the makespan emerges from the simulator.
        let report = multi
            .price_batch(&workload.options)
            .unwrap_or_else(|e| panic!("the vectorised deployment must price: {e}"));
        let watts = fpga_power.watts(n as u32);
        rows.push(Table2Row {
            description: format!("{n} FPGA engine{}", if n == 1 { "" } else { "s" }),
            measured_rate: report.options_per_second,
            watts,
            options_per_watt: options_per_watt(report.options_per_second, watts),
            paper: (p_rate, p_watts, p_eff),
        });
    }
    Table2 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> Workload {
        Workload::paper(7, 96)
    }

    #[test]
    fn table1_shape_and_ordering() {
        let t = table1(&small_workload());
        assert_eq!(t.rows.len(), 5);
        // Paper ordering of wins: baseline < CPU core < optimised <
        // inter-option < vectorised.
        let rate =
            |needle: &str| t.rows.iter().find(|r| r.description.contains(needle)).unwrap().measured;
        assert!(rate("Xilinx") < rate("CPU core"));
        assert!(rate("CPU core") > rate("Optimised"));
        assert!(rate("Optimised") < rate("inter-options"));
        assert!(rate("inter-options") < rate("Vectorisation"));
        assert!(rate("Vectorisation") > rate("CPU core"));
    }

    #[test]
    fn table1_within_paper_bands() {
        // DESIGN.md §4 acceptance bands for the speedup ladder.
        let t = table1(&small_workload());
        let s_opt = t.speedup_over_baseline("Optimised");
        let s_inter = t.speedup_over_baseline("inter-options");
        let s_vec = t.speedup_over_baseline("Vectorisation");
        assert!((1.7..2.7).contains(&s_opt), "optimised/xilinx {s_opt}");
        assert!((1.4..2.2).contains(&(s_inter / s_opt)), "inter/opt {}", s_inter / s_opt);
        assert!((1.6..2.5).contains(&(s_vec / s_inter)), "vec/inter {}", s_vec / s_inter);
        assert!((6.0..10.0).contains(&s_vec), "vec/xilinx {s_vec}");
    }

    #[test]
    fn table2_headline_ratios() {
        let t = table2(&small_workload());
        assert_eq!(t.rows.len(), 4);
        assert!(
            (1.2..1.8).contains(&t.fpga_vs_cpu_performance()),
            "{}",
            t.fpga_vs_cpu_performance()
        );
        assert!((4.2..5.2).contains(&t.power_ratio()), "{}", t.power_ratio());
        assert!((5.5..8.5).contains(&t.efficiency_ratio()), "{}", t.efficiency_ratio());
    }

    #[test]
    fn table2_power_column_matches_paper_closely() {
        let t = table2(&small_workload());
        for row in &t.rows {
            let (_, p_watts, _) = row.paper;
            assert!(
                (row.watts - p_watts).abs() / p_watts < 0.02,
                "{}: {} vs {}",
                row.description,
                row.watts,
                p_watts
            );
        }
    }
}
