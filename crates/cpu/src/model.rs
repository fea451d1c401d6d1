//! Calibrated Cascade Lake performance model.
//!
//! The paper's CPU rows were measured on a 24-core Xeon Platinum 8260M,
//! which is not available here. [`CpuPerfModel`] reproduces those rows
//! from two fitted constants (DESIGN.md substitution ledger):
//!
//! * single-core throughput — Table I: 8738.92 options/s;
//! * a contention-saturation scaling curve `S(n) = n / (1 + (n−1)·f)`
//!   with `f = 0.0767`, which reproduces the paper's observation that
//!   "we have increased the core count by 24 times but the performance
//!   only increases by around nine times" (75823.77 / 8738.92 ≈ 8.68×).
//!
//! The saturation form models shared memory-bandwidth/LLC contention,
//! the same qualitative behaviour the real multi-threaded engine in
//! [`crate::parallel`] exhibits on the host.

/// Calibrated CPU throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPerfModel {
    /// Single-core options/second on the reference workload (1024-entry
    /// curves, ≈5.5y quarterly options).
    pub single_core_rate: f64,
    /// Contention factor `f` of the saturation curve.
    pub contention: f64,
    /// Cores on the socket.
    pub cores: u32,
}

impl CpuPerfModel {
    /// The paper's Xeon Platinum (Cascade Lake) 8260M.
    pub fn xeon_8260m() -> Self {
        CpuPerfModel { single_core_rate: 8738.92, contention: 0.0767, cores: 24 }
    }

    /// Parallel speedup over one core at `n` cores.
    pub fn speedup(&self, n: u32) -> f64 {
        assert!(n >= 1 && n <= self.cores, "core count out of range");
        n as f64 / (1.0 + (n - 1) as f64 * self.contention)
    }

    /// Modelled throughput with `n` active cores.
    pub fn options_per_second(&self, n: u32) -> f64 {
        self.single_core_rate * self.speedup(n)
    }

    /// Seconds to price a batch of `options` options on `n` cores.
    pub fn batch_seconds(&self, options: u64, n: u32) -> f64 {
        options as f64 / self.options_per_second(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_matches_table1() {
        let m = CpuPerfModel::xeon_8260m();
        assert!((m.options_per_second(1) - 8738.92).abs() < 1e-6);
    }

    #[test]
    fn full_socket_matches_table2() {
        let m = CpuPerfModel::xeon_8260m();
        let rate = m.options_per_second(24);
        assert!((rate - 75823.77).abs() / 75823.77 < 0.01, "24-core rate {rate} vs paper 75823.77");
    }

    #[test]
    fn scaling_is_sublinear_like_the_paper() {
        // "increased the core count by 24 times but the performance only
        // increases by around nine times".
        let m = CpuPerfModel::xeon_8260m();
        let s = m.speedup(24);
        assert!((8.0..9.5).contains(&s), "speedup {s}");
        // Monotone but with diminishing returns.
        let mut prev = 0.0;
        let mut prev_gain = f64::INFINITY;
        for n in 1..=24 {
            let v = m.speedup(n);
            assert!(v > prev);
            let gain = v - prev;
            assert!(gain <= prev_gain + 1e-12, "returns must diminish at n={n}");
            prev_gain = gain;
            prev = v;
        }
    }

    #[test]
    fn batch_seconds_inverse_of_rate() {
        let m = CpuPerfModel::xeon_8260m();
        let secs = m.batch_seconds(75824, 24);
        assert!((secs - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_cores_rejected() {
        let _ = CpuPerfModel::xeon_8260m().speedup(0);
    }
}
