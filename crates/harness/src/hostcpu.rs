//! Real host-CPU measurement.
//!
//! The Cascade Lake rows of Tables I/II come from the calibrated
//! [`cds_cpu::CpuPerfModel`]; this module additionally *measures* the real
//! CPU engine on the machine the harness runs on, demonstrating the same
//! qualitative sub-linear thread scaling the paper observed. Each thread
//! count is timed by the harness's one sampler, [`crate::sampler::rate`]:
//! the quiet pass of several after a warm-up, not one cold pass.

use crate::sampler::{rate, DEFAULT_MIN_SAMPLE};
use crate::workload::Workload;
use cds_cpu::engine::CpuCdsEngine;
use cds_cpu::parallel::price_parallel;

/// One measured point of host CPU scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct HostCpuRow {
    /// Threads used.
    pub threads: usize,
    /// Measured options/second on this machine.
    pub options_per_second: f64,
    /// Speedup over one thread.
    pub speedup: f64,
}

/// Measure the host CPU engine at the given thread counts.
pub fn host_report(workload: &Workload, thread_counts: &[usize]) -> Vec<HostCpuRow> {
    let engine = CpuCdsEngine::new(&workload.market);
    let mut rows = Vec::new();
    let mut single = None;
    for &threads in thread_counts {
        let pass = || price_parallel(&engine, &workload.options, threads).len();
        let options_per_second = rate(pass, DEFAULT_MIN_SAMPLE);
        let base = *single.get_or_insert(options_per_second);
        rows.push(HostCpuRow { threads, options_per_second, speedup: options_per_second / base });
    }
    rows
}

/// Number of hardware threads available on this host.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_measurement_produces_positive_rates() {
        let workload = Workload::paper(3, 256);
        let rows = host_report(&workload, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.options_per_second > 0.0));
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallelism_detected() {
        assert!(host_parallelism() >= 1);
    }
}
