//! Dataflow-region invocation semantics.
//!
//! A Vitis `#pragma HLS DATAFLOW` region is a set of concurrently running
//! functions. Invoking the region costs control overhead — the `ap_start`
//! / `ap_done` handshake of each process, stream initialisation, and the
//! kernel-level start issued by the host runtime. The paper's *optimised
//! dataflow* engine pays this **per option** ("the dataflow region
//! shuts-down and restarts between options, and in addition to the
//! performance overhead of starting and stopping the dataflow region, the
//! pipelines were also continually filling and draining"); the
//! *inter-option* engine pays it **once per batch**. [`RegionCost`]
//! quantifies that overhead and [`RegionMode`] selects which regime a run
//! uses.

use crate::Cycle;

/// How a dataflow region is invoked over a batch of work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionMode {
    /// Region shut down and restarted for every option (the Xilinx
    /// library engine and the paper's first optimised engine).
    PerOption,
    /// Region runs continuously; options stream through ("we modified the
    /// engine to run continually between options").
    Continuous,
}

/// Cycle cost of starting/stopping a dataflow region once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionCost {
    /// Fixed control overhead per invocation: the kernel `ap_start` to
    /// first-useful-work distance plus the final `ap_done` collection,
    /// including the host runtime's enqueue cost, expressed in kernel
    /// cycles. Calibrated — see `DESIGN.md` §5.
    pub control_overhead: Cycle,
    /// Per-process handshake cost: each dataflow function must assert
    /// done and be restarted.
    pub per_process_overhead: Cycle,
}

impl RegionCost {
    /// Construct a region cost.
    pub const fn new(control_overhead: Cycle, per_process_overhead: Cycle) -> Self {
        RegionCost { control_overhead, per_process_overhead }
    }

    /// Total overhead of one invocation of a region with `processes`
    /// dataflow functions.
    pub fn invocation_overhead(&self, processes: usize) -> Cycle {
        self.control_overhead + self.per_process_overhead * processes as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_overhead_includes_all_processes() {
        let c = RegionCost::new(100, 6);
        assert_eq!(c.invocation_overhead(8), 100 + 48);
    }
}
