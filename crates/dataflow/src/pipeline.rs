//! Pipelined-loop timing algebra.
//!
//! HLS compiles a loop into a pipeline characterised by its **iteration
//! latency** `L` (cycles from an iteration entering to its result) and its
//! **initiation interval** `II` (cycles between consecutive iterations
//! entering). A loop with trip count `N` therefore takes
//! `L + (N − 1) · II` cycles — the formula Vitis HLS reports and the one
//! this module encodes. This closed form doubles as the analytic
//! cross-check for the discrete-event simulator.

use crate::Cycle;

/// Timing description of one pipelined loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedLoop {
    /// Iteration latency in cycles (>= 1).
    pub latency: Cycle,
    /// Initiation interval in cycles (>= 1).
    pub ii: Cycle,
}

impl PipelinedLoop {
    /// Construct, clamping both parameters to at least one cycle.
    pub const fn new(ii: Cycle, latency: Cycle) -> Self {
        PipelinedLoop {
            ii: if ii == 0 { 1 } else { ii },
            latency: if latency == 0 { 1 } else { latency },
        }
    }

    /// A fully-pipelined loop (`II = 1`) with the given latency.
    pub const fn fully_pipelined(latency: Cycle) -> Self {
        PipelinedLoop::new(1, latency)
    }

    /// The paper's dependency-chained double-add accumulation: `II =
    /// latency = 7`, "only generating a value for one of every seven
    /// cycles".
    pub const fn dependency_chained_add() -> Self {
        PipelinedLoop::new(7, 7)
    }

    /// Total cycles to execute `trip_count` iterations:
    /// `L + (N − 1) · II`, or 0 for an empty loop.
    pub fn cycles(&self, trip_count: u64) -> Cycle {
        if trip_count == 0 {
            0
        } else {
            self.latency + (trip_count - 1) * self.ii
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_iteration_costs_latency() {
        let l = PipelinedLoop::new(1, 9);
        assert_eq!(l.cycles(1), 9);
    }

    #[test]
    fn empty_loop_is_free() {
        assert_eq!(PipelinedLoop::new(3, 8).cycles(0), 0);
    }

    #[test]
    fn fully_pipelined_is_latency_plus_n_minus_one() {
        let l = PipelinedLoop::fully_pipelined(7);
        assert_eq!(l.cycles(100), 7 + 99);
    }

    #[test]
    fn dependency_chained_add_matches_paper() {
        // "the pipelined loop had an II of seven": one value per 7 cycles.
        let l = PipelinedLoop::dependency_chained_add();
        assert_eq!(l.cycles(1024), 7 + 1023 * 7);
    }

    #[test]
    fn listing1_speedup_is_about_seven() {
        // Breaking the dependency (II 7 → 1) speeds the long accumulation
        // by ~7× — the basis of the paper's optimised hazard stage.
        let naive = PipelinedLoop::dependency_chained_add();
        let fixed = PipelinedLoop::fully_pipelined(7);
        let n = 1024;
        let speedup = naive.cycles(n) as f64 / fixed.cycles(n) as f64;
        assert!(speedup > 6.5 && speedup <= 7.0, "speedup {speedup}");
    }

    #[test]
    fn clamping() {
        let l = PipelinedLoop::new(0, 0);
        assert_eq!(l.ii, 1);
        assert_eq!(l.latency, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cycles_monotone_in_trip_count(ii in 1u64..16, lat in 1u64..32, n in 0u64..1000) {
            let l = PipelinedLoop::new(ii, lat);
            prop_assert!(l.cycles(n + 1) > l.cycles(n) || n == 0 && l.cycles(1) >= l.cycles(0));
        }

        #[test]
        fn lower_ii_never_slower(ii in 2u64..16, lat in 1u64..32, n in 1u64..1000) {
            let slow = PipelinedLoop::new(ii, lat);
            let fast = PipelinedLoop::new(ii - 1, lat);
            prop_assert!(fast.cycles(n) <= slow.cycles(n));
        }
    }
}
