//! The process model shared by both simulator schedulers.
//!
//! A *process* is one concurrently-running dataflow function (a black box
//! of the paper's Figure 2). The scheduler repeatedly calls
//! [`Process::step`]; the process reads its input streams, performs work,
//! writes its outputs and reports when it next needs CPU time. All timing
//! behaviour — initiation intervals, operation latencies, stalls on
//! empty/full streams — is expressed through the returned
//! [`ProcessStatus`] and the cycle stamps on stream tokens.

use crate::stream::StreamId;
use crate::Cycle;

/// What a process tells the scheduler after a `step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessStatus {
    /// The process has (or will have) work at the given absolute cycle;
    /// run it again then. Used both for "busy until" (an inner pipelined
    /// loop is executing) and "input token arrives at cycle X".
    Continue(Cycle),
    /// The process cannot make progress until *another* process acts
    /// (empty input with no in-flight token, or full output). The
    /// scheduler re-runs it after any other process makes progress.
    Blocked,
    /// The process has completed all its work for this invocation.
    Done,
}

/// Cost of producing one output token, in cycles.
///
/// `ii` is the initiation interval — how long the stage is occupied before
/// it can accept the next input. `latency` is how long until the produced
/// token is visible downstream. A pipelined stage has `ii < latency`
/// (new inputs enter while earlier ones are still in flight); the
/// dependency-chained hazard accumulation of the paper has `ii = latency
/// = 7`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Initiation interval in cycles (>= 1).
    pub ii: Cycle,
    /// Output latency in cycles (>= 1).
    pub latency: Cycle,
}

impl Cost {
    /// Construct a cost; both components are clamped to at least one
    /// cycle.
    pub const fn new(ii: Cycle, latency: Cycle) -> Self {
        Cost { ii: if ii == 0 { 1 } else { ii }, latency: if latency == 0 { 1 } else { latency } }
    }

    /// A fully-pipelined single-cycle operation.
    pub const UNIT: Cost = Cost::new(1, 1);
}

/// One dataflow function. Implementations are state machines: each `step`
/// does as much as possible at cycle `now` and reports what it is waiting
/// for.
pub trait Process {
    /// Stable display name (used in reports, traces and DOT output).
    fn name(&self) -> &str;

    /// Advance the process at cycle `now`.
    fn step(&mut self, now: Cycle) -> ProcessStatus;

    /// Streams this process reads (for topology export and diagnostics).
    fn inputs(&self) -> Vec<StreamId> {
        Vec::new()
    }

    /// Streams this process writes.
    fn outputs(&self) -> Vec<StreamId> {
        Vec::new()
    }

    /// True when the process may be treated as complete once the rest of
    /// the graph has finished and no tokens remain in flight. Passive
    /// sinks (no expected token count) and stateless pass-through stages
    /// return true; anything holding partial work must return false so
    /// genuine deadlocks are reported.
    fn can_finish(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_clamps_zero_components() {
        let c = Cost::new(0, 0);
        assert_eq!(c.ii, 1);
        assert_eq!(c.latency, 1);
    }

    #[test]
    fn unit_cost() {
        assert_eq!(Cost::UNIT, Cost::new(1, 1));
    }

    #[test]
    fn status_equality() {
        assert_eq!(ProcessStatus::Continue(5), ProcessStatus::Continue(5));
        assert_ne!(ProcessStatus::Continue(5), ProcessStatus::Blocked);
        assert_ne!(ProcessStatus::Blocked, ProcessStatus::Done);
    }
}
