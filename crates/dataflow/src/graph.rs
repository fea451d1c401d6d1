//! Dataflow graph construction, simulation reports, and Graphviz export.
//!
//! [`GraphBuilder`] assembles processes and the streams connecting them;
//! either scheduler ([`crate::event_sim::EventSim`] or
//! [`crate::cycle_sim::CycleSim`]) then executes the graph. The builder
//! also knows the full topology (from [`Process::inputs`] /
//! [`Process::outputs`]), which powers the DOT export used to regenerate
//! the paper's architecture figures.

use crate::fault::{FaultCounters, FaultEvent, FaultPlan, SharedFaults};
use crate::process::Process;
use crate::stages::{SinkHandle, SinkStage};
use crate::stream::{stream_pair_with_faults, StreamId, StreamReceiver, StreamSender, StreamStats};
use crate::Cycle;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Index of a process within its graph.
pub type Pid = usize;

/// The components a scheduler takes over from a builder.
pub(crate) type GraphParts = (
    Vec<Box<dyn Process>>,
    Vec<Rc<RefCell<dyn StreamStats>>>,
    Rc<Cell<u64>>,
    Vec<String>,
    Option<(FaultPlan, SharedFaults)>,
);

/// Builder for a dataflow graph.
pub struct GraphBuilder {
    version: Rc<Cell<u64>>,
    stream_stats: Vec<Rc<RefCell<dyn StreamStats>>>,
    stream_names: Vec<String>,
    processes: Vec<Box<dyn Process>>,
    faults: Option<(FaultPlan, SharedFaults)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// New empty graph.
    pub fn new() -> Self {
        GraphBuilder {
            version: Rc::new(Cell::new(0)),
            stream_stats: Vec::new(),
            stream_names: Vec::new(),
            processes: Vec::new(),
            faults: None,
        }
    }

    /// Install a fault-injection plan. Must be called before any stream
    /// is created, so every stream the plan targets gets its hooks.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.stream_stats.is_empty(),
            "set_fault_plan must be called before any stream is created"
        );
        let shared = plan.runtime();
        self.faults = Some((plan, shared));
    }

    /// Create a stream of the given FIFO depth, returning both endpoints.
    pub fn stream<T: 'static>(
        &mut self,
        name: impl Into<String>,
        depth: usize,
    ) -> (StreamSender<T>, StreamReceiver<T>) {
        let id: StreamId = self.stream_stats.len();
        let name = name.into();
        let hooks =
            self.faults.as_ref().and_then(|(plan, shared)| plan.hooks_for::<T>(&name, shared));
        let (tx, rx, stats) =
            stream_pair_with_faults(id, name.clone(), depth, self.version.clone(), hooks);
        self.stream_stats.push(stats);
        self.stream_names.push(name);
        (tx, rx)
    }

    /// Add a process to the graph.
    pub fn add<P: Process + 'static>(&mut self, process: P) -> Pid {
        self.processes.push(Box::new(process));
        self.processes.len() - 1
    }

    /// Convenience: attach a passive collecting sink (consumes one token
    /// per cycle, finishes when its producers do).
    pub fn add_collecting_sink<T: 'static>(
        &mut self,
        name: impl Into<String>,
        rx: StreamReceiver<T>,
    ) -> SinkHandle<T> {
        let (stage, handle) = SinkStage::new(name, rx, 1, None);
        self.add(stage);
        handle
    }

    /// Convenience: attach a counting sink that completes after `n`
    /// tokens.
    pub fn add_counted_sink<T: 'static>(
        &mut self,
        name: impl Into<String>,
        rx: StreamReceiver<T>,
        n: u64,
    ) -> SinkHandle<T> {
        let (stage, handle) = SinkStage::new(name, rx, 1, Some(n));
        self.add(stage);
        handle
    }

    /// Number of processes added so far.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Render the graph topology as Graphviz DOT (used for the paper's
    /// Figures 1–3).
    pub fn to_dot(&self, title: &str) -> String {
        let mut dot = String::new();
        dot.push_str("digraph dataflow {\n");
        dot.push_str(&format!("  label=\"{title}\";\n"));
        dot.push_str("  rankdir=LR;\n  node [shape=box, style=rounded];\n");
        for (pid, p) in self.processes.iter().enumerate() {
            dot.push_str(&format!("  p{pid} [label=\"{}\"];\n", p.name()));
        }
        // Edge per stream: find its producer and consumer processes.
        for sid in 0..self.stream_stats.len() {
            let producer = self.processes.iter().position(|p| p.outputs().contains(&sid));
            let consumer = self.processes.iter().position(|p| p.inputs().contains(&sid));
            if let (Some(a), Some(b)) = (producer, consumer) {
                dot.push_str(&format!("  p{a} -> p{b} [label=\"{}\"];\n", self.stream_names[sid]));
            }
        }
        dot.push_str("}\n");
        dot
    }

    /// Decompose into the parts a scheduler needs.
    pub(crate) fn into_parts(self) -> GraphParts {
        (self.processes, self.stream_stats, self.version, self.stream_names, self.faults)
    }
}

/// Snapshot of one stream's statistics after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// Stream name.
    pub name: String,
    /// FIFO depth.
    pub capacity: usize,
    /// Total tokens pushed.
    pub pushes: u64,
    /// Total tokens popped.
    pub pops: u64,
    /// Occupancy high-water mark.
    pub max_occupancy: usize,
    /// Rejected pushes (producer found the FIFO full). Like
    /// [`SimReport::events`], this counts scheduler retry effort rather
    /// than hardware cycles, so it differs between schedulers; treat it
    /// as a stall-pressure indicator.
    pub backpressure: u64,
}

/// Outcome of a successful simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Cycle at which the final process completed.
    pub total_cycles: Cycle,
    /// Number of scheduler events processed (a measure of simulation
    /// effort, not of hardware time).
    pub events: u64,
    /// Per-stream statistics.
    pub streams: Vec<StreamReport>,
    /// Faults injected during the run (all zeros without a fault plan).
    pub faults: FaultCounters,
    /// Per-token fault records (stream, push index, kind, option
    /// identity) in injection order; empty without a fault plan.
    pub fault_events: Vec<FaultEvent>,
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No process can make progress and at least one holds unfinished
    /// work: the graph is deadlocked (e.g. a stream depth too small for a
    /// reconvergent path). Contains the names of the stuck processes.
    Deadlock {
        /// Names of the processes that still hold work.
        stuck: Vec<String>,
    },
    /// The event budget was exhausted — almost certainly a live-lock in a
    /// process implementation.
    Runaway {
        /// The budget that was exceeded.
        events: u64,
    },
    /// The graph is mis-wired: a stream lacks a producer or consumer, or
    /// has several of either — the moral equivalent of an unconnected HLS
    /// stream port, which Vitis rejects at synthesis.
    InvalidTopology {
        /// Human-readable description of each wiring defect.
        problems: Vec<String>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { stuck } => write!(f, "dataflow deadlock; stuck: {stuck:?}"),
            SimError::Runaway { events } => write!(f, "simulation exceeded {events} events"),
            SimError::InvalidTopology { problems } => {
                write!(f, "invalid dataflow topology: {problems:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Check that every stream has exactly one producing and one consuming
/// process. Run by both schedulers before execution.
pub(crate) fn validate_topology(
    processes: &[Box<dyn Process>],
    stream_names: &[String],
) -> Result<(), SimError> {
    let n = stream_names.len();
    let mut producers = vec![0usize; n];
    let mut consumers = vec![0usize; n];
    for p in processes {
        for sid in p.outputs() {
            if sid < n {
                producers[sid] += 1;
            }
        }
        for sid in p.inputs() {
            if sid < n {
                consumers[sid] += 1;
            }
        }
    }
    let mut problems = Vec::new();
    for sid in 0..n {
        if producers[sid] != 1 {
            problems.push(format!(
                "stream '{}' has {} producers (need exactly 1)",
                stream_names[sid], producers[sid]
            ));
        }
        if consumers[sid] != 1 {
            problems.push(format!(
                "stream '{}' has {} consumers (need exactly 1)",
                stream_names[sid], consumers[sid]
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(SimError::InvalidTopology { problems })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Cost;
    use crate::stages::SourceStage;

    #[test]
    fn builder_counts() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u32>("a", 2);
        g.add(SourceStage::new("src", vec![1, 2, 3], Cost::UNIT, tx));
        let _sink = g.add_counted_sink("sink", rx, 3);
        assert_eq!(g.process_count(), 2);
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u32>("values", 2);
        g.add(SourceStage::new("src", vec![1], Cost::UNIT, tx));
        g.add_counted_sink("sink", rx, 1);
        let dot = g.to_dot("test graph");
        assert!(dot.starts_with("digraph dataflow {"));
        assert!(dot.contains("p0 [label=\"src\"]"));
        assert!(dot.contains("p1 [label=\"sink\"]"));
        assert!(dot.contains("p0 -> p1 [label=\"values\"]"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
