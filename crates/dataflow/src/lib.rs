//! # dataflow-sim — a simulator of Vitis-HLS dataflow hardware
//!
//! The CLUSTER 2021 CDS paper's results are produced by an FPGA kernel
//! built from three HLS constructs: **pipelined loops** (characterised by
//! an initiation interval and a latency), **dataflow regions** (functions
//! running concurrently, with start/stop overhead per invocation) and
//! **streams** (bounded FIFOs connecting them, applying backpressure when
//! full). No HLS toolchain or FPGA is available here, so this crate
//! implements those constructs as a discrete-event simulator: the paper's
//! engines run on it, producing **real numerical results** together with
//! **cycle-exact timing** under the declared cost model.
//!
//! Two schedulers share one process model:
//!
//! * [`event_sim::EventSim`] — an event-driven scheduler that advances time
//!   to the next interesting cycle (fast; the default), and
//! * [`cycle_sim::CycleSim`] — a naive cycle-by-cycle reference scheduler,
//!   cross-validated against the event simulator by property tests.
//!
//! Supporting models: [`resource`] (Alveo U280 LUT/DSP/RAM budget and fit
//! checking), [`clock`] (cycles → seconds), [`hbm`] (512-bit external
//! memory access and PCIe transfer), [`pipeline`] (pipelined-loop timing
//! algebra), [`region`] (dataflow-region invocation overhead) and
//! [`graph`] (topology description + Graphviz DOT export used to
//! regenerate the paper's Figures 1–3), plus [`trace`] (per-stage busy
//! spans and the run counters the engines report).
//!
//! A graph is processes, streams and one invocation, as in the HLS
//! dataflow template: `run` consumes the scheduler, so a built graph runs
//! once. Re-invoking a region (the paper's per-option engine restarts it
//! for every option) means building a fresh graph, and the restart's
//! control overhead is charged by [`region::RegionCost`].
//!
//! ```
//! use dataflow_sim::prelude::*;
//!
//! // A single-stage pipeline: a source feeding a collecting sink.
//! let mut g = GraphBuilder::new();
//! let (tx, rx) = g.stream::<f64>("values", 4);
//! g.add(SourceStage::new("src", (0..8).map(|i| i as f64).collect(), Cost::new(1, 1), tx));
//! let sink = g.add_collecting_sink("sink", rx);
//! let report = EventSim::new(g).run().unwrap();
//! assert_eq!(sink.values().len(), 8);
//! assert!(report.total_cycles > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
pub mod cycle_sim;
pub mod event_sim;
pub mod fault;
pub mod graph;
pub mod hbm;
pub mod pipeline;
pub mod process;
pub mod region;
pub mod resource;
pub mod stages;
pub mod stream;
pub mod trace;
pub mod vector;

/// Cycle count / timestamp within a simulation.
pub type Cycle = u64;

/// Convenient glob import.
pub mod prelude {
    pub use crate::clock::ClockModel;
    pub use crate::cycle_sim::CycleSim;
    pub use crate::event_sim::EventSim;
    pub use crate::fault::{FaultCounters, FaultEvent, FaultKind, FaultPlan};
    pub use crate::graph::{GraphBuilder, SimError, SimReport};
    pub use crate::hbm::{MemoryModel, PcieModel};
    pub use crate::pipeline::PipelinedLoop;
    pub use crate::process::{Cost, Process, ProcessStatus};
    pub use crate::region::{RegionCost, RegionMode};
    pub use crate::resource::{Device, ResourceUsage};
    pub use crate::stages::{MapStage, SinkStage, SourceStage, ZipStage};
    pub use crate::stream::{StreamReceiver, StreamSender};
    pub use crate::trace::{Counters, TraceRecorder};
    pub use crate::vector::{RoundRobinMerge, RoundRobinSplit};
    pub use crate::Cycle;
}
