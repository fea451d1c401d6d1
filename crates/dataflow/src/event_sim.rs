//! Event-driven scheduler: advances time directly to the next cycle at
//! which any process can act.
//!
//! Semantics contract (shared with [`crate::cycle_sim::CycleSim`] and
//! enforced by cross-validation tests): *at every cycle where any process
//! can make progress, every process that can act does act, repeatedly,
//! until the cycle is quiescent*. The event simulator merely skips the
//! quiet cycles in between, using a heap of wake times; reachable activity
//! cycles are always present in the heap because every [`ProcessStatus`]
//! either names a future cycle or is woken by another process's progress.

use crate::fault::SharedFaults;
use crate::graph::{GraphBuilder, Pid, SimError, SimReport, StreamReport};
use crate::process::{Process, ProcessStatus};
use crate::stream::StreamStats;
use crate::Cycle;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Default step budget — far above any legitimate engine run, so hitting
/// it indicates a live-locked process implementation.
pub const DEFAULT_MAX_EVENTS: u64 = 4_000_000_000;

/// Event-driven simulator over a built graph.
pub struct EventSim {
    processes: Vec<Box<dyn Process>>,
    streams: Vec<Rc<RefCell<dyn StreamStats>>>,
    stream_names: Vec<String>,
    version: Rc<Cell<u64>>,
    max_events: u64,
    faults: Option<SharedFaults>,
}

impl EventSim {
    /// Take ownership of a graph for execution.
    pub fn new(graph: GraphBuilder) -> Self {
        let (processes, streams, version, stream_names, faults) = graph.into_parts();
        EventSim {
            processes,
            streams,
            stream_names,
            version,
            max_events: DEFAULT_MAX_EVENTS,
            faults: faults.map(|(_, shared)| shared),
        }
    }

    /// Override the runaway-protection step budget.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Run the graph to completion. Consumes the simulator: a built
    /// graph runs once, and a fresh region invocation is a fresh graph.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        crate::graph::validate_topology(&self.processes, &self.stream_names)?;
        let n = self.processes.len();
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(Cycle, Pid)>> = BinaryHeap::new();
        // Most recent wake time queued per process: a busy process
        // re-reports the same `Continue(t)` on every fixpoint pass, so
        // dedupe to keep the heap small. Spurious (stale) entries are
        // harmless: stepping an idle process is a no-op.
        let mut last_queued: Vec<Cycle> = vec![Cycle::MAX; n];
        let mut now: Cycle = 0;
        let mut events: u64 = 0;
        let mut last_activity: Cycle = 0;

        // Resolve planned region deaths to process sets once, in cycle
        // order; `next_death` indexes the first not-yet-applied one.
        let deaths: Vec<(Cycle, Vec<Pid>)> = match &self.faults {
            None => Vec::new(),
            Some(shared) => {
                let state = shared.borrow();
                let mut deaths: Vec<(Cycle, Vec<Pid>)> = state
                    .deaths
                    .iter()
                    .map(|d| {
                        let pids = (0..n)
                            .filter(|&pid| self.processes[pid].name().starts_with(&d.prefix))
                            .collect();
                        (d.at_cycle, pids)
                    })
                    .collect();
                deaths.sort_by_key(|&(at, _)| at);
                deaths
            }
        };
        let mut next_death = 0usize;

        loop {
            // Apply any region death due at or before the current cycle:
            // every process of the region halts where it stands.
            while next_death < deaths.len() && deaths[next_death].0 <= now {
                for &pid in &deaths[next_death].1 {
                    done[pid] = true;
                }
                if let Some(shared) = &self.faults {
                    shared.borrow_mut().counters.region_deaths += 1;
                }
                next_death += 1;
            }

            // Fixpoint at the current cycle: step every non-done process
            // until the cycle is quiescent.
            loop {
                let before = self.version.get();
                let mut rerun_at_now = false;
                #[allow(clippy::needless_range_loop)] // pid indexes done/processes/last_queued
                for pid in 0..n {
                    if done[pid] {
                        continue;
                    }
                    events += 1;
                    if events > self.max_events {
                        return Err(SimError::Runaway { events: self.max_events });
                    }
                    match self.processes[pid].step(now) {
                        ProcessStatus::Done => {
                            done[pid] = true;
                        }
                        ProcessStatus::Continue(t) => {
                            if t <= now {
                                rerun_at_now = true;
                            } else if last_queued[pid] != t {
                                heap.push(Reverse((t, pid)));
                                last_queued[pid] = t;
                            }
                        }
                        ProcessStatus::Blocked => {}
                    }
                }
                if self.version.get() == before && !rerun_at_now {
                    break;
                }
                last_activity = if self.version.get() != before { now } else { last_activity };
            }

            if done.iter().all(|&d| d) {
                return Ok(self.report(last_activity, events));
            }

            // Advance to the next scheduled wake (skipping stale entries
            // for processes that have since completed).
            let mut next: Option<Cycle> = None;
            while let Some(&Reverse((t, pid))) = heap.peek() {
                if done[pid] || t <= now {
                    heap.pop();
                    continue;
                }
                next = Some(t);
                break;
            }
            let pending_death = deaths.get(next_death).map(|&(at, _)| at);
            match (next, pending_death) {
                (Some(t), Some(d)) => now = t.min(d),
                (Some(t), None) => now = t,
                (None, Some(d)) => now = d,
                (None, None) => {
                    // Nothing scheduled: finish if all remaining work is
                    // passively completable, else report the deadlock.
                    let all_streams_empty =
                        self.streams.iter().all(|s| s.borrow().occupancy() == 0);
                    let stuck: Vec<String> = (0..n)
                        .filter(|&pid| !done[pid] && !self.processes[pid].can_finish())
                        .map(|pid| self.processes[pid].name().to_string())
                        .collect();
                    if stuck.is_empty() && all_streams_empty {
                        return Ok(self.report(last_activity, events));
                    }
                    // Under an active fault plan, stranded work is the
                    // *expected* consequence of injected faults: terminate
                    // gracefully so the engine layer can recover.
                    let faults_applied =
                        self.faults.as_ref().is_some_and(|s| s.borrow().counters.any());
                    if faults_applied {
                        return Ok(self.report(last_activity, events));
                    }
                    let stuck = if stuck.is_empty() {
                        (0..n)
                            .filter(|&pid| !done[pid])
                            .map(|pid| self.processes[pid].name().to_string())
                            .collect()
                    } else {
                        stuck
                    };
                    return Err(SimError::Deadlock { stuck });
                }
            }
        }
    }

    fn report(&self, total_cycles: Cycle, events: u64) -> SimReport {
        SimReport {
            total_cycles,
            events,
            faults: self.faults.as_ref().map(|s| s.borrow().counters).unwrap_or_default(),
            fault_events: self
                .faults
                .as_ref()
                .map(|s| s.borrow().events.clone())
                .unwrap_or_default(),
            streams: self
                .streams
                .iter()
                .map(|s| {
                    let s = s.borrow();
                    StreamReport {
                        name: s.name().to_string(),
                        capacity: s.capacity(),
                        pushes: s.pushes(),
                        pops: s.pops(),
                        max_occupancy: s.max_occupancy(),
                        backpressure: s.backpressure(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    use super::*;
    use crate::process::Cost;
    use crate::stages::{MapStage, SourceStage, ZipStage};

    #[test]
    fn source_to_sink_pipeline_timing() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("s", 4);
        g.add(SourceStage::new("src", (0..10).collect(), Cost::new(1, 1), tx));
        let sink = g.add_counted_sink("sink", rx, 10);
        let report = ok(EventSim::new(g).run());
        assert_eq!(sink.values(), (0..10).collect::<Vec<u64>>());
        // Fully pipelined: token i emitted at cycle i, visible at i+1,
        // last (i=9) consumed at cycle 10.
        assert_eq!(report.total_cycles, 10);
    }

    #[test]
    fn initiation_interval_spaces_tokens() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("s", 4);
        // II=7 source: the dependency-chained hazard accumulation.
        g.add(SourceStage::new("src", (0..4).collect(), Cost::new(7, 7), tx));
        let sink = g.add_counted_sink("sink", rx, 4);
        let report = ok(EventSim::new(g).run());
        let arrivals: Vec<Cycle> = sink.collected().iter().map(|&(_, c)| c).collect();
        assert_eq!(arrivals, vec![7, 14, 21, 28]);
        assert_eq!(report.total_cycles, 28);
    }

    #[test]
    fn map_stage_transforms_and_adds_latency() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("in", 4);
        let (tx2, rx2) = g.stream::<u64>("out", 4);
        g.add(SourceStage::new("src", (1..=5).collect(), Cost::new(1, 1), tx));
        g.add(MapStage::new("double", rx, tx2, Some(5), |v| (v * 2, Cost::new(1, 4))));
        let sink = g.add_counted_sink("sink", rx2, 5);
        ok(EventSim::new(g).run());
        assert_eq!(sink.values(), vec![2, 4, 6, 8, 10]);
    }

    #[test]
    fn backpressure_throttles_fast_producer() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("narrow", 2);
        let (tx2, rx2) = g.stream::<u64>("out", 2);
        // Fast source into a slow (II=10) consumer through a depth-2 FIFO.
        g.add(SourceStage::new("src", (0..6).collect(), Cost::new(1, 1), tx));
        g.add(MapStage::new("slow", rx, tx2, Some(6), |v| (v, Cost::new(10, 10))));
        let sink = g.add_counted_sink("sink", rx2, 6);
        let report = ok(EventSim::new(g).run());
        assert_eq!(sink.values(), (0..6).collect::<Vec<u64>>());
        // Throughput bound by the slow stage: ~6 × 10 cycles.
        assert!(report.total_cycles >= 60, "cycles = {}", report.total_cycles);
        let narrow = match report.streams.iter().find(|s| s.name == "narrow") {
            Some(s) => s,
            None => panic!("narrow stream missing from report"),
        };
        assert_eq!(narrow.max_occupancy, 2, "FIFO should have filled");
    }

    #[test]
    fn zip_waits_for_slowest_input() {
        let mut g = GraphBuilder::new();
        let (txa, rxa) = g.stream::<u64>("a", 4);
        let (txb, rxb) = g.stream::<u64>("b", 4);
        let (txo, rxo) = g.stream::<u64>("o", 4);
        g.add(SourceStage::new("fast", (0..3).collect(), Cost::new(1, 1), txa));
        g.add(SourceStage::new("slow", (0..3).collect(), Cost::new(9, 9), txb));
        g.add(ZipStage::new("add", vec![rxa, rxb], txo, Some(3), |xs| {
            (xs.iter().sum(), Cost::new(1, 1))
        }));
        let sink = g.add_counted_sink("sink", rxo, 3);
        let report = ok(EventSim::new(g).run());
        assert_eq!(sink.values(), vec![0, 2, 4]);
        // Paced by the slow input: last b token at cycle 27.
        assert!(report.total_cycles >= 27);
    }

    #[test]
    fn passive_sink_finishes_with_producers() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("s", 4);
        g.add(SourceStage::new("src", vec![1, 2, 3], Cost::new(1, 1), tx));
        let sink = g.add_collecting_sink("sink", rx);
        ok(EventSim::new(g).run());
        assert_eq!(sink.values(), vec![1, 2, 3]);
    }

    #[test]
    fn deadlock_detected_for_starved_counted_sink() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("s", 4);
        // Source provides 2 tokens but the sink expects 5.
        g.add(SourceStage::new("src", vec![1, 2], Cost::new(1, 1), tx));
        g.add_counted_sink("sink", rx, 5);
        match EventSim::new(g).run() {
            Err(SimError::Deadlock { stuck }) => assert_eq!(stuck, vec!["sink".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn runaway_guard_trips() {
        // A self-rescheduling source with an enormous workload and a tiny
        // event budget.
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("s", 4);
        g.add(SourceStage::new("src", (0..100000).collect(), Cost::new(1, 1), tx));
        g.add_counted_sink("sink", rx, 100000);
        let sim = EventSim::new(g).with_max_events(50);
        assert!(matches!(sim.run(), Err(SimError::Runaway { .. })));
    }

    #[test]
    fn stream_reports_balance() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("s", 4);
        g.add(SourceStage::new("src", (0..20).collect(), Cost::new(1, 1), tx));
        g.add_counted_sink("sink", rx, 20);
        let report = ok(EventSim::new(g).run());
        let s = &report.streams[0];
        assert_eq!(s.pushes, 20);
        assert_eq!(s.pops, 20);
        assert!(s.max_occupancy <= s.capacity);
    }
}
