//! Cycle-stepped reference scheduler.
//!
//! Executes the same process model as [`crate::event_sim::EventSim`] by
//! the most literal method possible: visit **every** cycle, and at each
//! cycle step every non-done process to a fixpoint. This is slow (cost
//! proportional to total cycles × processes) but trivially correct, and
//! exists purely to cross-validate the event-driven scheduler: property
//! tests assert both produce identical values, identical token counts and
//! identical completion cycles on randomly generated graphs.

use crate::fault::SharedFaults;
use crate::graph::{GraphBuilder, SimError, SimReport, StreamReport};
use crate::process::{Process, ProcessStatus};
use crate::stream::StreamStats;
use crate::Cycle;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Default cycle budget; the reference simulator is only meant for small
/// validation graphs.
pub const DEFAULT_MAX_CYCLES: Cycle = 50_000_000;

/// Naive cycle-by-cycle simulator over a built graph.
pub struct CycleSim {
    processes: Vec<Box<dyn Process>>,
    streams: Vec<Rc<RefCell<dyn StreamStats>>>,
    stream_names: Vec<String>,
    version: Rc<Cell<u64>>,
    max_cycles: Cycle,
    faults: Option<SharedFaults>,
}

impl CycleSim {
    /// Take ownership of a graph for execution.
    pub fn new(graph: GraphBuilder) -> Self {
        let (processes, streams, version, stream_names, faults) = graph.into_parts();
        CycleSim {
            processes,
            streams,
            stream_names,
            version,
            max_cycles: DEFAULT_MAX_CYCLES,
            faults: faults.map(|(_, shared)| shared),
        }
    }

    /// Override the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: Cycle) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Run the graph to completion, consuming the simulator like
    /// [`crate::event_sim::EventSim::run`].
    pub fn run(mut self) -> Result<SimReport, SimError> {
        crate::graph::validate_topology(&self.processes, &self.stream_names)?;
        let n = self.processes.len();
        let mut done = vec![false; n];
        let mut events: u64 = 0;
        let mut last_activity: Cycle = 0;
        // Planned region deaths, resolved to process sets, cycle-ordered.
        let deaths: Vec<(Cycle, Vec<usize>)> = match &self.faults {
            None => Vec::new(),
            Some(shared) => {
                let state = shared.borrow();
                let mut deaths: Vec<(Cycle, Vec<usize>)> = state
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
        for now in 0..=self.max_cycles {
            while next_death < deaths.len() && deaths[next_death].0 <= now {
                for &pid in &deaths[next_death].1 {
                    done[pid] = true;
                }
                if let Some(shared) = &self.faults {
                    shared.borrow_mut().counters.region_deaths += 1;
                }
                next_death += 1;
            }
            let mut min_wake: Option<Cycle>;
            let mut any_blocked;
            loop {
                let before = self.version.get();
                let mut rerun = false;
                min_wake = None;
                any_blocked = false;
                #[allow(clippy::needless_range_loop)] // pid indexes both `done` and `processes`
                for pid in 0..n {
                    if done[pid] {
                        continue;
                    }
                    events += 1;
                    match self.processes[pid].step(now) {
                        ProcessStatus::Done => done[pid] = true,
                        ProcessStatus::Continue(t) => {
                            if t <= now {
                                rerun = true;
                            } else {
                                min_wake = Some(min_wake.map_or(t, |w| w.min(t)));
                            }
                        }
                        ProcessStatus::Blocked => any_blocked = true,
                    }
                }
                if self.version.get() != before {
                    last_activity = now;
                } else if !rerun {
                    break;
                }
            }
            if done.iter().all(|&d| d) {
                return Ok(self.report(last_activity, events));
            }
            if min_wake.is_none() {
                // A region death still lies ahead: keep stepping cycles
                // until it fires and changes the picture.
                if next_death < deaths.len() {
                    continue;
                }
                // No process has a future wake: either everything left is
                // passively completable, or we are deadlocked.
                debug_assert!(any_blocked);
                let all_streams_empty = self.streams.iter().all(|s| s.borrow().occupancy() == 0);
                let stuck: Vec<String> = (0..n)
                    .filter(|&pid| !done[pid] && !self.processes[pid].can_finish())
                    .map(|pid| self.processes[pid].name().to_string())
                    .collect();
                if stuck.is_empty() && all_streams_empty {
                    return Ok(self.report(last_activity, events));
                }
                // Stranded work under an active fault plan terminates
                // gracefully (mirrors the event scheduler).
                if self.faults.as_ref().is_some_and(|s| s.borrow().counters.any()) {
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
        Err(SimError::Runaway { events })
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
    use super::*;
    use crate::event_sim::EventSim;
    use crate::process::Cost;
    use crate::stages::{MapStage, SourceStage};

    /// Build the same three-stage pipeline twice and check the two
    /// schedulers agree exactly.
    fn build(
        ii: u64,
        latency: u64,
        depth: usize,
        n: u64,
    ) -> (GraphBuilder, crate::stages::SinkHandle<u64>) {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u64>("in", depth);
        let (tx2, rx2) = g.stream::<u64>("out", depth);
        g.add(SourceStage::new("src", (0..n).collect(), Cost::new(1, 1), tx));
        g.add(MapStage::new("work", rx, tx2, Some(n), move |v| (v + 1, Cost::new(ii, latency))));
        let sink = g.add_counted_sink("sink", rx2, n);
        (g, sink)
    }

    #[test]
    fn agrees_with_event_sim_on_pipeline() {
        for (ii, lat, depth) in [(1, 1, 2), (7, 7, 2), (3, 9, 2), (1, 5, 8), (10, 10, 1)] {
            let (g1, s1) = build(ii, lat, depth, 12);
            let (g2, s2) = build(ii, lat, depth, 12);
            let r_event = EventSim::new(g1).run().unwrap();
            let r_cycle = CycleSim::new(g2).run().unwrap();
            assert_eq!(
                r_event.total_cycles, r_cycle.total_cycles,
                "cycles diverge for ii={ii} lat={lat} depth={depth}"
            );
            assert_eq!(s1.collected(), s2.collected(), "tokens diverge for ii={ii}");
            // Backpressure counts scheduler retry effort and legitimately
            // differs between the two schedulers; zero it before comparing.
            let strip = |streams: &[crate::graph::StreamReport]| {
                streams
                    .iter()
                    .cloned()
                    .map(|mut s| {
                        s.backpressure = 0;
                        s
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(strip(&r_event.streams), strip(&r_cycle.streams));
        }
    }

    #[test]
    fn cycle_budget_trips() {
        let (g, _s) = build(1, 1, 2, 1000);
        let sim = CycleSim::new(g).with_max_cycles(10);
        assert!(matches!(sim.run(), Err(SimError::Runaway { .. })));
    }

    #[test]
    fn deadlock_matches_event_sim() {
        let mk = || {
            let mut g = GraphBuilder::new();
            let (tx, rx) = g.stream::<u64>("s", 2);
            g.add(SourceStage::new("src", vec![1], Cost::new(1, 1), tx));
            g.add_counted_sink("sink", rx, 3);
            g
        };
        let e = EventSim::new(mk()).run();
        let c = CycleSim::new(mk()).run();
        assert_eq!(e, c);
        assert!(matches!(e, Err(SimError::Deadlock { .. })));
    }
}
