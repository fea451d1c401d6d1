//! Lightweight occupancy/stall tracing for simulated runs.
//!
//! The simulator's per-stream statistics say *how much* traffic flowed;
//! [`TraceRecorder`] additionally captures *when*, producing per-stage
//! activity spans that can be rendered as a textual Gantt chart — useful
//! when diagnosing why a dataflow graph is not reaching its expected
//! initiation interval (the paper's "stalls frequently occurred"
//! analysis).

use crate::Cycle;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One recorded activity span of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Cycle work started.
    pub start: Cycle,
    /// Cycle the stage became free again.
    pub end: Cycle,
}

/// Shared recorder that stages append activity spans to.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    inner: Rc<RefCell<BTreeMap<String, Vec<Span>>>>,
}

impl TraceRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `stage` was busy over `[start, end)`.
    pub fn record(&self, stage: &str, start: Cycle, end: Cycle) {
        debug_assert!(end >= start);
        self.inner.borrow_mut().entry(stage.to_string()).or_default().push(Span { start, end });
    }

    /// All spans recorded for a stage.
    pub fn spans(&self, stage: &str) -> Vec<Span> {
        self.inner.borrow().get(stage).cloned().unwrap_or_default()
    }

    /// Stages with at least one span, in name order.
    pub fn stages(&self) -> Vec<String> {
        self.inner.borrow().keys().cloned().collect()
    }

    /// Total busy cycles of a stage.
    pub fn busy_cycles(&self, stage: &str) -> Cycle {
        self.spans(stage).iter().map(|s| s.end - s.start).sum()
    }

    /// Utilisation of a stage over a run of `total` cycles.
    pub fn utilisation(&self, stage: &str, total: Cycle) -> f64 {
        if total == 0 {
            return 0.0;
        }
        self.busy_cycles(stage) as f64 / total as f64
    }

    /// Render a fixed-width textual Gantt chart of all stages.
    pub fn gantt(&self, total: Cycle, width: usize) -> String {
        let mut out = String::new();
        let total = total.max(1);
        let name_w = self.stages().iter().map(|s| s.len()).max().unwrap_or(4).max(4);
        for stage in self.stages() {
            let mut row = vec![b'.'; width];
            for span in self.spans(&stage) {
                let a = (span.start as u128 * width as u128 / total as u128) as usize;
                let b = (span.end as u128 * width as u128 / total as u128) as usize;
                for c in row.iter_mut().take(b.min(width).max(a + 1)).skip(a.min(width - 1)) {
                    *c = b'#';
                }
            }
            out.push_str(&format!(
                "{:<name_w$} |{}| {:>5.1}%\n",
                stage,
                String::from_utf8_lossy(&row),
                100.0 * self.utilisation(&stage, total),
            ));
        }
        out
    }
}

/// Busy/stall occupancy of one traced process over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessCounters {
    /// Stage name as recorded by the tracer.
    pub name: String,
    /// Cycles the stage spent doing work.
    pub busy_cycles: Cycle,
    /// Cycles the stage existed but was not working (run length minus
    /// busy time): waiting on inputs, blocked on outputs, or drained.
    pub stall_cycles: Cycle,
    /// `busy / (busy + stall)` — the stage's utilisation over the run.
    pub utilisation: f64,
}

/// Aggregated telemetry of one simulated run: per-process busy/stall
/// split, per-stream occupancy high-water marks and backpressure counts,
/// and region restarts. Built from a [`TraceRecorder`] plus the
/// scheduler's [`crate::graph::SimReport`]; the engine layer folds
/// several runs together with [`Counters::merge`] (e.g. the per-option
/// region mode restarts the whole graph per option).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counters {
    /// Total simulated cycles across the merged runs.
    pub total_cycles: Cycle,
    /// Per-process busy/stall accounting (name-sorted; only traced
    /// stages appear).
    pub processes: Vec<ProcessCounters>,
    /// Highest FIFO occupancy observed on any stream.
    pub stream_occupancy_high_water: usize,
    /// Total rejected pushes across all streams — scheduler-effort
    /// stall-pressure, see [`crate::graph::StreamReport::backpressure`].
    pub backpressure_events: u64,
    /// Dataflow region invocations beyond the first (the paper's
    /// "shuts-down and restarts between options" overhead).
    pub region_restarts: u64,
    /// Faults injected by an active [`crate::fault::FaultPlan`] (all
    /// zeros on fault-free runs).
    pub faults: crate::fault::FaultCounters,
    /// Per-token fault records in injection order (empty on fault-free
    /// runs): which stream and token each fault hit, and — when the plan
    /// registered an identity extractor — which option was affected.
    pub fault_events: Vec<crate::fault::FaultEvent>,
}

impl Counters {
    /// Assemble counters from one run's trace and stream reports.
    pub fn from_run(trace: &TraceRecorder, report: &crate::graph::SimReport) -> Self {
        let total = report.total_cycles;
        let processes = trace
            .stages()
            .into_iter()
            .map(|name| {
                let busy = trace.busy_cycles(&name);
                let stall = total.saturating_sub(busy);
                ProcessCounters {
                    utilisation: if total > 0 { busy as f64 / total as f64 } else { 0.0 },
                    name,
                    busy_cycles: busy,
                    stall_cycles: stall,
                }
            })
            .collect();
        Counters {
            total_cycles: total,
            processes,
            stream_occupancy_high_water: report
                .streams
                .iter()
                .map(|s| s.max_occupancy)
                .max()
                .unwrap_or(0),
            backpressure_events: report.streams.iter().map(|s| s.backpressure).sum(),
            region_restarts: 0,
            faults: report.faults,
            fault_events: report.fault_events.clone(),
        }
    }

    /// Fold another run's counters into this one: cycles, busy/stall and
    /// backpressure add; the occupancy high-water takes the max.
    /// Utilisations are re-derived from the summed cycle counts.
    pub fn merge(&mut self, other: &Counters) {
        self.total_cycles += other.total_cycles;
        for op in &other.processes {
            match self.processes.iter_mut().find(|p| p.name == op.name) {
                Some(p) => {
                    p.busy_cycles += op.busy_cycles;
                    p.stall_cycles += op.stall_cycles;
                }
                None => self.processes.push(op.clone()),
            }
        }
        for p in &mut self.processes {
            let span = p.busy_cycles + p.stall_cycles;
            p.utilisation = if span > 0 { p.busy_cycles as f64 / span as f64 } else { 0.0 };
        }
        self.processes.sort_by(|a, b| a.name.cmp(&b.name));
        self.stream_occupancy_high_water =
            self.stream_occupancy_high_water.max(other.stream_occupancy_high_water);
        self.backpressure_events += other.backpressure_events;
        self.region_restarts += other.region_restarts;
        self.faults.absorb(&other.faults);
        self.fault_events.extend(other.fault_events.iter().cloned());
    }

    /// Mean utilisation across traced processes (0 when none were traced).
    pub fn mean_utilisation(&self) -> f64 {
        if self.processes.is_empty() {
            return 0.0;
        }
        self.processes.iter().map(|p| p.utilisation).sum::<f64>() / self.processes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{SimReport, StreamReport};

    fn report(cycles: Cycle, streams: Vec<StreamReport>) -> SimReport {
        SimReport {
            total_cycles: cycles,
            events: 0,
            streams,
            faults: crate::fault::FaultCounters::default(),
            fault_events: Vec::new(),
        }
    }

    fn stream(name: &str, max_occupancy: usize, backpressure: u64) -> StreamReport {
        StreamReport {
            name: name.to_string(),
            capacity: 8,
            pushes: 0,
            pops: 0,
            max_occupancy,
            backpressure,
        }
    }

    #[test]
    fn counters_split_busy_and_stall() {
        let t = TraceRecorder::new();
        t.record("hazard", 0, 60);
        t.record("interp", 10, 20);
        let c = Counters::from_run(&t, &report(100, vec![stream("a", 5, 7), stream("b", 3, 2)]));
        assert_eq!(c.total_cycles, 100);
        let hazard = &c.processes[0];
        assert_eq!(
            (hazard.name.as_str(), hazard.busy_cycles, hazard.stall_cycles),
            ("hazard", 60, 40)
        );
        assert!((hazard.utilisation - 0.6).abs() < 1e-12);
        assert_eq!(c.stream_occupancy_high_water, 5);
        assert_eq!(c.backpressure_events, 9);
        assert_eq!(c.region_restarts, 0);
        assert!((c.mean_utilisation() - (0.6 + 0.1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_and_rederives_utilisation() {
        let t = TraceRecorder::new();
        t.record("s", 0, 30);
        let mut a = Counters::from_run(&t, &report(100, vec![stream("x", 4, 1)]));
        a.region_restarts = 1;
        let t2 = TraceRecorder::new();
        t2.record("s", 0, 70);
        t2.record("other", 0, 10);
        let mut b = Counters::from_run(&t2, &report(100, vec![stream("x", 6, 3)]));
        b.region_restarts = 1;
        a.merge(&b);
        assert_eq!(a.total_cycles, 200);
        assert_eq!(a.region_restarts, 2);
        assert_eq!(a.backpressure_events, 4);
        assert_eq!(a.stream_occupancy_high_water, 6);
        let s = a.processes.iter().find(|p| p.name == "s").expect("merged stage");
        assert_eq!(s.busy_cycles, 100);
        assert_eq!(s.stall_cycles, 100);
        assert!((s.utilisation - 0.5).abs() < 1e-12);
        assert!(a.processes.iter().any(|p| p.name == "other"));
    }

    #[test]
    fn empty_counters_are_benign() {
        let c = Counters::from_run(&TraceRecorder::new(), &report(0, vec![]));
        assert_eq!(c.mean_utilisation(), 0.0);
        assert_eq!(c.stream_occupancy_high_water, 0);
        let mut d = Counters::default();
        d.merge(&c);
        assert_eq!(d, c);
    }

    #[test]
    fn records_and_reports_busy_time() {
        let t = TraceRecorder::new();
        t.record("hazard", 0, 10);
        t.record("hazard", 20, 25);
        t.record("interp", 5, 6);
        assert_eq!(t.busy_cycles("hazard"), 15);
        assert_eq!(t.busy_cycles("interp"), 1);
        assert_eq!(t.busy_cycles("missing"), 0);
        assert_eq!(t.stages(), vec!["hazard".to_string(), "interp".to_string()]);
    }

    #[test]
    fn utilisation_fraction() {
        let t = TraceRecorder::new();
        t.record("s", 0, 50);
        assert!((t.utilisation("s", 100) - 0.5).abs() < 1e-12);
        assert_eq!(t.utilisation("s", 0), 0.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let t = TraceRecorder::new();
        t.record("busy", 0, 100);
        t.record("idle", 90, 100);
        let g = t.gantt(100, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("####################"));
        assert!(lines[0].contains("100.0%"));
        assert!(lines[1].contains("10.0%"));
    }

    #[test]
    fn clones_share_state() {
        let t = TraceRecorder::new();
        let t2 = t.clone();
        t2.record("s", 0, 5);
        assert_eq!(t.busy_cycles("s"), 5);
        t.record("s", 10, 12);
        assert_eq!(t2.spans("s"), vec![Span { start: 0, end: 5 }, Span { start: 10, end: 12 }]);
    }
}
