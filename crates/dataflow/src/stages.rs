//! Reusable building-block stages: sources, sinks, map and zip processes.
//!
//! The CDS engine crate composes its Figure-2 stages from bespoke state
//! machines plus these generic ones. They also serve as the vocabulary for
//! the simulator's own test suite.

use crate::process::{Cost, Process, ProcessStatus};
use crate::stream::{ReadPoll, StreamId, StreamReceiver, StreamSender};
use crate::trace::TraceRecorder;
use crate::Cycle;
use std::cell::RefCell;
use std::rc::Rc;

/// Emits a fixed sequence of tokens, one per `cost.ii` cycles, each
/// visible downstream after `cost.latency`.
pub struct SourceStage<T> {
    name: String,
    values: std::vec::IntoIter<T>,
    cost: Cost,
    tx: StreamSender<T>,
    next_emit: Cycle,
    pending: Option<T>,
}

impl<T> SourceStage<T> {
    /// Create a source emitting `values` in order through `tx`.
    pub fn new(name: impl Into<String>, values: Vec<T>, cost: Cost, tx: StreamSender<T>) -> Self {
        SourceStage {
            name: name.into(),
            values: values.into_iter(),
            cost,
            tx,
            next_emit: 0,
            pending: None,
        }
    }
}

impl<T> Process for SourceStage<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some(v) = self.pending.take() {
            if let Err(v) = self.tx.try_push(now, v, self.cost.latency) {
                self.pending = Some(v);
                return ProcessStatus::Blocked;
            }
            self.next_emit = now + self.cost.ii;
        }
        if now < self.next_emit {
            return ProcessStatus::Continue(self.next_emit);
        }
        match self.values.next() {
            None => ProcessStatus::Done,
            Some(v) => match self.tx.try_push(now, v, self.cost.latency) {
                Ok(()) => {
                    self.next_emit = now + self.cost.ii;
                    ProcessStatus::Continue(self.next_emit)
                }
                Err(v) => {
                    self.pending = Some(v);
                    ProcessStatus::Blocked
                }
            },
        }
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![self.tx.id()]
    }
}

/// Shared handle to the tokens collected by a [`SinkStage`], with their
/// arrival cycles.
#[derive(Debug, Clone)]
pub struct SinkHandle<T>(Rc<RefCell<Vec<(T, Cycle)>>>);

impl<T: Clone> SinkHandle<T> {
    /// Snapshot of collected `(value, arrival_cycle)` pairs.
    pub fn collected(&self) -> Vec<(T, Cycle)> {
        self.0.borrow().clone()
    }

    /// Snapshot of collected values only.
    pub fn values(&self) -> Vec<T> {
        self.0.borrow().iter().map(|(v, _)| v.clone()).collect()
    }

    /// Number of tokens received so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when nothing has been received.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// Consumes tokens from a stream, recording values and arrival cycles.
///
/// With `expected = Some(n)` the sink completes after `n` tokens — the
/// paper's inter-option engine makes "each dataflow stage … aware of the
/// overall number of options" in exactly this way. With `expected = None`
/// the sink is passive: it finishes when every producer has.
pub struct SinkStage<T> {
    name: String,
    rx: StreamReceiver<T>,
    out: Rc<RefCell<Vec<(T, Cycle)>>>,
    ii: Cycle,
    busy_until: Cycle,
    expected: Option<u64>,
    received: u64,
}

impl<T> SinkStage<T> {
    /// Create a sink reading from `rx`, consuming at most one token per
    /// `ii` cycles.
    pub fn new(
        name: impl Into<String>,
        rx: StreamReceiver<T>,
        ii: Cycle,
        expected: Option<u64>,
    ) -> (Self, SinkHandle<T>) {
        let out = Rc::new(RefCell::new(Vec::new()));
        (
            SinkStage {
                name: name.into(),
                rx,
                out: out.clone(),
                ii: ii.max(1),
                busy_until: 0,
                expected,
                received: 0,
            },
            SinkHandle(out),
        )
    }
}

impl<T> Process for SinkStage<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some(n) = self.expected {
            if self.received >= n {
                return ProcessStatus::Done;
            }
        }
        if now < self.busy_until {
            return ProcessStatus::Continue(self.busy_until);
        }
        match self.rx.poll(now) {
            ReadPoll::Ready(v) => {
                self.out.borrow_mut().push((v, now));
                self.received += 1;
                self.busy_until = now + self.ii;
                // The next token (if already available) is picked up on
                // the next scheduler visit at `busy_until`.
                ProcessStatus::Continue(self.busy_until)
            }
            ReadPoll::NotUntil(c) => ProcessStatus::Continue(c),
            ReadPoll::Empty => ProcessStatus::Blocked,
        }
    }

    fn inputs(&self) -> Vec<StreamId> {
        vec![self.rx.id()]
    }

    fn can_finish(&self) -> bool {
        self.expected.is_none()
    }
}

/// One-in one-out stage applying a function with a data-dependent cost —
/// the workhorse for modelling pipelined HLS loops whose trip count
/// depends on the token (e.g. "accumulate the hazard data up to this time
/// point").
pub struct MapStage<I, O, F>
where
    F: FnMut(I) -> (O, Cost),
{
    name: String,
    rx: StreamReceiver<I>,
    tx: StreamSender<O>,
    f: F,
    busy_until: Cycle,
    pending: Option<(O, Cycle)>,
    expected: Option<u64>,
    processed: u64,
    trace: Option<TraceRecorder>,
}

impl<I, O, F> MapStage<I, O, F>
where
    F: FnMut(I) -> (O, Cost),
{
    /// Create a map stage; `expected` bounds the number of tokens after
    /// which the stage reports completion.
    pub fn new(
        name: impl Into<String>,
        rx: StreamReceiver<I>,
        tx: StreamSender<O>,
        expected: Option<u64>,
        f: F,
    ) -> Self {
        MapStage {
            name: name.into(),
            rx,
            tx,
            f,
            busy_until: 0,
            pending: None,
            expected,
            processed: 0,
            trace: None,
        }
    }

    /// Record this stage's busy spans into `recorder` (for occupancy /
    /// stall analysis).
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }
}

impl<I, O, F> Process for MapStage<I, O, F>
where
    F: FnMut(I) -> (O, Cost),
{
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some((v, visible_at)) = self.pending.take() {
            // Output stalled earlier: the value is ready, write it as soon
            // as space frees; visibility is the later of computation
            // completion and write registration.
            let latency = visible_at.saturating_sub(now).max(1);
            if let Err(v) = self.tx.try_push(now, v, latency) {
                self.pending = Some((v, visible_at));
                return ProcessStatus::Blocked;
            }
            self.processed += 1;
        }
        if let Some(n) = self.expected {
            if self.processed >= n {
                return ProcessStatus::Done;
            }
        }
        if now < self.busy_until {
            return ProcessStatus::Continue(self.busy_until);
        }
        match self.rx.poll(now) {
            ReadPoll::Ready(input) => {
                let (out, cost) = (self.f)(input);
                self.busy_until = now + cost.ii;
                if let Some(trace) = &self.trace {
                    trace.record(&self.name, now, self.busy_until);
                }
                let visible_at = now + cost.latency;
                match self.tx.try_push(now, out, cost.latency) {
                    Ok(()) => {
                        self.processed += 1;
                        ProcessStatus::Continue(self.busy_until)
                    }
                    Err(out) => {
                        self.pending = Some((out, visible_at));
                        ProcessStatus::Blocked
                    }
                }
            }
            ReadPoll::NotUntil(c) => ProcessStatus::Continue(c),
            ReadPoll::Empty => ProcessStatus::Blocked,
        }
    }

    fn inputs(&self) -> Vec<StreamId> {
        vec![self.rx.id()]
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![self.tx.id()]
    }

    fn can_finish(&self) -> bool {
        self.expected.is_none() && self.pending.is_none()
    }
}

// `Copy` bound keeps pending-output handling simple; all engine tokens are
// small `Copy` structs, mirroring the fixed-width buses of the hardware.
impl<I, O: Copy, F> MapStage<I, O, F> where F: FnMut(I) -> (O, Cost) {}

/// Emits tokens at prescribed absolute cycles — a workload arrival
/// process (e.g. Poisson quote arrivals in a streaming deployment) rather
/// than a back-to-back batch.
pub struct TimedSourceStage<T> {
    name: String,
    schedule: Vec<(T, Cycle)>,
    pos: usize,
    tx: StreamSender<T>,
    latency: Cycle,
    pending: Option<T>,
}

impl<T: Clone> TimedSourceStage<T> {
    /// Create a timed source; `schedule` pairs each token with its
    /// arrival cycle and must be sorted by cycle.
    pub fn new(
        name: impl Into<String>,
        schedule: Vec<(T, Cycle)>,
        latency: Cycle,
        tx: StreamSender<T>,
    ) -> Self {
        debug_assert!(
            schedule.windows(2).all(|w| w[0].1 <= w[1].1),
            "arrival schedule must be sorted by cycle"
        );
        TimedSourceStage { name: name.into(), schedule, pos: 0, tx, latency, pending: None }
    }
}

impl<T: Clone> Process for TimedSourceStage<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some(v) = self.pending.take() {
            if let Err(v) = self.tx.try_push(now, v, self.latency) {
                self.pending = Some(v);
                return ProcessStatus::Blocked;
            }
        }
        match self.schedule.get(self.pos) {
            None => ProcessStatus::Done,
            Some((v, at)) => {
                if now < *at {
                    return ProcessStatus::Continue(*at);
                }
                match self.tx.try_push(now, v.clone(), self.latency) {
                    Ok(()) => {
                        self.pos += 1;
                        match self.schedule.get(self.pos) {
                            Some((_, next)) if *next > now => ProcessStatus::Continue(*next),
                            Some(_) => ProcessStatus::Continue(now + 1),
                            None => ProcessStatus::Done,
                        }
                    }
                    Err(v) => {
                        self.pos += 1;
                        self.pending = Some(v);
                        ProcessStatus::Blocked
                    }
                }
            }
        }
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![self.tx.id()]
    }
}

/// N-in one-out joiner: waits for one token on every input, combines them.
/// Models the final "combine into spread" stage which joins the
/// accumulated payment, payoff and accrual streams.
pub struct ZipStage<I, O, F>
where
    F: FnMut(&[I]) -> (O, Cost),
{
    name: String,
    rxs: Vec<StreamReceiver<I>>,
    tx: StreamSender<O>,
    f: F,
    slots: Vec<Option<I>>,
    busy_until: Cycle,
    pending: Option<(O, Cycle)>,
    expected: Option<u64>,
    processed: u64,
}

impl<I, O, F> ZipStage<I, O, F>
where
    F: FnMut(&[I]) -> (O, Cost),
{
    /// Create a zip stage over the given input streams.
    pub fn new(
        name: impl Into<String>,
        rxs: Vec<StreamReceiver<I>>,
        tx: StreamSender<O>,
        expected: Option<u64>,
        f: F,
    ) -> Self {
        let n = rxs.len();
        assert!(n >= 1, "ZipStage needs at least one input");
        ZipStage {
            name: name.into(),
            rxs,
            tx,
            f,
            slots: (0..n).map(|_| None).collect(),
            busy_until: 0,
            pending: None,
            expected,
            processed: 0,
        }
    }
}

impl<I, O, F> Process for ZipStage<I, O, F>
where
    F: FnMut(&[I]) -> (O, Cost),
{
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some((v, visible_at)) = self.pending.take() {
            let latency = visible_at.saturating_sub(now).max(1);
            if let Err(v) = self.tx.try_push(now, v, latency) {
                self.pending = Some((v, visible_at));
                return ProcessStatus::Blocked;
            }
            self.processed += 1;
        }
        if let Some(n) = self.expected {
            if self.processed >= n {
                return ProcessStatus::Done;
            }
        }
        if now < self.busy_until {
            return ProcessStatus::Continue(self.busy_until);
        }
        // Fill empty slots; note the earliest future availability.
        let mut wait_until: Option<Cycle> = None;
        let mut any_empty = false;
        for (slot, rx) in self.slots.iter_mut().zip(self.rxs.iter()) {
            if slot.is_none() {
                match rx.poll(now) {
                    ReadPoll::Ready(v) => *slot = Some(v),
                    ReadPoll::NotUntil(c) => {
                        wait_until = Some(wait_until.map_or(c, |w| w.min(c)));
                    }
                    ReadPoll::Empty => any_empty = true,
                }
            }
        }
        if self.slots.iter().all(|s| s.is_some()) {
            let inputs: Vec<I> = self.slots.iter_mut().filter_map(Option::take).collect();
            let (out, cost) = (self.f)(&inputs);
            self.busy_until = now + cost.ii;
            let visible_at = now + cost.latency;
            match self.tx.try_push(now, out, cost.latency) {
                Ok(()) => {
                    self.processed += 1;
                    ProcessStatus::Continue(self.busy_until)
                }
                Err(out) => {
                    self.pending = Some((out, visible_at));
                    ProcessStatus::Blocked
                }
            }
        } else if let Some(c) = wait_until {
            ProcessStatus::Continue(c)
        } else {
            debug_assert!(any_empty);
            ProcessStatus::Blocked
        }
    }

    fn inputs(&self) -> Vec<StreamId> {
        self.rxs.iter().map(|r| r.id()).collect()
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![self.tx.id()]
    }

    fn can_finish(&self) -> bool {
        self.expected.is_none() && self.pending.is_none() && self.slots.iter().all(|s| s.is_none())
    }
}

#[cfg(test)]
mod timed_source_tests {
    use super::*;
    use crate::event_sim::EventSim;
    use crate::graph::GraphBuilder;

    #[test]
    fn tokens_arrive_at_scheduled_cycles() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u32>("s", 4);
        g.add(TimedSourceStage::new("timed", vec![(10, 100), (20, 250), (30, 251)], 1, tx));
        let sink = g.add_counted_sink("sink", rx, 3);
        EventSim::new(g).run().unwrap();
        let collected = sink.collected();
        assert_eq!(collected[0], (10, 101));
        assert_eq!(collected[1], (20, 251));
        assert_eq!(collected[2], (30, 252));
    }

    #[test]
    fn backpressure_delays_but_preserves_order() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u32>("s", 1);
        let (t2, r2) = g.stream::<u32>("out", 1);
        // Burst of 4 tokens at cycle 0 into a slow (II=50) stage through
        // a depth-1 FIFO.
        g.add(TimedSourceStage::new("timed", (0..4).map(|i| (i, 0)).collect(), 1, tx));
        g.add(MapStage::new("slow", rx, t2, Some(4), |v| (v, Cost::new(50, 50))));
        let sink = g.add_counted_sink("sink", r2, 4);
        let report = EventSim::new(g).run().unwrap();
        assert_eq!(sink.values(), vec![0, 1, 2, 3]);
        assert!(report.total_cycles >= 200, "cycles {}", report.total_cycles);
    }

    #[test]
    fn empty_schedule_finishes_immediately() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<u32>("s", 2);
        g.add(TimedSourceStage::new("timed", Vec::new(), 1, tx));
        let sink = g.add_collecting_sink("sink", rx);
        EventSim::new(g).run().unwrap();
        assert!(sink.is_empty());
    }
}
