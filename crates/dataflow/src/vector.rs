//! Round-robin split and merge — the paper's Figure 3 vectorisation
//! scheduler.
//!
//! To vectorise the slow nested-loop stages, "the scheduler works
//! round-robin style, streaming input data to the different functions
//! cyclically, and the calculation … then receives results cyclically and
//! proceeds to process further. By working cyclically ordering of result
//! consumption is maintained." [`RoundRobinSplit`] distributes tokens
//! cyclically over `V` replica streams and [`RoundRobinMerge`] re-collects
//! them in the same cyclic order, so the replicated region is
//! order-preserving by construction.

use crate::process::{Cost, Process, ProcessStatus};
use crate::stream::{ReadPoll, StreamId, StreamReceiver, StreamSender};
use crate::Cycle;

/// Distributes an input stream over `V` outputs cyclically.
pub struct RoundRobinSplit<T> {
    name: String,
    rx: StreamReceiver<T>,
    txs: Vec<StreamSender<T>>,
    cost: Cost,
    next_out: usize,
    busy_until: Cycle,
    pending: Option<(T, Cycle)>,
    expected: Option<u64>,
    processed: u64,
}

impl<T> RoundRobinSplit<T> {
    /// Create a splitter over the given replica output streams.
    pub fn new(
        name: impl Into<String>,
        rx: StreamReceiver<T>,
        txs: Vec<StreamSender<T>>,
        cost: Cost,
        expected: Option<u64>,
    ) -> Self {
        assert!(!txs.is_empty(), "split needs at least one output");
        RoundRobinSplit {
            name: name.into(),
            rx,
            txs,
            cost,
            next_out: 0,
            busy_until: 0,
            pending: None,
            expected,
            processed: 0,
        }
    }
}

impl<T> Process for RoundRobinSplit<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some((v, visible_at)) = self.pending.take() {
            let latency = visible_at.saturating_sub(now).max(1);
            if let Err(v) = self.txs[self.next_out].try_push(now, v, latency) {
                self.pending = Some((v, visible_at));
                return ProcessStatus::Blocked;
            }
            self.next_out = (self.next_out + 1) % self.txs.len();
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
            ReadPoll::Ready(v) => {
                self.busy_until = now + self.cost.ii;
                let visible_at = now + self.cost.latency;
                match self.txs[self.next_out].try_push(now, v, self.cost.latency) {
                    Ok(()) => {
                        self.next_out = (self.next_out + 1) % self.txs.len();
                        self.processed += 1;
                        ProcessStatus::Continue(self.busy_until)
                    }
                    Err(v) => {
                        self.pending = Some((v, visible_at));
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
        self.txs.iter().map(|t| t.id()).collect()
    }

    fn can_finish(&self) -> bool {
        self.expected.is_none() && self.pending.is_none()
    }
}

/// Re-collects tokens from `V` replica streams in cyclic order,
/// preserving the original sequence.
pub struct RoundRobinMerge<T> {
    name: String,
    rxs: Vec<StreamReceiver<T>>,
    tx: StreamSender<T>,
    cost: Cost,
    next_in: usize,
    busy_until: Cycle,
    pending: Option<(T, Cycle)>,
    expected: Option<u64>,
    processed: u64,
}

impl<T> RoundRobinMerge<T> {
    /// Create a merger over the given replica input streams.
    pub fn new(
        name: impl Into<String>,
        rxs: Vec<StreamReceiver<T>>,
        tx: StreamSender<T>,
        cost: Cost,
        expected: Option<u64>,
    ) -> Self {
        assert!(!rxs.is_empty(), "merge needs at least one input");
        RoundRobinMerge {
            name: name.into(),
            rxs,
            tx,
            cost,
            next_in: 0,
            busy_until: 0,
            pending: None,
            expected,
            processed: 0,
        }
    }
}

impl<T> Process for RoundRobinMerge<T> {
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
        // Strictly cyclic: only the `next_in` replica may be consumed,
        // which is what guarantees order preservation.
        match self.rxs[self.next_in].poll(now) {
            ReadPoll::Ready(v) => {
                self.busy_until = now + self.cost.ii;
                let visible_at = now + self.cost.latency;
                match self.tx.try_push(now, v, self.cost.latency) {
                    Ok(()) => {
                        self.next_in = (self.next_in + 1) % self.rxs.len();
                        self.processed += 1;
                        ProcessStatus::Continue(self.busy_until)
                    }
                    Err(v) => {
                        self.next_in = (self.next_in + 1) % self.rxs.len();
                        self.pending = Some((v, visible_at));
                        ProcessStatus::Blocked
                    }
                }
            }
            ReadPoll::NotUntil(c) => ProcessStatus::Continue(c),
            ReadPoll::Empty => ProcessStatus::Blocked,
        }
    }

    fn inputs(&self) -> Vec<StreamId> {
        self.rxs.iter().map(|r| r.id()).collect()
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![self.tx.id()]
    }

    fn can_finish(&self) -> bool {
        self.expected.is_none() && self.pending.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_sim::EventSim;
    use crate::graph::GraphBuilder;
    use crate::stages::{MapStage, SourceStage};

    /// Build a split → V slow replicas → merge diamond and return
    /// (sink handle, report).
    fn diamond(v: usize, n: u64, replica_ii: u64) -> (Vec<u64>, crate::graph::SimReport) {
        let mut g = GraphBuilder::new();
        let (tx_in, rx_in) = g.stream::<u64>("in", 4);
        g.add(SourceStage::new("src", (0..n).collect(), Cost::new(1, 1), tx_in));
        let mut replica_rx = Vec::new();
        let mut replica_tx = Vec::new();
        let mut mid_rx = Vec::new();
        for k in 0..v {
            let (tx, rx) = g.stream::<u64>(format!("to_rep{k}"), 2);
            replica_tx.push(tx);
            replica_rx.push(rx);
        }
        g.add(RoundRobinSplit::new("split", rx_in, replica_tx, Cost::UNIT, Some(n)));
        for (k, rx) in replica_rx.into_iter().enumerate() {
            let (tx, rxm) = g.stream::<u64>(format!("from_rep{k}"), 2);
            g.add(MapStage::new(format!("rep{k}"), rx, tx, None, move |x| {
                (x * 10, Cost::new(replica_ii, replica_ii))
            }));
            mid_rx.push(rxm);
        }
        let (tx_out, rx_out) = g.stream::<u64>("out", 4);
        g.add(RoundRobinMerge::new("merge", mid_rx, tx_out, Cost::UNIT, Some(n)));
        let sink = g.add_counted_sink("sink", rx_out, n);
        let report = EventSim::new(g).run().unwrap();
        (sink.values(), report)
    }

    #[test]
    fn order_preserved_across_replication() {
        for v in [1, 2, 3, 6] {
            let (values, _) = diamond(v, 24, 5);
            assert_eq!(values, (0..24).map(|x| x * 10).collect::<Vec<_>>(), "V={v}");
        }
    }

    #[test]
    fn replication_improves_throughput_of_slow_stage() {
        let n = 48;
        let (_, r1) = diamond(1, n, 12);
        let (_, r6) = diamond(6, n, 12);
        let speedup = r1.total_cycles as f64 / r6.total_cycles as f64;
        assert!(speedup > 3.0, "replication speedup only {speedup}");
    }

    #[test]
    fn replication_beyond_bottleneck_saturates() {
        // Once replicas make the slow stage faster than the II=1 scheduler,
        // more replicas stop helping.
        let n = 48;
        let (_, r6) = diamond(6, n, 6);
        let (_, r12) = diamond(12, n, 6);
        let further = r6.total_cycles as f64 / r12.total_cycles as f64;
        assert!(further < 1.3, "unexpected extra speedup {further}");
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn empty_split_rejected() {
        let mut g = GraphBuilder::new();
        let (_tx, rx) = g.stream::<u64>("in", 2);
        let _ = RoundRobinSplit::new("s", rx, Vec::new(), Cost::UNIT, None);
    }
}
