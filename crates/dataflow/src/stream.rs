//! HLS stream model: bounded FIFOs with cycle-stamped availability and
//! backpressure.
//!
//! An `hls::stream` in Vitis is a hardware FIFO of configurable depth.
//! Writing into a full stream stalls the producer; reading from an empty
//! stream stalls the consumer; a written value becomes visible to the
//! consumer after the producer's pipeline latency. [`StreamSender`] /
//! [`StreamReceiver`] reproduce those semantics for the simulator's
//! processes.

use crate::fault::StreamFaultHooks;
use crate::Cycle;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Identifier of a stream within one graph.
pub type StreamId = usize;

/// Result of polling a stream for a token at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPoll<T> {
    /// A token was available and has been consumed.
    Ready(T),
    /// The FIFO holds a token but it only becomes visible at the given
    /// cycle (producer latency has not yet elapsed).
    NotUntil(Cycle),
    /// The FIFO is empty.
    Empty,
}

#[derive(Debug)]
struct StreamCore<T> {
    name: String,
    capacity: usize,
    queue: VecDeque<(T, Cycle)>,
    pushes: u64,
    pops: u64,
    max_occupancy: usize,
    backpressure: u64,
    /// Global activity version, shared across the graph; bumped on every
    /// push/pop so schedulers know progress happened.
    version: Rc<Cell<u64>>,
    /// Push-time fault hooks, present only when a fault plan targets this
    /// stream — the fault-free fast path pays a single `Option` check.
    faults: Option<StreamFaultHooks<T>>,
}

/// Occupancy and traffic statistics of one stream, type-erased for
/// reporting.
pub trait StreamStats {
    /// Stream name given at construction.
    fn name(&self) -> &str;
    /// Configured FIFO depth.
    fn capacity(&self) -> usize;
    /// Total tokens pushed.
    fn pushes(&self) -> u64;
    /// Total tokens popped.
    fn pops(&self) -> u64;
    /// High-water mark of occupancy.
    fn max_occupancy(&self) -> usize;
    /// Number of rejected pushes (producer found the FIFO full). Counts
    /// stall-retry attempts, so the value depends on how often the
    /// scheduler re-steps a blocked producer — a stall-pressure signal,
    /// not a hardware cycle count.
    fn backpressure(&self) -> u64;
    /// Tokens currently in flight.
    fn occupancy(&self) -> usize;
}

impl<T> StreamStats for StreamCore<T> {
    fn name(&self) -> &str {
        &self.name
    }
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn pushes(&self) -> u64 {
        self.pushes
    }
    fn pops(&self) -> u64 {
        self.pops
    }
    fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
    fn backpressure(&self) -> u64 {
        self.backpressure
    }
    fn occupancy(&self) -> usize {
        self.queue.len()
    }
}

/// Producer endpoint of a stream.
#[derive(Debug)]
pub struct StreamSender<T> {
    id: StreamId,
    core: Rc<RefCell<StreamCore<T>>>,
}

/// Consumer endpoint of a stream.
#[derive(Debug)]
pub struct StreamReceiver<T> {
    id: StreamId,
    core: Rc<RefCell<StreamCore<T>>>,
}

/// Create a connected sender/receiver pair.
///
/// `version` is the graph-wide activity counter; `depth` must be at least
/// one (HLS streams always hold at least one element).
pub fn stream_pair<T>(
    id: StreamId,
    name: impl Into<String>,
    depth: usize,
    version: Rc<Cell<u64>>,
) -> (StreamSender<T>, StreamReceiver<T>, Rc<RefCell<dyn StreamStats>>)
where
    T: 'static,
{
    stream_pair_with_faults(id, name, depth, version, None)
}

/// [`stream_pair`] with optional fault-injection hooks attached (used by
/// [`crate::graph::GraphBuilder`] when a fault plan is installed).
pub(crate) fn stream_pair_with_faults<T>(
    id: StreamId,
    name: impl Into<String>,
    depth: usize,
    version: Rc<Cell<u64>>,
    faults: Option<StreamFaultHooks<T>>,
) -> (StreamSender<T>, StreamReceiver<T>, Rc<RefCell<dyn StreamStats>>)
where
    T: 'static,
{
    assert!(depth >= 1, "stream depth must be >= 1");
    let core = Rc::new(RefCell::new(StreamCore {
        name: name.into(),
        capacity: depth,
        queue: VecDeque::with_capacity(depth),
        pushes: 0,
        pops: 0,
        max_occupancy: 0,
        backpressure: 0,
        version,
        faults,
    }));
    let stats: Rc<RefCell<dyn StreamStats>> = core.clone();
    (StreamSender { id, core: core.clone() }, StreamReceiver { id, core }, stats)
}

impl<T> StreamSender<T> {
    /// The stream's graph-local identifier.
    #[inline]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Attempt to push `value` at cycle `now`; it becomes visible to the
    /// consumer at `now + latency` (clamped to at least one cycle, since
    /// hardware FIFO writes register). When the FIFO is full the value is
    /// handed back in `Err` — the producer must stall and retry.
    pub fn try_push(&self, now: Cycle, value: T, latency: Cycle) -> Result<(), T> {
        let mut core = self.core.borrow_mut();
        if core.queue.len() >= core.capacity {
            core.backpressure += 1;
            return Err(value);
        }
        let avail = now + latency.max(1);
        let (value, avail, dropped) = match &core.faults {
            None => (value, avail, false),
            Some(hooks) => {
                let idx = core.pushes;
                let mut value = value;
                let mut avail = avail;
                let mut injected = crate::fault::FaultCounters::default();
                let mut kinds: Vec<crate::fault::FaultKind> = Vec::new();
                // Identity is extracted before any mutation: a corrupt
                // fault may damage the very field that names the option.
                let opt_idx = hooks.ident.as_ref().and_then(|f| f(&value));
                for &(tokens, extra) in &hooks.stalls {
                    if idx < tokens {
                        avail += extra;
                        injected.stage_stalls += 1;
                        kinds.push(crate::fault::FaultKind::Stall);
                    }
                }
                let dropped = hooks.drops.contains(&idx);
                if dropped {
                    injected.dropped_tokens += 1;
                    kinds.push(crate::fault::FaultKind::Drop);
                } else {
                    for (nth, mutate) in &hooks.corrupts {
                        if *nth == idx {
                            value = mutate(value);
                            injected.corrupted_tokens += 1;
                            kinds.push(crate::fault::FaultKind::Corrupt);
                        }
                    }
                }
                if injected.any() {
                    let mut shared = hooks.shared.borrow_mut();
                    shared.counters.absorb(&injected);
                    for kind in kinds {
                        shared.events.push(crate::fault::FaultEvent {
                            stream: core.name.clone(),
                            token: idx,
                            kind,
                            opt_idx,
                        });
                    }
                }
                // A stalled token may not overtake an earlier, later-stalled
                // one: hardware FIFOs preserve order.
                if let Some((_, back)) = core.queue.back() {
                    avail = avail.max(*back);
                }
                (value, avail, dropped)
            }
        };
        if dropped {
            core.pushes += 1;
            core.version.set(core.version.get() + 1);
            return Ok(());
        }
        debug_assert!(
            core.queue.back().map(|(_, a)| *a <= avail).unwrap_or(true),
            "stream '{}' tokens must become available in FIFO order",
            core.name
        );
        core.queue.push_back((value, avail));
        let occ = core.queue.len();
        core.max_occupancy = core.max_occupancy.max(occ);
        core.pushes += 1;
        core.version.set(core.version.get() + 1);
        Ok(())
    }

    /// True when a push would currently fail.
    pub fn is_full(&self) -> bool {
        let core = self.core.borrow();
        core.queue.len() >= core.capacity
    }
}

impl<T> StreamReceiver<T> {
    /// The stream's graph-local identifier.
    #[inline]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Poll for a token at cycle `now`.
    pub fn poll(&self, now: Cycle) -> ReadPoll<T> {
        let mut core = self.core.borrow_mut();
        match core.queue.front() {
            None => ReadPoll::Empty,
            Some((_, avail)) if *avail > now => ReadPoll::NotUntil(*avail),
            Some(_) => match core.queue.pop_front() {
                Some((value, _)) => {
                    core.pops += 1;
                    core.version.set(core.version.get() + 1);
                    ReadPoll::Ready(value)
                }
                None => unreachable!("front checked above"),
            },
        }
    }

    /// True when the FIFO holds no tokens at all (readable or not).
    pub fn is_empty(&self) -> bool {
        self.core.borrow().queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(depth: usize) -> (StreamSender<u32>, StreamReceiver<u32>) {
        let v = Rc::new(Cell::new(0));
        let (tx, rx, _) = stream_pair(0, "t", depth, v);
        (tx, rx)
    }

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = pair(8);
        for i in 0..5 {
            assert!(tx.try_push(0, i, 1).is_ok());
        }
        for i in 0..5 {
            assert_eq!(rx.poll(10), ReadPoll::Ready(i));
        }
        assert_eq!(rx.poll(10), ReadPoll::Empty);
    }

    #[test]
    fn capacity_enforced() {
        let (tx, rx) = pair(2);
        assert!(tx.try_push(0, 1, 1).is_ok());
        assert!(tx.try_push(0, 2, 1).is_ok());
        assert_eq!(tx.try_push(0, 3, 1), Err(3));
        assert!(tx.is_full());
        assert_eq!(rx.poll(5), ReadPoll::Ready(1));
        assert!(tx.try_push(5, 3, 1).is_ok());
    }

    #[test]
    fn backpressure_counts_rejected_pushes() {
        let v = Rc::new(Cell::new(0));
        let (tx, rx, stats) = stream_pair::<u32>(0, "bp", 1, v);
        assert!(tx.try_push(0, 1, 1).is_ok());
        assert_eq!(tx.try_push(0, 2, 1), Err(2));
        assert_eq!(tx.try_push(1, 2, 1), Err(2));
        assert_eq!(stats.borrow().backpressure(), 2);
        assert_eq!(rx.poll(5), ReadPoll::Ready(1));
        assert!(tx.try_push(5, 2, 1).is_ok());
        assert_eq!(stats.borrow().backpressure(), 2);
    }

    #[test]
    fn latency_delays_visibility() {
        let (tx, rx) = pair(4);
        assert!(tx.try_push(10, 42, 7).is_ok());
        assert_eq!(rx.poll(10), ReadPoll::NotUntil(17));
        assert_eq!(rx.poll(16), ReadPoll::NotUntil(17));
        assert_eq!(rx.poll(17), ReadPoll::Ready(42));
    }

    #[test]
    fn zero_latency_clamped_to_one() {
        let (tx, rx) = pair(4);
        assert!(tx.try_push(10, 1, 0).is_ok());
        assert_eq!(rx.poll(10), ReadPoll::NotUntil(11));
        assert_eq!(rx.poll(11), ReadPoll::Ready(1));
    }

    #[test]
    fn version_bumps_on_activity() {
        let v = Rc::new(Cell::new(0));
        let (tx, rx, _) = stream_pair::<u32>(0, "t", 4, v.clone());
        assert!(tx.try_push(0, 1, 1).is_ok());
        assert_eq!(v.get(), 1);
        let _ = rx.poll(2);
        assert_eq!(v.get(), 2);
    }

    #[test]
    fn stats_track_traffic() {
        let v = Rc::new(Cell::new(0));
        let (tx, rx, stats) = stream_pair::<u32>(3, "traffic", 4, v);
        for i in 0..3 {
            assert!(tx.try_push(0, i, 1).is_ok());
        }
        let _ = rx.poll(5);
        let s = stats.borrow();
        assert_eq!(s.name(), "traffic");
        assert_eq!(s.pushes(), 3);
        assert_eq!(s.pops(), 1);
        assert_eq!(s.max_occupancy(), 3);
        assert_eq!(s.occupancy(), 2);
        assert_eq!(s.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "depth must be >= 1")]
    fn zero_depth_rejected() {
        let v = Rc::new(Cell::new(0));
        let _ = stream_pair::<u32>(0, "bad", 0, v);
    }
}
