//! Engine-specific dataflow stages: schedule generation, tee, and the
//! per-option reduction used by the accumulation regions of Figure 2.

use crate::tokens::{OptionTok, TimePointTok, Tok};
use cds_quant::accumulate::LaneAccumulator;
use cds_quant::schedule::PaymentSchedule;
use dataflow_sim::process::{Process, ProcessStatus};
use dataflow_sim::stream::{ReadPoll, StreamId, StreamReceiver, StreamSender};
use dataflow_sim::Cycle;

/// Generates the time points of each incoming option and fans them out to
/// the hazard, interpolation and accrual paths, plus a once-per-option
/// metadata token (recovery rate) for the final combine stage.
///
/// This is the top box of the paper's Figure 1 ("for each option the model
/// first determines a set of distinct time points") recast as a streaming
/// stage.
pub struct TimePointGen {
    name: String,
    rx: StreamReceiver<OptionTok>,
    tx_haz: StreamSender<TimePointTok>,
    tx_t: StreamSender<TimePointTok>,
    tx_mid: StreamSender<TimePointTok>,
    tx_half_delta: StreamSender<Tok>,
    tx_meta: StreamSender<Tok>,
    /// Points of the option currently streaming out.
    current: Vec<TimePointTok>,
    pos: usize,
    busy_until: Cycle,
    expected_options: u64,
    emitted_options: u64,
    meta_pending: Option<Tok>,
}

/// Latency of the schedule arithmetic producing one time point.
const TIMEGEN_LATENCY: Cycle = 4;

impl TimePointGen {
    /// Create the stage; `expected_options` bounds its lifetime (the
    /// paper's inter-option engine makes every stage option-count aware).
    #[allow(clippy::too_many_arguments)] // one sender per Figure-2 consumer path
    pub fn new(
        name: impl Into<String>,
        rx: StreamReceiver<OptionTok>,
        tx_haz: StreamSender<TimePointTok>,
        tx_t: StreamSender<TimePointTok>,
        tx_mid: StreamSender<TimePointTok>,
        tx_half_delta: StreamSender<Tok>,
        tx_meta: StreamSender<Tok>,
        expected_options: u64,
    ) -> Self {
        TimePointGen {
            name: name.into(),
            rx,
            tx_haz,
            tx_t,
            tx_mid,
            tx_half_delta,
            tx_meta,
            current: Vec::new(),
            pos: 0,
            busy_until: 0,
            expected_options,
            emitted_options: 0,
            meta_pending: None,
        }
    }

    /// Expand an option into its time-point tokens.
    pub fn expand(option: &OptionTok) -> Vec<TimePointTok> {
        let schedule = match PaymentSchedule::generate(option.maturity, option.payments_per_year) {
            Ok(s) => s,
            Err(e) => panic!("option token failed schedule generation: {e}"),
        };
        let n = schedule.len();
        schedule
            .periods()
            .enumerate()
            .map(|(i, (prev, t))| TimePointTok {
                opt_idx: option.opt_idx,
                t,
                delta: t - prev,
                mid: 0.5 * (prev + t),
                last: i + 1 == n,
            })
            .collect()
    }
}

impl Process for TimePointGen {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some(meta) = self.meta_pending.take() {
            if let Err(meta) = self.tx_meta.try_push(now, meta, 1) {
                self.meta_pending = Some(meta);
                return ProcessStatus::Blocked;
            }
        }
        if now < self.busy_until {
            return ProcessStatus::Continue(self.busy_until);
        }
        if self.pos < self.current.len() {
            // Emit the next point to every per-time-point path atomically
            // (all-or-nothing, as a hardware stage writing several streams
            // in one cycle would stall on any full FIFO).
            if self.tx_haz.is_full()
                || self.tx_t.is_full()
                || self.tx_mid.is_full()
                || self.tx_half_delta.is_full()
            {
                return ProcessStatus::Blocked;
            }
            let tp = self.current[self.pos];
            if self.tx_haz.try_push(now, tp, TIMEGEN_LATENCY).is_err()
                || self.tx_t.try_push(now, tp, TIMEGEN_LATENCY).is_err()
                || self.tx_mid.try_push(now, tp, TIMEGEN_LATENCY).is_err()
                || self
                    .tx_half_delta
                    .try_push(now, Tok::new(tp.opt_idx, 0.5 * tp.delta, tp.last), TIMEGEN_LATENCY)
                    .is_err()
            {
                unreachable!("all four streams were checked not full");
            }
            self.pos += 1;
            self.busy_until = now + 1;
            return ProcessStatus::Continue(self.busy_until);
        }
        if self.emitted_options >= self.expected_options {
            return ProcessStatus::Done;
        }
        match self.rx.poll(now) {
            ReadPoll::Ready(option) => {
                self.current = Self::expand(&option);
                self.pos = 0;
                self.emitted_options += 1;
                let meta = Tok::new(option.opt_idx, option.recovery, true);
                if let Err(meta) = self.tx_meta.try_push(now, meta, 1) {
                    self.meta_pending = Some(meta);
                    return ProcessStatus::Blocked;
                }
                self.busy_until = now + TIMEGEN_LATENCY;
                ProcessStatus::Continue(self.busy_until)
            }
            ReadPoll::NotUntil(c) => ProcessStatus::Continue(c),
            ReadPoll::Empty => ProcessStatus::Blocked,
        }
    }

    fn inputs(&self) -> Vec<StreamId> {
        vec![self.rx.id()]
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![
            self.tx_haz.id(),
            self.tx_t.id(),
            self.tx_mid.id(),
            self.tx_half_delta.id(),
            self.tx_meta.id(),
        ]
    }
}

/// Duplicates a token stream to two consumers (one output register, one
/// cycle), used where a computed term feeds two downstream regions.
pub struct TeeStage<T: Copy> {
    name: String,
    rx: StreamReceiver<T>,
    tx_a: StreamSender<T>,
    tx_b: StreamSender<T>,
    busy_until: Cycle,
    expected: u64,
    processed: u64,
}

impl<T: Copy> TeeStage<T> {
    /// Create a tee expecting `expected` tokens.
    pub fn new(
        name: impl Into<String>,
        rx: StreamReceiver<T>,
        tx_a: StreamSender<T>,
        tx_b: StreamSender<T>,
        expected: u64,
    ) -> Self {
        TeeStage { name: name.into(), rx, tx_a, tx_b, busy_until: 0, expected, processed: 0 }
    }
}

impl<T: Copy> Process for TeeStage<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if self.processed >= self.expected {
            return ProcessStatus::Done;
        }
        if now < self.busy_until {
            return ProcessStatus::Continue(self.busy_until);
        }
        if self.tx_a.is_full() || self.tx_b.is_full() {
            return ProcessStatus::Blocked;
        }
        match self.rx.poll(now) {
            ReadPoll::Ready(v) => {
                assert!(self.tx_a.try_push(now, v, 1).is_ok(), "checked not full");
                assert!(self.tx_b.try_push(now, v, 1).is_ok(), "checked not full");
                self.processed += 1;
                self.busy_until = now + 1;
                ProcessStatus::Continue(self.busy_until)
            }
            ReadPoll::NotUntil(c) => ProcessStatus::Continue(c),
            ReadPoll::Empty => ProcessStatus::Blocked,
        }
    }

    fn inputs(&self) -> Vec<StreamId> {
        vec![self.rx.id()]
    }

    fn outputs(&self) -> Vec<StreamId> {
        vec![self.tx_a.id(), self.tx_b.id()]
    }
}

/// Per-option reduction: consumes one [`Tok`] per time point, accumulates
/// with the Listing-1 seven-lane accumulator, and emits the option's sum
/// when the `last` token arrives — the "accumulation of values" regions of
/// Figure 2.
pub struct ReduceStage {
    name: String,
    rx: StreamReceiver<Tok>,
    tx: StreamSender<Tok>,
    acc: LaneAccumulator<f64>,
    busy_until: Cycle,
    pending: Option<Tok>,
    expected_options: u64,
    emitted_options: u64,
}

/// Cycles to reduce the seven partial sums plus stream handoff — the
/// short final loop of Listing 1 ("whilst this suffers the same spatial
/// dependencies, the impact is minimal as this final loop only operates
/// on 7 elements").
const LANE_REDUCE_LATENCY: Cycle = 7 * 7 + 2;

impl ReduceStage {
    /// Create a reducer expecting `expected_options` options.
    pub fn new(
        name: impl Into<String>,
        rx: StreamReceiver<Tok>,
        tx: StreamSender<Tok>,
        expected_options: u64,
    ) -> Self {
        ReduceStage {
            name: name.into(),
            rx,
            tx,
            acc: LaneAccumulator::new(),
            busy_until: 0,
            pending: None,
            expected_options,
            emitted_options: 0,
        }
    }
}

impl Process for ReduceStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, now: Cycle) -> ProcessStatus {
        if let Some(tok) = self.pending.take() {
            if let Err(tok) = self.tx.try_push(now, tok, 1) {
                self.pending = Some(tok);
                return ProcessStatus::Blocked;
            }
            self.emitted_options += 1;
        }
        if self.emitted_options >= self.expected_options {
            return ProcessStatus::Done;
        }
        if now < self.busy_until {
            return ProcessStatus::Continue(self.busy_until);
        }
        match self.rx.poll(now) {
            ReadPoll::Ready(tok) => {
                self.acc.push(tok.value);
                if tok.last {
                    let sum = Tok::new(tok.opt_idx, self.acc.finish(), true);
                    self.acc.reset();
                    self.busy_until = now + LANE_REDUCE_LATENCY;
                    match self.tx.try_push(now, sum, LANE_REDUCE_LATENCY) {
                        Ok(()) => self.emitted_options += 1,
                        Err(sum) => self.pending = Some(sum),
                    }
                } else {
                    self.busy_until = now + 1;
                }
                ProcessStatus::Continue(self.busy_until)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::PaymentFrequency;
    use dataflow_sim::graph::GraphBuilder;
    use dataflow_sim::prelude::*;

    fn opt(idx: u32, maturity: f64) -> OptionTok {
        OptionTok { opt_idx: idx, maturity, payments_per_year: 4, recovery: 0.4 }
    }

    #[test]
    fn expand_matches_schedule() {
        let points = TimePointGen::expand(&opt(0, 5.5));
        assert_eq!(points.len(), 22);
        assert!(points[21].last);
        assert!(!points[20].last);
        assert!((points[0].t - 0.25).abs() < 1e-12);
        assert!((points[0].delta - 0.25).abs() < 1e-12);
        assert!((points[0].mid - 0.125).abs() < 1e-12);
        let _ = PaymentFrequency::Quarterly; // frequency 4 above
    }

    #[test]
    fn timegen_streams_all_points_and_meta() {
        let mut g = GraphBuilder::new();
        let (tx_o, rx_o) = g.stream::<OptionTok>("opts", 4);
        let (tx_h, rx_h) = g.stream::<TimePointTok>("haz", 64);
        let (tx_t, rx_t) = g.stream::<TimePointTok>("t", 64);
        let (tx_m, rx_m) = g.stream::<TimePointTok>("mid", 64);
        let (tx_d, rx_d) = g.stream::<Tok>("half_delta", 64);
        let (tx_meta, rx_meta) = g.stream::<Tok>("meta", 4);
        g.add(SourceStage::new("src", vec![opt(0, 2.0), opt(1, 1.0)], Cost::UNIT, tx_o));
        g.add(TimePointGen::new("timegen", rx_o, tx_h, tx_t, tx_m, tx_d, tx_meta, 2));
        let s_h = g.add_counted_sink("s_h", rx_h, 12);
        let s_t = g.add_counted_sink("s_t", rx_t, 12);
        let s_m = g.add_counted_sink("s_m", rx_m, 12);
        let s_d = g.add_counted_sink("s_d", rx_d, 12);
        let s_meta = g.add_counted_sink("s_meta", rx_meta, 2);
        EventSim::new(g).run().unwrap();
        // 2y + 1y quarterly = 8 + 4 points.
        assert_eq!(s_h.len(), 12);
        assert_eq!(s_t.len(), 12);
        assert_eq!(s_m.len(), 12);
        assert_eq!(s_d.len(), 12);
        let metas = s_meta.values();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].value, 0.4);
        // half-delta tokens carry Δ/2 = 0.125.
        assert!((s_d.values()[0].value - 0.125).abs() < 1e-12);
    }

    #[test]
    fn tee_duplicates_in_order() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<Tok>("in", 4);
        let (ta, ra) = g.stream::<Tok>("a", 4);
        let (tb, rb) = g.stream::<Tok>("b", 4);
        let toks: Vec<Tok> = (0..5).map(|i| Tok::new(0, i as f64, i == 4)).collect();
        g.add(SourceStage::new("src", toks.clone(), Cost::UNIT, tx));
        g.add(TeeStage::new("tee", rx, ta, tb, 5));
        let sa = g.add_counted_sink("sa", ra, 5);
        let sb = g.add_counted_sink("sb", rb, 5);
        EventSim::new(g).run().unwrap();
        assert_eq!(sa.values(), toks);
        assert_eq!(sb.values(), toks);
    }

    #[test]
    fn reduce_sums_per_option() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<Tok>("in", 8);
        let (to, ro) = g.stream::<Tok>("out", 4);
        // Two options: values 1..=4 (sum 10) then 5,6 (sum 11).
        let mut toks = Vec::new();
        for i in 1..=4 {
            toks.push(Tok::new(0, i as f64, i == 4));
        }
        for i in 5..=6 {
            toks.push(Tok::new(1, i as f64, i == 6));
        }
        g.add(SourceStage::new("src", toks, Cost::UNIT, tx));
        g.add(ReduceStage::new("reduce", rx, to, 2));
        let sink = g.add_counted_sink("sink", ro, 2);
        EventSim::new(g).run().unwrap();
        let sums = sink.values();
        assert_eq!(sums.len(), 2);
        assert!((sums[0].value - 10.0).abs() < 1e-12);
        assert!((sums[1].value - 11.0).abs() < 1e-12);
        assert_eq!(sums[1].opt_idx, 1);
    }

    #[test]
    fn reduce_latency_reflects_lane_reduction() {
        let mut g = GraphBuilder::new();
        let (tx, rx) = g.stream::<Tok>("in", 8);
        let (to, ro) = g.stream::<Tok>("out", 4);
        g.add(SourceStage::new("src", vec![Tok::new(0, 1.0, true)], Cost::UNIT, tx));
        g.add(ReduceStage::new("reduce", rx, to, 1));
        let sink = g.add_counted_sink("sink", ro, 1);
        EventSim::new(g).run().unwrap();
        let (_, arrival) = sink.collected()[0];
        assert!(arrival >= LANE_REDUCE_LATENCY, "arrival {arrival}");
    }
}
