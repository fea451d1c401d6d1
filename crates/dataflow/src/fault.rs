//! Deterministic fault injection for dataflow simulations.
//!
//! A [`FaultPlan`] describes, up front and reproducibly, what should go
//! wrong during a run: stage stalls (modelled as extra latency on the
//! first N tokens of the stage's output stream), dropped or corrupted
//! stream tokens, and whole-region death at a given cycle (every process
//! whose name starts with a prefix halts, as when one engine of a
//! multi-engine deployment dies). Install a plan with
//! [`crate::graph::GraphBuilder::set_fault_plan`] *before* creating
//! streams; both schedulers consult it and count every injected fault in
//! [`FaultCounters`], which surfaces through
//! [`crate::graph::SimReport::faults`] and [`crate::trace::Counters`].
//!
//! Faults are one-shot: token indices are absolute positions in the
//! stream's push sequence and death cycles are absolute simulation
//! cycles, so the same plan against the same graph injects exactly the
//! same faults every run. When a plan is installed, a run that ends with
//! starved processes or undrained streams (work lost to injected faults)
//! terminates gracefully with a report instead of reporting a deadlock.

use crate::Cycle;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// SplitMix64: the tiny, high-quality mixer used to derive deterministic
/// fault placements (token indices, death cycles) from a plan seed
/// without pulling in an RNG dependency.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tally of faults injected (or, for region deaths, applied) during a
/// run. All zeros on a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Tokens delayed by an injected stage stall.
    pub stage_stalls: u64,
    /// Tokens silently discarded at a stream ingress.
    pub dropped_tokens: u64,
    /// Tokens mutated in flight.
    pub corrupted_tokens: u64,
    /// Dataflow regions killed mid-run.
    pub region_deaths: u64,
}

impl FaultCounters {
    /// Total faults of all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stage_stalls + self.dropped_tokens + self.corrupted_tokens + self.region_deaths
    }

    /// True when at least one fault was injected.
    #[must_use]
    pub fn any(&self) -> bool {
        self.total() > 0
    }

    /// Fold another tally into this one (all fields add).
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.stage_stalls += other.stage_stalls;
        self.dropped_tokens += other.dropped_tokens;
        self.corrupted_tokens += other.corrupted_tokens;
        self.region_deaths += other.region_deaths;
    }
}

/// Kind of an injected per-token fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Token delayed by a stage stall.
    Stall,
    /// Token silently discarded.
    Drop,
    /// Token mutated in flight.
    Corrupt,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Stall => write!(f, "stall"),
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// One injected per-token fault, recorded with the stream and absolute
/// push index it hit — so survival reports can say *what* was damaged,
/// not just how much, and the engine layer can quarantine exactly the
/// affected options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Name of the stream the fault fired on.
    pub stream: String,
    /// 0-based absolute push index of the affected token.
    pub token: u64,
    /// What was done to the token.
    pub kind: FaultKind,
    /// Identity of the option the token belonged to, when the plan has a
    /// registered extractor (see [`FaultPlan::identify`]) for the
    /// stream's payload type.
    pub opt_idx: Option<u32>,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}[{}]", self.kind, self.stream, self.token)?;
        if let Some(opt) = self.opt_idx {
            write!(f, " opt {opt}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct StallSpec {
    stream: String,
    extra_cycles: Cycle,
    tokens: u64,
}

#[derive(Debug, Clone)]
struct DropSpec {
    stream: String,
    nth: u64,
}

#[derive(Clone)]
struct CorruptSpec {
    stream: String,
    nth: u64,
    /// Type-erased `Rc<dyn Fn(T) -> T>`, downcast when the stream of
    /// matching payload type is created.
    mutator: Rc<dyn Any>,
}

#[derive(Debug, Clone)]
struct DeathSpec {
    prefix: String,
    at_cycle: Cycle,
}

/// A reproducible script of faults to inject into one simulation run.
///
/// Built with the fluent methods below; the `seed` is carried for
/// reporting and for callers deriving fault placements via
/// [`splitmix64`].
#[derive(Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    stalls: Vec<StallSpec>,
    drops: Vec<DropSpec>,
    corrupts: Vec<CorruptSpec>,
    deaths: Vec<DeathSpec>,
    /// Type-erased `Rc<dyn Fn(&T) -> Option<u32>>` identity extractors,
    /// tried in order when a stream of payload type `T` is created.
    idents: Vec<Rc<dyn Any>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("stalls", &self.stalls)
            .field("drops", &self.drops)
            .field("corrupts", &self.corrupts.len())
            .field("deaths", &self.deaths)
            .field("idents", &self.idents.len())
            .finish()
    }
}

impl FaultPlan {
    /// Empty plan carrying a seed for deterministic fault placement.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// The seed this plan was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty()
            && self.drops.is_empty()
            && self.corrupts.is_empty()
            && self.deaths.is_empty()
    }

    /// Stall the producer of `stream` for its first `tokens` firings:
    /// each affected token becomes visible `extra_cycles` later than it
    /// would have. Models a stage transiently missing its initiation
    /// interval (e.g. a memory-port conflict burst).
    #[must_use]
    pub fn stall_stage(
        mut self,
        stream: impl Into<String>,
        extra_cycles: Cycle,
        tokens: u64,
    ) -> Self {
        self.stalls.push(StallSpec { stream: stream.into(), extra_cycles, tokens });
        self
    }

    /// Silently discard the `nth` token (0-based push index) pushed onto
    /// `stream`. Models a lossy link or a flushed FIFO.
    #[must_use]
    pub fn drop_nth(mut self, stream: impl Into<String>, nth: u64) -> Self {
        self.drops.push(DropSpec { stream: stream.into(), nth });
        self
    }

    /// Mutate the `nth` token pushed onto `stream` with `f`. The payload
    /// type must match the stream's payload type exactly, or the fault
    /// never attaches.
    #[must_use]
    pub fn corrupt_nth<T: 'static>(
        mut self,
        stream: impl Into<String>,
        nth: u64,
        f: impl Fn(T) -> T + 'static,
    ) -> Self {
        let mutator: Rc<dyn Fn(T) -> T> = Rc::new(f);
        self.corrupts.push(CorruptSpec { stream: stream.into(), nth, mutator: Rc::new(mutator) });
        self
    }

    /// Register an option-identity extractor for payload type `T`: when
    /// a stall/drop/corrupt fault fires on a stream carrying `T`, the
    /// recorded [`FaultEvent`] is tagged with the option the token
    /// belonged to. Identity is extracted *before* any corruption is
    /// applied, so a mutator that damages the identity field itself
    /// still yields the true owner.
    #[must_use]
    pub fn identify<T: 'static>(mut self, f: impl Fn(&T) -> Option<u32> + 'static) -> Self {
        let extractor: IdentFn<T> = Rc::new(f);
        self.idents.push(Rc::new(extractor));
        self
    }

    /// Kill every process whose name starts with `prefix` at `at_cycle`.
    /// Models a whole dataflow region (one engine of a multi-engine
    /// deployment) dying mid-run.
    #[must_use]
    pub fn kill_region(mut self, prefix: impl Into<String>, at_cycle: Cycle) -> Self {
        self.deaths.push(DeathSpec { prefix: prefix.into(), at_cycle });
        self
    }

    /// Instantiate the shared runtime state the schedulers and streams
    /// update during a run.
    pub(crate) fn runtime(&self) -> SharedFaults {
        Rc::new(RefCell::new(FaultState {
            counters: FaultCounters::default(),
            events: Vec::new(),
            deaths: self
                .deaths
                .iter()
                .map(|d| DeathState { prefix: d.prefix.clone(), at_cycle: d.at_cycle })
                .collect(),
        }))
    }

    /// Extract the push-time hooks for a stream named `name` carrying
    /// payload type `T`. Returns `None` when the plan does not touch
    /// that stream.
    pub(crate) fn hooks_for<T: 'static>(
        &self,
        name: &str,
        shared: &SharedFaults,
    ) -> Option<StreamFaultHooks<T>> {
        let stalls: Vec<(u64, Cycle)> = self
            .stalls
            .iter()
            .filter(|s| s.stream == name)
            .map(|s| (s.tokens, s.extra_cycles))
            .collect();
        let drops: Vec<u64> =
            self.drops.iter().filter(|d| d.stream == name).map(|d| d.nth).collect();
        let corrupts: CorruptHooks<T> = self
            .corrupts
            .iter()
            .filter(|c| c.stream == name)
            .filter_map(|c| {
                c.mutator.downcast_ref::<Rc<dyn Fn(T) -> T>>().map(|f| (c.nth, f.clone()))
            })
            .collect();
        if stalls.is_empty() && drops.is_empty() && corrupts.is_empty() {
            return None;
        }
        let ident = self.idents.iter().find_map(|i| i.downcast_ref::<IdentFn<T>>().cloned());
        Some(StreamFaultHooks { stalls, drops, corrupts, ident, shared: shared.clone() })
    }
}

/// Runtime fault state shared between the scheduler and every faulted
/// stream of one graph.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    pub(crate) counters: FaultCounters,
    pub(crate) events: Vec<FaultEvent>,
    pub(crate) deaths: Vec<DeathState>,
}

/// One pending region death.
#[derive(Debug, Clone)]
pub(crate) struct DeathState {
    pub(crate) prefix: String,
    pub(crate) at_cycle: Cycle,
}

pub(crate) type SharedFaults = Rc<RefCell<FaultState>>;

/// `(token index, mutator)` pairs attached to one stream.
pub(crate) type CorruptHooks<T> = Vec<(u64, Rc<dyn Fn(T) -> T>)>;

/// Extracts the owning option index from a stream payload.
pub(crate) type IdentFn<T> = Rc<dyn Fn(&T) -> Option<u32>>;

/// Push-time fault hooks attached to a single stream.
pub(crate) struct StreamFaultHooks<T> {
    /// `(first_n_tokens, extra_cycles)` stall windows.
    pub(crate) stalls: Vec<(u64, Cycle)>,
    /// 0-based push indices to discard.
    pub(crate) drops: Vec<u64>,
    /// 0-based push indices to mutate.
    pub(crate) corrupts: CorruptHooks<T>,
    /// Extracts the owning option index from a payload, for event tagging.
    pub(crate) ident: Option<IdentFn<T>>,
    pub(crate) shared: SharedFaults,
}

impl<T> std::fmt::Debug for StreamFaultHooks<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamFaultHooks")
            .field("stalls", &self.stalls)
            .field("drops", &self.drops)
            .field("corrupts", &self.corrupts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn plan_reports_emptiness() {
        assert!(FaultPlan::new(1).is_empty());
        assert!(!FaultPlan::new(1).drop_nth("s", 0).is_empty());
        assert!(!FaultPlan::new(1).kill_region("e0.", 100).is_empty());
    }

    #[test]
    fn hooks_attach_only_to_matching_stream_and_type() {
        let plan = FaultPlan::new(7).drop_nth("a", 3).stall_stage("a", 10, 2).corrupt_nth::<u32>(
            "a",
            1,
            |v| v + 1,
        );
        let shared = plan.runtime();
        let hooks = match plan.hooks_for::<u32>("a", &shared) {
            Some(h) => h,
            None => panic!("hooks for stream a must attach"),
        };
        assert_eq!(hooks.drops, vec![3]);
        assert_eq!(hooks.stalls, vec![(2, 10)]);
        assert_eq!(hooks.corrupts.len(), 1);
        assert!(plan.hooks_for::<u32>("b", &shared).is_none());
        // Wrong payload type: the corrupt mutator silently does not attach.
        let wrong = match plan.hooks_for::<f64>("a", &shared) {
            Some(h) => h,
            None => panic!("drop/stall still attach on type mismatch"),
        };
        assert!(wrong.corrupts.is_empty());
    }

    #[test]
    fn counters_absorb_and_total() {
        let mut a = FaultCounters { stage_stalls: 1, ..Default::default() };
        let b = FaultCounters { dropped_tokens: 2, region_deaths: 1, ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.total(), 4);
        assert!(a.any());
        assert!(!FaultCounters::default().any());
    }
}

#[cfg(test)]
mod sim_tests {
    use super::tests::ok;
    use super::*;
    use crate::cycle_sim::CycleSim;
    use crate::event_sim::EventSim;
    use crate::graph::GraphBuilder;
    use crate::process::Cost;
    use crate::stages::{SinkHandle, SourceStage};

    /// Source of `n` tokens through one stream into a counted sink, with
    /// an optional fault plan installed.
    fn pipeline(n: u64, plan: Option<FaultPlan>) -> (GraphBuilder, SinkHandle<u64>) {
        let mut g = GraphBuilder::new();
        if let Some(plan) = plan {
            g.set_fault_plan(plan);
        }
        let (tx, rx) = g.stream::<u64>("s", 4);
        g.add(SourceStage::new("src", (0..n).collect(), Cost::new(1, 1), tx));
        let sink = g.add_counted_sink("sink", rx, n);
        (g, sink)
    }

    #[test]
    fn stall_delays_completion_and_is_counted() {
        let (g0, _) = pipeline(10, None);
        let clean = ok(EventSim::new(g0).run());
        let (g1, sink) = pipeline(10, Some(FaultPlan::new(1).stall_stage("s", 50, 3)));
        let faulty = ok(EventSim::new(g1).run());
        assert_eq!(sink.values().len(), 10, "stalls delay but never lose tokens");
        assert!(faulty.total_cycles > clean.total_cycles + 40);
        assert_eq!(faulty.faults.stage_stalls, 3);
        assert_eq!(clean.faults, FaultCounters::default());
    }

    #[test]
    fn drop_loses_token_but_terminates_gracefully() {
        let (g, sink) = pipeline(10, Some(FaultPlan::new(2).drop_nth("s", 4)));
        let report = ok(EventSim::new(g).run());
        assert_eq!(report.faults.dropped_tokens, 1);
        let got = sink.values();
        assert_eq!(got.len(), 9);
        assert!(!got.contains(&4), "token 4 was dropped");
    }

    #[test]
    fn corrupt_mutates_one_token() {
        let (g, sink) =
            pipeline(5, Some(FaultPlan::new(3).corrupt_nth::<u64>("s", 2, |v| v + 1000)));
        let report = ok(EventSim::new(g).run());
        assert_eq!(report.faults.corrupted_tokens, 1);
        assert_eq!(sink.values(), vec![0, 1, 1002, 3, 4]);
    }

    #[test]
    fn region_death_halts_prefixed_processes() {
        // Two independent pipelines; kill region "a." after a few cycles.
        let mk = |plan: Option<FaultPlan>| {
            let mut g = GraphBuilder::new();
            if let Some(plan) = plan {
                g.set_fault_plan(plan);
            }
            let (txa, rxa) = g.stream::<u64>("a.s", 4);
            let (txb, rxb) = g.stream::<u64>("b.s", 4);
            g.add(SourceStage::new("a.src", (0..100).collect(), Cost::new(1, 1), txa));
            g.add(SourceStage::new("b.src", (0..100).collect(), Cost::new(1, 1), txb));
            let sa = g.add_counted_sink("a.sink", rxa, 100);
            let sb = g.add_counted_sink("b.sink", rxb, 100);
            (g, sa, sb)
        };
        let (g, sa, sb) = mk(Some(FaultPlan::new(4).kill_region("a.", 10)));
        let report = ok(EventSim::new(g).run());
        assert_eq!(report.faults.region_deaths, 1);
        assert_eq!(sb.values().len(), 100, "untouched region completes");
        assert!(sa.values().len() < 100, "dead region lost work");
    }

    #[test]
    fn schedulers_agree_under_faults() {
        let plan = || {
            FaultPlan::new(5).stall_stage("s", 25, 2).drop_nth("s", 7).corrupt_nth::<u64>(
                "s",
                3,
                |v| v * 2,
            )
        };
        let (g1, s1) = pipeline(12, Some(plan()));
        let (g2, s2) = pipeline(12, Some(plan()));
        let e = ok(EventSim::new(g1).run());
        let c = ok(CycleSim::new(g2).run());
        assert_eq!(e.total_cycles, c.total_cycles);
        assert_eq!(e.faults, c.faults);
        assert_eq!(s1.collected(), s2.collected());
    }

    #[test]
    fn fault_events_name_stream_and_token() {
        let plan = FaultPlan::new(9).drop_nth("s", 4).corrupt_nth::<u64>("s", 2, |v| v + 1);
        let (g, _sink) = pipeline(10, Some(plan));
        let report = ok(EventSim::new(g).run());
        assert_eq!(report.fault_events.len(), 2);
        let corrupt = &report.fault_events[0];
        assert_eq!((corrupt.stream.as_str(), corrupt.token), ("s", 2));
        assert_eq!(corrupt.kind, FaultKind::Corrupt);
        assert_eq!(corrupt.opt_idx, None, "no identity extractor registered");
        let drop = &report.fault_events[1];
        assert_eq!((drop.stream.as_str(), drop.token, drop.kind), ("s", 4, FaultKind::Drop));
        assert_eq!(format!("{corrupt}"), "corrupt s[2]");
    }

    #[test]
    fn fault_events_carry_option_identity() {
        // Corrupt the identity field itself: the event must still name
        // the original owner, because identity is extracted pre-mutation.
        let plan = FaultPlan::new(10)
            .corrupt_nth::<u64>("s", 3, |_| 999)
            .identify::<u64>(|&v| Some(v as u32));
        let (g, sink) = pipeline(6, Some(plan));
        let report = ok(EventSim::new(g).run());
        assert_eq!(sink.values(), vec![0, 1, 2, 999, 4, 5]);
        assert_eq!(report.fault_events.len(), 1);
        assert_eq!(report.fault_events[0].opt_idx, Some(3));
        assert_eq!(format!("{}", report.fault_events[0]), "corrupt s[3] opt 3");
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let (g0, s0) = pipeline(20, None);
        let (g1, s1) = pipeline(20, Some(FaultPlan::new(6)));
        let clean = ok(EventSim::new(g0).run());
        let planned = ok(EventSim::new(g1).run());
        assert_eq!(clean.total_cycles, planned.total_cycles);
        assert_eq!(s0.collected(), s1.collected());
        assert_eq!(planned.faults, FaultCounters::default());
    }
}
