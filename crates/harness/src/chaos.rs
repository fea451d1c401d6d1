//! Seeded chaos matrix: fault injection × deployment, with a survival
//! gate.
//!
//! [`run`] drives the engine's fault-injection framework through a fixed
//! matrix of failure scenarios — stage stalls, dropped tokens, in-flight
//! corruption (scrubbed and repriced), engine deaths, mid-run kill plus
//! journal resume, total FPGA loss, and overload shedding — on both
//! the streaming and multi-engine deployments. Every scenario is **deterministic**
//! (seeded fault placement, discrete-event timing, no wall clock), so two
//! runs produce byte-identical reports and the committed baseline
//! (`results/chaos_baseline.json`) is gated by [`GATE`] with **exact**
//! equality: any change in survival behaviour, retry counts, or shed
//! counts is a regression.

use crate::gate::{Check, Gate};
use crate::json::Json;
use cds_engine::config::EngineVariant;
use cds_engine::multi::{MultiEngine, BATCH_RETRY_ROUNDS};
use cds_engine::scrub::ScrubPolicy;
use cds_engine::streaming::{
    poisson_arrivals, resume_streaming_from, run_streaming, run_streaming_journalled,
    run_streaming_with, AdmissionControl, StreamingPolicy,
};
use cds_engine::tokens::SpreadTok;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency, PortfolioGenerator};
use dataflow_sim::fault::{FaultEvent, FaultPlan};
use dataflow_sim::Cycle;
use std::rc::Rc;

/// Deep-recovery depth of the engine-death scenario: one re-shard round
/// more than [`BATCH_RETRY_ROUNDS`], enough for plans that kill engines
/// in successive waves.
const CASCADE_RETRY_ROUNDS: usize = 3;

/// Version of the chaos JSON schema (independent of the bench schema).
/// v2 added `options_quarantined`, per-case `fault_events` hit lists and
/// the corrupt-scrub / kill-resume scenarios.
pub const SCHEMA_VERSION: u64 = 2;

/// The `chaos --check` gate. The matrix is deterministic, so every field
/// of every scenario must equal the baseline, and the seed must match.
pub static GATE: Gate = Gate {
    name: "chaos",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::eq("seed"),
        Check::eq("faults_injected").within("cases"),
        Check::eq("options_total").within("cases"),
        Check::eq("options_completed").within("cases"),
        Check::eq("options_retried").within("cases"),
        Check::eq("options_shed").within("cases"),
        Check::eq("options_lost").within("cases"),
        Check::eq("options_quarantined").within("cases"),
        Check::eq("fault_events").within("cases"),
        Check::eq("degraded").within("cases"),
        Check::eq("spreads_match_clean").within("cases"),
        Check::eq("p99_bounded").within("cases"),
        Check::eq("survived").within("cases"),
    ],
};

/// Outcome of one chaos scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCase {
    /// Stable scenario slug, e.g. `streaming/drop`.
    pub name: String,
    /// Faults the plan actually injected.
    pub faults_injected: u64,
    /// Options offered to the deployment.
    pub options_total: u64,
    /// Options that produced a spread.
    pub options_completed: u64,
    /// Options re-priced by failover.
    pub options_retried: u64,
    /// Options shed by admission control.
    pub options_shed: u64,
    /// Options lost in flight (admitted, never completed).
    pub options_lost: u64,
    /// Options the result-integrity scrubber quarantined and repriced.
    pub options_quarantined: u64,
    /// What each injected per-token fault actually hit: stream name,
    /// absolute token index and — when known — the affected option
    /// (rendered [`dataflow_sim::fault::FaultEvent`] records, in
    /// injection order).
    pub fault_events: Vec<String>,
    /// Deployment ran impaired (engine death or CPU fallback).
    pub degraded: bool,
    /// Completed spreads agree with the fault-free run.
    pub spreads_match_clean: bool,
    /// Latency tail stayed within the scenario's bound.
    pub p99_bounded: bool,
    /// The scenario's overall pass verdict.
    pub survived: bool,
}

impl ChaosCase {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("faults_injected", Json::Number(self.faults_injected as f64)),
            ("options_total", Json::Number(self.options_total as f64)),
            ("options_completed", Json::Number(self.options_completed as f64)),
            ("options_retried", Json::Number(self.options_retried as f64)),
            ("options_shed", Json::Number(self.options_shed as f64)),
            ("options_lost", Json::Number(self.options_lost as f64)),
            ("options_quarantined", Json::Number(self.options_quarantined as f64)),
            (
                "fault_events",
                Json::Array(self.fault_events.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("degraded", Json::Bool(self.degraded)),
            ("spreads_match_clean", Json::Bool(self.spreads_match_clean)),
            ("p99_bounded", Json::Bool(self.p99_bounded)),
            ("survived", Json::Bool(self.survived)),
        ])
    }
}

/// A full chaos-matrix run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Seed the fault placements and workloads derive from.
    pub seed: u64,
    /// All scenarios, in matrix order.
    pub cases: Vec<ChaosCase>,
}

impl ChaosReport {
    /// Look a scenario up by its stable name.
    pub fn find(&self, name: &str) -> Option<&ChaosCase> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// True when every scenario survived.
    pub fn all_survived(&self) -> bool {
        self.cases.iter().all(|c| c.survived)
    }

    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("cases", Json::Array(self.cases.iter().map(ChaosCase::to_json).collect())),
        ])
    }
}

/// Near-equality for recovered spreads: the CPU fallback is numerically
/// identical to the reference pricer, while the FPGA path agrees with it
/// to well under this tolerance.
fn spreads_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-6 * (1.0 + y.abs()))
}

fn uniform_options(n: usize) -> Vec<CdsOption> {
    PortfolioGenerator::uniform(n, 5.5, PaymentFrequency::Quarterly, 0.40)
}

/// Render a run's per-token fault records into the report's stable
/// hit-list form (stream, token index, affected option).
fn event_strings(events: &[FaultEvent]) -> Vec<String> {
    events.iter().map(FaultEvent::to_string).collect()
}

/// Execute the chaos matrix. Deterministic in `seed`.
pub fn run(seed: u64) -> ChaosReport {
    let market = MarketData::paper_workload(seed);
    let shared = Rc::new(market.clone());
    let config = EngineVariant::Vectorised.config();
    let mut cases = Vec::new();

    // -- streaming/stall: a transient slowdown delays but never loses work.
    {
        let opts = uniform_options(8);
        let arrivals: Vec<Cycle> = (0..8).map(|i| i * 40_000).collect();
        let clean = run_streaming(shared.clone(), &config, &opts, &arrivals);
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(seed).stall_stage("hazard_out", 5_000, 22)),
            ..Default::default()
        };
        let r = run_streaming_with(shared.clone(), &config, &opts, &arrivals, &policy)
            .unwrap_or_else(|e| panic!("streaming/stall must terminate: {e}"));
        let spreads_match_clean = r.spreads == clean.spreads;
        cases.push(ChaosCase {
            name: "streaming/stall".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: 0,
            options_shed: r.options_shed,
            options_lost: r.options_lost,
            options_quarantined: 0,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: false,
            spreads_match_clean,
            p99_bounded: true,
            survived: r.faults_injected > 0 && r.options_lost == 0 && spreads_match_clean,
        });
    }

    // -- streaming/drop: a lost result is flagged, not hung.
    {
        let opts = uniform_options(6);
        let arrivals: Vec<Cycle> = (0..6).map(|i| i * 50_000).collect();
        let clean = run_streaming(shared.clone(), &config, &opts, &arrivals);
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(seed).drop_nth("spreads", 2)),
            ..Default::default()
        };
        let r = run_streaming_with(shared.clone(), &config, &opts, &arrivals, &policy)
            .unwrap_or_else(|e| panic!("streaming/drop must terminate: {e}"));
        // Survivors must match the fault-free spreads at the same indices.
        let survivor_clean: Vec<f64> = clean
            .spreads
            .iter()
            .enumerate()
            .filter(|(i, _)| !r.lost_indices.contains(&(*i as u32)))
            .map(|(_, &s)| s)
            .collect();
        let spreads_match_clean = r.spreads == survivor_clean;
        cases.push(ChaosCase {
            name: "streaming/drop".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: 0,
            options_shed: r.options_shed,
            options_lost: r.options_lost,
            options_quarantined: 0,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: false,
            spreads_match_clean,
            p99_bounded: true,
            survived: r.options_lost == 1 && r.faults_injected > 0 && spreads_match_clean,
        });
    }

    // -- streaming/shed: 2x saturation with M/D/1 admission control — the
    // p99 of admitted traffic stays within 10x the unloaded p99.
    {
        let n = 200;
        let opts = uniform_options(n);
        let service = 22 * config.steady_state_point_cycles(shared.hazard.len());
        let lone = run_streaming(shared.clone(), &config, &opts[..1], &[0]);
        let capacity_per_s = config.clock.hz / service as f64;
        let arrivals = poisson_arrivals(&config, 2.0 * capacity_per_s, n, seed);
        let policy = StreamingPolicy {
            admission: Some(AdmissionControl::from_md1(service, 0.8)),
            ..Default::default()
        };
        let r = run_streaming_with(shared.clone(), &config, &opts, &arrivals, &policy)
            .unwrap_or_else(|e| panic!("streaming/shed must terminate: {e}"));
        let p99_bounded = r.p99_cycles <= 10 * lone.p99_cycles;
        cases.push(ChaosCase {
            name: "streaming/shed".to_string(),
            faults_injected: r.faults_injected,
            options_total: n as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: 0,
            options_shed: r.options_shed,
            options_lost: r.options_lost,
            options_quarantined: 0,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: false,
            spreads_match_clean: true,
            p99_bounded,
            survived: r.options_shed > 0 && r.options_lost == 0 && p99_bounded,
        });
    }

    // -- multi/engine-death: the acceptance scenario. One of the five
    // Table II engines dies mid-run; the batch still completes with
    // spreads identical to the fault-free run.
    {
        let opts = uniform_options(50);
        let multi = match MultiEngine::new(market.clone(), 5) {
            Ok(m) => m,
            Err(e) => panic!("five engines fit the U280: {e}"),
        };
        let clean = multi
            .price_batch(&opts)
            .unwrap_or_else(|e| panic!("the fault-free deployment must price: {e}"));
        let plan = FaultPlan::new(seed).kill_region("e2.", 60_000);
        let r = multi
            .price_batch_resilient(&opts, Some(&plan), CASCADE_RETRY_ROUNDS, None)
            .unwrap_or_else(|e| panic!("multi/engine-death must recover: {e}"));
        let spreads_match_clean = r.spreads == clean.spreads;
        cases.push(ChaosCase {
            name: "multi/engine-death".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: r.options_retried,
            options_shed: r.options_shed,
            options_lost: 0,
            options_quarantined: 0,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: r.degraded,
            spreads_match_clean,
            p99_bounded: true,
            survived: spreads_match_clean
                && r.degraded
                && r.options_retried > 0
                && r.faults_injected > 0,
        });
    }

    // -- multi/all-dead: every FPGA engine dies; the deployment degrades
    // to the CPU engine and still prices the whole batch.
    {
        let opts = uniform_options(20);
        let multi = match MultiEngine::new(market.clone(), 3) {
            Ok(m) => m,
            Err(e) => panic!("three engines fit the U280: {e}"),
        };
        let clean = multi
            .price_batch(&opts)
            .unwrap_or_else(|e| panic!("the fault-free deployment must price: {e}"));
        let mut plan = FaultPlan::new(seed);
        for k in 0..3 {
            plan = plan.kill_region(format!("e{k}."), 10_000);
        }
        let r = multi
            .price_batch_resilient(&opts, Some(&plan), BATCH_RETRY_ROUNDS, None)
            .unwrap_or_else(|e| panic!("multi/all-dead must fall back to CPU: {e}"));
        let spreads_match_clean = spreads_close(&r.spreads, &clean.spreads);
        cases.push(ChaosCase {
            name: "multi/all-dead".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: r.options_retried,
            options_shed: r.options_shed,
            options_lost: 0,
            options_quarantined: 0,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: r.degraded,
            spreads_match_clean,
            p99_bounded: true,
            survived: spreads_match_clean && r.degraded && r.spreads.len() == opts.len(),
        });
    }

    // -- multi/stall: a slowdown inside one engine of a three-engine
    // deployment; no retries needed, numerics untouched.
    {
        let opts = uniform_options(24);
        let multi = match MultiEngine::new(market.clone(), 3) {
            Ok(m) => m,
            Err(e) => panic!("three engines fit the U280: {e}"),
        };
        let clean = multi
            .price_batch(&opts)
            .unwrap_or_else(|e| panic!("the fault-free deployment must price: {e}"));
        let plan = FaultPlan::new(seed).stall_stage("e1.hazard_out", 2_000, 22);
        let r = multi
            .price_batch_resilient(&opts, Some(&plan), BATCH_RETRY_ROUNDS, None)
            .unwrap_or_else(|e| panic!("multi/stall must complete: {e}"));
        let spreads_match_clean = r.spreads == clean.spreads;
        cases.push(ChaosCase {
            name: "multi/stall".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: r.options_retried,
            options_shed: r.options_shed,
            options_lost: 0,
            options_quarantined: 0,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: r.degraded,
            spreads_match_clean,
            p99_bounded: true,
            survived: spreads_match_clean
                && !r.degraded
                && r.options_retried == 0
                && r.faults_injected > 0,
        });
    }

    // -- streaming/corrupt-scrub: two spread tokens are mutated in flight,
    // one blatantly (sign flip — the invariant guards catch it) and one
    // subtly (+0.25 bp, inside the hazard envelope — only the fault
    // event's option identity catches it). The scrubber quarantines both,
    // reprices them on the CPU fallback, and the run converges to the
    // fault-free spreads.
    {
        let opts = uniform_options(8);
        let arrivals: Vec<Cycle> = (0..8).map(|i| i * 40_000).collect();
        let clean = run_streaming(shared.clone(), &config, &opts, &arrivals);
        let plan = FaultPlan::new(seed)
            .corrupt_nth::<SpreadTok>("spreads", 2, |t| SpreadTok {
                spread_bps: -t.spread_bps,
                ..t
            })
            .corrupt_nth::<SpreadTok>("spreads", 5, |t| SpreadTok {
                spread_bps: t.spread_bps + 0.25,
                ..t
            });
        let policy = StreamingPolicy {
            fault_plan: Some(plan),
            scrub: Some(ScrubPolicy { cross_check_every: 0 }),
            ..Default::default()
        };
        let r = run_streaming_with(shared.clone(), &config, &opts, &arrivals, &policy)
            .unwrap_or_else(|e| panic!("streaming/corrupt-scrub must terminate: {e}"));
        let quarantined = r.scrub.as_ref().map_or(0, |s| s.options_quarantined);
        let spreads_match_clean = spreads_close(&r.spreads, &clean.spreads);
        cases.push(ChaosCase {
            name: "streaming/corrupt-scrub".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: 0,
            options_shed: r.options_shed,
            options_lost: r.options_lost,
            options_quarantined: quarantined,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: false,
            spreads_match_clean,
            p99_bounded: true,
            survived: r.faults_injected == 2
                && quarantined == 2
                && r.options_lost == 0
                && spreads_match_clean,
        });
    }

    // -- multi/corrupt-scrub: corruption inside two engines of a
    // three-engine deployment — one NaN (guards) and one subtle bias
    // (taint tracking). Scrubbed spreads converge to the clean batch.
    {
        let opts = uniform_options(24);
        let multi = match MultiEngine::new(market.clone(), 3) {
            Ok(m) => m,
            Err(e) => panic!("three engines fit the U280: {e}"),
        };
        let clean = multi
            .price_batch(&opts)
            .unwrap_or_else(|e| panic!("the fault-free deployment must price: {e}"));
        let plan = FaultPlan::new(seed)
            .corrupt_nth::<SpreadTok>("e1.spreads", 3, |t| SpreadTok { spread_bps: f64::NAN, ..t })
            .corrupt_nth::<SpreadTok>("e0.spreads", 1, |t| SpreadTok {
                spread_bps: t.spread_bps + 0.25,
                ..t
            });
        let scrub = ScrubPolicy { cross_check_every: 0 };
        let r = multi
            .price_batch_resilient(&opts, Some(&plan), BATCH_RETRY_ROUNDS, Some(&scrub))
            .unwrap_or_else(|e| panic!("multi/corrupt-scrub must recover: {e}"));
        let quarantined = r.scrub.as_ref().map_or(0, |s| s.options_quarantined);
        let spreads_match_clean = spreads_close(&r.spreads, &clean.spreads);
        cases.push(ChaosCase {
            name: "multi/corrupt-scrub".to_string(),
            faults_injected: r.faults_injected,
            options_total: opts.len() as u64,
            options_completed: r.spreads.len() as u64,
            options_retried: r.options_retried,
            options_shed: r.options_shed,
            options_lost: 0,
            options_quarantined: quarantined,
            fault_events: event_strings(&r.counters.fault_events),
            degraded: r.degraded,
            spreads_match_clean,
            p99_bounded: true,
            survived: r.faults_injected == 2 && quarantined == 2 && spreads_match_clean,
        });
    }

    // -- streaming/kill-resume: the engine dies mid-run with a write-ahead
    // journal at cadence 3; the resumed run picks up from the journal
    // and reproduces the fault-free spreads bit-for-bit.
    {
        let n = 12usize;
        let opts = uniform_options(n);
        let arrivals: Vec<Cycle> = (0..n as u64).map(|i| i * 30_000).collect();
        let clean = run_streaming(shared.clone(), &config, &opts, &arrivals);
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(seed).kill_region("", arrivals[n / 2])),
            ..Default::default()
        };
        let (killed, journal) =
            run_streaming_journalled(shared.clone(), &config, &opts, &arrivals, &policy, 3)
                .unwrap_or_else(|e| panic!("streaming/kill-resume kill leg must terminate: {e}"));
        let resumed = resume_streaming_from(
            shared.clone(),
            &config,
            &opts,
            &arrivals,
            &StreamingPolicy::default(),
            &journal.to_text(),
        )
        .unwrap_or_else(|e| panic!("streaming/kill-resume resume leg must succeed: {e}"));
        let spreads_match_clean = resumed.spreads == clean.spreads;
        cases.push(ChaosCase {
            name: "streaming/kill-resume".to_string(),
            faults_injected: killed.faults_injected,
            options_total: n as u64,
            options_completed: resumed.spreads.len() as u64,
            options_retried: (n - journal.completed.len()) as u64,
            options_shed: resumed.options_shed,
            options_lost: resumed.options_lost,
            options_quarantined: 0,
            fault_events: event_strings(&killed.counters.fault_events),
            degraded: true,
            spreads_match_clean,
            p99_bounded: true,
            survived: killed.options_lost > 0
                && resumed.options_lost == 0
                && resumed.spreads.len() == n
                && spreads_match_clean,
        });
    }

    ChaosReport { schema_version: SCHEMA_VERSION, seed, cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ChaosReport {
        run(42)
    }

    #[test]
    fn chaos_matrix_is_deterministic() {
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn every_scenario_survives() {
        let r = report();
        for c in &r.cases {
            assert!(c.survived, "case {} failed: {c:?}", c.name);
        }
        assert!(r.all_survived());
    }

    #[test]
    fn matrix_covers_deployments_and_fault_kinds() {
        let r = report();
        for name in [
            "streaming/stall",
            "streaming/drop",
            "streaming/shed",
            "multi/engine-death",
            "multi/all-dead",
            "multi/stall",
            "streaming/corrupt-scrub",
            "multi/corrupt-scrub",
            "streaming/kill-resume",
        ] {
            assert!(r.find(name).is_some(), "missing case {name}");
        }
        // The acceptance scenario's exact contract.
        let death = r.find("multi/engine-death").expect("engine-death case");
        assert!(death.degraded && death.options_retried > 0 && death.spreads_match_clean);
        let shed = r.find("streaming/shed").expect("shed case");
        assert!(shed.options_shed > 0 && shed.p99_bounded && shed.options_lost == 0);
    }

    #[test]
    fn corruption_scenarios_quarantine_and_converge() {
        let r = report();
        for name in ["streaming/corrupt-scrub", "multi/corrupt-scrub"] {
            let c = r.find(name).expect(name);
            assert_eq!(c.options_quarantined, 2, "{name}: {c:?}");
            assert!(c.spreads_match_clean, "{name} must converge to fault-free spreads");
            assert_eq!(c.fault_events.len(), 2, "{name}: {:?}", c.fault_events);
            for hit in &c.fault_events {
                assert!(hit.starts_with("corrupt"), "{name} hit {hit}");
                assert!(hit.contains("opt "), "{name} hit {hit} must name the option");
            }
        }
    }

    #[test]
    fn kill_resume_recovers_every_option() {
        let r = report();
        let c = r.find("streaming/kill-resume").expect("kill-resume case");
        assert!(c.options_retried > 0, "the resume must have had work left: {c:?}");
        assert_eq!(c.options_lost, 0);
        assert_eq!(c.options_completed, c.options_total);
        assert!(c.spreads_match_clean, "resumed spreads must be bit-identical to clean");
    }

    #[test]
    fn stall_hits_name_the_stream_and_option() {
        let c = report().find("streaming/stall").cloned().expect("stall case");
        assert_eq!(c.fault_events.len() as u64, c.faults_injected);
        assert!(
            c.fault_events.iter().all(|h| h.starts_with("stall hazard_out[")),
            "{:?}",
            c.fault_events
        );
    }
}
