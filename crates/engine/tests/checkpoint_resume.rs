//! Property tests for the write-ahead run journal: checkpoint text
//! serialisation round-trips bit-for-bit, and resuming an interrupted
//! run from *any* checkpoint reproduces the uninterrupted run's spreads
//! exactly — the recovery guarantee the robustness layer advertises.

use cds_engine::checkpoint::{Checkpoint, CompletedOption, CHECKPOINT_SCHEMA_VERSION};
use cds_engine::config::EngineVariant;
use cds_engine::prelude::*;
use cds_quant::option::{CdsOption, MarketData, PortfolioGenerator};
use dataflow_sim::fault::FaultPlan;
use dataflow_sim::Cycle;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::rc::Rc;

fn market() -> MarketData<f64> {
    MarketData::paper_workload(42)
}

/// A mixed-maturity portfolio so per-option spreads differ and a
/// misplaced index cannot masquerade as a bit-identical resume.
fn portfolio(n: usize) -> Vec<CdsOption> {
    PortfolioGenerator::new(9).portfolio(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `to_text` → `parse` is the identity, including exact f64 spread
    /// bits (stored as hex bit patterns, immune to decimal rounding).
    #[test]
    fn checkpoint_text_round_trips_bit_exactly(
        total in 1u32..64,
        cadence in 1u32..9,
        watermark in 0u64..1_000_000,
        fault_seed in prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some)],
        scenario in prop_oneof![
            Just(None),
            Just(Some("none".to_string())),
            Just(Some("corrupt-spread".to_string())),
            Just(Some("server".to_string())),
        ],
        spreads in proptest::collection::vec((-1e9f64..1e9, 0u64..1_000_000), 0..12),
    ) {
        // Parse re-validates that every completed option was admitted,
        // so only the first `total` entries can legitimately complete.
        let completed: Vec<CompletedOption> = spreads
            .iter()
            .take(total as usize)
            .enumerate()
            .map(|(i, &(s, c))| CompletedOption {
                index: i as u32,
                done_cycle: c as Cycle,
                spread_bps: s,
            })
            .collect();
        let admitted: Vec<u32> = (0..total).collect();
        let cp = Checkpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            total_options: total,
            cadence,
            watermark_cycle: watermark as Cycle,
            fault_seed,
            scenario,
            admitted,
            shed: Vec::new(),
            completed,
        };
        let restored = match Checkpoint::parse(&cp.to_text()) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}"))),
        };
        prop_assert_eq!(&restored, &cp);
        for (a, b) in restored.completed.iter().zip(&cp.completed) {
            prop_assert_eq!(a.spread_bps.to_bits(), b.spread_bps.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill a streaming run at a random point, journal at a random
    /// cadence, resume from a random checkpoint (not just the last):
    /// the merged result is bit-identical to the uninterrupted run.
    #[test]
    fn streaming_resume_equals_uninterrupted(
        n in 5usize..10,
        cadence in 1u32..4,
        kill_at in 1usize..5,
        which in 0usize..100,
    ) {
        let shared = Rc::new(market());
        let config = EngineVariant::Vectorised.config();
        let opts = portfolio(n);
        let arrivals: Vec<Cycle> = (0..n as u64).map(|i| i * 30_000).collect();
        let clean = run_streaming(shared.clone(), &config, &opts, &arrivals);
        prop_assert_eq!(clean.spreads.len(), n);

        let kill_cycle = arrivals[kill_at.min(n - 1)];
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(1).kill_region("", kill_cycle)),
            ..Default::default()
        };
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let killed = run_streaming_checkpointed(
            shared.clone(),
            &config,
            &opts,
            &arrivals,
            &policy,
            cadence,
            |c| checkpoints.push(c.clone()),
        );
        match killed {
            Ok(_) => {}
            Err(e) => return Err(TestCaseError::fail(format!("killed run errored: {e}"))),
        }
        prop_assert!(!checkpoints.is_empty(), "a run always emits a terminal record");

        let cp = &checkpoints[which % checkpoints.len()];
        let resumed = resume_streaming_from(
            shared,
            &config,
            &opts,
            &arrivals,
            &StreamingPolicy::default(),
            cp,
        );
        let resumed = match resumed {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("resume failed: {e}"))),
        };
        prop_assert_eq!(resumed.options_lost, 0u64);
        prop_assert_eq!(resumed.spreads.len(), n);
        for (i, (a, b)) in resumed.spreads.iter().zip(&clean.spreads).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "option {} diverged: {} vs {}", i, a, b);
        }
    }
}

/// A journal recorded under one scenario must refuse to resume under a
/// *different* requested scenario with a typed [`CdsError::Journal`] —
/// historically this silently replayed the wrong journal (often as an
/// empty run when the checkpoint was complete). Resuming with no
/// requested scenario (`None`) stays legal: that is the "finish the work
/// fault-free" path.
#[test]
fn resume_rejects_scenario_mismatch_with_typed_error() {
    let shared = Rc::new(market());
    let config = EngineVariant::Vectorised.config();
    let n = 6usize;
    let opts = portfolio(n);
    let arrivals: Vec<Cycle> = (0..n as u64).map(|i| i * 30_000).collect();
    let recorded_policy =
        StreamingPolicy { scenario: Some("corrupt-spread".to_string()), ..Default::default() };
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let run = run_streaming_checkpointed(
        shared.clone(),
        &config,
        &opts,
        &arrivals,
        &recorded_policy,
        2,
        |c| checkpoints.push(c.clone()),
    );
    if let Err(e) = run {
        panic!("recorded run failed: {e}");
    }
    let last = match checkpoints.last() {
        Some(c) => c.clone(),
        None => panic!("expected checkpoints"),
    };
    assert_eq!(last.scenario.as_deref(), Some("corrupt-spread"));
    // The label survives the text round trip the server journal relies on.
    let restored = match Checkpoint::parse(&last.to_text()) {
        Ok(c) => c,
        Err(e) => panic!("round trip failed: {e}"),
    };
    assert_eq!(restored.scenario.as_deref(), Some("corrupt-spread"));

    // Mismatched request: typed Journal error naming both scenarios.
    let wrong = StreamingPolicy { scenario: Some("none".to_string()), ..Default::default() };
    match resume_streaming_from(shared.clone(), &config, &opts, &arrivals, &wrong, &restored) {
        Err(CdsError::Journal { reason }) => {
            assert!(
                reason.contains("corrupt-spread") && reason.contains("none"),
                "reason must name both scenarios: {reason}"
            );
        }
        other => panic!("mismatched scenario must be a Journal error, got {other:?}"),
    }

    // Matching request and no request both resume fine.
    for policy in [recorded_policy, StreamingPolicy::default()] {
        match resume_streaming_from(shared.clone(), &config, &opts, &arrivals, &policy, &restored) {
            Ok(r) => assert_eq!(r.spreads.len(), n),
            Err(e) => panic!("resume under {:?} must succeed: {e}", policy.scenario),
        }
    }
}
