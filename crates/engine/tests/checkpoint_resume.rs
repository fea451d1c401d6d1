//! Property tests for the streaming run's write-ahead journal: its text
//! round-trips bit-for-bit, and resuming an interrupted run from *any*
//! record prefix of its journal reproduces the uninterrupted run's
//! spreads exactly — the recovery guarantee the robustness layer
//! advertises.

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
    fn journal_text_round_trips_bit_exactly(
        total in 1u32..64,
        cadence in 1u32..9,
        fault_seed in prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some)],
        scenario in prop_oneof![
            Just(None),
            Just(Some("none".to_string())),
            Just(Some("corrupt-spread".to_string())),
            Just(Some("server".to_string())),
        ],
        shed_every in 2u32..6,
        spreads in proptest::collection::vec((-1e9f64..1e9, 0u64..1_000_000), 0..12),
    ) {
        // Parse re-validates that every completion names an unshed
        // option below `total`, so completions take those indices.
        let shed: Vec<u32> = (0..total).filter(|i| i % shed_every == 1).collect();
        let completed: Vec<(u32, Cycle, f64)> = (0..total)
            .filter(|i| !shed.contains(i))
            .zip(&spreads)
            .map(|(i, &(s, c))| (i, c as Cycle, s))
            .collect();
        let journal = StreamJournal { total_options: total, cadence, fault_seed, scenario, shed, completed };
        let restored = match StreamJournal::parse(&journal.to_text()) {
            Ok(j) => j,
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}"))),
        };
        prop_assert_eq!(&restored, &journal);
        for (a, b) in restored.completed.iter().zip(&journal.completed) {
            prop_assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill a streaming run at a random point, journal at a random
    /// cadence, resume from a random record prefix (not just the whole
    /// journal): the merged result is bit-identical to the
    /// uninterrupted run.
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
        let journal = match run_streaming_journalled(
            shared.clone(),
            &config,
            &opts,
            &arrivals,
            &policy,
            cadence,
        ) {
            Ok((_, journal)) => journal,
            Err(e) => return Err(TestCaseError::fail(format!("killed run errored: {e}"))),
        };

        let prefix = journal.prefix(which % (journal.completed.len() + 1));
        let resumed = resume_streaming_from(
            shared,
            &config,
            &opts,
            &arrivals,
            &StreamingPolicy::default(),
            &prefix,
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
/// otherwise it would silently replay the wrong journal (often as an
/// empty run when the journal is complete). Resuming with no requested
/// scenario (`None`) stays legal: that is the "finish the work
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
    let journal = match run_streaming_journalled(
        shared.clone(),
        &config,
        &opts,
        &arrivals,
        &recorded_policy,
        2,
    ) {
        Ok((_, journal)) => journal,
        Err(e) => panic!("recorded run failed: {e}"),
    };
    assert_eq!(journal.scenario.as_deref(), Some("corrupt-spread"));
    // The label survives the text round trip the resume reads.
    let text = journal.to_text();
    match StreamJournal::parse(&text) {
        Ok(restored) => assert_eq!(restored.scenario.as_deref(), Some("corrupt-spread")),
        Err(e) => panic!("round trip failed: {e}"),
    }

    // Mismatched request: typed Journal error naming both scenarios.
    let wrong = StreamingPolicy { scenario: Some("none".to_string()), ..Default::default() };
    match resume_streaming_from(shared.clone(), &config, &opts, &arrivals, &wrong, &text) {
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
        match resume_streaming_from(shared.clone(), &config, &opts, &arrivals, &policy, &text) {
            Ok(r) => assert_eq!(r.spreads.len(), n),
            Err(e) => panic!("resume under {:?} must succeed: {e}", policy.scenario),
        }
    }
}
