//! Hostile-input coverage for the two recovery surfaces:
//!
//! * the result scrubber's repair path — corrupt spreads must come back
//!   as the reference values, idempotently;
//! * checkpoint-journal parsing — every truncation and byte corruption
//!   of a *real* journal must produce a typed error or a
//!   still-consistent checkpoint, never a panic.

use cds_engine::checkpoint::Checkpoint;
use cds_engine::config::EngineVariant;
use cds_engine::error::CdsError;
use cds_engine::scrub::{scrub_spreads, ScrubPolicy};
use cds_engine::streaming::{run_streaming_checkpointed, AdmissionControl, StreamingPolicy};
use cds_quant::cds::CdsPricer;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_quant::ulp::UlpComparator;
use dataflow_sim::fault::FaultPlan;
use dataflow_sim::Cycle;
use std::rc::Rc;

fn workload() -> (MarketData<f64>, Vec<CdsOption>, Vec<(u32, f64)>) {
    let market = MarketData::paper_workload(21);
    let pricer = CdsPricer::new(market.clone());
    let options: Vec<CdsOption> = (0..10)
        .map(|i| CdsOption::new(0.5 + 0.7 * i as f64, PaymentFrequency::Quarterly, 0.40))
        .collect();
    let priced: Vec<(u32, f64)> =
        options.iter().enumerate().map(|(i, o)| (i as u32, pricer.price(o).spread_bps)).collect();
    (market, options, priced)
}

/// A checkpoint journal from an actual streaming checkpointed run, not a
/// hand-made miniature — so the hostile-input sweeps below exercise the
/// full field surface (fault seed, scenario label, admitted/shed lists,
/// completions).
fn real_journal() -> String {
    let market = MarketData::paper_workload(9);
    let options: Vec<CdsOption> = (0..8)
        .map(|i| CdsOption::new(1.0 + 0.5 * i as f64, PaymentFrequency::Quarterly, 0.40))
        .collect();
    let arrivals: Vec<Cycle> = (0..8).map(|i| i * 30_000).collect();
    // Arrivals outpace the service interval, so admission sheds some.
    let policy = StreamingPolicy {
        admission: Some(AdmissionControl {
            service_cycles_per_option: 60_000,
            max_queue_cycles: 30_000,
        }),
        fault_plan: Some(FaultPlan::new(5)),
        scenario: Some("none".to_string()),
        ..StreamingPolicy::default()
    };
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    if let Err(e) = run_streaming_checkpointed(
        Rc::new(market),
        &EngineVariant::Vectorised.config(),
        &options,
        &arrivals,
        &policy,
        3,
        |c| checkpoints.push(c.clone()),
    ) {
        panic!("{e}");
    }
    // A mid-run checkpoint (with a genuine partial completion set), not
    // the terminal commit.
    let Some(mid) = checkpoints.get(checkpoints.len() / 2).or_else(|| checkpoints.first()) else {
        panic!("checkpointed run emitted no journal");
    };
    assert!(!mid.shed.is_empty(), "the journal must shed options: {mid:?}");
    assert!(mid.fault_seed.is_some(), "the journal must record a fault seed");
    assert!(mid.scenario.is_some(), "the journal must carry a scenario label");
    assert!(!mid.completed.is_empty(), "the journal must hold completions");
    mid.to_text()
}

#[test]
fn corrupt_spreads_are_repaired_to_reference_values() {
    let (market, options, mut priced) = workload();
    let golden: Vec<f64> = priced.iter().map(|&(_, s)| s).collect();

    // Three corruption flavours in one batch: non-finite, negative, and
    // envelope-busting huge.
    priced[1].1 = f64::NAN;
    priced[4].1 = -3.0;
    priced[7].1 = 1e9;

    let report = match scrub_spreads(&market, &options, &mut priced, &[], &ScrubPolicy::default()) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    };
    assert_eq!(report.quarantined_indices(), vec![1, 4, 7]);

    // Repair quality: every repaired slot agrees with the reference
    // under the engine ULP budget (the CPU reprice path and the
    // reference pricer share their arithmetic).
    let repaired: Vec<f64> = priced.iter().map(|&(_, s)| s).collect();
    if let Err((i, m)) = UlpComparator::ENGINE_F64.check_all(&repaired, &golden) {
        panic!("slot {i} not repaired to reference: {m}");
    }

    // Idempotence: scrubbing the repaired batch again quarantines
    // nothing, even with the sampled cross-check at full cadence.
    let again = match scrub_spreads(
        &market,
        &options,
        &mut priced,
        &[],
        &ScrubPolicy { cross_check_every: 1 },
    ) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    };
    assert_eq!(
        again.options_quarantined, 0,
        "repair is not a fixed point: {:?}",
        again.quarantined
    );
}

#[test]
fn taint_repair_survives_a_full_cross_check_rescan() {
    let (market, options, mut priced) = workload();
    let golden = priced[3].1;
    priced[3].1 = golden + 0.4; // plausible, inside the envelope

    let report = match scrub_spreads(&market, &options, &mut priced, &[3], &ScrubPolicy::default())
    {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    };
    assert_eq!(report.quarantined_indices(), vec![3]);
    assert!(report.quarantined[0].reason.contains("corruption fault"), "{report:?}");
    if let Err(m) = UlpComparator::ENGINE_F64.check(priced[3].1, golden) {
        panic!("taint repair missed the reference: {m}");
    }
}

#[test]
fn every_truncation_of_a_real_journal_errors_without_panicking() {
    let text = real_journal();
    let full = match Checkpoint::parse(&text) {
        Ok(c) => c,
        Err(e) => panic!("the untruncated journal must parse: {e}"),
    };
    assert!(!full.completed.is_empty(), "mid-run checkpoint should hold completions");

    // Cut the journal at every byte boundary. A strict prefix can stay
    // parseable only when the cut removes nothing but trailing
    // whitespace; everything else must be a typed Journal error — and
    // nothing may panic.
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        match Checkpoint::parse(prefix) {
            Ok(parsed) => {
                assert_eq!(parsed, full, "a {cut}-byte prefix parsed to a different checkpoint");
                assert!(
                    text[cut..].trim().is_empty(),
                    "a {cut}-byte prefix parsed despite dropping real content"
                );
            }
            Err(CdsError::Journal { .. }) => {}
            Err(other) => panic!("truncation at {cut} gave a non-journal error: {other}"),
        }
    }
}

#[test]
fn every_single_byte_corruption_parses_or_errors_but_never_panics() {
    let text = real_journal();
    let full = match Checkpoint::parse(&text) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    };
    for i in 0..text.len() {
        let mut corrupted = text.as_bytes().to_vec();
        corrupted[i] = corrupted[i].wrapping_add(1);
        let Ok(corrupted) = String::from_utf8(corrupted) else {
            continue;
        };
        // The contract under corruption: a typed error, or a checkpoint
        // that still passes its own consistency validation. Never a
        // panic, never an inconsistent parse.
        match Checkpoint::parse(&corrupted) {
            Ok(parsed) => {
                if let Err(e) = parsed.validate() {
                    panic!("byte {i}: parse accepted an inconsistent checkpoint: {e}");
                }
            }
            Err(CdsError::Journal { .. }) => {}
            Err(other) => panic!("byte {i}: non-journal error {other}"),
        }
    }
    // Bit-exactness control: the uncorrupted text still round-trips.
    assert_eq!(full.to_text(), text);
}

#[test]
fn non_finite_spread_bits_in_a_journal_are_rejected() {
    let text = real_journal();
    // Replace the first completion's spread bits with +inf's bit
    // pattern; validate() must refuse it as a typed error.
    let Some(pos) = text.find("completed=") else {
        panic!("journal has no completed field");
    };
    let Some(colon) = text[pos..].rfind(':') else {
        panic!("journal has no completion entries");
    };
    let start = pos + colon + 1;
    let end = text[start..].find([',', '\n']).map_or(text.len(), |e| start + e);
    let inf_bits = format!("{:016x}", f64::INFINITY.to_bits());
    let poisoned = format!("{}{}{}", &text[..start], inf_bits, &text[end..]);
    match Checkpoint::parse(&poisoned) {
        Err(CdsError::Journal { reason }) => {
            assert!(reason.contains("non-finite"), "{reason}");
        }
        other => panic!("non-finite spread accepted: {other:?}"),
    }
}
