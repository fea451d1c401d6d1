//! Hostile-input coverage for the two recovery surfaces:
//!
//! * the result scrubber's repair path — corrupt spreads must come back
//!   as the reference values, idempotently;
//! * the streaming journal — every truncation and every single-byte
//!   corruption of a *real* journal must resume to the uninterrupted
//!   run's bits or fail with a typed error, never panic.

use cds_engine::config::{EngineConfig, EngineVariant};
use cds_engine::error::CdsError;
use cds_engine::journal::StreamJournal;
use cds_engine::scrub::{scrub_spreads, ScrubPolicy};
use cds_engine::streaming::{
    resume_streaming_from, run_streaming_journalled, AdmissionControl, StreamingPolicy,
};
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

/// A run to journal: shed options, a fault seed, a scenario label and
/// completions, so the hostile-input sweeps below exercise the full
/// field surface.
struct RealRun {
    market: Rc<MarketData<f64>>,
    config: EngineConfig,
    options: Vec<CdsOption>,
    arrivals: Vec<Cycle>,
    policy: StreamingPolicy,
    /// The uninterrupted run's spread bits.
    bits: Vec<u64>,
    journal: StreamJournal,
}

fn real_run() -> RealRun {
    let market = Rc::new(MarketData::paper_workload(9));
    let config = EngineVariant::Vectorised.config();
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
    let (report, journal) =
        match run_streaming_journalled(market.clone(), &config, &options, &arrivals, &policy, 3) {
            Ok(run) => run,
            Err(e) => panic!("{e}"),
        };
    assert!(!journal.shed.is_empty(), "the journal must shed options: {journal:?}");
    assert!(journal.fault_seed.is_some(), "the journal must record a fault seed");
    assert!(journal.scenario.is_some(), "the journal must carry a scenario label");
    assert!(journal.completed.len() >= 2, "the journal must hold completions");
    let bits = report.spreads.iter().map(|s| s.to_bits()).collect();
    RealRun { market, config, options, arrivals, policy, bits, journal }
}

impl RealRun {
    /// Resume from `text`: `Ok(true)` when the resumed spreads are the
    /// uninterrupted run's bits, `Err` for a typed journal error. Any
    /// other error is a test failure.
    fn resume(&self, text: &str) -> Result<bool, String> {
        let resumed = resume_streaming_from(
            self.market.clone(),
            &self.config,
            &self.options,
            &self.arrivals,
            &self.policy,
            text,
        );
        match resumed {
            Ok(r) => Ok(r.spreads.iter().map(|s| s.to_bits()).collect::<Vec<_>>() == self.bits),
            Err(CdsError::Journal { reason }) => Err(reason),
            Err(other) => panic!("non-journal error {other}"),
        }
    }
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
fn every_truncation_of_a_real_journal_resumes_or_errors_typed() {
    let run = real_run();
    let text = run.journal.to_text();
    assert_eq!(run.resume(&text), Ok(true), "the whole journal must resume");

    // Cut the journal at every byte boundary: each prefix resumes to the
    // uninterrupted bits or is a typed Journal error — never a panic,
    // never different bits. A prefix that parses holds exactly the
    // first k completions; each k is resumed once.
    let mut resumed_at = std::collections::BTreeMap::new();
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        match StreamJournal::parse(prefix) {
            Ok(parsed) => {
                let k = parsed.completed.len();
                assert_eq!(parsed.completed, run.journal.completed[..k], "{cut}-byte prefix");
                let clean = resumed_at.entry(k).or_insert_with(|| run.resume(prefix));
                assert_eq!(*clean, Ok(true), "the {cut}-byte prefix resumed to different bits");
            }
            Err(CdsError::Journal { .. }) => {
                assert!(
                    run.resume(prefix).is_err(),
                    "{cut}-byte prefix: parse and resume disagree"
                );
            }
            Err(other) => panic!("truncation at {cut} gave a non-journal error: {other}"),
        }
    }
    // Every record boundary was reached, from the bare header to the
    // whole journal.
    assert_eq!(resumed_at.len(), run.journal.completed.len() + 1);
}

#[test]
fn every_single_byte_corruption_resumes_or_errors_typed() {
    let run = real_run();
    let text = run.journal.to_text();
    let mut typed = 0;
    for i in 0..text.len() {
        let mut corrupted = text.as_bytes().to_vec();
        corrupted[i] = corrupted[i].wrapping_add(1);
        let Ok(corrupted) = String::from_utf8(corrupted) else {
            continue;
        };
        // A corruption the journal cannot tell from real content (a
        // cadence, a fault seed, a trailing newline) must still resume
        // to the uninterrupted bits; anything else is a typed error.
        match run.resume(&corrupted) {
            Ok(clean) => assert!(clean, "byte {i}: a corrupted journal resumed to different bits"),
            Err(_) => typed += 1,
        }
    }
    assert!(typed > text.len() / 2, "only {typed} of {} corruptions were typed", text.len());
}

#[test]
fn non_finite_spread_bits_in_a_journal_are_rejected() {
    let mut journal = real_run().journal;
    // A record whose checksum is right but whose spread is +inf: the
    // reader's own rule must refuse it, not just the checksum.
    journal.completed[0].2 = f64::INFINITY;
    match StreamJournal::parse(&journal.to_text()) {
        Err(CdsError::Journal { reason }) => {
            assert!(reason.contains("non-finite"), "{reason}");
        }
        other => panic!("non-finite spread accepted: {other:?}"),
    }
}
