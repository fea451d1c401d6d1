//! Deterministic run journals for the `replay` subcommand.
//!
//! A [`RunJournal`] is everything needed to re-execute a streaming run
//! and prove it reproduces: the workload recipe (seed, option count,
//! arrival cadence), a **named** fault scenario (fault plans hold
//! closures, so the journal stores the scenario name and rebuilds the
//! plan via [`scenario_plan`]), the checkpoint cadence, every write-ahead
//! [`Checkpoint`] the run emitted (verbatim text form), and the final
//! spreads as **hex-encoded f64 bits** so equality is bit-exact rather
//! than at the mercy of decimal formatting.
//!
//! [`check`] re-executes the journal and demands bit-identical spreads
//! and byte-identical checkpoint streams; for fault-free journals it
//! additionally resumes from a mid-run checkpoint and demands the merged
//! result equals the full run — the CI determinism and recovery gate.

use crate::json::Json;
use cds_engine::checkpoint::Checkpoint;
use cds_engine::codec::{bits_to_hex, hex_to_bits};
use cds_engine::config::{EngineConfig, EngineVariant};
use cds_engine::scrub::ScrubPolicy;
use cds_engine::streaming::{
    resume_streaming_from, run_streaming_checkpointed, StreamingPolicy, StreamingReport,
};
use cds_engine::tokens::SpreadTok;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency, PortfolioGenerator};
use dataflow_sim::fault::FaultPlan;
use dataflow_sim::Cycle;
use std::rc::Rc;

/// Version of the journal JSON schema.
pub const JOURNAL_SCHEMA_VERSION: u64 = 1;

/// The named fault scenarios a journal may reference. Fault plans carry
/// closures and cannot be serialised; replay rebuilds them from these
/// names, which therefore must stay stable.
pub const SCENARIOS: &[&str] = &["none", "corrupt-spread", "stall-hazard", "drop-spread"];

/// Rebuild the fault plan a scenario name denotes. `None` means the run
/// is fault-free. Unknown names are an error (a journal from a newer
/// harness must not silently replay as fault-free).
pub fn scenario_plan(name: &str, seed: u64) -> Result<Option<FaultPlan>, String> {
    match name {
        "none" => Ok(None),
        "corrupt-spread" => Ok(Some(
            FaultPlan::new(seed)
                .corrupt_nth::<SpreadTok>("spreads", 2, |t| SpreadTok {
                    spread_bps: -t.spread_bps,
                    ..t
                })
                .corrupt_nth::<SpreadTok>("spreads", 5, |t| SpreadTok {
                    spread_bps: t.spread_bps + 0.25,
                    ..t
                }),
        )),
        "stall-hazard" => Ok(Some(FaultPlan::new(seed).stall_stage("hazard_out", 5_000, 22))),
        "drop-spread" => Ok(Some(FaultPlan::new(seed).drop_nth("spreads", 2))),
        other => Err(format!("unknown fault scenario '{other}' (known: {SCENARIOS:?})")),
    }
}

/// A recorded streaming run: recipe plus outcome, sufficient for
/// bit-exact replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunJournal {
    /// Schema version of the serialised form ([`JOURNAL_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload seed (market data and fault placement both derive from it).
    pub seed: u64,
    /// Number of options in the portfolio.
    pub options: u64,
    /// Deterministic arrival cadence: option `i` arrives at `i * arrival_step`.
    pub arrival_step: u64,
    /// Named fault scenario (see [`scenario_plan`]).
    pub scenario: String,
    /// Checkpoint cadence the run journalled at.
    pub cadence: u32,
    /// Every checkpoint the run emitted, in emission order, as the
    /// verbatim [`Checkpoint::to_text`] form.
    pub checkpoints: Vec<String>,
    /// Final spreads in original option order, as hex-encoded f64 bits.
    pub spread_bits: Vec<u64>,
}

impl RunJournal {
    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("options", Json::Number(self.options as f64)),
            ("arrival_step", Json::Number(self.arrival_step as f64)),
            ("scenario", Json::Str(self.scenario.clone())),
            ("cadence", Json::Number(f64::from(self.cadence))),
            (
                "checkpoints",
                Json::Array(self.checkpoints.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            (
                "spread_bits",
                Json::Array(self.spread_bits.iter().map(|&b| Json::Str(bits_to_hex(b))).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON document (stable: object keys are sorted).
    pub fn pretty(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse a serialised journal, validating the schema version.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("journal missing numeric field '{key}'"))
        };
        let schema_version = num("schema_version")? as u64;
        if schema_version != JOURNAL_SCHEMA_VERSION {
            return Err(format!(
                "journal schema version {schema_version} != supported {JOURNAL_SCHEMA_VERSION}"
            ));
        }
        let strings = |key: &str| -> Result<Vec<String>, String> {
            value
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("journal missing '{key}' array"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("non-string entry in '{key}'"))
                })
                .collect()
        };
        let spread_bits = strings("spread_bits")?
            .iter()
            .map(|h| hex_to_bits(h).map_err(|e| format!("journal {}", e.in_field("spread_bits"))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunJournal {
            schema_version,
            seed: num("seed")? as u64,
            options: num("options")? as u64,
            arrival_step: num("arrival_step")? as u64,
            scenario: value
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("journal missing 'scenario'")?
                .to_string(),
            cadence: num("cadence")? as u32,
            checkpoints: strings("checkpoints")?,
            spread_bits,
        })
    }

    /// Parse from JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&crate::json::parse(text)?)
    }

    /// The recorded spreads, decoded.
    pub fn spreads(&self) -> Vec<f64> {
        self.spread_bits.iter().map(|&b| f64::from_bits(b)).collect()
    }
}

/// The fixed engine recipe journals run under: the scrubber is always on
/// (guards + taint tracking; no sampled cross-check, so fault-free runs
/// never touch the CPU path) and the variant is the paper's fastest.
fn recipe(journal_seed: u64) -> (Rc<MarketData<f64>>, EngineConfig) {
    (Rc::new(MarketData::paper_workload(journal_seed)), EngineVariant::Vectorised.config())
}

fn workload(n: u64, arrival_step: u64) -> (Vec<CdsOption>, Vec<Cycle>) {
    let options = PortfolioGenerator::uniform(n as usize, 5.5, PaymentFrequency::Quarterly, 0.40);
    let arrivals = (0..n).map(|i| i * arrival_step).collect();
    (options, arrivals)
}

fn execute(
    seed: u64,
    n: u64,
    arrival_step: u64,
    scenario: &str,
    cadence: u32,
) -> Result<(StreamingReport, Vec<Checkpoint>), String> {
    let (market, config) = recipe(seed);
    let (options, arrivals) = workload(n, arrival_step);
    let policy = StreamingPolicy {
        fault_plan: scenario_plan(scenario, seed)?,
        scrub: Some(ScrubPolicy { cross_check_every: 0 }),
        scenario: Some(scenario.to_string()),
        ..Default::default()
    };
    let mut checkpoints = Vec::new();
    let report =
        run_streaming_checkpointed(market, &config, &options, &arrivals, &policy, cadence, |c| {
            checkpoints.push(c.clone())
        })
        .map_err(|e| format!("journalled run failed: {e}"))?;
    Ok((report, checkpoints))
}

/// Execute a run under the journal recipe and record it.
pub fn record(
    seed: u64,
    n: u64,
    arrival_step: u64,
    scenario: &str,
    cadence: u32,
) -> Result<RunJournal, String> {
    let (report, checkpoints) = execute(seed, n, arrival_step, scenario, cadence)?;
    Ok(RunJournal {
        schema_version: JOURNAL_SCHEMA_VERSION,
        seed,
        options: n,
        arrival_step,
        scenario: scenario.to_string(),
        cadence,
        checkpoints: checkpoints.iter().map(Checkpoint::to_text).collect(),
        spread_bits: report.spreads.iter().map(|s| s.to_bits()).collect(),
    })
}

/// Re-execute a journal and gate the outcome. Returns the list of
/// determinism violations (empty = the journal replays exactly); `Err`
/// means the journal could not be replayed at all (unknown scenario,
/// engine error) and is an environment problem, not a gate failure.
pub fn check(journal: &RunJournal) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let (report, checkpoints) = execute(
        journal.seed,
        journal.options,
        journal.arrival_step,
        &journal.scenario,
        journal.cadence,
    )?;

    // 1. Final spreads must be bit-identical to the recorded run.
    let bits: Vec<u64> = report.spreads.iter().map(|s| s.to_bits()).collect();
    if bits.len() != journal.spread_bits.len() {
        problems.push(format!(
            "replay completed {} options, journal recorded {}",
            bits.len(),
            journal.spread_bits.len()
        ));
    } else {
        for (i, (a, b)) in bits.iter().zip(&journal.spread_bits).enumerate() {
            if a != b {
                problems.push(format!(
                    "spread {i} diverged: replay {:?} ({a:016x}) vs journal {:?} ({b:016x})",
                    f64::from_bits(*a),
                    f64::from_bits(*b)
                ));
            }
        }
    }

    // 2. The write-ahead checkpoint stream must be byte-identical.
    let texts: Vec<String> = checkpoints.iter().map(Checkpoint::to_text).collect();
    if texts != journal.checkpoints {
        problems.push(format!(
            "checkpoint stream diverged: replay emitted {} records, journal holds {}{}",
            texts.len(),
            journal.checkpoints.len(),
            texts
                .iter()
                .zip(&journal.checkpoints)
                .position(|(a, b)| a != b)
                .map(|i| format!(" (first mismatch at record {i})"))
                .unwrap_or_default()
        ));
    }

    // 3. Fault-free journals additionally prove recovery: resume from a
    // mid-run checkpoint and demand the merged result equals the full
    // run. (Faulty scenarios place faults by absolute token index, which
    // a partial re-run would shift, so recovery there is proven by the
    // chaos matrix's kill-resume scenario instead.)
    if journal.scenario == "none" && checkpoints.len() >= 2 {
        let mid = &checkpoints[checkpoints.len() / 2 - 1];
        let (market, config) = recipe(journal.seed);
        let (options, arrivals) = workload(journal.options, journal.arrival_step);
        let policy = StreamingPolicy {
            scrub: Some(ScrubPolicy { cross_check_every: 0 }),
            // Assert the journal really belongs to the scenario being
            // replayed — a mismatch is a typed error, not a silent
            // wrong-journal resume.
            scenario: Some(journal.scenario.clone()),
            ..Default::default()
        };
        let resumed = resume_streaming_from(market, &config, &options, &arrivals, &policy, mid)
            .map_err(|e| format!("checkpoint resume failed: {e}"))?;
        let resumed_bits: Vec<u64> = resumed.spreads.iter().map(|s| s.to_bits()).collect();
        if resumed_bits != journal.spread_bits {
            problems.push(format!(
                "resume from checkpoint {} of {} did not reproduce the journalled spreads",
                checkpoints.len() / 2 - 1,
                checkpoints.len()
            ));
        }
    }

    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok<T>(r: Result<T, String>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected journal error: {e}"),
        }
    }

    #[test]
    fn journal_round_trips_through_json() {
        let j = ok(record(42, 8, 40_000, "corrupt-spread", 3));
        let back = ok(RunJournal::parse(&j.pretty()));
        assert_eq!(back, j);
        assert_eq!(back.spreads().len(), 8);
    }

    #[test]
    fn recorded_run_replays_bit_identically() {
        for scenario in SCENARIOS {
            let j = ok(record(42, 8, 40_000, scenario, 3));
            let problems = ok(check(&j));
            assert!(problems.is_empty(), "{scenario}: {problems:?}");
        }
    }

    #[test]
    fn fault_free_journal_exercises_checkpoint_resume() {
        let j = ok(record(42, 10, 30_000, "none", 2));
        assert!(j.checkpoints.len() >= 2, "cadence 2 over 10 options must checkpoint");
        assert!(ok(check(&j)).is_empty());
    }

    #[test]
    fn corrupt_scenario_journals_the_scrubbed_spreads() {
        let clean = ok(record(42, 8, 40_000, "none", 3));
        let scrubbed = ok(record(42, 8, 40_000, "corrupt-spread", 3));
        // The journalled spreads are post-scrub: the two corrupted
        // options were quarantined and repriced, so the journal records
        // fault-free values, not the corrupt ones.
        let (report, _) = ok(execute(42, 8, 40_000, "corrupt-spread", 3));
        let scrub = report.scrub.as_ref().map(|s| s.options_quarantined);
        assert_eq!(scrub, Some(2), "both corruptions must be quarantined");
        for (i, (a, b)) in clean.spreads().iter().zip(&scrubbed.spreads()).enumerate() {
            assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "option {i}: {a} vs {b}");
        }
    }

    #[test]
    fn tampered_journal_fails_the_gate() {
        let mut j = ok(record(42, 8, 40_000, "stall-hazard", 3));
        j.spread_bits[4] ^= 1; // flip one mantissa bit
        let problems = ok(check(&j));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("spread 4 diverged"), "{problems:?}");
    }

    #[test]
    fn unknown_scenario_is_fatal_not_a_gate_failure() {
        let mut j = ok(record(42, 4, 40_000, "none", 2));
        j.scenario = "meteor-strike".to_string();
        let err = match check(&j) {
            Err(e) => e,
            Ok(p) => panic!("unknown scenario must be fatal, got problems {p:?}"),
        };
        assert!(err.contains("unknown fault scenario"), "{err}");
    }

    #[test]
    fn spread_bits_must_be_exactly_16_hex_digits() {
        let j = ok(record(42, 4, 40_000, "none", 2));
        let first = format!("\"{}\"", bits_to_hex(j.spread_bits[0]));
        for bad in ["4059", "+405900000000000", "0x4059000000000000", " 4059000000000000"] {
            let text = j.pretty().replacen(&first, &format!("\"{bad}\""), 1);
            let err = RunJournal::parse(&text).expect_err(bad);
            let want = format!("field `spread_bits`: bad bit pattern `{bad}`");
            assert!(err.contains(&want), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_journal_text_is_rejected() {
        assert!(RunJournal::parse("{}").is_err());
        assert!(RunJournal::parse("{\"schema_version\": 99}").is_err());
        let j = ok(record(42, 4, 40_000, "none", 2));
        let bad = j.pretty().replace("\"scenario\": \"none\"", "\"scenario\": 7");
        assert!(RunJournal::parse(&bad).is_err());
    }
}
