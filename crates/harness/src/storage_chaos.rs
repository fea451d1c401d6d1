//! Storage-fault injection and crash-consistency proofs for the
//! journal layer, with a baseline gate.
//!
//! Where [`crate::server_chaos`] attacks the serving stack over TCP,
//! this matrix attacks the **storage substrate underneath it**: every
//! scenario drives one of the two journals written through the engine's
//! one [`cds_engine::journal::JournalWriter`] — the server's
//! [`WalWriter`] or a streaming run's
//! [`cds_engine::journal::StreamJournal`] — through a
//! [`RecordingJournalIo`], optionally wrapped in a seeded
//! [`FaultyJournalIo`] injecting ENOSPC, EIO, short writes, or fsyncs
//! that lie, then hands the recorded write trace to
//! [`enumerate_crash_states`], which produces **every** power-loss
//! state the trace admits: each unsynced-write prefix and torn tail
//! blocks of the last landed write.
//!
//! Each crash state is materialised into a scratch directory and
//! resumed for real ([`resume_journal`] for the server journal,
//! [`resume_streaming_from`] for the streaming journal). The contract
//! gated by the committed baseline
//! (`results/storage_chaos_baseline.json`):
//!
//! * **zero silent-corruption states** — every crash state either
//!   resumes to a bit-identical prefix of the uninterrupted run or
//!   fails with a typed, attributable error; no state may panic and
//!   no state may resume to *different bits*,
//! * **ordering held** — the trace shows the journal fsynced before
//!   and after its `drain` record ([`drain_ordering_held`], the one
//!   journal's rule); breaking the discipline flips this verdict and
//!   fails the gate (the `storage/lying-fsync` scenario honestly
//!   baselines it as `false` — a lying fsync never reaches the trace).
//!
//! Counts (crash states enumerated, typed failures, clean resumes)
//! are informational only; the verdict booleans are the gate.

use crate::gate::{Check, Gate};
use crate::json::Json;
use cds_cpu::engine::CpuCdsEngine;
use cds_engine::journal::drain_ordering_held;
use cds_engine::journal_io::{
    enumerate_crash_states, CrashPlan, FaultyJournalIo, JournalIo, JournalOp, OsJournalIo,
    RecordingJournalIo, StorageFaultPlan,
};
use cds_engine::prelude::{
    resume_streaming_from, run_streaming_journalled, EngineVariant, StreamingPolicy,
};
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::proto::Priority;
use cds_server::server::{resume_journal, ResumeReport};
use cds_server::wal::WalWriter;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// Version of the storage-chaos JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Scenario label stamped on the streaming journal.
const STREAM_SCENARIO: &str = "storage-chaos-stream";

/// The `storage-chaos --check` gate: the same seed, and every scenario's
/// boolean verdicts equal to the baseline's. Counts are not gated.
pub static GATE: Gate = Gate {
    name: "storage-chaos",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::eq("seed"),
        Check::eq("zero_silent_corruption").within("cases"),
        Check::eq("ordering_held").within("cases"),
        Check::eq("survived").within("cases"),
    ],
};

/// Outcome of one storage chaos scenario. Only the boolean verdicts
/// are baseline-gated; the counts are informational.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageChaosCase {
    /// Stable scenario slug, e.g. `storage/enospc-append`.
    pub name: String,
    /// Every enumerated crash state resumed bit-identically or failed
    /// typed — none panicked, none resumed to different bits.
    pub zero_silent_corruption: bool,
    /// The write trace shows the journal fsynced before and after its
    /// `drain` record.
    pub ordering_held: bool,
    /// The scenario's overall pass verdict.
    pub survived: bool,
    /// Informational: crash states enumerated (not gated).
    pub states: u64,
    /// Informational: states that failed with a typed error (not gated).
    pub typed: u64,
    /// Informational: states that resumed cleanly (not gated).
    pub resumed: u64,
}

impl StorageChaosCase {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("zero_silent_corruption", Json::Bool(self.zero_silent_corruption)),
            ("ordering_held", Json::Bool(self.ordering_held)),
            ("survived", Json::Bool(self.survived)),
        ])
    }
}

/// A full storage chaos run.
#[derive(Debug, Clone)]
pub struct StorageChaosReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Seed the workloads and fault plans derive from.
    pub seed: u64,
    /// All scenarios, in matrix order.
    pub cases: Vec<StorageChaosCase>,
}

impl StorageChaosReport {
    /// True when every scenario survived.
    pub fn all_survived(&self) -> bool {
        self.cases.iter().all(|c| c.survived)
    }

    /// Serialise to the versioned JSON schema (booleans only).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("cases", Json::Array(self.cases.iter().map(StorageChaosCase::to_json).collect())),
        ])
    }
}

// ---------------------------------------------------------------------
// Workload + crash-state sweep machinery
// ---------------------------------------------------------------------

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cds-storage-chaos-{tag}-{}", std::process::id()))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// The option every journal sequence number was accepted as — shared
/// by the workload writer and nothing else (resume re-reads it from
/// the journal itself).
fn workload_option(i: u32) -> CdsOption {
    let maturity = 2.0 + (i % 5) as f64;
    let recovery = 0.2 + (i % 3) as f64 * 0.1;
    CdsOption::new(maturity, PaymentFrequency::Quarterly, recovery)
}

/// Completions per journal fsync in the server-journal workloads. It
/// does not divide `storage/clean-run`'s six completions, so that run's
/// last completions are synced only by the drain's own leading fsync.
const WAL_CADENCE: u32 = 4;

/// One server-journal workload: `accepts` quotes, completions for the
/// first `dones` of them (spreads priced on the deterministic CPU
/// engine, exactly as the server would under the boot epoch), and
/// optionally the drain finalize. Fault-layer errors are tolerated —
/// the writer is fail-stop and the point is what the disk holds after.
struct WalWorkload {
    trace: Vec<JournalOp>,
    journal: PathBuf,
    faults_fired: bool,
    write_failed: bool,
}

fn run_wal_workload(
    tag: &str,
    seed: u64,
    plan: Option<StorageFaultPlan>,
    accepts: u32,
    dones: u32,
    finalize: bool,
) -> Result<WalWorkload, String> {
    let root = scratch_dir(tag);
    fresh_dir(&root)?;
    let journal = root.join("journal.wal");
    let recorder = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
    let faulty = plan.map(|p| Arc::new(FaultyJournalIo::over(recorder.clone(), p)));
    let io: Arc<dyn JournalIo> = match &faulty {
        Some(f) => f.clone(),
        None => recorder.clone(),
    };
    let engine = CpuCdsEngine::new(&MarketData::paper_workload(seed));
    let mut write_failed = false;
    let wal =
        WalWriter::create_with_io(io, &journal, seed, WAL_CADENCE).map_err(|e| e.to_string())?;
    for i in 0..accepts {
        write_failed |= wal.accept(100 + i as u64, &workload_option(i), Priority::High).is_err();
    }
    for i in 0..dones.min(accepts) {
        let spread = engine.price(&workload_option(i)).spread_bps;
        write_failed |= wal.done(i, spread).is_err();
    }
    if finalize {
        write_failed |= wal.finalize().is_err();
    }
    drop(wal);
    Ok(WalWorkload {
        trace: recorder.trace(),
        journal,
        faults_fired: faulty.map(|f| f.counters().any()).unwrap_or(false),
        write_failed,
    })
}

/// Outcome of sweeping every crash state of one trace.
struct Sweep {
    states: u64,
    typed: u64,
    resumed: u64,
    silent: u64,
}

/// `candidate` must be a bit-identical prefix of `reference` —
/// element-wise `(seq, id, bits)`, in order. A crash state may hold
/// *less* of the run than the uninterrupted disk, never different
/// work.
fn is_clean_prefix(candidate: &ResumeReport, reference: &ResumeReport) -> bool {
    candidate.spreads.len() <= reference.spreads.len()
        && candidate
            .spreads
            .iter()
            .zip(&reference.spreads)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2.to_bits() == b.2.to_bits())
}

/// Enumerate every crash state of `trace`, materialise each under a
/// scratch root, and resume it. Every state must resume to a clean
/// prefix of `reference` or fail typed; panics and bit-mismatches are
/// silent corruption.
fn sweep_wal_crash_states(
    tag: &str,
    trace: &[JournalOp],
    recorded_root: &Path,
    journal_name: &str,
    reference: &ResumeReport,
) -> Result<Sweep, String> {
    let states = enumerate_crash_states(trace, &CrashPlan::default());
    let target_root = scratch_dir(&format!("{tag}-state"));
    let mut sweep = Sweep { states: states.len() as u64, typed: 0, resumed: 0, silent: 0 };
    for state in &states {
        fresh_dir(&target_root)?;
        state
            .materialize(recorded_root, &target_root)
            .map_err(|e| format!("materialize {}: {e}", state.label))?;
        let target_journal = target_root.join(journal_name);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resume_journal(&target_journal)
        }));
        match outcome {
            Ok(Ok(report)) if is_clean_prefix(&report, reference) => sweep.resumed += 1,
            Ok(Ok(_)) | Err(_) => sweep.silent += 1,
            Ok(Err(_)) => sweep.typed += 1,
        }
    }
    let _ = std::fs::remove_dir_all(&target_root);
    Ok(sweep)
}

/// Shared body for the server-journal scenarios: run the workload,
/// resume the intact disk as the reference, sweep every crash state.
#[allow(clippy::too_many_arguments)]
fn wal_scenario(
    name: &str,
    tag: &str,
    seed: u64,
    plan: Option<StorageFaultPlan>,
    accepts: u32,
    dones: u32,
    finalize: bool,
    expect_ordering: bool,
    expect_faults: bool,
) -> Result<StorageChaosCase, String> {
    let w = run_wal_workload(tag, seed, plan, accepts, dones, finalize)?;
    // The intact disk is itself the final crash state; it must resume.
    let reference = resume_journal(&w.journal)
        .map_err(|e| format!("{name}: intact journal must resume: {e}"))?;
    let ordering_held = drain_ordering_held(&w.trace, &w.journal);
    let root = w.journal.parent().ok_or("journal has a parent")?.to_path_buf();
    let sweep = sweep_wal_crash_states(tag, &w.trace, &root, "journal.wal", &reference)?;
    let _ = std::fs::remove_dir_all(&root);
    let zero_silent = sweep.silent == 0;
    let faults_ok = if expect_faults { w.faults_fired && w.write_failed } else { !w.write_failed };
    Ok(StorageChaosCase {
        name: name.to_string(),
        zero_silent_corruption: zero_silent,
        ordering_held,
        survived: zero_silent && ordering_held == expect_ordering && faults_ok && sweep.states > 0,
        states: sweep.states,
        typed: sweep.typed,
        resumed: sweep.resumed,
    })
}

/// Streaming-journal scenario: a streaming run writes its journal
/// through the recorded IO
/// ([`cds_engine::journal::StreamJournal::write`]); every crash
/// state of that trace must [`resume_streaming_from`] its durable text
/// to the uninterrupted spreads bit-for-bit, fail typed, or hold no
/// journal at all (a from-scratch rerun, trivially clean). The slug
/// keeps its historical `engine-sidecar` name.
fn scenario_engine_stream(seed: u64) -> Result<StorageChaosCase, String> {
    let tag = "engine-stream";
    let root = scratch_dir(tag);
    fresh_dir(&root)?;
    let path = root.join("stream.journal");
    let recorder = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));

    let market = Rc::new(MarketData::paper_workload(seed));
    let config = EngineVariant::Vectorised.config();
    let n = 8usize;
    let options: Vec<CdsOption> = (0..n as u32).map(workload_option).collect();
    let arrivals: Vec<u64> = (0..n as u64).map(|i| i * 30_000).collect();
    let policy =
        StreamingPolicy { scenario: Some(STREAM_SCENARIO.to_string()), ..Default::default() };
    let (clean, journal) =
        run_streaming_journalled(market.clone(), &config, &options, &arrivals, &policy, 3)
            .map_err(|e| e.to_string())?;
    journal.write(recorder.clone(), &path).map_err(|e| format!("stream journal write: {e}"))?;

    let trace = recorder.trace();
    let ordering_held = drain_ordering_held(&trace, &path);
    let states = enumerate_crash_states(&trace, &CrashPlan::default());
    let target_root = scratch_dir(&format!("{tag}-state"));
    let mut sweep = Sweep { states: states.len() as u64, typed: 0, resumed: 0, silent: 0 };
    for state in &states {
        fresh_dir(&target_root)?;
        state.materialize(&root, &target_root).map_err(|e| e.to_string())?;
        let target = target_root.join("stream.journal");
        if !target.exists() {
            // No durable journal: a resume restarts from scratch,
            // which is the clean run by construction.
            sweep.resumed += 1;
            continue;
        }
        let text = std::fs::read_to_string(&target).map_err(|e| e.to_string())?;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resume_streaming_from(market.clone(), &config, &options, &arrivals, &policy, &text)
        }));
        match outcome {
            Ok(Ok(resumed)) if resumed.spreads == clean.spreads => sweep.resumed += 1,
            Ok(Ok(_)) | Err(_) => sweep.silent += 1,
            Ok(Err(_)) => sweep.typed += 1,
        }
    }
    let _ = std::fs::remove_dir_all(&target_root);
    let _ = std::fs::remove_dir_all(&root);
    let zero_silent = sweep.silent == 0;
    Ok(StorageChaosCase {
        name: "storage/engine-sidecar-stream".to_string(),
        zero_silent_corruption: zero_silent,
        ordering_held,
        survived: zero_silent && ordering_held && sweep.states > 0,
        states: sweep.states,
        typed: sweep.typed,
        resumed: sweep.resumed,
    })
}

/// Merge two sub-cases of one scenario (verdicts AND, counts summed).
fn merge(name: &str, a: StorageChaosCase, b: StorageChaosCase) -> StorageChaosCase {
    StorageChaosCase {
        name: name.to_string(),
        zero_silent_corruption: a.zero_silent_corruption && b.zero_silent_corruption,
        ordering_held: a.ordering_held && b.ordering_held,
        survived: a.survived && b.survived,
        states: a.states + b.states,
        typed: a.typed + b.typed,
        resumed: a.resumed + b.resumed,
    }
}

/// Execute the storage chaos matrix. Deterministic in `seed`.
pub fn run(seed: u64) -> Result<StorageChaosReport, String> {
    // Append indices: 0 is the journal header, 1..=6 the accepts, 7..
    // the done lines — so append-fault index 8 lands mid-completion.
    let cases = vec![
        wal_scenario("storage/clean-run", "clean", seed, None, 6, 6, true, true, false)?,
        wal_scenario("storage/kill-resume", "kill", seed, None, 6, 3, false, true, false)?,
        wal_scenario("storage/mid-drain-pending", "drain", seed, None, 6, 3, true, true, false)?,
        wal_scenario(
            "storage/enospc-append",
            "enospc",
            seed,
            Some(StorageFaultPlan::new(seed).enospc_at(8)),
            6,
            6,
            true,
            true,
            true,
        )?,
        merge(
            "storage/eio-short-write",
            wal_scenario(
                "storage/eio-short-write",
                "eio",
                seed,
                Some(StorageFaultPlan::new(seed).eio_at(8)),
                6,
                6,
                true,
                true,
                true,
            )?,
            wal_scenario(
                "storage/eio-short-write",
                "short",
                seed,
                Some(StorageFaultPlan::new(seed ^ 0x5eed).short_write_at(8)),
                6,
                6,
                true,
                true,
                true,
            )?,
        ),
        // Every fsync lies: nothing the writer "synced" is actually
        // durable, so the trace honestly fails the journal's drain
        // ordering rule — and the crash sweep must STILL find zero
        // silent states (a prefix-consistent journal whose `drain
        // commit=` is checked against the completions before it).
        wal_scenario(
            "storage/lying-fsync",
            "liar",
            seed,
            Some(StorageFaultPlan::new(seed).lying_fsync_from(0)),
            6,
            6,
            true,
            false,
            false,
        )?,
        scenario_engine_stream(seed)?,
    ];
    Ok(StorageChaosReport { schema_version: SCHEMA_VERSION, seed, cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full sweep is the CI gate's job; here one cheap scenario
    /// proves the machinery end to end (enumerate → materialise →
    /// resume) with zero silent states.
    #[test]
    fn kill_resume_sweep_finds_zero_silent_states() {
        let case =
            wal_scenario("storage/kill-resume", "unit-kill", 7, None, 3, 1, false, true, false)
                .expect("scenario runs");
        assert!(case.states > 0);
        assert!(case.zero_silent_corruption, "{case:?}");
        assert!(case.ordering_held, "{case:?}");
        assert!(case.survived, "{case:?}");
        assert_eq!(case.typed + case.resumed, case.states);
    }
}
