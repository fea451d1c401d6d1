//! The serving write-ahead journal.
//!
//! Every accepted quote is appended (and flushed) to the journal
//! *before* it is dispatched to a shard; every completion is appended
//! after its canonical spread is elected. Completions additionally
//! checkpoint through the engine's [`Checkpoint`] text format (written
//! atomically to a `.ckpt` sidecar every `cadence` completions and at
//! drain), tagged with the `cds-server` scenario label so a resume
//! under the wrong journal fails typed. A `SIGTERM` mid-burst therefore
//! leaves one of two states, both safe: the drain finished (journal
//! carries a terminal `drain commit=` line and a complete checkpoint)
//! or it did not (accepted-but-incomplete quotes are recoverable as
//! [`WalState::pending`] and reprice bit-identically — the CPU engine
//! is deterministic given the epoch seed).
//!
//! ## Crash-consistent write discipline
//!
//! All storage goes through the engine's
//! [`cds_engine::journal_io::JournalIo`] abstraction, which makes the
//! ordering testable (and its violation loud) in the `storage-chaos`
//! harness:
//!
//! 1. the journal is **fsynced before** every sidecar publish, so a
//!    checkpoint can never be durable ahead of the completions it
//!    summarizes ([`read_wal`] cross-validates and fails typed if one
//!    is found anyway),
//! 2. the sidecar is published via [`Checkpoint::persist`]: tmp file →
//!    fsync → rename → parent-directory sync, so a crash leaves the
//!    previous checkpoint or the new one, never a torn file,
//! 3. the terminal `drain commit=` marker is appended only after the
//!    final checkpoint is durable, and is itself fsynced.
//!
//! Per-record appends are flushed but *not* fsynced (a power loss may
//! lose a tail of them); the journal is prefix-consistent, and every
//! unsynced prefix resumes bit-identically — the `storage-chaos`
//! crash-state enumeration proves it.
//!
//! ## Fail-stop degradation
//!
//! The writer is **fail-stop**: the first storage failure (ENOSPC,
//! EIO, a short write) marks it degraded and every later append is
//! refused with [`WalError::Degraded`] instead of stacking further
//! writes after a hole. The on-disk journal stays torn-at-EOF at
//! worst, so the durable prefix remains resumable. The server surfaces
//! the flag as the `wal-degraded` ladder observation.

use crate::proto::{bad, frequency_from_wire, frequency_to_wire, ParseError, Priority};
use cds_engine::checkpoint::{Checkpoint, CompletedOption, CHECKPOINT_SCHEMA_VERSION};
use cds_engine::codec::{f64_to_token, Fields};
use cds_engine::journal_io::{FileId, JournalIo, OsJournalIo, StorageFaultPlan};
use cds_engine::CdsError;
use cds_quant::option::{CdsOption, PaymentFrequency};
use cds_quant::QuantError;
use dataflow_sim::Cycle;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::lock_recover;

/// Scenario label stamped on every server checkpoint; resuming a
/// journal recorded by something else fails typed instead of silently
/// replaying the wrong work.
pub const SERVER_SCENARIO: &str = "cds-server";

const WAL_HEADER: &str = "cds-server-wal v1";

/// An attributable corruption: which file, where, and why — every
/// distinguishable corruption class [`read_wal`] can meet reports one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionReport {
    /// The corrupt file (journal or checkpoint sidecar).
    pub file: PathBuf,
    /// Byte offset of the offending record (0 when the corruption is
    /// not positional, e.g. a cross-file inconsistency).
    pub offset: u64,
    /// 1-based line number of the offending record, when positional.
    pub line: Option<u64>,
    /// What is wrong.
    pub cause: String,
}

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "{} line {line} (byte {}): {}",
                self.file.display(),
                self.offset,
                self.cause
            ),
            None => write!(f, "{}: {}", self.file.display(), self.cause),
        }
    }
}

/// A journal failure.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The writer was misconfigured.
    Config(&'static str),
    /// The writer is fail-stop after an earlier storage failure; the
    /// durable journal prefix remains resumable, but no further
    /// appends are accepted.
    Degraded,
    /// The journal or its checkpoint sidecar is malformed; the report
    /// attributes the corruption to a file, offset, and cause.
    Corrupt(CorruptionReport),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "journal io error: {e}"),
            WalError::Config(reason) => write!(f, "journal misconfigured: {reason}"),
            WalError::Degraded => write!(
                f,
                "journal degraded: an earlier storage failure made the writer fail-stop \
                 (the durable prefix remains resumable)"
            ),
            WalError::Corrupt(report) => write!(f, "journal corrupt: {report}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One accepted quote, durable before dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptRecord {
    /// Journal sequence number (dense, 0-based) — the checkpoint's
    /// option index.
    pub seq: u32,
    /// Client request id.
    pub id: u64,
    /// Contract maturity in years (bit-exact in the journal).
    pub maturity: f64,
    /// Premium payment frequency.
    pub frequency: PaymentFrequency,
    /// Recovery rate (bit-exact in the journal).
    pub recovery: f64,
    /// Shedding priority.
    pub priority: Priority,
}

impl AcceptRecord {
    /// Rebuild the validated quant option this record was accepted as.
    ///
    /// # Errors
    /// Propagates domain validation — cannot fail for records the
    /// server itself accepted, but a hand-edited journal is re-checked.
    pub fn option(&self) -> Result<CdsOption, QuantError> {
        CdsOption::validated(self.maturity, self.frequency, self.recovery)
    }
}

/// Which storage fault `--wal-fault` injects into the server's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFaultKind {
    /// The targeted append fails with ENOSPC.
    Enospc,
    /// The targeted append fails with EIO.
    Eio,
    /// The targeted append lands a seeded prefix, then fails.
    ShortWrite,
    /// Every fsync from the given index onward lies.
    LyingFsync,
}

/// A parsed `--wal-fault <kind>@<n>` specification: inject `kind` at
/// absolute journal-io operation index `at` (append index for the
/// write faults, fsync index for the lying fsync).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFaultSpec {
    /// The fault class to inject.
    pub kind: WalFaultKind,
    /// Absolute per-class operation index.
    pub at: u64,
}

impl WalFaultSpec {
    /// Expand into a [`StorageFaultPlan`] seeded with `seed`.
    #[must_use]
    pub fn plan(self, seed: u64) -> StorageFaultPlan {
        let plan = StorageFaultPlan::new(seed);
        match self.kind {
            WalFaultKind::Enospc => plan.enospc_at(self.at),
            WalFaultKind::Eio => plan.eio_at(self.at),
            WalFaultKind::ShortWrite => plan.short_write_at(self.at),
            WalFaultKind::LyingFsync => plan.lying_fsync_from(self.at),
        }
    }
}

impl std::str::FromStr for WalFaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<WalFaultSpec, String> {
        let (kind, at) = s
            .split_once('@')
            .ok_or_else(|| format!("bad wal fault `{s}` (want <kind>@<index>)"))?;
        let kind = match kind {
            "enospc" => WalFaultKind::Enospc,
            "eio" => WalFaultKind::Eio,
            "short" => WalFaultKind::ShortWrite,
            "liar" => WalFaultKind::LyingFsync,
            other => {
                return Err(format!("bad wal fault kind `{other}` (want enospc|eio|short|liar)"))
            }
        };
        let at = at.parse::<u64>().map_err(|_| format!("bad wal fault index `{at}`"))?;
        Ok(WalFaultSpec { kind, at })
    }
}

struct WalInner {
    io: Arc<dyn JournalIo>,
    file: FileId,
    ckpt_path: PathBuf,
    cadence: u32,
    accepted: u32,
    completions: Vec<CompletedOption>,
    degraded: bool,
}

/// Appender half of the journal; all methods flush before returning so
/// a kill after an `accept` never loses the acceptance. Fail-stop: the
/// first storage failure degrades the writer permanently (see the
/// module docs).
pub struct WalWriter {
    seed: u64,
    inner: Mutex<WalInner>,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter").field("seed", &self.seed).finish_non_exhaustive()
    }
}

fn append_line(inner: &mut WalInner, line: &str) -> Result<(), WalError> {
    if inner.degraded {
        return Err(WalError::Degraded);
    }
    match inner.io.append(inner.file, line.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) => {
            inner.degraded = true;
            Err(WalError::Io(e))
        }
    }
}

fn fsync_journal(inner: &mut WalInner) -> Result<(), WalError> {
    if inner.degraded {
        return Err(WalError::Degraded);
    }
    match inner.io.fsync(inner.file) {
        Ok(()) => Ok(()),
        Err(e) => {
            inner.degraded = true;
            Err(WalError::Io(e))
        }
    }
}

/// Publish the current checkpoint sidecar. The caller must have
/// fsynced the journal first so the sidecar is never durable ahead of
/// the completions it summarizes.
fn publish_sidecar(inner: &mut WalInner) -> Result<Checkpoint, WalError> {
    if inner.degraded {
        return Err(WalError::Degraded);
    }
    let cp = build_checkpoint(inner);
    match cp.persist(inner.io.as_ref(), &inner.ckpt_path) {
        Ok(()) => Ok(cp),
        Err(CdsError::Storage { path, cause }) => {
            inner.degraded = true;
            Err(WalError::Io(std::io::Error::other(format!("sidecar {path}: {cause}"))))
        }
        Err(other) => {
            inner.degraded = true;
            Err(WalError::Io(std::io::Error::other(format!("sidecar publish: {other}"))))
        }
    }
}

impl WalWriter {
    /// Create (truncate) a journal at `path` on the real filesystem.
    /// `seed` is the boot curve epoch seed; `cadence` is the
    /// completions-per-checkpoint interval.
    pub fn create(path: &Path, seed: u64, cadence: u32) -> Result<WalWriter, WalError> {
        WalWriter::create_with_io(Arc::new(OsJournalIo::new()), path, seed, cadence)
    }

    /// Create a journal over an explicit storage substrate — the real
    /// filesystem, a recording wrapper, or a fault-injecting one.
    pub fn create_with_io(
        io: Arc<dyn JournalIo>,
        path: &Path,
        seed: u64,
        cadence: u32,
    ) -> Result<WalWriter, WalError> {
        if cadence == 0 {
            return Err(WalError::Config("checkpoint cadence must be at least 1"));
        }
        let file = io.create(path)?;
        io.append(file, format!("{WAL_HEADER}\nseed={seed}\ncadence={cadence}\n").as_bytes())?;
        let ckpt_path = sidecar_path(path);
        Ok(WalWriter {
            seed,
            inner: Mutex::new(WalInner {
                io,
                file,
                ckpt_path,
                cadence,
                accepted: 0,
                completions: Vec::new(),
                degraded: false,
            }),
        })
    }

    /// True once a storage failure has made the writer fail-stop.
    pub fn is_degraded(&self) -> bool {
        lock_recover(&self.inner).degraded
    }

    /// Durably record an acceptance and allocate its sequence number.
    /// Nothing may be dispatched for this quote until this returns.
    pub fn accept(&self, id: u64, option: &CdsOption, priority: Priority) -> Result<u32, WalError> {
        let mut inner = lock_recover(&self.inner);
        let seq = inner.accepted;
        let line = format!(
            "accept seq={seq} id={id} mat={} freq={} rec={} prio={}\n",
            f64_to_token(option.maturity),
            frequency_to_wire(option.frequency),
            f64_to_token(option.recovery_rate),
            priority.wire(),
        );
        append_line(&mut inner, &line)?;
        inner.accepted += 1;
        Ok(seq)
    }

    /// Durably record a completion (the canonical spread for `seq`).
    /// Every `cadence` completions the journal is fsynced and the
    /// checkpoint sidecar rewritten atomically — in that order, so the
    /// sidecar is never durable ahead of its journal.
    pub fn done(&self, seq: u32, spread_bps: f64) -> Result<(), WalError> {
        let mut inner = lock_recover(&self.inner);
        append_line(&mut inner, &format!("done seq={seq} bits={}\n", f64_to_token(spread_bps)))?;
        let done_cycle = inner.completions.len() as Cycle;
        inner.completions.push(CompletedOption { index: seq, done_cycle, spread_bps });
        if (inner.completions.len() as u32).is_multiple_of(inner.cadence) {
            fsync_journal(&mut inner)?;
            publish_sidecar(&mut inner)?;
        }
        Ok(())
    }

    /// Snapshot the current checkpoint (fsyncs the journal, then
    /// rewrites the sidecar).
    pub fn checkpoint_now(&self) -> Result<Checkpoint, WalError> {
        let mut inner = lock_recover(&self.inner);
        fsync_journal(&mut inner)?;
        publish_sidecar(&mut inner)
    }

    /// Terminal drain record: fsyncs the journal, writes the final
    /// checkpoint sidecar, and only then appends (and fsyncs) the
    /// `drain commit=` line marking how many completions were durable
    /// at drain. Pending quotes (if the drain deadline expired first)
    /// remain recoverable.
    pub fn finalize(&self) -> Result<Checkpoint, WalError> {
        let mut inner = lock_recover(&self.inner);
        fsync_journal(&mut inner)?;
        let cp = publish_sidecar(&mut inner)?;
        let commit = inner.completions.len();
        append_line(&mut inner, &format!("drain commit={commit}\n"))?;
        fsync_journal(&mut inner)?;
        Ok(cp)
    }
}

fn build_checkpoint(inner: &WalInner) -> Checkpoint {
    Checkpoint {
        schema_version: CHECKPOINT_SCHEMA_VERSION,
        total_options: inner.accepted,
        cadence: inner.cadence,
        watermark_cycle: inner.completions.len() as Cycle,
        fault_seed: None,
        scenario: Some(SERVER_SCENARIO.to_string()),
        admitted: (0..inner.accepted).collect(),
        shed: Vec::new(),
        completed: inner.completions.clone(),
    }
}

/// The checkpoint sidecar lives next to the journal.
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".ckpt");
    PathBuf::from(os)
}

/// Everything a journal recovers to.
#[derive(Debug)]
pub struct WalState {
    /// Boot curve epoch seed the server ran with.
    pub seed: u64,
    /// Checkpoint cadence the server ran with.
    pub cadence: u32,
    /// Every accepted quote, in sequence order.
    pub accepted: Vec<AcceptRecord>,
    /// Canonical spread per completed sequence number.
    pub done: HashMap<u32, f64>,
    /// Whether a terminal `drain commit=` record was found.
    pub drained: bool,
    /// The checkpoint sidecar, when present and valid.
    pub checkpoint: Option<Checkpoint>,
}

impl WalState {
    /// Accepted-but-incomplete quotes, in sequence order — the work a
    /// resume must finish.
    pub fn pending(&self) -> Vec<AcceptRecord> {
        self.accepted.iter().filter(|a| !self.done.contains_key(&a.seq)).copied().collect()
    }
}

/// Decode one journal record. Every field goes through the strict
/// codec, so a spread is exactly `0x` + 16 hex digits and a torn write
/// can never resume as a different (valid, wrong) float.
fn parse_line(state: &mut WalState, line: &str) -> Result<(), ParseError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.split_first() {
        Some((&"accept", rest @ [_, _, _, _, _, _])) => {
            let f = Fields::parse(rest.iter().copied())?;
            let rec = AcceptRecord {
                seq: f.dec("seq")?,
                id: f.dec("id")?,
                maturity: f.f64("mat")?,
                frequency: frequency_from_wire(f.get("freq")?)?,
                recovery: f.f64("rec")?,
                priority: match f.get("prio")? {
                    "HI" => Priority::High,
                    "LO" => Priority::Low,
                    other => return Err(bad(format!("bad priority `{other}`"))),
                },
            };
            if rec.seq as usize != state.accepted.len() {
                return Err(bad(format!(
                    "accept seq {} out of order (expected {})",
                    rec.seq,
                    state.accepted.len()
                )));
            }
            state.accepted.push(rec);
            Ok(())
        }
        Some((&"accept", _)) => Err(bad("malformed accept record")),
        Some((&"done", rest @ [_, _])) => {
            let f = Fields::parse(rest.iter().copied())?;
            let seq: u32 = f.dec("seq")?;
            if seq as usize >= state.accepted.len() {
                return Err(bad(format!("done for unaccepted seq {seq}")));
            }
            state.done.insert(seq, f.f64("bits")?);
            Ok(())
        }
        Some((&"drain", [commit])) => {
            let commit: usize = Fields::parse([*commit])?.dec("commit")?;
            if commit != state.done.len() {
                return Err(bad(format!(
                    "drain commit {} disagrees with {} durable completions",
                    commit,
                    state.done.len()
                )));
            }
            state.drained = true;
            Ok(())
        }
        _ => Err(bad(format!("unknown journal record `{line}`"))),
    }
}

/// A corruption of the checkpoint sidecar as a whole (not positional).
fn sidecar_corrupt(ckpt_path: &Path, cause: String) -> WalError {
    WalError::Corrupt(CorruptionReport {
        file: ckpt_path.to_path_buf(),
        offset: 0,
        line: None,
        cause,
    })
}

/// Cross-validate the checkpoint sidecar against the journal it
/// summarizes: with the write discipline intact the journal is always
/// durable first, so a sidecar that is *ahead* of the journal (more
/// accepts, or a completion the journal never recorded, or a
/// disagreeing spread) is corruption — typed, attributable, never a
/// silent resume of the wrong work.
fn cross_validate(state: &WalState, cp: &Checkpoint, ckpt_path: &Path) -> Result<(), WalError> {
    let corrupt = |cause: String| sidecar_corrupt(ckpt_path, cause);
    if cp.total_options as usize > state.accepted.len() {
        return Err(corrupt(format!(
            "checkpoint summarizes {} accepted quotes but the journal holds {} — the sidecar \
             is durable ahead of its journal",
            cp.total_options,
            state.accepted.len()
        )));
    }
    for c in &cp.completed {
        match state.done.get(&c.index) {
            None => {
                return Err(corrupt(format!(
                    "checkpoint holds a completion for seq {} the journal never recorded — \
                     the sidecar is durable ahead of its journal",
                    c.index
                )))
            }
            Some(spread) if spread.to_bits() != c.spread_bps.to_bits() => {
                return Err(corrupt(format!(
                    "checkpoint spread for seq {} ({:016x}) disagrees with the journal \
                     ({:016x})",
                    c.index,
                    c.spread_bps.to_bits(),
                    spread.to_bits()
                )))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Read a journal (and its checkpoint sidecar) back. A torn final line
/// — the signature of a kill or power loss mid-write — is dropped;
/// corruption anywhere else fails typed with an attributable
/// [`CorruptionReport`] (file, byte offset, line, cause).
pub fn read_wal(path: &Path) -> Result<WalState, WalError> {
    let text = std::fs::read_to_string(path)?;
    let corrupt = |offset: u64, line: Option<u64>, cause: String| {
        WalError::Corrupt(CorruptionReport { file: path.to_path_buf(), offset, line, cause })
    };
    let ends_clean = text.ends_with('\n');
    // Each record with its byte offset and 1-based line number.
    let mut records: Vec<(u64, u64, &str)> = Vec::new();
    let mut offset = 0u64;
    for (i, seg) in text.split_inclusive('\n').enumerate() {
        let line = seg.strip_suffix('\n').unwrap_or(seg);
        records.push((offset, i as u64 + 1, line));
        offset += seg.len() as u64;
    }
    let [(h_off, h_line, header), (s_off, s_line, seed), (c_off, c_line, cadence), body @ ..] =
        records.as_slice()
    else {
        return Err(corrupt(offset, None, "journal missing its header lines".to_string()));
    };
    if *header != WAL_HEADER {
        return Err(corrupt(*h_off, Some(*h_line), format!("bad header `{header}`")));
    }
    let seed = Fields::parse([*seed])
        .and_then(|f| f.dec("seed"))
        .map_err(|e| corrupt(*s_off, Some(*s_line), e.to_string()))?;
    let cadence = Fields::parse([*cadence])
        .and_then(|f| f.dec("cadence"))
        .map_err(|e| corrupt(*c_off, Some(*c_line), e.to_string()))?;

    let mut state = WalState {
        seed,
        cadence,
        accepted: Vec::new(),
        done: HashMap::new(),
        drained: false,
        checkpoint: None,
    };
    for (i, &(off, line_no, line)) in body.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(ParseError { reason: cause }) = parse_line(&mut state, line) {
            let is_last = i + 1 == body.len();
            if is_last && !ends_clean {
                break; // torn tail from a mid-write kill: drop it
            }
            return Err(corrupt(off, Some(line_no), cause));
        }
    }

    let ckpt_path = sidecar_path(path);
    if ckpt_path.exists() {
        let text = std::fs::read_to_string(&ckpt_path)?;
        let cp = Checkpoint::parse(&text)
            .map_err(|e| sidecar_corrupt(&ckpt_path, format!("checkpoint sidecar: {e}")))?;
        let scenario = cp.scenario.as_deref();
        if scenario != Some(SERVER_SCENARIO) {
            return Err(sidecar_corrupt(
                &ckpt_path,
                format!(
                "checkpoint scenario {scenario:?} is not `{SERVER_SCENARIO}`; refusing to resume \
                 someone else's journal"
            ),
            ));
        }
        cross_validate(&state, &cp, &ckpt_path)?;
        state.checkpoint = Some(cp);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_engine::journal_io::{
        sync_ordering_held, FaultyJournalIo, JournalOp, RecordingJournalIo,
    };
    use cds_quant::option::PaymentFrequency;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cds-server-wal-test-{}-{name}", std::process::id()));
        p
    }

    fn opt() -> CdsOption {
        CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4)
    }

    #[test]
    fn accept_done_drain_round_trip_bit_exactly() {
        let path = tmp("roundtrip.wal");
        let wal = WalWriter::create(&path, 42, 2).expect("create");
        let spread = f64::from_bits(0x4059_4ccc_cccc_cccd);
        let s0 = wal.accept(100, &opt(), Priority::High).expect("accept");
        let s1 = wal.accept(101, &opt(), Priority::Low).expect("accept");
        assert_eq!((s0, s1), (0, 1));
        wal.done(0, spread).expect("done");
        let cp = wal.finalize().expect("finalize");
        assert_eq!(cp.total_options, 2);
        assert_eq!(cp.scenario.as_deref(), Some(SERVER_SCENARIO));
        assert!(!cp.is_complete());

        let state = read_wal(&path).expect("read");
        assert_eq!(state.seed, 42);
        assert_eq!(state.accepted.len(), 2);
        assert_eq!(state.done.len(), 1);
        assert!(state.drained);
        assert_eq!(state.done[&0].to_bits(), spread.to_bits());
        let pending = state.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].seq, 1);
        assert_eq!(pending[0].id, 101);
        assert_eq!(pending[0].priority, Priority::Low);
        let cp = state.checkpoint.expect("sidecar present");
        assert_eq!(cp.completed.len(), 1);
        assert_eq!(cp.completed[0].spread_bps.to_bits(), spread.to_bits());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sidecar_path(&path));
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_typed() {
        let path = tmp("torn.wal");
        let wal = WalWriter::create(&path, 7, 4).expect("create");
        wal.accept(1, &opt(), Priority::High).expect("accept");
        wal.done(0, 100.0).expect("done");
        drop(wal);
        // Simulate a kill mid-append: a partial accept line, no newline.
        let mut text = std::fs::read_to_string(&path).expect("read back");
        text.push_str("accept seq=1 id=2 mat=0x40");
        std::fs::write(&path, &text).expect("rewrite");
        let state = read_wal(&path).expect("torn tail tolerated");
        assert_eq!(state.accepted.len(), 1);
        assert_eq!(state.pending().len(), 0);
        assert!(!state.drained);
        // The same garbage mid-file (newline-terminated, with records
        // after it) is corruption, not a torn tail — and the report
        // attributes it to the right file, line, and byte offset.
        let mut text = std::fs::read_to_string(&path).expect("read back");
        let torn_offset = text.len() as u64;
        text.push_str("\ndone seq=0 bits=0x4059000000000000\n");
        std::fs::write(&path, &text).expect("rewrite");
        match read_wal(&path) {
            Err(WalError::Corrupt(report)) => {
                assert_eq!(report.file, path);
                assert_eq!(report.offset, torn_offset - "accept seq=1 id=2 mat=0x40".len() as u64);
                assert_eq!(report.line, Some(6));
                assert!(report.cause.contains("accept"), "cause: {}", report.cause);
            }
            other => panic!("interior corruption must be typed, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sidecar_path(&path));
    }

    #[test]
    fn foreign_scenario_checkpoints_are_refused() {
        let path = tmp("foreign.wal");
        let wal = WalWriter::create(&path, 7, 1).expect("create");
        wal.accept(1, &opt(), Priority::High).expect("accept");
        wal.done(0, 100.0).expect("done");
        drop(wal);
        let ckpt = sidecar_path(&path);
        let text = std::fs::read_to_string(&ckpt).expect("sidecar");
        std::fs::write(&ckpt, text.replace(SERVER_SCENARIO, "corrupt-spread")).expect("rewrite");
        match read_wal(&path) {
            Err(WalError::Corrupt(report)) => {
                assert_eq!(report.file, ckpt);
                assert!(report.cause.contains("corrupt-spread"), "cause: {}", report.cause);
            }
            other => panic!("foreign scenario must be refused, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);
    }

    /// Satellite regression test for the fsync-ordering fix: the trace
    /// must show journal-fsync before every sidecar publish, tmp-file
    /// fsync before its rename, and a parent-directory sync after — and
    /// the terminal drain marker only after the final sidecar sync.
    #[test]
    fn sync_calls_happen_in_order_on_the_trace() {
        let dir = std::env::temp_dir().join(format!("cds-wal-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("j.wal");
        let rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let wal = WalWriter::create_with_io(rec.clone(), &path, 42, 2).expect("create");
        wal.accept(1, &opt(), Priority::High).expect("accept");
        wal.accept(2, &opt(), Priority::High).expect("accept");
        wal.done(0, 100.0).expect("done");
        wal.done(1, 101.0).expect("done"); // cadence hit: fsync + sidecar
        wal.finalize().expect("finalize");
        let trace = rec.trace();
        assert!(sync_ordering_held(&trace), "write discipline violated: {trace:#?}");
        // Journal fsync precedes the first sidecar tmp creation.
        let journal_fsync = trace
            .iter()
            .position(|op| matches!(op, JournalOp::Fsync { path: p } if *p == path))
            .expect("journal fsync present");
        let tmp_create = trace
            .iter()
            .position(
                |op| matches!(op, JournalOp::Create { path: p } if p.to_string_lossy().contains(".ckpt.tmp")),
            )
            .expect("sidecar tmp created");
        assert!(
            journal_fsync < tmp_create,
            "journal must be synced before the sidecar: {trace:#?}"
        );
        // The drain marker is the last journal append, after the final
        // parent-directory sync, and is itself fsynced.
        let last_dirsync = trace
            .iter()
            .rposition(|op| matches!(op, JournalOp::SyncDir { .. }))
            .expect("dir sync present");
        let drain_append = trace
            .iter()
            .rposition(
                |op| matches!(op, JournalOp::Append { path: p, bytes } if *p == path && bytes.starts_with(b"drain ")),
            )
            .expect("drain marker present");
        assert!(last_dirsync < drain_append, "drain marker must follow the sidecar sync");
        let final_fsync = trace
            .iter()
            .rposition(|op| matches!(op, JournalOp::Fsync { path: p } if *p == path))
            .expect("final fsync present");
        assert!(drain_append < final_fsync, "drain marker must be fsynced");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_makes_the_writer_fail_stop_but_the_prefix_resumable() {
        let dir = std::env::temp_dir().join(format!("cds-wal-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("j.wal");
        // Append 0 is the header; appends 1..=2 the accepts; append 3
        // (the first done line) hits injected ENOSPC.
        let io = Arc::new(FaultyJournalIo::over(
            Arc::new(OsJournalIo::new()),
            StorageFaultPlan::new(42).enospc_at(3),
        ));
        let wal = WalWriter::create_with_io(io.clone(), &path, 42, 8).expect("create");
        wal.accept(10, &opt(), Priority::High).expect("accept");
        wal.accept(11, &opt(), Priority::High).expect("accept");
        match wal.done(0, 100.0) {
            Err(WalError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        assert!(wal.is_degraded());
        assert!(io.counters().any());
        // Fail-stop: everything after the failure is refused…
        assert!(matches!(wal.done(1, 101.0), Err(WalError::Degraded)));
        assert!(matches!(wal.accept(12, &opt(), Priority::High), Err(WalError::Degraded)));
        assert!(matches!(wal.finalize(), Err(WalError::Degraded)));
        // …so the on-disk journal is a clean resumable prefix.
        let state = read_wal(&path).expect("prefix resumes");
        assert_eq!(state.accepted.len(), 2);
        assert_eq!(state.done.len(), 0);
        assert_eq!(state.pending().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_ahead_of_journal_is_typed_cross_validation_corruption() {
        let path = tmp("ahead.wal");
        let wal = WalWriter::create(&path, 7, 1).expect("create");
        wal.accept(1, &opt(), Priority::High).expect("accept");
        wal.done(0, 100.0).expect("done"); // publishes a sidecar
        drop(wal);
        // Truncate the journal back to its header: the sidecar now
        // summarizes work the journal never recorded (the state a
        // missing journal fsync could leave behind).
        let text = std::fs::read_to_string(&path).expect("read back");
        let header_end = text.match_indices('\n').nth(2).map(|(i, _)| i + 1).expect("header lines");
        std::fs::write(&path, &text[..header_end]).expect("truncate");
        match read_wal(&path) {
            Err(WalError::Corrupt(report)) => {
                assert_eq!(report.file, sidecar_path(&path));
                assert!(report.cause.contains("ahead of its journal"), "cause: {}", report.cause);
            }
            other => panic!("sidecar-ahead must be typed, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sidecar_path(&path));
    }

    #[test]
    fn truncated_bits_never_misparse_as_a_valid_spread() {
        let path = tmp("bits.wal");
        let journal = |bits: &str| {
            let accept = "accept seq=0 id=1 mat=0x4014000000000000 freq=Q \
                          rec=0x3fd999999999999a prio=HI";
            let text =
                format!("{WAL_HEADER}\nseed=7\ncadence=4\n{accept}\ndone seq=0 bits={bits}\n");
            std::fs::write(&path, text).expect("write journal");
            read_wal(&path)
        };
        let state = journal("0x4059000000000000").expect("full pattern");
        assert_eq!(state.done[&0].to_bits(), 0x4059_0000_0000_0000);
        // A torn tail of the same record must be rejected, not read as
        // the (valid, wrong) tiny float 0x4059; so must a signed pattern
        // that still has 16 characters, and a decimal.
        for bad in ["0x4059", "0x+405900000000000", "0x", "103.5", "0X4059000000000000"] {
            match journal(bad) {
                Err(WalError::Corrupt(report)) => {
                    assert_eq!(report.line, Some(5));
                    let want = format!("field `bits`: bad bit pattern `{bad}`");
                    assert!(report.cause.contains(&want), "{bad}: {}", report.cause);
                }
                other => panic!("`bits={bad}` must be typed corruption, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wal_fault_specs_parse_and_reject() {
        assert_eq!(
            "enospc@3".parse::<WalFaultSpec>().expect("parse"),
            WalFaultSpec { kind: WalFaultKind::Enospc, at: 3 }
        );
        assert_eq!(
            "liar@0".parse::<WalFaultSpec>().expect("parse"),
            WalFaultSpec { kind: WalFaultKind::LyingFsync, at: 0 }
        );
        assert!("enospc".parse::<WalFaultSpec>().is_err());
        assert!("gremlin@3".parse::<WalFaultSpec>().is_err());
        assert!("eio@many".parse::<WalFaultSpec>().is_err());
    }
}
