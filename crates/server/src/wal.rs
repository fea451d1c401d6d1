//! The serving write-ahead journal.
//!
//! Every accepted quote is appended (and flushed) to the journal
//! *before* it is dispatched to a shard; every completion is appended,
//! with its canonical spread's exact bits, after the spread is elected.
//! The journal is its own checkpoint: [`read_wal`] rebuilds everything
//! a resume needs from the `accept` and `done` records, so no sidecar
//! file is written. A `SIGTERM` mid-burst therefore leaves one of two
//! states, both safe: the drain finished (the journal ends in a
//! terminal `drain commit=` record) or it did not (accepted-but-
//! incomplete quotes are recoverable as [`WalState::pending`] and
//! reprice bit-identically — the CPU engine is deterministic given the
//! epoch seed).
//!
//! ## Crash-consistent write discipline
//!
//! All storage goes through the engine's
//! [`cds_engine::journal_io::JournalIo`] abstraction, which makes the
//! ordering testable (and its violation loud) in the `storage-chaos`
//! harness:
//!
//! 1. records are appended and flushed, but *not* fsynced one by one
//!    (a power loss may lose a tail of them); the journal is
//!    prefix-consistent, and every unsynced prefix resumes
//!    bit-identically — the `storage-chaos` crash-state enumeration
//!    proves it,
//! 2. every `cadence` completions the journal is fsynced, which bounds
//!    what a power loss can take; nothing else is written, so the cost
//!    of a completion does not grow with the journal's history,
//! 3. the drain fsyncs the journal, appends `drain commit=`, and
//!    fsyncs again ([`drain_ordering_held`] checks this on a recorded
//!    trace), so a durable commit record never claims completions that
//!    are not durable.
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
use cds_engine::codec::{f64_to_token, Fields};
use cds_engine::journal_io::{FileId, JournalIo, JournalOp, OsJournalIo, StorageFaultPlan};
use cds_quant::option::{CdsOption, PaymentFrequency};
use cds_quant::QuantError;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::lock_recover;

const WAL_HEADER: &str = "cds-server-wal v1";

/// An attributable corruption: which file, where, and why — every
/// distinguishable corruption class [`read_wal`] can meet reports one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionReport {
    /// The corrupt journal.
    pub file: PathBuf,
    /// Byte offset of the offending record (0 when the corruption is
    /// not positional, e.g. a record that no longer validates).
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
    /// The journal is malformed; the report attributes the corruption
    /// to a file, offset, and cause.
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
    cadence: u32,
    accepted: u32,
    completed: u32,
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

impl WalWriter {
    /// Create (truncate) a journal at `path` on the real filesystem.
    /// `seed` is the boot curve epoch seed; `cadence` is the number of
    /// completions per journal fsync.
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
            return Err(WalError::Config("journal fsync cadence must be at least 1"));
        }
        let file = io.create(path)?;
        io.append(file, format!("{WAL_HEADER}\nseed={seed}\ncadence={cadence}\n").as_bytes())?;
        Ok(WalWriter {
            seed,
            inner: Mutex::new(WalInner {
                io,
                file,
                cadence,
                accepted: 0,
                completed: 0,
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
    /// Every `cadence` completions the journal is fsynced; nothing else
    /// is written, so the cost does not grow with history.
    pub fn done(&self, seq: u32, spread_bps: f64) -> Result<(), WalError> {
        let mut inner = lock_recover(&self.inner);
        append_line(&mut inner, &format!("done seq={seq} bits={}\n", f64_to_token(spread_bps)))?;
        inner.completed += 1;
        if inner.completed.is_multiple_of(inner.cadence) {
            fsync_journal(&mut inner)?;
        }
        Ok(())
    }

    /// Make every record appended so far durable: the journal is its
    /// own checkpoint, so this is one fsync of the journal.
    pub fn checkpoint_now(&self) -> Result<(), WalError> {
        fsync_journal(&mut lock_recover(&self.inner))
    }

    /// Terminal drain record: fsyncs the journal, appends the
    /// `drain commit=` line counting the completions now durable, and
    /// fsyncs again. Pending quotes (if the drain deadline expired
    /// first) remain recoverable.
    pub fn finalize(&self) -> Result<(), WalError> {
        let mut inner = lock_recover(&self.inner);
        fsync_journal(&mut inner)?;
        let commit = inner.completed;
        append_line(&mut inner, &format!("drain commit={commit}\n"))?;
        fsync_journal(&mut inner)
    }
}

/// The journal's own ordering rule, the one [`WalWriter::finalize`]
/// keeps: on a recorded trace, every `drain` record appended to
/// `journal` comes after an fsync of `journal` that follows its last
/// earlier append, and is itself fsynced afterwards. A trace with no
/// `drain` record (a kill before the drain) holds it trivially.
pub fn drain_ordering_held(trace: &[JournalOp], journal: &Path) -> bool {
    let append = |op: &JournalOp| matches!(op, JournalOp::Append { path, .. } if path == journal);
    let fsync = |op: &JournalOp| matches!(op, JournalOp::Fsync { path } if path == journal);
    trace.iter().enumerate().all(|(d, op)| {
        let JournalOp::Append { path, bytes } = op else { return true };
        if path != journal || !bytes.starts_with(b"drain ") {
            return true;
        }
        let last_append = trace[..d].iter().rposition(append);
        let synced_before =
            trace[..d].iter().rposition(fsync).is_some_and(|f| last_append.is_none_or(|a| f > a));
        synced_before && trace[d + 1..].iter().any(fsync)
    })
}

/// Where older servers kept a checkpoint sidecar next to the journal.
/// No writer creates this file any more and [`read_wal`] ignores it; the
/// path is kept for tools that still clean it up.
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
    /// Completions per journal fsync the server ran with.
    pub cadence: u32,
    /// Every accepted quote, in sequence order.
    pub accepted: Vec<AcceptRecord>,
    /// Canonical spread per completed sequence number.
    pub done: HashMap<u32, f64>,
    /// Whether a terminal `drain commit=` record was found.
    pub drained: bool,
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

/// Read a journal back. A torn final line — the signature of a kill or
/// power loss mid-write — is dropped; corruption anywhere else fails
/// typed with an attributable [`CorruptionReport`] (file, byte offset,
/// line, cause).
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

    let mut state =
        WalState { seed, cadence, accepted: Vec::new(), done: HashMap::new(), drained: false };
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

    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_engine::journal_io::{FaultyJournalIo, RecordingJournalIo};
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
        wal.finalize().expect("finalize");

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
        let _ = std::fs::remove_file(&path);
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
    }

    /// A journal over the real filesystem in a fresh scratch directory,
    /// recorded so the test can inspect every storage operation.
    fn recorded(
        name: &str,
        cadence: u32,
    ) -> (PathBuf, PathBuf, Arc<RecordingJournalIo>, WalWriter) {
        let dir = std::env::temp_dir().join(format!("cds-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("j.wal");
        let rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let wal = WalWriter::create_with_io(rec.clone(), &path, 42, cadence).expect("create");
        (dir, path, rec, wal)
    }

    /// The drain is fsync → `drain` append → fsync on the trace, and
    /// the rule that checks it fails when either fsync is missing.
    #[test]
    fn sync_calls_happen_in_order_on_the_trace() {
        let (dir, path, rec, wal) = recorded("order", 2);
        for i in 0..3 {
            wal.accept(i, &opt(), Priority::High).expect("accept");
        }
        wal.done(0, 100.0).expect("done");
        wal.done(1, 101.0).expect("done"); // cadence hit: journal fsync
        wal.done(2, 102.0).expect("done"); // unsynced until the drain
        wal.finalize().expect("finalize");
        let trace = rec.trace();
        assert!(drain_ordering_held(&trace, &path), "write discipline violated: {trace:#?}");
        let drain = trace
            .iter()
            .position(
                |op| matches!(op, JournalOp::Append { bytes, .. } if bytes.starts_with(b"drain ")),
            )
            .expect("drain marker present");
        assert!(matches!(&trace[drain - 1], JournalOp::Fsync { path: p } if *p == path));
        assert!(matches!(&trace[drain + 1..], [JournalOp::Fsync { path: p }] if *p == path));
        // Drop the fsync before the drain, then the one after: each
        // leaves a trace the rule must refuse.
        for cut in [drain - 1, drain + 1] {
            let mut mutant = trace.clone();
            mutant.remove(cut);
            assert!(!drain_ordering_held(&mutant, &path), "rule missed a dropped fsync at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal is its own checkpoint: every append is one short
    /// record, and every cadence window costs the same IO however long
    /// the history — one journal fsync, no file created or renamed.
    #[test]
    fn checkpoint_cost_does_not_grow_with_history() {
        const CADENCE: usize = 4;
        let (dir, path, rec, wal) = recorded("cost", CADENCE as u32);
        for i in 0..400u32 {
            let seq = wal.accept(u64::from(i), &opt(), Priority::High).expect("accept");
            wal.done(seq, 100.0 + f64::from(i)).expect("done");
        }
        let trace = rec.trace();
        let [JournalOp::Create { .. }, JournalOp::Append { .. }, body @ ..] = trace.as_slice()
        else {
            panic!("trace must open with the journal's create and header: {trace:#?}");
        };
        for op in body {
            if let JournalOp::Append { path: p, bytes } = op {
                assert_eq!(*p, path, "append outside the journal");
                assert!(bytes.len() <= 128, "append of {} bytes", bytes.len());
                assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1);
                assert_eq!(bytes.last(), Some(&b'\n'), "append is not one whole record");
            }
        }
        let kind = |op: &JournalOp| match op {
            JournalOp::Create { .. } => "create",
            JournalOp::Append { .. } => "append",
            JournalOp::Fsync { path: p } if *p == path => "fsync journal",
            JournalOp::Fsync { .. } => "fsync other",
            JournalOp::Rename { .. } => "rename",
            JournalOp::SyncDir { .. } => "syncdir",
        };
        let windows: Vec<Vec<&str>> =
            body.chunks(2 * CADENCE + 1).map(|w| w.iter().map(kind).collect()).collect();
        let mut want = vec!["append"; 2 * CADENCE];
        want.push("fsync journal");
        for (i, window) in windows.iter().enumerate() {
            assert_eq!(*window, want, "cadence window {i} issues different IO");
        }
        assert_eq!(windows.len(), 400 / CADENCE, "one window per {CADENCE} completions");
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
