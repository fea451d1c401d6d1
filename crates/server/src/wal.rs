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
//! The framing, the writer and the reader are the engine's one journal,
//! [`cds_engine::journal`]: records are appended and flushed, the
//! journal is fsynced every `cadence` completions, the drain is fsync →
//! `drain commit=` → fsync, the writer is fail-stop (the first storage
//! failure refuses every later append with [`JournalError::Degraded`];
//! the server surfaces it as the `wal-degraded` ladder observation),
//! and a torn final record is dropped on read. All storage goes through
//! [`cds_engine::journal_io::JournalIo`], so the `storage-chaos` harness
//! can record, fault and crash it.

use crate::proto::{bad, frequency_from_wire, frequency_to_wire, ParseError, Priority};
use cds_engine::codec::{self, f64_to_token, CodecError, Fields};
use cds_engine::journal::{self, Format, JournalError, JournalWriter};
use cds_engine::journal_io::{JournalIo, OsJournalIo, StorageFaultPlan};
use cds_quant::option::{CdsOption, PaymentFrequency};
use cds_quant::QuantError;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::lock_recover;

/// One accepted quote, durable before dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptRecord {
    /// Journal sequence number (dense, 0-based), which `done` records
    /// name.
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
    journal: JournalWriter,
    accepted: u32,
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

impl WalWriter {
    /// Create (truncate) a journal at `path` on the real filesystem.
    /// `seed` is the boot curve epoch seed; `cadence` is the number of
    /// completions per journal fsync.
    pub fn create(path: &Path, seed: u64, cadence: u32) -> Result<WalWriter, JournalError> {
        WalWriter::create_with_io(Arc::new(OsJournalIo::new()), path, seed, cadence)
    }

    /// Create a journal over an explicit storage substrate — the real
    /// filesystem, a recording wrapper, or a fault-injecting one.
    pub fn create_with_io(
        io: Arc<dyn JournalIo>,
        path: &Path,
        seed: u64,
        cadence: u32,
    ) -> Result<WalWriter, JournalError> {
        let header = [seed.to_string(), cadence.to_string()];
        let journal = JournalWriter::create::<WalState>(io, path, &header, cadence)?;
        Ok(WalWriter { seed, inner: Mutex::new(WalInner { journal, accepted: 0 }) })
    }

    /// True once a storage failure has made the writer fail-stop.
    pub fn is_degraded(&self) -> bool {
        lock_recover(&self.inner).journal.is_degraded()
    }

    /// Durably record an acceptance and allocate its sequence number.
    /// Nothing may be dispatched for this quote until this returns.
    pub fn accept(
        &self,
        id: u64,
        option: &CdsOption,
        priority: Priority,
    ) -> Result<u32, JournalError> {
        let mut inner = lock_recover(&self.inner);
        let seq = inner.accepted;
        inner.journal.append(&format!(
            "accept seq={seq} id={id} mat={} freq={} rec={} prio={}",
            f64_to_token(option.maturity),
            frequency_to_wire(option.frequency),
            f64_to_token(option.recovery_rate),
            priority.wire(),
        ))?;
        inner.accepted += 1;
        Ok(seq)
    }

    /// Durably record a completion (the canonical spread for `seq`).
    /// Every `cadence` completions the journal is fsynced; nothing else
    /// is written, so the cost does not grow with history.
    pub fn done(&self, seq: u32, spread_bps: f64) -> Result<(), JournalError> {
        let record = format!("done seq={seq} bits={}", f64_to_token(spread_bps));
        lock_recover(&self.inner).journal.complete(&record)
    }

    /// Make every record appended so far durable: the journal is its
    /// own checkpoint, so this is one fsync of the journal.
    pub fn checkpoint_now(&self) -> Result<(), JournalError> {
        lock_recover(&self.inner).journal.sync()
    }

    /// Terminal drain record: fsyncs the journal, appends the
    /// `drain commit=` line counting the completions now durable, and
    /// fsyncs again. Pending quotes (if the drain deadline expired
    /// first) remain recoverable.
    pub fn finalize(&self) -> Result<(), JournalError> {
        lock_recover(&self.inner).journal.finalize()
    }
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

/// A decoded body record of the server journal.
pub enum WalRecord {
    /// An accepted quote.
    Accept(AcceptRecord),
    /// A completion: sequence number and canonical spread.
    Done(u32, f64),
}

impl Format for WalState {
    const MAGIC: &'static str = "cds-server-wal v2";
    const HEADER: &'static [&'static str] = &["seed", "cadence"];
    type Record = WalRecord;

    fn from_header(values: &[&str]) -> Result<Self, (&'static str, String)> {
        let field = |key: &'static str| move |e: CodecError| (key, e.to_string());
        Ok(WalState {
            seed: codec::dec(values[0]).map_err(field("seed"))?,
            cadence: codec::dec(values[1]).map_err(field("cadence"))?,
            accepted: Vec::new(),
            done: HashMap::new(),
            drained: false,
        })
    }

    fn decode(&self, line: &str) -> Result<WalRecord, String> {
        decode_record(self, line).map_err(|e| e.reason)
    }

    fn completion(record: &WalRecord) -> Option<(u32, f64)> {
        match *record {
            WalRecord::Done(seq, spread) => Some((seq, spread)),
            WalRecord::Accept(_) => None,
        }
    }

    fn completable(&self, seq: u32) -> bool {
        (seq as usize) < self.accepted.len()
    }

    fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::Accept(rec) => self.accepted.push(rec),
            WalRecord::Done(seq, spread) => {
                self.done.insert(seq, spread);
            }
        }
    }
}

/// Decode one journal record, its seal already checked. Every field goes
/// through the strict codec, so a spread is exactly `0x` + 16 hex digits
/// and a torn write can never resume as a different (valid, wrong) float.
fn decode_record(state: &WalState, line: &str) -> Result<WalRecord, ParseError> {
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
            Ok(WalRecord::Accept(rec))
        }
        Some((&"accept", _)) => Err(bad("malformed accept record")),
        Some((&"done", rest @ [_, _])) => {
            let f = Fields::parse(rest.iter().copied())?;
            Ok(WalRecord::Done(f.dec("seq")?, f.f64("bits")?))
        }
        _ => Err(bad(format!("unknown journal record `{line}`"))),
    }
}

/// Read a journal back. A torn final line — the signature of a kill or
/// power loss mid-write — is dropped; corruption anywhere else fails
/// typed with an attributable [`journal::CorruptionReport`] (file, byte
/// offset, line, cause).
pub fn read_wal(path: &Path) -> Result<WalState, JournalError> {
    let text = std::fs::read_to_string(path)?;
    let read = journal::parse::<WalState>(path, &text).map_err(JournalError::Corrupt)?;
    Ok(WalState { drained: read.drained, ..read.state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_engine::journal::{drain_ordering_held, seal, StreamJournal};
    use cds_engine::journal_io::{FaultyJournalIo, JournalOp, RecordingJournalIo};
    use cds_quant::option::PaymentFrequency;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cds-server-wal-test-{}-{name}", std::process::id()));
        p
    }

    fn opt() -> CdsOption {
        CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4)
    }

    /// Journal text over `seed=7 cadence=4`: the magic, then every
    /// header line and record sealed as the writer seals them.
    fn sealed(records: &[&str]) -> String {
        ["seed=7", "cadence=4"]
            .iter()
            .chain(records)
            .fold(format!("{}\n", WalState::MAGIC), |text, line| text + &seal(line))
    }

    const ACCEPT: &str =
        "accept seq=0 id=1 mat=0x4014000000000000 freq=Q rec=0x3fd999999999999a prio=HI";

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
            Err(JournalError::Corrupt(report)) => {
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

    /// Both journals are their own checkpoint: every append is one
    /// short record, and every cadence window costs the same IO however
    /// long the history — one journal fsync, no file created or renamed.
    /// The server appends an `accept` and a `done` per completion, the
    /// streaming run one `done`, then its drain.
    #[test]
    fn checkpoint_cost_does_not_grow_with_history() {
        const CADENCE: usize = 4;
        const COMPLETIONS: u32 = 400;
        let (dir, path, rec, wal) = recorded("cost", CADENCE as u32);
        for i in 0..COMPLETIONS {
            let seq = wal.accept(u64::from(i), &opt(), Priority::High).expect("accept");
            wal.done(seq, 100.0 + f64::from(i)).expect("done");
        }
        let stream_path = dir.join("stream.journal");
        let stream_rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let stream = StreamJournal {
            total_options: COMPLETIONS,
            cadence: CADENCE as u32,
            fault_seed: None,
            scenario: None,
            shed: Vec::new(),
            completed: (0..COMPLETIONS)
                .map(|i| (i, 30_000 * u64::from(i), 100.0 + f64::from(i)))
                .collect(),
        };
        stream.write(stream_rec.clone(), &stream_path).expect("stream journal");
        let stream_trace = stream_rec.trace();
        // The stream's drain: fsync, `drain` append, fsync.
        let [stream_body @ .., JournalOp::Fsync { .. }, JournalOp::Append { bytes, .. }, JournalOp::Fsync { .. }] =
            stream_trace.as_slice()
        else {
            panic!("the stream journal must end in its drain: {stream_trace:#?}");
        };
        assert!(bytes.starts_with(b"drain commit=400"), "{}", String::from_utf8_lossy(bytes));

        for (trace, journal, per_completion) in
            [(&rec.trace()[..], &path, 2), (stream_body, &stream_path, 1)]
        {
            let [JournalOp::Create { .. }, JournalOp::Append { .. }, body @ ..] = trace else {
                panic!("trace must open with the journal's create and header: {trace:#?}");
            };
            for op in body {
                if let JournalOp::Append { path: p, bytes } = op {
                    assert_eq!(p, journal, "append outside the journal");
                    assert!(bytes.len() <= 128, "append of {} bytes", bytes.len());
                    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1);
                    assert_eq!(bytes.last(), Some(&b'\n'), "append is not one whole record");
                }
            }
            let kind = |op: &JournalOp| match op {
                JournalOp::Create { .. } => "create",
                JournalOp::Append { .. } => "append",
                JournalOp::Fsync { path: p } if p == journal => "fsync journal",
                JournalOp::Fsync { .. } => "fsync other",
            };
            let window = per_completion * CADENCE + 1;
            let windows: Vec<Vec<&str>> =
                body.chunks(window).map(|w| w.iter().map(kind).collect()).collect();
            let mut want = vec!["append"; per_completion * CADENCE];
            want.push("fsync journal");
            for (i, w) in windows.iter().enumerate() {
                assert_eq!(
                    *w,
                    want,
                    "{}: cadence window {i} issues different IO",
                    journal.display()
                );
            }
            assert_eq!(windows.len(), COMPLETIONS as usize / CADENCE, "one window per {CADENCE}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every completion must be the first for an accepted seq and carry
    /// a finite spread: a second `done` (NaN or not) is corruption, not
    /// "the last one wins".
    #[test]
    fn a_repeated_or_non_finite_done_is_typed_corruption() {
        let path = tmp("strict-done.wal");
        for (records, needle) in [
            (
                &["done seq=0 bits=0x4057000000000000", "done seq=0 bits=0x7ff8000000000000"][..],
                "seq 0",
            ),
            (
                &["done seq=0 bits=0x4057000000000000", "done seq=0 bits=0x4058000000000000"],
                "twice",
            ),
            (&["done seq=0 bits=0x7ff8000000000000"], "non-finite"),
            (&["done seq=0 bits=0xfff0000000000000"], "non-finite"),
            (&["done seq=1 bits=0x4057000000000000"], "unaccepted seq 1"),
        ] {
            std::fs::write(&path, sealed(&[&[ACCEPT], records].concat())).expect("write journal");
            match read_wal(&path) {
                Err(JournalError::Corrupt(report)) => {
                    assert!(report.cause.contains(needle), "{records:?}: {}", report.cause);
                }
                other => panic!("{records:?} must be typed corruption, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
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
            Err(JournalError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        assert!(wal.is_degraded());
        assert!(io.counters().any());
        // Fail-stop: everything after the failure is refused…
        assert!(matches!(wal.done(1, 101.0), Err(JournalError::Degraded)));
        assert!(matches!(wal.accept(12, &opt(), Priority::High), Err(JournalError::Degraded)));
        assert!(matches!(wal.finalize(), Err(JournalError::Degraded)));
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
            let done = format!("done seq=0 bits={bits}");
            std::fs::write(&path, sealed(&[ACCEPT, &done])).expect("write journal");
            read_wal(&path)
        };
        let state = journal("0x4059000000000000").expect("full pattern");
        assert_eq!(state.done[&0].to_bits(), 0x4059_0000_0000_0000);
        // A torn tail of the same record must be rejected, not read as
        // the (valid, wrong) tiny float 0x4059; so must a signed pattern
        // that still has 16 characters, and a decimal.
        for bad in ["0x4059", "0x+405900000000000", "0x", "103.5", "0X4059000000000000"] {
            match journal(bad) {
                Err(JournalError::Corrupt(report)) => {
                    assert_eq!(report.line, Some(5));
                    let want = format!("field `bits`: bad bit pattern `{bad}`");
                    assert!(report.cause.contains(&want), "{bad}: {}", report.cause);
                }
                other => panic!("`bits={bad}` must be typed corruption, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Every single-byte corruption of a real server journal reads back
    /// as typed corruption: a flipped digit of a spread, a maturity or a
    /// header value cannot read as a different valid journal. The one
    /// byte that passes for a torn tail is the final newline, which
    /// drops the drain record and keeps everything before it intact.
    #[test]
    fn every_single_byte_corruption_is_typed_or_a_torn_drain() {
        let path = tmp("sweep.wal");
        let wal = WalWriter::create(&path, 42, 2).expect("create");
        for id in 0..3 {
            wal.accept(100 + id, &opt(), Priority::High).expect("accept");
        }
        wal.done(0, 87.125).expect("done");
        wal.done(2, f64::from_bits(0x4059_4ccc_cccc_cccd)).expect("done");
        wal.finalize().expect("finalize");
        let text = std::fs::read(&path).expect("read back");
        let view = |state: &WalState| {
            let mut done: Vec<(u32, u64)> =
                state.done.iter().map(|(&seq, spread)| (seq, spread.to_bits())).collect();
            done.sort_unstable();
            (state.seed, state.cadence, state.accepted.clone(), done)
        };
        let clean = read_wal(&path).expect("clean journal");
        assert!(clean.drained);
        for i in 0..text.len() {
            let mut corrupted = text.clone();
            corrupted[i] = corrupted[i].wrapping_add(1);
            std::fs::write(&path, &corrupted).expect("rewrite");
            match read_wal(&path) {
                Ok(state) if i + 1 == text.len() => {
                    assert_eq!(view(&state), view(&clean));
                    assert!(!state.drained, "a torn drain record must not count");
                }
                Err(JournalError::Corrupt(_)) => {}
                other => {
                    panic!("byte {i} of {}: expected typed corruption, got {other:?}", text.len())
                }
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
