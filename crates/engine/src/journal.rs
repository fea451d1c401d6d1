//! The one append-only journal: its framing, its writer and its reader,
//! shared by the streaming run ([`StreamJournal`]) and the quote
//! server's write-ahead journal (`cds_server::wal`, which adds its own
//! `accept` record).
//!
//! ## Framing
//!
//! ```text
//! <magic>                      Format::MAGIC
//! <key>=<value>                one line per Format::HEADER key, in order
//! <record>                     one line per event; a completion is `done seq=<n> …`
//! drain commit=<completions>   the terminal record
//! ```
//!
//! [`JournalWriter`] appends it with one discipline, which makes every
//! durable state a prefix of the run:
//!
//! 1. records are appended and flushed, but *not* fsynced one by one
//!    (a power loss may lose a tail of them),
//! 2. every `cadence` completions the journal is fsynced, which bounds
//!    what a power loss can take; nothing else is written, so the cost
//!    of a completion does not grow with the journal's history,
//! 3. [`JournalWriter::finalize`] fsyncs, appends `drain commit=`, and
//!    fsyncs again ([`drain_ordering_held`] checks this on a recorded
//!    trace), so a durable commit record never claims completions that
//!    are not durable.
//!
//! No writer creates a second file or renames one. The writer is
//! **fail-stop**: the first storage failure (ENOSPC, EIO, a short
//! write) degrades it, and every later append or fsync is refused with
//! [`JournalError::Degraded`] instead of stacking writes after a hole,
//! so the file stays torn-at-EOF at worst.
//!
//! [`parse`] reads a journal back. A torn final line (no trailing
//! newline) is dropped, but a torn header line is not: it could read
//! as a shorter, wrong value. Anything else malformed is a typed
//! [`CorruptionReport`]. Every completion, in either format, must name
//! an accepted and unshed sequence number, carry a finite spread and
//! be the first for its number; a `drain commit=` must count the
//! completions before it.
//!
//! ## The streaming journal
//!
//! A streaming run writes one `done seq=<index> cycle=<done cycle>
//! bits=0x<spread bits> sum=<16 hex>` record per completion, in
//! completion-cycle order, where `sum` is the FNV-1a hash of the record
//! before it, so a flipped digit cannot read as a different valid
//! spread. The header carries `total`, `cadence`, `fault_seed`,
//! `scenario` (empty when unlabelled) and the ascending `shed` set.
//! [`crate::streaming::resume_streaming_from`] resumes from any prefix
//! of the text: it replays only the options the prefix has not seen
//! complete, and because per-option pricing is independent of batch
//! composition, the merged spreads are bit-identical to an
//! uninterrupted run.

use crate::codec::{self, bits_to_hex, f64_to_token, hex_to_bits, CodecError, Fields};
use crate::error::CdsError;
use crate::journal_io::{FileId, JournalIo, JournalOp};
use crate::streaming::StreamingReport;
use dataflow_sim::Cycle;
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An attributable corruption: which file, where, and why.
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
pub enum JournalError {
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

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Config(reason) => write!(f, "journal misconfigured: {reason}"),
            JournalError::Degraded => write!(
                f,
                "journal degraded: an earlier storage failure made the writer fail-stop \
                 (the durable prefix remains resumable)"
            ),
            JournalError::Corrupt(report) => write!(f, "journal corrupt: {report}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One journal format: its magic line, its header keys, and the body
/// records it adds to the shared `drain` record.
pub trait Format: Sized {
    /// The journal's first line.
    const MAGIC: &'static str;
    /// Header keys, one `key=value` line each, in this order.
    const HEADER: &'static [&'static str];
    /// A decoded body record.
    type Record;
    /// Build the format's state from its header values (in
    /// [`Format::HEADER`] order); an error names the offending key.
    fn from_header(values: &[&str]) -> Result<Self, (&'static str, String)>;
    /// Decode one body record other than `drain`, without applying it.
    fn decode(&self, line: &str) -> Result<Self::Record, String>;
    /// The `(seq, spread)` a record completes, if it is a completion.
    fn completion(record: &Self::Record) -> Option<(u32, f64)>;
    /// Whether `seq` may complete: it was accepted and not shed.
    fn completable(&self, seq: u32) -> bool;
    /// Apply a record that passed every rule.
    fn apply(&mut self, record: Self::Record);
}

/// A journal read back by [`parse`].
#[derive(Debug)]
pub struct Journal<F> {
    /// The format's state after every record.
    pub state: F,
    /// Whether a terminal `drain commit=` record was found.
    pub drained: bool,
}

/// The header a [`JournalWriter`] appends: the magic line, then
/// `key=value` for each of `F::HEADER` with `values` in order.
fn header_text<F: Format>(values: &[String]) -> String {
    let mut text = format!("{}\n", F::MAGIC);
    for (key, value) in F::HEADER.iter().zip(values) {
        text.push_str(&format!("{key}={value}\n"));
    }
    text
}

fn drain_record(commit: u32) -> String {
    format!("drain commit={commit}")
}

/// Read journal text. `file` only labels a [`CorruptionReport`].
///
/// # Errors
/// The first corruption that is not a torn final record.
pub fn parse<F: Format>(file: &Path, text: &str) -> Result<Journal<F>, CorruptionReport> {
    let corrupt = |offset: u64, line: Option<u64>, cause: String| CorruptionReport {
        file: file.to_path_buf(),
        offset,
        line,
        cause,
    };
    let ends_clean = text.ends_with('\n');
    // Each record with its byte offset and 1-based line number.
    let mut records: Vec<(u64, u64, &str)> = Vec::new();
    let mut offset = 0u64;
    for (i, seg) in text.split_inclusive('\n').enumerate() {
        records.push((offset, i as u64 + 1, seg.strip_suffix('\n').unwrap_or(seg)));
        offset += seg.len() as u64;
    }
    let head = 1 + F::HEADER.len();
    if records.len() < head || (records.len() == head && !ends_clean) {
        return Err(corrupt(offset, None, "journal missing its header lines".to_string()));
    }
    let (header, body) = records.split_at(head);
    let (m_off, m_line, magic) = header[0];
    if magic != F::MAGIC {
        return Err(corrupt(m_off, Some(m_line), format!("bad header `{magic}`")));
    }
    let mut values = Vec::with_capacity(F::HEADER.len());
    for (&key, &(off, line_no, line)) in F::HEADER.iter().zip(&header[1..]) {
        let value = Fields::parse([line]).and_then(|f| f.get(key));
        values.push(value.map_err(|e| corrupt(off, Some(line_no), e.to_string()))?);
    }
    let state = F::from_header(&values).map_err(|(key, cause)| {
        let at = F::HEADER.iter().position(|&k| k == key).map_or(0, |i| i + 1);
        let (off, line_no, _) = header[at];
        corrupt(off, Some(line_no), format!("field `{key}`: {cause}"))
    })?;

    let mut journal = Journal { state, drained: false };
    let mut completed = HashSet::new();
    for (i, &(off, line_no, line)) in body.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(cause) = journal.record(&mut completed, line) {
            if i + 1 == body.len() && !ends_clean {
                break; // torn tail from a mid-write kill: drop it
            }
            return Err(corrupt(off, Some(line_no), cause));
        }
    }
    Ok(journal)
}

impl<F: Format> Journal<F> {
    /// Check one body record against the shared rules, then apply it.
    fn record(&mut self, completed: &mut HashSet<u32>, line: &str) -> Result<(), String> {
        if let Some(rest) = line.strip_prefix("drain ") {
            let commit: usize = match rest.split_whitespace().collect::<Vec<_>>()[..] {
                [commit] => Fields::parse([commit]).and_then(|f| f.dec("commit")),
                _ => return Err(format!("malformed drain record `{line}`")),
            }
            .map_err(|e| e.to_string())?;
            if commit != completed.len() {
                return Err(format!(
                    "drain commit {commit} disagrees with {} durable completions",
                    completed.len()
                ));
            }
            self.drained = true;
            return Ok(());
        }
        let record = self.state.decode(line)?;
        if let Some((seq, spread)) = F::completion(&record) {
            if !self.state.completable(seq) {
                return Err(format!("done for unaccepted seq {seq}"));
            }
            if !spread.is_finite() {
                return Err(format!("seq {seq} has a non-finite spread"));
            }
            if !completed.insert(seq) {
                return Err(format!("seq {seq} completed twice"));
            }
        }
        self.state.apply(record);
        Ok(())
    }
}

/// The appender (see the module docs for its discipline).
pub struct JournalWriter {
    io: Arc<dyn JournalIo>,
    file: FileId,
    cadence: u32,
    completed: u32,
    degraded: bool,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("cadence", &self.cadence)
            .field("completed", &self.completed)
            .field("degraded", &self.degraded)
            .finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Create (truncate) a `F` journal at `path` and append its header
    /// in one write. `cadence` is the number of completions per fsync.
    ///
    /// # Errors
    /// A zero cadence, or the substrate's failure to create or append.
    pub fn create<F: Format>(
        io: Arc<dyn JournalIo>,
        path: &Path,
        values: &[String],
        cadence: u32,
    ) -> Result<JournalWriter, JournalError> {
        if cadence == 0 {
            return Err(JournalError::Config("journal fsync cadence must be at least 1"));
        }
        let file = io.create(path)?;
        io.append(file, header_text::<F>(values).as_bytes())?;
        Ok(JournalWriter { io, file, cadence, completed: 0, degraded: false })
    }

    /// True once a storage failure has made the writer fail-stop.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn fail_stop(&mut self, result: std::io::Result<()>) -> Result<(), JournalError> {
        result.map_err(|e| {
            self.degraded = true;
            JournalError::Io(e)
        })
    }

    /// Append one record (a line without its newline) and flush it.
    ///
    /// # Errors
    /// [`JournalError::Degraded`] after an earlier failure, else the
    /// substrate's failure, which degrades the writer.
    pub fn append(&mut self, record: &str) -> Result<(), JournalError> {
        if self.degraded {
            return Err(JournalError::Degraded);
        }
        let result = self.io.append(self.file, format!("{record}\n").as_bytes());
        self.fail_stop(result)
    }

    /// Append a completion record; every `cadence` completions the
    /// journal is fsynced.
    ///
    /// # Errors
    /// As [`JournalWriter::append`] and [`JournalWriter::sync`].
    pub fn complete(&mut self, record: &str) -> Result<(), JournalError> {
        self.append(record)?;
        self.completed += 1;
        if self.completed.is_multiple_of(self.cadence) {
            self.sync()?;
        }
        Ok(())
    }

    /// Make every record appended so far durable: one fsync.
    ///
    /// # Errors
    /// As [`JournalWriter::append`].
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.degraded {
            return Err(JournalError::Degraded);
        }
        let result = self.io.fsync(self.file);
        self.fail_stop(result)
    }

    /// The terminal record: fsync, append `drain commit=` counting the
    /// completions now durable, fsync again.
    ///
    /// # Errors
    /// As [`JournalWriter::append`].
    pub fn finalize(&mut self) -> Result<(), JournalError> {
        self.sync()?;
        self.append(&drain_record(self.completed))?;
        self.sync()
    }
}

/// The journal's ordering rule, the one [`JournalWriter::finalize`]
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

/// The journal of a streaming run: its header, and its completions
/// `(index, done cycle, spread)` in completion-cycle order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamJournal {
    /// Total options in the original workload.
    pub total_options: u32,
    /// Completions per journal fsync.
    pub cadence: u32,
    /// Seed of the active fault plan, if any.
    pub fault_seed: Option<u64>,
    /// Name of the scenario the run was recorded under. When set,
    /// [`crate::streaming::resume_streaming_from`] refuses to resume
    /// under a *different* requested scenario.
    pub scenario: Option<String>,
    /// Original indices shed by admission control, ascending.
    pub shed: Vec<u32>,
    /// Completions, in completion order.
    pub completed: Vec<(u32, Cycle, f64)>,
}

/// FNV-1a over a record's text: any one changed byte changes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

impl StreamJournal {
    /// Derive the journal of a finished run. Completions are ordered by
    /// completion cycle, the order a journal on real hardware observes.
    ///
    /// # Errors
    /// [`CdsError::Config`] for a zero cadence.
    pub fn of_run(
        total_options: u32,
        report: &StreamingReport,
        fault_seed: Option<u64>,
        scenario: Option<&str>,
        cadence: u32,
    ) -> Result<StreamJournal, CdsError> {
        if cadence == 0 {
            return Err(CdsError::Config { reason: "journal cadence must be at least 1" });
        }
        let shed: BTreeSet<u32> = report.shed_indices.iter().copied().collect();
        let lost: BTreeSet<u32> = report.lost_indices.iter().copied().collect();
        // spans/spreads are aligned, in ascending original-index order
        // over the completed set = admitted minus lost.
        let mut completed: Vec<(u32, Cycle, f64)> = (0..total_options)
            .filter(|i| !shed.contains(i) && !lost.contains(i))
            .zip(report.spans.iter().zip(&report.spreads))
            .map(|(index, (&(_, done_cycle), &spread))| (index, done_cycle, spread))
            .collect();
        completed.sort_by_key(|&(index, done_cycle, _)| (done_cycle, index));
        Ok(StreamJournal {
            total_options,
            cadence,
            fault_seed,
            scenario: scenario.map(str::to_string),
            shed: shed.into_iter().collect(),
            completed,
        })
    }

    fn header_values(&self) -> Vec<String> {
        let ids = self.shed.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        vec![
            self.total_options.to_string(),
            self.cadence.to_string(),
            self.fault_seed.map_or_else(|| "none".to_string(), |s| s.to_string()),
            self.scenario.clone().unwrap_or_default(),
            ids,
        ]
    }

    fn done_record(&(index, cycle, spread): &(u32, Cycle, f64)) -> String {
        let record = format!("done seq={index} cycle={cycle} bits={}", f64_to_token(spread));
        let sum = bits_to_hex(fnv1a(record.as_bytes()));
        format!("{record} sum={sum}")
    }

    /// The journal as written after its first `completions`
    /// completions, before any drain record.
    #[must_use]
    pub fn prefix(&self, completions: usize) -> String {
        let mut text = header_text::<Self>(&self.header_values());
        for c in &self.completed[..completions.min(self.completed.len())] {
            text.push_str(&Self::done_record(c));
            text.push('\n');
        }
        text
    }

    /// The whole journal: every byte [`StreamJournal::write`] appends.
    #[must_use]
    pub fn to_text(&self) -> String {
        let n = self.completed.len();
        format!("{}{}\n", self.prefix(n), drain_record(n as u32))
    }

    /// Persist through the one [`JournalWriter`]: the header, one
    /// completion record each (fsynced every `cadence`), the drain.
    ///
    /// # Errors
    /// The writer's failure; the durable prefix stays resumable.
    pub fn write(&self, io: Arc<dyn JournalIo>, path: &Path) -> Result<(), JournalError> {
        let mut writer =
            JournalWriter::create::<Self>(io, path, &self.header_values(), self.cadence)?;
        for c in &self.completed {
            writer.complete(&Self::done_record(c))?;
        }
        writer.finalize()
    }

    /// Read a streaming journal back from any prefix of its text.
    ///
    /// # Errors
    /// A typed [`CdsError::Journal`] naming the corrupt line.
    pub fn parse(text: &str) -> Result<StreamJournal, CdsError> {
        parse::<Self>(Path::new("stream journal"), text)
            .map(|j| j.state)
            .map_err(|report| CdsError::Journal { reason: report.to_string() })
    }
}

impl Format for StreamJournal {
    const MAGIC: &'static str = "cds-stream-journal v1";
    const HEADER: &'static [&'static str] = &["total", "cadence", "fault_seed", "scenario", "shed"];
    type Record = (u32, Cycle, f64);

    fn from_header(values: &[&str]) -> Result<Self, (&'static str, String)> {
        let (total, cadence, fault_seed, scenario, shed) =
            (values[0], values[1], values[2], values[3], values[4]);
        let field = |key: &'static str| move |e: CodecError| (key, e.to_string());
        let total_options: u32 = codec::dec(total).map_err(field("total"))?;
        let fault_seed = match fault_seed {
            "none" => None,
            seed => Some(codec::dec_u64(seed).map_err(field("fault_seed"))?),
        };
        if scenario.chars().any(char::is_whitespace) {
            return Err(("scenario", format!("label `{scenario}` is not a single token")));
        }
        let shed: Vec<u32> = shed
            .split(',')
            .filter(|_| !shed.is_empty())
            .map(codec::dec)
            .collect::<Result<_, _>>()
            .map_err(field("shed"))?;
        if !shed.windows(2).all(|w| w[0] < w[1]) || shed.last().is_some_and(|&i| i >= total_options)
        {
            return Err(("shed", format!("not ascending indices below {total_options}")));
        }
        Ok(StreamJournal {
            total_options,
            cadence: codec::dec(cadence).map_err(field("cadence"))?,
            fault_seed,
            scenario: Some(scenario).filter(|s| !s.is_empty()).map(str::to_string),
            shed,
            completed: Vec::new(),
        })
    }

    fn decode(&self, line: &str) -> Result<Self::Record, String> {
        let Some((record, sum)) = line.strip_prefix("done ").and(line.rsplit_once(" sum=")) else {
            return Err(format!("unknown journal record `{line}`"));
        };
        if hex_to_bits(sum).map_err(|e| e.in_field("sum").to_string())? != fnv1a(record.as_bytes())
        {
            return Err(format!("record checksum mismatch in `{line}`"));
        }
        let toks: Vec<&str> = record.split_whitespace().collect();
        let [_, seq, cycle, bits] = toks[..] else {
            return Err(format!("malformed done record `{line}`"));
        };
        let f = Fields::parse([seq, cycle, bits]).map_err(|e| e.to_string())?;
        Ok((
            f.dec("seq").map_err(|e| e.to_string())?,
            f.dec("cycle").map_err(|e| e.to_string())?,
            f.f64("bits").map_err(|e| e.to_string())?,
        ))
    }

    fn completion(&(index, _, spread): &Self::Record) -> Option<(u32, f64)> {
        Some((index, spread))
    }

    fn completable(&self, seq: u32) -> bool {
        seq < self.total_options && self.shed.binary_search(&seq).is_err()
    }

    fn apply(&mut self, record: Self::Record) {
        self.completed.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal_io::{FaultyJournalIo, OsJournalIo, RecordingJournalIo, StorageFaultPlan};

    fn sample() -> StreamJournal {
        StreamJournal {
            total_options: 6,
            cadence: 2,
            fault_seed: Some(0xD2),
            scenario: Some("corrupt-spread".to_string()),
            shed: vec![3],
            completed: vec![(0, 101_000, 87.125), (2, 123_456, 90.062_5)],
        }
    }

    fn parsed(text: &str) -> StreamJournal {
        match StreamJournal::parse(text) {
            Ok(j) => j,
            Err(e) => panic!("`{text}` must parse: {e}"),
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let journal = sample();
        assert_eq!(parsed(&journal.to_text()), journal);
        // Bit-exactness survives an awkward spread value too.
        let mut odd = journal;
        odd.completed[0].2 = 1.0 / 3.0 * 271.0;
        assert_eq!(parsed(&odd.to_text()).completed[0].2.to_bits(), odd.completed[0].2.to_bits());
        // Every record prefix reads back as that prefix.
        for k in 0..=odd.completed.len() {
            assert_eq!(parsed(&odd.prefix(k)).completed, odd.completed[..k]);
        }
    }

    #[test]
    fn parse_rejects_malformed_input_with_typed_errors() {
        let head = "cds-stream-journal v1\ntotal=2\ncadence=1\nfault_seed=none\nscenario=\nshed=\n";
        let done = |index: u32, spread: f64| StreamJournal::done_record(&(index, 5, spread));
        let cases = [
            (String::new(), "missing its header"),
            ("cds-checkpoint v1\n".to_string() + &head[22..], "bad header"),
            (head.replace("total=2", "total=2 x=1"), "field `total`"),
            (head.replace("fault_seed=none", "fault_seed=xyz"), "field `fault_seed`"),
            (head.replace("scenario=", "scenario=a b"), "single token"),
            (head.replace("shed=", "shed=1,0"), "ascending"),
            (head.replace("shed=", "shed=2"), "below 2"),
            // A torn last header line could read as a shorter value.
            (head.replace("shed=\n", "shed="), "missing its header"),
            (format!("{head}nonsense\ndrain commit=0\n"), "unknown journal record"),
            (format!("{head}{}\n", done(0, 1.0).replace("seq=0", "seq=1")), "checksum"),
            (format!("{head}{}\n", done(0, 1.0).replace(" sum=", " sum=x")), "field `sum`"),
            (format!("{head}{}\ndrain commit=1\n", done(2, 1.0)), "unaccepted seq 2"),
            (format!("{}{}\n", head.replace("shed=", "shed=1"), done(1, 1.0)), "unaccepted seq 1"),
            (format!("{head}{}\n{}\n", done(0, 1.0), done(0, 2.0)), "completed twice"),
            (format!("{head}{}\n", done(0, f64::NAN)), "non-finite"),
            (format!("{head}{}\ndrain commit=2\n", done(0, 1.0)), "disagrees with 1"),
        ];
        for (text, needle) in cases {
            match StreamJournal::parse(&text) {
                Err(CdsError::Journal { reason }) => {
                    assert!(reason.contains(needle), "`{reason}` should mention `{needle}`");
                }
                other => panic!("expected Journal error mentioning `{needle}`, got {other:?}"),
            }
        }
        // A torn final record is dropped, not an error.
        let text = format!("{head}{}", done(0, 1.0));
        assert!(parsed(&text[..text.len() - 3]).completed.is_empty());
    }

    #[test]
    fn scenario_label_is_optional() {
        // Unlabelled journals write an empty label and read back None;
        // a scenario literally named "none" survives the trip.
        let mut journal = sample();
        for scenario in [None, Some("none".to_string())] {
            journal.scenario = scenario;
            assert_eq!(parsed(&journal.to_text()).scenario, journal.scenario);
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cds-engine-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// The writer's bytes are `to_text`'s, its fsyncs fall every
    /// `cadence` completions and around the drain, and the drain rule
    /// refuses the trace once either drain fsync is missing.
    #[test]
    fn writer_appends_to_text_with_the_drain_discipline() {
        let dir = scratch("writer");
        let path = dir.join("stream.journal");
        let rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let mut journal = sample();
        journal.completed.push((1, 130_000, 88.5));
        journal.write(rec.clone(), &path).expect("write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), journal.to_text());
        let trace = rec.trace();
        let kinds: Vec<&str> = trace
            .iter()
            .map(|op| match op {
                JournalOp::Create { .. } => "create",
                JournalOp::Append { .. } => "append",
                JournalOp::Fsync { .. } => "fsync",
            })
            .collect();
        let want = ["create", "append", "append", "append", "fsync", "append", "fsync"];
        assert_eq!(kinds[..7], want, "{trace:#?}");
        assert_eq!(kinds[7..], ["append", "fsync"]);
        assert!(drain_ordering_held(&trace, &path));
        for cut in [6, 8] {
            let mut mutant = trace.clone();
            mutant.remove(cut);
            assert!(!drain_ordering_held(&mutant, &path), "rule missed a dropped fsync at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_makes_the_writer_fail_stop() {
        let dir = scratch("fail-stop");
        let path = dir.join("stream.journal");
        // Append 0 is the header; append 2 (the second record) fails.
        let io = FaultyJournalIo::over(
            Arc::new(OsJournalIo::new()),
            StorageFaultPlan::new(1).enospc_at(2),
        );
        let mut writer = JournalWriter::create::<StreamJournal>(
            Arc::new(io),
            &path,
            &sample().header_values(),
            8,
        )
        .expect("create");
        let records: Vec<String> =
            sample().completed.iter().map(StreamJournal::done_record).collect();
        writer.complete(&records[0]).expect("first record lands");
        assert!(matches!(writer.complete(&records[1]), Err(JournalError::Io(_))));
        assert!(writer.is_degraded());
        assert!(matches!(writer.sync(), Err(JournalError::Degraded)));
        assert!(matches!(writer.finalize(), Err(JournalError::Degraded)));
        let durable = parsed(&std::fs::read_to_string(&path).expect("read"));
        assert_eq!(durable.completed, sample().completed[..1]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
