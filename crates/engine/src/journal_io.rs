//! Storage I/O abstraction, seeded storage-fault injection, and
//! crash-state enumeration for the journal layer ([`crate::journal`]).
//!
//! A durability proof that assumes a perfect filesystem (appends always
//! land, `fsync` never lies) proves nothing. This module makes the
//! storage substrate explicit so those assumptions become testable:
//!
//! - [`JournalIo`] — the small trait (create/append/fsync) every
//!   journal write goes through,
//! - [`OsJournalIo`] — the real filesystem,
//! - [`RecordingJournalIo`] — a pass-through that records the
//!   *effective* operation trace ([`JournalOp`]) for later crash-state
//!   enumeration and ordering assertions
//!   ([`crate::journal::drain_ordering_held`]),
//! - [`FaultyJournalIo`] + [`StorageFaultPlan`] — seeded, one-shot
//!   fault injection (ENOSPC, EIO, short writes, fsync-that-lies) in
//!   the style of `dataflow_sim::fault::FaultPlan`, with attributable
//!   [`StorageFaultEvent`]s and [`StorageFaultCounters`],
//! - [`enumerate_crash_states`] — the power-loss simulator: for a
//!   recorded trace it enumerates every reachable post-crash
//!   filesystem image (unsynced-write prefixes, torn tail blocks at
//!   configurable granularity) as [`CrashState`]s that can be
//!   materialised into a scratch directory and driven through a resume
//!   path.
//!
//! ## Durability model
//!
//! The enumerator replays a trace against a simulated filesystem with a
//! *durable* image plus an ordered *pending* queue:
//!
//! | op | effect |
//! |---|---|
//! | `Create` | durable immediately (empty file); truncates pending appends |
//! | `Append` | pending |
//! | `Fsync(f)` | flushes `f`'s pending appends, in order |
//!
//! A crash at any point may persist the durable image plus any
//! *prefix* of the pending queue; additionally the last flushed append
//! may be torn at block granularity. `Create` being durable immediately
//! is a deliberate simplification (ext4-ordered-style metadata
//! journaling); it is conservative for every bug class this module
//! hunts, all of which live in file *content*. No writer renames, so
//! the model has no rename.

use dataflow_sim::fault::splitmix64;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Opaque handle to a file opened through a [`JournalIo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(u64);

/// The storage operations the journal layer is allowed to perform. Everything is `&self` (interior mutability) so one
/// implementation can be shared across the writer and its observers.
pub trait JournalIo: Send + Sync {
    /// Create (truncating) a file for appending.
    fn create(&self, path: &Path) -> std::io::Result<FileId>;
    /// Append bytes to an open file. On error a *prefix* of `bytes` may
    /// already have reached the file (short-write semantics).
    fn append(&self, file: FileId, bytes: &[u8]) -> std::io::Result<()>;
    /// Flush an open file's data to durable storage.
    fn fsync(&self, file: FileId) -> std::io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct OsJournalIo {
    files: Mutex<HashMap<FileId, File>>,
    next: AtomicU64,
}

impl OsJournalIo {
    /// A fresh handle table over the real filesystem.
    pub fn new() -> OsJournalIo {
        OsJournalIo::default()
    }

    fn with_file<R>(
        &self,
        file: FileId,
        f: impl FnOnce(&mut File) -> std::io::Result<R>,
    ) -> std::io::Result<R> {
        let mut files = lock_recover(&self.files);
        match files.get_mut(&file) {
            Some(handle) => f(handle),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown journal file handle {file:?}"),
            )),
        }
    }
}

impl JournalIo for OsJournalIo {
    fn create(&self, path: &Path) -> std::io::Result<FileId> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        let id = FileId(self.next.fetch_add(1, Ordering::Relaxed));
        lock_recover(&self.files).insert(id, file);
        Ok(id)
    }

    fn append(&self, file: FileId, bytes: &[u8]) -> std::io::Result<()> {
        self.with_file(file, |f| f.write_all(bytes))
    }

    fn fsync(&self, file: FileId) -> std::io::Result<()> {
        self.with_file(file, |f| f.sync_all())
    }
}

/// One effective storage operation, as recorded by
/// [`RecordingJournalIo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A file was created (truncated) at `path`.
    Create {
        /// The created file's path.
        path: PathBuf,
    },
    /// Bytes were appended to the file at `path`.
    Append {
        /// The appended file's path (at append time).
        path: PathBuf,
        /// The appended bytes.
        bytes: Vec<u8>,
    },
    /// The file at `path` was fsynced.
    Fsync {
        /// The synced file's path.
        path: PathBuf,
    },
}

impl fmt::Display for JournalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalOp::Create { path } => write!(f, "create {}", path.display()),
            JournalOp::Append { path, bytes } => {
                write!(f, "append {} ({} bytes)", path.display(), bytes.len())
            }
            JournalOp::Fsync { path } => write!(f, "fsync {}", path.display()),
        }
    }
}

/// Pass-through [`JournalIo`] that records the *effective* operation
/// trace. Stack it **under** a [`FaultyJournalIo`] so the trace holds
/// what actually reached the substrate: a lying fsync never reaches the
/// recorder, so the enumerator correctly treats the data as volatile,
/// and a short write records only the prefix that landed.
pub struct RecordingJournalIo {
    inner: Arc<dyn JournalIo>,
    paths: Mutex<HashMap<FileId, PathBuf>>,
    trace: Mutex<Vec<JournalOp>>,
}

impl fmt::Debug for RecordingJournalIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordingJournalIo")
            .field("ops", &lock_recover(&self.trace).len())
            .finish_non_exhaustive()
    }
}

impl RecordingJournalIo {
    /// Record every effective operation passing through to `inner`.
    pub fn over(inner: Arc<dyn JournalIo>) -> RecordingJournalIo {
        RecordingJournalIo {
            inner,
            paths: Mutex::new(HashMap::new()),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the recorded trace so far.
    pub fn trace(&self) -> Vec<JournalOp> {
        lock_recover(&self.trace).clone()
    }

    fn path_of(&self, file: FileId) -> PathBuf {
        lock_recover(&self.paths).get(&file).cloned().unwrap_or_else(|| PathBuf::from("?"))
    }

    fn record(&self, op: JournalOp) {
        lock_recover(&self.trace).push(op);
    }
}

impl JournalIo for RecordingJournalIo {
    fn create(&self, path: &Path) -> std::io::Result<FileId> {
        let id = self.inner.create(path)?;
        lock_recover(&self.paths).insert(id, path.to_path_buf());
        self.record(JournalOp::Create { path: path.to_path_buf() });
        Ok(id)
    }

    fn append(&self, file: FileId, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(file, bytes)?;
        self.record(JournalOp::Append { path: self.path_of(file), bytes: bytes.to_vec() });
        Ok(())
    }

    fn fsync(&self, file: FileId) -> std::io::Result<()> {
        self.inner.fsync(file)?;
        self.record(JournalOp::Fsync { path: self.path_of(file) });
        Ok(())
    }
}

/// The storage fault classes [`FaultyJournalIo`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// `append` fails with `ErrorKind::StorageFull`, no bytes land.
    Enospc,
    /// `append` fails with a generic I/O error, no bytes land.
    Eio,
    /// `append` lands a seeded proper prefix of the bytes, then fails.
    ShortWrite,
    /// `fsync` reports success without flushing anything.
    LyingFsync,
}

impl fmt::Display for StorageFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StorageFaultKind::Enospc => "enospc",
            StorageFaultKind::Eio => "eio",
            StorageFaultKind::ShortWrite => "short-write",
            StorageFaultKind::LyingFsync => "lying-fsync",
        })
    }
}

/// One injected fault, attributable after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageFaultEvent {
    /// What was injected.
    pub kind: StorageFaultKind,
    /// The per-class operation index it fired at (append index for the
    /// write faults, fsync index for the lying fsync).
    pub op_index: u64,
    /// The file the faulted operation targeted.
    pub path: PathBuf,
}

impl fmt::Display for StorageFaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at op {} on {}", self.kind, self.op_index, self.path.display())
    }
}

/// How many of each fault class actually fired.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultCounters {
    /// Injected ENOSPC append failures.
    pub enospc: u64,
    /// Injected EIO append failures.
    pub eio: u64,
    /// Injected short writes.
    pub short_writes: u64,
    /// Fsyncs that lied.
    pub lying_fsyncs: u64,
}

impl StorageFaultCounters {
    /// Total faults fired.
    pub fn total(&self) -> u64 {
        self.enospc + self.eio + self.short_writes + self.lying_fsyncs
    }

    /// True when any fault fired.
    pub fn any(&self) -> bool {
        self.total() > 0
    }
}

/// A seeded storage-fault schedule, in the fluent one-shot style of
/// `dataflow_sim::fault::FaultPlan`: write faults fire at absolute
/// *append* indices (0-based, counted across the whole [`JournalIo`]),
/// the lying fsync applies to every fsync from an absolute *fsync*
/// index onward. The seed only places the short-write cut points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaultPlan {
    seed: u64,
    enospc: Vec<u64>,
    eio: Vec<u64>,
    short_writes: Vec<u64>,
    lying_fsync_from: Option<u64>,
}

impl StorageFaultPlan {
    /// An empty plan (no faults) deriving cut points from `seed`.
    pub fn new(seed: u64) -> StorageFaultPlan {
        StorageFaultPlan { seed, ..StorageFaultPlan::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fail the `index`-th append with ENOSPC (once).
    #[must_use]
    pub fn enospc_at(mut self, index: u64) -> StorageFaultPlan {
        self.enospc.push(index);
        self
    }

    /// Fail the `index`-th append with EIO (once).
    #[must_use]
    pub fn eio_at(mut self, index: u64) -> StorageFaultPlan {
        self.eio.push(index);
        self
    }

    /// Tear the `index`-th append: land a seeded proper prefix, then
    /// fail (once).
    #[must_use]
    pub fn short_write_at(mut self, index: u64) -> StorageFaultPlan {
        self.short_writes.push(index);
        self
    }

    /// Make every fsync from the `index`-th onward report success
    /// without flushing.
    #[must_use]
    pub fn lying_fsync_from(mut self, index: u64) -> StorageFaultPlan {
        self.lying_fsync_from = Some(index);
        self
    }
}

#[derive(Debug, Default)]
struct FaultProgress {
    appends: u64,
    fsyncs: u64,
}

/// A [`JournalIo`] that injects the faults of a [`StorageFaultPlan`]
/// and passes everything else through. Stack it **over** a
/// [`RecordingJournalIo`] so the recorded trace holds only what truly
/// reached the substrate.
pub struct FaultyJournalIo {
    inner: Arc<dyn JournalIo>,
    plan: StorageFaultPlan,
    progress: Mutex<FaultProgress>,
    counters: Mutex<StorageFaultCounters>,
    events: Mutex<Vec<StorageFaultEvent>>,
    paths: Mutex<HashMap<FileId, PathBuf>>,
}

impl fmt::Debug for FaultyJournalIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyJournalIo").field("plan", &self.plan).finish_non_exhaustive()
    }
}

impl FaultyJournalIo {
    /// Inject `plan` over `inner`.
    pub fn over(inner: Arc<dyn JournalIo>, plan: StorageFaultPlan) -> FaultyJournalIo {
        FaultyJournalIo {
            inner,
            plan,
            progress: Mutex::new(FaultProgress::default()),
            counters: Mutex::new(StorageFaultCounters::default()),
            events: Mutex::new(Vec::new()),
            paths: Mutex::new(HashMap::new()),
        }
    }

    /// Faults fired so far.
    pub fn counters(&self) -> StorageFaultCounters {
        *lock_recover(&self.counters)
    }

    /// Attributable record of every fault fired so far.
    pub fn events(&self) -> Vec<StorageFaultEvent> {
        lock_recover(&self.events).clone()
    }

    fn path_of(&self, file: FileId) -> PathBuf {
        lock_recover(&self.paths).get(&file).cloned().unwrap_or_else(|| PathBuf::from("?"))
    }

    fn fire(&self, kind: StorageFaultKind, op_index: u64, path: PathBuf) {
        let mut counters = lock_recover(&self.counters);
        match kind {
            StorageFaultKind::Enospc => counters.enospc += 1,
            StorageFaultKind::Eio => counters.eio += 1,
            StorageFaultKind::ShortWrite => counters.short_writes += 1,
            StorageFaultKind::LyingFsync => counters.lying_fsyncs += 1,
        }
        lock_recover(&self.events).push(StorageFaultEvent { kind, op_index, path });
    }
}

impl JournalIo for FaultyJournalIo {
    fn create(&self, path: &Path) -> std::io::Result<FileId> {
        let id = self.inner.create(path)?;
        lock_recover(&self.paths).insert(id, path.to_path_buf());
        Ok(id)
    }

    fn append(&self, file: FileId, bytes: &[u8]) -> std::io::Result<()> {
        let idx = {
            let mut p = lock_recover(&self.progress);
            let idx = p.appends;
            p.appends += 1;
            idx
        };
        let path = self.path_of(file);
        if self.plan.enospc.contains(&idx) {
            self.fire(StorageFaultKind::Enospc, idx, path);
            return Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                format!("injected ENOSPC at append {idx}"),
            ));
        }
        if self.plan.eio.contains(&idx) {
            self.fire(StorageFaultKind::Eio, idx, path);
            return Err(std::io::Error::other(format!("injected EIO at append {idx}")));
        }
        if self.plan.short_writes.contains(&idx) && bytes.len() >= 2 {
            let cut =
                1 + (splitmix64(self.plan.seed ^ (0x5403 + idx)) as usize) % (bytes.len() - 1);
            self.fire(StorageFaultKind::ShortWrite, idx, path);
            self.inner.append(file, &bytes[..cut])?;
            return Err(std::io::Error::other(format!(
                "injected short write at append {idx}: {cut} of {} bytes landed",
                bytes.len()
            )));
        }
        self.inner.append(file, bytes)
    }

    fn fsync(&self, file: FileId) -> std::io::Result<()> {
        let idx = {
            let mut p = lock_recover(&self.progress);
            let idx = p.fsyncs;
            p.fsyncs += 1;
            idx
        };
        if self.plan.lying_fsync_from.is_some_and(|from| idx >= from) {
            self.fire(StorageFaultKind::LyingFsync, idx, self.path_of(file));
            return Ok(()); // the lie: success without reaching the substrate
        }
        self.inner.fsync(file)
    }
}

/// Granularity knobs for [`enumerate_crash_states`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Byte granularity at which the last unsynced append may tear
    /// (a torn variant is produced at every multiple below the append's
    /// length). Clamped to at least 1.
    pub torn_granularity: usize,
}

impl Default for CrashPlan {
    fn default() -> Self {
        CrashPlan { torn_granularity: 16 }
    }
}

/// One reachable post-crash filesystem image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashState {
    /// Surviving file content by (recorded) path.
    pub files: BTreeMap<PathBuf, Vec<u8>>,
    /// How this state arises (for triage; not part of state identity).
    pub label: String,
}

impl CrashState {
    /// Write this image under `target_root`, re-rooting every recorded
    /// path from `recorded_root`.
    ///
    /// # Errors
    /// Paths outside `recorded_root`, or filesystem failures.
    pub fn materialize(&self, recorded_root: &Path, target_root: &Path) -> std::io::Result<()> {
        for (path, bytes) in &self.files {
            let rel = path.strip_prefix(recorded_root).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "recorded path {} is outside trace root {}",
                        path.display(),
                        recorded_root.display()
                    ),
                )
            })?;
            let dest = target_root.join(rel);
            if let Some(parent) = dest.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(dest, bytes)?;
        }
        Ok(())
    }
}

/// A simulated filesystem: the durable image plus the appends no fsync
/// has flushed yet, in order.
#[derive(Debug, Default, Clone)]
struct SimFs {
    durable: BTreeMap<PathBuf, Vec<u8>>,
    pending: Vec<(PathBuf, Vec<u8>)>,
}

fn apply_append(map: &mut BTreeMap<PathBuf, Vec<u8>>, path: &Path, bytes: &[u8]) {
    map.entry(path.to_path_buf()).or_default().extend_from_slice(bytes);
}

impl SimFs {
    fn apply(&mut self, op: &JournalOp) {
        match op {
            JournalOp::Create { path } => {
                self.durable.insert(path.clone(), Vec::new());
                self.pending.retain(|(q, _)| q != path);
            }
            JournalOp::Append { path, bytes } => self.pending.push((path.clone(), bytes.clone())),
            JournalOp::Fsync { path } => {
                for (q, bytes) in self.pending.iter().filter(|(q, _)| q == path) {
                    apply_append(&mut self.durable, q, bytes);
                }
                self.pending.retain(|(q, _)| q != path);
            }
        }
    }

    /// The durable image with the first `flushed` pending appends landed.
    fn with_flushed(&self, flushed: usize) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = self.durable.clone();
        for (path, bytes) in &self.pending[..flushed] {
            apply_append(&mut files, path, bytes);
        }
        files
    }
}

/// Enumerate every post-crash filesystem image reachable from a
/// recorded write trace under the module's durability model: at every
/// point in the trace, the durable image plus each in-order prefix of
/// the pending queue, and torn-tail variants of the last flushed append
/// at [`CrashPlan::torn_granularity`]. States are deduplicated by
/// content; labels describe the first way each state arises.
pub fn enumerate_crash_states(ops: &[JournalOp], plan: &CrashPlan) -> Vec<CrashState> {
    let granularity = plan.torn_granularity.max(1);
    let mut seen: BTreeSet<BTreeMap<PathBuf, Vec<u8>>> = BTreeSet::new();
    let mut out: Vec<CrashState> = Vec::new();
    let mut push = |files: BTreeMap<PathBuf, Vec<u8>>, label: String| {
        if seen.insert(files.clone()) {
            out.push(CrashState { files, label });
        }
    };

    let mut sim = SimFs::default();
    for cut in 0..=ops.len() {
        // All in-order flush prefixes of the pending queue.
        for flushed in 0..=sim.pending.len() {
            push(
                sim.with_flushed(flushed),
                format!("crash after op {cut} with {flushed} pending flushed"),
            );
            // Torn variants of the last flushed append.
            if let Some((path, bytes)) = flushed.checked_sub(1).map(|last| &sim.pending[last]) {
                for torn_at in (granularity..bytes.len()).step_by(granularity) {
                    let mut files = sim.with_flushed(flushed - 1);
                    apply_append(&mut files, path, &bytes[..torn_at]);
                    push(
                        files,
                        format!(
                            "crash after op {cut}, append {} torn at byte {torn_at}",
                            flushed - 1
                        ),
                    );
                }
            }
        }
        if cut < ops.len() {
            sim.apply(&ops[cut]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("cds-engine-journal-io-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn recorder_traces_effective_ops_in_order() {
        let dir = scratch("recorder");
        let rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let path = dir.join("j.log");
        let id = rec.create(&path).expect("create");
        rec.append(id, b"hello ").expect("append");
        rec.append(id, b"world\n").expect("append");
        rec.fsync(id).expect("fsync");
        let trace = rec.trace();
        assert_eq!(trace.len(), 4);
        assert!(matches!(&trace[0], JournalOp::Create { path: p } if *p == path));
        assert!(matches!(&trace[2], JournalOp::Append { bytes, .. } if bytes == b"world\n"));
        assert!(matches!(&trace[3], JournalOp::Fsync { path: p } if *p == path));
        assert_eq!(std::fs::read(&path).expect("read back"), b"hello world\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_fire_once_at_their_indices_and_are_attributed() {
        let dir = scratch("faults");
        let rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let plan = StorageFaultPlan::new(7).enospc_at(1).short_write_at(3).lying_fsync_from(1);
        let io = FaultyJournalIo::over(rec.clone(), plan);
        let path = dir.join("j.log");
        let id = io.create(&path).expect("create");
        io.append(id, b"a line that is long enough to tear\n").expect("append 0");
        let err = io.append(id, b"doomed\n").expect_err("append 1 must ENOSPC");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        io.append(id, b"after\n").expect("append 2");
        let err = io.append(id, b"short write victim line\n").expect_err("append 3 torn");
        assert!(err.to_string().contains("short write"), "{err}");
        io.fsync(id).expect("fsync 0 is honest");
        io.fsync(id).expect("fsync 1 lies");
        let counters = io.counters();
        assert_eq!((counters.enospc, counters.short_writes, counters.lying_fsyncs), (1, 1, 1));
        assert_eq!(counters.total(), 3);
        let events = io.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, StorageFaultKind::Enospc);
        assert!(events.iter().all(|e| e.path == path), "{events:?}");
        // The recorder saw only what landed: no ENOSPC'd bytes, a
        // prefix for the short write, and exactly one (honest) fsync.
        let trace = rec.trace();
        let appended: Vec<&[u8]> = trace
            .iter()
            .filter_map(|op| match op {
                JournalOp::Append { bytes, .. } => Some(bytes.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(appended.len(), 3);
        assert!(appended[2].len() < b"short write victim line\n".len());
        assert!(b"short write victim line\n".starts_with(appended[2]));
        let fsyncs = trace.iter().filter(|op| matches!(op, JournalOp::Fsync { .. })).count();
        assert_eq!(fsyncs, 1, "the lying fsync must not reach the recorder");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn enumerator_covers_prefixes_and_torn_tails() {
        let ops = vec![
            JournalOp::Create { path: p("/t/wal") },
            JournalOp::Append { path: p("/t/wal"), bytes: b"abcdefgh".to_vec() },
            JournalOp::Create { path: p("/t/side") },
            JournalOp::Append { path: p("/t/side"), bytes: b"SIDE".to_vec() },
        ];
        let states = enumerate_crash_states(&ops, &CrashPlan { torn_granularity: 4 });
        let has = |want: &[(&str, &[u8])]| {
            let want: BTreeMap<PathBuf, Vec<u8>> =
                want.iter().map(|(k, v)| (p(k), v.to_vec())).collect();
            states.iter().any(|s| s.files == want)
        };
        // Nothing yet / bare created files.
        assert!(has(&[]));
        assert!(has(&[("/t/wal", b"")]));
        // The unsynced journal append as a flushed prefix, and torn.
        assert!(has(&[("/t/wal", b"abcdefgh")]));
        assert!(has(&[("/t/wal", b"abcd")]));
        // Pending appends land in order: the second file's append never
        // lands without the first file's.
        assert!(has(&[("/t/wal", b"abcdefgh"), ("/t/side", b"SIDE")]));
        assert!(!has(&[("/t/wal", b""), ("/t/side", b"SIDE")]));
        // Dedup: every state is unique.
        let mut uniq = BTreeSet::new();
        for s in &states {
            assert!(uniq.insert(s.files.clone()), "duplicate state {}", s.label);
        }
    }

    #[test]
    fn fsync_makes_appends_survive_every_crash_state() {
        let ops = vec![
            JournalOp::Create { path: p("/t/wal") },
            JournalOp::Append { path: p("/t/wal"), bytes: b"line\n".to_vec() },
            JournalOp::Fsync { path: p("/t/wal") },
        ];
        let states = enumerate_crash_states(&ops, &CrashPlan::default());
        // After the fsync (last op), the append is durable in every
        // state enumerated from the final point; the full-content state
        // must exist and no state may hold a torn line *after* sync.
        assert!(states
            .iter()
            .any(|s| s.files.get(&p("/t/wal")).map(Vec::as_slice) == Some(b"line\n".as_slice())));
    }

    #[test]
    fn crash_states_materialize_under_a_new_root() {
        let dir = scratch("materialize");
        let state = CrashState {
            files: BTreeMap::from([
                (p("/t/wal"), b"abc".to_vec()),
                (p("/t/wal.ckpt"), b"xyz".to_vec()),
            ]),
            label: "test".to_string(),
        };
        state.materialize(&p("/t"), &dir).expect("materialize");
        assert_eq!(std::fs::read(dir.join("wal")).expect("wal"), b"abc");
        assert_eq!(std::fs::read(dir.join("wal.ckpt")).expect("ckpt"), b"xyz");
        let foreign = CrashState {
            files: BTreeMap::from([(p("/elsewhere/x"), Vec::new())]),
            label: String::new(),
        };
        assert!(foreign.materialize(&p("/t"), &dir).is_err(), "foreign roots must be rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
