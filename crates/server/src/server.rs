//! The serving core: sharded ingestion, admission, retries, drain.
//!
//! ## Thread topology
//!
//! - one **acceptor** owning the listener; it also runs the drain state
//!   machine,
//! - one **shard worker** per shard, each popping its own ingestion
//!   queue (quotes are homed by `id % shards`),
//! - one **hedger/timer** thread running the hedge and retry schedule,
//! - a reader + writer thread pair per connection.
//!
//! The shard queues and the hedger's timer sender live in the shared
//! `Core`, so every thread reaches them through it; the hedger exits
//! once `shutdown` is set.
//!
//! ## Request life cycle
//!
//! Validate → idempotence check → tenant token bucket → degradation-
//! ladder observation → tenant in-flight quota → per-connection cap →
//! global in-flight cap → per-shard virtual-queue admission (the
//! engine's M/D/1 [`AdmissionControl`] bound, in microseconds) →
//! durable WAL accept → deficit-weighted fair dispatch. `admit` runs
//! these gates and yields either the accepted job or a `Refusal`;
//! `refuse` is the one step that applies a refusal: it bumps the
//! refusal's counter, releases the reservations taken so far and sends
//! the reply. `Client::release` is the one function that undoes a
//! quote's tenant, connection and global in-flight reservations, and
//! `price_and_complete` the one step that prices a quote and answers
//! it, on a shard, in the hedger, or inline on the CPU fallback. A quote
//! is answered, and its reservations released, once: by whichever
//! attempt wins its `done` latch.
//!
//! The hedger launches one hedged attempt to a different shard after
//! 20 ms of silence. A dead shard bounces its quotes: the shard worker
//! schedules the next attempt with the hedger after a jittered
//! exponential backoff (2 ms, then 4 ms), for at most three attempts
//! while the 250 ms deadline budget lasts, and refuses the quote once
//! either runs out. The [`QuoteLedger`] elects exactly one canonical
//! spread per `(tenant, id)` no matter how many attempts race.
//!
//! ## Hostile clients
//!
//! The connection path assumes the peer is adversarial: request lines
//! are read through a bounded accumulator (`max_line_bytes`; overlong
//! lines get one typed `ERR` and the excess is discarded, never
//! buffered), non-UTF-8 lines get a typed `ERR`, writes carry a
//! timeout so a slow consumer cannot pin a responder thread, and an
//! idle reaper closes connections that complete no request line within
//! `idle_timeout` — trickling single bytes (slowloris) does **not**
//! reset that clock.

use crate::fair::FairQueue;
use crate::hedge::{QuoteLedger, RecordOutcome};
use crate::ladder::{DegradationLadder, LadderConfig, LadderTelemetry, Rung};
use crate::lock_recover;
use crate::proto::{
    decode_line, format_response, oversize_error, parse_request, FaultCmd, Priority, QuoteReply,
    QuoteRequest, Request, Response, ShardState, StatsReply, DEFAULT_MAX_LINE_BYTES,
};
use crate::snapshot::{CurveBook, EpochSnapshot};
use crate::tenant::{TenantError, TenantLimits, TenantRegistry, TenantState};
use crate::wal::{read_wal, WalFaultSpec, WalWriter};
use cds_engine::journal::{CorruptionReport, JournalError};
use cds_engine::journal_io::{FaultyJournalIo, JournalIo, OsJournalIo};
use cds_engine::streaming::AdmissionControl;
use cds_quant::option::CdsOption;
use dataflow_sim::fault::splitmix64;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Pricing attempts per quote, the first one included.
const MAX_ATTEMPTS: u32 = 3;
/// Per-quote latency budget, microseconds: generous against CPU pricing
/// times (microseconds) so scheduler noise never trips it.
const DEADLINE_MICROS: u64 = 250_000;
/// Nominal backoff before the second attempt, microseconds.
const BACKOFF_BASE_MICROS: u64 = 2_000;
/// Growth factor of successive backoffs.
const BACKOFF_MULTIPLIER: u64 = 2;
/// Silence after which one hedged attempt races the quote on another
/// shard, microseconds: a dead shard is hedged around quickly.
const HEDGE_AFTER_MICROS: u64 = 20_000;
const _: () = assert!(HEDGE_AFTER_MICROS < DEADLINE_MICROS);
/// Utilisation at which the M/D/1 admission bound is taken.
const TARGET_UTILISATION: f64 = 0.9;
/// Virtual-queue service estimate per quote, microseconds.
const SERVICE_MICROS: u64 = 200;
/// Per-connection in-flight cap: one client cannot occupy the whole
/// global capacity through a single pipelined connection.
const CONN_CAPACITY: u64 = 256;
/// Tenant-registry size bound: hostile `TENANT` binds cannot grow
/// memory past it.
const MAX_TENANTS: usize = 64;
/// Write timeout on accepted streams: a consumer slower than this
/// mid-reply is disconnected instead of pinning the writer thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Nominal backoff before 1-based `attempt`, microseconds: zero before
/// the first, then `BACKOFF_BASE_MICROS · BACKOFF_MULTIPLIER^(attempt−2)`.
fn backoff_micros(attempt: u32) -> u64 {
    match attempt {
        0 | 1 => 0,
        k => BACKOFF_BASE_MICROS.saturating_mul(BACKOFF_MULTIPLIER.saturating_pow(k - 2)),
    }
}

/// Backoff before `attempt`, jittered deterministically into
/// `[½·nominal, nominal]` by hashing the request id and attempt: replays
/// reproduce it, and quotes shed by the same event back off apart.
fn jittered_backoff_micros(attempt: u32, request_id: u64) -> u64 {
    let nominal = backoff_micros(attempt);
    let half = nominal / 2;
    half + splitmix64(request_id ^ (u64::from(attempt) << 48)) % (nominal - half + 1)
}

/// Whether `attempt` may still start `elapsed_micros` into the deadline
/// budget: within the attempt count, and with its backoff fitting what
/// is left of the budget.
fn allows_attempt(attempt: u32, elapsed_micros: u64) -> bool {
    attempt <= MAX_ATTEMPTS
        && DEADLINE_MICROS.saturating_sub(elapsed_micros) > backoff_micros(attempt)
}

/// Server configuration; [`Default`] is a sane local test server. The
/// retry, hedge and deadline schedule, the admission service estimate
/// and utilisation, the per-connection in-flight cap, the write
/// timeout, the tenant-table bound and the default tenant limits are
/// fixed constants, not configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Engine shards (per-core ingestion queues).
    pub shards: usize,
    /// Boot curve epoch seed (`MarketData::paper_workload`).
    pub seed: u64,
    /// In-flight cap: accepted-but-unanswered quotes beyond this shed.
    pub capacity: u64,
    /// Degradation-ladder watermarks.
    pub ladder: LadderConfig,
    /// Write-ahead journal path; `None` serves without durability.
    pub journal: Option<PathBuf>,
    /// Completions per journal fsync: bounds how many journalled
    /// completions a power loss can take.
    pub cadence: u32,
    /// Storage fault to inject into the journal's IO layer (testing
    /// only; requires `journal`). The server runs normally until the
    /// fault fires, then degrades per the fail-stop contract.
    pub wal_fault: Option<WalFaultSpec>,
    /// How long a drain waits for in-flight quotes before checkpointing
    /// the remainder as pending.
    pub drain_deadline: Duration,
    /// Read timeout on accepted streams; doubles as the poll cadence
    /// for the shutdown flag and the idle reaper.
    pub read_timeout: Duration,
    /// Close a connection that completes no request line for this long
    /// (slowloris reaper; byte trickle does not reset it).
    pub idle_timeout: Duration,
    /// Request-line byte cap; longer lines get one typed `ERR` and the
    /// excess is discarded unbuffered.
    pub max_line_bytes: usize,
    /// Boot-time per-tenant limit overrides.
    pub tenant_overrides: Vec<(String, TenantLimits)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            seed: 42,
            capacity: 256,
            ladder: LadderConfig::default(),
            journal: None,
            cadence: 64,
            wal_fault: None,
            drain_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            tenant_overrides: Vec::new(),
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), ServerError> {
        if self.shards == 0 {
            return Err(ServerError::Config("at least one shard is required"));
        }
        if self.capacity == 0 {
            return Err(ServerError::Config("in-flight capacity must be at least 1"));
        }
        if self.cadence == 0 {
            return Err(ServerError::Config("journal fsync cadence must be at least 1"));
        }
        if self.wal_fault.is_some() && self.journal.is_none() {
            return Err(ServerError::Config("--wal-fault requires a journal"));
        }
        self.ladder.validate().map_err(ServerError::Config)?;
        if self.read_timeout.is_zero() {
            return Err(ServerError::Config("read timeout must be positive"));
        }
        if self.idle_timeout.is_zero() {
            return Err(ServerError::Config("idle timeout must be positive"));
        }
        if self.max_line_bytes < 64 {
            return Err(ServerError::Config("max_line_bytes must be at least 64"));
        }
        for (name, limits) in &self.tenant_overrides {
            if !crate::proto::valid_tenant_name(name) {
                return Err(ServerError::Tenant(TenantError::BadName(name.clone())));
            }
            limits.validate().map_err(ServerError::Tenant)?;
        }
        Ok(())
    }
}

/// A serving failure.
#[derive(Debug)]
pub enum ServerError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Invalid configuration, rejected at startup.
    Config(&'static str),
    /// Journal failure.
    Wal(JournalError),
    /// Tenant configuration or registration failure.
    Tenant(TenantError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server io error: {e}"),
            ServerError::Config(reason) => write!(f, "server config error: {reason}"),
            ServerError::Wal(e) => write!(f, "server journal error: {e}"),
            ServerError::Tenant(e) => write!(f, "server tenant error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<JournalError> for ServerError {
    fn from(e: JournalError) -> Self {
        ServerError::Wal(e)
    }
}

impl From<TenantError> for ServerError {
    fn from(e: TenantError) -> Self {
        ServerError::Tenant(e)
    }
}

#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    /// Sheds by gate, in [`admit`]'s order; `STATS` `shed` is their sum.
    shed_ladder: AtomicU64,
    shed_conn: AtomicU64,
    shed_global: AtomicU64,
    shed_queue: AtomicU64,
    rejected: AtomicU64,
    hedges: AtomicU64,
    retries: AtomicU64,
    dedup_hits: AtomicU64,
    deadline_misses: AtomicU64,
    inflight: AtomicU64,
    rung: AtomicU64,
    throttled: AtomicU64,
}

#[derive(Debug, Default)]
struct ShardCtl {
    dead: AtomicBool,
    stall_micros: AtomicU64,
    /// Virtual-queue horizon: the server-relative microsecond at which
    /// this shard would finish everything admitted to it so far.
    free_at_micros: AtomicU64,
}

struct Core {
    config: ServerConfig,
    admission: AdmissionControl,
    book: CurveBook,
    ledger: QuoteLedger,
    stats: Stats,
    ladder: Mutex<DegradationLadder>,
    shards: Vec<ShardCtl>,
    /// Each shard's ingestion queue, indexed like `shards`.
    queues: Vec<FairQueue<Job>>,
    /// The hedger's inbox: an action and the instant it falls due.
    timer: Sender<(Instant, Action)>,
    tenants: TenantRegistry,
    wal: Option<WalWriter>,
    wal_degraded: AtomicBool,
    next_seq: AtomicU32,
    draining: AtomicBool,
    shutdown: AtomicBool,
    started: Instant,
}

impl Core {
    fn now_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn dead_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.dead.load(Ordering::Relaxed)).count()
    }

    /// The shard a quote id is homed on.
    fn home(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Queue `job` on `shard`, charged to its tenant's fair share.
    fn dispatch(&self, shard: usize, job: Job) {
        let (slot, weight) = (job.client.tenant.slot, job.client.tenant.limits.weight);
        self.queues[shard].push(slot, weight, job);
    }

    fn telemetry(&self) -> LadderTelemetry {
        LadderTelemetry {
            queue_depth: self.stats.inflight.load(Ordering::Relaxed),
            queue_capacity: self.config.capacity,
            shards_dead: self.dead_shards(),
            shards_total: self.shards.len(),
            wal_degraded: self.wal_degraded.load(Ordering::Relaxed),
        }
    }

    /// Record that the journal hit a storage failure: the `wal-degraded`
    /// observation is sticky and drives the ladder to reject — the
    /// server keeps serving already-accepted work but refuses new
    /// quotes it can no longer journal.
    fn note_wal_degraded(&self, context: &str, e: &JournalError) {
        if !self.wal_degraded.swap(true, Ordering::Relaxed) {
            eprintln!("cds-server: journal degraded ({context}): {e}");
        }
    }

    fn rung(&self) -> Rung {
        Rung::from_index(self.stats.rung.load(Ordering::Relaxed) as usize)
    }

    /// Per-shard virtual-queue admission (the M/D/1 bound, in µs).
    fn admit_virtual(&self, shard: usize) -> bool {
        let now = self.now_micros();
        let ctl = &self.shards[shard];
        loop {
            let free = ctl.free_at_micros.load(Ordering::Relaxed);
            if free.saturating_sub(now) > self.admission.max_queue_cycles {
                return false;
            }
            let new_free = free.max(now) + self.admission.service_cycles_per_option;
            if ctl
                .free_at_micros
                .compare_exchange(free, new_free, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Durably accept a quote, allocating its journal sequence number.
    fn accept_seq(
        &self,
        id: u64,
        option: &CdsOption,
        priority: Priority,
    ) -> Result<u32, JournalError> {
        match &self.wal {
            Some(wal) => match wal.accept(id, option, priority) {
                Ok(seq) => {
                    self.next_seq.store(seq + 1, Ordering::Relaxed);
                    Ok(seq)
                }
                Err(e) => {
                    self.note_wal_degraded("accept", &e);
                    Err(e)
                }
            },
            None => Ok(self.next_seq.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Apply a `FAULT` command to its shard.
    fn fault(&self, cmd: FaultCmd) -> Response {
        let (FaultCmd::Kill { shard } | FaultCmd::Revive { shard } | FaultCmd::Stall { shard, .. }) =
            cmd;
        let Some(ctl) = self.shards.get(shard) else {
            let reason = format!("no such shard {shard} (have {})", self.shards.len());
            return Response::Error { id: None, reason };
        };
        match cmd {
            FaultCmd::Kill { .. } => ctl.dead.store(true, Ordering::SeqCst),
            FaultCmd::Revive { .. } => ctl.dead.store(false, Ordering::SeqCst),
            FaultCmd::Stall { millis, .. } => {
                ctl.stall_micros.store(millis * 1000, Ordering::SeqCst)
            }
        }
        let state = if ctl.dead.load(Ordering::Relaxed) {
            ShardState::Dead
        } else if ctl.stall_micros.load(Ordering::Relaxed) > 0 {
            ShardState::Stalled
        } else {
            ShardState::Live
        };
        Response::FaultAck { shard, state }
    }

    fn stats_reply(&self) -> StatsReply {
        let s = &self.stats;
        let sheds @ [shed_ladder, shed_conn, shed_global, shed_queue] =
            [&s.shed_ladder, &s.shed_conn, &s.shed_global, &s.shed_queue]
                .map(|c| c.load(Ordering::Relaxed));
        StatsReply {
            rung: self.rung().index() as u8,
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            shed: sheds.iter().sum(),
            shed_ladder,
            shed_conn,
            shed_global,
            shed_queue,
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            hedges: self.stats.hedges.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            dedup_hits: self.stats.dedup_hits.load(Ordering::Relaxed)
                + self.ledger.duplicates_suppressed(),
            deadline_misses: self.stats.deadline_misses.load(Ordering::Relaxed),
            inflight: self.stats.inflight.load(Ordering::Relaxed),
            dead_shards: self.dead_shards() as u64,
            shards: self.shards.len() as u64,
            epoch: self.book.epoch(),
            draining: self.draining.load(Ordering::Relaxed),
            throttled: self.stats.throttled.load(Ordering::Relaxed),
            tenants: self.tenants.len() as u64,
        }
    }

    fn drain_summary(&self) -> DrainSummary {
        DrainSummary {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            pending: self.stats.inflight.load(Ordering::SeqCst),
        }
    }
}

/// Who a quote answers to: its connection's bound tenant, in-flight
/// counter and response channel. A job keeps the ones it was admitted
/// under.
#[derive(Clone)]
struct Client {
    tenant: Arc<TenantState>,
    inflight: Arc<AtomicU64>,
    resp: Sender<String>,
}

impl Client {
    fn reply(&self, response: &Response) {
        let _ = self.resp.send(format_response(response));
    }

    /// Undo the in-flight reservations a quote `held`: the one place
    /// the tenant, connection and global reservations are released.
    fn release(&self, core: &Core, held: Held) {
        if held == Held::All {
            core.stats.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        if held != Held::Nothing {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.tenant.release_inflight();
        }
    }
}

/// The in-flight reservations a quote holds. Admission takes the tenant
/// quota and the connection cap, then the global cap.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Held {
    Nothing,
    TenantAndConn,
    All,
}

/// A quote answered without being priced: the `STATS` counter it
/// bumps, the reservations it holds, and its reply line.
struct Refusal<'c> {
    counter: Option<&'c AtomicU64>,
    held: Held,
    line: String,
}

impl<'c> Refusal<'c> {
    fn new(counter: Option<&'c AtomicU64>, held: Held, reply: &Response) -> Self {
        Refusal { counter, held, line: format_response(reply) }
    }
}

/// The refusal step: count the refusal, release what it held, reply.
fn refuse(core: &Core, client: &Client, refusal: Refusal<'_>) {
    if let Some(counter) = refusal.counter {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    client.release(core, refusal.held);
    let _ = client.resp.send(refusal.line);
}

/// One in-flight quote attempt; hedges and retries clone it, sharing
/// the `done` latch, the hedge flag, and the client's reservations
/// (released exactly once, by whoever wins the latch).
#[derive(Clone)]
struct Job {
    seq: u32,
    id: u64,
    option: CdsOption,
    accepted_at: Instant,
    attempt: u32,
    hedge_launched: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    client: Client,
}

/// What the hedger does when an entry falls due.
enum Action {
    /// Race one hedged attempt on another shard.
    Hedge(Job),
    /// Re-dispatch a bounced quote to a live shard other than `avoid`.
    Retry { job: Job, avoid: usize },
}

/// The pricing step: price `job` at the newest epoch on `shard` (`None`
/// when priced inline), elect its canonical spread, and, if this
/// attempt wins the `done` latch, journal, count, release and reply.
fn price_and_complete(
    core: &Core,
    job: &Job,
    cached: &mut Arc<EpochSnapshot>,
    shard: Option<usize>,
) {
    core.book.refresh(cached);
    let spread = cached.engine.price(&job.option).spread_bps;
    let (canonical, from_ledger) =
        match core.ledger.record(job.client.tenant.slot as u64, job.id, spread) {
            RecordOutcome::First => (spread, false),
            RecordOutcome::Duplicate { spread } => {
                core.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                (spread, true)
            }
        };
    if !job.done.swap(true, Ordering::SeqCst) {
        if let Some(wal) = &core.wal {
            if let Err(e) = wal.done(job.seq, canonical) {
                core.note_wal_degraded("completion", &e);
            }
        }
        core.stats.completed.fetch_add(1, Ordering::Relaxed);
        job.client.release(core, Held::All);
        job.client.reply(&Response::Quote(QuoteReply {
            id: job.id,
            spread_bps: canonical,
            epoch: cached.epoch,
            shard,
            attempts: job.attempt,
            hedged: job.hedge_launched.load(Ordering::Relaxed),
            cached: from_ledger,
        }));
    }
}

/// A dead `shard` bounces `job`: schedule its next attempt elsewhere
/// after a jittered backoff, or refuse it once the attempt count or the
/// deadline budget is spent.
fn retry(core: &Core, mut job: Job, shard: usize) {
    let attempt = job.attempt + 1;
    if allows_attempt(attempt, job.accepted_at.elapsed().as_micros() as u64) {
        core.stats.retries.fetch_add(1, Ordering::Relaxed);
        job.attempt = attempt;
        let due = Instant::now() + Duration::from_micros(jittered_backoff_micros(attempt, job.id));
        let _ = core.timer.send((due, Action::Retry { job, avoid: shard }));
    } else if !job.done.swap(true, Ordering::SeqCst) {
        let reply =
            Response::Error { id: Some(job.id), reason: "deadline budget exhausted".to_string() };
        let counter = Some(&core.stats.deadline_misses);
        refuse(core, &job.client, Refusal::new(counter, Held::All, &reply));
    }
}

/// Next live shard at or after `start`, skipping `avoid`; `None` when
/// every shard is dead.
fn next_live(core: &Core, start: usize, avoid: Option<usize>) -> Option<usize> {
    let n = core.shards.len();
    (0..n)
        .map(|i| (start + i) % n)
        .find(|&k| Some(k) != avoid && !core.shards[k].dead.load(Ordering::Relaxed))
        .or_else(|| {
            // Nothing but `avoid` left alive? It is better than nothing.
            avoid.filter(|&k| !core.shards[k].dead.load(Ordering::Relaxed))
        })
}

fn shard_worker(core: Arc<Core>, k: usize) {
    let mut cached: Arc<EpochSnapshot> = core.book.current();
    let queue = &core.queues[k];
    loop {
        match queue.pop_timeout(Duration::from_millis(50)) {
            Some(job) => {
                if core.shutdown.load(Ordering::Relaxed) {
                    // The drain deadline already passed: this quote is
                    // durably journalled as pending; a resume finishes it.
                    continue;
                }
                if job.done.load(Ordering::SeqCst) {
                    continue; // another attempt already answered
                }
                let stall = core.shards[k].stall_micros.load(Ordering::Relaxed);
                if stall > 0 {
                    thread::sleep(Duration::from_micros(stall));
                }
                if core.shards[k].dead.load(Ordering::Relaxed) {
                    retry(&core, job, k);
                } else {
                    price_and_complete(&core, &job, &mut cached, Some(k));
                }
            }
            None => {
                if core.shutdown.load(Ordering::Relaxed) {
                    // Release anything still queued (journalled as
                    // pending) so held response senders drop.
                    queue.clear();
                    break;
                }
            }
        }
    }
}

fn hedger(core: Arc<Core>, inbox: Receiver<(Instant, Action)>) {
    let mut cached: Arc<EpochSnapshot> = core.book.current();
    // Keyed by due instant, then arrival: entries due together fire in
    // the order they came.
    let mut due: BTreeMap<(Instant, u64), Action> = BTreeMap::new();
    let mut arrivals = 0u64;
    // Anything still scheduled at shutdown is a pending quote the drain
    // deadline already gave up on; it lives on in the journal, not here.
    while !core.shutdown.load(Ordering::Relaxed) {
        let now = Instant::now();
        while due.first_key_value().is_some_and(|(&(at, _), _)| at <= now) {
            let Some((_, action)) = due.pop_first() else { break };
            match action {
                Action::Hedge(job) | Action::Retry { job, .. }
                    if job.done.load(Ordering::SeqCst) => {}
                Action::Hedge(mut job) => {
                    let home = core.home(job.id);
                    // Hedge only to a *different* live shard.
                    if let Some(target) = next_live(&core, home + 1, Some(home)) {
                        core.stats.hedges.fetch_add(1, Ordering::Relaxed);
                        job.hedge_launched.store(true, Ordering::Relaxed);
                        job.attempt += 1;
                        core.dispatch(target, job);
                    }
                }
                Action::Retry { job, avoid } => match next_live(&core, avoid + 1, Some(avoid)) {
                    Some(target) => core.dispatch(target, job),
                    // Every shard is dead: price inline on the CPU path,
                    // which is bit-identical and cannot die with the shards.
                    None => price_and_complete(&core, &job, &mut cached, None),
                },
            }
        }
        let wait = due
            .first_key_value()
            .map_or(Duration::from_millis(50), |(&(at, _), _)| {
                at.saturating_duration_since(Instant::now())
            })
            .clamp(Duration::from_millis(1), Duration::from_millis(50));
        if let Ok((at, action)) = inbox.recv_timeout(wait) {
            arrivals += 1;
            due.insert((at, arrivals), action);
        }
    }
}

/// Per-connection request state: who its quotes answer to, and the
/// curve snapshot it prices inline with.
struct Conn {
    client: Client,
    cached: Arc<EpochSnapshot>,
}

/// Run a quote through the admission gates in order. `Ok` is the
/// durably accepted job and the ladder rung it was admitted at; `Err`
/// is the refusal of the first gate that stopped it.
fn admit<'c>(
    core: &'c Core,
    client: &Client,
    q: &QuoteRequest,
) -> Result<(Job, Rung), Refusal<'c>> {
    let stats = &core.stats;
    if core.draining.load(Ordering::Relaxed) {
        let retry_after_ms = core.config.drain_deadline.as_millis() as u64;
        let reply = Response::Reject { id: q.id, retry_after_ms, rung: core.rung() };
        return Err(Refusal::new(Some(&stats.rejected), Held::Nothing, &reply));
    }
    let option = CdsOption::validated(q.maturity, q.frequency, q.recovery).map_err(|e| {
        let reply = Response::Error { id: Some(q.id), reason: format!("invalid quote: {e}") };
        Refusal::new(None, Held::Nothing, &reply)
    })?;
    let tenant = &client.tenant;
    // Idempotent duplicate of an already answered id (within this
    // tenant's id space): serve from the ledger without re-pricing,
    // re-journalling, or charging the token bucket.
    if let Some(spread_bps) = core.ledger.get(tenant.slot as u64, q.id) {
        let reply = Response::Quote(QuoteReply {
            id: q.id,
            spread_bps,
            epoch: core.book.epoch(),
            shard: None,
            attempts: 0,
            hedged: false,
            cached: true,
        });
        return Err(Refusal::new(Some(&stats.dedup_hits), Held::Nothing, &reply));
    }
    let throttle = |retry_after_ms| {
        let reply = Response::Throttle { id: q.id, retry_after_ms, tenant: tenant.name.clone() };
        Refusal::new(Some(&stats.throttled), Held::Nothing, &reply)
    };
    // Tenant token bucket, before the ladder sees the quote: throttled
    // traffic never becomes queue pressure for other tenants.
    tenant.try_take_token(core.now_micros()).map_err(throttle)?;
    // One ladder observation per quote decision.
    let rung = lock_recover(&core.ladder).observe(&core.telemetry());
    stats.rung.store(rung.index() as u64, Ordering::Relaxed);
    // Client back-off hint: the admission bound expressed in ms.
    let retry_after_ms = (core.admission.max_queue_cycles / 1000).max(1);
    if rung == Rung::RejectRetryAfter {
        let reply = Response::Reject { id: q.id, retry_after_ms, rung };
        return Err(Refusal::new(Some(&stats.rejected), Held::Nothing, &reply));
    }
    let shed = |counter, held| {
        Refusal::new(Some(counter), held, &Response::Shed { id: q.id, retry_after_ms, rung })
    };
    if rung >= Rung::ShedLowPriority && q.priority == Priority::Low {
        return Err(shed(&stats.shed_ladder, Held::Nothing));
    }
    // Tenant in-flight quota: the bulkhead that keeps one tenant from
    // occupying the shared capacity below.
    tenant.try_reserve_inflight().map_err(throttle)?;
    // Per-connection in-flight cap (a single pipelined connection
    // cannot occupy the whole global capacity).
    if client.inflight.fetch_add(1, Ordering::SeqCst) >= CONN_CAPACITY {
        return Err(shed(&stats.shed_conn, Held::TenantAndConn));
    }
    // A global in-flight slot (slow-consumer / overload bound), then the
    // home shard's virtual queue.
    if stats.inflight.fetch_add(1, Ordering::SeqCst) >= core.config.capacity {
        return Err(shed(&stats.shed_global, Held::All));
    }
    if !core.admit_virtual(core.home(q.id)) {
        return Err(shed(&stats.shed_queue, Held::All));
    }
    // Write-ahead: the acceptance is durable before any dispatch.
    let seq = core.accept_seq(q.id, &option, q.priority).map_err(|e| {
        let reply = Response::Error { id: Some(q.id), reason: format!("journal: {e}") };
        Refusal::new(None, Held::All, &reply)
    })?;
    stats.accepted.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        seq,
        id: q.id,
        option,
        accepted_at: Instant::now(),
        attempt: 1,
        hedge_launched: Arc::new(AtomicBool::new(false)),
        done: Arc::new(AtomicBool::new(false)),
        client: client.clone(),
    };
    Ok((job, rung))
}

fn handle_quote(core: &Core, conn: &mut Conn, q: &QuoteRequest) {
    match admit(core, &conn.client, q) {
        Err(refusal) => refuse(core, &conn.client, refusal),
        // CPU fallback: price inline, bit-identical to the shard path.
        Ok((job, rung)) if rung >= Rung::CpuFallback || core.dead_shards() == core.shards.len() => {
            price_and_complete(core, &job, &mut conn.cached, None);
        }
        Ok((job, _)) => {
            core.dispatch(core.home(job.id), job.clone());
            let hedge_at = job.accepted_at + Duration::from_micros(HEDGE_AFTER_MICROS);
            let _ = core.timer.send((hedge_at, Action::Hedge(job)));
        }
    }
}

fn handle_request(core: &Core, conn: &mut Conn, line: &str) {
    let reply = match parse_request(line) {
        Err(e) => Response::Error { id: None, reason: e.reason },
        Ok(Request::Quote(q)) => return handle_quote(core, conn, &q),
        Ok(Request::Ping) => Response::Pong,
        Ok(Request::Stats) => Response::Stats(core.stats_reply()),
        Ok(Request::Drain) => {
            core.draining.store(true, Ordering::SeqCst);
            Response::DrainAck
        }
        Ok(Request::Tenant { name }) => match core.tenants.bind(&name, core.now_micros()) {
            Ok(tenant) => {
                conn.client.tenant = tenant;
                Response::TenantAck { name }
            }
            Err(e) => Response::Error { id: None, reason: e.to_string() },
        },
        Ok(Request::Tick { seed }) => Response::TickAck { epoch: core.book.publish(seed) },
        Ok(Request::TickPoint { curve, knot, value }) => {
            match core.book.publish_point(curve, knot, value) {
                Ok((epoch, zero_delta)) => Response::TickPointAck { epoch, zero_delta },
                Err(reason) => Response::Error { id: None, reason },
            }
        }
        Ok(Request::Fault(cmd)) => core.fault(cmd),
    };
    conn.client.reply(&reply);
}

/// Decode and dispatch one complete raw request line. Non-UTF-8 bytes
/// get a typed `ERR`; blank lines are skipped silently (no reply owed).
fn process_line(core: &Core, conn: &mut Conn, bytes: &[u8]) {
    match decode_line(bytes) {
        Err(e) => conn.client.reply(&Response::Error { id: None, reason: e.reason }),
        Ok(s) => {
            let line = s.trim();
            if !line.is_empty() {
                handle_request(core, conn, line);
            }
        }
    }
}

fn handle_conn(core: Arc<Core>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let _ = stream.set_read_timeout(Some(core.config.read_timeout));
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
    let (resp_tx, resp_rx) = channel::<String>();
    let writer = thread::spawn(move || {
        let mut out = write_half;
        for line in resp_rx {
            // A write timeout fires mid-line on a stalled consumer;
            // framing is unrecoverable past that point, so the
            // connection is shut down rather than resynchronised.
            if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                break;
            }
            let _ = out.flush();
        }
        let _ = out.shutdown(std::net::Shutdown::Both);
    });
    let mut conn = Conn {
        client: Client {
            tenant: core.tenants.default_tenant(),
            inflight: Arc::new(AtomicU64::new(0)),
            resp: resp_tx,
        },
        cached: core.book.current(),
    };
    let max_line = core.config.max_line_bytes;
    let mut input = stream;
    let mut chunk = vec![0u8; 4096];
    // The bounded line accumulator: never grows past `max_line` bytes,
    // no matter what the peer sends.
    let mut acc: Vec<u8> = Vec::new();
    // True while discarding the tail of an oversized line (its single
    // ERR was already sent at the moment the cap was crossed).
    let mut discarding = false;
    // Last *completed* request line; byte trickle does not touch this,
    // which is exactly what defeats slowloris.
    let mut last_line = Instant::now();
    loop {
        if core.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let n = match input.read(&mut chunk) {
            Ok(0) => {
                // EOF without a trailing newline: serve the bounded
                // partial line, then close.
                if !discarding && !acc.is_empty() {
                    process_line(&core, &mut conn, &acc);
                }
                break;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if last_line.elapsed() >= core.config.idle_timeout {
                    // Idle/slowloris reaper: no complete line for a
                    // whole idle window — say why, then hang up.
                    conn.client.reply(&Response::Error {
                        id: None,
                        reason: format!(
                            "idle timeout: no complete request line in {}ms",
                            core.config.idle_timeout.as_millis()
                        ),
                    });
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let mut rest = &chunk[..n];
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            if discarding {
                // Tail of an oversized line; its ERR is already sent.
                discarding = false;
            } else if acc.len() + head.len() > max_line {
                conn.client
                    .reply(&Response::Error { id: None, reason: oversize_error(max_line).reason });
            } else {
                acc.extend_from_slice(head);
                process_line(&core, &mut conn, &acc);
            }
            acc.clear();
            last_line = Instant::now();
        }
        if !discarding && !rest.is_empty() {
            if acc.len() + rest.len() > max_line {
                // Cap crossed mid-line: one ERR now, then discard until
                // the newline finally shows up.
                conn.client
                    .reply(&Response::Error { id: None, reason: oversize_error(max_line).reason });
                acc.clear();
                discarding = true;
            } else {
                acc.extend_from_slice(rest);
            }
        }
    }
    drop(conn);
    // The writer drains any remaining in-flight responses for jobs that
    // still hold clones of the sender; it exits when the last clone drops.
    let _ = writer.join();
}

/// What a drained server ends with.
#[derive(Debug)]
pub struct DrainSummary {
    /// Quotes durably accepted over the server's lifetime.
    pub accepted: u64,
    /// Quotes completed (canonical spread elected and journalled).
    pub completed: u64,
    /// Accepted quotes still pending when the drain deadline expired;
    /// recoverable from the journal.
    pub pending: u64,
}

fn acceptor(core: Arc<Core>, listener: TcpListener) -> DrainSummary {
    let _ = listener.set_nonblocking(true);
    while !core.draining.load(Ordering::Relaxed) && !core.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Quote lines are tiny; Nagle + delayed ACK would add
                // ~40ms to every reply on the wire.
                let _ = stream.set_nodelay(true);
                let core = core.clone();
                thread::spawn(move || handle_conn(core, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    // Drain: stop admitting (readers reject while `draining`), wait for
    // the in-flight quotes to finish or the deadline to expire.
    let deadline = Instant::now() + core.config.drain_deadline;
    while core.stats.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    if let Some(wal) = &core.wal {
        if let Err(e) = wal.finalize() {
            core.note_wal_degraded("drain finalize", &e);
            eprintln!(
                "cds-server: drain commit failed: {e}; the durable journal prefix remains \
                 resumable"
            );
        }
    }
    core.shutdown.store(true, Ordering::SeqCst);
    core.drain_summary()
}

/// A running server; drop does **not** stop it — call
/// [`ServerHandle::drain`] then [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<Core>,
    acceptor: JoinHandle<DrainSummary>,
    workers: Vec<JoinHandle<()>>,
    hedger: JoinHandle<()>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain (idempotent; also triggered by the
    /// protocol `DRAIN` command and, in the binary, by `SIGTERM`).
    pub fn drain(&self) {
        self.core.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain is in progress or finished.
    pub fn is_draining(&self) -> bool {
        self.core.draining.load(Ordering::Relaxed)
    }

    /// Current telemetry snapshot.
    pub fn stats(&self) -> StatsReply {
        self.core.stats_reply()
    }

    /// Block until the server drains and every service thread exits.
    pub fn wait(self) -> DrainSummary {
        let summary = self.acceptor.join().unwrap_or_else(|_| self.core.drain_summary());
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.hedger.join();
        summary
    }
}

/// Start a server. Returns once the listener is bound and every service
/// thread is running.
///
/// # Errors
/// Configuration, journal-creation, and socket-bind failures.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    config.validate()?;
    let ladder = DegradationLadder::new(config.ladder).map_err(ServerError::Config)?;
    let wal = match &config.journal {
        Some(path) => {
            let io: Arc<dyn JournalIo> = match config.wal_fault {
                Some(spec) => Arc::new(FaultyJournalIo::over(
                    Arc::new(OsJournalIo::new()),
                    spec.plan(config.seed),
                )),
                None => Arc::new(OsJournalIo::new()),
            };
            Some(WalWriter::create_with_io(io, path, config.seed, config.cadence)?)
        }
        None => None,
    };
    let admission = AdmissionControl::from_md1(SERVICE_MICROS, TARGET_UTILISATION);
    let book = CurveBook::new(config.seed);
    let shards: Vec<ShardCtl> = (0..config.shards).map(|_| ShardCtl::default()).collect();
    let queues: Vec<FairQueue<Job>> = (0..config.shards).map(|_| FairQueue::default()).collect();
    let (timer, inbox) = channel();
    // The registry pre-registers `default` plus every configured
    // override; buckets start full at server-relative time zero.
    let tenants = TenantRegistry::new(TenantLimits::default(), MAX_TENANTS, 0)?;
    for (name, limits) in &config.tenant_overrides {
        tenants.register(name, *limits, 0)?;
    }
    let core = Arc::new(Core {
        admission,
        book,
        ledger: QuoteLedger::new(),
        stats: Stats::default(),
        ladder: Mutex::new(ladder),
        shards,
        queues,
        timer,
        tenants,
        wal,
        wal_degraded: AtomicBool::new(false),
        next_seq: AtomicU32::new(0),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        config,
    });

    let workers = (0..core.config.shards)
        .map(|k| {
            let core = core.clone();
            thread::spawn(move || shard_worker(core, k))
        })
        .collect();
    let hedger_handle = {
        let core = core.clone();
        thread::spawn(move || hedger(core, inbox))
    };

    let listener = TcpListener::bind(&core.config.addr)?;
    let addr = listener.local_addr()?;
    let acceptor_handle = {
        let core = core.clone();
        thread::spawn(move || acceptor(core, listener))
    };

    Ok(ServerHandle { addr, core, acceptor: acceptor_handle, workers, hedger: hedger_handle })
}

/// The merged outcome of a journal resume: every accepted quote's
/// canonical spread, completed ones straight from the journal
/// (bit-exact) and pending ones repriced deterministically under the
/// journal's boot epoch seed.
#[derive(Debug)]
pub struct ResumeReport {
    /// `(seq, request id, spread, was_repriced)` in sequence order.
    pub spreads: Vec<(u32, u64, f64, bool)>,
    /// Whether the journal carried a terminal drain record.
    pub drained: bool,
    /// How many quotes had to be repriced.
    pub repriced: usize,
}

/// Finish a journal's pending work without a server: reprice every
/// accepted-but-incomplete quote on the deterministic CPU engine at the
/// journal's boot seed.
///
/// Resume prices under the **boot epoch**; a workload that interleaved
/// `TICK`s must replay them before comparing (the server-chaos drain
/// scenario therefore runs tick-free).
///
/// # Errors
/// Journal read/corruption failures, or a record whose parameters no
/// longer validate.
pub fn resume_journal(path: &std::path::Path) -> Result<ResumeReport, ServerError> {
    let state = read_wal(path)?;
    let market = cds_quant::option::MarketData::paper_workload(state.seed);
    let engine = cds_cpu::engine::CpuCdsEngine::new(&market);
    let mut spreads = Vec::with_capacity(state.accepted.len());
    let mut repriced = 0usize;
    for rec in &state.accepted {
        match state.done.get(&rec.seq) {
            Some(&spread) => spreads.push((rec.seq, rec.id, spread, false)),
            None => {
                let option = rec.option().map_err(|e| {
                    ServerError::Wal(JournalError::Corrupt(CorruptionReport {
                        file: path.to_path_buf(),
                        offset: 0,
                        line: None,
                        cause: format!("journalled quote seq {} no longer validates: {e}", rec.seq),
                    }))
                })?;
                spreads.push((rec.seq, rec.id, engine.price(&option).spread_bps, true));
                repriced += 1;
            }
        }
    }
    Ok(ResumeReport { spreads, drained: state.drained, repriced })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_from_the_base() {
        assert_eq!(backoff_micros(1), 0);
        assert_eq!(backoff_micros(2), 2_000);
        assert_eq!(backoff_micros(3), 4_000);
        // Saturation, not overflow, at absurd attempt counts.
        assert_eq!(backoff_micros(10_000), u64::MAX);
    }

    #[test]
    fn jitter_is_pinned_deterministic_and_bounded() {
        // Literals of the `splitmix64(id ^ (attempt << 48))` keying: a
        // changed key or base moves them.
        let pinned = [(2, [1_756, 1_743, 1_236, 1_342]), (3, [2_625, 3_317, 2_336, 3_333])];
        for (attempt, want) in pinned {
            let nominal = backoff_micros(attempt);
            for (id, want) in [0u64, 1, 42, u64::MAX].into_iter().zip(want) {
                let j = jittered_backoff_micros(attempt, id);
                assert_eq!(j, want, "attempt {attempt} id {id}");
                assert!(j >= nominal / 2 && j <= nominal, "jitter {j} outside [½, 1]·{nominal}");
            }
        }
        assert_eq!(jittered_backoff_micros(1, 42), 0, "no backoff before the first attempt");
        let js: std::collections::BTreeSet<u64> =
            (0..32).map(|id| jittered_backoff_micros(2, id)).collect();
        assert!(js.len() > 1, "jitter must vary with the request id");
    }

    #[test]
    fn attempts_are_gated_by_count_and_budget() {
        assert!(allows_attempt(1, 0));
        assert!(allows_attempt(MAX_ATTEMPTS, 0));
        assert!(!allows_attempt(4, 0), "beyond the attempt count");
        // The backoff must fit strictly inside what is left of the budget.
        assert!(allows_attempt(2, DEADLINE_MICROS - 2_001));
        assert!(!allows_attempt(2, DEADLINE_MICROS - 2_000), "backoff no longer fits");
        assert!(allows_attempt(3, DEADLINE_MICROS - 4_001));
        assert!(!allows_attempt(3, DEADLINE_MICROS - 4_000), "backoff no longer fits");
        assert!(allows_attempt(1, DEADLINE_MICROS - 1));
        assert!(!allows_attempt(1, DEADLINE_MICROS), "budget spent");
        assert!(!allows_attempt(1, 2 * DEADLINE_MICROS), "budget overspent");
    }
}
