//! The serving core: sharded ingestion, admission, retries, drain.
//!
//! ## Thread topology
//!
//! - one **acceptor** owning the listener; it also runs the drain state
//!   machine,
//! - one **shard worker** per shard, each owning the receiving end of
//!   its ingestion queue (quotes are homed by `id % shards`),
//! - one **hedger/timer** thread running the deadline-aware retry and
//!   hedging schedule,
//! - a reader + writer thread pair per connection.
//!
//! ## Request life cycle
//!
//! Validate → idempotence check → tenant token bucket → degradation-
//! ladder observation → tenant in-flight quota → per-connection cap →
//! global in-flight cap → per-shard virtual-queue admission (the
//! engine's M/D/1 [`AdmissionControl`] bound, in microseconds) →
//! durable WAL accept → deficit-weighted fair dispatch. The hedger
//! launches one hedged attempt to a different shard after
//! [`RetryPolicy::hedge_after_micros`] of silence; a dead shard bounces
//! its quotes back to the hedger, which re-dispatches with jittered
//! exponential backoff while the deadline budget lasts. The
//! [`QuoteLedger`] elects exactly one canonical spread per
//! `(tenant, id)` no matter how many attempts race.
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
use crate::tenant::{TenantError, TenantLimits, TenantRegistry, TenantState, DEFAULT_MAX_TENANTS};
use crate::wal::{read_wal, WalFaultSpec, WalWriter};
use cds_engine::journal::{CorruptionReport, JournalError};
use cds_engine::journal_io::{FaultyJournalIo, JournalIo, OsJournalIo};
use cds_engine::retry::RetryPolicy;
use cds_engine::streaming::AdmissionControl;
use cds_quant::option::CdsOption;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration; [`Default`] is a sane local test server.
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
    /// Virtual-queue service estimate per quote, microseconds.
    pub service_micros: u64,
    /// Target utilisation for the M/D/1 admission bound.
    pub target_utilisation: f64,
    /// Deadline/backoff/hedge policy (shared with the engine layer).
    pub retry: RetryPolicy,
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
    /// Write timeout on accepted streams; a consumer slower than this
    /// mid-reply is disconnected instead of pinning the writer thread.
    pub write_timeout: Duration,
    /// Close a connection that completes no request line for this long
    /// (slowloris reaper; byte trickle does not reset it).
    pub idle_timeout: Duration,
    /// Request-line byte cap; longer lines get one typed `ERR` and the
    /// excess is discarded unbuffered.
    pub max_line_bytes: usize,
    /// Per-connection in-flight cap (one client cannot occupy the whole
    /// global capacity through a single pipelined connection).
    pub conn_capacity: u64,
    /// Limits for `default` and self-registered tenants.
    pub tenant_defaults: TenantLimits,
    /// Boot-time per-tenant limit overrides.
    pub tenant_overrides: Vec<(String, TenantLimits)>,
    /// Tenant-registry size bound (hostile `TENANT` binds cannot grow
    /// memory past it).
    pub max_tenants: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            seed: 42,
            capacity: 256,
            service_micros: 200,
            target_utilisation: 0.9,
            retry: RetryPolicy::server_default(),
            ladder: LadderConfig::default(),
            journal: None,
            cadence: 64,
            wal_fault: None,
            drain_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            conn_capacity: 256,
            tenant_defaults: TenantLimits::default(),
            tenant_overrides: Vec::new(),
            max_tenants: DEFAULT_MAX_TENANTS,
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
        if self.service_micros == 0 {
            return Err(ServerError::Config("service estimate must be positive"));
        }
        if !(self.target_utilisation > 0.0 && self.target_utilisation < 1.0) {
            return Err(ServerError::Config("target utilisation must be in (0, 1)"));
        }
        if self.cadence == 0 {
            return Err(ServerError::Config("journal fsync cadence must be at least 1"));
        }
        if self.wal_fault.is_some() && self.journal.is_none() {
            return Err(ServerError::Config("--wal-fault requires a journal"));
        }
        self.retry.validate().map_err(|_| ServerError::Config("invalid retry policy"))?;
        self.ladder.validate().map_err(ServerError::Config)?;
        if self.read_timeout.is_zero() || self.write_timeout.is_zero() {
            return Err(ServerError::Config("read/write timeouts must be positive"));
        }
        if self.idle_timeout.is_zero() {
            return Err(ServerError::Config("idle timeout must be positive"));
        }
        if self.max_line_bytes < 64 {
            return Err(ServerError::Config("max_line_bytes must be at least 64"));
        }
        if self.conn_capacity == 0 {
            return Err(ServerError::Config("per-connection capacity must be at least 1"));
        }
        if self.max_tenants == 0 {
            return Err(ServerError::Config("max_tenants must be at least 1"));
        }
        self.tenant_defaults.validate().map_err(ServerError::Tenant)?;
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
    shed: AtomicU64,
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

    /// Client back-off hint: the admission bound expressed in ms.
    fn retry_after_ms(&self) -> u64 {
        (self.admission.max_queue_cycles / 1000).max(1)
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

    fn stats_reply(&self) -> StatsReply {
        StatsReply {
            rung: self.rung().index() as u8,
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
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
}

/// One in-flight quote attempt; hedges and retries clone it, sharing
/// the `done` latch, the hedge flag, and the tenant/connection
/// reservations (released exactly once, by whoever wins the latch).
#[derive(Clone)]
struct Job {
    seq: u32,
    id: u64,
    option: CdsOption,
    accepted_at: Instant,
    attempt: u32,
    hedge_launched: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    tenant: Arc<TenantState>,
    conn_inflight: Arc<AtomicU64>,
    resp: Sender<String>,
}

enum TimerEvent {
    /// Arm the hedge timer for a freshly dispatched quote.
    Hedge { job: Job, fire_at: Instant },
    /// A shard refused a quote (dead); decide retry-vs-fail now.
    Retry { job: Job, from_shard: usize },
}

enum TimerAction {
    LaunchHedge(Job),
    Dispatch { job: Job, avoid: usize },
}

struct Scheduled {
    fire_at: Instant,
    order: u64,
    action: TimerAction,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.order == other.order
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.fire_at, self.order).cmp(&(other.fire_at, other.order))
    }
}

fn complete(core: &Core, job: &Job, spread: f64, epoch: u64, shard: Option<usize>) {
    let (canonical, cached) = match core.ledger.record(job.tenant.slot as u64, job.id, spread) {
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
        core.stats.inflight.fetch_sub(1, Ordering::Relaxed);
        job.tenant.release_inflight();
        job.conn_inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = job.resp.send(format_response(&Response::Quote(QuoteReply {
            id: job.id,
            spread_bps: canonical,
            epoch,
            shard,
            attempts: job.attempt,
            hedged: job.hedge_launched.load(Ordering::Relaxed),
            cached,
        })));
    }
}

fn fail_deadline(core: &Core, job: &Job) {
    if !job.done.swap(true, Ordering::SeqCst) {
        core.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        core.stats.inflight.fetch_sub(1, Ordering::Relaxed);
        job.tenant.release_inflight();
        job.conn_inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = job.resp.send(format_response(&Response::Error {
            id: Some(job.id),
            reason: "deadline budget exhausted".to_string(),
        }));
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

fn shard_worker(core: Arc<Core>, k: usize, rx: Arc<FairQueue<Job>>, timer_tx: Sender<TimerEvent>) {
    let mut cached: Arc<EpochSnapshot> = core.book.current();
    loop {
        match rx.pop_timeout(Duration::from_millis(50)) {
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
                    // Bounce to the hedger for a budgeted retry elsewhere.
                    let _ = timer_tx.send(TimerEvent::Retry { job, from_shard: k });
                    continue;
                }
                core.book.refresh(&mut cached);
                let spread = cached.engine.price(&job.option).spread_bps;
                complete(&core, &job, spread, cached.epoch, Some(k));
            }
            None => {
                if core.shutdown.load(Ordering::Relaxed) {
                    // Release anything still queued (journalled as
                    // pending) so held response senders drop.
                    rx.clear();
                    break;
                }
            }
        }
    }
}

fn hedger(core: Arc<Core>, rx: Receiver<TimerEvent>, senders: Vec<Arc<FairQueue<Job>>>) {
    let mut cached: Arc<EpochSnapshot> = core.book.current();
    let mut heap: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
    let mut order = 0u64;
    loop {
        // Fire everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(s)| s.fire_at <= now) {
            let Some(Reverse(s)) = heap.pop() else { break };
            match s.action {
                TimerAction::LaunchHedge(job) => {
                    if job.done.load(Ordering::SeqCst) {
                        continue;
                    }
                    let home = (job.id % core.shards.len() as u64) as usize;
                    // Hedge only to a *different* live shard.
                    if let Some(target) = next_live(&core, home + 1, Some(home)) {
                        core.stats.hedges.fetch_add(1, Ordering::Relaxed);
                        job.hedge_launched.store(true, Ordering::Relaxed);
                        let mut hedge = job.clone();
                        hedge.attempt = job.attempt + 1;
                        senders[target].push(hedge.tenant.slot, hedge.tenant.limits.weight, hedge);
                    }
                }
                TimerAction::Dispatch { job, avoid } => {
                    if job.done.load(Ordering::SeqCst) {
                        continue;
                    }
                    match next_live(&core, avoid + 1, Some(avoid)) {
                        Some(target) => {
                            senders[target].push(job.tenant.slot, job.tenant.limits.weight, job);
                        }
                        None => {
                            // Every shard is dead: price inline on the
                            // CPU path, which is bit-identical and
                            // cannot die with the shards.
                            core.book.refresh(&mut cached);
                            let spread = cached.engine.price(&job.option).spread_bps;
                            complete(&core, &job, spread, cached.epoch, None);
                        }
                    }
                }
            }
        }
        let wait = heap
            .peek()
            .map(|Reverse(s)| s.fire_at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok(TimerEvent::Hedge { job, fire_at }) => {
                order += 1;
                heap.push(Reverse(Scheduled {
                    fire_at,
                    order,
                    action: TimerAction::LaunchHedge(job),
                }));
            }
            Ok(TimerEvent::Retry { mut job, from_shard }) => {
                let next_attempt = job.attempt + 1;
                let elapsed = job.accepted_at.elapsed().as_micros() as u64;
                if !core.config.retry.allows_attempt(next_attempt as usize, elapsed) {
                    fail_deadline(&core, &job);
                    continue;
                }
                core.stats.retries.fetch_add(1, Ordering::Relaxed);
                let backoff =
                    core.config.retry.jittered_backoff_micros(next_attempt as usize, job.id);
                job.attempt = next_attempt;
                order += 1;
                heap.push(Reverse(Scheduled {
                    fire_at: Instant::now() + Duration::from_micros(backoff),
                    order,
                    action: TimerAction::Dispatch { job, avoid: from_shard },
                }));
            }
            Err(RecvTimeoutError::Timeout) => {
                // Anything still scheduled at shutdown is a pending
                // quote the drain deadline already gave up on; it lives
                // on in the journal, not in this heap.
                if core.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Per-connection request context: the bound tenant and the
/// connection's own in-flight reservation counter.
struct ConnCtx {
    tenant: Arc<TenantState>,
    conn_inflight: Arc<AtomicU64>,
}

fn handle_quote(
    core: &Arc<Core>,
    q: &QuoteRequest,
    ctx: &ConnCtx,
    cached: &mut Arc<EpochSnapshot>,
    senders: &[Arc<FairQueue<Job>>],
    timer_tx: &Sender<TimerEvent>,
    resp: &Sender<String>,
) {
    let reply = |r: Response| {
        let _ = resp.send(format_response(&r));
    };
    if core.draining.load(Ordering::Relaxed) {
        core.stats.rejected.fetch_add(1, Ordering::Relaxed);
        reply(Response::Reject {
            id: q.id,
            retry_after_ms: core.config.drain_deadline.as_millis() as u64,
            rung: core.rung(),
        });
        return;
    }
    let option = match CdsOption::validated(q.maturity, q.frequency, q.recovery) {
        Ok(o) => o,
        Err(e) => {
            reply(Response::Error { id: Some(q.id), reason: format!("invalid quote: {e}") });
            return;
        }
    };
    let tenant_slot = ctx.tenant.slot as u64;
    // Idempotent duplicate of an already answered id (within this
    // tenant's id space): serve from the ledger without re-pricing,
    // re-journalling, or charging the token bucket.
    if let Some(spread) = core.ledger.get(tenant_slot, q.id) {
        core.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
        reply(Response::Quote(QuoteReply {
            id: q.id,
            spread_bps: spread,
            epoch: core.book.epoch(),
            shard: None,
            attempts: 0,
            hedged: false,
            cached: true,
        }));
        return;
    }
    // Tenant token bucket, before the ladder sees the quote: throttled
    // traffic never becomes queue pressure for other tenants.
    if let Err(retry_after_ms) = ctx.tenant.try_take_token(core.now_micros()) {
        core.stats.throttled.fetch_add(1, Ordering::Relaxed);
        reply(Response::Throttle { id: q.id, retry_after_ms, tenant: ctx.tenant.name.clone() });
        return;
    }
    // One ladder observation per quote decision.
    let rung = lock_recover(&core.ladder).observe(&core.telemetry());
    core.stats.rung.store(rung.index() as u64, Ordering::Relaxed);
    if rung == Rung::RejectRetryAfter {
        core.stats.rejected.fetch_add(1, Ordering::Relaxed);
        reply(Response::Reject { id: q.id, retry_after_ms: core.retry_after_ms(), rung });
        return;
    }
    if rung >= Rung::ShedLowPriority && q.priority == Priority::Low {
        core.stats.shed.fetch_add(1, Ordering::Relaxed);
        reply(Response::Shed { id: q.id, retry_after_ms: core.retry_after_ms(), rung });
        return;
    }
    // Tenant in-flight quota: the bulkhead that keeps one tenant from
    // occupying the shared capacity below.
    if let Err(retry_after_ms) = ctx.tenant.try_reserve_inflight() {
        core.stats.throttled.fetch_add(1, Ordering::Relaxed);
        reply(Response::Throttle { id: q.id, retry_after_ms, tenant: ctx.tenant.name.clone() });
        return;
    }
    let release_tenant = || {
        ctx.tenant.release_inflight();
    };
    // Per-connection in-flight cap (a single pipelined connection
    // cannot occupy the whole global capacity).
    if ctx.conn_inflight.fetch_add(1, Ordering::SeqCst) >= core.config.conn_capacity {
        ctx.conn_inflight.fetch_sub(1, Ordering::SeqCst);
        release_tenant();
        core.stats.shed.fetch_add(1, Ordering::Relaxed);
        reply(Response::Shed { id: q.id, retry_after_ms: core.retry_after_ms(), rung });
        return;
    }
    let release_all = || {
        ctx.conn_inflight.fetch_sub(1, Ordering::SeqCst);
        release_tenant();
    };
    // Reserve a global in-flight slot (slow-consumer / overload bound).
    if core.stats.inflight.fetch_add(1, Ordering::SeqCst) >= core.config.capacity {
        core.stats.inflight.fetch_sub(1, Ordering::SeqCst);
        release_all();
        core.stats.shed.fetch_add(1, Ordering::Relaxed);
        reply(Response::Shed { id: q.id, retry_after_ms: core.retry_after_ms(), rung });
        return;
    }
    let home = (q.id % core.shards.len() as u64) as usize;
    if !core.admit_virtual(home) {
        core.stats.inflight.fetch_sub(1, Ordering::SeqCst);
        release_all();
        core.stats.shed.fetch_add(1, Ordering::Relaxed);
        reply(Response::Shed { id: q.id, retry_after_ms: core.retry_after_ms(), rung });
        return;
    }
    // Write-ahead: the acceptance is durable before any dispatch.
    let seq = match core.accept_seq(q.id, &option, q.priority) {
        Ok(seq) => seq,
        Err(e) => {
            core.stats.inflight.fetch_sub(1, Ordering::SeqCst);
            release_all();
            reply(Response::Error { id: Some(q.id), reason: format!("journal: {e}") });
            return;
        }
    };
    core.stats.accepted.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        seq,
        id: q.id,
        option,
        accepted_at: Instant::now(),
        attempt: 1,
        hedge_launched: Arc::new(AtomicBool::new(false)),
        done: Arc::new(AtomicBool::new(false)),
        tenant: Arc::clone(&ctx.tenant),
        conn_inflight: Arc::clone(&ctx.conn_inflight),
        resp: resp.clone(),
    };
    if rung >= Rung::CpuFallback || core.dead_shards() == core.shards.len() {
        // CPU fallback: price inline, bit-identical to the shard path.
        core.book.refresh(cached);
        let spread = cached.engine.price(&job.option).spread_bps;
        complete(core, &job, spread, cached.epoch, None);
        return;
    }
    senders[home].push(job.tenant.slot, job.tenant.limits.weight, job.clone());
    let _ = timer_tx.send(TimerEvent::Hedge {
        fire_at: job.accepted_at + Duration::from_micros(core.config.retry.hedge_after_micros),
        job,
    });
}

fn handle_request(
    core: &Arc<Core>,
    line: &str,
    ctx: &mut ConnCtx,
    cached: &mut Arc<EpochSnapshot>,
    senders: &[Arc<FairQueue<Job>>],
    timer_tx: &Sender<TimerEvent>,
    resp: &Sender<String>,
) {
    let reply = |r: Response| {
        let _ = resp.send(format_response(&r));
    };
    match parse_request(line) {
        Err(e) => reply(Response::Error { id: None, reason: e.reason }),
        Ok(Request::Ping) => reply(Response::Pong),
        Ok(Request::Stats) => reply(Response::Stats(core.stats_reply())),
        Ok(Request::Drain) => {
            core.draining.store(true, Ordering::SeqCst);
            reply(Response::DrainAck);
        }
        Ok(Request::Tenant { name }) => match core.tenants.bind(&name, core.now_micros()) {
            Ok(tenant) => {
                ctx.tenant = tenant;
                reply(Response::TenantAck { name });
            }
            Err(e) => reply(Response::Error { id: None, reason: e.to_string() }),
        },
        Ok(Request::Tick { seed }) => {
            let epoch = core.book.publish(seed);
            reply(Response::TickAck { epoch });
        }
        Ok(Request::TickPoint { curve, knot, value }) => {
            match core.book.publish_point(curve, knot, value) {
                Ok((epoch, zero_delta)) => reply(Response::TickPointAck { epoch, zero_delta }),
                Err(reason) => reply(Response::Error { id: None, reason }),
            }
        }
        Ok(Request::Fault(cmd)) => {
            let shard = match cmd {
                FaultCmd::Kill { shard }
                | FaultCmd::Revive { shard }
                | FaultCmd::Stall { shard, .. } => shard,
            };
            let Some(ctl) = core.shards.get(shard) else {
                reply(Response::Error {
                    id: None,
                    reason: format!("no such shard {shard} (have {})", core.shards.len()),
                });
                return;
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
            reply(Response::FaultAck { shard, state });
        }
        Ok(Request::Quote(q)) => handle_quote(core, &q, ctx, cached, senders, timer_tx, resp),
    }
}

/// Decode and dispatch one complete raw request line. Non-UTF-8 bytes
/// get a typed `ERR`; blank lines are skipped silently (no reply owed).
#[allow(clippy::too_many_arguments)]
fn process_line(
    core: &Arc<Core>,
    bytes: &[u8],
    ctx: &mut ConnCtx,
    cached: &mut Arc<EpochSnapshot>,
    senders: &[Arc<FairQueue<Job>>],
    timer_tx: &Sender<TimerEvent>,
    resp: &Sender<String>,
) {
    match decode_line(bytes) {
        Err(e) => {
            let _ = resp.send(format_response(&Response::Error { id: None, reason: e.reason }));
        }
        Ok(s) => {
            let line = s.trim();
            if !line.is_empty() {
                handle_request(core, line, ctx, cached, senders, timer_tx, resp);
            }
        }
    }
}

fn handle_conn(
    core: Arc<Core>,
    stream: TcpStream,
    senders: Vec<Arc<FairQueue<Job>>>,
    timer_tx: Sender<TimerEvent>,
) {
    let Ok(write_half) = stream.try_clone() else { return };
    let _ = stream.set_read_timeout(Some(core.config.read_timeout));
    let _ = write_half.set_write_timeout(Some(core.config.write_timeout));
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
    let mut ctx = ConnCtx {
        tenant: core.tenants.default_tenant(),
        conn_inflight: Arc::new(AtomicU64::new(0)),
    };
    let mut cached = core.book.current();
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
                    process_line(&core, &acc, &mut ctx, &mut cached, &senders, &timer_tx, &resp_tx);
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
                    let _ = resp_tx.send(format_response(&Response::Error {
                        id: None,
                        reason: format!(
                            "idle timeout: no complete request line in {}ms",
                            core.config.idle_timeout.as_millis()
                        ),
                    }));
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
                let _ = resp_tx.send(format_response(&Response::Error {
                    id: None,
                    reason: oversize_error(max_line).reason,
                }));
            } else {
                acc.extend_from_slice(head);
                process_line(&core, &acc, &mut ctx, &mut cached, &senders, &timer_tx, &resp_tx);
            }
            acc.clear();
            last_line = Instant::now();
        }
        if !discarding && !rest.is_empty() {
            if acc.len() + rest.len() > max_line {
                // Cap crossed mid-line: one ERR now, then discard until
                // the newline finally shows up.
                let _ = resp_tx.send(format_response(&Response::Error {
                    id: None,
                    reason: oversize_error(max_line).reason,
                }));
                acc.clear();
                discarding = true;
            } else {
                acc.extend_from_slice(rest);
            }
        }
    }
    drop(resp_tx);
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

fn acceptor(
    core: Arc<Core>,
    listener: TcpListener,
    senders: Vec<Arc<FairQueue<Job>>>,
    timer_tx: Sender<TimerEvent>,
) -> DrainSummary {
    let _ = listener.set_nonblocking(true);
    while !core.draining.load(Ordering::Relaxed) && !core.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Quote lines are tiny; Nagle + delayed ACK would add
                // ~40ms to every reply on the wire.
                let _ = stream.set_nodelay(true);
                let core = core.clone();
                let senders = senders.clone();
                let timer_tx = timer_tx.clone();
                thread::spawn(move || handle_conn(core, stream, senders, timer_tx));
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
    DrainSummary {
        accepted: core.stats.accepted.load(Ordering::Relaxed),
        completed: core.stats.completed.load(Ordering::Relaxed),
        pending: core.stats.inflight.load(Ordering::SeqCst),
    }
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
        let summary = match self.acceptor.join() {
            Ok(s) => s,
            Err(_) => DrainSummary {
                accepted: self.core.stats.accepted.load(Ordering::Relaxed),
                completed: self.core.stats.completed.load(Ordering::Relaxed),
                pending: self.core.stats.inflight.load(Ordering::Relaxed),
            },
        };
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
    let admission = AdmissionControl::from_md1(config.service_micros, config.target_utilisation);
    let book = CurveBook::new(config.seed);
    let shards: Vec<ShardCtl> = (0..config.shards).map(|_| ShardCtl::default()).collect();
    // The registry pre-registers `default` plus every configured
    // override; buckets start full at server-relative time zero.
    let tenants = TenantRegistry::new(config.tenant_defaults, config.max_tenants, 0)?;
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
        tenants,
        wal,
        wal_degraded: AtomicBool::new(false),
        next_seq: AtomicU32::new(0),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        config,
    });

    let senders: Vec<Arc<FairQueue<Job>>> =
        (0..core.config.shards).map(|_| Arc::new(FairQueue::default())).collect();
    let (timer_tx, timer_rx) = channel::<TimerEvent>();

    let mut workers = Vec::with_capacity(core.config.shards);
    for (k, rx) in senders.iter().cloned().enumerate() {
        let core = core.clone();
        let timer_tx = timer_tx.clone();
        workers.push(thread::spawn(move || shard_worker(core, k, rx, timer_tx)));
    }
    let hedger_handle = {
        let core = core.clone();
        let senders = senders.clone();
        thread::spawn(move || hedger(core, timer_rx, senders))
    };

    let listener = TcpListener::bind(&core.config.addr)?;
    let addr = listener.local_addr()?;
    let acceptor_handle = {
        let core = core.clone();
        thread::spawn(move || acceptor(core, listener, senders, timer_tx))
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
