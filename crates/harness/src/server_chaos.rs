//! Chaos scenarios for the serving front-end, with a baseline gate.
//!
//! Where [`crate::chaos`] attacks the simulated dataflow engines with
//! cycle-accurate fault plans, this module attacks the **real serving
//! stack** — `cds-server` over TCP, threads and wall clock included —
//! with the failure modes a quote-serving deployment actually meets:
//!
//! - `server/engine-death-midburst` — a shard dies while a burst is in
//!   flight; retries, hedging and the CPU fallback must price every
//!   accepted quote bit-identically to the healthy run,
//! - `server/kill-during-drain-resume` — a drain deadline expires with
//!   quotes still stuck on a stalled shard; the write-ahead journal
//!   must checkpoint them and [`resume_journal`] must finish the run
//!   bit-identically to an uninterrupted one,
//! - `server/slow-consumer-backpressure` — a client that stops reading
//!   replies while pipelining requests; the in-flight bound must hold
//!   and every request must still be answered,
//! - `server/overload-shed` — sustained ~2x overload of a deliberately
//!   tiny deployment; the ladder must shed rather than queue without
//!   bound, and what *is* priced must stay bit-exact.
//!
//! A second matrix ([`run_isolation`], `server-chaos --isolation`)
//! attacks the tenant bulkheads instead of the failure-recovery path:
//! `server/noisy-neighbor-flood` (a quota'd tenant floods at ≥10x its
//! rate while slowloris trickles idle against the reaper; the victim
//! tenant must keep its latency and never be throttled, and every
//! trickle must be reaped), `server/slowloris-reaper` (idle trickle
//! connections must be reaped while a clean client prices bit-exactly),
//! and `server/protocol-fuzz` (seeded garbage and torn lines must each
//! earn exactly one typed `ERR`, never a wedge). Its baseline is
//! `results/tenant_isolation_baseline.json`.
//!
//! Wall-clock runs are not cycle-reproducible, so unlike the engine
//! chaos gate the committed baselines pin only the **stable booleans**
//! of each scenario — survived, degraded, shed-occurred,
//! spreads-match — never counts or latencies.

use crate::gate::{Check, Gate};
use crate::json::Json;
use crate::loadgen::quantile;
use cds_cpu::engine::CpuCdsEngine;
use cds_engine::codec::f64_to_token;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::fuzz::{fuzz_lines, torn_lines};
use cds_server::ladder::LadderConfig;
use cds_server::proto::{decode_line, parse_request, parse_response, Request, Response};
use cds_server::server::{resume_journal, serve, ServerConfig};
use cds_server::tenant::TenantLimits;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Version of the server-chaos JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// The `server-chaos --check` gate (with and without `--isolation`): the
/// same seed, and every scenario's boolean verdicts equal to the
/// baseline's. Counts are not gated (wall clock varies).
pub static GATE: Gate = Gate {
    name: "server-chaos",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::eq("seed"),
        Check::eq("degraded").within("cases"),
        Check::eq("shed_occurred").within("cases"),
        Check::eq("spreads_match_clean").within("cases"),
        Check::eq("survived").within("cases"),
    ],
};

/// Outcome of one serving chaos scenario. Only the boolean verdicts are
/// baseline-gated; the counts are informational (wall clock varies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerChaosCase {
    /// Stable scenario slug, e.g. `server/engine-death-midburst`.
    pub name: String,
    /// The deployment ran impaired (dead shard, expired drain, …).
    pub degraded: bool,
    /// Admission control or the ladder shed load.
    pub shed_occurred: bool,
    /// Every priced/resumed spread is bit-identical to the reference.
    pub spreads_match_clean: bool,
    /// The scenario's overall pass verdict.
    pub survived: bool,
    /// Informational: requests sent (not gated).
    pub sent: u64,
    /// Informational: requests priced (not gated).
    pub priced: u64,
    /// Informational: requests shed or rejected (not gated).
    pub shed: u64,
    /// Why the scenario did not survive, one line per failed check;
    /// printed on FAIL, not serialised. Only
    /// `server/noisy-neighbor-flood` fills it.
    pub violations: Vec<String>,
}

impl ServerChaosCase {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::Str(self.name.clone())),
            ("degraded", Json::Bool(self.degraded)),
            ("shed_occurred", Json::Bool(self.shed_occurred)),
            ("spreads_match_clean", Json::Bool(self.spreads_match_clean)),
            ("survived", Json::Bool(self.survived)),
        ])
    }
}

/// A full serving chaos run.
#[derive(Debug, Clone)]
pub struct ServerChaosReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Seed the workloads derive from.
    pub seed: u64,
    /// All scenarios, in matrix order.
    pub cases: Vec<ServerChaosCase>,
}

impl ServerChaosReport {
    /// True when every scenario survived.
    pub fn all_survived(&self) -> bool {
        self.cases.iter().all(|c| c.survived)
    }

    /// Serialise to the versioned JSON schema (booleans only).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("cases", Json::Array(self.cases.iter().map(ServerChaosCase::to_json).collect())),
        ])
    }
}

/// A blocking line-protocol client for the closed-loop phases.
struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> Result<LineClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(LineClient { reader: BufReader::new(stream), writer })
    }

    fn roundtrip(&mut self, line: &str) -> Result<Response, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        self.recv()
    }

    fn recv(&mut self) -> Result<Response, String> {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("connection closed".to_string());
        }
        parse_response(reply.trim()).map_err(|e| format!("bad reply `{reply}`: {e}"))
    }
}

/// One compliant priced round-trip: `SHED`/`THROTTLE` replies are
/// honored by sleeping the advertised hint and retrying, the way the
/// protocol contract asks. Returns the final-attempt latency plus how
/// many `THROTTLE`s were absorbed along the way.
struct Trip {
    bits: u64,
    micros: u64,
    throttles: u64,
}

fn compliant_trip(client: &mut LineClient, id: u64) -> Result<Trip, String> {
    let line = quote_line(id, 5.0, 0.4, false);
    let mut throttles = 0u64;
    for _ in 0..200 {
        let t0 = Instant::now();
        match client.roundtrip(&line)? {
            Response::Quote(q) => {
                return Ok(Trip {
                    bits: q.spread_bps.to_bits(),
                    micros: t0.elapsed().as_micros() as u64,
                    throttles,
                })
            }
            Response::Shed { retry_after_ms, .. } | Response::Reject { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            Response::Throttle { retry_after_ms, .. } => {
                throttles += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            other => return Err(format!("unexpected reply to quote {id}: {other:?}")),
        }
    }
    Err(format!("quote {id} never priced after 200 compliant attempts"))
}

/// What the abuser's pipelined flood observed.
#[derive(Debug, Clone, Copy)]
struct FloodOutcome {
    priced: u64,
    throttled: u64,
    shed: u64,
    retry_hint_positive: bool,
    duration: Duration,
}

/// Bind `tenant`, pipeline `requests` quotes without pacing, and drain
/// replies on a second thread until the trailing `PING` sentinel
/// returns. The drainer keeps the socket from exerting backpressure so
/// the flood is as hostile as a single connection can be.
fn flood_as_tenant(addr: SocketAddr, tenant: &str, requests: u64) -> Result<FloodOutcome, String> {
    let LineClient { mut reader, mut writer } = LineClient::connect(addr)?;
    writeln!(writer, "TENANT {tenant}").map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    match parse_response(line.trim()) {
        Ok(Response::TenantAck { .. }) => {}
        other => return Err(format!("tenant bind failed: {other:?}")),
    }

    let started = Instant::now();
    let drainer = std::thread::spawn(move || {
        let (mut priced, mut throttled, mut shed) = (0u64, 0u64, 0u64);
        let mut retry_hint_positive = false;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => match parse_response(line.trim()) {
                    Ok(Response::Pong) => break,
                    Ok(Response::Quote(_)) => priced += 1,
                    Ok(Response::Throttle { retry_after_ms, .. }) => {
                        throttled += 1;
                        retry_hint_positive |= retry_after_ms > 0;
                    }
                    Ok(Response::Shed { .. }) | Ok(Response::Reject { .. }) => shed += 1,
                    _ => {}
                },
            }
        }
        (priced, throttled, shed, retry_hint_positive)
    });
    for id in 0..requests {
        writeln!(writer, "{}", quote_line(id, 5.0, 0.4, false)).map_err(|e| e.to_string())?;
    }
    writeln!(writer, "PING").map_err(|e| e.to_string())?;
    let (priced, throttled, shed, retry_hint_positive) =
        drainer.join().map_err(|_| "abuser reply drainer panicked".to_string())?;
    Ok(FloodOutcome { priced, throttled, shed, retry_hint_positive, duration: started.elapsed() })
}

/// Trickle one byte at a time without ever completing a line; returns
/// true when the server closes the connection (the reaper fired) inside
/// `window`.
fn slowloris_probe(addr: SocketAddr, window: Duration) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let started = Instant::now();
    while started.elapsed() < window {
        if stream.write_all(b"Q").is_err() {
            return true;
        }
        let mut buf = [0u8; 128];
        if matches!(stream.read(&mut buf), Ok(0)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    false
}

fn reference_bits(seed: u64, maturity: f64, recovery: f64) -> u64 {
    let engine = CpuCdsEngine::new(&MarketData::paper_workload(seed));
    engine
        .price(&CdsOption::new(maturity, PaymentFrequency::Quarterly, recovery))
        .spread_bps
        .to_bits()
}

fn quote_line(id: u64, maturity: f64, recovery: f64, low_priority: bool) -> String {
    let tail = if low_priority { " LO" } else { "" };
    format!("QUOTE {id} {} Q {}{tail}", f64_to_token(maturity), f64_to_token(recovery))
}

/// A shard dies while a closed-loop burst is in flight; retries and the
/// hedger must keep every quote priced bit-identically.
fn scenario_engine_death(seed: u64) -> Result<ServerChaosCase, String> {
    let handle =
        serve(ServerConfig { shards: 2, seed, ..Default::default() }).map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    let total = 24u64;
    let mut priced = 0u64;
    let mut matched = true;
    for id in 0..total {
        if id == total / 3 {
            client.roundtrip("FAULT KILL 0")?;
        }
        let maturity = 2.0 + (id % 5) as f64;
        let recovery = 0.2 + (id % 3) as f64 * 0.1;
        match client.roundtrip(&quote_line(id, maturity, recovery, false))? {
            Response::Quote(q) => {
                priced += 1;
                matched &= q.spread_bps.to_bits() == reference_bits(seed, maturity, recovery);
            }
            other => return Err(format!("unexpected reply to quote {id}: {other:?}")),
        }
    }
    let stats = match client.roundtrip("STATS")? {
        Response::Stats(s) => s,
        other => return Err(format!("expected stats, got {other:?}")),
    };
    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/engine-death-midburst".to_string(),
        degraded: stats.dead_shards > 0,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: priced == total && matched && summary.pending == 0,
        sent: total,
        priced,
        shed: 0,
        violations: Vec::new(),
    })
}

/// A drain deadline expires with quotes stuck behind a stalled shard;
/// the journal checkpoints them and resume finishes bit-identically.
fn scenario_kill_during_drain(seed: u64) -> Result<ServerChaosCase, String> {
    let journal: PathBuf = std::env::temp_dir()
        .join(format!("cds-server-chaos-drain-{}-{seed}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let handle = serve(ServerConfig {
        shards: 1,
        seed,
        journal: Some(journal.clone()),
        cadence: 2,
        drain_deadline: Duration::from_millis(100),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    client.roundtrip("FAULT STALL 0 300")?;
    // Pipeline a small burst (under the admission bound) and wait for
    // the WAL to accept it; the 300ms stall keeps it pending.
    let total = 4u64;
    for id in 0..total {
        writeln!(client.writer, "{}", quote_line(id, 5.0, 0.4, false))
            .map_err(|e| e.to_string())?;
    }
    client.writer.flush().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    while handle.stats().accepted < total {
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("burst was never accepted".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.drain();
    let summary = handle.wait();
    let report = resume_journal(&journal).map_err(|e| e.to_string())?;
    let want = reference_bits(seed, 5.0, 0.4);
    let matched = report.spreads.len() == total as usize
        && report.spreads.iter().all(|(_, _, spread, _)| spread.to_bits() == want);
    let _ = std::fs::remove_file(&journal);
    Ok(ServerChaosCase {
        name: "server/kill-during-drain-resume".to_string(),
        degraded: true,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: summary.accepted == total
            && summary.pending > 0
            && report.drained
            && report.repriced > 0
            && matched,
        sent: total,
        priced: summary.completed,
        shed: 0,
        violations: Vec::new(),
    })
}

/// A client pipelines a burst and stops reading; the in-flight bound
/// must hold and every request must still get an answer.
fn scenario_slow_consumer(seed: u64) -> Result<ServerChaosCase, String> {
    let capacity = 8u64;
    let handle = serve(ServerConfig {
        shards: 1,
        seed,
        capacity,
        ladder: LadderConfig {
            shed_watermark: 0.5,
            reject_watermark: 0.95,
            recovery_observations: 32,
        },
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    client.roundtrip("FAULT STALL 0 20")?;
    let total = 64u64;
    for id in 0..total {
        writeln!(client.writer, "{}", quote_line(id, 5.0, 0.4, true)).map_err(|e| e.to_string())?;
    }
    client.writer.flush().map_err(|e| e.to_string())?;
    // The consumer goes slow: no reads while the burst queues. The
    // server must bound its in-flight set rather than buffer our lag.
    let mut bound_held = true;
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(10));
        bound_held &= handle.stats().inflight <= capacity;
    }
    let want = reference_bits(seed, 5.0, 0.4);
    let (mut priced, mut shed) = (0u64, 0u64);
    let mut matched = true;
    for _ in 0..total {
        match client.recv()? {
            Response::Quote(q) => {
                matched &= q.spread_bps.to_bits() == want;
                priced += 1;
            }
            Response::Shed { .. } | Response::Reject { .. } => shed += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/slow-consumer-backpressure".to_string(),
        degraded: false,
        shed_occurred: shed > 0,
        spreads_match_clean: matched,
        survived: bound_held
            && priced + shed == total
            && priced > 0
            && shed > 0
            && matched
            && summary.pending == 0,
        sent: total,
        priced,
        shed,
        violations: Vec::new(),
    })
}

/// Sustained ~2x overload of a tiny deployment: the ladder must shed
/// rather than queue without bound, and priced quotes stay bit-exact.
fn scenario_overload_shed(seed: u64) -> Result<ServerChaosCase, String> {
    let capacity = 4u64;
    let handle = serve(ServerConfig { shards: 1, seed, capacity, ..Default::default() })
        .map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    // 30ms of service per quote caps the deployment at ~33 quotes/s;
    // offering one every 15ms is a sustained 2x overload.
    client.roundtrip("FAULT STALL 0 30")?;
    let total = 40u64;
    for id in 0..total {
        writeln!(client.writer, "{}", quote_line(id, 5.0, 0.4, true)).map_err(|e| e.to_string())?;
        client.writer.flush().map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_millis(15));
    }
    let want = reference_bits(seed, 5.0, 0.4);
    let (mut priced, mut shed) = (0u64, 0u64);
    let mut matched = true;
    let mut bound_held = true;
    for _ in 0..total {
        match client.recv()? {
            Response::Quote(q) => {
                matched &= q.spread_bps.to_bits() == want;
                priced += 1;
            }
            Response::Shed { .. } | Response::Reject { .. } => shed += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
        bound_held &= handle.stats().inflight <= capacity;
    }
    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/overload-shed".to_string(),
        degraded: false,
        shed_occurred: shed > 0,
        spreads_match_clean: matched,
        survived: bound_held
            && priced + shed == total
            && priced > 0
            && shed > 0
            && matched
            && summary.pending == 0,
        sent: total,
        priced,
        shed,
        violations: Vec::new(),
    })
}

/// Execute the serving chaos matrix against in-process servers.
pub fn run(seed: u64) -> Result<ServerChaosReport, String> {
    let cases = vec![
        scenario_engine_death(seed)?,
        scenario_kill_during_drain(seed)?,
        scenario_slow_consumer(seed)?,
        scenario_overload_shed(seed)?,
    ];
    Ok(ServerChaosReport { schema_version: SCHEMA_VERSION, seed, cases })
}

// ---------------------------------------------------------------------
// Tenant-isolation matrix (`cds-harness server-chaos --isolation`)
// ---------------------------------------------------------------------

/// Quota rate for the abuser tenant in the noisy-neighbor scenario.
const ISOLATION_ABUSER_RATE: f64 = 100.0;

/// Bucket capacity for the abuser tenant.
const ISOLATION_ABUSER_BURST: f64 = 8.0;

/// Pipelined quotes the abuser connection floods.
const ISOLATION_FLOOD_REQUESTS: u64 = 3_000;

/// The flood must offer at least this multiple of the abuser's quota
/// rate, or the run was too slow to prove anything.
const ISOLATION_MIN_OFFERED_FACTOR: f64 = 10.0;

/// Slowloris connections trickling through the flood phase.
const ISOLATION_SLOWLORIS_CONNS: usize = 2;

/// Victim p99 under flood may be at most this factor of its solo p99…
const ISOLATION_P99_FACTOR: f64 = 50.0;

/// …with an absolute floor so microsecond-scale solo p99s don't turn
/// scheduler jitter into a verdict flip.
const ISOLATION_P99_FLOOR_MICROS: u64 = 10_000;

/// What one noisy-neighbor run measured; [`noisy_neighbor_violations`]
/// judges it.
#[derive(Debug, Clone, Copy)]
struct NoisyNeighborRun {
    flood: FloodOutcome,
    victim_throttles: u64,
    mismatches: u64,
    p99_solo: u64,
    p99_flood: u64,
    slowloris_reaped: usize,
    pending: u64,
}

/// The noisy-neighbor verdict: one line per violated bound, empty when
/// the bulkheads held.
fn noisy_neighbor_violations(run: &NoisyNeighborRun) -> Vec<String> {
    let NoisyNeighborRun { flood, victim_throttles, mismatches, p99_solo, p99_flood, .. } = *run;
    let mut violations = Vec::new();
    let dur_s = flood.duration.as_secs_f64().max(1e-9);
    let offered = ISOLATION_FLOOD_REQUESTS as f64 / dur_s;
    if offered < ISOLATION_MIN_OFFERED_FACTOR * ISOLATION_ABUSER_RATE {
        violations.push(format!(
            "flood offered only {offered:.0}/s, below {ISOLATION_MIN_OFFERED_FACTOR}x the \
             {ISOLATION_ABUSER_RATE}/s quota — run proves nothing"
        ));
    }
    if flood.throttled == 0 {
        violations.push("abuser flood was never throttled".to_string());
    }
    if !flood.retry_hint_positive {
        violations.push("no THROTTLE carried a positive retry_after_ms hint".to_string());
    }
    let quota_ceiling = 2.0 * (ISOLATION_ABUSER_BURST + ISOLATION_ABUSER_RATE * dur_s) + 16.0;
    if flood.priced as f64 > quota_ceiling {
        violations.push(format!(
            "abuser had {} quotes priced, above the quota ceiling of {quota_ceiling:.0}",
            flood.priced
        ));
    }
    if victim_throttles > 0 {
        violations.push(format!(
            "victim (default tenant) saw {victim_throttles} THROTTLE replies — bulkhead leaked"
        ));
    }
    if mismatches > 0 {
        violations.push(format!("{mismatches} victim spread(s) diverged from the CPU reference"));
    }
    let p99_ceiling =
        ((p99_solo as f64 * ISOLATION_P99_FACTOR) as u64).max(ISOLATION_P99_FLOOR_MICROS);
    if p99_flood > p99_ceiling {
        violations.push(format!(
            "victim p99 under flood {p99_flood}us exceeds {p99_ceiling}us \
             ({ISOLATION_P99_FACTOR}x solo p99 of {p99_solo}us)"
        ));
    }
    if run.slowloris_reaped < ISOLATION_SLOWLORIS_CONNS {
        violations.push(format!(
            "only {}/{ISOLATION_SLOWLORIS_CONNS} slowloris connections were reaped",
            run.slowloris_reaped
        ));
    }
    if run.pending > 0 {
        violations.push(format!("{} accepted quote(s) still pending after drain", run.pending));
    }
    violations
}

/// A quota'd abuser tenant floods a pipelined connection at ≥10x its
/// rate while slowloris trickles idle against the reaper and a
/// compliant default-tenant victim keeps pricing; the abuser must be
/// throttled (with a positive retry hint) and held to its quota, every
/// trickle must be reaped, and the victim must stay un-throttled,
/// bit-exact, and within a fixed latency factor of its solo p99.
fn scenario_noisy_neighbor(seed: u64) -> Result<ServerChaosCase, String> {
    let abuser_limits = TenantLimits {
        rate_per_s: ISOLATION_ABUSER_RATE,
        burst: ISOLATION_ABUSER_BURST,
        max_inflight: 8,
        weight: 1,
    };
    let handle = serve(ServerConfig {
        shards: 2,
        seed,
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(250),
        tenant_overrides: vec![("abuser".to_string(), abuser_limits)],
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let want = reference_bits(seed, 5.0, 0.4);
    let trips = 120u64;

    let mut victim = LineClient::connect(addr)?;
    let (mut victim_throttles, mut mismatches) = (0u64, 0u64);
    let mut solo = Vec::with_capacity(trips as usize);
    for id in 0..trips {
        let trip = compliant_trip(&mut victim, id)?;
        victim_throttles += trip.throttles;
        mismatches += u64::from(trip.bits != want);
        solo.push(trip.micros);
    }
    solo.sort_unstable();
    let p99_solo = quantile(&solo, 0.99);

    let trickles: Vec<_> = (0..ISOLATION_SLOWLORIS_CONNS)
        .map(|_| std::thread::spawn(move || slowloris_probe(addr, Duration::from_secs(3))))
        .collect();
    let flooder =
        std::thread::spawn(move || flood_as_tenant(addr, "abuser", ISOLATION_FLOOD_REQUESTS));
    std::thread::sleep(Duration::from_millis(5));
    let mut under_flood = Vec::with_capacity(trips as usize);
    for id in 0..trips {
        let trip = compliant_trip(&mut victim, 10_000 + id)?;
        victim_throttles += trip.throttles;
        mismatches += u64::from(trip.bits != want);
        under_flood.push(trip.micros);
    }
    under_flood.sort_unstable();
    let p99_flood = quantile(&under_flood, 0.99);
    let flood = flooder.join().map_err(|_| "abuser flood thread panicked".to_string())??;
    let slowloris_reaped =
        trickles.into_iter().map(|t| t.join().unwrap_or(false)).filter(|&reaped| reaped).count();

    // The victim may have idled past the reaper while the flood and the
    // trickles finished, so drain through the handle, not the socket.
    handle.drain();
    let pending = handle.wait().pending;

    let violations = noisy_neighbor_violations(&NoisyNeighborRun {
        flood,
        victim_throttles,
        mismatches,
        p99_solo,
        p99_flood,
        slowloris_reaped,
        pending,
    });
    Ok(ServerChaosCase {
        name: "server/noisy-neighbor-flood".to_string(),
        degraded: false,
        shed_occurred: flood.throttled > 0,
        spreads_match_clean: mismatches == 0,
        survived: violations.is_empty(),
        sent: 2 * trips + ISOLATION_FLOOD_REQUESTS,
        priced: 2 * trips + flood.priced,
        shed: flood.throttled + flood.shed,
        violations,
    })
}

/// Trickled connections that never complete a request line must be
/// closed by the idle reaper while a clean client keeps pricing.
fn scenario_slowloris_reaper(seed: u64) -> Result<ServerChaosCase, String> {
    let handle = serve(ServerConfig {
        shards: 1,
        seed,
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(250),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let opened = 3usize;
    let trickles: Vec<_> = (0..opened)
        .map(|_| std::thread::spawn(move || slowloris_probe(addr, Duration::from_secs(3))))
        .collect();

    let want = reference_bits(seed, 5.0, 0.4);
    let mut client = LineClient::connect(addr)?;
    let trips = 10u64;
    let mut mismatches = 0u64;
    for id in 0..trips {
        let trip = compliant_trip(&mut client, id)?;
        mismatches += u64::from(trip.bits != want);
        std::thread::sleep(Duration::from_millis(30));
    }
    let reaped =
        trickles.into_iter().map(|t| t.join().unwrap_or(false)).filter(|&reaped| reaped).count();

    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    let matched = mismatches == 0;
    Ok(ServerChaosCase {
        name: "server/slowloris-reaper".to_string(),
        degraded: false,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: reaped == opened && matched && summary.pending == 0,
        sent: trips,
        priced: trips,
        shed: 0,
        violations: Vec::new(),
    })
}

/// Torn one-shot connections and a seeded garbage corpus: every
/// reply-owing fuzz line gets exactly one typed `ERR`, nothing else
/// leaks through, and the connection still prices bit-identically.
fn scenario_protocol_fuzz(seed: u64) -> Result<ServerChaosCase, String> {
    let max_line = 256usize;
    let handle =
        serve(ServerConfig { shards: 1, seed, max_line_bytes: max_line, ..Default::default() })
            .map_err(|e| e.to_string())?;
    let addr = handle.addr();

    // Torn prefixes on one-shot connections, dropped unterminated. A
    // prefix can legitimately complete as a valid command (e.g. `TICK
    // 99` cut to `TICK 9`) and republish the curve epoch.
    let torn = torn_lines(seed, 12);
    let torn_ticks = torn
        .iter()
        .filter(|l| matches!(decode_line(l).and_then(parse_request), Ok(Request::Tick { .. })))
        .count() as u64;
    for line in &torn {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.write_all(line);
        drop(stream);
    }

    let mut client = LineClient::connect(addr)?;
    let corpus = fuzz_lines(seed, 250, max_line);
    let expected = corpus.iter().filter(|l| l.expect_reply).count() as u64;
    for line in &corpus {
        client.writer.write_all(&line.bytes).map_err(|e| e.to_string())?;
    }
    writeln!(client.writer, "PING").map_err(|e| e.to_string())?;
    client.writer.flush().map_err(|e| e.to_string())?;
    let (mut errs, mut strays) = (0u64, 0u64);
    loop {
        match client.recv()? {
            Response::Pong => break,
            Response::Error { .. } => errs += 1,
            _ => strays += 1,
        }
    }
    // Each dropped connection's partial line is served on that
    // connection's own reader thread, so wait until every torn `TICK`
    // has landed before re-publishing the boot epoch as the fixed
    // reference for the bit-exactness check.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.roundtrip("STATS")? {
            Response::Stats(s) if s.epoch == torn_ticks => break,
            Response::Stats(s) if Instant::now() >= deadline => {
                return Err(format!("curve epoch is {}, want {torn_ticks} torn TICKs", s.epoch))
            }
            Response::Stats(_) => std::thread::sleep(Duration::from_millis(2)),
            other => return Err(format!("expected stats, got {other:?}")),
        }
    }
    match client.roundtrip(&format!("TICK {seed}"))? {
        Response::TickAck { .. } => {}
        other => return Err(format!("epoch republish failed: {other:?}")),
    }
    let trip = compliant_trip(&mut client, 9_000)?;
    let matched = trip.bits == reference_bits(seed, 5.0, 0.4);

    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/protocol-fuzz".to_string(),
        degraded: false,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: errs == expected && strays == 0 && matched && summary.pending == 0,
        sent: corpus.len() as u64 + 1,
        priced: 1,
        shed: 0,
        violations: Vec::new(),
    })
}

/// Execute the tenant-isolation matrix against in-process servers. The
/// committed baseline lives in `results/tenant_isolation_baseline.json`
/// and is gated by the same verdict-only [`GATE`] as the chaos
/// matrix.
pub fn run_isolation(seed: u64) -> Result<ServerChaosReport, String> {
    let cases = vec![
        scenario_noisy_neighbor(seed)?,
        scenario_slowloris_reaper(seed)?,
        scenario_protocol_fuzz(seed)?,
    ];
    Ok(ServerChaosReport { schema_version: SCHEMA_VERSION, seed, cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noisy-neighbor run inside every bound: a 0.5 s flood offers
    /// 6,000/s against a quota ceiling of 2·(8 + 100·0.5) + 16 = 132
    /// priced, and a 100 us solo p99 puts the flood ceiling at the
    /// 10 ms floor.
    fn held() -> NoisyNeighborRun {
        NoisyNeighborRun {
            flood: FloodOutcome {
                priced: 100,
                throttled: 2_000,
                shed: 0,
                retry_hint_positive: true,
                duration: Duration::from_millis(500),
            },
            victim_throttles: 0,
            mismatches: 0,
            p99_solo: 100,
            p99_flood: 500,
            slowloris_reaped: ISOLATION_SLOWLORIS_CONNS,
            pending: 0,
        }
    }

    #[test]
    fn noisy_neighbor_verdict_flags_exactly_the_bound_just_past() {
        assert_eq!(noisy_neighbor_violations(&held()), Vec::<String>::new());
        type Edit = fn(&mut NoisyNeighborRun);
        // (bound, run at the bound, run just past it, what the violation names)
        let rows: [(&str, Edit, Edit, &str); 10] = [
            (
                "offered rate >= 10x quota (3,000 quotes in 3 s)",
                |r| r.flood.duration = Duration::from_secs(3),
                |r| r.flood.duration = Duration::from_millis(3_001),
                "offered only",
            ),
            (
                "flood throttled",
                |r| r.flood.throttled = 1,
                |r| r.flood.throttled = 0,
                "never throttled",
            ),
            (
                "positive retry hint",
                |r| r.flood.retry_hint_positive = true,
                |r| r.flood.retry_hint_positive = false,
                "retry_after_ms",
            ),
            ("quota ceiling", |r| r.flood.priced = 132, |r| r.flood.priced = 133, "quota ceiling"),
            (
                "victim never throttled",
                |r| r.victim_throttles = 0,
                |r| r.victim_throttles = 1,
                "bulkhead leaked",
            ),
            ("victim bit-exact", |r| r.mismatches = 0, |r| r.mismatches = 1, "diverged"),
            ("p99 10 ms floor", |r| r.p99_flood = 10_000, |r| r.p99_flood = 10_001, "p99"),
            (
                "p99 50x solo",
                |r| (r.p99_solo, r.p99_flood) = (1_000, 50_000),
                |r| (r.p99_solo, r.p99_flood) = (1_000, 50_001),
                "50x solo p99",
            ),
            (
                "every slowloris reaped",
                |r| r.slowloris_reaped = ISOLATION_SLOWLORIS_CONNS,
                |r| r.slowloris_reaped = ISOLATION_SLOWLORIS_CONNS - 1,
                "slowloris",
            ),
            ("drained", |r| r.pending = 0, |r| r.pending = 1, "pending"),
        ];
        for (bound, at, past, names) in rows {
            let mut run = held();
            at(&mut run);
            assert_eq!(noisy_neighbor_violations(&run), Vec::<String>::new(), "{bound}: at");
            let mut run = held();
            past(&mut run);
            let violations = noisy_neighbor_violations(&run);
            assert_eq!(violations.len(), 1, "{bound}: {violations:?}");
            assert!(violations[0].contains(names), "{bound}: {violations:?}");
        }
    }
}
