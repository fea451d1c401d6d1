//! Open-loop load generator for the `cds-server` serving front-end,
//! with an SLO gate.
//!
//! [`run`] boots an in-process [`cds_server`] instance on an ephemeral
//! port and drives it the way a quote consumer would: **open-loop**
//! exponential arrivals (requests are sent on schedule whether or not
//! earlier replies came back, so queueing delay is *measured*, not
//! hidden by coordinated omission), a **zipf-skewed portfolio** of
//! quote shapes (a few hot contracts, a long cold tail), **interleaved
//! curve ticks** republishing the market snapshot mid-run, and optional
//! **fault toggles** that kill and revive an engine shard while the
//! load is applied.
//!
//! Every request is timestamped at send and at reply; the report
//! carries the answered/priced/shed breakdown and the p50/p99/p999
//! latency quantiles. `cds-harness loadgen --check
//! results/server_slo_baseline.json` gates the run against committed
//! SLO ceilings (generous enough for CI-runner noise — the gate is for
//! "the server stopped answering" regressions, not microbenchmarking).

use crate::gate::{Check, Gate};
use crate::json::Json;
use cds_cpu::engine::CpuCdsEngine;
use cds_engine::codec::f64_to_token;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::fuzz::fuzz_lines;
use cds_server::proto::{parse_response, Response};
use cds_server::server::{serve, ServerConfig, ServerError};
use cds_server::tenant::TenantLimits;
use dataflow_sim::fault::splitmix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Version of the loadgen/SLO JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Default request count for a loadgen run.
pub const DEFAULT_REQUESTS: usize = 400;

/// Default open-loop arrival rate, requests per second.
pub const DEFAULT_RATE: f64 = 2_000.0;

/// Distinct quote shapes in the zipf portfolio.
const PORTFOLIO_SHAPES: usize = 16;

/// Zipf skew exponent for the portfolio draw.
const ZIPF_S: f64 = 1.1;

/// A curve tick is interleaved every this many requests.
const TICK_EVERY: usize = 97;

/// With faults enabled, shard 0 is killed after this fraction of the
/// run and revived at twice that point.
const KILL_AT_FRACTION: f64 = 1.0 / 3.0;

/// Loadgen run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// RNG seed (arrivals, portfolio draw, server boot epoch).
    pub seed: u64,
    /// Total requests to send.
    pub requests: usize,
    /// Open-loop arrival rate, requests/second.
    pub rate_per_s: f64,
    /// Engine shards to serve with.
    pub shards: usize,
    /// Kill/revive a shard mid-run.
    pub faults: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: crate::DEFAULT_SEED,
            requests: DEFAULT_REQUESTS,
            rate_per_s: DEFAULT_RATE,
            shards: 2,
            faults: true,
        }
    }
}

/// Latency quantiles of the priced replies, microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyQuantiles {
    /// Median.
    pub p50_micros: u64,
    /// 99th percentile.
    pub p99_micros: u64,
    /// 99.9th percentile.
    pub p999_micros: u64,
}

/// Outcome of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Seed the run derived from.
    pub seed: u64,
    /// Requests sent (excluding ticks and fault commands).
    pub sent: u64,
    /// Requests that came back priced.
    pub priced: u64,
    /// Requests shed by the ladder or admission control.
    pub shed: u64,
    /// Requests rejected (draining / reject rung).
    pub rejected: u64,
    /// Requests that came back as typed errors or deadline misses.
    pub errored: u64,
    /// Curve ticks interleaved.
    pub ticks: u64,
    /// Fault commands interleaved (kill + revive).
    pub faults: u64,
    /// Latency quantiles over priced replies.
    pub quantiles: LatencyQuantiles,
    /// Achieved send rate, requests/second.
    pub achieved_rate_per_s: f64,
    /// Worst degradation-ladder rung observed (0 = healthy).
    pub worst_rung: u64,
}

impl LoadgenReport {
    /// Every request got *some* reply (priced, shed, rejected or a
    /// typed error) — the server never went silent.
    pub fn answered(&self) -> u64 {
        self.priced + self.shed + self.rejected + self.errored
    }

    /// Serialise to the versioned JSON schema, including the answered
    /// and priced fractions of the sent requests that [`GATE`] floors.
    pub fn to_json(&self) -> Json {
        let sent = self.sent.max(1) as f64;
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("sent", Json::Number(self.sent as f64)),
            ("answered_fraction", Json::Number(self.answered() as f64 / sent)),
            ("priced_fraction", Json::Number(self.priced as f64 / sent)),
            ("priced", Json::Number(self.priced as f64)),
            ("shed", Json::Number(self.shed as f64)),
            ("rejected", Json::Number(self.rejected as f64)),
            ("errored", Json::Number(self.errored as f64)),
            ("ticks", Json::Number(self.ticks as f64)),
            ("faults", Json::Number(self.faults as f64)),
            ("p50_micros", Json::Number(self.quantiles.p50_micros as f64)),
            ("p99_micros", Json::Number(self.quantiles.p99_micros as f64)),
            ("p999_micros", Json::Number(self.quantiles.p999_micros as f64)),
            ("achieved_rate_per_s", Json::Number(self.achieved_rate_per_s)),
            ("worst_rung", Json::Number(self.worst_rung as f64)),
        ])
    }
}

/// The `loadgen --check` gate against the committed SLO ceilings
/// (`results/server_slo_baseline.json`): each latency quantile under its
/// ceiling, and the answered and priced fractions above their floors.
pub static GATE: Gate = Gate {
    name: "SLO",
    schema_version: SCHEMA_VERSION,
    checks: &[
        Check::at_most("p50_micros", "p50_micros_max"),
        Check::at_most("p99_micros", "p99_micros_max"),
        Check::at_most("p999_micros", "p999_micros_max"),
        Check::at_least("answered_fraction", "min_answer_fraction"),
        Check::at_least("priced_fraction", "min_priced_fraction"),
    ],
};

/// One zipf draw over `PORTFOLIO_SHAPES` ranks: inverse-CDF over the
/// truncated zeta weights, uniform input from [`splitmix64`].
fn zipf_rank(state: &mut u64) -> usize {
    *state = splitmix64(*state);
    let u = (*state >> 11) as f64 / (1u64 << 53) as f64;
    let weights: Vec<f64> = (1..=PORTFOLIO_SHAPES).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return i;
        }
    }
    PORTFOLIO_SHAPES - 1
}

/// One exponential inter-arrival draw (seconds) at `rate_per_s`.
fn exp_interval(state: &mut u64, rate_per_s: f64) -> f64 {
    *state = splitmix64(*state);
    let u = ((*state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    -u.ln() / rate_per_s
}

pub(crate) fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drive one open-loop run. Arrivals and the portfolio are seeded, but
/// latencies are wall-clock: two runs agree on *what* was sent, not on
/// how long the answers took.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, ServerError> {
    let handle =
        serve(ServerConfig { shards: config.shards, seed: config.seed, ..Default::default() })?;
    let stream = TcpStream::connect(handle.addr())?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);

    // Reply collector: timestamps every answer as it arrives so the
    // sender never blocks on the server (open loop).
    let (reply_tx, reply_rx) = channel::<(String, Instant)>();
    let collector = std::thread::spawn(move || {
        let mut reader = reader;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if reply_tx.send((line.trim().to_string(), Instant::now())).is_err() {
                        break;
                    }
                }
            }
        }
    });

    let mut arrivals = config.seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut portfolio = config.seed.rotate_left(17) ^ 0xbf58_476d_1ce4_e5b9;
    let kill_at = ((config.requests as f64) * KILL_AT_FRACTION) as usize;
    let revive_at = 2 * kill_at;
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut ticks = 0u64;
    let mut faults = 0u64;
    let started = Instant::now();
    let mut next_arrival = started;
    for id in 0..config.requests {
        next_arrival += Duration::from_secs_f64(exp_interval(&mut arrivals, config.rate_per_s));
        let now = Instant::now();
        if next_arrival > now {
            std::thread::sleep(next_arrival - now);
        }
        if config.faults && id == kill_at {
            writeln!(writer, "FAULT KILL 0")?;
            faults += 1;
        }
        if config.faults && id == revive_at {
            writeln!(writer, "FAULT REVIVE 0")?;
            faults += 1;
        }
        if id > 0 && id % TICK_EVERY == 0 {
            writeln!(writer, "TICK {}", config.seed + ticks + 1)?;
            ticks += 1;
        }
        let rank = zipf_rank(&mut portfolio);
        let maturity = 1.0 + rank as f64 * 0.5;
        let recovery = 0.15 + (rank % 5) as f64 * 0.1;
        let priority = if rank < 4 { "" } else { " LO" };
        sent_at.insert(id as u64, Instant::now());
        writeln!(
            writer,
            "QUOTE {id} {} Q {}{priority}",
            f64_to_token(maturity),
            f64_to_token(recovery)
        )?;
        writer.flush()?;
    }
    let elapsed = started.elapsed();

    // Collect until every request is answered or the server goes quiet.
    let mut latencies: Vec<u64> = Vec::with_capacity(config.requests);
    let (mut priced, mut shed, mut rejected, mut errored) = (0u64, 0u64, 0u64, 0u64);
    let mut worst_rung = 0u64;
    let mut answered = 0usize;
    while answered < config.requests {
        let Ok((line, at)) = reply_rx.recv_timeout(Duration::from_secs(5)) else {
            break; // silent server: the answered-fraction SLO will flag it
        };
        let Ok(resp) = parse_response(&line) else {
            errored += 1;
            answered += 1;
            continue;
        };
        match resp {
            Response::Quote(q) => {
                if let Some(t0) = sent_at.get(&q.id) {
                    latencies.push((at - *t0).as_micros() as u64);
                }
                priced += 1;
                answered += 1;
            }
            Response::Shed { rung, .. } => {
                worst_rung = worst_rung.max(rung.index() as u64);
                shed += 1;
                answered += 1;
            }
            Response::Reject { rung, .. } => {
                worst_rung = worst_rung.max(rung.index() as u64);
                rejected += 1;
                answered += 1;
            }
            Response::Error { .. } => {
                errored += 1;
                answered += 1;
            }
            // Acks for the interleaved ticks and fault toggles.
            Response::TickAck { .. } | Response::FaultAck { .. } => {}
            _ => {}
        }
    }
    handle.drain();
    let _ = handle.wait();
    drop(reply_rx);
    let _ = collector.join();

    latencies.sort_unstable();
    Ok(LoadgenReport {
        schema_version: SCHEMA_VERSION,
        seed: config.seed,
        sent: config.requests as u64,
        priced,
        shed,
        rejected,
        errored,
        ticks,
        faults,
        quantiles: LatencyQuantiles {
            p50_micros: quantile(&latencies, 0.50),
            p99_micros: quantile(&latencies, 0.99),
            p999_micros: quantile(&latencies, 0.999),
        },
        achieved_rate_per_s: config.requests as f64 / elapsed.as_secs_f64().max(1e-9),
        worst_rung,
    })
}

// ---------------------------------------------------------------------
// Abuser mode (`cds-harness loadgen --abuser`)
// ---------------------------------------------------------------------

/// Abuser tenant quota for `--abuser` runs, tokens per second. The flood
/// offers at least [`ABUSE_MIN_OFFERED_FACTOR`] times this.
const ABUSE_QUOTA_RATE: f64 = 100.0;

/// Abuser tenant bucket capacity for `--abuser` runs.
const ABUSE_QUOTA_BURST: f64 = 8.0;

/// Abuser tenant in-flight quota for `--abuser` runs.
const ABUSE_QUOTA_INFLIGHT: u64 = 8;

/// Pipelined quotes the abuser connection floods.
const ABUSE_FLOOD_REQUESTS: u64 = 3_000;

/// The flood must offer at least this multiple of the abuser's quota
/// rate, or the run was too slow to prove anything.
const ABUSE_MIN_OFFERED_FACTOR: f64 = 10.0;

/// Sequential victim round-trips per phase (solo, then under flood).
const ABUSE_VICTIM_TRIPS: usize = 150;

/// Slowloris connections opened against the reaper.
const ABUSE_SLOWLORIS_CONNS: usize = 2;

/// Wire-fuzz corpus size for the post-flood accounting check.
const ABUSE_FUZZ_LINES: usize = 200;

/// Request-line byte cap for `--abuser` runs (small enough that the
/// fuzz corpus exercises the oversize path).
const ABUSE_MAX_LINE: usize = 256;

/// Victim p99 under flood must stay within this factor of its solo p99…
const ABUSE_P99_FACTOR: f64 = 50.0;

/// …with an absolute floor so a microsecond-scale solo p99 doesn't turn
/// scheduler jitter into a gate failure.
const ABUSE_P99_FLOOR_MICROS: u64 = 10_000;

/// Outcome of one `--abuser` hostile-client run. Violations are the
/// gate: an empty list is a pass, anything else exits 1.
#[derive(Debug, Clone)]
pub struct AbuseReport {
    /// Schema version of the serialised form ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Seed the run derived from.
    pub seed: u64,
    /// Quotes the abuser tenant pipelined.
    pub abuser_sent: u64,
    /// Abuser quotes that came back priced (bounded by its quota).
    pub abuser_priced: u64,
    /// Abuser quotes throttled by the tenant bucket or quota.
    pub abuser_throttled: u64,
    /// Abuser quotes shed or rejected by the global ladder.
    pub abuser_shed: u64,
    /// Rate the flood actually offered, requests per second.
    pub abuser_offered_rate_per_s: f64,
    /// The quota rate the abuser tenant was registered with.
    pub abuser_quota_rate_per_s: f64,
    /// Victim round-trips per phase.
    pub victim_trips: u64,
    /// `THROTTLE` replies the victim saw (must be zero).
    pub victim_throttled: u64,
    /// `SHED`/`REJECT` replies the victim retried through.
    pub victim_sheds: u64,
    /// Victim p99 round-trip with the server to itself, microseconds.
    pub victim_solo_p99_micros: u64,
    /// Victim p99 round-trip while the abuser floods, microseconds.
    pub victim_flood_p99_micros: u64,
    /// Slowloris connections opened.
    pub slowloris_opened: u64,
    /// Slowloris connections the idle reaper closed.
    pub slowloris_reaped: u64,
    /// Fuzz lines that owed a reply.
    pub fuzz_errs_expected: u64,
    /// Typed `ERR` replies the fuzz corpus actually got.
    pub fuzz_errs_got: u64,
    /// Gate verdicts; empty means the bulkheads held.
    pub violations: Vec<String>,
}

impl AbuseReport {
    /// The gate: true when no isolation property was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("abuser_sent", Json::Number(self.abuser_sent as f64)),
            ("abuser_priced", Json::Number(self.abuser_priced as f64)),
            ("abuser_throttled", Json::Number(self.abuser_throttled as f64)),
            ("abuser_shed", Json::Number(self.abuser_shed as f64)),
            ("abuser_offered_rate_per_s", Json::Number(self.abuser_offered_rate_per_s)),
            ("abuser_quota_rate_per_s", Json::Number(self.abuser_quota_rate_per_s)),
            ("victim_trips", Json::Number(self.victim_trips as f64)),
            ("victim_throttled", Json::Number(self.victim_throttled as f64)),
            ("victim_sheds", Json::Number(self.victim_sheds as f64)),
            ("victim_solo_p99_micros", Json::Number(self.victim_solo_p99_micros as f64)),
            ("victim_flood_p99_micros", Json::Number(self.victim_flood_p99_micros as f64)),
            ("slowloris_opened", Json::Number(self.slowloris_opened as f64)),
            ("slowloris_reaped", Json::Number(self.slowloris_reaped as f64)),
            ("fuzz_errs_expected", Json::Number(self.fuzz_errs_expected as f64)),
            ("fuzz_errs_got", Json::Number(self.fuzz_errs_got as f64)),
            (
                "violations",
                Json::Array(self.violations.iter().map(|v| Json::Str(v.clone())).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn pretty(&self) -> String {
        self.to_json().pretty()
    }
}

/// A blocking line-protocol client for the closed-loop phases.
pub(crate) struct LineClient {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: TcpStream,
}

impl LineClient {
    pub(crate) fn connect(addr: SocketAddr) -> Result<LineClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(LineClient { reader: BufReader::new(stream), writer })
    }

    pub(crate) fn roundtrip(&mut self, line: &str) -> Result<Response, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        self.recv()
    }

    pub(crate) fn recv(&mut self) -> Result<Response, String> {
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
/// many of each backoff reply were absorbed along the way.
pub(crate) struct Trip {
    pub(crate) bits: u64,
    pub(crate) micros: u64,
    pub(crate) throttles: u64,
    pub(crate) sheds: u64,
}

pub(crate) fn compliant_trip(client: &mut LineClient, id: u64) -> Result<Trip, String> {
    let line = format!("QUOTE {id} {} Q {}", f64_to_token(5.0), f64_to_token(0.4));
    let (mut throttles, mut sheds) = (0u64, 0u64);
    for _ in 0..200 {
        let t0 = Instant::now();
        match client.roundtrip(&line)? {
            Response::Quote(q) => {
                return Ok(Trip {
                    bits: q.spread_bps.to_bits(),
                    micros: t0.elapsed().as_micros() as u64,
                    throttles,
                    sheds,
                })
            }
            Response::Shed { retry_after_ms, .. } | Response::Reject { retry_after_ms, .. } => {
                sheds += 1;
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
pub(crate) struct FloodOutcome {
    pub(crate) priced: u64,
    pub(crate) throttled: u64,
    pub(crate) shed: u64,
    pub(crate) retry_hint_positive: bool,
    pub(crate) duration: Duration,
}

/// Bind `tenant`, pipeline `requests` quotes without pacing, and drain
/// replies on a second thread until the trailing `PING` sentinel
/// returns. The drainer keeps the socket from exerting backpressure so
/// the flood is as hostile as a single connection can be.
pub(crate) fn flood_as_tenant(
    addr: SocketAddr,
    tenant: &str,
    requests: u64,
) -> Result<FloodOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);

    writeln!(writer, "TENANT {tenant}").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
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
        writeln!(writer, "QUOTE {id} {} Q {}", f64_to_token(5.0), f64_to_token(0.4))
            .map_err(|e| e.to_string())?;
    }
    writeln!(writer, "PING").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let (priced, throttled, shed, retry_hint_positive) =
        drainer.join().map_err(|_| "abuser reply drainer panicked".to_string())?;
    Ok(FloodOutcome { priced, throttled, shed, retry_hint_positive, duration: started.elapsed() })
}

/// Trickle one byte at a time without ever completing a line; returns
/// true when the server closes the connection (the reaper fired) inside
/// `window`.
pub(crate) fn slowloris_probe(addr: SocketAddr, window: Duration) -> bool {
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

/// Drive the hostile-client run: a quota'd abuser tenant flooding at
/// ≥10x its rate, slowloris trickles against the idle reaper, a seeded
/// wire-fuzz corpus with 1:1 reply accounting, and a compliant victim
/// whose p99 must stay within a fixed factor of its solo value.
pub fn run_abuse(seed: u64) -> Result<AbuseReport, ServerError> {
    let io_err = |msg: String| ServerError::from(std::io::Error::other(msg));
    let abuser_limits = TenantLimits {
        rate_per_s: ABUSE_QUOTA_RATE,
        burst: ABUSE_QUOTA_BURST,
        max_inflight: ABUSE_QUOTA_INFLIGHT,
        weight: 1,
    };
    let handle = serve(ServerConfig {
        shards: 2,
        seed,
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(250),
        max_line_bytes: ABUSE_MAX_LINE,
        tenant_overrides: vec![("abuser".to_string(), abuser_limits)],
        ..Default::default()
    })?;
    let addr = handle.addr();
    let want = CpuCdsEngine::new(&MarketData::paper_workload(seed))
        .price(&CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4))
        .spread_bps
        .to_bits();
    let mut violations = Vec::new();

    // Slowloris trickles run across the whole scenario.
    let slowloris: Vec<_> = (0..ABUSE_SLOWLORIS_CONNS)
        .map(|_| std::thread::spawn(move || slowloris_probe(addr, Duration::from_secs(3))))
        .collect();

    // Victim solo phase: the latency baseline the flood is judged by.
    let mut victim = LineClient::connect(addr).map_err(io_err)?;
    let (mut victim_throttled, mut victim_sheds) = (0u64, 0u64);
    let mut mismatches = 0u64;
    let mut solo = Vec::with_capacity(ABUSE_VICTIM_TRIPS);
    for id in 0..ABUSE_VICTIM_TRIPS as u64 {
        let trip = compliant_trip(&mut victim, id).map_err(io_err)?;
        victim_throttled += trip.throttles;
        victim_sheds += trip.sheds;
        mismatches += u64::from(trip.bits != want);
        solo.push(trip.micros);
    }
    solo.sort_unstable();
    let victim_solo_p99 = quantile(&solo, 0.99);

    // Flood phase: abuser pipelines at full blast while the victim
    // keeps doing compliant round-trips on its own connection.
    let flooder = std::thread::spawn(move || flood_as_tenant(addr, "abuser", ABUSE_FLOOD_REQUESTS));
    std::thread::sleep(Duration::from_millis(5));
    let mut under_flood = Vec::with_capacity(ABUSE_VICTIM_TRIPS);
    for id in 0..ABUSE_VICTIM_TRIPS as u64 {
        let trip = compliant_trip(&mut victim, 10_000 + id).map_err(io_err)?;
        victim_throttled += trip.throttles;
        victim_sheds += trip.sheds;
        mismatches += u64::from(trip.bits != want);
        under_flood.push(trip.micros);
    }
    under_flood.sort_unstable();
    let victim_flood_p99 = quantile(&under_flood, 0.99);
    let flood = flooder
        .join()
        .map_err(|_| io_err("abuser flood thread panicked".to_string()))?
        .map_err(io_err)?;

    // Wire-fuzz phase on a fresh connection: 1:1 reply accounting.
    let mut fuzzer = LineClient::connect(addr).map_err(io_err)?;
    let corpus = fuzz_lines(seed, ABUSE_FUZZ_LINES, ABUSE_MAX_LINE);
    let fuzz_errs_expected = corpus.iter().filter(|l| l.expect_reply).count() as u64;
    for line in &corpus {
        fuzzer.writer.write_all(&line.bytes).map_err(|e| io_err(e.to_string()))?;
    }
    writeln!(fuzzer.writer, "PING").map_err(|e| io_err(e.to_string()))?;
    fuzzer.writer.flush().map_err(|e| io_err(e.to_string()))?;
    let mut fuzz_errs_got = 0u64;
    loop {
        match fuzzer.recv().map_err(io_err)? {
            Response::Pong => break,
            Response::Error { .. } => fuzz_errs_got += 1,
            other => {
                violations.push(format!("fuzz line produced a non-ERR reply: {other:?}"));
            }
        }
    }
    // The fuzzed connection must still price, bit-identically.
    let post_fuzz = compliant_trip(&mut fuzzer, 50_000).map_err(io_err)?;
    mismatches += u64::from(post_fuzz.bits != want);

    // Join the trickles (each resolves as soon as the reaper closes it
    // or its 3s window lapses), then take the server down.
    let slowloris_reaped =
        slowloris.into_iter().map(|t| t.join().unwrap_or(false)).filter(|&reaped| reaped).count()
            as u64;
    if slowloris_reaped < ABUSE_SLOWLORIS_CONNS as u64 {
        violations.push(format!(
            "only {slowloris_reaped}/{ABUSE_SLOWLORIS_CONNS} slowloris connections were reaped"
        ));
    }
    handle.drain();
    let _ = handle.wait();

    // Assemble the gate.
    let dur_s = flood.duration.as_secs_f64().max(1e-9);
    let offered = ABUSE_FLOOD_REQUESTS as f64 / dur_s;
    let quota_ceiling = 2.0 * (ABUSE_QUOTA_BURST + ABUSE_QUOTA_RATE * dur_s) + 16.0;
    if offered < ABUSE_MIN_OFFERED_FACTOR * ABUSE_QUOTA_RATE {
        violations.push(format!(
            "flood offered only {offered:.0}/s, below {:.0}x the {ABUSE_QUOTA_RATE:.0}/s quota — run proves nothing",
            ABUSE_MIN_OFFERED_FACTOR
        ));
    }
    if flood.throttled == 0 {
        violations.push("abuser flood was never throttled".to_string());
    }
    if !flood.retry_hint_positive {
        violations.push("no THROTTLE carried a positive retry_after_ms hint".to_string());
    }
    if (flood.priced as f64) > quota_ceiling {
        violations.push(format!(
            "abuser had {} quotes priced, above the quota ceiling of {quota_ceiling:.0}",
            flood.priced
        ));
    }
    if victim_throttled > 0 {
        violations.push(format!(
            "victim (default tenant) saw {victim_throttled} THROTTLE replies — bulkhead leaked"
        ));
    }
    if mismatches > 0 {
        violations.push(format!("{mismatches} victim spread(s) diverged from the CPU reference"));
    }
    let p99_ceiling =
        ((victim_solo_p99 as f64 * ABUSE_P99_FACTOR) as u64).max(ABUSE_P99_FLOOR_MICROS);
    if victim_flood_p99 > p99_ceiling {
        violations.push(format!(
            "victim p99 under flood {victim_flood_p99}us exceeds {p99_ceiling}us ({}x solo p99 of {victim_solo_p99}us)",
            ABUSE_P99_FACTOR
        ));
    }
    if fuzz_errs_got != fuzz_errs_expected {
        violations.push(format!(
            "fuzz reply accounting is not 1:1: expected {fuzz_errs_expected} ERRs, got {fuzz_errs_got}"
        ));
    }

    Ok(AbuseReport {
        schema_version: SCHEMA_VERSION,
        seed,
        abuser_sent: ABUSE_FLOOD_REQUESTS,
        abuser_priced: flood.priced,
        abuser_throttled: flood.throttled,
        abuser_shed: flood.shed,
        abuser_offered_rate_per_s: offered,
        abuser_quota_rate_per_s: ABUSE_QUOTA_RATE,
        victim_trips: ABUSE_VICTIM_TRIPS as u64,
        victim_throttled,
        victim_sheds,
        victim_solo_p99_micros: victim_solo_p99,
        victim_flood_p99_micros: victim_flood_p99,
        slowloris_opened: ABUSE_SLOWLORIS_CONNS as u64,
        slowloris_reaped,
        fuzz_errs_expected,
        fuzz_errs_got,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut state = 7;
        let mut counts = [0usize; PORTFOLIO_SHAPES];
        for _ in 0..4000 {
            counts[zipf_rank(&mut state)] += 1;
        }
        assert!(counts[0] > counts[PORTFOLIO_SHAPES - 1] * 4, "{counts:?}");
    }

    #[test]
    fn small_run_answers_every_request() {
        let report =
            run(&LoadgenConfig { requests: 60, rate_per_s: 4_000.0, ..Default::default() })
                .expect("loadgen run");
        assert_eq!(report.answered(), report.sent, "{report:?}");
        assert!(report.priced > 0, "{report:?}");
        assert!(report.faults == 2, "{report:?}");
    }

    #[test]
    fn slo_gate_flags_each_ceiling() {
        let report = LoadgenReport {
            schema_version: SCHEMA_VERSION,
            seed: 1,
            sent: 100,
            priced: 40,
            shed: 10,
            rejected: 0,
            errored: 0,
            ticks: 0,
            faults: 0,
            quantiles: LatencyQuantiles { p50_micros: 10, p99_micros: 5_000, p999_micros: 9_000 },
            achieved_rate_per_s: 100.0,
            worst_rung: 1,
        };
        let baseline = crate::gate::parse_baseline(
            &GATE,
            r#"{"schema_version": 1, "p50_micros_max": 100, "p99_micros_max": 1000,
                "p999_micros_max": 10000, "min_answer_fraction": 0.9,
                "min_priced_fraction": 0.3}"#,
        )
        .expect("valid SLO baseline");
        let problems = crate::gate::evaluate(&GATE, &baseline, &report.to_json());
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("p99"), "{problems:?}");
        assert!(problems[1].contains("answered_fraction"), "{problems:?}");
    }
}
