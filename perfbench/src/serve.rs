//! `serve`: an in-process `cds_server::serve` with 2 shards, a WAL
//! journal on local disk at the default cadence and the default tenant,
//! driven by an open-loop client over one TCP connection (one sender
//! thread, one reader thread).
//!
//! The sender follows a seeded Poisson schedule of high-priority
//! `QUOTE`s, zipf-drawn over 256 contract shapes; 1 request in 100 is a
//! value-changing `TICKPT` at a random knot. Every request is timed from
//! its *scheduled* send time, so a stall also delays the requests queued
//! behind it, and the generator's own lateness is reported. Latency
//! metrics come from the nominal rate; `serve.max_rps` climbs a fixed
//! geometric ladder of offered rates. Each phase (the nominal run, each
//! ladder rung) gets a freshly booted server and journal: the checkpoint
//! sidecar grows with every completion the server has journalled, so a
//! shared server would make each phase depend on the ones before it.
//! After timing, every reply is checked bit for bit against the scalar
//! price under the epoch it reports.

use crate::stats::{median, percentile, Report};
use crate::trace::Tracer;
use crate::Args;
use cds_cpu::CpuCdsEngine;
use cds_engine::incremental::CurveKind;
use cds_quant::curve::Curve;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::fair::FairQueue;
use cds_server::proto::{
    format_request, format_response, parse_request, parse_response, QuoteReply, StatsReply,
};
use cds_server::tenant::{TenantLimits, TenantRegistry};
use cds_server::wal::{sidecar_path, WalWriter};
use cds_server::{
    serve, CurveBook, Priority, QuoteLedger, QuoteRequest, Request, Response, ServerConfig,
    ServerHandle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Offered quote rate for the latency metrics: about half the shed knee
/// of a freshly booted server with its journal on (~1,700/s on 2 vCPUs
/// and virtio ext4, where each checkpoint's three fsyncs stall the
/// journal lock for milliseconds).
const NOMINAL_RPS: f64 = 800.0;
/// Contract shapes: 16 maturities x 4 frequencies x 4 recoveries.
const SHAPES: usize = 256;
const ZIPF_S: f64 = 1.1;
/// One request in this many is a `TICKPT`.
const TICK_EVERY: u64 = 100;
/// `serve.max_rps` limits: p99 latency and the share of quotes not priced.
/// Checkpoint fsyncs put the journalled p99 at 2-7 ms at every rate, so
/// a 1 ms limit would never pass.
const P99_LIMIT_US: f64 = 5000.0;
const UNPRICED_LIMIT: f64 = 0.001;
/// A run is invalid when the generator's p99 lateness at the nominal
/// rate exceeds this share of the mean gap between requests: the load
/// it offered was then not the load it planned.
const GEN_LATE_SHARE: f64 = 0.25;
/// Ladder: `LADDER_START * LADDER_STEP^k` for `k = 0..LADDER_RUNGS`.
const LADDER_START: f64 = 500.0;
const LADDER_STEP: f64 = 1.090_507_732_665_257_7; // 2^(1/8)
const LADDER_RUNGS: usize = 40;
/// How long to wait for stragglers after a phase's last send.
const REPLY_GRACE: Duration = Duration::from_secs(3);

fn shapes() -> Vec<CdsOption> {
    let mut out = Vec::with_capacity(SHAPES);
    for m in 0..16 {
        for &frequency in &PaymentFrequency::ALL {
            for recovery in [0.25, 0.35, 0.4, 0.5] {
                let maturity = 1.0 + 0.6 * m as f64;
                out.push(CdsOption { maturity, frequency, recovery_rate: recovery });
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    Priced { epoch: u64, bits: u64 },
    Shed,
    Rejected,
    Throttled,
    Error,
}

#[derive(Debug, Clone)]
struct QuoteRec {
    phase: usize,
    shape: usize,
    due_ns: u64,
    recv_ns: u64,
    outcome: Outcome,
}

#[derive(Debug, Clone)]
struct TickRec {
    phase: usize,
    curve: CurveKind,
    knot: usize,
    value: f64,
    due_ns: u64,
    recv_ns: u64,
    ack: Option<(u64, bool)>,
    failed: bool,
}

/// One line to send at `due_ns` (client clock).
struct Planned {
    due_ns: u64,
    line: Vec<u8>,
}

/// What one phase measured.
struct PhaseResult {
    rate: f64,
    quotes: usize,
    priced: usize,
    latency_us: Vec<f64>,
    tickpt_us: Vec<f64>,
    late_us: Vec<f64>,
    send_ns: Vec<f64>,
    duration_s: f64,
    stats: StatsReply,
    worst_rung: u8,
}

impl PhaseResult {
    fn unpriced_frac(&self) -> f64 {
        (self.quotes - self.priced) as f64 / self.quotes.max(1) as f64
    }

    fn passes(&self) -> bool {
        let p99 = percentile(&mut self.latency_us.clone(), 99.0).unwrap_or(f64::INFINITY);
        self.priced > 0 && self.unpriced_frac() <= UNPRICED_LIMIT && p99 <= P99_LIMIT_US
    }
}

/// One booted server plus the client's connection to it.
struct Conn {
    handle: ServerHandle,
    writer: TcpStream,
    replies: Receiver<(u64, String)>,
    reader: thread::JoinHandle<()>,
}

/// The seeded client: request plans and every reply, across phases.
struct Client {
    t0: Instant,
    rng: StdRng,
    zipf_cdf: Vec<f64>,
    zipf_shape: Vec<usize>,
    shapes: Vec<CdsOption>,
    boot_market: MarketData<f64>,
    requests: u64,
    quotes: Vec<QuoteRec>,
    ticks: Vec<TickRec>,
    unexpected: u64,
    boot_s: Vec<f64>,
    journal: PathBuf,
}

impl Client {
    fn new(args: &Args) -> Client {
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5e7e_0000_0000_0042);
        let mut zipf_cdf = Vec::with_capacity(SHAPES);
        let mut acc = 0.0;
        for r in 1..=SHAPES {
            acc += 1.0 / (r as f64).powf(ZIPF_S);
            zipf_cdf.push(acc);
        }
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        // Seeded rank -> shape permutation (Fisher-Yates).
        let mut zipf_shape: Vec<usize> = (0..SHAPES).collect();
        for i in (1..SHAPES).rev() {
            zipf_shape.swap(i, rng.gen_range(0..=i));
        }
        Client {
            t0: Instant::now(),
            rng,
            zipf_cdf,
            zipf_shape,
            shapes: shapes(),
            boot_market: MarketData::paper_workload(args.seed),
            requests: 0,
            quotes: Vec::new(),
            ticks: Vec::new(),
            unexpected: 0,
            boot_s: Vec::new(),
            journal: args.out_dir.join(format!("serve-{}-{}.wal", args.seed, std::process::id())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Plan one phase: Poisson arrivals at `rate` for `duration`. The
    /// server boots at the seed's market, so `TICKPT` values start from
    /// it in every phase.
    fn plan(&mut self, phase: usize, rate: f64, duration: Duration) -> Vec<Planned> {
        let mut interest: Vec<f64> =
            self.boot_market.interest.points().iter().map(|p| p.value).collect();
        let mut hazard: Vec<f64> =
            self.boot_market.hazard.points().iter().map(|p| p.value).collect();
        let start = self.now_ns() + 2_000_000;
        let span_ns = duration.as_nanos() as f64;
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate * 1e9;
            if t >= span_ns {
                break;
            }
            let due_ns = start + t as u64;
            self.requests += 1;
            let request = if self.requests.is_multiple_of(TICK_EVERY) {
                let curve = if self.rng.gen_range(0..2) == 0 {
                    CurveKind::Interest
                } else {
                    CurveKind::Hazard
                };
                let values = match curve {
                    CurveKind::Interest => &mut interest,
                    CurveKind::Hazard => &mut hazard,
                };
                let knot = self.rng.gen_range(0..values.len());
                // A relative move of 1e-7..1e-6 always changes the bits.
                values[knot] *= 1.0 + self.rng.gen_range(1e-7..1e-6);
                let value = values[knot];
                let rec = TickRec {
                    phase,
                    curve,
                    knot,
                    value,
                    due_ns,
                    recv_ns: 0,
                    ack: None,
                    failed: false,
                };
                self.ticks.push(rec);
                Request::TickPoint { curve, knot, value }
            } else {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                let rank = self.zipf_cdf.partition_point(|&c| c < u).min(SHAPES - 1);
                let shape = self.zipf_shape[rank];
                let option = self.shapes[shape];
                let id = self.quotes.len() as u64 + 1;
                self.quotes.push(QuoteRec {
                    phase,
                    shape,
                    due_ns,
                    recv_ns: 0,
                    outcome: Outcome::Pending,
                });
                Request::Quote(QuoteRequest {
                    id,
                    maturity: option.maturity,
                    frequency: option.frequency,
                    recovery: option.recovery_rate,
                    priority: Priority::High,
                })
            };
            let mut line = format_request(&request).into_bytes();
            line.push(b'\n');
            out.push(Planned { due_ns, line });
        }
        out
    }

    /// Boot a server (journal create included), connect and round-trip a
    /// `PING`; the time taken is one `setup_s` sample.
    fn boot(&mut self, args: &Args) -> Result<Conn, String> {
        remove_journal(&self.journal);
        let t = Instant::now();
        let config = ServerConfig {
            shards: SHARDS,
            seed: args.seed,
            journal: Some(self.journal.clone()),
            ..ServerConfig::default()
        };
        let handle = serve(config).map_err(|e| format!("boot: {e}"))?;
        let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let mut lines = BufReader::new(stream);
        writer.write_all(b"PING\n").map_err(|e| format!("ping: {e}"))?;
        let mut pong = String::new();
        lines.read_line(&mut pong).map_err(|e| format!("pong: {e}"))?;
        if pong.trim() != "PONG" {
            return Err(format!("expected PONG, got `{}`", pong.trim()));
        }
        self.boot_s.push(t.elapsed().as_secs_f64());
        let t0 = self.t0;
        let (tx, replies) = channel();
        let reader = thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = t0.elapsed().as_nanos() as u64;
                        if tx.send((at, line.trim_end().to_string())).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        Ok(Conn { handle, writer, replies, reader })
    }

    /// Run one phase on a fresh server: send the plan on schedule from a
    /// sender thread while this thread matches replies and polls the
    /// ladder rung; then read `STATS` and shut the server down.
    fn phase(
        &mut self,
        args: &Args,
        phase: usize,
        rate: f64,
        duration: Duration,
        timed_sends: bool,
    ) -> Result<PhaseResult, String> {
        let mut conn = self.boot(args)?;
        let planned = self.plan(phase, rate, duration);
        let expected = planned.len();
        let t0 = self.t0;
        let mut writer = conn.writer.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let sender = thread::spawn(move || -> Result<(Vec<f64>, Vec<f64>), String> {
            let mut late_us = Vec::with_capacity(planned.len());
            let mut send_ns = Vec::new();
            for p in &planned {
                wait_until(t0, p.due_ns);
                let sent = t0.elapsed().as_nanos() as u64;
                writer.write_all(&p.line).map_err(|e| format!("send: {e}"))?;
                if timed_sends {
                    send_ns.push((t0.elapsed().as_nanos() as u64 - sent) as f64);
                }
                late_us.push(sent.saturating_sub(p.due_ns) as f64 / 1e3);
            }
            Ok((late_us, send_ns))
        });
        let mut answered = 0usize;
        let mut worst_rung = 0u8;
        let mut last_progress = Instant::now();
        while answered < expected {
            worst_rung = worst_rung.max(conn.handle.stats().rung);
            match conn.replies.recv_timeout(Duration::from_millis(5)) {
                Ok((at, line)) => {
                    answered += usize::from(self.absorb(phase, at, &line).is_none());
                    last_progress = Instant::now();
                }
                Err(RecvTimeoutError::Timeout) => {
                    if sender.is_finished() && last_progress.elapsed() > REPLY_GRACE {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let sent = sender.join().map_err(|_| "sender thread panicked".to_string())?;
        let stats = self.read_stats(phase, &mut conn);
        let _ = conn.writer.shutdown(Shutdown::Both);
        let _ = conn.reader.join();
        conn.handle.drain();
        conn.handle.wait();
        remove_journal(&self.journal);
        let (late_us, send_ns) = sent?;
        let stats = stats?;

        let latency_us: Vec<f64> = self
            .quotes
            .iter()
            .filter(|q| q.phase == phase && matches!(q.outcome, Outcome::Priced { .. }))
            .map(|q| q.recv_ns.saturating_sub(q.due_ns) as f64 / 1e3)
            .collect();
        let tickpt_us = self
            .ticks
            .iter()
            .filter(|t| t.phase == phase && t.ack.is_some())
            .map(|t| t.recv_ns.saturating_sub(t.due_ns) as f64 / 1e3)
            .collect();
        Ok(PhaseResult {
            rate,
            quotes: self.quotes.iter().filter(|q| q.phase == phase).count(),
            priced: latency_us.len(),
            latency_us,
            tickpt_us,
            late_us,
            send_ns,
            duration_s: duration.as_secs_f64(),
            stats,
            worst_rung,
        })
    }

    /// Match one reply line of `phase`. Returns the `STATS` reply if the
    /// line was one, `None` for every other line.
    fn absorb(&mut self, phase: usize, at: u64, line: &str) -> Option<StatsReply> {
        let quote_outcome = match parse_response(line) {
            Ok(Response::Quote(r)) => {
                (r.id, Outcome::Priced { epoch: r.epoch, bits: r.spread_bps.to_bits() })
            }
            Ok(Response::Shed { id, .. }) => (id, Outcome::Shed),
            Ok(Response::Reject { id, .. }) => (id, Outcome::Rejected),
            Ok(Response::Throttle { id, .. }) => (id, Outcome::Throttled),
            Ok(Response::Error { id: Some(id), .. }) => (id, Outcome::Error),
            Ok(Response::Stats(s)) => return Some(s),
            Ok(r @ (Response::TickPointAck { .. } | Response::Error { id: None, .. })) => {
                // Acks come back in send order on the one connection.
                match self
                    .ticks
                    .iter_mut()
                    .find(|t| t.phase == phase && t.ack.is_none() && !t.failed)
                {
                    Some(t) => {
                        t.recv_ns = at;
                        match r {
                            Response::TickPointAck { epoch, zero_delta } => {
                                t.ack = Some((epoch, zero_delta))
                            }
                            _ => t.failed = true,
                        }
                    }
                    None => self.unexpected += 1,
                }
                return None;
            }
            _ => {
                self.unexpected += 1;
                return None;
            }
        };
        let (id, outcome) = quote_outcome;
        match self.quotes.get_mut((id as usize).wrapping_sub(1)) {
            Some(q) if q.phase == phase && q.outcome == Outcome::Pending => {
                q.outcome = outcome;
                q.recv_ns = at;
            }
            _ => self.unexpected += 1,
        }
        None
    }

    /// Ask the live server for `STATS` over the wire.
    fn read_stats(&mut self, phase: usize, conn: &mut Conn) -> Result<StatsReply, String> {
        conn.writer.write_all(b"STATS\n").map_err(|e| format!("send STATS: {e}"))?;
        let deadline = Instant::now() + REPLY_GRACE;
        while Instant::now() < deadline {
            if let Ok((at, line)) = conn.replies.recv_timeout(Duration::from_millis(20)) {
                if let Some(stats) = self.absorb(phase, at, &line) {
                    return Ok(stats);
                }
            }
        }
        Err("no STATS reply".to_string())
    }
}

/// Sleep until shortly before `due_ns`, then yield until it arrives.
fn wait_until(t0: Instant, due_ns: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let rem = due_ns - now;
        if rem > 80_000 {
            thread::sleep(Duration::from_nanos(rem - 60_000));
        } else {
            thread::yield_now();
        }
    }
}

fn remove_journal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(sidecar_path(path));
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut client = Client::new(args);
    let secs = args.seconds.as_secs_f64();
    let rung_time = Duration::from_secs_f64(secs * 0.05);
    report.input("shards", SHARDS);
    report.input("connections", 1);
    report.input("client_threads", 2);
    report.input("shapes", SHAPES);
    report.input("zipf_s", ZIPF_S);
    report.input("tickpt_every", TICK_EVERY);
    report.input("nominal_rps", NOMINAL_RPS);
    report.input(
        "ladder",
        format!("{LADDER_START} * 2^(k/8), {:.2}s per rung", rung_time.as_secs_f64()),
    );
    report.input("limits", format!("p99<={P99_LIMIT_US}us unpriced<={UNPRICED_LIMIT}"));

    // Phase 0 (and 1 when tracing) run the nominal rate; 2.. the ladder.
    let nominal_time = Duration::from_secs_f64(secs * if args.trace { 0.2 } else { 0.4 });
    let nominal = client.phase(args, 0, NOMINAL_RPS, nominal_time, false)?;
    let traced = if args.trace {
        Some(client.phase(args, 1, NOMINAL_RPS, nominal_time, true)?)
    } else {
        None
    };
    let mut phases = vec![];
    let mut best: Option<usize> = None;
    for k in 0..LADDER_RUNGS {
        let rate = LADDER_START * LADDER_STEP.powi(k as i32);
        let r = client.phase(args, 2 + k, rate, rung_time, false)?;
        let passed = r.passes();
        phases.push(r);
        if !passed {
            break;
        }
        best = Some(k);
    }

    // Check every reply, after timing.
    let check = verify(args, &client);
    let nominal_quotes = client.quotes.iter().filter(|q| q.phase <= 1).count() as u64;
    let nominal_unpriced = client
        .quotes
        .iter()
        .filter(|q| q.phase <= 1 && !matches!(q.outcome, Outcome::Priced { .. }))
        .count() as u64;
    let unanswered = client.quotes.iter().filter(|q| q.outcome == Outcome::Pending).count() as u64
        + client.ticks.iter().filter(|t| t.ack.is_none() && !t.failed).count() as u64;
    let tick_failures = client.ticks.iter().filter(|t| t.failed).count() as u64;
    report.attempted = (client.quotes.len() + client.ticks.len()) as u64;
    report.failed =
        nominal_unpriced + check.wrong_bits + check.bad_acks + tick_failures + unanswered;
    report.correct = check.wrong_bits == 0 && check.bad_acks == 0 && client.unexpected == 0;
    if nominal_unpriced > 0 {
        report.problem(format!(
            "{nominal_unpriced} of {nominal_quotes} nominal-rate quotes were not priced"
        ));
    }
    if check.wrong_bits > 0 {
        report.problem(format!(
            "{} of {} priced replies have wrong bits",
            check.wrong_bits, check.priced
        ));
    }
    if check.bad_acks + tick_failures > 0 {
        report.problem(format!(
            "{} TICKPT acks failed or out of epoch order",
            check.bad_acks + tick_failures
        ));
    }
    if unanswered + client.unexpected > 0 {
        report.problem(format!(
            "{unanswered} requests unanswered, {} unexpected replies",
            client.unexpected
        ));
    }
    report.input("requests", report.attempted);
    report.input("server_boots", client.boot_s.len());
    report.input("ladder_rungs_run", phases.len());
    for r in &phases {
        let mut lat = r.latency_us.clone();
        report.input(
            &format!("rung_{:.0}", r.rate),
            format!(
                "quotes={} unpriced={:.4} p50_us={:.0} p99_us={:.0}",
                r.quotes,
                r.unpriced_frac(),
                percentile(&mut lat, 50.0).unwrap_or(0.0),
                percentile(&mut lat, 99.0).unwrap_or(0.0)
            ),
        );
    }
    let late_p99 = percentile(&mut nominal.late_us.clone(), 99.0).unwrap_or(0.0);
    report.input("gen_late_p99_us", late_p99);
    let late_limit_us = GEN_LATE_SHARE * 1e6 / NOMINAL_RPS;
    if late_p99 > late_limit_us {
        report.correct = false;
        report.problem(format!(
            "invalid run: generator p99 lateness {late_p99:.0} us exceeds {late_limit_us:.0} us"
        ));
    }
    // The highest passing rung, reported as the quote rate it delivered.
    let max_rps = best.map_or(0.0, |k| phases[k].priced as f64 / phases[k].duration_s);
    report.input("max_rps_rung", best.map_or(0.0, |k| phases[k].rate));

    if let Some(mut traced) = traced {
        let layers = replay(args, &client, &traced)?;
        let n = traced.priced;
        let p50_traced = median(&mut traced.latency_us).unwrap_or(0.0);
        let p50_untraced = median(&mut nominal.latency_us.clone()).unwrap_or(1.0);
        for (name, value, unit, samples) in layers.metrics {
            report.metric(name, value, unit, samples);
        }
        let all: Vec<&PhaseResult> = [&nominal, &traced].into_iter().chain(&phases).collect();
        let sum = |f: fn(&StatsReply) -> u64| all.iter().map(|r| f(&r.stats)).sum::<u64>();
        let accepted = sum(|s| s.accepted);
        let quotes = client.quotes.len();
        let worst_rung = all.iter().map(|r| r.worst_rung.max(r.stats.rung)).max().unwrap_or(0);
        report.metric("serve.unattributed_us", p50_traced - layers.per_quote_us, "us", n);
        report.metric(
            "serve.shed_frac",
            sum(|s| s.shed) as f64 / quotes.max(1) as f64,
            "ratio",
            quotes,
        );
        report.metric(
            "serve.hedge_frac",
            sum(|s| s.hedges) as f64 / accepted.max(1) as f64,
            "ratio",
            accepted as usize,
        );
        report.metric(
            "serve.retry_frac",
            sum(|s| s.retries) as f64 / accepted.max(1) as f64,
            "ratio",
            accepted as usize,
        );
        report.metric(
            "serve.deadline_misses",
            sum(|s| s.deadline_misses) as f64,
            "count",
            accepted as usize,
        );
        report.metric("serve.worst_rung", f64::from(worst_rung), "rung", all.len());
        report.metric("gen.late_p99_us", late_p99, "us", nominal.late_us.len());
        report.metric(
            "trace.overhead_frac",
            (p50_traced - p50_untraced) / p50_untraced,
            "ratio",
            n,
        );
        report.input("trace_file", layers.trace_file);
    } else {
        let mut lat = nominal.latency_us.clone();
        let mut tick_lat = nominal.tickpt_us.clone();
        let boots = client.boot_s.len();
        report.metric("setup_s", median(&mut client.boot_s).unwrap_or(0.0), "s", boots);
        report.metric("serve.p50_us", percentile(&mut lat, 50.0).unwrap_or(0.0), "us", lat.len());
        report.metric("serve.p99_us", percentile(&mut lat, 99.0).unwrap_or(0.0), "us", lat.len());
        report.metric(
            "serve.tickpt_p50_us",
            median(&mut tick_lat).unwrap_or(0.0),
            "us",
            tick_lat.len(),
        );
        let rung_quotes = best.map_or(0, |k| phases[k].priced);
        report.metric("serve.max_rps", max_rps, "1/s", rung_quotes);
    }
    Ok(())
}

struct Checked {
    priced: u64,
    wrong_bits: u64,
    bad_acks: u64,
}

/// Reprice every priced reply with the scalar path under the epoch it
/// reports: in each phase, epoch `k` is the boot market after the
/// phase's first `k` `TICKPT`s.
fn verify(args: &Args, client: &Client) -> Checked {
    let mut checked = Checked { priced: 0, wrong_bits: 0, bad_acks: 0 };
    let mut corrupt = args.corrupt_bit;
    let last_phase = client.quotes.iter().map(|q| q.phase).max().unwrap_or(0);
    for phase in 0..=last_phase {
        let ticks: Vec<&TickRec> = client.ticks.iter().filter(|t| t.phase == phase).collect();
        for (k, t) in ticks.iter().enumerate() {
            if let Some((epoch, zero_delta)) = t.ack {
                checked.bad_acks += u64::from(epoch != k as u64 + 1 || zero_delta);
            }
        }
        let mut order: Vec<(u64, usize)> = client
            .quotes
            .iter()
            .enumerate()
            .filter(|(_, q)| q.phase == phase)
            .filter_map(|(i, q)| match q.outcome {
                Outcome::Priced { epoch, .. } => Some((epoch, i)),
                _ => None,
            })
            .collect();
        order.sort_unstable();
        let mut market = client.boot_market.clone();
        let mut epoch = 0u64;
        let mut engine = CpuCdsEngine::new(&market);
        for (want_epoch, i) in order {
            checked.priced += 1;
            if want_epoch as usize > ticks.len() {
                checked.wrong_bits += 1;
                continue;
            }
            while epoch < want_epoch {
                let t = ticks[epoch as usize];
                let curve = match t.curve {
                    CurveKind::Interest => &mut market.interest,
                    CurveKind::Hazard => &mut market.hazard,
                };
                let mut points = curve.points().to_vec();
                points[t.knot].value = t.value;
                match Curve::new(points) {
                    Ok(c) => *curve = c,
                    Err(_) => checked.bad_acks += 1,
                }
                epoch += 1;
                engine = CpuCdsEngine::new(&market);
            }
            let q = &client.quotes[i];
            let Outcome::Priced { bits, .. } = q.outcome else { continue };
            let want = engine.price_batch_scalar(&[client.shapes[q.shape]])[0].to_bits();
            let got = if corrupt { bits ^ 1 } else { bits };
            corrupt = false;
            checked.wrong_bits += u64::from(got != want);
        }
    }
    checked
}

struct Layers {
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Sum of the per-quote layer medians, microseconds.
    per_quote_us: f64,
    trace_file: String,
}

/// Replay the traced nominal phase's exact request stream, in schedule
/// order, through the server's public layer functions: one span per
/// layer call, keyed by request id (tick index for `TICKPT`s).
fn replay(args: &Args, client: &Client, traced: &PhaseResult) -> Result<Layers, String> {
    let path = args.out_dir.join(format!("serve-replay-{}-{}.wal", args.seed, std::process::id()));
    remove_journal(&path);
    // Checkpoints are taken explicitly at the default cadence, so the
    // append and the sync costs are timed apart.
    let cadence = ServerConfig::default().cadence;
    let wal = WalWriter::create(&path, args.seed, u32::MAX)
        .map_err(|e| format!("replay journal: {e}"))?;
    let tenants =
        TenantRegistry::new(TenantLimits::default(), 1, 0).map_err(|e| format!("tenants: {e}"))?;
    let tenant = tenants.default_tenant();
    let queue: FairQueue<u64> = FairQueue::default();
    let ledger = QuoteLedger::new();
    let book = CurveBook::new(args.seed);
    let mut snapshot = book.current();
    let mut tr = Tracer::new();
    let clock = Instant::now();

    let mut events: Vec<(u64, Result<usize, usize>)> = Vec::new();
    for (i, q) in client.quotes.iter().enumerate().filter(|(_, q)| q.phase == 1) {
        events.push((q.due_ns, Ok(i)));
    }
    for (k, t) in client.ticks.iter().enumerate().filter(|(_, t)| t.phase == 1) {
        events.push((t.due_ns, Err(k)));
    }
    events.sort_unstable_by_key(|e| e.0);
    let mut done = 0u32;
    for (_, event) in events {
        let i = match event {
            Ok(i) => i,
            Err(k) => {
                let t = &client.ticks[k];
                let (r, _) = tr.span("snapshot.publish_point", k as u64, || {
                    book.publish_point(t.curve, t.knot, t.value)
                });
                r?;
                continue;
            }
        };
        let id = i as u64 + 1;
        let option = client.shapes[client.quotes[i].shape];
        let line = format_request(&Request::Quote(QuoteRequest {
            id,
            maturity: option.maturity,
            frequency: option.frequency,
            recovery: option.recovery_rate,
            priority: Priority::High,
        }));
        let root = tr.enter("serve.replay", id);
        let (parsed, _) = tr.span("proto.parse", id, || parse_request(black_box(&line)));
        let Ok(Request::Quote(q)) = parsed else { return Err(format!("replay parse of `{line}`")) };
        let now_us = clock.elapsed().as_micros() as u64;
        let (charged, _) = tr.span("tenant.charge", id, || tenant.try_take_token(now_us));
        charged.map_err(|_| "replay tenant throttled".to_string())?;
        let (popped, _) = tr.span("fair.push_pop", id, || {
            queue.push(tenant.slot, tenant.limits.weight, q.id);
            queue.pop_timeout(Duration::ZERO)
        });
        if popped != Some(q.id) {
            return Err("replay fair queue lost a job".to_string());
        }
        let (seq, _) = tr.span("wal.accept", id, || wal.accept(q.id, &option, q.priority));
        let seq = seq.map_err(|e| format!("replay accept: {e}"))?;
        book.refresh(&mut snapshot);
        let (spread, _) = tr.span("cpu.quote", id, || snapshot.engine.price(&option).spread_bps);
        tr.span("ledger.record", id, || ledger.record(tenant.slot as u64, q.id, spread));
        let (r, _) = tr.span("wal.done", id, || wal.done(seq, spread));
        r.map_err(|e| format!("replay done: {e}"))?;
        done += 1;
        if done.is_multiple_of(cadence) {
            let (r, _) = tr.span("wal.sync", id, || wal.checkpoint_now());
            r.map_err(|e| format!("replay checkpoint: {e}"))?;
        }
        let reply = Response::Quote(QuoteReply {
            id: q.id,
            spread_bps: spread,
            epoch: snapshot.epoch,
            shard: Some((q.id % SHARDS as u64) as usize),
            attempts: 1,
            hedged: false,
            cached: false,
        });
        let (formatted, _) = tr.span("proto.format", id, || format_response(&reply));
        black_box(formatted);
        tr.exit(root);
    }
    remove_journal(&path);

    let mut own = tr.self_times();
    let count = |name: &str| own.get(name).map_or(0, Vec::len);
    let (n, syncs, ticks) =
        (count("proto.parse"), count("wal.sync"), count("snapshot.publish_point"));
    let mut med = |name: &str| own.get_mut(name).and_then(|v| median(v)).unwrap_or(0.0);
    let parse = med("proto.parse");
    let format = med("proto.format");
    let charge = med("tenant.charge");
    let fair = med("fair.push_pop");
    let record = med("ledger.record");
    let quote = med("cpu.quote");
    let accept = med("wal.accept");
    let wal_done = med("wal.done");
    let sync = med("wal.sync");
    let publish = med("snapshot.publish_point");
    let send = median(&mut traced.send_ns.clone()).unwrap_or(0.0);
    let per_quote_ns = parse
        + format
        + charge
        + fair
        + record
        + quote
        + accept
        + wal_done
        + sync / f64::from(cadence);
    let trace_path = args.out_dir.join(format!("trace-serve-{}.jsonl", args.seed));
    tr.write_jsonl(&trace_path).map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(Layers {
        metrics: vec![
            ("proto.parse_ns", parse, "ns", n),
            ("proto.format_ns", format, "ns", n),
            ("tenant.charge_ns", charge, "ns", n),
            ("fair.push_pop_ns", fair, "ns", n),
            ("ledger.record_ns", record, "ns", n),
            ("cpu.quote_ns", quote, "ns", n),
            ("wal.accept_us", accept / 1e3, "us", n),
            ("wal.done_us", wal_done / 1e3, "us", n),
            ("wal.sync_us", sync / 1e3, "us", syncs),
            ("snapshot.publish_point_us", publish / 1e3, "us", ticks),
            ("client.send_us", send / 1e3, "us", traced.send_ns.len()),
        ],
        per_quote_us: per_quote_ns / 1e3,
        trace_file: trace_path.display().to_string(),
    })
}
