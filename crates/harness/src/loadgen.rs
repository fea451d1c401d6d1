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
use cds_engine::codec::f64_to_token;
use cds_server::proto::{parse_response, Response};
use cds_server::server::{serve, ServerConfig, ServerError};
use dataflow_sim::fault::splitmix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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

/// Engine shards the server runs with; fault runs kill one of them.
const SHARDS: usize = 2;

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
    /// Kill/revive a shard mid-run.
    pub faults: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: crate::DEFAULT_SEED,
            requests: DEFAULT_REQUESTS,
            rate_per_s: DEFAULT_RATE,
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
    let handle = serve(ServerConfig { shards: SHARDS, seed: config.seed, ..Default::default() })?;
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
