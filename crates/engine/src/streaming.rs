//! Streaming deployment: quote-by-quote pricing with latency tracking.
//!
//! The paper's introduction motivates two regimes: batch processing and
//! "the ability to stream in data and generate immediate decisions"; its
//! conclusions propose combining the engine with Xilinx's Accelerated
//! Algorithmic Trading platform. This module realises the streaming
//! regime on the simulator: options arrive as a (Poisson) point process,
//! flow through the continuously-running dataflow region, and each
//! result's **latency** — arrival cycle to spread-out cycle — is
//! recorded, yielding the p50/p99 service latencies a trading deployment
//! would quote.
//!
//! A trading deployment must also survive overload and hardware faults,
//! so the entry point [`run_streaming_with`] takes a [`StreamingPolicy`]:
//!
//! * **admission control** ([`AdmissionControl`]) — a virtual-queue load
//!   shedder at the ingress. The pipelined engine is an M/D/1 server;
//!   beyond a target utilisation the queueing wait grows without bound,
//!   so arrivals that would push the backlog past the
//!   Pollaczek–Khinchine wait at that utilisation are **shed** rather
//!   than admitted, keeping the p99 of admitted traffic bounded at any
//!   offered load;
//! * **lost-option detection** — admitted options that never complete
//!   (a dropped token, a dead stage) are reported as *lost* instead of
//!   hanging the run;
//! * **fault injection** — a seeded [`FaultPlan`] forwarded to the
//!   dataflow simulator for chaos testing.

use crate::config::EngineConfig;
use crate::error::CdsError;
use crate::journal::StreamJournal;
use crate::scrub::{scrub_spreads, ScrubPolicy, ScrubReport};
use crate::tokens::{corrupted_options, tag_options};
use crate::variants::dataflow::build_graph_into;
use cds_quant::option::{CdsOption, MarketData};
use dataflow_sim::event_sim::EventSim;
use dataflow_sim::fault::FaultPlan;
use dataflow_sim::graph::GraphBuilder;
use dataflow_sim::region::RegionMode;
use dataflow_sim::trace::Counters;
use dataflow_sim::Cycle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Latency statistics of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingReport {
    /// Per-completed-option `(arrival_cycle, completion_cycle)`, in
    /// original option order.
    pub spans: Vec<(Cycle, Cycle)>,
    /// Median latency in cycles (completed options).
    pub p50_cycles: Cycle,
    /// 99th-percentile latency in cycles (completed options).
    pub p99_cycles: Cycle,
    /// Worst latency in cycles (completed options).
    pub max_cycles: Cycle,
    /// Achieved throughput over the run, options/second.
    pub options_per_second: f64,
    /// Spreads of completed options, in original option order.
    pub spreads: Vec<f64>,
    /// Run telemetry (occupancy high-water, backpressure events, injected
    /// faults, and — when tracing is enabled — per-stage busy/stall
    /// cycles).
    pub counters: Counters,
    /// Options rejected at the ingress by admission control.
    pub options_shed: u64,
    /// Original indices of the shed options.
    pub shed_indices: Vec<u32>,
    /// Admitted options that never produced a spread (lost to an injected
    /// fault or a dead stage).
    pub options_lost: u64,
    /// Original indices of the lost options.
    pub lost_indices: Vec<u32>,
    /// Total faults injected by the policy's fault plan.
    pub faults_injected: u64,
    /// Scrubber outcome when [`StreamingPolicy::scrub`] was set.
    pub scrub: Option<ScrubReport>,
}

impl StreamingReport {
    /// Median latency in microseconds under the engine clock.
    pub fn p50_us(&self, config: &EngineConfig) -> f64 {
        config.clock.seconds(self.p50_cycles) * 1e6
    }

    /// p99 latency in microseconds.
    pub fn p99_us(&self, config: &EngineConfig) -> f64 {
        config.clock.seconds(self.p99_cycles) * 1e6
    }
}

/// Backpressure-aware load shedding at the streaming ingress.
///
/// The engine services admitted options at a deterministic interval, so
/// the ingress can track a **virtual queue**: the cycle at which the
/// server would free up if every admitted option took exactly
/// `service_cycles_per_option`. An arrival that would wait longer than
/// `max_queue_cycles` behind that backlog is shed. Because the backlog of
/// admitted work can never exceed the threshold, the waiting time of
/// every admitted option — and hence the p99 — stays bounded regardless
/// of the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Deterministic service interval per option, in cycles (e.g.
    /// payment count × [`EngineConfig::steady_state_point_cycles`]).
    pub service_cycles_per_option: Cycle,
    /// Maximum backlog, in cycles, an arrival may queue behind.
    pub max_queue_cycles: Cycle,
}

impl AdmissionControl {
    /// Derive the queue bound from M/D/1 queueing theory: admit while the
    /// backlog is within the Pollaczek–Khinchine mean wait at
    /// utilisation `rho` (`Wq = ρ·s / (2(1−ρ))`). Offered load beyond
    /// that utilisation is shed instead of queued.
    ///
    /// # Panics
    /// Panics unless `0 < rho < 1` (at ρ ≥ 1 the M/D/1 wait is unbounded
    /// and no finite queue bound exists).
    pub fn from_md1(service_cycles_per_option: Cycle, rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "utilisation must be in (0, 1), got {rho}");
        let s = service_cycles_per_option as f64;
        let wq = rho * s / (2.0 * (1.0 - rho));
        AdmissionControl { service_cycles_per_option, max_queue_cycles: wq.ceil() as Cycle }
    }
}

/// Robustness policy of a streaming run; the default is the historical
/// behaviour (admit everything, no faults, no scrub). Options lost in
/// flight are always reported ([`StreamingReport::lost_indices`]).
#[derive(Debug, Clone, Default)]
pub struct StreamingPolicy {
    /// Ingress load shedding; `None` admits every arrival.
    pub admission: Option<AdmissionControl>,
    /// Seeded fault plan forwarded to the dataflow simulator.
    pub fault_plan: Option<FaultPlan>,
    /// Result-integrity scrubbing of the completed spreads; `None`
    /// reports engine outputs verbatim.
    pub scrub: Option<ScrubPolicy>,
    /// Scenario label stamped into the run's [`StreamJournal`] and
    /// asserted on resume: [`resume_streaming_from`] refuses a journal
    /// whose recorded label differs from a requested one (both `Some`), so a
    /// journal from the wrong scenario surfaces as a typed error instead
    /// of a silently wrong (often empty) resumed run. `None` requests no
    /// assertion and labels nothing.
    pub scenario: Option<String>,
}

/// Draw Poisson arrival cycles for `n` options at `rate` options/second
/// under the engine clock (exponential inter-arrival times, fixed seed).
pub fn poisson_arrivals(config: &EngineConfig, rate: f64, n: usize, seed: u64) -> Vec<Cycle> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        out.push(config.clock.cycles_for(t));
    }
    out
}

/// Analytic M/D/1 sojourn prediction for the streaming engine, in cycles.
///
/// The pipelined engine behaves as a single server with deterministic
/// service interval `service_ii` (cycles between successive results) and
/// a fixed pass-through latency `pipeline_latency` (fill). For Poisson
/// arrivals at `lambda` options/cycle, Pollaczek–Khinchine gives the mean
/// queueing wait `Wq = ρ·s / (2(1−ρ))`; the mean sojourn is
/// `Wq + pipeline_latency`. Returns `None` at or beyond saturation.
///
/// The test suite checks the discrete-event simulator against this
/// closed form — simulation and queueing theory agreeing from two
/// entirely different derivations.
pub fn md1_mean_sojourn_cycles(
    lambda_per_cycle: f64,
    service_ii: f64,
    pipeline_latency: f64,
) -> Option<f64> {
    let rho = lambda_per_cycle * service_ii;
    if rho >= 1.0 {
        return None;
    }
    let wq = rho * service_ii / (2.0 * (1.0 - rho));
    Some(wq + pipeline_latency)
}

/// Run a streaming session: options enter at `arrivals` cycles and flow
/// through a continuously-running engine.
///
/// Infallible wrapper over [`run_streaming_with`] with the default
/// (admit-everything, fault-free) policy, kept for callers that treat a
/// failure as fatal.
///
/// # Panics
/// Panics if the configuration is per-option (streaming requires the
/// continuous region), if arrivals and options differ in length, or if an
/// option is outside its admissible domain.
pub fn run_streaming(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    arrivals: &[Cycle],
) -> StreamingReport {
    match run_streaming_with(market, config, options, arrivals, &StreamingPolicy::default()) {
        Ok(report) => report,
        Err(e) => panic!("streaming run failed: {e}"),
    }
}

/// Run a streaming session under an explicit robustness [`StreamingPolicy`].
///
/// Options are re-validated at the ingress ([`CdsOption::validated`]), the
/// admission controller sheds arrivals that would exceed the queue bound,
/// and the watchdog classifies every admitted option as completed (with a
/// latency) or lost. Latency percentiles are computed over completed
/// options only.
pub fn run_streaming_with(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    arrivals: &[Cycle],
    policy: &StreamingPolicy,
) -> Result<StreamingReport, CdsError> {
    if config.region_mode != RegionMode::Continuous {
        return Err(CdsError::Config { reason: "streaming requires the continuous region" });
    }
    if options.len() != arrivals.len() {
        return Err(CdsError::Config { reason: "need exactly one arrival cycle per option" });
    }
    for o in options {
        CdsOption::validated(o.maturity, o.frequency, o.recovery_rate)?;
    }

    // Ingress admission: virtual-queue load shedding.
    let mut admitted: Vec<usize> = Vec::with_capacity(options.len());
    let mut shed_indices: Vec<u32> = Vec::new();
    match &policy.admission {
        None => admitted.extend(0..options.len()),
        Some(ac) => {
            let mut server_free_at: Cycle = 0;
            for (i, &arr) in arrivals.iter().enumerate() {
                let backlog = server_free_at.saturating_sub(arr);
                if backlog > ac.max_queue_cycles {
                    shed_indices.push(i as u32);
                } else {
                    admitted.push(i);
                    server_free_at = server_free_at.max(arr) + ac.service_cycles_per_option;
                }
            }
        }
    }

    if admitted.is_empty() {
        return Ok(StreamingReport {
            options_shed: shed_indices.len() as u64,
            shed_indices,
            ..summarise::<usize>(&[])
        });
    }

    let admitted_opts: Vec<CdsOption> = admitted.iter().map(|&i| options[i]).collect();
    let admitted_arrivals: Vec<Cycle> = admitted.iter().map(|&i| arrivals[i]).collect();

    let mut g = GraphBuilder::new();
    if let Some(plan) = &policy.fault_plan {
        g.set_fault_plan(tag_options(plan));
    }
    let sink = build_graph_into(
        &mut g,
        "",
        market.clone(),
        config,
        &admitted_opts,
        0,
        Some(&admitted_arrivals),
    );
    let report = EventSim::new(g).run().map_err(CdsError::Sim)?;

    // Watchdog: classify every admitted option as completed or lost.
    let collected = sink.collected();
    let mut done = vec![false; admitted.len()];
    // (original index, arrival, completion, spread), sorted by index.
    let mut per_option: Vec<(usize, Cycle, Cycle, f64)> = Vec::with_capacity(collected.len());
    for (tok, done_at) in &collected {
        let pos = tok.opt_idx as usize;
        done[pos] = true;
        per_option.push((admitted[pos], admitted_arrivals[pos], *done_at, tok.spread_bps));
    }
    per_option.sort_unstable_by_key(|&(idx, ..)| idx);
    let lost_indices: Vec<u32> =
        admitted.iter().zip(&done).filter(|(_, &d)| !d).map(|(&idx, _)| idx as u32).collect();

    let mut summary = summarise(&per_option);

    // Result-integrity scrub: guard every completed spread, quarantine
    // options tainted by corruption faults, reprice on the CPU fallback.
    let mut scrub = None;
    if let Some(sp) = &policy.scrub {
        let tainted: Vec<u32> = corrupted_options(&report.fault_events)
            .filter_map(|i| admitted.get(i as usize).map(|&orig| orig as u32))
            .collect();
        let mut priced: Vec<(u32, f64)> =
            per_option.iter().map(|&(idx, _, _, s)| (idx as u32, s)).collect();
        let scrub_report = scrub_spreads(&market, options, &mut priced, &tainted, sp)?;
        for (slot, &(_, s)) in priced.iter().enumerate() {
            summary.spreads[slot] = s;
        }
        scrub = Some(scrub_report);
    }

    let span_seconds = config.clock.seconds(report.total_cycles);
    let trace = config.trace.clone().unwrap_or_default();
    let counters = Counters::from_run(&trace, &report);
    Ok(StreamingReport {
        options_per_second: if span_seconds > 0.0 {
            summary.spreads.len() as f64 / span_seconds
        } else {
            0.0
        },
        faults_injected: counters.faults.total(),
        counters,
        options_shed: shed_indices.len() as u64,
        shed_indices,
        options_lost: lost_indices.len() as u64,
        lost_indices,
        scrub,
        ..summary
    })
}

/// Run a streaming session under `policy` and derive its journal at
/// `cadence` completions per fsync ([`StreamJournal::of_run`]).
///
/// Completions are journalled in completion-cycle order, the order a
/// journal on real hardware observes, so [`resume_streaming_from`] on
/// whatever prefix of [`StreamJournal::to_text`] was durable loses at
/// most the completions after it.
pub fn run_streaming_journalled(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    arrivals: &[Cycle],
    policy: &StreamingPolicy,
    cadence: u32,
) -> Result<(StreamingReport, StreamJournal), CdsError> {
    let report = run_streaming_with(market, config, options, arrivals, policy)?;
    let journal = StreamJournal::of_run(
        options.len() as u32,
        &report,
        policy.fault_plan.as_ref().map(FaultPlan::seed),
        policy.scenario.as_deref(),
        cadence,
    )?;
    Ok((report, journal))
}

/// Resume a streaming run from journal text (any prefix of a
/// [`StreamJournal`]), re-pricing only the admitted options the journal
/// has not seen complete.
///
/// `options` and `arrivals` must be the *original* workload. The
/// journal's admission decisions are final (no re-admission), its
/// completions are taken verbatim (spreads are stored bit-exactly), and
/// the remainder is run through the engine with the caller's fault plan
/// and scrub settings. Because per-option pricing is independent of
/// batch composition, the merged spread set is bit-identical to an
/// uninterrupted run. Throughput and counters describe the resumed
/// portion only; latency percentiles are recomputed over the merged
/// completion set.
pub fn resume_streaming_from(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    arrivals: &[Cycle],
    policy: &StreamingPolicy,
    journal: &str,
) -> Result<StreamingReport, CdsError> {
    let journal = StreamJournal::parse(journal)?;
    // Scenario guard: a journal recorded under scenario X resumed while
    // requesting scenario Y would replay the wrong journal — a typed
    // error, not a silent empty-or-wrong run. A `None` on the policy
    // side requests no assertion (the legitimate "finish fault-free,
    // whatever the journal was" path).
    if let (Some(recorded), Some(requested)) = (&journal.scenario, &policy.scenario) {
        if recorded != requested {
            return Err(CdsError::Journal {
                reason: format!(
                    "journal was recorded under scenario `{recorded}` but the resume \
                     requested scenario `{requested}`"
                ),
            });
        }
    }
    if journal.total_options as usize != options.len() {
        return Err(CdsError::Journal {
            reason: format!(
                "journal covers {} options but the workload has {}",
                journal.total_options,
                options.len()
            ),
        });
    }
    if options.len() != arrivals.len() {
        return Err(CdsError::Config { reason: "need exactly one arrival cycle per option" });
    }

    let done: BTreeSet<u32> = journal.completed.iter().map(|&(index, ..)| index).collect();
    let remaining: Vec<u32> = (0..journal.total_options)
        .filter(|i| journal.shed.binary_search(i).is_err() && !done.contains(i))
        .collect();
    let rem_opts: Vec<CdsOption> = remaining.iter().map(|&i| options[i as usize]).collect();
    let rem_arrivals: Vec<Cycle> = remaining.iter().map(|&i| arrivals[i as usize]).collect();
    let sub_policy = StreamingPolicy {
        admission: None, // admission decisions in the journal are final
        fault_plan: policy.fault_plan.clone(),
        scrub: policy.scrub,
        scenario: policy.scenario.clone(),
    };
    let sub = run_streaming_with(market, config, &rem_opts, &rem_arrivals, &sub_policy)?;

    // Merge journalled completions with the resumed run's, back in
    // original-index order.
    let sub_lost: BTreeSet<u32> = sub.lost_indices.iter().map(|&i| remaining[i as usize]).collect();
    let mut merged: Vec<(u32, Cycle, Cycle, f64)> = journal
        .completed
        .iter()
        .map(|&(index, done_cycle, spread)| (index, arrivals[index as usize], done_cycle, spread))
        .collect();
    let sub_completed = remaining.iter().copied().filter(|i| !sub_lost.contains(i));
    for (idx, (&(arrival, done_at), &spread)) in
        sub_completed.zip(sub.spans.iter().zip(&sub.spreads))
    {
        merged.push((idx, arrival, done_at, spread));
    }
    merged.sort_unstable_by_key(|&(idx, ..)| idx);

    Ok(StreamingReport {
        options_per_second: sub.options_per_second,
        faults_injected: sub.faults_injected,
        counters: sub.counters,
        options_shed: journal.shed.len() as u64,
        shed_indices: journal.shed,
        options_lost: sub_lost.len() as u64,
        lost_indices: sub_lost.into_iter().collect(),
        scrub: sub.scrub,
        ..summarise(&merged)
    })
}

/// Spans, spreads and latency percentiles of completed options given
/// as `(index, arrival, completion, spread)` in original option order.
/// The run-level fields (throughput, counters, shed, lost, faults,
/// scrub) are left empty for the caller to fill.
fn summarise<I: Copy>(completed: &[(I, Cycle, Cycle, f64)]) -> StreamingReport {
    let mut spans = Vec::with_capacity(completed.len());
    let mut latencies = Vec::with_capacity(completed.len());
    let mut spreads = Vec::with_capacity(completed.len());
    for &(_, arrival, done_at, spread) in completed {
        spans.push((arrival, done_at));
        latencies.push(done_at.saturating_sub(arrival));
        spreads.push(spread);
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> Cycle {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    StreamingReport {
        spans,
        p50_cycles: pct(0.50),
        p99_cycles: pct(0.99),
        max_cycles: latencies.last().copied().unwrap_or(0),
        options_per_second: 0.0,
        spreads,
        counters: Counters::default(),
        options_shed: 0,
        shed_indices: Vec::new(),
        options_lost: 0,
        lost_indices: Vec::new(),
        faults_injected: 0,
        scrub: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineVariant;
    use cds_quant::cds::CdsPricer;
    use cds_quant::option::{PaymentFrequency, PortfolioGenerator};

    fn market() -> Rc<MarketData<f64>> {
        Rc::new(MarketData::paper_workload(7))
    }

    fn options(n: usize) -> Vec<CdsOption> {
        PortfolioGenerator::uniform(n, 5.5, PaymentFrequency::Quarterly, 0.4)
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_rate_consistent() {
        let config = EngineVariant::Vectorised.config();
        let arrivals = poisson_arrivals(&config, 10_000.0, 500, 1);
        assert_eq!(arrivals.len(), 500);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival ≈ clock/rate = 30k cycles; allow wide noise.
        let span = (arrivals[499] - arrivals[0]) as f64;
        let mean = span / 499.0;
        assert!((15_000.0..60_000.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn light_load_latency_is_pipeline_latency() {
        // Arrivals far apart: each option sees an empty engine, so the
        // latency is the pipeline's fill (≈ one full scan plus tails),
        // not a queueing delay.
        let config = EngineVariant::InterOption.config();
        let opts = options(6);
        let arrivals: Vec<Cycle> = (0..6).map(|i| i * 2_000_000).collect();
        let report = run_streaming(market(), &config, &opts, &arrivals);
        // 22 points × 1024 cycles ≈ 22.5k, plus stage tails.
        assert!(
            report.p50_cycles > 20_000 && report.p50_cycles < 30_000,
            "p50 {}",
            report.p50_cycles
        );
        // No queueing: p99 ≈ p50.
        assert!(report.p99_cycles < report.p50_cycles + 2_000);
    }

    #[test]
    fn saturating_load_queues_and_matches_batch_throughput() {
        let config = EngineVariant::Vectorised.config();
        let opts = options(48);
        // Arrivals far above the engine's ~26.5k opts/s capacity.
        let arrivals = poisson_arrivals(&config, 200_000.0, 48, 3);
        let report = run_streaming(market(), &config, &opts, &arrivals);
        // Saturation queues work but loses none of it.
        assert_eq!(report.options_lost, 0);
        assert_eq!(report.spreads.len(), 48);
        // Later arrivals wait behind earlier ones: p99 >> p50 of light load.
        assert!(report.p99_cycles > 5 * report.p50_cycles.min(30_000), "p99 {}", report.p99_cycles);
        // Throughput approaches the batch steady state.
        assert!(
            (20_000.0..30_000.0).contains(&report.options_per_second),
            "throughput {}",
            report.options_per_second
        );
    }

    #[test]
    fn vectorised_has_lower_latency_than_inter_option_under_load() {
        let opts = options(24);
        let inter = EngineVariant::InterOption.config();
        let vec_ = EngineVariant::Vectorised.config();
        let arrivals_i = poisson_arrivals(&inter, 13_000.0, 24, 5);
        let arrivals_v = arrivals_i.clone();
        let r_inter = run_streaming(market(), &inter, &opts, &arrivals_i);
        let r_vec = run_streaming(market(), &vec_, &opts, &arrivals_v);
        assert!(
            r_vec.p99_cycles < r_inter.p99_cycles,
            "vectorised p99 {} vs inter p99 {}",
            r_vec.p99_cycles,
            r_inter.p99_cycles
        );
    }

    #[test]
    fn simulated_mean_latency_tracks_md1_theory() {
        // Uniform 5.5y quarterly options on the vectorised engine: the
        // service interval is 22 points × 512 cycles ≈ 11.3k cycles and
        // the pipeline fill ≈ one replica scan + tails.
        let config = EngineVariant::Vectorised.config();
        let n = 200;
        let opts = options(n);
        let service_ii = 22.0 * 512.0;
        // Measure the fill directly: a lone option's latency.
        let lone = run_streaming(market(), &config, &opts[..1], &[0]);
        let fill = lone.p50_cycles as f64;

        // Moderate load: ρ = 0.6. The P-K formula is an asymptotic mean
        // and queue waits are heavy-tailed at this load, so one finite
        // run of 200 arrivals is noisy — pool several seeds before
        // comparing.
        let lambda = 0.6 / service_ii;
        let rate_per_s = lambda * config.clock.hz;
        let mut latency_sum = 0.0;
        let mut samples = 0usize;
        for seed in [11, 13, 17, 19, 23] {
            let arrivals = poisson_arrivals(&config, rate_per_s, n, seed);
            let report = run_streaming(market(), &config, &opts, &arrivals);
            latency_sum += report.spans.iter().map(|&(a, d)| (d - a) as f64).sum::<f64>();
            samples += n;
        }
        let mean_sim = latency_sum / samples as f64;
        let mean_theory =
            md1_mean_sojourn_cycles(lambda, service_ii, fill).expect("below saturation");
        let err = (mean_sim - mean_theory).abs() / mean_theory;
        assert!(err < 0.30, "DES mean {mean_sim} vs M/D/1 {mean_theory} ({:.0}% off)", err * 100.0);
    }

    #[test]
    fn md1_formula_properties() {
        // At zero load the sojourn is the pipeline fill.
        assert_eq!(md1_mean_sojourn_cycles(0.0, 100.0, 42.0), Some(42.0));
        // Saturated or oversaturated: undefined.
        assert_eq!(md1_mean_sojourn_cycles(0.01, 100.0, 0.0), None);
        assert_eq!(md1_mean_sojourn_cycles(0.02, 100.0, 0.0), None);
        // Monotone in load.
        let a = md1_mean_sojourn_cycles(0.004, 100.0, 0.0).unwrap();
        let b = md1_mean_sojourn_cycles(0.008, 100.0, 0.0).unwrap();
        assert!(b > a);
    }

    #[test]
    fn streaming_spreads_match_reference() {
        let m = market();
        let pricer = CdsPricer::new((*m).clone());
        let opts = PortfolioGenerator::new(9).portfolio(10);
        let config = EngineVariant::Vectorised.config();
        let arrivals = poisson_arrivals(&config, 20_000.0, 10, 7);
        let report = run_streaming(m, &config, &opts, &arrivals);
        for (o, s) in opts.iter().zip(&report.spreads) {
            let golden = pricer.price(o).spread_bps;
            assert!((s - golden).abs() < 1e-7 * (1.0 + golden), "{s} vs {golden}");
        }
    }

    #[test]
    fn overload_orders_percentiles_and_records_backpressure() {
        // Offered load far above capacity: the input FIFOs fill, rejected
        // pushes register as backpressure, and the latency percentiles
        // must be coherent (p50 ≤ p99 ≤ max).
        let config = EngineVariant::Vectorised.config();
        let opts = options(48);
        let arrivals = poisson_arrivals(&config, 200_000.0, 48, 3);
        let report = run_streaming(market(), &config, &opts, &arrivals);
        assert!(report.p50_cycles <= report.p99_cycles, "p50 > p99");
        assert!(report.p99_cycles <= report.max_cycles, "p99 > max");
        assert!(
            report.counters.backpressure_events > 0,
            "overload must produce backpressure events"
        );
        assert!(report.counters.stream_occupancy_high_water > 0);
    }

    #[test]
    #[should_panic(expected = "continuous region")]
    fn per_option_config_rejected() {
        let config = EngineVariant::OptimisedDataflow.config();
        let opts = options(2);
        let _ = run_streaming(market(), &config, &opts, &[0, 10]);
    }

    #[test]
    fn default_policy_matches_legacy_api() {
        let config = EngineVariant::Vectorised.config();
        let opts = options(12);
        let arrivals = poisson_arrivals(&config, 15_000.0, 12, 9);
        let legacy = run_streaming(market(), &config, &opts, &arrivals);
        let with =
            run_streaming_with(market(), &config, &opts, &arrivals, &StreamingPolicy::default());
        let with = match with {
            Ok(r) => r,
            Err(e) => panic!("default policy must succeed: {e}"),
        };
        assert_eq!(legacy.spreads, with.spreads);
        assert_eq!(legacy.p99_cycles, with.p99_cycles);
        assert_eq!(with.options_shed, 0);
        assert_eq!(with.options_lost, 0);
        assert_eq!(with.faults_injected, 0);
    }

    #[test]
    fn invalid_option_rejected_at_ingress() {
        let config = EngineVariant::Vectorised.config();
        let mut bad = options(1);
        bad[0].maturity = -2.0;
        let err = run_streaming_with(market(), &config, &bad, &[0], &StreamingPolicy::default());
        assert!(matches!(err, Err(CdsError::Quant(_))), "got {err:?}");
    }

    #[test]
    fn empty_streaming_run_is_ok() {
        let config = EngineVariant::Vectorised.config();
        let report = run_streaming_with(market(), &config, &[], &[], &StreamingPolicy::default());
        let report = match report {
            Ok(r) => r,
            Err(e) => panic!("empty run must succeed: {e}"),
        };
        assert!(report.spreads.is_empty());
        assert_eq!(report.p99_cycles, 0);
    }

    #[test]
    fn admission_control_sheds_and_bounds_p99_at_twice_saturation() {
        // Offered load 2× the engine's capacity. Without shedding the
        // queue grows without bound and late arrivals see enormous
        // latencies; with the M/D/1 admission bound the p99 of admitted
        // traffic stays within a small multiple of the unloaded p99.
        let config = EngineVariant::Vectorised.config();
        let n = 200;
        let opts = options(n);
        let service = 22 * config.steady_state_point_cycles(1024);
        let lone = run_streaming(market(), &config, &opts[..1], &[0]);
        let unloaded_p99 = lone.p99_cycles;

        let capacity_per_s = config.clock.hz / service as f64;
        let arrivals = poisson_arrivals(&config, 2.0 * capacity_per_s, n, 21);
        let policy = StreamingPolicy {
            admission: Some(AdmissionControl::from_md1(service, 0.8)),
            ..Default::default()
        };
        let report = match run_streaming_with(market(), &config, &opts, &arrivals, &policy) {
            Ok(r) => r,
            Err(e) => panic!("shedding run must succeed: {e}"),
        };
        assert!(report.options_shed > 0, "2x load must shed");
        assert_eq!(report.options_lost, 0, "every admitted option must be priced");
        assert_eq!(report.spreads.len() as u64 + report.options_shed, n as u64);
        assert!(
            report.p99_cycles <= 10 * unloaded_p99,
            "p99 {} must stay within 10x unloaded p99 {}",
            report.p99_cycles,
            unloaded_p99
        );
        // Unthrottled run for contrast: the tail is much worse.
        let open = run_streaming(market(), &config, &opts, &arrivals);
        assert!(open.p99_cycles > report.p99_cycles, "shedding must improve the tail");
    }

    #[test]
    fn dropped_result_is_flagged_lost_not_hung() {
        // Drop the third token on the spread output stream: option 2 is
        // admitted, priced, and then lost in flight. The watchdog reports
        // it instead of deadlocking the run.
        let m = market();
        let pricer = CdsPricer::new((*m).clone());
        let config = EngineVariant::Vectorised.config();
        let opts = options(6);
        let arrivals: Vec<Cycle> = (0..6).map(|i| i * 50_000).collect();
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(0xD20).drop_nth("spreads", 2)),
            ..Default::default()
        };
        let report = match run_streaming_with(m, &config, &opts, &arrivals, &policy) {
            Ok(r) => r,
            Err(e) => panic!("faulted run must terminate gracefully: {e}"),
        };
        assert_eq!(report.options_lost, 1);
        assert_eq!(report.lost_indices, vec![2]);
        assert!(report.faults_injected > 0);
        assert_eq!(report.spreads.len(), 5);
        // Survivors are unaffected by the drop.
        let golden = pricer.price(&opts[0]).spread_bps;
        for s in &report.spreads {
            assert!((s - golden).abs() < 1e-7 * (1.0 + golden), "{s} vs {golden}");
        }
    }

    #[test]
    fn corruption_is_quarantined_and_repriced_to_clean_spreads() {
        // Corrupt two spread tokens: one blatantly (sign flip, caught by
        // the invariant guards) and one subtly (+0.25 bp, inside the
        // envelope — only the fault event's option identity catches it).
        // The scrubber must quarantine both and converge the run to the
        // fault-free spreads.
        use crate::tokens::SpreadTok;
        let config = EngineVariant::Vectorised.config();
        let opts = options(8);
        let arrivals: Vec<Cycle> = (0..8).map(|i| i * 40_000).collect();
        let clean = run_streaming(market(), &config, &opts, &arrivals);
        let plan = FaultPlan::new(0xC0)
            .corrupt_nth::<SpreadTok>("spreads", 2, |t| SpreadTok {
                spread_bps: -t.spread_bps,
                ..t
            })
            .corrupt_nth::<SpreadTok>("spreads", 5, |t| SpreadTok {
                spread_bps: t.spread_bps + 0.25,
                ..t
            });
        let policy = StreamingPolicy {
            fault_plan: Some(plan),
            scrub: Some(ScrubPolicy { cross_check_every: 0 }),
            ..Default::default()
        };
        let scrubbed = match run_streaming_with(market(), &config, &opts, &arrivals, &policy) {
            Ok(r) => r,
            Err(e) => panic!("corrupted run must terminate gracefully: {e}"),
        };
        let scrub = match &scrubbed.scrub {
            Some(s) => s,
            None => panic!("scrub policy must produce a scrub report"),
        };
        assert_eq!(scrub.quarantined_indices(), vec![2, 5]);
        assert_eq!(scrubbed.spreads.len(), clean.spreads.len());
        for (s, c) in scrubbed.spreads.iter().zip(&clean.spreads) {
            assert!((s - c).abs() < 1e-6 * (1.0 + c.abs()), "scrubbed {s} vs clean {c}");
        }
        // Without the scrubber the corruption reaches the report.
        let unscrubbed_policy = StreamingPolicy { scrub: None, ..policy };
        let raw = match run_streaming_with(market(), &config, &opts, &arrivals, &unscrubbed_policy)
        {
            Ok(r) => r,
            Err(e) => panic!("unscrubbed run must terminate gracefully: {e}"),
        };
        assert!(raw.spreads[2] < 0.0, "sign-flip corruption must survive without scrubbing");
    }

    #[test]
    fn killed_run_resumes_from_its_journal_bit_identically() {
        let config = EngineVariant::Vectorised.config();
        let n = 12usize;
        let opts = options(n);
        let arrivals: Vec<Cycle> = (0..n as u64).map(|i| i * 30_000).collect();
        let clean = run_streaming(market(), &config, &opts, &arrivals);
        assert_eq!(clean.spreads.len(), n);

        // Kill the whole engine mid-run: roughly half the options
        // complete, the rest are reported lost.
        let kill_cycle = arrivals[n / 2];
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(1).kill_region("", kill_cycle)),
            ..Default::default()
        };
        let (killed, journal) =
            match run_streaming_journalled(market(), &config, &opts, &arrivals, &policy, 2) {
                Ok(r) => r,
                Err(e) => panic!("killed run must terminate gracefully: {e}"),
            };
        assert!(killed.options_lost > 0, "the kill must lose in-flight work");
        assert!(killed.spreads.len() < n);
        // The journal holds every completion, and nothing the kill lost.
        assert_eq!(journal.completed.len(), killed.spreads.len());

        // Resume from the journal's text — exactly what the writer
        // leaves on disk.
        let resumed = resume_streaming_from(
            market(),
            &config,
            &opts,
            &arrivals,
            &StreamingPolicy::default(),
            &journal.to_text(),
        );
        let resumed = match resumed {
            Ok(r) => r,
            Err(e) => panic!("resume must succeed: {e}"),
        };
        assert_eq!(resumed.options_lost, 0);
        assert_eq!(resumed.spreads.len(), n);
        for (i, (a, b)) in resumed.spreads.iter().zip(&clean.spreads).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "option {i}: resumed {a} vs clean {b}");
        }
    }

    #[test]
    fn resume_rejects_mismatched_and_malformed_journals() {
        let config = EngineVariant::Vectorised.config();
        let opts = options(4);
        let arrivals: Vec<Cycle> = (0..4).map(|i| i * 30_000).collect();
        let policy = StreamingPolicy::default();
        let (_, journal) =
            match run_streaming_journalled(market(), &config, &opts, &arrivals, &policy, 2) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        assert_eq!(journal.completed.len(), opts.len());
        // Wrong workload size.
        let text = journal.to_text();
        let err =
            resume_streaming_from(market(), &config, &opts[..2], &arrivals[..2], &policy, &text);
        assert!(matches!(err, Err(CdsError::Journal { .. })), "got {err:?}");
        // Text that is no journal at all.
        let err = resume_streaming_from(market(), &config, &opts, &arrivals, &policy, "garbage");
        assert!(matches!(err, Err(CdsError::Journal { .. })), "got {err:?}");
        // A journal cadence of zero is a configuration error.
        let err = run_streaming_journalled(market(), &config, &opts, &arrivals, &policy, 0);
        assert!(matches!(err, Err(CdsError::Config { .. })), "got {err:?}");
    }

    #[test]
    fn stage_stall_fault_raises_latency_and_is_counted() {
        let config = EngineVariant::Vectorised.config();
        let opts = options(8);
        let arrivals: Vec<Cycle> = (0..8).map(|i| i * 40_000).collect();
        let clean = run_streaming(market(), &config, &opts, &arrivals);
        // Stall every survival token of the first option (22 quarterly
        // points at 5.5y): its completion is gated by its last point, so
        // the stall shows up as end-to-end latency.
        let policy = StreamingPolicy {
            fault_plan: Some(FaultPlan::new(7).stall_stage("hazard_out", 5_000, 22)),
            ..Default::default()
        };
        let stalled = match run_streaming_with(market(), &config, &opts, &arrivals, &policy) {
            Ok(r) => r,
            Err(e) => panic!("stalled run must succeed: {e}"),
        };
        assert!(stalled.faults_injected > 0);
        assert_eq!(stalled.options_lost, 0, "a stall delays but never loses work");
        assert_eq!(stalled.spreads, clean.spreads, "stalls must not change numerics");
        assert!(
            stalled.max_cycles > clean.max_cycles,
            "stall {} vs clean {}",
            stalled.max_cycles,
            clean.max_cycles
        );
    }
}
