//! The optimised dataflow CDS engines (Figures 2 and 3).
//!
//! One graph-construction function realises all three optimised variants
//! of Table I:
//!
//! * **Optimised Dataflow** — the graph below, invoked per option
//!   ([`dataflow_sim::region::RegionMode::PerOption`]), paying the
//!   calibrated region restart overhead each time;
//! * **Dataflow inter-options** — the same graph run continuously over
//!   the whole batch (option parameters become streams and "each dataflow
//!   stage \[is\] aware of the overall number of options");
//! * **Vectorised** — the hazard and interpolation functions are
//!   replicated `vector_factor` times behind round-robin split/merge
//!   schedulers (Figure 3). The replicas of one function share that
//!   function's dual-ported URAM copy of the constant data, so aggregate
//!   scan bandwidth — not the replica count — bounds the gain, which is
//!   why the paper observes that six-fold replication "doubled
//!   performance".
//!
//! Stage topology (streams in parentheses):
//!
//! ```text
//! options ─▶ TimePointGen ─(tp_haz)──▶ [hazard ×V] ──(surv)──▶ tee ─(surv_a)─▶ payment-calc
//!                         ─(tp_t)────▶ [interp-t ×V] ─(Δ·DF)───────────────────▶ payment-calc ─▶ Σ payments ─▶ combine
//!                         ─(tp_mid)──▶ [interp-mid ×V] ─(DFmid)─▶ payoff-calc ─▶ tee ─▶ Σ payoffs ─▶ combine
//!                         ─(Δ/2)─────────────────────────────────▶ accrual-calc ─▶ Σ accruals ─▶ combine
//!                         ─(meta: recovery)──────────────────────────────────────────────────────▶ combine ─▶ spread
//! ```
//!
//! The survival stream's second tee leg feeds the payoff calculation
//! (which differentiates survival across the period), and the payoff
//! tee's second leg feeds the accrual calculation, mirroring the shared
//! sub-calculations of Figure 2.

use crate::config::{EngineConfig, EnginePrecision, FP_DIV_LATENCY_CYCLES};
use crate::report::EngineRunReport;
use crate::stages::{ReduceStage, TeeStage, TimePointGen};
use crate::tokens::{OptionTok, SpreadTok, TimePointTok, Tok};
use cds_quant::option::{CdsOption, MarketData};
use cds_quant::schedule::PaymentSchedule;
use dataflow_sim::graph::GraphBuilder;
use dataflow_sim::prelude::*;
use dataflow_sim::region::RegionMode;
use dataflow_sim::stages::SinkHandle;
use dataflow_sim::stream::StreamReceiver;
use dataflow_sim::trace::{Counters, TraceRecorder};
use std::rc::Rc;

/// Latency of the short arithmetic in the per-point calculation stages.
const CALC_LATENCY: Cycle = 8;

/// Price a batch on an optimised dataflow engine variant.
pub fn run(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
) -> EngineRunReport {
    let curve_load =
        config.memory.curve_load_cycles(market.hazard.len().max(market.interest.len()));
    match config.region_mode {
        RegionMode::Continuous => {
            let (g, sink) = build_graph(market, config, options, 0);
            let processes = g.process_count();
            let report = match EventSim::new(g).run() {
                Ok(r) => r,
                Err(e) => panic!("CDS dataflow graph must not deadlock: {e}"),
            };
            let kernel = report.total_cycles + config.region_cost.invocation_overhead(processes);
            let trace = config.trace.clone().unwrap_or_default();
            let counters = Counters::from_run(&trace, &report);
            EngineRunReport::from_cycles_with_counters(
                config,
                collect_spreads(&sink, options.len()),
                kernel,
                curve_load,
                counters,
            )
        }
        RegionMode::PerOption => {
            // "The dataflow region shuts-down and restarts between
            // options": each option is a fresh invocation paying the
            // restart overhead, and the pipelines fill and drain anew.
            // Telemetry note: when tracing is enabled, each invocation
            // records into a fresh recorder (spans of different
            // invocations all start at cycle 0 and would otherwise
            // overlap); the merged busy/stall totals land in the report's
            // counters rather than in the caller's recorder.
            let mut spreads = Vec::with_capacity(options.len());
            let mut kernel: Cycle = 0;
            let mut counters = Counters::default();
            for (idx, option) in options.iter().enumerate() {
                let run_trace = TraceRecorder::new();
                let run_config = config.trace.as_ref().map(|_| {
                    let mut c = config.clone();
                    c.trace = Some(run_trace.clone());
                    c
                });
                let (g, sink) = build_graph(
                    market.clone(),
                    run_config.as_ref().unwrap_or(config),
                    std::slice::from_ref(option),
                    idx as u32,
                );
                let processes = g.process_count();
                let report = match EventSim::new(g).run() {
                    Ok(r) => r,
                    Err(e) => panic!("CDS dataflow graph must not deadlock: {e}"),
                };
                kernel += report.total_cycles + config.region_cost.invocation_overhead(processes);
                counters.merge(&Counters::from_run(&run_trace, &report));
                spreads.extend(collect_spreads(&sink, 1));
            }
            counters.region_restarts = (options.len() as u64).saturating_sub(1);
            EngineRunReport::from_cycles_with_counters(
                config, spreads, kernel, curve_load, counters,
            )
        }
    }
}

fn collect_spreads(sink: &SinkHandle<SpreadTok>, expected: usize) -> Vec<f64> {
    let collected = sink.values();
    assert_eq!(collected.len(), expected, "every option must produce a spread");
    // Results leave the engine in option order (the round-robin merge and
    // strict per-option reduction preserve sequence); assert and map.
    for (i, tok) in collected.iter().enumerate() {
        debug_assert_eq!(tok.opt_idx as usize % expected.max(1), i % expected.max(1));
    }
    collected.into_iter().map(|t| t.spread_bps).collect()
}

/// Build the Figure-2/Figure-3 dataflow graph for a slice of options.
pub fn build_graph(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    base_idx: u32,
) -> (GraphBuilder, SinkHandle<SpreadTok>) {
    build_graph_with_arrivals(market, config, options, base_idx, None)
}

/// As [`build_graph`], but options enter the engine at the prescribed
/// absolute cycles instead of back-to-back — the streaming deployment of
/// the paper's AAT further-work direction.
pub fn build_graph_with_arrivals(
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    base_idx: u32,
    arrivals: Option<&[Cycle]>,
) -> (GraphBuilder, SinkHandle<SpreadTok>) {
    let mut g = GraphBuilder::new();
    let sink = build_graph_into(&mut g, "", market, config, options, base_idx, arrivals);
    (g, sink)
}

/// Instantiate one engine's stages and streams into an existing graph
/// under a name `prefix`, so several independent engines can be simulated
/// concurrently in a single discrete-event run (the §IV multi-engine
/// deployment). Returns the engine's spread sink.
#[allow(clippy::too_many_arguments)] // one knob per §IV deployment dimension
pub fn build_graph_into(
    g: &mut GraphBuilder,
    prefix: &str,
    market: Rc<MarketData<f64>>,
    config: &EngineConfig,
    options: &[CdsOption],
    base_idx: u32,
    arrivals: Option<&[Cycle]>,
) -> SinkHandle<SpreadTok> {
    let n_opts = options.len() as u64;
    let total_points: u64 = options
        .iter()
        .map(|o| match PaymentSchedule::<f64>::generate(o.maturity, o.frequency.per_year()) {
            Ok(s) => s.len() as u64,
            Err(e) => panic!("option failed schedule generation: {e}"),
        })
        .sum();
    let depth = config.stream_depth;

    // Once-per-option input stream (red arrows of Fig 2).
    let (tx_opts, rx_opts) = g.stream::<OptionTok>(format!("{prefix}options"), depth.max(4));
    let option_toks: Vec<OptionTok> = options
        .iter()
        .enumerate()
        .map(|(i, o)| OptionTok {
            opt_idx: base_idx + i as u32,
            maturity: o.maturity,
            payments_per_year: o.frequency.per_year(),
            recovery: o.recovery_rate,
        })
        .collect();
    match arrivals {
        None => {
            g.add(SourceStage::new(
                format!("{prefix}option-in"),
                option_toks,
                Cost::new(1, 1),
                tx_opts,
            ));
        }
        Some(cycles) => {
            assert_eq!(cycles.len(), option_toks.len(), "one arrival per option");
            let schedule: Vec<(OptionTok, Cycle)> =
                option_toks.into_iter().zip(cycles.iter().copied()).collect();
            g.add(dataflow_sim::stages::TimedSourceStage::new(
                format!("{prefix}option-in"),
                schedule,
                1,
                tx_opts,
            ));
        }
    }

    // Per-time-point streams (blue arrows of Fig 2).
    let (tx_haz, rx_haz) = g.stream::<TimePointTok>(format!("{prefix}tp_hazard"), depth);
    let (tx_t, rx_t) = g.stream::<TimePointTok>(format!("{prefix}tp_interp_t"), depth);
    let (tx_mid, rx_mid) = g.stream::<TimePointTok>(format!("{prefix}tp_interp_mid"), depth);
    // The accrual path consumes half-delta tokens only once the payoff
    // term of the same point emerges from the long hazard/interpolation
    // pipelines; its FIFO must cover the replica count plus that lag or
    // it throttles the in-flight window below `V` and starves replicas.
    let hd_depth =
        config.accrual_fifo_depth.unwrap_or_else(|| depth.max(4 * config.vector_factor.max(1) + 8));
    let (tx_hd, rx_hd) = g.stream::<Tok>(format!("{prefix}half_delta"), hd_depth);
    let (tx_meta, rx_meta) = g.stream::<Tok>(format!("{prefix}recovery_meta"), depth.max(8));
    g.add(TimePointGen::new(
        format!("{prefix}time-points"),
        rx_opts,
        tx_haz,
        tx_t,
        tx_mid,
        tx_hd,
        tx_meta,
        n_opts,
    ));

    // Scan costs per time point: full static-bound table scan, adjusted
    // for URAM port sharing (vectorisation) and datapath width
    // (precision). The hazard unit's accumulation II multiplies the whole
    // scan when dependency-chained.
    let haz_ii = config.replica_scan_cycles(market.hazard.len()) * config.hazard_ii.ii();
    let interp_ii = config.replica_scan_cycles(market.interest.len());
    let exp_latency = config.precision.exp_latency();
    // Listing-1 lane reduction plus the exponential producing survival.
    let hazard_tail = 7 * config.precision.add_latency() + exp_latency;
    // Mixed-precision mode: the memory-bound scan/exp datapath runs in
    // f32; the narrow downstream arithmetic stays f64.
    let market32: Option<Rc<cds_quant::option::MarketData<f32>>> = match config.precision {
        EnginePrecision::Single => Some(Rc::new(market.to_f32())),
        EnginePrecision::Double => None,
    };

    // Hazard unit: full static-bound scan of the hazard constants per time
    // point with the Listing-1 accumulator, then exp → survival. The
    // static bound (scan the whole table, select up to t) is what makes
    // time points independent and therefore vectorisable.
    let rx_surv = {
        let market = market.clone();
        let market32 = market32.clone();
        replicated_unit(
            g,
            config,
            &format!("{prefix}hazard"),
            rx_haz,
            total_points,
            move |tp: TimePointTok| {
                let survival = match &market32 {
                    Some(m32) => {
                        let (integral, _) = m32.hazard.scan_integral(tp.t as f32);
                        (-integral).exp() as f64
                    }
                    None => {
                        let (integral, _) = market.hazard.scan_integral(tp.t);
                        (-integral).exp()
                    }
                };
                (Tok::new(tp.opt_idx, survival, tp.last), Cost::new(haz_ii, haz_ii + hazard_tail))
            },
        )
    };

    // Interpolation at the payment date: Δ·DF(t).
    let rx_ddf = {
        let market = market.clone();
        let market32 = market32.clone();
        replicated_unit(
            g,
            config,
            &format!("{prefix}interp-t"),
            rx_t,
            total_points,
            move |tp: TimePointTok| {
                let df = match &market32 {
                    Some(m32) => {
                        let rate = m32.interest.value_at(tp.t as f32);
                        (-rate * tp.t as f32).exp() as f64
                    }
                    None => {
                        let rate = market.interest.value_at(tp.t);
                        (-rate * tp.t).exp()
                    }
                };
                (
                    Tok::new(tp.opt_idx, tp.delta * df, tp.last),
                    Cost::new(interp_ii, interp_ii + exp_latency + CALC_LATENCY),
                )
            },
        )
    };

    // Interpolation at the period mid-point: DF(mid).
    let rx_dfm = {
        let market = market.clone();
        let market32 = market32.clone();
        replicated_unit(
            g,
            config,
            &format!("{prefix}interp-mid"),
            rx_mid,
            total_points,
            move |tp: TimePointTok| {
                let df_mid = match &market32 {
                    Some(m32) => {
                        let rate = m32.interest.value_at(tp.mid as f32);
                        (-rate * tp.mid as f32).exp() as f64
                    }
                    None => {
                        let rate = market.interest.value_at(tp.mid);
                        (-rate * tp.mid).exp()
                    }
                };
                (
                    Tok::new(tp.opt_idx, df_mid, tp.last),
                    Cost::new(interp_ii, interp_ii + exp_latency),
                )
            },
        )
    };

    // Survival feeds both the payment and payoff calculations.
    let (tx_sa, rx_sa) = g.stream::<Tok>(format!("{prefix}survival_a"), depth);
    let (tx_sb, rx_sb) = g.stream::<Tok>(format!("{prefix}survival_b"), depth);
    g.add(TeeStage::new(format!("{prefix}survival-tee"), rx_surv, tx_sa, tx_sb, total_points));

    // Payment term: (Δ·DF(t)) · S(t).
    let (tx_pay, rx_pay) = g.stream::<Tok>(format!("{prefix}payment_terms"), depth);
    g.add(ZipStage::new(
        format!("{prefix}payment-calc"),
        vec![rx_sa, rx_ddf],
        tx_pay,
        Some(total_points),
        |xs: &[Tok]| {
            (
                Tok::new(xs[0].opt_idx, xs[1].value * xs[0].value, xs[0].last),
                Cost::new(1, CALC_LATENCY),
            )
        },
    ));

    // Payoff term: DF(mid) · (S(tᵢ₋₁) − S(tᵢ)); prev-survival kept as
    // stage state, reset at each option boundary.
    let (tx_poff, rx_poff) = g.stream::<Tok>(format!("{prefix}payoff_terms"), depth);
    {
        let mut prev_survival = 1.0f64;
        g.add(ZipStage::new(
            format!("{prefix}payoff-calc"),
            vec![rx_sb, rx_dfm],
            tx_poff,
            Some(total_points),
            move |xs: &[Tok]| {
                let d_pd = prev_survival - xs[0].value;
                prev_survival = if xs[0].last { 1.0 } else { xs[0].value };
                (
                    Tok::new(xs[0].opt_idx, xs[1].value * d_pd, xs[0].last),
                    Cost::new(1, CALC_LATENCY),
                )
            },
        ));
    }

    // Payoff feeds both its own accumulator and the accrual calculation.
    let (tx_pa, rx_pa) = g.stream::<Tok>(format!("{prefix}payoff_a"), depth);
    let (tx_pb, rx_pb) = g.stream::<Tok>(format!("{prefix}payoff_b"), depth);
    g.add(TeeStage::new(format!("{prefix}payoff-tee"), rx_poff, tx_pa, tx_pb, total_points));

    // Accrual term: payoff-term · (Δ/2) — "the CDS insurance that has
    // been paid for but not yet received".
    let (tx_accr, rx_accr) = g.stream::<Tok>(format!("{prefix}accrual_terms"), depth);
    g.add(ZipStage::new(
        format!("{prefix}accrual-calc"),
        vec![rx_pb, rx_hd],
        tx_accr,
        Some(total_points),
        |xs: &[Tok]| {
            (
                Tok::new(xs[0].opt_idx, xs[0].value * xs[1].value, xs[0].last),
                Cost::new(1, CALC_LATENCY),
            )
        },
    ));

    // Per-option accumulations (Listing-1 lane accumulators).
    let (tx_ps, rx_ps) = g.stream::<Tok>(format!("{prefix}payment_sum"), depth);
    g.add(ReduceStage::new(format!("{prefix}sum-payments"), rx_pay, tx_ps, n_opts));
    let (tx_os, rx_os) = g.stream::<Tok>(format!("{prefix}payoff_sum"), depth);
    g.add(ReduceStage::new(format!("{prefix}sum-payoffs"), rx_pa, tx_os, n_opts));
    let (tx_as, rx_as) = g.stream::<Tok>(format!("{prefix}accrual_sum"), depth);
    g.add(ReduceStage::new(format!("{prefix}sum-accruals"), rx_accr, tx_as, n_opts));

    // Final combination into the spread (green output of Fig 2).
    let (tx_spread, rx_spread) = g.stream::<SpreadTok>(format!("{prefix}spreads"), depth.max(4));
    g.add(ZipStage::new(
        format!("{prefix}combine"),
        vec![rx_ps, rx_os, rx_as, rx_meta],
        tx_spread,
        Some(n_opts),
        |xs: &[Tok]| {
            let (premium, protection, accrual, recovery) =
                (xs[0].value, xs[1].value, xs[2].value, xs[3].value);
            let lgd = 1.0 - recovery;
            let denom = premium + accrual;
            // A vanishing payment-leg PV means the fair-spread quotient
            // diverges (the reference pricer's DegenerateOption error);
            // the hardware stage signals it in-band as NaN rather than
            // fabricating a zero spread.
            let spread_bps = if denom > cds_quant::cds::DEGENERATE_ANNUITY_EPS {
                lgd * protection / denom * 10_000.0
            } else {
                f64::NAN
            };
            (
                SpreadTok { opt_idx: xs[0].opt_idx, spread_bps },
                Cost::new(1, FP_DIV_LATENCY_CYCLES + CALC_LATENCY),
            )
        },
    ));

    g.add_counted_sink(format!("{prefix}spread-out"), rx_spread, n_opts)
}

/// Wrap a per-time-point function into either a single stage (V = 1) or a
/// Figure-3 round-robin split / replicas / merge diamond (V > 1).
fn replicated_unit<F>(
    g: &mut GraphBuilder,
    config: &EngineConfig,
    name: &str,
    rx: StreamReceiver<TimePointTok>,
    total_points: u64,
    f: F,
) -> StreamReceiver<Tok>
where
    F: FnMut(TimePointTok) -> (Tok, Cost) + Clone + 'static,
{
    let v = config.vector_factor.max(1);
    let depth = config.stream_depth;
    let (tx_out, rx_out) = g.stream::<Tok>(format!("{name}_out"), depth);
    if v == 1 {
        let stage = MapStage::new(name, rx, tx_out, Some(total_points), f);
        let stage = match &config.trace {
            Some(t) => stage.with_trace(t.clone()),
            None => stage,
        };
        g.add(stage);
        return rx_out;
    }
    let mut to_replica_rx = Vec::with_capacity(v);
    let mut to_replica_tx = Vec::with_capacity(v);
    for k in 0..v {
        let (tx, rxk) = g.stream::<TimePointTok>(format!("{name}_to_{k}"), depth);
        to_replica_tx.push(tx);
        to_replica_rx.push(rxk);
    }
    g.add(RoundRobinSplit::new(
        format!("{name}-sched"),
        rx,
        to_replica_tx,
        Cost::UNIT,
        Some(total_points),
    ));
    let mut from_replica_rx = Vec::with_capacity(v);
    for (k, rxk) in to_replica_rx.into_iter().enumerate() {
        let (txk, rx_from) = g.stream::<Tok>(format!("{name}_from_{k}"), depth);
        // Replicas finish passively once the split and merge have moved
        // their exact token counts.
        let stage = MapStage::new(format!("{name}-rep{k}"), rxk, txk, None, f.clone());
        let stage = match &config.trace {
            Some(t) => stage.with_trace(t.clone()),
            None => stage,
        };
        g.add(stage);
        from_replica_rx.push(rx_from);
    }
    g.add(RoundRobinMerge::new(
        format!("{name}-merge"),
        from_replica_rx,
        tx_out,
        Cost::UNIT,
        Some(total_points),
    ));
    rx_out
}

/// Graphviz DOT of the Figure-2 dataflow architecture.
pub fn fig2_dot(market: &Rc<MarketData<f64>>) -> String {
    let config = crate::config::EngineVariant::InterOption.config();
    let options = vec![CdsOption::new(5.5, cds_quant::option::PaymentFrequency::Quarterly, 0.4)];
    let (g, _sink) = build_graph(market.clone(), &config, &options, 0);
    g.to_dot("Fig 2: CDS dataflow architecture")
}

/// Graphviz DOT of the Figure-3 vectorised architecture (replicated
/// hazard/interpolation units behind round-robin schedulers).
pub fn fig3_dot(market: &Rc<MarketData<f64>>) -> String {
    let config = crate::config::EngineVariant::Vectorised.config();
    let options = vec![CdsOption::new(5.5, cds_quant::option::PaymentFrequency::Quarterly, 0.4)];
    let (g, _sink) = build_graph(market.clone(), &config, &options, 0);
    g.to_dot("Fig 3: vectorised defaulting-probability calculation")
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

    fn paper_options(n: usize) -> Vec<CdsOption> {
        PortfolioGenerator::uniform(n, 5.5, PaymentFrequency::Quarterly, 0.4)
    }

    #[test]
    fn all_variants_match_reference_numerics() {
        let market = market();
        let pricer = CdsPricer::new((*market).clone());
        let options = PortfolioGenerator::new(11).portfolio(12);
        for variant in [
            EngineVariant::OptimisedDataflow,
            EngineVariant::InterOption,
            EngineVariant::Vectorised,
        ] {
            let report = run(market.clone(), &variant.config(), &options);
            assert_eq!(report.spreads.len(), options.len());
            for (o, s) in options.iter().zip(&report.spreads) {
                let golden = pricer.price(o).spread_bps;
                assert!(
                    (s - golden).abs() < 1e-7 * (1.0 + golden.abs()),
                    "{variant:?}: {s} vs {golden}"
                );
            }
        }
    }

    #[test]
    fn inter_option_faster_than_per_option() {
        let market = market();
        let options = paper_options(8);
        let per = run(market.clone(), &EngineVariant::OptimisedDataflow.config(), &options);
        let cont = run(market.clone(), &EngineVariant::InterOption.config(), &options);
        let gain = per.kernel_cycles as f64 / cont.kernel_cycles as f64;
        assert!(gain > 1.4, "inter-option gain only {gain}");
        assert_eq!(per.spreads, cont.spreads);
    }

    #[test]
    fn vectorisation_roughly_doubles_throughput() {
        let market = market();
        let options = paper_options(8);
        let inter = run(market.clone(), &EngineVariant::InterOption.config(), &options);
        let vec_ = run(market.clone(), &EngineVariant::Vectorised.config(), &options);
        let gain = inter.kernel_cycles as f64 / vec_.kernel_cycles as f64;
        assert!(gain > 1.6 && gain < 2.5, "vectorisation gain {gain}");
        assert_eq!(inter.spreads, vec_.spreads);
    }

    #[test]
    fn steady_state_cycles_per_option_near_scan_bound() {
        // Inter-option: the hazard unit scans the full 1024-entry curve
        // per time point (22 points at 5.5y quarterly) ⇒ ≈ 22.5k
        // cycles/option once the pipeline is full.
        let market = market();
        let options = paper_options(32);
        let report = run(market.clone(), &EngineVariant::InterOption.config(), &options);
        let per_option = report.cycles_per_option();
        let bound = 22.0 * 1024.0;
        assert!(
            per_option > bound * 0.95 && per_option < bound * 1.25,
            "cycles/option {per_option} vs scan bound {bound}"
        );
    }

    #[test]
    fn mixed_portfolio_order_preserved() {
        let market = market();
        let pricer = CdsPricer::new((*market).clone());
        // Distinct maturities so any misordering would be caught.
        let options: Vec<CdsOption> =
            (1..=6).map(|i| CdsOption::new(i as f64, PaymentFrequency::Quarterly, 0.4)).collect();
        let report = run(market.clone(), &EngineVariant::Vectorised.config(), &options);
        for (o, s) in options.iter().zip(&report.spreads) {
            let golden = pricer.price(o).spread_bps;
            assert!((s - golden).abs() < 1e-7 * (1.0 + golden.abs()));
        }
    }

    #[test]
    fn fig_dots_well_formed() {
        let market = market();
        let f2 = fig2_dot(&market);
        assert!(f2.contains("time-points"));
        assert!(f2.contains("hazard"));
        assert!(f2.contains("combine"));
        assert!(!f2.contains("hazard-rep"), "Fig 2 must not be vectorised");
        let f3 = fig3_dot(&market);
        assert!(f3.contains("hazard-sched"));
        assert!(f3.contains("hazard-rep5"));
        assert!(f3.contains("hazard-merge"));
    }

    #[test]
    fn degenerate_option_yields_nan_not_silent_zero() {
        // A vanishing-maturity contract has a near-zero payment-leg PV;
        // the combine stage must flag the diverging quotient in-band as
        // NaN, mirroring the reference pricer's DegenerateOption error.
        let market = market();
        let options = vec![CdsOption::new(1e-13, PaymentFrequency::Quarterly, 0.4)];
        let report = run(market, &EngineVariant::InterOption.config(), &options);
        assert!(report.spreads[0].is_nan(), "got {}", report.spreads[0]);
    }

    #[test]
    fn stream_depth_one_still_correct() {
        let market = market();
        let mut config = EngineVariant::InterOption.config();
        config.stream_depth = 1;
        let options = paper_options(4);
        let report = run(market.clone(), &config, &options);
        let pricer = CdsPricer::new((*market).clone());
        for (o, s) in options.iter().zip(&report.spreads) {
            assert!((s - pricer.price(o).spread_bps).abs() < 1e-7);
        }
    }
    #[test]
    fn per_option_mode_rebuilds_the_region_per_option() {
        // A per-option invocation is a fresh graph: one simulated run plus
        // one region invocation overhead, so n identical options cost
        // exactly n one-option runs and restart the region n - 1 times.
        let market = market();
        let config = EngineVariant::OptimisedDataflow.config();
        let single = paper_options(1);
        let (g, _sink) = build_graph(market.clone(), &config, &single, 0);
        let processes = g.process_count();
        let sim_cycles = EventSim::new(g).run().unwrap().total_cycles;
        let one = run(market.clone(), &config, &single);
        assert_eq!(
            one.kernel_cycles,
            sim_cycles + config.region_cost.invocation_overhead(processes)
        );
        assert_eq!(one.counters.region_restarts, 0);

        let n = 5;
        let options = paper_options(n);
        let per = run(market.clone(), &config, &options);
        assert_eq!(per.kernel_cycles, n as u64 * one.kernel_cycles);
        assert_eq!(per.counters.region_restarts, n as u64 - 1);
        let inter = run(market, &EngineVariant::InterOption.config(), &options);
        let bits = |r: &EngineRunReport| r.spreads.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&per), bits(&inter));
    }
}
