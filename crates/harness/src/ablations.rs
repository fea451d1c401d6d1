//! Ablation experiments: Listing 1, vectorisation factor, hazard II,
//! stream depth, and reduced precision.

use crate::sampler;
use crate::workload::Workload;
use cds_engine::prelude::*;
use cds_quant::accumulate::{sum_kahan, sum_lanes7, sum_sequential};
use cds_quant::cds::price_cds_generic;
use cds_quant::option::MarketData;
use dataflow_sim::pipeline::PipelinedLoop;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Duration;

/// Minimum timed window of each Listing-1 host column. A pass is one sum,
/// so even this short window times thousands of passes.
const LISTING1_SAMPLE: Duration = Duration::from_millis(100);

/// Result of the Listing-1 accumulator comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Listing1Row {
    /// Input length.
    pub length: usize,
    /// Host nanoseconds per element, naive dependency-chained sum.
    pub naive_ns_per_elem: f64,
    /// Host nanoseconds per element, 7-lane partial sums.
    pub lanes_ns_per_elem: f64,
    /// Host speedup of the lane kernel (dependency chain broken).
    pub host_speedup: f64,
    /// Modelled FPGA cycles, II=7 loop.
    pub fpga_cycles_ii7: u64,
    /// Modelled FPGA cycles, Listing-1 loop (II=1 plus 7-element tail).
    pub fpga_cycles_listing1: u64,
    /// Absolute result difference versus Kahan (numerical check).
    pub max_error: f64,
}

/// Compare the naive and Listing-1 accumulation kernels on the host and
/// under the FPGA timing model, across input lengths (including lengths
/// not divisible by seven).
pub fn listing1(lengths: &[usize]) -> Vec<Listing1Row> {
    let mut rows = Vec::new();
    for &n in lengths {
        let values: Vec<f64> = (0..n).map(|i| ((i * 37 % 1000) as f64) * 1e-3 - 0.3).collect();
        // Nanoseconds per element of one sum over `values`, through the
        // harness's one sampler.
        let ns_per_elem = |sum: fn(&[f64]) -> f64| {
            1e9 / sampler::rate(
                || {
                    black_box(sum(black_box(&values)));
                    n
                },
                LISTING1_SAMPLE,
            )
        };
        let naive_ns = ns_per_elem(sum_sequential);
        let lanes_ns = ns_per_elem(sum_lanes7);

        let reference = sum_kahan(&values);
        let max_error = (sum_sequential(&values) - reference)
            .abs()
            .max((sum_lanes7(&values) - reference).abs());

        // FPGA cycle model. Naive: II=7 per element. Listing 1: the outer
        // loop has II=7 but completes seven unrolled independent adds per
        // iteration (one element per cycle on average), plus the
        // 7-element dependency-chained tail reduction.
        let ii7 = PipelinedLoop::dependency_chained_add().cycles(n as u64);
        let listing = PipelinedLoop::new(7, 7).cycles(n.div_ceil(7) as u64)
            + PipelinedLoop::dependency_chained_add().cycles(7);

        rows.push(Listing1Row {
            length: n,
            naive_ns_per_elem: naive_ns,
            lanes_ns_per_elem: lanes_ns,
            host_speedup: naive_ns / lanes_ns,
            fpga_cycles_ii7: ii7,
            fpga_cycles_listing1: listing,
            max_error,
        });
    }
    rows
}

/// One point of the vectorisation-factor sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSweepRow {
    /// Replication factor V.
    pub factor: usize,
    /// Simulated options/second.
    pub options_per_second: f64,
    /// Speedup over V = 1 (the inter-option engine).
    pub speedup: f64,
}

/// Sweep the Figure-3 replication factor. With the dual-ported URAM copy
/// per function, the gain saturates at the port count — the mechanism
/// behind the paper's "replicated … six times, which doubled
/// performance".
pub fn vector_sweep(workload: &Workload, factors: &[usize]) -> Vec<VectorSweepRow> {
    let mut rows = Vec::new();
    let mut base = None;
    for &v in factors {
        let mut config = EngineVariant::Vectorised.config();
        config.vector_factor = v;
        let engine = FpgaCdsEngine::new(workload.market.clone(), config);
        let rate = engine.price_batch(&workload.options).options_per_second;
        let base_rate = *base.get_or_insert(rate);
        rows.push(VectorSweepRow {
            factor: v,
            options_per_second: rate,
            speedup: rate / base_rate,
        });
    }
    rows
}

/// One point of the hazard-II ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct IiSweepRow {
    /// Engine description.
    pub description: String,
    /// Simulated options/second.
    pub options_per_second: f64,
}

/// Isolate the Listing-1 II fix: run the baseline and the inter-option
/// dataflow engine under both accumulation regimes.
pub fn ii_sweep(workload: &Workload) -> Vec<IiSweepRow> {
    let mut rows = Vec::new();
    for (variant, label) in [
        (EngineVariant::XilinxBaseline, "baseline"),
        (EngineVariant::InterOption, "inter-option dataflow"),
    ] {
        for (mode, mode_label) in [
            (HazardIiMode::DependencyChained, "II=7"),
            (HazardIiMode::PartialSums, "II=1 (Listing 1)"),
        ] {
            let mut config = variant.config();
            config.hazard_ii = mode;
            let engine = FpgaCdsEngine::new(workload.market.clone(), config);
            let rate = engine.price_batch(&workload.options).options_per_second;
            rows.push(IiSweepRow {
                description: format!("{label}, {mode_label}"),
                options_per_second: rate,
            });
        }
    }
    rows
}

/// One point of the stream-depth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthSweepRow {
    /// Configured FIFO depth.
    pub depth: usize,
    /// Simulated options/second (vectorised engine).
    pub options_per_second: f64,
}

/// Sensitivity of the vectorised engine to inter-stage FIFO depth.
pub fn depth_sweep(workload: &Workload, depths: &[usize]) -> Vec<DepthSweepRow> {
    depths
        .iter()
        .map(|&depth| {
            let mut config = EngineVariant::Vectorised.config();
            config.stream_depth = depth;
            let engine = FpgaCdsEngine::new(workload.market.clone(), config);
            DepthSweepRow {
                depth,
                options_per_second: engine.price_batch(&workload.options).options_per_second,
            }
        })
        .collect()
}

/// Result of the reduced-precision exploration (paper §V further work).
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionReport {
    /// Options priced.
    pub options: usize,
    /// Maximum absolute spread error of f32 vs f64, in basis points.
    pub max_error_bps: f64,
    /// Mean absolute spread error in basis points.
    pub mean_error_bps: f64,
    /// Worst relative error.
    pub max_relative_error: f64,
}

/// Price the workload in both f64 and f32 and quantify the accuracy cost
/// of moving to single precision (the Versal-oriented further work of
/// the paper's conclusions).
pub fn precision(workload: &Workload) -> PrecisionReport {
    let market64: &MarketData<f64> = &workload.market;
    let market32 = market64.to_f32();
    let mut max_err = 0.0f64;
    let mut sum_err = 0.0f64;
    let mut max_rel = 0.0f64;
    for o in &workload.options {
        let s64 = price_cds_generic(market64, o.maturity, o.frequency.per_year(), o.recovery_rate);
        let s32 = price_cds_generic(
            &market32,
            o.maturity as f32,
            o.frequency.per_year(),
            o.recovery_rate as f32,
        ) as f64;
        let err = (s64 - s32).abs();
        max_err = max_err.max(err);
        sum_err += err;
        max_rel = max_rel.max(err / s64.abs().max(1e-12));
    }
    PrecisionReport {
        options: workload.options.len(),
        max_error_bps: max_err,
        mean_error_bps: sum_err / workload.options.len().max(1) as f64,
        max_relative_error: max_rel,
    }
}

/// One row of the further-work projection (paper §V): double- vs
/// single-precision engines on one U280.
#[derive(Debug, Clone, PartialEq)]
pub struct FutureWorkRow {
    /// Configuration description.
    pub description: String,
    /// Engines that fit on the U280.
    pub engines: usize,
    /// Aggregate throughput, options/second.
    pub options_per_second: f64,
    /// Power efficiency, options/Watt.
    pub options_per_watt: f64,
    /// Worst spread error versus the f64 reference, basis points.
    pub max_error_bps: f64,
}

/// Project the paper's §V further work: run the vectorised engine in both
/// precisions, fit as many engines as the U280 takes in each, and compare
/// throughput, efficiency and accuracy.
pub fn futurework(workload: &Workload) -> Vec<FutureWorkRow> {
    use cds_engine::config::EnginePrecision;
    use cds_engine::multi::MultiEngine;
    use cds_quant::cds::CdsPricer;
    use dataflow_sim::resource::Device;

    let device = Device::alveo_u280();
    let power = cds_power::FpgaPowerModel::alveo_u280_cds();
    let pricer = CdsPricer::new(workload.market.clone());
    let reference: Vec<f64> = workload.options.iter().map(|o| pricer.price(o).spread_bps).collect();

    let mut rows = Vec::new();
    for (precision, label) in [
        (EnginePrecision::Double, "f64 vectorised engines (paper)"),
        (EnginePrecision::Single, "f32 vectorised engines (further work)"),
    ] {
        let mut config = EngineVariant::Vectorised.config();
        config.precision = precision;
        let engines = MultiEngine::max_engines(&workload.market, &config, &device);
        let multi = match MultiEngine::with_config(workload.market.clone(), config, device, engines)
        {
            Ok(m) => m,
            Err(e) => panic!("max_engines count must fit by construction: {e}"),
        };
        let report = multi
            .price_batch(&workload.options)
            .unwrap_or_else(|e| panic!("the vectorised deployment must price: {e}"));
        let watts = power.watts(engines as u32);
        let max_error = report
            .spreads
            .iter()
            .zip(&reference)
            .map(|(s, r)| (s - r).abs())
            .fold(0.0f64, f64::max);
        rows.push(FutureWorkRow {
            description: label.to_string(),
            engines,
            options_per_second: report.options_per_second,
            options_per_watt: cds_power::options_per_watt(report.options_per_second, watts),
            max_error_bps: max_error,
        });
    }
    rows
}

/// The resource-driven engine-count table behind §IV ("being able to fit
/// five onto the Alveo U280").
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Resource usage of one vectorised engine.
    pub per_engine: dataflow_sim::resource::ResourceUsage,
    /// Device budget after platform reservation.
    pub usable: dataflow_sim::resource::ResourceUsage,
    /// Maximum engines that fit.
    pub max_engines: usize,
}

/// Compute the U280 fit of the vectorised engine.
pub fn fit_report(market: &MarketData<f64>) -> FitReport {
    let config = EngineVariant::Vectorised.config();
    let device = dataflow_sim::resource::Device::alveo_u280();
    let per_engine = cds_engine::multi::engine_resource_usage(&config, market.hazard.len());
    FitReport {
        per_engine,
        usable: device.usable(),
        max_engines: MultiEngine::max_engines(market, &config, &device),
    }
}

/// One point of the region-restart-overhead sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartSweepRow {
    /// Restart overhead in cycles.
    pub restart_cycles: u64,
    /// Per-option (optimised dataflow) engine throughput.
    pub options_per_second: f64,
}

/// Sensitivity to the one calibrated timing scalar: sweep the region
/// restart overhead of the per-option dataflow engine. At zero restart
/// the engine approaches the inter-option variant; at the calibrated
/// 18.2k cycles it reproduces the paper's optimised row. This makes the
/// calibration's influence explicit and bounded.
pub fn restart_sweep(workload: &Workload, overheads: &[u64]) -> Vec<RestartSweepRow> {
    overheads
        .iter()
        .map(|&restart| {
            let mut config = EngineVariant::OptimisedDataflow.config();
            config.region_cost = dataflow_sim::region::RegionCost::new(restart, 6);
            let engine = FpgaCdsEngine::new(workload.market.clone(), config);
            RestartSweepRow {
                restart_cycles: restart,
                options_per_second: engine.price_batch(&workload.options).options_per_second,
            }
        })
        .collect()
}

/// One point of the streaming latency-vs-load experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingRow {
    /// Offered load, options/second.
    pub offered_rate: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Achieved throughput, options/second.
    pub achieved_rate: f64,
}

/// Streaming latency vs offered load on the vectorised engine (the AAT
/// further-work direction): Poisson arrivals at each rate, latency from
/// arrival to spread-out.
pub fn streaming_sweep(workload: &Workload, rates: &[f64], n_options: usize) -> Vec<StreamingRow> {
    use cds_engine::streaming::{poisson_arrivals, run_streaming};
    let market = Rc::new(workload.market.clone());
    let config = EngineVariant::Vectorised.config();
    let options = &workload.options[..n_options.min(workload.options.len())];
    rates
        .iter()
        .map(|&rate| {
            let arrivals = poisson_arrivals(&config, rate, options.len(), workload.seed);
            let report = run_streaming(market.clone(), &config, options, &arrivals);
            StreamingRow {
                offered_rate: rate,
                p50_us: report.p50_us(&config),
                p99_us: report.p99_us(&config),
                achieved_rate: report.options_per_second,
            }
        })
        .collect()
}

/// One point of the constant-data size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSizeRow {
    /// Knots per curve.
    pub knots: usize,
    /// Inter-option engine throughput, options/second.
    pub options_per_second: f64,
}

/// Sweep the curve size (the paper fixes 1024 knots): the dataflow
/// engines' steady state is one full scan per time point, so throughput
/// is inversely proportional to the table size.
pub fn curve_size_sweep(seed: u64, n_options: usize, sizes: &[usize]) -> Vec<CurveSizeRow> {
    use cds_quant::option::PortfolioGenerator;
    sizes
        .iter()
        .map(|&knots| {
            let market = MarketData::paper_workload_sized(seed, knots);
            let options = PortfolioGenerator::uniform(
                n_options,
                5.5,
                cds_quant::option::PaymentFrequency::Quarterly,
                0.40,
            );
            let engine = FpgaCdsEngine::new(market, EngineVariant::InterOption.config());
            CurveSizeRow {
                knots,
                options_per_second: engine.price_batch(&options).options_per_second,
            }
        })
        .collect()
}

/// Occupancy analysis of the vectorised engine: run a small batch with
/// tracing enabled and return the per-stage utilisations plus a textual
/// Gantt chart — the paper's "stalls frequently occurred" diagnosis, made
/// visible.
pub struct OccupancyReport {
    /// `(stage name, busy fraction)`, sorted by name.
    pub utilisations: Vec<(String, f64)>,
    /// Fixed-width Gantt rendering.
    pub gantt: String,
    /// Total kernel cycles of the traced run.
    pub total_cycles: u64,
}

/// Trace the vectorised engine over a small batch.
pub fn occupancy(workload: &Workload, options: usize) -> OccupancyReport {
    let recorder = dataflow_sim::trace::TraceRecorder::new();
    let mut config = EngineVariant::Vectorised.config();
    config.trace = Some(recorder.clone());
    let engine = FpgaCdsEngine::new(workload.market.clone(), config);
    let report = engine.price_batch(&workload.options[..options.min(workload.options.len())]);
    let total = report.kernel_cycles;
    let utilisations = recorder
        .stages()
        .into_iter()
        .map(|s| {
            let u = recorder.utilisation(&s, total);
            (s, u)
        })
        .collect();
    OccupancyReport { utilisations, gantt: recorder.gantt(total, 64), total_cycles: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        Workload::paper(7, 24)
    }

    #[test]
    fn listing1_lane_kernel_numerically_sound() {
        for row in listing1(&[100, 1024, 1000]) {
            assert!(row.max_error < 1e-6, "len {}: error {}", row.length, row.max_error);
            // FPGA model: Listing 1 ≈ 7× fewer cycles at scale.
            let model_speedup = row.fpga_cycles_ii7 as f64 / row.fpga_cycles_listing1 as f64;
            assert!(model_speedup > 4.0, "model speedup {model_speedup}");
        }
    }

    #[test]
    fn vector_sweep_saturates_at_port_bandwidth() {
        let rows = vector_sweep(&wl(), &[1, 2, 6]);
        assert!(rows[1].speedup > 1.6, "V=2 speedup {}", rows[1].speedup);
        // Beyond the two URAM ports, more replicas add nothing.
        let extra = rows[2].options_per_second / rows[1].options_per_second;
        assert!(extra < 1.15, "V=6 over V=2 gave {extra}");
    }

    #[test]
    fn ii_sweep_shows_listing1_benefit() {
        let rows = ii_sweep(&wl());
        assert_eq!(rows.len(), 4);
        let rate = |needle: &str| {
            rows.iter().find(|r| r.description.contains(needle)).unwrap().options_per_second
        };
        assert!(rate("baseline, II=1") > rate("baseline, II=7") * 1.5);
        assert!(rate("inter-option dataflow, II=1") > rate("inter-option dataflow, II=7") * 3.0);
    }

    #[test]
    fn depth_sweep_monotone_then_flat() {
        let rows = depth_sweep(&wl(), &[1, 4, 16]);
        assert!(rows[1].options_per_second >= rows[0].options_per_second * 0.99);
        // Deep FIFOs should not dramatically beat the default.
        assert!(rows[2].options_per_second < rows[1].options_per_second * 1.3);
    }

    #[test]
    fn precision_error_small_but_nonzero() {
        let report = precision(&Workload::mixed(3, 64));
        assert!(report.max_error_bps > 0.0);
        assert!(report.max_error_bps < 1.0, "f32 error {} bps", report.max_error_bps);
        assert!(report.mean_error_bps <= report.max_error_bps);
        assert!(report.max_relative_error < 5e-3);
    }

    #[test]
    fn restart_sweep_spans_interoption_to_paper_row() {
        let rows = restart_sweep(&wl(), &[0, 18_200, 36_400]);
        // Monotone decreasing in overhead.
        assert!(rows[0].options_per_second > rows[1].options_per_second);
        assert!(rows[1].options_per_second > rows[2].options_per_second);
        // Zero restart approaches the inter-option engine (fills remain).
        let inter = FpgaCdsEngine::new(wl().market.clone(), EngineVariant::InterOption.config())
            .price_batch(&wl().options)
            .options_per_second;
        assert!(
            rows[0].options_per_second > 0.80 * inter,
            "{} vs {inter}",
            rows[0].options_per_second
        );
    }

    #[test]
    fn streaming_latency_grows_with_load() {
        let rows = streaming_sweep(&wl(), &[2_000.0, 100_000.0], 16);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].p99_us > rows[0].p99_us * 1.5,
            "light p99 {} vs heavy p99 {}",
            rows[0].p99_us,
            rows[1].p99_us
        );
    }

    #[test]
    fn curve_size_inverse_to_throughput() {
        let rows = curve_size_sweep(7, 12, &[512, 2048]);
        let ratio = rows[0].options_per_second / rows[1].options_per_second;
        assert!((3.0..5.0).contains(&ratio), "512 vs 2048 knots ratio {ratio}");
    }

    #[test]
    fn futurework_f32_fits_more_engines_and_goes_faster() {
        // Batch large enough that per-engine fills/overheads amortise
        // even at the higher f32 engine count.
        let rows = futurework(&Workload::paper(7, 240));
        assert_eq!(rows.len(), 2);
        let (f64_row, f32_row) = (&rows[0], &rows[1]);
        assert_eq!(f64_row.engines, 5);
        assert!(f32_row.engines > f64_row.engines, "f32 fits {} engines", f32_row.engines);
        // Throughput: more engines x faster scans.
        assert!(
            f32_row.options_per_second > 2.0 * f64_row.options_per_second,
            "f32 {} vs f64 {}",
            f32_row.options_per_second,
            f64_row.options_per_second
        );
        // Accuracy: f64 engines exact, f32 within a hundredth of a bp.
        assert!(f64_row.max_error_bps < 1e-6);
        assert!(f32_row.max_error_bps > 0.0 && f32_row.max_error_bps < 0.01);
    }

    #[test]
    fn occupancy_trace_shows_busy_replicas() {
        let r = occupancy(&wl(), 4);
        assert!(r.total_cycles > 0);
        // All 18 replicas (3 functions x V=6) appear.
        assert_eq!(r.utilisations.len(), 18);
        for (stage, u) in &r.utilisations {
            assert!(*u > 0.3 && *u <= 1.0, "{stage}: utilisation {u}");
        }
        assert!(r.gantt.contains("hazard-rep0"));
        assert!(r.gantt.lines().count() == 18);
    }

    #[test]
    fn fit_report_is_five_engines() {
        let report = fit_report(&wl().market);
        assert_eq!(report.max_engines, 5);
        assert!(report.per_engine.luts > 0);
    }
}
