//! `cds-harness` — command-line driver regenerating every table and
//! figure of the CLUSTER 2021 CDS paper.
//!
//! ```text
//! cds-harness <command> [--options N] [--seed S] [--csv DIR]
//!
//! commands:
//!   table1              Table I  — engine-variant throughput vs paper
//!   table2              Table II — scaling, power, options/Watt vs paper
//!   fig1|fig2|fig3      Figures 1-3 as Graphviz DOT on stdout
//!   listing1            Listing 1 accumulator comparison (host + model)
//!   ablation-vector     replication-factor sweep (Fig 3 mechanism)
//!   ablation-ii         hazard II=7 vs II=1 ablation
//!   ablation-depth      stream-depth sensitivity
//!   ablation-precision  f64 vs f32 accuracy (paper §V further work)
//!   fit                 U280 resource fit (five engines)
//!   futurework          f32 engines projection (paper §V further work)
//!   streaming           Poisson-arrival latency sweep (AAT further work)
//!   validate            independent cross-checks (MC, schedulers, bootstrap, M/D/1)
//!   ablation-curve      constant-data size sweep
//!   ablation-restart    dataflow-region restart overhead sweep
//!   trace               stage occupancy Gantt of the vectorised engine
//!   host-cpu            measure the real CPU engine on this machine
//!   bench               machine-readable benchmark ladder (BENCH.json)
//!   bench --throughput  wall-clock options/s of the CPU engines (gated)
//!   bench --tick-storm  incremental tick repricing vs full reprice (gated)
//!   chaos               seeded fault-injection matrix (CHAOS.json)
//!   loadgen             open-loop load against cds-server, SLO-gated
//!   server-chaos        serving failure modes vs a survival baseline
//!   server-chaos --isolation  tenant-isolation matrix (flood, slowloris,
//!                       wire fuzz) vs its baseline
//!   storage-chaos       storage-fault + crash-state sweep vs its baseline
//!   replay              record (--json) / re-execute (--check) a run journal
//!   conformance         metamorphic oracle + cross-variant differential fuzz
//!   all                 everything above (except replay, which needs a path)
//! ```
//!
//! `bench`, `chaos`, `loadgen`, `server-chaos` and `storage-chaos`
//! additionally take `--json PATH` (write the report) and
//! `--check BASELINE` (exit 1 on regression against a committed
//! baseline). Every such gate is a static check list in its report's
//! module, run by the one evaluator in `cds_harness::gate`; the
//! baseline is read and validated before the measurement starts. With
//! `--throughput`, `bench` instead *times* the CPU engines on this
//! machine (warm-up pass, then repeated timed passes) and reports
//! wall-clock options/s; `--threads N` pins the multi-threaded row
//! (default 2). With `--tick-storm`, `bench` storms the incremental
//! repricing engine with single-point curve ticks against a resident
//! book (`--options` sets the book size, default 1,048,576). `replay --json`
//! records a streaming run with its write-ahead journal (`--scenario`
//! picks the named fault scenario, default `corrupt-spread`); `replay
//! --check` re-executes it and exits 1 unless the spreads and the
//! write-ahead journal are bit-identical, and 2 for a file it cannot
//! read (including a version-1 file, whose seed may be rounded). `conformance` checks every metamorphic
//! relation against the reference and every price route, fuzzes
//! `--options N` adversarial cases differentially, and with
//! `--check CORPUS_DIR` replays the committed corpus; any divergence or
//! violated relation exits 1. `server-chaos --isolation` also prints
//! each broken noisy-neighbor bound to stderr as a `violated:` line. IO
//! and usage errors exit 2 with a message; gate failures exit 1.

use cds_harness::ablations;
use cds_harness::bench;
use cds_harness::chaos;
use cds_harness::figures;
use cds_harness::format::{rate, ratio, render_csv, render_table};
use cds_harness::gate::{self, Gate};
use cds_harness::hostcpu;
use cds_harness::journal;
use cds_harness::json::Json;
use cds_harness::loadgen;
use cds_harness::server_chaos;
use cds_harness::storage_chaos;
use cds_harness::tables;
use cds_harness::throughput;
use cds_harness::tick_storm;
use cds_harness::validate;
use cds_harness::workload::Workload;
use std::path::{Path, PathBuf};

struct Args {
    command: String,
    options: Option<usize>,
    seed: u64,
    csv_dir: Option<PathBuf>,
    json_path: Option<PathBuf>,
    check_baseline: Option<PathBuf>,
    throughput: bool,
    /// `--tick-storm`, run the incremental tick-storm bench instead of
    /// the ladder.
    tick_storm: bool,
    threads: Option<usize>,
    scenario: String,
    /// `--rate`, open-loop arrival rate for `loadgen` (requests/s).
    rate: Option<f64>,
    /// `--no-faults`, disable the loadgen kill/revive toggles.
    no_faults: bool,
    /// `--isolation`, run the tenant-isolation matrix instead of the
    /// serving chaos matrix.
    isolation: bool,
}

/// How a subcommand failed. `Fatal` is an environment/usage problem
/// (unreadable baseline, unwritable output) and exits 2; `GateFailed`
/// is a genuine regression or validation failure and exits 1, so CI can
/// tell "the harness broke" apart from "the numbers moved".
enum CliError {
    Fatal(String),
    GateFailed,
}

type CliResult = Result<(), CliError>;

fn fatal(msg: impl Into<String>) -> CliError {
    CliError::Fatal(msg.into())
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage("missing command"));
    let mut parsed = Args {
        command,
        options: None,
        seed: cds_harness::DEFAULT_SEED,
        csv_dir: None,
        json_path: None,
        check_baseline: None,
        throughput: false,
        tick_storm: false,
        threads: None,
        scenario: "corrupt-spread".to_string(),
        rate: None,
        no_faults: false,
        isolation: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--options" => {
                parsed.options = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--options needs a positive integer")),
                );
            }
            "--seed" => {
                parsed.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--csv" => {
                parsed.csv_dir = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| usage("--csv needs a directory")),
                ));
            }
            "--json" => {
                parsed.json_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| usage("--json needs a file path")),
                ));
            }
            "--check" => {
                parsed.check_baseline = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| usage("--check needs a baseline file")),
                ));
            }
            "--scenario" => {
                parsed.scenario =
                    args.next().unwrap_or_else(|| usage("--scenario needs a scenario name"));
            }
            "--throughput" => parsed.throughput = true,
            "--tick-storm" => parsed.tick_storm = true,
            "--rate" => {
                parsed.rate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&r: &f64| r.is_finite() && r > 0.0)
                        .unwrap_or_else(|| usage("--rate needs a positive requests/second")),
                );
            }
            "--no-faults" => parsed.no_faults = true,
            "--isolation" => parsed.isolation = true,
            "--threads" => {
                parsed.threads = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t: &usize| t >= 1)
                        .unwrap_or_else(|| usage("--threads needs a positive integer")),
                );
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    parsed
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: cds-harness <table1|table2|fig1|fig2|fig3|listing1|ablation-vector|\
         ablation-ii|ablation-depth|ablation-precision|ablation-curve|ablation-restart|fit|futurework|streaming|validate|trace|host-cpu|bench|chaos|loadgen|server-chaos|storage-chaos|replay|conformance|all> \
         [--options N] [--seed S] [--csv DIR] [--json PATH] [--check BASELINE] [--throughput] [--tick-storm] [--threads N] [--scenario NAME] [--rate R] [--no-faults] [--isolation]"
    );
    std::process::exit(2);
}

fn write_file(path: &Path, contents: &str) -> CliResult {
    std::fs::write(path, contents)
        .map_err(|e| fatal(format!("cannot write {}: {e}", path.display())))
}

fn create_dir(dir: &Path) -> CliResult {
    std::fs::create_dir_all(dir)
        .map_err(|e| fatal(format!("cannot create directory {}: {e}", dir.display())))
}

fn write_csv(
    dir: &Option<PathBuf>,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> CliResult {
    if let Some(dir) = dir {
        create_dir(dir)?;
        let path = dir.join(name);
        write_file(&path, &render_csv(headers, rows))?;
        println!("  [csv written to {}]", path.display());
    }
    Ok(())
}

/// Read and parse a `--check` baseline. Runs *before* the expensive
/// matrix/ladder so a bad path fails fast with exit 2.
fn read_baseline<T>(path: &Path, parse: impl Fn(&str) -> Result<T, String>) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fatal(format!("cannot read baseline {}: {e}", path.display())))?;
    parse(&text).map_err(|e| fatal(format!("malformed baseline {}: {e}", path.display())))
}

fn write_json_report(path: &Path, pretty: &str) -> CliResult {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        create_dir(dir)?;
    }
    write_file(path, pretty)
}

/// A `--check` baseline, read and validated against its gate before the
/// measurement runs.
struct Baseline<'a> {
    path: &'a Path,
    gate: &'static Gate,
    json: Json,
}

fn read_gate_baseline<'a>(
    path: Option<&'a PathBuf>,
    gate: &'static Gate,
) -> Result<Option<Baseline<'a>>, CliError> {
    path.map(|path| {
        let json = read_baseline(path, |text| gate::parse_baseline(gate, text))?;
        Ok(Baseline { path, gate, json })
    })
    .transpose()
}

/// The tail of every gated command: write the `--json` report, then gate
/// it against the baseline read up front (exit 1 on any problem).
fn publish(
    json_path: Option<&PathBuf>,
    what: &str,
    report: &Json,
    baseline: Option<Baseline>,
) -> CliResult {
    if let Some(path) = json_path {
        write_json_report(path, &report.pretty())?;
        println!("[{what} report written to {}]", path.display());
    }
    let Some(Baseline { path, gate, json }) = baseline else { return Ok(()) };
    let problems = gate::evaluate(gate, &json, report);
    if problems.is_empty() {
        println!(
            "{} check against {}: PASS ({} checks)",
            gate.name,
            path.display(),
            gate.checks.len()
        );
        return Ok(());
    }
    eprintln!("{} check against {}: FAIL", gate.name, path.display());
    for p in &problems {
        eprintln!("  {p}");
    }
    Err(CliError::GateFailed)
}

fn cmd_table1(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Table I: engine-variant throughput (options/second) ==");
    println!("   workload: {} options, 1024 interest + 1024 hazard rates\n", w.len());
    let t = tables::table1(w);
    let headers = ["Description", "Measured (opts/s)", "Paper (opts/s)", "Measured/Paper"];
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.description.clone(),
                rate(r.measured),
                rate(r.paper),
                ratio(r.measured / r.paper),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "speedups over Xilinx baseline: optimised {}  inter-option {}  vectorised {}  (paper: 2.13x 3.84x 7.99x)\n",
        ratio(t.speedup_over_baseline("Optimised")),
        ratio(t.speedup_over_baseline("inter-options")),
        ratio(t.speedup_over_baseline("Vectorisation")),
    );
    write_csv(csv, "table1.csv", &headers, &rows)
}

fn cmd_table2(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Table II: scaling, power and efficiency ==\n");
    let t = tables::table2(w);
    let headers = [
        "Description",
        "Measured (opts/s)",
        "Paper (opts/s)",
        "Watts",
        "Paper W",
        "Opts/Watt",
        "Paper O/W",
    ];
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.description.clone(),
                rate(r.measured_rate),
                rate(r.paper.0),
                format!("{:.2}", r.watts),
                format!("{:.2}", r.paper.1),
                rate(r.options_per_watt),
                rate(r.paper.2),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "FPGA(5) vs CPU(24): performance {}  power {} lower  efficiency {}  (paper: 1.55x, 4.7x, ~7x)\n",
        ratio(t.fpga_vs_cpu_performance()),
        ratio(t.power_ratio()),
        ratio(t.efficiency_ratio()),
    );
    write_csv(csv, "table2.csv", &headers, &rows)
}

fn cmd_listing1(csv: &Option<PathBuf>) -> CliResult {
    println!("== Listing 1: hazard accumulation kernels ==\n");
    let rows_data = ablations::listing1(&[64, 100, 1024, 4096, 4099]);
    let headers = [
        "Length",
        "Naive ns/elem",
        "Lanes ns/elem",
        "Host speedup",
        "FPGA cycles II=7",
        "FPGA cycles Listing-1",
        "Model speedup",
    ];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.length.to_string(),
                format!("{:.3}", r.naive_ns_per_elem),
                format!("{:.3}", r.lanes_ns_per_elem),
                ratio(r.host_speedup),
                r.fpga_cycles_ii7.to_string(),
                r.fpga_cycles_listing1.to_string(),
                ratio(r.fpga_cycles_ii7 as f64 / r.fpga_cycles_listing1 as f64),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    write_csv(csv, "listing1.csv", &headers, &rows)
}

fn cmd_vector(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Vectorisation sweep (Fig 3 mechanism) ==\n");
    let rows_data = ablations::vector_sweep(w, &[1, 2, 3, 4, 6, 8]);
    let headers = ["Replication V", "Options/s", "Speedup over V=1"];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| vec![r.factor.to_string(), rate(r.options_per_second), ratio(r.speedup)])
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("(gain saturates at the URAM port bandwidth — the paper saw 2x at V=6)\n");
    write_csv(csv, "ablation_vector.csv", &headers, &rows)
}

fn cmd_ii(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Hazard accumulation II ablation ==\n");
    let rows_data = ablations::ii_sweep(w);
    let headers = ["Engine", "Options/s"];
    let rows: Vec<Vec<String>> =
        rows_data.iter().map(|r| vec![r.description.clone(), rate(r.options_per_second)]).collect();
    println!("{}", render_table(&headers, &rows));
    write_csv(csv, "ablation_ii.csv", &headers, &rows)
}

fn cmd_depth(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Stream depth sweep (vectorised engine) ==\n");
    let rows_data = ablations::depth_sweep(w, &[1, 2, 4, 8, 16, 32]);
    let headers = ["FIFO depth", "Options/s"];
    let rows: Vec<Vec<String>> =
        rows_data.iter().map(|r| vec![r.depth.to_string(), rate(r.options_per_second)]).collect();
    println!("{}", render_table(&headers, &rows));
    write_csv(csv, "ablation_depth.csv", &headers, &rows)
}

fn cmd_precision(seed: u64, n: usize, csv: &Option<PathBuf>) -> CliResult {
    println!("== Reduced precision (f32) exploration — paper §V further work ==\n");
    let w = Workload::mixed(seed, n);
    let r = ablations::precision(&w);
    let headers = ["Options", "Max err (bps)", "Mean err (bps)", "Max rel err"];
    let rows = vec![vec![
        r.options.to_string(),
        format!("{:.6}", r.max_error_bps),
        format!("{:.6}", r.mean_error_bps),
        format!("{:.2e}", r.max_relative_error),
    ]];
    println!("{}", render_table(&headers, &rows));
    write_csv(csv, "ablation_precision.csv", &headers, &rows)
}

fn cmd_fit(w: &Workload) -> CliResult {
    println!("== Alveo U280 resource fit ==\n");
    let r = ablations::fit_report(&w.market);
    let headers = ["Resource", "Per engine", "Usable on U280", "Engines"];
    let mk = |name: &str, need: u64, have: u64| {
        vec![
            name.to_string(),
            need.to_string(),
            have.to_string(),
            have.checked_div(need).map_or_else(|| "-".to_string(), |n| n.to_string()),
        ]
    };
    let rows = vec![
        mk("LUTs", r.per_engine.luts, r.usable.luts),
        mk("FFs", r.per_engine.ffs, r.usable.ffs),
        mk("DSPs", r.per_engine.dsps, r.usable.dsps),
        mk("BRAM(18k)", r.per_engine.bram_18k, r.usable.bram_18k),
        mk("URAM", r.per_engine.uram, r.usable.uram),
    ];
    println!("{}", render_table(&headers, &rows));
    println!("maximum engines: {} (paper: five fit on the U280)\n", r.max_engines);
    Ok(())
}

fn cmd_validate(w: &Workload) -> CliResult {
    println!("== Artifact validation: independent cross-checks ==\n");
    let checks = validate::validate_all(w);
    let mut all = true;
    for c in &checks {
        all &= c.passed;
        println!("  [{}] {}\n        {}", if c.passed { "PASS" } else { "FAIL" }, c.name, c.detail);
    }
    println!("\n{}", if all { "all checks passed ✓" } else { "SOME CHECKS FAILED ✗" });
    if all {
        Ok(())
    } else {
        Err(CliError::GateFailed)
    }
}

fn cmd_streaming(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Streaming latency vs offered load (vectorised engine) ==\n");
    let rates = [5_000.0, 15_000.0, 25_000.0, 50_000.0, 100_000.0];
    let n = w.len().min(192);
    let rows_data = ablations::streaming_sweep(w, &rates, n);
    let headers = ["Offered (opts/s)", "p50 latency (us)", "p99 latency (us)", "Achieved (opts/s)"];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                rate(r.offered_rate),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                rate(r.achieved_rate),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("(beyond ~26.5k opts/s the engine saturates and queueing delay dominates)\n");
    write_csv(csv, "streaming.csv", &headers, &rows)
}

fn cmd_curvesize(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Constant-data size sweep (inter-option engine) ==\n");
    let n = w.len().min(64);
    let rows_data = ablations::curve_size_sweep(w.seed, n, &[256, 512, 1024, 2048, 4096]);
    let headers = ["Curve knots", "Options/s"];
    let rows: Vec<Vec<String>> =
        rows_data.iter().map(|r| vec![r.knots.to_string(), rate(r.options_per_second)]).collect();
    println!("{}", render_table(&headers, &rows));
    println!("(steady state is one full table scan per time point: throughput ~ 1/knots)\n");
    write_csv(csv, "curve_size.csv", &headers, &rows)
}

fn cmd_restart(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Region-restart overhead sweep (optimised dataflow engine) ==\n");
    let rows_data = ablations::restart_sweep(w, &[0, 4_000, 9_000, 18_200, 27_000, 36_000]);
    let headers = ["Restart (cycles)", "Options/s"];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| vec![r.restart_cycles.to_string(), rate(r.options_per_second)])
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("(18200 is the calibrated value implied by the paper's Table I rows)\n");
    write_csv(csv, "ablation_restart.csv", &headers, &rows)
}

fn cmd_futurework(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    println!("== Further work (paper \u{a7}V): reduced-precision engines ==\n");
    let rows_data = ablations::futurework(w);
    let headers = ["Configuration", "Engines", "Options/s", "Opts/Watt", "Max err (bps)"];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.description.clone(),
                r.engines.to_string(),
                rate(r.options_per_second),
                rate(r.options_per_watt),
                format!("{:.6}", r.max_error_bps),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("(f32 halves the scan footprint and the datapath, so more, faster engines fit)\n");
    write_csv(csv, "futurework.csv", &headers, &rows)
}

fn cmd_trace(w: &Workload) -> CliResult {
    println!("== Stage occupancy (vectorised engine, 8 options) ==\n");
    let r = ablations::occupancy(w, 8);
    print!("{}", r.gantt);
    println!("\ntotal: {} cycles; the replicated scan stages dominate — every", r.total_cycles);
    println!("other stage idles waiting on them, the stall pattern §III describes.\n");
    Ok(())
}

fn cmd_hostcpu(w: &Workload, csv: &Option<PathBuf>) -> CliResult {
    let max = hostcpu::host_parallelism();
    println!("== Host CPU measurement ({max} hardware threads) ==\n");
    let counts: Vec<usize> =
        [1usize, 2, 4, 8, 16, 24, 32].into_iter().filter(|&t| t <= max).collect();
    let rows_data = hostcpu::host_report(w, &counts);
    let headers = ["Threads", "Options/s", "Speedup"];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| vec![r.threads.to_string(), rate(r.options_per_second), ratio(r.speedup)])
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("(the paper's 24-core Cascade Lake scaled 8.68x — sub-linear, like above)\n");
    write_csv(csv, "host_cpu.csv", &headers, &rows)
}

fn cmd_bench_throughput(args: &Args) -> CliResult {
    let batch = args.options.unwrap_or(throughput::DEFAULT_THROUGHPUT_BATCH);
    let threads = args.threads.unwrap_or(throughput::DEFAULT_THROUGHPUT_THREADS);
    let baseline = read_gate_baseline(args.check_baseline.as_ref(), &throughput::GATE)?;
    println!(
        "== Wall-clock throughput (seed {}, batch {batch}, {threads} pinned threads) ==\n",
        args.seed
    );
    let report = throughput::run(args.seed, batch, threads);
    let headers = ["Row", "Options/s"];
    let rows: Vec<Vec<String>> =
        report.rows.iter().map(|r| vec![r.name.clone(), rate(r.options_per_second)]).collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "lane kernel speedup over scalar (1 thread): {} (required ≥ {})\n",
        ratio(report.lane_speedup_1t),
        ratio(report.min_lane_speedup)
    );
    publish(args.json_path.as_ref(), "throughput", &report.to_json(), baseline)
}

fn cmd_bench_tick_storm(args: &Args) -> CliResult {
    let residents = args.options.unwrap_or(tick_storm::DEFAULT_TICK_RESIDENTS);
    let baseline = read_gate_baseline(args.check_baseline.as_ref(), &tick_storm::GATE)?;
    println!("== Incremental tick storm (seed {}, {residents} resident options) ==\n", args.seed);
    let report = tick_storm::run(args.seed, residents);
    let headers = ["Row", "Per second"];
    let rows: Vec<Vec<String>> =
        report.rows.iter().map(|r| vec![r.name.clone(), rate(r.per_second)]).collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "off-lattice 1-point ticks vs full reprice: {} (required ≥ {}); \
         {} lattice-free knots, mean affected set {:.1} of {residents}",
        ratio(report.incremental_speedup),
        ratio(report.min_tick_speedup),
        report.free_knots,
        report.mean_affected
    );
    println!(
        "hot hazard-mid ticks vs full reprice: {} on {} thread(s) against a serial full reprice \
         (required ≥ {})",
        ratio(report.hazard_mid_speedup),
        report.hazard_mid_threads,
        ratio(report.min_hazard_speedup)
    );
    println!(
        "bitwise clean: {} mismatches vs full reprice; zero-delta contract: {}\n",
        report.bit_mismatches,
        if report.zero_delta_clean { "clean" } else { "VIOLATED" }
    );
    publish(args.json_path.as_ref(), "tick-storm", &report.to_json(), baseline)
}

fn cmd_bench(args: &Args) -> CliResult {
    if args.throughput {
        return cmd_bench_throughput(args);
    }
    if args.tick_storm {
        return cmd_bench_tick_storm(args);
    }
    let batch = args.options.unwrap_or(bench::DEFAULT_BENCH_BATCH);
    let baseline = read_gate_baseline(args.check_baseline.as_ref(), &bench::GATE)?;
    println!("== Machine-readable benchmark ladder (seed {}, batch {batch}) ==\n", args.seed);
    let report = bench::run(args.seed, batch);
    let headers = ["Metric", "Backend", "Options/s", "p99 (us)", "Util", "Backpressure"];
    let dash = || "-".to_string();
    let rows: Vec<Vec<String>> = report
        .runs()
        .map(|m| {
            let t = m.telemetry.as_ref();
            vec![
                m.name.clone(),
                m.backend.clone(),
                rate(m.options_per_second),
                m.latency.as_ref().map_or_else(dash, |l| format!("{:.1}", l.p99_us)),
                t.map_or_else(dash, |t| format!("{:.2}", t.mean_utilisation)),
                t.map_or_else(dash, |t| t.backpressure_events.to_string()),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    publish(args.json_path.as_ref(), "bench", &report.to_json(), baseline)
}

fn cmd_chaos(args: &Args, standalone: bool) -> CliResult {
    let baseline =
        read_gate_baseline(args.check_baseline.as_ref().filter(|_| standalone), &chaos::GATE)?;
    println!("== Fault-injection chaos matrix (seed {}) ==\n", args.seed);
    let report = chaos::run(args.seed);
    let headers = [
        "Scenario",
        "Faults",
        "Total",
        "Done",
        "Retried",
        "Shed",
        "Lost",
        "Quarantined",
        "Degraded",
        "Survived",
    ];
    let rows: Vec<Vec<String>> = report
        .cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.faults_injected.to_string(),
                c.options_total.to_string(),
                c.options_completed.to_string(),
                c.options_retried.to_string(),
                c.options_shed.to_string(),
                c.options_lost.to_string(),
                c.options_quarantined.to_string(),
                if c.degraded { "yes" } else { "no" }.to_string(),
                if c.survived { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    // What each injected fault actually hit: stream, token, option.
    println!("fault hits:");
    for c in &report.cases {
        if c.fault_events.is_empty() {
            continue;
        }
        let shown = c.fault_events.iter().take(4).cloned().collect::<Vec<_>>().join("; ");
        let more = c.fault_events.len().saturating_sub(4);
        let tail = if more > 0 { format!("; +{more} more") } else { String::new() };
        println!("  {}: {shown}{tail}", c.name);
    }
    println!();
    let gated = baseline.is_some();
    publish(args.json_path.as_ref().filter(|_| standalone), "chaos", &report.to_json(), baseline)?;
    survival_only(gated, report.all_survived(), "chaos matrix")
}

/// Without a baseline, a chaos matrix still fails when a scenario did
/// not survive.
fn survival_only(gated: bool, all_survived: bool, what: &str) -> CliResult {
    if gated || all_survived {
        return Ok(());
    }
    eprintln!("{what}: FAIL (a scenario did not survive)");
    Err(CliError::GateFailed)
}

/// Options per journalled replay run: small enough to re-execute in a
/// few seconds of simulated pricing, large enough to span several
/// journal fsync intervals.
const REPLAY_OPTIONS: u64 = 12;
/// Arrival cadence (cycles) of the journalled replay run.
const REPLAY_ARRIVAL_STEP: u64 = 30_000;
/// Journal fsync cadence (completed options) of the journalled replay run.
const REPLAY_CADENCE: u32 = 3;

fn cmd_replay(args: &Args) -> CliResult {
    if args.json_path.is_none() && args.check_baseline.is_none() {
        return Err(fatal("replay needs --json PATH (record) and/or --check JOURNAL (gate)"));
    }
    if let Some(path) = &args.json_path {
        let n = args.options.map_or(REPLAY_OPTIONS, |n| n as u64);
        println!(
            "== Recording run journal (seed {}, {n} options, scenario {}) ==",
            args.seed, args.scenario
        );
        let j = journal::record(args.seed, n, REPLAY_ARRIVAL_STEP, &args.scenario, REPLAY_CADENCE)
            .map_err(fatal)?;
        write_json_report(path, &j.pretty())?;
        println!(
            "[journal written to {}: {} spreads, {}-line write-ahead journal]",
            path.display(),
            j.spread_bits.len(),
            j.journal.lines().count()
        );
    }
    if let Some(path) = &args.check_baseline {
        let j = read_baseline(path, journal::RunJournal::parse)?;
        println!(
            "== Replaying journal {} (seed {}, {} options, scenario {}) ==",
            path.display(),
            j.seed,
            j.options,
            j.scenario
        );
        let problems = journal::check(&j).map_err(fatal)?;
        if problems.is_empty() {
            println!(
                "replay of {}: PASS ({} spreads and the {}-line journal bit-identical)",
                path.display(),
                j.spread_bits.len(),
                j.journal.lines().count()
            );
        } else {
            eprintln!("replay of {}: FAIL", path.display());
            for p in &problems {
                eprintln!("  divergence: {p}");
            }
            return Err(CliError::GateFailed);
        }
    }
    Ok(())
}

fn cmd_conformance(args: &Args) -> CliResult {
    use cds_harness::conformance;
    let cases = args.options.map_or(conformance::DEFAULT_FUZZ_CASES, |n| n as u64);
    println!("== Differential conformance suite (seed {}, {cases} fuzz cases) ==\n", args.seed);
    let report =
        conformance::run(args.seed, cases, args.check_baseline.as_deref()).map_err(fatal)?;

    // Relation sweep: one row per model, a column per relation.
    let relations: Vec<&str> =
        cds_conformance::oracle::Relation::ALL.iter().map(|r| r.label()).collect();
    let mut headers = vec!["Model"];
    headers.extend(&relations);
    let mut models: Vec<&str> = Vec::new();
    for o in &report.relations {
        if !models.contains(&o.model.as_str()) {
            models.push(&o.model);
        }
    }
    let rows: Vec<Vec<String>> = models
        .iter()
        .map(|model| {
            let mut row = vec![(*model).to_string()];
            for rel in &relations {
                let ok = report
                    .relations
                    .iter()
                    .find(|o| o.model == *model && o.relation == *rel)
                    .is_some_and(|o| o.violation.is_none());
                row.push(if ok { "ok" } else { "VIOLATED" }.to_string());
            }
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!(
        "fuzz: {} cases, {} options priced through {} routes, {} divergence(s)",
        report.fuzz.cases,
        report.fuzz.options_priced,
        report.fuzz.routes,
        report.fuzz.failures.len()
    );
    for f in &report.fuzz.failures {
        eprintln!("  divergent case (seed {}, index {}), shrunk:", f.seed, f.index);
        for line in f.shrunk.to_text().lines() {
            eprintln!("    {line}");
        }
        for rf in &f.failures {
            eprintln!("    {rf}");
        }
    }
    for o in report.relations.iter().filter(|o| o.violation.is_some()) {
        if let Some(v) = &o.violation {
            eprintln!("  relation violation: {v}");
        }
    }
    if !report.corpus.is_empty() {
        let clean = report
            .corpus
            .iter()
            .filter(|c| c.route_failures.is_empty() && c.relation_violations.is_empty())
            .count();
        println!("corpus: {}/{} committed cases clean", clean, report.corpus.len());
        for c in &report.corpus {
            for f in c.route_failures.iter().chain(&c.relation_violations) {
                eprintln!("  corpus case {}: {f}", c.name);
            }
        }
    }
    if let Some(path) = &args.json_path {
        write_json_report(path, &report.to_json().pretty())?;
        println!("[conformance report written to {}]", path.display());
    }
    if report.clean() {
        println!("conformance: PASS");
        Ok(())
    } else {
        eprintln!("conformance: FAIL");
        Err(CliError::GateFailed)
    }
}

fn cmd_loadgen(args: &Args) -> CliResult {
    let baseline = read_gate_baseline(args.check_baseline.as_ref(), &loadgen::GATE)?;
    let config = loadgen::LoadgenConfig {
        seed: args.seed,
        requests: args.options.unwrap_or(loadgen::DEFAULT_REQUESTS),
        rate_per_s: args.rate.unwrap_or(loadgen::DEFAULT_RATE),
        faults: !args.no_faults,
    };
    println!(
        "== Open-loop load generation (seed {}, {} requests at {}/s, faults {}) ==\n",
        config.seed,
        config.requests,
        config.rate_per_s,
        if config.faults { "on" } else { "off" }
    );
    let report = loadgen::run(&config).map_err(|e| fatal(format!("loadgen server failed: {e}")))?;
    let rows = vec![
        vec!["sent".to_string(), report.sent.to_string()],
        vec!["priced".to_string(), report.priced.to_string()],
        vec!["shed".to_string(), report.shed.to_string()],
        vec!["rejected".to_string(), report.rejected.to_string()],
        vec!["errored".to_string(), report.errored.to_string()],
        vec!["curve ticks".to_string(), report.ticks.to_string()],
        vec!["fault toggles".to_string(), report.faults.to_string()],
        vec!["p50 (us)".to_string(), report.quantiles.p50_micros.to_string()],
        vec!["p99 (us)".to_string(), report.quantiles.p99_micros.to_string()],
        vec!["p999 (us)".to_string(), report.quantiles.p999_micros.to_string()],
        vec!["achieved rate (/s)".to_string(), format!("{:.0}", report.achieved_rate_per_s)],
        vec!["worst rung".to_string(), report.worst_rung.to_string()],
    ];
    println!("{}", render_table(&["Metric", "Value"], &rows));
    let gated = baseline.is_some();
    publish(args.json_path.as_ref(), "loadgen", &report.to_json(), baseline)?;
    if !gated && report.answered() < report.sent {
        eprintln!("loadgen: FAIL ({} request(s) never answered)", report.sent - report.answered());
        return Err(CliError::GateFailed);
    }
    Ok(())
}

fn cmd_server_chaos(args: &Args) -> CliResult {
    let baseline = read_gate_baseline(args.check_baseline.as_ref(), &server_chaos::GATE)?;
    if args.isolation {
        println!("== Tenant-isolation matrix (seed {}) ==\n", args.seed);
    } else {
        println!("== Serving chaos matrix (seed {}) ==\n", args.seed);
    }
    let report = if args.isolation {
        server_chaos::run_isolation(args.seed)
    } else {
        server_chaos::run(args.seed)
    }
    .map_err(|e| fatal(format!("server-chaos scenario failed: {e}")))?;
    let headers = ["Scenario", "Sent", "Priced", "Shed", "Degraded", "Match", "Survived"];
    let rows: Vec<Vec<String>> = report
        .cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.sent.to_string(),
                c.priced.to_string(),
                c.shed.to_string(),
                if c.degraded { "yes" } else { "no" }.to_string(),
                if c.spreads_match_clean { "yes" } else { "NO" }.to_string(),
                if c.survived { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    for case in &report.cases {
        for v in &case.violations {
            eprintln!("{} violated: {v}", case.name);
        }
    }
    let gated = baseline.is_some();
    publish(args.json_path.as_ref(), "server-chaos", &report.to_json(), baseline)?;
    survival_only(gated, report.all_survived(), "server-chaos matrix")
}

fn cmd_storage_chaos(args: &Args) -> CliResult {
    let baseline = read_gate_baseline(args.check_baseline.as_ref(), &storage_chaos::GATE)?;
    println!("== Storage-fault crash-consistency matrix (seed {}) ==\n", args.seed);
    let report = storage_chaos::run(args.seed)
        .map_err(|e| fatal(format!("storage-chaos scenario failed: {e}")))?;
    let headers = ["Scenario", "States", "Typed", "Resumed", "ZeroSilent", "Ordering", "Survived"];
    let rows: Vec<Vec<String>> = report
        .cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.states.to_string(),
                c.typed.to_string(),
                c.resumed.to_string(),
                if c.zero_silent_corruption { "yes" } else { "NO" }.to_string(),
                if c.ordering_held { "yes" } else { "no" }.to_string(),
                if c.survived { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    let gated = baseline.is_some();
    publish(args.json_path.as_ref(), "storage-chaos", &report.to_json(), baseline)?;
    survival_only(gated, report.all_survived(), "storage-chaos matrix")
}

fn run(args: &Args) -> CliResult {
    let workload =
        Workload::try_paper(args.seed, args.options.unwrap_or(cds_harness::DEFAULT_BATCH))
            .map_err(|e| fatal(format!("invalid workload parameters: {e}")))?;
    match args.command.as_str() {
        "table1" => cmd_table1(&workload, &args.csv_dir),
        "table2" => cmd_table2(&workload, &args.csv_dir),
        "fig1" => {
            print!("{}", figures::fig1_dot());
            Ok(())
        }
        "fig2" => {
            print!("{}", figures::fig2_dot(&workload.market));
            Ok(())
        }
        "fig3" => {
            print!("{}", figures::fig3_dot(&workload.market));
            Ok(())
        }
        "listing1" => cmd_listing1(&args.csv_dir),
        "ablation-vector" => cmd_vector(&workload, &args.csv_dir),
        "ablation-ii" => cmd_ii(&workload, &args.csv_dir),
        "ablation-depth" => cmd_depth(&workload, &args.csv_dir),
        "ablation-precision" => cmd_precision(
            args.seed,
            args.options.unwrap_or(cds_harness::DEFAULT_BATCH),
            &args.csv_dir,
        ),
        "fit" => cmd_fit(&workload),
        "trace" => cmd_trace(&workload),
        "futurework" => cmd_futurework(&workload, &args.csv_dir),
        "streaming" => cmd_streaming(&workload, &args.csv_dir),
        "validate" => cmd_validate(&workload),
        "ablation-curve" => cmd_curvesize(&workload, &args.csv_dir),
        "ablation-restart" => cmd_restart(&workload, &args.csv_dir),
        "host-cpu" => cmd_hostcpu(&workload, &args.csv_dir),
        "bench" => cmd_bench(args),
        "chaos" => cmd_chaos(args, true),
        "loadgen" => cmd_loadgen(args),
        "server-chaos" => cmd_server_chaos(args),
        "storage-chaos" => cmd_storage_chaos(args),
        "replay" => cmd_replay(args),
        "conformance" => cmd_conformance(args),
        "all" => {
            if let Some(dir) = &args.csv_dir {
                create_dir(dir)?;
                write_file(&dir.join("fig1.dot"), &figures::fig1_dot())?;
                write_file(&dir.join("fig2.dot"), &figures::fig2_dot(&workload.market))?;
                write_file(&dir.join("fig3.dot"), &figures::fig3_dot(&workload.market))?;
                println!("[figures written to {}/fig{{1,2,3}}.dot]\n", dir.display());
            }
            cmd_table1(&workload, &args.csv_dir)?;
            cmd_table2(&workload, &args.csv_dir)?;
            cmd_listing1(&args.csv_dir)?;
            cmd_vector(&workload, &args.csv_dir)?;
            cmd_ii(&workload, &args.csv_dir)?;
            cmd_depth(&workload, &args.csv_dir)?;
            cmd_precision(
                args.seed,
                args.options.unwrap_or(cds_harness::DEFAULT_BATCH),
                &args.csv_dir,
            )?;
            cmd_fit(&workload)?;
            cmd_futurework(&workload, &args.csv_dir)?;
            cmd_streaming(&workload, &args.csv_dir)?;
            cmd_curvesize(&workload, &args.csv_dir)?;
            cmd_restart(&workload, &args.csv_dir)?;
            cmd_validate(&workload)?;
            cmd_trace(&workload)?;
            cmd_hostcpu(&workload, &args.csv_dir)?;
            cmd_bench(args)?;
            // `--check`/`--json` under `all` name the *bench* artefacts;
            // the chaos gate has its own baseline and runs survival-only.
            cmd_chaos(args, false)
        }
        other => usage(&format!("unknown command {other}")),
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(()) => {}
        Err(CliError::Fatal(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        Err(CliError::GateFailed) => std::process::exit(1),
    }
}
