//! The repository benchmark: workloads that drive the pricing layers
//! from outside the program and check every answer bit for bit.
//!
//! `batch` and `ticks` both run the batch phase (full passes over a
//! book, 1 and 2 threads) and the tick phase (point ticks and churn on
//! an incremental book), so each reports every end-to-end metric. They
//! differ in how the measured time is shared: `batch` gives
//! `MAJOR_SHARE` of it to batch passes, `ticks` to tick cycles. The
//! `serve` workload drives an in-process server on its own.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch|ticks|serve> --seed <n> --seconds <s> --trace <0|1> [--corrupt-bit]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. Human-readable
//! lines (inputs, then every metric with unit and sample count) come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A wrong answer exits
//! 1; `--corrupt-bit` flips one checked spread bit to prove it does.
//! Scratch files (journals, span dumps) go to `.bench_out/`.

mod batch;
mod host;
mod serve;
mod stats;
mod ticks;
mod trace;

use stats::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Share of the measured time a workload gives to its own phase; the
/// other phase gets the rest.
const MAJOR_SHARE: f64 = 0.75;
/// Fewest batch steps and tick latency windows a timed run takes,
/// however short.
const MIN_STEPS: usize = 3;

/// Parsed command line, shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Flip one bit of one checked answer before checking it.
    pub corrupt_bit: bool,
    /// Where scratch files are written (inside the working directory).
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <batch|ticks|serve> --seed <n> --seconds <s> \
                     --trace <0|1> [--corrupt-bit]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_bit = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s =
                    value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            "--corrupt-bit" => corrupt_bit = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "batch" | "ticks" | "serve") {
        return Err(format!("unknown workload `{workload}` (want batch, ticks or serve)"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_bit,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report { correct: true, ..Report::default() };
    let caches = host::caches();
    report.input("workload", &args.workload);
    report.input("seed", args.seed);
    report.input("seconds", args.seconds.as_secs_f64());
    report.input("trace", u8::from(args.trace));
    report.input("nproc", host::nproc());
    report.input("cpu_model", host::cpu_model());
    report.input("caches", host::cache_summary(&caches));
    report.input("llc_bytes", host::llc_bytes(&caches));

    let result = match args.workload.as_str() {
        "serve" => serve::run(&args, &mut report),
        _ => run_phases(&args, &mut report, host::llc_bytes(&caches)),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} workload failed to run: {e}", args.workload);
        return ExitCode::from(2);
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite ({})", m.name, m.value);
            return ExitCode::from(2);
        }
    }

    for (k, v) in &report.inputs {
        println!("input  {k:<24} {v}");
    }
    for m in &report.metrics {
        println!("metric {:<28} {:>16.6} {:<6} samples={}", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "checks attempted={} failed={} correct={}",
        report.attempted, report.failed, report.correct
    );
    for p in &report.problems {
        println!("problem {p}");
        eprintln!("perfbench: {p}");
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run the batch and tick phases of the `batch` or `ticks` workload.
///
/// Both phases set up first; `setup_s` is the sum of their median
/// set-up times. The timed steps then interleave, each next step going
/// to the phase that is furthest behind its share of the time, so both
/// phases sample the host over the whole run.
fn run_phases(args: &Args, report: &mut Report, llc_bytes: u64) -> Result<(), String> {
    let batch_share = if args.workload == "batch" { MAJOR_SHARE } else { 1.0 - MAJOR_SHARE };
    report.input("batch_time_share", batch_share);
    let mut batch = batch::Batch::new(args, report, llc_bytes)?;
    let mut ticks = ticks::Ticks::new(args, report, llc_bytes)?;
    let setup_s = batch.setup_s() + ticks.setup_s();

    if args.trace {
        let (batch_frac, batch_n) = batch.traced(args, report, args.seconds.mul_f64(batch_share));
        let (tick_frac, tick_n) =
            ticks.traced(args, report, args.seconds.mul_f64(1.0 - batch_share));
        let overhead = batch_share * batch_frac + (1.0 - batch_share) * tick_frac;
        report.metric("trace.overhead_frac", overhead, "ratio", batch_n + tick_n);
    } else {
        let (mut batch_s, mut tick_s) = (0.0, 0.0);
        let deadline = Instant::now() + args.seconds;
        while Instant::now() < deadline || batch.passes() < MIN_STEPS || ticks.windows() < MIN_STEPS
        {
            let t = Instant::now();
            if batch_s * (1.0 - batch_share) <= tick_s * batch_share {
                batch.step();
                batch_s += t.elapsed().as_secs_f64();
            } else {
                ticks.cycle();
                tick_s += t.elapsed().as_secs_f64();
            }
        }
        report.metric("setup_s", setup_s, "s", batch::SETUPS + ticks::SETUPS);
        batch.metrics(report);
        ticks.metrics(report);
    }
    batch.finish(report);
    ticks.finish(args, report);
    Ok(())
}
