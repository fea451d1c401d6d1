//! The batch phase: repeated full passes over a 262,144-option mixed book
//! under one fixed 1024-knot market, through the 1-thread lane path
//! (`CpuCdsEngine::price_batch`) and the 2-thread path
//! (`cds_cpu::price_parallel(.., 2)`). Every pass is checked bit for bit
//! against `price_batch_scalar`.

use crate::stats::{median, percentile, Report, QUIET_PCT};
use crate::trace::Tracer;
use crate::Args;
use cds_cpu::{price_parallel, CpuCdsEngine};
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency, PortfolioGenerator};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Options in the book.
pub const BOOK: usize = 262_144;
/// Set-ups per run; the phase's set-up time is their median.
pub const SETUPS: usize = 15;
/// Options per scalar-baseline and single-quote probe in the traced run.
const PROBE: usize = 4096;

struct Inputs {
    market: MarketData<f64>,
    book: Vec<CdsOption>,
    engine: CpuCdsEngine,
}

fn setup(seed: u64) -> Inputs {
    let market = MarketData::paper_workload(seed);
    let book = PortfolioGenerator::new(seed).portfolio(BOOK);
    let engine = CpuCdsEngine::new(&market);
    Inputs { market, book, engine }
}

/// Bit-exact comparison of priced passes against the scalar oracle.
struct Checker {
    oracle: Vec<u64>,
    corrupt_next: bool,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Check `spreads`, which priced `oracle[offset..offset + len]`.
    fn check(&mut self, offset: usize, spreads: &[f64]) {
        let want = &self.oracle[offset..offset + spreads.len()];
        for (i, (s, w)) in spreads.iter().zip(want).enumerate() {
            let mut bits = s.to_bits();
            if i == 0 && self.corrupt_next {
                bits ^= 1;
            }
            self.failed += u64::from(bits != *w);
        }
        self.corrupt_next = false;
        self.attempted += spreads.len() as u64;
    }
}

/// The batch phase of a run: its book, engine, oracle and pass timings.
pub struct Batch {
    inputs: Inputs,
    checker: Checker,
    setup_s: Vec<f64>,
    pass_1t_s: Vec<f64>,
    pass_2t_s: Vec<f64>,
}

impl Batch {
    /// Set up `SETUPS` times (keeping the last), record the inputs and
    /// price the scalar oracle.
    pub fn new(args: &Args, report: &mut Report, llc_bytes: u64) -> Result<Batch, String> {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut built = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            let inputs = black_box(setup(args.seed));
            setup_s.push(t.elapsed().as_secs_f64());
            built = Some(inputs);
        }
        let inputs = built.ok_or("no set-up ran")?;
        let (market, book) = (&inputs.market, &inputs.book);

        let book_bytes = std::mem::size_of_val(book.as_slice()) as u64;
        report.input("book_options", BOOK);
        report.input("book_bytes", book_bytes);
        report.input(
            "book_bytes_over_llc",
            format!("{:.3}", book_bytes as f64 / llc_bytes.max(1) as f64),
        );
        report.input("knots_interest", market.interest.len());
        report.input("knots_hazard", market.hazard.len());
        let mix: Vec<String> = PaymentFrequency::ALL
            .iter()
            .map(|f| format!("{f:?}={}", book.iter().filter(|o| o.frequency == *f).count()))
            .collect();
        report.input("frequency_mix", mix.join(","));
        report.input("threads_2t", 2);

        let oracle = inputs.engine.price_batch_scalar(book).into_iter().map(f64::to_bits).collect();
        let checker = Checker { oracle, corrupt_next: args.corrupt_bit, attempted: 0, failed: 0 };
        Ok(Batch { inputs, checker, setup_s, pass_1t_s: Vec::new(), pass_2t_s: Vec::new() })
    }

    /// Median set-up time: book generation plus engine build.
    pub fn setup_s(&mut self) -> f64 {
        median(&mut self.setup_s).unwrap_or(0.0)
    }

    pub fn passes(&self) -> usize {
        self.pass_1t_s.len()
    }

    /// One timed step: a 1-thread pass, then a 2-thread pass, each
    /// checked after its clock stops.
    pub fn step(&mut self) {
        let Inputs { book, engine, .. } = &self.inputs;
        let t = Instant::now();
        let out = black_box(engine.price_batch(black_box(book)));
        self.pass_1t_s.push(t.elapsed().as_secs_f64());
        self.checker.check(0, &out);
        drop(out);
        let t = Instant::now();
        let out = black_box(price_parallel(engine, black_box(book), 2));
        self.pass_2t_s.push(t.elapsed().as_secs_f64());
        self.checker.check(0, &out);
    }

    /// The end-to-end rates of the timed steps, from the `QUIET_PCT`
    /// pass time (a 1-thread pass reads 22-25 ms on a quiet host, 33-37
    /// ms on a busy one).
    pub fn metrics(&mut self, report: &mut Report) {
        let n = self.passes();
        let quiet = |t: &mut Vec<f64>| percentile(t, QUIET_PCT).unwrap_or(f64::INFINITY);
        report.metric("batch.opts_per_s_1t", BOOK as f64 / quiet(&mut self.pass_1t_s), "1/s", n);
        report.metric("batch.opts_per_s_2t", BOOK as f64 / quiet(&mut self.pass_2t_s), "1/s", n);
    }

    /// Add this phase's checks to the report.
    pub fn finish(self, report: &mut Report) {
        let Checker { attempted, failed, .. } = self.checker;
        report.attempted += attempted;
        report.failed += failed;
        if failed > 0 {
            report.correct = false;
            report.problem(format!(
                "{failed} of {attempted} spreads differ in bits from price_batch_scalar"
            ));
        }
    }

    /// The traced phase: untraced 1-thread passes alternate with traced
    /// ones, each traced pass followed by a replay through the lane
    /// layer's public pieces (engine build, cold and warm kernel passes,
    /// the 2-thread split, the scalar baseline and single quotes).
    /// Returns `trace.overhead_frac` of this phase and its pass count.
    pub fn traced(&mut self, args: &Args, report: &mut Report, seconds: Duration) -> (f64, usize) {
        let Inputs { market, book, engine } = &self.inputs;
        let checker = &mut self.checker;
        let mut untraced = Vec::new();
        let mut tr = Tracer::new();
        let mut time_points_per_opt = 0.0;
        let mut out = Vec::new();
        let mut half_out = Vec::new();
        let mut probe_out = Vec::new();
        let deadline = Instant::now() + seconds;
        let mut pass = 0u64;
        // Untraced and traced passes alternate, in both orders, so neither
        // host drift nor the cache-cold replay lands on one side of
        // `trace.overhead_frac`.
        while Instant::now() < deadline || pass < 3 {
            for traced_turn in [pass.is_multiple_of(2), !pass.is_multiple_of(2)] {
                let spreads = if traced_turn {
                    let root = tr.enter("batch.pass", pass);
                    let (spreads, _) =
                        tr.span("cpu.price_batch", pass, || engine.price_batch(black_box(book)));
                    tr.exit(root);
                    spreads
                } else {
                    let t = Instant::now();
                    let spreads = black_box(engine.price_batch(black_box(book)));
                    untraced.push(t.elapsed().as_nanos() as f64);
                    spreads
                };
                checker.check(0, &spreads);
            }

            let root = tr.enter("batch.replay", pass);
            let (fresh, _) =
                tr.span("cpu.engine_build", pass, || CpuCdsEngine::new(black_box(market)));
            black_box(&fresh);
            // Grid build shows as the first pass of a fresh kernel over a
            // probe slice minus a warm pass over the same slice.
            let offset = (pass as usize * PROBE) % (book.len() - PROBE);
            let probe = &book[offset..offset + PROBE];
            let mut kernel = engine.lane_kernel();
            tr.span("cpu.kernel_cold", pass, || kernel.price_into(probe, &mut probe_out));
            tr.span("cpu.kernel_warm", pass, || kernel.price_into(probe, &mut probe_out));
            let (stats, _) = tr.span("cpu.lanes_dense", pass, || kernel.price_into(book, &mut out));
            time_points_per_opt = stats.time_points as f64 / stats.options.max(1) as f64;
            tr.span("cpu.lanes_half", pass, || {
                kernel.price_into(&book[..book.len() / 2], &mut half_out)
            });
            let (par, _) = tr.span("cpu.price_parallel", pass, || price_parallel(engine, book, 2));
            let (scalar, _) = tr.span("cpu.scalar", pass, || engine.price_batch_scalar(probe));
            let (quotes, _) = tr.span("cpu.quote", pass, || {
                probe.iter().map(|o| engine.price(o).spread_bps).collect::<Vec<f64>>()
            });
            tr.exit(root);
            checker.check(offset, &probe_out);
            checker.check(0, &out);
            checker.check(0, &half_out);
            checker.check(0, &par);
            checker.check(offset, &scalar);
            checker.check(offset, &quotes);
            pass += 1;
        }

        let mut own = tr.self_times();
        let mut med = |name: &str| own.get_mut(name).and_then(|v| median(v)).unwrap_or(0.0);
        let e2e = med("cpu.price_batch");
        let cold = med("cpu.kernel_cold") - med("cpu.kernel_warm");
        let dense = med("cpu.lanes_dense");
        let par = med("cpu.price_parallel");
        let half_pass = med("cpu.lanes_half");
        let build = med("cpu.engine_build");
        let scalar = med("cpu.scalar");
        let quote = med("cpu.quote");
        let untraced_e2e = median(&mut untraced).unwrap_or(1.0);
        let n = pass as usize;
        let opts = book.len() as f64;
        report.metric("cpu.dense_ns_per_opt", dense / opts, "ns", n);
        report.metric("cpu.time_points_per_opt", time_points_per_opt, "count", n);
        report.metric("cpu.engine_build_us", build / 1e3, "us", n);
        report.metric("cpu.kernel_cold_us", cold / 1e3, "us", n);
        report.metric("cpu.parallel_overhead_us", (par - half_pass) / 1e3, "us", n);
        report.metric("cpu.scaling_eff_2t", e2e / (2.0 * par), "ratio", n);
        report.metric("cpu.scalar_ns_per_opt", scalar / PROBE as f64, "ns", n);
        report.metric("cpu.quote_ns", quote / PROBE as f64, "ns", n);
        report.metric("batch.unattributed_us", (e2e - dense - cold) / 1e3, "us", n);
        report.input("batch_trace_spans", tr.len());
        let path = args.out_dir.join(format!("trace-{}-batch-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            report.problem(format!("writing {}: {e}", path.display()));
        }
        report.input("batch_trace_file", path.display());
        ((e2e - untraced_e2e) / untraced_e2e, n)
    }
}
