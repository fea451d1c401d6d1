//! The tick phase: an `IncrementalEngine` holding 262,144 residents takes a
//! seeded stream of value-changing point ticks. 15 of every 16 land at a
//! lattice-free interest knot (the *sparse* class), 1 of every 16 at a
//! hazard knot (the *hot* class); after every 64 ticks the book churns
//! by 64 inserts and 64 removes. After the run the stored spreads must
//! equal a from-scratch `full_reprice` bit for bit.

use crate::stats::{median, percentile, Report, QUIET_PCT};
use crate::trace::Tracer;
use crate::Args;
use cds_cpu::CpuCdsEngine;
use cds_engine::incremental::{CurveKind, CurveTick, IncrementalEngine};
use cds_engine::portfolio::PortfolioState;
use cds_quant::curve::Curve;
use cds_quant::option::{CdsOption, MarketData, PortfolioGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Resident options.
pub const RESIDENTS: usize = 262_144;
/// Set-ups per run; the phase's set-up time is their median.
pub const SETUPS: usize = 21;
/// One tick in this many is a hot hazard tick.
const HOT_EVERY: u64 = 16;
/// Ticks between churn rounds, and inserts (= removes) per round.
const CHURN_EVERY: u64 = 64;
const CHURN: usize = 64;
/// Churn cycles per latency window (256 ticks, 16 of them hot).
const WINDOW_CYCLES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Sparse,
    Hot,
}

/// One stream element. Tick values are relative (`factor`) so the
/// absolute value follows the engine's current knot value.
enum Op {
    Tick { class: Class, curve: CurveKind, knot: usize, factor: f64 },
    Churn { inserts: Vec<CdsOption>, remove_draws: Vec<u64> },
}

/// The seeded input stream; the same seed yields the same ops.
///
/// Each class cycles through its knots in a seeded order instead of
/// drawing them independently: a tick's cost depends on where its knot
/// sits on the curve, and cycling gives every run the same spread of
/// knots, so the seed changes the order and the market but not the mix.
/// The order is a golden-ratio stride from a seeded start, so even a run
/// that visits only part of a class's knots samples the whole curve
/// evenly.
struct Stream {
    rng: StdRng,
    new_options: PortfolioGenerator,
    sparse_knots: Vec<usize>,
    hot_knots: Vec<usize>,
    ticks: u64,
    churn_due: bool,
}

/// `knots` (in curve order) visited by a golden-ratio stride from a
/// random start: every prefix of the result is spread evenly over the
/// curve.
fn strided(knots: Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
    let n = knots.len();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((n as f64 * 0.618_033_988_75).round() as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    let start = rng.gen_range(0..n);
    (0..n).map(|j| knots[(start + j * stride) % n]).collect()
}

impl Stream {
    fn new(seed: u64, free_knots: Vec<usize>, hazard_knots: usize) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7131_c4ee_d5ea_11a5);
        let sparse_knots = strided(free_knots, &mut rng);
        let hot_knots = strided((0..hazard_knots).collect(), &mut rng);
        Stream {
            rng,
            new_options: PortfolioGenerator::new(seed ^ 0xc4a2_0000_0000_0001),
            sparse_knots,
            hot_knots,
            ticks: 0,
            churn_due: false,
        }
    }

    fn next(&mut self) -> Op {
        if self.churn_due {
            self.churn_due = false;
            return Op::Churn {
                inserts: self.new_options.portfolio(CHURN),
                remove_draws: (0..CHURN).map(|_| self.rng.gen_range(0..u64::MAX)).collect(),
            };
        }
        self.ticks += 1;
        self.churn_due = self.ticks.is_multiple_of(CHURN_EVERY);
        // A relative move of 1e-7..1e-6 always changes the value bits.
        let factor = 1.0 + self.rng.gen_range(1e-7..1e-6);
        let hot = self.ticks / HOT_EVERY;
        if self.ticks.is_multiple_of(HOT_EVERY) {
            let knot = self.hot_knots[(hot as usize - 1) % self.hot_knots.len()];
            Op::Tick { class: Class::Hot, curve: CurveKind::Hazard, knot, factor }
        } else {
            let sparse = (self.ticks - 1 - hot) as usize;
            let knot = self.sparse_knots[sparse % self.sparse_knots.len()];
            Op::Tick { class: Class::Sparse, curve: CurveKind::Interest, knot, factor }
        }
    }
}

struct Book {
    engine: IncrementalEngine,
    live: Vec<u32>,
}

fn setup(seed: u64) -> Book {
    let market = MarketData::paper_workload(seed);
    let options = PortfolioGenerator::new(seed).portfolio(RESIDENTS);
    let mut engine = IncrementalEngine::new(market);
    let live = engine.insert_batch(&options);
    Book { engine, live }
}

/// Per-tick observations of one stream run.
#[derive(Default)]
struct Observed {
    sparse_ns: Vec<f64>,
    hot_ns: Vec<f64>,
    first_after_churn_ns: Vec<f64>,
    ticks: u64,
    bad_ticks: u64,
    affected: u64,
    changed: u64,
    after_churn: bool,
}

impl Observed {
    /// Record one tick; `outcome` is `(affected, changed)` for an
    /// accepted value-changing tick, `None` for a rejected or zero-delta
    /// one. The first tick warms up and is not timed.
    fn tick(&mut self, class: Class, ns: f64, outcome: Option<(usize, usize)>) {
        match outcome {
            Some((affected, changed)) => {
                self.affected += affected as u64;
                self.changed += changed as u64;
            }
            None => self.bad_ticks += 1,
        }
        self.ticks += 1;
        if self.ticks > 1 {
            match class {
                Class::Sparse => self.sparse_ns.push(ns),
                Class::Hot => self.hot_ns.push(ns),
            }
            if self.after_churn {
                self.first_after_churn_ns.push(ns);
            }
        }
        self.after_churn = false;
    }
}

/// Execute a churn op on the engine (and the mirror arrangement, when
/// tracing). Returns the number of id mismatches with the mirror.
fn churn(
    book: &mut Book,
    inserts: &[CdsOption],
    draws: &[u64],
    mut mirror: Option<(&mut PortfolioState, &mut Tracer, u64)>,
) -> u64 {
    let mut mismatched = 0;
    for &option in inserts {
        let id = match mirror.as_mut() {
            Some((m, tr, op)) => {
                let (id, _) = tr.span("incr.insert", *op, || book.engine.insert(option));
                mismatched += u64::from(m.insert(option) != id);
                id
            }
            None => book.engine.insert(option),
        };
        book.live.push(id);
    }
    for &draw in draws {
        let id = book.live.swap_remove((draw % book.live.len() as u64) as usize);
        match mirror.as_mut() {
            Some((m, tr, op)) => {
                tr.span("incr.remove", *op, || book.engine.remove(id));
                m.remove(id);
            }
            None => {
                book.engine.remove(id);
            }
        }
    }
    mismatched
}

/// Apply one op untraced, timing each `apply_tick`.
fn step(book: &mut Book, op: &Op, obs: &mut Observed) {
    match *op {
        Op::Tick { class, curve, knot, factor } => {
            let value = book.engine.curve_value(curve, knot).unwrap_or(0.0) * factor;
            let t = Instant::now();
            let result = book.engine.apply_tick(CurveTick { curve, knot, value });
            let ns = t.elapsed().as_nanos() as f64;
            let outcome = match result {
                Ok(r) if !r.zero_delta => Some((r.affected, r.deltas.len())),
                _ => None,
            };
            obs.tick(class, ns, outcome);
        }
        Op::Churn { ref inserts, ref remove_draws } => {
            churn(book, inserts, remove_draws, None);
            obs.after_churn = true;
        }
    }
}

/// Compare stored spreads with a from-scratch full reprice, bit for bit.
fn verify(book: &Book, corrupt_bit: bool) -> (u64, u64) {
    let stored = book.engine.spreads();
    let full = book.engine.full_reprice();
    let mut bad = stored.len().abs_diff(full.len()) as u64;
    for (i, (s, f)) in stored.iter().zip(&full).enumerate() {
        let bits = if i == 0 && corrupt_bit { s.1 ^ 1 } else { s.1 };
        bad += u64::from(s.0 != f.0 || bits != f.1);
    }
    (stored.len() as u64, bad)
}

/// The tick phase of a run: the resident book, its input stream and what
/// the timed cycles observed.
pub struct Ticks {
    book: Book,
    stream: Stream,
    obs: Observed,
    setup_s: Vec<f64>,
    /// One entry per churn cycle: 64 ticks (4 of them hot) plus one
    /// churn round.
    cycle_s: Vec<f64>,
    /// `(sparse, hot)` sample counts in `obs` at the end of each full
    /// latency window.
    window_ends: Vec<(usize, usize)>,
    attempted: u64,
    failed: u64,
    /// Bit mismatches found by the traced replay.
    mismatched: u64,
}

impl Ticks {
    /// Set up `SETUPS` times (keeping the last), record the inputs and
    /// seed the stream.
    pub fn new(args: &Args, report: &mut Report, llc_bytes: u64) -> Result<Ticks, String> {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut built = None;
        for _ in 0..SETUPS {
            drop(built.take());
            let t = Instant::now();
            let book = black_box(setup(args.seed));
            setup_s.push(t.elapsed().as_secs_f64());
            built = Some(book);
        }
        let book = built.ok_or("no set-up ran")?;

        let interest_tenors = book.engine.tenors(CurveKind::Interest).to_vec();
        let hazard_knots = book.engine.tenors(CurveKind::Hazard).len();
        let free = book.engine.portfolio().lattice_free_interest_knots(&interest_tenors);
        if free.is_empty() {
            return Err("the book has no lattice-free interest knot".to_string());
        }
        let option_bytes = std::mem::size_of::<CdsOption>() as u64 * RESIDENTS as u64;
        report.input("residents", RESIDENTS);
        report.input("residents_bytes", option_bytes);
        report.input(
            "residents_bytes_over_llc",
            format!("{:.3}", option_bytes as f64 / llc_bytes.max(1) as f64),
        );
        report.input("lattice_free_knots", free.len());
        report.input("tick_mix", format!("sparse={}/{HOT_EVERY} hot=1/{HOT_EVERY}", HOT_EVERY - 1));
        report
            .input("churn", format!("{CHURN} inserts + {CHURN} removes every {CHURN_EVERY} ticks"));

        Ok(Ticks {
            book,
            stream: Stream::new(args.seed, free, hazard_knots),
            obs: Observed::default(),
            setup_s,
            cycle_s: Vec::new(),
            window_ends: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatched: 0,
        })
    }

    /// Median set-up time: book generation plus `insert_batch`.
    pub fn setup_s(&mut self) -> f64 {
        median(&mut self.setup_s).unwrap_or(0.0)
    }

    pub fn windows(&self) -> usize {
        self.window_ends.len()
    }

    /// One timed churn cycle: stream ops up to and including the next
    /// churn round, each `apply_tick` timed on its own.
    pub fn cycle(&mut self) {
        let start = Instant::now();
        loop {
            let op = self.stream.next();
            step(&mut self.book, &op, &mut self.obs);
            if matches!(op, Op::Churn { .. }) {
                break;
            }
        }
        self.cycle_s.push(start.elapsed().as_secs_f64());
        if self.cycle_s.len().is_multiple_of(WINDOW_CYCLES) {
            self.window_ends.push((self.obs.sparse_ns.len(), self.obs.hot_ns.len()));
        }
    }

    /// The end-to-end tick metrics of the timed cycles.
    ///
    /// Each latency is taken per window of `WINDOW_CYCLES` cycles, and
    /// the metric is the `QUIET_PCT` of those window values; `tick.per_s`
    /// comes from the `QUIET_PCT` cycle time. The knot stride spreads
    /// every window evenly over the curve, so windows differ by how busy
    /// the host was, not by which knots they ticked.
    pub fn metrics(&mut self, report: &mut Report) {
        let obs = &self.obs;
        let (mut sparse_p50, mut sparse_p99, mut hot_p50) = (vec![], vec![], vec![]);
        let mut from = (0, 0);
        for &to in &self.window_ends {
            let mut sparse = obs.sparse_ns[from.0..to.0].to_vec();
            let mut hot = obs.hot_ns[from.1..to.1].to_vec();
            sparse_p50.extend(percentile(&mut sparse, 50.0));
            sparse_p99.extend(percentile(&mut sparse, 99.0));
            hot_p50.extend(percentile(&mut hot, 50.0));
            from = to;
        }
        let (ns, nh) = from;
        let quiet = |v: &mut Vec<f64>| percentile(v, QUIET_PCT).unwrap_or(0.0);
        let cycle = percentile(&mut self.cycle_s, QUIET_PCT).unwrap_or(f64::INFINITY);
        report.metric("tick.sparse_p50_us", quiet(&mut sparse_p50) / 1e3, "us", ns);
        report.metric("tick.sparse_p99_us", quiet(&mut sparse_p99) / 1e3, "us", ns);
        report.metric("tick.hot_p50_ms", quiet(&mut hot_p50) / 1e6, "ms", nh);
        report.metric("tick.per_s", CHURN_EVERY as f64 / cycle, "1/s", self.cycle_s.len());
    }

    /// Check the stored spreads against a full reprice and add this
    /// phase's ticks and checks to the report.
    pub fn finish(self, args: &Args, report: &mut Report) {
        let (checked, bad) = verify(&self.book, args.corrupt_bit);
        let bad_ticks = self.obs.bad_ticks;
        report.attempted += self.attempted + self.obs.ticks + checked;
        report.failed += self.failed + bad_ticks + bad + self.mismatched;
        if bad_ticks > 0 {
            report.problem(format!("{bad_ticks} ticks were rejected or zero-delta"));
        }
        if bad + self.mismatched > 0 {
            report.correct = false;
            report.problem(format!(
                "{} spreads differ in bits from a full or replayed reprice",
                bad + self.mismatched
            ));
        }
    }

    /// The traced phase, on a twin book set up from the same seed; the
    /// twin's spreads are checked against its full reprice here. Returns
    /// `trace.overhead_frac` of this phase and its tick count.
    pub fn traced(&mut self, args: &Args, report: &mut Report, seconds: Duration) -> (f64, usize) {
        let mut twin = setup(args.seed);
        let (overhead, ticks, bad_ticks, mismatched) =
            traced(args, report, &mut self.book, &mut twin, &mut self.stream, seconds);
        let (checked, bad) = verify(&twin, false);
        self.attempted += ticks + checked;
        self.failed += bad_ticks;
        self.mismatched += mismatched + bad;
        (overhead, ticks as usize)
    }
}

/// The traced run. Two books take the same stream op by op: `plain`
/// untraced, as in the timed run, and `twin` with a span around each
/// `apply_tick`, followed by a replay of the tick's phases through the
/// public pieces on a mirror arrangement: curve rebuild (`Curve::new`),
/// engine build, affected set, cold and warm sparse reprice, and the
/// old/new bit diff. Interleaving keeps host drift out of
/// `trace.overhead_frac`. Returns `(trace.overhead_frac, ticks, bad
/// ticks, bit mismatches)`.
fn traced(
    args: &Args,
    report: &mut Report,
    plain: &mut Book,
    twin: &mut Book,
    stream: &mut Stream,
    seconds: Duration,
) -> (f64, u64, u64, u64) {
    let mut mirror = PortfolioState::new();
    let mut mismatched = 0u64;
    let residents: Vec<(u32, CdsOption)> =
        twin.engine.portfolio().iter().map(|(id, o)| (id, *o)).collect();
    for (id, option) in residents {
        mismatched += u64::from(mirror.insert(option) != id);
    }
    let tenors_i = twin.engine.tenors(CurveKind::Interest).to_vec();
    let tenors_h = twin.engine.tenors(CurveKind::Hazard).to_vec();

    let mut tr = Tracer::new();
    let mut untraced = Observed::default();
    let mut obs = Observed::default();
    let mut residual_ns = Vec::new();
    let (mut warm_ns, mut warm_opts) = (0.0, 0u64);
    let mut affected = Vec::new();
    let mut repriced = Vec::new();
    let mut op_id = 0u64;
    let deadline = Instant::now() + seconds;
    while Instant::now() < deadline || obs.hot_ns.len() < 3 {
        op_id += 1;
        let op = stream.next();
        // Alternate which book ticks first, so neither always follows
        // the cache-cold replay.
        let plain_first = op_id.is_multiple_of(2);
        if plain_first {
            step(plain, &op, &mut untraced);
        }
        let (class, curve, knot, factor) = match op {
            Op::Tick { class, curve, knot, factor } => (class, curve, knot, factor),
            Op::Churn { inserts, remove_draws } => {
                if !plain_first {
                    churn(plain, &inserts, &remove_draws, None);
                    untraced.after_churn = true;
                }
                let root = tr.enter("churn", op_id);
                mismatched +=
                    churn(twin, &inserts, &remove_draws, Some((&mut mirror, &mut tr, op_id)));
                tr.exit(root);
                obs.after_churn = true;
                continue;
            }
        };
        let value = twin.engine.curve_value(curve, knot).unwrap_or(0.0) * factor;
        let root = tr.enter("tick", op_id);
        let (result, apply_ns) = tr.span("incr.apply_tick", op_id, || {
            twin.engine.apply_tick(CurveTick { curve, knot, value })
        });
        tr.exit(root);
        let outcome = match result {
            Ok(r) if !r.zero_delta => Some((r.affected, r.deltas.len())),
            _ => None,
        };
        obs.tick(class, apply_ns as f64, outcome);
        if !plain_first {
            step(plain, &op, &mut untraced);
        }

        let root = tr.enter("tick.replay", op_id);
        let market = twin.engine.market();
        let points = match curve {
            CurveKind::Interest => market.interest.points().to_vec(),
            CurveKind::Hazard => market.hazard.points().to_vec(),
        };
        let (rebuilt, rebuild_ns) = tr.span("incr.curve_rebuild", op_id, || Curve::new(points));
        black_box(&rebuilt);
        let (engine, build_ns) = tr.span("cpu.engine_build", op_id, || CpuCdsEngine::new(market));
        let (_, affected_ns) = tr.span("incr.affected", op_id, || match curve {
            CurveKind::Interest => mirror.affected_by_interest(&tenors_i, knot, &mut affected),
            CurveKind::Hazard => mirror.affected_by_hazard(&tenors_h, knot, &mut affected),
        });
        let mut kernel = engine.lane_kernel();
        let (_, cold_ns) = tr.span("incr.reprice_cold", op_id, || {
            kernel.price_indices_into(mirror.raw_options(), &affected, &mut repriced)
        });
        let (_, warm) = tr.span("cpu.sparse_warm", op_id, || {
            kernel.price_indices_into(mirror.raw_options(), &affected, &mut repriced)
        });
        let (differ, diff_ns) = tr.span("incr.diff", op_id, || {
            affected
                .iter()
                .zip(&repriced)
                .filter(|(&id, s)| twin.engine.spread_bits(id) != Some(s.to_bits()))
                .count() as u64
        });
        tr.exit(root);
        mismatched += differ + u64::from(Some(affected.len()) != outcome.map(|o| o.0));
        if !affected.is_empty() {
            warm_ns += warm as f64;
            warm_opts += affected.len() as u64;
        }
        residual_ns.push(
            apply_ns as f64 - (rebuild_ns + build_ns + affected_ns + cold_ns + diff_ns) as f64,
        );
    }

    let mut own = tr.self_times();
    let inserts = own.get("incr.insert").map_or(0, Vec::len);
    let removes = own.get("incr.remove").map_or(0, Vec::len);
    let mut med = |name: &str| own.get_mut(name).and_then(|v| median(v)).unwrap_or(0.0);
    let n = obs.ticks as usize;
    let untraced_p50 = median(&mut untraced.sparse_ns).unwrap_or(1.0);
    let traced_p50 = median(&mut obs.sparse_ns).unwrap_or(0.0);
    report.metric("cpu.sparse_ns_per_opt", warm_ns / warm_opts.max(1) as f64, "ns", n);
    report.metric("incr.curve_rebuild_us", med("incr.curve_rebuild") / 1e3, "us", n);
    report.metric("incr.affected_us", med("incr.affected") / 1e3, "us", n);
    report.metric("incr.reprice_cold_us", med("incr.reprice_cold") / 1e3, "us", n);
    report.metric(
        "incr.affected_frac",
        obs.affected as f64 / (n.max(1) * RESIDENTS) as f64,
        "ratio",
        n,
    );
    report.metric("incr.changed_frac", obs.changed as f64 / obs.affected.max(1) as f64, "ratio", n);
    report.metric("incr.insert_us", med("incr.insert") / 1e3, "us", inserts);
    report.metric("incr.remove_us", med("incr.remove") / 1e3, "us", removes);
    let after = obs.first_after_churn_ns.len();
    let first_after = median(&mut obs.first_after_churn_ns).unwrap_or(0.0);
    report.metric("incr.first_tick_after_churn_us", first_after / 1e3, "us", after);
    report.metric("incr.unattributed_us", median(&mut residual_ns).unwrap_or(0.0) / 1e3, "us", n);
    report.input("tick_trace_spans", tr.len());
    let path = args.out_dir.join(format!("trace-{}-ticks-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        report.problem(format!("writing {}: {e}", path.display()));
    }
    report.input("tick_trace_file", path.display());
    (
        (traced_p50 - untraced_p50) / untraced_p50,
        obs.ticks + untraced.ticks,
        obs.bad_ticks + untraced.bad_ticks,
        mismatched,
    )
}
