//! Lane-parallel, zero-allocation batch kernel — the CPU counterpart of
//! the paper's Listing-1 transformation.
//!
//! The paper reaches II=1 on the FPGA by breaking the payment-leg loop
//! dependency into independent partial sums. On the CPU the analogous
//! restructuring has two layers:
//!
//! 1. **Shared schedule grids.** Every option of a given payment
//!    frequency visits the same regular schedule points `Δ, 2Δ, …`; only
//!    the final stub at the maturity differs. The kernel therefore
//!    builds, once per frequency, a `FreqGrid`: the survival
//!    probabilities at those points and — crucially — the
//!    *running prefix sums* of the three leg accumulators (premium
//!    annuity, protection leg, accrual), computed with exactly the
//!    scalar reference's expressions in exactly its left-to-right order.
//!    Pricing an option then costs `O(1)`: read the prefix state after
//!    its last full point and add the stub term. This collapses the
//!    per-batch transcendental count from `O(options × points)` to
//!    `O(options + grid points)` while remaining **bit-for-bit
//!    identical** to [`CpuCdsEngine::price`], because floating-point
//!    addition of the same terms in the same order is deterministic.
//! 2. **Explicit lanes for the stub.** The per-option stub work is
//!    processed in groups of [`LANES`] options over fixed `[f64; LANES]`
//!    arrays, split into a gather pass, a transcendental pass, and a
//!    branch-free arithmetic pass. Each lane carries independent
//!    accumulators — the same II-breaking trick as Listing 1, applied
//!    across options instead of across schedule points — so the
//!    arithmetic pass auto-vectorizes and the `exp` calls pipeline
//!    without a loop-carried dependency.
//!
//! The kernel owns its engine and reusable scratch ([`LaneKernel`]):
//! grids extend lazily as longer maturities appear and are retained
//! across batches, so a steady-state [`LaneKernel::price_into`] call
//! performs no heap allocation at all. A curve point edit
//! ([`LaneKernel::set_value`]) drops only the grid suffix that reads the
//! edited knot, found with the same [`ReadWindow`] rule the incremental
//! arrangement uses.
//!
//! **Read times, defined once.** Every curve read time outside the
//! scalar oracle is one of three expressions, each written once here: a
//! lattice point `lattice_time` (`Δ·j`), a period midpoint `period_mid`,
//! or a stub midpoint [`stub_mid`]. The grids and the gather call them,
//! and the arrangement in `cds-engine` reaches them through
//! [`first_lattice_point_in`] and [`stub_mid`], so a time the kernel
//! reads and a time the arrangement indexes are the same f64 by
//! construction. [`CpuCdsEngine::price`]
//! keeps its own copies on purpose: it is the independent oracle that
//! catches a wrong definition, and [`full_points`] keeps its `u32`
//! arithmetic for speed (same values).
//!
//! The dense ([`LaneKernel::price_into`]), sparse
//! ([`LaneKernel::price_indices_into`]) and resident
//! ([`LaneKernel::price_residents_into`]) entry points share one
//! gather/transcendental/arithmetic core and differ only in where the three stub
//! reads come from: the first two evaluate them, the third takes them
//! from a per-resident [`StubReads`] cache and re-evaluates only the
//! reads a curve edit's window touches ([`Refresh`]).

use crate::engine::{CpuBatchStats, CpuCdsEngine};
use crate::parallel::fan_out;
use cds_quant::option::{CdsOption, CurveKind, PaymentFrequency};
use cds_quant::QuantError;
use std::sync::OnceLock;

/// Lane width of the stub kernel: eight 64-bit lanes, matching one
/// AVX-512 register (two AVX2 registers), the width the paper's
/// partial-sum unroll targets.
pub const LANES: usize = 8;

/// Same trip point as `PaymentSchedule::generate`'s runaway guard.
const MAX_SCHEDULE_POINTS: usize = 4_000_000;

#[cold]
fn schedule_panic(reason: &'static str) -> ! {
    let e = QuantError::InvalidOption { reason };
    panic!("option failed schedule generation: {e}");
}

/// Schedule period `Δ` of each grid slot ([`freq_slot`] order): the
/// same f64 values `1.0 / per_year as f64` gives, so every `Δ·i` the
/// kernel's count, its grids and the incremental arrangement index
/// compute from it is the scalar loop's.
pub const SLOT_DELTA: [f64; 4] = [1.0, 1.0 / 2.0, 1.0 / 4.0, 1.0 / 12.0];

/// Payments per year of each grid slot, as f64 (exact).
const SLOT_PER_YEAR: [f64; 4] = [1.0, 2.0, 4.0, 12.0];

/// Number of *full* schedule points before the maturity stub, i.e. the
/// largest `k` with `Δ·k < maturity` (0 when the maturity falls inside
/// the first period). The scalar loop visits points `1..=k` and then the
/// stub, so `time_points = k + 1`.
///
/// Public because the incremental arrangement in `cds-engine` must
/// derive an option's read set from *exactly* the schedule the kernel
/// walks — a reimplementation that disagreed by one boundary comparison
/// would silently under- or over-invalidate.
///
/// Table-driven: `Δ` and the payments per year come from
/// [`SLOT_DELTA`] and `SLOT_PER_YEAR` by [`freq_slot`], so the count
/// costs no division and no branch on the frequency. It starts from the
/// truncated estimate `maturity · per_year` and nudges it with the
/// scalar loop's own comparison (`Δ·i` in f64), so boundary maturities
/// resolve identically; except at exact lattice maturities neither
/// nudge takes a step. Tests check it against the division-based body
/// it replaced at every `Δ·j` and its f64 neighbours.
///
/// Validation (and its panic wording) mirrors
/// `PaymentSchedule::generate`, and the guard trips in exactly the same
/// cases as the streaming scalar loop: a schedule is rejected iff
/// `k + 1 > 4_000_000`.
///
/// # Panics
/// Panics on an invalid schedule (non-positive/non-finite maturity, or
/// more than 4M points), matching the scalar path.
pub fn full_points(option: &CdsOption) -> usize {
    let maturity = option.maturity;
    if maturity <= 0.0 || !maturity.is_finite() {
        schedule_panic("maturity must be positive and finite");
    }
    let slot = freq_slot(option.frequency);
    let (delta, per_year) = (SLOT_DELTA[slot], SLOT_PER_YEAR[slot]);
    // Coarse early reject: far beyond the guard, the float-faithful
    // adjustment below would crawl and the `as u32` cast could
    // saturate. 4.1M leaves a margin of ~100k points — astronomically
    // more than one ULP of drift — so every schedule rejected here is
    // one the exact rule below would reject too.
    if maturity * per_year > 4_100_000.0 {
        schedule_panic("schedule too long");
    }
    // Float-faithful k: start from the truncated estimate, then nudge
    // with the *same comparison* the scalar loop performs (`Δ·i`
    // computed in f64), so boundary maturities resolve identically.
    // Below the early reject the estimate fits a u32, whose conversion
    // to f64 is one instruction (a usize's is several without
    // AVX-512). The first down-step is peeled off its loop: as one
    // countable loop it is vectorised into 16-wide blocks, which every
    // option with a few dozen full points entered on the common path
    // where no step is taken.
    let mut k = (maturity * per_year) as u32;
    if k > 0 && delta * f64::from(k) >= maturity {
        k -= 1;
        while k > 0 && delta * f64::from(k) >= maturity {
            k -= 1;
        }
    }
    while delta * f64::from(k + 1) < maturity {
        k += 1;
    }
    let k = k as usize;
    if k + 1 > MAX_SCHEDULE_POINTS {
        schedule_panic("schedule too long");
    }
    k
}

/// Resident sets at least this long, strictly ascending, are priced in
/// parts on [`split_parts`] threads. Seven times a sparse tick's largest
/// affected set on the 262k-option `ticks` book (p99 2,287, max 2,375
/// ids), below its smallest hot one (65,342), and past where a second
/// thread starts to pay for its ~35 µs spawn and join (4k–8k ids;
/// docs/PERFORMANCE.md, "A hot tick on two cores").
const SPLIT_MIN_IDS: usize = 16_384;

/// Parts a large resident set is priced in: the host's available
/// parallelism, capped at 2. Read once, when a split is first
/// considered, never while a kernel or engine is built.
fn split_parts() -> usize {
    static PARTS: OnceLock<usize> = OnceLock::new();
    *PARTS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(2)))
}

/// `out` cleared and resized to `n` zeros, as a slice.
fn sized(out: &mut Vec<f64>, n: usize) -> &mut [f64] {
    out.clear();
    out.resize(n, 0.0);
    out
}

/// One part of a resident pass: positions `first..first + out.len()`
/// of the id set, whose cached reads sit in `reads`, the slab's read
/// column from slot `offset` on.
struct ResidentPart<'a> {
    first: usize,
    offset: usize,
    reads: &'a mut [StubReads],
    out: &'a mut [f64],
}

/// Map a payment frequency to its grid slot (annual, semi-annual,
/// quarterly, monthly → 0..=3). Shared with the arrangement index in
/// `cds-engine` so its per-frequency buckets line up with the kernel's
/// grids.
pub fn freq_slot(frequency: PaymentFrequency) -> usize {
    match frequency {
        PaymentFrequency::Annual => 0,
        PaymentFrequency::SemiAnnual => 1,
        PaymentFrequency::Quarterly => 2,
        PaymentFrequency::Monthly => 3,
    }
}

/// Full schedule point `j` of the frequency with period `delta`: the
/// time `Δ·j` (0 for `j = 0`).
#[inline(always)]
fn lattice_time(delta: f64, j: usize) -> f64 {
    delta * j as f64
}

/// Midpoint of schedule period `j` (from point `j - 1` to point `j`),
/// where the protection and accrual legs read the discount curve.
#[inline(always)]
fn period_mid(delta: f64, j: usize) -> f64 {
    0.5 * (lattice_time(delta, j - 1) + lattice_time(delta, j))
}

/// Midpoint of the stub period of an option with `k` full points and
/// maturity `maturity`: from point `k` to the maturity.
#[inline(always)]
pub fn stub_mid(delta: f64, k: usize, maturity: f64) -> f64 {
    0.5 * (lattice_time(delta, k) + maturity)
}

/// The time window within which a curve read touches one specific
/// knot: `lo < t`, and `t < hi` or `t <= hi` depending on
/// [`ReadWindow::hi_inclusive`].
///
/// The asymmetry mirrors `SegmentIndex::interpolate` exactly: its
/// binary search resolves a read at `t = tenor[i+1]` to the segment
/// *ending* there (inclusive right edge), but the flat-extrapolation
/// branch `t >= tenor[last]` short-circuits first and reads only the
/// last knot — so the second-to-last knot's window excludes its right
/// edge.
///
/// One read rule serves both sides of a tick: the arrangement in
/// `cds-engine` uses it to find the options a knot edit affects, and
/// [`LaneKernel`] uses it to find the first grid point the edit
/// invalidates, so the two cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadWindow {
    /// Exclusive lower bound (reads at exactly `lo` do not touch the knot).
    pub lo: f64,
    /// Upper bound; `f64::INFINITY` for the last knot.
    pub hi: f64,
    /// Whether a read at exactly `hi` touches the knot.
    pub hi_inclusive: bool,
}

impl ReadWindow {
    /// Does a curve read at time `t` touch the knot this window belongs to?
    pub fn contains(&self, t: f64) -> bool {
        t > self.lo && if self.hi_inclusive { t <= self.hi } else { t < self.hi }
    }
}

/// The window of read times that touch interest-curve knot `knot`.
///
/// Derived from the linear-interpolation branches: `t <= tenor[0]`
/// reads knot 0 only, `t >= tenor[last]` reads the last knot only, and
/// an interior read resolves to the segment `tenor[i] < t <=
/// tenor[i+1]`, touching knots `i` and `i+1`.
///
/// # Panics
/// Panics if `knot` is out of bounds (curves hold at least two knots).
pub fn interest_window(tenors: &[f64], knot: usize) -> ReadWindow {
    let last = tenors.len() - 1;
    assert!(knot <= last, "knot {knot} out of bounds for {} tenors", tenors.len());
    let lo = if knot == 0 { f64::NEG_INFINITY } else { tenors[knot - 1] };
    if knot == last {
        ReadWindow { lo, hi: f64::INFINITY, hi_inclusive: true }
    } else {
        // Right edge at tenor[last] belongs to the flat-extrapolation
        // branch, which reads only the last knot.
        ReadWindow { lo, hi: tenors[knot + 1], hi_inclusive: knot + 1 < last }
    }
}

/// The window of read times that touch hazard-curve knot `knot`.
///
/// `cumulative_hazard` is a running integral: a read at `t` consumes the
/// stored prefix through its segment, i.e. every knot `i` with
/// `tenor[i-1] < t`. The window is therefore unbounded above.
///
/// # Panics
/// Panics if `knot` is out of bounds.
pub fn hazard_window(tenors: &[f64], knot: usize) -> ReadWindow {
    assert!(knot < tenors.len(), "knot {knot} out of bounds for {} tenors", tenors.len());
    let lo = if knot == 0 { 0.0 } else { tenors[knot - 1] };
    ReadWindow { lo, hi: f64::INFINITY, hi_inclusive: true }
}

/// Smallest `j in 1..=k` whose full point `lattice_time` or period
/// midpoint `period_mid` lands in `w`, if any. Every option of this
/// frequency with at least `j` full points shares that read, and grid
/// point `j` (with every prefix sum after it) is the first one a value
/// change inside `w` invalidates.
pub fn first_lattice_point_in(delta: f64, k: usize, w: &ReadWindow) -> Option<usize> {
    for j in 1..=k {
        let t = lattice_time(delta, j);
        let mid = period_mid(delta, j);
        if w.contains(mid) || w.contains(t) {
            return Some(j);
        }
        // Lattice times increase with j; once the midpoint has passed
        // the window there is nothing left to find.
        if mid > w.hi {
            return None;
        }
    }
    None
}

/// An option's three `exp`-bound stub reads: survival and discount
/// factor at the maturity `m`, and discount factor at its
/// [`stub_mid`]. Each is a pure function of the engine and the
/// option, so a cached copy stays exact until an edit lands in its
/// read window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StubReads {
    /// `survival(m)`.
    pub survival: f64,
    /// `discount_factor(m)`.
    pub df: f64,
    /// `discount_factor(stub midpoint)`.
    pub df_mid: f64,
}

/// Which cached [`StubReads`] [`LaneKernel::price_residents_into`]
/// re-evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refresh {
    /// All three (a resident just placed in its slot).
    All,
    /// `survival(m)` only: a hazard-knot edit, whose prefix window holds
    /// the maturity of every option it affects and no discount read.
    Survival,
    /// `df(m)` where the window holds `m` and `df(stub midpoint)` where
    /// it holds the midpoint: an interest-knot edit with this
    /// [`interest_window`].
    Discount(ReadWindow),
}

/// Evaluate all three stub reads on `engine` (the cache-free source).
#[inline(always)]
fn fresh_reads(engine: &CpuCdsEngine, _position: usize, t: f64, mid: f64) -> StubReads {
    StubReads {
        survival: engine.survival(t),
        df: engine.discount_factor(t),
        df_mid: engine.discount_factor(mid),
    }
}

/// Shared schedule grid for one payment frequency: survival
/// probabilities and prefix sums of the scalar reference's three leg
/// accumulators after each full point. Index `j` holds the state after
/// `j` full points, at time `lattice_time(delta, j)` (`j = 0` is the
/// pre-loop state: survival 1, all sums 0).
#[derive(Debug, Clone)]
struct FreqGrid {
    delta: f64,
    surv: Vec<f64>,
    premium: Vec<f64>,
    protection: Vec<f64>,
    accrual: Vec<f64>,
}

impl FreqGrid {
    fn new(slot: usize) -> Self {
        FreqGrid {
            delta: SLOT_DELTA[slot],
            surv: vec![1.0],
            premium: vec![0.0],
            protection: vec![0.0],
            accrual: vec![0.0],
        }
    }

    /// Extend the grid so state after `k` full points is available.
    ///
    /// Each extension step replays the scalar loop body for one regular
    /// point; because the running sums resume from the stored prefix
    /// values, a lazily grown grid is bit-identical to one built in a
    /// single pass.
    fn ensure(&mut self, engine: &CpuCdsEngine, k: usize) {
        while self.surv.len() <= k {
            let j = self.surv.len();
            let t = lattice_time(self.delta, j);
            let prev_survival = self.surv[j - 1];
            let survival = engine.survival(t);
            let period = t - lattice_time(self.delta, j - 1);
            let df = engine.discount_factor(t);
            let df_mid = engine.discount_factor(period_mid(self.delta, j));
            let d_pd = prev_survival - survival;
            self.surv.push(survival);
            self.premium.push(self.premium[j - 1] + period * df * survival);
            self.protection.push(self.protection[j - 1] + df_mid * d_pd);
            self.accrual.push(self.accrual[j - 1] + 0.5 * period * df_mid * d_pd);
        }
    }

    /// Drop every point from the first one that reads a curve time in
    /// `w`. The kept prefix reads only unchanged inputs, and
    /// [`FreqGrid::ensure`] regrows the suffix in the same scalar order,
    /// so the grid stays bit-identical to one built on the edited
    /// engine.
    fn truncate_reads(&mut self, w: &ReadWindow) {
        if let Some(j) = first_lattice_point_in(self.delta, self.surv.len() - 1, w) {
            self.surv.truncate(j);
            self.premium.truncate(j);
            self.protection.truncate(j);
            self.accrual.truncate(j);
        }
    }
}

/// Reusable lane-kernel scratch that owns its engine.
///
/// Grids cache curve-dependent values, so the invariant is: the
/// engine changes only through [`LaneKernel::set_value`], which
/// truncates every grid at its first point that reads the edited knot.
/// Every retained grid point is therefore always the one a fresh kernel
/// on the current engine would compute. Build one with [`CpuCdsEngine::lane_kernel`]
/// (or [`LaneKernel::new`]) and feed it batches; grids and per-option
/// scratch are retained and grown lazily, so steady-state pricing
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct LaneKernel {
    engine: CpuCdsEngine,
    /// One grid per payment frequency (annual, semi-annual, quarterly,
    /// monthly), built lazily to the longest maturity seen.
    grids: [FreqGrid; 4],
    /// Per-option full-point counts for the current batch.
    ks: Vec<u32>,
}

impl LaneKernel {
    /// Create a kernel with empty grids that owns `engine`.
    pub fn new(engine: CpuCdsEngine) -> Self {
        LaneKernel { engine, grids: std::array::from_fn(FreqGrid::new), ks: Vec::new() }
    }

    /// The engine this kernel prices against.
    pub fn engine(&self) -> &CpuCdsEngine {
        &self.engine
    }

    /// Replace the value at knot `knot` of `curve`
    /// ([`CpuCdsEngine::set_value`]) and drop every grid point from the
    /// first one whose time or period midpoint falls in the knot's
    /// window ([`interest_window`] or [`hazard_window`]). Later pricing
    /// regrows the dropped suffix, bit-identical to a fresh kernel on
    /// the edited engine. Returns the window, which also says which
    /// cached stub reads the edit invalidated.
    ///
    /// # Panics
    /// Panics if `knot` is out of bounds.
    pub fn set_value(&mut self, curve: CurveKind, knot: usize, value: f64) -> ReadWindow {
        self.engine.set_value(curve, knot, value);
        let tenors = self.engine.tenors(curve);
        let w = match curve {
            CurveKind::Interest => interest_window(tenors, knot),
            CurveKind::Hazard => hazard_window(tenors, knot),
        };
        self.grids.iter_mut().for_each(|grid| grid.truncate_reads(&w));
        w
    }

    /// Price `options` into `out` (cleared and resized), returning the
    /// batch's work accounting. Bit-for-bit identical to pricing each
    /// option with [`CpuCdsEngine::price`].
    ///
    /// Steady state (grids already long enough, `out` and scratch at
    /// capacity) performs no heap allocation.
    ///
    /// # Panics
    /// Panics on an invalid schedule, with the same message schedule
    /// generation (and the scalar path) would have produced.
    pub fn price_into(&mut self, options: &[CdsOption], out: &mut Vec<f64>) -> CpuBatchStats {
        self.price_slice_into(options, sized(out, options.len()))
    }

    /// [`LaneKernel::price_into`] into a slice as long as `options`: the
    /// form a chunk of [`crate::price_parallel`] writes its share of one
    /// output vector with.
    pub(crate) fn price_slice_into(
        &mut self,
        options: &[CdsOption],
        out: &mut [f64],
    ) -> CpuBatchStats {
        let mut stats =
            self.price_positions_into(options, |i| i, |_, option| full_points(option), out);
        stats.curve_reads += 3 * stats.options;
        stats
    }

    /// Price a *sparse* selection of `options`: position `j` of `out`
    /// receives the spread of `options[indices[j]]`. Bit-for-bit
    /// identical to gathering the selected options into a dense batch
    /// and calling [`LaneKernel::price_into`] — both entry points run
    /// the same gather/transcendental/arithmetic passes, only the index
    /// mapping differs, and every stub read is evaluated afresh. The
    /// cache-free way to price a subset of a slab without materialising
    /// a gathered copy (the full-reprice oracle uses it).
    ///
    /// Duplicate indices are allowed (each position prices
    /// independently); indices need not be sorted.
    ///
    /// # Panics
    /// Panics if an index is out of bounds for `options`, or on an
    /// invalid schedule (same wording as the scalar path).
    pub fn price_indices_into(
        &mut self,
        options: &[CdsOption],
        indices: &[u32],
        out: &mut Vec<f64>,
    ) -> CpuBatchStats {
        let out = sized(out, indices.len());
        let map = |i: usize| indices[i] as usize;
        let mut stats =
            self.price_positions_into(options, map, |_, option| full_points(option), out);
        stats.curve_reads += 3 * stats.options;
        stats
    }

    /// Price resident `options[ids[j]]` into position `j` of `out`,
    /// taking its full-point count from `ks[ids[j]]` (which must equal
    /// [`full_points`] of the option, so the schedule was validated when
    /// it was counted), its three stub reads from `reads[ids[j]]`, and
    /// re-evaluating only those `refresh` names (the cached value is
    /// overwritten with the fresh one). The tick-repricing entry point:
    /// the incremental engine keeps one [`StubReads`] per slab slot and
    /// passes the refresh a curve edit requires.
    ///
    /// Bit-for-bit identical to [`LaneKernel::price_indices_into`]
    /// provided every read `refresh` skips still equals what the current
    /// engine would compute — true when the reads were last refreshed
    /// under an engine that differs from this one only at knots whose
    /// windows ([`interest_window`], [`hazard_window`]) exclude the
    /// skipped read times. Only where `k` and the reads come from
    /// differs; the gather and arithmetic passes are shared.
    ///
    /// A strictly ascending set of at least `SPLIT_MIN_IDS` ids is
    /// priced in two parts on two threads when the host has two cores
    /// (`stats.threads` says how many ran). Pass 1 grows the grids over
    /// the whole set first, so both parts read the same complete grids
    /// and every option goes through the same passes as in one part.
    ///
    /// `stats.curve_reads` counts the reads refreshed plus three per
    /// grid point the call regrew.
    ///
    /// # Panics
    /// Panics if an id is out of bounds for `options`, `ks` or `reads`.
    pub fn price_residents_into(
        &mut self,
        options: &[CdsOption],
        ks: &[u32],
        ids: &[u32],
        reads: &mut [StubReads],
        refresh: Refresh,
        out: &mut Vec<f64>,
    ) -> CpuBatchStats {
        // Ids spread thinly over the slab each miss the cache in
        // `options`, `ks` and `reads`, and the pricing passes meet those
        // misses one lane at a time. A tight loop that loads them first
        // lets them overlap. Dense sets ascend through neighbouring lines
        // the hardware prefetches anyway, so there the extra pass would
        // only cost (docs/PERFORMANCE.md, "The resident read cache").
        if ids.len() * 8 < reads.len() {
            let warmed = ids.iter().fold(0u64, |acc, &id| {
                let id = id as usize;
                acc ^ reads[id].df.to_bits() ^ options[id].maturity.to_bits() ^ u64::from(ks[id])
            });
            std::hint::black_box(warmed);
        }
        // Each part owns the reads window from its first id up to the
        // next part's, so only a strictly ascending set can be cut.
        let parts = if ids.len() >= SPLIT_MIN_IDS && ids.windows(2).all(|w| w[0] < w[1]) {
            split_parts()
        } else {
            1
        };
        self.price_residents_in_parts(
            options,
            ks,
            ids,
            reads,
            refresh,
            sized(out, ids.len()),
            parts,
        )
    }

    /// [`LaneKernel::price_residents_into`] in at most `parts` parts cut
    /// at lane-group boundaries. The serial step (pass 1) runs on
    /// `&mut self`; each part's stub passes read the kernel through
    /// `&self` and write only their own range of `out` and their own
    /// window of `reads`. One part runs on the calling thread, exactly
    /// as the serial path always has.
    ///
    /// With more than one part `ids` must be strictly ascending: part
    /// `p` owns `reads[ids[first_p]..ids[first_{p+1}]]`.
    #[allow(clippy::too_many_arguments)]
    fn price_residents_in_parts(
        &mut self,
        options: &[CdsOption],
        ks: &[u32],
        ids: &[u32],
        reads: &mut [StubReads],
        refresh: Refresh,
        out: &mut [f64],
        parts: usize,
    ) -> CpuBatchStats {
        let mut stats = self.locate(
            options,
            ids.len(),
            |i| ids[i] as usize,
            |i, option| {
                let k = ks[ids[i] as usize] as usize;
                debug_assert_eq!(k, full_points(option), "stale full-point count");
                k
            },
        );
        let n = ids.len();
        let part_len = n.div_ceil(LANES).div_ceil(parts.max(1)) * LANES;
        if n <= part_len {
            stats.threads = u64::from(n > 0);
            let whole = ResidentPart { first: 0, offset: 0, reads, out };
            stats.curve_reads += self.price_resident_part(options, ids, refresh, whole);
            return stats;
        }
        let mut pieces = Vec::with_capacity(parts);
        let (mut out_rest, mut reads_rest, mut first, mut offset) = (out, reads, 0, 0);
        while first < n {
            let end = (first + part_len).min(n);
            let (out, rest) = out_rest.split_at_mut(end - first);
            let window = if end < n { ids[end] as usize - offset } else { reads_rest.len() };
            let (reads, rest_reads) = reads_rest.split_at_mut(window);
            pieces.push(ResidentPart { first, offset, reads, out });
            (out_rest, reads_rest, first, offset) = (rest, rest_reads, end, offset + window);
        }
        stats.threads = pieces.len() as u64;
        let kernel = &*self;
        let refreshed =
            fan_out(pieces, |part| kernel.price_resident_part(options, ids, refresh, part));
        stats.curve_reads += refreshed.iter().sum::<u64>();
        stats
    }

    /// The stub passes of one [`ResidentPart`]. Returns the reads
    /// `refresh` re-evaluated.
    fn price_resident_part(
        &self,
        options: &[CdsOption],
        ids: &[u32],
        refresh: Refresh,
        part: ResidentPart<'_>,
    ) -> u64 {
        let ResidentPart { first, offset, reads, out } = part;
        let mut refreshed = 0u64;
        self.price_stubs(
            options,
            first,
            |i| ids[i] as usize,
            |engine, i, t, mid| {
                let cached = &mut reads[ids[i] as usize - offset];
                match refresh {
                    Refresh::All => {
                        *cached = fresh_reads(engine, i, t, mid);
                        refreshed += 3;
                    }
                    Refresh::Survival => {
                        cached.survival = engine.survival(t);
                        refreshed += 1;
                    }
                    Refresh::Discount(w) => {
                        if w.contains(t) {
                            cached.df = engine.discount_factor(t);
                            refreshed += 1;
                        }
                        if w.contains(mid) {
                            cached.df_mid = engine.discount_factor(mid);
                            refreshed += 1;
                        }
                    }
                }
                *cached
            },
            out,
        );
        refreshed
    }

    /// Shared core of the cache-free entry points: price the positions
    /// `options[map(0)], …, options[map(out.len() - 1)]` into `out`,
    /// taking each position's full-point count from `k_of(position,
    /// option)` and evaluating its three stub reads afresh.
    /// `curve_reads` of the result counts only the grid points grown
    /// (three reads each); the caller adds its stub reads.
    fn price_positions_into(
        &mut self,
        options: &[CdsOption],
        map: impl Fn(usize) -> usize,
        k_of: impl Fn(usize, &CdsOption) -> usize,
        out: &mut [f64],
    ) -> CpuBatchStats {
        let mut stats = self.locate(options, out.len(), &map, k_of);
        stats.threads = u64::from(!out.is_empty());
        self.price_stubs(options, 0, map, fresh_reads, out);
        stats
    }

    /// Pass 1, the serial step of every entry point: locate each of the
    /// `n` positions' last full point (computing it validates the
    /// schedule) into `self.ks`, and grow the shared grids to cover them
    /// all. `curve_reads` of the result counts three reads per grid
    /// point grown; `threads` is left to the caller.
    fn locate(
        &mut self,
        options: &[CdsOption],
        n: usize,
        map: impl Fn(usize) -> usize,
        k_of: impl Fn(usize, &CdsOption) -> usize,
    ) -> CpuBatchStats {
        self.ks.clear();
        self.ks.reserve(n);
        let mut time_points = 0u64;
        let grid_points = |grids: &[FreqGrid; 4]| grids.iter().map(|g| g.surv.len()).sum::<usize>();
        let before = grid_points(&self.grids);
        for i in 0..n {
            let option = &options[map(i)];
            let k = k_of(i, option);
            self.grids[freq_slot(option.frequency)].ensure(&self.engine, k);
            self.ks.push(k as u32);
            time_points += k as u64 + 1;
        }
        CpuBatchStats {
            options: n as u64,
            time_points,
            curve_reads: 3 * (grid_points(&self.grids) - before) as u64,
            threads: 0,
        }
    }

    /// Passes 2–4 over positions `first..first + out.len()` located by
    /// [`LaneKernel::locate`]: gather, stub reads (`reads(engine,
    /// position, maturity, stub midpoint)`, evaluated or cached) and
    /// arithmetic, in lane groups from `first`. Reads the kernel only,
    /// so disjoint position ranges can run side by side.
    fn price_stubs(
        &self,
        options: &[CdsOption],
        first: usize,
        map: impl Fn(usize) -> usize,
        mut reads: impl FnMut(&CpuCdsEngine, usize, f64, f64) -> StubReads,
        out: &mut [f64],
    ) {
        // Tail lanes of the final partial group keep neutral values and
        // are never stored.
        let n = out.len();
        let mut base = 0usize;
        while base < n {
            let active = (n - base).min(LANES);

            // Gather: per-lane inputs and prefix state.
            let mut maturity = [0.0f64; LANES];
            let mut recovery = [0.0f64; LANES];
            let mut prev_t = [0.0f64; LANES];
            let mut mid = [0.0f64; LANES];
            let mut prev_survival = [1.0f64; LANES];
            let mut premium = [0.0f64; LANES];
            let mut protection = [0.0f64; LANES];
            let mut accrual = [0.0f64; LANES];
            for lane in 0..active {
                let option = &options[map(first + base + lane)];
                let k = self.ks[first + base + lane] as usize;
                let grid = &self.grids[freq_slot(option.frequency)];
                maturity[lane] = option.maturity;
                recovery[lane] = option.recovery_rate;
                prev_t[lane] = lattice_time(grid.delta, k);
                mid[lane] = stub_mid(grid.delta, k, option.maturity);
                prev_survival[lane] = grid.surv[k];
                premium[lane] = grid.premium[k];
                protection[lane] = grid.protection[k];
                accrual[lane] = grid.accrual[k];
            }

            // Transcendental pass: the three exp-bound curve reads per
            // lane, free of any cross-lane dependency (evaluated, or
            // taken from a resident cache).
            let mut survival = [0.0f64; LANES];
            let mut df = [0.0f64; LANES];
            let mut df_mid = [0.0f64; LANES];
            for lane in 0..active {
                let r = reads(&self.engine, first + base + lane, maturity[lane], mid[lane]);
                survival[lane] = r.survival;
                df[lane] = r.df;
                df_mid[lane] = r.df_mid;
            }

            // Arithmetic pass: branch-free per-lane accumulator updates
            // (the Listing-1 partial sums, one independent set per
            // lane), then the spread formula.
            for lane in 0..active {
                let t = maturity[lane];
                let period = t - prev_t[lane];
                let d_pd = prev_survival[lane] - survival[lane];
                let premium = premium[lane] + period * df[lane] * survival[lane];
                let protection = protection[lane] + df_mid[lane] * d_pd;
                let accrual = accrual[lane] + 0.5 * period * df_mid[lane] * d_pd;
                let lgd = 1.0 - recovery[lane];
                let denom = premium + accrual;
                out[base + lane] =
                    if denom > 0.0 { lgd * protection / denom * 10_000.0 } else { 0.0 };
            }

            base += active;
        }
    }

    /// Price a batch, allocating a fresh output vector.
    pub fn price_batch(&mut self, options: &[CdsOption]) -> Vec<f64> {
        let mut out = Vec::new();
        self.price_into(options, &mut out);
        out
    }
}

impl CpuCdsEngine {
    /// Create a reusable [`LaneKernel`] over a clone of this engine
    /// (a few tens of KB at 1024 knots, noise against a batch pass).
    pub fn lane_kernel(&self) -> LaneKernel {
        LaneKernel::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::edited_market;
    use cds_quant::option::{MarketData, PortfolioGenerator};

    fn scalar_bits(engine: &CpuCdsEngine, options: &[CdsOption]) -> Vec<u64> {
        options.iter().map(|o| engine.price(o).spread_bps.to_bits()).collect()
    }

    #[test]
    fn bitwise_identical_to_scalar_across_remainders() {
        let market = MarketData::paper_workload(7);
        let engine = CpuCdsEngine::new(&market);
        let pool = PortfolioGenerator::new(11).portfolio(17);
        let mut kernel = engine.lane_kernel();
        let mut out = Vec::new();
        for n in 0..=pool.len() {
            let batch = &pool[..n];
            kernel.price_into(batch, &mut out);
            let lanes: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
            assert_eq!(lanes, scalar_bits(&engine, batch), "batch len {n}");
        }
        // A mixed book in one batch: every frequency and many maturities
        // share the grid, so a read time off by one ulp in any period
        // shows here even when a small pool never reaches that period.
        let book = PortfolioGenerator::new(23).portfolio(4096);
        kernel.price_into(&book, &mut out);
        let lanes: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
        assert_eq!(lanes, scalar_bits(&engine, &book), "mixed book of {}", book.len());
    }

    #[test]
    fn price_indices_bitwise_identical_across_remainders() {
        // The sparse entry point at every lane-remainder length 0..=17,
        // with shuffled, strided and duplicated index patterns over a
        // larger resident slab — out[j] must match the scalar price of
        // slab[indices[j]] bit-for-bit, as in the lane_vs_scalar suite.
        let market = MarketData::paper_workload(7);
        let engine = CpuCdsEngine::new(&market);
        let slab = PortfolioGenerator::new(11).portfolio(64);
        let mut kernel = engine.lane_kernel();
        let mut out = Vec::new();
        for n in 0..=17usize {
            let patterns: [Vec<u32>; 3] = [
                (0..n as u32).collect(),                                      // dense prefix
                (0..n).map(|i| ((i * 13 + 5) % slab.len()) as u32).collect(), // stride
                (0..n).map(|i| ((i / 2) * 7 % slab.len()) as u32).collect(),  // duplicates
            ];
            for (p, indices) in patterns.iter().enumerate() {
                let stats = kernel.price_indices_into(&slab, indices, &mut out);
                assert_eq!(out.len(), n, "pattern {p}, len {n}");
                assert_eq!(stats.options, n as u64);
                for (j, &ix) in indices.iter().enumerate() {
                    assert_eq!(
                        out[j].to_bits(),
                        engine.price(&slab[ix as usize]).spread_bps.to_bits(),
                        "pattern {p}, len {n}, position {j} (slab index {ix})"
                    );
                }
            }
        }
    }

    #[test]
    fn price_indices_matches_gathered_dense_batch() {
        // Sparse pricing over the slab == dense pricing of the gathered
        // options, including grid growth order effects.
        let market = MarketData::paper_workload(13);
        let engine = CpuCdsEngine::new(&market);
        let slab = PortfolioGenerator::new(29).portfolio(40);
        let indices: Vec<u32> = (0..slab.len() as u32).rev().step_by(3).collect();
        let gathered: Vec<CdsOption> = indices.iter().map(|&i| slab[i as usize]).collect();
        let mut sparse_out = Vec::new();
        let sparse_stats =
            engine.lane_kernel().price_indices_into(&slab, &indices, &mut sparse_out);
        let mut dense_out = Vec::new();
        let dense_stats = engine.lane_kernel().price_into(&gathered, &mut dense_out);
        assert_eq!(sparse_out, dense_out);
        assert_eq!(sparse_stats, dense_stats);
    }

    #[test]
    fn resident_reads_price_like_the_sparse_entry_point() {
        // Refresh::All fills the cache and prices like price_indices_into;
        // with the cache filled, a refresh that re-evaluates nothing
        // (an empty discount window) prices the same bits from it.
        let market = MarketData::paper_workload(7);
        let engine = CpuCdsEngine::new(&market);
        let slab = PortfolioGenerator::new(11).portfolio(64);
        let ids: Vec<u32> = (0..slab.len() as u32).rev().step_by(3).collect();
        let mut expected = Vec::new();
        let sparse = engine.lane_kernel().price_indices_into(&slab, &ids, &mut expected);
        let mut kernel = engine.lane_kernel();
        let ks: Vec<u32> = slab.iter().map(|o| full_points(o) as u32).collect();
        let mut reads = vec![StubReads::default(); slab.len()];
        let mut out = Vec::new();
        let filled =
            kernel.price_residents_into(&slab, &ks, &ids, &mut reads, Refresh::All, &mut out);
        assert_eq!(out, expected);
        assert_eq!(filled, sparse, "same work, same reads counted");
        assert_eq!(
            filled.curve_reads,
            3 * ids.len() as u64 + 3 * (grid_lens(&kernel).iter().sum::<usize>() as u64 - 4)
        );
        let none = ReadWindow { lo: f64::INFINITY, hi: f64::INFINITY, hi_inclusive: false };
        let cached = kernel.price_residents_into(
            &slab,
            &ks,
            &ids,
            &mut reads,
            Refresh::Discount(none),
            &mut out,
        );
        assert_eq!(out, expected);
        assert_eq!(cached.curve_reads, 0, "warm grids, nothing refreshed");
        for (id, r) in reads.iter().enumerate() {
            if !ids.contains(&(id as u32)) {
                assert_eq!(*r, StubReads::default(), "slot {id} was not priced");
            }
        }
    }

    /// The resident pass cut into 2 and 3 parts prices every length
    /// 0..=40 (parts of whole lane groups, the last one ending mid
    /// group) under each refresh exactly like one part, leaves the same
    /// reads in every slot and counts the same work.
    #[test]
    fn resident_parts_price_like_one_part() {
        let mut book = long_book();
        book.extend(PortfolioGenerator::new(5).portfolio(24));
        let ks: Vec<u32> = book.iter().map(|o| full_points(o) as u32).collect();
        let all: Vec<u32> = (0..book.len() as u32).collect();
        let market = MarketData::paper_workload_sized(37, 64);
        let mut kernel = LaneKernel::new(CpuCdsEngine::new(&market));
        let mut filled = vec![StubReads::default(); book.len()];
        kernel.price_residents_into(&book, &ks, &all, &mut filled, Refresh::All, &mut Vec::new());
        // Each case: the kernel and the reads the pass starts from.
        let mut hazard = kernel.clone();
        hazard.set_value(CurveKind::Hazard, 0, market.hazard.points()[0].value * 1.3);
        let mut interest = kernel.clone();
        let knot = 40;
        let w = interest.set_value(
            CurveKind::Interest,
            knot,
            market.interest.points()[knot].value + 0.01,
        );
        let cases = [
            (kernel, vec![StubReads::default(); book.len()], Refresh::All),
            (hazard, filled.clone(), Refresh::Survival),
            (interest, filled, Refresh::Discount(w)),
        ];
        for (base, start_reads, refresh) in &cases {
            for n in 0..=40usize {
                // Strictly ascending with gaps, so part windows hold
                // slots no part prices.
                let ids: Vec<u32> = (0..n).map(|j| (j * 3 / 2 + 1) as u32).collect();
                let mut serial = base.clone();
                let mut serial_reads = start_reads.clone();
                let mut expected = vec![0.0; n];
                let one = serial.price_residents_in_parts(
                    &book,
                    &ks,
                    &ids,
                    &mut serial_reads,
                    *refresh,
                    &mut expected,
                    1,
                );
                assert_eq!(one.threads, u64::from(n > 0));
                for parts in [2, 3] {
                    let mut split = base.clone();
                    let mut reads = start_reads.clone();
                    let mut out = vec![0.0; n];
                    let stats = split.price_residents_in_parts(
                        &book, &ks, &ids, &mut reads, *refresh, &mut out, parts,
                    );
                    let what = format!("{refresh:?}, {n} ids, {parts} parts");
                    assert_eq!(
                        out.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        "{what}"
                    );
                    assert_eq!(reads, serial_reads, "{what}: cached reads");
                    let groups = n.div_ceil(LANES);
                    let ran = groups.div_ceil(groups.div_ceil(parts).max(1));
                    assert_eq!(stats, CpuBatchStats { threads: ran as u64, ..one }, "{what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn price_indices_out_of_bounds_panics() {
        let market = MarketData::paper_workload(1);
        let engine = CpuCdsEngine::new(&market);
        let slab = PortfolioGenerator::new(2).portfolio(4);
        let mut out = Vec::new();
        let _ = engine.lane_kernel().price_indices_into(&slab, &[4], &mut out);
    }

    #[test]
    fn empty_batch() {
        let market = MarketData::paper_workload(1);
        let engine = CpuCdsEngine::new(&market);
        let mut out = Vec::new();
        let stats = engine.lane_kernel().price_into(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, CpuBatchStats::default());
    }

    #[test]
    fn kernel_reuse_extends_grids_identically() {
        // Price short maturities first, then longer ones: the lazily
        // extended grid must match a one-pass build bit-for-bit.
        let market = MarketData::paper_workload(9);
        let engine = CpuCdsEngine::new(&market);
        let mut reused = engine.lane_kernel();
        let short: Vec<CdsOption> = PortfolioGenerator::new(3)
            .portfolio(8)
            .into_iter()
            .map(|mut o| {
                o.maturity = o.maturity.min(2.0);
                o
            })
            .collect();
        let long = PortfolioGenerator::new(3).portfolio(8);
        let mut out = Vec::new();
        reused.price_into(&short, &mut out);
        reused.price_into(&long, &mut out);
        let fresh = engine.price_batch(&long);
        assert_eq!(out, fresh);
        assert_eq!(
            out.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scalar_bits(&engine, &long)
        );
    }

    #[test]
    fn stats_accounting() {
        let market = MarketData::paper_workload(5);
        let engine = CpuCdsEngine::new(&market);
        let opts = PortfolioGenerator::new(17).portfolio(19);
        let stats = engine.lane_kernel().price_into(&opts, &mut Vec::new());
        let expected_points: u64 = opts.iter().map(|o| engine.price(o).time_points as u64).sum();
        assert_eq!(stats.options, 19);
        assert_eq!(stats.time_points, expected_points);

        // A fresh kernel grows each grid to its frequency's longest
        // schedule: three reads per grown point plus three per option.
        let mut longest = [0usize; 4];
        for o in &opts {
            let slot = freq_slot(o.frequency);
            longest[slot] = longest[slot].max(full_points(o));
        }
        assert_eq!(stats.curve_reads, 3 * 19 + 3 * longest.iter().sum::<usize>() as u64);
    }

    #[test]
    fn boundary_and_stub_maturities() {
        // Maturities that land exactly on a grid point, inside the first
        // period, and the paper's Listing-1 boundary set.
        let market = MarketData::paper_workload(2);
        let engine = CpuCdsEngine::new(&market);
        let freqs = [
            PaymentFrequency::Annual,
            PaymentFrequency::SemiAnnual,
            PaymentFrequency::Quarterly,
            PaymentFrequency::Monthly,
        ];
        let mut opts = Vec::new();
        for f in freqs {
            for maturity in [0.02, 0.25, 0.5, 1.0, 5.0, 5.5, 7.3, 10.0] {
                opts.push(CdsOption { maturity, frequency: f, recovery_rate: 0.4 });
            }
        }
        let lanes = engine.price_batch(&opts);
        assert_eq!(
            lanes.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scalar_bits(&engine, &opts)
        );
    }

    #[test]
    fn full_points_matches_scalar_time_points() {
        let market = MarketData::paper_workload(4);
        let engine = CpuCdsEngine::new(&market);
        for o in PortfolioGenerator::new(23).portfolio(64) {
            assert_eq!(
                full_points(&o) + 1,
                engine.price(&o).time_points,
                "maturity {} freq {:?}",
                o.maturity,
                o.frequency
            );
        }
    }

    #[test]
    fn interest_windows_partition_reads_like_the_interpolator() {
        let market = MarketData::paper_workload(3);
        let ts: Vec<f64> = market.interest.points().iter().map(|p| p.tenor).collect();
        let n = ts.len();
        // Probe times across every branch of the interpolator: below the
        // curve, on knots, between knots, on/beyond the last knot.
        let mut probes = vec![0.001, ts[0], ts[n - 1], ts[n - 1] + 1.0, 1e6];
        for i in 0..n - 1 {
            probes.push(ts[i]);
            probes.push(0.5 * (ts[i] + ts[i + 1]));
        }
        for &t in &probes {
            let touched: Vec<usize> =
                (0..n).filter(|&i| interest_window(&ts, i).contains(t)).collect();
            // Which knots does the real interpolation branch read?
            let expected: Vec<usize> = if t >= ts[n - 1] {
                vec![n - 1]
            } else if t <= ts[0] {
                vec![0]
            } else {
                let lo = (0..n - 1).find(|&i| ts[i] < t && t <= ts[i + 1]).unwrap_or(0);
                vec![lo, lo + 1]
            };
            assert_eq!(touched, expected, "read at t={t}");
        }
    }

    #[test]
    fn hazard_windows_are_prefix_windows() {
        let ts = [0.5, 1.0, 2.0, 5.0];
        assert!(hazard_window(&ts, 0).contains(0.1));
        assert!(hazard_window(&ts, 0).contains(10.0));
        assert!(!hazard_window(&ts, 1).contains(0.5));
        assert!(hazard_window(&ts, 1).contains(0.500_000_1));
        assert!(!hazard_window(&ts, 3).contains(2.0));
        assert!(hazard_window(&ts, 3).contains(2.5));
    }

    /// Every payment frequency, maturities from inside the first period
    /// to past the 7.5-year curve horizon, so every grid grows past the
    /// last knot.
    fn long_book() -> Vec<CdsOption> {
        let mut book = Vec::new();
        for frequency in [
            PaymentFrequency::Annual,
            PaymentFrequency::SemiAnnual,
            PaymentFrequency::Quarterly,
            PaymentFrequency::Monthly,
        ] {
            for maturity in [0.02, 0.3, 1.0, 2.7, 5.0, 5.5, 7.3, 7.5, 9.1, 12.0] {
                book.push(CdsOption { maturity, frequency, recovery_rate: 0.4 });
            }
        }
        book
    }

    fn grid_lens(kernel: &LaneKernel) -> Vec<usize> {
        kernel.grids.iter().map(|g| g.surv.len()).collect()
    }

    #[test]
    fn edited_kernel_prices_like_a_fresh_kernel_at_every_knot() {
        // Edits accumulate, as ticks do. After each one the warm kernel
        // must price exactly as a fresh engine and kernel built on the
        // edited market.
        let mut market = MarketData::paper_workload_sized(37, 64);
        let mut book = long_book();
        book.extend(PortfolioGenerator::new(5).portfolio(64));
        let mut kernel = LaneKernel::new(CpuCdsEngine::new(&market));
        let mut out = Vec::new();
        kernel.price_into(&book, &mut out);
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for knot in 0..64 {
                let value = market.curve(curve).points()[knot].value * 1.07 + 1e-5;
                market = edited_market(&market, curve, knot, value);
                kernel.set_value(curve, knot, value);
                kernel.price_into(&book, &mut out);
                let fresh = CpuCdsEngine::new(&market);
                let expected = fresh.lane_kernel().price_batch(&book);
                assert_eq!(
                    out.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{curve} knot {knot}"
                );
                assert_eq!(
                    expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    scalar_bits(&fresh, &book),
                    "{curve} knot {knot}: fresh kernel vs scalar"
                );
            }
        }
    }

    #[test]
    fn window_refreshed_resident_reads_price_like_a_fresh_kernel_at_every_knot() {
        // The read cache's exactness argument at the kernel level: after
        // each accumulated edit, refreshing only the reads in the knot's
        // window (survival for hazard, in-window discount reads for
        // interest) and reusing the rest prices the whole book exactly
        // as a fresh engine and kernel do.
        let mut market = MarketData::paper_workload_sized(37, 64);
        let mut book = long_book();
        book.extend(PortfolioGenerator::new(5).portfolio(64));
        let ids: Vec<u32> = (0..book.len() as u32).collect();
        let ks: Vec<u32> = book.iter().map(|o| full_points(o) as u32).collect();
        let mut kernel = LaneKernel::new(CpuCdsEngine::new(&market));
        let mut reads = vec![StubReads::default(); book.len()];
        let mut out = Vec::new();
        kernel.price_residents_into(&book, &ks, &ids, &mut reads, Refresh::All, &mut out);
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for knot in 0..64 {
                let value = market.curve(curve).points()[knot].value * 1.07 + 1e-5;
                market = edited_market(&market, curve, knot, value);
                let w = kernel.set_value(curve, knot, value);
                let refresh = match curve {
                    CurveKind::Interest => Refresh::Discount(w),
                    CurveKind::Hazard => Refresh::Survival,
                };
                kernel.price_residents_into(&book, &ks, &ids, &mut reads, refresh, &mut out);
                let expected = CpuCdsEngine::new(&market).lane_kernel().price_batch(&book);
                assert_eq!(
                    out.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{curve} knot {knot}"
                );
            }
        }
    }

    #[test]
    fn hazard_edit_keeps_exactly_the_points_up_to_the_previous_tenor() {
        let market = MarketData::paper_workload_sized(41, 64);
        let tenors: Vec<f64> = market.hazard.points().iter().map(|p| p.tenor).collect();
        let book = long_book();
        let mut kernel = LaneKernel::new(CpuCdsEngine::new(&market));
        let mut out = Vec::new();
        for (knot, point) in market.hazard.points().iter().enumerate() {
            kernel.price_into(&book, &mut out);
            let before = grid_lens(&kernel);
            let w = kernel.set_value(CurveKind::Hazard, knot, point.value * 1.5);
            assert_eq!(w, hazard_window(&tenors, knot));
            for (grid, &len) in kernel.grids.iter().zip(&before) {
                let kept = if knot == 0 {
                    1
                } else {
                    (0..len).filter(|&j| grid.delta * j as f64 <= tenors[knot - 1]).count()
                };
                assert_eq!(grid.surv.len(), kept, "knot {knot}, delta {}", grid.delta);
            }
        }
    }

    #[test]
    fn interest_edit_keeps_the_prefix_before_the_first_read_of_the_knot() {
        // A brute-force scan of every grid point (no early exit) says
        // which point first reads the knot. Only annual options leave
        // lattice-free knots on a 64-knot curve, where nothing may drop.
        let market = MarketData::paper_workload_sized(43, 64);
        let tenors: Vec<f64> = market.interest.points().iter().map(|p| p.tenor).collect();
        let all = long_book();
        let annual: Vec<CdsOption> =
            all.iter().copied().filter(|o| o.frequency == PaymentFrequency::Annual).collect();
        for (book, min_free) in [(&all, 0), (&annual, 1)] {
            let mut kernel = LaneKernel::new(CpuCdsEngine::new(&market));
            let mut out = Vec::new();
            let mut free = 0;
            for (knot, point) in market.interest.points().iter().enumerate() {
                kernel.price_into(book, &mut out);
                let before = grid_lens(&kernel);
                let w = interest_window(&tenors, knot);
                let first_read: Vec<Option<usize>> = kernel
                    .grids
                    .iter()
                    .map(|g| {
                        (1..g.surv.len()).find(|&j| {
                            let t = g.delta * j as f64;
                            w.contains(t) || w.contains(0.5 * (g.delta * (j - 1) as f64 + t))
                        })
                    })
                    .collect();
                assert_eq!(kernel.set_value(CurveKind::Interest, knot, point.value + 0.001), w);
                if first_read.iter().all(Option::is_none) {
                    free += 1;
                    assert_eq!(grid_lens(&kernel), before, "lattice-free knot {knot}");
                }
                let kept: Vec<usize> =
                    first_read.iter().zip(&before).map(|(j, &len)| j.unwrap_or(len)).collect();
                assert_eq!(grid_lens(&kernel), kept, "knot {knot}");
            }
            assert!(free >= min_free, "{free} lattice-free knots");
        }
    }

    #[test]
    fn stale_grid_suffix_is_caught_by_the_bit_oracle() {
        // Mutant: edit the owned engine but skip `truncate_reads`, so the
        // grids keep points cached under the old knot value. A fresh
        // kernel on the edited market must disagree in bits at every
        // knot of both curves; otherwise the oracle in
        // `edited_kernel_prices_like_a_fresh_kernel_at_every_knot` could
        // not see a truncation bug.
        let market = MarketData::paper_workload_sized(37, 64);
        let book = long_book();
        let mut warm = LaneKernel::new(CpuCdsEngine::new(&market));
        warm.price_batch(&book);
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for (knot, point) in market.curve(curve).points().iter().enumerate() {
                let value = point.value * 1.07 + 1e-5;
                let mut mutant = warm.clone();
                mutant.engine.set_value(curve, knot, value);
                let stale = mutant.price_batch(&book);
                let fresh = CpuCdsEngine::new(&edited_market(&market, curve, knot, value))
                    .lane_kernel()
                    .price_batch(&book);
                assert!(
                    stale.iter().zip(&fresh).any(|(s, f)| s.to_bits() != f.to_bits()),
                    "{curve} knot {knot}: stale grid suffix went uncaught"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "maturity must be positive and finite")]
    fn invalid_maturity_panics_like_scalar() {
        let market = MarketData::paper_workload(1);
        let engine = CpuCdsEngine::new(&market);
        let o = CdsOption {
            maturity: f64::NAN,
            frequency: PaymentFrequency::Quarterly,
            recovery_rate: 0.4,
        };
        let _ = engine.price_batch(&[o]);
    }

    #[test]
    #[should_panic(expected = "schedule too long")]
    fn runaway_schedule_panics_like_scalar() {
        let market = MarketData::paper_workload(1);
        let engine = CpuCdsEngine::new(&market);
        let o =
            CdsOption { maturity: 5.0e6, frequency: PaymentFrequency::Monthly, recovery_rate: 0.4 };
        let _ = engine.price_batch(&[o]);
    }

    /// The `full_points` body before the count became table-driven,
    /// kept verbatim as the reference the table-driven count must equal
    /// bit for bit, panics and their messages included.
    fn reference_full_points(option: &CdsOption) -> usize {
        if option.maturity <= 0.0 || !option.maturity.is_finite() {
            schedule_panic("maturity must be positive and finite");
        }
        let maturity = option.maturity;
        let per_year = option.frequency.per_year();
        let delta = 1.0 / per_year as f64;
        if maturity * per_year as f64 > 4_100_000.0 {
            schedule_panic("schedule too long");
        }
        let mut k = (maturity * per_year as f64) as usize;
        while k > 0 && delta * k as f64 >= maturity {
            k -= 1;
        }
        while delta * ((k + 1) as f64) < maturity {
            k += 1;
        }
        if k + 1 > MAX_SCHEDULE_POINTS {
            schedule_panic("schedule too long");
        }
        k
    }

    fn option(maturity: f64, frequency: PaymentFrequency) -> CdsOption {
        CdsOption { maturity, frequency, recovery_rate: 0.4 }
    }

    /// The f64 just below and just above `x` (`x > 0`), and `x`.
    fn with_neighbours(x: f64) -> [f64; 3] {
        [f64::from_bits(x.to_bits() - 1), x, f64::from_bits(x.to_bits() + 1)]
    }

    /// `f`'s count, or its panic message.
    fn outcome(f: fn(&CdsOption) -> usize, o: &CdsOption) -> Result<usize, String> {
        std::panic::catch_unwind(|| f(o)).map_err(|payload| match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(_) => "non-string panic".to_string(),
        })
    }

    /// Compare the count with the reference at every lattice maturity
    /// `Δ·j` (the scalar loop's f64 product) for `j` in `js`, and at
    /// both its f64 neighbours. Both must return a count here.
    fn assert_counts_match_reference(js: std::ops::Range<usize>) {
        for f in PaymentFrequency::ALL {
            let delta = 1.0 / f.per_year() as f64;
            for j in js.clone() {
                for m in with_neighbours(delta * j as f64) {
                    let o = option(m, f);
                    assert_eq!(full_points(&o), reference_full_points(&o), "{f:?} j={j} m={m:e}");
                }
            }
        }
    }

    #[test]
    fn slot_tables_equal_the_divided_frequencies() {
        for f in PaymentFrequency::ALL {
            let slot = freq_slot(f);
            assert_eq!(SLOT_DELTA[slot].to_bits(), (1.0 / f.per_year() as f64).to_bits(), "{f:?}");
            assert_eq!(SLOT_PER_YEAR[slot].to_bits(), (f.per_year() as f64).to_bits(), "{f:?}");
        }
    }

    #[test]
    fn full_points_matches_reference_at_lattice_maturities() {
        assert_counts_match_reference(1..65_537);
    }

    /// Around the 4M-point guard the two must agree on the count, on
    /// whether to panic and on the message.
    #[test]
    fn full_points_matches_reference_around_the_guard() {
        for f in PaymentFrequency::ALL {
            let delta = 1.0 / f.per_year() as f64;
            for j in MAX_SCHEDULE_POINTS - 8..=MAX_SCHEDULE_POINTS + 8 {
                for m in with_neighbours(delta * j as f64) {
                    let o = option(m, f);
                    assert_eq!(
                        outcome(full_points, &o),
                        outcome(reference_full_points, &o),
                        "{f:?} j={j} m={m:e}"
                    );
                }
            }
        }
    }

    /// Every lattice maturity below the guard, in release only (48M
    /// counts each side):
    /// `cargo test --release -p cds-cpu -- --ignored`.
    #[test]
    #[ignore = "release-only sweep of every lattice maturity up to the 4M guard"]
    fn full_points_matches_reference_up_to_the_guard() {
        assert_counts_match_reference(1..MAX_SCHEDULE_POINTS);
    }

    /// The scalar oracle prices the longest schedule the guard admits
    /// and rejects the next lattice maturity, as the count does.
    #[test]
    #[ignore = "release-only: walks 4M-point scalar schedules"]
    fn guard_maturities_price_like_scalar() {
        let engine = CpuCdsEngine::new(&MarketData::paper_workload(1));
        for f in PaymentFrequency::ALL {
            let delta = 1.0 / f.per_year() as f64;
            let longest = option(delta * MAX_SCHEDULE_POINTS as f64, f);
            assert_eq!(engine.price(&longest).time_points, full_points(&longest) + 1, "{f:?}");
            let next = option(delta * (MAX_SCHEDULE_POINTS + 1) as f64, f);
            let scalar = std::panic::catch_unwind(|| engine.price(&next).spread_bps);
            assert!(scalar.is_err(), "{f:?}: scalar priced a schedule past the guard");
        }
    }

    #[test]
    fn guard_admits_exactly_four_million_points() {
        let too_long = "option failed schedule generation: invalid CDS option: schedule too long";
        for f in PaymentFrequency::ALL {
            let delta = 1.0 / f.per_year() as f64;
            let longest = option(delta * MAX_SCHEDULE_POINTS as f64, f);
            assert_eq!(full_points(&longest) + 1, MAX_SCHEDULE_POINTS, "{f:?}");
            assert_eq!(reference_full_points(&longest) + 1, MAX_SCHEDULE_POINTS, "{f:?}");
            let next = option(delta * (MAX_SCHEDULE_POINTS + 1) as f64, f);
            assert_eq!(outcome(full_points, &next), Err(too_long.to_string()), "{f:?}");
            assert_eq!(outcome(reference_full_points, &next), Err(too_long.to_string()), "{f:?}");
        }
    }

    #[test]
    fn invalid_maturities_panic_like_the_reference() {
        let invalid =
            "option failed schedule generation: invalid CDS option: maturity must be positive and finite";
        for f in PaymentFrequency::ALL {
            for m in
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0, -f64::MIN_POSITIVE]
            {
                let o = option(m, f);
                assert_eq!(outcome(full_points, &o), Err(invalid.to_string()), "{f:?} m={m}");
                assert_eq!(outcome(reference_full_points, &o), Err(invalid.to_string()), "{f:?}");
            }
        }
    }

    /// Pass 1 counts in batch order, so the first invalid option
    /// decides which message a batch panics with.
    #[test]
    fn first_invalid_option_in_a_batch_decides_the_panic() {
        let engine = CpuCdsEngine::new(&MarketData::paper_workload(1));
        let valid = option(5.0, PaymentFrequency::Quarterly);
        let non_finite = option(f64::INFINITY, PaymentFrequency::Monthly);
        let too_long = option(5.0e6, PaymentFrequency::Annual);
        for (batch, expected) in [
            ([valid, non_finite, too_long], "maturity must be positive and finite"),
            ([valid, too_long, non_finite], "schedule too long"),
        ] {
            let message = std::panic::catch_unwind(|| engine.price_batch(&batch))
                .expect_err("an invalid batch priced")
                .downcast::<String>()
                .expect("schedule panics carry a formatted message");
            assert!(message.ends_with(expected), "{message} should end with {expected}");
        }
    }
}
