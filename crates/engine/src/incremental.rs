//! Incremental tick repricing over the dependency arrangement.
//!
//! A single hazard- or yield-curve point tick must not
//! force a full batch reprice of 1M+ resident options. The
//! [`IncrementalEngine`] holds the resident book in a
//! [`PortfolioState`] arrangement, ingests *value* ticks against
//! individual curve knots, computes the exact affected set from the
//! arrangement, reprices only those options through the lane kernel's
//! resident entry point ([`LaneKernel::price_residents_into`]), and
//! emits [`SpreadDelta`]s (old bits → new bits) for the options whose
//! quotes actually moved.
//!
//! # Bit-identity argument
//!
//! Every result the engine stores is required to be **bit-identical**
//! (`f64::to_bits`, not ULP) to a from-scratch full reprice under the
//! same epoch. That holds structurally, not statistically:
//!
//! 1. A spread is a deterministic pure function of `(engine, option)`,
//!    and the lane kernel is bit-identical to the scalar reference
//!    (pinned by the `lane_vs_scalar` suite).
//! 2. *Affected* options are repriced by one long-lived kernel that is
//!    edited in place, not rebuilt. [`LaneKernel::set_value`] writes the
//!    value read back from the edited market into the engine
//!    ([`CpuCdsEngine::set_value`] recomputes the cumulative-hazard
//!    suffix with the constructor's own pass, so the engine equals
//!    [`CpuCdsEngine::new`] on the new market bit for bit) and truncates
//!    each frequency grid at its first point that reads the knot's
//!    window; pricing regrows the suffix in the scalar order. Each
//!    resident's three stub reads ([`StubReads`]) are cached by id,
//!    written in full on insert, and a tick re-evaluates those in the
//!    window `set_value` returned: `survival(m)` of every affected
//!    option on a hazard tick (its prefix window holds every affected
//!    maturity and no discount read), and `df(m)` or `df(stub_mid)`
//!    where the window holds that time on an interest tick.
//!    Every read time — lattice point, period midpoint, stub midpoint —
//!    has one definition (`cds_cpu::lanes::{lattice_time, period_mid,
//!    stub_mid}`) that the grids, the gather, the truncation and the
//!    arrangement all call, and each option's full-point count is the
//!    kernel's own `full_points`, stored by the arrangement. So a read
//!    is refreshed exactly when one of its inputs changes, and the
//!    result equals a fresh engine and kernel — the full reprice, which
//!    keeps no cache.
//!    A large ascending affected set reprices on two threads; pass 1
//!    grows the grids over the whole set before the split, and each
//!    half runs every option through the same passes, so the split
//!    changes no bit (`TickReport::threads` says whether it ran).
//! 3. *Unaffected* options' stored bits stay valid because a value tick
//!    moves no tenor: segment lookup structures depend only on tenors,
//!    and a read outside the ticked knot's window
//!    ([`cds_cpu::lanes::interest_window`],
//!    [`cds_cpu::lanes::hazard_window`], derived from the interpolator's
//!    own branches) reads no changed input. The arrangement and the
//!    grid truncation test the same read times against the same
//!    windows.
//!
//! The differential fuzz suite and the `tick-storm` bench gate verify
//! the claim wholesale against real full reprices.

use crate::error::CdsError;
use crate::portfolio::PortfolioState;
use crate::report::{SpreadDelta, TickReport};
use cds_cpu::lanes::{Refresh, StubReads};
use cds_cpu::{CpuCdsEngine, LaneKernel};
use cds_quant::curve::Curve;
pub use cds_quant::option::CurveKind;
use cds_quant::option::{CdsOption, MarketData};

/// One curve point tick: replace the *value* at an existing knot.
/// Tenors are immutable — the term structure's shape is fixed at boot,
/// only levels move — which is what keeps unaffected quotes bit-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveTick {
    /// Target curve.
    pub curve: CurveKind,
    /// Knot index into that curve's points.
    pub knot: usize,
    /// New value at the knot.
    pub value: f64,
}

/// Apply one point tick to `market` in place and return whether it was
/// **zero-delta** (the knot already holds the ticked value bits; the
/// curves are left untouched). Otherwise the ticked curve is rebuilt
/// and re-validated through [`Curve::new`] with that one value
/// replaced; every other point and every tenor stays bit-identical.
/// On error `market` is unchanged and the message says why.
pub fn edit_curve_point(market: &mut MarketData<f64>, tick: CurveTick) -> Result<bool, String> {
    let target = market.curve_mut(tick.curve);
    let Some(old) = target.points().get(tick.knot) else {
        return Err(format!(
            "knot {} out of bounds for the {} curve ({} knots)",
            tick.knot,
            tick.curve,
            target.len()
        ));
    };
    if tick.value.to_bits() == old.value.to_bits() {
        return Ok(true);
    }
    let mut points = target.points().to_vec();
    points[tick.knot].value = tick.value;
    *target = Curve::new(points)
        .map_err(|e| format!("curve rejected ticked value {}: {e}", tick.value))?;
    Ok(false)
}

/// Resident book plus current epoch's curves and pricing kernel, with
/// incremental tick ingestion.
#[derive(Debug, Clone)]
pub struct IncrementalEngine {
    market: MarketData<f64>,
    /// The one engine and grid set for the book's lifetime: ticks edit
    /// it in place, so its engine always equals a fresh build on
    /// `market`.
    kernel: LaneKernel,
    portfolio: PortfolioState,
    /// Stored spread bits, indexed by portfolio id (stale for dead ids).
    spread_bits: Vec<u64>,
    /// Each resident's three stub reads under the current engine,
    /// indexed like `spread_bits`: written on insert, refreshed by a
    /// tick only where the ticked knot's window holds the read time.
    reads: Vec<StubReads>,
    epoch: u64,
    affected: Vec<u32>,
    repriced: Vec<f64>,
}

impl IncrementalEngine {
    /// Boot an empty book over `market` at epoch 0.
    pub fn new(market: MarketData<f64>) -> Self {
        let kernel = LaneKernel::new(CpuCdsEngine::new(&market));
        IncrementalEngine {
            market,
            kernel,
            portfolio: PortfolioState::new(),
            spread_bits: Vec::new(),
            reads: Vec::new(),
            epoch: 0,
            affected: Vec::new(),
            repriced: Vec::new(),
        }
    }

    /// The current epoch's market curves.
    pub fn market(&self) -> &MarketData<f64> {
        &self.market
    }

    /// Current epoch (0 at boot, +1 per ingested tick, including
    /// zero-delta ticks).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of resident options.
    pub fn len(&self) -> usize {
        self.portfolio.len()
    }

    /// True when the book is empty.
    pub fn is_empty(&self) -> bool {
        self.portfolio.is_empty()
    }

    /// The arrangement itself (read access, e.g. for knot selection).
    pub fn portfolio(&self) -> &PortfolioState {
        &self.portfolio
    }

    /// Tenors of one curve (immutable for the engine's lifetime).
    pub fn tenors(&self, curve: CurveKind) -> &[f64] {
        self.kernel.engine().tenors(curve)
    }

    /// Current value at a curve knot, if the knot exists.
    pub fn curve_value(&self, curve: CurveKind, knot: usize) -> Option<f64> {
        self.market.curve(curve).points().get(knot).map(|p| p.value)
    }

    /// Insert one option, price it under the current epoch, and return
    /// its stable id.
    ///
    /// # Panics
    /// Panics on an invalid schedule (same wording as the kernels).
    pub fn insert(&mut self, option: CdsOption) -> u32 {
        let id = self.portfolio.insert(option);
        self.price_new(&[id]);
        id
    }

    /// Insert a batch, pricing through one lane-kernel pass (bit-equal
    /// to inserting one by one, far cheaper for large books). Returns
    /// the ids in option order.
    pub fn insert_batch(&mut self, options: &[CdsOption]) -> Vec<u32> {
        let ids = self.portfolio.insert_batch(options);
        self.price_new(&ids);
        ids
    }

    /// Price freshly placed ids through the kernel, writing all three
    /// stub reads (a recycled id's old reads belong to another option)
    /// and the spread bits.
    fn price_new(&mut self, ids: &[u32]) {
        let slab = self.portfolio.slab_len();
        self.spread_bits.resize(slab, 0);
        self.reads.resize(slab, StubReads::default());
        self.kernel.price_residents_into(
            self.portfolio.raw_options(),
            self.portfolio.raw_full_points(),
            ids,
            &mut self.reads,
            Refresh::All,
            &mut self.repriced,
        );
        for (&id, &spread) in ids.iter().zip(&self.repriced) {
            self.spread_bits[id as usize] = spread.to_bits();
        }
    }

    /// Remove a resident option (its spread bits are dropped with it).
    pub fn remove(&mut self, id: u32) -> Option<CdsOption> {
        self.portfolio.remove(id)
    }

    /// Stored spread bits of a live option.
    pub fn spread_bits(&self, id: u32) -> Option<u64> {
        self.portfolio.option(id).map(|_| self.spread_bits[id as usize])
    }

    /// `(id, spread bits)` for every live option, in id order.
    pub fn spreads(&self) -> Vec<(u32, u64)> {
        self.portfolio.iter().map(|(id, _)| (id, self.spread_bits[id as usize])).collect()
    }

    /// Reprice the whole book from scratch (fresh engine, fresh kernel)
    /// and return `(id, spread bits)` in id order — the oracle the
    /// incremental state is measured against, and the slow path the
    /// tick-storm bench compares to.
    pub fn full_reprice(&self) -> Vec<(u32, u64)> {
        let mut kernel = LaneKernel::new(CpuCdsEngine::new(&self.market));
        let ids: Vec<u32> = self.portfolio.iter().map(|(id, _)| id).collect();
        let mut out = Vec::new();
        kernel.price_indices_into(self.portfolio.raw_options(), &ids, &mut out);
        ids.into_iter().zip(out.into_iter().map(f64::to_bits)).collect()
    }

    /// Ingest one curve point tick: publish the new epoch, compute the
    /// affected set from the arrangement, reprice exactly those options
    /// and report the spread deltas.
    ///
    /// A tick whose value bits equal the current knot value is a
    /// **zero-delta tick**: the epoch still advances, but the affected
    /// set is empty by construction and nothing reprices.
    pub fn apply_tick(&mut self, tick: CurveTick) -> Result<TickReport, CdsError> {
        let zero_delta =
            edit_curve_point(&mut self.market, tick).map_err(|reason| CdsError::Tick { reason })?;
        if zero_delta {
            self.epoch += 1;
            return Ok(TickReport {
                epoch: self.epoch,
                zero_delta: true,
                affected: 0,
                curve_reads: 0,
                threads: 0,
                deltas: Vec::new(),
            });
        }

        // Publish: edit the kernel's engine in place with the value the
        // market now holds, dropping only the grid points that read the
        // knot. Tenors are untouched, so the arrangement and the
        // unaffected options' stored bits both survive the edit.
        let mut affected = std::mem::take(&mut self.affected);
        let value = self.market.curve(tick.curve).points()[tick.knot].value;
        let w = self.kernel.set_value(tick.curve, tick.knot, value);
        let tenors = self.kernel.engine().tenors(tick.curve);
        let refresh = match tick.curve {
            CurveKind::Interest => {
                self.portfolio.affected_by_interest(tenors, tick.knot, &mut affected);
                Refresh::Discount(w)
            }
            CurveKind::Hazard => {
                self.portfolio.affected_by_hazard(tenors, tick.knot, &mut affected);
                Refresh::Survival
            }
        };
        let stats = self.kernel.price_residents_into(
            self.portfolio.raw_options(),
            self.portfolio.raw_full_points(),
            &affected,
            &mut self.reads,
            refresh,
            &mut self.repriced,
        );
        let mut deltas = Vec::new();
        for (&id, &spread) in affected.iter().zip(&self.repriced) {
            let new_bits = spread.to_bits();
            let old_bits = self.spread_bits[id as usize];
            if new_bits != old_bits {
                deltas.push(SpreadDelta { id, old_bits, new_bits });
                self.spread_bits[id as usize] = new_bits;
            }
        }
        self.epoch += 1;
        let report = TickReport {
            epoch: self.epoch,
            zero_delta: false,
            affected: affected.len(),
            curve_reads: stats.curve_reads,
            threads: stats.threads as usize,
            deltas,
        };
        self.affected = affected;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::option_reads_interest;
    use cds_cpu::lanes::{
        first_lattice_point_in, freq_slot, full_points, hazard_window, interest_window,
    };
    use cds_quant::option::PortfolioGenerator;

    fn book(seed: u64, residents: usize) -> IncrementalEngine {
        let mut eng = IncrementalEngine::new(MarketData::paper_workload_sized(seed, 64));
        let options = PortfolioGenerator::new(seed ^ 0x5EED).portfolio(residents);
        eng.insert_batch(&options);
        eng
    }

    fn assert_bits_match_full(eng: &IncrementalEngine, what: &str) {
        assert_eq!(eng.spreads(), eng.full_reprice(), "{what}");
    }

    #[test]
    fn insert_batch_matches_scalar_inserts() {
        let market = MarketData::paper_workload_sized(3, 64);
        let options = PortfolioGenerator::new(5).portfolio(33);
        let mut batched = IncrementalEngine::new(market.clone());
        batched.insert_batch(&options);
        let mut single = IncrementalEngine::new(market);
        for &o in &options {
            single.insert(o);
        }
        assert_eq!(batched.spreads(), single.spreads());
    }

    #[test]
    fn every_knot_tick_stays_bit_equal_to_full_reprice() {
        let mut eng = book(7, 257);
        let mut value_shift = 1.0001;
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for knot in 0..eng.tenors(curve).len() {
                let old = eng.curve_value(curve, knot).unwrap_or(0.0);
                let tick = CurveTick { curve, knot, value: old * value_shift + 1e-6 };
                value_shift = -value_shift; // exercise sign changes on interest
                let tick = if curve == CurveKind::Hazard {
                    // Hazard values stay non-negative to keep survival sane.
                    CurveTick { value: old * 1.01 + 1e-6, ..tick }
                } else {
                    tick
                };
                let report = match eng.apply_tick(tick) {
                    Ok(r) => r,
                    Err(e) => panic!("tick {curve} knot {knot}: {e}"),
                };
                assert!(!report.zero_delta);
                assert_bits_match_full(&eng, &format!("{curve} knot {knot}"));
            }
        }
    }

    #[test]
    fn zero_delta_tick_is_empty_and_advances_the_epoch() {
        let mut eng = book(11, 64);
        let before = eng.spreads();
        let old = eng.curve_value(CurveKind::Interest, 17).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Interest, knot: 17, value: old }) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        assert!(report.zero_delta);
        assert_eq!(report.affected, 0);
        assert!(report.deltas.is_empty());
        assert_eq!(report.epoch, 1);
        assert_eq!(eng.spreads(), before);
    }

    #[test]
    fn deltas_carry_old_and_new_bits() {
        let mut eng = book(13, 128);
        let before = eng.spreads();
        let old = eng.curve_value(CurveKind::Hazard, 0).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: old * 2.0 })
            {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        // A front-of-curve hazard tick moves (essentially) every quote.
        assert!(!report.deltas.is_empty());
        assert!(report.deltas.len() <= report.affected);
        let before: std::collections::HashMap<u32, u64> = before.into_iter().collect();
        for d in &report.deltas {
            assert_eq!(Some(&d.old_bits), before.get(&d.id));
            assert_eq!(Some(d.new_bits), eng.spread_bits(d.id));
            assert_ne!(d.old_bits, d.new_bits);
        }
    }

    #[test]
    fn removed_options_never_reappear_in_deltas() {
        let mut eng = book(17, 96);
        let victims: Vec<u32> = eng.spreads().iter().map(|&(id, _)| id).take(48).collect();
        for id in victims {
            assert!(eng.remove(id).is_some());
        }
        let old = eng.curve_value(CurveKind::Hazard, 0).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: old * 3.0 })
            {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        let live: std::collections::HashSet<u32> =
            eng.spreads().iter().map(|&(id, _)| id).collect();
        for d in &report.deltas {
            assert!(live.contains(&d.id));
        }
        assert_bits_match_full(&eng, "after removals + tick");
    }

    fn tick(eng: &mut IncrementalEngine, curve: CurveKind, knot: usize, factor: f64) -> TickReport {
        let value = eng.curve_value(curve, knot).unwrap_or(0.0) * factor + 1e-6;
        match eng.apply_tick(CurveTick { curve, knot, value }) {
            Ok(r) => r,
            Err(e) => panic!("{curve} knot {knot}: {e}"),
        }
    }

    #[test]
    fn recycled_id_prices_its_new_option() {
        // The new option reuses a freed id whose cached reads belong to
        // the old one. It must price afresh on insert, survive a tick it
        // does not read, and reprice from its own reads when a hazard
        // tick (survival refreshed, discount reads reused) and then an
        // interest tick reach it.
        let mut eng = book(29, 64);
        let victim = eng.spreads()[5].0;
        let old = eng.remove(victim).expect("victim is live");
        let new = CdsOption { maturity: old.maturity * 0.37 + 0.11, ..old };
        assert_eq!(eng.insert(new), victim, "the freed id is recycled");
        assert_bits_match_full(&eng, "recycled id, before any tick");

        let tenors = eng.tenors(CurveKind::Interest).to_vec();
        let unread = (0..tenors.len())
            .find(|&k| !option_reads_interest(&new, &interest_window(&tenors, k)))
            .expect("a 64-knot curve has a knot the option does not read");
        let report = tick(&mut eng, CurveKind::Interest, unread, 1.01);
        assert!(report.deltas.iter().all(|d| d.id != victim), "unread knot repriced it");
        assert_bits_match_full(&eng, &format!("recycled id, unread interest knot {unread}"));

        tick(&mut eng, CurveKind::Hazard, 0, 1.01);
        assert_bits_match_full(&eng, "recycled id, hazard knot 0");
        let read = (0..tenors.len())
            .find(|&k| interest_window(&tenors, k).contains(new.maturity))
            .expect("some knot reads the maturity");
        tick(&mut eng, CurveKind::Interest, read, 1.01);
        assert_bits_match_full(&eng, &format!("recycled id, interest knot {read}"));
    }

    #[test]
    fn hazard_tick_reads_survival_per_affected_option_plus_regrown_points() {
        let mut eng = book(31, 300);
        let tenors = eng.tenors(CurveKind::Hazard).to_vec();
        // The grids are as long as each frequency's longest schedule;
        // a hazard edit drops, and the tick regrows, every point from
        // the first one past the previous tenor.
        let mut kmax = [None; 4];
        for (_, o) in eng.portfolio().iter() {
            let slot = freq_slot(o.frequency);
            kmax[slot] = kmax[slot].max(Some(full_points(o)));
        }
        for knot in [0, 17, 40, 63] {
            let w = hazard_window(&tenors, knot);
            let regrown: usize = kmax
                .iter()
                .zip([1.0, 0.5, 0.25, 1.0 / 12.0])
                .filter_map(|(k, delta)| {
                    let k = (*k)?;
                    first_lattice_point_in(delta, k, &w).map(|j| k + 1 - j)
                })
                .sum();
            let report = tick(&mut eng, CurveKind::Hazard, knot, 1.01);
            assert!(report.affected > 0);
            assert_eq!(report.curve_reads, (report.affected + 3 * regrown) as u64, "knot {knot}");
        }
        assert_bits_match_full(&eng, "after the hazard ticks");
    }

    #[test]
    fn lattice_free_interest_tick_reads_only_in_window_stub_times() {
        // The 1024-knot paper curve: a 64-knot one has no knot clear of
        // the monthly lattice.
        let mut eng = IncrementalEngine::new(MarketData::paper_workload(37));
        eng.insert_batch(&PortfolioGenerator::new(37).portfolio(400));
        let tenors = eng.tenors(CurveKind::Interest).to_vec();
        let free = eng.portfolio().lattice_free_interest_knots(&tenors);
        assert!(free.len() > 100, "{} lattice-free knots", free.len());
        let mut total = 0;
        for knot in free {
            let w = interest_window(&tenors, knot);
            let in_window: usize = eng
                .portfolio()
                .iter()
                .map(|(_, o)| {
                    let delta = 1.0 / o.frequency.per_year() as f64;
                    let mid = 0.5 * (delta * full_points(o) as f64 + o.maturity);
                    usize::from(w.contains(o.maturity)) + usize::from(w.contains(mid))
                })
                .sum();
            let report = tick(&mut eng, CurveKind::Interest, knot, 1.01);
            assert_eq!(report.curve_reads, in_window as u64, "knot {knot}");
            total += in_window;
        }
        assert!(total > 100, "only {total} stub reads in lattice-free windows");
        assert_bits_match_full(&eng, "after the lattice-free ticks");
        let zero = eng.curve_value(CurveKind::Hazard, 3).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 3, value: zero }) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        assert!(report.zero_delta);
        assert_eq!(report.curve_reads, 0);
    }

    /// Parts a large ascending set splits into on this host.
    fn host_parts() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }

    #[test]
    fn large_affected_sets_split_and_stay_bit_equal_to_full_reprice() {
        // Above the kernel's split threshold: the fresh book's insert and
        // the hot ticks run on every available core (up to two), and
        // each result is checked against the serial, cache-free oracle.
        let mut eng = book(43, 20_480);
        assert_bits_match_full(&eng, "fresh insert_batch");
        for knot in [0, 20, 0] {
            let report = tick(&mut eng, CurveKind::Hazard, knot, 1.01);
            assert!(report.affected > 16_384, "hazard knot {knot}: {}", report.affected);
            assert_eq!(report.threads, host_parts(), "hazard knot {knot}");
            assert_bits_match_full(&eng, &format!("hazard knot {knot}"));
        }
        // Knot 1's window holds early lattice reads of every frequency.
        let report = tick(&mut eng, CurveKind::Interest, 1, 1.01);
        assert!(report.affected > 16_384, "interest knot 1: {}", report.affected);
        assert_eq!(report.threads, host_parts());
        assert_bits_match_full(&eng, "lattice interest knot 1");

        // Freed ids are recycled last-freed first, so a large batch
        // into them is priced in descending id order: the serial path.
        let victims: Vec<u32> = eng.spreads().iter().map(|&(id, _)| id).take(17_000).collect();
        for &id in &victims {
            assert!(eng.remove(id).is_some());
        }
        let fresh = PortfolioGenerator::new(47).portfolio(victims.len());
        let ids = eng.insert_batch(&fresh);
        assert!(ids.windows(2).all(|w| w[0] > w[1]), "recycled ids descend");
        assert_bits_match_full(&eng, "insert_batch over recycled ids");
        let report = tick(&mut eng, CurveKind::Hazard, 0, 1.01);
        assert_eq!(report.threads, host_parts());
        assert_bits_match_full(&eng, "hazard knot 0 after recycling");
    }

    /// The production-sized split path: the 262,144-resident book of
    /// the `ticks` benchmark, hot hazard ticks across the curve, every
    /// spread bit against the full reprice. Release only:
    /// `cargo test --release -p cds-engine -- --ignored`.
    #[test]
    #[ignore = "release-only: hot ticks on a 262,144-option book"]
    fn hot_ticks_on_the_production_book_stay_bit_equal_to_full_reprice() {
        let mut eng = IncrementalEngine::new(MarketData::paper_workload(1));
        eng.insert_batch(&PortfolioGenerator::new(1).portfolio(262_144));
        assert_bits_match_full(&eng, "fresh insert_batch");
        let knots = eng.tenors(CurveKind::Hazard).len();
        for knot in [0, knots / 4, knots / 2, 3 * knots / 4, 0] {
            let report = tick(&mut eng, CurveKind::Hazard, knot, 1.01);
            if report.affected >= 16_384 {
                assert_eq!(report.threads, host_parts(), "hazard knot {knot}");
            }
            assert_bits_match_full(&eng, &format!("hazard knot {knot}"));
        }
    }

    #[test]
    fn small_affected_sets_stay_on_one_thread() {
        let mut eng = book(7, 257);
        assert_eq!(tick(&mut eng, CurveKind::Hazard, 0, 1.01).threads, 1);
        let same = eng.curve_value(CurveKind::Hazard, 0).unwrap_or(0.0);
        let zero = eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: same });
        assert_eq!(zero.map(|r| r.threads).ok(), Some(0), "a zero-delta tick prices nothing");
    }

    #[test]
    fn invalid_ticks_are_typed_errors() {
        let mut eng = book(19, 8);
        let oob =
            eng.apply_tick(CurveTick { curve: CurveKind::Interest, knot: 10_000, value: 0.1 });
        assert!(matches!(oob, Err(CdsError::Tick { .. })), "{oob:?}");
        let nan = eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: f64::NAN });
        assert!(matches!(nan, Err(CdsError::Tick { .. })), "{nan:?}");
        // The failed ticks published nothing.
        assert_bits_match_full(&eng, "after rejected ticks");
    }

    #[test]
    fn edit_curve_point_changes_one_knot_or_nothing() {
        let before = MarketData::paper_workload_sized(23, 64);
        let mut market = before.clone();
        let tick = |curve, knot, value| CurveTick { curve, knot, value };
        let oob = edit_curve_point(&mut market, tick(CurveKind::Hazard, 64, 0.01));
        assert_eq!(oob, Err("knot 64 out of bounds for the hazard curve (64 knots)".to_string()));
        let nan = edit_curve_point(&mut market, tick(CurveKind::Interest, 3, f64::NAN));
        assert!(
            nan.as_ref().is_err_and(|e| e.starts_with("curve rejected ticked value NaN")),
            "{nan:?}"
        );
        let same = before.interest.points()[3].value;
        assert_eq!(edit_curve_point(&mut market, tick(CurveKind::Interest, 3, same)), Ok(true));
        assert_eq!(market, before, "errors and zero-delta ticks leave the curves untouched");

        assert_eq!(edit_curve_point(&mut market, tick(CurveKind::Interest, 3, 0.5)), Ok(false));
        assert_eq!(market.hazard, before.hazard);
        for (i, (a, b)) in before.interest.points().iter().zip(market.interest.points()).enumerate()
        {
            assert_eq!(a.tenor.to_bits(), b.tenor.to_bits(), "tenor {i} moved");
            assert_eq!(i == 3, a.value.to_bits() != b.value.to_bits(), "knot {i}");
        }
    }
}
