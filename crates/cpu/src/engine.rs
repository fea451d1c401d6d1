//! Single-threaded CPU CDS engine.
//!
//! Mirrors the structure a tuned C++ implementation would use: the curve
//! data is kept in flat structure-of-arrays form, interpolation goes
//! through a precomputed O(1) segment index
//! ([`cds_quant::interp::SegmentIndex`]) instead of a per-query binary
//! search, and survival probabilities are built incrementally from a
//! precomputed cumulative-hazard table (one pass at construction) so a
//! per-option pricing touches `O(T)` data without rescanning the curves.
//!
//! [`CpuCdsEngine::price`] is the **scalar reference path**: a streaming
//! per-schedule-point loop that allocates nothing per call (schedule
//! points are enumerated on the fly rather than collected into a `Vec`).
//! The batch entry point [`CpuCdsEngine::price_batch`] dispatches to the
//! lane kernel in [`crate::lanes`], which is bit-for-bit identical to the
//! scalar path (its [`crate::LaneKernel::price_into`] also returns work
//! accounting);
//! [`CpuCdsEngine::price_batch_scalar`] keeps the per-option loop
//! reachable for differential tests and benchmarks.

use cds_quant::cds::SpreadResult;
use cds_quant::interp::SegmentIndex;
use cds_quant::option::{CdsOption, CurveKind, MarketData};
use cds_quant::QuantError;

/// Work accounting of one lane-kernel batch
/// ([`crate::LaneKernel::price_into`]) — the host-side analogue of the
/// simulator's run counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuBatchStats {
    /// Options priced.
    pub options: u64,
    /// Total schedule time points evaluated across the batch.
    pub time_points: u64,
    /// `exp`-bound curve reads evaluated: the stub reads computed (three
    /// per option unless a resident cache supplied some) plus three per
    /// shared grid point grown.
    pub curve_reads: u64,
    /// Threads the stub passes ran on: 1 on the serial path, 2 when a
    /// large resident set split ([`crate::LaneKernel::price_residents_into`]),
    /// 0 when there was nothing to price.
    pub threads: u64,
}

/// Precomputed, cache-friendly CPU pricer.
#[derive(Debug, Clone)]
pub struct CpuCdsEngine {
    interest_tenors: Vec<f64>,
    interest_values: Vec<f64>,
    hazard_tenors: Vec<f64>,
    /// Cumulative hazard ∫₀^tenor h(u) du at each knot.
    hazard_cumulative: Vec<f64>,
    hazard_values: Vec<f64>,
    /// O(1) segment lookup over `interest_tenors`.
    interest_index: SegmentIndex,
    /// O(1) segment lookup over `hazard_tenors`.
    hazard_index: SegmentIndex,
}

impl CpuCdsEngine {
    /// Build the engine, precomputing the cumulative-hazard table.
    pub fn new(market: &MarketData<f64>) -> Self {
        let interest_tenors: Vec<f64> = market.interest.points().iter().map(|p| p.tenor).collect();
        let interest_values: Vec<f64> = market.interest.points().iter().map(|p| p.value).collect();
        let hazard_tenors: Vec<f64> = market.hazard.points().iter().map(|p| p.tenor).collect();
        let hazard_values: Vec<f64> = market.hazard.points().iter().map(|p| p.value).collect();
        let interest_index = SegmentIndex::new(&interest_tenors);
        let hazard_index = SegmentIndex::new(&hazard_tenors);
        let mut engine = CpuCdsEngine {
            hazard_cumulative: vec![0.0; hazard_tenors.len()],
            interest_tenors,
            interest_values,
            hazard_tenors,
            hazard_values,
            interest_index,
            hazard_index,
        };
        engine.accumulate_hazard_from(0);
        engine
    }

    /// Recompute `hazard_cumulative[from..]`, resuming the running sum
    /// from the stored entry before `from`. One trapezoidal pass,
    /// identical quadrature to `Curve::integral`; the construction and
    /// a hazard [`CpuCdsEngine::set_value`] both run it, so an edited
    /// table is bit-identical to a freshly built one.
    fn accumulate_hazard_from(&mut self, from: usize) {
        let (ts, vs) = (&self.hazard_tenors, &self.hazard_values);
        if from == 0 {
            self.hazard_cumulative[0] = vs[0] * ts[0];
        }
        let from = from.max(1);
        let mut acc = self.hazard_cumulative[from - 1];
        for i in from..ts.len() {
            acc += 0.5 * (vs[i - 1] + vs[i]) * (ts[i] - ts[i - 1]);
            self.hazard_cumulative[i] = acc;
        }
    }

    /// Replace the value at knot `knot` of `curve` in place. An
    /// interest edit is O(1): tenors and the segment index are
    /// untouched, and no table is derived from interest values. A hazard
    /// edit recomputes the cumulative-hazard table from that knot on,
    /// O(knots − `knot`); entries below it are sums of unchanged terms.
    /// Either way the result is bit-identical to [`CpuCdsEngine::new`]
    /// on the edited market.
    ///
    /// # Panics
    /// Panics if `knot` is out of bounds.
    pub fn set_value(&mut self, curve: CurveKind, knot: usize, value: f64) {
        match curve {
            CurveKind::Interest => self.interest_values[knot] = value,
            CurveKind::Hazard => {
                self.hazard_values[knot] = value;
                self.accumulate_hazard_from(knot);
            }
        }
    }

    /// Tenors of one curve (fixed for the engine's lifetime).
    pub fn tenors(&self, curve: CurveKind) -> &[f64] {
        match curve {
            CurveKind::Interest => &self.interest_tenors,
            CurveKind::Hazard => &self.hazard_tenors,
        }
    }

    /// Cumulative hazard at `t` from the precomputed table.
    fn cumulative_hazard(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let ts = &self.hazard_tenors;
        if t <= ts[0] {
            return self.hazard_values[0] * t;
        }
        let last = ts.len() - 1;
        if t >= ts[last] {
            return self.hazard_cumulative[last] + self.hazard_values[last] * (t - ts[last]);
        }
        // Segment containing t (ts[lo] < t <= ts[lo+1]) via the O(1)
        // bucket index — the same segment a binary search would choose,
        // so the arithmetic below is bit-identical to the old path.
        let lo = self.hazard_index.locate(ts, t);
        let hi = lo + 1;
        let w = (t - ts[lo]) / (ts[hi] - ts[lo]);
        let v_t = self.hazard_values[lo] + w * (self.hazard_values[hi] - self.hazard_values[lo]);
        self.hazard_cumulative[lo] + 0.5 * (self.hazard_values[lo] + v_t) * (t - ts[lo])
    }

    /// Survival probability at `t`.
    pub fn survival(&self, t: f64) -> f64 {
        (-self.cumulative_hazard(t)).exp()
    }

    /// Discount factor at `t`.
    pub fn discount_factor(&self, t: f64) -> f64 {
        let r = self.interest_index.interpolate(&self.interest_tenors, &self.interest_values, t);
        (-r * t).exp()
    }

    /// Price one option through the scalar reference path.
    ///
    /// Allocation-free: schedule points `Δ, 2Δ, …` and the final stub at
    /// the maturity — exactly the points
    /// [`cds_quant::schedule::PaymentSchedule::generate`] would
    /// materialise — are enumerated on the fly instead of being
    /// collected into a per-call `Vec`, so repeated calls do no heap
    /// work beyond the engine's cached curve tables.
    ///
    /// # Panics
    /// Panics on an invalid schedule (non-positive or non-finite
    /// maturity, pathologically long schedule), with the same message
    /// schedule generation would have produced.
    pub fn price(&self, option: &CdsOption) -> SpreadResult {
        // Mirror PaymentSchedule::generate's validation (and its exact
        // error wording) without materialising the points.
        if option.maturity <= 0.0 || !option.maturity.is_finite() {
            let e = QuantError::InvalidOption { reason: "maturity must be positive and finite" };
            panic!("option failed schedule generation: {e}");
        }
        let maturity = option.maturity;
        let delta = 1.0 / option.frequency.per_year() as f64;
        let mut premium = 0.0f64;
        let mut protection = 0.0f64;
        let mut accrual = 0.0f64;
        let mut prev_t = 0.0f64;
        let mut prev_survival = 1.0f64;
        let mut last_default_prob;
        let mut points = 0usize;
        let mut i = 1usize;
        loop {
            let step = delta * i as f64;
            let last = step >= maturity;
            let t = if last { maturity } else { step };
            let survival = self.survival(t);
            let period = t - prev_t;
            let mid = 0.5 * (prev_t + t);
            let df = self.discount_factor(t);
            let df_mid = self.discount_factor(mid);
            let d_pd = prev_survival - survival;
            premium += period * df * survival;
            protection += df_mid * d_pd;
            accrual += 0.5 * period * df_mid * d_pd;
            prev_t = t;
            prev_survival = survival;
            last_default_prob = 1.0 - survival;
            points += 1;
            if last {
                break;
            }
            i += 1;
            // Same guard (and trip point) as PaymentSchedule::generate.
            if i > 4_000_000 {
                let e = QuantError::InvalidOption { reason: "schedule too long" };
                panic!("option failed schedule generation: {e}");
            }
        }
        let lgd = 1.0 - option.recovery_rate;
        let denom = premium + accrual;
        SpreadResult {
            spread_bps: if denom > 0.0 { lgd * protection / denom * 10_000.0 } else { 0.0 },
            premium_annuity: premium,
            protection_unit: protection,
            accrual_annuity: accrual,
            default_prob_at_maturity: last_default_prob,
            time_points: points,
        }
    }

    /// Price a batch on one thread through the lane kernel
    /// ([`crate::lanes`]) — bit-for-bit identical to pricing each option
    /// with [`CpuCdsEngine::price`], just much faster.
    pub fn price_batch(&self, options: &[CdsOption]) -> Vec<f64> {
        self.lane_kernel().price_batch(options)
    }

    /// Price a batch through the per-option scalar reference path — the
    /// baseline the lane kernel is measured against (and differentially
    /// tested against), and the engine behind the `cpu/scalar` route.
    pub fn price_batch_scalar(&self, options: &[CdsOption]) -> Vec<f64> {
        options.iter().map(|o| self.price(o).spread_bps).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cds_quant::cds::CdsPricer;
    use cds_quant::curve::Curve;
    use cds_quant::option::PortfolioGenerator;

    /// `market` with the value at one knot of one curve replaced,
    /// rebuilt through `Curve::new` (the oracle side of every in-place
    /// edit test).
    pub(crate) fn edited_market(
        market: &MarketData<f64>,
        curve: CurveKind,
        knot: usize,
        value: f64,
    ) -> MarketData<f64> {
        let mut out = market.clone();
        let curve = out.curve_mut(curve);
        let mut points = curve.points().to_vec();
        points[knot].value = value;
        *curve = Curve::new(points).unwrap_or_else(|e| panic!("knot {knot} = {value}: {e}"));
        out
    }

    fn table_bits(engine: &CpuCdsEngine) -> Vec<Vec<u64>> {
        [
            &engine.interest_tenors,
            &engine.interest_values,
            &engine.hazard_tenors,
            &engine.hazard_values,
            &engine.hazard_cumulative,
        ]
        .iter()
        .map(|table| table.iter().map(|v| v.to_bits()).collect())
        .collect()
    }

    #[test]
    fn in_place_edits_equal_a_fresh_build_at_every_knot() {
        // Edits accumulate, as ticks do: after each one the edited
        // engine's tables must equal a fresh build on the edited market
        // bit for bit.
        let mut market = MarketData::paper_workload_sized(31, 64);
        let mut engine = CpuCdsEngine::new(&market);
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for knot in 0..64 {
                let value = market.curve(curve).points()[knot].value * 1.07 + 1e-5;
                market = edited_market(&market, curve, knot, value);
                engine.set_value(curve, knot, value);
                let fresh = CpuCdsEngine::new(&market);
                assert_eq!(table_bits(&engine), table_bits(&fresh), "{curve} knot {knot}");
            }
        }
    }

    #[test]
    fn matches_reference_pricer() {
        let market = MarketData::paper_workload(13);
        let engine = CpuCdsEngine::new(&market);
        let pricer = CdsPricer::new(market);
        for o in PortfolioGenerator::new(4).portfolio(64) {
            let fast = engine.price(&o);
            let golden = pricer.price(&o);
            assert!(
                (fast.spread_bps - golden.spread_bps).abs() < 1e-7 * (1.0 + golden.spread_bps),
                "{} vs {}",
                fast.spread_bps,
                golden.spread_bps
            );
            assert_eq!(fast.time_points, golden.time_points);
        }
    }

    #[test]
    fn survival_matches_curve() {
        let market = MarketData::paper_workload(3);
        let engine = CpuCdsEngine::new(&market);
        for i in 1..40 {
            let t = i as f64 * 0.25;
            let a = engine.survival(t);
            let b = market.hazard.survival(t);
            assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
    }

    #[test]
    fn survival_beyond_horizon_extends_flat_hazard() {
        let market = MarketData::paper_workload(3);
        let engine = CpuCdsEngine::new(&market);
        let h = market.hazard.horizon();
        let a = engine.survival(h + 2.0);
        let b = market.hazard.survival(h + 2.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn discount_matches_curve() {
        let market = MarketData::paper_workload(3);
        let engine = CpuCdsEngine::new(&market);
        for i in 0..30 {
            let t = i as f64 * 0.3 + 0.01;
            assert!((engine.discount_factor(t) - market.interest.discount_factor(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_equals_individual() {
        let market = MarketData::paper_workload(5);
        let engine = CpuCdsEngine::new(&market);
        let opts = PortfolioGenerator::new(9).portfolio(10);
        // price_batch dispatches to the lane kernel; this pins it
        // bit-for-bit to the scalar path.
        let batch = engine.price_batch(&opts);
        for (o, s) in opts.iter().zip(&batch) {
            assert_eq!(engine.price(o).spread_bps, *s);
        }
        assert_eq!(batch, engine.price_batch_scalar(&opts));
    }

    #[test]
    fn repeated_price_calls_are_identical() {
        // The engine caches every bootstrapped table (cumulative hazard,
        // segment indices) at construction and price() allocates nothing,
        // so repeated calls must be bit-for-bit reproducible.
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        for o in PortfolioGenerator::new(2).portfolio(16) {
            let first = engine.price(&o);
            for _ in 0..3 {
                let again = engine.price(&o);
                assert_eq!(first.spread_bps.to_bits(), again.spread_bps.to_bits());
                assert_eq!(first.premium_annuity.to_bits(), again.premium_annuity.to_bits());
                assert_eq!(first.protection_unit.to_bits(), again.protection_unit.to_bits());
                assert_eq!(first.accrual_annuity.to_bits(), again.accrual_annuity.to_bits());
                assert_eq!(first.time_points, again.time_points);
            }
        }
    }

    #[test]
    fn streaming_schedule_matches_generated_schedule() {
        use cds_quant::schedule::PaymentSchedule;
        // The streaming loop must visit exactly the generated points —
        // including boundary maturities where Δ·i lands on the maturity.
        let market = MarketData::paper_workload(1);
        let engine = CpuCdsEngine::new(&market);
        for (maturity, per_year) in
            [(5.5, 4u32), (5.0, 4), (1.0, 12), (0.02, 1), (7.3, 2), (0.25, 4), (10.0, 1)]
        {
            let s = match PaymentSchedule::<f64>::generate(maturity, per_year) {
                Ok(s) => s,
                Err(e) => panic!("{e}"),
            };
            let freq = match per_year {
                1 => cds_quant::option::PaymentFrequency::Annual,
                2 => cds_quant::option::PaymentFrequency::SemiAnnual,
                4 => cds_quant::option::PaymentFrequency::Quarterly,
                _ => cds_quant::option::PaymentFrequency::Monthly,
            };
            let o = CdsOption { maturity, frequency: freq, recovery_rate: 0.4 };
            assert_eq!(engine.price(&o).time_points, s.len(), "maturity {maturity} f {per_year}");
        }
    }

    #[test]
    #[should_panic(expected = "maturity must be positive and finite")]
    fn invalid_maturity_panics_like_schedule_generation() {
        let market = MarketData::paper_workload(1);
        let engine = CpuCdsEngine::new(&market);
        let o = CdsOption {
            maturity: -1.0,
            frequency: cds_quant::option::PaymentFrequency::Quarterly,
            recovery_rate: 0.4,
        };
        let _ = engine.price(&o);
    }
}
