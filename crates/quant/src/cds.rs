//! The reference ("golden") CDS spread pricer.
//!
//! Implements the Figure-1 pipeline of the paper as straight-line code:
//! for each time point of the option's schedule compute
//!
//! 1. the **defaulting probability** — accumulate the hazard-rate constant
//!    data up to the time point (cumulative hazard → survival),
//! 2. the **present value of expected payments** (premium leg per unit
//!    spread): `Δᵢ · DF(tᵢ) · S(tᵢ)`,
//! 3. the **present value of the expected payoff** (protection leg): the
//!    default-probability increment over the period discounted at the
//!    period mid-point, scaled by `1 − recovery`,
//! 4. the **accrued protection** — half a period's premium owed on
//!    mid-period default ("premiums are paid ahead of time"),
//!
//! then combine the accumulated terms into the fair **spread**, quoted in
//! basis points ("dividing this basis points number by 100 results in a
//! percentage of the overall loan").
//!
//! Every optimised engine variant must reproduce this module's numbers;
//! integration tests enforce it.

use crate::accumulate::sum_kahan;
use crate::option::{CdsOption, MarketData};
use crate::precision::CdsFloat;
use crate::schedule::PaymentSchedule;
use crate::QuantError;

/// Payment-leg PV (premium + accrual annuity) below this threshold makes
/// the spread quotient meaningless: the fair spread diverges. Such
/// contracts surface as [`QuantError::DegenerateOption`].
pub const DEGENERATE_ANNUITY_EPS: f64 = 1e-12;

/// Result of pricing one CDS option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadResult {
    /// Fair spread in basis points per annum.
    pub spread_bps: f64,
    /// Premium-leg annuity per unit spread: `Σ Δᵢ·DF(tᵢ)·S(tᵢ)`.
    pub premium_annuity: f64,
    /// Protection leg per unit loss-given-default: `Σ DF(mᵢ)·(S(tᵢ₋₁)−S(tᵢ))`.
    pub protection_unit: f64,
    /// Accrual annuity per unit spread: `Σ (Δᵢ/2)·DF(mᵢ)·(S(tᵢ₋₁)−S(tᵢ))`.
    pub accrual_annuity: f64,
    /// Probability the reference entity has defaulted by maturity.
    pub default_prob_at_maturity: f64,
    /// Number of schedule time points processed.
    pub time_points: usize,
}

/// Per-time-point intermediate terms, exposed so the dataflow engine
/// stages can be validated term-by-term against the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePointTerms<F: CdsFloat = f64> {
    /// The time point itself.
    pub t: F,
    /// Survival probability `S(t)`.
    pub survival: F,
    /// Defaulting probability `1 − S(t)`.
    pub default_prob: F,
    /// Premium payment term `Δ·DF(t)·S(t)`.
    pub payment: F,
    /// Protection payoff term `DF(m)·(S(t₋)−S(t))` (unit LGD).
    pub payoff: F,
    /// Accrual term `(Δ/2)·DF(m)·(S(t₋)−S(t))`.
    pub accrual: F,
}

/// Compute the per-time-point terms of an option under the given market
/// data. This is the numerically exact decomposition the dataflow stages
/// stream between each other.
pub fn time_point_terms<F: CdsFloat>(
    market: &MarketData<F>,
    schedule: &PaymentSchedule<F>,
) -> Vec<TimePointTerms<F>> {
    let mut prev_t = F::ZERO;
    let mut prev_survival = F::ONE;
    let mut out = Vec::with_capacity(schedule.len());
    for &t in schedule.points() {
        let survival = market.hazard.survival(t);
        let default_prob = F::ONE - survival;
        let delta = t - prev_t;
        let df_t = market.interest.discount_factor(t);
        let payment = delta * df_t * survival;
        let mid = F::HALF * (prev_t + t);
        let df_mid = market.interest.discount_factor(mid);
        let d_pd = prev_survival - survival;
        let payoff = df_mid * d_pd;
        let accrual = F::HALF * delta * df_mid * d_pd;
        out.push(TimePointTerms { t, survival, default_prob, payment, payoff, accrual });
        prev_t = t;
        prev_survival = survival;
    }
    out
}

/// Price one CDS option against `f64` market data — the primary,
/// paper-faithful entry point. Panics on degenerate inputs; service
/// ingestion paths should use [`try_price_cds`].
pub fn price_cds(market: &MarketData<f64>, option: &CdsOption) -> SpreadResult {
    match try_price_cds(market, option) {
        Ok(result) => result,
        Err(e) => panic!("reference pricing failed: {e}"),
    }
}

/// Fallible pricer: returns a typed error instead of panicking when the
/// schedule cannot be generated or the contract's payment-leg PV is
/// degenerate (near zero, so the spread quotient diverges).
pub fn try_price_cds(
    market: &MarketData<f64>,
    option: &CdsOption,
) -> Result<SpreadResult, QuantError> {
    let schedule = PaymentSchedule::generate(option.maturity, option.frequency.per_year())?;
    let terms = time_point_terms(market, &schedule);
    try_combine_terms(&terms, option.recovery_rate)
}

/// Price a contract whose payment schedule is given explicitly (e.g. an
/// IMM-dated standard contract from [`crate::calendar::imm_schedule`])
/// rather than derived from maturity × frequency.
pub fn price_cds_with_schedule(
    market: &MarketData<f64>,
    schedule: &PaymentSchedule<f64>,
    recovery_rate: f64,
) -> SpreadResult {
    let terms = time_point_terms(market, schedule);
    combine_terms(&terms, recovery_rate)
}

/// Combine per-time-point terms into the spread, using compensated
/// summation for the reference accumulations. Panics on a degenerate
/// payment leg; see [`try_combine_terms`] for the fallible form.
pub fn combine_terms(terms: &[TimePointTerms<f64>], recovery_rate: f64) -> SpreadResult {
    match try_combine_terms(terms, recovery_rate) {
        Ok(result) => result,
        Err(e) => panic!("degenerate CDS terms: {e}"),
    }
}

/// Combine per-time-point terms into the spread, returning
/// [`QuantError::DegenerateOption`] when the payment-leg PV is near zero
/// (previously this yielded an unbounded or zero spread silently).
pub fn try_combine_terms(
    terms: &[TimePointTerms<f64>],
    recovery_rate: f64,
) -> Result<SpreadResult, QuantError> {
    let payments: Vec<f64> = terms.iter().map(|t| t.payment).collect();
    let payoffs: Vec<f64> = terms.iter().map(|t| t.payoff).collect();
    let accruals: Vec<f64> = terms.iter().map(|t| t.accrual).collect();
    let premium_annuity = sum_kahan(&payments);
    let protection_unit = sum_kahan(&payoffs);
    let accrual_annuity = sum_kahan(&accruals);
    let lgd = 1.0 - recovery_rate;
    let denom = premium_annuity + accrual_annuity;
    // NaN falls through the first comparison but is caught by the second.
    if denom <= DEGENERATE_ANNUITY_EPS || !denom.is_finite() {
        return Err(QuantError::DegenerateOption { annuity: denom });
    }
    let spread = lgd * protection_unit / denom;
    Ok(SpreadResult {
        spread_bps: spread * 10_000.0,
        premium_annuity,
        protection_unit,
        accrual_annuity,
        default_prob_at_maturity: terms.last().map(|t| t.default_prob).unwrap_or(0.0),
        time_points: terms.len(),
    })
}

/// Generic-precision pricer returning only the spread in basis points,
/// used by the reduced-precision ablation (paper §V further work).
pub fn price_cds_generic<F: CdsFloat>(
    market: &MarketData<F>,
    maturity: F,
    payments_per_year: u32,
    recovery_rate: F,
) -> F {
    let schedule = match PaymentSchedule::generate(maturity, payments_per_year) {
        Ok(s) => s,
        Err(e) => panic!("valid parameters yield a schedule: {e}"),
    };
    let terms = time_point_terms(market, &schedule);
    let mut premium = F::ZERO;
    let mut protection = F::ZERO;
    let mut accrual = F::ZERO;
    for t in &terms {
        premium += t.payment;
        protection += t.payoff;
        accrual += t.accrual;
    }
    let lgd = F::ONE - recovery_rate;
    let denom = premium + accrual;
    if denom > F::ZERO {
        lgd * protection / denom * F::BPS
    } else {
        F::ZERO
    }
}

/// Convenience wrapper owning market data, pricing many options.
#[derive(Debug, Clone)]
pub struct CdsPricer {
    market: MarketData<f64>,
}

impl CdsPricer {
    /// Create a pricer over the given market data.
    pub fn new(market: MarketData<f64>) -> Self {
        CdsPricer { market }
    }

    /// Access the underlying market data.
    pub fn market(&self) -> &MarketData<f64> {
        &self.market
    }

    /// Price a single option.
    pub fn price(&self, option: &CdsOption) -> SpreadResult {
        price_cds(&self.market, option)
    }

    /// Price a batch, in order.
    pub fn price_batch(&self, options: &[CdsOption]) -> Vec<SpreadResult> {
        options.iter().map(|o| self.price(o)).collect()
    }
}

/// Independent closed-form evaluation of the flat-curve discrete spread,
/// used to cross-check the pricer: with flat hazard `h` and flat rate `r`,
/// every quantity has an explicit exponential form.
pub fn flat_curve_spread_bps(
    hazard: f64,
    rate: f64,
    recovery: f64,
    maturity: f64,
    payments_per_year: u32,
) -> f64 {
    let n = (maturity * payments_per_year as f64).ceil() as usize;
    let mut premium = 0.0;
    let mut protection = 0.0;
    let mut accrual = 0.0;
    let mut prev_t = 0.0f64;
    for i in 1..=n {
        let t = if i == n { maturity } else { i as f64 / payments_per_year as f64 };
        let delta = t - prev_t;
        let mid = 0.5 * (prev_t + t);
        let s_prev = (-hazard * prev_t).exp();
        let s = (-hazard * t).exp();
        premium += delta * (-rate * t).exp() * s;
        protection += (-rate * mid).exp() * (s_prev - s);
        accrual += 0.5 * delta * (-rate * mid).exp() * (s_prev - s);
        prev_t = t;
    }
    (1.0 - recovery) * protection / (premium + accrual) * 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::option::PaymentFrequency;

    fn flat_market(r: f64, h: f64) -> MarketData<f64> {
        MarketData::flat(r, h, 128)
    }

    #[test]
    fn credit_triangle_flat_curves() {
        // s ≈ h(1−R); exact in the continuous limit, close for quarterly.
        let market = flat_market(0.02, 0.02);
        let option = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40);
        let res = price_cds(&market, &option);
        let triangle = 0.02 * (1.0 - 0.40) * 10_000.0; // 120 bps
        assert!(
            (res.spread_bps - triangle).abs() < 0.02 * triangle,
            "{} vs {}",
            res.spread_bps,
            triangle
        );
    }

    #[test]
    fn matches_independent_closed_form() {
        let (r, h, rec, mat) = (0.03, 0.015, 0.35, 7.0);
        let market = flat_market(r, h);
        let option = CdsOption::new(mat, PaymentFrequency::Quarterly, rec);
        let res = price_cds(&market, &option);
        let cf = flat_curve_spread_bps(h, r, rec, mat, 4);
        assert!((res.spread_bps - cf).abs() < 1e-6, "{} vs {}", res.spread_bps, cf);
    }

    #[test]
    fn spread_increases_with_hazard() {
        let option = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40);
        let lo = price_cds(&flat_market(0.02, 0.01), &option).spread_bps;
        let hi = price_cds(&flat_market(0.02, 0.03), &option).spread_bps;
        assert!(hi > lo * 2.5, "lo={lo} hi={hi}");
    }

    #[test]
    fn spread_decreases_with_recovery() {
        let market = flat_market(0.02, 0.02);
        let lo_rec = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.20);
        let hi_rec = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.60);
        assert!(price_cds(&market, &lo_rec).spread_bps > price_cds(&market, &hi_rec).spread_bps);
    }

    #[test]
    fn spread_nearly_rate_independent_for_flat_curves() {
        // The credit triangle has no r; discretisation induces only a weak
        // rate dependence.
        let option = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40);
        let a = price_cds(&flat_market(0.00, 0.02), &option).spread_bps;
        let b = price_cds(&flat_market(0.08, 0.02), &option).spread_bps;
        assert!((a - b).abs() / a < 0.025, "a={a} b={b}");
    }

    #[test]
    fn finer_frequency_approaches_continuous_triangle() {
        let market = flat_market(0.02, 0.02);
        let triangle = 0.02 * 0.6 * 10_000.0;
        let err = |f: PaymentFrequency| {
            (price_cds(&market, &CdsOption::new(5.0, f, 0.40)).spread_bps - triangle).abs()
        };
        assert!(err(PaymentFrequency::Monthly) < err(PaymentFrequency::Annual));
    }

    #[test]
    fn default_probability_reported() {
        let market = flat_market(0.02, 0.02);
        let option = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40);
        let res = price_cds(&market, &option);
        let expect = 1.0 - (-0.02f64 * 5.0).exp();
        assert!((res.default_prob_at_maturity - expect).abs() < 1e-12);
        assert_eq!(res.time_points, 20);
    }

    #[test]
    fn terms_decomposition_consistent() {
        let market = MarketData::paper_workload(11);
        let option = CdsOption::new(6.0, PaymentFrequency::Quarterly, 0.40);
        let schedule = match PaymentSchedule::generate(6.0, 4) {
            Ok(s) => s,
            Err(e) => panic!("schedule parameters are valid: {e}"),
        };
        let terms = time_point_terms(&market, &schedule);
        assert_eq!(terms.len(), 24);
        // Survival decreasing, default prob increasing, all terms finite
        // and non-negative.
        for w in terms.windows(2) {
            assert!(w[1].survival <= w[0].survival);
            assert!(w[1].default_prob >= w[0].default_prob);
        }
        for t in &terms {
            assert!(t.payment >= 0.0 && t.payoff >= 0.0 && t.accrual >= 0.0);
            assert!((t.survival + t.default_prob - 1.0).abs() < 1e-12);
        }
        let combined = combine_terms(&terms, 0.40);
        let direct = price_cds(&market, &option);
        assert!((combined.spread_bps - direct.spread_bps).abs() < 1e-12);
    }

    #[test]
    fn explicit_schedule_path_matches_generated_one() {
        let market = MarketData::paper_workload(11);
        let generated = match PaymentSchedule::generate(6.0, 4) {
            Ok(s) => s,
            Err(e) => panic!("schedule parameters are valid: {e}"),
        };
        let explicit = match PaymentSchedule::from_points(generated.points().to_vec()) {
            Ok(s) => s,
            Err(e) => panic!("generated points are valid: {e}"),
        };
        let a = price_cds(&market, &CdsOption::new(6.0, PaymentFrequency::Quarterly, 0.4));
        let b = price_cds_with_schedule(&market, &explicit, 0.4);
        assert_eq!(a.spread_bps, b.spread_bps);
    }

    #[test]
    fn imm_dated_contract_prices_end_to_end() {
        use crate::calendar::{imm_schedule, Date};
        use crate::daycount::DayCount;
        let market = MarketData::paper_workload(11);
        let trade = match Date::new(2026, 7, 5) {
            Ok(d) => d,
            Err(e) => panic!("trade date is valid: {e}"),
        };
        let (_maturity, schedule) = match imm_schedule(&trade, 5, DayCount::Act365Fixed) {
            Ok(pair) => pair,
            Err(e) => panic!("IMM schedule is valid: {e}"),
        };
        let dated = price_cds_with_schedule(&market, &schedule, 0.40);
        // Close to the synthetic 5.2y quarterly contract (the IMM grid
        // extends to the roll after trade+5y).
        let synthetic = price_cds(
            &market,
            &CdsOption::new(
                schedule.points()[schedule.len() - 1],
                PaymentFrequency::Quarterly,
                0.40,
            ),
        );
        let rel = (dated.spread_bps - synthetic.spread_bps).abs() / synthetic.spread_bps;
        assert!(rel < 0.01, "dated {} vs synthetic {}", dated.spread_bps, synthetic.spread_bps);
        assert_eq!(dated.time_points, 21);
    }

    #[test]
    fn zero_hazard_curve_prices_to_zero_spread_not_nan() {
        // Regression: with no default risk the protection leg is zero and
        // the premium annuity is large — the spread must be exactly 0,
        // finite, and NOT degenerate.
        let market = flat_market(0.02, 0.0);
        let option = CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40);
        let res = match try_price_cds(&market, &option) {
            Ok(r) => r,
            Err(e) => panic!("zero hazard is benign: {e}"),
        };
        assert_eq!(res.spread_bps, 0.0);
        assert!(res.premium_annuity > 1.0);
        assert_eq!(res.default_prob_at_maturity, 0.0);
    }

    #[test]
    fn vanishing_payment_leg_is_typed_degenerate_error() {
        // A maturity so tiny that the single accrual period has near-zero
        // year fraction: premium + accrual PV ≈ 0 and the spread quotient
        // diverges. Previously this silently produced a huge or zero
        // spread; now it is a typed error.
        let market = flat_market(0.02, 0.02);
        let option = CdsOption::new(1e-13, PaymentFrequency::Quarterly, 0.40);
        match try_price_cds(&market, &option) {
            Err(QuantError::DegenerateOption { annuity }) => {
                assert!(annuity.abs() <= DEGENERATE_ANNUITY_EPS)
            }
            other => panic!("expected DegenerateOption, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "degenerate CDS terms")]
    fn infallible_combine_panics_loudly_on_degenerate_terms() {
        combine_terms(&[], 0.40);
    }

    #[test]
    fn batch_pricing_matches_individual() {
        let pricer = CdsPricer::new(MarketData::paper_workload(5));
        let opts = crate::option::PortfolioGenerator::new(5).portfolio(32);
        let batch = pricer.price_batch(&opts);
        for (o, r) in opts.iter().zip(&batch) {
            assert_eq!(pricer.price(o).spread_bps, r.spread_bps);
        }
    }

    #[test]
    fn generic_f64_matches_primary_path() {
        let market = MarketData::paper_workload(3);
        let option = CdsOption::new(5.5, PaymentFrequency::Quarterly, 0.45);
        let a = price_cds(&market, &option).spread_bps;
        let b = price_cds_generic(&market, 5.5, 4, 0.45);
        // Only accumulation strategy differs (Kahan vs plain).
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn f32_pricing_close_to_f64() {
        let market = MarketData::paper_workload(3);
        let m32 = market.to_f32();
        let a = price_cds_generic(&market, 5.0f64, 4, 0.40);
        let b = price_cds_generic(&m32, 5.0f32, 4, 0.40) as f64;
        assert!((a - b).abs() / a < 5e-3, "{a} vs {b}");
    }

    #[test]
    fn realistic_spreads_in_sane_band() {
        let pricer = CdsPricer::new(MarketData::paper_workload(1));
        for o in crate::option::PortfolioGenerator::new(2).portfolio(200) {
            let s = pricer.price(&o).spread_bps;
            assert!(s > 10.0 && s < 600.0, "spread {s} bps for {o:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::option::PaymentFrequency;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn spread_positive_and_bounded(
            h in 0.001f64..0.10,
            r in 0.0f64..0.08,
            rec in 0.0f64..0.9,
            mat in 0.5f64..15.0,
        ) {
            let market = MarketData::flat(r, h, 64);
            let option = CdsOption::new(mat, PaymentFrequency::Quarterly, rec);
            let s = price_cds(&market, &option).spread_bps;
            // Spread below the zero-recovery hazard ceiling (generous bound).
            prop_assert!(s > 0.0);
            prop_assert!(s < h * 10_000.0 * 1.1 + 1.0, "s={s} h={h}");
        }

        #[test]
        fn monotone_in_hazard(
            h in 0.002f64..0.05,
            bump in 0.001f64..0.02,
            mat in 1.0f64..10.0,
        ) {
            let option = CdsOption::new(mat, PaymentFrequency::Quarterly, 0.4);
            let lo = price_cds(&MarketData::flat(0.02, h, 64), &option).spread_bps;
            let hi = price_cds(&MarketData::flat(0.02, h + bump, 64), &option).spread_bps;
            prop_assert!(hi > lo);
        }

        #[test]
        fn monotone_in_recovery(
            rec in 0.0f64..0.8,
            bump in 0.01f64..0.15,
            mat in 1.0f64..10.0,
        ) {
            let market = MarketData::flat(0.02, 0.02, 64);
            let lo = price_cds(&market, &CdsOption::new(mat, PaymentFrequency::Quarterly, (rec + bump).min(0.95))).spread_bps;
            let hi = price_cds(&market, &CdsOption::new(mat, PaymentFrequency::Quarterly, rec)).spread_bps;
            prop_assert!(hi > lo);
        }

        #[test]
        fn matches_closed_form_on_flat_curves(
            h in 0.002f64..0.08,
            r in 0.0f64..0.06,
            rec in 0.0f64..0.9,
            mat in 0.5f64..12.0,
        ) {
            let market = MarketData::flat(r, h, 64);
            let option = CdsOption::new(mat, PaymentFrequency::Quarterly, rec);
            let a = price_cds(&market, &option).spread_bps;
            let b = flat_curve_spread_bps(h, r, rec, mat, 4);
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }
}
