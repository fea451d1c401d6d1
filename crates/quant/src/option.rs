//! CDS option and market-data types, plus seeded workload generators
//! reproducing the paper's experimental setup.
//!
//! "Each option comprises three elements of data, the maturity date …, the
//! frequency of payment, and the recovery rate"; the constant inputs are
//! the interest and hazard term structures, of which "1024 interest and
//! hazard rates are used" for every experiment.

use crate::curve::{Curve, CurvePoint};
use crate::precision::CdsFloat;
use crate::QuantError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Premium payment frequency of a CDS contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaymentFrequency {
    /// One payment per year.
    Annual,
    /// Two payments per year.
    SemiAnnual,
    /// Four payments per year (the market-standard CDS frequency).
    Quarterly,
    /// Twelve payments per year.
    Monthly,
}

impl PaymentFrequency {
    /// Payments per year.
    #[inline]
    pub fn per_year(self) -> u32 {
        match self {
            PaymentFrequency::Annual => 1,
            PaymentFrequency::SemiAnnual => 2,
            PaymentFrequency::Quarterly => 4,
            PaymentFrequency::Monthly => 12,
        }
    }

    /// All supported frequencies, for sweep-style workloads.
    pub const ALL: [PaymentFrequency; 4] = [
        PaymentFrequency::Annual,
        PaymentFrequency::SemiAnnual,
        PaymentFrequency::Quarterly,
        PaymentFrequency::Monthly,
    ];
}

/// One CDS option: the per-contract inputs streamed into the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdsOption {
    /// Maturity of the contract in years ("when the loan is expected to be
    /// repaid, effectively the end of the CDS").
    pub maturity: f64,
    /// Premium payment frequency.
    pub frequency: PaymentFrequency,
    /// Recovery rate in `[0, 1)` — "the percentage of the loan not repaid
    /// by the CDS".
    pub recovery_rate: f64,
}

impl CdsOption {
    /// Infallible constructor for tests and trusted internal call sites
    /// whose parameters are known-valid; panics on out-of-domain
    /// parameters. Every ingestion boundary (harness workloads, the
    /// streaming service, multi-engine batch entry) goes through
    /// [`CdsOption::validated`] instead, so malformed quotes surface as
    /// typed errors rather than aborts.
    #[doc(hidden)]
    pub fn new(maturity: f64, frequency: PaymentFrequency, recovery_rate: f64) -> Self {
        match Self::validated(maturity, frequency, recovery_rate) {
            Ok(option) => option,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction with domain validation.
    pub fn validated(
        maturity: f64,
        frequency: PaymentFrequency,
        recovery_rate: f64,
    ) -> Result<Self, QuantError> {
        if maturity <= 0.0 || !maturity.is_finite() {
            return Err(QuantError::InvalidOption {
                reason: "maturity must be positive and finite",
            });
        }
        if !(0.0..1.0).contains(&recovery_rate) {
            return Err(QuantError::InvalidOption { reason: "recovery rate must lie in [0, 1)" });
        }
        Ok(CdsOption { maturity, frequency, recovery_rate })
    }
}

/// The constant model inputs: interest-rate and hazard-rate term
/// structures, "loaded once" and shared by every option in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketData<F: CdsFloat = f64> {
    /// Zero-rate interest term structure.
    pub interest: Curve<F>,
    /// Hazard-rate term structure.
    pub hazard: Curve<F>,
}

/// Which of the two [`MarketData`] curves a point edit targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveKind {
    /// The interest (discount) curve.
    Interest,
    /// The hazard (default intensity) curve.
    Hazard,
}

impl CurveKind {
    /// Stable lower-case wire name (`interest` / `hazard`).
    pub fn as_str(self) -> &'static str {
        match self {
            CurveKind::Interest => "interest",
            CurveKind::Hazard => "hazard",
        }
    }
}

impl std::fmt::Display for CurveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for CurveKind {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interest" => Ok(CurveKind::Interest),
            "hazard" => Ok(CurveKind::Hazard),
            _ => Err("curve must be `interest` or `hazard`"),
        }
    }
}

impl<F: CdsFloat> MarketData<F> {
    /// The curve of this kind.
    pub fn curve(&self, kind: CurveKind) -> &Curve<F> {
        match kind {
            CurveKind::Interest => &self.interest,
            CurveKind::Hazard => &self.hazard,
        }
    }

    /// The curve of this kind, mutably.
    pub fn curve_mut(&mut self, kind: CurveKind) -> &mut Curve<F> {
        match kind {
            CurveKind::Interest => &mut self.interest,
            CurveKind::Hazard => &mut self.hazard,
        }
    }
}

/// Internal invariant: generator-produced curve points are valid by
/// construction.
fn built_curve<F: CdsFloat>(points: Vec<CurvePoint<F>>, what: &str) -> Curve<F> {
    match Curve::new(points) {
        Ok(curve) => curve,
        Err(e) => panic!("generated {what} curve must be valid: {e}"),
    }
}

impl MarketData<f64> {
    /// Flat curves at the given levels with `n` knots each, spanning 30
    /// years (comfortably beyond any generated maturity).
    pub fn flat(interest_rate: f64, hazard_rate: f64, n: usize) -> Self {
        MarketData {
            interest: Curve::flat(interest_rate, n, 30.0),
            hazard: Curve::flat(hazard_rate, n, 30.0),
        }
    }

    /// The paper's experimental configuration: 1024 interest and 1024
    /// hazard rates. The shapes are realistic: a gently upward-sloping
    /// zero curve and a humped hazard curve, generated deterministically
    /// from `seed`.
    pub fn paper_workload(seed: u64) -> Self {
        Self::paper_workload_sized(seed, 1024)
    }

    /// As [`MarketData::paper_workload`] with a configurable knot count,
    /// for sweeps over the constant-data size.
    pub fn paper_workload_sized(seed: u64, n: usize) -> Self {
        assert!(n >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        // The curves span just beyond the liquid CDS maturities, as the
        // Vitis engine's term structures do; longer-dated queries
        // extrapolate flat. The horizon also sets the prefix-scan
        // fraction of the baseline engine (DESIGN.md §5).
        let horizon = 7.5f64;
        let mut interest = Vec::with_capacity(n);
        let mut hazard = Vec::with_capacity(n);
        for i in 1..=n {
            let t = horizon * i as f64 / n as f64;
            // Upward-sloping zeros from 1% to ~3.5% with small noise.
            let r = 0.01 + 0.025 * (t / horizon) + rng.gen_range(-0.0005..0.0005);
            // Hazard rising towards ~3% at the horizon.
            let h = 0.008 + 0.022 * (t / horizon) + rng.gen_range(-0.0004..0.0004);
            interest.push(CurvePoint { tenor: t, value: r });
            hazard.push(CurvePoint { tenor: t, value: h.max(1e-4) });
        }
        MarketData {
            interest: built_curve(interest, "interest"),
            hazard: built_curve(hazard, "hazard"),
        }
    }

    /// A stressed (crisis) market: inverted, elevated hazard — short-term
    /// default risk dominates — with rates cut towards zero. Used to
    /// check the engines on a regime far from the calibration workload.
    pub fn stressed_workload(seed: u64) -> Self {
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = 7.5f64;
        let mut interest = Vec::with_capacity(n);
        let mut hazard = Vec::with_capacity(n);
        for i in 1..=n {
            let t = horizon * i as f64 / n as f64;
            // Near-zero front end, mild steepening.
            let r = 0.001 + 0.009 * (t / horizon) + rng.gen_range(-0.0002..0.0002);
            // Inverted hazard: ~9% short-term easing to ~4%.
            let h = 0.09 - 0.05 * (t / horizon) + rng.gen_range(-0.001..0.001);
            interest.push(CurvePoint { tenor: t, value: r.max(1e-5) });
            hazard.push(CurvePoint { tenor: t, value: h.max(1e-4) });
        }
        MarketData {
            interest: built_curve(interest, "interest"),
            hazard: built_curve(hazard, "hazard"),
        }
    }

    /// Convert to reduced precision for the paper's further-work ablation.
    pub fn to_f32(&self) -> MarketData<f32> {
        let cvt = |c: &Curve<f64>| {
            built_curve(
                c.points()
                    .iter()
                    .map(|p| CurvePoint { tenor: p.tenor as f32, value: p.value as f32 })
                    .collect(),
                "reduced-precision",
            )
        };
        MarketData { interest: cvt(&self.interest), hazard: cvt(&self.hazard) }
    }
}

/// Seeded generator of realistic CDS option portfolios.
///
/// Maturities are drawn from 1–10 years (peaking at the liquid 5y point),
/// frequencies are predominantly quarterly, recoveries cluster around the
/// conventional 40%.
#[derive(Debug, Clone)]
pub struct PortfolioGenerator {
    rng: StdRng,
}

impl PortfolioGenerator {
    /// Create a generator with a fixed seed (runs are reproducible).
    pub fn new(seed: u64) -> Self {
        PortfolioGenerator { rng: StdRng::seed_from_u64(seed) }
    }

    /// Draw one option.
    pub fn option(&mut self) -> CdsOption {
        let maturity = match self.rng.gen_range(0..10) {
            0 => self.rng.gen_range(1.0..3.0),
            1..=6 => self.rng.gen_range(4.0..7.0), // liquid belly
            _ => self.rng.gen_range(7.0..10.0),
        };
        let frequency = match self.rng.gen_range(0..10) {
            0 => PaymentFrequency::Annual,
            1 => PaymentFrequency::SemiAnnual,
            2 => PaymentFrequency::Monthly,
            _ => PaymentFrequency::Quarterly,
        };
        let recovery = (0.40 + self.rng.gen_range(-0.15..0.15f64)).clamp(0.05, 0.8);
        match CdsOption::validated(maturity, frequency, recovery) {
            Ok(option) => option,
            Err(e) => unreachable!("generator draws from the valid domain: {e}"),
        }
    }

    /// Draw a portfolio of `n` options.
    pub fn portfolio(&mut self, n: usize) -> Vec<CdsOption> {
        (0..n).map(|_| self.option()).collect()
    }

    /// The fixed-shape portfolio used when calibrating against the paper:
    /// all options share maturity and frequency so per-option work is
    /// uniform (6y quarterly, the configuration whose time-point count
    /// reproduces the paper's baseline throughput).
    pub fn uniform(
        n: usize,
        maturity: f64,
        frequency: PaymentFrequency,
        recovery: f64,
    ) -> Vec<CdsOption> {
        match Self::try_uniform(n, maturity, frequency, recovery) {
            Ok(portfolio) => portfolio,
            Err(e) => panic!("uniform portfolio parameters: {e}"),
        }
    }

    /// Fallible [`PortfolioGenerator::uniform`]: validates the shared
    /// contract parameters once and reports a typed error, for ingestion
    /// boundaries fed by external configuration.
    pub fn try_uniform(
        n: usize,
        maturity: f64,
        frequency: PaymentFrequency,
        recovery: f64,
    ) -> Result<Vec<CdsOption>, QuantError> {
        let prototype = CdsOption::validated(maturity, frequency, recovery)?;
        Ok(vec![prototype; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_kind_wire_round_trip() {
        for kind in [CurveKind::Interest, CurveKind::Hazard] {
            assert_eq!(kind.as_str().parse::<CurveKind>(), Ok(kind));
        }
        assert!("INTEREST".parse::<CurveKind>().is_err());
    }

    #[test]
    fn frequency_per_year() {
        assert_eq!(PaymentFrequency::Annual.per_year(), 1);
        assert_eq!(PaymentFrequency::SemiAnnual.per_year(), 2);
        assert_eq!(PaymentFrequency::Quarterly.per_year(), 4);
        assert_eq!(PaymentFrequency::Monthly.per_year(), 12);
    }

    #[test]
    fn option_validation() {
        assert!(CdsOption::validated(5.0, PaymentFrequency::Quarterly, 0.4).is_ok());
        assert!(CdsOption::validated(0.0, PaymentFrequency::Quarterly, 0.4).is_err());
        assert!(CdsOption::validated(5.0, PaymentFrequency::Quarterly, 1.0).is_err());
        assert!(CdsOption::validated(5.0, PaymentFrequency::Quarterly, -0.1).is_err());
        assert!(CdsOption::validated(f64::INFINITY, PaymentFrequency::Quarterly, 0.4).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid CDS option")]
    fn new_panics_on_bad_input() {
        let _ = CdsOption::new(-1.0, PaymentFrequency::Quarterly, 0.4);
    }

    #[test]
    fn paper_workload_has_1024_knots() {
        let m = MarketData::paper_workload(42);
        assert_eq!(m.interest.len(), 1024);
        assert_eq!(m.hazard.len(), 1024);
    }

    #[test]
    fn paper_workload_is_deterministic() {
        let a = MarketData::paper_workload(7);
        let b = MarketData::paper_workload(7);
        assert_eq!(a, b);
        let c = MarketData::paper_workload(8);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_workload_rates_in_plausible_band() {
        let m = MarketData::paper_workload(1);
        for p in m.interest.points() {
            assert!(p.value > 0.0 && p.value < 0.05, "interest {}", p.value);
        }
        for p in m.hazard.points() {
            assert!(p.value > 0.0 && p.value < 0.05, "hazard {}", p.value);
        }
    }

    #[test]
    fn stressed_workload_is_inverted_and_elevated() {
        let m = MarketData::stressed_workload(1);
        let short = m.hazard.value_at(0.5);
        let long = m.hazard.value_at(7.0);
        assert!(short > long, "stressed hazard must be inverted");
        assert!(short > 0.07, "short hazard {short}");
        let calm = MarketData::paper_workload(1);
        assert!(m.hazard.value_at(1.0) > 3.0 * calm.hazard.value_at(1.0));
    }

    #[test]
    fn portfolio_generator_deterministic_and_valid() {
        let a = PortfolioGenerator::new(3).portfolio(100);
        let b = PortfolioGenerator::new(3).portfolio(100);
        assert_eq!(a, b);
        for o in &a {
            assert!(o.maturity >= 1.0 && o.maturity <= 10.0);
            assert!((0.05..=0.8).contains(&o.recovery_rate));
        }
    }

    #[test]
    fn uniform_portfolio_shape() {
        let p = PortfolioGenerator::uniform(16, 6.0, PaymentFrequency::Quarterly, 0.4);
        assert_eq!(p.len(), 16);
        assert!(p.iter().all(|o| o.maturity == 6.0));
    }

    #[test]
    fn f32_conversion_preserves_structure() {
        let m = MarketData::paper_workload(9);
        let m32 = m.to_f32();
        assert_eq!(m32.interest.len(), m.interest.len());
        let t = 5.0;
        assert!((m.interest.value_at(t) - m32.interest.value_at(t as f32) as f64).abs() < 1e-4);
    }
}
