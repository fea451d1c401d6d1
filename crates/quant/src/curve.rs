//! Piecewise-linear term structures for interest and hazard rates.
//!
//! The paper's engine takes two constant inputs: "the interest rate, or
//! term structure, expressed as a list of percentages of interest payable
//! on the loan in a given time frame" and "the hazard rate \[expressing\] the
//! likelihood that the loan will default by a specific point in time",
//! each a list of `(time, value)` pairs — 1024 of each in all experiments.
//!
//! [`Curve`] stores such a list with validated, strictly-increasing tenors
//! and provides the two derived quantities the pricer needs:
//!
//! * **linear interpolation** of the rate at an arbitrary time (flat
//!   extrapolation outside the tenor range, matching the Vitis library),
//! * the **integrated hazard** `∫₀ᵗ h(u) du` via trapezoidal accumulation
//!   over every stored point up to `t` — the exact "accumulating the hazard
//!   rate constant data up until this time" computation whose
//!   dependency-chained double add is the bottleneck the paper fixes.

use crate::precision::CdsFloat;
use crate::QuantError;

/// One `(tenor, value)` knot of a term structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint<F: CdsFloat = f64> {
    /// Time of the knot, in years from the valuation date.
    pub tenor: F,
    /// Rate value at the knot (e.g. 0.02 for 2%).
    pub value: F,
}

/// A validated piecewise-linear term structure.
///
/// Invariants (enforced at construction):
/// * at least two knots,
/// * strictly increasing, non-negative, finite tenors,
/// * finite values.
///
/// ```
/// use cds_quant::curve::Curve;
/// let hazard = Curve::from_slices(&[1.0, 5.0], &[0.01, 0.03])?;
/// // Survival falls as the integrated hazard grows.
/// assert!(hazard.survival(1.0) > hazard.survival(5.0));
/// // Flat extrapolation beyond the last knot.
/// assert_eq!(hazard.value_at(10.0), 0.03);
/// # Ok::<(), cds_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Curve<F: CdsFloat = f64> {
    points: Vec<CurvePoint<F>>,
}

impl<F: CdsFloat> Curve<F> {
    /// Build a curve from knots, validating the invariants.
    pub fn new(points: Vec<CurvePoint<F>>) -> Result<Self, QuantError> {
        if points.len() < 2 {
            return Err(QuantError::CurveTooShort { got: points.len() });
        }
        for (i, p) in points.iter().enumerate() {
            if !p.tenor.is_finite() || p.tenor < F::ZERO {
                return Err(QuantError::NonMonotoneTenors { index: i });
            }
            if !p.value.is_finite() {
                return Err(QuantError::NonFiniteValue { index: i });
            }
            if i > 0 && points[i - 1].tenor >= p.tenor {
                return Err(QuantError::NonMonotoneTenors { index: i });
            }
        }
        Ok(Curve { points })
    }

    /// Build a curve from parallel `(tenor, value)` slices.
    pub fn from_slices(tenors: &[F], values: &[F]) -> Result<Self, QuantError> {
        if tenors.len() != values.len() {
            return Err(QuantError::CurveTooShort { got: tenors.len().min(values.len()) });
        }
        Curve::new(
            tenors
                .iter()
                .zip(values.iter())
                .map(|(&tenor, &value)| CurvePoint { tenor, value })
                .collect(),
        )
    }

    /// A flat curve at `value` sampled on `n` evenly spaced tenors spanning
    /// `[horizon/n, horizon]`. Used for analytic validation (credit
    /// triangle) and as a building block for workload generation.
    pub fn flat(value: F, n: usize, horizon: F) -> Self {
        assert!(n >= 2, "flat curve needs at least 2 points");
        let points = (1..=n)
            .map(|i| CurvePoint { tenor: horizon * F::from_usize(i) / F::from_usize(n), value })
            .collect();
        Curve::new(points)
            .unwrap_or_else(|e| unreachable!("flat curve construction is always valid: {e}"))
    }

    /// Number of knots (the paper uses 1024 for both curves).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the curve holds no knots (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Read-only view of the knots.
    #[inline]
    pub fn points(&self) -> &[CurvePoint<F>] {
        &self.points
    }

    /// Last tenor of the curve (the curve's horizon).
    #[inline]
    pub fn horizon(&self) -> F {
        self.points[self.points.len() - 1].tenor
    }

    /// Linearly interpolate the rate at time `t`.
    ///
    /// Outside the knot range the value is extrapolated flat, matching the
    /// Vitis quantitative-finance library's `linearInterpolation` usage.
    /// The implementation scans linearly from the front — precisely the
    /// access pattern the HLS kernel has when streaming the constant data —
    /// so its cost is `O(position of t)`.
    pub fn value_at(&self, t: F) -> F {
        self.scan_value_at(t).0
    }

    /// As [`Curve::value_at`] but also reports how many knots were scanned,
    /// which the dataflow simulator uses as the cycle cost of the
    /// interpolation stage.
    pub fn scan_value_at(&self, t: F) -> (F, usize) {
        let pts = &self.points;
        if t <= pts[0].tenor {
            return (pts[0].value, 1);
        }
        for i in 1..pts.len() {
            if t <= pts[i].tenor {
                let lo = pts[i - 1];
                let hi = pts[i];
                let w = (t - lo.tenor) / (hi.tenor - lo.tenor);
                return (lo.value + w * (hi.value - lo.value), i + 1);
            }
        }
        (pts[pts.len() - 1].value, pts.len())
    }

    /// Integrated rate `∫₀ᵗ v(u) du` by trapezoidal accumulation over every
    /// knot up to `t` (rectangle at the flat-extrapolated level before the
    /// first knot and after the last).
    ///
    /// For a hazard curve this is the cumulative hazard, so the survival
    /// probability is `exp(-integral(t))` and the defaulting probability of
    /// the paper's Figure 1 is `1 − exp(-integral(t))`.
    pub fn integral(&self, t: F) -> F {
        self.scan_integral(t).0
    }

    /// As [`Curve::integral`] but reporting the number of knots
    /// accumulated, i.e. the trip count of the dependency-chained loop the
    /// paper's Listing 1 optimises.
    pub fn scan_integral(&self, t: F) -> (F, usize) {
        let pts = &self.points;
        if t <= F::ZERO {
            return (F::ZERO, 0);
        }
        // Region before the first knot: flat at the first value.
        let first = pts[0];
        if t <= first.tenor {
            return (first.value * t, 1);
        }
        let mut acc = first.value * first.tenor;
        let mut scanned = 1usize;
        for i in 1..pts.len() {
            let lo = pts[i - 1];
            let hi = pts[i];
            scanned += 1;
            if t >= hi.tenor {
                // Full trapezoid over [lo, hi].
                acc += F::HALF * (lo.value + hi.value) * (hi.tenor - lo.tenor);
            } else {
                // Partial segment ending inside [lo, hi].
                let w = (t - lo.tenor) / (hi.tenor - lo.tenor);
                let v_t = lo.value + w * (hi.value - lo.value);
                acc += F::HALF * (lo.value + v_t) * (t - lo.tenor);
                return (acc, scanned);
            }
        }
        // Beyond the final knot: flat at the last value.
        let last = pts[pts.len() - 1];
        acc += last.value * (t - last.tenor);
        (acc, scanned)
    }

    /// Discount factor `exp(-r(t)·t)` treating this curve as a zero-rate
    /// (interest) term structure.
    pub fn discount_factor(&self, t: F) -> F {
        (-self.value_at(t) * t).exp()
    }

    /// Survival probability `exp(-∫₀ᵗ h(u) du)` treating this curve as a
    /// hazard-rate term structure.
    pub fn survival(&self, t: F) -> F {
        (-self.integral(t)).exp()
    }

    /// Defaulting probability by time `t` — the first per-time-point
    /// quantity of the paper's Figure 1.
    pub fn default_probability(&self, t: F) -> F {
        F::ONE - self.survival(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Curve {
        // value(t) = t over tenors 1..=4
        match Curve::from_slices(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0]) {
            Ok(c) => c,
            Err(e) => panic!("ramp curve is valid: {e}"),
        }
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Curve::<f64>::new(vec![CurvePoint { tenor: 1.0, value: 0.1 }]),
            Err(QuantError::CurveTooShort { got: 1 })
        ));
        assert!(matches!(
            Curve::from_slices(&[1.0, 1.0], &[0.1, 0.2]),
            Err(QuantError::NonMonotoneTenors { index: 1 })
        ));
        assert!(matches!(
            Curve::from_slices(&[2.0, 1.0], &[0.1, 0.2]),
            Err(QuantError::NonMonotoneTenors { index: 1 })
        ));
        assert!(matches!(
            Curve::from_slices(&[1.0, 2.0], &[0.1, f64::NAN]),
            Err(QuantError::NonFiniteValue { index: 1 })
        ));
        assert!(matches!(
            Curve::from_slices(&[-1.0, 2.0], &[0.1, 0.2]),
            Err(QuantError::NonMonotoneTenors { index: 0 })
        ));
        assert!(matches!(
            Curve::from_slices(&[1.0], &[0.1, 0.2]),
            Err(QuantError::CurveTooShort { got: 1 })
        ));
    }

    #[test]
    fn interpolation_hits_knots_exactly() {
        let c = ramp();
        for t in [1.0, 2.0, 3.0, 4.0] {
            assert!((c.value_at(t) - t).abs() < 1e-15);
        }
    }

    #[test]
    fn interpolation_between_knots_is_linear() {
        let c = ramp();
        assert!((c.value_at(1.5) - 1.5).abs() < 1e-15);
        assert!((c.value_at(3.25) - 3.25).abs() < 1e-15);
    }

    #[test]
    fn extrapolation_is_flat() {
        let c = ramp();
        assert_eq!(c.value_at(0.5), 1.0);
        assert_eq!(c.value_at(10.0), 4.0);
    }

    #[test]
    fn integral_of_flat_curve_is_linear_in_t() {
        let c = Curve::flat(0.03, 16, 10.0);
        for t in [0.1, 1.0, 5.0, 9.9, 12.0] {
            assert!(
                (c.integral(t) - 0.03 * t).abs() < 1e-12,
                "t={t}: {} vs {}",
                c.integral(t),
                0.03 * t
            );
        }
    }

    #[test]
    fn integral_of_ramp_matches_quadrature() {
        let c = ramp();
        // ∫₀¹ 1 du = 1 (flat before first knot), ∫₁ᵗ u du = (t²−1)/2.
        let t = 3.0;
        let expect = 1.0 + (t * t - 1.0) / 2.0;
        assert!((c.integral(t) - expect).abs() < 1e-12);
    }

    #[test]
    fn integral_beyond_horizon_extends_flat() {
        let c = ramp();
        let at4 = c.integral(4.0);
        assert!((c.integral(6.0) - (at4 + 4.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn integral_at_zero_is_zero() {
        assert_eq!(ramp().integral(0.0), 0.0);
    }

    #[test]
    fn scan_counts_grow_with_t() {
        let c = Curve::flat(0.02, 1024, 10.0);
        let (_, early) = c.scan_integral(1.0);
        let (_, late) = c.scan_integral(9.0);
        assert!(early < late);
        assert!(late <= 1024);
    }

    #[test]
    fn survival_and_default_probability_are_complementary() {
        let c = Curve::flat(0.05, 8, 10.0);
        for t in [0.5, 2.0, 7.5] {
            let s = c.survival(t);
            let p = c.default_probability(t);
            assert!((s + p - 1.0).abs() < 1e-15);
            assert!(s > 0.0 && s <= 1.0);
        }
    }

    #[test]
    fn discount_factor_flat_curve() {
        let c = Curve::flat(0.02, 8, 10.0);
        let t = 3.0;
        assert!((c.discount_factor(t) - (-0.02f64 * t).exp()).abs() < 1e-15);
    }

    #[test]
    fn f32_instantiation_agrees_with_f64_loosely() {
        let c64 = Curve::<f64>::flat(0.03, 64, 10.0);
        let c32 = Curve::<f32>::flat(0.03, 64, 10.0);
        let t = 6.4;
        assert!((c64.integral(t) - c32.integral(t as f32) as f64).abs() < 1e-5);
    }
}
