//! ULP-bounded floating-point comparison — the single comparator behind
//! every cross-engine equivalence check in the repository.
//!
//! The paper's argument is that the optimised dataflow engines produce
//! *the same spreads* as the Xilinx baseline. "The same" for re-associated
//! IEEE-754 arithmetic (Listing 1's seven partial sums, the vectorised
//! lanes) means "within a handful of representable values", which a
//! relative-epsilon check states badly: it is too loose near large
//! spreads and undefined at zero. Counting **units in the last place**
//! states it exactly — the distance between two doubles measured in
//! representable steps — and one bound serves every magnitude.
//!
//! An absolute floor (in the unit of the compared quantity, basis points
//! for spreads) complements the ULP bound for results that are
//! *mathematically* zero but reached through cancelling sums: zero-hazard
//! markets produce spreads like `3e-18`, which is astronomically many
//! ULPs from `0.0` yet financially indistinguishable from it.

/// Number of representable `f64` values between `a` and `b`
/// (saturating), i.e. the distance on the monotone integer lattice that
/// IEEE-754 doubles form when their bit patterns are read as
/// sign-magnitude integers.
///
/// `ulp_diff(x, x) == 0`, adjacent doubles differ by 1, `+0.0` and
/// `-0.0` are identified, and any comparison involving a NaN returns
/// `u64::MAX`.
#[must_use]
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Map the double onto a monotone integer lattice: non-negative
    // values keep their bit pattern, negative values are mirrored below
    // zero, so lattice order equals numeric order and ±0 coincide.
    fn lattice(x: f64) -> i128 {
        let bits = x.to_bits();
        let magnitude = (bits & 0x7fff_ffff_ffff_ffff) as i128;
        if bits >> 63 == 0 {
            magnitude
        } else {
            -magnitude
        }
    }
    let (la, lb) = (lattice(a), lattice(b));
    let d = (la - lb).unsigned_abs();
    u64::try_from(d).unwrap_or(u64::MAX)
}

/// Why a ULP comparison failed: carries both values, their measured ULP
/// distance and the bound that was in force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlpMismatch {
    /// The value under test.
    pub got: f64,
    /// The reference value.
    pub want: f64,
    /// Measured distance in ULPs (`u64::MAX` when a side is NaN).
    pub ulps: u64,
    /// The bound that was exceeded.
    pub max_ulps: u64,
    /// The absolute floor that also failed to absorb the difference.
    pub abs_floor: f64,
}

impl std::fmt::Display for UlpMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vs {} differ by {} ULPs (bound {}, abs floor {:e}, abs diff {:e})",
            self.got,
            self.want,
            self.ulps,
            self.max_ulps,
            self.abs_floor,
            (self.got - self.want).abs(),
        )
    }
}

impl std::error::Error for UlpMismatch {}

/// A reusable ULP-bounded comparator: two values agree when they are
/// within `max_ulps` representable steps of each other **or** within an
/// absolute `abs_floor` of each other (whichever admits the pair).
///
/// NaNs never agree with anything, including other NaNs — a NaN spread
/// is corruption, not a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlpComparator {
    /// Maximum admissible distance in ULPs.
    pub max_ulps: u64,
    /// Absolute difference always admitted (for mathematically-zero
    /// results reached through cancelling sums). In the unit of the
    /// compared quantity — basis points for spreads.
    pub abs_floor: f64,
}

impl UlpComparator {
    /// Bit-exact agreement (`±0.0` identified), no absolute floor.
    pub const EXACT: UlpComparator = UlpComparator { max_ulps: 0, abs_floor: 0.0 };

    /// Cross-engine f64 spread agreement.
    ///
    /// The FPGA variants re-associate the leg reductions (Listing-1
    /// partial sums, vectorised lanes) and the reference pricer uses
    /// Kahan summation, so results differ by a few rounding steps;
    /// measured worst-case distance across every route × market shape in
    /// the differential matrix is single-digit ULPs, so 128 leaves an
    /// order of magnitude of headroom while still rejecting any real
    /// numerical defect. The floor admits zero-hazard spreads (≲1e-12
    /// bps of accumulated rounding around 0).
    pub const ENGINE_F64: UlpComparator = UlpComparator { max_ulps: 128, abs_floor: 1e-9 };

    /// A comparator with an explicit budget.
    #[must_use]
    pub const fn new(max_ulps: u64, abs_floor: f64) -> Self {
        UlpComparator { max_ulps, abs_floor }
    }

    /// Do `got` and `want` agree under this comparator?
    #[must_use]
    pub fn matches(&self, got: f64, want: f64) -> bool {
        self.check(got, want).is_ok()
    }

    /// Check agreement, returning the full evidence on mismatch.
    pub fn check(&self, got: f64, want: f64) -> Result<(), UlpMismatch> {
        if got.is_nan() || want.is_nan() {
            return Err(UlpMismatch {
                got,
                want,
                ulps: u64::MAX,
                max_ulps: self.max_ulps,
                abs_floor: self.abs_floor,
            });
        }
        let ulps = ulp_diff(got, want);
        if ulps <= self.max_ulps || (got - want).abs() <= self.abs_floor {
            Ok(())
        } else {
            Err(UlpMismatch { got, want, ulps, max_ulps: self.max_ulps, abs_floor: self.abs_floor })
        }
    }

    /// Check two equal-length slices element-wise; the error names the
    /// first offending index.
    pub fn check_all(&self, got: &[f64], want: &[f64]) -> Result<(), (usize, UlpMismatch)> {
        debug_assert_eq!(got.len(), want.len(), "comparing slices of different lengths");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            self.check(g, w).map_err(|m| (i, m))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_values_are_zero_ulps_apart() {
        for x in [0.0, 1.0, -1.0, 123.456, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(ulp_diff(x, x), 0, "{x}");
        }
    }

    #[test]
    fn adjacent_doubles_are_one_ulp_apart() {
        let x = 123.456f64;
        let next = f64::from_bits(x.to_bits() + 1);
        assert_eq!(ulp_diff(x, next), 1);
        let y = -123.456f64;
        let next = f64::from_bits(y.to_bits() + 1); // more negative
        assert_eq!(ulp_diff(y, next), 1);
    }

    #[test]
    fn signed_zeros_are_identified() {
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert!(UlpComparator::EXACT.matches(0.0, -0.0));
    }

    #[test]
    fn distance_is_symmetric_across_zero() {
        let eps = f64::MIN_POSITIVE; // smallest subnormal magnitude step
        let d = ulp_diff(-eps, eps);
        assert_eq!(d, 2 * ulp_diff(0.0, eps));
    }

    #[test]
    fn nan_never_matches() {
        assert_eq!(ulp_diff(f64::NAN, f64::NAN), u64::MAX);
        assert!(!UlpComparator::new(u64::MAX, f64::INFINITY).matches(f64::NAN, 1.0));
        assert!(!UlpComparator::new(u64::MAX, f64::INFINITY).matches(1.0, f64::NAN));
    }

    #[test]
    fn opposite_infinities_are_maximally_distant() {
        assert!(ulp_diff(f64::NEG_INFINITY, f64::INFINITY) > 1 << 63);
    }

    #[test]
    fn abs_floor_admits_tiny_differences_around_zero() {
        let cmp = UlpComparator::new(4, 1e-9);
        // 1e-18 is billions of ULPs from zero but within the floor.
        assert!(cmp.matches(1e-18, 0.0));
        assert!(!cmp.matches(1e-6, 0.0));
    }

    #[test]
    fn ulp_bound_scales_with_magnitude() {
        let cmp = UlpComparator::new(16, 0.0);
        let big = 1e8f64;
        let nudged = f64::from_bits(big.to_bits() + 10);
        assert!(cmp.matches(big, nudged));
        let far = f64::from_bits(big.to_bits() + 17);
        assert!(!cmp.matches(big, far));
    }

    #[test]
    fn mismatch_reports_evidence() {
        let e = match UlpComparator::EXACT.check(2.0, 1.0) {
            Err(e) => e,
            Ok(()) => panic!("2.0 should not equal 1.0"),
        };
        assert_eq!(e.got, 2.0);
        assert_eq!(e.want, 1.0);
        assert!(e.ulps > 1u64 << 50);
        assert!(e.to_string().contains("ULPs"));
    }

    #[test]
    fn check_all_names_the_offending_index() {
        let got = [1.0, 2.0, 3.5];
        let want = [1.0, 2.0, 3.0];
        match UlpComparator::EXACT.check_all(&got, &want) {
            Err((i, _)) => assert_eq!(i, 2),
            Ok(()) => panic!("index 2 differs"),
        }
    }
}
