//! Accumulation kernels — the software realisation of the paper's
//! Listing 1.
//!
//! The hazard calculation accumulates per-segment probability contributions
//! with a double-precision add whose hardware latency is **seven cycles**.
//! A naïve loop therefore carries a loop-carried dependency and achieves an
//! initiation interval (II) of 7 — one result every seven cycles. Listing 1
//! of the paper replicates the accumulator into an array of seven partial
//! sums, processes the input cyclically in chunks of seven, and reduces the
//! partials at the end, achieving an effective II of 1.
//!
//! This module implements both kernels (including the handling of lengths
//! not divisible by seven, which the paper's listing omits "for brevity"),
//! plus a compensated (Kahan) reference. On a CPU the lane-split kernel is
//! *also* faster than the naïve loop, because it breaks the FP add
//! dependency chain and lets the out-of-order core (or the auto-vectoriser)
//! run lanes in parallel — the host columns of `cds-harness listing1`
//! measure that real speedup.

use crate::precision::CdsFloat;

/// Hardware latency, in cycles, of a double-precision floating-point add in
/// the Vitis HLS implementation targeted by the paper. This is both the II
/// of the naïve accumulation loop and the lane count of the optimised one.
pub const FP_ADD_LATENCY: usize = 7;

/// Naïve sequential sum: one loop-carried dependency chain, exactly the
/// code whose II the paper diagnoses as 7.
pub fn sum_sequential<F: CdsFloat>(values: &[F]) -> F {
    let mut acc = F::ZERO;
    for &v in values {
        acc += v;
    }
    acc
}

/// Listing-1 accumulation with `LANES` partial sums (the paper uses 7, one
/// per cycle of add latency). Handles lengths not divisible by `LANES` by
/// folding the remainder into the lanes before the final reduction — the
/// part the paper's listing omits for brevity.
pub fn sum_lanes<F: CdsFloat, const LANES: usize>(values: &[F]) -> F {
    assert!(LANES > 0, "need at least one lane");
    let mut lanes = [F::ZERO; LANES];
    let chunks = values.len() / LANES;
    // Outer loop: II = LANES in hardware; inner loop fully unrolled so the
    // LANES adds are independent and all complete each outer iteration.
    for i in 0..chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += values[i * LANES + j];
        }
    }
    // Remainder: fewer than LANES trailing elements, one per lane.
    for (j, &v) in values[chunks * LANES..].iter().enumerate() {
        lanes[j] += v;
    }
    // Final reduction over LANES elements only; this short loop retains the
    // dependency chain but its impact is negligible (7 elements, not the
    // full input length).
    let mut acc = F::ZERO;
    for lane in lanes {
        acc += lane;
    }
    acc
}

/// The paper's exact configuration: seven partial sums.
pub fn sum_lanes7<F: CdsFloat>(values: &[F]) -> F {
    sum_lanes::<F, FP_ADD_LATENCY>(values)
}

/// Kahan (compensated) summation — the high-accuracy reference against
/// which both hardware-shaped kernels are validated.
pub fn sum_kahan<F: CdsFloat>(values: &[F]) -> F {
    let mut acc = F::ZERO;
    let mut comp = F::ZERO;
    for &v in values {
        let y = v - comp;
        let t = acc + y;
        comp = (t - acc) - y;
        acc = t;
    }
    acc
}

/// Streaming lane accumulator: the stateful form used inside the dataflow
/// stages, where contributions arrive one per cycle from an HLS stream
/// rather than from an indexable array.
#[derive(Debug, Clone)]
pub struct LaneAccumulator<F: CdsFloat = f64, const LANES: usize = FP_ADD_LATENCY> {
    lanes: [F; LANES],
    next: usize,
    count: usize,
}

impl<F: CdsFloat, const LANES: usize> Default for LaneAccumulator<F, LANES> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: CdsFloat, const LANES: usize> LaneAccumulator<F, LANES> {
    /// Fresh accumulator with all lanes zeroed.
    pub fn new() -> Self {
        LaneAccumulator { lanes: [F::ZERO; LANES], next: 0, count: 0 }
    }

    /// Feed one value into the cyclically-next lane.
    #[inline]
    pub fn push(&mut self, v: F) {
        self.lanes[self.next] += v;
        self.next = (self.next + 1) % LANES;
        self.count += 1;
    }

    /// Number of values accumulated so far.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Reduce the lanes to the final sum (non-destructive).
    pub fn finish(&self) -> F {
        let mut acc = F::ZERO;
        for &lane in &self.lanes {
            acc += lane;
        }
        acc
    }

    /// Reset to the zero state, ready for the next option.
    pub fn reset(&mut self) {
        self.lanes = [F::ZERO; LANES];
        self.next = 0;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.97f64.powi(i as i32)).collect()
    }

    #[test]
    fn empty_input_sums_to_zero() {
        assert_eq!(sum_sequential::<f64>(&[]), 0.0);
        assert_eq!(sum_lanes7::<f64>(&[]), 0.0);
        assert_eq!(sum_kahan::<f64>(&[]), 0.0);
    }

    #[test]
    fn exact_lengths_divisible_by_seven() {
        let v = geometric(7 * 13);
        let expect = sum_kahan(&v);
        assert!((sum_lanes7(&v) - expect).abs() < 1e-12);
        assert!((sum_sequential(&v) - expect).abs() < 1e-12);
    }

    #[test]
    fn tail_handling_every_residue_class() {
        // The case the paper's listing omits: length % 7 != 0.
        for n in 0..40usize {
            let v = geometric(n);
            let expect = sum_kahan(&v);
            let got = sum_lanes7(&v);
            assert!((got - expect).abs() < 1e-12, "n={n}: {got} vs {expect}");
        }
    }

    #[test]
    fn other_lane_counts() {
        let v = geometric(100);
        let expect = sum_kahan(&v);
        assert!((sum_lanes::<f64, 1>(&v) - expect).abs() < 1e-12);
        assert!((sum_lanes::<f64, 2>(&v) - expect).abs() < 1e-12);
        assert!((sum_lanes::<f64, 4>(&v) - expect).abs() < 1e-12);
        assert!((sum_lanes::<f64, 8>(&v) - expect).abs() < 1e-12);
    }

    #[test]
    fn streaming_accumulator_matches_batch() {
        let v = geometric(1024);
        let mut acc = LaneAccumulator::<f64>::new();
        for &x in &v {
            acc.push(x);
        }
        assert_eq!(acc.count(), 1024);
        assert!((acc.finish() - sum_lanes7(&v)).abs() < 1e-12);
    }

    #[test]
    fn streaming_reset_reuses_state() {
        let mut acc = LaneAccumulator::<f64>::new();
        for _ in 0..10 {
            acc.push(1.0);
        }
        acc.reset();
        assert_eq!(acc.count(), 0);
        acc.push(2.5);
        assert!((acc.finish() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn kahan_beats_sequential_on_ill_conditioned_input() {
        // Large head followed by many tiny values: the naïve sum loses
        // the tail; Kahan keeps it.
        let mut v = vec![1e16f64];
        v.extend(std::iter::repeat_n(1.0, 1000));
        v.push(-1e16);
        let kahan = sum_kahan(&v);
        assert!((kahan - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn f32_lanes_track_f64_reference() {
        let v64 = geometric(500);
        let v32: Vec<f32> = v64.iter().map(|&x| x as f32).collect();
        let r = sum_lanes7(&v32) as f64;
        assert!((r - sum_kahan(&v64)).abs() < 1e-3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lanes_equal_kahan_within_tolerance(
            v in proptest::collection::vec(-1.0f64..1.0, 0..300)
        ) {
            let expect = sum_kahan(&v);
            let got = sum_lanes7(&v);
            // Bound scaled by input magnitude.
            let scale = 1.0 + v.iter().map(|x| x.abs()).sum::<f64>();
            prop_assert!((got - expect).abs() <= 1e-12 * scale);
        }

        #[test]
        fn streaming_equals_batch(
            v in proptest::collection::vec(-100.0f64..100.0, 0..200)
        ) {
            let mut acc = LaneAccumulator::<f64>::new();
            for &x in &v { acc.push(x); }
            prop_assert_eq!(acc.finish(), sum_lanes7(&v));
        }

        #[test]
        fn permutation_invariance_within_fp_tolerance(
            mut v in proptest::collection::vec(0.0f64..1.0, 1..100)
        ) {
            let a = sum_lanes7(&v);
            v.reverse();
            let b = sum_lanes7(&v);
            let scale = 1.0 + v.iter().sum::<f64>();
            prop_assert!((a - b).abs() <= 1e-12 * scale);
        }
    }
}
