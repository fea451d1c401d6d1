//! Standalone linear-interpolation kernels for the CPU path.
//!
//! The FPGA scan semantics (restart-from-the-front, with cycle counts)
//! live on [`crate::curve::Curve`] as `scan_value_at` / `scan_integral`.
//! This module holds the CPU side:
//!
//! * [`binary_search`] — the `O(log n)` reference, and the bit oracle
//!   for the index below;
//! * [`SegmentIndex`] — a precomputed uniform-bucket index, `O(1)`
//!   expected per query, bit-for-bit identical to [`binary_search`]
//!   (property tests assert this).

use crate::precision::CdsFloat;

/// Interpolate via binary search (the CPU-friendly variant).
///
/// # Panics
/// Panics if `xs` is empty or lengths differ.
pub fn binary_search<F: CdsFloat>(xs: &[F], ys: &[F], x: F) -> F {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    assert!(!xs.is_empty(), "empty interpolation table");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    // Invariant: xs[lo] < x <= xs[hi].
    let (mut lo, mut hi) = (0usize, xs.len() - 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if xs[mid] < x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    segment(xs[lo], xs[hi], ys[lo], ys[hi], x)
}

#[inline]
fn segment<F: CdsFloat>(x0: F, x1: F, y0: F, y1: F, x: F) -> F {
    let w = (x - x0) / (x1 - x0);
    y0 + w * (y1 - y0)
}

/// Precomputed uniform-bucket segment index over a fixed `f64` knot
/// table — the CPU hot path's replacement for a per-query binary search.
///
/// A query is quantised onto one of `2(n−1)` equal-width buckets
/// spanning `[xs[0], xs[n−1]]` with a single subtract-multiply-cast;
/// the bucket's precomputed starting segment is then advanced forward
/// by at most a few knots. On evenly spaced tables such as the paper's
/// 1024 tenors, a segment spans two buckets: the start of an odd bucket
/// is already the query's segment, and the start of an even bucket is
/// one segment low, so a query advances once or not at all, about half
/// the time each. That first step is therefore a select, not a branch
/// (a branch would be mispredicted on about half of the reads); the
/// loop after it takes a step only on non-uniform tables, so on uniform
/// ones its test is perfectly predictable. The per-query cost is O(1)
/// expected, independent of the table size.
///
/// The construction stores, for each bucket `b`, the largest segment
/// index `i` whose left knot quantises strictly below `b` — using the
/// **same quantisation expression** as the lookup, so floating-point
/// rounding of bucket edges cannot make the starting point overshoot:
/// monotonicity of the quantiser alone guarantees `xs[start[b]] < x`
/// for every `x` landing in bucket `b`. The advance loop then stops at
/// the unique segment satisfying the binary search's invariant
/// `xs[lo] < x <= xs[lo+1]`, so interpolation through the index is
/// **bit-for-bit identical** to [`binary_search`] (same segment, same
/// boundary branches, same arithmetic); property tests assert exactly
/// that.
#[derive(Debug, Clone, Default)]
pub struct SegmentIndex {
    /// First knot — the bucket origin.
    x0: f64,
    /// Buckets per unit of `x`: `buckets / (xs[n−1] − xs[0])`.
    inv_width: f64,
    /// Per-bucket conservative starting segment. Empty for degenerate
    /// tables (fewer than two knots, zero/non-finite span), where
    /// lookups fall back to a forward scan from segment 0 — still
    /// correct, just unaccelerated.
    start: Vec<u32>,
}

impl SegmentIndex {
    /// Build the index for a strictly increasing knot table. The index
    /// is only meaningful for lookups against the same `xs` it was
    /// built from.
    #[must_use]
    pub fn new(xs: &[f64]) -> Self {
        let n = xs.len();
        if n < 2 || n - 1 > u32::MAX as usize {
            return SegmentIndex::default();
        }
        let x0 = xs[0];
        let span = xs[n - 1] - x0;
        if !span.is_finite() || span <= 0.0 {
            return SegmentIndex::default();
        }
        let buckets = 2 * (n - 1);
        let inv_width = buckets as f64 / span;
        let quantise = |x: f64| (((x - x0) * inv_width) as usize).min(buckets - 1);
        let mut start = vec![0u32; buckets];
        let mut seg = 0usize;
        for (b, slot) in start.iter_mut().enumerate().skip(1) {
            while seg < n - 2 && quantise(xs[seg + 1]) < b {
                seg += 1;
            }
            *slot = seg as u32;
        }
        SegmentIndex { x0, inv_width, start }
    }

    /// The segment `lo` satisfying `xs[lo] < x <= xs[lo+1]` for interior
    /// `x` (`xs[0] < x < xs[n−1]`) — the same invariant, and therefore
    /// the same segment, [`binary_search`] finds in O(log n). Callers
    /// handle the flat-extrapolation boundaries first, exactly as
    /// `binary_search` does; `xs` must be the table the index was built
    /// from.
    #[inline]
    #[must_use]
    pub fn locate(&self, xs: &[f64], x: f64) -> usize {
        debug_assert!(xs.len() >= 2, "locate needs at least one segment");
        let last = xs.len() - 2;
        let mut lo = if self.start.is_empty() {
            0
        } else {
            let b = (((x - self.x0) * self.inv_width) as usize).min(self.start.len() - 1);
            self.start[b] as usize
        };
        // `lo <= last` always, so `xs[lo + 1]` is in bounds. Even buckets
        // of a uniform table take this step; computing it as a select
        // keeps a coin-flip branch off every read.
        lo += usize::from((lo < last) & (xs[lo + 1] < x));
        while lo < last && xs[lo + 1] < x {
            lo += 1;
        }
        lo
    }

    /// Interpolate `xs→ys` at `x` — bit-for-bit identical to
    /// [`binary_search`] (same boundary branches, same segment, same
    /// `segment` arithmetic), in O(1) expected time per query.
    ///
    /// # Panics
    /// Panics if `xs` is empty or lengths differ.
    #[must_use]
    pub fn interpolate(&self, xs: &[f64], ys: &[f64], x: f64) -> f64 {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "empty interpolation table");
        if xs.len() < 2 || x <= xs[0] {
            return ys[0];
        }
        if x >= xs[xs.len() - 1] {
            return ys[ys.len() - 1];
        }
        let lo = self.locate(xs, x);
        segment(xs[lo], xs[lo + 1], ys[lo], ys[lo + 1], x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];
    const YS: [f64; 5] = [0.01, 0.015, 0.02, 0.03, 0.025];

    #[test]
    fn flat_extrapolation_both_ends() {
        assert_eq!(binary_search(&XS, &YS, 0.0), 0.01);
        assert_eq!(binary_search(&XS, &YS, 100.0), 0.025);
    }

    #[test]
    fn exact_at_knots() {
        for (x, y) in XS.iter().zip(YS.iter()) {
            assert_eq!(binary_search(&XS, &YS, *x), *y);
        }
    }

    #[test]
    fn midpoint_is_average() {
        let v = binary_search(&XS, &YS, 1.5);
        assert!((v - (0.015 + 0.02) / 2.0).abs() < 1e-16);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = binary_search(&XS, &YS[..3], 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_table_panics() {
        let _ = binary_search::<f64>(&[], &[], 1.0);
    }

    #[test]
    fn single_point_table_is_constant() {
        assert_eq!(binary_search(&[1.0], &[42.0], 0.5), 42.0);
        assert_eq!(binary_search(&[1.0], &[42.0], 9.0), 42.0);
    }

    #[test]
    fn segment_index_matches_binary_search_on_fixture() {
        let idx = SegmentIndex::new(&XS);
        for i in -10..=1000 {
            let x = i as f64 * 0.01;
            let a = idx.interpolate(&XS, &YS, x);
            let b = binary_search(&XS, &YS, x);
            assert_eq!(a.to_bits(), b.to_bits(), "x={x}: {a} vs {b}");
        }
        // Exactly at every knot, too.
        for &x in &XS {
            assert_eq!(
                idx.interpolate(&XS, &YS, x).to_bits(),
                binary_search(&XS, &YS, x).to_bits()
            );
        }
    }

    #[test]
    fn segment_index_handles_clustered_knots() {
        // Heavily non-uniform table: clusters at both ends, a huge gap in
        // the middle — worst case for bucket-based starting points.
        let xs = [0.001, 0.0011, 0.0012, 0.5, 31.0, 31.0001, 64.0];
        let ys = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0];
        let idx = SegmentIndex::new(&xs);
        for i in 0..100_000 {
            let x = i as f64 * 0.00065;
            let a = idx.interpolate(&xs, &ys, x);
            let b = binary_search(&xs, &ys, x);
            assert_eq!(a.to_bits(), b.to_bits(), "x={x}");
        }
        // Just above/below every knot.
        for &k in &xs {
            for x in [f64::from_bits(k.to_bits() - 1), k, f64::from_bits(k.to_bits() + 1)] {
                assert_eq!(
                    idx.interpolate(&xs, &ys, x).to_bits(),
                    binary_search(&xs, &ys, x).to_bits()
                );
            }
        }
    }

    /// The paper's evenly spaced 1,024 tenors, where every even bucket
    /// starts one segment low: `locate` must find the segment a
    /// `partition_point` search finds, and interpolation must equal
    /// `binary_search` bit for bit, at every knot, every bucket edge and
    /// the f64 neighbours of both.
    #[test]
    fn segment_index_on_the_paper_tenors_matches_partition_point() {
        let market = crate::option::MarketData::paper_workload(1);
        let points = market.interest.points();
        let xs: Vec<f64> = points.iter().map(|p| p.tenor).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.value).collect();
        let idx = SegmentIndex::new(&xs);
        let edges = (0..=idx.start.len()).map(|b| idx.x0 + b as f64 / idx.inv_width);
        let mut probes = Vec::new();
        for x in xs.iter().copied().chain(edges) {
            probes.extend([f64::from_bits(x.to_bits() - 1), x, f64::from_bits(x.to_bits() + 1)]);
        }
        let last = xs[xs.len() - 1];
        for x in probes {
            if xs[0] < x && x < last {
                let want = xs.partition_point(|&k| k < x) - 1;
                assert_eq!(idx.locate(&xs, x), want, "x={x:e}");
            }
            let (a, b) = (idx.interpolate(&xs, &ys, x), binary_search(&xs, &ys, x));
            assert_eq!(a.to_bits(), b.to_bits(), "x={x:e}: {a} vs {b}");
        }
    }

    #[test]
    fn segment_index_degenerate_tables_fall_back() {
        // One knot: constant everywhere, like binary_search.
        let idx = SegmentIndex::new(&[1.0]);
        assert_eq!(idx.interpolate(&[1.0], &[42.0], 0.5), 42.0);
        assert_eq!(idx.interpolate(&[1.0], &[42.0], 9.0), 42.0);
        // Two knots still accelerate correctly.
        let xs = [1.0, 3.0];
        let ys = [10.0, 20.0];
        let idx = SegmentIndex::new(&xs);
        for x in [0.0, 1.0, 1.5, 2.0, 3.0, 4.0] {
            assert_eq!(
                idx.interpolate(&xs, &ys, x).to_bits(),
                binary_search(&xs, &ys, x).to_bits()
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        // Strictly increasing xs built from positive gaps; bounded ys.
        (2usize..64)
            .prop_flat_map(|n| {
                (
                    proptest::collection::vec(0.01f64..1.0, n),
                    proptest::collection::vec(-5.0f64..5.0, n),
                )
            })
            .prop_map(|(gaps, ys)| {
                let mut acc = 0.0;
                let xs = gaps
                    .iter()
                    .map(|g| {
                        acc += g;
                        acc
                    })
                    .collect::<Vec<_>>();
                (xs, ys)
            })
    }

    proptest! {
        #[test]
        fn segment_index_is_bitwise_binary_search((xs, ys) in table(), q in 0.0f64..70.0) {
            let idx = SegmentIndex::new(&xs);
            let a = idx.interpolate(&xs, &ys, q);
            let b = binary_search(&xs, &ys, q);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "q={}: {} vs {}", q, a, b);
        }

        #[test]
        fn result_within_segment_bounds((xs, ys) in table(), q in 0.0f64..70.0) {
            let v = binary_search(&xs, &ys, q);
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }

        #[test]
        fn monotone_table_gives_monotone_interpolation(
            (xs, mut ys) in table(), q1 in 0.0f64..70.0, q2 in 0.0f64..70.0
        ) {
            ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let v_lo = binary_search(&xs, &ys, lo);
            let v_hi = binary_search(&xs, &ys, hi);
            prop_assert!(v_lo <= v_hi + 1e-12);
        }
    }
}
