//! Resident portfolio state with a dependency-indexed arrangement.
//!
//! The paper's dataflow engines stream *every* option through the full
//! pricing pipeline on each run; this module is the enabling refactor
//! for incremental tick repricing: it separates the
//! resident portfolio — which options are held, and *which curve knots
//! each of them reads* — from the pricing pass itself.
//!
//! The index is a differential-dataflow-style **arrangement**: for each
//! curve knot we can produce the exact set of resident options whose
//! discount factors or survival probabilities read that knot. The read
//! sets are derived from the same schedule arithmetic the lane kernel
//! executes (`cds_cpu::lanes::full_points`, `Δ·j` computed in f64), so
//! the arrangement is exact by construction, not approximate:
//!
//! * **Interest curve.** `discount_factor(t)` interpolates linearly, so
//!   a read at time `t` touches knot `i` iff `t` falls in that knot's
//!   [`interest_window`]. An option of frequency Δ with `k` full points
//!   reads the shared lattice times `Δ·1 … Δ·k` and the period
//!   midpoints, plus two per-option stub times: the maturity `m` and
//!   the stub midpoint `0.5·(Δ·k + m)`. Lattice reads are shared by
//!   every option of the same frequency with at least that many points,
//!   so they are indexed as per-frequency buckets keyed by `k`; the two
//!   stub reads are indexed in order-preserving `f64::to_bits` B-trees
//!   for range queries.
//! * **Hazard curve.** `cumulative_hazard(t)` accumulates a *prefix* of
//!   the curve, so a read at `t` touches knot `i` iff `t > tenor[i-1]`
//!   ([`hazard_window`]). An option's largest hazard read is its
//!   maturity, hence the affected set of a hazard tick is exactly the
//!   options with `m > tenor[i-1]` — one maturity range query.
//!
//! Everything here is about *which* options to reprice; the repricing
//! itself stays in the lane kernel
//! ([`cds_cpu::LaneKernel::price_indices_into`]), preserving the
//! kernel's bit-identity with the scalar reference.

use cds_cpu::lanes::{
    first_lattice_point_in, freq_slot, full_points, hazard_window, interest_window, ReadWindow,
};
use cds_quant::option::CdsOption;
use std::collections::BTreeSet;
use std::ops::Bound;

/// Frequencies per grid slot, in [`freq_slot`] order.
const SLOT_PER_YEAR: [u32; 4] = [1, 2, 4, 12];

/// The stub-midpoint read time of an option with `k` full points, using
/// the lane kernel's exact expression (`prev_t` is the shared grid time
/// `Δ·k` computed in f64).
fn stub_mid(delta: f64, k: usize, maturity: f64) -> f64 {
    0.5 * (delta * k as f64 + maturity)
}

/// Does this option's pricing pass read interest-curve time window `w`?
/// Single-option reference version of the arrangement query (the index
/// answers the same question for all residents at once); the
/// arrangement's tests check the index against it.
pub fn option_reads_interest(option: &CdsOption, w: &ReadWindow) -> bool {
    let k = full_points(option);
    let delta = 1.0 / option.frequency.per_year() as f64;
    first_lattice_point_in(delta, k, w).is_some()
        || w.contains(option.maturity)
        || w.contains(stub_mid(delta, k, option.maturity))
}

/// Does this option's pricing pass read hazard-curve time window `w`?
/// Hazard windows are prefix windows, so the maturity (the option's
/// largest hazard read) decides.
pub fn option_reads_hazard(option: &CdsOption, w: &ReadWindow) -> bool {
    option.maturity > w.lo
}

/// Per-option metadata kept alongside the slab.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Full schedule points before the stub (`cds_cpu::lanes::full_points`).
    k: u32,
    /// Frequency slot (index into the per-frequency buckets).
    slot: u8,
    /// Whether the id is resident (false while on the free list).
    live: bool,
    /// Position inside `buckets[slot][k]`, for O(1) swap-removal.
    bucket_pos: u32,
    /// Cached stub-midpoint read time.
    stub_mid: f64,
}

/// Resident portfolio state: a stable-id slab of options plus the
/// dependency arrangement over their curve reads.
///
/// Ids are dense `u32` slab indices, stable for the lifetime of the
/// option and recycled after removal; the slab doubles as the
/// `&[CdsOption]` the sparse lane-kernel entry point prices from.
#[derive(Debug, Clone, Default)]
pub struct PortfolioState {
    /// Option storage, indexed by id. Freed slots retain stale data and
    /// are never handed out by queries.
    options: Vec<CdsOption>,
    meta: Vec<Meta>,
    free: Vec<u32>,
    live: usize,
    /// `buckets[slot][k]` = ids of live options with exactly `k` full
    /// points at that frequency. A tick whose window first touches the
    /// shared lattice at point `j` affects every bucket with `k >= j`.
    buckets: [Vec<Vec<u32>>; 4],
    /// Live ids keyed by `maturity.to_bits()` (order-preserving for the
    /// positive maturities validation guarantees).
    by_maturity: BTreeSet<(u64, u32)>,
    /// Live ids keyed by `stub_mid.to_bits()`.
    by_stub_mid: BTreeSet<(u64, u32)>,
    /// Generation stamps for O(1) dedup during affected-set collection.
    stamp: Vec<u64>,
    generation: u64,
}

impl PortfolioState {
    /// Empty portfolio.
    pub fn new() -> Self {
        PortfolioState::default()
    }

    /// Number of resident options.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no options are resident.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest id ever allocated plus one (the slab length). Freed ids
    /// below this may be recycled by future inserts.
    pub fn slab_len(&self) -> usize {
        self.options.len()
    }

    /// The raw option slab, indexed by id — the slice
    /// [`cds_cpu::LaneKernel::price_indices_into`] gathers from. Freed
    /// slots hold stale options; only index it with live ids.
    pub fn raw_options(&self) -> &[CdsOption] {
        &self.options
    }

    /// The option behind a live id.
    pub fn option(&self, id: u32) -> Option<&CdsOption> {
        let meta = self.meta.get(id as usize)?;
        meta.live.then(|| &self.options[id as usize])
    }

    /// Iterate `(id, option)` over live residents in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &CdsOption)> + '_ {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.live)
            .map(move |(id, _)| (id as u32, &self.options[id]))
    }

    /// Insert an option, indexing every curve read it will perform.
    /// Returns its stable id (freed ids are recycled).
    ///
    /// # Panics
    /// Panics on an invalid schedule, with the same wording as the
    /// pricing kernels.
    pub fn insert(&mut self, option: CdsOption) -> u32 {
        let k = full_points(&option);
        let slot = freq_slot(option.frequency);
        let delta = 1.0 / SLOT_PER_YEAR[slot] as f64;
        let mid = stub_mid(delta, k, option.maturity);
        let id = match self.free.pop() {
            Some(id) => {
                self.options[id as usize] = option;
                id
            }
            None => {
                self.options.push(option);
                self.meta.push(Meta { k: 0, slot: 0, live: false, bucket_pos: 0, stub_mid: 0.0 });
                self.stamp.push(0);
                (self.options.len() - 1) as u32
            }
        };
        let bucket_by_k = &mut self.buckets[slot];
        if bucket_by_k.len() <= k {
            bucket_by_k.resize(k + 1, Vec::new());
        }
        let bucket = &mut bucket_by_k[k];
        bucket.push(id);
        self.meta[id as usize] = Meta {
            k: k as u32,
            slot: slot as u8,
            live: true,
            bucket_pos: (bucket.len() - 1) as u32,
            stub_mid: mid,
        };
        self.by_maturity.insert((option.maturity.to_bits(), id));
        self.by_stub_mid.insert((mid.to_bits(), id));
        self.live += 1;
        id
    }

    /// Remove a resident option, dropping every index entry it owns.
    /// Returns the option, or `None` if the id is not live.
    pub fn remove(&mut self, id: u32) -> Option<CdsOption> {
        let meta = *self.meta.get(id as usize)?;
        if !meta.live {
            return None;
        }
        let bucket = &mut self.buckets[meta.slot as usize][meta.k as usize];
        let pos = meta.bucket_pos as usize;
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.meta[moved as usize].bucket_pos = pos as u32;
        }
        let option = self.options[id as usize];
        self.by_maturity.remove(&(option.maturity.to_bits(), id));
        self.by_stub_mid.remove(&(meta.stub_mid.to_bits(), id));
        self.meta[id as usize].live = false;
        self.free.push(id);
        self.live -= 1;
        Some(option)
    }

    /// Total entries across all index structures — for leak tests: must
    /// equal `2 * len()` for the B-trees plus `len()` across buckets.
    pub fn index_entries(&self) -> usize {
        let bucketed: usize = self.buckets.iter().flat_map(|by_k| by_k.iter().map(Vec::len)).sum();
        bucketed + self.by_maturity.len() + self.by_stub_mid.len()
    }

    /// Ids of live options affected by a value change at interest-curve
    /// knot `knot`: shared-lattice readers (per-frequency buckets) plus
    /// maturity and stub-midpoint range hits, deduplicated and sorted.
    ///
    /// # Panics
    /// Panics if `knot` is out of bounds for `tenors`.
    pub fn affected_by_interest(&mut self, tenors: &[f64], knot: usize, out: &mut Vec<u32>) {
        let w = interest_window(tenors, knot);
        out.clear();
        self.generation += 1;
        let generation = self.generation;
        for (by_k, &per_year) in self.buckets.iter().zip(SLOT_PER_YEAR.iter()) {
            if by_k.is_empty() {
                continue;
            }
            let delta = 1.0 / per_year as f64;
            if let Some(j) = first_lattice_point_in(delta, by_k.len() - 1, &w) {
                for bucket in &by_k[j..] {
                    for &id in bucket {
                        if self.stamp[id as usize] != generation {
                            self.stamp[id as usize] = generation;
                            out.push(id);
                        }
                    }
                }
            }
        }
        for &(_, id) in range_in_window(&self.by_maturity, &w) {
            if self.stamp[id as usize] != generation {
                self.stamp[id as usize] = generation;
                out.push(id);
            }
        }
        for &(_, id) in range_in_window(&self.by_stub_mid, &w) {
            if self.stamp[id as usize] != generation {
                self.stamp[id as usize] = generation;
                out.push(id);
            }
        }
        out.sort_unstable();
    }

    /// Ids of live options affected by a value change at hazard-curve
    /// knot `knot`: exactly the residents whose maturity exceeds the
    /// previous tenor (the cumulative hazard is a prefix integral).
    /// Sorted ascending.
    ///
    /// # Panics
    /// Panics if `knot` is out of bounds for `tenors`.
    pub fn affected_by_hazard(&mut self, tenors: &[f64], knot: usize, out: &mut Vec<u32>) {
        let w = hazard_window(tenors, knot);
        out.clear();
        out.extend(range_in_window(&self.by_maturity, &w).map(|&(_, id)| id));
        out.sort_unstable();
    }

    /// Interest knots whose window contains no shared-lattice read of
    /// any resident frequency — ticks there touch only per-option stub
    /// reads, the regime where incremental repricing wins by orders of
    /// magnitude. (Knots under the payment lattice inherently invalidate
    /// a large slice of the book; see docs/PERFORMANCE.md.)
    pub fn lattice_free_interest_knots(&self, tenors: &[f64]) -> Vec<usize> {
        (0..tenors.len())
            .filter(|&knot| {
                let w = interest_window(tenors, knot);
                (0..4).all(|slot| {
                    let by_k = &self.buckets[slot];
                    by_k.is_empty() || {
                        let delta = 1.0 / SLOT_PER_YEAR[slot] as f64;
                        first_lattice_point_in(delta, by_k.len() - 1, &w).is_none()
                    }
                })
            })
            .collect()
    }
}

/// Range query over a `to_bits`-keyed index: live ids whose key time
/// lies inside the window. Keys are positive finite f64s, for which the
/// `to_bits` order matches the numeric order.
fn range_in_window<'s>(
    index: &'s BTreeSet<(u64, u32)>,
    w: &ReadWindow,
) -> impl Iterator<Item = &'s (u64, u32)> {
    let start = if w.lo <= 0.0 || w.lo == f64::NEG_INFINITY {
        Bound::Unbounded
    } else {
        Bound::Excluded((w.lo.to_bits(), u32::MAX))
    };
    let end = if w.hi == f64::INFINITY {
        Bound::Unbounded
    } else if w.hi_inclusive {
        Bound::Included((w.hi.to_bits(), u32::MAX))
    } else {
        Bound::Excluded((w.hi.to_bits(), 0))
    };
    index.range((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::{MarketData, PaymentFrequency, PortfolioGenerator};

    fn tenors(curve: &cds_quant::curve::Curve) -> Vec<f64> {
        curve.points().iter().map(|p| p.tenor).collect()
    }

    #[test]
    fn affected_sets_match_the_single_option_predicates() {
        let market = MarketData::paper_workload_sized(5, 48);
        let its = tenors(&market.interest);
        let hts = tenors(&market.hazard);
        let options = PortfolioGenerator::new(17).portfolio(64);
        let mut state = PortfolioState::new();
        let ids: Vec<u32> = options.iter().map(|&o| state.insert(o)).collect();
        let mut affected = Vec::new();
        for knot in 0..its.len() {
            state.affected_by_interest(&its, knot, &mut affected);
            let w = interest_window(&its, knot);
            for (&id, option) in ids.iter().zip(&options) {
                assert_eq!(
                    affected.contains(&id),
                    option_reads_interest(option, &w),
                    "interest knot {knot}, option {option:?}"
                );
            }
        }
        for knot in 0..hts.len() {
            state.affected_by_hazard(&hts, knot, &mut affected);
            let w = hazard_window(&hts, knot);
            for (&id, option) in ids.iter().zip(&options) {
                assert_eq!(
                    affected.contains(&id),
                    option_reads_hazard(option, &w),
                    "hazard knot {knot}, option {option:?}"
                );
            }
        }
    }

    #[test]
    fn remove_recycles_ids_and_keeps_indexes_tight() {
        let options = PortfolioGenerator::new(9).portfolio(32);
        let mut state = PortfolioState::new();
        let ids: Vec<u32> = options.iter().map(|&o| state.insert(o)).collect();
        assert_eq!(state.len(), 32);
        assert_eq!(state.index_entries(), 3 * 32);
        for &id in &ids[..16] {
            assert!(state.remove(id).is_some());
            assert!(state.remove(id).is_none(), "double remove must be None");
        }
        assert_eq!(state.len(), 16);
        assert_eq!(state.index_entries(), 3 * 16);
        // Recycled ids come back from the free list.
        let recycled = state.insert(options[0]);
        assert!(ids[..16].contains(&recycled));
        assert_eq!(state.len(), 17);
        assert_eq!(state.index_entries(), 3 * 17);
    }

    #[test]
    fn lattice_free_knots_affect_only_stub_readers() {
        let market = MarketData::paper_workload(2);
        let its = tenors(&market.interest);
        let mut state = PortfolioState::new();
        for o in PortfolioGenerator::new(4).portfolio(4096) {
            state.insert(o);
        }
        let free_knots = state.lattice_free_interest_knots(&its);
        assert!(!free_knots.is_empty(), "a 1024-knot paper curve must contain off-lattice knots");
        let mut affected = Vec::new();
        for &knot in &free_knots {
            state.affected_by_interest(&its, knot, &mut affected);
            let w = interest_window(&its, knot);
            for &id in &affected {
                let o = state.option(id).expect("affected id must be live");
                let k = full_points(o);
                let delta = 1.0 / o.frequency.per_year() as f64;
                assert!(
                    w.contains(o.maturity) || w.contains(stub_mid(delta, k, o.maturity)),
                    "knot {knot} claimed lattice-free but option {o:?} hit via the lattice"
                );
            }
        }
    }

    #[test]
    fn monthly_frequency_uses_the_monthly_bucket() {
        let mut state = PortfolioState::new();
        let o = CdsOption::new(1.0, PaymentFrequency::Monthly, 0.4);
        state.insert(o);
        assert_eq!(state.buckets[3].iter().map(Vec::len).sum::<usize>(), 1);
    }
}
