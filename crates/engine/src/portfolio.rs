//! Resident portfolio state with a dependency-indexed arrangement.
//!
//! The paper's dataflow engines stream *every* option through the full
//! pricing pipeline on each run; this module separates the resident
//! portfolio — which options are held, and *which curve knots each of
//! them reads* — from the pricing pass, so a tick reprices only the
//! options that read the ticked knot. The read sets come from the
//! lane kernel's own schedule count (`cds_cpu::lanes::full_points`) and
//! read-time definitions (`lattice_time`, `period_mid`, [`stub_mid`]),
//! so they are exact:
//!
//! * **Interest curve.** A read at `t` touches knot `i` iff `t` is in
//!   its [`interest_window`]. An option of frequency Δ with `k` full
//!   points reads the shared lattice times `Δ·1 … Δ·k` and their period
//!   midpoints, its maturity `m` and its stub midpoint.
//!   A window that first touches the lattice at point `j` thus affects
//!   every option of that frequency with `k >= j`, plus those whose `m`
//!   or stub midpoint lies in the window.
//! * **Hazard curve.** `cumulative_hazard(t)` sums a *prefix* of the
//!   curve, so a read at `t` touches knot `i` iff `t > tenor[i-1]`
//!   ([`hazard_window`]); the largest read is `m`, so a hazard tick
//!   affects exactly the options with `m > tenor[i-1]`.
//!
//! **One sorted column per frequency.** Within a frequency, `k` and the
//! stub midpoint never fall as `m` rises: `k` counts the `j` with
//! `Δ·j < m`, and for `m` in `(Δ·k, Δ·(k+1)]` the midpoint is a monotone
//! f64 expression in `m` that lies in `[Δ·k, Δ·(k+1)]`. So each
//! frequency keeps one column of live ids sorted by `(m.to_bits(), id)`
//! and every query is a binary search: a hazard tick's set is a suffix
//! of each column, an interest tick's the union of at most three ranges
//! per column (lattice suffix, maturity range, stub-midpoint range),
//! returned in ascending id order. The repricing itself stays in the
//! lane kernel ([`cds_cpu::LaneKernel::price_residents_into`]).

use cds_cpu::lanes::{
    first_lattice_point_in, freq_slot, full_points, hazard_window, interest_window, stub_mid,
    ReadWindow, SLOT_DELTA,
};
use cds_quant::option::CdsOption;
use std::ops::Range;

/// Does this option's pricing pass read interest-curve time window `w`?
/// Single-option reference version of the arrangement query (the index
/// answers the same question for all residents at once); the
/// arrangement's tests check the index against it.
pub fn option_reads_interest(option: &CdsOption, w: &ReadWindow) -> bool {
    let k = full_points(option);
    let delta = SLOT_DELTA[freq_slot(option.frequency)];
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
    /// Whether the id is resident (false while on the free list).
    live: bool,
    /// Cached [`stub_mid`] read time.
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
    /// Full schedule points before the stub of each slot's option
    /// (`cds_cpu::lanes::full_points`), indexed by id.
    ks: Vec<u32>,
    meta: Vec<Meta>,
    free: Vec<u32>,
    live: usize,
    /// `columns[slot]` = live ids of that frequency slot, sorted by
    /// `(maturity.to_bits(), id)`; `k` and the stub midpoint are
    /// non-decreasing along it too (module docs).
    columns: [Vec<u32>; 4],
    /// One bit per slab slot, all clear between queries: large affected
    /// sets are marked here and read back in ascending id order.
    marks: Vec<u64>,
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

    /// The raw option slab, indexed by id — the slice the lane kernel's
    /// sparse and resident entry points gather from. Freed
    /// slots hold stale options; only index it with live ids.
    pub fn raw_options(&self) -> &[CdsOption] {
        &self.options
    }

    /// `full_points` of each slab slot's option, indexed by id like
    /// [`PortfolioState::raw_options`] (freed slots hold stale counts) —
    /// what the lane kernel's resident entry point reads instead of
    /// recomputing the schedule.
    pub fn raw_full_points(&self) -> &[u32] {
        &self.ks
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

    /// The live ids of each frequency slot ([`freq_slot`] order), each
    /// in arrangement order: ascending `(maturity.to_bits(), id)`.
    pub fn columns(&self) -> &[Vec<u32>; 4] {
        &self.columns
    }

    /// Store an option in the slab (recycling the most recently freed
    /// id), record its metadata and append its id to its column, which
    /// the caller re-sorts. Returns `(id, slot)`.
    fn place(&mut self, option: CdsOption) -> (u32, usize) {
        let k = full_points(&option);
        let slot = freq_slot(option.frequency);
        let meta = Meta { live: true, stub_mid: stub_mid(SLOT_DELTA[slot], k, option.maturity) };
        let id = match self.free.pop() {
            Some(id) => {
                self.options[id as usize] = option;
                self.ks[id as usize] = k as u32;
                self.meta[id as usize] = meta;
                id
            }
            None => {
                self.options.push(option);
                self.ks.push(k as u32);
                self.meta.push(meta);
                (self.options.len() - 1) as u32
            }
        };
        self.live += 1;
        self.columns[slot].push(id);
        (id, slot)
    }

    /// Position of `id` in its column (where it is, or belongs).
    fn position(&self, slot: usize, id: u32) -> usize {
        let key = |id: u32| (self.options[id as usize].maturity.to_bits(), id);
        self.columns[slot].partition_point(|&other| key(other) < key(id))
    }

    /// First shared lattice point of `column`'s frequency that `w`
    /// touches, up to the column's largest `k` (its last id's).
    fn lattice_hit(&self, column: &[u32], delta: f64, w: &ReadWindow) -> Option<usize> {
        let kmax = self.ks[*column.last()? as usize] as usize;
        first_lattice_point_in(delta, kmax, w)
    }

    /// Insert an option, indexing every curve read it will perform.
    /// Returns its stable id (freed ids are recycled).
    ///
    /// # Panics
    /// Panics on an invalid schedule, with the same wording as the
    /// pricing kernels.
    pub fn insert(&mut self, option: CdsOption) -> u32 {
        let (id, slot) = self.place(option);
        let pos = self.position(slot, id);
        self.columns[slot][pos..].rotate_right(1);
        id
    }

    /// Insert a batch: the same ids, in option order, as calling
    /// [`PortfolioState::insert`] on each, but every column is sorted
    /// once instead of shifted per option.
    ///
    /// # Panics
    /// As [`PortfolioState::insert`].
    pub fn insert_batch(&mut self, options: &[CdsOption]) -> Vec<u32> {
        let ids = options.iter().map(|&option| self.place(option).0).collect();
        let slab = &self.options;
        for column in &mut self.columns {
            column.sort_unstable_by_key(|&id| (slab[id as usize].maturity.to_bits(), id));
        }
        ids
    }

    /// Remove a resident option, dropping its column entry.
    /// Returns the option, or `None` if the id is not live.
    pub fn remove(&mut self, id: u32) -> Option<CdsOption> {
        let meta = *self.meta.get(id as usize)?;
        if !meta.live {
            return None;
        }
        let slot = freq_slot(self.options[id as usize].frequency);
        let pos = self.position(slot, id);
        self.columns[slot].remove(pos);
        self.meta[id as usize].live = false;
        self.free.push(id);
        self.live -= 1;
        Some(self.options[id as usize])
    }

    /// Total column entries, one per live option (for leak tests).
    pub fn index_entries(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// Ids of live options affected by a value change at interest-curve
    /// knot `knot`: per column, the lattice suffix `k >= j` plus the
    /// maturity and stub-midpoint ranges inside the knot's window, each
    /// id once. Sorted ascending.
    ///
    /// # Panics
    /// Panics if `knot` is out of bounds for `tenors`.
    pub fn affected_by_interest(&mut self, tenors: &[f64], knot: usize, out: &mut Vec<u32>) {
        let w = interest_window(tenors, knot);
        out.clear();
        for (column, &delta) in self.columns.iter().zip(&SLOT_DELTA) {
            let lattice = self.lattice_hit(column, delta, &w).map_or(0..0, |j| {
                column.partition_point(|&id| (self.ks[id as usize] as usize) < j)..column.len()
            });
            let maturity = in_window(column, &w, |id| self.options[id as usize].maturity);
            let stub = in_window(column, &w, |id| self.meta[id as usize].stub_mid);
            // Overlapping ranges copy an id twice; ordering keeps it once.
            for r in [lattice, maturity, stub] {
                out.extend_from_slice(&column[r]);
            }
        }
        self.ascending(out);
    }

    /// Ids of live options affected by a value change at hazard-curve
    /// knot `knot`: exactly the residents whose maturity exceeds the
    /// previous tenor (the cumulative hazard is a prefix integral), a
    /// suffix of every column. Sorted ascending.
    ///
    /// # Panics
    /// Panics if `knot` is out of bounds for `tenors`.
    pub fn affected_by_hazard(&mut self, tenors: &[f64], knot: usize, out: &mut Vec<u32>) {
        let w = hazard_window(tenors, knot);
        out.clear();
        for column in &self.columns {
            let r = in_window(column, &w, |id| self.options[id as usize].maturity);
            out.extend_from_slice(&column[r]);
        }
        self.ascending(out);
    }

    /// Put `ids` in ascending order without duplicates. A set much
    /// smaller than the slab's bitmap is comparison-sorted; a larger one
    /// is marked in the bitmap and read back, O(ids + slab/64). The
    /// crossover sits where the two measure equal, near one id per
    /// eight bitmap words.
    fn ascending(&mut self, ids: &mut Vec<u32>) {
        let words = self.options.len().div_ceil(64);
        if ids.len() * 8 < words {
            ids.sort_unstable();
            ids.dedup();
            return;
        }
        self.marks.resize(words, 0);
        for &id in ids.iter() {
            self.marks[id as usize / 64] |= 1 << (id % 64);
        }
        ids.clear();
        for (word, bits) in self.marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                ids.push(word as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
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
                let mut columns = self.columns.iter().zip(&SLOT_DELTA);
                columns.all(|(column, &delta)| self.lattice_hit(column, delta, &w).is_none())
            })
            .collect()
    }
}

/// Positions of `column` whose read time (non-decreasing along the
/// column) lies inside the window. Both searches span the whole column,
/// so their first probes share cache lines.
fn in_window(column: &[u32], w: &ReadWindow, time: impl Fn(u32) -> f64) -> Range<usize> {
    let start = column.partition_point(|&id| time(id) <= w.lo);
    start..column.partition_point(|&id| time(id) <= w.lo || w.contains(time(id)))
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
        assert_eq!(state.index_entries(), 32);
        for &id in &ids[..16] {
            assert!(state.remove(id).is_some());
            assert!(state.remove(id).is_none(), "double remove must be None");
        }
        assert_eq!(state.len(), 16);
        assert_eq!(state.index_entries(), 16);
        // Recycled ids come back from the free list.
        let recycled = state.insert(options[0]);
        assert!(ids[..16].contains(&recycled));
        assert_eq!(state.len(), 17);
        assert_eq!(state.index_entries(), 17);
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
    fn monthly_frequency_uses_the_monthly_column() {
        let mut state = PortfolioState::new();
        let o = CdsOption::new(1.0, PaymentFrequency::Monthly, 0.4);
        state.insert(o);
        assert_eq!(state.columns.iter().map(Vec::len).collect::<Vec<_>>(), [0, 0, 0, 1]);
    }
}
