//! Property tests for the dependency arrangement (ISSUE satellite):
//!
//! 1. **Exactness.** For every curve knot, the arrangement's affected
//!    set equals the set of options whose pricing pass *actually reads*
//!    that knot — validated against a recording curve walk that
//!    re-derives the schedule and the interpolation branches
//!    independently of both the arrangement and `SegmentIndex`.
//! 2. **Insertion-order stability.** The affected sets (as option
//!    multisets) do not depend on the order options were inserted, and
//!    `insert_batch` hands out the same ids and affected sets as
//!    repeated `insert`, recycled ids included.
//! 3. **No leaks.** Removing an option removes every index entry it
//!    owns; removed options never appear in affected sets and freed ids
//!    are recycled without ghosts.
//! 4. **Ascending, once.** Every affected set is strictly ascending by
//!    id, through both ordering paths (comparison sort for small sets,
//!    the slab bitmap for large ones) and across remove/insert rounds,
//!    so no query sees marks a previous one left behind.

use cds_cpu::lanes::{full_points, hazard_window, interest_window};
use cds_engine::portfolio::{option_reads_hazard, option_reads_interest, PortfolioState};
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency, PortfolioGenerator};
use std::collections::BTreeSet;

/// Knot tenors of a curve.
fn tenors(curve: &cds_quant::curve::Curve) -> Vec<f64> {
    curve.points().iter().map(|p| p.tenor).collect()
}

/// Which knots a linear interpolation at time `x` reads — a deliberate
/// reimplementation of the `Curve`/`SegmentIndex` branch structure with
/// a linear scan, so a bug in the real index cannot hide itself here.
fn interp_reads(ts: &[f64], x: f64, into: &mut BTreeSet<usize>) {
    let last = ts.len() - 1;
    if x >= ts[last] {
        into.insert(last);
    } else if x <= ts[0] {
        into.insert(0);
    } else {
        for lo in 0..last {
            if ts[lo] < x && x <= ts[lo + 1] {
                into.insert(lo);
                into.insert(lo + 1);
                return;
            }
        }
        unreachable!("interior read at {x} found no segment");
    }
}

/// Which knots a cumulative-hazard evaluation at time `t` reads: the
/// prefix of stored trapezoid terms plus the bracketing values.
fn hazard_reads(ts: &[f64], t: f64, into: &mut BTreeSet<usize>) {
    let last = ts.len() - 1;
    if t <= 0.0 {
        return;
    }
    if t <= ts[0] {
        into.insert(0);
    } else if t >= ts[last] {
        into.extend(0..=last);
    } else {
        for lo in 0..last {
            if ts[lo] < t && t <= ts[lo + 1] {
                // The stored prefix integral through ts[lo] consumes
                // values 0..=lo; the in-segment trapezoid reads lo+1 too.
                into.extend(0..=lo + 1);
                return;
            }
        }
        unreachable!("interior hazard read at {t} found no segment");
    }
}

/// Every curve knot the pricing pass of `option` reads, recorded by
/// walking the scalar schedule loop's exact time sequence.
fn recorded_reads(
    interest_ts: &[f64],
    hazard_ts: &[f64],
    option: &CdsOption,
) -> (BTreeSet<usize>, BTreeSet<usize>) {
    let mut interest = BTreeSet::new();
    let mut hazard = BTreeSet::new();
    let delta = 1.0 / option.frequency.per_year() as f64;
    let mut prev_t = 0.0f64;
    let mut i = 1usize;
    loop {
        let step = delta * i as f64;
        let last = step >= option.maturity;
        let t = if last { option.maturity } else { step };
        let mid = 0.5 * (prev_t + t);
        hazard_reads(hazard_ts, t, &mut hazard); // survival(t)
        interp_reads(interest_ts, t, &mut interest); // discount_factor(t)
        interp_reads(interest_ts, mid, &mut interest); // discount_factor(mid)
        if last {
            break;
        }
        prev_t = t;
        i += 1;
        assert!(i <= 4_000_000, "runaway schedule in recorder");
    }
    (interest, hazard)
}

/// Strictly ascending: sorted, and no id twice.
fn assert_ascending(ids: &[u32], what: &str) {
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: not strictly ascending");
}

/// A stable value key for comparing option multisets across differently
/// ordered insertions.
fn option_key(o: &CdsOption) -> (u64, u32, u64) {
    (o.maturity.to_bits(), o.frequency.per_year(), o.recovery_rate.to_bits())
}

/// Options whose maturity sits exactly on a boundary a window compares
/// against — every curve tenor and every lattice time `Δ·j` up to the
/// curve horizon — and on each one's f64 neighbours, at every frequency.
fn boundary_options(interest: &[f64], hazard: &[f64]) -> Vec<CdsOption> {
    let frequencies = [
        PaymentFrequency::Annual,
        PaymentFrequency::SemiAnnual,
        PaymentFrequency::Quarterly,
        PaymentFrequency::Monthly,
    ];
    let mut times = [interest, hazard].concat();
    let horizon = times.iter().copied().fold(0.0, f64::max);
    for frequency in frequencies {
        let delta = 1.0 / frequency.per_year() as f64;
        times.extend((1..).map(|j| delta * j as f64).take_while(|&t| t <= horizon + delta));
    }
    times.sort_by(f64::total_cmp);
    times.dedup();
    let mut options = Vec::new();
    for t in times {
        for maturity in [t.next_down(), t, t.next_up()] {
            for frequency in frequencies {
                options.push(CdsOption::new(maturity, frequency, 0.4));
            }
        }
    }
    options
}

/// The stub-midpoint read time, as the pricing pass computes it.
fn stub_mid(option: &CdsOption) -> f64 {
    let delta = 1.0 / option.frequency.per_year() as f64;
    0.5 * (delta * full_points(option) as f64 + option.maturity)
}

#[test]
fn affected_sets_equal_recorded_read_sets() {
    for seed in [1u64, 8, 21] {
        let market = MarketData::paper_workload_sized(seed, 48);
        let its = tenors(&market.interest);
        let hts = tenors(&market.hazard);
        let mut options = PortfolioGenerator::new(seed.wrapping_mul(31) + 5).portfolio(96);
        options.extend(boundary_options(&its, &hts));
        let mut state = PortfolioState::new();
        let ids: Vec<u32> = options.iter().map(|&o| state.insert(o)).collect();
        let recorded: Vec<_> = options.iter().map(|o| recorded_reads(&its, &hts, o)).collect();

        // The order every query relies on: along each column the
        // maturity rises strictly by (bits, id), and `k` and the stub
        // midpoint never fall.
        for column in state.columns() {
            let live: Vec<&CdsOption> =
                column.iter().map(|&id| state.option(id).expect("column id is live")).collect();
            for (pair, ids) in live.windows(2).zip(column.windows(2)) {
                let (a, b) = (pair[0], pair[1]);
                assert!((a.maturity.to_bits(), ids[0]) < (b.maturity.to_bits(), ids[1]));
                assert!(full_points(a) <= full_points(b), "k falls from {a:?} to {b:?}");
                assert!(stub_mid(a) <= stub_mid(b), "stub midpoint falls from {a:?} to {b:?}");
            }
        }

        let mut affected = Vec::new();
        let check = |affected: &[u32], curve: &str, knot: usize, reads: &dyn Fn(usize) -> bool| {
            assert!(affected.windows(2).all(|w| w[0] < w[1]), "{curve} knot {knot}: not ascending");
            for (i, (&id, o)) in ids.iter().zip(&options).enumerate() {
                assert_eq!(
                    affected.binary_search(&id).is_ok(),
                    reads(i),
                    "seed {seed}: {curve} knot {knot} vs option {o:?}"
                );
            }
        };
        for knot in 0..its.len() {
            state.affected_by_interest(&its, knot, &mut affected);
            check(&affected, "interest", knot, &|i| recorded[i].0.contains(&knot));
        }
        for knot in 0..hts.len() {
            state.affected_by_hazard(&hts, knot, &mut affected);
            check(&affected, "hazard", knot, &|i| recorded[i].1.contains(&knot));
        }
    }
}

#[test]
fn affected_sets_are_stable_under_insertion_order() {
    let market = MarketData::paper_workload_sized(4, 32);
    let its = tenors(&market.interest);
    let hts = tenors(&market.hazard);
    let options = PortfolioGenerator::new(77).portfolio(64);

    // Three insertion orders: as generated, reversed, and interleaved.
    // The forward book then takes a remove round and re-inserts the
    // removed options in reverse, so it hands out recycled ids.
    let mut forward = PortfolioState::new();
    let mut fwd_pairs: Vec<(u32, CdsOption)> =
        options.iter().map(|&o| (forward.insert(o), o)).collect();
    let gone: Vec<usize> = (0..options.len()).step_by(3).collect();
    for &i in &gone {
        assert!(forward.remove(fwd_pairs[i].0).is_some());
    }
    for &i in gone.iter().rev() {
        fwd_pairs[i].0 = forward.insert(options[i]);
    }
    let mut reversed = PortfolioState::new();
    let rev_ids: Vec<u32> = options.iter().rev().map(|&o| reversed.insert(o)).collect();
    let mut interleaved = PortfolioState::new();
    let mut il_pairs: Vec<(u32, CdsOption)> = Vec::new();
    for pair in options.chunks(2).rev() {
        for &o in pair {
            il_pairs.push((interleaved.insert(o), o));
        }
    }
    // The fourth book takes the forward book's steps through
    // `insert_batch`: it must hand out the same ids and answer every
    // knot with the same id sets.
    let mut batched = PortfolioState::new();
    let batch_ids = batched.insert_batch(&options);
    assert_eq!(batch_ids, (0..options.len() as u32).collect::<Vec<_>>());
    for &i in &gone {
        assert!(batched.remove(batch_ids[i]).is_some());
    }
    let refill: Vec<CdsOption> = gone.iter().rev().map(|&i| options[i]).collect();
    let refill_ids = batched.insert_batch(&refill);
    let fwd_refill: Vec<u32> = gone.iter().rev().map(|&i| fwd_pairs[i].0).collect();
    assert_eq!(refill_ids, fwd_refill, "insert_batch recycled different ids");

    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut c = Vec::new();
    let mut d = Vec::new();
    let keys = |ids: &[u32], opts: &[CdsOption], affected: &Vec<u32>| -> Vec<(u64, u32, u64)> {
        let mut keys: Vec<_> = affected
            .iter()
            .map(|id| {
                let pos = ids.iter().position(|i| i == id).expect("unknown id");
                option_key(&opts[pos])
            })
            .collect();
        keys.sort_unstable();
        keys
    };
    let rev_options: Vec<CdsOption> = options.iter().rev().copied().collect();
    let (fwd_ids, fwd_options): (Vec<u32>, Vec<CdsOption>) = fwd_pairs.into_iter().unzip();
    let (il_ids, il_options): (Vec<u32>, Vec<CdsOption>) = il_pairs.into_iter().unzip();
    for knot in 0..its.len() {
        forward.affected_by_interest(&its, knot, &mut a);
        reversed.affected_by_interest(&its, knot, &mut b);
        interleaved.affected_by_interest(&its, knot, &mut c);
        batched.affected_by_interest(&its, knot, &mut d);
        for ids in [&a, &b, &c, &d] {
            assert_ascending(ids, &format!("interest knot {knot}"));
        }
        let fwd = keys(&fwd_ids, &fwd_options, &a);
        assert_eq!(fwd, keys(&rev_ids, &rev_options, &b), "interest knot {knot} (reversed)");
        assert_eq!(fwd, keys(&il_ids, &il_options, &c), "interest knot {knot} (interleaved)");
        assert_eq!(a, d, "interest knot {knot} (batched)");
    }
    for knot in 0..hts.len() {
        forward.affected_by_hazard(&hts, knot, &mut a);
        reversed.affected_by_hazard(&hts, knot, &mut b);
        interleaved.affected_by_hazard(&hts, knot, &mut c);
        batched.affected_by_hazard(&hts, knot, &mut d);
        for ids in [&a, &b, &c, &d] {
            assert_ascending(ids, &format!("hazard knot {knot}"));
        }
        let fwd = keys(&fwd_ids, &fwd_options, &a);
        assert_eq!(fwd, keys(&rev_ids, &rev_options, &b), "hazard knot {knot} (reversed)");
        assert_eq!(fwd, keys(&il_ids, &il_options, &c), "hazard knot {knot} (interleaved)");
        assert_eq!(a, d, "hazard knot {knot} (batched)");
    }
}

#[test]
fn removal_leaves_no_index_entries_behind() {
    let market = MarketData::paper_workload_sized(6, 32);
    let its = tenors(&market.interest);
    let hts = tenors(&market.hazard);
    let options = PortfolioGenerator::new(123).portfolio(80);
    let mut state = PortfolioState::new();
    let ids: Vec<u32> = options.iter().map(|&o| state.insert(o)).collect();
    assert_eq!(state.index_entries(), options.len());

    // Remove a scattered half and verify no affected set mentions them.
    let removed: Vec<u32> = ids.iter().copied().step_by(2).collect();
    for &id in &removed {
        assert!(state.remove(id).is_some());
    }
    assert_eq!(state.index_entries(), options.len() - removed.len());
    let mut affected = Vec::new();
    for knot in 0..its.len() {
        state.affected_by_interest(&its, knot, &mut affected);
        for id in &removed {
            assert!(!affected.contains(id), "removed id {id} in interest knot {knot}");
        }
    }
    for knot in 0..hts.len() {
        state.affected_by_hazard(&hts, knot, &mut affected);
        for id in &removed {
            assert!(!affected.contains(id), "removed id {id} in hazard knot {knot}");
        }
    }

    // Remove everything: the index must be completely empty.
    let survivors: Vec<u32> = ids.iter().copied().skip(1).step_by(2).collect();
    for &id in &survivors {
        assert!(state.remove(id).is_some());
    }
    assert!(state.is_empty());
    assert_eq!(state.index_entries(), 0);
    for knot in 0..its.len() {
        state.affected_by_interest(&its, knot, &mut affected);
        assert!(affected.is_empty());
    }

    // Recycled slots must behave like fresh ones (no stale entries).
    let reborn = state.insert(options[0]);
    assert!(ids.contains(&reborn), "freed ids should be recycled");
    assert_eq!(state.index_entries(), 1);
}

#[test]
fn affected_sets_stay_exact_and_ascending_through_both_orderings() {
    // 4096 residents on the 1024-knot paper curve: lattice-free interest
    // knots affect a handful of options (the comparison-sorted path),
    // hazard knots most of the book (the bitmap path). A remove/insert
    // round in between recycles ids, and every set must still be
    // exactly the live readers, strictly ascending.
    let market = MarketData::paper_workload(3);
    let its = tenors(&market.interest);
    let hts = tenors(&market.hazard);
    let mut state = PortfolioState::new();
    let mut live: Vec<(u32, CdsOption)> = Vec::new();
    let options = PortfolioGenerator::new(41).portfolio(4096);
    for (id, o) in state.insert_batch(&options).into_iter().zip(options) {
        live.push((id, o));
    }
    let interest_knots = state.lattice_free_interest_knots(&its);
    let hazard_knots: Vec<usize> = (0..hts.len()).step_by(64).collect();
    let mut affected = Vec::new();
    let (mut small, mut large) = (0, 0);
    for round in 0..2 {
        for (curve, knots) in [("interest", &interest_knots), ("hazard", &hazard_knots)] {
            for &knot in knots {
                let reads: Box<dyn Fn(&CdsOption) -> bool> = if curve == "interest" {
                    let w = interest_window(&its, knot);
                    state.affected_by_interest(&its, knot, &mut affected);
                    Box::new(move |o| option_reads_interest(o, &w))
                } else {
                    let w = hazard_window(&hts, knot);
                    state.affected_by_hazard(&hts, knot, &mut affected);
                    Box::new(move |o| option_reads_hazard(o, &w))
                };
                let what = format!("round {round}, {curve} knot {knot}");
                assert_ascending(&affected, &what);
                let mut expected: Vec<u32> =
                    live.iter().filter(|(_, o)| reads(o)).map(|&(id, _)| id).collect();
                expected.sort_unstable();
                assert_eq!(affected, expected, "{what}");
                match affected.len() {
                    0 => {}
                    n if n * 8 < state.slab_len().div_ceil(64) => small += 1,
                    _ => large += 1,
                }
            }
        }
        // Remove every third resident, then insert as many new options
        // one at a time: they take the freed ids back.
        let gone: Vec<(u32, CdsOption)> = live.iter().copied().step_by(3).collect();
        live.retain(|(id, _)| !gone.iter().any(|(g, _)| g == id));
        for &(id, _) in &gone {
            assert!(state.remove(id).is_some());
        }
        for o in PortfolioGenerator::new(43 + round).portfolio(gone.len()) {
            let id = state.insert(o);
            assert!(gone.iter().any(|&(g, _)| g == id), "id {id} was not recycled");
            live.push((id, o));
        }
    }
    assert!(small > 0 && large > 0, "{small} small and {large} large sets: one path untested");
}
