//! Epoch-swapped immutable curve snapshots.
//!
//! A curve tick never mutates market data in place: it builds a whole
//! new [`EpochSnapshot`] (market curves plus a CPU engine already
//! constructed from them) and publishes it by swapping an
//! [`Arc`] behind a mutex, then bumping an atomic epoch counter.
//! Readers keep their own cached `Arc` and only touch the mutex when
//! the epoch counter tells them it is stale, so the steady-state read
//! path is a single atomic load — readers never lock while quotes are
//! priced, and a snapshot can never be torn: every quote prices against
//! exactly one epoch's curves.

use cds_cpu::engine::CpuCdsEngine;
use cds_engine::incremental::{edit_curve_point, CurveKind, CurveTick};
use cds_quant::option::MarketData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock_recover;

/// One immutable published epoch: the curves and the CPU engine built
/// from them (term structures are precomputed once per tick, not per
/// quote).
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Monotonically increasing epoch number; epoch 0 is the boot
    /// snapshot.
    pub epoch: u64,
    /// Seed the curves were generated from (`MarketData::paper_workload`).
    pub seed: u64,
    /// The published market curves.
    pub market: MarketData<f64>,
    /// CPU pricing engine constructed from `market`; bit-identical to
    /// the scalar reference for every quote.
    pub engine: CpuCdsEngine,
}

impl EpochSnapshot {
    fn build(epoch: u64, seed: u64) -> Arc<EpochSnapshot> {
        let market = MarketData::paper_workload(seed);
        let engine = CpuCdsEngine::new(&market);
        Arc::new(EpochSnapshot { epoch, seed, market, engine })
    }
}

/// The published curve book: current epoch number plus the slot holding
/// the current snapshot.
#[derive(Debug)]
pub struct CurveBook {
    epoch: AtomicU64,
    slot: Mutex<Arc<EpochSnapshot>>,
}

impl CurveBook {
    /// Boot the book at epoch 0 from `seed`.
    pub fn new(seed: u64) -> CurveBook {
        CurveBook { epoch: AtomicU64::new(0), slot: Mutex::new(EpochSnapshot::build(0, seed)) }
    }

    /// Current epoch number (a single atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish a new epoch generated from `seed`; returns the new epoch
    /// number. The snapshot is fully constructed before the slot swap,
    /// and the epoch counter is bumped only after the slot holds the new
    /// snapshot, so a reader that observes epoch `n` always finds a
    /// snapshot at least as new as `n` in the slot.
    pub fn publish(&self, seed: u64) -> u64 {
        let next = self.epoch.load(Ordering::Acquire) + 1;
        let snapshot = EpochSnapshot::build(next, seed);
        *lock_recover(&self.slot) = snapshot;
        self.epoch.store(next, Ordering::Release);
        next
    }

    /// Publish a new epoch by replacing the *value* of one curve knot,
    /// keeping every other point (and all tenors) bit-identical — the
    /// epoch-swap half of the incremental tick path, through the same
    /// [`edit_curve_point`] as `IncrementalEngine::apply_tick`. The new
    /// engine is the previous one with that knot edited in place
    /// ([`CpuCdsEngine::set_value`]), bit-identical to a fresh build on
    /// the new curves. Returns the new epoch number and
    /// whether the tick was zero-delta (identical value bits
    /// re-published; the engine is reused unedited).
    ///
    /// The seed field is inherited from the previous snapshot (the
    /// curves are no longer a pure function of it once point ticks
    /// land).
    pub fn publish_point(
        &self,
        curve: CurveKind,
        knot: usize,
        value: f64,
    ) -> Result<(u64, bool), String> {
        let prev = self.current();
        let mut market = prev.market.clone();
        let zero_delta = edit_curve_point(&mut market, CurveTick { curve, knot, value })?;
        let next = self.epoch.load(Ordering::Acquire) + 1;
        let mut engine = prev.engine.clone();
        if !zero_delta {
            engine.set_value(curve, knot, market.curve(curve).points()[knot].value);
        }
        let snapshot = Arc::new(EpochSnapshot { epoch: next, seed: prev.seed, market, engine });
        *lock_recover(&self.slot) = snapshot;
        self.epoch.store(next, Ordering::Release);
        Ok((next, zero_delta))
    }

    /// Clone the current snapshot `Arc` (takes the slot lock; use
    /// [`CurveBook::refresh`] on hot paths).
    pub fn current(&self) -> Arc<EpochSnapshot> {
        lock_recover(&self.slot).clone()
    }

    /// Refresh a reader's cached snapshot if the published epoch moved.
    /// Returns `true` when the cache was replaced. The fast path (epoch
    /// unchanged) is one atomic load and never locks.
    pub fn refresh(&self, cached: &mut Arc<EpochSnapshot>) -> bool {
        if cached.epoch == self.epoch.load(Ordering::Acquire) {
            return false;
        }
        *cached = self.current();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::{CdsOption, PaymentFrequency};
    use std::thread;

    #[test]
    fn boot_epoch_is_zero_and_publish_increments() {
        let book = CurveBook::new(42);
        assert_eq!(book.epoch(), 0);
        assert_eq!(book.current().epoch, 0);
        assert_eq!(book.publish(43), 1);
        assert_eq!(book.epoch(), 1);
        assert_eq!(book.current().seed, 43);
    }

    #[test]
    fn refresh_is_a_noop_until_the_epoch_moves() {
        let book = CurveBook::new(7);
        let mut cached = book.current();
        assert!(!book.refresh(&mut cached));
        book.publish(8);
        assert!(book.refresh(&mut cached));
        assert_eq!(cached.epoch, 1);
        assert!(!book.refresh(&mut cached));
    }

    #[test]
    fn snapshot_engine_matches_a_fresh_engine_bit_for_bit() {
        let book = CurveBook::new(11);
        book.publish(99);
        let snap = book.current();
        let fresh = CpuCdsEngine::new(&MarketData::paper_workload(99));
        let opt = cds_quant::option::CdsOption::new(
            5.0,
            cds_quant::option::PaymentFrequency::Quarterly,
            0.4,
        );
        assert_eq!(
            snap.engine.price(&opt).spread_bps.to_bits(),
            fresh.price(&opt).spread_bps.to_bits()
        );
    }

    #[test]
    fn publish_point_moves_one_knot_and_keeps_the_rest_bit_identical() {
        let book = CurveBook::new(21);
        let before = book.current();
        let old = before.market.hazard.points()[5].value;
        let (epoch, zero) =
            book.publish_point(CurveKind::Hazard, 5, old * 1.25).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(epoch, 1);
        assert!(!zero);
        let after = book.current();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.seed, before.seed, "point ticks inherit the seed");
        for (i, (a, b)) in
            before.market.hazard.points().iter().zip(after.market.hazard.points()).enumerate()
        {
            assert_eq!(a.tenor.to_bits(), b.tenor.to_bits(), "tenor {i} moved");
            if i == 5 {
                assert_ne!(a.value.to_bits(), b.value.to_bits());
            } else {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "knot {i} moved");
            }
        }
        assert_eq!(before.market.interest, after.market.interest);
    }

    #[test]
    fn point_tick_engine_prices_like_a_fresh_build() {
        // Every frequency, maturities from inside the first period to
        // past the 7.5-year curve horizon.
        let mut probe = Vec::new();
        for frequency in [
            PaymentFrequency::Annual,
            PaymentFrequency::SemiAnnual,
            PaymentFrequency::Quarterly,
            PaymentFrequency::Monthly,
        ] {
            for maturity in [0.02, 0.3, 1.0, 2.5, 5.0, 7.3, 7.5, 9.0, 12.0] {
                probe.push(CdsOption::new(maturity, frequency, 0.4));
            }
        }
        let book = CurveBook::new(5);
        let n = book.current().market.interest.len();
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for knot in [0, 1, n / 2, n - 2, n - 1] {
                let before = book.current();
                let value = before.market.curve(curve).points()[knot].value * 1.3;
                let (_, zero) =
                    book.publish_point(curve, knot, value).unwrap_or_else(|e| panic!("{e}"));
                assert!(!zero);
                let after = book.current();
                let fresh = CpuCdsEngine::new(&after.market);
                for o in &probe {
                    assert_eq!(
                        after.engine.price(o).spread_bps.to_bits(),
                        fresh.price(o).spread_bps.to_bits(),
                        "{curve} knot {knot}, {o:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_delta_point_tick_invalidates_nothing_and_reuses_the_engine() {
        let book = CurveBook::new(8);
        let before = book.current();
        let old = before.market.interest.points()[100].value;
        let (epoch, zero) =
            book.publish_point(CurveKind::Interest, 100, old).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(epoch, 1);
        assert!(zero);
        let snap = book.current();
        assert_eq!(snap.market, before.market);
        let probe = CdsOption::new(5.0, cds_quant::option::PaymentFrequency::Quarterly, 0.4);
        assert_eq!(
            snap.engine.price(&probe).spread_bps.to_bits(),
            before.engine.price(&probe).spread_bps.to_bits()
        );
    }

    #[test]
    fn bad_point_ticks_are_rejected_without_publishing() {
        let book = CurveBook::new(1);
        assert!(book.publish_point(CurveKind::Interest, 99_999, 0.02).is_err());
        assert!(book.publish_point(CurveKind::Hazard, 0, f64::NAN).is_err());
        assert_eq!(book.epoch(), 0, "failed ticks must not publish an epoch");
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_epoch() {
        // Seed scheme: every epoch e is published from seed e + 1000,
        // including the boot epoch, so readers can cross-check that a
        // snapshot's curves belong to its epoch (no torn pairs).
        let book = Arc::new(CurveBook::new(1000));
        let stop = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let book = book.clone();
            let stop = stop.clone();
            joins.push(thread::spawn(move || {
                let mut cached = book.current();
                let mut last_seen = cached.epoch;
                while stop.load(Ordering::Relaxed) == 0 {
                    book.refresh(&mut cached);
                    // Epochs only move forward, and the snapshot's own
                    // epoch always matches the seed it was built from.
                    assert!(cached.epoch >= last_seen);
                    assert_eq!(cached.seed, cached.epoch + 1000);
                    last_seen = cached.epoch;
                }
            }));
        }
        let publisher = {
            let book = book.clone();
            thread::spawn(move || {
                for tick in 1..=20u64 {
                    assert_eq!(book.publish(tick + 1000), tick);
                }
            })
        };
        publisher.join().expect("publisher");
        stop.store(1, Ordering::Relaxed);
        for j in joins {
            j.join().expect("reader");
        }
        assert_eq!(book.epoch(), 20);
    }
}
