//! The harness's one wall-clock sampler.
//!
//! Every wall-clock rate the harness reports (`bench --throughput`,
//! `bench --tick-storm`, `host-cpu`) comes from [`rate`]: one untimed
//! warm-up pass, then individually timed passes until both
//! [`DEFAULT_MIN_SAMPLE`] (or the caller's window) and
//! [`MIN_SAMPLE_ITERS`] are reached. The rate is the work of a pass over
//! the [`QUIET_PCT`]th-percentile pass time, not the mean: other tenants
//! of a shared host slow whole stretches of a run, and the low
//! percentile stays on the quiet stretches.

use std::time::{Duration, Instant};

/// Default minimum timed window of one [`rate`] call.
pub const DEFAULT_MIN_SAMPLE: Duration = Duration::from_millis(300);

/// Minimum timed passes of one [`rate`] call.
pub const MIN_SAMPLE_ITERS: usize = 3;

/// The percentile of the pass times a rate is computed from (nearest
/// rank): the "quiet" statistic.
pub const QUIET_PCT: f64 = 10.0;

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample set;
/// sorts in place.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Time `pass`, which returns the work it did (options priced, ticks
/// applied), after one untimed warm-up pass, until at least `min_sample`
/// has elapsed *and* [`MIN_SAMPLE_ITERS`] passes ran. Returns the mean
/// work of a timed pass per [`QUIET_PCT`]th-percentile pass second.
///
/// Every pass must do the same work: the percentile is meant to pick the
/// passes the host left alone, and over unequal passes it would pick the
/// cheapest instead.
pub fn rate(mut pass: impl FnMut() -> usize, min_sample: Duration) -> f64 {
    // Warm-up: populates kernel grids, faults pages, spins up the
    // frequency governor — everything the steady state should not pay.
    pass();
    let start = Instant::now();
    let mut seconds = Vec::new();
    let mut work = 0usize;
    while seconds.len() < MIN_SAMPLE_ITERS || start.elapsed() < min_sample {
        let t = Instant::now();
        work += pass();
        seconds.push(t.elapsed().as_secs_f64());
    }
    let per_pass = work as f64 / seconds.len() as f64;
    per_pass / percentile(&mut seconds, QUIET_PCT).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, QUIET_PCT), 2.0);
        assert_eq!(percentile(&mut xs, 50.0), 10.0);
        assert_eq!(percentile(&mut [7.0, 3.0, 5.0], QUIET_PCT), 3.0);
        assert_eq!(percentile(&mut [4.0], 0.0), 4.0);
    }

    #[test]
    fn rate_warms_up_once_and_times_at_least_the_minimum_passes() {
        let mut calls = 0;
        let r = rate(
            || {
                calls += 1;
                5
            },
            Duration::ZERO,
        );
        assert_eq!(calls, 1 + MIN_SAMPLE_ITERS);
        assert!(r > 0.0);
    }

    #[test]
    fn rate_reports_the_quiet_pass_not_the_mean() {
        // Nine slow passes and one quiet one: the 10th percentile of ten
        // passes is the quiet pass, so the rate is its rate.
        let mut n = 0;
        let r = rate(
            || {
                n += 1;
                let nap = if n == 4 { 1 } else { 20 };
                std::thread::sleep(Duration::from_millis(nap));
                1
            },
            Duration::from_millis(150),
        );
        assert!(r > 1.0 / 0.015, "rate {r}/s is not the quiet pass's");
    }
}
