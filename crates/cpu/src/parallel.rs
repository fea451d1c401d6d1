//! Multi-threaded batch pricing — the OpenMP analogue.
//!
//! Options are independent, so the batch is split into contiguous chunks
//! priced by `std::thread::scope` threads, exactly mirroring the paper's
//! decomposition for both the OpenMP CPU code and the multi-engine FPGA
//! deployment ("there are no dependencies between calculations involving
//! different options"). Each chunk goes through the lane kernel of
//! [`crate::lanes`], so the thread-level and lane-level parallelism
//! compose.
//!
//! `fan_out` is the crate's one scoped split: the batch entry point
//! [`price_parallel`] and the lane kernel's resident pass
//! ([`crate::LaneKernel::price_residents_into`]) both go through it.

use crate::engine::CpuCdsEngine;
use cds_quant::option::CdsOption;

/// Unwrap a worker's result, re-raising its panic payload on the calling
/// thread instead of wrapping it in a second panic message.
fn join_or_propagate<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Run `work` on every part, the first on the calling thread and each
/// other on its own scoped thread, and return the results in part order.
///
/// Panics keep part order too: a panic in the first part re-raises its
/// own payload once the other threads have finished, and otherwise the
/// earliest panicking worker's payload is re-raised as it is joined. So
/// when parts are contiguous chunks of a batch, the first invalid option
/// decides the message, as in a serial pass.
pub(crate) fn fan_out<P, R>(
    parts: impl IntoIterator<Item = P>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R>
where
    P: Send,
    R: Send,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts.map(|part| scope.spawn(move || work(part))).collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(work(first));
        results.extend(handles.into_iter().map(join_or_propagate));
        results
    })
}

/// Price a batch across `threads` OS threads, preserving option order.
/// Each thread prices one contiguous chunk with its own lane kernel,
/// straight into its range of the one output vector.
///
/// # Panics
/// Panics if `threads` is zero, or on an invalid schedule (the first
/// invalid option's message, as in [`CpuCdsEngine::price_batch`]).
pub fn price_parallel(engine: &CpuCdsEngine, options: &[CdsOption], threads: usize) -> Vec<f64> {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || options.len() <= 1 {
        return engine.price_batch(options);
    }
    let chunk_size = options.len().div_ceil(threads);
    let mut out = vec![0.0; options.len()];
    fan_out(options.chunks(chunk_size).zip(out.chunks_mut(chunk_size)), |(chunk, dst)| {
        engine.lane_kernel().price_slice_into(chunk, dst);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::{MarketData, PaymentFrequency, PortfolioGenerator};

    #[test]
    fn parallel_matches_sequential_exactly() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(2).portfolio(97); // uneven chunks
        let seq = engine.price_batch(&options);
        for threads in [1, 2, 3, 4, 8] {
            let par = price_parallel(&engine, &options, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        assert!(price_parallel(&engine, &[], 4).is_empty());
        let one = PortfolioGenerator::new(1).portfolio(1);
        assert_eq!(price_parallel(&engine, &one, 4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let _ = price_parallel(&engine, &[], 0);
    }

    /// The message a panicking `price_parallel` call re-raises.
    fn panic_message(options: &[CdsOption], threads: usize) -> String {
        let engine = CpuCdsEngine::new(&MarketData::paper_workload(1));
        let payload = std::panic::catch_unwind(|| price_parallel(&engine, options, threads))
            .expect_err("an invalid batch priced");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(_) => "non-string panic".to_string(),
        }
    }

    /// Chunks panic in part order: the first invalid option decides the
    /// message, whether its chunk runs on the calling thread or on a
    /// worker, and a worker's panic keeps its own payload.
    #[test]
    fn first_invalid_option_decides_the_panic_across_chunks() {
        let valid =
            CdsOption { maturity: 5.0, frequency: PaymentFrequency::Quarterly, recovery_rate: 0.4 };
        let non_finite = CdsOption { maturity: f64::INFINITY, ..valid };
        let too_long = CdsOption { maturity: 5.0e6, ..valid };
        let finite = "maturity must be positive and finite";
        let long = "schedule too long";
        // Three chunks of two: the invalid options sit in chunks 0/1,
        // 1/2 and 2 only.
        for (batch, expected) in [
            ([valid, non_finite, too_long, valid, valid, valid], finite),
            ([valid, too_long, non_finite, valid, valid, valid], long),
            ([valid, valid, valid, too_long, non_finite, valid], long),
            ([valid, valid, valid, non_finite, valid, too_long], finite),
            ([valid, valid, valid, valid, too_long, valid], long),
        ] {
            let message = panic_message(&batch, 3);
            assert!(
                message.starts_with("option failed schedule generation")
                    && message.ends_with(expected),
                "{message} should end with {expected}"
            );
        }
    }

    #[test]
    fn more_threads_than_options_is_fine() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(3).portfolio(3);
        let par = price_parallel(&engine, &options, 16);
        assert_eq!(par.len(), 3);
    }
}
