//! Multi-threaded batch pricing — the OpenMP analogue.
//!
//! Options are independent, so the batch is split into contiguous chunks
//! priced by `std::thread::scope` threads, exactly mirroring the paper's
//! decomposition for both the OpenMP CPU code and the multi-engine FPGA
//! deployment ("there are no dependencies between calculations involving
//! different options"). Each chunk goes through
//! [`CpuCdsEngine::price_batch`], i.e. the lane kernel of
//! [`crate::lanes`], so the thread-level and lane-level parallelism
//! compose.

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

/// Price a batch across `threads` OS threads, preserving option order.
///
/// # Panics
/// Panics if `threads` is zero.
pub fn price_parallel(engine: &CpuCdsEngine, options: &[CdsOption], threads: usize) -> Vec<f64> {
    assert!(threads > 0, "need at least one thread");
    if options.is_empty() {
        return Vec::new();
    }
    if threads == 1 || options.len() == 1 {
        return engine.price_batch(options);
    }
    let chunk_size = options.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = options
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || engine.price_batch(chunk)))
            .collect();
        handles.into_iter().flat_map(join_or_propagate).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::{MarketData, PortfolioGenerator};

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

    #[test]
    fn more_threads_than_options_is_fine() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(3).portfolio(3);
        let par = price_parallel(&engine, &options, 16);
        assert_eq!(par.len(), 3);
    }
}
