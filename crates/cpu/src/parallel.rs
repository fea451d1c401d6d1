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

use crate::engine::{CpuBatchStats, CpuCdsEngine};
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

/// As [`price_parallel`], additionally returning merged work accounting
/// across the thread chunks (threads actually used, total time points).
///
/// # Panics
/// Panics if `threads` is zero.
pub fn price_parallel_stats(
    engine: &CpuCdsEngine,
    options: &[CdsOption],
    threads: usize,
) -> (Vec<f64>, CpuBatchStats) {
    assert!(threads > 0, "need at least one thread");
    if options.is_empty() {
        return (Vec::new(), CpuBatchStats::default());
    }
    if threads == 1 || options.len() == 1 {
        return engine.price_batch_stats(options);
    }
    let chunk_size = options.len().div_ceil(threads);
    let per_chunk: Vec<(Vec<f64>, CpuBatchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = options
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || engine.price_batch_stats(chunk)))
            .collect();
        handles.into_iter().map(join_or_propagate).collect()
    });
    let mut spreads = Vec::with_capacity(options.len());
    let mut stats = CpuBatchStats { threads: per_chunk.len() as u64, ..CpuBatchStats::default() };
    for (chunk_spreads, chunk_stats) in per_chunk {
        spreads.extend(chunk_spreads);
        stats.options += chunk_stats.options;
        stats.time_points += chunk_stats.time_points;
        stats.fused_groups += chunk_stats.fused_groups;
        stats.scalar_fallbacks += chunk_stats.scalar_fallbacks;
    }
    (spreads, stats)
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

    #[test]
    fn parallel_stats_account_all_work() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(2).portfolio(97);
        let (seq_spreads, seq_stats) = engine.price_batch_stats(&options);
        let (par_spreads, par_stats) = price_parallel_stats(&engine, &options, 4);
        assert_eq!(seq_spreads, par_spreads);
        assert_eq!(seq_stats.options, 97);
        assert_eq!(par_stats.options, 97);
        assert_eq!(seq_stats.time_points, par_stats.time_points);
        assert!(seq_stats.time_points > 0);
        assert_eq!(seq_stats.threads, 1);
        assert_eq!(par_stats.threads, 4);
    }
}
