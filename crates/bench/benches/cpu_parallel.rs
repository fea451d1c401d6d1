//! Host CPU scaling bench — the real-machine counterpart of the paper's
//! OpenMP engine: chunked multithreaded pricing at increasing thread
//! counts, showing the same qualitatively sub-linear scaling the paper
//! measured on its 24-core Cascade Lake.

use cds_cpu::engine::CpuCdsEngine;
use cds_cpu::parallel::price_parallel;
use cds_quant::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const BATCH: usize = 2048;

fn bench_cpu_scaling(c: &mut Criterion) {
    let market = MarketData::paper_workload(42);
    let engine = CpuCdsEngine::new(&market);
    let options = PortfolioGenerator::uniform(BATCH, 5.5, PaymentFrequency::Quarterly, 0.40);
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut group = c.benchmark_group("cpu_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH as u64));
    for threads in [1usize, 2, 4, 8, 16].into_iter().filter(|&t| t <= max_threads) {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(price_parallel(black_box(&engine), black_box(&options), t)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cpu_scaling);
criterion_main!(benches);
