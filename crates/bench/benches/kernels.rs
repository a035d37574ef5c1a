//! Microbenchmarks of the blocked GEMM kernel layer: naive reference vs
//! cache-blocked at several thread counts, the `_into` zero-allocation
//! forms, and the GRU hot path they back.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdl_core::nn::Layer;
use mdl_core::prelude::*;
use mdl_core::tensor::kernel;
use std::time::Duration;

fn bench_gemm_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(15).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(3001);
    for &n in &[64usize, 128, 256] {
        let a = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
        let b = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul_naive(&b)));
        });
        for threads in [1usize, 2] {
            kernel::set_threads(threads);
            let mut out = Matrix::zeros(n, n);
            group.bench_with_input(
                BenchmarkId::new(format!("blocked_t{threads}"), n),
                &n,
                |bench, _| {
                    bench.iter(|| {
                        a.matmul_into(&b, &mut out);
                        std::hint::black_box(&out);
                    });
                },
            );
        }
        kernel::set_threads(1);
    }
    group.finish();
}

fn bench_transposed_forms(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_transposed");
    group.sample_size(15).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(3002);
    let n = 128usize;
    let a = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
    let b = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
    let mut out = Matrix::zeros(n, n);
    group.bench_function("tn_into", |bench| {
        bench.iter(|| {
            a.matmul_tn_into(&b, &mut out);
            std::hint::black_box(&out);
        });
    });
    group.bench_function("nt_into", |bench| {
        bench.iter(|| {
            a.matmul_nt_into(&b, &mut out);
            std::hint::black_box(&out);
        });
    });
    group.finish();
}

fn bench_gru_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("gru_hot_path");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(3003);
    let mut gru = Gru::new(8, 32, &mut rng);
    let seq = Init::Normal { std: 0.5 }.sample(64, 8, &mut rng);
    let grad = Init::Normal { std: 0.1 }.sample(64, 32, &mut rng);
    group.bench_function("forward_backward", |bench| {
        bench.iter(|| {
            let out = gru.forward(&seq);
            std::hint::black_box(&out);
            std::hint::black_box(gru.backward(&grad));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gemm_variants, bench_transposed_forms, bench_gru_hot_path);
criterion_main!(benches);
