//! Microbenchmarks of the numeric substrate: matrix products, SVD, FFT,
//! and the GRU forward/backward that dominates the applications' training.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdl_core::nn::Layer;
use mdl_core::prelude::*;
use rand::Rng as _;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2001);
    for &n in &[32usize, 64, 128] {
        let a = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
        let b = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2002);
    for &n in &[16usize, 32, 64] {
        let a = Init::Normal { std: 1.0 }.sample(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(mdl_core::tensor::linalg::svd(&a)));
        });
    }
    group.finish();
}

fn bench_circulant_fft_vs_dense(c: &mut Criterion) {
    use mdl_core::tensor::fft::{circulant_matvec, circulant_matvec_dense};
    let mut group = c.benchmark_group("circulant_matvec");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2003);
    for &n in &[64usize, 256, 1024] {
        let gen: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
        let x: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
        group.bench_with_input(BenchmarkId::new("fft", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(circulant_matvec(&gen, &x)));
        });
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(circulant_matvec_dense(&gen, &x)));
        });
    }
    group.finish();
}

fn bench_gru(c: &mut Criterion) {
    let mut group = c.benchmark_group("gru");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2004);
    let mut gru = Gru::new(4, 16, &mut rng);
    let seq = Init::Normal { std: 0.5 }.sample(40, 4, &mut rng);
    group.bench_function("forward_t40", |bench| {
        bench.iter(|| std::hint::black_box(gru.forward_eval(&seq)));
    });
    group.bench_function("forward_backward_t40", |bench| {
        bench.iter(|| {
            gru.zero_grad();
            let out = gru.forward(&seq);
            let gout = Matrix::ones(out.rows(), out.cols());
            std::hint::black_box(gru.backward(&gout))
        });
    });
    group.finish();
}

fn bench_lstm_vs_gru(c: &mut Criterion) {
    use mdl_core::nn::Lstm;
    let mut group = c.benchmark_group("recurrent_forward_t40");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2005);
    let seq = Init::Normal { std: 0.5 }.sample(40, 4, &mut rng);
    let gru = Gru::new(4, 16, &mut rng);
    let lstm = Lstm::new(4, 16, &mut rng);
    group.bench_function("gru", |bench| {
        bench.iter(|| std::hint::black_box(gru.forward_eval(&seq)));
    });
    group.bench_function("lstm", |bench| {
        bench.iter(|| std::hint::black_box(lstm.forward_eval(&seq)));
    });
    group.finish();
}

fn bench_conv_variants(c: &mut Criterion) {
    use mdl_core::nn::{Conv2d, ImageShape, SeparableConv2d};
    let mut group = c.benchmark_group("conv_16ch_8x8");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2006);
    let shape = ImageShape::new(16, 8, 8);
    let x = Init::Normal { std: 0.5 }.sample(8, shape.len(), &mut rng);
    let standard = Conv2d::standard(shape, 16, 3, Activation::Relu, &mut rng);
    let separable = SeparableConv2d::new(shape, 16, 3, Activation::Relu, &mut rng);
    group.bench_function("standard", |bench| {
        bench.iter(|| std::hint::black_box(standard.forward_eval(&x)));
    });
    group.bench_function("separable", |bench| {
        bench.iter(|| std::hint::black_box(separable.forward_eval(&x)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_svd,
    bench_circulant_fft_vs_dense,
    bench_gru,
    bench_lstm_vs_gru,
    bench_conv_variants
);
criterion_main!(benches);
