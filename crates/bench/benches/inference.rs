//! Benchmarks for the inference paths of §III (E4 ablations): dense vs
//! compressed-sparse vs block-circulant forward passes, and the ARDEN
//! device-side transform.

use criterion::{criterion_group, criterion_main, Criterion};
use mdl_core::compress::{BlockCirculant, CsrMatrix};
use mdl_core::nn::Layer;
use mdl_core::prelude::*;
use std::time::Duration;

fn bench_forward_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_64x256x10");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2040);
    let x = Init::Normal { std: 0.5 }.sample(32, 64, &mut rng);

    let mut dense = Sequential::new();
    dense.push(Dense::new(64, 256, Activation::Relu, &mut rng));
    dense.push(Dense::new(256, 10, Activation::Identity, &mut rng));
    group.bench_function("dense", |bench| {
        bench.iter(|| std::hint::black_box(dense.forward_eval(&x)));
    });

    // 90%-pruned first layer in CSR
    let mut w = Init::Normal { std: 0.5 }.sample(64, 256, &mut rng);
    let _ = mdl_core::compress::prune_matrix(&mut w, 0.9);
    let csr = CsrMatrix::from_dense(&w);
    group.bench_function("sparse_csr_layer1", |bench| {
        bench.iter(|| std::hint::black_box(csr.matmul_into(&x)));
    });
    group.bench_function("dense_layer1_reference", |bench| {
        bench.iter(|| std::hint::black_box(x.matmul(&w)));
    });

    let mut circ = Sequential::new();
    circ.push(BlockCirculant::new(64, 256, 32, Activation::Relu, &mut rng));
    circ.push(Dense::new(256, 10, Activation::Identity, &mut rng));
    group.bench_function("block_circulant", |bench| {
        bench.iter(|| std::hint::black_box(circ.forward_eval(&x)));
    });
    group.finish();
}

fn bench_arden_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("arden");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2041);
    let mut net = Sequential::new();
    net.push(Dense::new(64, 32, Activation::Relu, &mut rng));
    net.push(Dense::new(32, 10, Activation::Identity, &mut rng));
    let arden = Arden::from_pretrained(net, ArdenConfig::default());
    let x = Init::Normal { std: 0.5 }.sample(32, 64, &mut rng);
    group.bench_function("device_transform_batch32", |bench| {
        bench.iter(|| std::hint::black_box(arden.transform(&x, &mut rng)));
    });
    group.bench_function("full_private_inference_batch32", |bench| {
        bench.iter(|| std::hint::black_box(arden.infer(&x, &mut rng)));
    });
    group.finish();
}

criterion_group!(benches, bench_forward_variants, bench_arden_transform);
criterion_main!(benches);
