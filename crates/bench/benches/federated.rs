//! Benchmarks for the training-side systems (E1/E2 ablations): cost of one
//! FedAvg round as local epochs grow, selective-SGD round cost vs θ, and
//! update-transport encode/decode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdl_core::prelude::*;
use rand::Rng as _;
use std::time::Duration;

fn setup(rng: &mut StdRng) -> (MlpSpec, Vec<Dataset>, Dataset) {
    let data = mdl_core::data::synthetic::synthetic_digits(400, 0.08, rng);
    let (train, test) = data.split(0.8, rng);
    let clients = partition_dataset(&train, 8, Partition::Iid, rng);
    (MlpSpec::new(vec![64, 32, 10], 42), clients, test)
}

fn bench_fedavg_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("fedavg_round");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(2010);
    let (spec, clients, test) = setup(&mut rng);
    let availability = AvailabilityModel::always_available(clients.len());
    for &epochs in &[1usize, 5, 20] {
        group.bench_with_input(BenchmarkId::new("local_epochs", epochs), &epochs, |bench, &e| {
            bench.iter(|| {
                let cfg = FedConfig {
                    rounds: 1,
                    client_fraction: 1.0,
                    local_epochs: e,
                    batch_size: 16,
                    learning_rate: 0.1,
                    ..Default::default()
                };
                std::hint::black_box(run_federated(
                    &spec,
                    &clients,
                    &test,
                    &cfg,
                    &availability,
                    &mut rng,
                ))
            });
        });
    }
    group.finish();
}

fn bench_selective_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("selective_sgd_round");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(2011);
    let (spec, clients, test) = setup(&mut rng);
    for &theta in &[0.01f64, 0.1, 1.0] {
        group.bench_with_input(
            BenchmarkId::new("theta", format!("{theta}")),
            &theta,
            |bench, &t| {
                bench.iter(|| {
                    let cfg = SelectiveConfig {
                        rounds: 1,
                        upload_fraction: t,
                        local_steps: 5,
                        ..Default::default()
                    };
                    std::hint::black_box(run_selective_sgd(&spec, &clients, &test, &cfg, &mut rng))
                });
            },
        );
    }
    group.finish();
}

fn bench_update_transport(c: &mut Criterion) {
    use mdl_core::federated::Update;
    let mut group = c.benchmark_group("update_transport");
    group.sample_size(50).measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2012);
    let values: Vec<f32> = (0..10_000).map(|_| rng.gen::<f32>() - 0.5).collect();
    group.bench_function("dense_encode_decode_10k", |bench| {
        bench.iter(|| {
            let frame = Update::dense(values.clone(), 100).encode();
            std::hint::black_box(Update::decode(&frame))
        });
    });
    group.bench_function("sparse_top1pct_10k", |bench| {
        bench.iter(|| std::hint::black_box(Update::top_fraction(&values, 0.01, 100).encode()));
    });
    group.finish();
}

criterion_group!(benches, bench_fedavg_round, bench_selective_round, bench_update_transport);
criterion_main!(benches);
