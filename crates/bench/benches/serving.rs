//! Benchmarks for the `mdl-serve` runtime: single-request round trip
//! through the batching pipeline, batched closed-loop throughput, and the
//! shed (early-exit) fast path.

use criterion::{criterion_group, criterion_main, Criterion};
use mdl_core::prelude::*;
use mdl_serve::{run_load, InferenceServer, LoadGenConfig, LoadMode, ServeConfig};
use std::time::Duration;

/// ~9.6M MACs: big enough that a wearable on Wi-Fi routes to the cloud,
/// so requests exercise the queue/worker path.
fn cloud_model(rng: &mut StdRng) -> Sequential {
    let mut net = Sequential::new();
    net.push(Dense::new(32, 3072, Activation::Relu, rng));
    net.push(Dense::new(3072, 3072, Activation::Relu, rng));
    net.push(Dense::new(3072, 10, Activation::Identity, rng));
    net
}

fn wearable_wifi() -> ClientProfile {
    ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi }
}

fn bench_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(3100);

    let server = InferenceServer::start(
        cloud_model(&mut rng),
        None,
        ServeConfig { workers: 2, ..Default::default() },
    );
    let client = server.client();
    let input = [0.25f32; 32];
    group.bench_function("cloud_round_trip_1", |b| {
        b.iter(|| {
            let rx = client.submit(&input, wearable_wifi()).expect("server up");
            std::hint::black_box(rx.recv().expect("answered"))
        });
    });

    let inputs = Matrix::from_fn(64, 32, |r, c2| ((r * 32 + c2) as f32 * 0.11).sin());
    group.bench_function("closed_loop_64req_c8", |b| {
        b.iter(|| {
            let report = run_load(
                &client,
                &inputs,
                &LoadGenConfig {
                    seed: 9,
                    requests: 64,
                    mode: LoadMode::Closed { concurrency: 8 },
                    profiles: vec![wearable_wifi()],
                    classes: vec![],
                },
            );
            assert_eq!(report.completed, 64);
            std::hint::black_box(report)
        });
    });
    drop(client);
    server.shutdown();

    // shed path: every cloud-bound request answered by the early-exit head
    let mut fallback = Sequential::new();
    fallback.push(Dense::new(32, 10, Activation::Identity, &mut rng));
    let server = InferenceServer::start(
        cloud_model(&mut rng),
        Some(fallback),
        ServeConfig { shed_queue_depth: 0, ..Default::default() },
    );
    let client = server.client();
    group.bench_function("shed_early_exit_1", |b| {
        b.iter(|| {
            let rx = client.submit(&input, wearable_wifi()).expect("server up");
            std::hint::black_box(rx.recv().expect("answered"))
        });
    });
    drop(client);
    server.shutdown();
    group.finish();
}

criterion_group!(benches, bench_round_trip);
criterion_main!(benches);
