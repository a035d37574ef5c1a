//! The deployment tier end to end (§III): boot an inference server from a
//! saved artifact, route a heterogeneous client population through the
//! device cost model, batch the cloud-bound stream, hot-swap the model
//! under load, and shed an overload burst to the on-device early exit.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use mdl_core::nn::save_model;
use mdl_core::prelude::*;
use mdl_core::serve::LoadReport;

/// ~9.6M MACs per example: big enough that a wearable on Wi-Fi offloads
/// it to the cloud path. The weights are seeded random — the serving
/// mechanics (routing, batching, swapping, shedding) don't care.
fn model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 10, Activation::Identity, &mut rng));
    net
}

/// A tiny on-device head used when the cloud queue backs up.
fn exit_head() -> Sequential {
    let mut rng = StdRng::seed_from_u64(99);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 10, Activation::Identity, &mut rng));
    net
}

fn report_line(name: &str, r: &LoadReport) {
    println!(
        "{name}: {} done at {:.0} rps | p50 {:.1} ms, p99 {:.1} ms | \
         mean batch {:.1} | local {} / cloud {} / split {} / shed {}",
        r.completed,
        r.throughput_rps(),
        r.percentile(50.0).as_secs_f64() * 1e3,
        r.percentile(99.0).as_secs_f64() * 1e3,
        r.mean_batch_size,
        r.local,
        r.cloud,
        r.split,
        r.shed,
    );
}

fn main() {
    // the artifact a trainer would ship over the air (§III app-size path)
    let artifact = save_model(&mut model(7)).expect("model serializes");
    println!("saved artifact: {} bytes", artifact.len());

    let server = InferenceServer::from_artifact(
        &artifact,
        Some(exit_head()),
        ServeConfig { workers: 4, max_batch: 8, ..Default::default() },
    )
    .expect("artifact decodes");
    let client = server.client();

    // --- placement-aware routing: one request per device class ---
    println!("\n-- routing decisions (per the mdl-mobile cost model) --");
    let fleet = [
        ("flagship / offline", DeviceClass::Flagship, NetworkClass::Offline),
        ("midrange / LTE", DeviceClass::Midrange, NetworkClass::Lte),
        ("wearable / Wi-Fi", DeviceClass::Wearable, NetworkClass::Wifi),
    ];
    let x = [0.4f32; 32];
    for (name, device, network) in fleet {
        let resp = client
            .submit(&x, ClientProfile { device, network })
            .expect("admitted")
            .recv()
            .expect("answered");
        println!(
            "  {name:<20} → {:?} (class {}, model v{})",
            resp.route, resp.argmax, resp.model_version
        );
    }

    // --- steady state: a closed-loop population of mixed clients ---
    let inputs = Matrix::from_fn(128, 32, |r, c| ((r * 32 + c) as f32 * 0.37).sin());
    let profiles: Vec<ClientProfile> =
        fleet.iter().map(|&(_, device, network)| ClientProfile { device, network }).collect();
    println!("\n-- closed loop, 256 requests over 8 client threads --");
    let steady = run_load(
        &client,
        &inputs,
        &LoadGenConfig {
            seed: 11,
            requests: 256,
            mode: LoadMode::Closed { concurrency: 8 },
            profiles,
            classes: vec![],
        },
    );
    report_line("steady", &steady);

    // --- hot swap: retrained weights go live without a restart ---
    let v2 = server.swap_artifact(&save_model(&mut model(8)).expect("serializes")).expect("valid");
    let resp = client
        .submit(&x, ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi })
        .expect("admitted")
        .recv()
        .expect("answered");
    println!(
        "\n-- hot swap --\nswapped to v{v2}; next answer served by model v{}",
        resp.model_version
    );

    // --- overload: an open-loop burst far beyond pool capacity ---
    println!("\n-- overload burst, 10k offered rps of cloud-bound wearables --");
    let burst = run_load(
        &client,
        &inputs,
        &LoadGenConfig {
            seed: 12,
            requests: 300,
            mode: LoadMode::Open { rps: 10_000.0 },
            profiles: vec![ClientProfile {
                device: DeviceClass::Wearable,
                network: NetworkClass::Wifi,
            }],
            classes: vec![],
        },
    );
    report_line("burst", &burst);
    println!(
        "{:.0}% of the burst shed to the early-exit head instead of queueing",
        burst.shed_rate() * 100.0
    );

    let m = server.metrics();
    println!(
        "\nserver totals: {} completed, {} batches, {} shed, {} swaps",
        m.completed,
        m.batches,
        m.shed,
        server.swap_count()
    );
    drop(client);
    server.shutdown();
}
