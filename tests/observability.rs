//! Golden-trace regression of the observability layer: a tiny seeded
//! training run plus a short serve session under the simulated clock must
//! export a bit-identical [`ObsSnapshot`] — same span tree, same counter
//! values, same JSON bytes — on every run, on every machine.
//!
//! To update the checked-in golden after an intentional change:
//!
//! ```text
//! MDL_UPDATE_GOLDEN=1 cargo test --test observability
//! git diff tests/golden/observability.json   # review, then commit
//! ```

use mdl_core::prelude::*;
use mdl_core::tensor::kernel;
use std::sync::Mutex;
use std::time::Duration;

/// `kernel::set_threads` is process-global; tests that touch it serialize.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

const GOLDEN_PATH: &str = "tests/golden/observability.json";

fn tiny_train(obs: &Obs) {
    let mut rng = StdRng::seed_from_u64(7);
    let data = mdl_core::data::synthetic::gaussian_blobs(24, 3, 0.5, &mut rng);
    let mut model = Sequential::new();
    let mut net_rng = StdRng::seed_from_u64(8);
    model.push(Dense::new(2, 8, Activation::Relu, &mut net_rng));
    model.push(Dense::new(8, 3, Activation::Identity, &mut net_rng));
    let mut opt = Sgd::new(0.1);
    let mut fit_rng = StdRng::seed_from_u64(9);
    let _ = fit_classifier(
        &mut model,
        &mut opt,
        &data.x,
        &data.y,
        &TrainConfig { epochs: 2, batch_size: 8, obs: Some(obs.clone()), ..Default::default() },
        &mut fit_rng,
    );
}

/// Big enough that a wearable on Wi-Fi offloads to the cloud, so the
/// requests actually traverse the queue → worker path.
fn cloud_model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 4, Activation::Identity, &mut rng));
    net
}

/// Serves three sequential requests through one single-threaded worker;
/// each submit waits for its response, so batches, spans and counters are
/// fully deterministic. Returns after the server has joined its threads
/// (every span closed).
fn tiny_serve(obs: &Obs) {
    let config =
        ServeConfig { workers: 1, max_batch: 1, obs: Some(obs.clone()), ..Default::default() };
    let server = InferenceServer::start(cloud_model(10), None, config);
    let client = server.client();
    let profile = ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi };
    for i in 0..3 {
        let input = vec![0.1 * (i as f32 + 1.0); 32];
        let resp = client.submit(&input, profile).expect("server up").recv().expect("answered");
        assert_eq!(
            resp.latency,
            Duration::ZERO,
            "sim-clock latencies are zero unless the simulation advances"
        );
    }
    drop(client);
    server.shutdown();
}

/// One full instrumented session: train then serve, one shared sim-clock
/// observability session, exported as canonical JSON.
fn session_json() -> String {
    let obs = Obs::sim();
    tiny_train(&obs);
    tiny_serve(&obs);
    obs.snapshot().to_json().to_string()
}

#[test]
fn golden_trace_matches() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let json = session_json();

    if std::env::var("MDL_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, format!("{json}\n")).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with MDL_UPDATE_GOLDEN=1");
    assert_eq!(
        json,
        golden.trim_end(),
        "observability export drifted from tests/golden/observability.json; \
         if the change is intentional, regenerate with \
         `MDL_UPDATE_GOLDEN=1 cargo test --test observability` and commit the diff"
    );

    // spot-check the story the golden tells
    let snap = ObsSnapshot::from_json(&json).expect("snapshot parses");
    let outline = snap.span_outline();
    assert!(outline.contains(&(0, "train.fit".to_string())));
    assert!(outline.contains(&(1, "train.epoch".to_string())));
    assert!(outline.contains(&(2, "train.batch".to_string())));
    assert_eq!(outline.iter().filter(|(_, n)| n == "serve.batch").count(), 3);
    assert_eq!(snap.counter("train.batches"), Some(6), "2 epochs x 3 batches");
    assert_eq!(snap.counter("serve.completed"), Some(3));
    assert_eq!(snap.counter("serve.batches"), Some(3));
}

#[test]
fn snapshot_bit_identical_across_runs_and_kernel_threads() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let run = |threads: usize| {
        kernel::set_threads(threads);
        let obs = Obs::sim();
        tiny_train(&obs);
        let json = obs.snapshot().to_json().to_string();
        kernel::set_threads(1);
        json
    };
    let a = run(1);
    let b = run(1);
    let c = run(4);
    assert_eq!(a, b, "repeated sim-clock runs must export identical bytes");
    assert_eq!(a, c, "kernel thread count must not leak into the export");
}

#[test]
fn registry_and_transport_ledger_agree_on_faulty_lte() {
    let link = LinkConfig {
        loss_prob: 0.08,
        jitter_frac: 0.1,
        ..LinkConfig::clean(NetworkProfile::lte())
    };
    let config = FabricConfig {
        faults: FaultPlan::lossy_cohort(),
        quorum_fraction: 0.4,
        ..FabricConfig::faulty(link)
    };
    let mut fabric = Fabric::new(6, config, 0xB17E);
    let obs = Obs::sim();
    fabric.attach_obs(obs.clone());

    let mut rng = StdRng::seed_from_u64(31);
    let data = mdl_core::data::synthetic::gaussian_blobs(120, 3, 0.5, &mut rng);
    let clients = partition_dataset(&data, 6, Partition::Iid, &mut rng);
    let spec = MlpSpec::new(vec![2, 8, 3], 5);
    let availability = AvailabilityModel::always_available(6);
    let fed = FedConfig { rounds: 4, client_fraction: 1.0, ..Default::default() };
    let run =
        run_federated_over(&spec, &clients, &data, &fed, &availability, &mut fabric, &mut rng)
            .expect("quorum reachable");

    // one source of truth: every ledger-derived number must match the
    // registry counter the fabric exported
    let snap = obs.snapshot();
    let t = &run.transport;
    assert_eq!(snap.counter("net.attempts"), Some(t.attempts));
    assert_eq!(snap.counter("net.retries"), Some(t.retries));
    assert_eq!(snap.counter("net.timeouts"), Some(t.timeouts));
    assert_eq!(snap.counter("net.drops"), Some(t.drops));
    assert_eq!(snap.counter("net.bytes_up"), Some(t.bytes_up));
    assert_eq!(snap.counter("net.bytes_down"), Some(t.bytes_down));
    assert_eq!(snap.counter("net.delivered_bytes"), Some(t.bytes_up + t.bytes_down));
    assert_eq!(snap.counter("net.wasted_bytes"), Some(t.wasted_bytes));
    assert_eq!(snap.counter("net.rounds"), Some(t.rounds));
    assert!(t.bytes_up + t.bytes_down > 0, "the probe must move real bytes");

    // the fed loop recorded its rounds as spans on the same session
    let rounds = snap.span_outline().iter().filter(|(_, n)| n == "fed.round").count();
    assert_eq!(rounds as u64, t.rounds);
}
