//! End-to-end serving integration: a server booted from a saved artifact
//! answers a concurrent load through the micro-batching worker pool,
//! survives a hot model swap mid-load without dropping a request, and
//! sheds to the early-exit head under overload. The pull scheduler's
//! structure — a lone request runs alone, a backlog coalesces in class
//! order, shutdown drains — is pinned with a gate layer, not with sleeps,
//! and so are the split route (trunk inline, resume batched at the entry
//! layer) and the replay of requests a hot swap left without a model.

use crossbeam::channel::Receiver;
use mdl_core::nn::{save_model, Activation, Dense, LayerInfo, Sequential};
use mdl_core::prelude::*;
use mdl_core::serve::{InferenceResponse, InferenceServer, LoadReport, ServeClient, SubmitError};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// ~9.6M MACs: a wearable on Wi-Fi offloads this to the cloud path, so
/// every request exercises the queue → worker pipeline.
fn artifact(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 4, Activation::Identity, &mut rng));
    save_model(&mut net).expect("dense stack serializes")
}

fn exit_head(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 4, Activation::Identity, &mut rng));
    net
}

fn wearable_wifi() -> ClientProfile {
    ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi }
}

fn inputs() -> Matrix {
    Matrix::from_fn(96, 32, |r, c| ((r * 32 + c) as f32 * 0.21).sin())
}

#[test]
fn concurrent_load_with_hot_swap_drops_nothing() {
    let server = InferenceServer::from_artifact(
        &artifact(1),
        Some(exit_head(9)),
        ServeConfig {
            workers: 4,
            max_batch: 8,
            queue_capacity: 256,
            shed_queue_depth: 64,
            ..Default::default()
        },
    )
    .expect("artifact decodes");
    let client = server.client();

    // swap to a same-architecture retrained model while the load runs
    let bytes2 = artifact(2);
    let report: LoadReport = std::thread::scope(|s| {
        let swapper = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(40));
            server.swap_artifact(&bytes2).expect("valid artifact")
        });
        let report = run_load(
            &client,
            &inputs(),
            &LoadGenConfig {
                seed: 77,
                requests: 1024,
                mode: LoadMode::Closed { concurrency: 16 },
                profiles: vec![wearable_wifi()],
                classes: vec![],
            },
        );
        assert_eq!(swapper.join().expect("swap thread"), 2, "swap fired mid-load");
        report
    });

    assert_eq!(report.completed, 1024, "no request dropped");
    assert_eq!(report.cloud, 1024, "wearable+wifi is cloud-bound");
    assert!(report.mean_batch_size > 1.0, "batching never kicked in: {}", report.mean_batch_size);
    assert!(
        report.percentile(99.0) < Duration::from_millis(500),
        "p99 {:?} breaches the bound",
        report.percentile(99.0)
    );
    assert!(report.shed_rate() < 0.05, "closed loop under the shed threshold must not shed");

    let snap = server.metrics();
    assert_eq!(snap.completed, 1024);
    assert!(snap.mean_batch_size > 1.0);
    assert!(snap.batches >= 128, "1024 requests at max_batch 8 need >= 128 batches");

    drop(client);
    server.shutdown();
}

#[test]
fn hot_swap_mid_load_serves_both_versions() {
    let server = InferenceServer::from_artifact(
        &artifact(3),
        None,
        ServeConfig { workers: 4, ..Default::default() },
    )
    .expect("artifact decodes");
    let client = server.client();

    let loader = {
        let client = client.clone();
        let inputs = inputs();
        std::thread::spawn(move || {
            run_load(
                &client,
                &inputs,
                &LoadGenConfig {
                    seed: 31,
                    requests: 512,
                    mode: LoadMode::Closed { concurrency: 8 },
                    profiles: vec![wearable_wifi()],
                    classes: vec![],
                },
            )
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(server.swap_artifact(&artifact(4)).expect("valid artifact"), 2);
    let report = loader.join().expect("load thread");

    assert_eq!(report.completed, 512, "in-flight requests survive the swap");
    assert_eq!(server.swap_count(), 1);
    assert_eq!(server.version(), 2);
    drop(client);
    server.shutdown();
}

#[test]
fn overload_sheds_to_early_exit_within_bounds() {
    let server = InferenceServer::from_artifact(
        &artifact(5),
        Some(exit_head(10)),
        ServeConfig { workers: 4, shed_queue_depth: 8, ..Default::default() },
    )
    .expect("artifact decodes");
    let client = server.client();

    // offered far beyond the pool's capacity: the queue fills and the
    // shed path must absorb the excess, still answering every request
    let report = run_load(
        &client,
        &inputs(),
        &LoadGenConfig {
            seed: 5,
            requests: 600,
            mode: LoadMode::Open { rps: 20_000.0 },
            profiles: vec![wearable_wifi()],
            classes: vec![],
        },
    );
    assert_eq!(report.completed, 600, "shed answers are still answers");
    assert!(report.shed_rate() > 0.1, "overload must shed: rate {}", report.shed_rate());
    assert!(report.shed_rate() < 1.0, "some requests must reach the workers");
    assert_eq!(server.metrics().shed as usize, report.shed);
    drop(client);
    server.shutdown();
}

#[test]
fn shed_latencies_stay_out_of_the_served_histogram() {
    // Regression: shed responses return in microseconds, and mixing them
    // into `serve.latency_us` dragged the reported p50 at 3200 rps down
    // to ~5 µs — a nonsense "latency improvement" from dropping work.
    // Served and shed latencies now live in separate histograms.
    let obs = Obs::wall();
    let server = InferenceServer::from_artifact(
        &artifact(8),
        Some(exit_head(11)),
        ServeConfig {
            workers: 2,
            shed_queue_depth: 4,
            obs: Some(obs.clone()),
            ..Default::default()
        },
    )
    .expect("artifact decodes");
    let client = server.client();

    let report = run_load(
        &client,
        &inputs(),
        &LoadGenConfig {
            seed: 8,
            requests: 400,
            mode: LoadMode::Open { rps: 30_000.0 },
            profiles: vec![wearable_wifi()],
            classes: vec![],
        },
    );
    assert!(report.shed > 50, "this run must be shed-heavy, shed {}", report.shed);
    assert!(report.shed < report.completed, "some requests must be served");

    // served-only p50 clears the inline-forward floor: one pass through
    // the 9.6M-MAC model cannot finish in shed-fallback time
    let floor = Duration::from_micros(500);
    assert!(
        report.percentile(50.0) >= floor,
        "served p50 {:?} fell below one inline forward — shed latencies leaked in",
        report.percentile(50.0)
    );

    let snap = obs.snapshot();
    let served = snap.histogram("serve.latency_us").expect("served histogram");
    assert_eq!(served.count, (report.completed - report.shed) as u64);
    assert!(served.min >= 500, "served histogram floor breached: min {} us", served.min);
    let shed = snap.histogram("serve.shed_latency_us").expect("shed histogram");
    assert_eq!(shed.count, report.shed as u64);
    // in-server time: the report times from each request's due instant,
    // which at 30k offered rps is mostly the generator running behind
    assert!(shed.p50 < 500, "shed answers come from the tiny exit head: p50 {} us", shed.p50);

    drop(client);
    server.shutdown();
}

#[test]
fn swap_to_new_input_width_rejects_stale_clients_cleanly() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut wide = Sequential::new();
    wide.push(Dense::new(48, 3072, Activation::Relu, &mut rng));
    wide.push(Dense::new(3072, 4, Activation::Identity, &mut rng));

    let server = InferenceServer::from_artifact(
        &artifact(7),
        None,
        ServeConfig { workers: 2, ..Default::default() },
    )
    .expect("artifact decodes");
    let client = server.client();
    assert!(client.submit(&[0.1; 32], wearable_wifi()).is_ok());

    server.swap_model(wide);
    let err = client.submit(&[0.1; 32], wearable_wifi()).unwrap_err();
    assert_eq!(err, SubmitError::WidthMismatch { expected: 48, found: 32 });
    drop(client);
    server.shutdown();
}

#[test]
fn a_lone_request_on_an_idle_server_runs_alone() {
    // Immediate dispatch must neither merge nor drop: each round trip
    // finds every worker idle, so it is its own batch.
    const N: usize = 24;
    let server = InferenceServer::from_artifact(
        &artifact(12),
        None,
        ServeConfig { workers: 2, ..Default::default() },
    )
    .expect("artifact decodes");
    let client = server.client();
    let inputs = inputs();
    for i in 0..N {
        let resp = client
            .submit(inputs.row(i), wearable_wifi())
            .expect("server up")
            .recv()
            .expect("answered");
        assert_eq!(resp.route, Route::Cloud);
        assert_eq!(resp.batch_size, 1, "round trip {i} was merged");
    }
    let snap = server.metrics();
    assert_eq!(snap.batches, N as u64);
    assert_eq!(snap.completed, N as u64);
    assert_eq!(snap.batch_histogram, vec![(1, N as u64)]);
    drop(client);
    server.shutdown();
}

#[test]
fn tied_scores_answer_the_class_predict_answers() {
    // Regression: the server broke a tie towards the last maximum while
    // `predict` — and so the fleet engine and every expected label — takes
    // the first. Columns 1 and 2 of the last layer are identical and carry
    // the only non-negative weights, so every answer ties at the top.
    let mut rng = StdRng::seed_from_u64(13);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
    let sign = |c: usize| if c == 1 || c == 2 { 1.0 } else { -1.0 };
    let tied = Matrix::from_fn(3072, 4, |r, c| sign(c) * (1 + r % 5) as f32 * 0.01);
    net.push(Dense::from_parts(tied, Matrix::zeros(1, 4), Activation::Identity));
    let int8 = QuantizedModel::from_model(&net).expect("all-Dense model quantizes");

    let x = inputs();
    let expected = [net.predict(&x), int8.predict(&x)];
    let models = [ModelVariant::from(net), ModelVariant::from(int8)];
    let offline = ClientProfile { device: DeviceClass::Flagship, network: NetworkClass::Offline };
    for (model, expected) in models.into_iter().zip(expected) {
        let server = InferenceServer::start(model, None, ServeConfig::default());
        let client = server.client();
        // the worker's batch path and the inline path
        for (profile, route) in [(wearable_wifi(), Route::Cloud), (offline, Route::Local)] {
            let resp =
                client.submit(x.row(0), profile).expect("server up").recv().expect("answered");
            assert_eq!(resp.route, route);
            assert_eq!(resp.probs[1], resp.probs[2], "{}: not a tie", server.precision());
            assert_eq!(resp.argmax, expected[0], "{} via {route:?}", server.precision());
        }
        drop(client);
        server.shutdown();
    }
}

/// A layer that reports each batch it is handed (its row count) and then
/// holds the worker until the test releases it — a dropped release handle
/// leaves the gate open. It passes the first four columns of its input on,
/// claims `macs` MACs towards the placement decision, and has no `as_any`:
/// it plans as a generic op, one `forward_eval` per batch and none at
/// compile time, so every batch really stops here exactly once.
struct Gate {
    in_dim: usize,
    macs: u64,
    entered: mpsc::Sender<usize>,
    release: Mutex<mpsc::Receiver<()>>,
}

/// A gate with the test's ends of its channels: batch sizes out, releases in.
fn gate(in_dim: usize, macs: u64) -> (Gate, mpsc::Receiver<usize>, mpsc::Sender<()>) {
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    (Gate { in_dim, macs, entered: entered_tx, release: Mutex::new(release_rx) }, entered, release)
}

impl Layer for Gate {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_eval(x)
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let _ = self.entered.send(x.rows());
        let _ = self.release.lock().expect("gate lock").recv();
        Matrix::from_fn(x.rows(), 4, |r, c| x[(r, c)])
    }

    fn backward(&mut self, _grad_out: &Matrix) -> Matrix {
        unreachable!("the gate is inference-only")
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn info(&self) -> LayerInfo {
        LayerInfo { kind: "gate", in_dim: self.in_dim, out_dim: 4, params: 0, macs: self.macs }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A one-worker server over a [`Gate`] whose worker is already held
/// inside a first request: everything submitted from here on stays
/// pending until the test releases the gate.
struct Held {
    server: InferenceServer,
    client: ServeClient,
    entered: mpsc::Receiver<usize>,
    release: mpsc::Sender<()>,
    first: Receiver<InferenceResponse>,
}

fn held_server(max_batch: usize) -> Held {
    // enough claimed MACs that a wearable on Wi-Fi offloads to the cloud
    let (gate, entered, release) = gate(32, 10_000_000);
    let mut net = Sequential::new();
    net.push(gate);
    let server = InferenceServer::start(
        net,
        None,
        ServeConfig { workers: 1, max_batch, ..Default::default() },
    );
    let client = server.client();
    let first = client.submit(&[0.0; 32], wearable_wifi()).expect("server up");
    assert_eq!(entered.recv(), Ok(1), "the idle worker takes the first request alone");
    Held { server, client, entered, release, first }
}

#[test]
fn a_backlog_coalesces_in_class_order() {
    let Held { server, client, entered, release, first } = held_server(4);

    // while the worker is held: 3 best-effort, 5 standard, 6 interactive,
    // lowest class first so arrival order alone would serve them backwards
    let submit = |class: SloClass, n: usize| -> Vec<Receiver<InferenceResponse>> {
        (0..n)
            .map(|_| client.submit_classed(&[0.0; 32], wearable_wifi(), class).expect("admitted"))
            .collect()
    };
    let best_effort = submit(SloClass::BestEffort, 3);
    let standard = submit(SloClass::Standard, 5);
    let interactive = submit(SloClass::Interactive, 6);

    release.send(()).expect("worker at the gate");
    assert_eq!(first.recv().expect("answered").batch_size, 1);

    // every class's jobs leave oldest first, ≤ max_batch at a time, and no
    // lower class moves while a higher one still waits
    let expected = [
        (&interactive[0..4], SloClass::Interactive),
        (&interactive[4..6], SloClass::Interactive),
        (&standard[0..4], SloClass::Standard),
        (&standard[4..5], SloClass::Standard),
        (&best_effort[0..3], SloClass::BestEffort),
    ];
    let all = || interactive.iter().chain(&standard).chain(&best_effort);
    let mut answered = 0;
    for (batch, class) in expected {
        assert_eq!(entered.recv(), Ok(batch.len()), "{class} batch of the wrong size");
        // the worker is inside this batch: nothing beyond the earlier
        // batches has been answered yet
        let waiting = all().skip(answered).filter(|rx| rx.is_empty()).count();
        assert_eq!(waiting, 14 - answered, "a request was answered out of turn");
        release.send(()).expect("worker at the gate");
        for rx in batch {
            let resp = rx.recv().expect("answered");
            assert_eq!(resp.class, Some(class));
            assert_eq!(resp.batch_size, batch.len());
        }
        answered += batch.len();
    }
    assert_eq!(answered, 14, "conservation: every pending request was answered");

    let snap = server.metrics();
    assert_eq!(snap.batches, 6);
    assert_eq!(snap.completed, 15);
    assert_eq!(snap.batch_histogram, vec![(1, 2), (2, 1), (3, 1), (4, 2)]);
    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_answers_everything_still_pending() {
    let Held { server, client, entered: _entered, release, first } = held_server(8);
    let pending: Vec<_> = SloClass::ALL
        .into_iter()
        .cycle()
        .take(20)
        .map(|class| client.submit_classed(&[0.0; 32], wearable_wifi(), class).expect("admitted"))
        .collect();
    // every handle goes while the 20 are still queued behind the held
    // worker; then the gate opens for good and shutdown joins the drain
    drop(client);
    drop(release);
    server.shutdown();
    assert!(first.recv().is_ok());
    for (i, rx) in pending.iter().enumerate() {
        assert!(rx.recv().is_ok(), "pending request {i} was dropped at shutdown");
    }
}

#[test]
fn a_batch_stranded_by_a_swap_replays_one_request_at_a_time() {
    // Regression: the replay ran every job alone but reported the size of
    // the batch they were pulled in.
    const K: usize = 5;
    let Held { server, client, entered, release, first } = held_server(8);
    let pending: Vec<_> =
        (0..K).map(|_| client.submit(&[0.0; 32], wearable_wifi()).expect("admitted")).collect();

    // layer 0 of the new model takes 48-wide rows: the K queued 32-wide
    // ones can only finish on version 1
    let mut rng = StdRng::seed_from_u64(13);
    let mut wide = Sequential::new();
    wide.push(Dense::new(48, 4, Activation::Identity, &mut rng));
    assert_eq!(server.swap_model(wide), 2);

    release.send(()).expect("worker at the gate");
    assert_eq!(first.recv().expect("answered").batch_size, 1);
    for (i, rx) in pending.iter().enumerate() {
        assert_eq!(entered.recv(), Ok(1), "request {i} was not replayed alone");
        assert!(pending[i..].iter().all(|rx| rx.is_empty()), "answered before its replay ran");
        release.send(()).expect("worker at the gate");
        let resp = rx.recv().expect("answered");
        assert_eq!(resp.batch_size, 1, "request {i} ran alone and must say so");
        assert_eq!(resp.model_version, 1, "answered by the version it was admitted under");
        assert_eq!(resp.route, Route::Cloud);
    }
    // they were still *pulled* as one batch of K
    assert_eq!(server.metrics().batch_histogram, vec![(1, 1), (K, 1)]);
    drop(client);
    server.shutdown();
}

/// `Dense 1024→8→2048→2048→4`: a wearable on Wi-Fi runs the first layer
/// itself — 8 floats ship instead of 1024 — and offloads the rest.
fn split_stack(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(1024, 8, Activation::Relu, &mut rng));
    net.push(Dense::new(8, 2048, Activation::Relu, &mut rng));
    net.push(Dense::new(2048, 2048, Activation::Relu, &mut rng));
    net.push(Dense::new(2048, 4, Activation::Identity, &mut rng));
    net
}

const SPLIT: Route = Route::Split { local_layers: 1 };

fn split_input(i: usize) -> Vec<f32> {
    (0..1024).map(|c| ((i * 1024 + c) as f32 * 0.013).sin()).collect()
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// A one-worker server over [`split_stack`] with a pass-through [`Gate`]
/// behind its last layer, so the server-side resume can be held.
fn split_server() -> (InferenceServer, mpsc::Receiver<usize>, mpsc::Sender<()>) {
    let (gate, entered, release) = gate(4, 0);
    let mut net = split_stack(21);
    net.push(gate);
    let config = ServeConfig { workers: 1, kernel_threads: Some(1), ..Default::default() };
    (InferenceServer::start(net, None, config), entered, release)
}

#[test]
fn split_requests_run_the_trunk_inline_and_resume_batched_at_the_entry_layer() {
    let (server, entered, release) = split_server();
    let client = server.client();
    let reference = split_stack(21);
    let submit = |i: usize| client.submit(&split_input(i), wearable_wifi()).expect("admitted");
    let check = |i: usize, resp: &InferenceResponse, batch_size: usize| {
        assert_eq!(resp.route, SPLIT, "request {i}");
        assert_eq!(resp.batch_size, batch_size, "request {i}");
        assert_eq!(resp.model_version, 1);
        let direct = reference.predict_proba(&Matrix::row_vector(&split_input(i)));
        assert_eq!(bits(&resp.probs), bits(direct.row(0)), "request {i}: trunk + resume vs whole");
    };

    // the idle worker resumes the first request alone and stops at the gate
    let first = submit(0);
    assert_eq!(entered.recv(), Ok(1));
    // three more ship their 8-float representations meanwhile …
    let held: Vec<_> = (1..4).map(submit).collect();
    release.send(()).expect("worker at the gate");
    check(0, &first.recv().expect("answered"), 1);
    // … and leave as one batch, entered at layer 1
    assert_eq!(entered.recv(), Ok(3), "same entry layer and width: one batch");
    release.send(()).expect("worker at the gate");
    for (i, rx) in held.iter().enumerate() {
        check(i + 1, &rx.recv().expect("answered"), 3);
    }

    // a repeat of the lone shape runs on the plan the first request compiled
    let again = submit(4);
    assert_eq!(entered.recv(), Ok(1));
    release.send(()).expect("worker at the gate");
    check(4, &again.recv().expect("answered"), 1);
    let snap = server.obs().snapshot();
    assert_eq!(snap.counter("plan.cache_misses"), Some(2), "(v1, layer 1, 1 row) and (…, 3 rows)");
    assert_eq!(snap.counter("plan.cache_hits"), Some(1));
    assert_eq!(snap.counter("serve.local"), Some(0), "no split request was answered inline");

    drop(client);
    server.shutdown();
}

#[test]
fn a_swap_replays_in_flight_split_requests_from_their_entry_layer() {
    let (server, entered, release) = split_server();
    let client = server.client();
    let reference = split_stack(21);

    let first = client.submit(&split_input(0), wearable_wifi()).expect("admitted");
    assert_eq!(entered.recv(), Ok(1), "worker held inside version 1");
    let split: Vec<_> = (1..3)
        .map(|i| client.submit(&split_input(i), wearable_wifi()).expect("admitted"))
        .collect();

    // version 2 is cloud-routed and 3072 wide at layer 1, where the two
    // queued representations are 8 wide
    let bytes = artifact(22);
    let cloud_direct = mdl_core::nn::load_model(&bytes).expect("artifact decodes");
    assert_eq!(server.swap_artifact(&bytes).expect("valid artifact"), 2);
    let inputs = inputs();
    let cloud: Vec<_> =
        (0..2).map(|i| client.submit(inputs.row(i), wearable_wifi()).expect("admitted")).collect();

    release.send(()).expect("worker at the gate");
    let resp = first.recv().expect("answered");
    assert_eq!((resp.model_version, resp.batch_size, resp.route), (1, 1, SPLIT));

    // the split pair is pulled together — the cloud pair, another shape,
    // stays behind — and finishes one by one on version 1, from layer 1
    for (i, rx) in split.iter().enumerate() {
        assert_eq!(entered.recv(), Ok(1), "split request {i} was not replayed alone");
        assert!(cloud.iter().all(|rx| rx.is_empty()), "a cloud job rode along with a split batch");
        release.send(()).expect("worker at the gate");
        let resp = rx.recv().expect("in-flight split requests survive the swap");
        assert_eq!((resp.model_version, resp.batch_size, resp.route), (1, 1, SPLIT));
        let direct = reference.predict_proba(&Matrix::row_vector(&split_input(i + 1)));
        assert_eq!(bits(&resp.probs), bits(direct.row(0)), "split request {i}");
    }
    for (i, rx) in cloud.iter().enumerate() {
        let resp = rx.recv().expect("answered");
        assert_eq!((resp.model_version, resp.batch_size, resp.route), (2, 2, Route::Cloud));
        let direct = cloud_direct.predict_proba(&Matrix::row_vector(inputs.row(i)));
        assert_eq!(bits(&resp.probs), bits(direct.row(0)), "cloud request {i}");
    }
    assert_eq!(server.metrics().batch_histogram, vec![(1, 1), (2, 2)]);

    drop(client);
    server.shutdown();
}
