//! Layer probes: every crate timed **from outside**, through its public
//! functions, on fixed inputs. They run in every traced run, whatever
//! the workload, so a per-layer number means the same thing in every
//! record; the workload's own traced pass adds the numbers only a live
//! load can give (`serve.wait_ms_p50`, shed shares, generator lateness).
//!
//! Inputs are seeded with [`PROBE_SEED`], not with `--seed`: the exact
//! counts (`sim.events_per_round`, `net.*_per_round`) then repeat from
//! run to run, and any change in them is a behaviour change, not noise.

use crate::alloc::count_allocs;
use crate::models::{
    arden_net, biaffect, deepmood, fed_sim_config, fed_task, gru_models, gru_sequences, inputs,
    mlp, mlp_dataset, population_spec, quantize, serve_config, serving_model, ARDEN_IN, CLASSES,
    CLOUD, FED_ROUNDS, HIDDEN, INPUT_DIM,
};
use crate::quiet::KeepAwake;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::fed::traced_repetition;
use crate::workloads::train::{mlp_epoch_config, PARTICIPANTS, SESSIONS};
use mdl_deepmood::borrow_pairs;
use mdl_mobile::NetworkProfile;
use mdl_net::{Fabric, FabricConfig, LinkConfig};
use mdl_nn::saved::{load_model, save_model};
use mdl_nn::{fit_classifier, Dense, Layer, Plan, PlanModel, PlanOptions, Sequential, Sgd};
use mdl_obs::{Buckets, Obs};
use mdl_serve::{InferenceServer, Router, SloClass, VersionedModel};
use mdl_sim::{sample_cohort, Population, ShardedAggregator};
use mdl_split::{Arden, ArdenConfig};
use mdl_tensor::quant::quantize_slice;
use mdl_tensor::{Int8Matrix, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Seed of every probe input.
pub const PROBE_SEED: u64 = 0xF1EE7;
/// Largest batch the server forms; `Plan::run` is probed at 1 ..= this.
const MAX_BATCH: usize = 8;

/// What the probes hand to the traced workload pass.
pub struct ProbeOut {
    /// Every probe metric, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Median `Plan::run` time of the serving model in µs, indexed
    /// `[batch rows][f32 = 0 | int8 = 1]` (row 0 unused). The serving
    /// workloads split a response's time into compute and wait with it.
    pub plan_run_us: [[f64; 2]; MAX_BATCH + 1],
    /// Facts for the human report.
    pub notes: Vec<String>,
}

/// Times `reps` calls of `f` (after one untimed call that grows caches
/// and thread-local pack buffers) and returns the median in µs. Each
/// timed call is a span.
fn median_us(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            tracer.scope(name, i as u64, &mut f);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Mean µs per call over `calls` back-to-back calls — for operations too
/// short to time one by one.
fn mean_us(tracer: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    tracer.scope(name, calls as u64, || (0..calls).for_each(&mut f));
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// A dense matrix with no exact zeros (the skinny f32 path skips them).
fn dense(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r * cols + c + salt).wrapping_mul(0x9E37_79B9) & 0xFFFF;
        (h as f32 + 1.0) / 65_536.0 - 0.5
    })
}

fn bytes(len: usize, salt: usize) -> Vec<i8> {
    (0..len).map(|i| ((i + salt).wrapping_mul(0x9E37_79B9) >> 8) as i8).collect()
}

/// Runs every probe.
pub fn run(tracer: &mut Tracer) -> ProbeOut {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut notes = Vec::new();
    let f32_model = serving_model();
    tensor_probes(tracer, &f32_model, &mut m, &mut notes);
    let plan_run_us = nn_and_serve_probes(tracer, f32_model, &mut m);
    sim_probes(tracer, &mut m);
    app_probes(tracer, &mut m);
    ProbeOut { metrics: m, plan_run_us, notes }
}

fn tensor_probes(
    tracer: &mut Tracer,
    f32_model: &Sequential,
    m: &mut Vec<(&'static str, f64)>,
    notes: &mut Vec<String>,
) {
    // The serving model's dominant product — its own hidden activations
    // (m × 3072, about half of them exact zeros after the ReLU, which the
    // skinny path skips) times its own 3072 × 3072 weight — on the path a
    // batch of 1 or 8 takes.
    let layers = f32_model.layers();
    let w = layers[1]
        .as_any()
        .and_then(|l| l.downcast_ref::<Dense>())
        .expect("the serving model's second layer is Dense")
        .weight();
    let rows = inputs();
    let mut out = Matrix::default();
    let mut skinny = |b: usize, tracer: &mut Tracer| {
        let x = layers[0].forward_eval(&Matrix::from_fn(b, INPUT_DIM, |r, c| rows.row(r)[c]));
        median_us(tracer, "tensor.gemm", 9, || x.matmul_into(w, &mut out))
    };
    let (m1, m8) = (skinny(1, tracer), skinny(MAX_BATCH, tracer));
    m.push(("tensor.gemm_f32_m1_us", m1));
    m.push(("tensor.gemm_f32_m8_us", m8));
    // 1.0 means a batch of 8 costs 8 batches of 1: no weight reuse
    m.push(("tensor.gemm_f32_m8_row_ratio", m8 / (MAX_BATCH as f64 * m1)));

    // the blocked, panel-packed path and its backward products
    let (a, b) = (dense(256, 256, 3), dense(256, 256, 4));
    let gflops = |us: f64| 2.0 * 256f64.powi(3) / us / 1e3;
    let nn = median_us(tracer, "tensor.gemm", 12, || a.matmul_into(&b, &mut out));
    let tn = median_us(tracer, "tensor.gemm", 12, || a.matmul_tn_into(&b, &mut out));
    let nt = median_us(tracer, "tensor.gemm", 12, || a.matmul_nt_into(&b, &mut out));
    m.push(("tensor.gemm_f32_256_gflops", gflops(nn)));
    m.push(("tensor.gemm_f32_tn_256_gflops", gflops(tn)));
    m.push(("tensor.gemm_f32_nt_256_gflops", gflops(nt)));

    // int8: the same shapes through `Int8Matrix::gemm_into`
    let wq = Int8Matrix::from_channel_rows(
        HIDDEN,
        HIDDEN,
        bytes(HIDDEN * HIDDEN, 5),
        vec![0.01; HIDDEN],
    );
    let mut acc = vec![0i32; MAX_BATCH * HIDDEN];
    let mut skinny_i8 = |rows: usize, tracer: &mut Tracer| {
        let x = bytes(rows * HIDDEN, 6);
        median_us(tracer, "tensor.gemm_i8", 12, || {
            wq.gemm_into(rows, &x, &mut acc[..rows * HIDDEN], false)
        })
    };
    m.push(("tensor.gemm_i8_m1_us", skinny_i8(1, tracer)));
    m.push(("tensor.gemm_i8_m8_us", skinny_i8(MAX_BATCH, tracer)));
    let sq = Int8Matrix::from_channel_rows(256, 256, bytes(256 * 256, 7), vec![0.01; 256]);
    let (xq, mut accq) = (bytes(256 * 256, 8), vec![0i32; 256 * 256]);
    let i8_us =
        median_us(tracer, "tensor.gemm_i8", 12, || sq.gemm_into(256, &xq, &mut accq, false));
    m.push(("tensor.gemm_i8_256_gops", gflops(i8_us)));
    let (row, mut row_q) = (dense(1, HIDDEN, 9), vec![0i8; HIDDEN]);
    m.push((
        "tensor.quantize_row_us",
        mean_us(tracer, "tensor.quantize", 200, |_| {
            black_box(quantize_slice(row.as_slice(), &mut row_q));
        }),
    ));

    // counts computed from the serving model's tensor sizes, not measured
    let shapes = [(INPUT_DIM, HIDDEN), (HIDDEN, HIDDEN), (HIDDEN, CLASSES)];
    let macs: usize = shapes.iter().map(|(i, o)| i * o).sum();
    let moved: usize = shapes.iter().map(|(i, o)| 4 * (i * o + i + 2 * o)).sum();
    m.push(("tensor.gemm_flops_per_req", 2.0 * macs as f64));
    m.push(("tensor.gemm_bytes_per_req", moved as f64));
    notes.push(
        "tensor.gemm_flops_per_req and tensor.gemm_bytes_per_req are computed from tensor sizes \
         (f32, batch 1: weights + bias + activations in and out), not measured"
            .into(),
    );
}

fn nn_and_serve_probes(
    tracer: &mut Tracer,
    mut f32_model: Sequential,
    m: &mut Vec<(&'static str, f64)>,
) -> [[f64; 2]; MAX_BATCH + 1] {
    let t = Instant::now();
    let int8_model = tracer.scope("nn.quantize_model", 0, || quantize(&mut f32_model));
    m.push(("nn.quantize_model_ms", t.elapsed().as_secs_f64() * 1e3));
    let rows = inputs();
    let batch = |b: usize| Matrix::from_fn(b, INPUT_DIM, |r, c| rows.row(r)[c]);
    let opts = PlanOptions::default();

    // the cold cost a worker pays on the first batch after a hot swap
    let compile = |model: PlanModel<'_>| Plan::compile(model, 1, INPUT_DIM, opts).expect("plans");
    m.push((
        "nn.plan_compile_f32_us",
        median_us(tracer, "nn.plan_compile", 5, || {
            black_box(compile(PlanModel::F32(&f32_model)));
        }),
    ));
    m.push((
        "nn.plan_compile_int8_us",
        median_us(tracer, "nn.plan_compile", 5, || {
            black_box(compile(PlanModel::Int8(&int8_model)));
        }),
    ));

    // `Plan::run` at every batch size the server can form
    let mut table = [[0.0; 2]; MAX_BATCH + 1];
    let mut out = Matrix::default();
    let mut allocs = 0u64;
    for (b, row) in table.iter_mut().enumerate().skip(1) {
        let x = batch(b);
        for (p, model) in
            [PlanModel::F32(&f32_model), PlanModel::Int8(&int8_model)].into_iter().enumerate()
        {
            let mut plan = Plan::compile(model, b, INPUT_DIM, opts).expect("plans");
            row[p] = median_us(tracer, "nn.plan_run", 9, || plan.run(model, &x, &mut out));
            if b == 1 {
                allocs += count_allocs(|| (0..3).for_each(|_| plan.run(model, &x, &mut out)));
            }
        }
    }
    m.push(("nn.plan_run_f32_b1_us", table[1][0]));
    m.push(("nn.plan_run_f32_b8_us", table[MAX_BATCH][0]));
    m.push(("nn.plan_run_int8_b1_us", table[1][1]));
    m.push(("nn.plan_run_int8_b8_us", table[MAX_BATCH][1]));
    m.push(("nn.plan_steady_allocs", allocs as f64));

    // the dynamic path the Local, Split and shed routes still take
    let x1 = batch(1);
    m.push((
        "nn.forward_eval_f32_b1_us",
        median_us(tracer, "nn.forward_eval", 8, || {
            black_box(f32_model.forward_eval(&x1));
        }),
    ));

    let (gru_f32, gru_int8) = gru_models();
    let sequences = gru_sequences();
    m.push((
        "nn.gru_predict_f32_us",
        mean_us(tracer, "nn.gru_predict", 150, |i| {
            black_box(gru_f32.predict(&sequences[i % sequences.len()]));
        }),
    ));
    m.push((
        "nn.gru_predict_int8_us",
        mean_us(tracer, "nn.gru_predict", 150, |i| {
            black_box(gru_int8.predict(&sequences[i % sequences.len()]));
        }),
    ));

    // one `fit_classifier` epoch of the wide MLP, as `train_local` runs it
    let (x, y) = mlp_dataset(PROBE_SEED);
    let (mut net, mut opt) = (mlp(), Sgd::new(0.05));
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let config = mlp_epoch_config();
    m.push((
        "nn.fit_epoch_mlp_ms",
        median_us(tracer, "nn.fit_classifier", 2, || {
            black_box(fit_classifier(&mut net, &mut opt, &x, &y, &config, &mut rng));
        }) / 1e3,
    ));

    // artifact size and load time (set-up costs)
    let artifact = save_model(&mut f32_model).expect("an all-Dense model saves");
    m.push(("nn.model_bytes_f32", artifact.len() as f64));
    m.push(("nn.model_bytes_int8", int8_model.storage_bytes() as f64));
    m.push((
        "nn.load_model_ms",
        median_us(tracer, "nn.load_model", 3, || {
            black_box(load_model(&artifact).expect("a just-saved artifact loads"));
        }) / 1e3,
    ));
    drop((artifact, int8_model));

    // --- serve: the router alone, then one request on an idle server ---
    let snapshot = VersionedModel { version: 1, model: f32_model.into() };
    let router = Router::new();
    m.push((
        "serve.route_decide_ns",
        mean_us(tracer, "serve.route_decide", 2000, |_| {
            black_box(router.decide(&snapshot, CLOUD));
        }) * 1e3,
    ));
    let server = InferenceServer::start(snapshot.model, None, serve_config());
    let client = server.client();
    // the open loops' path, so on their footing: no core may halt
    let awake = KeepAwake::start(serve_config().workers);
    let idle_us = median_us(tracer, "serve.idle_roundtrip", 15, || {
        let rx = client.submit_classed(rows.row(3), CLOUD, SloClass::Standard).expect("running");
        black_box(rx.recv().expect("answered"));
    });
    awake.stop();
    drop(client);
    server.shutdown();
    m.push(("serve.idle_roundtrip_us", idle_us));
    // the batching window plus every hand-off between threads
    m.push(("serve.overhead_us", idle_us - table[1][0]));
    table
}

fn sim_probes(tracer: &mut Tracer, m: &mut Vec<(&'static str, f64)>) {
    let config = fed_sim_config(PROBE_SEED);
    let task = fed_task(PROBE_SEED);
    let (mut new_ms, mut scan_ms, mut round_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut eligible = Vec::new();
    let mut last = None;
    for rep in 0..3u64 {
        let t = Instant::now();
        let mut population = tracer
            .scope("sim.population_new", rep, || Population::new(population_spec(PROBE_SEED)));
        new_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // a second population pays for the scan probe: scanning advances
        // the chains, and the repetition below must start at time zero
        let mut scanned = Population::new(population_spec(PROBE_SEED));
        let t = Instant::now();
        eligible = tracer.scope("sim.eligible_scan", rep, || scanned.eligible_at(0));
        scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(scanned);

        let t = Instant::now();
        let (report, _) = traced_repetition(&config, &mut population, &task, tracer, rep);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3 / FED_ROUNDS as f64);
        last = Some(report);
    }
    m.push(("sim.population_new_ms", median(&new_ms)));
    m.push(("sim.eligible_scan_ms", median(&scan_ms)));
    m.push(("federated.round_ms_p50", median(&round_ms)));
    m.push((
        "sim.sample_cohort_us",
        median_us(tracer, "sim.sample_cohort", 20, || {
            black_box(sample_cohort(&eligible, &config.cohort, PROBE_SEED, 1));
        }),
    ));

    let report = last.expect("three repetitions ran");
    let rounds = FED_ROUNDS as f64;
    m.push(("sim.events_per_round", report.events as f64 / rounds));
    let t = &report.transport;
    m.push(("net.delivered_bytes_per_round", (t.bytes_up + t.bytes_down) as f64 / rounds));
    m.push(("net.wasted_bytes_per_round", t.wasted_bytes as f64 / rounds));
    m.push(("net.retries_per_round", t.retries as f64 / rounds));

    // engine self time and client training, from the recorded spans: an
    // untraced run has no way to tell them apart
    let totals = tracer.summary();
    let runs = totals.get("sim.run_population").copied().unwrap_or_default();
    let trains = totals.get("federated.client_train").copied().unwrap_or_default();
    m.push(("sim.self_ms_per_round", runs.self_ns as f64 / 1e6 / (runs.count as f64 * rounds)));
    m.push(("federated.client_train_us", trains.total_ns as f64 / 1e3 / trains.count as f64));

    let dim = task.initial_params().len();
    let update = vec![0.25f32; dim];
    let mut aggregator = ShardedAggregator::new(dim, config.shards);
    m.push((
        "sim.aggregate_update_ns",
        mean_us(tracer, "sim.aggregate_update", 2000, |i| {
            black_box(aggregator.accumulate(i, &update, 30));
        }) * 1e3,
    ));

    // one model-sized upload per client over the faulty LTE fabric
    let link = LinkConfig { profile: NetworkProfile::lte(), loss_prob: 0.02, jitter_frac: 0.1 };
    let mut fabric = Fabric::new(256, FabricConfig::faulty(link), PROBE_SEED);
    let payload = 4 * dim as u64 + 8;
    let mut sends = 0usize;
    let t = Instant::now();
    tracer.scope("net.send", 0, || {
        for _ in 0..8 {
            fabric.begin_round();
            for client in 0..fabric.clients() {
                // drops and timeouts are the fault plan at work, not errors
                let _ = black_box(fabric.send_up(client, payload));
                sends += 1;
            }
            fabric.end_round();
        }
    });
    m.push(("net.send_us", t.elapsed().as_secs_f64() * 1e6 / sends as f64));
}

fn app_probes(tracer: &mut Tracer, m: &mut Vec<(&'static str, f64)>) {
    let t = Instant::now();
    let (train, held_out) =
        tracer.scope("data.biaffect_generate", 0, || biaffect(PARTICIPANTS, SESSIONS));
    m.push(("data.biaffect_generate_ms", t.elapsed().as_secs_f64() * 1e3));

    let mut mood = deepmood();
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let (train, held_out) = (borrow_pairs(&train), borrow_pairs(&held_out));
    m.push((
        "deepmood.epoch_ms",
        median_us(tracer, "deepmood.train", 2, || {
            black_box(mood.train(&train, &mut rng));
        }) / 1e3,
    ));
    m.push((
        "deepmood.predict_us",
        mean_us(tracer, "deepmood.predict", held_out.len(), |i| {
            black_box(mood.predict(&held_out[i].0));
        }),
    ));

    let mut arden = Arden::from_pretrained(arden_net(), ArdenConfig::default());
    let x = Matrix::from_fn(1, ARDEN_IN, |_, c| (c as f32 * 0.61).sin().abs());
    m.push((
        "split.arden_infer_us",
        mean_us(tracer, "split.arden_infer", 500, |_| {
            black_box(arden.infer(&x, &mut rng));
        }),
    ));

    // what the server pays per request to record `serve.latency_us`
    let histogram = Obs::wall().registry().histogram("bench.latency_us", Buckets::Pow2);
    m.push((
        "obs.hist_record_ns",
        mean_us(tracer, "obs.hist_record", 20_000, |i| histogram.record(1_000 + i as u64)) * 1e3,
    ));
}
