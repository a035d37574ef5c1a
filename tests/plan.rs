//! Planned-executor correctness: a compiled f32 [`Plan`] must be
//! **bit-identical** to per-layer `forward_eval` for arbitrary
//! Dense/Dropout/GRU/LSTM stacks, batch shapes and kernel thread counts;
//! the int8 plan — the only int8 evaluator — must match a naive
//! triple-loop reference written here from public pieces; and the
//! serving tier's per-version plan cache must recompile across hot swaps
//! so swapped-in models are served exactly.

use mdl_core::nn::{Dropout, Lstm};
use mdl_core::prelude::*;
use mdl_core::tensor::kernel;
use mdl_core::tensor::quant::{quantize_value, symmetric_scale};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Mutex;

/// `kernel::set_threads` is process-global; tests that touch it serialize.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// One layer of a generated stack: the value is the output width the
/// layer maps its input to (Dropout keeps the width).
#[derive(Debug, Clone, Copy)]
enum LayerKind {
    Dense(usize, Activation),
    Dropout,
    Gru(usize),
    Lstm(usize),
}

/// Decodes one packed `u64` into a layer (the vendored proptest subset
/// has no `prop_oneof`, so variants are chosen by modulus).
fn decode_kind(code: u64) -> LayerKind {
    let w = 1 + (code / 16 % 9) as usize;
    let h = 1 + (code / 16 % 6) as usize;
    let act = match code / 4 % 4 {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::Tanh,
        _ => Activation::Sigmoid,
    };
    match code % 4 {
        0 => LayerKind::Dense(w, act),
        1 => LayerKind::Dropout,
        2 => LayerKind::Gru(h),
        _ => LayerKind::Lstm(h),
    }
}

fn kind_strategy() -> impl Strategy<Value = LayerKind> {
    (0u64..1_000_000).prop_map(decode_kind)
}

fn build(stack: &[LayerKind], in_dim: usize, seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    let mut width = in_dim;
    for (i, kind) in stack.iter().enumerate() {
        match *kind {
            LayerKind::Dense(w, act) => {
                net.push(Dense::new(width, w, act, &mut rng));
                width = w;
            }
            LayerKind::Dropout => {
                net.push(Dropout::new(width, 0.4, seed ^ i as u64));
            }
            LayerKind::Gru(h) => {
                net.push(Gru::new(width, h, &mut rng));
                width = h;
            }
            LayerKind::Lstm(h) => {
                net.push(Lstm::new(width, h, &mut rng));
                width = h;
            }
        }
    }
    net
}

fn input(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37 + seed as f32 * 0.11).sin())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

type DenseParts = Vec<(Int8Matrix, Vec<f32>, Activation)>;

/// Random all-Dense int8 stack over `widths` (input width first).
fn int8_parts(widths: &[usize], acts: &[u8], seed: u64) -> DenseParts {
    let mut rng = StdRng::seed_from_u64(seed);
    widths
        .windows(2)
        .zip(acts)
        .map(|(w, &act)| {
            let (k, n) = (w[0], w[1]);
            let data = (0..n * k).map(|_| rng.gen_range(-127i8..=127)).collect();
            let scales = (0..n).map(|_| rng.gen_range(0.001f32..0.05)).collect();
            let bias = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let act = match act {
                0 => Activation::Identity,
                1 => Activation::Relu,
                2 => Activation::LeakyRelu(0.1),
                3 => Activation::Sigmoid,
                _ => Activation::Tanh,
            };
            (Int8Matrix::from_channel_rows(n, k, data, scales), bias, act)
        })
        .collect()
}

/// The int8 dense forward pass spelled out naively: quantize the input
/// per tensor, then per layer accumulate in `i32`, fold the bias into
/// the accumulator domain (saturating), dequantize, activate, and
/// requantize by the row-major max-abs. Returns the last layer's values.
fn naive_int8(parts: &DenseParts, x: &Matrix) -> Vec<f32> {
    let rows = x.rows();
    let mut scale = symmetric_scale(x.max_abs());
    let mut q: Vec<i8> = x.as_slice().iter().map(|&v| quantize_value(v, scale)).collect();
    let mut values = Vec::new();
    for (w, bias, act) in parts {
        let k = w.in_dim();
        values.clear();
        let mut max_abs = 0.0f32;
        for i in 0..rows {
            for (j, (&b_j, &s_j)) in bias.iter().zip(w.scales()).enumerate() {
                let mut acc = 0i32;
                for t in 0..k {
                    acc += i32::from(q[i * k + t]) * i32::from(w.data()[j * k + t]);
                }
                let bq = (b_j / (scale * s_j)).round() as i32;
                let v = act.apply(acc.saturating_add(bq) as f32 * scale * s_j);
                max_abs = max_abs.max(v.abs());
                values.push(v);
            }
        }
        scale = symmetric_scale(max_abs);
        q = values.iter().map(|&v| quantize_value(v, scale)).collect();
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f32: planned execution is bit-for-bit the per-layer `forward_eval`
    /// result for any supported stack and shape.
    #[test]
    fn planned_f32_matches_dynamic_bitwise(
        stack in prop::collection::vec(kind_strategy(), 1..=4),
        in_dim in 1usize..=7,
        rows in 1usize..=5,
        seed in 0u64..500,
    ) {
        let _guard = KERNEL_LOCK.lock().unwrap();
        kernel::set_threads(1);
        let net = build(&stack, in_dim, seed);
        let x = input(rows, in_dim, seed);
        let dynamic = net.forward_eval(&x);
        let mut plan = Plan::compile(PlanModel::F32(&net), rows, in_dim, PlanOptions::default())
            .expect("supported stack plans");
        let mut out = Matrix::default();
        // run twice: the second pass reuses warmed buffers and must not drift
        plan.run(PlanModel::F32(&net), &x, &mut out);
        plan.run(PlanModel::F32(&net), &x, &mut out);
        prop_assert_eq!(bits(&dynamic), bits(&out));
    }

    /// int8: the plan reproduces the naive reference exactly, for every
    /// activation, on a first run and on warmed buffers, and
    /// `forward_eval` (compile + one run) lands on the same bits.
    #[test]
    fn planned_int8_matches_naive_reference_bitwise(
        widths in prop::collection::vec(1usize..=9, 2..=4),
        acts in prop::collection::vec(0u8..5, 3),
        rows in 1usize..=5,
        seed in 0u64..500,
    ) {
        let parts = int8_parts(&widths, &acts, seed);
        let x = input(rows, widths[0], seed);
        let expected: Vec<u32> = naive_int8(&parts, &x).iter().map(|v| v.to_bits()).collect();
        let qm = QuantizedModel::from_dense_parts(parts);
        let mut plan = Plan::compile(PlanModel::Int8(&qm), rows, widths[0], PlanOptions::default())
            .expect("dense stack plans");
        let mut out = Matrix::default();
        plan.run(PlanModel::Int8(&qm), &x, &mut out);
        prop_assert_eq!(&bits(&out), &expected);
        plan.run(PlanModel::Int8(&qm), &x, &mut out);
        prop_assert_eq!(&bits(&out), &expected);
        prop_assert_eq!(&bits(&qm.forward_eval(&x)), &expected);
    }
}

/// Large enough (8 × 1024 × 192 ≈ 1.6M MACs) to cross the kernel's
/// parallel threshold, so the threaded GEMM path actually runs: the plan
/// must stay bit-identical to `forward_eval` at every thread count.
#[test]
fn planned_matches_dynamic_across_thread_counts() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x9_1a_2b);
    let mut net = Sequential::new();
    net.push(Dense::new(192, 1024, Activation::Relu, &mut rng));
    net.push(Dense::new(1024, 64, Activation::Tanh, &mut rng));
    net.push(Dense::new(64, 10, Activation::Identity, &mut rng));
    let x = input(8, 192, 42);
    kernel::set_threads(1);
    let reference = bits(&net.forward_eval(&x));
    for threads in [1, 2, 4, 8] {
        kernel::set_threads(threads);
        let dynamic = net.forward_eval(&x);
        assert_eq!(bits(&dynamic), reference, "forward_eval diverged at {threads} threads");
        let mut plan =
            Plan::compile(PlanModel::F32(&net), 8, 192, PlanOptions::default()).expect("plans");
        let mut out = Matrix::default();
        plan.run(PlanModel::F32(&net), &x, &mut out);
        assert_eq!(bits(&out), reference, "plan diverged at {threads} threads");
    }
    kernel::set_threads(1);
}

/// Stacks the planner refuses (BiGru, empty) fall back cleanly, and a
/// shape mismatch is a compile error, not a wrong answer.
#[test]
fn planner_rejects_unsupported_and_misshapen_models() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut net = Sequential::new();
    net.push(mdl_core::nn::BiGru::new(4, 3, &mut rng));
    match Plan::compile(PlanModel::F32(&net), 2, 4, PlanOptions::default()) {
        Err(mdl_core::nn::PlanError::Unsupported(_)) => {}
        other => panic!("BiGru must be unsupported, got {other:?}"),
    }
    let empty = Sequential::new();
    assert!(matches!(
        Plan::compile(PlanModel::F32(&empty), 1, 1, PlanOptions::default()),
        Err(mdl_core::nn::PlanError::Empty)
    ));
    let mut dense = Sequential::new();
    dense.push(Dense::new(6, 2, Activation::Relu, &mut rng));
    assert!(matches!(
        Plan::compile(PlanModel::F32(&dense), 2, 5, PlanOptions::default()),
        Err(mdl_core::nn::PlanError::Shape { layer: 0, expected: 6, got: 5 })
    ));
}

/// Hot swap through the serving tier: worker plan caches are keyed by
/// model version, so after a swap (including a precision swap) responses
/// must match the *new* model's direct output bitwise — a stale plan
/// would produce the old model's logits.
#[test]
fn serve_plan_cache_recompiles_on_hot_swap() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    // big enough that a wearable on Wi-Fi routes to the cloud workers
    let cloud_model = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
        net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
        net.push(Dense::new(3072, 4, Activation::Identity, &mut rng));
        net
    };
    let profile = ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi };
    let input: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
    let x = Matrix::row_vector(&input);

    let server = InferenceServer::start(
        cloud_model(1),
        None,
        ServeConfig { workers: 1, kernel_threads: Some(1), ..Default::default() },
    );
    let client = server.client();
    let ask = |client: &mdl_core::serve::ServeClient| {
        client.submit(&input, profile).expect("up").recv().expect("answered")
    };

    // twice on v1: second hit runs the cached plan, still exact
    let direct_v1 = cloud_model(1).predict_proba(&x);
    for _ in 0..2 {
        let resp = ask(&client);
        assert_eq!(resp.model_version, 1);
        assert_eq!(
            resp.probs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct_v1.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    // f32 → f32 swap: new version, new plan, new bits
    assert_eq!(server.swap_model(cloud_model(2)), 2);
    let direct_v2 = cloud_model(2).predict_proba(&x);
    let resp = ask(&client);
    assert_eq!(resp.model_version, 2);
    assert_eq!(
        resp.probs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        direct_v2.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // f32 → int8 swap: the plan cache must re-key onto the quantized path
    let qm = QuantizedModel::from_model(&mut cloud_model(2)).expect("dense stack quantizes");
    let direct_q = qm.predict_proba(&x);
    assert_eq!(server.swap_model(qm), 3);
    let resp = ask(&client);
    assert_eq!(resp.model_version, 3);
    assert_eq!(
        resp.probs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        direct_q.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // and the plan.* instruments exist once the planned path has fired
    let snap = server.obs().snapshot();
    assert!(snap.counter("plan.cache_misses").unwrap_or(0) >= 1, "at least one compile recorded");
    assert!(snap.counter("plan.cache_hits").unwrap_or(0) >= 1, "repeat batch hit the cache");

    drop(client);
    server.shutdown();
}
