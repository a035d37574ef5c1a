//! Planned-executor correctness. The plan is the only evaluator for both
//! precisions, so each is checked against a reference spelled out here:
//! a compiled f32 [`Plan`] must be **bit-identical** to folding
//! `Layer::forward_eval` over the same layers, for every layer kind,
//! every sub-range of a stack, batch shapes and kernel thread counts; the
//! int8 plan must match a naive triple-loop reference written from public
//! pieces. [`PlanCache`] stays within its cap and evicts swapped-out
//! versions first, and the serving tier's per-version plan cache must
//! recompile across hot swaps so swapped-in models are served exactly.

use mdl_core::deepmood::{
    FactorizationMachineFusion, FullyConnectedFusion, MultiViewMachineFusion,
};
use mdl_core::nn::{
    AvgPool2d, BiGru, Conv2d, Dropout, ImageShape, LayerInfo, Lstm, PlanCache, PlanError,
    PlanLookup, SeparableConv2d,
};
use mdl_core::prelude::*;
use mdl_core::tensor::kernel;
use mdl_core::tensor::quant::{quantize_value, symmetric_scale};
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    BiGru(usize),
}

/// Decodes one packed `u64` into a layer (the vendored proptest subset
/// has no `prop_oneof`, so variants are chosen by modulus).
fn decode_kind(code: u64) -> LayerKind {
    let w = 1 + (code / 20 % 9) as usize;
    let h = 1 + (code / 20 % 6) as usize;
    let act = match code / 5 % 4 {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::Tanh,
        _ => Activation::Sigmoid,
    };
    match code % 5 {
        0 => LayerKind::Dense(w, act),
        1 => LayerKind::Dropout,
        2 => LayerKind::Gru(h),
        3 => LayerKind::Lstm(h),
        _ => LayerKind::BiGru(h),
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
            LayerKind::BiGru(h) => {
                net.push(BiGru::new(width, h, &mut rng));
                width = 2 * h;
            }
        }
    }
    net
}

/// The f32 reference: `Layer::forward_eval` folded over `layers()[range]`,
/// one call and one fresh matrix per layer.
fn fold(net: &Sequential, range: std::ops::Range<usize>, x: &Matrix) -> Matrix {
    net.layers()[range].iter().fold(x.clone(), |cur, layer| layer.forward_eval(&cur))
}

/// Compiles `range` of `net` for `x`'s shape and runs it twice: the second
/// pass reuses warmed buffers and must not drift.
fn planned(net: &Sequential, range: std::ops::Range<usize>, x: &Matrix) -> Matrix {
    let model = PlanModel::F32(net);
    let mut plan = Plan::compile_range(model, range, x.rows(), x.cols()).expect("plans");
    let mut out = Matrix::default();
    plan.run(model, x, &mut out);
    plan.run(model, x, &mut out);
    out
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
                    acc += i32::from(q[i * k + t]) * i32::from(w.data()[t * w.out_dim() + j]);
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

    /// f32: every range `a..b` of any stack — arena ops, generic ops and
    /// elided or trailing dropouts in any mix — is bit-for-bit the fold
    /// over the same layers, and `forward_eval` is the whole-range plan.
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
        // the width each layer is fed: a dropout's own `info()` is not checked
        let mut widths = vec![in_dim];
        for layer in net.layers() {
            let info = layer.info();
            let fed = *widths.last().unwrap();
            widths.push(if info.kind == "dropout" { fed } else { info.out_dim });
        }
        for (a, &width) in widths.iter().enumerate().take(net.len()) {
            let x = input(rows, width, seed);
            for b in a + 1..=net.len() {
                let expected = bits(&fold(&net, a..b, &x));
                prop_assert_eq!(&bits(&planned(&net, a..b, &x)), &expected, "range {}..{}", a, b);
                prop_assert_eq!(&bits(&net.forward_eval_range(&x, a..b)), &expected);
            }
        }
        let x = input(rows, in_dim, seed);
        prop_assert_eq!(bits(&net.forward_eval(&x)), bits(&fold(&net, 0..net.len(), &x)));
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

    /// [`PlanCache`] over arbitrary `(version, entry layer, rows)` lookups:
    /// never more than `cap` plans, a key just compiled is a hit, every
    /// answer is the fold from the entry layer on, and making room drops
    /// the swapped-out versions — all of them, nothing else — and starts
    /// over only when every plan is the current or the retained version's.
    #[test]
    fn plan_cache_stays_within_cap_and_evicts_swapped_out_versions_first(
        lookups in prop::collection::vec(0u64..36, 1..40),
        cap in 1usize..=6,
        kept in 1u64..=4,
    ) {
        let stack =
            [LayerKind::Dense(5, Activation::Relu), LayerKind::Gru(4), LayerKind::BiGru(2)];
        let net = build(&stack, 6, 9);
        let widths = [6, 5, 4];
        let mut cache = PlanCache::new(cap);
        let mut keys: HashSet<(u64, usize, usize)> = HashSet::new();
        let mut out = Matrix::default();
        for code in lookups {
            // packed, like `decode_kind`: 4 versions × 3 entry layers × 3 batch sizes
            let (version, entry, rows) = (1 + code % 4, (code / 4 % 3) as usize, 1 + (code / 12) as usize);
            let x = input(rows, widths[entry], version);
            let mut run = |cache: &mut PlanCache| {
                cache.run(version, PlanModel::F32(&net), entry, &x, &mut out, |v| v == kept)
            };
            let key = (version, entry, rows);
            let cached = keys.contains(&key);
            prop_assert_eq!(matches!(run(&mut cache), PlanLookup::Hit), cached);
            if !cached && keys.len() >= cap {
                let swapped_out = |k: &(u64, usize, usize)| k.0 != version && k.0 != kept;
                if keys.iter().any(swapped_out) {
                    keys.retain(|k| !swapped_out(k));
                } else {
                    keys.clear();
                }
            }
            keys.insert(key);
            prop_assert!(cache.len() <= cap, "{} plans under cap {}", cache.len(), cap);
            prop_assert_eq!(cache.len(), keys.len());
            for &(v, e, r) in &keys {
                prop_assert!(cache.contains(v, e, r, widths[e]), "lost ({}, {}, {})", v, e, r);
            }
            prop_assert!(matches!(run(&mut cache), PlanLookup::Hit), "hit after compile");
            prop_assert_eq!(bits(&out), bits(&fold(&net, entry..3, &x)));
        }
    }
}

/// Large enough (8 × 1024 × 192 ≈ 1.6M MACs) to cross the kernel's
/// parallel threshold, so the threaded GEMM path actually runs: the plan
/// must stay bit-identical to the per-layer fold at every thread count.
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
    let reference = bits(&fold(&net, 0..3, &x));
    for threads in [1, 2, 4, 8] {
        kernel::set_threads(threads);
        assert_eq!(bits(&fold(&net, 0..3, &x)), reference, "fold diverged at {threads} threads");
        assert_eq!(bits(&planned(&net, 0..3, &x)), reference, "plan diverged at {threads} threads");
        assert_eq!(bits(&net.forward_eval(&x)), reference, "forward_eval at {threads} threads");
    }
    kernel::set_threads(1);
}

/// A layer the planner knows nothing about (no `as_any`): scales its input
/// by 1.5 and counts how often it is evaluated.
struct Opaque {
    dim: usize,
    calls: Arc<AtomicUsize>,
}

impl Layer for Opaque {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_eval(x)
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Matrix::from_fn(x.rows(), self.dim, |r, c| x[(r, c)] * 1.5)
    }

    fn backward(&mut self, _grad_out: &Matrix) -> Matrix {
        unreachable!("inference-only")
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn info(&self) -> LayerInfo {
        LayerInfo { kind: "opaque", in_dim: self.dim, out_dim: self.dim, params: 0, macs: 0 }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// No layer kind is refused: the ones without an arena op run as the generic
/// op (the layer's own `forward_eval`, once per run, never at compile time)
/// and match the fold bitwise. What a compile can still refuse — nothing to
/// run, widths that don't chain — is pinned for f32 as it is for int8.
#[test]
fn every_layer_kind_plans_and_the_edges_are_pinned() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    kernel::set_threads(1);
    let mut rng = StdRng::seed_from_u64(3);

    let mut bigru = Sequential::new();
    bigru.push(BiGru::new(4, 3, &mut rng));

    let image = ImageShape::new(2, 4, 4);
    let conv = Conv2d::new(image, 4, 3, 1, Activation::Relu, &mut rng);
    let pool = AvgPool2d::new(conv.output_shape());
    let pooled = pool.output_shape().len();
    let mut vision = Sequential::new();
    vision.push(conv);
    vision.push(pool);
    vision.push(Dense::new(pooled, 5, Activation::Identity, &mut rng));

    let mut inner = Sequential::new();
    inner.push(Dense::new(6, 7, Activation::Tanh, &mut rng));
    inner.push(Dropout::new(7, 0.3, 1));
    inner.push(Gru::new(7, 4, &mut rng));
    let mut nested = Sequential::new();
    nested.push(Dense::new(5, 6, Activation::Relu, &mut rng));
    nested.push(inner);
    nested.push(Dense::new(4, 2, Activation::Identity, &mut rng));

    let mut circulant = Sequential::new();
    circulant.push(BlockCirculant::new(8, 16, 4, Activation::Relu, &mut rng));
    circulant.push(Dense::new(16, 3, Activation::Identity, &mut rng));

    for (name, net) in
        [("bigru", &bigru), ("vision", &vision), ("nested", &nested), ("circulant", &circulant)]
    {
        let x = input(3, net.layers()[0].info().in_dim, 11);
        let expected = bits(&fold(net, 0..net.len(), &x));
        assert_eq!(bits(&planned(net, 0..net.len(), &x)), expected, "{name}: plan vs fold");
        assert_eq!(bits(&net.forward_eval(&x)), expected, "{name}: forward_eval vs fold");
    }

    // `&mut` trains, `&` answers — and with no stochastic part inside, the
    // training forward returns the answer to the bit. Every application that
    // trains through `forward` and predicts through `forward_eval` leans on
    // this; 40 rows put the Dense products on the blocked GEMM path.
    let mut plain_inner = Sequential::new();
    plain_inner.push(Dense::new(6, 7, Activation::Tanh, &mut rng));
    plain_inner.push(Gru::new(7, 4, &mut rng));
    let mut plain_nested = Sequential::new();
    plain_nested.push(Dense::new(5, 6, Activation::Relu, &mut rng));
    plain_nested.push(plain_inner);
    plain_nested.push(Dense::new(4, 2, Activation::Identity, &mut rng));
    let dense = |act, rng: &mut StdRng| Box::new(Dense::new(24, 20, act, rng));
    let mut kinds: Vec<(&str, Box<dyn Layer>)> = vec![
        ("dense identity", dense(Activation::Identity, &mut rng)),
        ("dense relu", dense(Activation::Relu, &mut rng)),
        ("dense leaky relu", dense(Activation::LeakyRelu(0.1), &mut rng)),
        ("dense sigmoid", dense(Activation::Sigmoid, &mut rng)),
        ("dense tanh", dense(Activation::Tanh, &mut rng)),
        ("gru", Box::new(Gru::new(6, 4, &mut rng))),
        ("bigru", Box::new(BiGru::new(6, 4, &mut rng))),
        ("lstm", Box::new(Lstm::new(6, 4, &mut rng))),
        ("conv2d", Box::new(Conv2d::new(image, 4, 3, 1, Activation::Relu, &mut rng))),
        ("separable", Box::new(SeparableConv2d::new(image, 4, 3, Activation::Relu, &mut rng))),
        ("avgpool", Box::new(AvgPool2d::new(image))),
        ("circulant", Box::new(BlockCirculant::new(8, 16, 4, Activation::Relu, &mut rng))),
        ("fc fusion", Box::new(FullyConnectedFusion::new(6, 8, 3, &mut rng))),
        ("fm fusion", Box::new(FactorizationMachineFusion::new(6, 3, 2, &mut rng))),
        ("mvm fusion", Box::new(MultiViewMachineFusion::new(&[2, 4], 3, 2, &mut rng))),
        ("nested sequential", Box::new(plain_nested)),
    ];
    for (name, layer) in &mut kinds {
        for rows in [3, 40] {
            let x = input(rows, layer.info().in_dim, 11);
            let answer = bits(&layer.forward_eval(&x));
            assert_eq!(bits(&layer.forward(&x)), answer, "{name}, {rows} rows: forward vs eval");
        }
    }

    // no `as_any` at all, mid-stack: compile never evaluates it, a run does once
    let mut opaque = Sequential::new();
    opaque.push(Dense::new(4, 6, Activation::Relu, &mut rng));
    let calls = Arc::new(AtomicUsize::new(0));
    opaque.push(Opaque { dim: 6, calls: Arc::clone(&calls) });
    opaque.push(Dense::new(6, 2, Activation::Identity, &mut rng));
    let x = input(3, 4, 5);
    let expected = bits(&fold(&opaque, 0..3, &x));
    let before = calls.load(Ordering::Relaxed);
    let model = PlanModel::F32(&opaque);
    let mut plan = Plan::compile(model, 3, 4, PlanOptions::default()).expect("opaque layers plan");
    assert_eq!(calls.load(Ordering::Relaxed), before, "compile must not evaluate a layer");
    let mut out = Matrix::default();
    for run in 1..=2 {
        plan.run(model, &x, &mut out);
        assert_eq!(calls.load(Ordering::Relaxed), before + run, "one forward_eval per run");
        assert_eq!(bits(&out), expected);
    }

    // nothing to run
    let empty = Sequential::new();
    let compile = |net: &Sequential, rows, cols| {
        Plan::compile(PlanModel::F32(net), rows, cols, PlanOptions::default())
    };
    assert!(matches!(compile(&empty, 1, 1), Err(PlanError::Empty)));
    assert!(matches!(
        Plan::compile_range(PlanModel::F32(&nested), 2..2, 1, 4),
        Err(PlanError::Empty)
    ));
    assert_eq!(bits(&empty.forward_eval(&x)), bits(&x), "an empty stack is the identity");
    assert_eq!(bits(&nested.forward_eval_range(&x, 1..1)), bits(&x));
    // zero rows: no plan, `0 × out_dim` — recurrent layers included
    assert_eq!(nested.forward_eval(&Matrix::zeros(0, 5)).shape(), (0, 2));
    assert_eq!(nested.forward_eval_range(&Matrix::zeros(0, 5), 0..2).shape(), (0, 4));
    // widths that don't chain: at the entry, and mid-stack
    let mut dense = Sequential::new();
    dense.push(Dense::new(6, 2, Activation::Relu, &mut rng));
    dense.push(Dense::new(3, 2, Activation::Relu, &mut rng));
    assert!(matches!(
        compile(&dense, 2, 5),
        Err(PlanError::Shape { layer: 0, expected: 6, got: 5 })
    ));
    assert!(matches!(
        compile(&dense, 2, 6),
        Err(PlanError::Shape { layer: 1, expected: 3, got: 2 })
    ));
    let wrong_width = std::panic::AssertUnwindSafe(|| dense.forward_eval(&Matrix::ones(2, 5)));
    let panic = std::panic::catch_unwind(wrong_width)
        .expect_err("a wrong width must not produce an answer");
    let text = panic.downcast_ref::<String>().expect("panics with a formatted message");
    assert_eq!(text, &PlanError::Shape { layer: 0, expected: 6, got: 5 }.to_string());
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
    let qm = QuantizedModel::from_model(&cloud_model(2)).expect("dense stack quantizes");
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
