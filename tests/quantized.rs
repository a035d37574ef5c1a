//! End-to-end int8 inference: a trained classifier quantized through
//! `QuantizedModel` must stay within one accuracy point of its f32
//! parent on a fixed-seed eval, a DeepMood-style recurrent stack must
//! agree with f32 on essentially every prediction, the serving tier
//! must hot-swap between the two precisions under a live client, the
//! forced-scalar kernel path must be bit-identical to dispatch, and the
//! int8 GRU and LSTM outputs are pinned bit for bit.

use mdl_core::nn::Gru;
use mdl_core::prelude::*;
use mdl_core::tensor::kernel::int8;

/// Trains the small digits MLP every compression test uses.
fn trained_digits_model() -> (Sequential, Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0xD161);
    let data = mdl_core::data::synthetic::synthetic_digits(1200, 0.08, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let mut model = Sequential::new();
    model.push(Dense::new(64, 48, Activation::Relu, &mut rng));
    model.push(Dense::new(48, 10, Activation::Identity, &mut rng));
    let mut opt = Adam::new(0.005);
    fit_classifier(
        &mut model,
        &mut opt,
        &train.x,
        &train.y,
        &TrainConfig { epochs: 4, batch_size: 32, ..Default::default() },
        &mut rng,
    );
    (model, test.x, test.y)
}

#[test]
fn quantized_classifier_stays_within_one_accuracy_point_of_f32() {
    let (model, x, y) = trained_digits_model();
    let f32_acc = model.accuracy(&x, &y);
    assert!(f32_acc > 0.7, "f32 baseline must be a real classifier, got {f32_acc}");

    let qm = QuantizedModel::from_model(&model).expect("all-Dense model quantizes");
    let int8_acc = qm.accuracy(&x, &y);
    assert!(
        (f32_acc - int8_acc).abs() <= 0.01,
        "int8 accuracy {int8_acc:.4} drifted more than one point from f32 {f32_acc:.4}"
    );
    // quantization must not have disturbed the f32 model it read from
    assert_eq!(model.accuracy(&x, &y), f32_acc);
}

#[test]
fn quantized_deepmood_style_recurrent_stack_matches_f32_predictions() {
    // GRU encoder + fused dense head over keystroke-like sequences, the
    // DeepMood shape (§IV-A); labels are the f32 model's own predictions,
    // so int8 "accuracy" is exactly its agreement with f32.
    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let mut model = Sequential::new();
    model.push(Gru::new(8, 16, &mut rng));
    model.push(Dense::new(16, 16, Activation::Relu, &mut rng));
    model.push(Dense::new(16, 3, Activation::Identity, &mut rng));
    let qm = QuantizedModel::from_model(&model).expect("Gru+Dense stack quantizes");

    let sequences: Vec<Matrix> = (0..150)
        .map(|s| Matrix::from_fn(20, 8, |t, f| ((s * 160 + t * 8 + f) as f32 * 0.173).sin() * 0.8))
        .collect();
    let (mut agree, total) = (0usize, sequences.len());
    for seq in &sequences {
        let f32_states = model.forward_eval(seq);
        let int8_states = qm.forward_eval(seq);
        assert_eq!(f32_states.shape(), int8_states.shape());
        let last = f32_states.rows() - 1;
        let argmax = |m: &Matrix| {
            let row = m.row(last);
            (0..row.len()).max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap()).unwrap()
        };
        if argmax(&f32_states) == argmax(&int8_states) {
            agree += 1;
        } else {
            // the untrained head has no training margin; a flip is only a
            // quantization failure when f32 was decisive about its answer
            let row = f32_states.row(last);
            let mut sorted: Vec<f32> = row.to_vec();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let margin = sorted[0] - sorted[1];
            assert!(
                margin < 0.05,
                "int8 flipped a decisive f32 prediction (top-2 margin {margin:.4})"
            );
        }
    }
    let agreement = agree as f64 / total as f64;
    assert!(
        agreement >= 0.98,
        "int8 recurrent stack agrees with f32 on only {agreement:.3} of sequences"
    );
}

#[test]
fn server_hot_swaps_between_f32_and_int8_under_a_live_client() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new();
        net.push(Dense::new(16, 64, Activation::Relu, &mut rng));
        net.push(Dense::new(64, 4, Activation::Identity, &mut rng));
        net
    };
    let net = build();
    let qm = QuantizedModel::from_model(&build()).expect("all-Dense model quantizes");

    let server = InferenceServer::start(net, None, ServeConfig::default());
    let client = server.client();
    let profile = ClientProfile { device: DeviceClass::Flagship, network: NetworkClass::Wifi };
    let input: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();

    assert_eq!(server.precision(), "f32");
    let before = client.submit(&input, profile).unwrap().recv().unwrap();

    let v2 = server.swap_model(qm);
    assert_eq!(server.precision(), "int8");
    let after = client.submit(&input, profile).unwrap().recv().unwrap();
    assert_eq!(after.model_version, v2);
    assert_eq!(before.probs.len(), after.probs.len());
    let drift =
        before.probs.iter().zip(&after.probs).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    assert!(drift < 0.05, "int8 softmax drifted {drift} from f32 on the same input");

    drop(client);
    server.shutdown();
}

#[test]
fn forced_scalar_kernel_is_bit_identical_to_simd_dispatch() {
    let (model, x, _) = trained_digits_model();
    let qm = QuantizedModel::from_model(&model).expect("all-Dense model quantizes");

    let dispatched = qm.predict_proba(&x);
    int8::set_force_scalar(true);
    assert!(int8::force_scalar());
    let scalar = qm.predict_proba(&x);
    int8::set_force_scalar(false);

    assert_eq!(
        dispatched.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        scalar.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "int8 inference must be bit-identical with SIMD forced off ({})",
        int8::simd_level()
    );
}

fn fnv(bits: impl Iterator<Item = u32>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        b.to_le_bytes()
            .iter()
            .fold(h, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// FNV over the bits of `forward_eval` on a 1-row and a 20-row input.
fn int8_output_hashes(model: &Sequential) -> [u64; 2] {
    let qm = QuantizedModel::from_model(model).expect("Dense/GRU/LSTM stack quantizes");
    let d = qm.input_dim();
    [1, 20].map(|rows| {
        let x = Matrix::from_fn(rows, d, |t, f| ((t * d + f) as f32 * 0.37).sin() * 0.9);
        fnv(qm.forward_eval(&x).as_slice().iter().map(|v| v.to_bits()))
    })
}

/// Bit pins of the int8 recurrent scans: recurrent layers mid-stack feed
/// the next layer fixed-scale int8 states, a recurrent layer last emits
/// its f32 states as the model output. Taken before the GRU and LSTM
/// scans were folded into one; a hash that moves means the gate math,
/// the projection order or the state write changed.
#[test]
fn int8_recurrent_outputs_are_pinned() {
    use mdl_core::nn::Lstm;
    let mut rng = StdRng::seed_from_u64(0x5CA9);
    let mut mid = Sequential::new();
    mid.push(Gru::new(5, 12, &mut rng));
    mid.push(Lstm::new(12, 8, &mut rng));
    mid.push(Dense::new(8, 3, Activation::Identity, &mut rng));
    let mut gru_last = Sequential::new();
    gru_last.push(Dense::new(6, 10, Activation::Tanh, &mut rng));
    gru_last.push(Gru::new(10, 7, &mut rng));
    let mut lstm_last = Sequential::new();
    lstm_last.push(Dense::new(6, 10, Activation::Relu, &mut rng));
    lstm_last.push(Lstm::new(10, 7, &mut rng));

    assert_eq!(
        int8_output_hashes(&mid),
        [7643447735454061232, 13090423524598993227],
        "GRU -> LSTM -> Dense"
    );
    assert_eq!(
        int8_output_hashes(&gru_last),
        [16205922742948657751, 2725066759342519982],
        "Dense -> GRU"
    );
    assert_eq!(
        int8_output_hashes(&lstm_last),
        [3604074642550150750, 13251930840132166281],
        "Dense -> LSTM"
    );
}
