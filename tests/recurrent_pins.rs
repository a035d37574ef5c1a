//! Bit-identity pins of the f32 recurrent layers: `Gru`, `Lstm` and `BiGru`
//! on their own, and a `Dense → Gru → Lstm → Dense` stack trained with Adam.
//!
//! Each pin is an FNV-1a hash over the `to_bits` of an output, a gradient
//! or a parameter vector, so it catches any change of summation order, of
//! gate layout or of RNG draw order — the DeepMood pins in
//! `training_pins.rs` cannot see the input gradient of an encoder, which
//! DeepMood discards; here the LSTM's `dx` feeds the GRU's backward.
//! Every hash holds on every kernel tier (`MDL_FORCE_SCALAR=1` too).

use mdl_core::nn::loss::softmax_cross_entropy;
use mdl_core::nn::optim::Optimizer;
use mdl_core::nn::{fit_batches, BiGru, Lstm};
use mdl_core::prelude::*;

fn fnv(bits: impl Iterator<Item = u32>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        b.to_le_bytes()
            .iter()
            .fold(h, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn hash(values: &[f32]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

fn sequence(t: usize, d: usize, phase: f32) -> Matrix {
    Matrix::from_fn(t, d, |r, c| ((r * d + c) as f32 * 0.37 + phase).sin() * 0.8)
}

/// `Gru`, `Lstm` and `BiGru` on 4 input features with 5 hidden units,
/// drawn from one seeded stream in that order.
fn layers() -> (Gru, Lstm, BiGru) {
    let mut rng = StdRng::seed_from_u64(0x7130);
    let gru = Gru::new(4, 5, &mut rng);
    let lstm = Lstm::new(4, 5, &mut rng);
    let bigru = BiGru::new(4, 5, &mut rng);
    (gru, lstm, bigru)
}

#[test]
fn recurrent_forward_eval_is_pinned() {
    let (gru, lstm, bigru) = layers();
    let got: Vec<u64> = [1, 7]
        .iter()
        .flat_map(|&t| {
            let x = sequence(t, 4, 0.3);
            [gru.forward_eval(&x), lstm.forward_eval(&x), bigru.forward_eval(&x)]
        })
        .map(|y| hash(y.as_slice()))
        .collect();
    let pinned: [u64; 6] = [
        0xfc456046e6377abb,
        0x00f77087bb35d65f,
        0x0be32ef23a3cad00,
        0x4a98ffc98ebb1e4e,
        0x5954060be234a722,
        0xcec992714834415a,
    ];
    assert_eq!(got, pinned, "T = 1 then T = 7, each Gru / Lstm / BiGru: {got:#018x?}");
}

/// One `forward` + `backward` with a gradient on every output row; the pin
/// covers the returned `dx` and the accumulated parameter gradients.
fn backward_hashes(layer: &mut dyn Layer) -> [u64; 2] {
    let x = sequence(7, 4, 1.1);
    let y = layer.forward(&x);
    let g = Matrix::from_fn(y.rows(), y.cols(), |r, c| ((r * 3 + c) as f32 * 0.61).cos());
    layer.zero_grad();
    let dx = layer.backward(&g);
    [hash(dx.as_slice()), hash(&layer.grad_vector())]
}

#[test]
fn recurrent_backward_is_pinned() {
    let (mut gru, mut lstm, mut bigru) = layers();
    let got = [backward_hashes(&mut gru), backward_hashes(&mut lstm), backward_hashes(&mut bigru)];
    let pinned: [[u64; 2]; 3] = [
        [0x110d60a26d8824e1, 0xaa9cf01e5fd00a0a],
        [0x7351ccf209ae839e, 0x2397123df1e8d737],
        [0x9156bd7ece20330d, 0x74d9c05e62b6b83d],
    ];
    assert_eq!(got, pinned, "rows Gru / Lstm / BiGru, columns dx / grads: {got:#018x?}");
}

#[test]
fn stacked_recurrent_training_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x7131);
    let mut net = Sequential::new();
    net.push(Dense::new(3, 6, Activation::Tanh, &mut rng));
    net.push(Gru::new(6, 5, &mut rng));
    net.push(Lstm::new(5, 4, &mut rng));
    net.push(Dense::new(4, 2, Activation::Identity, &mut rng));
    let data: Vec<(Matrix, usize)> =
        (0..10).map(|i| (sequence(3 + i % 4, 3, i as f32 * 0.7), i % 2)).collect();
    let mut opt = Adam::new(0.01);
    let config = TrainConfig { epochs: 3, batch_size: 4, ..Default::default() };
    // each sequence is classified by its last state; the loss gradient
    // enters at the last row and reaches every step through both scans
    let history = fit_batches(data.len(), &config, &mut rng, |chunk| {
        net.zero_grad();
        let mut loss = 0.0;
        for &i in chunk {
            let (x, y) = &data[i];
            let out = net.forward(x);
            let last = Matrix::row_vector(out.row(out.rows() - 1));
            let (l, g) = softmax_cross_entropy(&last, &[*y]);
            let mut grad = Matrix::zeros(out.rows(), out.cols());
            grad.row_mut(out.rows() - 1).copy_from_slice(g.row(0));
            let _ = net.backward(&grad);
            loss += f64::from(l);
        }
        opt.step(&mut net);
        (loss, chunk.len(), 0)
    });
    assert_eq!(history.len(), 3);
    let got = [hash(&net.param_vector()), hash(&net.grad_vector())];
    let pinned: [u64; 2] = [0xeba9166fb8426612, 0x32d62e540328f412];
    assert_eq!(got, pinned, "params / last batch's grads: {got:#018x?}");
}

#[test]
fn recurrent_initial_params_are_pinned() {
    let (mut gru, mut lstm, mut bigru) = layers();
    let got = [hash(&gru.param_vector()), hash(&lstm.param_vector()), hash(&bigru.param_vector())];
    let pinned: [u64; 3] = [0x3c80d67d35045656, 0x5b2d9b8f672e2b5f, 0x4cc6db6b4130147d];
    assert_eq!(got, pinned, "Gru::new / Lstm::new / BiGru::new: {got:#018x?}");
}
