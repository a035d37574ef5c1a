//! Quantized inference: int8 Dense/GRU/LSTM forward passes that run the
//! [`mdl_tensor::kernel::int8`] GEMM end-to-end — integer weights,
//! integer activations, integer accumulation — with **no f32 round-trip**
//! of any matrix product.
//!
//! # Execution scheme
//!
//! Weights carry per-output-channel scales ([`Int8Matrix`]); activations
//! carry one per-tensor scale, chosen dynamically (calibration-free) from
//! the tensor that actually flows through. Between layers the activation
//! tensor stays int8: each layer reads quantized bytes, accumulates in
//! `i32`, folds the bias into the accumulator domain
//! (`round(b_j / (s_x · s_w_j))`), applies its nonlinearity in scalar
//! f32 on the rescaled accumulator values, and saturating-requantizes
//! the result for the next layer. Only the final layer emits f32 logits.
//!
//! Recurrent layers exploit the bounded hidden state: GRU and LSTM
//! hidden vectors satisfy `|h| ≤ 1` by construction (convex combination
//! of `tanh` outputs; `o ⊙ tanh(c)`), so `h` quantizes at the fixed
//! scale `1/127` with no dynamic pass. The whole-sequence input
//! projections `X·W` run as one int8 GEMM up front; each timestep then
//! performs only int8 recurrent matvecs plus scalar f32 gate math. The
//! LSTM cell state `c` is unbounded and stays f32 (it never enters a
//! matrix product). Gate biases likewise stay f32 for the recurrent
//! layers: a gate pre-activation mixes two accumulator domains (input
//! scale × weight scale vs. hidden scale × recurrent scale), so there is
//! no single integer domain to fold the bias into. GRU and LSTM are one
//! layer type with one scan; only the per-step gate math differs by cell.

use crate::activation::{sigmoid, Activation};
use crate::dense::Dense;
use crate::layer::LayerInfo;
use crate::plan::{Plan, PlanModel};
use crate::recurrent::{as_recurrent, CellKind};
use crate::sequential::Sequential;
use mdl_tensor::quant::{quantize_value, symmetric_scale, Int8Matrix};
use mdl_tensor::stats::softmax_rows;
use mdl_tensor::Matrix;

/// Fixed quantization scale for recurrent hidden states (`|h| ≤ 1`).
const H_SCALE: f32 = 1.0 / 127.0;

/// One pass over freshly-drained integer accumulators: folds the
/// accumulator-domain bias, dequantizes through `x_scale` and the
/// per-channel weight scales, applies the (monomorphized) activation
/// into `values`, and returns the running max-abs, folded in row-major
/// order.
fn drain_values<F: Fn(f32) -> f32>(
    acc: &[i32],
    bq: &[i32],
    scales: &[f32],
    x_scale: f32,
    out_dim: usize,
    values: &mut [f32],
    act: F,
) -> f32 {
    let mut max_abs = 0.0f32;
    for (row, vrow) in acc.chunks_exact(out_dim).zip(values.chunks_exact_mut(out_dim)) {
        for (((&a, v), &bqj), &sj) in row.iter().zip(vrow).zip(bq).zip(scales) {
            let val = act(a.saturating_add(bqj) as f32 * x_scale * sj);
            *v = val;
            max_abs = max_abs.max(val.abs());
        }
    }
    max_abs
}

/// Quantized fully-connected layer: int8 weights, accumulator-domain
/// integer bias, dynamic output requantization.
pub(crate) struct QDense {
    w: Int8Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

impl QDense {
    fn from_dense(d: &Dense) -> Self {
        Self {
            w: Int8Matrix::quantize(d.weight()),
            bias: d.bias().as_slice().to_vec(),
            activation: d.activation(),
        }
    }

    /// The layer's whole forward pass over raw slices: folds the f32 bias
    /// into the accumulator domain for this input scale
    /// (`bq_j = round(b_j / (s_x · s_w_j))`), fills the `rows × out`
    /// accumulator `acc` with one dispatched full-batch GEMM, then a
    /// single drain pass computes `act((acc + bq_j) · s_x · s_w_j)` —
    /// straight into an f32 `out`, or into `values` that an int8 `out`
    /// receives requantized by their max-abs. Returns that scale.
    pub(crate) fn eval_into(
        &self,
        x: &[i8],
        x_scale: f32,
        bq: &mut [i32],
        acc: &mut [i32],
        values: &mut [f32],
        out: Out<'_>,
    ) -> f32 {
        let (out_dim, scales) = (self.w.out_dim(), self.w.scales());
        let rows = acc.len() / out_dim;
        for ((slot, &b), &sw) in bq.iter_mut().zip(&self.bias).zip(scales) {
            *slot = (b / (x_scale * sw)).round() as i32;
        }
        self.w.gemm_into(rows, x, acc, false);
        let (values, requantized) = match out {
            Out::F32(o) => (o, None),
            Out::Int8(o) => (values, Some(o)),
        };
        // one arm per activation so the per-element apply constant-folds
        let max_abs = match self.activation {
            Activation::Identity => drain_values(acc, bq, scales, x_scale, out_dim, values, |v| v),
            Activation::Relu => drain_values(acc, bq, scales, x_scale, out_dim, values, |v| {
                Activation::Relu.apply(v)
            }),
            Activation::LeakyRelu(alpha) => {
                drain_values(acc, bq, scales, x_scale, out_dim, values, move |v| {
                    Activation::LeakyRelu(alpha).apply(v)
                })
            }
            Activation::Sigmoid => drain_values(acc, bq, scales, x_scale, out_dim, values, |v| {
                Activation::Sigmoid.apply(v)
            }),
            Activation::Tanh => drain_values(acc, bq, scales, x_scale, out_dim, values, |v| {
                Activation::Tanh.apply(v)
            }),
        };
        let scale = symmetric_scale(max_abs);
        if let Some(o) = requantized {
            for (slot, &v) in o.iter_mut().zip(values.iter()) {
                *slot = quantize_value(v, scale);
            }
        }
        scale
    }

    fn info(&self) -> LayerInfo {
        let (in_dim, out_dim) = (self.w.in_dim(), self.w.out_dim());
        LayerInfo {
            kind: "dense",
            in_dim,
            out_dim,
            params: in_dim * out_dim + out_dim,
            macs: (in_dim * out_dim) as u64,
        }
    }

    fn storage_bytes(&self) -> usize {
        self.w.storage_bytes() + 4 * self.bias.len()
    }
}

/// Where a quantized layer writes its `rows × out` result: int8 for the
/// next layer, or the model's f32 output when the layer is last.
pub(crate) enum Out<'a> {
    Int8(&'a mut [i8]),
    F32(&'a mut [f32]),
}

/// A scan's carried state and per-step scratch, each `h` wide.
#[derive(Default)]
struct StepState {
    h: Vec<f32>,
    h_q: Vec<i8>,
    /// LSTM cell state (stays f32 — unbounded, never enters a matrix product).
    c: Vec<f32>,
    /// GRU reset-gated state `r ⊙ h`, quantized at `h`'s scale.
    rh_q: Vec<i8>,
    /// Recurrent products `U_k · h`, gate-major (`gates × h`).
    rec: Vec<i32>,
}

/// Reusable workspace for [`QRecurrent::scan`]: the pre-sliced
/// per-sequence buffers the recurrence runs in, owned by the plan op that
/// scans.
#[derive(Default)]
pub(crate) struct QRecurrentWs {
    /// Whole-sequence gate bases, time-major: step `t` reads the
    /// `gates × h` block at `t · gates · h`.
    a: Vec<f32>,
    /// Integer scratch for one gate's whole-sequence input GEMM (`T × h`).
    acc: Vec<i32>,
    s: StepState,
}

impl QRecurrentWs {
    /// Sizes every buffer for a `t_len × h_dim` scan over `gates` gates and
    /// resets the hidden and cell state to zero. No-op on the heap once
    /// capacities fit.
    fn prepare(&mut self, gates: usize, t_len: usize, h_dim: usize) {
        self.a.resize(gates * t_len * h_dim, 0.0);
        self.acc.resize(t_len * h_dim, 0);
        let s = &mut self.s;
        for v in [&mut s.h, &mut s.c] {
            v.clear();
            v.resize(h_dim, 0.0);
        }
        s.h_q.clear();
        s.h_q.resize(h_dim, 0);
        s.rh_q.resize(h_dim, 0);
        s.rec.resize(gates * h_dim, 0);
    }
}

/// Quantized GRU or LSTM: per gate an int8 input kernel, an int8
/// recurrent kernel and an f32 bias, in the cell's gate order.
pub(crate) struct QRecurrent {
    cell: CellKind,
    wx: Vec<Int8Matrix>,
    u: Vec<Int8Matrix>,
    /// Gate biases (f32 — see module docs).
    b: Vec<Vec<f32>>,
}

impl QRecurrent {
    fn new(cell: CellKind, [wx, u, b]: [&[Matrix]; 3]) -> Self {
        let q = |ms: &[Matrix]| ms.iter().map(Int8Matrix::quantize).collect();
        Self { cell, wx: q(wx), u: q(u), b: b.iter().map(|b| b.as_slice().to_vec()).collect() }
    }

    fn hidden_dim(&self) -> usize {
        self.wx[0].out_dim()
    }

    /// A workspace pre-sized for `t_len`-step scans, so the first
    /// [`QRecurrent::scan`] already runs allocation-free.
    pub(crate) fn make_ws(&self, t_len: usize) -> QRecurrentWs {
        let mut ws = QRecurrentWs::default();
        ws.prepare(self.wx.len(), t_len, self.hidden_dim());
        ws
    }

    /// Runs the recurrence over `t_len` int8 steps in a caller-owned
    /// workspace and writes every step's hidden state into `out`: as f32,
    /// or quantized at the fixed [`H_SCALE`] for the next layer. Returns
    /// that scale.
    pub(crate) fn scan(
        &self,
        t_len: usize,
        x: &[i8],
        x_scale: f32,
        ws: &mut QRecurrentWs,
        mut out: Out<'_>,
    ) -> f32 {
        let (d, h_dim, gates) = (self.wx[0].in_dim(), self.hidden_dim(), self.wx.len());
        let kind = self.info().kind;
        assert_eq!(x.len(), t_len * d, "quantized {kind} input length mismatch");
        assert!(t_len > 0, "quantized {kind} requires a non-empty sequence");
        ws.prepare(gates, t_len, h_dim);
        let QRecurrentWs { a, acc, s } = ws;

        // whole-sequence input projections: one int8 GEMM per gate,
        // rescaled (+ bias) into f32 pre-activation bases
        for (k, (w, b)) in self.wx.iter().zip(&self.b).enumerate() {
            w.gemm_into(t_len, x, acc, false);
            for (acc_t, a_t) in acc.chunks_exact(h_dim).zip(a.chunks_exact_mut(gates * h_dim)) {
                let a_k = &mut a_t[k * h_dim..(k + 1) * h_dim];
                for (((slot, &v), &sw), &bj) in a_k.iter_mut().zip(acc_t).zip(w.scales()).zip(b) {
                    *slot = v as f32 * x_scale * sw + bj;
                }
            }
        }

        let step: fn(&Self, &[f32], &mut StepState) = match self.cell {
            CellKind::Gru => Self::gru_step,
            CellKind::Lstm => Self::lstm_step,
        };
        for (t, base) in a.chunks_exact(gates * h_dim).enumerate() {
            step(self, base, s);
            let span = t * h_dim..(t + 1) * h_dim;
            match &mut out {
                Out::F32(o) => o[span].copy_from_slice(&s.h),
                Out::Int8(o) => o[span].copy_from_slice(&s.h_q),
            }
        }
        H_SCALE
    }

    /// Gate `k`'s pre-activation at unit `j`: its input base plus the
    /// dequantized recurrent product.
    #[inline]
    fn pre(&self, base: &[f32], rec: &[i32], h_dim: usize, k: usize, j: usize) -> f32 {
        let kj = k * h_dim + j;
        base[kj] + rec[kj] as f32 * H_SCALE * self.u[k].scales()[j]
    }

    fn gru_step(&self, base: &[f32], s: &mut StepState) {
        let h_dim = s.h.len();
        let StepState { h, h_q, rh_q, rec, .. } = s;
        for (u, rec_k) in self.u[..2].iter().zip(rec.chunks_exact_mut(h_dim)) {
            u.gemm_into(1, h_q, rec_k, false);
        }
        // |r ⊙ h| ≤ |h| ≤ 1, so the reset-gated state shares h's scale
        for j in 0..h_dim {
            let r = sigmoid(self.pre(base, rec, h_dim, 0, j));
            rh_q[j] = quantize_value(r * h[j], H_SCALE);
        }
        self.u[2].gemm_into(1, rh_q, &mut rec[2 * h_dim..], false);
        for j in 0..h_dim {
            let z = sigmoid(self.pre(base, rec, h_dim, 1, j));
            let hc = self.pre(base, rec, h_dim, 2, j).tanh();
            h[j] = z * h[j] + (1.0 - z) * hc;
            h_q[j] = quantize_value(h[j], H_SCALE);
        }
    }

    fn lstm_step(&self, base: &[f32], s: &mut StepState) {
        let h_dim = s.h.len();
        let StepState { h, h_q, c, rec, .. } = s;
        for (u, rec_k) in self.u.iter().zip(rec.chunks_exact_mut(h_dim)) {
            u.gemm_into(1, h_q, rec_k, false);
        }
        for j in 0..h_dim {
            let pre = |k: usize| self.pre(base, rec, h_dim, k, j);
            let (i, f, o, g) = (sigmoid(pre(0)), sigmoid(pre(1)), sigmoid(pre(2)), pre(3).tanh());
            c[j] = f * c[j] + i * g;
            h[j] = o * c[j].tanh();
            h_q[j] = quantize_value(h[j], H_SCALE);
        }
    }

    fn info(&self) -> LayerInfo {
        self.cell.info(self.wx[0].in_dim(), self.hidden_dim())
    }

    fn storage_bytes(&self) -> usize {
        self.wx.iter().chain(&self.u).map(Int8Matrix::storage_bytes).sum::<usize>()
            + self.b.iter().map(|b| 4 * b.len()).sum::<usize>()
    }
}

/// One layer of a [`QuantizedModel`] — crate-visible so the plan
/// compiler ([`crate::plan`]) can specialize ops per variant.
pub(crate) enum QLayer {
    Dense(QDense),
    Recurrent(QRecurrent),
}

impl QLayer {
    pub(crate) fn info(&self) -> LayerInfo {
        match self {
            QLayer::Dense(d) => d.info(),
            QLayer::Recurrent(r) => r.info(),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            QLayer::Dense(d) => d.storage_bytes(),
            QLayer::Recurrent(r) => r.storage_bytes(),
        }
    }
}

/// An int8 model executing entirely on the quantized path: every matrix
/// product runs in the [`mdl_tensor::kernel::int8`] kernel, activations
/// stay int8 between layers, and only the final layer emits f32 logits.
///
/// Built from a trained f32 [`Sequential`] ([`QuantizedModel::from_model`])
/// or assembled directly from quantized parts
/// ([`QuantizedModel::from_dense_parts`] — the `mdl-compress` artifact
/// bridge). Inference is read-only (`&self`), so a model can be shared
/// behind an `Arc` exactly like the f32 eval path.
pub struct QuantizedModel {
    layers: Vec<QLayer>,
}

impl std::fmt::Debug for QuantizedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedModel")
            .field("layers", &self.layers.len())
            .field("storage_bytes", &self.storage_bytes())
            .finish()
    }
}

impl QuantizedModel {
    /// Quantizes a trained f32 model. Returns `None` if any layer is not
    /// Dense/GRU/LSTM (the quantized path covers the paper's model
    /// family; anything else keeps serving f32).
    pub fn from_model(model: &Sequential) -> Option<Self> {
        let mut layers = Vec::new();
        for layer in model.layers() {
            let any = layer.as_any()?;
            if let Some(d) = any.downcast_ref::<Dense>() {
                layers.push(QLayer::Dense(QDense::from_dense(d)));
            } else if let Some(r) = as_recurrent(any) {
                layers.push(QLayer::Recurrent(QRecurrent::new(r.cell(), r.kernels())));
            } else {
                return None;
            }
        }
        if layers.is_empty() {
            return None;
        }
        Some(Self { layers })
    }

    /// Assembles an all-dense quantized model from already-quantized
    /// parts: `(weights, bias, activation)` per layer, in order. This is
    /// how a `mdl_compress::quantize` artifact becomes executable without
    /// a f32 weight round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, a bias length mismatches its weight
    /// matrix's output dimension, or a layer's input width is not the
    /// previous layer's output width.
    pub fn from_dense_parts(parts: Vec<(Int8Matrix, Vec<f32>, Activation)>) -> Self {
        assert!(!parts.is_empty(), "quantized model needs at least one layer");
        for (i, pair) in parts.windows(2).enumerate() {
            let (produced, expected) = (pair[0].0.out_dim(), pair[1].0.in_dim());
            assert_eq!(
                produced,
                expected,
                "layer {} expects width {expected}, layer {i} produces {produced}",
                i + 1
            );
        }
        let layers = parts
            .into_iter()
            .map(|(w, bias, activation)| {
                assert_eq!(bias.len(), w.out_dim(), "bias length must match output channels");
                QLayer::Dense(QDense { w, bias, activation })
            })
            .collect();
        Self { layers }
    }

    /// Read-only quantized forward pass; returns f32 logits. Compiles a
    /// [`Plan`] for `x`'s shape and runs it once, so this is the same
    /// code a cached serving plan replays; callers with a stable shape
    /// keep their own plan to skip the per-call compile.
    ///
    /// A zero-row input yields an empty `0 × out_dim` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width is not [`QuantizedModel::input_dim`].
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        Plan::run_once(PlanModel::Int8(self), 0..self.layers.len(), x)
            .unwrap_or_else(|e| panic!("quantized model input width mismatch: {e}"))
    }

    /// Class probabilities (softmax over the final layer's outputs).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        softmax_rows(&self.forward_eval(x))
    }

    /// Hard class predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.forward_eval(x).argmax_rows()
    }

    /// Fraction of rows whose argmax matches the label.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f64 {
        let pred = self.predict(x);
        let correct = pred.iter().zip(labels.iter()).filter(|(p, y)| p == y).count();
        correct as f64 / labels.len().max(1) as f64
    }

    /// Input width expected by the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers[0].info().in_dim
    }

    /// The quantized layer stack (crate-visible for the plan compiler).
    pub(crate) fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Per-layer structural descriptions (same kinds/dims/macs as the
    /// f32 model this was quantized from).
    pub fn layer_infos(&self) -> Vec<LayerInfo> {
        self.layers.iter().map(QLayer::info).collect()
    }

    /// Total multiply–accumulate count per example.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.info().macs).sum()
    }

    /// Bytes held by the quantized representation (int8 weights +
    /// per-channel scales + f32 biases) — the artifact-size story the
    /// paper tells (§IV: int8 conv params at 340 KB).
    pub fn storage_bytes(&self) -> usize {
        self.layers.iter().map(QLayer::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dropout;
    use crate::layer::Layer;
    use crate::recurrent::{Gru, Lstm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(12, 32, Activation::Relu, &mut rng));
        net.push(Dense::new(32, 16, Activation::Tanh, &mut rng));
        net.push(Dense::new(16, 4, Activation::Identity, &mut rng));
        net
    }

    fn probe(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.31).sin())
    }

    #[test]
    fn quantized_dense_tracks_f32_outputs() {
        let net = dense_net(9);
        let q = QuantizedModel::from_model(&net).expect("all-dense quantizes");
        let x = probe(6, 12);
        let f = net.forward_eval(&x);
        let g = q.forward_eval(&x);
        assert_eq!(f.shape(), g.shape());
        let scale = f.max_abs().max(1e-6);
        for (a, b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() < 0.15 * scale, "f32 {a} vs int8 {b}");
        }
        // argmax agreement on well-separated logits
        assert_eq!(net.predict(&x), q.predict(&x));
    }

    #[test]
    fn quantized_recurrent_layers_track_f32() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new();
        net.push(Gru::new(5, 12, &mut rng));
        net.push(Lstm::new(12, 8, &mut rng));
        net.push(Dense::new(8, 3, Activation::Identity, &mut rng));
        let q = QuantizedModel::from_model(&net).expect("gru/lstm quantize");
        let x = probe(20, 5);
        let f = net.forward_eval(&x);
        let g = q.forward_eval(&x);
        assert_eq!(f.shape(), g.shape());
        for (a, b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() < 0.12, "f32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn unsupported_layer_yields_none() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, Activation::Relu, &mut rng));
        net.push(Dropout::new(4, 0.5, 7));
        assert!(QuantizedModel::from_model(&net).is_none());
        assert!(QuantizedModel::from_model(&Sequential::new()).is_none());
    }

    #[test]
    fn int8_storage_is_a_quarter_of_f32() {
        let net = dense_net(2);
        let q = QuantizedModel::from_model(&net).expect("quantizes");
        let f32_bytes: usize = q.layer_infos().iter().map(|i| 4 * i.params).sum();
        // ~4x on the weights; per-channel scales and f32 biases eat a bit
        // of the ratio on these small layers
        assert!(
            (q.storage_bytes() as f64) < 0.4 * f32_bytes as f64,
            "int8 ({}) must be well under half of f32 ({f32_bytes})",
            q.storage_bytes()
        );
    }

    #[test]
    fn quantized_model_is_deterministic() {
        let net = dense_net(5);
        let q = QuantizedModel::from_model(&net).expect("quantizes");
        let x = probe(3, 12);
        let a = q.forward_eval(&x);
        let b = q.forward_eval(&x);
        assert!(a.as_slice().iter().zip(b.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn zero_row_input_yields_an_empty_output() {
        let net = dense_net(3);
        let q = QuantizedModel::from_model(&net).expect("quantizes");
        let empty = Matrix::zeros(0, 12);
        assert_eq!(q.forward_eval(&empty).shape(), (0, 4));
        assert!(q.predict(&empty).is_empty());
        assert_eq!(q.accuracy(&empty, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch: layer 0 expects width 12, plan feeds 5")]
    fn wrong_input_width_panics_with_expected_and_got() {
        let net = dense_net(3);
        let q = QuantizedModel::from_model(&net).expect("quantizes");
        let _ = q.forward_eval(&probe(2, 5));
    }

    #[test]
    #[should_panic(expected = "layer 1 expects width 6, layer 0 produces 8")]
    fn dense_parts_whose_widths_do_not_chain_are_rejected_at_construction() {
        let part = |d_in, d_out| {
            (Int8Matrix::quantize(&Matrix::ones(d_in, d_out)), vec![0.0; d_out], Activation::Relu)
        };
        let _ = QuantizedModel::from_dense_parts(vec![part(4, 8), part(6, 3)]);
    }

    #[test]
    fn forward_after_training_mode_forward() {
        // from_model must not disturb the f32 model it reads
        let mut net = dense_net(11);
        let x = probe(2, 12);
        let before = net.forward(&x);
        let _q = QuantizedModel::from_model(&net).expect("quantizes");
        let after = net.forward(&x);
        assert!(before.approx_eq(&after, 0.0));
    }
}
