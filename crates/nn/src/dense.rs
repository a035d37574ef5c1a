//! Fully connected (dense) layer and inverted dropout.

use crate::activation::Activation;
use crate::layer::{Layer, LayerInfo};
use mdl_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense layer: `y = act(x · W + b)` with `W: in × out`, `b: 1 × out`.
///
/// # Examples
///
/// ```
/// use mdl_nn::{Dense, Activation, Layer};
/// use mdl_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let layer = Dense::new(3, 2, Activation::Relu, &mut rng);
/// let y = layer.forward_eval(&Matrix::ones(4, 3));
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    cache: Option<DenseCache>,
    /// Reused `dpre` buffer for backward.
    scratch: Matrix,
}

#[derive(Clone, Default)]
struct DenseCache {
    input: Matrix,
    pre_activation: Matrix,
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense")
            .field("in_dim", &self.weight.rows())
            .field("out_dim", &self.weight.cols())
            .field("activation", &self.activation)
            .finish()
    }
}

impl Dense {
    /// Creates a dense layer with Xavier-initialised weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Self::with_init(in_dim, out_dim, activation, Init::Xavier, rng)
    }

    /// Creates a dense layer with an explicit initialisation scheme.
    pub fn with_init(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            weight: init.sample(in_dim, out_dim, rng),
            bias: Matrix::zeros(1, out_dim),
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            activation,
            cache: None,
            scratch: Matrix::default(),
        }
    }

    /// Builds a dense layer directly from a weight matrix and bias vector.
    ///
    /// Used by the compression codecs to materialise reconstructed layers.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Matrix, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weight.cols(), "bias width must match weight columns");
        let (r, c) = weight.shape();
        Self {
            weight,
            bias,
            grad_weight: Matrix::zeros(r, c),
            grad_bias: Matrix::zeros(1, c),
            activation,
            cache: None,
            scratch: Matrix::default(),
        }
    }

    /// The weight matrix (`in × out`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Mutable access to the weight matrix (used by pruning/quantization).
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }

    /// The bias row vector (`1 × out`).
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Slice-level eval shared by [`Layer::forward_eval`] and the plan
    /// executor: `out = act(x · W + b)` with `x: rows × in`, `out: rows ×
    /// out`, no allocation. The activation runs inside the GEMM kernel's
    /// drain ([`mdl_tensor::kernel::gemm_bias_act`]'s epilogue).
    pub(crate) fn eval_slice_into(&self, rows: usize, x: &[f32], out: &mut [f32]) {
        use mdl_tensor::kernel::{gemm_bias_act, NO_EPI};
        let (in_dim, out_dim) = self.weight.shape();
        assert_eq!(x.len(), rows * in_dim, "dense eval input length mismatch");
        assert_eq!(out.len(), rows * out_dim, "dense eval output length mismatch");
        let (w, b) = (self.weight.as_slice(), self.bias.as_slice());
        // One arm per activation so each epilogue monomorphizes with the
        // variant constant-folded: the kernel's per-element call inlines
        // to the bare max/exp, not a match.
        match self.activation {
            Activation::Identity => gemm_bias_act(rows, out_dim, in_dim, x, w, b, NO_EPI, out),
            Activation::Relu => {
                let epi = |v: f32| Activation::Relu.apply(v);
                gemm_bias_act(rows, out_dim, in_dim, x, w, b, Some(&epi), out);
            }
            Activation::LeakyRelu(alpha) => {
                let epi = move |v: f32| Activation::LeakyRelu(alpha).apply(v);
                gemm_bias_act(rows, out_dim, in_dim, x, w, b, Some(&epi), out);
            }
            Activation::Sigmoid => {
                let epi = |v: f32| Activation::Sigmoid.apply(v);
                gemm_bias_act(rows, out_dim, in_dim, x, w, b, Some(&epi), out);
            }
            Activation::Tanh => {
                let epi = |v: f32| Activation::Tanh.apply(v);
                gemm_bias_act(rows, out_dim, in_dim, x, w, b, Some(&epi), out);
            }
        }
    }
}

impl Layer for Dense {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        // take/restore the cache so its buffers are reused across steps:
        // the fused x·W + b lands straight in `pre_activation`.
        let mut cache = self.cache.take().unwrap_or_default();
        cache.input.copy_from(x);
        x.matmul_bias_into(&self.weight, &self.bias, &mut cache.pre_activation);
        let out = self.activation.apply_matrix(&cache.pre_activation);
        self.cache = Some(cache);
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        out.resize_to(x.rows(), self.weight.cols());
        self.eval_slice_into(x.rows(), x.as_slice(), out.as_mut_slice());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward called before forward");
        // dpre = grad_out ⊙ act'(pre), built in the reused scratch buffer
        let act = self.activation;
        let pre = &cache.pre_activation;
        assert_eq!(grad_out.shape(), pre.shape(), "Dense grad shape mismatch");
        self.scratch.resize_to(pre.rows(), pre.cols());
        for ((d, &g), &p) in
            self.scratch.as_mut_slice().iter_mut().zip(grad_out.as_slice()).zip(pre.as_slice())
        {
            *d = g * act.derivative(p);
        }
        cache.input.matmul_tn_acc(&self.scratch, &mut self.grad_weight);
        self.scratch.sum_rows_acc(&mut self.grad_bias);
        self.scratch.matmul_nt(&self.weight)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn info(&self) -> LayerInfo {
        let (in_dim, out_dim) = self.weight.shape();
        LayerInfo {
            kind: "dense",
            in_dim,
            out_dim,
            params: self.weight.len() + self.bias.len(),
            macs: (in_dim * out_dim) as u64,
        }
    }
}

/// Inverted dropout: scales kept units by `1 / keep_prob` during training so
/// evaluation needs no rescaling.
pub struct Dropout {
    drop_prob: f32,
    rng: StdRng,
    mask: Option<Matrix>,
    dim: usize,
}

impl std::fmt::Debug for Dropout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dropout").field("drop_prob", &self.drop_prob).finish()
    }
}

impl Dropout {
    /// Creates a dropout layer dropping units with probability `drop_prob`.
    ///
    /// `dim` is the feature width (reported by [`Layer::info`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= drop_prob < 1.0`.
    pub fn new(dim: usize, drop_prob: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&drop_prob), "drop_prob must be in [0, 1)");
        Self { drop_prob, rng: StdRng::seed_from_u64(seed), mask: None, dim }
    }
}

impl Layer for Dropout {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let keep = 1.0 - self.drop_prob;
        let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
            if self.rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = x.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        x.clone()
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        grad_out.hadamard(self.mask.as_ref().expect("backward called before forward"))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn info(&self) -> LayerInfo {
        LayerInfo { kind: "dropout", in_dim: self.dim, out_dim: self.dim, params: 0, macs: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamVector;
    use rand::rngs::StdRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(3, 4, Activation::Identity, &mut rng);
        layer.set_param_vector(&[0.0; 12 + 4]);
        let y = layer.forward_eval(&Matrix::ones(2, 3));
        assert_eq!(y.shape(), (2, 4));
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn identity_layer_passes_through() {
        let w = Matrix::identity(3);
        let b = Matrix::zeros(1, 3);
        let layer = Dense::from_parts(w, b, Activation::Identity);
        let x = Matrix::from_rows(&[&[1.0, -2.0, 3.0]]);
        assert_eq!(layer.forward_eval(&x), x);
    }

    #[test]
    fn param_vector_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 5, Activation::Relu, &mut rng);
        let v = layer.param_vector();
        assert_eq!(v.len(), 4 * 5 + 5);
        let mut v2 = v.clone();
        v2[0] = 42.0;
        layer.set_param_vector(&v2);
        assert_eq!(layer.param_vector()[0], 42.0);
        assert_eq!(layer.num_params(), 25);
    }

    #[test]
    fn backward_gradient_check() {
        // finite-difference check of dL/dW for L = sum(y) with tanh
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -0.2, 0.8], &[-1.0, 0.3, 0.1]]);
        let base = layer.param_vector();

        layer.zero_grad();
        let _ = layer.forward(&x);
        let grad_ones = Matrix::ones(2, 2);
        let _ = layer.backward(&grad_ones);
        let analytic = layer.grad_vector();

        let eps = 1e-3f32;
        for k in 0..base.len() {
            let mut plus = base.clone();
            plus[k] += eps;
            layer.set_param_vector(&plus);
            let lp = layer.forward(&x).sum();
            let mut minus = base.clone();
            minus[k] -= eps;
            layer.set_param_vector(&minus);
            let lm = layer.forward(&x).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic[k]).abs() < 1e-2, "param {k}: fd={fd} analytic={}", analytic[k]);
        }
    }

    #[test]
    fn backward_input_gradient_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(3, 2, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, 0.2, -0.3]]);
        let _ = layer.forward(&x);
        let gin = layer.backward(&Matrix::ones(1, 2));
        let eps = 1e-3f32;
        for k in 0..3 {
            let mut xp = x.clone();
            xp[(0, k)] += eps;
            let lp = layer.forward(&xp).sum();
            let mut xm = x.clone();
            xm[(0, k)] -= eps;
            let lm = layer.forward(&xm).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gin[(0, k)]).abs() < 1e-3, "input {k}: fd={fd} vs {}", gin[(0, k)]);
        }
    }

    #[test]
    fn dropout_eval_is_identity_train_masks() {
        let mut d = Dropout::new(8, 0.5, 99);
        let x = Matrix::ones(16, 8);
        assert_eq!(d.forward_eval(&x), x);
        let y = d.forward(&x);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 10 && zeros < 120, "zeros={zeros}");
        // kept entries are scaled by 1/keep = 2.0
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(4, 0.5, 7);
        let x = Matrix::ones(2, 4);
        let y = d.forward(&x);
        let g = d.backward(&Matrix::ones(2, 4));
        assert_eq!(y, g);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn dropout_backward_before_forward_panics() {
        let mut d = Dropout::new(4, 0.5, 7);
        // `forward_eval` stores no mask, so it does not count as a forward
        let _ = d.forward_eval(&Matrix::ones(2, 4));
        let _ = d.backward(&Matrix::ones(2, 4));
    }

    #[test]
    fn info_reports_macs() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = Dense::new(128, 64, Activation::Relu, &mut rng);
        let info = layer.info();
        assert_eq!(info.macs, 128 * 64);
        assert_eq!(info.params, 128 * 64 + 64);
        assert_eq!(info.kind, "dense");
    }
}
