//! 2-D convolutions, including the depthwise-separable factorisation that
//! powers MobileNets (paper §III-B, reference [29]).
//!
//! Images travel through the [`crate::Layer`] interface as flattened rows:
//! one example per row, channel-major `C × H × W` layout. A [`Conv2d`] with
//! `groups == in_channels` is a depthwise convolution; [`SeparableConv2d`]
//! composes it with a 1×1 pointwise convolution — the streamlined block
//! that cuts a standard convolution's `k²·C_in·C_out` multiplies down to
//! `k²·C_in + C_in·C_out` per output position.

use crate::activation::Activation;
use crate::layer::{Layer, LayerInfo};
use mdl_tensor::{Init, Matrix};
use rand::Rng;

/// Shape of a channel-major image batch row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageShape {
    /// Channels.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl ImageShape {
    /// Creates a shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self { channels, height, width }
    }

    /// Flattened feature width.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// `true` when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn idx(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.height + y) * self.width + x
    }
}

/// A grouped 2-D convolution with "same" zero padding and stride 1.
///
/// `groups == 1` is a standard convolution; `groups == in_channels`
/// (with `out_channels == in_channels`) is a depthwise convolution.
pub struct Conv2d {
    input_shape: ImageShape,
    out_channels: usize,
    kernel: usize,
    groups: usize,
    /// `out_channels` filters, each `1 × (k·k·in_per_group)`.
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    cache: Option<(Matrix, Matrix)>, // (input, pre-activation)
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d")
            .field("input", &self.input_shape)
            .field("out_channels", &self.out_channels)
            .field("kernel", &self.kernel)
            .field("groups", &self.groups)
            .finish()
    }
}

impl Conv2d {
    /// Creates a grouped convolution.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts, or the
    /// kernel is even (same-padding needs an odd kernel).
    pub fn new(
        input_shape: ImageShape,
        out_channels: usize,
        kernel: usize,
        groups: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel % 2 == 1, "same-padding convolution needs an odd kernel");
        assert!(groups >= 1, "need at least one group");
        assert_eq!(input_shape.channels % groups, 0, "groups must divide input channels");
        assert_eq!(out_channels % groups, 0, "groups must divide output channels");
        let in_per_group = input_shape.channels / groups;
        let fan_in = kernel * kernel * in_per_group;
        let std = (2.0 / fan_in as f32).sqrt();
        Self {
            input_shape,
            out_channels,
            kernel,
            groups,
            weight: Init::Normal { std }.sample(out_channels, fan_in, rng),
            bias: Matrix::zeros(1, out_channels),
            grad_weight: Matrix::zeros(out_channels, fan_in),
            grad_bias: Matrix::zeros(1, out_channels),
            activation,
            cache: None,
        }
    }

    /// A standard (dense) convolution.
    pub fn standard(
        input_shape: ImageShape,
        out_channels: usize,
        kernel: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(input_shape, out_channels, kernel, 1, activation, rng)
    }

    /// A depthwise convolution (one filter per channel).
    pub fn depthwise(
        input_shape: ImageShape,
        kernel: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let c = input_shape.channels;
        Self::new(input_shape, c, kernel, c, activation, rng)
    }

    /// Output image shape (same spatial size; `out_channels` channels).
    pub fn output_shape(&self) -> ImageShape {
        ImageShape::new(self.out_channels, self.input_shape.height, self.input_shape.width)
    }

    fn in_per_group(&self) -> usize {
        self.input_shape.channels / self.groups
    }

    fn out_per_group(&self) -> usize {
        self.out_channels / self.groups
    }

    /// Pre-activation feature maps for a batch.
    fn convolve(&self, x: &Matrix) -> Matrix {
        let shape = self.input_shape;
        assert_eq!(x.cols(), shape.len(), "conv input width mismatch");
        let out_shape = self.output_shape();
        let k = self.kernel as i32;
        let half = k / 2;
        let mut pre = Matrix::zeros(x.rows(), out_shape.len());

        for n in 0..x.rows() {
            let row = x.row(n);
            for oc in 0..self.out_channels {
                let g = oc / self.out_per_group();
                let filter = self.weight.row(oc);
                for oy in 0..shape.height {
                    for ox in 0..shape.width {
                        let mut acc = self.bias[(0, oc)];
                        let mut w_idx = 0usize;
                        for icg in 0..self.in_per_group() {
                            let ic = g * self.in_per_group() + icg;
                            for ky in -half..=half {
                                let y = oy as i32 + ky;
                                for kx in -half..=half {
                                    let xx = ox as i32 + kx;
                                    if y >= 0
                                        && (y as usize) < shape.height
                                        && xx >= 0
                                        && (xx as usize) < shape.width
                                    {
                                        acc += filter[w_idx]
                                            * row[shape.idx(ic, y as usize, xx as usize)];
                                    }
                                    w_idx += 1;
                                }
                            }
                        }
                        pre[(n, out_shape.idx(oc, oy, ox))] = acc;
                    }
                }
            }
        }
        pre
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.convolve(x);
        let out = self.activation.apply_matrix(&pre);
        self.cache = Some((x.clone(), pre));
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        self.activation.apply_matrix(&self.convolve(x))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (input, pre) = self.cache.as_ref().expect("backward called before forward").clone();
        let shape = self.input_shape;
        let out_shape = self.output_shape();
        let k = self.kernel as i32;
        let half = k / 2;
        let dpre = grad_out.hadamard(&self.activation.derivative_matrix(&pre));
        let mut dx = Matrix::zeros(input.rows(), input.cols());

        for n in 0..input.rows() {
            let row = input.row(n);
            for oc in 0..self.out_channels {
                let g = oc / self.out_per_group();
                for oy in 0..shape.height {
                    for ox in 0..shape.width {
                        let d = dpre[(n, out_shape.idx(oc, oy, ox))];
                        if d == 0.0 {
                            continue;
                        }
                        self.grad_bias[(0, oc)] += d;
                        let mut w_idx = 0usize;
                        for icg in 0..self.in_per_group() {
                            let ic = g * self.in_per_group() + icg;
                            for ky in -half..=half {
                                let y = oy as i32 + ky;
                                for kx in -half..=half {
                                    let xx = ox as i32 + kx;
                                    if y >= 0
                                        && (y as usize) < shape.height
                                        && xx >= 0
                                        && (xx as usize) < shape.width
                                    {
                                        let in_idx = shape.idx(ic, y as usize, xx as usize);
                                        self.grad_weight[(oc, w_idx)] += d * row[in_idx];
                                        dx[(n, in_idx)] += d * self.weight[(oc, w_idx)];
                                    }
                                    w_idx += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn info(&self) -> LayerInfo {
        let fan_in = self.kernel * self.kernel * self.in_per_group();
        let positions = self.input_shape.height * self.input_shape.width;
        LayerInfo {
            kind: "conv2d",
            in_dim: self.input_shape.len(),
            out_dim: self.output_shape().len(),
            params: self.weight.len() + self.bias.len(),
            macs: (self.out_channels * positions * fan_in) as u64,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A depthwise-separable convolution: depthwise `k×k` followed by a 1×1
/// pointwise convolution — the MobileNets building block.
#[derive(Debug)]
pub struct SeparableConv2d {
    depthwise: Conv2d,
    pointwise: Conv2d,
}

impl SeparableConv2d {
    /// Creates the block. The nonlinearity sits after each stage, as in
    /// the MobileNets design.
    pub fn new(
        input_shape: ImageShape,
        out_channels: usize,
        kernel: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let depthwise = Conv2d::depthwise(input_shape, kernel, activation, rng);
        let mid_shape = depthwise.output_shape();
        let pointwise = Conv2d::standard(mid_shape, out_channels, 1, activation, rng);
        Self { depthwise, pointwise }
    }

    /// Output image shape.
    pub fn output_shape(&self) -> ImageShape {
        self.pointwise.output_shape()
    }
}

impl Layer for SeparableConv2d {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mid = self.depthwise.forward(x);
        self.pointwise.forward(&mid)
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        self.pointwise.forward_eval(&self.depthwise.forward_eval(x))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let d_mid = self.pointwise.backward(grad_out);
        self.depthwise.backward(&d_mid)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.depthwise.visit_params(f);
        self.pointwise.visit_params(f);
    }

    fn info(&self) -> LayerInfo {
        let d = self.depthwise.info();
        let p = self.pointwise.info();
        LayerInfo {
            kind: "separable-conv2d",
            in_dim: d.in_dim,
            out_dim: p.out_dim,
            params: d.params + p.params,
            macs: d.macs + p.macs,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// 2×2 average pooling (stride 2), shrinking each spatial dimension by half.
#[derive(Debug)]
pub struct AvgPool2d {
    input_shape: ImageShape,
}

impl AvgPool2d {
    /// Creates the pool.
    ///
    /// # Panics
    ///
    /// Panics if either spatial dimension is odd.
    pub fn new(input_shape: ImageShape) -> Self {
        assert!(
            input_shape.height.is_multiple_of(2) && input_shape.width.is_multiple_of(2),
            "2×2 pooling needs even spatial dimensions"
        );
        Self { input_shape }
    }

    /// Output image shape.
    pub fn output_shape(&self) -> ImageShape {
        ImageShape::new(
            self.input_shape.channels,
            self.input_shape.height / 2,
            self.input_shape.width / 2,
        )
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_eval(x)
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let shape = self.input_shape;
        assert_eq!(x.cols(), shape.len(), "pool input width mismatch");
        let out_shape = self.output_shape();
        let mut out = Matrix::zeros(x.rows(), out_shape.len());
        for n in 0..x.rows() {
            let row = x.row(n);
            for c in 0..shape.channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let mut acc = 0.0f32;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                acc += row[shape.idx(c, 2 * oy + dy, 2 * ox + dx)];
                            }
                        }
                        out[(n, out_shape.idx(c, oy, ox))] = acc / 4.0;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let shape = self.input_shape;
        let out_shape = self.output_shape();
        let mut dx = Matrix::zeros(grad_out.rows(), shape.len());
        for n in 0..grad_out.rows() {
            for c in 0..shape.channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let d = grad_out[(n, out_shape.idx(c, oy, ox))] / 4.0;
                        for dy in 0..2 {
                            for dxx in 0..2 {
                                dx[(n, shape.idx(c, 2 * oy + dy, 2 * ox + dxx))] += d;
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn info(&self) -> LayerInfo {
        LayerInfo {
            kind: "avgpool2d",
            in_dim: self.input_shape.len(),
            out_dim: self.output_shape().len(),
            params: 0,
            macs: self.input_shape.len() as u64,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grad_check(layer: &mut dyn Layer, x: &Matrix, picks: usize, tol: f32) {
        let base = layer.param_vector();
        layer.zero_grad();
        let _ = layer.forward(x);
        let out = layer.forward(x);
        layer.zero_grad();
        let dx = layer.backward(&Matrix::ones(out.rows(), out.cols()));
        let analytic = layer.grad_vector();

        let eps = 1e-3f32;
        let n = base.len();
        for i in 0..picks.min(n) {
            let k = i * n / picks.min(n).max(1);
            let mut plus = base.clone();
            plus[k] += eps;
            layer.set_param_vector(&plus);
            let lp = layer.forward(x).sum();
            let mut minus = base.clone();
            minus[k] -= eps;
            layer.set_param_vector(&minus);
            let lm = layer.forward(x).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic[k]).abs() < tol, "param {k}: fd={fd} vs {}", analytic[k]);
        }
        layer.set_param_vector(&base);
        // input gradient spot checks
        for k in [0usize, x.cols() / 2, x.cols() - 1] {
            let mut xp = x.clone();
            xp[(0, k)] += eps;
            let lp = layer.forward(&xp).sum();
            let mut xm = x.clone();
            xm[(0, k)] -= eps;
            let lm = layer.forward(&xm).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx[(0, k)]).abs() < tol, "input {k}: fd={fd} vs {}", dx[(0, k)]);
        }
    }

    #[test]
    fn identity_kernel_preserves_image() {
        let mut rng = StdRng::seed_from_u64(700);
        let shape = ImageShape::new(1, 4, 4);
        let mut conv = Conv2d::standard(shape, 1, 3, Activation::Identity, &mut rng);
        // centre-tap identity kernel
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        w.push(0.0); // bias
        conv.set_param_vector(&w);
        let x = Matrix::from_fn(2, 16, |r, c| (r * 16 + c) as f32 * 0.1);
        let y = conv.forward(&x);
        assert!(y.approx_eq(&x, 1e-6), "identity kernel must pass the image through");
    }

    #[test]
    fn shift_kernel_moves_pixels() {
        let mut rng = StdRng::seed_from_u64(701);
        let shape = ImageShape::new(1, 3, 3);
        let mut conv = Conv2d::standard(shape, 1, 3, Activation::Identity, &mut rng);
        // kernel that picks the left neighbour: w[(1,0)] position
        let mut w = vec![0.0f32; 9];
        w[3] = 1.0; // row 1, col 0 of the 3×3 kernel
        w.push(0.0);
        conv.set_param_vector(&w);
        let mut img = Matrix::zeros(1, 9);
        img[(0, 4)] = 1.0; // centre pixel
        let y = conv.forward(&img);
        // centre pixel should move right by one
        assert_eq!(y[(0, 5)], 1.0, "{y:?}");
        assert_eq!(y[(0, 4)], 0.0);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = StdRng::seed_from_u64(702);
        let shape = ImageShape::new(2, 4, 4);
        let mut conv = Conv2d::standard(shape, 3, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(2, shape.len(), |r, c| ((r * 31 + c) as f32 * 0.23).sin() * 0.5);
        grad_check(&mut conv, &x, 12, 2e-2);
    }

    #[test]
    fn depthwise_gradient_check_and_param_count() {
        let mut rng = StdRng::seed_from_u64(703);
        let shape = ImageShape::new(3, 4, 4);
        let mut conv = Conv2d::depthwise(shape, 3, Activation::Identity, &mut rng);
        assert_eq!(conv.info().params, 3 * 9 + 3, "one 3×3 filter per channel");
        let x = Matrix::from_fn(1, shape.len(), |_, c| ((c as f32) * 0.37).cos() * 0.5);
        grad_check(&mut conv, &x, 10, 2e-2);
    }

    #[test]
    fn separable_block_is_much_cheaper_than_standard() {
        let mut rng = StdRng::seed_from_u64(704);
        let shape = ImageShape::new(16, 8, 8);
        let standard = Conv2d::standard(shape, 32, 3, Activation::Relu, &mut rng);
        let separable = SeparableConv2d::new(shape, 32, 3, Activation::Relu, &mut rng);
        let s = standard.info();
        let p = separable.info();
        assert_eq!(s.out_dim, p.out_dim);
        assert!(
            p.params * 5 < s.params,
            "separable {} should be ≥5× smaller than standard {}",
            p.params,
            s.params
        );
        assert!(p.macs * 5 < s.macs, "and ≥5× fewer MACs: {} vs {}", p.macs, s.macs);
    }

    #[test]
    fn separable_gradient_check() {
        let mut rng = StdRng::seed_from_u64(705);
        let shape = ImageShape::new(2, 4, 4);
        let mut block = SeparableConv2d::new(shape, 3, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(1, shape.len(), |_, c| ((c as f32) * 0.41).sin() * 0.4);
        grad_check(&mut block, &x, 12, 2e-2);
    }

    #[test]
    fn avgpool_halves_and_averages() {
        let shape = ImageShape::new(1, 4, 4);
        let mut pool = AvgPool2d::new(shape);
        let x = Matrix::from_fn(1, 16, |_, c| c as f32);
        let y = pool.forward(&x);
        assert_eq!(y.cols(), 4);
        // top-left 2×2 block of [0,1;4,5] → 2.5
        assert_eq!(y[(0, 0)], 2.5);
        // backward distributes evenly
        let dx = pool.backward(&Matrix::ones(1, 4));
        assert!(dx.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn tiny_cnn_learns_digit_glyphs() {
        use crate::dense::Dense;
        use crate::optim::Adam;
        use crate::sequential::Sequential;
        use crate::trainer::{fit_classifier, TrainConfig};
        let mut rng = StdRng::seed_from_u64(706);
        let data = mdl_data::synthetic::synthetic_digits(600, 0.08, &mut rng);
        let (train, test) = data.split(0.75, &mut rng);

        let shape = ImageShape::new(1, 8, 8);
        let mut net = Sequential::new();
        let conv = Conv2d::standard(shape, 6, 3, Activation::Relu, &mut rng);
        let mid = conv.output_shape();
        net.push(conv);
        net.push(AvgPool2d::new(mid));
        net.push(Dense::new(6 * 4 * 4, 10, Activation::Identity, &mut rng));
        let mut opt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &train.x,
            &train.y,
            &TrainConfig { epochs: 20, ..Default::default() },
            &mut rng,
        );
        let acc = net.accuracy(&test.x, &test.y);
        assert!(acc > 0.78, "tiny CNN accuracy {acc}");
    }
}
