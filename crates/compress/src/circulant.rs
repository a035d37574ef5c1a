//! Block-circulant layers with FFT-based products (CirCNN, paper
//! reference [14]): an `n × n` block is represented by a single length-`n`
//! generator vector, cutting storage `n×` and compute from `O(n²)` to
//! `O(n log n)`.

use mdl_nn::{Activation, Layer, LayerInfo};
use mdl_tensor::fft::circular_convolve;
use mdl_tensor::{Init, Matrix};
use rand::Rng;

/// Reverses a circulant generator: `rev(c)[k] = c[(b − k) mod b]`, so that
/// `circ(c)ᵀ = circ(rev(c))`.
fn rev_gen(c: &[f32]) -> Vec<f32> {
    let b = c.len();
    (0..b).map(|k| c[(b - k) % b]).collect()
}

/// A dense-equivalent layer built from a grid of circulant blocks.
///
/// Input width `in_dim = b · p`, output width `out_dim = b · q`; the weight
/// grid holds `p × q` generator vectors of length `b` (block size must be a
/// power of two for the FFT).
pub struct BlockCirculant {
    block: usize,
    in_blocks: usize,
    out_blocks: usize,
    /// generators\[i\]\[j\] is the block mapping input block `i` → output `j`.
    generators: Vec<Vec<Matrix>>, // stored as 1 × block matrices
    grads: Vec<Vec<Matrix>>,
    bias: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    cache: Option<(Matrix, Matrix)>, // (input, pre-activation)
}

impl std::fmt::Debug for BlockCirculant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCirculant")
            .field("block", &self.block)
            .field("in_dim", &(self.block * self.in_blocks))
            .field("out_dim", &(self.block * self.out_blocks))
            .finish()
    }
}

impl BlockCirculant {
    /// Creates a block-circulant layer.
    ///
    /// # Panics
    ///
    /// Panics unless `block` is a power of two dividing both widths.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        block: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        assert_eq!(in_dim % block, 0, "block must divide the input width");
        assert_eq!(out_dim % block, 0, "block must divide the output width");
        let in_blocks = in_dim / block;
        let out_blocks = out_dim / block;
        let std = (2.0 / in_dim as f32).sqrt();
        let generators: Vec<Vec<Matrix>> = (0..in_blocks)
            .map(|_| (0..out_blocks).map(|_| Init::Normal { std }.sample(1, block, rng)).collect())
            .collect();
        let grads = (0..in_blocks)
            .map(|_| (0..out_blocks).map(|_| Matrix::zeros(1, block)).collect())
            .collect();
        Self {
            block,
            in_blocks,
            out_blocks,
            generators,
            grads,
            bias: Matrix::zeros(1, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            activation,
            cache: None,
        }
    }

    /// Block size `b`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Materialises the equivalent dense weight matrix (`in × out`).
    ///
    /// `W[i·b + k, j·b + t] = c_ij[(t − k) mod b]` so that
    /// `y_j = Σ_i circ(c_ij) · x_i` matches `y = x · W`.
    pub fn to_dense_weight(&self) -> Matrix {
        let b = self.block;
        let mut w = Matrix::zeros(self.in_blocks * b, self.out_blocks * b);
        for (i, row) in self.generators.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                for k in 0..b {
                    for t in 0..b {
                        w[(i * b + k, j * b + t)] = c[(0, (t + b - k) % b)];
                    }
                }
            }
        }
        w
    }

    /// Pre-activation outputs via the FFT block products.
    fn pre_activation(&self, x: &Matrix) -> Matrix {
        let b = self.block;
        assert_eq!(x.cols(), b * self.in_blocks, "circulant input width mismatch");
        let mut pre = Matrix::zeros(x.rows(), b * self.out_blocks);
        for r in 0..x.rows() {
            for j in 0..self.out_blocks {
                let mut acc = vec![0.0f32; b];
                for i in 0..self.in_blocks {
                    let xi = &x.row(r)[i * b..(i + 1) * b];
                    let prod = circular_convolve(self.generators[i][j].row(0), xi);
                    for (a, p) in acc.iter_mut().zip(prod.iter()) {
                        *a += p;
                    }
                }
                for (t, &a) in acc.iter().enumerate() {
                    pre[(r, j * b + t)] = a + self.bias[(0, j * b + t)];
                }
            }
        }
        pre
    }
}

impl Layer for BlockCirculant {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.pre_activation(x);
        let out = self.activation.apply_matrix(&pre);
        self.cache = Some((x.clone(), pre));
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        self.activation.apply_matrix(&self.pre_activation(x))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (input, pre) = self.cache.as_ref().expect("backward called before forward").clone();
        let b = self.block;
        let dpre = grad_out.hadamard(&self.activation.derivative_matrix(&pre));
        self.grad_bias.add_assign(&dpre.sum_rows());

        let mut dx = Matrix::zeros(input.rows(), input.cols());
        for r in 0..input.rows() {
            for j in 0..self.out_blocks {
                let dy = &dpre.row(r)[j * b..(j + 1) * b];
                for i in 0..self.in_blocks {
                    let xi = &input.row(r)[i * b..(i + 1) * b];
                    // dL/dc = dy ⊛ rev(x)
                    let dc = circular_convolve(dy, &rev_gen(xi));
                    for (g, &v) in self.grads[i][j].as_mut_slice().iter_mut().zip(dc.iter()) {
                        *g += v;
                    }
                    // dL/dx = dy ⊛ rev(c)
                    let dxi = circular_convolve(dy, &rev_gen(self.generators[i][j].row(0)));
                    for (t, &v) in dxi.iter().enumerate() {
                        dx[(r, i * b + t)] += v;
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for (grow, vrow) in self.grads.iter_mut().zip(self.generators.iter_mut()) {
            for (g, v) in grow.iter_mut().zip(vrow.iter_mut()) {
                f(v, g);
            }
        }
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn info(&self) -> LayerInfo {
        let b = self.block as u64;
        let in_dim = self.block * self.in_blocks;
        let out_dim = self.block * self.out_blocks;
        let blocks = (self.in_blocks * self.out_blocks) as u64;
        LayerInfo {
            kind: "block-circulant",
            in_dim,
            out_dim,
            params: self.in_blocks * self.out_blocks * self.block + out_dim,
            // FFT cost per block: ~ 3 b log2(b) butterflies ≈ macs
            macs: blocks * 3 * b * (b.max(2).ilog2() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_nn::ParamVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_dense_equivalent() {
        let mut rng = StdRng::seed_from_u64(290);
        let mut layer = BlockCirculant::new(8, 16, 4, Activation::Identity, &mut rng);
        let w = layer.to_dense_weight();
        let x = Matrix::from_fn(3, 8, |r, c| ((r * 8 + c) as f32 * 0.37).sin());
        let fast = layer.forward(&x);
        let dense = x.matmul(&w);
        assert!(fast.approx_eq(&dense, 1e-4), "FFT path must equal dense path");
    }

    #[test]
    fn parameter_count_is_compressed() {
        let mut rng = StdRng::seed_from_u64(291);
        let layer = BlockCirculant::new(64, 64, 16, Activation::Relu, &mut rng);
        let info = layer.info();
        // dense would be 64·64 + 64 = 4160; circulant is 4·4·16 + 64 = 320
        assert_eq!(info.params, 320);
    }

    #[test]
    fn gradient_check_params_and_inputs() {
        let mut rng = StdRng::seed_from_u64(292);
        let mut layer = BlockCirculant::new(4, 4, 4, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| ((r + 2 * c) as f32 * 0.5).cos() * 0.6);

        let base = layer.param_vector();
        layer.zero_grad();
        let _ = layer.forward(&x);
        let dx = layer.backward(&Matrix::ones(2, 4));
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
        layer.set_param_vector(&base);
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let lp = layer.forward(&xp).sum();
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lm = layer.forward(&xm).sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 1e-2,
                    "input ({r},{c}): fd={fd} analytic={}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn trains_on_simple_task() {
        use mdl_nn::{fit_classifier, Adam, Sequential, TrainConfig};
        let mut rng = StdRng::seed_from_u64(293);
        let data = mdl_data::synthetic::gaussian_blobs(200, 2, 0.4, &mut rng);
        // lift 2-d input into 8-d with a dense layer, then circulant
        let mut net = Sequential::new();
        net.push(mdl_nn::Dense::new(2, 8, Activation::Relu, &mut rng));
        net.push(BlockCirculant::new(8, 8, 8, Activation::Relu, &mut rng));
        net.push(mdl_nn::Dense::new(8, 2, Activation::Identity, &mut rng));
        let mut opt = Adam::new(0.02);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &data.x,
            &data.y,
            &TrainConfig { epochs: 15, ..Default::default() },
            &mut rng,
        );
        let acc = net.accuracy(&data.x, &data.y);
        assert!(acc > 0.9, "circulant net should learn blobs: {acc}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        let mut rng = StdRng::seed_from_u64(294);
        let _ = BlockCirculant::new(6, 6, 3, Activation::Relu, &mut rng);
    }
}
