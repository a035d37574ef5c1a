//! Long Short-Term Memory (paper reference [42]) with full BPTT.
//!
//! The paper introduces the GRU as "a simplified version of Long
//! Short-Term Memory"; this module provides the original for the
//! GRU-vs-LSTM ablation:
//!
//! ```text
//! i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
//! o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
//! g_t = tanh   (W_g x_t + U_g h_{t-1} + b_g)
//! c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//! h_t = o_t ⊙ tanh(c_t)
//! ```

use crate::activation::sigmoid;
use crate::layer::{Layer, LayerInfo};
use mdl_tensor::kernel::{self, Trans};
use mdl_tensor::{Init, Matrix};
use rand::Rng;

/// A single-direction LSTM over one sequence (`T × input_dim` in,
/// `T × hidden_dim` of hidden states out).
///
/// # Examples
///
/// ```
/// use mdl_nn::{Lstm, Layer};
/// use mdl_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let lstm = Lstm::new(2, 4, &mut rng);
/// let states = lstm.forward_eval(&Matrix::ones(6, 2));
/// assert_eq!(states.shape(), (6, 4));
/// ```
pub struct Lstm {
    w: [Matrix; 4], // input kernels i, f, o, g
    u: [Matrix; 4], // recurrent kernels
    b: [Matrix; 4],
    g_w: [Matrix; 4],
    g_u: [Matrix; 4],
    g_b: [Matrix; 4],
    cache: Option<LstmCache>,
    scratch: LstmScratch,
}

#[derive(Default)]
pub(crate) struct LstmCache {
    /// Sequence length of the last scan (the plan path scans from a
    /// borrowed slice without filling `input`, so the length lives here).
    t_len: usize,
    input: Matrix,
    /// hidden states incl. initial zeros, `(T+1) × h`
    h: Matrix,
    /// cell states incl. initial zeros, `(T+1) × h`
    c: Matrix,
    gates: [Matrix; 4], // i, f, o, g per timestep, each `T × h`
}

/// Reusable BPTT workspace, kept across calls so the training loop's
/// steady state performs no per-step allocation.
#[derive(Default)]
struct LstmScratch {
    /// per-step pre-activation gradients, one `T × h` matrix per gate
    da: [Matrix; 4],
    dh: Vec<f32>,
    dc: Vec<f32>,
}

impl std::fmt::Debug for Lstm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lstm")
            .field("input_dim", &self.input_dim())
            .field("hidden_dim", &self.hidden_dim())
            .finish()
    }
}

impl Lstm {
    /// Creates an LSTM; the forget-gate bias starts at 1 (the standard
    /// trick that keeps early gradients flowing).
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        let mk_w = |rng: &mut dyn rand::RngCore| {
            Init::Xavier.sample(input_dim, hidden_dim, &mut &mut *rng)
        };
        let mk_u = |rng: &mut dyn rand::RngCore| {
            Init::Xavier.sample(hidden_dim, hidden_dim, &mut &mut *rng)
        };
        let w = [mk_w(rng), mk_w(rng), mk_w(rng), mk_w(rng)];
        let u = [mk_u(rng), mk_u(rng), mk_u(rng), mk_u(rng)];
        let mut b = [
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
        ];
        b[1].map_mut(|_| 1.0); // forget-gate bias
        let zeros_w = || Matrix::zeros(input_dim, hidden_dim);
        let zeros_u = || Matrix::zeros(hidden_dim, hidden_dim);
        let zeros_b = || Matrix::zeros(1, hidden_dim);
        Self {
            w,
            u,
            b,
            g_w: [zeros_w(), zeros_w(), zeros_w(), zeros_w()],
            g_u: [zeros_u(), zeros_u(), zeros_u(), zeros_u()],
            g_b: [zeros_b(), zeros_b(), zeros_b(), zeros_b()],
            cache: None,
            scratch: LstmScratch::default(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.w[0].rows()
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.w[0].cols()
    }

    /// Input kernels in gate order `[i, f, o, g]`, each
    /// `input_dim × hidden_dim` (read-only — used by the quantized-path
    /// builder).
    pub fn input_kernels(&self) -> [&Matrix; 4] {
        [&self.w[0], &self.w[1], &self.w[2], &self.w[3]]
    }

    /// Recurrent kernels in gate order `[i, f, o, g]`, each
    /// `hidden_dim × hidden_dim`.
    pub fn recurrent_kernels(&self) -> [&Matrix; 4] {
        [&self.u[0], &self.u[1], &self.u[2], &self.u[3]]
    }

    /// Gate biases in gate order `[i, f, o, g]`, each `1 × hidden_dim`.
    pub fn biases(&self) -> [&Matrix; 4] {
        [&self.b[0], &self.b[1], &self.b[2], &self.b[3]]
    }

    /// Runs the recurrence into `cache`, reusing its buffers across calls.
    ///
    /// All four gates' input projections `X·W + b` are evaluated as fused
    /// whole-sequence products up front; the sequential part is four
    /// `1 × h` recurrent accumulations per step, activated in place, with
    /// no per-step allocation.
    fn scan_into(&self, x: &Matrix, cache: &mut LstmCache) {
        assert_eq!(x.cols(), self.input_dim(), "LSTM input width mismatch");
        cache.input.copy_from(x);
        self.scan_slice_into(x.rows(), x.as_slice(), cache);
    }

    /// [`Lstm::scan_into`] without the input copy: runs the recurrence over
    /// a borrowed `t_len × input_dim` slice, reusing the cache buffers.
    /// This is the path the plan executor calls — `cache.input` is left
    /// untouched, so only [`Layer::backward`] (reached via `scan_into`) may
    /// rely on it.
    pub(crate) fn scan_slice_into(&self, t_len: usize, x: &[f32], cache: &mut LstmCache) {
        let d = self.input_dim();
        let h_dim = self.hidden_dim();
        assert_eq!(x.len(), t_len * d, "LSTM input length mismatch");
        assert!(t_len > 0, "LSTM requires a non-empty sequence");

        cache.t_len = t_len;
        cache.h.resize_to(t_len + 1, h_dim);
        cache.h.fill(0.0);
        cache.c.resize_to(t_len + 1, h_dim);
        cache.c.fill(0.0);
        for k in 0..4 {
            cache.gates[k].resize_to(t_len, h_dim);
            // bit-identical to `matmul_bias_into`: bias-seeded accumulate
            kernel::gemm_bias_act(
                t_len,
                h_dim,
                d,
                x,
                self.w[k].as_slice(),
                self.b[k].as_slice(),
                kernel::NO_EPI,
                cache.gates[k].as_mut_slice(),
            );
        }

        for t in 0..t_len {
            let (head, tail) = cache.h.as_mut_slice().split_at_mut((t + 1) * h_dim);
            let h_prev = &head[t * h_dim..];
            let h_next = &mut tail[..h_dim];
            for k in 0..4 {
                kernel::gemm(
                    Trans::N,
                    Trans::N,
                    1,
                    h_dim,
                    h_dim,
                    h_prev,
                    self.u[k].as_slice(),
                    cache.gates[k].row_mut(t),
                    true,
                );
            }
            let (chead, ctail) = cache.c.as_mut_slice().split_at_mut((t + 1) * h_dim);
            let c_prev = &chead[t * h_dim..];
            let c_next = &mut ctail[..h_dim];
            let [gi, gf, go, gg] = &mut cache.gates;
            let (gi, gf) = (gi.row_mut(t), gf.row_mut(t));
            let (go, gg) = (go.row_mut(t), gg.row_mut(t));
            for j in 0..h_dim {
                let i = sigmoid(gi[j]);
                let f = sigmoid(gf[j]);
                let o = sigmoid(go[j]);
                let g = gg[j].tanh();
                gi[j] = i;
                gf[j] = f;
                go[j] = o;
                gg[j] = g;
                let c_t = f * c_prev[j] + i * g;
                c_next[j] = c_t;
                h_next[j] = o * c_t.tanh();
            }
        }
    }

    /// Copies hidden states `1..=T` (contiguous in the `(T+1) × h` buffer)
    /// into the `T × h` output layout.
    fn states_output(cache: &LstmCache) -> Matrix {
        let t_len = cache.t_len;
        let h_dim = cache.h.cols();
        Matrix::from_vec(t_len, h_dim, cache.h.as_slice()[h_dim..(t_len + 1) * h_dim].to_vec())
    }

    /// Copies hidden states `1..=T` into a caller-provided `T × h` slice —
    /// the allocation-free sibling of [`Lstm::states_output`].
    pub(crate) fn states_into(cache: &LstmCache, out: &mut [f32]) {
        let t_len = cache.t_len;
        let h_dim = cache.h.cols();
        out.copy_from_slice(&cache.h.as_slice()[h_dim..(t_len + 1) * h_dim]);
    }

    /// A cache with every buffer pre-sized for `t_len`-step scans, so the
    /// first [`Lstm::scan_slice_into`] already runs allocation-free.
    pub(crate) fn plan_cache(&self, t_len: usize) -> LstmCache {
        let h_dim = self.hidden_dim();
        let mut cache = LstmCache { t_len, ..LstmCache::default() };
        cache.h.resize_to(t_len + 1, h_dim);
        cache.c.resize_to(t_len + 1, h_dim);
        for g in &mut cache.gates {
            g.resize_to(t_len, h_dim);
        }
        cache
    }
}

impl Layer for Lstm {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        // take/restore rather than reallocate: the cache buffers are
        // reused across forward calls and handed to backward uncloned.
        let mut cache = self.cache.take().unwrap_or_default();
        self.scan_into(x, &mut cache);
        let out = Self::states_output(&cache);
        self.cache = Some(cache);
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        // scan the borrowed input: only `backward` reads the copy `scan_into` keeps
        let mut cache = LstmCache::default();
        self.scan_slice_into(x.rows(), x.as_slice(), &mut cache);
        Self::states_output(&cache)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("backward called before forward");
        let mut scratch = std::mem::take(&mut self.scratch);
        let t_len = cache.input.rows();
        let h_dim = self.hidden_dim();
        let d_in = self.input_dim();
        assert_eq!(grad_out.shape(), (t_len, h_dim), "LSTM grad shape mismatch");

        // The sequential sweep only resolves the recurrent couplings: it
        // fills the per-step pre-activation gradients dA and carries
        // dh/dc. Parameter gradients come from the whole-sequence GEMMs
        // below.
        for da in &mut scratch.da {
            da.resize_to(t_len, h_dim);
        }
        scratch.dh.clear();
        scratch.dh.resize(h_dim, 0.0);
        scratch.dc.clear();
        scratch.dc.resize(h_dim, 0.0);

        for t in (0..t_len).rev() {
            let c_prev = cache.c.row(t);
            let c_now = cache.c.row(t + 1);
            let [gi, gf, go, gg] = &cache.gates;
            let (gi, gf, go, gg) = (gi.row(t), gf.row(t), go.row(t), gg.row(t));
            let [da_i, da_f, da_o, da_g] = &mut scratch.da;
            let (da_i, da_f) = (da_i.row_mut(t), da_f.row_mut(t));
            let (da_o, da_g) = (da_o.row_mut(t), da_g.row_mut(t));

            for j in 0..h_dim {
                // dL/dh_t from above + from later timesteps
                let dh = grad_out[(t, j)] + scratch.dh[j];
                let (i, f, o, g) = (gi[j], gf[j], go[j], gg[j]);
                let tanh_c = c_now[j].tanh();

                // h = o · tanh(c)
                let do_ = dh * tanh_c;
                let mut dc = dh * o * (1.0 - tanh_c * tanh_c) + scratch.dc[j];

                // c = f·c_prev + i·g
                let df = dc * c_prev[j];
                let di = dc * g;
                let dg = dc * i;
                dc *= f;
                scratch.dc[j] = dc;

                da_i[j] = di * i * (1.0 - i);
                da_f[j] = df * f * (1.0 - f);
                da_o[j] = do_ * o * (1.0 - o);
                da_g[j] = dg * (1.0 - g * g);
            }

            // dh_{t-1} = Σ_k dA_k · U_kᵀ
            scratch.dh.fill(0.0);
            for k in 0..4 {
                kernel::gemm(
                    Trans::N,
                    Trans::T,
                    1,
                    h_dim,
                    h_dim,
                    scratch.da[k].row(t),
                    self.u[k].as_slice(),
                    &mut scratch.dh,
                    true,
                );
            }
        }

        // batched parameter gradients: g_W += Xᵀ·DA, g_U += H_prevᵀ·DA
        // (hidden rows 0..T are the predecessors, a prefix of the buffer)
        let h_prev_all = &cache.h.as_slice()[..t_len * h_dim];
        let mut dx = Matrix::zeros(t_len, d_in);
        for k in 0..4 {
            cache.input.matmul_tn_acc(&scratch.da[k], &mut self.g_w[k]);
            kernel::gemm(
                Trans::T,
                Trans::N,
                h_dim,
                h_dim,
                t_len,
                h_prev_all,
                scratch.da[k].as_slice(),
                self.g_u[k].as_mut_slice(),
                true,
            );
            scratch.da[k].sum_rows_acc(&mut self.g_b[k]);
            scratch.da[k].matmul_nt_acc(&self.w[k], &mut dx);
        }

        self.scratch = scratch;
        self.cache = Some(cache);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for k in 0..4 {
            f(&mut self.w[k], &mut self.g_w[k]);
        }
        for k in 0..4 {
            f(&mut self.u[k], &mut self.g_u[k]);
        }
        for k in 0..4 {
            f(&mut self.b[k], &mut self.g_b[k]);
        }
    }

    fn info(&self) -> LayerInfo {
        let d = self.input_dim();
        let h = self.hidden_dim();
        LayerInfo {
            kind: "lstm",
            in_dim: d,
            out_dim: h,
            params: 4 * (d * h + h * h + h),
            macs: (4 * (d * h + h * h)) as u64,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn loss(lstm: &mut Lstm, x: &Matrix) -> f32 {
        let states = lstm.forward(x);
        states.row(states.rows() - 1).iter().sum()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(710);
        let mut lstm = Lstm::new(4, 6, &mut rng);
        let x = Matrix::from_fn(5, 4, |r, c| ((r + c) as f32 * 0.6).sin());
        let y = lstm.forward(&x);
        assert_eq!(y.shape(), (5, 6));
        assert!(y.all_finite());
        assert!(y.max_abs() <= 1.0 + 1e-5, "h = o·tanh(c) is bounded by 1");
    }

    #[test]
    fn param_count_is_4x_gates() {
        let mut rng = StdRng::seed_from_u64(711);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        assert_eq!(lstm.num_params(), 4 * (3 * 5 + 5 * 5 + 5));
        assert_eq!(lstm.info().params, lstm.num_params());
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = StdRng::seed_from_u64(712);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let v = lstm.param_vector();
        // layout: 4 W kernels, 4 U kernels, then biases i, f, o, g
        let bias_start = 4 * (2 * 3) + 4 * (3 * 3);
        let b_f = &v[bias_start + 3..bias_start + 6];
        assert!(b_f.iter().all(|&x| x == 1.0), "forget bias {b_f:?}");
    }

    #[test]
    fn bptt_gradient_check_params() {
        let mut rng = StdRng::seed_from_u64(713);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.7).sin() * 0.5);
        let base = lstm.param_vector();

        lstm.zero_grad();
        let _ = lstm.forward(&x);
        let mut gout = Matrix::zeros(5, 4);
        for j in 0..4 {
            gout[(4, j)] = 1.0;
        }
        let _ = lstm.backward(&gout);
        let analytic = lstm.grad_vector();

        let eps = 1e-3f32;
        let n = base.len();
        let picks: Vec<usize> = (0..14).map(|i| i * (n / 14)).chain([n - 1]).collect();
        for k in picks {
            let mut plus = base.clone();
            plus[k] += eps;
            lstm.set_param_vector(&plus);
            let lp = loss(&mut lstm, &x);
            let mut minus = base.clone();
            minus[k] -= eps;
            lstm.set_param_vector(&minus);
            let lm = loss(&mut lstm, &x);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic[k]).abs() < 2e-2, "param {k}: fd={fd} analytic={}", analytic[k]);
        }
    }

    #[test]
    fn bptt_gradient_check_inputs() {
        let mut rng = StdRng::seed_from_u64(714);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x = Matrix::from_fn(4, 2, |r, c| ((r + c) as f32 * 0.9).cos() * 0.4);
        let _ = lstm.forward(&x);
        let mut gout = Matrix::zeros(4, 3);
        for j in 0..3 {
            gout[(3, j)] = 1.0;
        }
        let dx = lstm.backward(&gout);
        let eps = 1e-3f32;
        for r in 0..4 {
            for c in 0..2 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let lp = loss(&mut lstm, &xp);
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lm = loss(&mut lstm, &xm);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 5e-3,
                    "input ({r},{c}): fd={fd} analytic={}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn lstm_learns_a_memory_task() {
        // classify sequences by their FIRST element — requires carrying
        // information across the whole sequence
        use crate::activation::Activation;
        use crate::dense::Dense;
        use crate::loss::softmax_cross_entropy;
        use crate::optim::{Adam, Optimizer};
        use mdl_tensor::init::gaussian;

        let mut rng = StdRng::seed_from_u64(715);
        let make = |rng: &mut StdRng| -> (Matrix, usize) {
            let label = (rng.gen::<f32>() < 0.5) as usize;
            let first = if label == 0 { -1.0 } else { 1.0 };
            let x = Matrix::from_fn(8, 2, |r, c| {
                if r == 0 {
                    first
                } else {
                    gaussian(rng) * 0.3 + c as f32 * 0.1
                }
            });
            (x, label)
        };
        let mut lstm = Lstm::new(2, 6, &mut rng);
        let mut head = Dense::new(6, 2, Activation::Identity, &mut rng);
        // separate optimizers: Adam state is positional per model
        let mut opt_lstm = Adam::new(0.02);
        let mut opt_head = Adam::new(0.02);

        for _ in 0..300 {
            let (x, y) = make(&mut rng);
            lstm.zero_grad();
            head.zero_grad();
            let states = lstm.forward(&x);
            let last = Matrix::row_vector(states.row(states.rows() - 1));
            let logits = head.forward(&last);
            let (_, grad) = softmax_cross_entropy(&logits, &[y]);
            let d_last = head.backward(&grad);
            let mut gout = Matrix::zeros(states.rows(), 6);
            gout.row_mut(states.rows() - 1).copy_from_slice(d_last.row(0));
            let _ = lstm.backward(&gout);
            opt_lstm.step(&mut lstm);
            opt_head.step(&mut head);
        }
        let mut correct = 0;
        for _ in 0..100 {
            let (x, y) = make(&mut rng);
            let states = lstm.forward_eval(&x);
            let last = Matrix::row_vector(states.row(states.rows() - 1));
            let pred = head.forward_eval(&last).argmax_rows()[0];
            correct += usize::from(pred == y);
        }
        assert!(correct > 85, "LSTM should remember the first token: {correct}/100");
    }
}
