//! Gated Recurrent Unit with full backpropagation through time.
//!
//! Follows the paper's Eq. (1) exactly:
//!
//! ```text
//! r_k = sigmoid(W_r x_k + U_r h_{k-1} + b_r)
//! z_k = sigmoid(W_z x_k + U_z h_{k-1} + b_z)
//! h̃_k = tanh(W x_k + U (r_k ⊙ h_{k-1}) + b)
//! h_k = z_k ⊙ h_{k-1} + (1 - z_k) ⊙ h̃_k
//! ```
//!
//! where the update gate `z` keeps the *previous* state — note this is the
//! paper's convention (some libraries swap `z` and `1 - z`).

use crate::activation::sigmoid;
use crate::layer::{Layer, LayerInfo};
use mdl_tensor::kernel::{self, Trans};
use mdl_tensor::{Init, Matrix};
use rand::Rng;

/// A single-direction GRU over one sequence.
///
/// Both forwards treat the input as a `T × input_dim` sequence and return
/// all hidden states as `T × hidden_dim`; the last row is the sequence
/// embedding.
///
/// # Examples
///
/// ```
/// use mdl_nn::{Gru, Layer};
/// use mdl_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let gru = Gru::new(3, 8, &mut rng);
/// let sequence = Matrix::ones(10, 3); // 10 timesteps, 3 features
/// let states = gru.forward_eval(&sequence);
/// assert_eq!(states.shape(), (10, 8));
/// ```
#[derive(Clone)]
pub struct Gru {
    w_r: Matrix,
    w_z: Matrix,
    w_h: Matrix,
    u_r: Matrix,
    u_z: Matrix,
    u_h: Matrix,
    b_r: Matrix,
    b_z: Matrix,
    b_h: Matrix,
    g_w_r: Matrix,
    g_w_z: Matrix,
    g_w_h: Matrix,
    g_u_r: Matrix,
    g_u_z: Matrix,
    g_u_h: Matrix,
    g_b_r: Matrix,
    g_b_z: Matrix,
    g_b_h: Matrix,
    cache: Option<GruCache>,
    scratch: GruScratch,
}

#[derive(Clone, Default)]
pub(crate) struct GruCache {
    /// Sequence length of the last scan. The plan path scans straight from
    /// a borrowed slice without copying into `input`, so the length is
    /// recorded here rather than read off `input.rows()`.
    t_len: usize,
    input: Matrix,
    /// Hidden states including the initial zero state: `(T+1) × h`.
    hidden: Matrix,
    r: Matrix,
    z: Matrix,
    hc: Matrix,
    /// Per-step reset-gated states `r_k ⊙ h_{k-1}` as `T × h`, kept for the
    /// batched `g_U` gradient product.
    rh: Matrix,
}

/// Reusable workspace for the BPTT sweep; persists across calls so the
/// training loop's steady state performs no per-step allocation.
#[derive(Clone, Default)]
struct GruScratch {
    dh: Vec<f32>,
    carry: Vec<f32>,
    drh: Vec<f32>,
    da_r: Matrix,
    da_z: Matrix,
    da_h: Matrix,
}

impl std::fmt::Debug for Gru {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gru")
            .field("input_dim", &self.w_r.rows())
            .field("hidden_dim", &self.w_r.cols())
            .finish()
    }
}

impl Gru {
    /// Creates a GRU with Xavier-initialised kernels and zero biases.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        Self::with_init(input_dim, hidden_dim, Init::Xavier, rng)
    }

    /// [`Gru::new`] with the kernels drawn from `init` — `Init::Zeros` for
    /// the model loader, which overwrites every weight anyway.
    pub(crate) fn with_init(
        input_dim: usize,
        hidden_dim: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            w_r: init.sample(input_dim, hidden_dim, rng),
            w_z: init.sample(input_dim, hidden_dim, rng),
            w_h: init.sample(input_dim, hidden_dim, rng),
            u_r: init.sample(hidden_dim, hidden_dim, rng),
            u_z: init.sample(hidden_dim, hidden_dim, rng),
            u_h: init.sample(hidden_dim, hidden_dim, rng),
            b_r: Matrix::zeros(1, hidden_dim),
            b_z: Matrix::zeros(1, hidden_dim),
            b_h: Matrix::zeros(1, hidden_dim),
            g_w_r: Matrix::zeros(input_dim, hidden_dim),
            g_w_z: Matrix::zeros(input_dim, hidden_dim),
            g_w_h: Matrix::zeros(input_dim, hidden_dim),
            g_u_r: Matrix::zeros(hidden_dim, hidden_dim),
            g_u_z: Matrix::zeros(hidden_dim, hidden_dim),
            g_u_h: Matrix::zeros(hidden_dim, hidden_dim),
            g_b_r: Matrix::zeros(1, hidden_dim),
            g_b_z: Matrix::zeros(1, hidden_dim),
            g_b_h: Matrix::zeros(1, hidden_dim),
            cache: None,
            scratch: GruScratch::default(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.w_r.rows()
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.w_r.cols()
    }

    /// Input kernels `[W_r, W_z, W_h]`, each `input_dim × hidden_dim`
    /// (read-only — used by the quantized-path builder).
    pub fn input_kernels(&self) -> [&Matrix; 3] {
        [&self.w_r, &self.w_z, &self.w_h]
    }

    /// Recurrent kernels `[U_r, U_z, U_h]`, each `hidden_dim × hidden_dim`.
    pub fn recurrent_kernels(&self) -> [&Matrix; 3] {
        [&self.u_r, &self.u_z, &self.u_h]
    }

    /// Gate biases `[b_r, b_z, b_h]`, each `1 × hidden_dim`.
    pub fn biases(&self) -> [&Matrix; 3] {
        [&self.b_r, &self.b_z, &self.b_h]
    }

    /// Runs the recurrence into `cache`, reusing its buffers across calls.
    ///
    /// The input projections for all three gates are evaluated as fused
    /// whole-sequence `X·W + b` products up front; the sequential part is
    /// then three `1 × h` recurrent accumulations per step, activated in
    /// place, with no per-step allocation.
    fn scan_into(&self, x: &Matrix, cache: &mut GruCache) {
        assert_eq!(x.cols(), self.input_dim(), "GRU input width mismatch");
        cache.input.copy_from(x);
        self.scan_slice_into(x.rows(), x.as_slice(), cache);
    }

    /// [`Gru::scan_into`] without the input copy: runs the recurrence over a
    /// borrowed `t_len × input_dim` slice, reusing the cache buffers. This is
    /// the path the plan executor calls — `cache.input` is left untouched, so
    /// only [`Gru::backward`] (which goes through `scan_into`) may rely on it.
    pub(crate) fn scan_slice_into(&self, t_len: usize, x: &[f32], cache: &mut GruCache) {
        let d = self.input_dim();
        let h = self.hidden_dim();
        assert_eq!(x.len(), t_len * d, "GRU input length mismatch");
        assert!(t_len > 0, "GRU requires a non-empty sequence");

        cache.t_len = t_len;
        cache.hidden.resize_to(t_len + 1, h);
        cache.hidden.fill(0.0);
        cache.rh.resize_to(t_len, h);
        cache.r.resize_to(t_len, h);
        cache.z.resize_to(t_len, h);
        cache.hc.resize_to(t_len, h);

        // fused x·W + b for every timestep at once (bit-identical to
        // `matmul_bias_into`: bias-seeded accumulate, same dispatch)
        kernel::gemm_bias_act(
            t_len,
            h,
            d,
            x,
            self.w_r.as_slice(),
            self.b_r.as_slice(),
            kernel::NO_EPI,
            cache.r.as_mut_slice(),
        );
        kernel::gemm_bias_act(
            t_len,
            h,
            d,
            x,
            self.w_z.as_slice(),
            self.b_z.as_slice(),
            kernel::NO_EPI,
            cache.z.as_mut_slice(),
        );
        kernel::gemm_bias_act(
            t_len,
            h,
            d,
            x,
            self.w_h.as_slice(),
            self.b_h.as_slice(),
            kernel::NO_EPI,
            cache.hc.as_mut_slice(),
        );

        for k in 0..t_len {
            let (head, tail) = cache.hidden.as_mut_slice().split_at_mut((k + 1) * h);
            let h_prev = &head[k * h..];
            let h_next = &mut tail[..h];

            let r_row = cache.r.row_mut(k);
            kernel::gemm(Trans::N, Trans::N, 1, h, h, h_prev, self.u_r.as_slice(), r_row, true);
            for v in r_row.iter_mut() {
                *v = sigmoid(*v);
            }
            let z_row = cache.z.row_mut(k);
            kernel::gemm(Trans::N, Trans::N, 1, h, h, h_prev, self.u_z.as_slice(), z_row, true);
            for v in z_row.iter_mut() {
                *v = sigmoid(*v);
            }

            let rh_row = cache.rh.row_mut(k);
            for ((rh, &r), &hp) in rh_row.iter_mut().zip(cache.r.row(k)).zip(h_prev) {
                *rh = r * hp;
            }
            let hc_row = cache.hc.row_mut(k);
            kernel::gemm(
                Trans::N,
                Trans::N,
                1,
                h,
                h,
                cache.rh.row(k),
                self.u_h.as_slice(),
                hc_row,
                true,
            );
            for v in hc_row.iter_mut() {
                *v = v.tanh();
            }

            let z_row = cache.z.row(k);
            let hc_row = cache.hc.row(k);
            for j in 0..h {
                h_next[j] = z_row[j] * h_prev[j] + (1.0 - z_row[j]) * hc_row[j];
            }
        }
    }

    /// Copies hidden states `1..=T` (contiguous in the `(T+1) × h` buffer)
    /// into the `T × h` output layout.
    fn states_output(cache: &GruCache) -> Matrix {
        let t_len = cache.t_len;
        let h = cache.hidden.cols();
        Matrix::from_vec(t_len, h, cache.hidden.as_slice()[h..(t_len + 1) * h].to_vec())
    }

    /// Copies hidden states `1..=T` into a caller-provided `T × h` slice —
    /// the allocation-free sibling of [`Gru::states_output`].
    pub(crate) fn states_into(cache: &GruCache, out: &mut [f32]) {
        let t_len = cache.t_len;
        let h = cache.hidden.cols();
        out.copy_from_slice(&cache.hidden.as_slice()[h..(t_len + 1) * h]);
    }

    /// A cache with every buffer pre-sized for `t_len`-step scans, so the
    /// first [`Gru::scan_slice_into`] already runs allocation-free.
    pub(crate) fn plan_cache(&self, t_len: usize) -> GruCache {
        let h = self.hidden_dim();
        let mut cache = GruCache { t_len, ..GruCache::default() };
        cache.hidden.resize_to(t_len + 1, h);
        cache.rh.resize_to(t_len, h);
        cache.r.resize_to(t_len, h);
        cache.z.resize_to(t_len, h);
        cache.hc.resize_to(t_len, h);
        cache
    }
}

impl Layer for Gru {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        // take/restore rather than clone: the cache buffers are reused
        // across forward calls and handed to backward without copying.
        let mut cache = self.cache.take().unwrap_or_default();
        self.scan_into(x, &mut cache);
        let out = Self::states_output(&cache);
        self.cache = Some(cache);
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        // scan the borrowed input: only `backward` reads the copy `scan_into` keeps
        let mut cache = GruCache::default();
        self.scan_slice_into(x.rows(), x.as_slice(), &mut cache);
        Self::states_output(&cache)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("backward called before forward");
        let mut scratch = std::mem::take(&mut self.scratch);
        let t_len = cache.input.rows();
        let h = self.hidden_dim();
        let d = self.input_dim();
        assert_eq!(grad_out.shape(), (t_len, h), "GRU grad shape mismatch");

        // The sequential sweep only resolves the recurrent couplings: it
        // fills per-step pre-activation gradients dA_r/dA_z/dA_h and the
        // carried dh. All parameter gradients then come from whole-sequence
        // products below, where the GEMM kernel (not a per-step loop) does
        // the heavy lifting.
        scratch.da_r.resize_to(t_len, h);
        scratch.da_z.resize_to(t_len, h);
        scratch.da_h.resize_to(t_len, h);
        scratch.dh.clear();
        scratch.dh.resize(h, 0.0);
        scratch.carry.clear();
        scratch.carry.resize(h, 0.0);
        scratch.drh.clear();
        scratch.drh.resize(h, 0.0);

        for k in (0..t_len).rev() {
            let h_prev = cache.hidden.row(k);
            let r = cache.r.row(k);
            let z = cache.z.row(k);
            let hc = cache.hc.row(k);

            // total gradient flowing into h_k
            for (dh, (&c, &g)) in
                scratch.dh.iter_mut().zip(scratch.carry.iter().zip(grad_out.row(k)))
            {
                *dh = c + g;
            }

            // h_k = z ⊙ h_prev + (1 - z) ⊙ hc, then through each gate's
            // nonlinearity to the pre-activation gradients
            let da_h = scratch.da_h.row_mut(k);
            let da_z = scratch.da_z.row_mut(k);
            for j in 0..h {
                let dh = scratch.dh[j];
                let dhc = dh * (1.0 - z[j]);
                da_h[j] = dhc * (1.0 - hc[j] * hc[j]);
                let dz = dh * (h_prev[j] - hc[j]);
                da_z[j] = dz * z[j] * (1.0 - z[j]);
                scratch.carry[j] = dh * z[j];
            }

            // candidate path: d(r ⊙ h_prev) = dA_h · U_hᵀ
            kernel::gemm(
                Trans::N,
                Trans::T,
                1,
                h,
                h,
                da_h,
                self.u_h.as_slice(),
                &mut scratch.drh,
                false,
            );
            let da_r = scratch.da_r.row_mut(k);
            for j in 0..h {
                let dr = scratch.drh[j] * h_prev[j];
                da_r[j] = dr * r[j] * (1.0 - r[j]);
                scratch.carry[j] += scratch.drh[j] * r[j];
            }

            // recurrent contributions to dh_{k-1}
            kernel::gemm(
                Trans::N,
                Trans::T,
                1,
                h,
                h,
                da_r,
                self.u_r.as_slice(),
                &mut scratch.carry,
                true,
            );
            kernel::gemm(
                Trans::N,
                Trans::T,
                1,
                h,
                h,
                da_z,
                self.u_z.as_slice(),
                &mut scratch.carry,
                true,
            );
        }

        // batched parameter gradients: g_W += Xᵀ·DA, g_U += H_prevᵀ·DA
        // (hidden rows 0..T are the predecessors, a prefix of the buffer)
        let h_prev_all = &cache.hidden.as_slice()[..t_len * h];
        cache.input.matmul_tn_acc(&scratch.da_r, &mut self.g_w_r);
        cache.input.matmul_tn_acc(&scratch.da_z, &mut self.g_w_z);
        cache.input.matmul_tn_acc(&scratch.da_h, &mut self.g_w_h);
        kernel::gemm(
            Trans::T,
            Trans::N,
            h,
            h,
            t_len,
            h_prev_all,
            scratch.da_r.as_slice(),
            self.g_u_r.as_mut_slice(),
            true,
        );
        kernel::gemm(
            Trans::T,
            Trans::N,
            h,
            h,
            t_len,
            h_prev_all,
            scratch.da_z.as_slice(),
            self.g_u_z.as_mut_slice(),
            true,
        );
        cache.rh.matmul_tn_acc(&scratch.da_h, &mut self.g_u_h);
        scratch.da_r.sum_rows_acc(&mut self.g_b_r);
        scratch.da_z.sum_rows_acc(&mut self.g_b_z);
        scratch.da_h.sum_rows_acc(&mut self.g_b_h);

        // input gradient: dX = DA_h·W_hᵀ + DA_r·W_rᵀ + DA_z·W_zᵀ
        let mut dx = Matrix::zeros(t_len, d);
        scratch.da_h.matmul_nt_acc(&self.w_h, &mut dx);
        scratch.da_r.matmul_nt_acc(&self.w_r, &mut dx);
        scratch.da_z.matmul_nt_acc(&self.w_z, &mut dx);

        self.scratch = scratch;
        self.cache = Some(cache);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w_r, &mut self.g_w_r);
        f(&mut self.w_z, &mut self.g_w_z);
        f(&mut self.w_h, &mut self.g_w_h);
        f(&mut self.u_r, &mut self.g_u_r);
        f(&mut self.u_z, &mut self.g_u_z);
        f(&mut self.u_h, &mut self.g_u_h);
        f(&mut self.b_r, &mut self.g_b_r);
        f(&mut self.b_z, &mut self.g_b_z);
        f(&mut self.b_h, &mut self.g_b_h);
    }

    fn info(&self) -> LayerInfo {
        let d = self.input_dim();
        let h = self.hidden_dim();
        LayerInfo {
            kind: "gru",
            in_dim: d,
            out_dim: h,
            params: 3 * (d * h + h * h + h),
            // per timestep: three input and three recurrent matvecs
            macs: (3 * (d * h + h * h)) as u64,
        }
    }
}

/// Bidirectional GRU: concatenates a forward pass and a reversed-input pass,
/// giving `T × 2h` outputs.
#[derive(Debug, Clone)]
pub struct BiGru {
    fwd: Gru,
    bwd: Gru,
}

impl BiGru {
    /// Creates a bidirectional GRU with `hidden_dim` units per direction.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        Self::with_init(input_dim, hidden_dim, Init::Xavier, rng)
    }

    /// [`BiGru::new`] with both directions drawn from `init`.
    pub(crate) fn with_init(
        input_dim: usize,
        hidden_dim: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            fwd: Gru::with_init(input_dim, hidden_dim, init, rng),
            bwd: Gru::with_init(input_dim, hidden_dim, init, rng),
        }
    }

    /// Hidden width per direction (total output width is twice this).
    pub fn hidden_dim(&self) -> usize {
        self.fwd.hidden_dim()
    }
}

fn reverse_rows(m: &Matrix) -> Matrix {
    let t = m.rows();
    Matrix::from_fn(t, m.cols(), |r, c| m[(t - 1 - r, c)])
}

impl Layer for BiGru {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let f = self.fwd.forward(x);
        let b_rev = self.bwd.forward(&reverse_rows(x));
        let b = reverse_rows(&b_rev);
        f.hstack(&b)
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let f = self.fwd.forward_eval(x);
        let b = reverse_rows(&self.bwd.forward_eval(&reverse_rows(x)));
        f.hstack(&b)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let h = self.hidden_dim();
        let t = grad_out.rows();
        let gf = Matrix::from_fn(t, h, |r, c| grad_out[(r, c)]);
        let gb = Matrix::from_fn(t, h, |r, c| grad_out[(r, c + h)]);
        let mut dx = self.fwd.backward(&gf);
        let dxb_rev = self.bwd.backward(&reverse_rows(&gb));
        dx.add_assign(&reverse_rows(&dxb_rev));
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.fwd.visit_params(f);
        self.bwd.visit_params(f);
    }

    fn info(&self) -> LayerInfo {
        let fi = self.fwd.info();
        LayerInfo {
            kind: "bigru",
            in_dim: fi.in_dim,
            out_dim: 2 * fi.out_dim,
            params: 2 * fi.params,
            macs: 2 * fi.macs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn loss_last_state_sum(gru: &mut Gru, x: &Matrix) -> f32 {
        let states = gru.forward(x);
        states.row(states.rows() - 1).iter().sum()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut gru = Gru::new(5, 7, &mut rng);
        let x = Matrix::ones(4, 5);
        let y = gru.forward(&x);
        assert_eq!(y.shape(), (4, 7));
        assert!(y.all_finite());
        assert!(y.max_abs() <= 1.0 + 1e-5, "GRU states bounded by tanh");
    }

    #[test]
    fn initial_state_is_zero_influences_first_step() {
        let mut rng = StdRng::seed_from_u64(21);
        let gru = Gru::new(2, 3, &mut rng);
        let x = Matrix::zeros(3, 2);
        // with zero input, zero h0 and zero biases, state stays exactly zero
        let y = gru.forward_eval(&x);
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn bptt_gradient_check_params() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut gru = Gru::new(3, 4, &mut rng);
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.7).sin() * 0.5);
        let base = gru.param_vector();

        gru.zero_grad();
        let states = gru.forward(&x);
        // L = sum of last hidden state
        let mut gout = Matrix::zeros(5, 4);
        for j in 0..4 {
            gout[(4, j)] = 1.0;
        }
        let _ = gru.backward(&gout);
        let analytic = gru.grad_vector();
        assert!(states.all_finite());

        let eps = 1e-3f32;
        // spot-check a spread of parameters (full check is slow)
        let n = base.len();
        let picks: Vec<usize> = (0..12).map(|i| i * (n / 12)).chain([n - 1, n - 2]).collect();
        for k in picks {
            let mut plus = base.clone();
            plus[k] += eps;
            gru.set_param_vector(&plus);
            let lp = loss_last_state_sum(&mut gru, &x);
            let mut minus = base.clone();
            minus[k] -= eps;
            gru.set_param_vector(&minus);
            let lm = loss_last_state_sum(&mut gru, &x);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic[k]).abs() < 2e-2, "param {k}: fd={fd} analytic={}", analytic[k]);
        }
    }

    #[test]
    fn bptt_gradient_check_inputs() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut gru = Gru::new(2, 3, &mut rng);
        let x = Matrix::from_fn(4, 2, |r, c| ((r + c) as f32 * 0.9).cos() * 0.4);
        let _ = gru.forward(&x);
        let mut gout = Matrix::zeros(4, 3);
        for j in 0..3 {
            gout[(3, j)] = 1.0;
        }
        let dx = gru.backward(&gout);
        let eps = 1e-3f32;
        for r in 0..4 {
            for c in 0..2 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let lp = loss_last_state_sum(&mut gru, &xp);
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lm = loss_last_state_sum(&mut gru, &xm);
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
    fn bigru_shapes_and_gradcheck() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut big = BiGru::new(2, 3, &mut rng);
        let x = Matrix::from_fn(4, 2, |r, c| ((r * 2 + c) as f32).sin() * 0.3);
        let y = big.forward(&x);
        assert_eq!(y.shape(), (4, 6));

        let base = big.param_vector();
        big.zero_grad();
        let _ = big.forward(&x);
        let _ = big.backward(&Matrix::ones(4, 6));
        let analytic = big.grad_vector();

        let eps = 1e-3f32;
        let n = base.len();
        for k in [0, n / 3, n / 2, 2 * n / 3, n - 1] {
            let mut plus = base.clone();
            plus[k] += eps;
            big.set_param_vector(&plus);
            let lp = big.forward(&x).sum();
            let mut minus = base.clone();
            minus[k] -= eps;
            big.set_param_vector(&minus);
            let lm = big.forward(&x).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic[k]).abs() < 2e-2, "param {k}: fd={fd} analytic={}", analytic[k]);
        }
    }

    #[test]
    fn gru_param_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut gru = Gru::new(8, 16, &mut rng);
        assert_eq!(gru.num_params(), 3 * (8 * 16 + 16 * 16 + 16));
        assert_eq!(gru.info().params, gru.num_params());
    }
}
