//! Gated recurrent layers with full backpropagation through time: the
//! paper's GRU (Eq. 1), which it calls "a simplified version of" the LSTM
//! of reference [42], and that LSTM, as two cells of one [`Recurrent`]
//! layer.
//!
//! ```text
//! GRU                                        LSTM
//! r_k = sigmoid(W_r x_k + U_r h_{k-1} + b_r)  i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
//! z_k = sigmoid(W_z x_k + U_z h_{k-1} + b_z)  f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
//! h̃_k = tanh(W x_k + U (r_k ⊙ h_{k-1}) + b)   o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
//! h_k = z_k ⊙ h_{k-1} + (1 - z_k) ⊙ h̃_k       g_t = tanh   (W_g x_t + U_g h_{t-1} + b_g)
//!                                            c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//!                                            h_t = o_t ⊙ tanh(c_t)
//! ```
//!
//! The GRU's update gate `z` keeps the *previous* state — the paper's
//! convention (some libraries swap `z` and `1 - z`).
//!
//! The layer owns everything the cells share: per-gate `W`/`U`/`b` and
//! their gradients, one cache, the scan (every gate's input projection as
//! one fused whole-sequence GEMM, then per step the `U·h_{t-1}` products
//! and the cell's gate math, allocating nothing) and BPTT (a reverse sweep
//! through the cell's backward step, then whole-sequence parameter and
//! input gradients). A [`Cell`] supplies only what differs.

use crate::activation::sigmoid;
use crate::layer::{Layer, LayerInfo};
use mdl_tensor::kernel::{self, Trans};
use mdl_tensor::{Init, Matrix};
use rand::Rng;
use std::any::Any;
use std::marker::PhantomData;

/// The cell a recurrent layer runs, in either precision: each f32 [`Cell`]
/// declares one, and the int8 `QRecurrent` matches on it once per scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Gates `[r, z, h̃]`.
    Gru,
    /// Gates `[i, f, o, g]`; the cell state `c` is carried beside `h`.
    Lstm,
}

impl CellKind {
    /// Gates per step, each with its own `W`, `U` and `b`.
    pub(crate) fn gates(self) -> usize {
        match self {
            CellKind::Gru => 3,
            CellKind::Lstm => 4,
        }
    }

    /// The layer kind both precisions report.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CellKind::Gru => "gru",
            CellKind::Lstm => "lstm",
        }
    }

    /// Parameters of a `d → h` layer of this cell, in `u128` so that the
    /// model loader's `u32` dimensions cannot overflow it.
    pub(crate) fn params(self, d: u128, h: u128) -> u128 {
        self.gates() as u128 * (d * h + h * h + h)
    }

    /// The structural description a `d → h` layer of this cell reports,
    /// f32 or int8.
    pub(crate) fn info(self, d: usize, h: usize) -> LayerInfo {
        LayerInfo {
            kind: self.name(),
            in_dim: d,
            out_dim: h,
            params: self.params(d as u128, h as u128) as usize,
            // per timestep: one input and one recurrent matvec per gate
            macs: (self.gates() * (d * h + h * h)) as u64,
        }
    }
}

/// A scan's record, reused across calls: what [`Layer::backward`] reads,
/// and a plan op's workspace.
#[derive(Clone, Default)]
pub struct Cache {
    /// The input `forward` scanned; the plan path scans straight from a
    /// borrowed slice and leaves it alone.
    input: Matrix,
    /// Hidden states including the initial zero state: `(T+1) × h`.
    hidden: Matrix,
    /// Per-gate activations, each `T × h`, in the cell's gate order.
    gates: Vec<Matrix>,
    /// The cell's own `(T+1) × h` record: the GRU's reset-gated states
    /// `r_t ⊙ h_{t-1}` (row `t`), kept for the batched `g_U` product; the
    /// LSTM's cell states including the initial zeros.
    aux: Matrix,
}

impl Cache {
    /// Sizes every buffer for a `t_len`-step scan and zeroes the initial
    /// states, row 0 of `hidden` and `aux`: a scan writes every later row
    /// before it reads it. No heap work once the capacities fit.
    fn prepare(&mut self, gates: usize, t_len: usize, h: usize) {
        self.gates.resize_with(gates, Matrix::default);
        for g in &mut self.gates {
            g.resize_to(t_len, h);
        }
        for m in [&mut self.hidden, &mut self.aux] {
            m.resize_to(t_len + 1, h);
            m.row_mut(0).fill(0.0);
        }
    }

    /// Hidden states `1..=T` of the last scan, contiguous in the
    /// `(T+1) × h` buffer: the layer's `T × h` output.
    pub(crate) fn states(&self) -> &[f32] {
        &self.hidden.as_slice()[self.hidden.cols()..]
    }
}

/// Reusable BPTT workspace, kept across calls so the training loop's
/// steady state performs no per-step allocation.
#[derive(Clone, Default)]
pub struct Scratch {
    /// Per-step pre-activation gradients, one `T × h` matrix per gate.
    da: Vec<Matrix>,
    /// Total gradient into `h_t`: the output's plus the carried one.
    dh: Vec<f32>,
    /// Gradient into `h_{t-1}`, carried to the next (earlier) step.
    carry: Vec<f32>,
    /// The cell's own vector: the GRU's per-step `d(r ⊙ h_{t-1})`, the
    /// LSTM's carried `dc`.
    aux: Vec<f32>,
}

/// One recurrent cell: the per-step gate math a [`Recurrent`] layer runs.
pub trait Cell: Clone + Send + Sync + 'static {
    /// The tag both precisions know this cell by.
    const KIND: CellKind;
    /// Gates `0..H_GATES` read `h_{t-1}` in their recurrent product, which
    /// the layer runs forward and back. A later gate reads the cell's
    /// `aux` row instead (the GRU candidate's `r ⊙ h_{t-1}`).
    const H_GATES: usize;
    /// Initial bias of each gate.
    const BIAS: &'static [f32];
    /// The order in which the gates' `dA_k · W_kᵀ` sum into `dx`.
    const DX_ORDER: &'static [usize];

    /// Step `t` forward. Gate rows `t` hold the pre-activations, the
    /// `h_{t-1}` products of gates `..H_GATES` included; activates them in
    /// place and writes the cell's `aux` and `h_next`.
    fn step(
        u: &[Matrix],
        t: usize,
        h_prev: &[f32],
        h_next: &mut [f32],
        gates: &mut [Matrix],
        aux: &mut Matrix,
    );

    /// Step `t` backward. From `s.dh`, the total gradient into `h_t`,
    /// writes row `t` of every gate's `dA` and starts `s.carry`, which the
    /// layer completes with `dA_k · U_kᵀ` for gates `..H_GATES`.
    fn step_back(u: &[Matrix], t: usize, cache: &Cache, s: &mut Scratch);
}

/// The GRU cell of the paper's Eq. (1).
#[derive(Clone)]
pub struct GruCell;

/// The LSTM cell of reference [42].
#[derive(Clone)]
pub struct LstmCell;

impl Cell for GruCell {
    const KIND: CellKind = CellKind::Gru;
    const H_GATES: usize = 2;
    const BIAS: &'static [f32] = &[0.0; 3];
    const DX_ORDER: &'static [usize] = &[2, 0, 1];

    fn step(
        u: &[Matrix],
        t: usize,
        h_prev: &[f32],
        h_next: &mut [f32],
        gates: &mut [Matrix],
        aux: &mut Matrix,
    ) {
        let h = h_prev.len();
        let [r, z, hc] = gates else { unreachable!("a GRU has three gates") };
        let (r, z, hc, rh) = (r.row_mut(t), z.row_mut(t), hc.row_mut(t), aux.row_mut(t));
        for ((r, rh), &hp) in r.iter_mut().zip(rh.iter_mut()).zip(h_prev) {
            *r = sigmoid(*r);
            *rh = *r * hp;
        }
        for v in z.iter_mut() {
            *v = sigmoid(*v);
        }
        kernel::gemm(Trans::N, Trans::N, 1, h, h, rh, u[2].as_slice(), hc, true);
        for j in 0..h {
            hc[j] = hc[j].tanh();
            h_next[j] = z[j] * h_prev[j] + (1.0 - z[j]) * hc[j];
        }
    }

    fn step_back(u: &[Matrix], t: usize, cache: &Cache, s: &mut Scratch) {
        let h_prev = cache.hidden.row(t);
        let [r, z, hc] = &cache.gates[..] else { unreachable!("a GRU has three gates") };
        let (r, z, hc) = (r.row(t), z.row(t), hc.row(t));
        let Scratch { da, dh, carry, aux: drh } = s;
        let [da_r, da_z, da_h] = &mut da[..] else { unreachable!("a GRU has three gates") };
        let (da_r, da_z, da_h) = (da_r.row_mut(t), da_z.row_mut(t), da_h.row_mut(t));
        let h = dh.len();

        // h_k = z ⊙ h_prev + (1 - z) ⊙ hc, then through each gate's
        // nonlinearity to the pre-activation gradients
        for j in 0..h {
            let dhc = dh[j] * (1.0 - z[j]);
            da_h[j] = dhc * (1.0 - hc[j] * hc[j]);
            let dz = dh[j] * (h_prev[j] - hc[j]);
            da_z[j] = dz * z[j] * (1.0 - z[j]);
            carry[j] = dh[j] * z[j];
        }
        // candidate path: d(r ⊙ h_prev) = dA_h · U_hᵀ
        kernel::gemm(Trans::N, Trans::T, 1, h, h, da_h, u[2].as_slice(), drh, false);
        for j in 0..h {
            let dr = drh[j] * h_prev[j];
            da_r[j] = dr * r[j] * (1.0 - r[j]);
            carry[j] += drh[j] * r[j];
        }
    }
}

impl Cell for LstmCell {
    const KIND: CellKind = CellKind::Lstm;
    const H_GATES: usize = 4;
    /// The forget-gate bias starts at 1, the standard trick that keeps
    /// early gradients flowing.
    const BIAS: &'static [f32] = &[0.0, 1.0, 0.0, 0.0];
    const DX_ORDER: &'static [usize] = &[0, 1, 2, 3];

    fn step(
        _u: &[Matrix],
        t: usize,
        _h_prev: &[f32],
        h_next: &mut [f32],
        gates: &mut [Matrix],
        aux: &mut Matrix,
    ) {
        let h = h_next.len();
        let (head, tail) = aux.as_mut_slice().split_at_mut((t + 1) * h);
        let (c_prev, c_next) = (&head[t * h..], &mut tail[..h]);
        let [gi, gf, go, gg] = gates else { unreachable!("an LSTM has four gates") };
        let (gi, gf, go, gg) = (gi.row_mut(t), gf.row_mut(t), go.row_mut(t), gg.row_mut(t));
        for j in 0..h {
            let i = sigmoid(gi[j]);
            let f = sigmoid(gf[j]);
            let o = sigmoid(go[j]);
            let g = gg[j].tanh();
            (gi[j], gf[j], go[j], gg[j]) = (i, f, o, g);
            let c_t = f * c_prev[j] + i * g;
            c_next[j] = c_t;
            h_next[j] = o * c_t.tanh();
        }
    }

    fn step_back(_u: &[Matrix], t: usize, cache: &Cache, s: &mut Scratch) {
        let (c_prev, c_now) = (cache.aux.row(t), cache.aux.row(t + 1));
        let [gi, gf, go, gg] = &cache.gates[..] else { unreachable!("an LSTM has four gates") };
        let (gi, gf, go, gg) = (gi.row(t), gf.row(t), go.row(t), gg.row(t));
        let Scratch { da, dh, carry, aux: dc } = s;
        let [da_i, da_f, da_o, da_g] = &mut da[..] else { unreachable!("an LSTM has four gates") };
        let (da_i, da_f) = (da_i.row_mut(t), da_f.row_mut(t));
        let (da_o, da_g) = (da_o.row_mut(t), da_g.row_mut(t));

        for j in 0..dh.len() {
            let (i, f, o, g) = (gi[j], gf[j], go[j], gg[j]);
            let tanh_c = c_now[j].tanh();

            // h = o · tanh(c)
            let do_ = dh[j] * tanh_c;
            let mut dc_j = dh[j] * o * (1.0 - tanh_c * tanh_c) + dc[j];

            // c = f·c_prev + i·g
            let df = dc_j * c_prev[j];
            let di = dc_j * g;
            let dg = dc_j * i;
            dc_j *= f;
            dc[j] = dc_j;

            da_i[j] = di * i * (1.0 - i);
            da_f[j] = df * f * (1.0 - f);
            da_o[j] = do_ * o * (1.0 - o);
            da_g[j] = dg * (1.0 - g * g);
        }
        // dh_{t-1} is Σ_k dA_k · U_kᵀ alone
        carry.fill(0.0);
    }
}

/// A single-direction recurrent layer over one sequence, running cell `C`:
/// `T × input_dim` in, all `T × hidden_dim` hidden states out (the last
/// row is the sequence embedding).
#[derive(Clone)]
pub struct Recurrent<C: Cell> {
    /// Per gate, in the cell's order: input kernels `input_dim × hidden_dim`,
    /// recurrent kernels `hidden_dim × hidden_dim`, biases `1 × hidden_dim`.
    w: Vec<Matrix>,
    u: Vec<Matrix>,
    b: Vec<Matrix>,
    g_w: Vec<Matrix>,
    g_u: Vec<Matrix>,
    g_b: Vec<Matrix>,
    cache: Option<Cache>,
    scratch: Scratch,
    cell: PhantomData<C>,
}

/// The paper's GRU (Eq. 1).
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
pub type Gru = Recurrent<GruCell>;

/// The LSTM of reference [42], for the GRU-vs-LSTM ablation.
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
pub type Lstm = Recurrent<LstmCell>;

impl<C: Cell> std::fmt::Debug for Recurrent<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recurrent")
            .field("cell", &C::KIND)
            .field("input_dim", &self.input_dim())
            .field("hidden_dim", &self.hidden_dim())
            .finish()
    }
}

impl<C: Cell> Recurrent<C> {
    /// Creates a layer with Xavier-initialised kernels and the cell's
    /// biases: zero for the GRU; the LSTM's forget gate starts at 1.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        Self::with_init(input_dim, hidden_dim, Init::Xavier, rng)
    }

    /// [`Recurrent::new`] with the kernels drawn from `init` — every input
    /// kernel, then every recurrent kernel. `Init::Zeros` is for the model
    /// loader, which overwrites every weight anyway.
    pub(crate) fn with_init(
        input_dim: usize,
        hidden_dim: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        let (d, h, g) = (input_dim, hidden_dim, C::KIND.gates());
        let w = (0..g).map(|_| init.sample(d, h, rng)).collect();
        let u = (0..g).map(|_| init.sample(h, h, rng)).collect();
        let zeros = |rows| (0..g).map(|_| Matrix::zeros(rows, h)).collect();
        Self {
            w,
            u,
            b: C::BIAS.iter().map(|&v| Matrix::from_fn(1, h, |_, _| v)).collect(),
            g_w: zeros(d),
            g_u: zeros(h),
            g_b: zeros(1),
            cache: None,
            scratch: Scratch::default(),
            cell: PhantomData,
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
}

/// What the plan and the int8 builder read of a recurrent layer, whichever
/// its cell: the tag, the weights and the (monomorphised) scan.
pub(crate) trait RecurrentOp {
    /// The layer's cell.
    fn cell(&self) -> CellKind;

    /// `[W, U, b]`, each one matrix per gate in the cell's order.
    fn kernels(&self) -> [&[Matrix]; 3];

    /// A cache with every buffer pre-sized for `t_len`-step scans, so the
    /// first [`RecurrentOp::scan_slice_into`] already runs allocation-free.
    fn plan_cache(&self, t_len: usize) -> Cache;

    /// Runs the recurrence over a borrowed `t_len × input_dim` slice into
    /// `cache`, reusing its buffers. `cache.input` is left untouched: only
    /// [`Layer::forward`], which copies it first, may hand it to backward.
    fn scan_slice_into(&self, t_len: usize, x: &[f32], cache: &mut Cache);
}

impl<C: Cell> RecurrentOp for Recurrent<C> {
    fn cell(&self) -> CellKind {
        C::KIND
    }

    fn kernels(&self) -> [&[Matrix]; 3] {
        [&self.w, &self.u, &self.b]
    }

    fn plan_cache(&self, t_len: usize) -> Cache {
        let mut cache = Cache::default();
        cache.prepare(self.w.len(), t_len, self.hidden_dim());
        cache
    }

    fn scan_slice_into(&self, t_len: usize, x: &[f32], cache: &mut Cache) {
        let (d, h, kind) = (self.input_dim(), self.hidden_dim(), C::KIND.name());
        assert_eq!(x.len(), t_len * d, "{kind} input length mismatch");
        assert!(t_len > 0, "{kind} requires a non-empty sequence");
        cache.prepare(self.w.len(), t_len, h);

        // fused x·W + b for every timestep at once (bit-identical to
        // `matmul_bias_into`: bias-seeded accumulate, same dispatch)
        for ((w, b), a) in self.w.iter().zip(&self.b).zip(&mut cache.gates) {
            let (w, b) = (w.as_slice(), b.as_slice());
            kernel::gemm_bias_act(t_len, h, d, x, w, b, kernel::NO_EPI, a.as_mut_slice());
        }

        for t in 0..t_len {
            let (head, tail) = cache.hidden.as_mut_slice().split_at_mut((t + 1) * h);
            let (h_prev, h_next) = (&head[t * h..], &mut tail[..h]);
            for (u, a) in self.u.iter().zip(&mut cache.gates).take(C::H_GATES) {
                kernel::gemm(Trans::N, Trans::N, 1, h, h, h_prev, u.as_slice(), a.row_mut(t), true);
            }
            C::step(&self.u, t, h_prev, h_next, &mut cache.gates, &mut cache.aux);
        }
    }
}

/// The recurrent layer behind `any`, whichever its cell: the one place
/// that tries each cell's concrete type.
pub(crate) fn as_recurrent(any: &dyn Any) -> Option<&dyn RecurrentOp> {
    match any.downcast_ref::<Gru>() {
        Some(gru) => Some(gru),
        None => any.downcast_ref::<Lstm>().map(|lstm| lstm as &dyn RecurrentOp),
    }
}

impl<C: Cell> Layer for Recurrent<C> {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "{} input width mismatch", C::KIND.name());
        // take/restore rather than clone: the cache buffers are reused
        // across forward calls and handed to backward without copying.
        let mut cache = self.cache.take().unwrap_or_default();
        cache.input.copy_from(x);
        self.scan_slice_into(x.rows(), x.as_slice(), &mut cache);
        let out = Matrix::from_vec(x.rows(), self.hidden_dim(), cache.states().to_vec());
        self.cache = Some(cache);
        out
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        // scan the borrowed input: only `backward` reads the copy `forward` keeps
        let mut cache = Cache::default();
        self.scan_slice_into(x.rows(), x.as_slice(), &mut cache);
        Matrix::from_vec(x.rows(), self.hidden_dim(), cache.states().to_vec())
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("backward called before forward");
        let mut s = std::mem::take(&mut self.scratch);
        let (t_len, d, h) = (cache.input.rows(), self.input_dim(), self.hidden_dim());
        assert_eq!(grad_out.shape(), (t_len, h), "{} grad shape mismatch", C::KIND.name());

        // The sequential sweep only resolves the recurrent couplings: it
        // fills the per-step pre-activation gradients dA and the carried
        // dh. All parameter gradients then come from whole-sequence
        // products below, where the GEMM kernel (not a per-step loop) does
        // the heavy lifting.
        s.da.resize_with(self.w.len(), Matrix::default);
        for da in &mut s.da {
            da.resize_to(t_len, h);
        }
        for v in [&mut s.dh, &mut s.carry, &mut s.aux] {
            v.clear();
            v.resize(h, 0.0);
        }
        for t in (0..t_len).rev() {
            // total gradient flowing into h_t
            for ((dh, &c), &g) in s.dh.iter_mut().zip(&s.carry).zip(grad_out.row(t)) {
                *dh = c + g;
            }
            C::step_back(&self.u, t, &cache, &mut s);
            // recurrent contributions to dh_{t-1}
            for (u, da) in self.u.iter().zip(&s.da).take(C::H_GATES) {
                let (da, u) = (da.row(t), u.as_slice());
                kernel::gemm(Trans::N, Trans::T, 1, h, h, da, u, &mut s.carry, true);
            }
        }

        // batched parameter gradients: g_W += Xᵀ·DA, g_U += Pᵀ·DA with P the
        // gate's recurrent operand, h_{t-1} or the cell's aux (rows 0..T
        // of either `(T+1) × h` buffer, a prefix)
        let h_prev_all = &cache.hidden.as_slice()[..t_len * h];
        let aux_all = &cache.aux.as_slice()[..t_len * h];
        for (k, da) in s.da.iter().enumerate() {
            cache.input.matmul_tn_acc(da, &mut self.g_w[k]);
            let p = if k < C::H_GATES { h_prev_all } else { aux_all };
            let g_u = self.g_u[k].as_mut_slice();
            kernel::gemm(Trans::T, Trans::N, h, h, t_len, p, da.as_slice(), g_u, true);
            da.sum_rows_acc(&mut self.g_b[k]);
        }
        let mut dx = Matrix::zeros(t_len, d);
        for &k in C::DX_ORDER {
            s.da[k].matmul_nt_acc(&self.w[k], &mut dx);
        }

        self.scratch = s;
        self.cache = Some(cache);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        let pairs = self.w.iter_mut().zip(&mut self.g_w);
        let pairs = pairs.chain(self.u.iter_mut().zip(&mut self.g_u));
        for (p, g) in pairs.chain(self.b.iter_mut().zip(&mut self.g_b)) {
            f(p, g);
        }
    }

    fn info(&self) -> LayerInfo {
        C::KIND.info(self.input_dim(), self.hidden_dim())
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
    fn as_any_mut(&mut self) -> &mut dyn Any {
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
    mod gru {
        use crate::layer::{Layer, ParamVector};
        use crate::recurrent::{BiGru, Gru};
        use mdl_tensor::Matrix;
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
                assert!(
                    (fd - analytic[k]).abs() < 2e-2,
                    "param {k}: fd={fd} analytic={}",
                    analytic[k]
                );
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
                assert!(
                    (fd - analytic[k]).abs() < 2e-2,
                    "param {k}: fd={fd} analytic={}",
                    analytic[k]
                );
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

    mod lstm {
        use crate::layer::{Layer, ParamVector};
        use crate::recurrent::Lstm;
        use mdl_tensor::Matrix;
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
                assert!(
                    (fd - analytic[k]).abs() < 2e-2,
                    "param {k}: fd={fd} analytic={}",
                    analytic[k]
                );
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
}
