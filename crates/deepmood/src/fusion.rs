//! Late-fusion output layers (paper Eqs. 2–4).
//!
//! All three heads consume the **concatenated** per-view GRU states
//! `h = [h⁽¹⁾; …; h⁽ᵐ⁾] ∈ R^d` and emit class scores; they differ in how
//! they model interactions between the views:
//!
//! - [`FullyConnectedFusion`] (Eq. 2): nonlinearity via a hidden ReLU layer;
//! - [`FactorizationMachineFusion`] (Eq. 3): explicit second-order feature
//!   interactions, `ŷ_a = Σ_f (U_a h)_f² + w_aᵀ[h; 1]`;
//! - [`MultiViewMachineFusion`] (Eq. 4): full up-to-`m`-th-order interactions
//!   across views, `ŷ_a = Σ_f Π_p (U_a⁽ᵖ⁾ [h⁽ᵖ⁾; 1])_f`.

use mdl_nn::{Activation, Dense, Layer, LayerInfo, Sequential};
use mdl_tensor::{Init, Matrix};
use rand::Rng;

/// Eq. 2: `q = relu(W⁽¹⁾ [h; 1])`, `ŷ = W⁽²⁾ q` — a standard MLP head.
#[derive(Debug)]
pub struct FullyConnectedFusion {
    net: Sequential,
    in_dim: usize,
    classes: usize,
}

impl FullyConnectedFusion {
    /// Creates the head with `hidden` units (the paper's `k'`).
    pub fn new(in_dim: usize, hidden: usize, classes: usize, rng: &mut impl Rng) -> Self {
        let mut net = Sequential::new();
        net.push(Dense::new(in_dim, hidden, Activation::Relu, rng));
        net.push(Dense::new(hidden, classes, Activation::Identity, rng));
        Self { net, in_dim, classes }
    }
}

impl Layer for FullyConnectedFusion {
    fn forward(&mut self, h: &Matrix) -> Matrix {
        self.net.forward(h)
    }

    fn forward_eval(&self, h: &Matrix) -> Matrix {
        self.net.forward_eval(h)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.net.backward(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.net.visit_params(f);
    }

    fn info(&self) -> LayerInfo {
        LayerInfo {
            kind: "fusion-fc",
            in_dim: self.in_dim,
            out_dim: self.classes,
            params: self.net.info().params,
            macs: self.net.info().macs,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Eq. 3: per class `a`, `ŷ_a = Σ_f (U_a h)_f² + w_aᵀ [h; 1]`.
pub struct FactorizationMachineFusion {
    /// One `k × d` factor matrix per class.
    u: Vec<Matrix>,
    /// One `1 × (d+1)` linear weight per class.
    w: Vec<Matrix>,
    g_u: Vec<Matrix>,
    g_w: Vec<Matrix>,
    factors: usize,
    cache: Option<FmCache>,
}

struct FmCache {
    input: Matrix,
    /// `q[class]` is `n × k`.
    q: Vec<Matrix>,
}

impl std::fmt::Debug for FactorizationMachineFusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorizationMachineFusion")
            .field("classes", &self.u.len())
            .field("factors", &self.factors)
            .finish()
    }
}

impl FactorizationMachineFusion {
    /// Creates the head with `factors` latent factors (the paper's `k`).
    pub fn new(in_dim: usize, factors: usize, classes: usize, rng: &mut impl Rng) -> Self {
        let init = Init::Normal { std: 0.1 };
        Self {
            u: (0..classes).map(|_| init.sample(factors, in_dim, rng)).collect(),
            w: (0..classes).map(|_| Matrix::zeros(1, in_dim + 1)).collect(),
            g_u: (0..classes).map(|_| Matrix::zeros(factors, in_dim)).collect(),
            g_w: (0..classes).map(|_| Matrix::zeros(1, in_dim + 1)).collect(),
            factors,
            cache: None,
        }
    }

    fn in_dim(&self) -> usize {
        self.u[0].cols()
    }

    /// Class scores plus the per-class latent projections `q = h · Uᵀ`.
    fn score(&self, h: &Matrix) -> (Matrix, Vec<Matrix>) {
        let d = self.in_dim();
        assert_eq!(h.cols(), d, "FM fusion input width mismatch");
        let classes = self.u.len();
        let mut out = Matrix::zeros(h.rows(), classes);
        let mut q_all = Vec::with_capacity(classes);
        for (a, (u, w)) in self.u.iter().zip(self.w.iter()).enumerate() {
            // q = h · Uᵀ  (n × k)
            let q = h.matmul_nt(u);
            for r in 0..h.rows() {
                let quad: f32 = q.row(r).iter().map(|v| v * v).sum();
                let lin: f32 =
                    h.row(r).iter().zip(w.row(0)[..d].iter()).map(|(&x, &wi)| x * wi).sum::<f32>()
                        + w[(0, d)];
                out[(r, a)] = quad + lin;
            }
            q_all.push(q);
        }
        (out, q_all)
    }
}

impl Layer for FactorizationMachineFusion {
    fn forward(&mut self, h: &Matrix) -> Matrix {
        let (out, q_all) = self.score(h);
        self.cache = Some(FmCache { input: h.clone(), q: q_all });
        out
    }

    fn forward_eval(&self, h: &Matrix) -> Matrix {
        self.score(h).0
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let h = &cache.input;
        let d = self.in_dim();
        let n = h.rows();
        assert_eq!(grad_out.shape(), (n, self.u.len()), "FM grad shape mismatch");

        let mut dh = Matrix::zeros(n, d);
        for a in 0..self.u.len() {
            let q = &cache.q[a];
            for r in 0..n {
                let g = grad_out[(r, a)];
                if g == 0.0 {
                    continue;
                }
                // quadratic term: dŷ/dh = 2 qᵀ U, dŷ/dU = 2 q hᵀ
                for f in 0..self.factors {
                    let qv = 2.0 * g * q[(r, f)];
                    for c in 0..d {
                        dh[(r, c)] += qv * self.u[a][(f, c)];
                        self.g_u[a][(f, c)] += qv * h[(r, c)];
                    }
                }
                // linear term
                for c in 0..d {
                    dh[(r, c)] += g * self.w[a][(0, c)];
                    self.g_w[a][(0, c)] += g * h[(r, c)];
                }
                self.g_w[a][(0, d)] += g;
            }
        }
        dh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for (u, g) in self.u.iter_mut().zip(self.g_u.iter_mut()) {
            f(u, g);
        }
        for (w, g) in self.w.iter_mut().zip(self.g_w.iter_mut()) {
            f(w, g);
        }
    }

    fn info(&self) -> LayerInfo {
        let d = self.in_dim();
        let c = self.u.len();
        LayerInfo {
            kind: "fusion-fm",
            in_dim: d,
            out_dim: c,
            params: c * (self.factors * d + d + 1),
            macs: (c * self.factors * d) as u64,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Eq. 4: per class `a`, `ŷ_a = Σ_f Π_p (U_a⁽ᵖ⁾ [h⁽ᵖ⁾; 1])_f` over the `m`
/// views. Operates on the concatenation, splitting it by `view_dims`.
pub struct MultiViewMachineFusion {
    view_dims: Vec<usize>,
    /// `u[class][view]` is `k × (d_p + 1)`.
    u: Vec<Vec<Matrix>>,
    g_u: Vec<Vec<Matrix>>,
    factors: usize,
    cache: Option<MvmCache>,
}

struct MvmCache {
    input: Matrix,
    /// `q[class][view]` is `n × k`.
    q: Vec<Vec<Matrix>>,
}

impl std::fmt::Debug for MultiViewMachineFusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiViewMachineFusion")
            .field("views", &self.view_dims)
            .field("classes", &self.u.len())
            .field("factors", &self.factors)
            .finish()
    }
}

impl MultiViewMachineFusion {
    /// Creates the head over views of the given widths.
    pub fn new(view_dims: &[usize], factors: usize, classes: usize, rng: &mut impl Rng) -> Self {
        assert!(!view_dims.is_empty(), "need at least one view");
        let init = Init::Normal { std: 0.3 };
        let u: Vec<Vec<Matrix>> = (0..classes)
            .map(|_| view_dims.iter().map(|&d| init.sample(factors, d + 1, rng)).collect())
            .collect();
        let g_u = (0..classes)
            .map(|_| view_dims.iter().map(|&d| Matrix::zeros(factors, d + 1)).collect())
            .collect();
        Self { view_dims: view_dims.to_vec(), u, g_u, factors, cache: None }
    }

    fn total_dim(&self) -> usize {
        self.view_dims.iter().sum()
    }

    /// Offsets of each view inside the concatenated input.
    fn offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.view_dims.len());
        let mut acc = 0;
        for &d in &self.view_dims {
            out.push(acc);
            acc += d;
        }
        out
    }

    /// Class scores plus the per-class, per-view factor projections.
    fn score(&self, h: &Matrix) -> (Matrix, Vec<Vec<Matrix>>) {
        assert_eq!(h.cols(), self.total_dim(), "MVM fusion input width mismatch");
        let n = h.rows();
        let classes = self.u.len();
        let offsets = self.offsets();
        let mut out = Matrix::zeros(n, classes);
        let mut q_all: Vec<Vec<Matrix>> = Vec::with_capacity(classes);
        for a in 0..classes {
            let mut q_views = Vec::with_capacity(self.view_dims.len());
            for (p, &dp) in self.view_dims.iter().enumerate() {
                let mut q = Matrix::zeros(n, self.factors);
                for r in 0..n {
                    let hp = &h.row(r)[offsets[p]..offsets[p] + dp];
                    for f in 0..self.factors {
                        let mut acc = self.u[a][p][(f, dp)]; // bias column
                        for (c, &x) in hp.iter().enumerate() {
                            acc += self.u[a][p][(f, c)] * x;
                        }
                        q[(r, f)] = acc;
                    }
                }
                q_views.push(q);
            }
            for r in 0..n {
                let mut total = 0.0f32;
                for f in 0..self.factors {
                    let mut prod = 1.0f32;
                    for q in &q_views {
                        prod *= q[(r, f)];
                    }
                    total += prod;
                }
                out[(r, a)] = total;
            }
            q_all.push(q_views);
        }
        (out, q_all)
    }
}

impl Layer for MultiViewMachineFusion {
    fn forward(&mut self, h: &Matrix) -> Matrix {
        let (out, q_all) = self.score(h);
        self.cache = Some(MvmCache { input: h.clone(), q: q_all });
        out
    }

    fn forward_eval(&self, h: &Matrix) -> Matrix {
        self.score(h).0
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let h = &cache.input;
        let n = h.rows();
        let m = self.view_dims.len();
        let offsets = self.offsets();
        assert_eq!(grad_out.shape(), (n, self.u.len()), "MVM grad shape mismatch");

        let mut dh = Matrix::zeros(n, self.total_dim());
        for a in 0..self.u.len() {
            let q_views = &cache.q[a];
            for r in 0..n {
                let g = grad_out[(r, a)];
                if g == 0.0 {
                    continue;
                }
                for f in 0..self.factors {
                    // product of the other views' factors, per view
                    for p in 0..m {
                        let mut others = 1.0f32;
                        for (pp, q) in q_views.iter().enumerate() {
                            if pp != p {
                                others *= q[(r, f)];
                            }
                        }
                        let dq = g * others;
                        let dp = self.view_dims[p];
                        let hp = &h.row(r)[offsets[p]..offsets[p] + dp];
                        for (c, &x) in hp.iter().enumerate() {
                            self.g_u[a][p][(f, c)] += dq * x;
                            dh[(r, offsets[p] + c)] += dq * self.u[a][p][(f, c)];
                        }
                        self.g_u[a][p][(f, dp)] += dq; // bias column
                    }
                }
            }
        }
        dh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for (urow, grow) in self.u.iter_mut().zip(self.g_u.iter_mut()) {
            for (u, g) in urow.iter_mut().zip(grow.iter_mut()) {
                f(u, g);
            }
        }
    }

    fn info(&self) -> LayerInfo {
        let c = self.u.len();
        let params: usize =
            c * self.view_dims.iter().map(|&d| self.factors * (d + 1)).sum::<usize>();
        LayerInfo {
            kind: "fusion-mvm",
            in_dim: self.total_dim(),
            out_dim: c,
            params,
            macs: params as u64,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_nn::ParamVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grad_check_layer(layer: &mut dyn Layer, x: &Matrix, tol: f32) {
        let base = layer.param_vector();
        layer.zero_grad();
        let out = layer.forward(x);
        let gout = Matrix::ones(out.rows(), out.cols());
        let dx = layer.backward(&gout);
        let analytic = layer.grad_vector();

        let eps = 1e-3f32;
        let n = base.len();
        let picks: Vec<usize> = (0..16.min(n)).map(|i| i * n / 16.min(n)).collect();
        for k in picks {
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
        // input gradient
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let lp = layer.forward(&xp).sum();
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lm = layer.forward(&xm).sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < tol,
                    "input ({r},{c}): fd={fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn fc_fusion_shapes_and_gradients() {
        let mut rng = StdRng::seed_from_u64(330);
        let mut head = FullyConnectedFusion::new(6, 8, 3, &mut rng);
        let x = Matrix::from_fn(2, 6, |r, c| ((r * 6 + c) as f32 * 0.4).sin() * 0.5);
        let y = head.forward(&x);
        assert_eq!(y.shape(), (2, 3));
        grad_check_layer(&mut head, &x, 2e-2);
    }

    #[test]
    fn fm_fusion_known_value() {
        let mut rng = StdRng::seed_from_u64(331);
        let mut head = FactorizationMachineFusion::new(2, 1, 1, &mut rng);
        // set U = [[1, 1]], w = [0.5, -0.5, 0.25]
        head.set_param_vector(&[1.0, 1.0, 0.5, -0.5, 0.25]);
        let x = Matrix::from_rows(&[&[2.0, 3.0]]);
        let y = head.forward(&x);
        // q = 2 + 3 = 5 → quad 25; lin = 1.0 − 1.5 + 0.25 = −0.25
        assert!((y[(0, 0)] - 24.75).abs() < 1e-5, "{y:?}");
    }

    #[test]
    fn fm_fusion_gradient_check() {
        let mut rng = StdRng::seed_from_u64(332);
        let mut head = FactorizationMachineFusion::new(5, 3, 2, &mut rng);
        let x = Matrix::from_fn(3, 5, |r, c| ((r + c) as f32 * 0.7).cos() * 0.4);
        grad_check_layer(&mut head, &x, 2e-2);
    }

    #[test]
    fn mvm_fusion_known_value() {
        let mut rng = StdRng::seed_from_u64(333);
        let mut head = MultiViewMachineFusion::new(&[1, 1], 1, 1, &mut rng);
        // view p factor matrices are 1 × 2 (weight, bias):
        // U¹ = [2, 1], U² = [3, −1]
        head.set_param_vector(&[2.0, 1.0, 3.0, -1.0]);
        let x = Matrix::from_rows(&[&[0.5, 2.0]]);
        // q¹ = 2·0.5 + 1 = 2; q² = 3·2 − 1 = 5 → ŷ = 10
        let y = head.forward(&x);
        assert!((y[(0, 0)] - 10.0).abs() < 1e-5, "{y:?}");
    }

    #[test]
    fn mvm_fusion_gradient_check() {
        let mut rng = StdRng::seed_from_u64(334);
        let mut head = MultiViewMachineFusion::new(&[3, 2, 4], 2, 2, &mut rng);
        let x = Matrix::from_fn(2, 9, |r, c| ((r * 9 + c) as f32 * 0.5).sin() * 0.5);
        grad_check_layer(&mut head, &x, 3e-2);
    }

    #[test]
    fn heads_report_consistent_info() {
        let mut rng = StdRng::seed_from_u64(335);
        let mut fc = FullyConnectedFusion::new(10, 16, 4, &mut rng);
        let mut fm = FactorizationMachineFusion::new(10, 5, 4, &mut rng);
        let mut mvm = MultiViewMachineFusion::new(&[4, 3, 3], 5, 4, &mut rng);
        assert_eq!(fc.info().params, fc.num_params());
        assert_eq!(fm.info().params, fm.num_params());
        assert_eq!(mvm.info().params, mvm.num_params());
        assert_eq!(fc.info().out_dim, 4);
        assert_eq!(fm.info().in_dim, 10);
        assert_eq!(mvm.info().in_dim, 10);
    }
}
