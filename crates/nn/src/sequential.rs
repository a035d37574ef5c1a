//! A feed-forward stack of layers.

use crate::layer::{Layer, LayerInfo};
use crate::plan::{Plan, PlanModel};
use crate::profile;
use mdl_tensor::stats::softmax_rows;
use mdl_tensor::Matrix;
use std::sync::Arc;

/// An ordered stack of layers applied front to back.
///
/// # Examples
///
/// ```
/// use mdl_nn::{Sequential, Dense, Activation, Layer};
/// use mdl_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8, Activation::Relu, &mut rng));
/// net.push(Dense::new(8, 3, Activation::Identity, &mut rng));
/// let logits = net.forward_eval(&Matrix::ones(2, 4));
/// assert_eq!(logits.shape(), (2, 3));
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Per-layer counter handles, resolved at [`Layer::set_profiler`]
    /// time so the training loops and [`Plan::run`] only touch atomics.
    pub(crate) profiler: Option<profile::Attached>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let info = l.info();
            write!(f, "{} {}→{}", info.kind, info.in_dim, info.out_dim)?;
        }
        write!(f, "]")
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self { layers: Vec::new(), profiler: None }
    }

    /// Appends a layer to the stack.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.push_boxed(Box::new(layer))
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        // keep handle count in sync if a profiler is already attached
        if let Some(attached) = self.profiler.take() {
            self.profiler = Some(profile::Attached::new(attached.profiler, &self.layer_infos()));
        }
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers (used by compression passes).
    pub fn layers_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Splits the stack after `at` layers into (local, cloud) halves.
    ///
    /// Used by the split-inference framework (paper Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_at(self, at: usize) -> (Sequential, Sequential) {
        assert!(at <= self.layers.len(), "split point beyond network depth");
        let mut layers = self.layers;
        let tail = layers.split_off(at);
        // profiler handles are bound to the original layer indices;
        // the halves start unprofiled
        (Sequential { layers, profiler: None }, Sequential { layers: tail, profiler: None })
    }

    /// Read-only forward pass through `layers()[range]` only — the
    /// device-side trunk `0..k` or the server-side resume `k..len()` of a
    /// split model (paper Fig. 3). Compiles a [`Plan`] for `x`'s shape and
    /// runs it once; callers that repeat a shape keep the plan instead
    /// ([`crate::PlanCache`]). An empty range is the identity, a zero-row
    /// `x` yields `0 × out_dim`, and a width the range's first layer does
    /// not take panics with the [`crate::PlanError`] text.
    pub fn forward_eval_range(&self, x: &Matrix, range: std::ops::Range<usize>) -> Matrix {
        Plan::run_once(PlanModel::F32(self), range, x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Class probabilities (softmax over the final layer's outputs).
    ///
    /// Runs the read-only [`Layer::forward_eval`] path, so concurrent
    /// callers can share the model behind an `Arc`.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        softmax_rows(&self.forward_eval(x))
    }

    /// Hard class predictions (read-only; shareable across threads).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.forward_eval(x).argmax_rows()
    }

    /// Fraction of rows whose argmax matches the label.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f64 {
        let pred = self.predict(x);
        let correct = pred.iter().zip(labels.iter()).filter(|(p, y)| p == y).count();
        correct as f64 / labels.len().max(1) as f64
    }

    /// Per-layer structural descriptions.
    pub fn layer_infos(&self) -> Vec<LayerInfo> {
        self.layers.iter().map(|l| l.info()).collect()
    }

    /// Total multiply–accumulate count per example.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.info().macs).sum()
    }
}

impl Layer for Sequential {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let Self { layers, profiler } = self;
        let mut cur = x.clone();
        match profiler {
            None => {
                for layer in layers {
                    cur = layer.forward(&cur);
                }
            }
            Some(p) => {
                for (layer, handles) in layers.iter_mut().zip(&p.handles) {
                    let rows = cur.rows();
                    let t0 = p.profiler.now_ns();
                    cur = layer.forward(&cur);
                    handles.record_fwd(rows, p.profiler.now_ns().saturating_sub(t0));
                }
            }
        }
        cur
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        self.forward_eval_range(x, 0..self.layers.len())
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let Self { layers, profiler } = self;
        let mut grad = grad_out.clone();
        match profiler {
            None => {
                for layer in layers.iter_mut().rev() {
                    grad = layer.backward(&grad);
                }
            }
            Some(p) => {
                for (layer, handles) in layers.iter_mut().zip(&p.handles).rev() {
                    let t0 = p.profiler.now_ns();
                    grad = layer.backward(&grad);
                    handles.record_bwd(p.profiler.now_ns().saturating_sub(t0));
                }
            }
        }
        grad
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn set_profiler(&mut self, profiler: Option<Arc<crate::profile::LayerProfiler>>) {
        self.profiler = profiler.map(|p| profile::Attached::new(p, &self.layer_infos()));
    }

    fn info(&self) -> LayerInfo {
        let in_dim = self.layers.first().map(|l| l.info().in_dim).unwrap_or(0);
        let out_dim = self.layers.last().map(|l| l.info().out_dim).unwrap_or(0);
        LayerInfo {
            kind: "sequential",
            in_dim,
            out_dim,
            params: self.layers.iter().map(|l| l.info().params).sum(),
            macs: self.total_macs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::dense::Dense;
    use crate::layer::ParamVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_layer(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, Activation::Tanh, rng));
        net.push(Dense::new(5, 2, Activation::Identity, rng));
        net
    }

    #[test]
    fn forward_composes() {
        let mut rng = StdRng::seed_from_u64(40);
        let net = two_layer(&mut rng);
        let y = net.forward_eval(&Matrix::ones(7, 3));
        assert_eq!(y.shape(), (7, 2));
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut net = two_layer(&mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.5, 0.9], &[1.0, 0.2, -0.4]]);
        let base = net.param_vector();
        net.zero_grad();
        let _ = net.forward(&x);
        let _ = net.backward(&Matrix::ones(2, 2));
        let analytic = net.grad_vector();

        let eps = 1e-3f32;
        let n = base.len();
        for k in [0usize, n / 4, n / 2, 3 * n / 4, n - 1] {
            let mut plus = base.clone();
            plus[k] += eps;
            net.set_param_vector(&plus);
            let lp = net.forward(&x).sum();
            let mut minus = base.clone();
            minus[k] -= eps;
            net.set_param_vector(&minus);
            let lm = net.forward(&x).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic[k]).abs() < 1e-2, "param {k}: fd={fd} vs {}", analytic[k]);
        }
    }

    #[test]
    fn split_at_preserves_function() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = two_layer(&mut rng);
        let x = Matrix::from_rows(&[&[0.1, 0.4, -0.2]]);
        let full = net.forward(&x);
        let (mut local, mut cloud) = net.split_at(1);
        let mid = local.forward(&x);
        let composed = cloud.forward(&mid);
        assert!(composed.approx_eq(&full, 1e-6));
        assert_eq!(local.len(), 1);
        assert_eq!(cloud.len(), 1);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(43);
        let net = two_layer(&mut rng);
        let p = net.predict_proba(&Matrix::ones(3, 3));
        for r in 0..3 {
            assert!((p.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn info_aggregates() {
        let mut rng = StdRng::seed_from_u64(44);
        let net = two_layer(&mut rng);
        let info = net.info();
        assert_eq!(info.in_dim, 3);
        assert_eq!(info.out_dim, 2);
        assert_eq!(info.params, 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(info.macs, 15 + 10);
    }

    #[test]
    fn accuracy_on_trivial_labels() {
        let mut rng = StdRng::seed_from_u64(45);
        let net = two_layer(&mut rng);
        let x = Matrix::ones(4, 3);
        let pred = net.predict(&x);
        let acc = net.accuracy(&x, &pred);
        assert_eq!(acc, 1.0);
    }
}
