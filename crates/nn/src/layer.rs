//! The [`Layer`] trait: manual forward/backward with cached state.

use mdl_tensor::Matrix;

/// Static description of a layer, used by cost models and reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerInfo {
    /// Human-readable layer kind, e.g. `"dense"` or `"gru"`.
    pub kind: &'static str,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
    /// Number of trainable parameters.
    pub params: usize,
    /// Multiply–accumulate operations per example.
    pub macs: u64,
}

/// A differentiable layer with explicit forward and backward passes.
///
/// The receiver says which pass runs. [`Layer::forward`] takes `&mut self`
/// and is the *training* forward: it may overwrite the layer's caches (the
/// inputs and pre-activations [`Layer::backward`] reads) and advance its
/// random state (dropout samples a mask). [`Layer::forward_eval`] takes
/// `&self` and is the only way to ask a model for an answer: it mutates
/// nothing, so a frozen model serves concurrent inference behind an `Arc`
/// (the `Sync` bound) without cloning per thread. On a layer with no
/// stochastic part the two return the same bits.
///
/// [`Layer::backward`] *accumulates* parameter gradients; call
/// [`Layer::zero_grad`] before accumulating a new batch.
pub trait Layer: Send + Sync {
    /// Training forward for a batch (`rows = examples`): computes the
    /// outputs and caches what the matching [`Layer::backward`] needs.
    /// Stochastic layers (dropout) are live.
    fn forward(&mut self, x: &Matrix) -> Matrix;

    /// Inference forward: the same outputs without mutating the layer —
    /// nothing is cached for backward, and stochastic layers (dropout) act
    /// as identity. Safe to call from many threads on a shared reference.
    fn forward_eval(&self, x: &Matrix) -> Matrix;

    /// Propagates `grad_out` (∂L/∂output) back, returning ∂L/∂input and
    /// accumulating parameter gradients internally.
    ///
    /// Must be called after a matching [`Layer::forward`].
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Visits each `(value, gradient)` parameter pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Resets accumulated gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    /// Structural description for cost models.
    fn info(&self) -> LayerInfo;

    /// Installs (`Some`) or removes (`None`) a per-layer profiler; see
    /// [`crate::profile::LayerProfiler`]. The default does nothing —
    /// only containers like [`crate::Sequential`] have per-layer timing
    /// to report, and callers may hand any `Layer` a profiler without
    /// caring.
    fn set_profiler(&mut self, _profiler: Option<std::sync::Arc<crate::profile::LayerProfiler>>) {}

    /// Runtime downcasting hook, used by the compression passes to reach
    /// concrete layer types inside a [`crate::Sequential`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Shared-reference downcasting hook, used by the plan compiler
    /// ([`crate::plan`]) to specialize ops for concrete layer types
    /// behind an `Arc` (where `as_any_mut` is unreachable). Layers with an
    /// arena-backed plan op override this to return `Some(self)`; the
    /// default `None` plans as the generic op, which calls this layer's
    /// own [`Layer::forward_eval`] once per run.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Extension helpers shared by everything that owns parameters.
pub trait ParamVector {
    /// Flattens all parameter values into one vector (stable order).
    fn param_vector(&mut self) -> Vec<f32>;
    /// Flattens all parameter gradients into one vector (stable order).
    fn grad_vector(&mut self) -> Vec<f32>;
    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat` has the wrong length.
    fn set_param_vector(&mut self, flat: &[f32]);
    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize;
}

impl<L: Layer + ?Sized> ParamVector for L {
    fn param_vector(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |v, _| out.extend_from_slice(v.as_slice()));
        out
    }

    fn grad_vector(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |_, g| out.extend_from_slice(g.as_slice()));
        out
    }

    fn set_param_vector(&mut self, flat: &[f32]) {
        let mut offset = 0usize;
        self.visit_params(&mut |v, _| {
            let n = v.len();
            assert!(offset + n <= flat.len(), "parameter vector too short");
            v.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
        assert_eq!(offset, flat.len(), "parameter vector too long: {} > {offset}", flat.len());
    }

    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |v, _| n += v.len());
        n
    }
}
