//! First-order optimizers (paper references [10]–[12]).
//!
//! Optimizers are driven through [`crate::Layer::visit_params`]: each call to
//! [`Optimizer::step`] walks the model's parameters in their stable visiting
//! order, so per-parameter state (Adam moments etc.) is matched positionally.

use crate::layer::Layer;
use mdl_tensor::Matrix;

/// What [`Layer::visit_params`] hands each `(value, gradient)` pair to.
type ParamFn<'a> = dyn FnMut(&mut Matrix, &mut Matrix) + 'a;

/// A stateful first-order optimizer.
pub trait Optimizer: Send {
    /// Applies one update to every parameter of `model` using the gradients
    /// accumulated since the last [`Layer::zero_grad`].
    fn step(&mut self, model: &mut dyn Layer) {
        self.step_params(&mut |f| model.visit_params(f));
    }

    /// [`Optimizer::step`] over a bare parameter walk — all an optimizer
    /// reads of a model — for a composite that is not itself a [`Layer`]:
    /// `visit` must call its argument once per `(value, gradient)` pair, in
    /// the same order on every call.
    fn step_params(&mut self, visit: &mut dyn FnMut(&mut ParamFn<'_>));

    /// Current base learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the base learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent, optionally with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// SGD with the given learning rate, no momentum.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Adds decoupled L2 weight decay.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step_params(&mut self, visit: &mut dyn FnMut(&mut ParamFn<'_>)) {
        let mut idx = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        visit(&mut |value, grad| {
            if wd > 0.0 {
                value.scale_mut(1.0 - lr * wd);
            }
            if momentum > 0.0 {
                if velocity.len() <= idx {
                    velocity.push(Matrix::zeros(value.rows(), value.cols()));
                }
                let v = &mut velocity[idx];
                v.scale_mut(momentum);
                v.add_scaled(-lr, grad);
                value.add_assign(v);
            } else {
                value.add_scaled(-lr, grad);
            }
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, paper reference [10]).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard hyper-parameters `β₁=0.9, β₂=0.999, ε=1e-8`.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step_params(&mut self, visit: &mut dyn FnMut(&mut ParamFn<'_>)) {
        self.t += 1;
        let (b1, b2, eps, lr, t) = (self.beta1, self.beta2, self.eps, self.lr, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let mut idx = 0usize;
        let m_all = &mut self.m;
        let v_all = &mut self.v;
        visit(&mut |value, grad| {
            if m_all.len() <= idx {
                m_all.push(Matrix::zeros(value.rows(), value.cols()));
                v_all.push(Matrix::zeros(value.rows(), value.cols()));
            }
            let m = &mut m_all[idx];
            let v = &mut v_all[idx];
            for ((mv, vv), (&g, val)) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(grad.as_slice().iter().zip(value.as_mut_slice().iter_mut()))
            {
                *mv = b1 * *mv + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *val -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// AdaGrad (Duchi et al., paper reference [11]).
#[derive(Debug, Clone)]
pub struct AdaGrad {
    lr: f32,
    eps: f32,
    accum: Vec<Matrix>,
}

impl AdaGrad {
    /// AdaGrad with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr, eps: 1e-8, accum: Vec::new() }
    }
}

impl Optimizer for AdaGrad {
    fn step_params(&mut self, visit: &mut dyn FnMut(&mut ParamFn<'_>)) {
        let (lr, eps) = (self.lr, self.eps);
        let mut idx = 0usize;
        let accum = &mut self.accum;
        visit(&mut |value, grad| {
            if accum.len() <= idx {
                accum.push(Matrix::zeros(value.rows(), value.cols()));
            }
            let a = &mut accum[idx];
            for ((av, &g), val) in a
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice().iter())
                .zip(value.as_mut_slice().iter_mut())
            {
                *av += g * g;
                *val -= lr * g / (av.sqrt() + eps);
            }
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSProp (Tieleman & Hinton, paper reference [12]).
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    mean_sq: Vec<Matrix>,
}

impl RmsProp {
    /// RMSProp with decay `0.9`.
    pub fn new(lr: f32) -> Self {
        Self { lr, decay: 0.9, eps: 1e-8, mean_sq: Vec::new() }
    }
}

impl Optimizer for RmsProp {
    fn step_params(&mut self, visit: &mut dyn FnMut(&mut ParamFn<'_>)) {
        let (lr, decay, eps) = (self.lr, self.decay, self.eps);
        let mut idx = 0usize;
        let mean_sq = &mut self.mean_sq;
        visit(&mut |value, grad| {
            if mean_sq.len() <= idx {
                mean_sq.push(Matrix::zeros(value.rows(), value.cols()));
            }
            let s = &mut mean_sq[idx];
            for ((sv, &g), val) in s
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice().iter())
                .zip(value.as_mut_slice().iter_mut())
            {
                *sv = decay * *sv + (1.0 - decay) * g * g;
                *val -= lr * g / (sv.sqrt() + eps);
            }
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::dense::Dense;
    use crate::layer::ParamVector;
    use mdl_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One quadratic-bowl step: minimise sum((W·1 - 0)²) style objective by
    /// driving a 1-layer model's output toward zero.
    fn loss_and_step(opt: &mut dyn Optimizer, steps: usize) -> (f32, f32) {
        let mut rng = StdRng::seed_from_u64(30);
        let mut layer = Dense::new(4, 3, Activation::Identity, &mut rng);
        let x = Matrix::ones(8, 4);
        let target = Matrix::zeros(8, 3);
        let initial = {
            let y = layer.forward(&x);
            crate::loss::mse(&y, &target).0
        };
        let mut last = initial;
        for _ in 0..steps {
            layer.zero_grad();
            let y = layer.forward(&x);
            let (l, g) = crate::loss::mse(&y, &target);
            last = l;
            let _ = layer.backward(&g);
            opt.step(&mut layer);
        }
        (initial, last)
    }

    #[test]
    fn sgd_decreases_loss() {
        let (initial, last) = loss_and_step(&mut Sgd::new(0.05), 50);
        assert!(last < initial * 0.1, "initial={initial} last={last}");
    }

    #[test]
    fn momentum_decreases_loss() {
        let (initial, last) = loss_and_step(&mut Sgd::with_momentum(0.02, 0.9), 50);
        assert!(last < initial * 0.1, "initial={initial} last={last}");
    }

    #[test]
    fn adam_decreases_loss() {
        let (initial, last) = loss_and_step(&mut Adam::new(0.05), 80);
        assert!(last < initial * 0.1, "initial={initial} last={last}");
    }

    #[test]
    fn adagrad_decreases_loss() {
        let (initial, last) = loss_and_step(&mut AdaGrad::new(0.5), 80);
        assert!(last < initial * 0.2, "initial={initial} last={last}");
    }

    #[test]
    fn rmsprop_decreases_loss() {
        let (initial, last) = loss_and_step(&mut RmsProp::new(0.01), 120);
        assert!(last < initial * 0.2, "initial={initial} last={last}");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut layer = Dense::new(4, 4, Activation::Identity, &mut rng);
        let before: f32 = layer.param_vector().iter().map(|v| v.abs()).sum();
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        layer.zero_grad();
        opt.step(&mut layer);
        let after: f32 = layer.param_vector().iter().map(|v| v.abs()).sum();
        assert!(after < before, "decay should shrink weights: {before} -> {after}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
