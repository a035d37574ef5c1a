//! Element-wise activation functions and their derivatives.

use mdl_tensor::Matrix;

/// Logistic sigmoid `1 / (1 + e^{-x})` — the one definition the dense
/// activations and the GRU/LSTM gates (f32 and int8) share.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Element-wise nonlinearity applied after a layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = max(alpha * x, x)`.
    LeakyRelu(
        /// Negative-side slope.
        f32,
    ),
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(a) => {
                if x >= 0.0 {
                    x
                } else {
                    a * x
                }
            }
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *pre-activation* input `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    1.0
                } else {
                    a
                }
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply_matrix(self, m: &Matrix) -> Matrix {
        m.map(|v| self.apply(v))
    }

    /// Element-wise derivative matrix evaluated at pre-activation `m`.
    pub fn derivative_matrix(self, m: &Matrix) -> Matrix {
        m.map(|v| self.derivative(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn leaky_relu_slope() {
        let a = Activation::LeakyRelu(0.1);
        assert!((a.apply(-2.0) + 0.2).abs() < 1e-6);
        assert_eq!(a.derivative(-2.0), 0.1);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(s.apply(20.0) > 0.999 && s.apply(-20.0) < 0.001);
        assert!((s.derivative(0.0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let eps = 1e-3f32;
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu(0.05),
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            for &x in &[-1.7f32, -0.3, 0.4, 2.1] {
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!((fd - an).abs() < 1e-2, "{act:?} at {x}: fd={fd} an={an}");
            }
        }
    }
}
