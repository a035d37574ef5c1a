//! # mdl-nn
//!
//! Neural-network substrate for the `mobile-dl` workspace: layers with
//! explicit (manual) backpropagation, losses, and the optimizer family the
//! paper references ([10]–[12]) — enough to express every model the paper
//! evaluates: MLP classifiers, GRU/BiGRU sequence encoders (Eq. 1) and the
//! DeepMood fusion heads built on top in `mdl-deepmood`.
//!
//! Design notes:
//!
//! - No autograd tape. Each [`Layer`] caches its forward state and implements
//!   `backward` analytically; everything is verified against finite
//!   differences in the test suite.
//! - Parameters are visited in a stable order (`visit_params`), which gives
//!   free flatten/unflatten ([`ParamVector`]) — the transport format used by
//!   the federated and privacy crates.
//!
//! # Examples
//!
//! ```
//! use mdl_nn::{Sequential, Dense, Activation, Adam, fit_classifier, TrainConfig};
//! use mdl_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Dense::new(2, 8, Activation::Relu, &mut rng));
//! net.push(Dense::new(8, 2, Activation::Identity, &mut rng));
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
//! let mut opt = Adam::new(0.01);
//! let stats = fit_classifier(&mut net, &mut opt, &x, &[0, 1],
//!     &TrainConfig { epochs: 5, ..Default::default() }, &mut rng);
//! assert_eq!(stats.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod plan;
pub mod profile;
pub mod quantized;
mod recurrent;
pub mod saved;
pub mod sequential;
pub mod trainer;

pub use activation::Activation;
pub use conv::{AvgPool2d, Conv2d, ImageShape, SeparableConv2d};
pub use dense::{Dense, Dropout};
pub use layer::{Layer, LayerInfo, ParamVector};
pub use optim::{AdaGrad, Adam, Optimizer, RmsProp, Sgd};
pub use plan::{Plan, PlanCache, PlanError, PlanLookup, PlanModel, PlanOptions, PlanStats};
pub use profile::LayerProfiler;
pub use quantized::QuantizedModel;
pub use recurrent::{BiGru, Gru, Lstm, Recurrent};
pub use saved::{load_model, save_model, LoadModelError};
pub use sequential::Sequential;
pub use trainer::{clip_gradients, fit_batches, fit_classifier, EpochStats, TrainConfig};

#[cfg(test)]
mod proptests {
    use crate::activation::Activation;
    use crate::dense::Dense;
    use crate::layer::{Layer, ParamVector};
    use crate::loss::softmax_cross_entropy;
    use mdl_tensor::Matrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_f32() -> impl Strategy<Value = f32> {
        (-50i32..=50).prop_map(|v| v as f32 / 25.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn identity_dense_is_linear(
            x1 in prop::collection::vec(small_f32(), 3),
            x2 in prop::collection::vec(small_f32(), 3),
            seed in 0u64..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layer = Dense::new(3, 4, Activation::Identity, &mut rng);
            let a = Matrix::row_vector(&x1);
            let b = Matrix::row_vector(&x2);
            let sum = a.add(&b);
            let ya = layer.forward(&a);
            let yb = layer.forward(&b);
            let ysum = layer.forward(&sum);
            // affine: f(a+b) = f(a) + f(b) − f(0)
            let zero = layer.forward(&Matrix::zeros(1, 3));
            let lhs = ysum.add(&zero);
            let rhs = ya.add(&yb);
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn softmax_ce_gradient_rows_sum_to_zero(
            logits in prop::collection::vec(-10f32..10.0, 8),
            label in 0usize..4,
        ) {
            let m = Matrix::from_vec(2, 4, logits);
            let (_, grad) = softmax_cross_entropy(&m, &[label, (label + 1) % 4]);
            for r in 0..2 {
                let s: f32 = grad.row(r).iter().sum();
                prop_assert!(s.abs() < 1e-5, "row {r} sums to {s}");
            }
        }

        #[test]
        fn param_vector_round_trip_is_identity(
            seed in 0u64..100,
            scale in 1u32..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layer = Dense::new(4, 3, Activation::Tanh, &mut rng);
            let v: Vec<f32> = layer.param_vector().iter().map(|p| p * scale as f32).collect();
            layer.set_param_vector(&v);
            prop_assert_eq!(layer.param_vector(), v);
        }

        #[test]
        fn saved_model_round_trips_any_dense_stack(
            seed in 0u64..50,
            hidden in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = crate::sequential::Sequential::new();
            net.push(Dense::new(5, hidden, Activation::Relu, &mut rng));
            net.push(Dense::new(hidden, 2, Activation::Identity, &mut rng));
            let x = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) as f32 * 0.3).sin());
            let before = net.forward(&x);
            let bytes = crate::saved::save_model(&mut net).expect("saveable");
            let mut back = crate::saved::load_model(&bytes).expect("loadable");
            prop_assert!(back.forward(&x).approx_eq(&before, 0.0));
        }

        #[test]
        fn load_model_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = crate::saved::load_model(&data);
        }
    }
}
