//! Differentially private SGD (Abadi et al., paper reference [20]):
//! per-example gradient clipping + Gaussian noise + moments accounting.

use crate::accountant::MomentsAccountant;
use crate::mechanism::clip_update;
use mdl_nn::loss::softmax_cross_entropy;
use mdl_nn::{Layer, ParamVector};
use mdl_tensor::init::gaussian;
use mdl_tensor::Matrix;
use rand::Rng;

/// Hyper-parameters of a DP-SGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSgdConfig {
    /// Passes over the data (in expectation, under Poisson sampling).
    pub epochs: usize,
    /// Expected lot (batch) size `L`; the sampling rate is `q = L / n`.
    pub lot_size: usize,
    /// Per-example gradient clip norm `C`.
    pub clip_norm: f64,
    /// Noise multiplier `σ` (noise std is `σ·C / L`).
    pub noise_multiplier: f64,
    /// Learning rate.
    pub learning_rate: f32,
    /// Failure probability for the reported ε.
    pub delta: f64,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            lot_size: 32,
            clip_norm: 1.0,
            noise_multiplier: 1.1,
            learning_rate: 0.1,
            delta: 1e-5,
        }
    }
}

/// Outcome of a DP-SGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSgdReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Total gradient steps taken.
    pub steps: u64,
    /// Privacy spent, as `(ε, δ)`.
    pub epsilon: f64,
    /// δ used for the ε report.
    pub delta: f64,
    /// Fraction of per-example gradients that hit the clip bound.
    pub clip_fraction: f64,
}

/// Trains `model` with DP-SGD on `(x, labels)`.
///
/// Each step draws a Poisson-sampled lot (`q = lot_size / n`), computes
/// *per-example* gradients, clips each to `C`, averages over the lot size,
/// and perturbs with `N(0, (σC/L)²)` noise — exactly the mechanism the
/// moments accountant expects.
///
/// # Panics
///
/// Panics if the training set is empty or `lot_size` is zero.
pub fn train_dp_sgd(
    model: &mut dyn Layer,
    x: &Matrix,
    labels: &[usize],
    config: &DpSgdConfig,
    rng: &mut impl Rng,
) -> DpSgdReport {
    assert!(!labels.is_empty(), "training set must be non-empty");
    assert!(config.lot_size > 0, "lot size must be positive");
    let n = labels.len();
    let q = (config.lot_size as f64 / n as f64).min(1.0);
    let steps_per_epoch = (n / config.lot_size).max(1);
    let mut accountant = MomentsAccountant::new(q, config.noise_multiplier);

    let dim = model.num_params();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut clipped = 0u64;
    let mut total_examples = 0u64;

    for _ in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        let mut lots = 0usize;
        for _ in 0..steps_per_epoch {
            // Poisson-sampled lot
            let lot: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < q).collect();
            if lot.is_empty() {
                accountant.step(1);
                continue;
            }
            let mut summed = vec![0.0f32; dim];
            let mut lot_loss = 0.0f64;
            for &i in &lot {
                let xi = Matrix::row_vector(x.row(i));
                model.zero_grad();
                let logits = model.forward(&xi);
                let (loss, grad) = softmax_cross_entropy(&logits, &[labels[i]]);
                let _ = model.backward(&grad);
                let mut g = model.grad_vector();
                let pre = clip_update(&mut g, config.clip_norm);
                if pre > config.clip_norm {
                    clipped += 1;
                }
                total_examples += 1;
                for (s, &v) in summed.iter_mut().zip(g.iter()) {
                    *s += v;
                }
                lot_loss += loss as f64;
            }
            // noise scaled to the *expected* lot size L, as in the paper
            let noise_std = (config.noise_multiplier * config.clip_norm) as f32;
            let scale = 1.0 / config.lot_size as f32;
            let mut params = model.param_vector();
            for (p, s) in params.iter_mut().zip(summed.iter()) {
                let noisy = (s + gaussian(rng) * noise_std) * scale;
                *p -= config.learning_rate * noisy;
            }
            model.set_param_vector(&params);
            accountant.step(1);
            epoch_loss += lot_loss / lot.len() as f64;
            lots += 1;
        }
        epoch_losses.push(epoch_loss / lots.max(1) as f64);
    }

    DpSgdReport {
        epoch_losses,
        steps: accountant.steps(),
        epsilon: accountant.epsilon(config.delta),
        delta: config.delta,
        clip_fraction: if total_examples == 0 {
            0.0
        } else {
            clipped as f64 / total_examples as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::synthetic::gaussian_blobs;
    use mdl_nn::{Activation, Dense, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, Activation::Relu, rng));
        net.push(Dense::new(8, 2, Activation::Identity, rng));
        net
    }

    #[test]
    fn dp_sgd_learns_under_moderate_noise() {
        let mut rng = StdRng::seed_from_u64(230);
        let data = gaussian_blobs(300, 2, 0.4, &mut rng);
        let mut model = net(&mut rng);
        let report = train_dp_sgd(
            &mut model,
            &data.x,
            &data.y,
            &DpSgdConfig { epochs: 8, noise_multiplier: 1.0, ..Default::default() },
            &mut rng,
        );
        let acc = model.accuracy(&data.x, &data.y);
        assert!(acc > 0.85, "accuracy={acc}");
        assert!(report.epsilon > 0.0 && report.epsilon.is_finite());
        assert_eq!(report.epoch_losses.len(), 8);
    }

    #[test]
    fn epsilon_reflects_noise_level() {
        let mut rng = StdRng::seed_from_u64(231);
        let data = gaussian_blobs(200, 2, 0.4, &mut rng);
        let run = |z: f64, rng: &mut StdRng| {
            let mut model = net(rng);
            train_dp_sgd(
                &mut model,
                &data.x,
                &data.y,
                &DpSgdConfig { epochs: 2, noise_multiplier: z, ..Default::default() },
                rng,
            )
            .epsilon
        };
        let loose = run(0.6, &mut rng);
        let tight = run(2.0, &mut rng);
        assert!(tight < loose, "more noise ⇒ smaller ε: {tight} vs {loose}");
    }

    #[test]
    fn heavy_noise_destroys_learning() {
        // 4 classes: a random decision rule cannot be lucky the way a
        // 2-class separable problem allows
        let mut rng = StdRng::seed_from_u64(232);
        let data = gaussian_blobs(240, 4, 0.3, &mut rng);
        let mut model = Sequential::new();
        model.push(Dense::new(2, 8, Activation::Relu, &mut rng));
        model.push(Dense::new(8, 4, Activation::Identity, &mut rng));
        let _ = train_dp_sgd(
            &mut model,
            &data.x,
            &data.y,
            &DpSgdConfig {
                epochs: 3,
                noise_multiplier: 50.0,
                learning_rate: 0.5,
                ..Default::default()
            },
            &mut rng,
        );
        let acc = model.accuracy(&data.x, &data.y);
        assert!(acc < 0.8, "σ=50 should prevent learning, got {acc}");
    }

    #[test]
    fn clip_fraction_reported() {
        let mut rng = StdRng::seed_from_u64(233);
        let data = gaussian_blobs(100, 2, 0.4, &mut rng);
        let mut model = net(&mut rng);
        let report = train_dp_sgd(
            &mut model,
            &data.x,
            &data.y,
            &DpSgdConfig { epochs: 1, clip_norm: 1e-4, ..Default::default() },
            &mut rng,
        );
        assert!(report.clip_fraction > 0.9, "tiny clip norm should clip everything");
    }
}
