//! Private cloud-based inference (§III-A, Fig. 3; reference [30], "ARDEN").
//!
//! The pretrained network is split: a **frozen local part** runs on the
//! device and produces a compact representation; the representation is
//! perturbed by **nullification** (random zeroing) and **Gaussian noise**
//! before leaving the device; the **cloud part** finishes the inference.
//! To keep accuracy under perturbation, the cloud part is re-trained with
//! **noisy training** — public data pushed through the same perturbed
//! transform.

use mdl_nn::{fit_classifier, Adam, Layer, Sequential, TrainConfig};
use mdl_privacy::GaussianMechanism;
use mdl_tensor::init::gaussian;
use mdl_tensor::linalg::clip_l2;
use mdl_tensor::Matrix;
use rand::Rng;

/// Perturbation and split configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ArdenConfig {
    /// Layers executed locally before the upload.
    pub split_at: usize,
    /// Fraction of representation units zeroed per inference (μ).
    pub nullification_rate: f32,
    /// Std of the Gaussian noise added to the (clipped) representation.
    pub noise_sigma: f32,
    /// L2 bound the representation is clipped to before noising — the
    /// sensitivity anchor for the differential-privacy statement.
    pub clip_norm: f32,
}

impl Default for ArdenConfig {
    fn default() -> Self {
        Self { split_at: 1, nullification_rate: 0.2, noise_sigma: 0.5, clip_norm: 5.0 }
    }
}

/// The split private-inference engine.
pub struct Arden {
    local: Sequential,
    cloud: Sequential,
    config: ArdenConfig,
}

impl std::fmt::Debug for Arden {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arden")
            .field("local_layers", &self.local.len())
            .field("cloud_layers", &self.cloud.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Arden {
    /// Splits a pretrained network at `config.split_at`; the local part is
    /// frozen from here on (its weights are never updated again).
    ///
    /// # Panics
    ///
    /// Panics if the split point is 0 or ≥ the layer count (both sides
    /// need at least one layer).
    pub fn from_pretrained(net: Sequential, config: ArdenConfig) -> Self {
        assert!(
            config.split_at >= 1 && config.split_at < net.len(),
            "split must leave at least one layer on each side"
        );
        let (local, cloud) = net.split_at(config.split_at);
        Self { local, cloud, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ArdenConfig {
        &self.config
    }

    /// Width of the transmitted representation.
    pub fn representation_dim(&self) -> usize {
        self.local.info().out_dim
    }

    /// Bytes on the wire per example: fp32 representation.
    pub fn representation_bytes(&self) -> u64 {
        4 * self.representation_dim() as u64
    }

    /// Runs the frozen local network *without* perturbation (training-side
    /// helper; real inferences use [`Arden::transform`]).
    pub fn transform_clean(&self, x: &Matrix) -> Matrix {
        self.local.forward_eval(x)
    }

    /// Device-side transform: local forward, clip, nullify, noise.
    pub fn transform(&self, x: &Matrix, rng: &mut impl Rng) -> Matrix {
        self.perturb(&self.transform_clean(x), rng)
    }

    /// Applies clip → nullification → Gaussian noise to a representation.
    pub fn perturb(&self, rep: &Matrix, rng: &mut impl Rng) -> Matrix {
        let mut out = rep.clone();
        let cfg = &self.config;
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            clip_l2(row, cfg.clip_norm as f64);
            for v in row.iter_mut() {
                if rng.gen::<f32>() < cfg.nullification_rate {
                    *v = 0.0;
                } else if cfg.noise_sigma > 0.0 {
                    *v += gaussian(rng) * cfg.noise_sigma;
                }
            }
        }
        out
    }

    /// Cloud-side half of one inference.
    pub fn cloud_logits(&self, representation: &Matrix) -> Matrix {
        self.cloud.forward_eval(representation)
    }

    /// Full private inference: device transform → upload → cloud classify.
    pub fn infer(&self, x: &Matrix, rng: &mut impl Rng) -> Vec<usize> {
        let rep = self.transform(x, rng);
        self.cloud_logits(&rep).argmax_rows()
    }

    /// Accuracy of private inference over a labelled set.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize], rng: &mut impl Rng) -> f64 {
        let pred = self.infer(x, rng);
        mdl_data::metrics::accuracy(labels, &pred)
    }

    /// **Noisy training** (the paper's §III-A contribution): re-trains the
    /// cloud part on *public* data pushed through the frozen local network
    /// with fresh perturbations every epoch, making the cloud robust to
    /// the noise it will see at inference time.
    ///
    /// The local network's weights are never touched.
    ///
    /// # Panics
    ///
    /// Panics if the public set is empty or `public_y` does not hold one
    /// label per row of `public_x`.
    pub fn noisy_train(
        &mut self,
        public_x: &Matrix,
        public_y: &[usize],
        epochs: usize,
        learning_rate: f32,
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        let mut opt = Adam::new(learning_rate);
        let one_epoch = TrainConfig { epochs: 1, batch_size: 32, ..Default::default() };
        let clean = self.transform_clean(public_x);
        let labels = [public_y, public_y].concat();
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            // fresh noisy replicas each epoch: raw + generated noisy samples
            let both = clean.vstack(&self.perturb(&clean, rng));
            let stats = fit_classifier(&mut self.cloud, &mut opt, &both, &labels, &one_epoch, rng);
            losses.push(stats[0].loss);
        }
        losses
    }

    /// Single-release `(ε, δ)` of one transformed upload, from the Gaussian
    /// mechanism over the clipped representation (sensitivity `2·clip_norm`
    /// for a record swap). Nullification only strengthens privacy, so this
    /// is conservative. Returns `f64::INFINITY` when `noise_sigma == 0`.
    pub fn privacy_epsilon(&self, delta: f64) -> f64 {
        if self.config.noise_sigma <= 0.0 {
            return f64::INFINITY;
        }
        let sensitivity = 2.0 * self.config.clip_norm as f64;
        let multiplier = self.config.noise_sigma as f64 / sensitivity;
        GaussianMechanism::new(sensitivity, multiplier).epsilon_single_shot(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::synthetic::synthetic_digits;
    use mdl_nn::{fit_classifier, Activation, Dense, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pretrained(rng: &mut StdRng) -> (Sequential, mdl_data::Dataset, mdl_data::Dataset) {
        let data = synthetic_digits(800, 0.08, rng);
        let (train, test) = data.split(0.75, rng);
        let mut net = Sequential::new();
        net.push(Dense::new(64, 32, Activation::Relu, rng));
        net.push(Dense::new(32, 32, Activation::Relu, rng));
        net.push(Dense::new(32, 10, Activation::Identity, rng));
        let mut opt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &train.x,
            &train.y,
            &TrainConfig { epochs: 30, ..Default::default() },
            rng,
        );
        (net, train, test)
    }

    #[test]
    fn unperturbed_split_matches_original() {
        let mut rng = StdRng::seed_from_u64(310);
        let (net, _, test) = pretrained(&mut rng);
        let base = net.accuracy(&test.x, &test.y);
        let arden = Arden::from_pretrained(
            net,
            ArdenConfig { split_at: 1, nullification_rate: 0.0, noise_sigma: 0.0, clip_norm: 1e9 },
        );
        let acc = arden.accuracy(&test.x, &test.y, &mut rng);
        assert!((acc - base).abs() < 1e-9, "no perturbation ⇒ identical accuracy");
    }

    #[test]
    fn noise_hurts_and_noisy_training_recovers() {
        let mut rng = StdRng::seed_from_u64(311);
        let (net, train, test) = pretrained(&mut rng);
        let cfg =
            ArdenConfig { split_at: 1, nullification_rate: 0.2, noise_sigma: 0.5, clip_norm: 5.0 };
        let mut arden = Arden::from_pretrained(net, cfg);
        let before = arden.accuracy(&test.x, &test.y, &mut rng);
        let losses = arden.noisy_train(&train.x, &train.y, 25, 0.005, &mut rng);
        let after = arden.accuracy(&test.x, &test.y, &mut rng);
        assert!(
            after > before + 0.05,
            "noisy training should recover accuracy: {before} → {after}"
        );
        assert!(losses.last().unwrap() < &losses[0]);
        // pinned: each epoch draws perturb → shuffle from the caller's rng
        // and one Adam spans all epochs; a reordered draw or a different
        // loss sum moves these bits
        assert_eq!(losses[..2], [0.816705663345362, 0.7470020102827173]);
        assert_eq!(losses[24], 0.43921628868893575);
    }

    #[test]
    fn representation_is_smaller_than_raw_input() {
        let mut rng = StdRng::seed_from_u64(312);
        let (net, _, _) = pretrained(&mut rng);
        let arden = Arden::from_pretrained(net, ArdenConfig::default());
        // raw input: 64 fp32 = 256 B; representation: 32 fp32 = 128 B
        assert!(arden.representation_bytes() < 4 * 64);
        assert_eq!(arden.representation_dim(), 32);
    }

    #[test]
    fn nullification_zeroes_expected_fraction() {
        let mut rng = StdRng::seed_from_u64(313);
        let (net, _, test) = pretrained(&mut rng);
        let arden = Arden::from_pretrained(
            net,
            ArdenConfig { split_at: 1, nullification_rate: 0.5, noise_sigma: 0.0, clip_norm: 1e9 },
        );
        // ReLU representations contain natural zeros; nullification zeroes
        // half of everything on top: after ≈ μ + (1−μ)·before
        let clean = arden.transform_clean(&test.x);
        let before =
            clean.as_slice().iter().filter(|&&v| v == 0.0).count() as f64 / clean.len() as f64;
        let rep = arden.transform(&test.x, &mut rng);
        let after = rep.as_slice().iter().filter(|&&v| v == 0.0).count() as f64 / rep.len() as f64;
        let expected = 0.5 + 0.5 * before;
        assert!((after - expected).abs() < 0.05, "after={after} expected≈{expected}");
    }

    #[test]
    fn privacy_epsilon_decreases_with_noise() {
        let mut rng = StdRng::seed_from_u64(314);
        let (net, _, _) = pretrained(&mut rng);
        let mk = |sigma: f32, net: Sequential| {
            Arden::from_pretrained(net, ArdenConfig { noise_sigma: sigma, ..Default::default() })
        };
        let split = mk(0.5, net);
        let eps_mild = split.privacy_epsilon(1e-5);
        // rebuild quickly for a different σ
        let (net2, _, _) = pretrained(&mut rng);
        let eps_strong = mk(4.0, net2).privacy_epsilon(1e-5);
        assert!(eps_strong < eps_mild, "{eps_strong} < {eps_mild}");
        let (net3, _, _) = pretrained(&mut rng);
        assert!(mk(0.0, net3).privacy_epsilon(1e-5).is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_degenerate_split() {
        let mut rng = StdRng::seed_from_u64(315);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 2, Activation::Identity, &mut rng));
        let _ = Arden::from_pretrained(net, ArdenConfig { split_at: 1, ..Default::default() });
    }
}
