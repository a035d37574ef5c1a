//! Distributed DNN with a local early exit (§III, reference [25]:
//! Teerapittayanon et al., "Distributed deep neural networks over the
//! cloud, the edge and end devices").
//!
//! The device runs the shallow part of the network plus a small **exit
//! classifier**. When the exit's prediction is confident (low normalised
//! entropy) the device answers immediately — "fast and localized
//! inference" — and only hard examples travel to the cloud for the full
//! model's answer.

use mdl_nn::{fit_classifier, Activation, Adam, Dense, Layer, Sequential, TrainConfig};
use mdl_tensor::stats::softmax_rows;
use mdl_tensor::Matrix;
use rand::Rng;

/// A two-tier network: shared trunk on the device, an exit head beside it,
/// and the remainder of the original network in the cloud.
pub struct EarlyExitNetwork {
    trunk: Sequential,
    exit_head: Dense,
    cloud: Sequential,
    classes: usize,
}

impl std::fmt::Debug for EarlyExitNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EarlyExitNetwork")
            .field("trunk_layers", &self.trunk.len())
            .field("cloud_layers", &self.cloud.len())
            .field("classes", &self.classes)
            .finish()
    }
}

/// Outcome of a batch of adaptive inferences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitReport {
    /// Fraction of examples answered on the device.
    pub local_fraction: f64,
    /// Accuracy over all examples (local + cloud answers combined).
    pub accuracy: f64,
    /// Accuracy of the examples answered locally.
    pub local_accuracy: f64,
    /// Accuracy of the examples escalated to the cloud.
    pub cloud_accuracy: f64,
    /// Bytes uploaded (only escalated examples ship their representation).
    pub upload_bytes: u64,
}

impl EarlyExitNetwork {
    /// Splits a pretrained network after `split_at` layers and attaches a
    /// fresh linear exit head on the trunk output.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= split_at < net.len()`.
    pub fn from_pretrained(
        net: Sequential,
        split_at: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            split_at >= 1 && split_at < net.len(),
            "split must leave at least one layer on each side"
        );
        let (trunk, cloud) = net.split_at(split_at);
        let width = trunk.info().out_dim;
        let exit_head = Dense::new(width, classes, Activation::Identity, rng);
        Self { trunk, exit_head, cloud, classes }
    }

    /// Trains only the exit head on labelled data (trunk and cloud frozen,
    /// as in the reference design where the main network is pretrained).
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty or `labels.len() != x.rows()`.
    pub fn train_exit(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        epochs: usize,
        learning_rate: f32,
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        let rep = self.trunk.forward_eval(x);
        let mut opt = Adam::new(learning_rate);
        let config = TrainConfig { epochs, batch_size: 32, ..Default::default() };
        fit_classifier(&mut self.exit_head, &mut opt, &rep, labels, &config, rng)
            .iter()
            .map(|epoch| epoch.loss)
            .collect()
    }

    /// Normalised entropy (0 = certain, 1 = uniform) of one probability row.
    fn normalized_entropy(probs: &[f32]) -> f64 {
        let h: f64 =
            probs.iter().filter(|&&p| p > 0.0).map(|&p| -(p as f64) * (p as f64).ln()).sum();
        h / (probs.len() as f64).ln()
    }

    /// Runs adaptive inference: answer locally when the exit's normalised
    /// entropy is below `threshold`, otherwise escalate to the cloud.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn infer_adaptive(&self, x: &Matrix, labels: &[usize], threshold: f64) -> ExitReport {
        assert_eq!(x.rows(), labels.len(), "one label per example required");
        let rep = self.trunk.forward_eval(x);
        let exit_probs = softmax_rows(&self.exit_head.forward_eval(&rep));
        let rep_bytes = 4 * rep.cols() as u64;

        let mut local_correct = 0usize;
        let mut local_total = 0usize;
        let mut cloud_correct = 0usize;
        let mut cloud_total = 0usize;
        let mut upload_bytes = 0u64;
        let mut escalate_rows = Vec::new();
        for (r, &label) in labels.iter().enumerate().take(x.rows()) {
            let row = exit_probs.row(r);
            if Self::normalized_entropy(row) < threshold {
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                local_total += 1;
                if pred == label {
                    local_correct += 1;
                }
            } else {
                escalate_rows.push(r);
            }
        }
        if !escalate_rows.is_empty() {
            let hard = rep.select_rows(&escalate_rows);
            upload_bytes += rep_bytes * escalate_rows.len() as u64;
            let cloud_pred = self.cloud.predict(&hard);
            for (k, &r) in escalate_rows.iter().enumerate() {
                cloud_total += 1;
                if cloud_pred[k] == labels[r] {
                    cloud_correct += 1;
                }
            }
        }

        let n = x.rows().max(1);
        ExitReport {
            local_fraction: local_total as f64 / n as f64,
            accuracy: (local_correct + cloud_correct) as f64 / n as f64,
            local_accuracy: local_correct as f64 / local_total.max(1) as f64,
            cloud_accuracy: cloud_correct as f64 / cloud_total.max(1) as f64,
            upload_bytes,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::synthetic::synthetic_digits;
    use mdl_nn::{fit_classifier, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (EarlyExitNetwork, mdl_data::Dataset, mdl_data::Dataset) {
        let data = synthetic_digits(1000, 0.08, rng);
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
            &TrainConfig { epochs: 25, ..Default::default() },
            rng,
        );
        let mut ee = EarlyExitNetwork::from_pretrained(net, 1, 10, rng);
        let _ = ee.train_exit(&train.x, &train.y, 40, 0.01, rng);
        (ee, train, test)
    }

    #[test]
    fn threshold_trades_locality_for_accuracy() {
        let mut rng = StdRng::seed_from_u64(500);
        let (ee, _, test) = setup(&mut rng);
        let strict = ee.infer_adaptive(&test.x, &test.y, 0.05);
        let loose = ee.infer_adaptive(&test.x, &test.y, 0.9);
        assert!(
            loose.local_fraction > strict.local_fraction,
            "looser threshold answers more locally: {} vs {}",
            loose.local_fraction,
            strict.local_fraction
        );
        assert!(strict.upload_bytes > loose.upload_bytes, "stricter threshold escalates more");
    }

    #[test]
    fn confident_local_answers_are_accurate() {
        let mut rng = StdRng::seed_from_u64(501);
        let (ee, _, test) = setup(&mut rng);
        let report = ee.infer_adaptive(&test.x, &test.y, 0.2);
        // the examples the exit keeps are its easy ones
        assert!(
            report.local_accuracy >= report.accuracy - 0.02,
            "local answers should be at least as accurate as overall: {report:?}"
        );
        assert!(report.local_fraction > 0.1, "some examples must exit early: {report:?}");
    }

    #[test]
    fn zero_threshold_sends_everything_to_cloud() {
        let mut rng = StdRng::seed_from_u64(502);
        let (mut ee, train, test) = setup(&mut rng);
        let losses = ee.train_exit(&train.x, &train.y, 3, 0.01, &mut rng);
        // three more epochs on the trained head, pinned: one shuffle per
        // epoch of an order that persists across epochs, 32-row batches. The
        // cloud path below never reads the exit head.
        assert_eq!(losses, [0.05625229274543623, 0.04835142055526376, 0.045152889331802726]);
        let report = ee.infer_adaptive(&test.x, &test.y, 0.0);
        assert_eq!(report.local_fraction, 0.0);
        assert!(report.accuracy > 0.8, "cloud path retains full accuracy: {report:?}");
    }

    #[test]
    fn entropy_is_normalised() {
        let uniform = vec![0.25f32; 4];
        assert!((EarlyExitNetwork::normalized_entropy(&uniform) - 1.0).abs() < 1e-9);
        let certain = vec![1.0f32, 0.0, 0.0, 0.0];
        assert_eq!(EarlyExitNetwork::normalized_entropy(&certain), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_bad_split() {
        let mut rng = StdRng::seed_from_u64(503);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 2, Activation::Identity, &mut rng));
        let _ = EarlyExitNetwork::from_pretrained(net, 1, 2, &mut rng);
    }
}
