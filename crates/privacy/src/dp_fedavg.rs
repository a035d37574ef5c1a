//! User-level differentially private federated averaging (McMahan et al.,
//! paper reference [22]).
//!
//! §II-C lists the four modifications that turn FedAvg into DP-FedAvg, all
//! implemented here:
//!
//! 1. clients are selected **independently with probability p** rather than
//!    as a fixed-size cohort;
//! 2. each client's model delta is **clipped to an L2 bound `S`**;
//! 3. a **bounded-sensitivity weighted estimator** divides by the *expected*
//!    cohort size `p·K` so one user's presence changes the estimate by at
//!    most `S / (p·K)`;
//! 4. **Gaussian noise** `N(0, (z·S / (p·K))²)` is added to the average,
//!    with the moments accountant charging one sampled-Gaussian step of
//!    rate `p` per round.

use crate::accountant::MomentsAccountant;
use crate::mechanism::clip_update;
use mdl_data::Dataset;
use mdl_federated::update::dense_len;
use mdl_federated::{MlpSpec, RoundRecord};
use mdl_nn::ParamVector;
use mdl_tensor::init::gaussian;
use rand::rngs::StdRng;
use rand::Rng;

/// Hyper-parameters of a DP-FedAvg run.
#[derive(Debug, Clone, PartialEq)]
pub struct DpFedConfig {
    /// Federation rounds.
    pub rounds: usize,
    /// Independent per-round client selection probability `p`.
    pub sample_prob: f64,
    /// Local epochs per selected client.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Client learning rate.
    pub learning_rate: f32,
    /// L2 clip bound `S` on each client's model delta.
    pub clip_norm: f64,
    /// Noise multiplier `z`.
    pub noise_multiplier: f64,
    /// δ for the reported ε.
    pub delta: f64,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
}

impl Default for DpFedConfig {
    fn default() -> Self {
        Self {
            rounds: 30,
            sample_prob: 0.5,
            local_epochs: 3,
            batch_size: 16,
            learning_rate: 0.1,
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            delta: 1e-5,
            eval_every: 1,
        }
    }
}

/// Outcome of a DP-FedAvg run.
#[derive(Debug)]
pub struct DpFedRun {
    /// Evaluated rounds.
    pub history: Vec<RoundRecord>,
    /// Final global parameters.
    pub final_params: Vec<f32>,
    /// User-level privacy spent, `(ε, δ)`.
    pub epsilon: f64,
    /// δ used for the ε report.
    pub delta: f64,
    /// Fraction of client deltas clipped across the run.
    pub clip_fraction: f64,
}

impl DpFedRun {
    /// Final test accuracy (0.0 when no round was evaluated).
    pub fn final_accuracy(&self) -> f64 {
        self.history.last().map(|r| r.test_accuracy).unwrap_or(0.0)
    }
}

/// Runs DP-FedAvg over pre-partitioned client datasets.
///
/// Setting `noise_multiplier = 0` and `clip_norm = ∞` recovers plain FedAvg
/// with Poisson cohorts (useful as the non-private reference in ablations);
/// in that case the reported ε is infinite.
///
/// # Panics
///
/// Panics if `clients` is empty or `sample_prob` is outside `(0, 1]`.
pub fn run_dp_fedavg(
    spec: &MlpSpec,
    clients: &[Dataset],
    test: &Dataset,
    config: &DpFedConfig,
    rng: &mut StdRng,
) -> DpFedRun {
    assert!(!clients.is_empty(), "need at least one client");
    assert!(
        config.sample_prob > 0.0 && config.sample_prob <= 1.0,
        "sample probability must be in (0, 1]"
    );
    let k = clients.len() as f64;
    let expected_cohort = (config.sample_prob * k).max(1.0);

    let mut global_model = spec.build();
    let mut params = global_model.param_vector();
    let dim = params.len();

    let mut accountant = (config.noise_multiplier > 0.0)
        .then(|| MomentsAccountant::new(config.sample_prob, config.noise_multiplier));
    let mut history = Vec::new();
    let mut clipped = 0u64;
    let mut deltas_seen = 0u64;
    let mut total_bytes = 0u64;

    for round in 1..=config.rounds {
        // 1. independent Poisson selection
        let selected: Vec<usize> =
            (0..clients.len()).filter(|_| rng.gen::<f64>() < config.sample_prob).collect();

        let mut sum_delta = vec![0.0f32; dim];
        for &c in &selected {
            let trained = spec.train_client(
                &params,
                &clients[c],
                config.local_epochs,
                config.batch_size,
                config.learning_rate,
                rng.gen(),
            );
            // 2. clip the model delta to S
            let mut delta: Vec<f32> =
                trained.iter().zip(params.iter()).map(|(a, b)| a - b).collect();
            let pre = clip_update(&mut delta, config.clip_norm);
            if pre > config.clip_norm {
                clipped += 1;
            }
            deltas_seen += 1;
            for (s, &d) in sum_delta.iter_mut().zip(delta.iter()) {
                *s += d;
            }
            total_bytes += dense_len(dim);
        }

        // 3. bounded-sensitivity estimator + 4. Gaussian noise
        let noise_std = (config.noise_multiplier * config.clip_norm / expected_cohort) as f32;
        for (p, &s) in params.iter_mut().zip(sum_delta.iter()) {
            let mut avg = s / expected_cohort as f32;
            if noise_std > 0.0 {
                avg += gaussian(rng) * noise_std;
            }
            *p += avg;
        }
        if let Some(acc) = accountant.as_mut() {
            acc.step(1);
        }

        if round % config.eval_every == 0 || round == config.rounds {
            global_model.set_param_vector(&params);
            let acc = global_model.accuracy(&test.x, &test.y);
            history.push(RoundRecord {
                round,
                test_accuracy: acc,
                total_bytes,
                participants: selected.len(),
            });
        }
    }

    DpFedRun {
        history,
        final_params: params,
        epsilon: accountant.map(|a| a.epsilon(config.delta)).unwrap_or(f64::INFINITY),
        delta: config.delta,
        clip_fraction: if deltas_seen == 0 { 0.0 } else { clipped as f64 / deltas_seen as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::partition::{partition_dataset, Partition};
    use mdl_data::synthetic::gaussian_blobs;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (MlpSpec, Vec<Dataset>, Dataset) {
        let data = gaussian_blobs(500, 3, 0.5, rng);
        let (train, test) = data.split(0.8, rng);
        let clients = partition_dataset(&train, 20, Partition::Iid, rng);
        (MlpSpec::new(vec![2, 12, 3], 11), clients, test)
    }

    #[test]
    fn dp_fedavg_learns_with_moderate_noise() {
        let mut rng = StdRng::seed_from_u64(240);
        let (spec, clients, test) = setup(&mut rng);
        let run = run_dp_fedavg(
            &spec,
            &clients,
            &test,
            &DpFedConfig {
                rounds: 20,
                noise_multiplier: 0.5,
                clip_norm: 2.0,
                learning_rate: 0.2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(run.final_accuracy() > 0.85, "accuracy={}", run.final_accuracy());
        assert!(run.epsilon.is_finite() && run.epsilon > 0.0);
    }

    #[test]
    fn zero_noise_recovers_plain_fedavg_with_infinite_epsilon() {
        let mut rng = StdRng::seed_from_u64(241);
        let (spec, clients, test) = setup(&mut rng);
        let run = run_dp_fedavg(
            &spec,
            &clients,
            &test,
            &DpFedConfig {
                rounds: 15,
                noise_multiplier: 0.0,
                clip_norm: 1e9,
                learning_rate: 0.2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(run.epsilon.is_infinite());
        assert!(run.final_accuracy() > 0.9, "accuracy={}", run.final_accuracy());
        assert_eq!(run.clip_fraction, 0.0);
    }

    #[test]
    fn stronger_noise_gives_smaller_epsilon_and_worse_accuracy() {
        let mut rng = StdRng::seed_from_u64(242);
        let (spec, clients, test) = setup(&mut rng);
        let run_with = |z: f64, rng: &mut StdRng| {
            run_dp_fedavg(
                &spec,
                &clients,
                &test,
                &DpFedConfig {
                    rounds: 12,
                    noise_multiplier: z,
                    clip_norm: 1.0,
                    learning_rate: 0.2,
                    ..Default::default()
                },
                rng,
            )
        };
        let mild = run_with(0.3, &mut rng);
        let heavy = run_with(10.0, &mut rng);
        assert!(heavy.epsilon < mild.epsilon, "{} vs {}", heavy.epsilon, mild.epsilon);
        assert!(
            heavy.final_accuracy() <= mild.final_accuracy() + 0.05,
            "heavy noise should not help: {} vs {}",
            heavy.final_accuracy(),
            mild.final_accuracy()
        );
    }

    #[test]
    fn clipping_engages_on_small_bound() {
        let mut rng = StdRng::seed_from_u64(243);
        let (spec, clients, test) = setup(&mut rng);
        let run = run_dp_fedavg(
            &spec,
            &clients,
            &test,
            &DpFedConfig { rounds: 3, clip_norm: 1e-3, ..Default::default() },
            &mut rng,
        );
        assert!(run.clip_fraction > 0.9, "clip_fraction={}", run.clip_fraction);
    }
}
