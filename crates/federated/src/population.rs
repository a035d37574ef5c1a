//! Population-scale FedAvg: the model-specific half of `mdl-sim`'s
//! [`run_population`] engine.
//!
//! The engine owns *when* a client trains (availability, cohort
//! sampling, transport, deadlines); this module owns *what* training
//! means: a [`PopulationTask`] materialises any client's local dataset
//! on demand from its stable id — shared Gaussian-blob class structure,
//! client-specific noise draws — so a 100k-client population costs no
//! per-client storage, and runs local mini-batch SGD on the global MLP.
//! Everything derives from `(data_seed, client id)` and the engine's
//! pre-drawn round seeds, so runs are bit-reproducible end to end.

use crate::fedavg::evaluate_params;
use crate::model::MlpSpec;
use mdl_data::synthetic::gaussian_blobs;
use mdl_data::Dataset;
use mdl_nn::ParamVector;
use mdl_obs::Obs;
use mdl_sim::{keyed_hash, ClientTrainer, Population, PopulationReport, SimConfig, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;

// Domain separators for dataset-size, dataset-content and test-set draws.
const SIZE_DOMAIN: u64 = 0xDA7A_5123_0000_0000;
const DATA_DOMAIN: u64 = 0xDA7A_0000_0000_0000;
const TEST_DOMAIN: u64 = 0xDA7A_7E57_0000_0000;

/// A synthetic classification task over an unbounded client population.
///
/// Class centres are a deterministic function of the class index (see
/// [`gaussian_blobs`]), so every client's data shares global structure
/// and FedAvg converges; the noise around the centres is drawn from a
/// per-client seeded RNG, so no two clients hold the same examples.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTask {
    /// Global model architecture (input dim must be 2, the blob space).
    pub spec: MlpSpec,
    /// Client learning rate.
    pub learning_rate: f32,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// GEMM threads inside one client's training (keep low: the engine
    /// already trains clients on one worker per core).
    pub kernel_threads: Option<usize>,
    /// Number of blob classes.
    pub classes: usize,
    /// Blob noise (σ around each class centre).
    pub noise: f32,
    /// Smallest local dataset.
    pub min_examples: u64,
    /// Largest local dataset.
    pub max_examples: u64,
    /// Seed behind every client's dataset (size and content).
    pub data_seed: u64,
}

impl PopulationTask {
    /// A small 4-class blob task a `[2, 16, 4]` MLP learns quickly —
    /// the default workload of the population experiments.
    pub fn blobs(data_seed: u64) -> Self {
        Self {
            spec: MlpSpec::new(vec![2, 16, 4], 17),
            learning_rate: 0.2,
            local_epochs: 1,
            batch_size: 16,
            kernel_threads: Some(1),
            classes: 4,
            noise: 0.5,
            min_examples: 20,
            max_examples: 60,
            data_seed,
        }
    }

    /// Materialises client `id`'s local dataset.
    pub fn client_data(&self, id: u64) -> Dataset {
        let n = self.num_examples(id) as usize;
        let mut rng = StdRng::seed_from_u64(keyed_hash(self.data_seed ^ DATA_DOMAIN, 0, id));
        gaussian_blobs(n, self.classes, self.noise, &mut rng)
    }

    /// A held-out test set drawn from the same class structure but a
    /// dedicated seed no client shares.
    pub fn test_set(&self, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(keyed_hash(self.data_seed ^ TEST_DOMAIN, 0, 0));
        gaussian_blobs(n, self.classes, self.noise, &mut rng)
    }

    /// The initial global parameter vector.
    pub fn initial_params(&self) -> Vec<f32> {
        self.spec.build().param_vector()
    }
}

impl ClientTrainer for PopulationTask {
    fn num_examples(&self, client: u64) -> u64 {
        let span = self.max_examples.saturating_sub(self.min_examples) + 1;
        self.min_examples + keyed_hash(self.data_seed ^ SIZE_DOMAIN, 0, client) % span
    }

    fn train(&self, client: u64, seed: u64, global: &[f32]) -> Vec<f32> {
        self.spec.train_client(
            global,
            &self.client_data(client),
            self.local_epochs,
            self.batch_size,
            self.learning_rate,
            self.kernel_threads,
            seed,
        )
    }
}

/// Runs population-scale FedAvg end to end: engine rounds over
/// `population`, then evaluates the final global model on a 1000-example
/// held-out set. Returns the engine report plus the final test accuracy.
///
/// # Errors
///
/// Propagates the engine's [`SimError`]s (unreachable quorum, empty
/// population).
pub fn run_population_fedavg(
    cfg: &SimConfig,
    population: &mut Population,
    task: &PopulationTask,
    obs: Option<&Obs>,
) -> Result<(PopulationReport, f64), SimError> {
    let report = mdl_sim::run_population(cfg, population, task.initial_params(), task, obs)?;
    let test = task.test_set(1000);
    let accuracy = evaluate_params(&task.spec, &report.final_params, &test);
    Ok((report, accuracy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_sim::{CohortSpec, PopulationSpec};

    #[test]
    fn client_data_is_stable_and_sized_by_id() {
        let task = PopulationTask::blobs(7);
        let a = task.client_data(123);
        let b = task.client_data(123);
        assert_eq!(a.x.as_slice(), b.x.as_slice(), "same id, same data");
        assert_eq!(a.len() as u64, task.num_examples(123));
        assert!((20..=60).contains(&(a.len() as u64)));
        let other = task.client_data(124);
        assert_ne!(a.x.as_slice(), other.x.as_slice(), "different ids differ");
    }

    #[test]
    fn population_fedavg_learns_blobs() {
        let task = PopulationTask::blobs(42);
        let mut pop = Population::new(PopulationSpec::mobile_mix(2_000, 9));
        let cfg = SimConfig {
            rounds: 8,
            cohort: CohortSpec { fraction: 0.05, min_size: 16, max_size: 64 },
            quorum_fraction: 0.3,
            seed: 5,
            ..SimConfig::default()
        };
        let (report, acc) = run_population_fedavg(&cfg, &mut pop, &task, None).expect("quorum");
        assert_eq!(report.rounds.len(), 8);
        assert!(acc > 0.8, "population FedAvg should learn blobs: acc={acc}");
        assert!(report.transport.bytes_up > 0);
    }

    #[test]
    fn population_fedavg_is_bit_reproducible() {
        let run = || {
            let task = PopulationTask::blobs(42);
            let mut pop = Population::new(PopulationSpec::mobile_mix(1_000, 9));
            let cfg = SimConfig {
                rounds: 3,
                cohort: CohortSpec { fraction: 0.05, min_size: 8, max_size: 32 },
                quorum_fraction: 0.3,
                seed: 5,
                ..SimConfig::default()
            };
            run_population_fedavg(&cfg, &mut pop, &task, None).unwrap()
        };
        let (a, acc_a) = run();
        let (b, acc_b) = run();
        assert_eq!(a, b);
        assert_eq!(acc_a.to_bits(), acc_b.to_bits());
    }
}
