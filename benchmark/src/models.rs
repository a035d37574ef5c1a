//! The fixed models, inputs and configurations the workloads and the
//! layer probes share, so a probe times exactly the shapes a workload
//! runs. Weights are seeded constants: `--seed` varies the *inputs*
//! (arrival pattern, row order, cohorts), never the program under test.

use mdl_data::biaffect::{BiAffectConfig, BiAffectDataset};
use mdl_deepmood::{biaffect_view_dims, normalized_pairs, DeepMood, DeepMoodConfig, FusionKind};
use mdl_federated::PopulationTask;
use mdl_net::FaultPlan;
use mdl_nn::{Activation, Dense, Gru, QuantizedModel, Sequential};
use mdl_serve::{ClientProfile, DeviceClass, NetworkClass, ServeConfig};
use mdl_sim::{CohortSpec, PopulationSpec, SimConfig};
use mdl_tensor::init::gaussian;
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Input rows the serving workloads draw from.
pub const INPUT_ROWS: usize = 128;
/// Serving model input width.
pub const INPUT_DIM: usize = 32;
/// Serving model hidden width.
pub const HIDDEN: usize = 3072;
/// Serving model classes.
pub const CLASSES: usize = 10;

/// A wearable on Wi-Fi: the router sends every such request to the cloud
/// path, where batching and shedding live.
pub const CLOUD: ClientProfile =
    ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi };
/// A flagship on Wi-Fi: the router keeps the model on the device
/// (`Route::Local`, run inline on the submitting thread).
pub const ON_DEVICE: ClientProfile =
    ClientProfile { device: DeviceClass::Flagship, network: NetworkClass::Wifi };

/// `exp_serving`'s model: `Dense(32→3072,ReLU) → Dense(3072→3072,ReLU) →
/// Dense(3072→10)`, about 9.6 M MACs per row.
pub fn serving_model() -> Sequential {
    let mut rng = StdRng::seed_from_u64(42);
    let mut net = Sequential::new();
    net.push(Dense::new(INPUT_DIM, HIDDEN, Activation::Relu, &mut rng));
    net.push(Dense::new(HIDDEN, HIDDEN, Activation::Relu, &mut rng));
    net.push(Dense::new(HIDDEN, CLASSES, Activation::Identity, &mut rng));
    net
}

/// The int8 twin of `net`, built the way `mdl-serve` builds it.
pub fn quantize(net: &mut Sequential) -> QuantizedModel {
    QuantizedModel::from_model(net).expect("an all-Dense/GRU model quantizes")
}

/// The `Dense(32→10)` early-exit head overloaded requests are shed to.
pub fn fallback() -> Sequential {
    let mut rng = StdRng::seed_from_u64(1007);
    let mut net = Sequential::new();
    net.push(Dense::new(INPUT_DIM, CLASSES, Activation::Identity, &mut rng));
    net
}

/// The 128 fixed input rows (`exp_serving`'s).
pub fn inputs() -> Matrix {
    Matrix::from_fn(INPUT_ROWS, INPUT_DIM, |r, c| ((r * INPUT_DIM + c) as f32 * 0.37).sin())
}

/// Server sizing for the two-core box: two workers, one GEMM thread each.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        shed_queue_depth: 32,
        kernel_threads: Some(1),
        obs: None,
    }
}

/// The on-device sequence model of `tests/quantized.rs`:
/// `GRU(8→16) → Dense(16→16,ReLU) → Dense(16→3)`, and its int8 twin.
pub fn gru_models() -> (Sequential, QuantizedModel) {
    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let mut net = Sequential::new();
    net.push(Gru::new(8, 16, &mut rng));
    net.push(Dense::new(16, 16, Activation::Relu, &mut rng));
    net.push(Dense::new(16, 3, Activation::Identity, &mut rng));
    let q = quantize(&mut net);
    (net, q)
}

/// 150 keystroke-like sequences of 20 steps × 8 features for
/// [`gru_models`] (the set `tests/quantized.rs` pins ≥ 0.98 int8/f32
/// agreement on).
pub fn gru_sequences() -> Vec<Matrix> {
    (0..150)
        .map(|s| Matrix::from_fn(20, 8, |t, f| ((s * 160 + t * 8 + f) as f32 * 0.173).sin() * 0.8))
        .collect()
}

/// MLP training set width.
pub const MLP_IN: usize = 256;
/// MLP hidden width: wide enough that every product takes the blocked,
/// panel-packed GEMM path at batch 128.
pub const MLP_HIDDEN: usize = 1024;
/// MLP mini-batch.
pub const MLP_BATCH: usize = 128;
/// MLP training examples per epoch (three mini-batches).
pub const MLP_SAMPLES: usize = 384;

/// The wide MLP `256→1024→1024→10` at its seeded initial weights.
pub fn mlp() -> Sequential {
    let mut rng = StdRng::seed_from_u64(0x317);
    let mut net = Sequential::new();
    net.push(Dense::new(MLP_IN, MLP_HIDDEN, Activation::Relu, &mut rng));
    net.push(Dense::new(MLP_HIDDEN, MLP_HIDDEN, Activation::Relu, &mut rng));
    net.push(Dense::new(MLP_HIDDEN, CLASSES, Activation::Identity, &mut rng));
    net
}

/// A learnable 10-class task in 256 dimensions: a random ±0.5 pattern per
/// class plus unit Gaussian noise.
pub fn mlp_dataset(seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD474);
    let centres =
        Matrix::from_fn(CLASSES, MLP_IN, |_, _| if rng.gen::<bool>() { 0.5 } else { -0.5 });
    let y: Vec<usize> = (0..MLP_SAMPLES).map(|i| i % CLASSES).collect();
    let x = Matrix::from_fn(MLP_SAMPLES, MLP_IN, |r, c| centres.row(y[r])[c] + gaussian(&mut rng));
    (x, y)
}

/// `(views, label)` pairs, standardised.
pub type Sessions = Vec<(Vec<Matrix>, usize)>;

/// A synthetic BiAffect cohort split 80/20 per participant and
/// standardised on its training part: `(train, held_out)`. The cohort is
/// a constant: session lengths set how much work an epoch or a
/// prediction is, so a cohort drawn from `--seed` would make the
/// *amount* of work differ from run to run. `--seed` orders the
/// sessions instead.
pub fn biaffect(participants: usize, sessions: usize) -> (Sessions, Sessions) {
    let mut rng = StdRng::seed_from_u64(0xB1AF);
    let config =
        BiAffectConfig { participants, sessions_per_participant: sessions, ..Default::default() };
    let cohort = BiAffectDataset::generate(&config, &mut rng);
    let (train, test) = cohort.split(0.8, &mut rng);
    let (_, train, test) = normalized_pairs(&train, &test);
    (train, test)
}

/// DeepMood as `exp_deepmood_fig5` configures it (GRU encoders, fully
/// connected fusion), one epoch per `train` call, seeded weights.
pub fn deepmood() -> DeepMood {
    let mut rng = StdRng::seed_from_u64(0xD33D);
    let config = DeepMoodConfig {
        hidden_dim: 10,
        fusion: FusionKind::FullyConnected { hidden: 24 },
        epochs: 1,
        learning_rate: 0.01,
        ..Default::default()
    };
    DeepMood::new(&biaffect_view_dims(), config, &mut rng)
}

/// Clients in the simulated population.
pub const POPULATION: u64 = 100_000;
/// Federated rounds per repetition.
pub const FED_ROUNDS: usize = 5;

/// The population spec of one repetition.
pub fn population_spec(seed: u64) -> PopulationSpec {
    PopulationSpec::mobile_mix(POPULATION, seed)
}

/// `exp_population`'s faulty-LTE engine settings: 1 % cohorts, 50 %
/// quorum, ambient loss and jitter, dropouts, stragglers, flaky radios.
pub fn fed_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        rounds: FED_ROUNDS,
        cohort: CohortSpec {
            fraction: 0.01,
            min_size: 32,
            max_size: (POPULATION as usize / 10).max(32),
        },
        faults: FaultPlan {
            dropout_prob: 0.1,
            straggler_prob: 0.1,
            straggler_slowdown: 2.0,
            flaky_prob: 0.05,
            flaky_loss: 0.25,
            partitions: Vec::new(),
        },
        loss_prob: 0.02,
        jitter_frac: 0.1,
        quorum_fraction: 0.5,
        seed,
        ..SimConfig::default()
    }
}

/// The 4-class blob task every client trains on.
pub fn fed_task(seed: u64) -> PopulationTask {
    PopulationTask::blobs(seed)
}

/// The f32 serving model's argmax for every input row, computed at batch
/// 1 through the same skinny-GEMM path the server's small batches take.
/// The model is dropped on return, so the answer key never adds to a
/// workload's `peak_rss_mb`.
pub fn expected_argmax(inputs: &Matrix) -> Vec<usize> {
    let reference = serving_model();
    (0..inputs.rows()).map(|r| reference.predict(&Matrix::row_vector(inputs.row(r)))[0]).collect()
}

/// Input width of the [`arden_net`] classifier.
pub const ARDEN_IN: usize = 64;

/// The small digit-sized MLP `Arden` splits after its first layer.
pub fn arden_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(0xA4DE);
    let mut net = Sequential::new();
    net.push(Dense::new(ARDEN_IN, 128, Activation::Relu, &mut rng));
    net.push(Dense::new(128, 64, Activation::Relu, &mut rng));
    net.push(Dense::new(64, CLASSES, Activation::Identity, &mut rng));
    net
}
