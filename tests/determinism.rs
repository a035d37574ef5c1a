//! Reproducibility guarantees: every stochastic component is a pure
//! function of its seed. These invariants keep every table in
//! EXPERIMENTS.md regenerable bit-for-bit.

use mdl_core::prelude::*;

#[test]
fn data_generators_are_seed_deterministic() {
    let gen_biaffect = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        BiAffectDataset::generate(
            &BiAffectConfig { participants: 3, sessions_per_participant: 5, ..Default::default() },
            &mut rng,
        )
    };
    assert_eq!(gen_biaffect(1), gen_biaffect(1));
    assert_ne!(gen_biaffect(1), gen_biaffect(2));

    let gen_keystroke = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        KeystrokeDataset::generate(
            &KeystrokeConfig { users: 3, sessions_per_user: 4, ..Default::default() },
            &mut rng,
        )
    };
    assert_eq!(gen_keystroke(5), gen_keystroke(5));

    let gen_digits = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        mdl_core::data::synthetic::synthetic_digits(50, 0.1, &mut rng)
    };
    assert_eq!(gen_digits(9), gen_digits(9));
}

#[test]
fn training_is_seed_deterministic() {
    let train = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = mdl_core::data::synthetic::gaussian_blobs(120, 3, 0.4, &mut rng);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, Activation::Relu, &mut rng));
        net.push(Dense::new(8, 3, Activation::Identity, &mut rng));
        let mut opt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &data.x,
            &data.y,
            &TrainConfig { epochs: 5, ..Default::default() },
            &mut rng,
        );
        net.param_vector()
    };
    assert_eq!(train(42), train(42));
    assert_ne!(train(42), train(43));
}

/// Fixed-seed training whose products reach the blocked kernel *and* its
/// threaded branch: batch 128 through 64→160→10 makes the first layer's
/// forward and both of its backward products 128·160·64 ≈ 1.3 M MACs,
/// above the kernel's threading threshold. Returns the weight bits.
fn train_wide(threads: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(42);
    let data = mdl_core::data::synthetic::synthetic_digits(256, 0.1, &mut rng);
    let mut net = Sequential::new();
    net.push(Dense::new(64, 160, Activation::Relu, &mut rng));
    net.push(Dense::new(160, 10, Activation::Identity, &mut rng));
    let mut opt = Adam::new(0.01);
    let _ = fit_classifier(
        &mut net,
        &mut opt,
        &data.x,
        &data.y,
        &TrainConfig {
            epochs: 3,
            batch_size: 128,
            kernel_threads: Some(threads),
            ..Default::default()
        },
        &mut rng,
    );
    net.param_vector().iter().map(|v| v.to_bits()).collect()
}

/// The blocked GEMM kernel partitions work over row panels without
/// changing any per-element accumulation order, so training results must
/// be byte-for-byte independent of the kernel thread count.
#[test]
fn training_is_kernel_thread_count_invariant() {
    let reference = train_wide(1);
    for threads in [2, 4, 8] {
        assert_eq!(reference, train_wide(threads), "weights diverged at {threads} kernel threads");
    }
    mdl_core::tensor::kernel::set_threads(1);
}

/// The AVX2 tile kernel multiplies then adds — two roundings, like the
/// portable tier — so the trained weights must not depend on which tier
/// ran. (Flipping the process-wide pin while the other tests run is
/// harmless for exactly that reason.)
#[test]
fn training_is_kernel_tier_invariant() {
    use mdl_core::tensor::kernel::int8::{force_scalar, set_force_scalar};
    let pinned = force_scalar();
    let dispatched = train_wide(1);
    set_force_scalar(true);
    let portable = train_wide(1);
    set_force_scalar(pinned);
    assert_eq!(dispatched, portable, "weights differ between the dispatched and portable tiers");
}

#[test]
fn federated_runs_are_seed_deterministic() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = mdl_core::data::synthetic::gaussian_blobs(200, 2, 0.4, &mut rng);
        let (train, test) = data.split(0.8, &mut rng);
        let clients = partition_dataset(&train, 4, Partition::Iid, &mut rng);
        let spec = MlpSpec::new(vec![2, 6, 2], 1);
        let availability = AvailabilityModel::always_available(4);
        mdl_core::federated::run_federated(
            &spec,
            &clients,
            &test,
            &FedConfig { rounds: 5, ..Default::default() },
            &availability,
            &mut rng,
        )
        .final_params
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn compression_is_seed_deterministic() {
    let compress = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(16, 16, Activation::Relu, &mut rng));
        net.push(Dense::new(16, 4, Activation::Identity, &mut rng));
        let c = deep_compress(
            &mut net,
            None,
            &DeepCompressionConfig { sparsity: 0.7, quant_bits: 4, finetune: None, prune_steps: 1 },
            &mut rng,
        );
        (c.report.final_bytes, c.decompress().param_vector())
    };
    assert_eq!(compress(3), compress(3));
}

#[test]
fn deepmood_predictions_are_seed_deterministic() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let cohort = BiAffectDataset::generate(
            &BiAffectConfig { participants: 3, sessions_per_participant: 10, ..Default::default() },
            &mut rng,
        );
        let (train, test) = cohort.split(0.7, &mut rng);
        let eval = mdl_core::deepmood::train_and_evaluate(
            &train,
            &test,
            &DeepMoodConfig { epochs: 2, hidden_dim: 4, ..Default::default() },
            &mut rng,
        );
        eval.accuracy
    };
    assert_eq!(run(11), run(11));
}
