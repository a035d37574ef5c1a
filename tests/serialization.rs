//! Over-the-air model deployment: train federally, serialise with the
//! saved-model format, ship, reload, and serve — the §III "update the model
//! without shipping a new app" workflow.

use mdl_core::nn::{load_model, save_model};
use mdl_core::prelude::*;

#[test]
fn federated_model_ships_and_reloads_bit_exact() {
    let mut rng = StdRng::seed_from_u64(9401);
    let data = mdl_core::data::synthetic::synthetic_digits(600, 0.08, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let clients = partition_dataset(&train, 8, Partition::Iid, &mut rng);
    let spec = MlpSpec::new(vec![64, 32, 10], 9);
    let availability = AvailabilityModel::always_available(8);
    let run = mdl_core::federated::run_federated(
        &spec,
        &clients,
        &test,
        &FedConfig { rounds: 10, learning_rate: 0.2, local_epochs: 3, ..Default::default() },
        &availability,
        &mut rng,
    );

    // server serialises the trained model for distribution
    let mut server_model = spec.build_with(&run.final_params);
    let artifact = save_model(&mut server_model).expect("MLPs are saveable");

    // the device reloads it and must agree prediction-for-prediction
    let device_model = load_model(&artifact).expect("artifact is valid");
    assert_eq!(
        device_model.predict(&test.x),
        server_model.predict(&test.x),
        "shipped model must be bit-exact"
    );
    assert!(device_model.accuracy(&test.x, &test.y) > 0.7);

    // the artifact is exactly header + fp32 params — predictable OTA size
    assert!(artifact.len() < 4 * server_model.num_params() + 64);
}

#[test]
fn compressed_artifact_is_much_smaller_than_saved_model() {
    let mut rng = StdRng::seed_from_u64(9402);
    let data = mdl_core::data::synthetic::synthetic_digits(500, 0.08, &mut rng);
    let mut net = Sequential::new();
    net.push(Dense::new(64, 64, Activation::Relu, &mut rng));
    net.push(Dense::new(64, 10, Activation::Identity, &mut rng));
    let mut opt = Adam::new(0.01);
    let _ = fit_classifier(
        &mut net,
        &mut opt,
        &data.x,
        &data.y,
        &TrainConfig { epochs: 10, ..Default::default() },
        &mut rng,
    );

    let fp32_artifact = save_model(&mut net).expect("saveable").len() as u64;
    let compressed = deep_compress(
        &mut net,
        Some((&data.x, &data.y)),
        &DeepCompressionConfig {
            sparsity: 0.8,
            quant_bits: 4,
            finetune: Some((3, 0.01)),
            prune_steps: 2,
        },
        &mut rng,
    );
    assert!(
        compressed.report.final_bytes * 5 < fp32_artifact,
        "compressed OTA payload {} must be ≥5× below the fp32 artifact {}",
        compressed.report.final_bytes,
        fp32_artifact
    );
}

#[test]
fn gru_models_survive_the_wire_too() {
    let mut rng = StdRng::seed_from_u64(9403);
    let mut net = Sequential::new();
    net.push(Gru::new(4, 8, &mut rng));
    net.push(Dense::new(8, 3, Activation::Identity, &mut rng));
    let x = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32 * 0.3).sin());
    let before = net.forward(&x);
    let bytes = save_model(&mut net).expect("GRU stacks are saveable");
    let mut back = load_model(&bytes).expect("round trip");
    assert!(back.forward(&x).approx_eq(&before, 0.0));
}
