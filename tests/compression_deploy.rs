//! Cross-crate compression + deployment integration: every §III-B family
//! produces a runnable model whose device cost the mobile simulator can
//! price.

use mdl_core::compress::{factorize_network, BlockCirculant, CsrMatrix};
use mdl_core::nn::Layer as _;
use mdl_core::prelude::*;

fn trained(rng: &mut StdRng) -> (Sequential, Dataset, Dataset) {
    let data = mdl_core::data::synthetic::synthetic_digits(800, 0.08, rng);
    let (train, test) = data.split(0.75, rng);
    let mut net = Sequential::new();
    net.push(Dense::new(64, 96, Activation::Relu, rng));
    net.push(Dense::new(96, 10, Activation::Identity, rng));
    let mut opt = Adam::new(0.01);
    let _ = fit_classifier(
        &mut net,
        &mut opt,
        &train.x,
        &train.y,
        &TrainConfig { epochs: 20, ..Default::default() },
        rng,
    );
    (net, train, test)
}

#[test]
fn every_compression_family_yields_a_working_smaller_model() {
    let mut rng = StdRng::seed_from_u64(9301);
    let (mut net, train, test) = trained(&mut rng);
    let base_acc = net.accuracy(&test.x, &test.y);
    let base_params = net.num_params();
    assert!(base_acc > 0.8, "base {base_acc}");
    let params = net.param_vector();

    let rebuild = |rng: &mut StdRng| {
        let mut n = Sequential::new();
        n.push(Dense::new(64, 96, Activation::Relu, rng));
        n.push(Dense::new(96, 10, Activation::Identity, rng));
        n.set_param_vector(&params);
        n
    };

    // 1. deep compression
    let mut a = rebuild(&mut rng);
    let c = deep_compress(
        &mut a,
        Some((&train.x, &train.y)),
        &DeepCompressionConfig {
            sparsity: 0.7,
            quant_bits: 4,
            finetune: Some((3, 0.01)),
            prune_steps: 2,
        },
        &mut rng,
    );
    assert!(c.report.ratio() > 8.0);
    assert!(c.decompress().accuracy(&test.x, &test.y) > base_acc - 0.15);

    // 2. low-rank factorization at the intrinsic-energy rank
    let mut b = rebuild(&mut rng);
    let fact = factorize_network(&mut b, |d| {
        mdl_core::compress::rank_for_energy(d, 0.95).min(d.weight().rows().min(d.weight().cols()))
    });
    assert!(fact.accuracy(&test.x, &test.y) > base_acc - 0.25);

    // 3. distillation into a quarter-size student
    let teacher = rebuild(&mut rng);
    let mut student = Sequential::new();
    student.push(Dense::new(64, 24, Activation::Relu, &mut rng));
    student.push(Dense::new(24, 10, Activation::Identity, &mut rng));
    assert!(student.num_params() * 3 < base_params);
    let mut opt = Adam::new(0.01);
    let _ = distill(
        &teacher,
        &mut student,
        &mut opt,
        &train.x,
        &train.y,
        &DistillConfig { epochs: 30, ..Default::default() },
        &mut rng,
    );
    assert!(student.accuracy(&test.x, &test.y) > base_acc - 0.15);

    // 4. block-circulant retrain
    let mut circ = Sequential::new();
    circ.push(BlockCirculant::new(64, 96, 16, Activation::Relu, &mut rng));
    circ.push(Dense::new(96, 10, Activation::Identity, &mut rng));
    let mut opt = Adam::new(0.01);
    let _ = fit_classifier(
        &mut circ,
        &mut opt,
        &train.x,
        &train.y,
        &TrainConfig { epochs: 25, ..Default::default() },
        &mut rng,
    );
    assert!(circ.info().params < base_params / 3);
    assert!(circ.accuracy(&test.x, &test.y) > base_acc - 0.2);
}

#[test]
fn compressed_bytes_lower_device_energy() {
    let mut rng = StdRng::seed_from_u64(9302);
    let (net, _, _) = trained(&mut rng);
    let infos = net.layer_infos();
    let device = DeviceProfile::wearable();
    let fp32 = device.inference_cost(&infos, 4.0);
    let packed = device.inference_cost(&infos, 0.5);
    assert!(packed.energy_j < fp32.energy_j, "fewer bytes must cost less energy");
    assert_eq!(packed.latency_s, fp32.latency_s, "compute latency unchanged by storage");
}

#[test]
fn csr_inference_is_exact_for_pruned_layers() {
    let mut rng = StdRng::seed_from_u64(9303);
    let (mut net, _, test) = trained(&mut rng);
    let _ = mdl_core::compress::prune_network(&mut net, 0.8);
    // layer 1 as CSR must match the dense pruned layer exactly
    let dense_out = {
        let l = net.layers_mut()[0].as_any_mut().downcast_mut::<Dense>().unwrap();
        let w = l.weight().clone();
        let csr = CsrMatrix::from_dense(&w);
        let dense = test.x.matmul(&w);
        let sparse = csr.matmul_into(&test.x);
        assert!(sparse.approx_eq(&dense, 1e-5));
        assert!(csr.sparsity() > 0.75);
        dense
    };
    assert!(dense_out.all_finite());
}

#[test]
fn placements_agree_with_manual_cost_model() {
    let mut rng = StdRng::seed_from_u64(9304);
    let (net, _, _) = trained(&mut rng);
    let device = DeviceProfile::midrange_phone();
    let cloud = DeviceProfile::cloud_server();
    let network = NetworkProfile::wifi();
    let scenario = Scenario {
        layers: net.layer_infos(),
        input_bytes: 4 * 64,
        result_bytes: 4 * 10,
        bytes_per_weight: 4.0,
    };
    let on_device = placement_cost(Placement::OnDevice, &scenario, &device, &cloud, &network);
    let manual = device.inference_cost(&scenario.layers, 4.0);
    assert_eq!(on_device.latency_s, manual.latency_s);
    assert_eq!(on_device.energy_j, manual.energy_j);

    let cloud_cost = placement_cost(Placement::Cloud, &scenario, &device, &cloud, &network);
    let radio = network.round_trip_cost(scenario.input_bytes, scenario.result_bytes);
    assert!((cloud_cost.energy_j - radio.energy_j).abs() < 1e-12);
}

use mdl_core::mobile::placement_cost;
