//! Integration of the early-exit distributed DNN (reference [25]) with the
//! device cost model: the exit threshold becomes a dial between on-device
//! economy and cloud accuracy.

use mdl_core::prelude::*;
use mdl_core::split::EarlyExitNetwork;

fn trained_system(rng: &mut StdRng) -> (EarlyExitNetwork, Dataset) {
    let data = mdl_core::data::synthetic::synthetic_digits(1000, 0.08, rng);
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
    (ee, test)
}

#[test]
fn threshold_sweeps_out_a_monotone_upload_curve() {
    let mut rng = StdRng::seed_from_u64(9501);
    let (ee, test) = trained_system(&mut rng);
    let mut last_upload = u64::MAX;
    let mut last_local = -1.0;
    for &threshold in &[0.02, 0.1, 0.3, 0.6, 0.95] {
        let report = ee.infer_adaptive(&test.x, &test.y, threshold);
        assert!(
            report.upload_bytes <= last_upload,
            "looser thresholds must upload less: {} after {}",
            report.upload_bytes,
            last_upload
        );
        assert!(report.local_fraction >= last_local, "looser thresholds must answer more locally");
        assert!(report.accuracy > 0.6, "accuracy collapsed at τ={threshold}: {report:?}");
        last_upload = report.upload_bytes;
        last_local = report.local_fraction;
    }
}

#[test]
fn escalated_examples_pay_radio_cost_but_buy_accuracy() {
    let mut rng = StdRng::seed_from_u64(9502);
    let (ee, test) = trained_system(&mut rng);
    let all_cloud = ee.infer_adaptive(&test.x, &test.y, 0.0);
    let mixed = ee.infer_adaptive(&test.x, &test.y, 0.35);

    // escalating everything is the accuracy ceiling
    assert!(all_cloud.accuracy >= mixed.accuracy - 0.05);

    // cost the uploads over LTE: mixed mode saves real device energy
    let radio = NetworkProfile::lte();
    let cloud_cost = radio.round_trip_cost(all_cloud.upload_bytes, 0);
    let mixed_cost = radio.round_trip_cost(mixed.upload_bytes, 0);
    assert!(
        mixed_cost.energy_j < cloud_cost.energy_j,
        "partial escalation must cost less radio energy: {} vs {}",
        mixed_cost.energy_j,
        cloud_cost.energy_j
    );

    // and a battery sees the difference
    let mut always = Battery::typical_phone();
    let mut adaptive = Battery::typical_phone();
    for _ in 0..10_000 {
        always.drain(cloud_cost.energy_j / test.len() as f64);
        adaptive.drain(mixed_cost.energy_j / test.len() as f64);
    }
    assert!(adaptive.remaining_fraction() > always.remaining_fraction());
}

#[test]
fn early_exit_composes_with_model_serialisation() {
    use mdl_core::nn::{load_model, save_model};
    let mut rng = StdRng::seed_from_u64(9503);
    let data = mdl_core::data::synthetic::synthetic_digits(400, 0.08, &mut rng);
    let mut net = Sequential::new();
    net.push(Dense::new(64, 16, Activation::Relu, &mut rng));
    net.push(Dense::new(16, 10, Activation::Identity, &mut rng));
    let mut opt = Adam::new(0.01);
    let _ = fit_classifier(
        &mut net,
        &mut opt,
        &data.x,
        &data.y,
        &TrainConfig { epochs: 10, ..Default::default() },
        &mut rng,
    );
    // ship the full model, then build the exit system device-side
    let bytes = save_model(&mut net).expect("saveable");
    let shipped = load_model(&bytes).expect("loadable");
    let mut ee = EarlyExitNetwork::from_pretrained(shipped, 1, 10, &mut rng);
    let _ = ee.train_exit(&data.x, &data.y, 20, 0.01, &mut rng);
    let report = ee.infer_adaptive(&data.x, &data.y, 0.4);
    assert!(report.accuracy > 0.6, "{report:?}");
    assert_eq!(ee.classes(), 10);
}
