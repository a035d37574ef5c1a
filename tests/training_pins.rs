//! Bit-identity pins of every training loop that runs through
//! `mdl_nn::trainer`'s mini-batch driver: DeepMood (three encoders × three
//! fusion heads), distillation, DP-FedAvg clients and population FedAvg
//! clients. The hashes were captured on the tree where each of these still
//! owned a private epoch loop; a hash that moves means the RNG draw order,
//! the batch composition or the optimizer's visit order changed.
//!
//! Distributed selective SGD keeps its own local-phase loop; its two pins,
//! one model below and one above the size at which a wave's participants
//! train in parallel, hold how a wave's local phases are scheduled to the
//! results of a seeded run.
//!
//! DeepMood exposes no weight accessor, so its pin is the logits of every
//! training session (a function of every weight) plus the per-epoch
//! accuracies. The per-epoch *loss* is deliberately not pinned: it is a
//! reported f64 mean whose summation order is not part of the contract.

use mdl_core::deepmood::EncoderKind;
use mdl_core::prelude::*;

fn fnv(bits: impl Iterator<Item = u32>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        b.to_le_bytes()
            .iter()
            .fold(h, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn hash_params(params: &[f32]) -> u64 {
    fnv(params.iter().map(|v| v.to_bits()))
}

/// Two-view toy sessions of uneven length: the class decides the drift of
/// view 0 and the frequency of view 1.
fn toy_sessions(n: usize, rng: &mut StdRng) -> Vec<(Vec<Matrix>, usize)> {
    use mdl_core::tensor::init::gaussian;
    (0..n)
        .map(|i| {
            let label = i % 2;
            let t = 5 + (i % 4);
            let drift = if label == 0 { 0.3 } else { -0.3 };
            let v0 = Matrix::from_fn(t, 2, |r, c| {
                drift * r as f32 + 0.05 * gaussian(rng) + c as f32 * 0.1
            });
            let freq = if label == 0 { 0.5 } else { 2.0 };
            let v1 = Matrix::from_fn(t + 2, 3, |r, c| {
                (freq * r as f32 + c as f32).sin() + 0.05 * gaussian(rng)
            });
            (vec![v0, v1], label)
        })
        .collect()
}

fn deepmood_hash(encoder: EncoderKind, fusion: FusionKind) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x7121);
    let data = toy_sessions(37, &mut rng);
    let sessions: Vec<(Vec<&Matrix>, usize)> =
        data.iter().map(|(v, y)| (v.iter().collect(), *y)).collect();
    let config = DeepMoodConfig {
        encoder,
        fusion,
        hidden_dim: 5,
        epochs: 2,
        batch_size: 8,
        learning_rate: 0.02,
        ..Default::default()
    };
    let mut model = DeepMood::new(&[2, 3], config, &mut rng);
    let history = model.train(&sessions, &mut rng);
    assert_eq!(history.len(), 2);
    assert_eq!((history[0].epoch, history[1].epoch), (0, 1));
    let logits: Vec<Matrix> = sessions.iter().map(|(views, _)| model.logits(views)).collect();
    fnv(logits.iter().flat_map(|l| l.as_slice().iter().map(|v| v.to_bits())).chain(
        history.iter().flat_map(|e| {
            let bits = e.accuracy.to_bits();
            [bits as u32, (bits >> 32) as u32]
        }),
    ))
}

#[test]
fn deepmood_training_is_pinned_for_every_encoder_and_fusion() {
    let fusions = [
        FusionKind::FullyConnected { hidden: 6 },
        FusionKind::FactorizationMachine { factors: 3 },
        FusionKind::MultiViewMachine { factors: 3 },
    ];
    let encoders = [EncoderKind::Gru, EncoderKind::BiGru, EncoderKind::Lstm];
    let got = encoders.map(|encoder| fusions.map(|fusion| deepmood_hash(encoder, fusion)));
    let pinned: [[u64; 3]; 3] = [
        [0x1e40671e8c3858cf, 0xc25102ab64fe68f7, 0xed0519d7a5ce935c],
        [0xec50112c8960a8f2, 0xb5cf0b2238b19f8c, 0xbd252a94da7db599],
        [0x9e69fe7ad72a4ced, 0x98f85036a8afb026, 0xa996440205b4394e],
    ];
    assert_eq!(got, pinned, "rows Gru / BiGru / Lstm, columns FC / FM / MVM: {got:#018x?}");
}

fn mlp(dims: &[usize], rng: &mut StdRng) -> Sequential {
    let mut net = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        let act = if i + 2 == dims.len() { Activation::Identity } else { Activation::Relu };
        net.push(Dense::new(w[0], w[1], act, rng));
    }
    net
}

#[test]
fn distilled_student_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x7122);
    let data = mdl_core::data::synthetic::two_spirals(150, 0.05, &mut rng);
    let mut teacher = mlp(&[2, 16, 2], &mut rng);
    let _ = fit_classifier(
        &mut teacher,
        &mut Adam::new(0.01),
        &data.x,
        &data.y,
        &TrainConfig { epochs: 5, ..Default::default() },
        &mut rng,
    );
    let mut student = mlp(&[2, 6, 2], &mut rng);
    // 150 examples at batch 32: four full batches and a ragged one
    let history = distill(
        &teacher,
        &mut student,
        &mut Adam::new(0.01),
        &data.x,
        &data.y,
        &DistillConfig { epochs: 3, ..Default::default() },
        &mut rng,
    );
    assert_eq!(history.len(), 3);
    let got = hash_params(&student.param_vector());
    assert_eq!(got, 0x9215c06b5ad3343f, "distilled student drifted: {got:#018x}");
    let loss = fnv(history.iter().flat_map(|e| {
        let bits = e.loss.to_bits();
        [bits as u32, (bits >> 32) as u32]
    }));
    assert_eq!(loss, 0x2b99870b26989dcd, "distillation loss history drifted: {loss:#018x}");
}

#[test]
fn dp_fedavg_final_params_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x7123);
    let data = mdl_core::data::synthetic::gaussian_blobs(240, 3, 0.5, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let clients = partition_dataset(&train, 6, Partition::Iid, &mut rng);
    let spec = MlpSpec::new(vec![2, 8, 3], 2);
    let run = run_dp_fedavg(
        &spec,
        &clients,
        &test,
        &DpFedConfig { rounds: 3, sample_prob: 0.7, noise_multiplier: 0.8, ..Default::default() },
        &mut rng,
    );
    let got = hash_params(&run.final_params);
    assert_eq!(got, 0x9fd6e693c73fe25d, "DP-FedAvg drifted: {got:#018x}");
}

#[test]
fn population_fedavg_final_params_are_pinned() {
    let task = PopulationTask::blobs(0x7124);
    let mut pop = Population::new(PopulationSpec::mobile_mix(200, 0x7124));
    let cfg = SimConfig {
        rounds: 3,
        cohort: CohortSpec { fraction: 0.2, min_size: 8, max_size: 64 },
        quorum_fraction: 0.25,
        seed: 0x7124,
        ..SimConfig::default()
    };
    let (report, _) =
        run_population_fedavg(&cfg, &mut pop, &task, None).expect("quorum reachable at 200");
    assert!(report.rounds.iter().all(|r| r.delivered > 0), "every round must train someone");
    let got = hash_params(&report.final_params);
    assert_eq!(got, 0x17998999b881402c, "population FedAvg drifted: {got:#018x}");
    assert_eq!(report.transport.bytes_up, 11_328, "population FedAvg upload bytes moved");
}

/// FedAvg with 8-bit uploads: the quantizer's arithmetic, and the bytes an
/// upload is charged.
#[test]
fn quantized_fedavg_final_params_and_bytes_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x7126);
    let data = mdl_core::data::synthetic::gaussian_blobs(240, 3, 0.5, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let clients = partition_dataset(&train, 6, Partition::Iid, &mut rng);
    let spec = MlpSpec::new(vec![2, 8, 3], 2);
    let config = FedConfig {
        rounds: 3,
        client_fraction: 0.5,
        local_epochs: 2,
        quantize_uploads: true,
        ..Default::default()
    };
    let availability = AvailabilityModel::always_available(clients.len());
    let run = run_federated(&spec, &clients, &test, &config, &availability, &mut rng);
    let got = hash_params(&run.final_params);
    assert_eq!(got, 0x6f0029488439c5a3, "quantized FedAvg drifted: {got:#018x}");
    assert_eq!(run.ledger.bytes_up, 603, "quantized FedAvg upload bytes moved");
}

/// The E1 architecture: local phases far below the threshold at which
/// participants train on threads of their own.
#[test]
fn selective_sgd_small_model_final_params_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x7125);
    let data = mdl_core::data::synthetic::synthetic_digits(300, 0.08, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let parts = partition_dataset(&train, 6, Partition::Iid, &mut rng);
    let spec = MlpSpec::new(vec![64, 32, 10], 42);
    // θ_d < 1 so the per-participant download shuffle is pinned too
    let config =
        SelectiveConfig { rounds: 3, download_fraction: 0.5, eval_every: 3, ..Default::default() };
    let run = run_selective_sgd(&spec, &parts, &test, &config, &mut rng);
    let got = hash_params(&run.final_params);
    assert_eq!(got, 0x490fc149bbd9c4bc, "selective SGD (E1 spec) drifted: {got:#018x}");
    let bytes = (run.transport.bytes_up, run.transport.bytes_down);
    assert_eq!(bytes, (34_920, 173_736), "selective SGD (E1 spec) bytes moved");
}

/// A 64→512→3 model whose local phases are large enough to train a wave's
/// participants in parallel.
#[test]
fn selective_sgd_wide_model_final_params_are_pinned() {
    let mut rng = StdRng::seed_from_u64(204);
    let data = mdl_core::data::synthetic::gaussian_blobs(240, 3, 0.5, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let parts = partition_dataset(&train, 6, Partition::Iid, &mut rng);
    let wide = |d: &Dataset| Dataset {
        x: Matrix::from_fn(d.len(), 64, |r, c| if c < 2 { d.x[(r, c)] } else { 0.0 }),
        y: d.y.clone(),
        classes: d.classes,
    };
    let parts: Vec<Dataset> = parts.iter().map(wide).collect();
    let spec = MlpSpec::new(vec![64, 512, 3], 5);
    let config = SelectiveConfig { rounds: 3, local_steps: 2, ..Default::default() };
    let run = run_selective_sgd(&spec, &parts, &wide(&test), &config, &mut rng);
    let got = hash_params(&run.final_params);
    assert_eq!(got, 0x370bf1d5df919363, "selective SGD (wide spec) drifted: {got:#018x}");
    let bytes = (run.transport.bytes_up, run.transport.bytes_down);
    assert_eq!(bytes, (501_624, 5_014_152), "selective SGD (wide spec) bytes moved");
}
