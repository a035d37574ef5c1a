//! Federated averaging and federated SGD (§II-B, references [17], [18]).
//!
//! Both algorithms share one simulation loop:
//!
//! 1. the server samples eligible clients;
//! 2. each selected client downloads the global parameters, runs local
//!    training, and uploads its new parameters weighted by `n_k`;
//! 3. the server replaces the global model with the weighted average
//!    `w ← Σ (n_k / n) w_k`.
//!
//! **FedSGD** is the degenerate case: every client takes exactly one
//! full-batch gradient step per round, so each round is equivalent to one
//! large-batch centralised step — correct but communication-hungry.
//! **FedAvg** lets clients run `E` local epochs of mini-batch SGD before
//! uploading, trading local computation for 10–100× fewer rounds.

use crate::comm::CommLedger;
use crate::model::MlpSpec;
use crate::scheduler::AvailabilityModel;
use mdl_data::Dataset;
use mdl_net::{Fabric, NetError, TransportMetrics};
use mdl_nn::{fit_classifier, ParamVector, Sgd, TrainConfig};
use mdl_sim::{run_legacy_loop, LegacyConfig, LocalUpdate};
use rand::rngs::StdRng;

/// Hyper-parameters of a federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FedConfig {
    /// Maximum federation rounds.
    pub rounds: usize,
    /// Fraction `C` of eligible clients selected per round.
    pub client_fraction: f64,
    /// Local epochs `E` (1 with full batch = FedSGD).
    pub local_epochs: usize,
    /// Local mini-batch size `B` (`usize::MAX` = full batch).
    pub batch_size: usize,
    /// Client learning rate.
    pub learning_rate: f32,
    /// Evaluate the global model every this many rounds.
    pub eval_every: usize,
    /// Stop early once test accuracy reaches this level.
    pub target_accuracy: Option<f64>,
    /// Probability that a selected client fails mid-round (battery died,
    /// connection dropped) and never reports its update.
    pub failure_prob: f64,
    /// Upload 8-bit quantized parameters instead of fp32 (4× less uplink).
    pub quantize_uploads: bool,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            client_fraction: 0.2,
            local_epochs: 5,
            batch_size: 16,
            learning_rate: 0.1,
            eval_every: 1,
            target_accuracy: None,
            failure_prob: 0.0,
            quantize_uploads: false,
        }
    }
}

impl FedConfig {
    /// The FedSGD baseline: all clients, one full-batch step per round.
    pub fn fedsgd(rounds: usize, learning_rate: f32) -> Self {
        Self {
            rounds,
            client_fraction: 1.0,
            local_epochs: 1,
            batch_size: usize::MAX,
            learning_rate,
            ..Default::default()
        }
    }
}

/// One evaluated round of a federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (1-based; round 0 is the initial model).
    pub round: usize,
    /// Global-model accuracy on the held-out test set.
    pub test_accuracy: f64,
    /// Cumulative bytes exchanged so far.
    pub total_bytes: u64,
    /// Clients that participated this round.
    pub participants: usize,
}

/// Result of a federated simulation.
#[derive(Debug)]
pub struct FedRun {
    /// Evaluated rounds in order.
    pub history: Vec<RoundRecord>,
    /// Final global parameters.
    pub final_params: Vec<f32>,
    /// Communication totals (delivered traffic, derived from `transport`).
    pub ledger: CommLedger,
    /// Transport-layer counters: attempts, retries, timeouts, drops,
    /// wasted bytes and the simulated wall clock.
    pub transport: TransportMetrics,
    /// Round at which `target_accuracy` was first reached, if ever.
    pub rounds_to_target: Option<usize>,
}

impl FedRun {
    /// Final test accuracy (0.0 when no round was evaluated).
    pub fn final_accuracy(&self) -> f64 {
        self.history.last().map(|r| r.test_accuracy).unwrap_or(0.0)
    }
}

/// Runs FedAvg/FedSGD over pre-partitioned client datasets, on an ideal
/// (fault-free, infinitely patient) network.
///
/// Equivalent to [`run_federated_over`] with [`Fabric::ideal`] — same
/// randomness, same byte accounting — and therefore infallible.
///
/// # Panics
///
/// Panics if `clients` is empty or the availability model covers a
/// different number of clients.
pub fn run_federated(
    spec: &MlpSpec,
    clients: &[Dataset],
    test: &Dataset,
    config: &FedConfig,
    availability: &AvailabilityModel,
    rng: &mut StdRng,
) -> FedRun {
    let mut fabric = Fabric::ideal(clients.len());
    run_federated_over(spec, clients, test, config, availability, &mut fabric, rng)
        .expect("an ideal fabric never drops, times out, or misses quorum")
}

/// Runs FedAvg/FedSGD with every byte flowing through a simulated
/// transport [`Fabric`]: parameter broadcasts and update uploads can be
/// delayed, retried, lost to dropout or partitions, or cut off by the
/// per-round deadline. The server aggregates whatever quorum of updates
/// actually arrived; a round below quorum keeps the previous global model.
///
/// The round loop itself lives in `mdl-sim` ([`run_legacy_loop`]); this
/// function is a thin adapter that supplies the model-specific pieces —
/// eligibility sampling, local MLP training and evaluation — as closures.
/// The engine preserves the original control flow and RNG consumption
/// exactly, so results are bit-identical with the pre-engine
/// implementation (pinned by the `population` integration tests).
///
/// The fabric owns all fault/jitter randomness, so `rng` is consumed
/// exactly as in the fault-free [`run_federated`] — an idle fabric
/// reproduces it bit-for-bit.
///
/// # Errors
///
/// Returns [`NetError::QuorumUnreachable`] once
/// `fabric.config().max_failed_rounds` consecutive rounds fail to deliver
/// a quorum, instead of looping (or blocking) forever.
///
/// # Panics
///
/// Panics if `clients` is empty, or the availability model or fabric
/// covers a different number of clients.
pub fn run_federated_over(
    spec: &MlpSpec,
    clients: &[Dataset],
    test: &Dataset,
    config: &FedConfig,
    availability: &AvailabilityModel,
    fabric: &mut Fabric,
    rng: &mut StdRng,
) -> Result<FedRun, NetError> {
    assert!(!clients.is_empty(), "need at least one client");
    assert_eq!(availability.clients(), clients.len(), "availability model must cover every client");
    assert_eq!(fabric.clients(), clients.len(), "fabric must cover every client");

    let mut global = spec.build();
    let params = global.param_vector();
    let param_bytes = 4 * params.len() as u64 + 8;
    let mut history = Vec::new();
    let mut rounds_to_target = None;

    // observability rides on the fabric (see `Fabric::attach_obs`): its
    // sim clock advances with the rounds and `net.*` counters mirror the
    // transport; the engine adds `fed.round` spans and `fed.*` counters
    let fed_obs = fabric.obs().cloned();

    let legacy = LegacyConfig {
        rounds: config.rounds,
        client_fraction: config.client_fraction,
        failure_prob: config.failure_prob,
        param_bytes,
    };
    let final_params = run_legacy_loop(
        &legacy,
        params,
        fabric,
        rng,
        // 1. per-round eligibility (Bernoulli idle/charging/unmetered)
        |rng| availability.sample_eligible(rng),
        // 2. one client's local training, on one of the round's workers with
        // a pre-drawn seed; client-local training stays uninstrumented —
        // spans from concurrent client threads would interleave
        // nondeterministically
        |c, seed, params_ref| {
            let data = &clients[c];
            let raw = spec.train_client(
                params_ref,
                data,
                config.local_epochs,
                config.batch_size,
                config.learning_rate,
                seed,
            );
            if config.quantize_uploads {
                let q = crate::update::QuantizedUpdate::quantize(&raw, data.len());
                let values = q.dequantize();
                let wire_bytes = 16 + values.len() as u64;
                LocalUpdate { values, num_examples: data.len() as u64, wire_bytes }
            } else {
                LocalUpdate::dense(raw, data.len() as u64)
            }
        },
        // 3. evaluation after each quorum-successful round
        |round, round_params, total_bytes, participants| {
            if round % config.eval_every == 0 || round == config.rounds {
                global.set_param_vector(round_params);
                let acc = global.accuracy(&test.x, &test.y);
                if let Some(obs) = &fed_obs {
                    obs.registry().gauge("fed.test_accuracy").set(acc);
                }
                history.push(RoundRecord { round, test_accuracy: acc, total_bytes, participants });
                if let Some(target) = config.target_accuracy {
                    if acc >= target {
                        rounds_to_target = Some(round);
                        return true;
                    }
                }
            }
            false
        },
    )?;

    let transport = fabric.metrics();
    Ok(FedRun { history, final_params, ledger: transport.ledger(), transport, rounds_to_target })
}

/// Trains the same architecture centrally on the union of client data —
/// the upper-bound reference every federated curve is compared against.
pub fn centralized_reference(
    spec: &MlpSpec,
    clients: &[Dataset],
    test: &Dataset,
    epochs: usize,
    learning_rate: f32,
    rng: &mut StdRng,
) -> f64 {
    let mut all_x = clients[0].x.clone();
    let mut all_y = clients[0].y.clone();
    for c in &clients[1..] {
        all_x = all_x.vstack(&c.x);
        all_y.extend_from_slice(&c.y);
    }
    let mut net = spec.build();
    let mut opt = Sgd::new(learning_rate);
    let _ = fit_classifier(
        &mut net,
        &mut opt,
        &all_x,
        &all_y,
        &TrainConfig { epochs, batch_size: 32, ..Default::default() },
        rng,
    );
    net.accuracy(&test.x, &test.y)
}

/// Evaluates a parameter vector on a dataset using the given spec.
pub fn evaluate_params(spec: &MlpSpec, params: &[f32], data: &Dataset) -> f64 {
    spec.build_with(params).accuracy(&data.x, &data.y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::partition::{partition_dataset, Partition};
    use mdl_data::synthetic::gaussian_blobs;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (MlpSpec, Vec<Dataset>, Dataset) {
        let data = gaussian_blobs(400, 4, 0.5, rng);
        let (train, test) = data.split(0.8, rng);
        let clients = partition_dataset(&train, 8, Partition::Iid, rng);
        (MlpSpec::new(vec![2, 16, 4], 3), clients, test)
    }

    #[test]
    fn fedavg_learns_blobs() {
        let mut rng = StdRng::seed_from_u64(190);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        let config = FedConfig {
            rounds: 15,
            client_fraction: 0.5,
            local_epochs: 3,
            batch_size: 16,
            learning_rate: 0.2,
            ..Default::default()
        };
        let run = run_federated(&spec, &clients, &test, &config, &availability, &mut rng);
        assert!(run.final_accuracy() > 0.9, "accuracy={}", run.final_accuracy());
        assert_eq!(run.history.len(), 15);
        assert!(run.ledger.bytes_up > 0 && run.ledger.bytes_down > 0);
    }

    #[test]
    fn fedavg_converges_faster_than_fedsgd_per_round() {
        let mut rng = StdRng::seed_from_u64(191);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        // few rounds + small lr: FedSGD has taken only 3 full-batch steps
        // while FedAvg has done 3 × 5 local epochs of mini-batch SGD
        let rounds = 3;
        let lr = 0.05;
        let sgd_run = run_federated(
            &spec,
            &clients,
            &test,
            &FedConfig { eval_every: 1, ..FedConfig::fedsgd(rounds, lr) },
            &availability,
            &mut rng,
        );
        let avg_run = run_federated(
            &spec,
            &clients,
            &test,
            &FedConfig {
                rounds,
                client_fraction: 1.0,
                local_epochs: 5,
                batch_size: 16,
                learning_rate: lr,
                ..Default::default()
            },
            &availability,
            &mut rng,
        );
        assert!(
            avg_run.final_accuracy() > sgd_run.final_accuracy() + 0.05,
            "FedAvg {} should beat FedSGD {} at equal rounds",
            avg_run.final_accuracy(),
            sgd_run.final_accuracy()
        );
    }

    #[test]
    fn target_accuracy_stops_early() {
        let mut rng = StdRng::seed_from_u64(192);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        let config = FedConfig {
            rounds: 50,
            target_accuracy: Some(0.8),
            local_epochs: 3,
            learning_rate: 0.2,
            client_fraction: 1.0,
            ..Default::default()
        };
        let run = run_federated(&spec, &clients, &test, &config, &availability, &mut rng);
        let hit = run.rounds_to_target.expect("should reach 80% on blobs");
        assert!(hit < 50, "early stop at round {hit}");
        assert_eq!(run.history.last().unwrap().round, hit);
    }

    #[test]
    fn unavailable_clients_stall_rounds() {
        let mut rng = StdRng::seed_from_u64(193);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::new(clients.len(), 0.0, 1.0, 1.0);
        let run = run_federated(
            &spec,
            &clients,
            &test,
            &FedConfig { rounds: 5, ..Default::default() },
            &availability,
            &mut rng,
        );
        assert!(run.history.is_empty(), "no eligible clients → no evaluated rounds");
        assert_eq!(run.ledger.bytes_up, 0);
    }

    #[test]
    fn failure_injection_still_converges() {
        let mut rng = StdRng::seed_from_u64(195);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        let run = run_federated(
            &spec,
            &clients,
            &test,
            &FedConfig {
                rounds: 20,
                client_fraction: 1.0,
                failure_prob: 0.4,
                learning_rate: 0.2,
                local_epochs: 3,
                ..Default::default()
            },
            &availability,
            &mut rng,
        );
        assert!(
            run.final_accuracy() > 0.85,
            "40% client failures should only slow convergence: {}",
            run.final_accuracy()
        );
        // reported participants reflect survivors, not the selected cohort
        let mean_participants = run.history.iter().map(|h| h.participants).sum::<usize>() as f64
            / run.history.len() as f64;
        assert!(
            mean_participants < clients.len() as f64 * 0.8,
            "failures must shrink reporting cohorts: {mean_participants}"
        );
    }

    #[test]
    fn quantized_uploads_shrink_traffic_without_breaking_learning() {
        let mut rng = StdRng::seed_from_u64(196);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        let cfg = FedConfig {
            rounds: 10,
            client_fraction: 1.0,
            learning_rate: 0.2,
            local_epochs: 3,
            ..Default::default()
        };
        let fp32 = run_federated(&spec, &clients, &test, &cfg, &availability, &mut rng);
        let q = run_federated(
            &spec,
            &clients,
            &test,
            &FedConfig { quantize_uploads: true, ..cfg },
            &availability,
            &mut rng,
        );
        assert!(
            q.ledger.bytes_up * 3 < fp32.ledger.bytes_up,
            "8-bit uploads should be ~4× smaller: {} vs {}",
            q.ledger.bytes_up,
            fp32.ledger.bytes_up
        );
        assert!(
            q.final_accuracy() > fp32.final_accuracy() - 0.1,
            "quantization must not wreck convergence: {} vs {}",
            q.final_accuracy(),
            fp32.final_accuracy()
        );
    }

    #[test]
    fn fabric_dropout_shrinks_cohorts_but_learning_survives() {
        use mdl_net::{FabricConfig, FaultPlan};
        let mut rng = StdRng::seed_from_u64(197);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        let config = FedConfig {
            rounds: 15,
            client_fraction: 1.0,
            learning_rate: 0.2,
            local_epochs: 3,
            ..Default::default()
        };
        let fabric_cfg = FabricConfig {
            faults: FaultPlan { dropout_prob: 0.3, ..FaultPlan::none() },
            quorum_fraction: 0.25,
            max_failed_rounds: 10,
            ..FabricConfig::ideal()
        };
        let mut fabric = Fabric::new(clients.len(), fabric_cfg, 11);
        let run = run_federated_over(
            &spec,
            &clients,
            &test,
            &config,
            &availability,
            &mut fabric,
            &mut rng,
        )
        .expect("quorum of 25% is reachable under 30% dropout");
        assert!(run.final_accuracy() > 0.85, "accuracy={}", run.final_accuracy());
        assert!(run.transport.drops > 0, "dropout must surface in the metrics");
        assert_eq!(run.ledger, run.transport.ledger(), "ledger is derived from transport");
        let mean_participants = run.history.iter().map(|h| h.participants).sum::<usize>() as f64
            / run.history.len() as f64;
        assert!(mean_participants < clients.len() as f64, "dropped clients never report");
    }

    #[test]
    fn unreachable_quorum_is_a_typed_error_not_a_hang() {
        use mdl_net::{FabricConfig, FaultPlan, NetError, PartitionWindow};
        let mut rng = StdRng::seed_from_u64(198);
        let (spec, clients, test) = setup(&mut rng);
        let availability = AvailabilityModel::always_available(clients.len());
        let fabric_cfg = FabricConfig {
            faults: FaultPlan {
                partitions: vec![PartitionWindow {
                    from_round: 1,
                    until_round: usize::MAX,
                    clients: vec![],
                }],
                ..FaultPlan::none()
            },
            quorum_fraction: 0.5,
            max_failed_rounds: 3,
            ..FabricConfig::ideal()
        };
        let mut fabric = Fabric::new(clients.len(), fabric_cfg, 5);
        let err = run_federated_over(
            &spec,
            &clients,
            &test,
            &FedConfig { rounds: 50, ..Default::default() },
            &availability,
            &mut fabric,
            &mut rng,
        )
        .expect_err("a fully partitioned cohort can never reach quorum");
        match err {
            NetError::QuorumUnreachable { round, needed, got } => {
                assert_eq!(round, 3, "gives up after max_failed_rounds consecutive misses");
                assert!(needed >= 1);
                assert_eq!(got, 0);
            }
            other => panic!("expected QuorumUnreachable, got {other:?}"),
        }
    }

    #[test]
    fn centralized_reference_is_strong() {
        let mut rng = StdRng::seed_from_u64(194);
        let (spec, clients, test) = setup(&mut rng);
        let acc = centralized_reference(&spec, &clients, &test, 20, 0.2, &mut rng);
        assert!(acc > 0.9, "centralised accuracy {acc}");
    }
}
