//! Distributed selective SGD (Shokri & Shmatikov, §II-A / Fig. 1).
//!
//! Participants train independently on local data; after each local phase a
//! participant uploads the gradients of only a *selected fraction θ_u* of
//! parameters (largest magnitude) to the parameter server, and downloads a
//! fraction θ_d of the freshest global parameters before the next phase.
//! Nothing about the raw data ever leaves the device.
//!
//! Local phases run concurrently in fixed-size waves: a wave's
//! participants all download from the global as the previous wave left
//! it, and the server applies uploads in participant order between
//! waves. This keeps the asynchronous flavour (bounded staleness)
//! while parallelising the expensive local training through
//! `mdl_tensor::par` (on one worker when a local phase is too small to pay
//! for a thread). A seeded run gives the same bits for any worker count:
//! all randomness is pre-drawn in participant order.

use crate::comm::CommLedger;
use crate::fedavg::RoundRecord;
use crate::model::MlpSpec;
use mdl_data::Dataset;
use mdl_net::{Fabric, TransportMetrics};
use mdl_nn::{loss::softmax_cross_entropy, Layer, ParamVector};
use mdl_sim::{sparse_len, Update};
use mdl_tensor::par::{for_each_claimed, host_workers};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of a selective-SGD simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectiveConfig {
    /// Communication rounds.
    pub rounds: usize,
    /// Fraction of parameters whose gradients are uploaded (θ_u).
    pub upload_fraction: f64,
    /// Fraction of global parameters downloaded each round (θ_d).
    pub download_fraction: f64,
    /// Local gradient steps per round.
    pub local_steps: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Learning rate (used both locally and at the server).
    pub learning_rate: f32,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
}

impl Default for SelectiveConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            upload_fraction: 0.1,
            download_fraction: 1.0,
            local_steps: 5,
            batch_size: 16,
            learning_rate: 0.1,
            eval_every: 1,
        }
    }
}

/// Result of a selective-SGD run.
#[derive(Debug)]
pub struct SelectiveRun {
    /// Evaluated rounds.
    pub history: Vec<RoundRecord>,
    /// Final global parameters.
    pub final_params: Vec<f32>,
    /// Communication totals (delivered traffic, derived from `transport`).
    pub ledger: CommLedger,
    /// Transport-layer counters from the fabric the run flowed over.
    pub transport: TransportMetrics,
}

impl SelectiveRun {
    /// Final test accuracy (0.0 when no round was evaluated).
    pub fn final_accuracy(&self) -> f64 {
        self.history.last().map(|r| r.test_accuracy).unwrap_or(0.0)
    }
}

/// Participants whose local phases run concurrently between server
/// applications; bounds gradient staleness while still giving the wave a
/// full set of CPU cores. Fixed (not core-count-derived) so a seeded run
/// produces the same numbers on every machine.
const WAVE_SIZE: usize = 4;

/// Estimated MACs of one local phase (`2 · params · steps · batch`) below
/// which a wave trains on one worker: spawning threads would cost more
/// than it saves.
const PARALLEL_WORK_THRESHOLD: u64 = 2_000_000;

/// One participant's local phase: refresh the downloaded coordinates, run
/// the pre-drawn mini-batch SGD steps, and encode the sparse upload.
fn local_phase(
    spec: &MlpSpec,
    config: &SelectiveConfig,
    global: &[f32],
    data: &Dataset,
    local: &mut Vec<f32>,
    coords: &[usize],
    batches: &[Vec<usize>],
) -> Vec<u8> {
    // download a θ_d fraction of the global parameters
    for &i in coords {
        local[i] = global[i];
    }

    // local SGD steps from the (partially refreshed) copy
    let mut model = spec.build_with(local);
    let before = local.clone();
    for batch in batches {
        let bx = data.x.select_rows(batch);
        let by: Vec<usize> = batch.iter().map(|&i| data.y[i]).collect();
        model.zero_grad();
        let logits = model.forward(&bx);
        let (_, grad) = softmax_cross_entropy(&logits, &by);
        let _ = model.backward(&grad);
        // manual SGD step (keeps model params equal to flattened view)
        model.visit_params(&mut |v, g| v.add_scaled(-config.learning_rate, g));
    }
    *local = model.param_vector();

    // select the θ_u largest-magnitude parameter *changes*
    let delta: Vec<f32> = local.iter().zip(before.iter()).map(|(a, b)| a - b).collect();
    let n = u32::try_from(data.len()).expect("a participant holds fewer than 2^32 examples");
    Update::top_fraction(&delta, config.upload_fraction, n).encode()
}

/// Runs the distributed selective SGD protocol on an ideal network.
///
/// Equivalent to [`run_selective_sgd_over`] with [`Fabric::ideal`] — same
/// randomness, same byte accounting.
///
/// # Panics
///
/// Panics if `participants` is empty or fractions fall outside `(0, 1]`.
pub fn run_selective_sgd(
    spec: &MlpSpec,
    participants: &[Dataset],
    test: &Dataset,
    config: &SelectiveConfig,
    rng: &mut StdRng,
) -> SelectiveRun {
    let mut fabric = Fabric::ideal(participants.len());
    run_selective_sgd_over(spec, participants, test, config, &mut fabric, rng)
}

/// Runs distributed selective SGD with every download and sparse upload
/// flowing through a simulated transport [`Fabric`].
///
/// The protocol is asynchronous by design, so faults degrade rather than
/// fail it: a participant whose download was lost trains from its stale
/// local copy without the θ_d refresh, and a participant whose upload was
/// dropped simply contributes nothing to the server this round.
///
/// # Panics
///
/// Panics if `participants` is empty, fractions fall outside `(0, 1]`, or
/// the fabric covers a different number of participants.
pub fn run_selective_sgd_over(
    spec: &MlpSpec,
    participants: &[Dataset],
    test: &Dataset,
    config: &SelectiveConfig,
    fabric: &mut Fabric,
    rng: &mut StdRng,
) -> SelectiveRun {
    let phase_macs =
        2 * spec.num_params() as u64 * config.local_steps as u64 * config.batch_size as u64;
    let workers = if phase_macs < PARALLEL_WORK_THRESHOLD { 1 } else { host_workers() };
    run_selective_sgd_on(workers, spec, participants, test, config, fabric, rng)
}

/// [`run_selective_sgd_over`] on `workers` workers per wave.
fn run_selective_sgd_on(
    workers: usize,
    spec: &MlpSpec,
    participants: &[Dataset],
    test: &Dataset,
    config: &SelectiveConfig,
    fabric: &mut Fabric,
    rng: &mut StdRng,
) -> SelectiveRun {
    assert!(!participants.is_empty(), "need at least one participant");
    assert_eq!(fabric.clients(), participants.len(), "fabric must cover every participant");
    assert!(
        config.upload_fraction > 0.0 && config.upload_fraction <= 1.0,
        "upload fraction must be in (0, 1]"
    );
    assert!(
        config.download_fraction > 0.0 && config.download_fraction <= 1.0,
        "download fraction must be in (0, 1]"
    );

    let mut global_model = spec.build();
    let mut global = global_model.param_vector();
    let dim = global.len();

    // each participant keeps a persistent (possibly stale) local copy
    let mut locals: Vec<Vec<f32>> = vec![global.clone(); participants.len()];
    let mut history = Vec::new();

    let k_down = (((dim as f64) * config.download_fraction).ceil() as usize).clamp(1, dim);
    let down_bytes = sparse_len(k_down);

    for round in 1..=config.rounds {
        fabric.begin_round();

        // Pre-draw every participant's randomness in participant order so
        // the run stays deterministic no matter how the threads interleave.
        // The θ_d downloads go over the fabric before the waves start; a
        // participant whose download was lost (or who is partitioned or
        // dropped) keeps training from its stale copy, refreshing nothing.
        let draws: Vec<(Vec<usize>, Vec<Vec<usize>>)> = participants
            .iter()
            .enumerate()
            .map(|(p, data)| {
                let mut coords: Vec<usize> = (0..dim).collect();
                if k_down < dim {
                    coords.shuffle(rng);
                    coords.truncate(k_down);
                }
                let batches: Vec<Vec<usize>> = (0..config.local_steps)
                    .map(|_| {
                        (0..config.batch_size.min(data.len()))
                            .map(|_| rng.gen_range(0..data.len()))
                            .collect()
                    })
                    .collect();
                if fabric.send_down(p, down_bytes).is_err() {
                    coords.clear();
                }
                (coords, batches)
            })
            .collect();

        // Everyone in a wave downloads from the global as left by the
        // previous wave, so staleness is bounded by the wave width and
        // gradients arrive one wave at a time instead of summing a whole
        // round's worth from one snapshot (which overshoots badly at high
        // participant counts).
        let mut draws = draws.into_iter();
        for (wave_idx, (wave, wave_locals)) in
            participants.chunks(WAVE_SIZE).zip(locals.chunks_mut(WAVE_SIZE)).enumerate()
        {
            let wave_start = wave_idx * WAVE_SIZE;
            let members = wave.iter().zip(wave_locals).zip(draws.by_ref().take(wave.len()));
            let mut outcomes: Vec<(usize, Vec<u8>)> = for_each_claimed(
                workers,
                members.enumerate(),
                Vec::new,
                |(off, ((data, local), (coords, batches))), done| {
                    let update = local_phase(spec, config, &global, data, local, &coords, &batches);
                    done.push((off, update));
                },
                |a, b| a.into_iter().chain(b).collect(),
            );

            // The server applies the wave's uploads in participant order —
            // but only the frames the fabric delivered and that decode.
            outcomes.sort_unstable_by_key(|&(off, _)| off);
            for (off, frame) in outcomes {
                if fabric.send_up(wave_start + off, frame.len() as u64).is_err() {
                    continue;
                }
                if let Ok(update) = Update::decode(&frame) {
                    update.apply_to(&mut global, 1.0);
                }
            }
        }
        fabric.end_round();

        if round % config.eval_every == 0 || round == config.rounds {
            global_model.set_param_vector(&global);
            let acc = global_model.accuracy(&test.x, &test.y);
            history.push(RoundRecord {
                round,
                test_accuracy: acc,
                total_bytes: fabric.metrics().ledger().total_bytes(),
                participants: participants.len(),
            });
        }
    }

    let transport = fabric.metrics();
    SelectiveRun { history, final_params: global, ledger: transport.ledger(), transport }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::partition::{partition_dataset, Partition};
    use mdl_data::synthetic::gaussian_blobs;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (MlpSpec, Vec<Dataset>, Dataset) {
        let data = gaussian_blobs(400, 3, 0.5, rng);
        let (train, test) = data.split(0.8, rng);
        let parts = partition_dataset(&train, 5, Partition::Iid, rng);
        (MlpSpec::new(vec![2, 12, 3], 5), parts, test)
    }

    #[test]
    fn selective_sgd_learns_with_partial_uploads() {
        let mut rng = StdRng::seed_from_u64(200);
        let (spec, parts, test) = setup(&mut rng);
        let config = SelectiveConfig {
            rounds: 25,
            upload_fraction: 0.1,
            local_steps: 5,
            learning_rate: 0.1,
            ..Default::default()
        };
        let run = run_selective_sgd(&spec, &parts, &test, &config, &mut rng);
        assert!(run.final_accuracy() > 0.85, "accuracy={}", run.final_accuracy());
    }

    #[test]
    fn higher_upload_fraction_converges_at_least_as_well() {
        let mut rng = StdRng::seed_from_u64(201);
        let (spec, parts, test) = setup(&mut rng);
        let run_with = |theta: f64, rng: &mut StdRng| {
            run_selective_sgd(
                &spec,
                &parts,
                &test,
                &SelectiveConfig {
                    rounds: 12,
                    upload_fraction: theta,
                    local_steps: 4,
                    ..Default::default()
                },
                rng,
            )
            .final_accuracy()
        };
        let sparse = run_with(0.01, &mut rng);
        let full = run_with(1.0, &mut rng);
        assert!(full >= sparse - 0.05, "θ=1.0 ({full}) should roughly dominate θ=0.01 ({sparse})");
    }

    #[test]
    fn upload_bytes_scale_with_theta() {
        let mut rng = StdRng::seed_from_u64(202);
        let (spec, parts, test) = setup(&mut rng);
        let bytes_with = |theta: f64, rng: &mut StdRng| {
            run_selective_sgd(
                &spec,
                &parts,
                &test,
                &SelectiveConfig { rounds: 3, upload_fraction: theta, ..Default::default() },
                rng,
            )
            .ledger
            .bytes_up
        };
        let sparse = bytes_with(0.01, &mut rng);
        let full = bytes_with(1.0, &mut rng);
        assert!(full > sparse * 20, "full={full} sparse={sparse}");
    }

    #[test]
    fn worker_count_never_changes_results() {
        // 64->512->3 is ~34k params: crosses PARALLEL_WORK_THRESHOLD, so
        // `run_selective_sgd` trains its waves on several workers too
        let mut rng = StdRng::seed_from_u64(204);
        let data = gaussian_blobs(240, 3, 0.5, &mut rng);
        let (train, test) = data.split(0.8, &mut rng);
        let parts = partition_dataset(&train, 6, Partition::Iid, &mut rng);
        let spec = MlpSpec::new(vec![64, 512, 3], 5);
        let wide = |d: &Dataset| {
            let mut x = mdl_tensor::Matrix::zeros(d.len(), 64);
            for r in 0..d.len() {
                x[(r, 0)] = d.x[(r, 0)];
                x[(r, 1)] = d.x[(r, 1)];
            }
            Dataset { x, y: d.y.clone(), classes: d.classes }
        };
        let parts: Vec<Dataset> = parts.iter().map(&wide).collect();
        let test = wide(&test);
        let config = SelectiveConfig { rounds: 3, local_steps: 2, ..Default::default() };
        let run = |workers: usize| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut fabric = Fabric::ideal(parts.len());
            let run =
                run_selective_sgd_on(workers, &spec, &parts, &test, &config, &mut fabric, &mut rng);
            let accuracies: Vec<u64> =
                run.history.iter().map(|r| r.test_accuracy.to_bits()).collect();
            (run.final_params, accuracies)
        };
        let alone = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(alone, run(workers), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "upload fraction")]
    fn rejects_zero_upload_fraction() {
        let mut rng = StdRng::seed_from_u64(203);
        let (spec, parts, test) = setup(&mut rng);
        let _ = run_selective_sgd(
            &spec,
            &parts,
            &test,
            &SelectiveConfig { upload_fraction: 0.0, ..Default::default() },
            &mut rng,
        );
    }
}
