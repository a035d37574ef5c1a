//! `fed_population`: repeated 5-round FedAvg over 100 000 simulated
//! mobile clients on a faulty LTE mix. The `mdl-sim` eligibility scan,
//! cohort sampling and event loop, the `mdl-net` links and the sharded
//! aggregator do most of the work; client training is the small rest.

use super::{LoadStats, Op, Pace, RunArgs, Workload};
use crate::models::{fed_sim_config, fed_task, population_spec, FED_ROUNDS};
use crate::probes::ProbeOut;
use crate::trace::Tracer;
use mdl_federated::fedavg::evaluate_params;
use mdl_federated::{run_population_fedavg, PopulationTask};
use mdl_sim::{run_population, ClientTrainer, Population, PopulationReport, SimConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Final test accuracy every repetition must reach.
const ACCURACY_FLOOR: f64 = 0.8;

/// The population workload.
pub struct Fed;

/// A population at virtual time zero, and what to run over it.
pub struct FedFixture {
    population: Option<Population>,
    config: SimConfig,
    task: PopulationTask,
}

/// Client trainings one repetition can record: five rounds of 1 %
/// cohorts of 100 000 clients train about 550; later ones are dropped.
const TRAIN_SLOTS: usize = 4096;

/// `PopulationTask` with a stopwatch around `train`. The engine calls it
/// from its wave threads, eight at a time, so each call claims a slot
/// with one atomic add and writes its two timestamps there: no lock,
/// hence no thread parked and woken on the tracer's account.
struct TimedTrainer<'a> {
    task: &'a PopulationTask,
    epoch: Instant,
    next: AtomicUsize,
    spans: Vec<(AtomicU64, AtomicU64)>,
}

impl ClientTrainer for TimedTrainer<'_> {
    fn num_examples(&self, client: u64) -> u64 {
        self.task.num_examples(client)
    }

    fn train(&self, client: u64, seed: u64, global: &[f32]) -> Vec<f32> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let update = self.task.train(client, seed, global);
        let end = self.epoch.elapsed().as_nanos() as u64;
        // Relaxed throughout: the engine joins every wave thread before
        // `run_population` returns, and only then are the slots read.
        if let Some(slot) = self.spans.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            slot.0.store(start, Ordering::Relaxed);
            slot.1.store(end, Ordering::Relaxed);
        }
        update
    }
}

/// One repetition with every client's training recorded as a
/// `federated.client_train` child of a `sim.run_population` span — the
/// three lines of `run_population_fedavg`, with the trainer wrapped.
pub fn traced_repetition(
    config: &SimConfig,
    population: &mut Population,
    task: &PopulationTask,
    tracer: &mut Tracer,
    id: u64,
) -> (PopulationReport, f64) {
    let epoch = Instant::now();
    let base = tracer.at_ns(epoch);
    let trainer = TimedTrainer {
        task,
        epoch,
        next: AtomicUsize::new(0),
        spans: (0..TRAIN_SLOTS).map(|_| Default::default()).collect(),
    };
    let report = run_population(config, population, task.initial_params(), &trainer, None)
        .expect("a 50% quorum is reachable under this fault plan");
    let end = epoch.elapsed().as_nanos() as u64;
    let accuracy = evaluate_params(&task.spec, &report.final_params, &task.test_set(1000));
    let root = tracer.root("sim.run_population", base, base + end, id);
    let recorded = trainer.next.into_inner().min(TRAIN_SLOTS);
    for (a, b) in trainer.spans.into_iter().take(recorded) {
        tracer.child(
            root,
            "federated.client_train",
            base + a.into_inner(),
            base + b.into_inner(),
            id,
        );
    }
    (report, accuracy)
}

impl Workload for Fed {
    type Fixture = FedFixture;

    fn setup(&self, args: &RunArgs) -> FedFixture {
        FedFixture {
            population: Some(Population::new(population_spec(args.seed))),
            config: fed_sim_config(args.seed),
            task: fed_task(args.seed),
        }
    }

    fn load(
        &self,
        fx: &mut FedFixture,
        args: &RunArgs,
        tracer: &mut Tracer,
        _probe: Option<&ProbeOut>,
    ) -> LoadStats {
        // rebuilding the population between repetitions is set-up, not load
        let mut stats = LoadStats { pace: Pace::Busy, ..LoadStats::default() };
        let (warm_end, deadline) = args.start_window(tracer);
        let mut reference: Option<(PopulationReport, u64)> = None;
        let (mut diverged, mut no_quorum, mut inaccurate) = (0u64, 0u64, 0u64);
        let mut repetition = 0u64;
        loop {
            // The engine advances the availability chains as virtual time
            // passes, so every repetition needs a population at time zero.
            // Building it is set-up (`setup_s`, `sim.population_new_ms`),
            // not part of the timed operation.
            let mut population =
                fx.population.take().unwrap_or_else(|| Population::new(population_spec(args.seed)));
            let start = Instant::now();
            if start >= deadline {
                break;
            }
            let (report, accuracy) = if tracer.keeps_at(start) {
                traced_repetition(&fx.config, &mut population, &fx.task, tracer, repetition)
            } else {
                run_population_fedavg(&fx.config, &mut population, &fx.task, None)
                    .expect("a 50% quorum is reachable under this fault plan")
            };
            let took = start.elapsed();

            let quorum =
                report.rounds.len() == FED_ROUNDS && report.rounds.iter().all(|r| r.quorum_met);
            let accurate = accuracy >= ACCURACY_FLOOR;
            let same = match &reference {
                Some((first, bits)) => *first == report && *bits == accuracy.to_bits(),
                None => {
                    stats.notes.push(format!(
                        "per repetition: {} events, {} B delivered, accuracy {accuracy:.4}",
                        report.events,
                        report.transport.bytes_up + report.transport.bytes_down
                    ));
                    reference = Some((report, accuracy.to_bits()));
                    true
                }
            };
            no_quorum += u64::from(!quorum);
            inaccurate += u64::from(!accurate);
            diverged += u64::from(!same);
            if start >= warm_end {
                let ok = quorum && accurate && same;
                stats.ops.push(Op {
                    at_s: (start - warm_end).as_secs_f64(),
                    latency_ms: Some(took.as_secs_f64() * 1e3),
                    attempted: 1,
                    failed: u64::from(!ok),
                    met: u64::from(ok),
                    units: if ok { FED_ROUNDS as f64 } else { 0.0 },
                });
            }
            repetition += 1;
        }
        stats.check(no_quorum == 0, || format!("{no_quorum} repetitions had a round miss quorum"));
        stats.check(inaccurate == 0, || {
            format!("{inaccurate} repetitions ended below accuracy {ACCURACY_FLOOR}")
        });
        stats.check(diverged == 0, || {
            format!("{diverged} repetitions differ from the first (report or accuracy bits)")
        });
        stats.notes.push(format!(
            "an operation is one {FED_ROUNDS}-round repetition; latency_p50_ms is its wall time"
        ));
        stats
    }

    fn teardown(&self, _fx: FedFixture) {}
}
