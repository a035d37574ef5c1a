//! The two round engines.
//!
//! [`run_legacy_loop`] is the classic fixed-cohort FedAvg driver: the
//! exact control flow (and RNG consumption) of the original
//! `run_federated_over`, factored out so the federated crate's public
//! entry point becomes a thin adapter. Byte-for-byte equivalence with the
//! pre-engine implementation is pinned by the integration tests.
//!
//! [`run_population`] is the population-scale engine: a discrete-event
//! loop over virtual time in which each round samples a cohort from a
//! lazily-advanced [`Population`], pushes traffic through per-client
//! `mdl-net` links keyed by stable client id, charges local compute
//! against the round deadline, trains only the clients whose uploads
//! actually arrived, and streams their updates into fixed-point
//! aggregators. Every draw is a stateless function of `(seed, round,
//! client id)`, so a 100k-client round is bit-identical across runs,
//! worker counts and cohort compositions.
//!
//! Both engines train a round's clients through `mdl_tensor::par`: a
//! fixed set of workers — one per core, at most eight, the calling thread
//! among them — claim client after client. A client costs tens of
//! microseconds to train, less than a thread costs to spawn, so threads
//! are per round and never per client.

use crate::aggregate::{BufferedAggregator, LocalUpdate, ShardedAggregator};
use crate::cohort::{sample_cohort, CohortSpec};
use crate::event::EventQueue;
use crate::population::Population;
use crate::seed::keyed_hash;
use mdl_mobile::NetworkProfile;
use mdl_net::{
    Direction, Fabric, FaultPlan, Link, LinkConfig, NetError, RetryPolicy, TransportMetrics,
};
use mdl_obs::{Counter, Obs, Span};
use mdl_tensor::par::{for_each_claimed, host_workers};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

// Domain separators: link jitter, local-training seeds and edge
// assignment must never alias each other or the fault/cohort streams.
const LINK_DOMAIN: u64 = 0x1111_C000_0000_0000;
const TRAIN_DOMAIN: u64 = 0x7124_1000_0000_0000;
const EDGE_DOMAIN: u64 = 0xED6E_0000_0000_0000;
const EDGE_LINK_DOMAIN: u64 = 0xED6E_1111_0000_0000;

/// Hyper-parameters of the legacy fixed-cohort loop that the engine needs
/// to drive a round; everything model-specific stays behind the closures.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyConfig {
    /// Maximum federation rounds.
    pub rounds: usize,
    /// Fraction `C` of eligible clients selected per round.
    pub client_fraction: f64,
    /// Probability a selected client fails mid-round and never reports.
    pub failure_prob: f64,
    /// Bytes of one global-parameter broadcast.
    pub param_bytes: u64,
}

/// Drives the classic FedAvg loop over a [`Fabric`], consuming `rng`
/// exactly as the original monolithic implementation did: eligibility
/// sample, shuffle, per-selected `(seed, failure)` draws — in that order,
/// nothing more. Training runs on the round's workers with pre-drawn
/// seeds and the results go back into selection order, so thread
/// scheduling cannot perturb results.
///
/// * `sample_eligible` returns the eligible client indices (consuming
///   `rng` however the availability model requires).
/// * `train` maps `(client, seed, global params)` to a [`LocalUpdate`];
///   it runs on a worker thread and must not touch shared mutable state.
/// * `evaluate` is called after every quorum-successful round with
///   `(round, params, total_bytes, participants)`; returning `true`
///   stops the run early.
///
/// # Errors
///
/// Returns [`NetError::QuorumUnreachable`] after
/// `fabric.config().max_failed_rounds` consecutive quorum misses.
pub fn run_legacy_loop<S, T, E>(
    cfg: &LegacyConfig,
    initial_params: Vec<f32>,
    fabric: &mut Fabric,
    rng: &mut StdRng,
    mut sample_eligible: S,
    train: T,
    mut evaluate: E,
) -> Result<Vec<f32>, NetError>
where
    S: FnMut(&mut StdRng) -> Vec<usize>,
    T: Fn(usize, u64, &[f32]) -> LocalUpdate + Sync,
    E: FnMut(usize, &[f32], u64, usize) -> bool,
{
    let mut params = initial_params;
    let mut consecutive_quorum_misses = 0usize;
    let workers = host_workers();

    let fed_obs = fabric.obs().cloned();
    let fed_counters = fed_obs.as_ref().map(|o| {
        let r = o.registry();
        (r.counter("fed.selected"), r.counter("fed.updates"), r.counter("fed.quorum_misses"))
    });

    for round in 1..=cfg.rounds {
        // declared before any `continue`, so the span closes after the
        // round's `end_round` (and clock advance) on every path
        let round_span = fed_obs.as_ref().map(|o| o.root_span("fed.round"));
        let _ = &round_span;
        fabric.begin_round();

        let mut eligible = sample_eligible(rng);
        if eligible.is_empty() {
            fabric.end_round();
            continue;
        }
        eligible.shuffle(rng);
        let m = (((eligible.len() as f64) * cfg.client_fraction).round() as usize)
            .clamp(1, eligible.len());
        let selected = &eligible[..m];

        // seeds and failure fates drawn in selection order before any
        // worker starts — bit-determinism does not depend on scheduling; a
        // client trains if it neither fails nor misses the broadcast
        let fates: Vec<(u64, bool)> = selected
            .iter()
            .map(|&c| {
                let seed: u64 = rng.gen();
                let fails = cfg.failure_prob > 0.0 && rng.gen::<f64>() < cfg.failure_prob;
                let reached =
                    fabric.send_down(c, cfg.param_bytes).is_ok() && !fabric.client_dropped(c);
                (seed, !fails && reached)
            })
            .collect();
        let mut trained: Vec<(usize, LocalUpdate)> = for_each_claimed(
            workers,
            0..selected.len(),
            Vec::new,
            |i, done| {
                let (seed, trains) = fates[i];
                if trains {
                    done.push((i, train(selected[i], seed, &params)));
                }
            },
            |a, b| a.into_iter().chain(b).collect(),
        );
        // uploads and the float average go in selection order
        trained.sort_unstable_by_key(|&(i, _)| i);

        let mut agg = BufferedAggregator::new();
        for (i, update) in trained {
            if fabric.send_up(selected[i], update.wire_bytes).is_ok() {
                agg.push(update.values, update.num_examples);
            }
        }
        let completed = agg.len();
        if let Some((selected_c, updates_c, _)) = &fed_counters {
            selected_c.add(selected.len() as u64);
            updates_c.add(completed as u64);
        }

        let needed = fabric.quorum_min(selected.len());
        if completed < needed {
            consecutive_quorum_misses += 1;
            if let Some((_, _, misses)) = &fed_counters {
                misses.inc();
            }
            if consecutive_quorum_misses >= fabric.config().max_failed_rounds {
                return Err(NetError::QuorumUnreachable { round, needed, got: completed });
            }
            fabric.end_round();
            continue;
        }
        consecutive_quorum_misses = 0;
        if let Some(avg) = agg.mean() {
            params = avg;
        }
        fabric.end_round();

        if evaluate(round, &params, fabric.metrics().ledger().total_bytes(), completed) {
            break;
        }
    }
    Ok(params)
}

/// How cohort traffic reaches the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Every client talks to the server directly.
    Flat,
    /// Clients upload to one of `edges` edge aggregators (assigned by
    /// stable id hash); each edge pre-aggregates its members and forwards
    /// a single model-sized payload over the `backhaul` link. An edge
    /// whose backhaul round fails loses all its members' updates.
    TwoLevel {
        /// Number of edge aggregators.
        edges: usize,
        /// The edge↔server link profile.
        backhaul: NetworkProfile,
    },
}

/// Parameters of a population-scale simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Federation rounds to run.
    pub rounds: usize,
    /// Virtual seconds between round starts (a round that overruns this
    /// delays the next round's start — rounds never overlap).
    pub round_interval_s: f64,
    /// Per-round deadline: transfers and local compute beyond this are
    /// cut off.
    pub deadline_s: f64,
    /// Cohort sampling policy.
    pub cohort: CohortSpec,
    /// Fault plan, applied per stable client id.
    pub faults: FaultPlan,
    /// Retry policy for every link.
    pub retry: RetryPolicy,
    /// Base packet-loss probability of every link.
    pub loss_prob: f64,
    /// Jitter fraction of every link.
    pub jitter_frac: f64,
    /// Fraction of the cohort that must deliver for the round to count.
    pub quorum_fraction: f64,
    /// Consecutive quorum misses tolerated before giving up.
    pub max_failed_rounds: usize,
    /// Unread by the engine, which keeps one accumulator per training
    /// worker. It stays only because `benchmark/src/probes.rs` sizes its
    /// aggregator probe from it and no PR but a benchmark one may edit
    /// that file (ROADMAP 1(i)).
    pub shards: usize,
    /// Local-training cost model: multiply–accumulates per example per
    /// round, divided by the device's `macs_per_sec` and charged against
    /// the round deadline.
    pub macs_per_example: f64,
    /// Flat or two-level edge aggregation.
    pub topology: Topology,
    /// Master seed for cohort, fault, link and training draws.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            rounds: 5,
            round_interval_s: 60.0,
            deadline_s: 30.0,
            cohort: CohortSpec::fraction(0.1),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            loss_prob: 0.0,
            jitter_frac: 0.0,
            quorum_fraction: 0.5,
            max_failed_rounds: 5,
            shards: 4,
            macs_per_example: 1.0e6,
            topology: Topology::Flat,
            seed: 0,
        }
    }
}

/// Failure modes of a population run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Too many consecutive rounds failed to deliver a quorum.
    QuorumUnreachable {
        /// Round that exhausted the tolerance.
        round: usize,
        /// Updates the quorum required.
        needed: usize,
        /// Updates that actually arrived.
        got: usize,
    },
    /// The population has no clients.
    EmptyPopulation,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QuorumUnreachable { round, needed, got } => {
                write!(f, "quorum unreachable at round {round}: needed {needed}, got {got}")
            }
            Self::EmptyPopulation => write!(f, "population has no clients"),
        }
    }
}

impl std::error::Error for SimError {}

/// The model-specific half of a population simulation: the engine knows
/// *when* and *whether* a client trains, the trainer knows *what* that
/// means. Runs on the round's worker threads, so it must be `Sync` and
/// must derive everything from `(client, seed, global)`.
pub trait ClientTrainer: Sync {
    /// Local dataset size of `client` — the FedAvg weight `n_k`, also
    /// used to price the client's compute time against the deadline.
    fn num_examples(&self, client: u64) -> u64;
    /// Runs local training and returns the updated parameter vector.
    fn train(&self, client: u64, seed: u64, global: &[f32]) -> Vec<f32>;
}

impl<N, F> ClientTrainer for (N, F)
where
    N: Fn(u64) -> u64 + Sync,
    F: Fn(u64, u64, &[f32]) -> Vec<f32> + Sync,
{
    fn num_examples(&self, client: u64) -> u64 {
        (self.0)(client)
    }
    fn train(&self, client: u64, seed: u64, global: &[f32]) -> Vec<f32> {
        (self.1)(client, seed, global)
    }
}

/// One round of a population run, as observed by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Round index (1-based).
    pub round: usize,
    /// Clients eligible at round start.
    pub eligible: usize,
    /// Clients selected into the cohort.
    pub cohort: usize,
    /// Updates that reached the server and were averaged (one of the
    /// wrong length is dropped on arrival and counts nowhere).
    pub delivered: usize,
    /// Whether the quorum was met (the global model advanced).
    pub quorum_met: bool,
    /// Simulated duration of the round (slowest participant, capped by
    /// the deadline).
    pub round_s: f64,
}

/// Result of a population run.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationReport {
    /// Per-round outcomes in order.
    pub rounds: Vec<RoundOutcome>,
    /// Final global parameters.
    pub final_params: Vec<f32>,
    /// Transport totals across every link the run touched.
    pub transport: TransportMetrics,
    /// Final virtual time in seconds.
    pub sim_clock_s: f64,
    /// Discrete events processed.
    pub events: u64,
}

#[derive(Debug)]
enum Event {
    RoundStart(usize),
    Arrival,
    RoundEnd(usize),
}

struct SimCounters {
    events: Counter,
    arrivals: Counter,
    eligible: Counter,
    selected: Counter,
    updates: Counter,
    quorum_misses: Counter,
    bytes_up: Counter,
    bytes_down: Counter,
    wasted_bytes: Counter,
}

impl SimCounters {
    fn new(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            events: r.counter("sim.events"),
            arrivals: r.counter("sim.arrivals"),
            eligible: r.counter("fed.eligible"),
            selected: r.counter("fed.selected"),
            updates: r.counter("fed.updates"),
            quorum_misses: r.counter("fed.quorum_misses"),
            bytes_up: r.counter("sim.bytes_up"),
            bytes_down: r.counter("sim.bytes_down"),
            wasted_bytes: r.counter("sim.wasted_bytes"),
        }
    }
}

fn quorum_min(fraction: f64, selected: usize) -> usize {
    if fraction <= 0.0 || selected == 0 {
        return 0;
    }
    ((selected as f64 * fraction).ceil() as usize).clamp(1, selected)
}

fn ns(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9).round() as u64
}

/// What one round leaves pending until its `RoundEnd` event fires.
struct PendingRound {
    start_ns: u64,
    eligible: usize,
    cohort: usize,
    delivered: usize,
    agg: ShardedAggregator,
    round_transport: TransportMetrics,
}

/// Runs a population-scale federated simulation.
///
/// Per round: advance the population to the round's virtual start time,
/// gate eligibility, sample the cohort, simulate each selected client's
/// download → local compute → upload over its own faulty link, then
/// train the survivors on one worker per core (seeds pre-drawn from
/// `(seed, round, id)`), each worker streaming its clients' updates into
/// its own fixed-point aggregator; the partial sums are merged with
/// integer adds, so the mean does not depend on how many workers there
/// were or who trained whom. Arrivals and round boundaries are discrete
/// events on a virtual-time queue that drives `obs`'s sim clock.
///
/// # Errors
///
/// [`SimError::QuorumUnreachable`] after `max_failed_rounds` consecutive
/// quorum misses; [`SimError::EmptyPopulation`] for a zero-client
/// population.
pub fn run_population<T: ClientTrainer>(
    cfg: &SimConfig,
    population: &mut Population,
    initial_params: Vec<f32>,
    trainer: &T,
    obs: Option<&Obs>,
) -> Result<PopulationReport, SimError> {
    run_population_on(host_workers(), cfg, population, initial_params, trainer, obs)
}

/// [`run_population`] with the round's worker count chosen by the caller.
fn run_population_on<T: ClientTrainer>(
    workers: usize,
    cfg: &SimConfig,
    population: &mut Population,
    initial_params: Vec<f32>,
    trainer: &T,
    obs: Option<&Obs>,
) -> Result<PopulationReport, SimError> {
    if population.is_empty() {
        return Err(SimError::EmptyPopulation);
    }
    let dim = initial_params.len();
    let param_bytes = 4 * dim as u64 + 8;
    let counters = obs.map(SimCounters::new);
    let run_span = obs.map(|o| o.root_span("sim.run"));

    let mut params = initial_params;
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut transport = TransportMetrics::new();
    let mut consecutive_misses = 0usize;

    let mut queue: EventQueue<Event> = EventQueue::new();
    queue.push(0, Event::RoundStart(1));
    let mut clock_ns = 0u64;
    let mut pending: Option<PendingRound> = None;
    let mut round_span: Option<Span> = None;

    while let Some((at, event)) = queue.pop() {
        if let Some(o) = obs {
            o.clock().advance_ns(at - clock_ns);
        }
        clock_ns = at;
        if let Some(c) = &counters {
            c.events.inc();
        }
        match event {
            Event::RoundStart(round) => {
                round_span = run_span.as_ref().map(|s| s.child("fed.round"));

                let eligible = population.eligible_at(at);
                let cohort = sample_cohort(&eligible, &cfg.cohort, cfg.seed, round);
                if let Some(c) = &counters {
                    c.eligible.add(eligible.len() as u64);
                    c.selected.add(cohort.len() as u64);
                }

                // simulate transport + compute for every cohort member
                // over its own keyed link; training is deferred until we
                // know whose upload actually landed
                let mut round_transport = TransportMetrics::new();
                let mut slowest_s = 0.0f64;
                let mut delivered: Vec<(u64, f64)> = Vec::new();
                for &id in &cohort {
                    let class = population.class_of(id);
                    let fate = cfg.faults.fate_keyed(cfg.seed, round, id);
                    let link_cfg = LinkConfig {
                        profile: class.network.clone(),
                        loss_prob: cfg.loss_prob,
                        jitter_frac: cfg.jitter_frac,
                    };
                    let mut link =
                        Link::new(link_cfg, keyed_hash(cfg.seed ^ LINK_DOMAIN, round as u64, id));
                    link.begin_round(fate, cfg.deadline_s);
                    let macs_per_sec = class.device.macs_per_sec;
                    let ok = link.send(param_bytes, Direction::Down, &cfg.retry).is_ok()
                        && link.charge_time(if macs_per_sec > 0.0 {
                            cfg.macs_per_example * trainer.num_examples(id) as f64 / macs_per_sec
                        } else {
                            0.0
                        })
                        && link.send(param_bytes, Direction::Up, &cfg.retry).is_ok();
                    round_transport.merge(link.metrics());
                    slowest_s = slowest_s.max(link.round_elapsed_s());
                    if ok {
                        delivered.push((id, link.round_elapsed_s()));
                    }
                }

                // two-level: members upload to their edge; each edge
                // forwards one pre-aggregated payload over the backhaul
                if let Topology::TwoLevel { edges, backhaul } = &cfg.topology {
                    let edges = (*edges).max(1);
                    let mut grouped: Vec<Vec<(u64, f64)>> = vec![Vec::new(); edges];
                    for (id, elapsed) in delivered.drain(..) {
                        let e = (keyed_hash(cfg.seed ^ EDGE_DOMAIN, 0, id) % edges as u64) as usize;
                        grouped[e].push((id, elapsed));
                    }
                    for (e, members) in grouped.into_iter().enumerate() {
                        if members.is_empty() {
                            continue;
                        }
                        let ready_s = members.iter().fold(0.0f64, |acc, &(_, t)| acc.max(t));
                        let link_cfg = LinkConfig {
                            profile: backhaul.clone(),
                            loss_prob: cfg.loss_prob,
                            jitter_frac: cfg.jitter_frac,
                        };
                        let mut link = Link::new(
                            link_cfg,
                            keyed_hash(cfg.seed ^ EDGE_LINK_DOMAIN, round as u64, e as u64),
                        );
                        link.begin_round(mdl_net::RoundFate::healthy(), cfg.deadline_s);
                        let ok = link.send(param_bytes, Direction::Down, &cfg.retry).is_ok()
                            && link.charge_time(ready_s)
                            && link.send(param_bytes, Direction::Up, &cfg.retry).is_ok();
                        round_transport.merge(link.metrics());
                        slowest_s = slowest_s.max(link.round_elapsed_s());
                        if ok {
                            let edge_done = link.round_elapsed_s();
                            delivered.extend(members.into_iter().map(|(id, _)| (id, edge_done)));
                        }
                    }
                    delivered.sort_unstable_by_key(|&(id, _)| id);
                }

                // local training for the survivors only, seeds pre-drawn;
                // the fixed-point sums make the merged mean the same for
                // any split of the survivors over the workers
                let agg = for_each_claimed(
                    workers,
                    delivered.iter(),
                    || ShardedAggregator::new(dim, 1),
                    |&(id, _), agg| {
                        let seed = keyed_hash(cfg.seed ^ TRAIN_DOMAIN, round as u64, id);
                        let values = trainer.train(id, seed, &params);
                        agg.accumulate(0, &values, trainer.num_examples(id));
                    },
                    |mut agg, partial| {
                        agg.merge(&partial);
                        agg
                    },
                );
                // an update of the wrong length was dropped, not averaged
                let accepted = agg.updates() as usize;
                if let Some(c) = &counters {
                    c.updates.add(accepted as u64);
                }

                for &(_, elapsed_s) in &delivered {
                    queue.push(at + ns(elapsed_s), Event::Arrival);
                }
                queue.push(at + ns(slowest_s), Event::RoundEnd(round));
                pending = Some(PendingRound {
                    start_ns: at,
                    eligible: eligible.len(),
                    cohort: cohort.len(),
                    delivered: accepted,
                    agg,
                    round_transport,
                });
            }
            Event::Arrival => {
                if let Some(c) = &counters {
                    c.arrivals.inc();
                }
            }
            Event::RoundEnd(round) => {
                let p = pending.take().expect("RoundEnd without a pending round");
                transport.merge(&p.round_transport);
                transport.rounds += 1;
                if let Some(c) = &counters {
                    c.bytes_up.add(p.round_transport.bytes_up);
                    c.bytes_down.add(p.round_transport.bytes_down);
                    c.wasted_bytes.add(p.round_transport.wasted_bytes);
                }
                let needed = quorum_min(cfg.quorum_fraction, p.cohort);
                let quorum_met = p.delivered >= needed;
                if quorum_met {
                    consecutive_misses = 0;
                    if let Some(mean) = p.agg.mean() {
                        params = mean;
                    }
                } else {
                    consecutive_misses += 1;
                    if let Some(c) = &counters {
                        c.quorum_misses.inc();
                    }
                }
                rounds.push(RoundOutcome {
                    round,
                    eligible: p.eligible,
                    cohort: p.cohort,
                    delivered: p.delivered,
                    quorum_met,
                    round_s: (at - p.start_ns) as f64 / 1e9,
                });
                if let Some(s) = round_span.take() {
                    s.exit();
                }
                if !quorum_met && consecutive_misses >= cfg.max_failed_rounds.max(1) {
                    return Err(SimError::QuorumUnreachable { round, needed, got: p.delivered });
                }
                if round < cfg.rounds {
                    let next = (p.start_ns + ns(cfg.round_interval_s)).max(at);
                    queue.push(next, Event::RoundStart(round + 1));
                }
            }
        }
    }

    let sim_clock_s = clock_ns as f64 / 1e9;
    transport.sim_clock_s = sim_clock_s;
    if let Some(s) = run_span {
        s.exit();
    }
    Ok(PopulationReport {
        rounds,
        final_params: params,
        transport,
        sim_clock_s,
        events: queue.events_processed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationSpec;

    /// A trivial deterministic "trainer": nudges every parameter by a
    /// client- and seed-dependent amount.
    fn toy_trainer() -> impl ClientTrainer {
        (
            |client: u64| 10 + client % 5,
            |client: u64, seed: u64, global: &[f32]| {
                global
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| {
                        g + ((client as f32 + i as f32).sin() + (seed % 97) as f32 / 970.0) * 0.01
                    })
                    .collect()
            },
        )
    }

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig {
            rounds: 3,
            cohort: CohortSpec { fraction: 0.2, min_size: 4, max_size: 64 },
            faults: FaultPlan::lossy_cohort(),
            loss_prob: 0.05,
            jitter_frac: 0.1,
            seed,
            ..SimConfig::default()
        }
    }

    #[test]
    fn population_run_is_bit_reproducible() {
        let run = || {
            let mut pop = Population::new(PopulationSpec::mobile_mix(500, 77));
            let obs = Obs::sim();
            let report =
                run_population(&small_cfg(5), &mut pop, vec![0.5; 16], &toy_trainer(), Some(&obs))
                    .expect("quorum reachable");
            (report, obs.snapshot().to_json())
        };
        let (a, snap_a) = run();
        let (b, snap_b) = run();
        assert_eq!(a, b, "reports must be bit-identical");
        assert_eq!(snap_a, snap_b, "obs snapshots must be bit-identical");
        assert_eq!(a.rounds.len(), 3);
        assert!(a.transport.bytes_up > 0 && a.transport.bytes_down > 0);
        assert!(a.sim_clock_s > 0.0);
        assert!(a.events >= 3 * 2, "at least start+end per round");
    }

    #[test]
    fn worker_count_never_changes_results() {
        let run = |workers: usize| {
            let mut pop = Population::new(PopulationSpec::mobile_mix(3000, 3));
            run_population_on(workers, &small_cfg(9), &mut pop, vec![0.1; 8], &toy_trainer(), None)
                .unwrap()
        };
        let alone = run(1);
        assert!(
            alone.rounds.iter().all(|r| r.delivered > 7),
            "survivors to share: {:?}",
            alone.rounds
        );
        for workers in [2, 7, 32] {
            assert_eq!(alone, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn a_rejected_update_is_not_counted_as_delivered() {
        // 20 always-on Wi-Fi clients, all selected, no faults: every
        // upload lands, and client 7's is one value short
        const BAD: u64 = 7;
        let trainer = (
            |client: u64| 10 + client,
            |client: u64, _seed: u64, global: &[f32]| {
                let keep = if client == BAD { global.len() - 1 } else { global.len() };
                global[..keep].iter().map(|g| g + client as f32).collect::<Vec<f32>>()
            },
        );
        let run = |quorum_fraction: f64| {
            let mut pop =
                Population::new(PopulationSpec::always_eligible(20, NetworkProfile::wifi(), 1));
            let cfg = SimConfig {
                rounds: 1,
                cohort: CohortSpec::fraction(1.0),
                quorum_fraction,
                max_failed_rounds: 1,
                ..SimConfig::default()
            };
            let obs = Obs::sim();
            let result = run_population(&cfg, &mut pop, vec![0.0; 4], &trainer, Some(&obs));
            (result, obs.snapshot())
        };

        // 19 of 20 meets a 19-update quorum, and the mean is of those 19
        let (report, snap) = run(0.95);
        let report = report.expect("19 of 20 is a 95% quorum");
        assert_eq!((report.rounds[0].cohort, report.rounds[0].delivered), (20, 19));
        assert!(report.rounds[0].quorum_met);
        assert_eq!(snap.counter("fed.updates"), Some(19));
        assert_eq!(snap.counter("sim.arrivals"), Some(20), "the upload itself arrived");
        let mut good = ShardedAggregator::new(4, 1);
        for client in (0..20u64).filter(|&c| c != BAD) {
            good.accumulate(0, &[client as f32; 4], 10 + client);
        }
        assert_eq!(Some(report.final_params), good.mean());

        // and misses a 20-update one, though 20 uploads arrived
        let (result, snap) = run(1.0);
        assert_eq!(
            result.unwrap_err(),
            SimError::QuorumUnreachable { round: 1, needed: 20, got: 19 }
        );
        assert_eq!(snap.counter("fed.updates"), Some(19));
        assert_eq!(snap.counter("fed.quorum_misses"), Some(1));
    }

    #[test]
    fn two_level_topology_delivers_and_accounts_backhaul() {
        let mut pop = Population::new(PopulationSpec::mobile_mix(400, 21));
        let flat = run_population(
            &small_cfg(13),
            &mut Population::new(PopulationSpec::mobile_mix(400, 21)),
            vec![0.2; 8],
            &toy_trainer(),
            None,
        )
        .unwrap();
        let cfg = SimConfig {
            topology: Topology::TwoLevel { edges: 4, backhaul: NetworkProfile::wifi() },
            ..small_cfg(13)
        };
        let two = run_population(&cfg, &mut pop, vec![0.2; 8], &toy_trainer(), None).unwrap();
        assert!(two.rounds.iter().any(|r| r.delivered > 0), "edges deliver updates");
        assert!(
            two.transport.messages_up > flat.transport.messages_up,
            "backhaul hops add uplink messages: {} vs {}",
            two.transport.messages_up,
            flat.transport.messages_up
        );
    }

    #[test]
    fn unreachable_quorum_is_a_typed_error() {
        let mut pop = Population::new(PopulationSpec::mobile_mix(200, 8));
        let cfg = SimConfig {
            faults: FaultPlan { dropout_prob: 1.0, ..FaultPlan::none() },
            quorum_fraction: 0.5,
            max_failed_rounds: 3,
            rounds: 50,
            ..small_cfg(2)
        };
        let err = run_population(&cfg, &mut pop, vec![0.0; 4], &toy_trainer(), None).unwrap_err();
        match err {
            SimError::QuorumUnreachable { round, needed, got } => {
                assert_eq!(round, 3, "gives up after max_failed_rounds misses");
                assert!(needed >= 1);
                assert_eq!(got, 0);
            }
            other => panic!("expected QuorumUnreachable, got {other:?}"),
        }
        assert!(
            run_population(
                &SimConfig::default(),
                &mut Population::new(PopulationSpec::mobile_mix(0, 1)),
                vec![0.0; 4],
                &toy_trainer(),
                None,
            )
            .is_err(),
            "empty population is a typed error"
        );
    }

    #[test]
    fn obs_counters_and_clock_track_the_run() {
        let mut pop = Population::new(PopulationSpec::mobile_mix(500, 77));
        let obs = Obs::sim();
        let report =
            run_population(&small_cfg(5), &mut pop, vec![0.5; 16], &toy_trainer(), Some(&obs))
                .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("sim.events"), Some(report.events));
        let delivered: u64 = report.rounds.iter().map(|r| r.delivered as u64).sum();
        assert_eq!(snap.counter("fed.updates"), Some(delivered));
        assert_eq!(snap.counter("sim.arrivals"), Some(delivered));
        let selected: u64 = report.rounds.iter().map(|r| r.cohort as u64).sum();
        assert_eq!(snap.counter("fed.selected"), Some(selected));
        assert_eq!(snap.counter("sim.bytes_up"), Some(report.transport.bytes_up));
        assert_eq!(snap.now_ns as f64 / 1e9, report.sim_clock_s);
        // one sim.run root holding one fed.round child per round
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "sim.run");
        assert_eq!(snap.spans[0].children.len(), report.rounds.len());
    }
}
