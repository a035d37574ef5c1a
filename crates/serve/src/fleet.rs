//! Sharded multi-replica serving fleet with SLO-classed admission and work
//! stealing — in virtual time.
//!
//! The threaded [`crate::server`] answers real requests on real threads,
//! which makes its latencies honest and its schedules unrepeatable. This
//! module is the other half of the story: a **deterministic, event-driven
//! fleet engine** under a virtual nanosecond clock
//! ([`mdl_sim::EventQueue`]), so scheduling can be property-tested and
//! reproduced bit-for-bit.
//!
//! **Shared with the server, literally:** each replica's waiting work is a
//! `crate::sched::Backlog` and a free worker forms its batch with
//! `Backlog::take_batch` — the highest waiting class, FIFO within it, at
//! most `max_batch` rows, classes never mixed — and every worker's plan
//! cache has the server's capacity. **Fleet-only:** the front-door budget
//! below, sharding (`index % replicas`) and stealing (an idle worker whose
//! replica is empty picks from the deepest one). Admission stays two on
//! purpose: a single server sheds on its own depth at submit, which depends
//! on how fast its workers drain; the fleet's budget may depend on nothing
//! but the offered schedule, or the digest below could not be invariant.
//!
//! # Determinism contract
//!
//! For a fixed offered stream (see [`crate::loadgen::request_stream`])
//! and config:
//!
//! * **Admission is a pure function of the schedule.** Arrivals are
//!   grouped into fixed windows of `admit_window_ns`; at each window
//!   close they are ordered by `(class, arrival index)` and the first
//!   `admit_budget` admitted, the rest shed. The budget comes from
//!   config — never from replica capacity — so per-class
//!   admitted/served/shed counters are **bit-identical for any replica
//!   count, worker count and `MDL_THREADS` value**.
//! * **Answers are schedule-independent.** Kernel results are
//!   bit-identical per row regardless of batch composition (the repo's
//!   standing guarantee), so every response's argmax is the same whichever
//!   batch a request rode in and whether its own replica or a stealing
//!   neighbour ran it.
//! * Only **latencies** (and batch shapes, steal counts) legitimately
//!   depend on fleet size — that is the dimension the capacity knobs are
//!   for, and the one the 10k-rps experiment reports.
//!
//! Shedding happens at window close, before any replica sees the
//! request: a shed `BestEffort` request costs the fleet nothing but the
//! admission sort, which is how 10k offered rps stays survivable.

use crate::loadgen::RequestRecord;
use crate::sched::Backlog;
use crate::server::PLAN_CACHE_CAP;
use crate::slo::SloClass;
use mdl_nn::{PlanCache, PlanLookup, PlanModel, Sequential};
use mdl_obs::{Buckets, Obs};
use mdl_sim::EventQueue;
use mdl_tensor::stats::nearest_rank;
use mdl_tensor::Matrix;
use std::collections::BTreeMap;

/// Configuration for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replica pools the model is sharded across (requests hash to
    /// `index % replicas`). Must be ≥ 1.
    pub replicas: usize,
    /// Workers per replica pool. Must be ≥ 1.
    pub workers_per_replica: usize,
    /// Maximum rows per dispatched batch.
    pub max_batch: usize,
    /// Admission window length in virtual nanoseconds.
    pub admit_window_ns: u64,
    /// Requests admitted per window, in class order; the rest shed.
    /// Deliberately a config knob rather than a capacity estimate — see
    /// the module-level determinism contract.
    pub admit_budget: usize,
    /// Virtual device throughput in multiply-accumulates per second.
    /// The default models a cloud server's *sustained* serving rate
    /// (framework overhead included), calibrated so virtual batch
    /// service times land in the same regime the threaded server
    /// measures on this hardware (~5 ms for a batch of 8 on the 9.6M-MAC
    /// experiment model).
    pub macs_per_sec: f64,
    /// Fixed per-batch dispatch overhead in virtual nanoseconds.
    pub dispatch_overhead_ns: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            workers_per_replica: 2,
            max_batch: 8,
            admit_window_ns: 1_000_000, // 1 ms
            admit_budget: 16,
            macs_per_sec: 2.0e10,
            dispatch_overhead_ns: 50_000,
        }
    }
}

/// What happened to one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Index in the offered stream.
    pub index: u32,
    /// SLO class the request arrived with.
    pub class: SloClass,
    /// Whether the request was admitted and served (vs shed).
    pub served: bool,
    /// Virtual latency: completion (or shed decision) minus arrival.
    pub latency_ns: u64,
    /// Argmax of the model output for served requests, `None` for shed.
    pub argmax: Option<usize>,
    /// Replica whose worker ran the batch, `None` for shed.
    pub replica: Option<usize>,
    /// Rows in the batch this request was served in (0 for shed).
    pub batch_rows: usize,
}

/// Per-class counters and latency samples.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Requests offered with this class.
    pub offered: usize,
    /// Requests admitted and served.
    pub served: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Virtual latencies of served requests, sorted ascending.
    pub latency_ns: Vec<u64>,
    /// Virtual latencies of shed requests (arrival → shed decision),
    /// sorted ascending.
    pub shed_latency_ns: Vec<u64>,
}

impl ClassStats {
    /// Exact `p`-th percentile of the served latencies (`0 < p <= 100`),
    /// in virtual nanoseconds; 0 when nothing was served.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        nearest_rank(&self.latency_ns, p / 100.0).unwrap_or(0)
    }
}

/// Everything a fleet run produced.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// One outcome per offered request, ordered by stream index.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-class stats, indexed by [`SloClass::rank`].
    pub classes: [ClassStats; SloClass::COUNT],
    /// Virtual time of the last event.
    pub virtual_elapsed_ns: u64,
    /// Batches dispatched by a worker whose own replica queue was empty.
    pub steals: u64,
    /// Total batches dispatched.
    pub batches: u64,
    /// Mean rows per dispatched batch.
    pub mean_batch_rows: f64,
    /// Plan-cache hits across all workers.
    pub plan_hits: u64,
    /// Plan-cache misses (fresh compiles).
    pub plan_misses: u64,
}

impl FleetReport {
    /// Stats for one class.
    pub fn class(&self, class: SloClass) -> &ClassStats {
        &self.classes[class.rank()]
    }

    /// FNV-1a digest over the **schedule-invariant** results: per-class
    /// counters plus every request's `(index, class, served, argmax)`.
    /// Latencies, steal counts and batch shapes are deliberately
    /// excluded — they vary with fleet size; this digest must not.
    pub fn result_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in &self.classes {
            eat(c.offered as u64);
            eat(c.served as u64);
            eat(c.shed as u64);
        }
        for o in &self.outcomes {
            eat(o.index as u64);
            eat(o.class.rank() as u64);
            eat(o.served as u64);
            eat(o.argmax.map_or(u64::MAX, |a| a as u64));
        }
        h
    }

    /// Exports the run into an observability registry under the same
    /// `serve.class.*` names the threaded server records, plus
    /// `serve.fleet.*` scheduler counters, so fleet experiments and real
    /// serving share one dashboard vocabulary.
    pub fn export(&self, obs: &Obs) {
        let r = obs.registry();
        for class in SloClass::ALL {
            let stats = self.class(class);
            r.counter(class.completed_metric()).add(stats.served as u64);
            r.counter(class.shed_metric()).add(stats.shed as u64);
            let hist = r.histogram(class.latency_metric(), Buckets::Pow2);
            for &ns in &stats.latency_ns {
                hist.record(ns / 1_000);
            }
        }
        r.counter("serve.fleet.batches").add(self.batches);
        r.counter("serve.fleet.steals").add(self.steals);
        r.counter("serve.fleet.plan_hits").add(self.plan_hits);
        r.counter("serve.fleet.plan_misses").add(self.plan_misses);
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// An admission window closed.
    Close,
    /// Worker `worker` of replica `replica` finished its batch.
    Done { replica: usize, worker: usize },
}

struct InFlight {
    indices: Vec<u32>,
    argmaxes: Vec<usize>,
}

/// Everything one [`FleetEngine::run`] mutates.
struct Run<'s> {
    stream: &'s [RequestRecord],
    events: EventQueue<Ev>,
    /// Admitted request indices waiting at each replica.
    replicas: Vec<Backlog<u32>>,
    /// The batch each worker slot is running, if any.
    in_flight: Vec<Option<InFlight>>,
    plan_caches: Vec<PlanCache>,
    batch_x: Matrix,
    batch_out: Matrix,
    report: FleetReport,
    batch_rows_sum: u64,
}

/// The deterministic virtual-time fleet engine. See the module docs.
pub struct FleetEngine<'a> {
    model: &'a Sequential,
    inputs: &'a Matrix,
    config: FleetConfig,
    macs_per_row: u64,
}

impl<'a> FleetEngine<'a> {
    /// Builds an engine serving `model` with input rows drawn from
    /// `inputs` (requests index into it via [`RequestRecord::row`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has no rows or the config has zero replicas or
    /// workers.
    pub fn new(model: &'a Sequential, inputs: &'a Matrix, config: FleetConfig) -> Self {
        assert!(inputs.rows() > 0, "need at least one input row");
        assert!(config.replicas >= 1, "need at least one replica");
        assert!(config.workers_per_replica >= 1, "need at least one worker per replica");
        let macs_per_row = model.total_macs();
        Self { model, inputs, config, macs_per_row }
    }

    fn service_ns(&self, rows: usize) -> u64 {
        let macs = self.macs_per_row.saturating_mul(rows as u64) as f64;
        self.config.dispatch_overhead_ns + (macs / self.config.macs_per_sec.max(1.0) * 1e9) as u64
    }

    /// Runs the offered `stream` to completion and reports what
    /// happened. Pure: same stream + same config ⇒ same report (up to
    /// the schedule-invariant digest, same for *any* fleet size).
    pub fn run(&self, stream: &[RequestRecord]) -> FleetReport {
        let cfg = &self.config;

        // ---- group arrivals into admission windows --------------------
        let window = cfg.admit_window_ns.max(1);
        let mut windows: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for rec in stream {
            windows.entry(rec.arrival_ns / window).or_default().push(rec.index);
        }

        // Window closes are seeded first, so at an exact tie admission
        // precedes completion (the queue is FIFO at equal times) — fixed,
        // documented, and irrelevant to the invariant counters either way.
        let mut events = EventQueue::new();
        for &w in windows.keys() {
            events.push((w + 1) * window, Ev::Close);
        }

        let workers = cfg.replicas * cfg.workers_per_replica;
        let mut run = Run {
            stream,
            events,
            replicas: (0..cfg.replicas).map(|_| Backlog::default()).collect(),
            in_flight: (0..workers).map(|_| None).collect(),
            plan_caches: (0..workers).map(|_| PlanCache::new(PLAN_CACHE_CAP)).collect(),
            batch_x: Matrix::default(),
            batch_out: Matrix::default(),
            report: FleetReport::default(),
            batch_rows_sum: 0,
        };
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; stream.len()];
        for rec in stream {
            run.report.classes[rec.class.rank()].offered += 1;
        }
        let mut window_iter = windows.into_values();

        // ---- event loop ----------------------------------------------
        while let Some((now, ev)) = run.events.pop() {
            match ev {
                Ev::Close => {
                    let mut arrivals = window_iter.next().expect("one close per window");
                    // class-ordered admission: sort by (class, index) and
                    // admit the first `admit_budget`
                    arrivals.sort_unstable_by_key(|&i| {
                        (stream[i as usize].class, stream[i as usize].index)
                    });
                    for (pos, &idx) in arrivals.iter().enumerate() {
                        let rec = &stream[idx as usize];
                        if pos < cfg.admit_budget {
                            let r = rec.index as usize % cfg.replicas;
                            run.replicas[r].push(rec.class, rec.index);
                        } else {
                            let latency_ns = now.saturating_sub(rec.arrival_ns);
                            let s = &mut run.report.classes[rec.class.rank()];
                            s.shed += 1;
                            s.shed_latency_ns.push(latency_ns);
                            outcomes[idx as usize] = Some(RequestOutcome {
                                index: rec.index,
                                class: rec.class,
                                served: false,
                                latency_ns,
                                argmax: None,
                                replica: None,
                                batch_rows: 0,
                            });
                        }
                    }
                    // wake every idle worker in fixed order
                    for w in 0..workers {
                        if run.in_flight[w].is_none() {
                            self.try_dispatch(&mut run, w);
                        }
                    }
                }
                Ev::Done { replica, worker } => {
                    let w = replica * cfg.workers_per_replica + worker;
                    let flight = run.in_flight[w].take().expect("done without a batch");
                    let rows = flight.indices.len();
                    for (&idx, &am) in flight.indices.iter().zip(&flight.argmaxes) {
                        let rec = &stream[idx as usize];
                        let latency_ns = now.saturating_sub(rec.arrival_ns);
                        let s = &mut run.report.classes[rec.class.rank()];
                        s.served += 1;
                        s.latency_ns.push(latency_ns);
                        outcomes[idx as usize] = Some(RequestOutcome {
                            index: rec.index,
                            class: rec.class,
                            served: true,
                            latency_ns,
                            argmax: Some(am),
                            replica: Some(replica),
                            batch_rows: rows,
                        });
                    }
                    self.try_dispatch(&mut run, w);
                }
            }
        }

        let Run { events, mut report, batch_rows_sum, .. } = run;
        report.virtual_elapsed_ns = events.now_ns();
        for c in &mut report.classes {
            c.latency_ns.sort_unstable();
            c.shed_latency_ns.sort_unstable();
        }
        report.outcomes =
            outcomes.into_iter().map(|o| o.expect("every offered request resolves")).collect();
        report.mean_batch_rows =
            if report.batches == 0 { 0.0 } else { batch_rows_sum as f64 / report.batches as f64 };
        report
    }

    /// Picks and runs one batch for worker slot `w` if any work exists.
    fn try_dispatch(&self, run: &mut Run<'_>, w: usize) {
        let cfg = &self.config;
        let home = w / cfg.workers_per_replica;
        let worker = w % cfg.workers_per_replica;

        // source: own replica, else steal from the deepest backlog
        // (tie: lowest replica index) — the pick rule takes from the head
        // of the victim's highest class, so stealing never inverts class order.
        let (source, stolen) = if run.replicas[home].len() > 0 {
            (home, false)
        } else {
            let victim = (0..run.replicas.len())
                .filter(|&r| run.replicas[r].len() > 0)
                .max_by_key(|&r| (run.replicas[r].len(), std::cmp::Reverse(r)));
            match victim {
                Some(v) => (v, true),
                None => return,
            }
        };
        // every request has the one input width and enters at layer 0
        let indices = run.replicas[source].take_batch(cfg.max_batch.max(1), |_| ());

        // run the batch now (results are completion-time-independent);
        // deliver at the virtual completion time
        run.batch_x.resize_to(indices.len(), self.inputs.cols());
        for (r, &idx) in indices.iter().enumerate() {
            let row = run.stream[idx as usize].row as usize % self.inputs.rows();
            run.batch_x.row_mut(r).copy_from_slice(self.inputs.row(row));
        }
        // one model, never swapped: version 1, nothing to evict by version
        let lookup = run.plan_caches[w].run(
            1,
            PlanModel::F32(self.model),
            0,
            &run.batch_x,
            &mut run.batch_out,
            |_| true,
        );
        match lookup {
            PlanLookup::Hit => run.report.plan_hits += 1,
            PlanLookup::Compiled(_) => run.report.plan_misses += 1,
        }
        let argmaxes = run.batch_out.argmax_rows();

        run.report.batches += 1;
        run.report.steals += u64::from(stolen);
        run.batch_rows_sum += indices.len() as u64;

        let done = run.events.now_ns() + self.service_ns(indices.len());
        run.in_flight[w] = Some(InFlight { indices, argmaxes });
        run.events.push(done, Ev::Done { replica: home, worker });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::request_stream;
    use mdl_nn::{Activation, Dense, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new();
        net.push(Dense::new(8, 32, Activation::Relu, &mut rng));
        net.push(Dense::new(32, 4, Activation::Identity, &mut rng));
        net
    }

    fn inputs() -> Matrix {
        Matrix::from_fn(16, 8, |r, c| ((r * 8 + c) as f32 * 0.37).sin())
    }

    fn mix() -> Vec<SloClass> {
        vec![SloClass::Interactive, SloClass::Standard, SloClass::BestEffort, SloClass::BestEffort]
    }

    #[test]
    fn every_offered_request_resolves_exactly_once() {
        let (model, inputs) = (model(), inputs());
        let stream = request_stream(3, 4000.0, 200, &mix(), inputs.rows());
        let engine = FleetEngine::new(&model, &inputs, FleetConfig::default());
        let report = engine.run(&stream);
        assert_eq!(report.outcomes.len(), 200);
        let served: usize = report.classes.iter().map(|c| c.served).sum();
        let shed: usize = report.classes.iter().map(|c| c.shed).sum();
        assert_eq!(served + shed, 200, "no lost or duplicated requests");
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index as usize, i);
            assert_eq!(o.served, o.argmax.is_some());
        }
    }

    #[test]
    fn overload_sheds_in_reverse_class_order() {
        let (model, inputs) = (model(), inputs());
        // exactly 20 arrivals per 1 ms window (5 interactive, 5 standard,
        // 10 best-effort) against a budget of 12: every window admits all
        // interactive + standard and sheds 8 best-effort
        let classes = mix();
        let stream: Vec<RequestRecord> = (0..300u32)
            .map(|i| RequestRecord {
                index: i,
                arrival_ns: i as u64 * 50_000,
                class: classes[i as usize % classes.len()],
                row: i % inputs.rows() as u32,
            })
            .collect();
        let config = FleetConfig { admit_budget: 12, ..FleetConfig::default() };
        let report = FleetEngine::new(&model, &inputs, config).run(&stream);
        assert!(report.class(SloClass::BestEffort).shed > 0, "overload must shed");
        assert_eq!(report.class(SloClass::Interactive).shed, 0);
        assert_eq!(report.class(SloClass::Standard).shed, 0);
        // 8 of 10 best-effort shed per full window
        assert_eq!(report.class(SloClass::BestEffort).shed, 8 * 300 / 20);
    }

    #[test]
    fn digest_is_invariant_across_fleet_shapes() {
        let (model, inputs) = (model(), inputs());
        let stream = request_stream(7, 12_000.0, 300, &mix(), inputs.rows());
        let base = FleetConfig { admit_budget: 10, ..FleetConfig::default() };
        let digest =
            |cfg: FleetConfig| FleetEngine::new(&model, &inputs, cfg).run(&stream).result_digest();
        let reference = digest(base.clone());
        for replicas in [1usize, 3, 4] {
            for workers in [1usize, 2] {
                let cfg = FleetConfig { replicas, workers_per_replica: workers, ..base.clone() };
                assert_eq!(digest(cfg), reference, "replicas={replicas} workers={workers}");
            }
        }
    }

    #[test]
    fn served_argmaxes_match_the_dynamic_path() {
        let (mut model, inputs) = (model(), inputs());
        let stream = request_stream(9, 6000.0, 120, &mix(), inputs.rows());
        let report = FleetEngine::new(&model, &inputs, FleetConfig::default()).run(&stream);
        for o in report.outcomes.iter().filter(|o| o.served) {
            let row = stream[o.index as usize].row as usize % inputs.rows();
            let x = Matrix::from_rows(&[inputs.row(row)]);
            let y = model.forward(&x);
            assert_eq!(o.argmax, Some(y.argmax_rows()[0]), "request {}", o.index);
        }
    }

    #[test]
    fn work_stealing_fires_when_shards_are_imbalanced() {
        let (model, inputs) = (model(), inputs());
        // window `w` holds only indices ≡ w (mod 4), so with 4 replicas each
        // window lands whole — 24 requests, three full batches — on replica
        // `w % 4` while the other three replicas' workers have nothing
        let stream: Vec<RequestRecord> = (0..240u32)
            .map(|i| RequestRecord {
                index: i,
                arrival_ns: u64::from((i % 4) + 4 * (i / 96)) * 1_000_000 + 1,
                class: SloClass::Standard,
                row: i % inputs.rows() as u32,
            })
            .collect();
        let config = FleetConfig {
            replicas: 4,
            workers_per_replica: 1,
            admit_budget: 64,
            ..FleetConfig::default()
        };
        let report = FleetEngine::new(&model, &inputs, config).run(&stream);
        assert!(report.steals > 0, "imbalanced shards should trigger stealing");
        let served: usize = report.classes.iter().map(|c| c.served).sum();
        assert_eq!(served, 240, "stealing must not lose requests");
    }

    #[test]
    fn export_lands_class_counters_in_the_registry() {
        let (model, inputs) = (model(), inputs());
        let stream = request_stream(17, 15_000.0, 160, &mix(), inputs.rows());
        let config = FleetConfig { admit_budget: 6, ..FleetConfig::default() };
        let report = FleetEngine::new(&model, &inputs, config).run(&stream);
        let obs = Obs::sim();
        report.export(&obs);
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("serve.class.interactive.completed"),
            Some(report.class(SloClass::Interactive).served as u64)
        );
        assert_eq!(
            snap.counter("serve.class.best_effort.shed"),
            Some(report.class(SloClass::BestEffort).shed as u64)
        );
        assert_eq!(snap.counter("serve.fleet.batches"), Some(report.batches));
    }
}
