//! The three serving workloads: one `InferenceServer`, every client a
//! wearable on Wi-Fi so every request is cloud-bound and goes through
//! admission, batching, the worker pool and `Plan::run`.

use super::{LoadStats, Op, RunArgs, Workload, SLICES};
use crate::models::{
    expected_argmax, fallback, inputs, quantize, serve_config, serving_model, CLOUD, INPUT_ROWS,
};
use crate::openloop::{poisson_schedule, run_open, Outcome};
use crate::probes::ProbeOut;
use crate::quiet::KeepAwake;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crossbeam::channel::Receiver;
use mdl_serve::{InferenceResponse, InferenceServer, Route, ServeClient, SloClass};
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Which snapshot the server serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// The f32 `Sequential`.
    F32,
    /// Its `QuantizedModel::from_model` twin.
    Int8,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Poisson arrivals at `rps`, regardless of completions.
    Open {
        /// Offered requests per second.
        rps: f64,
        /// Class mix, exact over every `mix.len()` arrivals.
        mix: &'static [SloClass],
    },
    /// One driver thread keeps `outstanding` requests in flight: submit,
    /// wait on the oldest receiver, resubmit.
    Closed {
        /// Requests kept in flight.
        outstanding: usize,
    },
}

/// 20 % interactive, 30 % standard, 50 % best-effort.
pub const MIXED: &[SloClass] = &[
    SloClass::Interactive,
    SloClass::Interactive,
    SloClass::Standard,
    SloClass::Standard,
    SloClass::Standard,
    SloClass::BestEffort,
    SloClass::BestEffort,
    SloClass::BestEffort,
    SloClass::BestEffort,
    SloClass::BestEffort,
];

/// A serving workload.
pub struct Serve {
    precision: Precision,
    shape: Shape,
    /// A response later than this misses the SLO.
    limit_ms: f64,
    inputs: Matrix,
    /// The f32 model's argmax for every input row.
    expected: Vec<usize>,
}

impl Serve {
    /// Builds the workload and its answer key. The key's model is dropped
    /// before any server starts, so it never adds to `peak_rss_mb`.
    pub fn new(precision: Precision, shape: Shape, limit_ms: f64) -> Self {
        let inputs = inputs();
        let expected = expected_argmax(&inputs);
        Self { precision, shape, limit_ms, inputs, expected }
    }

    fn precision_index(&self) -> usize {
        match self.precision {
            Precision::F32 => 0,
            Precision::Int8 => 1,
        }
    }
}

/// A running server and a client handle on it.
pub struct ServeFixture {
    server: InferenceServer,
    client: ServeClient,
}

/// One request as the load loops saw it; times in ns from the load's start.
struct Sample {
    row: usize,
    class: SloClass,
    /// Due time (open loop) or submit time (closed loop).
    origin_ns: u64,
    submit_start_ns: u64,
    submit_end_ns: u64,
    received_ns: u64,
    response: Option<InferenceResponse>,
}

impl Workload for Serve {
    type Fixture = ServeFixture;

    fn setup(&self, _args: &RunArgs) -> ServeFixture {
        let mut net = serving_model();
        let server = match self.precision {
            Precision::F32 => InferenceServer::start(net, Some(fallback()), serve_config()),
            Precision::Int8 => {
                let q = quantize(&mut net);
                drop(net);
                InferenceServer::start(q, Some(fallback()), serve_config())
            }
        };
        let client = server.client();
        // the first request pays the batch-1 plan compile
        let first = client
            .submit_classed(self.inputs.row(0), CLOUD, SloClass::Standard)
            .expect("server just started")
            .recv()
            .expect("first request answered");
        assert_eq!(first.route, Route::Cloud, "a wearable on Wi-Fi must be cloud-bound");
        ServeFixture { server, client }
    }

    fn load(
        &self,
        fx: &mut ServeFixture,
        args: &RunArgs,
        tracer: &mut Tracer,
        probe: Option<&ProbeOut>,
    ) -> LoadStats {
        let epoch = Instant::now();
        let base_ns = tracer.at_ns(epoch);
        let warm_ns = (args.warm_s * 1e9) as u64;
        args.open_window(tracer, epoch + Duration::from_nanos(warm_ns));
        let samples = match self.shape {
            Shape::Open { rps, mix } => self.open(fx, args, epoch, rps, mix),
            Shape::Closed { outstanding } => self.closed(fx, args, epoch, outstanding),
        };
        let open = matches!(self.shape, Shape::Open { .. });

        let mut stats = LoadStats::default();
        let mut served = [0u64; SloClass::COUNT];
        let mut shed = [0u64; SloClass::COUNT];
        let mut offered = [0u64; SloClass::COUNT];
        let (mut agree, mut wrong, mut unanswered) = (0u64, 0u64, 0u64);
        let mut submit_us = Vec::new();
        let mut late_ms = Vec::new();
        let mut wait_ms = Vec::new();
        let mut run_ms = Vec::new();
        let mut busy_us = 0.0f64;
        let precision = self.precision_index();
        let plan_us = probe.map(|p| move |rows: usize| p.plan_run_us[rows.clamp(1, 8)][precision]);

        for (i, s) in samples.iter().enumerate() {
            let mut op = Op {
                at_s: s.origin_ns.saturating_sub(warm_ns) as f64 / 1e9,
                latency_ms: None,
                attempted: 1,
                failed: 0,
                met: 0,
                units: 0.0,
            };
            offered[s.class.rank()] += 1;
            submit_us.push((s.submit_end_ns - s.submit_start_ns) as f64 / 1e3);
            late_ms.push(s.submit_start_ns.saturating_sub(s.origin_ns) as f64 / 1e6);
            let latency_ms = s.received_ns.saturating_sub(s.origin_ns) as f64 / 1e6;

            let at = |ns: u64| base_ns + ns;
            let id = i as u64;
            let root = tracer.root("request", at(s.origin_ns), at(s.received_ns), id);
            if open {
                tracer.child(root, "bench.gen_late", at(s.origin_ns), at(s.submit_start_ns), id);
            }
            tracer.child(root, "serve.submit", at(s.submit_start_ns), at(s.submit_end_ns), id);
            tracer.child(root, "serve.await", at(s.submit_end_ns), at(s.received_ns), id);

            let Some(resp) = &s.response else {
                unanswered += 1;
                stats.ops.push(Op { failed: 1, ..op });
                continue;
            };
            if resp.route == Route::EarlyExit {
                // a shed request was answered, but not by the full model:
                // it misses the SLO and has no latency to report
                shed[s.class.rank()] += 1;
                stats.ops.push(op);
                continue;
            }
            served[s.class.rank()] += 1;
            let right = resp.argmax == self.expected[s.row];
            agree += u64::from(right);
            if !right && self.precision == Precision::F32 {
                // an f32 answer must be exactly the model's own prediction
                wrong += 1;
                stats.ops.push(Op { failed: 1, ..op });
                continue;
            }
            op.latency_ms = Some(latency_ms);
            op.units = 1.0;
            op.met = u64::from(latency_ms <= self.limit_ms);
            stats.ops.push(op);
            if let Some(plan_us) = &plan_us {
                let compute_ms = plan_us(resp.batch_size) / 1e3;
                let in_server_ms = (s.received_ns - s.submit_start_ns) as f64 / 1e6;
                wait_ms.push(in_server_ms - compute_ms);
                run_ms.push(compute_ms);
                busy_us += plan_us(resp.batch_size) / resp.batch_size.max(1) as f64;
            }
        }

        // --- checks ---
        let (n_served, n_shed) = (served.iter().sum::<u64>(), shed.iter().sum::<u64>());
        stats.check(wrong == 0, || {
            format!("{wrong} f32 responses differ from Sequential::predict of the serving model")
        });
        let attempted = samples.len() as u64;
        stats.check(attempted == n_served + n_shed + unanswered, || {
            format!(
                "conservation: attempted {attempted} != served {n_served} + shed {n_shed} \
                 + failed {unanswered}"
            )
        });
        let agreement = agree as f64 / n_served.max(1) as f64;
        stats.check(agreement >= 0.95, || {
            format!("argmax agreement with the f32 model {agreement:.4} < 0.95")
        });
        let share = |c: SloClass| shed[c.rank()] as f64 / offered[c.rank()].max(1) as f64;
        let shares = SloClass::ALL.map(share);
        // Among the classes that were offered at all, a higher class never
        // sheds a larger share than a lower one. One percentage point of
        // slack: when a long host stall fills the queue past every
        // threshold, all classes shed alike and a handful of requests
        // decides the order.
        let ranked: Vec<f64> =
            SloClass::ALL.iter().filter(|c| offered[c.rank()] > 0).map(|&c| share(c)).collect();
        stats.check(ranked.windows(2).all(|w| w[0] <= w[1] + 0.01), || {
            format!("shed shares not class-ordered: {shares:?}")
        });
        stats.check(fx.server.version() == 1, || "model version changed under load".into());

        // --- load-derived layer metrics ---
        let lat = sorted(stats.latencies_ms());
        let snap = fx.server.metrics();
        let obs = fx.server.obs().snapshot();
        let hits = obs.counter("plan.cache_hits").unwrap_or(0) as f64;
        let misses = obs.counter("plan.cache_misses").unwrap_or(0) as f64;
        let workers = serve_config().workers as f64;
        stats.layer = vec![
            ("serve.submit_us", percentile(&sorted(submit_us), 50.0)),
            ("serve.batches", snap.batches as f64),
            ("serve.batch_rows_mean", snap.mean_batch_size),
            ("serve.plan_cache_hit_share", hits / (hits + misses).max(1.0)),
            ("serve.shed_share_interactive", shares[0]),
            ("serve.shed_share_standard", shares[1]),
            ("serve.shed_share_best_effort", shares[2]),
            ("serve.latency_p95_ms", percentile(&lat, 95.0)),
            ("serve.latency_p99_ms", percentile(&lat, 99.0)),
            ("serve.latency_samples", lat.len() as f64),
        ];
        let late_ms = sorted(late_ms);
        let late_p50 = percentile(&late_ms, 50.0);
        if open {
            stats.layer.push(("bench.gen_late_ms_p99", percentile(&late_ms, 99.0)));
        }
        if plan_us.is_some() {
            let wait_p50 = percentile(&sorted(wait_ms), 50.0);
            let run_p50 = percentile(&sorted(run_ms), 50.0);
            stats.layer.push(("serve.wait_ms_p50", wait_p50));
            stats.layer.push(("serve.worker_busy_share", busy_us / 1e6 / (workers * args.seconds)));
            stats.notes.push(format!(
                "reconcile: serve.wait_ms_p50 {wait_p50:.3} + probed Plan::run p50 {run_p50:.3} = \
                 {:.3} ms vs whole-window latency p50 - gen_late p50 = {:.3} ms",
                wait_p50 + run_p50,
                percentile(&lat, 50.0) - late_p50
            ));
        }
        stats.notes.push(format!(
            "whole window: p50 {:.3} p95 {:.3} p99 {:.3} ms over {} served; SLO limit {} ms",
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
            percentile(&lat, 99.0),
            lat.len(),
            self.limit_ms
        ));
        stats.notes.push(format!(
            "served {n_served} shed {n_shed} unanswered {unanswered} wrong {wrong}; argmax agreement \
             with f32 {agreement:.4}; {} batches of mean {:.2} rows (server lifetime, warm-up \
             included)",
            snap.batches, snap.mean_batch_size
        ));
        stats
    }

    fn teardown(&self, fx: ServeFixture) {
        drop(fx.client);
        fx.server.shutdown();
    }
}

impl Serve {
    fn submit(
        &self,
        client: &ServeClient,
        row: usize,
        class: SloClass,
    ) -> Option<Receiver<InferenceResponse>> {
        client.submit_classed(self.inputs.row(row), CLOUD, class).ok()
    }

    fn open(
        &self,
        fx: &ServeFixture,
        args: &RunArgs,
        epoch: Instant,
        rps: f64,
        mix: &[SloClass],
    ) -> Vec<Sample> {
        let schedule =
            poisson_schedule(args.seed, rps, args.warm_s, args.seconds, SLICES, mix, INPUT_ROWS);
        // an open loop at this utilisation is mostly thread wake-ups: keep
        // the cores from halting so the hypervisor's wake-up cost, which
        // varies with the host's load, stays out of the latency
        let awake = KeepAwake::start(serve_config().workers);
        let outcomes: Vec<Outcome<InferenceResponse>> =
            run_open(epoch, &schedule, |a| self.submit(&fx.client, a.row, a.class));
        awake.stop();
        outcomes
            .into_iter()
            .zip(&schedule)
            .filter(|(_, a)| a.measured)
            .map(|(o, a)| Sample {
                row: a.row,
                class: a.class,
                origin_ns: o.due_ns,
                submit_start_ns: o.submit_start_ns,
                submit_end_ns: o.submit_end_ns,
                received_ns: o.received_ns,
                response: o.response,
            })
            .collect()
    }

    fn closed(
        &self,
        fx: &ServeFixture,
        args: &RunArgs,
        epoch: Instant,
        outstanding: usize,
    ) -> Vec<Sample> {
        let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        let warm_ns = (args.warm_s * 1e9) as u64;
        let deadline = epoch + Duration::from_secs_f64(args.warm_s + args.seconds);
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC105ED);
        let mut in_flight: VecDeque<(Sample, Option<Receiver<InferenceResponse>>)> =
            VecDeque::with_capacity(outstanding);
        let mut done = Vec::new();
        let mut submit = |in_flight: &mut VecDeque<_>| {
            let row = rng.gen_range(0..INPUT_ROWS);
            let start = Instant::now();
            let rx = self.submit(&fx.client, row, SloClass::Standard);
            let end = Instant::now();
            let sample = Sample {
                row,
                class: SloClass::Standard,
                origin_ns: since(start),
                submit_start_ns: since(start),
                submit_end_ns: since(end),
                received_ns: 0,
                response: None,
            };
            in_flight.push_back((sample, rx));
        };
        for _ in 0..outstanding {
            submit(&mut in_flight);
        }
        while let Some((mut sample, rx)) = in_flight.pop_front() {
            sample.response = rx.and_then(|rx| rx.recv().ok());
            let now = Instant::now();
            sample.received_ns = since(now);
            if sample.origin_ns >= warm_ns {
                done.push(sample);
            }
            if now < deadline {
                submit(&mut in_flight);
            }
        }
        done
    }
}
