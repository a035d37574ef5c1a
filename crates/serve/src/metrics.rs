//! Serving metrics, backed by the [`mdl_obs`] registry.
//!
//! [`ServerMetrics`] is a thin facade over cached `serve.*` instruments in
//! an [`mdl_obs::MetricsRegistry`]: every event recorded here lands in the
//! registry (and therefore in [`mdl_obs::ObsSnapshot`] exports) — there is
//! no second bookkeeping path. The instrument names are:
//!
//! | name                     | kind                     | meaning                         |
//! |--------------------------|--------------------------|---------------------------------|
//! | `serve.latency_us`       | histogram (pow2)         | *served-only* submit→response µs|
//! | `serve.shed_latency_us`  | histogram (pow2, lazy)   | latency of shed answers, µs     |
//! | `serve.batch_size`       | histogram (linear, w=1)  | dispatched batch sizes          |
//! | `serve.completed`        | counter                  | responses served                |
//! | `serve.shed`             | counter                  | answered by the early-exit path |
//! | `serve.local`            | counter                  | answered on-device              |
//! | `serve.batches`          | counter                  | batches pulled by workers       |
//! | `serve.batched_requests` | counter                  | requests inside those batches   |
//! | `serve.queue_depth`      | gauge                    | admitted-but-unrun jobs         |
//! | `serve.swaps`            | counter (lazy)           | completed hot swaps             |
//! | `serve.reverts`          | counter (lazy)           | rollbacks to a pinned version   |
//! | `serve.class.<c>.completed`  | counter (lazy)       | served responses in class `<c>` |
//! | `serve.class.<c>.shed`       | counter (lazy)       | shed requests in class `<c>`    |
//! | `serve.class.<c>.latency_us` | histogram (pow2, lazy)| served-only latency per class  |
//! | `plan.cache_hits`        | counter (lazy)           | batches served on a cached plan |
//! | `plan.cache_misses`      | counter (lazy)           | plan compilations               |
//! | `plan.fused_ops`         | counter (lazy)           | fused kernels across compiles   |
//! | `plan.arena_bytes`       | gauge (lazy)             | last compiled plan's arena size |
//!
//! Shed answers and served responses land in **separate** histograms:
//! an early-exit answer returns in microseconds, so mixing the two made
//! a shed-heavy run report a nonsense sub-inference p50 (the old
//! `p50_us: 5` at 3200 offered rps). `serve.latency_us` now carries only
//! responses the model actually served; shed latency is tracked, but
//! apart, under `serve.shed_latency_us`.
//!
//! The swap/revert, shed-latency, per-class (`serve.class.<c>.*`, where
//! `<c>` is an [`SloClass::label`]) and `plan.*` instruments are
//! registered on first use rather than at construction, so a server that
//! never swaps, never sheds, and serves only unclassed traffic exports
//! exactly the same instrument set as before those features existed (the
//! golden observability trace depends on this).
//!
//! Timestamps come from the observability clock, so a server attached to a
//! simulated clock ([`mdl_obs::Clock`] in sim mode) reports deterministic
//! latencies (zero unless the simulation advances time), while the default
//! wall clock measures real elapsed time.

use crate::slo::SloClass;
use mdl_obs::{Buckets, Clock, Counter, Gauge, Histogram, Obs};
use std::time::Duration;

/// Largest tracked batch size; bigger batches land in the last bucket.
const BATCH_BUCKETS: usize = 64;

/// Shared handles updated by the workers and client handles.
///
/// Cloning is cheap; clones observe and record into the same registry
/// instruments.
#[derive(Clone)]
pub struct ServerMetrics {
    obs: Obs,
    clock: Clock,
    latency_us: Histogram,
    batch_size: Histogram,
    batches: Counter,
    batched_requests: Counter,
    completed: Counter,
    shed: Counter,
    local: Counter,
    queue_depth: Gauge,
}

impl ServerMetrics {
    /// Binds the `serve.*` instruments in `obs`'s registry.
    pub fn new(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            obs: obs.clone(),
            clock: obs.clock().clone(),
            latency_us: r.histogram("serve.latency_us", Buckets::Pow2),
            // Width-1 linear buckets make bucket index == batch size, so
            // the snapshot's `(size, count)` pairs read off directly.
            batch_size: r.histogram(
                "serve.batch_size",
                Buckets::Linear { width: 1, count: BATCH_BUCKETS + 1 },
            ),
            batches: r.counter("serve.batches"),
            batched_requests: r.counter("serve.batched_requests"),
            completed: r.counter("serve.completed"),
            shed: r.counter("serve.shed"),
            local: r.counter("serve.local"),
            queue_depth: r.gauge("serve.queue_depth"),
        }
    }

    /// Current observability-clock time in nanoseconds (wall or simulated).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Records a batch of `size` requests pulled by a worker.
    pub fn record_batch(&self, size: usize) {
        self.batch_size.record(size as u64);
        self.batches.inc();
        self.batched_requests.add(size as u64);
    }

    /// Records one *served* response (cloud, split or local — anything
    /// the model itself answered). Shed answers go through
    /// [`ServerMetrics::record_shed`] instead, so `serve.latency_us`
    /// never mixes microsecond early-exit replies into the served
    /// latency distribution.
    pub fn record_completed(&self, latency: Duration) {
        self.completed.inc();
        self.latency_us.record(latency.as_micros() as u64);
    }

    /// Records a request answered by the shed path. Its latency lands in
    /// the lazy `serve.shed_latency_us` histogram — never in
    /// `serve.latency_us` — so shed-free runs export an unchanged
    /// instrument set and shed-heavy runs keep an honest served p50.
    pub fn record_shed(&self, latency: Duration) {
        self.shed.inc();
        self.obs
            .registry()
            .histogram("serve.shed_latency_us", Buckets::Pow2)
            .record(latency.as_micros() as u64);
    }

    /// Records one served response under its SLO class (lazy
    /// `serve.class.<c>.completed` counter + `serve.class.<c>.latency_us`
    /// histogram). Call alongside [`ServerMetrics::record_completed`].
    pub fn record_class_completed(&self, class: SloClass, latency: Duration) {
        let r = self.obs.registry();
        r.counter(class.completed_metric()).inc();
        r.histogram(class.latency_metric(), Buckets::Pow2).record(latency.as_micros() as u64);
    }

    /// Records one shed request under its SLO class (lazy
    /// `serve.class.<c>.shed` counter). Call alongside
    /// [`ServerMetrics::record_shed`].
    pub fn record_class_shed(&self, class: SloClass) {
        self.obs.registry().counter(class.shed_metric()).inc();
    }

    /// Records a request answered on-device (routed local, never queued).
    pub fn record_local(&self) {
        self.local.inc();
    }

    /// Publishes the backlog depth: every admitted-but-unrun job.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as f64);
    }

    /// Records one completed hot swap. The `serve.swaps` counter is
    /// created lazily so swap-free runs export an unchanged instrument
    /// set.
    pub fn record_swap(&self) {
        self.obs.registry().counter("serve.swaps").inc();
    }

    /// Records one rollback to a pinned version (lazy `serve.reverts`).
    pub fn record_revert(&self) {
        self.obs.registry().counter("serve.reverts").inc();
    }

    /// Records a batch served on a cached execution plan (lazy
    /// `plan.cache_hits` — like the swap counters, absent until the
    /// planned path first fires).
    pub fn record_plan_hit(&self) {
        self.obs.registry().counter("plan.cache_hits").inc();
    }

    /// Records a plan-cache miss. `stats` carries the freshly compiled
    /// plan's facts: fused-op counts accumulate into `plan.fused_ops` and
    /// the `plan.arena_bytes` gauge tracks the most recently compiled
    /// plan's arena footprint.
    pub fn record_plan_miss(&self, stats: mdl_nn::PlanStats) {
        let r = self.obs.registry();
        r.counter("plan.cache_misses").inc();
        r.counter("plan.fused_ops").add(stats.fused_ops as u64);
        r.gauge("plan.arena_bytes").set(stats.arena_bytes as f64);
    }

    /// Point-in-time summary. `elapsed` is the measurement window used for
    /// throughput.
    pub fn snapshot(&self, elapsed: Duration) -> MetricsSnapshot {
        let completed = self.completed.get();
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        let lat = self.latency_us.snapshot("serve.latency_us");
        let batch_histogram: Vec<(usize, u64)> = self
            .batch_size
            .snapshot("serve.batch_size")
            .buckets
            .into_iter()
            .filter(|&(size, _)| size > 0)
            .collect();
        let us = |q: u64| Duration::from_micros(q);
        MetricsSnapshot {
            completed,
            shed: self.shed.get(),
            local: self.local.get(),
            batches,
            mean_batch_size: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            batch_histogram,
            queue_depth: self.queue_depth.get() as usize,
            throughput_rps: if elapsed.is_zero() {
                0.0
            } else {
                completed as f64 / elapsed.as_secs_f64()
            },
            mean_latency: lat
                .sum
                .checked_div(lat.count)
                .map_or(Duration::ZERO, Duration::from_micros),
            p50: us(lat.p50),
            p95: us(lat.p95),
            p99: us(lat.p99),
        }
    }
}

/// A frozen view of [`ServerMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Responses the model served (local + batched). Shed answers are
    /// counted under [`MetricsSnapshot::shed`], not here.
    pub completed: u64,
    /// Requests answered by the shed (early-exit) path.
    pub shed: u64,
    /// Requests answered on-device without queueing.
    pub local: u64,
    /// Batches pulled by the worker pool.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch_size: f64,
    /// `(batch size, count)` pairs, ascending, zero counts omitted.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Request-queue depth at snapshot time.
    pub queue_depth: usize,
    /// Served responses per second over the window.
    pub throughput_rps: f64,
    /// Mean served submit→response latency (shed answers excluded).
    pub mean_latency: Duration,
    /// Median served latency (histogram bucket upper bound).
    pub p50: Duration,
    /// 95th percentile served latency (histogram bucket upper bound).
    pub p95: Duration,
    /// 99th percentile served latency (histogram bucket upper bound).
    pub p99: Duration,
}

impl MetricsSnapshot {
    /// Fraction of all answered requests (served + shed) that took the
    /// shed path.
    pub fn shed_rate(&self) -> f64 {
        let answered = self.completed + self.shed;
        if answered == 0 {
            0.0
        } else {
            self.shed as f64 / answered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_bucket_bounds() {
        let m = ServerMetrics::new(&Obs::wall());
        for _ in 0..99 {
            m.record_completed(Duration::from_micros(100)); // bucket [64, 128)
        }
        m.record_completed(Duration::from_millis(50)); // far tail
        let snap = m.snapshot(Duration::from_secs(1));
        assert!(
            snap.p50 >= Duration::from_micros(100) && snap.p50 <= Duration::from_micros(256),
            "{:?}",
            snap.p50
        );
        assert!(snap.p95 <= Duration::from_micros(256));
        assert!(snap.p99 <= Duration::from_micros(256));
        assert_eq!(snap.completed, 100);
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let m = ServerMetrics::new(&Obs::wall());
        m.record_batch(1);
        m.record_batch(7);
        m.record_completed(Duration::from_micros(10));
        let snap = m.snapshot(Duration::from_secs(2));
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size - 4.0).abs() < 1e-9);
        assert_eq!(snap.batch_histogram, vec![(1, 1), (7, 1)]);
        assert!((snap.throughput_rps - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_snapshot_is_zero() {
        let m = ServerMetrics::new(&Obs::wall());
        let snap = m.snapshot(Duration::ZERO);
        assert_eq!(snap.p99, Duration::ZERO);
        assert_eq!(snap.mean_latency, Duration::ZERO);
        assert_eq!(snap.throughput_rps, 0.0);
    }

    #[test]
    fn events_land_in_the_shared_registry() {
        let obs = Obs::sim();
        let m = ServerMetrics::new(&obs);
        m.record_local();
        m.record_shed(Duration::from_micros(5));
        m.record_batch(3);
        m.record_completed(Duration::from_micros(5));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve.local"), Some(1));
        assert_eq!(snap.counter("serve.shed"), Some(1));
        assert_eq!(snap.counter("serve.batches"), Some(1));
        assert_eq!(snap.counter("serve.batched_requests"), Some(3));
        assert_eq!(snap.counter("serve.completed"), Some(1));
        let lat = snap.histogram("serve.latency_us").expect("latency histogram exported");
        assert_eq!(lat.count, 1);
        let shed = snap.histogram("serve.shed_latency_us").expect("shed latency exported");
        assert_eq!(shed.count, 1);
    }

    #[test]
    fn shed_latency_never_lands_in_the_served_histogram() {
        let obs = Obs::sim();
        let m = ServerMetrics::new(&obs);
        m.record_completed(Duration::from_millis(8));
        for _ in 0..50 {
            m.record_shed(Duration::from_micros(5));
        }
        let snap = obs.snapshot();
        let lat = snap.histogram("serve.latency_us").expect("served histogram");
        assert_eq!(lat.count, 1, "50 sheds must not pollute the served histogram");
        assert!(lat.min >= 8_000, "served min stays at the real forward, got {}", lat.min);
        let shed = snap.histogram("serve.shed_latency_us").expect("shed histogram");
        assert_eq!(shed.count, 50);
        let metrics = m.snapshot(Duration::from_secs(1));
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.shed, 50);
        assert!((metrics.shed_rate() - 50.0 / 51.0).abs() < 1e-9);
    }

    #[test]
    fn shed_and_class_instruments_register_lazily() {
        let obs = Obs::sim();
        let m = ServerMetrics::new(&obs);
        m.record_completed(Duration::from_micros(10));
        let before = obs.snapshot();
        assert!(before.histogram("serve.shed_latency_us").is_none(), "absent until a shed");
        for class in SloClass::ALL {
            assert_eq!(before.counter(class.completed_metric()), None);
            assert_eq!(before.counter(class.shed_metric()), None);
            assert!(before.histogram(class.latency_metric()).is_none());
        }
        m.record_class_completed(SloClass::Interactive, Duration::from_micros(100));
        m.record_class_shed(SloClass::BestEffort);
        let after = obs.snapshot();
        assert_eq!(after.counter("serve.class.interactive.completed"), Some(1));
        assert_eq!(after.counter("serve.class.best_effort.shed"), Some(1));
        assert_eq!(after.histogram("serve.class.interactive.latency_us").unwrap().count, 1);
        assert_eq!(after.counter("serve.class.standard.completed"), None, "still lazy");
    }

    #[test]
    fn swap_counters_register_lazily() {
        let obs = Obs::sim();
        let m = ServerMetrics::new(&obs);
        m.record_completed(Duration::from_micros(1));
        let before = obs.snapshot();
        assert_eq!(before.counter("serve.swaps"), None, "absent until a swap happens");
        assert_eq!(before.counter("serve.reverts"), None);
        m.record_swap();
        m.record_swap();
        m.record_revert();
        let after = obs.snapshot();
        assert_eq!(after.counter("serve.swaps"), Some(2));
        assert_eq!(after.counter("serve.reverts"), Some(1));
    }

    #[test]
    fn sim_clock_reports_zero_latency_deterministically() {
        let obs = Obs::sim();
        let m = ServerMetrics::new(&obs);
        let t0 = m.now_ns();
        let t1 = m.now_ns();
        assert_eq!(t0, t1, "sim clock only moves when advanced");
        obs.clock().advance_ns(1_500);
        assert_eq!(m.now_ns(), t0 + 1_500);
    }
}
