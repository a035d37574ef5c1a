//! The six workloads and the driver that turns one of them into a run
//! record. A workload says how to set up cold and how to apply its load;
//! the driver owns everything the five end-to-end metrics have in
//! common: repeated cold set-ups, the warm-up, the untraced measurement,
//! and — for `--trace 1` — the second, traced pass on a fresh fixture.

pub mod device;
pub mod fed;
pub mod serve;
pub mod train;

use crate::env::peak_rss_mb;
use crate::probes::ProbeOut;
use crate::report::{Metrics, RunResult};
use crate::stats::{median, percentile, quartiles, sorted};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Cold set-ups are repeated until this many are timed and
/// [`SETUP_BUDGET_S`] is spent (a cheap set-up needs more repetitions
/// for a steady median), but never more than [`MAX_SETUPS`] times. The
/// last one built is the one measured on.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;
/// `bench.gen_late_ms_p99` above this flags the run as late.
pub const LATE_LIMIT_MS: f64 = 5.0;

/// How long and with which inputs a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Unmeasured warm-up seconds before them (plans compiled, caches
    /// filled, thread-local pack buffers grown).
    pub warm_s: f64,
}

/// Slices the measured window is cut into; every end-to-end metric is
/// taken per slice first. On this shared two-core box the host's other
/// tenants make the program take half as long again for seconds at a time,
/// several times a minute when they are busy, and a whole-window
/// statistic inherits every such second. The contended state only ever
/// adds time, so `latency_p50_ms` is the first quartile over the slices
/// of the per-slice median and `throughput_per_s` the third quartile of
/// the per-slice rate — the run's quiet quarter, which a run still has
/// when most of it was contended, and which is not one lucky slice
/// either. `slo_met_share` stays the median slice: it is bounded by 1,
/// its noise is a tenth of its bound, and its quiet quarter reads 1.0 on
/// the open loops whatever the tail does.
pub const SLICES: usize = 10;

/// One operation of the measured window: a request, a cycle of calls, a
/// training cycle, a federated repetition.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it was due (open loop) or began (closed loop), in seconds
    /// from the start of the measured window.
    pub at_s: f64,
    /// Its latency, if the full model answered it; a shed, refused or
    /// wrongly answered operation has none.
    pub latency_ms: Option<f64>,
    /// Calls it attempted (1, or the calls of a `device_infer` cycle).
    pub attempted: u64,
    /// Of those, refused, errored or answered wrongly.
    pub failed: u64,
    /// Of those, answered correctly by the full model within the limit.
    pub met: u64,
    /// Correct work it completed, in the workload's throughput unit.
    pub units: f64,
}

/// What throughput divides by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Pace {
    /// Wall time, from the start of a slice to the last answer to an
    /// operation of that slice: arrivals keep coming, or several requests
    /// are in flight.
    #[default]
    Wall,
    /// The time the operations themselves took: one thread runs them back
    /// to back, and what it does between them (checks, rebuilding a
    /// population) is the benchmark's work, not the program's.
    Busy,
}

impl RunArgs {
    /// Length of one slice of the measured window.
    pub fn slice_s(&self) -> f64 {
        self.seconds / SLICES as f64
    }

    /// Starts a closed loop's clock now: returns when the warm-up ends
    /// and when the measured window ends, and opens the window on `tracer`.
    pub fn start_window(&self, tracer: &mut Tracer) -> (Instant, Instant) {
        let warm_end = Instant::now() + Duration::from_secs_f64(self.warm_s);
        self.open_window(tracer, warm_end);
        (warm_end, warm_end + Duration::from_secs_f64(self.seconds))
    }

    /// Tells `tracer` that the measured window starts at `window_start`,
    /// from where it traces every other slice.
    pub fn open_window(&self, tracer: &mut Tracer, window_start: Instant) {
        tracer.alternate(tracer.at_ns(window_start), (self.slice_s() * 1e9) as u64);
    }
}

/// What one application of a workload's load observed.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Every operation of the measured window.
    pub ops: Vec<Op>,
    /// Denominator of `throughput_per_s`.
    pub pace: Pace,
    /// Checks that did not hold; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Sample counts and check outcomes for the human report.
    pub notes: Vec<String>,
    /// Per-layer metrics derived from this load.
    pub layer: Vec<(&'static str, f64)>,
}

/// The three load-derived end-to-end metrics.
struct Summary {
    latency_p50_ms: f64,
    slo_met_share: f64,
    throughput_per_s: f64,
    slices: usize,
    /// `(slice index, latency p50)` of every slice with a latency sample.
    slice_p50_ms: Vec<(usize, f64)>,
    slice_share: Vec<f64>,
    slice_rate: Vec<f64>,
}

impl LoadStats {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Latencies of every operation that has one, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().filter_map(|o| o.latency_ms).collect()
    }

    fn attempted(&self) -> u64 {
        self.ops.iter().map(|o| o.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.ops.iter().map(|o| o.failed).sum()
    }

    /// Per-slice values, then the quiet quartile (latency, throughput)
    /// or the median (share) over the slices.
    fn summarize(&self, seconds: f64) -> Summary {
        let slice_s = seconds / SLICES as f64;
        let mut slices: Vec<Vec<&Op>> = vec![Vec::new(); SLICES];
        for op in &self.ops {
            slices[((op.at_s / slice_s).max(0.0) as usize).min(SLICES - 1)].push(op);
        }
        let (mut p50, mut share, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        let mut slice_p50_ms = Vec::new();
        for (i, ops) in slices.iter().enumerate().filter(|(_, ops)| !ops.is_empty()) {
            let latencies = sorted(ops.iter().filter_map(|o| o.latency_ms).collect());
            if !latencies.is_empty() {
                p50.push(percentile(&latencies, 50.0));
                slice_p50_ms.push((i, percentile(&latencies, 50.0)));
            }
            let attempted: u64 = ops.iter().map(|o| o.attempted).sum();
            share.push(ops.iter().map(|o| o.met).sum::<u64>() as f64 / attempted.max(1) as f64);
            let units: f64 = ops.iter().map(|o| o.units).sum();
            let over_s = match self.pace {
                Pace::Wall => {
                    let answered = |o: &&Op| o.latency_ms.map(|ms| o.at_s + ms / 1e3);
                    ops.iter().filter_map(answered).fold(0.0, f64::max) - i as f64 * slice_s
                }
                Pace::Busy => latencies.iter().sum::<f64>() / 1e3,
            };
            rate.push(units / over_s.max(1e-9));
        }
        // a --quick run of slow cycles can fill fewer than three slices,
        // and the quartiles of two values lie outside them
        let quiet = |v: &[f64], lower_is_better: bool| match quartiles(v) {
            Some((q1, _)) if v.len() >= 3 && lower_is_better => q1,
            Some((_, q3)) if v.len() >= 3 => q3,
            _ => median(v),
        };
        Summary {
            latency_p50_ms: quiet(&p50, true),
            slo_met_share: median(&share),
            throughput_per_s: quiet(&rate, false),
            slices: share.len(),
            slice_p50_ms,
            slice_share: share,
            slice_rate: rate,
        }
    }
}

/// One of the six workloads.
pub trait Workload {
    /// What a cold set-up builds: servers, models, datasets, populations.
    type Fixture;

    /// Builds everything the load needs from nothing. Timed: the median
    /// of repeated calls is `setup_s`.
    fn setup(&self, args: &RunArgs) -> Self::Fixture;

    /// Applies the load to a fresh fixture: `args.warm_s` unmeasured
    /// seconds, then `args.seconds` measured ones. Spans go to `tracer`
    /// (a disabled tracer on untraced runs); the load tells it where the
    /// measured window starts with [`RunArgs::open_window`].
    fn load(
        &self,
        fixture: &mut Self::Fixture,
        args: &RunArgs,
        tracer: &mut Tracer,
        probe: Option<&ProbeOut>,
    ) -> LoadStats;

    /// Stops whatever `setup` started (threads joined).
    fn teardown(&self, fixture: Self::Fixture);
}

/// One run of `w`: traced, with the layer probes' output, or untraced.
pub fn run<W: Workload>(
    w: &W,
    args: &RunArgs,
    tracer: &mut Tracer,
    probe: Option<&ProbeOut>,
) -> RunResult {
    match probe {
        Some(probe) => run_traced(w, args, tracer, probe),
        None => run_untraced(w, args),
    }
}

/// `--trace 0`: the five end-to-end metrics, tracing off.
fn run_untraced<W: Workload>(w: &W, args: &RunArgs) -> RunResult {
    let mut setups: Vec<f64> = Vec::new();
    let mut fixture = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(old) = fixture.take() {
            w.teardown(old);
        }
        let t = Instant::now();
        fixture = Some(w.setup(args));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.expect("MIN_SETUPS > 0");
    let stats = w.load(&mut fixture, args, &mut Tracer::new(false), None);
    w.teardown(fixture);

    let summary = stats.summarize(args.seconds);
    let mut metrics = Metrics::default();
    metrics.set("latency_p50_ms", summary.latency_p50_ms);
    metrics.set("slo_met_share", summary.slo_met_share);
    metrics.set("throughput_per_s", summary.throughput_per_s);
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", peak_rss_mb());
    let per_slice: Vec<String> =
        summary.slice_p50_ms.iter().map(|(_, p)| format!("{p:.3}")).collect();
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    let notes = vec![
        format!("setup_s is the median of {} cold set-ups", setups.len()),
        format!("per-slice latency p50, ms: {}", per_slice.join(" ")),
        format!("per-slice slo_met_share: {}", list(&summary.slice_share)),
        format!("per-slice throughput_per_s: {}", list(&summary.slice_rate)),
        format!(
            "over {} slices of {:.2} s: latency_p50_ms is the first quartile of the per-slice \
             median, throughput_per_s the third quartile of the per-slice rate, slo_met_share \
             the median slice; {} latency samples in all",
            summary.slices,
            args.seconds / SLICES as f64,
            stats.latencies_ms().len()
        ),
    ];
    finish(stats, metrics, notes)
}

/// `--trace 1`: one pass on a fresh fixture in which tracing alternates
/// slice by slice ([`Tracer::alternate`]). It supplies the load-derived
/// per-layer metrics, and the traced slices against the untraced ones
/// give the tracing overhead.
fn run_traced<W: Workload>(
    w: &W,
    args: &RunArgs,
    tracer: &mut Tracer,
    probe: &ProbeOut,
) -> RunResult {
    let mut fixture = w.setup(args);
    let stats = w.load(&mut fixture, args, tracer, Some(probe));
    w.teardown(fixture);

    let mut metrics = Metrics::default();
    for &(name, value) in probe.metrics.iter().chain(&stats.layer) {
        metrics.set(name, value);
    }
    let p50s = stats.summarize(args.seconds).slice_p50_ms;
    let parity = |odd: bool| -> Vec<f64> {
        p50s.iter().filter(|(i, _)| (i % 2 == 1) == odd).map(|&(_, p)| p).collect()
    };
    let (p_plain, p_traced) = (median(&parity(false)), median(&parity(true)));
    metrics.set("bench.trace_overhead_share", (p_traced - p_plain) / p_plain.max(1e-9));
    metrics.set("bench.trace_spans", tracer.len() as f64);
    let notes = vec![format!(
        "slice-median latency_p50_ms {p_plain:.4} in untraced slices vs {p_traced:.4} in traced \
         ones; {} latency samples in all",
        stats.latencies_ms().len()
    )];
    finish(stats, metrics, notes)
}

fn finish(stats: LoadStats, metrics: Metrics, mut notes: Vec<String>) -> RunResult {
    let (attempted, failed) = (stats.attempted(), stats.failed());
    notes.extend(stats.notes);
    notes.extend(stats.failures.iter().map(|f| format!("CHECK FAILED: {f}")));
    let late = stats.layer.iter().any(|&(n, v)| n == "bench.gen_late_ms_p99" && v > LATE_LIMIT_MS);
    RunResult { correct: stats.failures.is_empty(), attempted, failed, late, metrics, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One operation per 0.1 s over `SLICES` seconds, ten to a slice.
    fn stats_with(latency_of_slice: impl Fn(usize) -> f64) -> LoadStats {
        let ops = (0..SLICES * 10)
            .map(|i| Op {
                at_s: i as f64 / 10.0,
                latency_ms: Some(latency_of_slice(i / 10)),
                attempted: 1,
                failed: 0,
                met: 1,
                units: 1.0,
            })
            .collect();
        LoadStats { ops, pace: Pace::Busy, ..LoadStats::default() }
    }

    #[test]
    fn a_mostly_contended_run_reports_its_quiet_slices() {
        // six of ten slices half as slow again: the median slice follows them
        let s = stats_with(|slice| if slice % 5 < 3 { 150.0 } else { 100.0 });
        let summary = s.summarize(SLICES as f64);
        assert_eq!(summary.slices, SLICES);
        assert_eq!(summary.latency_p50_ms, 100.0);
        assert!((summary.throughput_per_s - 10.0).abs() < 1e-9);
        assert_eq!(summary.slo_met_share, 1.0);
    }

    #[test]
    fn one_lucky_slice_does_not_set_the_level() {
        let s = stats_with(|slice| if slice == 4 { 60.0 } else { 100.0 });
        let summary = s.summarize(SLICES as f64);
        assert_eq!(summary.latency_p50_ms, 100.0);
        assert!((summary.throughput_per_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fewer_than_three_slices_fall_back_to_their_median() {
        let mut s = stats_with(|slice| 100.0 + slice as f64);
        s.ops.retain(|op| op.at_s < 2.0);
        let summary = s.summarize(SLICES as f64);
        assert_eq!(summary.slices, 2);
        assert_eq!(summary.latency_p50_ms, 100.5);
    }
}
