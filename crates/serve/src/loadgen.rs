//! Deterministic load generation for the serving runtime.
//!
//! Two classic shapes:
//!
//! * **Open loop** — requests arrive on a seeded Poisson process at a
//!   configured offered rate, regardless of how fast the server answers.
//!   This is the honest way to measure latency under load: a slow server
//!   cannot slow the arrival of work — and when it slows the *generator*
//!   (a `submit` blocked on a full queue), each request is still timed
//!   from the instant it was due, with the generator's lateness reported
//!   beside it ([`LoadReport::gen_late_p99`]).
//! * **Closed loop** — a fixed set of workers each keep exactly one
//!   request outstanding, which measures best-case per-request latency
//!   and natural throughput.
//!
//! Request *content* is fully deterministic (inputs, profiles and SLO
//! classes are drawn by request index from caller-supplied pools), and
//! the open-loop **arrival schedule** is a pure function of
//! `(seed, rps, request count)` — see [`arrival_schedule`] — so the same
//! offered workload can be replayed against the wall-clock server or fed
//! verbatim to the virtual-time [`crate::fleet`] engine. Only wall-clock
//! timing varies between runs.

use crate::router::{ClientProfile, Route};
use crate::server::{InferenceResponse, ServeClient};
use crate::slo::SloClass;
use crossbeam::channel::Receiver;
use mdl_tensor::stats::nearest_rank;
use mdl_tensor::wire::Reader;
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Arrival pattern for a load run.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Poisson arrivals at `rps` requests/second, independent of
    /// completion (offered load).
    Open {
        /// Offered arrival rate in requests per second.
        rps: f64,
    },
    /// `concurrency` workers, each with one request in flight at a time.
    Closed {
        /// Number of concurrent request loops.
        concurrency: usize,
    },
}

/// Configuration for one load run.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Seed for the arrival process.
    pub seed: u64,
    /// Total requests to issue.
    pub requests: usize,
    /// Arrival pattern.
    pub mode: LoadMode,
    /// Client profiles, cycled by request index. Must be non-empty.
    pub profiles: Vec<ClientProfile>,
    /// SLO classes, cycled by request index. Empty means every request
    /// goes through the unclassed [`ServeClient::submit`] path and is
    /// treated as [`SloClass::Standard`] by the server.
    pub classes: Vec<SloClass>,
}

/// The open-loop Poisson arrival schedule as virtual-nanosecond offsets
/// from the start of the run, one entry per request, non-decreasing.
///
/// This is a **pure function** of `(seed, rps, requests)` — it never
/// observes the consumer, the wall clock, or thread timing — so the same
/// offered workload can be replayed against the wall-clock server (which
/// sleeps until each offset) or handed to the virtual-time fleet engine
/// (which treats offsets as simulated arrival times) and both see
/// identical arrivals.
pub fn arrival_schedule(seed: u64, rps: f64, requests: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap = 1.0 / rps.max(1e-9);
    let mut due = 0.0f64;
    let mut offsets = Vec::with_capacity(requests);
    for _ in 0..requests {
        // exponential interarrival: -mean * ln(1 - U)
        let u: f64 = rng.gen();
        due += -mean_gap * (1.0 - u).ln().min(0.0);
        offsets.push((due.min(3600.0) * 1e9) as u64);
    }
    offsets
}

/// One offered request in replayable form: everything the serving tier
/// needs to reproduce the arrival, independent of who consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request index in the offered stream (also the FIFO tie-breaker).
    pub index: u32,
    /// Arrival offset in virtual nanoseconds from the start of the run.
    pub arrival_ns: u64,
    /// SLO class the request was tagged with.
    pub class: SloClass,
    /// Input row index into the caller's input matrix.
    pub row: u32,
}

impl RequestRecord {
    /// Wire size of one encoded record.
    pub const WIRE_BYTES: usize = 17;

    /// Fixed-width little-endian encoding:
    /// `index u32 | arrival_ns u64 | class rank u8 | row u32`.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[0..4].copy_from_slice(&self.index.to_le_bytes());
        out[4..12].copy_from_slice(&self.arrival_ns.to_le_bytes());
        out[12] = self.class.rank() as u8;
        out[13..17].copy_from_slice(&self.row.to_le_bytes());
        out
    }

    /// Inverse of [`RequestRecord::to_bytes`]; `None` unless `bytes` is
    /// exactly one record with an in-range class rank. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let rec = Self {
            index: r.u32().ok()?,
            arrival_ns: r.u64().ok()?,
            class: SloClass::from_rank(r.u8().ok()? as usize)?,
            row: r.u32().ok()?,
        };
        r.finish().ok()?;
        Some(rec)
    }
}

/// The full offered request stream for an open-loop run: the
/// [`arrival_schedule`] zipped with cycled classes and input rows.
/// Empty `classes` tags everything [`SloClass::Standard`]. Pure in the
/// same sense as [`arrival_schedule`].
pub fn request_stream(
    seed: u64,
    rps: f64,
    requests: usize,
    classes: &[SloClass],
    input_rows: usize,
) -> Vec<RequestRecord> {
    let input_rows = input_rows.max(1);
    arrival_schedule(seed, rps, requests)
        .into_iter()
        .enumerate()
        .map(|(i, arrival_ns)| RequestRecord {
            index: i as u32,
            arrival_ns,
            class: if classes.is_empty() { SloClass::Standard } else { classes[i % classes.len()] },
            row: (i % input_rows) as u32,
        })
        .collect()
}

/// Client-side measurements from one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Exact client-observed latencies of **served** responses (every
    /// route except the shed fallback), sorted ascending. Shed responses
    /// return in microseconds and would drag every percentile toward
    /// zero if mixed in, so they live in `shed_latencies`. An open loop
    /// times each request from the instant it was *due* on the
    /// [`arrival_schedule`], so a stall the generator sat through is
    /// charged to the requests it delayed.
    pub latencies: Vec<Duration>,
    /// Client-observed latencies of shed responses, sorted ascending.
    pub shed_latencies: Vec<Duration>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Requests that received a response (served or shed).
    pub completed: usize,
    /// Responses per route.
    pub local: usize,
    /// Responses served through the cloud batching path.
    pub cloud: usize,
    /// Responses served through the split path.
    pub split: usize,
    /// Responses answered by the shed fallback.
    pub shed: usize,
    /// Served responses per SLO class, indexed by [`SloClass::rank`].
    /// Unclassed responses count toward [`SloClass::Standard`].
    pub class_served: [usize; SloClass::COUNT],
    /// Shed responses per SLO class, indexed by [`SloClass::rank`].
    pub class_shed: [usize; SloClass::COUNT],
    /// Mean worker-pool batch size observed across batched responses.
    pub mean_batch_size: f64,
    /// Median open-loop generator lateness: how long after its due
    /// instant a request entered `submit` (backpressure on an earlier
    /// `submit`, timer oversleep). Zero for a closed loop.
    pub gen_late_p50: Duration,
    /// 99th-percentile generator lateness.
    pub gen_late_p99: Duration,
}

impl LoadReport {
    /// Exact `p`-th percentile latency (`0 < p <= 100`) from the sorted
    /// **served** samples; shed responses never contribute.
    pub fn percentile(&self, p: f64) -> Duration {
        nearest_rank(&self.latencies, p / 100.0).unwrap_or_default()
    }

    /// Exact `p`-th percentile latency of the shed fallback path.
    pub fn shed_percentile(&self, p: f64) -> Duration {
        nearest_rank(&self.shed_latencies, p / 100.0).unwrap_or_default()
    }

    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Fraction of completed requests answered by the shed path.
    pub fn shed_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.shed as f64 / self.completed as f64
        }
    }

    fn from_responses(
        responses: Vec<InferenceResponse>,
        mut late: Vec<Duration>,
        elapsed: Duration,
    ) -> Self {
        late.sort();
        let mut latencies = Vec::with_capacity(responses.len());
        let mut shed_latencies = Vec::new();
        let (mut local, mut cloud, mut split, mut shed) = (0usize, 0, 0, 0);
        let mut class_served = [0usize; SloClass::COUNT];
        let mut class_shed = [0usize; SloClass::COUNT];
        let mut batched = 0usize;
        let mut batch_sum = 0usize;
        for r in &responses {
            let rank = r.class.unwrap_or(SloClass::Standard).rank();
            match r.route {
                Route::Local => local += 1,
                Route::Cloud => cloud += 1,
                Route::Split { .. } => split += 1,
                Route::EarlyExit => shed += 1,
            }
            if matches!(r.route, Route::EarlyExit) {
                shed_latencies.push(r.latency);
                class_shed[rank] += 1;
            } else {
                latencies.push(r.latency);
                class_served[rank] += 1;
            }
            if matches!(r.route, Route::Cloud | Route::Split { .. }) {
                batched += 1;
                batch_sum += r.batch_size;
            }
        }
        latencies.sort();
        shed_latencies.sort();
        Self {
            completed: responses.len(),
            latencies,
            shed_latencies,
            elapsed,
            local,
            cloud,
            split,
            shed,
            class_served,
            class_shed,
            mean_batch_size: if batched == 0 { 0.0 } else { batch_sum as f64 / batched as f64 },
            gen_late_p50: nearest_rank(&late, 0.50).unwrap_or_default(),
            gen_late_p99: nearest_rank(&late, 0.99).unwrap_or_default(),
        }
    }
}

/// Drives `config.requests` requests through `client`, drawing input
/// rows from `inputs` (cycled by request index) and profiles from
/// `config.profiles` (likewise). Returns client-side measurements.
///
/// # Panics
///
/// Panics if `config.profiles` is empty or `inputs` has no rows.
pub fn run_load(client: &ServeClient, inputs: &Matrix, config: &LoadGenConfig) -> LoadReport {
    assert!(!config.profiles.is_empty(), "need at least one client profile");
    assert!(inputs.rows() > 0, "need at least one input row");
    let started = Instant::now();
    let (responses, late) = match config.mode {
        LoadMode::Open { rps } => {
            run_open(&arrival_schedule(config.seed, rps, config.requests), |i| {
                submit_indexed(client, inputs, config, i).ok()
            })
        }
        LoadMode::Closed { concurrency } => {
            (run_closed(client, inputs, config, concurrency), Vec::new())
        }
    };
    LoadReport::from_responses(responses, late, started.elapsed())
}

fn pick<'a>(
    inputs: &'a Matrix,
    config: &LoadGenConfig,
    index: usize,
) -> (&'a [f32], ClientProfile) {
    (inputs.row(index % inputs.rows()), config.profiles[index % config.profiles.len()])
}

fn submit_indexed(
    client: &ServeClient,
    inputs: &Matrix,
    config: &LoadGenConfig,
    index: usize,
) -> Result<Receiver<InferenceResponse>, crate::server::SubmitError> {
    let (input, profile) = pick(inputs, config, index);
    if config.classes.is_empty() {
        client.submit(input, profile)
    } else {
        client.submit_classed(input, profile, config.classes[index % config.classes.len()])
    }
}

/// Offers request `i` at `schedule[i]` nanoseconds after the start and
/// returns the responses, each timed **from its due instant**, plus every
/// request's generator lateness. `submit` returns `None` once the server
/// is gone, which ends the run.
///
/// The server stamps latency from the start of `submit` (time blocked on
/// a full queue included), so what it cannot see is how late the
/// generator *entered* `submit` — because the previous `submit` blocked,
/// or the timer overslept. Reporting its number alone is coordinated
/// omission: everything queued up in the generator behind a stall looks
/// fast. Adding the lateness charges the stall to the requests it delayed.
fn run_open(
    schedule: &[u64],
    mut submit: impl FnMut(usize) -> Option<Receiver<InferenceResponse>>,
) -> (Vec<InferenceResponse>, Vec<Duration>) {
    let mut in_flight = Vec::with_capacity(schedule.len());
    // Absolute-deadline pacing: each arrival is scheduled on the Poisson
    // timeline computed up front, so oversleeping one gap (timer
    // granularity) is recovered on the next instead of compounding into
    // a lower offered rate.
    let started = Instant::now();
    for (i, &offset_ns) in schedule.iter().enumerate() {
        let due = started + Duration::from_nanos(offset_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        match submit(i) {
            Some(rx) => in_flight.push((rx, late)),
            None => break,
        }
    }
    let late = in_flight.iter().map(|&(_, late)| late).collect();
    let responses = in_flight
        .into_iter()
        .filter_map(|(rx, late)| {
            let mut response = rx.recv().ok()?;
            response.latency += late;
            Some(response)
        })
        .collect();
    (responses, late)
}

fn run_closed(
    client: &ServeClient,
    inputs: &Matrix,
    config: &LoadGenConfig,
    concurrency: usize,
) -> Vec<InferenceResponse> {
    let concurrency = concurrency.max(1);
    let total = config.requests;
    let mut responses = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|w| {
                let client = client.clone();
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    // worker w owns request indices w, w+C, w+2C, ...
                    let mut i = w;
                    while i < total {
                        let Ok(rx) = submit_indexed(&client, inputs, config, i) else { break };
                        if let Ok(resp) = rx.recv() {
                            mine.push(resp);
                        }
                        i += concurrency;
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            responses.extend(h.join().expect("load worker"));
        }
    });
    responses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{DeviceClass, NetworkClass};
    use crate::server::{InferenceServer, ServeConfig};
    use mdl_nn::{Activation, Dense, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Big enough (~9.6M MACs) that a wearable on Wi-Fi goes cloud-bound.
    fn model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new();
        net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
        net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
        net.push(Dense::new(3072, 3, Activation::Identity, &mut rng));
        net
    }

    fn inputs() -> Matrix {
        Matrix::from_fn(32, 32, |r, c| ((r * 32 + c) as f32 * 0.7).sin())
    }

    #[test]
    fn closed_loop_answers_every_request() {
        let server = InferenceServer::start(model(), None, ServeConfig::default());
        let client = server.client();
        let report = run_load(
            &client,
            &inputs(),
            &LoadGenConfig {
                seed: 1,
                requests: 64,
                mode: LoadMode::Closed { concurrency: 4 },
                profiles: vec![ClientProfile {
                    device: DeviceClass::Wearable,
                    network: NetworkClass::Wifi,
                }],
                classes: vec![SloClass::Interactive, SloClass::BestEffort],
            },
        );
        assert_eq!(report.completed, 64);
        assert_eq!(report.latencies.len(), 64);
        assert!(report.shed_latencies.is_empty());
        // classes cycle by index: half interactive, half best-effort
        assert_eq!(report.class_served[SloClass::Interactive.rank()], 32);
        assert_eq!(report.class_served[SloClass::BestEffort.rank()], 32);
        assert_eq!(report.class_shed, [0; SloClass::COUNT]);
        assert!(report.percentile(50.0) <= report.percentile(99.0));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn open_loop_is_deterministic_in_content() {
        let server = InferenceServer::start(model(), None, ServeConfig::default());
        let client = server.client();
        let report = run_load(
            &client,
            &inputs(),
            &LoadGenConfig {
                seed: 7,
                requests: 40,
                mode: LoadMode::Open { rps: 5_000.0 },
                profiles: vec![
                    ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi },
                    ClientProfile { device: DeviceClass::Flagship, network: NetworkClass::Offline },
                ],
                classes: vec![],
            },
        );
        assert_eq!(report.completed, 40);
        // profiles are cycled: half offline/local, half cloud-bound
        assert_eq!(report.local, 20);
        assert_eq!(report.cloud + report.split, 20);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn percentile_is_exact_on_known_samples() {
        let report = LoadReport {
            latencies: (1..=100).map(Duration::from_micros).collect(),
            shed_latencies: (1..=10).map(Duration::from_micros).collect(),
            elapsed: Duration::from_secs(1),
            completed: 110,
            local: 0,
            cloud: 100,
            split: 0,
            shed: 10,
            class_served: [0, 100, 0],
            class_shed: [0, 0, 10],
            mean_batch_size: 1.0,
            gen_late_p50: Duration::ZERO,
            gen_late_p99: Duration::ZERO,
        };
        assert_eq!(report.percentile(50.0), Duration::from_micros(50));
        assert_eq!(report.percentile(99.0), Duration::from_micros(99));
        assert_eq!(report.percentile(100.0), Duration::from_micros(100));
        assert_eq!(report.shed_percentile(100.0), Duration::from_micros(10));
        assert!((report.throughput_rps() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_charges_a_stalled_submit_to_the_requests_it_delayed() {
        // One request per millisecond into a sink that answers at once
        // with zero server-side latency, except that submit #20 blocks for
        // 60 ms (a full admission queue would do this).
        let schedule: Vec<u64> = (0..200).map(|i| i * 1_000_000).collect();
        let (responses, late) = run_open(&schedule, |i| {
            if i == 20 {
                std::thread::sleep(Duration::from_millis(60));
            }
            let (tx, rx) = crossbeam::channel::bounded(1);
            let response = InferenceResponse {
                probs: vec![1.0],
                argmax: 0,
                model_version: 1,
                route: Route::Cloud,
                class: None,
                batch_size: 1,
                latency: Duration::ZERO,
            };
            tx.send(response).expect("receiver held");
            Some(rx)
        });
        assert_eq!(responses.len(), 200, "nothing is skipped to catch up");
        // the sink saw every request as instantaneous; timed from the due
        // instant, the ~60 requests due during the stall carry it
        let delayed = responses.iter().filter(|r| r.latency >= Duration::from_millis(20)).count();
        assert!(delayed >= 30, "only {delayed} requests show the 60 ms stall");
        let report = LoadReport::from_responses(responses, late, Duration::from_millis(260));
        assert!(report.gen_late_p99 >= Duration::from_millis(40), "{:?}", report.gen_late_p99);
        assert!(report.gen_late_p50 < Duration::from_millis(20), "the generator catches up");
        assert!(report.percentile(99.0) >= report.gen_late_p99);
    }

    #[test]
    fn arrival_schedule_is_pure_and_monotonic() {
        let a = arrival_schedule(42, 1000.0, 256);
        let b = arrival_schedule(42, 1000.0, 256);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // a different seed moves the arrivals
        assert_ne!(a, arrival_schedule(43, 1000.0, 256));
        // a longer run extends the same prefix — consuming more of the
        // stream never rewrites what already arrived
        let longer = arrival_schedule(42, 1000.0, 512);
        assert_eq!(&longer[..256], &a[..]);
    }

    #[test]
    fn request_record_round_trips_on_the_wire() {
        let rec = RequestRecord {
            index: 7,
            arrival_ns: 123_456_789,
            class: SloClass::BestEffort,
            row: 31,
        };
        assert_eq!(RequestRecord::from_bytes(&rec.to_bytes()), Some(rec));
        // short buffers and junk class ranks are rejected, not misparsed
        assert_eq!(RequestRecord::from_bytes(&rec.to_bytes()[..16]), None);
        let mut bad = rec.to_bytes();
        bad[12] = 9;
        assert_eq!(RequestRecord::from_bytes(&bad), None);
    }
}
