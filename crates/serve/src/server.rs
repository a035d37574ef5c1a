//! The serving runtime: a bounded admission queue and a pool of inference
//! workers that pull their own batches from it and share the current model
//! snapshot behind an `Arc`.
//!
//! Request lifecycle:
//!
//! ```text
//! submit ──router──▶ Local: answered inline (simulated on-device run)
//!                 ─▶ Cloud / Split: bounded queue ─▶ the next free worker
//!                    sorts what was admitted into per-class FIFOs and takes
//!                    ≤ max_batch same-shape jobs of the highest class
//!                 ─▶ backlog too deep: shed to the early-exit fallback
//! ```
//!
//! Work-conserving: a request that finds a worker idle runs at once, alone;
//! batches form only behind busy workers, never on a timer. The backlog and
//! the pick rule are `crate::sched`, which [`crate::fleet`]'s replicas run too.
//!
//! Every batch runs on an [`mdl_nn::Plan`] out of its worker's cache, keyed
//! `(version, entry layer, rows, width)`: layer 0 onwards for [`Route::Cloud`],
//! layer `k` onwards for a [`Route::Split`] whose first `k` layers the client
//! ran inline at submit (a one-shot plan over `..k`). There is no other walk.
//!
//! Hot swap: [`InferenceServer::swap_artifact`] atomically replaces the
//! registry's model. Batches already running finish on the snapshot
//! they grabbed; a batch whose input no longer matches the new
//! architecture at its entry layer is answered job by job on the version
//! each request was admitted under, so in-flight requests are never dropped.

use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::registry::{ModelRegistry, ModelVariant, VersionedModel};
use crate::router::{ClientProfile, Route, Router};
use crate::sched::Backlog;
use crate::slo::SloClass;
use crossbeam::channel::{bounded, Receiver, Sender};
use mdl_compress::CompressedModel;
use mdl_nn::saved::LoadModelError;
use mdl_nn::{Layer, PlanCache, PlanLookup, PlanModel, Sequential};
use mdl_obs::Obs;
use mdl_tensor::stats::softmax_rows;
use mdl_tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Inference worker threads.
    pub workers: usize,
    /// Largest batch a worker will take in one pull.
    pub max_batch: usize,
    /// No longer read — a free worker pulls at once, there is no window — but
    /// frozen in place: `benchmark/src/models.rs` builds `ServeConfig` with a
    /// full struct literal, so only a benchmark PR can remove (or add) a field.
    pub max_wait: Duration,
    /// Capacity of the admission queue; senders block when it is full
    /// (backpressure). Workers hold at most this many more jobs sorted.
    pub queue_capacity: usize,
    /// Depth (every admitted-but-unrun job, queued or already sorted) above
    /// which cloud-bound requests are shed to the early-exit fallback (when
    /// one is installed). This is the [`SloClass::Standard`] threshold;
    /// classed submissions scale it ([`SloClass::shed_depth`]): `BestEffort`
    /// sheds at a quarter of this depth, `Interactive` at four times it.
    pub shed_queue_depth: usize,
    /// GEMM kernel threads for the batch forward pass (`None` keeps the
    /// process default). Workers already run in parallel, so this stays
    /// low unless batches are large; results are bit-identical either way.
    pub kernel_threads: Option<usize>,
    /// Observability session the server records into (`serve.*` counters,
    /// latency/batch histograms and `serve.batch` spans). `None` starts a
    /// private wall-clock session; pass a sim-clock [`Obs`] to get
    /// deterministic latency readouts.
    pub obs: Option<Obs>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_batch: 8,
            max_wait: Duration::ZERO, // unread, see the field
            queue_capacity: 256,
            shed_queue_depth: 64,
            kernel_threads: None,
            obs: None,
        }
    }
}

/// The answer to one inference request.
#[derive(Debug, Clone)]
pub struct InferenceResponse {
    /// Softmax class probabilities.
    pub probs: Vec<f32>,
    /// Index of the most probable class.
    pub argmax: usize,
    /// Model version that produced the answer.
    pub model_version: u64,
    /// The execution path the request took.
    pub route: Route,
    /// SLO class the request was submitted under (`None` for the
    /// unclassed [`ServeClient::submit`] path).
    pub class: Option<SloClass>,
    /// Size of the batch this request was served in (1 for inline paths).
    pub batch_size: usize,
    /// Submit→response latency.
    pub latency: Duration,
}

/// A queued cloud-bound request.
struct Job {
    /// Feature row; raw input for [`Route::Cloud`], the intermediate
    /// representation for [`Route::Split`].
    input: Vec<f32>,
    /// First layer the server must run.
    entry_layer: usize,
    /// Model version the request was admitted under.
    pinned: Arc<VersionedModel>,
    route: Route,
    /// SLO class (`None` for the legacy unclassed submit path, which
    /// queues and sheds like [`SloClass::Standard`]).
    class: Option<SloClass>,
    resp: Sender<InferenceResponse>,
    /// Admission time on the observability clock.
    submitted_ns: u64,
}

impl Job {
    /// Only identical shapes can share a batch matrix.
    fn shape(&self) -> (usize, usize) {
        (self.entry_layer, self.input.len())
    }
}

struct Shared {
    registry: ModelRegistry,
    router: Router,
    obs: Obs,
    metrics: ServerMetrics,
    /// Early-exit model (raw input → class scores) used for shedding.
    fallback: Option<Sequential>,
    config: ServeConfig,
    /// Jobs pulled off the admission channel and not yet run (unclassed at
    /// Standard). Locked to pull and pick, and by an idle worker awaiting the
    /// next arrival — never while a batch runs.
    backlog: Mutex<Backlog<Job>>,
    /// Jobs in `backlog`, readable without its lock.
    pulled: AtomicUsize,
}

impl Shared {
    /// Every admitted-but-unrun job: `in_channel` still on the admission
    /// channel plus those pulled into the backlog. Shedding and the
    /// `serve.queue_depth` gauge both read depth here and nowhere else.
    fn depth(&self, in_channel: usize) -> usize {
        // Relaxed: a statistic that publishes no other data
        let depth = in_channel + self.pulled.load(Ordering::Relaxed);
        self.metrics.set_queue_depth(depth);
        depth
    }
}

/// One answer on its way out; [`ServeClient::deliver`] books it and sends it.
struct Reply<'a> {
    resp: &'a Sender<InferenceResponse>,
    probs: &'a [f32],
    argmax: usize,
    model_version: u64,
    route: Route,
    class: Option<SloClass>,
    batch_size: usize,
    submitted_ns: u64,
}

/// Error returned by [`ServeClient::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The server has shut down.
    Shutdown,
    /// The input row does not match the current model's input width
    /// (e.g. a hot swap changed the architecture).
    WidthMismatch {
        /// Input width of the current model.
        expected: usize,
        /// Width of the submitted row.
        found: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shutdown => write!(f, "inference server has shut down"),
            Self::WidthMismatch { expected, found } => {
                write!(f, "input has {found} features, current model expects {expected}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A handle for submitting requests; clone freely across threads.
pub struct ServeClient {
    jobs: Sender<Job>,
    shared: Arc<Shared>,
}

impl Clone for ServeClient {
    fn clone(&self) -> Self {
        Self { jobs: self.jobs.clone(), shared: Arc::clone(&self.shared) }
    }
}

impl ServeClient {
    /// Submits one example (a feature row of the model's input width) and
    /// returns a receiver that yields the [`InferenceResponse`].
    ///
    /// Routing happens at admission: locally-placed requests are answered
    /// inline, cloud-bound requests enter the batching queue (blocking
    /// when it is full), and over the shed threshold cloud-bound requests
    /// are answered by the early-exit fallback instead.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Shutdown`] once the server's workers have exited,
    /// or [`SubmitError::WidthMismatch`] when the row does not fit the
    /// current model (a hot swap may have changed the input width).
    pub fn submit(
        &self,
        input: &[f32],
        profile: ClientProfile,
    ) -> Result<Receiver<InferenceResponse>, SubmitError> {
        self.submit_inner(input, profile, None)
    }

    /// Submits one example under an explicit [`SloClass`].
    ///
    /// Classed admission replaces the blanket shed threshold with a
    /// strictly class-ordered one (see [`SloClass::shed_depth`]): as the
    /// queue deepens, `BestEffort` requests shed first, `Standard` at the
    /// configured depth, and `Interactive` holds out four times longer.
    /// A free worker also takes its next batch from the highest waiting
    /// class, so interactive work overtakes best-effort work that is
    /// still waiting for a worker.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServeClient::submit`].
    pub fn submit_classed(
        &self,
        input: &[f32],
        profile: ClientProfile,
        class: SloClass,
    ) -> Result<Receiver<InferenceResponse>, SubmitError> {
        self.submit_inner(input, profile, Some(class))
    }

    fn submit_inner(
        &self,
        input: &[f32],
        profile: ClientProfile,
        class: Option<SloClass>,
    ) -> Result<Receiver<InferenceResponse>, SubmitError> {
        let submitted_ns = self.shared.metrics.now_ns();
        let snapshot = self.shared.registry.current();
        let expected = snapshot.model.input_dim();
        if input.len() != expected {
            return Err(SubmitError::WidthMismatch { expected, found: input.len() });
        }
        let route = self.shared.router.decide(&snapshot, profile);
        let (resp_tx, resp_rx) = bounded(1);
        let model_version = snapshot.version;
        // Every answer that never queues: one row's scores, a batch of one.
        let answer_inline = |scores: Matrix, route: Route| {
            let probs = softmax_rows(&scores);
            if route == Route::Local {
                self.shared.metrics.record_local();
            }
            let reply = Reply {
                resp: &resp_tx,
                probs: probs.row(0),
                argmax: probs.argmax_rows()[0],
                model_version,
                route,
                class,
                batch_size: 1,
                submitted_ns,
            };
            Self::deliver(&self.shared, reply);
        };

        let depth = self.shared.depth(self.jobs.len());
        let cloud_bound = matches!(route, Route::Cloud | Route::Split { .. });

        // Overload: answer immediately from the local early-exit head.
        // The threshold is class-ordered — best-effort traffic sheds at a
        // quarter of the configured depth, interactive at four times it —
        // so pressure always evicts the lowest class first.
        let shed_depth =
            class.unwrap_or(SloClass::Standard).shed_depth(self.shared.config.shed_queue_depth);
        if cloud_bound && depth >= shed_depth {
            if let Some(fallback) = &self.shared.fallback {
                answer_inline(fallback.forward_eval(&Matrix::row_vector(input)), Route::EarlyExit);
                return Ok(resp_rx);
            }
        }

        let (entry_layer, row) = match route {
            // Simulated on-device execution: full model, no queueing.
            Route::Local => {
                answer_inline(snapshot.model.forward_eval(&Matrix::row_vector(input)), route);
                return Ok(resp_rx);
            }
            Route::Cloud => (0, input.to_vec()),
            Route::Split { local_layers } => match snapshot.model.as_f32() {
                // Device-side trunk runs inline; the representation ships.
                Some(seq) => {
                    let x = Matrix::row_vector(input);
                    (local_layers, seq.forward_eval_range(&x, 0..local_layers).row(0).to_vec())
                }
                // The router never splits an int8 snapshot; if one appears
                // here anyway, serve the whole model inline rather than
                // failing the request.
                None => {
                    answer_inline(
                        snapshot.model.forward_eval(&Matrix::row_vector(input)),
                        Route::Local,
                    );
                    return Ok(resp_rx);
                }
            },
            Route::EarlyExit => unreachable!("router never emits EarlyExit"),
        };
        let job = Job {
            input: row,
            entry_layer,
            pinned: snapshot,
            route,
            class,
            resp: resp_tx,
            submitted_ns,
        };
        self.jobs.send(job).map_err(|_| SubmitError::Shutdown)?;
        Ok(resp_rx)
    }

    fn deliver(shared: &Shared, reply: Reply<'_>) {
        let Reply { resp, probs, argmax, model_version, route, class, batch_size, submitted_ns } =
            reply;
        let latency = Duration::from_nanos(shared.metrics.now_ns().saturating_sub(submitted_ns));
        if route == Route::EarlyExit {
            // Shed answers are bookkept apart: their microsecond inline
            // latency must never pollute the served histogram.
            shared.metrics.record_shed(latency);
            if let Some(class) = class {
                shared.metrics.record_class_shed(class);
            }
        } else {
            shared.metrics.record_completed(latency);
            if let Some(class) = class {
                shared.metrics.record_class_completed(class, latency);
            }
        }
        let response = InferenceResponse {
            argmax,
            probs: probs.to_vec(),
            model_version,
            route,
            class,
            batch_size,
            latency,
        };
        // the requester may have given up; that is not the server's error
        let _ = resp.send(response);
    }
}

/// Blocks until there is work and returns this worker's next batch; `None`
/// once all clients and the server handle are gone and the queue is drained.
fn next_batch(jobs: &Receiver<Job>, shared: &Shared) -> Option<Vec<Job>> {
    let class = |job: &Job| job.class.unwrap_or(SloClass::Standard);
    let mut backlog = shared.backlog.lock().expect("no batch runs under the backlog lock");
    if backlog.len() == 0 {
        // Wait for the next arrival *holding* the lock: other workers queue
        // up behind this one instead of pulling aside jobs it would not see.
        let job = jobs.recv().ok()?;
        backlog.push(class(&job), job);
    }
    // Sort in everything else admitted so the pick sees every class; the
    // cap keeps `queue_capacity` a bound on memory.
    while backlog.len() < shared.config.queue_capacity {
        let Ok(job) = jobs.try_recv() else { break };
        backlog.push(class(&job), job);
    }
    let batch = backlog.take_batch(shared.config.max_batch.max(1), Job::shape);
    // Relaxed: written only under this lock, read as a statistic
    shared.pulled.store(backlog.len(), Ordering::Relaxed);
    shared.depth(jobs.len());
    shared.metrics.record_batch(batch.len());
    Some(batch)
}

/// Worker-local plan-cache capacity. When exceeded, entries for versions
/// other than the current (and pinned rollback) version are evicted —
/// per-version keying means a hot swap invalidates exactly the swapped
/// version's plans and nothing else — and if none is, the cache starts over.
pub(crate) const PLAN_CACHE_CAP: usize = 32;

fn plan_model(model: &ModelVariant) -> PlanModel<'_> {
    match model {
        ModelVariant::F32(m) => PlanModel::F32(m),
        ModelVariant::Int8(m) => PlanModel::Int8(m),
    }
}

/// Runs `x` through layers `entry_layer..` of `model` on the worker's cached
/// execution plan for `(version, entry layer, shape)`, compiling one on first
/// sight (see [`mdl_nn::PlanCache`]), and leaves the scores in `out`.
fn run_planned(
    plans: &mut PlanCache,
    out: &mut Matrix,
    model: &VersionedModel,
    entry_layer: usize,
    x: &Matrix,
    shared: &Shared,
) {
    let pinned = shared.registry.pinned_version();
    let lookup = plans
        .run(model.version, plan_model(&model.model), entry_layer, x, out, |v| Some(v) == pinned);
    match lookup {
        PlanLookup::Hit => shared.metrics.record_plan_hit(),
        PlanLookup::Compiled(stats) => shared.metrics.record_plan_miss(stats),
    }
}

fn worker_loop(jobs: Receiver<Job>, shared: Arc<Shared>) {
    // Plans are worker-local: no locking, and each worker converges on the
    // few (version, entry layer, batch shape) keys its batches actually
    // repeat — zero-alloc and kernel-fused wherever the model's layers have
    // arena ops, one `forward_eval` per batch for a layer that has none.
    let mut plans = PlanCache::new(PLAN_CACHE_CAP);
    let mut scores = Matrix::default();
    while let Some(batch) = next_batch(&jobs, &shared) {
        let _span = shared.obs.root_span("serve.batch");
        let (entry_layer, width) = batch[0].shape();
        let snapshot = shared.registry.current();
        // A swap may have changed the architecture (or precision) after
        // the client ran its trunk; serve on the current model only when
        // the entry layer still accepts this width. Mid-network resume
        // additionally requires the current snapshot to be f32 — an int8
        // model has no layer-boundary f32 representation to resume from.
        let compatible = if entry_layer == 0 {
            snapshot.model.input_dim() == width
        } else {
            snapshot
                .model
                .as_f32()
                .and_then(|m| m.layers().get(entry_layer))
                .map(|l| l.info().in_dim == width)
                .unwrap_or(false)
        };
        // If not, every request finishes alone on the version it was admitted
        // under: the same run, over batches of one.
        for chunk in batch.chunks(if compatible { batch.len() } else { 1 }) {
            let model = if compatible { &snapshot } else { &chunk[0].pinned };
            let x = Matrix::from_fn(chunk.len(), width, |r, c| chunk[r].input[c]);
            run_planned(&mut plans, &mut scores, model, entry_layer, &x, &shared);
            let probs = softmax_rows(&scores);
            for ((r, job), argmax) in chunk.iter().enumerate().zip(probs.argmax_rows()) {
                let reply = Reply {
                    resp: &job.resp,
                    probs: probs.row(r),
                    argmax,
                    model_version: model.version,
                    route: job.route,
                    class: job.class,
                    batch_size: chunk.len(),
                    submitted_ns: job.submitted_ns,
                };
                ServeClient::deliver(&shared, reply);
            }
        }
    }
}

/// A running inference server.
///
/// Threads exit when every [`ServeClient`] and the server handle itself
/// are dropped; [`InferenceServer::shutdown`] joins them explicitly
/// (drop all clients first or it will wait for them).
pub struct InferenceServer {
    shared: Arc<Shared>,
    jobs_tx: Option<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
    /// Start time on the observability clock (throughput window origin).
    started_ns: u64,
}

impl InferenceServer {
    /// Starts the workers around an initial model (f32
    /// [`Sequential`] or int8 [`mdl_nn::QuantizedModel`]). `fallback` is the
    /// optional early-exit network used for load shedding; without one,
    /// overload falls back to queue backpressure only.
    pub fn start(
        model: impl Into<ModelVariant>,
        fallback: Option<Sequential>,
        config: ServeConfig,
    ) -> Self {
        if let Some(t) = config.kernel_threads {
            mdl_tensor::kernel::set_threads(t);
        }
        let obs = config.obs.clone().unwrap_or_else(Obs::wall);
        let metrics = ServerMetrics::new(&obs);
        let shared = Arc::new(Shared {
            registry: ModelRegistry::new(model),
            router: Router::new(),
            obs,
            metrics,
            fallback,
            config,
            backlog: Mutex::default(),
            pulled: AtomicUsize::new(0),
        });
        let (jobs_tx, jobs_rx) = bounded(shared.config.queue_capacity);
        let threads = (0..shared.config.workers.max(1))
            .map(|_| {
                let (rx, shared) = (jobs_rx.clone(), Arc::clone(&shared));
                std::thread::spawn(move || worker_loop(rx, shared))
            })
            .collect();
        let started_ns = shared.metrics.now_ns();
        Self { shared, jobs_tx: Some(jobs_tx), threads, started_ns }
    }

    /// Starts a server from a saved artifact (see [`mdl_nn::saved`]).
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`LoadModelError`] for malformed bytes.
    pub fn from_artifact(
        bytes: &[u8],
        fallback: Option<Sequential>,
        config: ServeConfig,
    ) -> Result<Self, LoadModelError> {
        use mdl_nn::saved::load_model;
        Ok(Self::start(load_model(bytes)?, fallback, config))
    }

    /// A new submission handle.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            jobs: self.jobs_tx.as_ref().expect("server running").clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Atomically swaps in a new model from a saved artifact; in-flight
    /// requests complete on the version they were admitted under.
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`LoadModelError`]; the current model stays.
    pub fn swap_artifact(&self, bytes: &[u8]) -> Result<u64, LoadModelError> {
        let version = self.shared.registry.swap_bytes(bytes)?;
        self.shared.metrics.record_swap();
        Ok(version)
    }

    /// Atomically swaps in an already-built model of either precision —
    /// hot-swapping between the f32 and int8 variants of the same model
    /// is an ordinary swap.
    pub fn swap_model(&self, model: impl Into<ModelVariant>) -> u64 {
        let version = self.shared.registry.swap(model);
        self.shared.metrics.record_swap();
        version
    }

    /// Lowers a `mdl_compress::quantize` artifact straight onto the int8
    /// execution path and swaps it in — the artifact's codebook levels
    /// requantize per channel without ever materializing f32 weights.
    pub fn swap_compressed(&self, artifact: &CompressedModel) -> u64 {
        let version = self.shared.registry.swap_compressed(artifact);
        self.shared.metrics.record_swap();
        version
    }

    /// Precision of the currently served model (`"f32"` or `"int8"`).
    pub fn precision(&self) -> &'static str {
        self.shared.registry.current().model.precision()
    }

    /// Pins the current version as the rollback target for
    /// [`InferenceServer::rollback`], returning its version number.
    pub fn pin_current(&self) -> u64 {
        self.shared.registry.pin_current()
    }

    /// Version number of the pinned rollback target, if any.
    pub fn pinned_version(&self) -> Option<u64> {
        self.shared.registry.pinned_version()
    }

    /// Atomically restores the pinned version (see
    /// [`crate::ModelRegistry::rollback_to_pin`]); in-flight requests
    /// complete on the version they were admitted under. Returns the
    /// restored version number, or `None` when nothing is pinned.
    pub fn rollback(&self) -> Option<u64> {
        let version = self.shared.registry.rollback_to_pin()?;
        self.shared.metrics.record_revert();
        Some(version)
    }

    /// Current model version.
    pub fn version(&self) -> u64 {
        self.shared.registry.version()
    }

    /// Number of completed hot swaps.
    pub fn swap_count(&self) -> u64 {
        self.shared.registry.swap_count()
    }

    /// Number of completed rollbacks to a pinned version.
    pub fn revert_count(&self) -> u64 {
        self.shared.registry.revert_count()
    }

    /// Metrics snapshot; throughput is measured since server start on the
    /// observability clock.
    pub fn metrics(&self) -> MetricsSnapshot {
        let elapsed =
            Duration::from_nanos(self.shared.metrics.now_ns().saturating_sub(self.started_ns));
        self.shared.metrics.snapshot(elapsed)
    }

    /// The observability session this server records into (the one passed
    /// via [`ServeConfig::obs`], or the private session created at start).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Stops accepting work and joins all threads. Every [`ServeClient`]
    /// must be dropped first; in-flight requests are answered before the
    /// threads exit.
    pub fn shutdown(mut self) {
        self.jobs_tx = None;
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{DeviceClass, NetworkClass};
    use mdl_nn::{Activation, Dense};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Big enough (~9.6M MACs) that a wearable on Wi-Fi offloads to the
    /// cloud: on-device would cost ~48ms against ~20ms of radio latency.
    fn cloud_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
        net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
        net.push(Dense::new(3072, 4, Activation::Identity, &mut rng));
        net
    }

    fn cloud_profile() -> ClientProfile {
        ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi }
    }

    #[test]
    fn single_request_round_trip() {
        let server = InferenceServer::start(cloud_model(1), None, ServeConfig::default());
        let client = server.client();
        let rx = client.submit(&[0.5; 32], cloud_profile()).expect("server up");
        let resp = rx.recv().expect("answered");
        assert_eq!(resp.probs.len(), 4);
        assert!((resp.probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(resp.model_version, 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn offline_requests_run_local_and_skip_the_queue() {
        let server = InferenceServer::start(cloud_model(2), None, ServeConfig::default());
        let client = server.client();
        let profile =
            ClientProfile { device: DeviceClass::Flagship, network: NetworkClass::Offline };
        let resp = client.submit(&[0.1; 32], profile).unwrap().recv().unwrap();
        assert_eq!(resp.route, Route::Local);
        assert_eq!(resp.batch_size, 1);
        let snap = server.metrics();
        assert_eq!(snap.local, 1);
        assert_eq!(snap.batches, 0, "local requests never reach the worker pool");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn responses_match_direct_model_output() {
        let reference = cloud_model(3);
        let server = InferenceServer::start(cloud_model(3), None, ServeConfig::default());
        let client = server.client();
        let input: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        let resp = client.submit(&input, cloud_profile()).unwrap().recv().unwrap();
        let direct = reference.predict_proba(&Matrix::row_vector(&input));
        for (a, b) in resp.probs.iter().zip(direct.row(0)) {
            assert!((a - b).abs() < 1e-6, "served {a} vs direct {b}");
        }
        assert_eq!(
            resp.argmax,
            direct.row(0).iter().enumerate().fold(0, |m, (i, &v)| {
                if v > direct.row(0)[m] {
                    i
                } else {
                    m
                }
            })
        );
        drop(client);
        server.shutdown();
    }

    #[test]
    fn hot_swap_changes_served_version() {
        let server = InferenceServer::start(cloud_model(4), None, ServeConfig::default());
        let client = server.client();
        let v1 = client.submit(&[0.2; 32], cloud_profile()).unwrap().recv().unwrap();
        assert_eq!(v1.model_version, 1);
        assert_eq!(server.swap_model(cloud_model(5)), 2);
        let v2 = client.submit(&[0.2; 32], cloud_profile()).unwrap().recv().unwrap();
        assert_eq!(v2.model_version, 2);
        assert_eq!(server.swap_count(), 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn shedding_is_class_ordered() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut fallback = Sequential::new();
        fallback.push(Dense::new(32, 4, Activation::Identity, &mut rng));
        // Standard depth 1 ⇒ BestEffort threshold 0 (sheds immediately)
        // while Interactive holds to depth 4: the same queue state sheds
        // one class and serves the other.
        let config = ServeConfig { shed_queue_depth: 1, ..Default::default() };
        let server = InferenceServer::start(cloud_model(7), Some(fallback), config);
        let client = server.client();

        let be = client
            .submit_classed(&[0.4; 32], cloud_profile(), SloClass::BestEffort)
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(be.route, Route::EarlyExit, "best-effort sheds at depth 0");
        assert_eq!(be.class, Some(SloClass::BestEffort));

        let it = client
            .submit_classed(&[0.4; 32], cloud_profile(), SloClass::Interactive)
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(it.route, Route::Cloud, "interactive rides out the same depth");
        assert_eq!(it.class, Some(SloClass::Interactive));

        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("serve.class.best_effort.shed"), Some(1));
        assert_eq!(snap.counter("serve.class.interactive.completed"), Some(1));
        assert_eq!(snap.counter("serve.class.interactive.shed"), None, "lazy + never shed");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn shedding_uses_fallback_when_queue_is_deep() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut fallback = Sequential::new();
        fallback.push(Dense::new(32, 4, Activation::Identity, &mut rng));
        // shed_queue_depth 0: every cloud-bound request sheds
        let config = ServeConfig { shed_queue_depth: 0, ..Default::default() };
        let server = InferenceServer::start(cloud_model(6), Some(fallback), config);
        let client = server.client();
        let resp = client.submit(&[0.3; 32], cloud_profile()).unwrap().recv().unwrap();
        assert_eq!(resp.route, Route::EarlyExit);
        let snap = server.metrics();
        assert_eq!(snap.shed, 1);
        assert!(snap.shed_rate() > 0.99);
        drop(client);
        server.shutdown();
    }
}
