//! `mdl-serve` — a concurrent inference-serving runtime for trained
//! `mdl-nn` models, closing the deployment loop of *Deep Learning
//! towards Mobile Applications* (ICDCS 2018): after a model is trained
//! (federated or central), compressed and placed, something has to
//! actually answer requests from a fleet of heterogeneous devices.
//!
//! The runtime combines four mechanisms:
//!
//! * **Versioned registry with atomic hot swap** ([`registry`]) — the
//!   current model lives behind an `Arc`; a swap installs a new version
//!   without interrupting in-flight work, so models can be updated
//!   "without shipping a new app".
//! * **Work-conserving micro-batching** ([`server`]) — a free worker
//!   pulls up to a size cap of same-class, same-shape requests the moment
//!   any are queued: a lone request on an idle pool runs at once, and
//!   matrix batches (amortised matrix-matrix throughput) form by
//!   themselves exactly when every worker is busy.
//! * **Placement-aware routing** ([`router`]) — each request carries a
//!   device/network profile; the `mdl-mobile` cost model decides whether
//!   it should run on-device, in the cloud, or split across both, and
//!   overload sheds cloud-bound work to a local early-exit head.
//! * **Serving metrics and load generation** ([`metrics`], [`loadgen`])
//!   — percentile latency histograms, batch-size distribution and
//!   shed/swap counters, plus deterministic open/closed-loop load for
//!   experiments and regression tests.
//! * **SLO-classed sharded fleet** ([`slo`], [`fleet`]) — every request
//!   carries an [`SloClass`]; a deterministic virtual-time fleet engine
//!   runs per-model replica pools with work stealing and class-ordered
//!   windowed admission over the same per-class backlog and pick rule
//!   the threaded server's workers use (one crate-private `sched`
//!   module), so 10k+ rps scheduling behaviour can be proven
//!   bit-reproducible in tests.
//!
//! ```
//! use mdl_serve::{ClientProfile, DeviceClass, InferenceServer, NetworkClass, ServeConfig};
//! use mdl_nn::{Activation, Dense, Layer, Sequential};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Dense::new(4, 3, Activation::Identity, &mut rng));
//!
//! let server = InferenceServer::start(model, None, ServeConfig::default());
//! let client = server.client();
//! let profile = ClientProfile { device: DeviceClass::Flagship, network: NetworkClass::Wifi };
//! let response = client.submit(&[0.1, 0.2, 0.3, 0.4], profile).unwrap().recv().unwrap();
//! assert_eq!(response.probs.len(), 3);
//! drop(client);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod loadgen;
pub mod metrics;
pub mod registry;
pub mod router;
pub(crate) mod sched;
pub mod server;
pub mod slo;

pub use fleet::{ClassStats, FleetConfig, FleetEngine, FleetReport, RequestOutcome};
pub use loadgen::{
    arrival_schedule, request_stream, run_load, LoadGenConfig, LoadMode, LoadReport, RequestRecord,
};
pub use mdl_net::LinkState;
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use registry::{ModelRegistry, ModelVariant, VersionedModel};
pub use router::{ClientProfile, DeviceClass, NetworkClass, Route, Router};
pub use server::{InferenceResponse, InferenceServer, ServeClient, ServeConfig, SubmitError};
pub use slo::SloClass;
