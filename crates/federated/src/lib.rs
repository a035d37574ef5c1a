//! # mdl-federated
//!
//! Training-side systems of the paper (§II): simulations of
//!
//! - **distributed selective SGD** ([`selective`], Fig. 1 / reference [16]):
//!   participants upload only the largest-magnitude θ-fraction of gradients;
//! - **federated SGD / federated averaging** ([`fedavg`], references
//!   [17], [18]): weighted model averaging with `E` local epochs, including
//!   the idle+charging+Wi-Fi eligibility policy ([`scheduler`]);
//! - transport framing and byte accounting ([`update`], [`comm`]) so every
//!   experiment can report communication costs.
//!
//! Both simulations can also run over the `mdl-net` faulty-transport
//! fabric ([`run_federated_over`], [`run_selective_sgd_over`]): dropouts,
//! stragglers, partitions and packet loss with retries, per-round
//! deadlines and quorum aggregation — all seeded and bit-reproducible.
//!
//! # Examples
//!
//! ```
//! use mdl_federated::{MlpSpec, FedConfig, run_federated, AvailabilityModel};
//! use mdl_data::synthetic::gaussian_blobs;
//! use mdl_data::partition::{partition_dataset, Partition};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = gaussian_blobs(200, 2, 0.4, &mut rng);
//! let (train, test) = data.split(0.8, &mut rng);
//! let clients = partition_dataset(&train, 4, Partition::Iid, &mut rng);
//! let spec = MlpSpec::new(vec![2, 8, 2], 1);
//! let avail = AvailabilityModel::always_available(4);
//! let cfg = FedConfig { rounds: 3, ..Default::default() };
//! let run = run_federated(&spec, &clients, &test, &cfg, &avail, &mut rng);
//! assert_eq!(run.history.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod comm;
pub mod fedavg;
pub mod model;
pub mod population;
pub mod scheduler;
pub mod selective;

pub use comm::{CommLedger, TransportMetrics};
pub use fedavg::{
    centralized_reference, evaluate_params, run_federated, run_federated_over, FedConfig, FedRun,
    RoundRecord,
};
pub use mdl_sim::update::{self, Update};
pub use model::MlpSpec;
pub use population::{run_population_fedavg, PopulationTask};
pub use scheduler::{AvailabilityModel, DeviceState};
pub use selective::{run_selective_sgd, run_selective_sgd_over, SelectiveConfig, SelectiveRun};
