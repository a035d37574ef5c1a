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
pub mod update;

pub use comm::{CommLedger, TransportMetrics};
pub use fedavg::{
    centralized_reference, evaluate_params, run_federated, run_federated_over, FedConfig, FedRun,
    RoundRecord,
};
pub use model::MlpSpec;
pub use population::{run_population_fedavg, PopulationTask};
pub use scheduler::{AvailabilityModel, DeviceState};
pub use selective::{run_selective_sgd, run_selective_sgd_over, SelectiveConfig, SelectiveRun};
pub use update::{weighted_average, DenseUpdate, QuantizedUpdate, SparseUpdate};

#[cfg(test)]
mod proptests {
    use crate::update::{weighted_average, DenseUpdate, SparseUpdate};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn dense_update_round_trips(
            values in prop::collection::vec(-1e3f32..1e3, 0..64),
            n in 0usize..10_000,
        ) {
            let u = DenseUpdate { values, num_examples: n };
            let decoded = DenseUpdate::decode(&u.encode()).expect("round trip");
            prop_assert_eq!(decoded, u);
        }

        #[test]
        fn decode_never_panics(frame in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = DenseUpdate::decode(&frame);
        }

        #[test]
        fn sparse_selection_is_subset_with_exact_values(
            delta in prop::collection::vec(-10f32..10.0, 1..64),
            frac_pct in 1u32..=100,
        ) {
            let frac = frac_pct as f64 / 100.0;
            let s = SparseUpdate::top_fraction(&delta, frac, 1);
            prop_assert!(!s.entries.is_empty());
            prop_assert!(s.entries.len() <= delta.len());
            for &(i, v) in &s.entries {
                prop_assert_eq!(delta[i as usize], v);
            }
            // entries sorted & unique
            for w in s.entries.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            // kept magnitudes dominate dropped ones
            let kept: Vec<u32> = s.entries.iter().map(|e| e.0).collect();
            let min_kept = s.entries.iter().map(|e| e.1.abs()).fold(f32::MAX, f32::min);
            for (i, &v) in delta.iter().enumerate() {
                if !kept.contains(&(i as u32)) {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }

        #[test]
        fn weighted_average_stays_in_hull(
            a in prop::collection::vec(-5f32..5.0, 4),
            b in prop::collection::vec(-5f32..5.0, 4),
            na in 1usize..100,
            nb in 1usize..100,
        ) {
            let avg = weighted_average(&[
                DenseUpdate { values: a.clone(), num_examples: na },
                DenseUpdate { values: b.clone(), num_examples: nb },
            ]).expect("avg");
            for i in 0..4 {
                let lo = a[i].min(b[i]) - 1e-4;
                let hi = a[i].max(b[i]) + 1e-4;
                prop_assert!(avg[i] >= lo && avg[i] <= hi);
            }
        }
    }
}
