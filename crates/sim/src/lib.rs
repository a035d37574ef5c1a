//! # mdl-sim
//!
//! Event-driven, population-scale federated simulation (§II-B at
//! deployment scale). The legacy federated loop holds every client's
//! dataset, RNG and link in memory — fine for 10 clients, hopeless for
//! the 100k-device populations the paper's deployment story assumes.
//! `mdl-sim` restructures the simulation around four ideas:
//!
//! * **virtual time** — a deterministic [`EventQueue`] schedules round
//!   starts, update arrivals and round ends; the `mdl-obs` sim clock
//!   advances event by event, so timestamps are a pure function of seeds;
//! * **compact availability state** — each client is 65 bytes of
//!   lazily-advanced ON/OFF renewal chains ([`Population`]) built from
//!   `mdl-mobile` [`AvailabilityProfile`](mdl_mobile::AvailabilityProfile)
//!   dwell parameters, gating eligibility (idle ∧ charging ∧ unmetered);
//!   a scan reads 9 of them unless a chain is due to flip;
//! * **stateless keyed draws** — cohort sampling ([`sample_cohort`]),
//!   fault fates, link jitter and training seeds all hash
//!   `(seed, round, client id)`, so no RNG stream ever needs aligning
//!   across cohorts of different sizes;
//! * **streaming aggregation** — a round's survivors are trained by one
//!   worker per core, each folding updates into its own fixed-point
//!   [`ShardedAggregator`]; the partials merge with integer adds, so the
//!   mean is bit-identical for any worker count, split or accumulation
//!   order, in O(workers × dim) memory.
//!
//! [`run_population`] composes all four into the population engine;
//! [`run_legacy_loop`] drives the classic fixed-cohort loop with the
//! exact RNG consumption of the original implementation, so the
//! federated crate's public API is now a thin adapter over this crate.
//! Both engines' uploads travel as [`Update`] frames.
//!
//! ```
//! use mdl_sim::{
//!     run_population, CohortSpec, Population, PopulationSpec, SimConfig,
//! };
//!
//! let mut pop = Population::new(PopulationSpec::mobile_mix(2_000, 7));
//! let cfg = SimConfig {
//!     rounds: 2,
//!     cohort: CohortSpec { fraction: 0.05, min_size: 4, max_size: 64 },
//!     seed: 42,
//!     ..SimConfig::default()
//! };
//! let trainer = (
//!     |_client: u64| 20u64,
//!     |_client: u64, _seed: u64, global: &[f32]| {
//!         global.iter().map(|g| g + 0.01).collect::<Vec<f32>>()
//!     },
//! );
//! let report = run_population(&cfg, &mut pop, vec![0.0; 8], &trainer, None).unwrap();
//! assert_eq!(report.rounds.len(), 2);
//! assert!(report.sim_clock_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cohort;
pub mod engine;
pub mod event;
pub mod population;
pub mod seed;
pub mod update;

pub use aggregate::{BufferedAggregator, ShardedAggregator};
pub use cohort::{sample_cohort, CohortSpec};
pub use engine::{
    run_legacy_loop, run_population, ClientTrainer, LegacyConfig, PopulationReport, RoundOutcome,
    SimConfig, SimError, Topology,
};
pub use event::EventQueue;
pub use population::{ClientClass, Population, PopulationSpec};
pub use seed::{keyed_hash, SeedStream};
pub use update::{dense_len, quantized_len, sparse_len, FrameError, Payload, Update};

#[cfg(test)]
mod proptests {
    use crate::cohort::{sample_cohort, CohortSpec};
    use crate::update::{dense_len, quantized_len, sparse_len, Payload, Update};
    use crate::ShardedAggregator;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Cohort sampling: deterministic per seed, duplicate-free, sized
        // within bounds, independent of eligible-list order.
        #[test]
        fn cohorts_are_deterministic_unique_and_bounded(
            seed in any::<u64>(),
            round in 1usize..100,
            n in 0u64..2_000,
            fraction in 0.0f64..1.0,
            min in 1usize..32,
            extra in 0usize..64,
        ) {
            let spec = CohortSpec { fraction, min_size: min, max_size: min + extra };
            let eligible: Vec<u64> = (0..n).map(|i| i * 7 + 3).collect();
            let cohort = sample_cohort(&eligible, &spec, seed, round);
            prop_assert_eq!(cohort.clone(), sample_cohort(&eligible, &spec, seed, round));
            let mut shuffled = eligible.clone();
            shuffled.reverse();
            prop_assert_eq!(cohort.clone(), sample_cohort(&shuffled, &spec, seed, round));
            let mut unique = cohort.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), cohort.len(), "no duplicates");
            prop_assert_eq!(cohort.len(), spec.target(eligible.len()));
            prop_assert!(cohort.len() <= eligible.len());
            prop_assert!(cohort.iter().all(|id| eligible.contains(id)));
        }

        // The sharded streaming mean is bit-identical for 1 vs 8 shards,
        // whatever the updates look like.
        #[test]
        fn sharded_mean_is_shard_invariant(
            seed in any::<u64>(),
            updates in 1usize..40,
            dim in 1usize..24,
        ) {
            let mut stream = crate::SeedStream::new(seed, 0, 0);
            let batch: Vec<(Vec<f32>, u64)> = (0..updates)
                .map(|_| {
                    let values: Vec<f32> = (0..dim)
                        .map(|_| (stream.next_f64() as f32 - 0.5) * 20.0)
                        .collect();
                    (values, 1 + stream.next_u64() % 1000)
                })
                .collect();
            let fold = |shards: usize| {
                let mut agg = ShardedAggregator::new(dim, shards);
                for (i, (values, n)) in batch.iter().enumerate() {
                    agg.accumulate(i, values, *n);
                }
                agg.mean()
            };
            prop_assert_eq!(fold(1), fold(8));
        }

        // decode ∘ encode is the identity for each update kind, and each
        // frame is exactly as long as its length function says
        #[test]
        fn dense_update_round_trips(
            values in prop::collection::vec(-1e3f32..1e3, 0..64),
            n in any::<u32>(),
        ) {
            let u = Update::dense(values, n);
            let frame = u.encode();
            prop_assert_eq!(frame.len() as u64, dense_len(u.dim()));
            prop_assert_eq!(Update::decode(&frame), Ok(u));
        }

        #[test]
        fn sparse_update_round_trips(
            delta in prop::collection::vec(-10f32..10.0, 1..64),
            frac_pct in 1u32..=100,
            n in any::<u32>(),
        ) {
            let u = Update::top_fraction(&delta, frac_pct as f64 / 100.0, n);
            let Payload::Sparse { entries, .. } = &u.payload else { unreachable!() };
            let frame = u.encode();
            prop_assert_eq!(frame.len() as u64, sparse_len(entries.len()));
            prop_assert_eq!(Update::decode(&frame), Ok(u));
        }

        #[test]
        fn quantized_update_round_trips(
            values in prop::collection::vec(-1e3f32..1e3, 0..64),
            n in any::<u32>(),
        ) {
            let u = Update::quantize(&values, n);
            let frame = u.encode();
            prop_assert_eq!(frame.len() as u64, quantized_len(values.len()));
            prop_assert_eq!(Update::decode(&frame), Ok(u));
        }

        #[test]
        fn decode_never_panics(frame in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = Update::decode(&frame);
        }

        #[test]
        fn sparse_selection_is_subset_with_exact_values(
            delta in prop::collection::vec(-10f32..10.0, 1..64),
            frac_pct in 1u32..=100,
        ) {
            let s = Update::top_fraction(&delta, frac_pct as f64 / 100.0, 1);
            let Payload::Sparse { entries, .. } = &s.payload else { unreachable!() };
            prop_assert!(!entries.is_empty());
            prop_assert!(entries.len() <= delta.len());
            for &(i, v) in entries {
                prop_assert_eq!(delta[i as usize], v);
            }
            // entries sorted & unique
            for w in entries.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            // kept magnitudes dominate dropped ones
            let kept: Vec<u32> = entries.iter().map(|e| e.0).collect();
            let min_kept = entries.iter().map(|e| e.1.abs()).fold(f32::MAX, f32::min);
            for (i, &v) in delta.iter().enumerate() {
                if !kept.contains(&(i as u32)) {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }
    }
}
