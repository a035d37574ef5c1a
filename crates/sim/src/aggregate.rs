//! Streaming FedAvg aggregation in O(shards × dim) memory.
//!
//! Two aggregators with different contracts:
//!
//! * [`BufferedAggregator`] replicates the float arithmetic of the
//!   original FedAvg loop *operation for operation* — the adapter that
//!   rewires the classic 10-client loop through the engine uses it to
//!   stay bit-identical with history.
//! * [`ShardedAggregator`] accumulates updates into fixed-point `i128`
//!   shard accumulators. Integer addition is associative and commutative,
//!   so the final mean is **bit-identical for any shard count, any
//!   accumulation order, and any split over partial aggregators that are
//!   [`merge`](ShardedAggregator::merge)d afterwards** — the property
//!   tests pin all three to the bit. This is the population-scale path:
//!   each training worker streams its clients' updates into its own
//!   aggregator and drops them immediately; nothing is ever buffered per
//!   client.

/// Buffers `(values, n_k)` pairs and averages them with exactly the float
/// arithmetic of the original FedAvg loop: `w = (n_k / Σn) as f32`,
/// accumulated per update in insertion order.
#[derive(Debug, Default)]
pub struct BufferedAggregator {
    updates: Vec<(Vec<f32>, u64)>,
}

impl BufferedAggregator {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one update.
    pub fn push(&mut self, values: Vec<f32>, num_examples: u64) {
        self.updates.push((values, num_examples));
    }

    /// Updates buffered so far.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The weighted mean, or `None` on an empty buffer, mismatched
    /// dimensions, or zero total weight — the exact legacy contract.
    pub fn mean(&self) -> Option<Vec<f32>> {
        let (first, _) = self.updates.first()?;
        let dim = first.len();
        if self.updates.iter().any(|(v, _)| v.len() != dim) {
            return None;
        }
        let total: f64 = self.updates.iter().map(|&(_, n)| n as f64).sum();
        if total == 0.0 {
            return None;
        }
        let mut out = vec![0.0f32; dim];
        for (values, n) in &self.updates {
            let w = (*n as f64 / total) as f32;
            for (o, &v) in out.iter_mut().zip(values.iter()) {
                *o += w * v;
            }
        }
        Some(out)
    }
}

/// Fixed-point scale: 24 fractional bits. Parameters live in roughly
/// `[-10^3, 10^3]`, so a scaled value fits in ~2^34; weighted by
/// `n_k ≤ 2^32` and summed over 2^20 clients the accumulator stays under
/// 2^86 — far inside `i128`.
const SCALE: f64 = (1u64 << 24) as f64;

#[derive(Debug, Clone)]
struct Shard {
    acc: Vec<i128>,
    weight: u128,
    updates: u64,
}

/// Order- and shard-count-invariant streaming aggregator.
#[derive(Debug, Clone)]
pub struct ShardedAggregator {
    dim: usize,
    shards: Vec<Shard>,
}

impl ShardedAggregator {
    /// `shards` independent accumulators over `dim`-dimensional updates
    /// (`shards` is clamped to at least 1).
    pub fn new(dim: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self { dim, shards: vec![Shard { acc: vec![0; dim], weight: 0, updates: 0 }; shards] }
    }

    /// Number of shard accumulators.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Updates accumulated across all shards.
    pub fn updates(&self) -> u64 {
        self.shards.iter().map(|s| s.updates).sum()
    }

    /// Streams one update into `shard` (wrapped modulo the shard count).
    /// Returns `false` — accumulating nothing — on a dimension mismatch.
    pub fn accumulate(&mut self, shard: usize, values: &[f32], num_examples: u64) -> bool {
        if values.len() != self.dim {
            return false;
        }
        let slot = shard % self.shards.len();
        let shard = &mut self.shards[slot];
        let n = num_examples as i128;
        for (a, &v) in shard.acc.iter_mut().zip(values.iter()) {
            *a += n * (v as f64 * SCALE).round() as i128;
        }
        shard.weight += num_examples as u128;
        shard.updates += 1;
        true
    }

    /// Folds everything `other` accumulated into `self`, as if each of its
    /// updates had been streamed here: the sums are integers, so merging
    /// partial aggregators in any order and any grouping gives the same
    /// [`mean`](Self::mean) bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when the two aggregate different dimensions.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.dim, other.dim, "merging aggregators of different dimensions");
        let into = &mut self.shards[0];
        for shard in &other.shards {
            for (a, &b) in into.acc.iter_mut().zip(&shard.acc) {
                *a += b;
            }
            into.weight += shard.weight;
            into.updates += shard.updates;
        }
    }

    /// The weighted mean over everything streamed in, or `None` when the
    /// total weight is zero. Shard totals are reduced with integer adds,
    /// so the result is independent of how updates were split across
    /// shards and of the order they arrived in.
    pub fn mean(&self) -> Option<Vec<f32>> {
        let total: u128 = self.shards.iter().map(|s| s.weight).sum();
        if total == 0 {
            return None;
        }
        let mut out = vec![0.0f32; self.dim];
        for (i, o) in out.iter_mut().enumerate() {
            let sum: i128 = self.shards.iter().map(|s| s.acc[i]).sum();
            *o = (sum as f64 / total as f64 / SCALE) as f32;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // However the updates are dealt to 1–9 partial aggregators (of
        // whatever shard counts) and in whatever order and grouping those
        // are merged, the result is the single aggregator's, to the bit.
        #[test]
        fn merged_partials_equal_one_aggregator(
            seed in any::<u64>(),
            updates in 0usize..=64,
            partials in 1usize..=9,
            dim in 1usize..12,
        ) {
            let mut draw = SeedStream::new(seed, updates as u64, partials as u64);
            let mut single = ShardedAggregator::new(dim, 1);
            let mut parts: Vec<ShardedAggregator> = (0..partials)
                .map(|_| ShardedAggregator::new(dim, 1 + (draw.next_u64() % 3) as usize))
                .collect();
            for _ in 0..updates {
                let values: Vec<f32> =
                    (0..dim).map(|_| (draw.next_f64() as f32 - 0.5) * 20.0).collect();
                let n = draw.next_u64() % 1000;
                prop_assert!(single.accumulate(0, &values, n));
                let part = (draw.next_u64() % partials as u64) as usize;
                prop_assert!(parts[part].accumulate(draw.next_u64() as usize, &values, n));
            }
            while parts.len() > 1 {
                let from = parts.swap_remove((draw.next_u64() % parts.len() as u64) as usize);
                let into = (draw.next_u64() % parts.len() as u64) as usize;
                parts[into].merge(&from);
            }
            let merged = &parts[0];
            prop_assert_eq!(merged.mean(), single.mean());
            prop_assert_eq!(merged.updates(), updates as u64);
            let weight = |a: &ShardedAggregator| a.shards.iter().map(|s| s.weight).sum::<u128>();
            prop_assert_eq!(weight(merged), weight(&single));
        }

        // The float mean of two updates lies between them, coordinate by
        // coordinate.
        #[test]
        fn buffered_mean_stays_in_hull(
            a in prop::collection::vec(-5f32..5.0, 4),
            b in prop::collection::vec(-5f32..5.0, 4),
            na in 1u64..100,
            nb in 1u64..100,
        ) {
            let mut agg = BufferedAggregator::new();
            agg.push(a.clone(), na);
            agg.push(b.clone(), nb);
            let mean = agg.mean().expect("positive weight");
            for i in 0..4 {
                prop_assert!(mean[i] >= a[i].min(b[i]) - 1e-4 && mean[i] <= a[i].max(b[i]) + 1e-4);
            }
        }
    }

    #[test]
    fn buffered_mean_matches_hand_arithmetic() {
        let mut agg = BufferedAggregator::new();
        agg.push(vec![1.0, 2.0], 1);
        agg.push(vec![3.0, 4.0], 3);
        let m = agg.mean().unwrap();
        // w1 = 0.25, w2 = 0.75
        assert!((m[0] - 2.5).abs() < 1e-6 && (m[1] - 3.5).abs() < 1e-6);
        assert!(BufferedAggregator::new().mean().is_none());
        let mut zero = BufferedAggregator::new();
        zero.push(vec![1.0], 0);
        assert!(zero.mean().is_none(), "zero total weight");
        let mut bad = BufferedAggregator::new();
        bad.push(vec![1.0], 1);
        bad.push(vec![1.0, 2.0], 1);
        assert!(bad.mean().is_none(), "dimension mismatch");
    }

    #[test]
    fn sharded_mean_is_shard_count_invariant_to_the_bit() {
        let updates: Vec<(Vec<f32>, u64)> = (0..257u64)
            .map(|i| {
                let v: Vec<f32> = (0..33).map(|j| ((i * 31 + j) % 97) as f32 / 7.0 - 5.0).collect();
                (v, 1 + i % 13)
            })
            .collect();
        let run = |shards: usize| {
            let mut agg = ShardedAggregator::new(33, shards);
            for (i, (v, n)) in updates.iter().enumerate() {
                assert!(agg.accumulate(i, v, *n));
            }
            agg.mean().unwrap()
        };
        let one = run(1);
        for shards in [2, 3, 8, 64] {
            assert_eq!(one, run(shards), "shards={shards}");
        }
        // order invariance: reversed arrival, same bits
        let mut rev = ShardedAggregator::new(33, 8);
        for (i, (v, n)) in updates.iter().enumerate().rev() {
            rev.accumulate(i, v, *n);
        }
        assert_eq!(one, rev.mean().unwrap());
        assert_eq!(rev.updates(), 257);
    }

    #[test]
    fn sharded_mean_tracks_true_weighted_mean() {
        let mut agg = ShardedAggregator::new(2, 4);
        agg.accumulate(0, &[1.0, -2.0], 1);
        agg.accumulate(1, &[3.0, 6.0], 3);
        let m = agg.mean().unwrap();
        assert!((m[0] - 2.5).abs() < 1e-5, "{m:?}");
        assert!((m[1] - 4.0).abs() < 1e-5, "{m:?}");
        assert!(ShardedAggregator::new(2, 4).mean().is_none());
        let mut bad = ShardedAggregator::new(2, 1);
        assert!(!bad.accumulate(0, &[1.0], 5), "dimension mismatch rejected");
        assert!(bad.mean().is_none());
    }
}
