//! Fault injection: the ways a mobile cohort actually fails — devices
//! dropping out mid-round, stragglers, transient partitions, and bursts of
//! radio loss. All draws come from a seeded RNG owned by the fabric, so a
//! faulty run is exactly as reproducible as a fault-free one.

use rand::rngs::StdRng;
use rand::Rng;

/// A transient partition: the listed clients are unreachable for every
/// round in `[from_round, until_round)` (1-based rounds).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// First affected round (1-based, inclusive).
    pub from_round: usize,
    /// First round after the partition heals (exclusive).
    pub until_round: usize,
    /// Clients cut off; empty means *every* client.
    pub clients: Vec<usize>,
}

impl PartitionWindow {
    /// Whether `client` is cut off during `round`.
    pub fn covers(&self, round: usize, client: usize) -> bool {
        round >= self.from_round
            && round < self.until_round
            && (self.clients.is_empty() || self.clients.contains(&client))
    }
}

/// Per-round fault probabilities for a cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a client vanishes mid-round (never uploads; its
    /// in-flight traffic is abandoned).
    pub dropout_prob: f64,
    /// Probability a client is a straggler this round.
    pub straggler_prob: f64,
    /// Transfer-time multiplier applied to stragglers (≥ 1).
    pub straggler_slowdown: f64,
    /// Probability a client's radio goes flaky this round.
    pub flaky_prob: f64,
    /// Extra packet-loss probability while flaky (added to the link's
    /// base loss, clamped to `[0, 1]`).
    pub flaky_loss: f64,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// No faults at all — the idealised network every simulation assumed
    /// before `mdl-net` existed.
    pub fn none() -> Self {
        Self {
            dropout_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            flaky_prob: 0.0,
            flaky_loss: 0.0,
            partitions: Vec::new(),
        }
    }

    /// The acceptance scenario of the paper's deployment story: 20% of
    /// clients drop each round and a quarter straggle at half speed, with
    /// occasional flaky-radio bursts.
    pub fn lossy_cohort() -> Self {
        Self {
            dropout_prob: 0.2,
            straggler_prob: 0.25,
            straggler_slowdown: 2.0,
            flaky_prob: 0.15,
            flaky_loss: 0.3,
            partitions: Vec::new(),
        }
    }

    /// `true` when the plan can never perturb anything.
    pub fn is_quiet(&self) -> bool {
        self.dropout_prob <= 0.0
            && (self.straggler_prob <= 0.0 || self.straggler_slowdown <= 1.0)
            && (self.flaky_prob <= 0.0 || self.flaky_loss <= 0.0)
            && self.partitions.is_empty()
    }

    /// The fate of one client in one round, keyed by its **stable client
    /// id** rather than a dense cohort index.
    ///
    /// [`FaultPlan::draw_round`] walks one RNG stream across the cohort,
    /// so which physical client a fault lands on depends on the cohort's
    /// size and ordering — fine for a fixed client list, broken for
    /// population-scale simulation where each round samples a different
    /// cohort from 100k+ clients. Here every draw comes from a stateless
    /// hash of `(seed, round, client_id)`: the same seed faults the same
    /// clients no matter how many of their peers were sampled alongside
    /// them, and fates can be computed lazily for just the sampled cohort.
    pub fn fate_keyed(&self, seed: u64, round: usize, client_id: u64) -> RoundFate {
        let mut stream = crate::stream_u64(seed ^ 0xFA17_0000_0000_0000, round as u64, client_id);
        let mut draw = || {
            let x = stream();
            // 53 uniform bits, same convention as rand's f64 sampling
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let dropped = self.dropout_prob > 0.0 && draw() < self.dropout_prob;
        let straggles = self.straggler_prob > 0.0
            && self.straggler_slowdown > 1.0
            && draw() < self.straggler_prob;
        let flaky = self.flaky_prob > 0.0 && self.flaky_loss > 0.0 && draw() < self.flaky_prob;
        RoundFate {
            dropped,
            slowdown: if straggles { self.straggler_slowdown } else { 1.0 },
            loss_boost: if flaky { self.flaky_loss } else { 0.0 },
            partitioned: self.partitions.iter().any(|p| p.covers(round, client_id as usize)),
        }
    }

    /// Draws one round's fate for every client, in client order, from the
    /// fabric RNG. Drawing for the full cohort (not just the selected
    /// subset) keeps the RNG stream aligned no matter how the caller
    /// samples clients. Prefer [`FaultPlan::fate_keyed`] when clients have
    /// stable ids and cohorts are sampled from a larger population.
    pub fn draw_round(&self, round: usize, clients: usize, rng: &mut StdRng) -> Vec<RoundFate> {
        (0..clients)
            .map(|c| {
                let dropped = self.dropout_prob > 0.0 && rng.gen::<f64>() < self.dropout_prob;
                let straggles = self.straggler_prob > 0.0
                    && self.straggler_slowdown > 1.0
                    && rng.gen::<f64>() < self.straggler_prob;
                let flaky = self.flaky_prob > 0.0
                    && self.flaky_loss > 0.0
                    && rng.gen::<f64>() < self.flaky_prob;
                RoundFate {
                    dropped,
                    slowdown: if straggles { self.straggler_slowdown } else { 1.0 },
                    loss_boost: if flaky { self.flaky_loss } else { 0.0 },
                    partitioned: self.partitions.iter().any(|p| p.covers(round, c)),
                }
            })
            .collect()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// What the fault plan decided for one client in one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFate {
    /// The client vanishes before uploading.
    pub dropped: bool,
    /// Transfer-time multiplier (1.0 = healthy).
    pub slowdown: f64,
    /// Extra loss probability this round.
    pub loss_boost: f64,
    /// The client sits behind an active partition window.
    pub partitioned: bool,
}

impl RoundFate {
    /// A healthy, reachable client.
    pub fn healthy() -> Self {
        Self { dropped: false, slowdown: 1.0, loss_boost: 0.0, partitioned: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn quiet_plan_draws_healthy_fates() {
        let mut rng = StdRng::seed_from_u64(1);
        let fates = FaultPlan::none().draw_round(1, 8, &mut rng);
        assert_eq!(fates.len(), 8);
        assert!(fates.iter().all(|f| *f == RoundFate::healthy()));
        assert!(FaultPlan::none().is_quiet());
        assert!(!FaultPlan::lossy_cohort().is_quiet());
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let plan = FaultPlan::lossy_cohort();
        let a: Vec<_> =
            (1..=5).map(|r| plan.draw_round(r, 20, &mut StdRng::seed_from_u64(9))).collect();
        let b: Vec<_> =
            (1..=5).map(|r| plan.draw_round(r, 20, &mut StdRng::seed_from_u64(9))).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn dropout_rate_tracks_probability() {
        let plan = FaultPlan { dropout_prob: 0.2, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(3);
        let mut dropped = 0usize;
        let trials = 50;
        for r in 1..=trials {
            dropped += plan.draw_round(r, 100, &mut rng).iter().filter(|f| f.dropped).count();
        }
        let rate = dropped as f64 / (100.0 * trials as f64);
        assert!((rate - 0.2).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn keyed_fates_are_stable_across_cohort_and_population_size() {
        let plan = FaultPlan::lossy_cohort();
        // the fate of client 12345 in round 7 is a pure function of
        // (seed, round, id) — no cohort, no population, no shared RNG
        let alone = plan.fate_keyed(99, 7, 12_345);
        let with_peers: Vec<RoundFate> =
            (0..10_000).map(|id| plan.fate_keyed(99, 7, id * 3 + 12)).collect();
        assert_eq!(alone, plan.fate_keyed(99, 7, 12_345));
        let _ = with_peers;
        // rates track the configured probabilities over many ids
        let n = 20_000u64;
        let dropped = (0..n).filter(|&id| plan.fate_keyed(5, 3, id).dropped).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - plan.dropout_prob).abs() < 0.02, "dropout rate {rate}");
        // different seeds / rounds / ids decorrelate
        assert_ne!(
            (0..64).map(|id| plan.fate_keyed(1, 1, id).dropped).collect::<Vec<_>>(),
            (0..64).map(|id| plan.fate_keyed(2, 1, id).dropped).collect::<Vec<_>>()
        );
        assert_ne!(
            (0..64).map(|id| plan.fate_keyed(1, 1, id).dropped).collect::<Vec<_>>(),
            (0..64).map(|id| plan.fate_keyed(1, 2, id).dropped).collect::<Vec<_>>()
        );
    }

    #[test]
    fn keyed_fates_respect_quiet_plans_and_partitions() {
        let quiet = FaultPlan::none();
        for id in [0u64, 7, 1 << 40] {
            assert_eq!(quiet.fate_keyed(3, 1, id), RoundFate::healthy());
        }
        let plan = FaultPlan {
            partitions: vec![PartitionWindow { from_round: 2, until_round: 4, clients: vec![9] }],
            ..FaultPlan::none()
        };
        assert!(plan.fate_keyed(0, 2, 9).partitioned);
        assert!(!plan.fate_keyed(0, 4, 9).partitioned);
        assert!(!plan.fate_keyed(0, 2, 8).partitioned);
    }

    #[test]
    fn partition_window_covers_listed_clients_in_range() {
        let w = PartitionWindow { from_round: 2, until_round: 4, clients: vec![1, 3] };
        assert!(w.covers(2, 1) && w.covers(3, 3));
        assert!(!w.covers(1, 1), "before the window");
        assert!(!w.covers(4, 1), "after the window");
        assert!(!w.covers(2, 0), "unlisted client");
        let all = PartitionWindow { from_round: 1, until_round: 100, clients: vec![] };
        assert!(all.covers(50, 7), "empty list means everyone");
        let plan = FaultPlan { partitions: vec![all], ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(plan.draw_round(10, 4, &mut rng).iter().all(|f| f.partitioned));
    }
}
