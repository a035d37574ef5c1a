//! Per-round cohort sampling over a client population.
//!
//! The server does not shuffle 100k ids through a shared RNG each round —
//! it ranks every eligible client by a stateless keyed hash of
//! `(seed, round, id)` and takes the lowest ranks. The sample is then
//!
//! * **deterministic** per `(seed, round)`,
//! * **duplicate-free** (ids are ranked, not drawn with replacement),
//! * **order-independent**: permuting the eligible list cannot change who
//!   is picked or the order they are visited in, and
//! * **exactly sized**: `round(eligible × fraction)` clamped to
//!   `[min_size, max_size]` and the eligible count.

use crate::seed::keyed_hash;

/// Domain separator so cohort ranks never alias fault or training draws.
const COHORT_DOMAIN: u64 = 0xC0_0847_0000_0000;

/// How many eligible clients to select each round.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSpec {
    /// Fraction `C` of the eligible set to select.
    pub fraction: f64,
    /// Never select fewer than this many (when enough are eligible).
    pub min_size: usize,
    /// Never select more than this many.
    pub max_size: usize,
}

impl CohortSpec {
    /// Selects `fraction` of the eligible set with sane bounds for
    /// population-scale rounds.
    pub fn fraction(fraction: f64) -> Self {
        Self { fraction, min_size: 1, max_size: usize::MAX }
    }

    /// The cohort size for `eligible` eligible clients.
    pub fn target(&self, eligible: usize) -> usize {
        if eligible == 0 {
            return 0;
        }
        let want = (eligible as f64 * self.fraction.clamp(0.0, 1.0)).round() as usize;
        want.clamp(self.min_size.min(eligible), self.max_size.max(1)).min(eligible)
    }
}

/// Samples one round's cohort from the eligible ids.
///
/// Returns the selected ids ordered by their rank hash (a deterministic
/// shuffle); the result depends only on the *set* of eligible ids, never
/// on the order the caller discovered them in.
pub fn sample_cohort(eligible: &[u64], spec: &CohortSpec, seed: u64, round: usize) -> Vec<u64> {
    let target = spec.target(eligible.len());
    if target == 0 {
        return Vec::new();
    }
    let mut ranked: Vec<(u64, u64)> = eligible
        .iter()
        .map(|&id| (keyed_hash(seed ^ COHORT_DOMAIN, round as u64, id), id))
        .collect();
    if target < ranked.len() {
        ranked.select_nth_unstable(target - 1);
        ranked.truncate(target);
    }
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<u64> {
        (0..n).collect()
    }

    #[test]
    fn cohort_is_deterministic_and_order_independent() {
        let spec = CohortSpec::fraction(0.1);
        let forward = sample_cohort(&ids(5000), &spec, 42, 3);
        let mut reversed: Vec<u64> = ids(5000);
        reversed.reverse();
        assert_eq!(forward, sample_cohort(&reversed, &spec, 42, 3));
        assert_eq!(forward, sample_cohort(&ids(5000), &spec, 42, 3));
        assert_ne!(forward, sample_cohort(&ids(5000), &spec, 42, 4), "rounds decorrelate");
        assert_ne!(forward, sample_cohort(&ids(5000), &spec, 43, 3), "seeds decorrelate");
    }

    #[test]
    fn cohort_has_no_duplicates_and_respects_bounds() {
        let spec = CohortSpec { fraction: 0.25, min_size: 8, max_size: 64 };
        for n in [0u64, 1, 10, 100, 1000] {
            let cohort = sample_cohort(&ids(n), &spec, 7, 1);
            let mut unique = cohort.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), cohort.len(), "duplicates at n={n}");
            assert_eq!(cohort.len(), spec.target(n as usize));
            assert!(cohort.len() <= 64);
            if n >= 8 {
                assert!(cohort.len() >= 8, "min_size at n={n}");
            }
        }
    }

    #[test]
    fn target_sizes_clamp_sanely() {
        assert_eq!(CohortSpec::fraction(0.5).target(0), 0);
        assert_eq!(CohortSpec::fraction(0.0).target(100), 1, "min_size floor");
        assert_eq!(CohortSpec::fraction(1.0).target(100), 100);
        assert_eq!(CohortSpec { fraction: 1.0, min_size: 1, max_size: 10 }.target(100), 10);
        assert_eq!(CohortSpec { fraction: 0.01, min_size: 5, max_size: 10 }.target(100), 5);
        assert_eq!(CohortSpec { fraction: 0.5, min_size: 10, max_size: 20 }.target(4), 4);
    }
}
