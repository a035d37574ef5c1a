//! Per-client link model: an `mdl-mobile` [`NetworkProfile`] plus packet
//! loss and jitter, simulated deterministically from a seeded RNG.
//!
//! A [`Link`] simulates *time*, not threads: every send computes how long
//! the transfer would have taken (bandwidth + latency + jitter + any
//! straggler slowdown), draws packet loss, and walks the retry policy —
//! accumulating [`TransportMetrics`] along the way. The caller decides
//! what to do with the elapsed simulated seconds.

use crate::error::NetError;
use crate::fault::RoundFate;
use crate::metrics::TransportMetrics;
use crate::retry::RetryPolicy;
use mdl_mobile::NetworkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Static parameters of one link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Bandwidth / latency / energy profile (from `mdl-mobile`).
    pub profile: NetworkProfile,
    /// Base per-attempt packet-loss probability.
    pub loss_prob: f64,
    /// Uniform jitter as a fraction of the base transfer time
    /// (`0.2` = up to +20%).
    pub jitter_frac: f64,
}

impl LinkConfig {
    /// A loss-free, jitter-free link over `profile`.
    pub fn clean(profile: NetworkProfile) -> Self {
        Self { profile, loss_prob: 0.0, jitter_frac: 0.0 }
    }

    /// The ideal link the pre-`mdl-net` simulations implicitly assumed:
    /// Wi-Fi, no loss, no jitter.
    pub fn ideal() -> Self {
        Self::clean(NetworkProfile::wifi())
    }
}

/// Transfer direction over a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    Up,
    /// Server → client.
    Down,
}

/// Coarse health of a link, for consumers (like the serving router) that
/// only need to know "how broken", not "why".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Healthy.
    Up,
    /// Reachable but slow and/or lossy.
    Degraded {
        /// Effective slowdown in percent (50 = transfers take 1.5×).
        slowdown_pct: u16,
    },
    /// Unreachable: offline profile, partition, or dropped peer.
    Down,
}

/// Proof of one delivered message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendReceipt {
    /// Attempts it took (1 = first try).
    pub attempts: u32,
    /// Simulated seconds from first attempt to delivery, including
    /// timeouts and backoff.
    pub elapsed_s: f64,
    /// Payload size.
    pub bytes: u64,
}

/// One simulated client↔server link.
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    rng: StdRng,
    metrics: TransportMetrics,
    fate: RoundFate,
    deadline_s: f64,
    round_elapsed_s: f64,
}

impl Link {
    /// A link with its own RNG stream seeded from `seed`.
    pub fn new(cfg: LinkConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            metrics: TransportMetrics::new(),
            fate: RoundFate::healthy(),
            deadline_s: f64::INFINITY,
            round_elapsed_s: 0.0,
        }
    }

    /// Installs this round's fate and deadline and resets the round clock.
    pub fn begin_round(&mut self, fate: RoundFate, deadline_s: f64) {
        self.fate = fate;
        self.deadline_s = deadline_s;
        self.round_elapsed_s = 0.0;
    }

    /// Simulated seconds this link has spent in the current round.
    pub fn round_elapsed_s(&self) -> f64 {
        self.round_elapsed_s
    }

    /// Charges non-transfer simulated time (local compute between the
    /// download and the upload) against this round's clock, so a slow
    /// device eats into the same deadline budget its transfers do.
    /// Returns `false` — and pins the clock at the deadline — when the
    /// charge blows the remaining budget.
    pub fn charge_time(&mut self, secs: f64) -> bool {
        self.round_elapsed_s += secs.max(0.0);
        if self.round_elapsed_s >= self.deadline_s {
            self.round_elapsed_s = self.deadline_s;
            return false;
        }
        true
    }

    /// Whether the link can currently move data.
    pub fn is_usable(&self) -> bool {
        self.cfg.profile.is_connected() && !self.fate.partitioned && !self.fate.dropped
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }

    /// Coarse health, combining configuration and the current fate.
    /// Loss folds into the effective slowdown as the expected number of
    /// transmissions per delivered packet, `1 / (1 - p)`.
    pub fn state(&self) -> LinkState {
        if !self.is_usable() {
            return LinkState::Down;
        }
        let loss = (self.cfg.loss_prob + self.fate.loss_boost).clamp(0.0, 0.99);
        let effective = self.fate.slowdown / (1.0 - loss);
        let pct = ((effective - 1.0) * 100.0).round();
        if pct < 1.0 {
            LinkState::Up
        } else {
            LinkState::Degraded { slowdown_pct: pct.min(u16::MAX as f64) as u16 }
        }
    }

    /// Base transfer time (latency + serialization), jittered and slowed by
    /// the round fate. Draws jitter from the link RNG only when configured,
    /// so a clean link consumes no randomness.
    fn transfer_time(&mut self, bytes: u64, dir: Direction) -> f64 {
        let bw = match dir {
            Direction::Up => self.cfg.profile.up_bytes_per_sec,
            Direction::Down => self.cfg.profile.down_bytes_per_sec,
        };
        let mut t = 2.0 * self.cfg.profile.one_way_latency_s + bytes as f64 / bw;
        if self.cfg.jitter_frac > 0.0 {
            t *= 1.0 + self.cfg.jitter_frac * self.rng.gen::<f64>();
        }
        t * self.fate.slowdown
    }

    /// Simulates sending `bytes` in `dir` under `retry`, charging all
    /// simulated time against the round deadline.
    pub fn send(
        &mut self,
        bytes: u64,
        dir: Direction,
        retry: &RetryPolicy,
    ) -> Result<SendReceipt, NetError> {
        if !self.cfg.profile.is_connected() || self.fate.partitioned {
            self.metrics.drops = self.metrics.drops.saturating_add(1);
            return Err(NetError::Unreachable);
        }
        if self.fate.dropped {
            self.metrics.drops = self.metrics.drops.saturating_add(1);
            return Err(NetError::PeerDropped);
        }

        let loss = (self.cfg.loss_prob + self.fate.loss_boost).clamp(0.0, 1.0);
        let deadline_left = self.deadline_s - self.round_elapsed_s;
        let mut elapsed = 0.0f64;
        let max_attempts = retry.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                self.metrics.retries = self.metrics.retries.saturating_add(1);
                elapsed += retry.backoff_s(attempt - 1);
            }
            if elapsed >= deadline_left {
                self.round_elapsed_s = self.deadline_s;
                return Err(NetError::DeadlineExceeded);
            }
            self.metrics.attempts = self.metrics.attempts.saturating_add(1);
            let t = self.transfer_time(bytes, dir);
            let too_slow = t > retry.timeout_s;
            let lost = !too_slow && loss > 0.0 && self.rng.gen::<f64>() < loss;
            if too_slow || lost {
                // the sender waits out the whole timeout before concluding
                // the attempt is dead
                elapsed += if retry.timeout_s.is_finite() { retry.timeout_s } else { t };
                self.metrics.timeouts = self.metrics.timeouts.saturating_add(1);
                self.metrics.wasted_bytes = self.metrics.wasted_bytes.saturating_add(bytes);
                if elapsed >= deadline_left {
                    self.round_elapsed_s = self.deadline_s;
                    return Err(NetError::DeadlineExceeded);
                }
                continue;
            }
            if elapsed + t > deadline_left {
                self.metrics.timeouts = self.metrics.timeouts.saturating_add(1);
                self.metrics.wasted_bytes = self.metrics.wasted_bytes.saturating_add(bytes);
                self.round_elapsed_s = self.deadline_s;
                return Err(NetError::DeadlineExceeded);
            }
            elapsed += t;
            self.round_elapsed_s += elapsed;
            match dir {
                Direction::Up => {
                    self.metrics.bytes_up = self.metrics.bytes_up.saturating_add(bytes);
                    self.metrics.messages_up = self.metrics.messages_up.saturating_add(1);
                }
                Direction::Down => {
                    self.metrics.bytes_down = self.metrics.bytes_down.saturating_add(bytes);
                    self.metrics.messages_down = self.metrics.messages_down.saturating_add(1);
                }
            }
            return Ok(SendReceipt { attempts: attempt, elapsed_s: elapsed, bytes });
        }
        self.round_elapsed_s = (self.round_elapsed_s + elapsed).min(self.deadline_s);
        Err(NetError::RetriesExhausted { attempts: max_attempts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> Link {
        Link::new(LinkConfig::clean(NetworkProfile::wifi()), 1)
    }

    #[test]
    fn clean_send_matches_profile_arithmetic() {
        let mut link = lossless();
        let r = link.send(6_000_000, Direction::Up, &RetryPolicy::no_retry()).expect("delivered");
        // wifi: 6 MB/s up, 10 ms one-way → 1 s serialize + 20 ms latency
        assert_eq!(r.attempts, 1);
        assert!((r.elapsed_s - 1.02).abs() < 1e-9, "elapsed {}", r.elapsed_s);
        assert_eq!(link.metrics().messages_up, 1);
        assert_eq!(link.metrics().bytes_up, 6_000_000);
        assert_eq!(link.metrics().retries, 0);
        assert_eq!(link.metrics().wasted_bytes, 0);
    }

    #[test]
    fn offline_profile_is_unreachable_not_a_hang() {
        let mut link = Link::new(LinkConfig::clean(NetworkProfile::offline()), 2);
        let err = link.send(10, Direction::Up, &RetryPolicy::default()).unwrap_err();
        assert_eq!(err, NetError::Unreachable);
        assert_eq!(link.metrics().drops, 1);
        assert_eq!(link.state(), LinkState::Down);
    }

    #[test]
    fn dropped_peer_rejects_sends() {
        let mut link = lossless();
        link.begin_round(RoundFate { dropped: true, ..RoundFate::healthy() }, 10.0);
        assert_eq!(
            link.send(10, Direction::Down, &RetryPolicy::default()),
            Err(NetError::PeerDropped)
        );
        assert_eq!(link.state(), LinkState::Down);
    }

    #[test]
    fn total_loss_exhausts_retries() {
        let cfg = LinkConfig { loss_prob: 1.0, ..LinkConfig::clean(NetworkProfile::wifi()) };
        let mut link = Link::new(cfg, 3);
        let policy = RetryPolicy { max_attempts: 3, timeout_s: 0.5, ..Default::default() };
        let err = link.send(100, Direction::Up, &policy).unwrap_err();
        assert_eq!(err, NetError::RetriesExhausted { attempts: 3 });
        assert_eq!(link.metrics().attempts, 3);
        assert_eq!(link.metrics().retries, 2);
        assert_eq!(link.metrics().timeouts, 3);
        assert_eq!(link.metrics().wasted_bytes, 300);
        assert_eq!(link.metrics().messages_up, 0);
    }

    #[test]
    fn straggler_slower_than_timeout_always_times_out() {
        let mut link = lossless();
        // healthy transfer ≈ 0.03 s; a 100× straggler blows a 1 s timeout
        link.begin_round(RoundFate { slowdown: 100.0, ..RoundFate::healthy() }, f64::INFINITY);
        let policy = RetryPolicy { timeout_s: 1.0, max_attempts: 2, ..Default::default() };
        let err = link.send(60_000, Direction::Up, &policy).unwrap_err();
        assert_eq!(err, NetError::RetriesExhausted { attempts: 2 });
        assert_eq!(link.metrics().timeouts, 2);
    }

    #[test]
    fn deadline_cuts_off_slow_transfers() {
        let mut link = lossless();
        link.begin_round(RoundFate::healthy(), 0.5);
        // 6 MB at 6 MB/s ≈ 1 s > 0.5 s deadline
        let err = link.send(6_000_000, Direction::Up, &RetryPolicy::no_retry()).unwrap_err();
        assert_eq!(err, NetError::DeadlineExceeded);
        assert!((link.round_elapsed_s() - 0.5).abs() < 1e-12, "clock pinned at the deadline");
    }

    #[test]
    fn compute_time_charges_against_the_deadline() {
        let mut link = lossless();
        link.begin_round(RoundFate::healthy(), 1.0);
        assert!(link.charge_time(0.4), "within budget");
        assert!((link.round_elapsed_s() - 0.4).abs() < 1e-12);
        // the remaining 0.6 s is not enough for a ~1 s transfer
        let err = link.send(6_000_000, Direction::Up, &RetryPolicy::no_retry()).unwrap_err();
        assert_eq!(err, NetError::DeadlineExceeded);
        // blowing the budget pins the clock at the deadline
        let mut slow = lossless();
        slow.begin_round(RoundFate::healthy(), 1.0);
        assert!(!slow.charge_time(5.0));
        assert!((slow.round_elapsed_s() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_links_are_bit_identical() {
        let cfg = LinkConfig {
            loss_prob: 0.3,
            jitter_frac: 0.25,
            ..LinkConfig::clean(NetworkProfile::lte())
        };
        let run = |seed: u64| {
            let mut link = Link::new(cfg.clone(), seed);
            let policy = RetryPolicy { timeout_s: 1.0, max_attempts: 5, ..Default::default() };
            let outcomes: Vec<_> =
                (0..32).map(|i| link.send(1000 + i, Direction::Up, &policy)).collect();
            (outcomes, *link.metrics())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds take different paths");
    }

    #[test]
    fn degraded_state_reflects_slowdown_and_loss() {
        let mut link = lossless();
        assert_eq!(link.state(), LinkState::Up);
        link.begin_round(RoundFate { slowdown: 2.0, ..RoundFate::healthy() }, 10.0);
        assert_eq!(link.state(), LinkState::Degraded { slowdown_pct: 100 });
        link.begin_round(RoundFate { loss_boost: 0.5, ..RoundFate::healthy() }, 10.0);
        assert_eq!(link.state(), LinkState::Degraded { slowdown_pct: 100 });
        link.begin_round(RoundFate { partitioned: true, ..RoundFate::healthy() }, 10.0);
        assert_eq!(link.state(), LinkState::Down);
    }
}
