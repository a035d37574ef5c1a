//! The [`Fabric`]: one simulated transport for a whole cohort. Every byte
//! a federated round or a split-inference offload moves goes through a
//! per-client [`Link`], with faults drawn round-by-round from a single
//! seeded RNG — so a run is bit-reproducible end to end.

use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::link::{Direction, Link, LinkConfig, SendReceipt};
use crate::metrics::TransportMetrics;
use crate::retry::RetryPolicy;
use mdl_obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything that shapes a fabric's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Link model shared by every client (bandwidth, latency, loss, jitter).
    pub link: LinkConfig,
    /// Fault injection schedule.
    pub faults: FaultPlan,
    /// Retry policy every send follows.
    pub retry: RetryPolicy,
    /// Per-round deadline in simulated seconds; the server proceeds with
    /// whatever arrived by then.
    pub round_deadline_s: f64,
    /// Fraction of the *selected* cohort whose updates must arrive for a
    /// round to aggregate (`0.0` disables quorum checking).
    pub quorum_fraction: f64,
    /// Consecutive quorum misses tolerated before a run fails with
    /// [`NetError::QuorumUnreachable`].
    pub max_failed_rounds: usize,
}

impl FabricConfig {
    /// The perfect network the simulations assumed before `mdl-net`:
    /// clean Wi-Fi, no faults, no deadline, no quorum requirement.
    pub fn ideal() -> Self {
        Self {
            link: LinkConfig::ideal(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::no_retry(),
            round_deadline_s: f64::INFINITY,
            quorum_fraction: 0.0,
            max_failed_rounds: usize::MAX,
        }
    }

    /// A faulty mobile cohort over `link`: the [`FaultPlan::lossy_cohort`]
    /// schedule with a default retry policy and a majority quorum.
    pub fn faulty(link: LinkConfig) -> Self {
        Self {
            link,
            faults: FaultPlan::lossy_cohort(),
            retry: RetryPolicy::default(),
            round_deadline_s: 60.0,
            quorum_fraction: 0.5,
            max_failed_rounds: 5,
        }
    }
}

/// A cohort-wide simulated transport.
#[derive(Debug, Clone)]
pub struct Fabric {
    config: FabricConfig,
    links: Vec<Link>,
    rng: StdRng,
    round: usize,
    rounds_completed: u64,
    sim_clock_s: f64,
    obs: Option<Obs>,
}

impl Fabric {
    /// A fabric over `clients` identical links. Each link gets its own RNG
    /// stream derived from `seed`, and fault draws come from a separate
    /// stream, so per-link traffic and cohort-level faults never alias.
    pub fn new(clients: usize, config: FabricConfig, seed: u64) -> Self {
        let links = (0..clients)
            .map(|c| {
                let link_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Link::new(config.link.clone(), link_seed)
            })
            .collect();
        Self {
            config,
            links,
            rng: StdRng::seed_from_u64(seed.wrapping_add(0xFAB0_5EED)),
            round: 0,
            rounds_completed: 0,
            sim_clock_s: 0.0,
            obs: None,
        }
    }

    /// Attaches an observability session: every [`Fabric::end_round`]
    /// advances `obs`'s (sim) clock by the round's simulated duration and
    /// mirrors the aggregate [`TransportMetrics`] into `net.*` registry
    /// counters — making the registry the one bookkeeping path consumers
    /// read, derived from the same per-link counters as
    /// [`Fabric::metrics`].
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
        self.export_obs();
    }

    /// The attached observability session, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Mirrors the current aggregate counters into the attached registry.
    fn export_obs(&self) {
        let Some(obs) = &self.obs else { return };
        let m = self.metrics();
        let reg = obs.registry();
        reg.counter("net.attempts").store(m.attempts);
        reg.counter("net.retries").store(m.retries);
        reg.counter("net.timeouts").store(m.timeouts);
        reg.counter("net.drops").store(m.drops);
        reg.counter("net.messages_up").store(m.messages_up);
        reg.counter("net.messages_down").store(m.messages_down);
        reg.counter("net.bytes_up").store(m.bytes_up);
        reg.counter("net.bytes_down").store(m.bytes_down);
        // the one place total delivered traffic is computed; reports must
        // read this counter instead of re-summing up/down themselves
        reg.counter("net.delivered_bytes").store(m.bytes_up + m.bytes_down);
        reg.counter("net.wasted_bytes").store(m.wasted_bytes);
        reg.counter("net.rounds").store(m.rounds);
        reg.gauge("net.sim_clock_s").set(m.sim_clock_s);
        reg.gauge("net.failure_rate").set(m.failure_rate());
    }

    /// The perfect network: behaves exactly like no fabric at all.
    pub fn ideal(clients: usize) -> Self {
        Self::new(clients, FabricConfig::ideal(), 0)
    }

    /// Number of client links.
    pub fn clients(&self) -> usize {
        self.links.len()
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Starts a round: draws every client's fate (in client order, from the
    /// fabric RNG — callers' RNGs are never touched) and resets round
    /// clocks. Rounds are 1-based.
    pub fn begin_round(&mut self) {
        self.round += 1;
        let fates = if self.config.faults.is_quiet() {
            vec![crate::fault::RoundFate::healthy(); self.links.len()]
        } else {
            self.config.faults.draw_round(self.round, self.links.len(), &mut self.rng)
        };
        for (link, fate) in self.links.iter_mut().zip(fates) {
            link.begin_round(fate, self.config.round_deadline_s);
        }
    }

    /// Finishes a round: advances the simulated clock by the slowest
    /// client's elapsed time (clients transfer in parallel), capped by the
    /// round deadline.
    pub fn end_round(&mut self) {
        let slowest = self.links.iter().map(Link::round_elapsed_s).fold(0.0f64, f64::max);
        let deadline = self.config.round_deadline_s;
        let elapsed = if deadline.is_finite() { slowest.min(deadline) } else { slowest };
        self.sim_clock_s += elapsed;
        self.rounds_completed = self.rounds_completed.saturating_add(1);
        if let Some(obs) = &self.obs {
            obs.clock().advance_secs(elapsed);
        }
        self.export_obs();
    }

    /// Current 1-based round (0 before the first [`Fabric::begin_round`]).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether `client` vanished this round (known to the simulator, not
    /// to the server — the server only sees the missing upload). Callers
    /// can use it to skip simulating work a dead client would never finish.
    pub fn client_dropped(&self, client: usize) -> bool {
        !self.links[client].is_usable()
    }

    /// Client→server transfer of `bytes`.
    pub fn send_up(&mut self, client: usize, bytes: u64) -> Result<SendReceipt, NetError> {
        let retry = self.config.retry;
        self.links[client].send(bytes, Direction::Up, &retry)
    }

    /// Server→client transfer of `bytes`.
    pub fn send_down(&mut self, client: usize, bytes: u64) -> Result<SendReceipt, NetError> {
        let retry = self.config.retry;
        self.links[client].send(bytes, Direction::Down, &retry)
    }

    /// Minimum deliveries a round needs given `selected` participants.
    pub fn quorum_min(&self, selected: usize) -> usize {
        if self.config.quorum_fraction <= 0.0 || selected == 0 {
            return 0;
        }
        (((selected as f64) * self.config.quorum_fraction).ceil() as usize).clamp(1, selected)
    }

    /// Aggregate counters across every link plus fabric-level rounds and
    /// the simulated clock.
    pub fn metrics(&self) -> TransportMetrics {
        let mut total = TransportMetrics::new();
        for link in &self.links {
            total.merge(link.metrics());
        }
        total.rounds = self.rounds_completed;
        total.sim_clock_s = self.sim_clock_s;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PartitionWindow;
    use mdl_mobile::NetworkProfile;

    #[test]
    fn ideal_fabric_counts_exact_bytes() {
        let mut fabric = Fabric::ideal(3);
        fabric.begin_round();
        for c in 0..3 {
            fabric.send_down(c, 100).expect("ideal download");
        }
        for c in 0..2 {
            fabric.send_up(c, 50).expect("ideal upload");
        }
        fabric.end_round();
        let m = fabric.metrics();
        assert_eq!(m.bytes_down, 300);
        assert_eq!(m.bytes_up, 100);
        assert_eq!(m.messages_down, 3);
        assert_eq!(m.messages_up, 2);
        assert_eq!(m.retries, 0);
        assert_eq!(m.timeouts, 0);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.ledger().total_bytes(), 400);
        assert!(m.sim_clock_s > 0.0, "even an ideal network takes time");
    }

    #[test]
    fn seeded_faulty_fabrics_are_bit_identical() {
        let cfg = FabricConfig::faulty(LinkConfig {
            loss_prob: 0.1,
            jitter_frac: 0.2,
            ..LinkConfig::clean(NetworkProfile::lte())
        });
        let run = |seed: u64| {
            let mut fabric = Fabric::new(8, cfg.clone(), seed);
            let mut outcomes = Vec::new();
            for _ in 0..5 {
                fabric.begin_round();
                for c in 0..8 {
                    outcomes.push(fabric.send_down(c, 4096).is_ok());
                    outcomes.push(fabric.send_up(c, 4096).is_ok());
                }
                fabric.end_round();
            }
            (outcomes, fabric.metrics())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn partition_makes_clients_unreachable_for_its_window() {
        let mut cfg = FabricConfig::ideal();
        cfg.faults.partitions =
            vec![PartitionWindow { from_round: 1, until_round: 2, clients: vec![0] }];
        let mut fabric = Fabric::new(2, cfg, 0);
        fabric.begin_round();
        assert_eq!(fabric.send_down(0, 10), Err(NetError::Unreachable));
        assert!(fabric.send_down(1, 10).is_ok());
        assert!(fabric.client_dropped(0));
        fabric.end_round();
        fabric.begin_round();
        assert!(fabric.send_down(0, 10).is_ok(), "partition healed in round 2");
    }

    #[test]
    fn quorum_min_rounds_up() {
        let mut cfg = FabricConfig::ideal();
        cfg.quorum_fraction = 0.5;
        let fabric = Fabric::new(4, cfg, 0);
        assert_eq!(fabric.quorum_min(0), 0);
        assert_eq!(fabric.quorum_min(1), 1);
        assert_eq!(fabric.quorum_min(5), 3);
        assert_eq!(Fabric::ideal(4).quorum_min(5), 0, "ideal fabric has no quorum");
    }

    #[test]
    fn attached_obs_mirrors_metrics_and_advances_sim_clock() {
        let cfg = FabricConfig::faulty(LinkConfig {
            loss_prob: 0.15,
            ..LinkConfig::clean(NetworkProfile::lte())
        });
        let obs = Obs::sim();
        let mut fabric = Fabric::new(4, cfg, 0xFA6);
        fabric.attach_obs(obs.clone());
        for _ in 0..3 {
            fabric.begin_round();
            for c in 0..4 {
                let _ = fabric.send_down(c, 2048);
                let _ = fabric.send_up(c, 2048);
            }
            fabric.end_round();
        }
        let m = fabric.metrics();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("net.bytes_up"), Some(m.bytes_up));
        assert_eq!(snap.counter("net.bytes_down"), Some(m.bytes_down));
        assert_eq!(snap.counter("net.retries"), Some(m.retries));
        assert_eq!(snap.counter("net.rounds"), Some(3));
        assert_eq!(snap.gauge("net.sim_clock_s"), Some(m.sim_clock_s));
        // ledger derives from the same metrics, so all three paths agree
        let ledger = m.ledger();
        assert_eq!(snap.counter("net.bytes_up"), Some(ledger.bytes_up));
        assert_eq!(snap.counter("net.bytes_down"), Some(ledger.bytes_down));
        // the obs clock advanced by the summed per-round durations
        let expected_ns = (m.sim_clock_s * 1e9).round() as i128;
        let drift = (snap.now_ns as i128 - expected_ns).abs();
        assert!(drift <= 3, "clock drifted {drift} ns (per-round rounding only)");
    }

    #[test]
    fn deadline_bounds_the_simulated_clock() {
        let mut cfg = FabricConfig::ideal();
        cfg.round_deadline_s = 0.001;
        let mut fabric = Fabric::new(1, cfg, 0);
        fabric.begin_round();
        // wifi moves ~6 KB in 1 ms; 60 MB cannot land before the deadline
        assert_eq!(fabric.send_up(0, 60_000_000), Err(NetError::DeadlineExceeded));
        fabric.end_round();
        let m = fabric.metrics();
        assert!((m.sim_clock_s - 0.001).abs() < 1e-12);
        assert_eq!(m.timeouts, 1);
    }
}
