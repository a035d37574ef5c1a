//! Transport accounting: the low-level [`TransportMetrics`] every link and
//! fabric accumulates, and the byte-level [`CommLedger`] the federated
//! simulations report. The ledger is *derived* from the metrics
//! ([`TransportMetrics::ledger`]) so byte accounting has one source of
//! truth: delivered traffic lives in the ledger, while attempts, retries,
//! timeouts and wasted bytes only exist at the transport layer.

/// Running totals of bytes and messages exchanged with the server.
///
/// All counters use saturating arithmetic: a long-running simulation can
/// never wrap a ledger, only pin it at `u64::MAX`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommLedger {
    /// Bytes uploaded from clients to the server.
    pub bytes_up: u64,
    /// Bytes downloaded from the server to clients.
    pub bytes_down: u64,
    /// Client→server messages.
    pub messages_up: u64,
    /// Server→client messages.
    pub messages_down: u64,
    /// Completed federation rounds.
    pub rounds: u64,
}

impl CommLedger {
    /// A fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one client upload of `bytes`.
    pub fn record_upload(&mut self, bytes: u64) {
        self.bytes_up = self.bytes_up.saturating_add(bytes);
        self.messages_up = self.messages_up.saturating_add(1);
    }

    /// Records one server→client download of `bytes`.
    pub fn record_download(&mut self, bytes: u64) {
        self.bytes_down = self.bytes_down.saturating_add(bytes);
        self.messages_down = self.messages_down.saturating_add(1);
    }

    /// Marks a round complete.
    pub fn finish_round(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
    }

    /// Total traffic in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up.saturating_add(self.bytes_down)
    }

    /// Folds another ledger into this one (combining per-client ledgers
    /// into a cohort total). `rounds` saturate like every other counter;
    /// callers merging per-client ledgers of the *same* run should keep
    /// the round count from one of them instead.
    pub fn merge(&mut self, other: &Self) {
        self.bytes_up = self.bytes_up.saturating_add(other.bytes_up);
        self.bytes_down = self.bytes_down.saturating_add(other.bytes_down);
        self.messages_up = self.messages_up.saturating_add(other.messages_up);
        self.messages_down = self.messages_down.saturating_add(other.messages_down);
        self.rounds = self.rounds.saturating_add(other.rounds);
    }
}

/// Per-link (or aggregate) transport counters: everything the fabric
/// observed, including traffic that never arrived.
///
/// Two runs with identical seeds produce bit-identical metrics — including
/// the simulated clock, which is computed from the same deterministic
/// draws — so this struct doubles as the reproducibility witness of a
/// faulty run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportMetrics {
    /// Send attempts (first tries and retries alike).
    pub attempts: u64,
    /// Re-sends after a failed attempt.
    pub retries: u64,
    /// Attempts that timed out (packet lost, or the transfer was slower
    /// than the retry timeout).
    pub timeouts: u64,
    /// Sends abandoned outright: unreachable link, partitioned window, or
    /// a peer that dropped out mid-round.
    pub drops: u64,
    /// Delivered client→server messages.
    pub messages_up: u64,
    /// Delivered server→client messages.
    pub messages_down: u64,
    /// Delivered client→server bytes.
    pub bytes_up: u64,
    /// Delivered server→client bytes.
    pub bytes_down: u64,
    /// Bytes put on the wire by attempts that never completed.
    pub wasted_bytes: u64,
    /// Completed rounds.
    pub rounds: u64,
    /// Simulated wall-clock seconds (per round: the slowest client, capped
    /// by the round deadline; clients transfer in parallel).
    pub sim_clock_s: f64,
}

impl TransportMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another metrics block into this one (saturating).
    pub fn merge(&mut self, other: &Self) {
        self.attempts = self.attempts.saturating_add(other.attempts);
        self.retries = self.retries.saturating_add(other.retries);
        self.timeouts = self.timeouts.saturating_add(other.timeouts);
        self.drops = self.drops.saturating_add(other.drops);
        self.messages_up = self.messages_up.saturating_add(other.messages_up);
        self.messages_down = self.messages_down.saturating_add(other.messages_down);
        self.bytes_up = self.bytes_up.saturating_add(other.bytes_up);
        self.bytes_down = self.bytes_down.saturating_add(other.bytes_down);
        self.wasted_bytes = self.wasted_bytes.saturating_add(other.wasted_bytes);
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.sim_clock_s += other.sim_clock_s;
    }

    /// The byte-accounting view: delivered traffic only. Retries, timeouts
    /// and wasted bytes stay at the transport layer.
    pub fn ledger(&self) -> CommLedger {
        CommLedger {
            bytes_up: self.bytes_up,
            bytes_down: self.bytes_down,
            messages_up: self.messages_up,
            messages_down: self.messages_down,
            rounds: self.rounds,
        }
    }

    /// Fraction of attempts that failed (0.0 on a quiet link).
    pub fn failure_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        (self.timeouts.saturating_add(self.drops)) as f64 / self.attempts as f64
    }
}

impl From<&TransportMetrics> for CommLedger {
    fn from(m: &TransportMetrics) -> Self {
        m.ledger()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut l = CommLedger::new();
        l.record_upload(100);
        l.record_upload(50);
        l.record_download(200);
        l.finish_round();
        assert_eq!(l.bytes_up, 150);
        assert_eq!(l.bytes_down, 200);
        assert_eq!(l.messages_up, 2);
        assert_eq!(l.messages_down, 1);
        assert_eq!(l.rounds, 1);
        assert_eq!(l.total_bytes(), 350);
    }

    #[test]
    fn ledger_saturates_instead_of_wrapping() {
        let mut l =
            CommLedger { bytes_up: u64::MAX - 10, messages_up: u64::MAX, ..Default::default() };
        l.record_upload(100);
        assert_eq!(l.bytes_up, u64::MAX);
        assert_eq!(l.messages_up, u64::MAX);
        assert_eq!(l.total_bytes(), u64::MAX);
    }

    #[test]
    fn ledger_merge_combines_per_client_totals() {
        let mut a = CommLedger::new();
        a.record_upload(10);
        a.record_download(20);
        let mut b = CommLedger::new();
        b.record_upload(5);
        b.finish_round();
        a.merge(&b);
        assert_eq!(a.bytes_up, 15);
        assert_eq!(a.bytes_down, 20);
        assert_eq!(a.messages_up, 2);
        assert_eq!(a.rounds, 1);
    }

    #[test]
    fn metrics_derive_ledger() {
        let m = TransportMetrics {
            attempts: 9,
            retries: 3,
            timeouts: 3,
            messages_up: 4,
            messages_down: 2,
            bytes_up: 400,
            bytes_down: 100,
            wasted_bytes: 120,
            rounds: 2,
            ..Default::default()
        };
        let l = m.ledger();
        assert_eq!(l, CommLedger::from(&m));
        assert_eq!(l.bytes_up, 400);
        assert_eq!(l.bytes_down, 100);
        assert_eq!(l.messages_up, 4);
        assert_eq!(l.messages_down, 2);
        assert_eq!(l.rounds, 2);
        // wasted traffic never reaches the ledger
        assert_eq!(l.total_bytes(), 500);
        assert!((m.failure_rate() - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_merge_saturates() {
        let mut a =
            TransportMetrics { attempts: u64::MAX - 1, sim_clock_s: 1.5, ..Default::default() };
        let b = TransportMetrics { attempts: 10, sim_clock_s: 0.5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.attempts, u64::MAX);
        assert!((a.sim_clock_s - 2.0).abs() < 1e-12);
    }
}
