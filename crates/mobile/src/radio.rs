//! Radio model: bandwidth, round-trip latency and per-byte energy.
//!
//! Wireless transfer is the energy elephant of cloud inference (§III):
//! moving a byte over LTE costs orders of magnitude more energy than a MAC.

use crate::device::CostEstimate;

/// A network link profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Human-readable name.
    pub name: String,
    /// Uplink bandwidth in bytes/second.
    pub up_bytes_per_sec: f64,
    /// Downlink bandwidth in bytes/second.
    pub down_bytes_per_sec: f64,
    /// One-way latency in seconds.
    pub one_way_latency_s: f64,
    /// Device energy per uplink byte (joules).
    pub tx_j_per_byte: f64,
    /// Device energy per downlink byte (joules).
    pub rx_j_per_byte: f64,
    /// Whether the link is metered (counts against the data plan —
    /// relevant to the §II-B eligibility policy).
    pub metered: bool,
}

impl NetworkProfile {
    /// Home/office Wi-Fi.
    pub fn wifi() -> Self {
        Self {
            name: "wifi".into(),
            up_bytes_per_sec: 6.0e6,
            down_bytes_per_sec: 12.0e6,
            one_way_latency_s: 0.01,
            tx_j_per_byte: 1.0e-7,
            rx_j_per_byte: 5.0e-8,
            metered: false,
        }
    }

    /// A good LTE connection.
    pub fn lte() -> Self {
        Self {
            name: "lte".into(),
            up_bytes_per_sec: 1.5e6,
            down_bytes_per_sec: 5.0e6,
            one_way_latency_s: 0.035,
            tx_j_per_byte: 6.0e-7,
            rx_j_per_byte: 2.5e-7,
            metered: true,
        }
    }

    /// A weak 3G connection.
    pub fn cellular_3g() -> Self {
        Self {
            name: "3g".into(),
            up_bytes_per_sec: 2.0e5,
            down_bytes_per_sec: 8.0e5,
            one_way_latency_s: 0.1,
            tx_j_per_byte: 2.0e-6,
            rx_j_per_byte: 8.0e-7,
            metered: true,
        }
    }

    /// No connectivity (cloud paths become impossible).
    pub fn offline() -> Self {
        Self {
            name: "offline".into(),
            up_bytes_per_sec: 0.0,
            down_bytes_per_sec: 0.0,
            one_way_latency_s: f64::INFINITY,
            tx_j_per_byte: 0.0,
            rx_j_per_byte: 0.0,
            metered: false,
        }
    }

    /// `true` when the link can move data at all.
    pub fn is_connected(&self) -> bool {
        self.up_bytes_per_sec > 0.0 && self.down_bytes_per_sec > 0.0
    }

    /// Device-side cost of a round trip uploading `up` bytes and
    /// downloading `down` bytes. Returns an infinite estimate (latency
    /// *and* energy) when offline, so that neither the latency- nor the
    /// energy-minimising objective can ever pick a network path — a zero
    /// energy cost here used to make offline cloud offload look free to
    /// the energy ranker.
    pub fn round_trip_cost(&self, up: u64, down: u64) -> CostEstimate {
        if !self.is_connected() {
            return CostEstimate { latency_s: f64::INFINITY, energy_j: f64::INFINITY };
        }
        let latency = 2.0 * self.one_way_latency_s
            + up as f64 / self.up_bytes_per_sec
            + down as f64 / self.down_bytes_per_sec;
        let energy = up as f64 * self.tx_j_per_byte + down as f64 * self.rx_j_per_byte;
        CostEstimate { latency_s: latency, energy_j: energy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_beats_lte_beats_3g() {
        let up = 100_000u64;
        let wifi = NetworkProfile::wifi().round_trip_cost(up, 100);
        let lte = NetworkProfile::lte().round_trip_cost(up, 100);
        let g3 = NetworkProfile::cellular_3g().round_trip_cost(up, 100);
        assert!(wifi.latency_s < lte.latency_s && lte.latency_s < g3.latency_s);
        assert!(wifi.energy_j < lte.energy_j && lte.energy_j < g3.energy_j);
    }

    #[test]
    fn offline_is_unusable() {
        let off = NetworkProfile::offline();
        assert!(!off.is_connected());
        let cost = off.round_trip_cost(10, 10);
        assert!(cost.latency_s.is_infinite());
        assert!(
            cost.energy_j.is_infinite(),
            "offline transfers must not look free to the energy objective"
        );
    }

    #[test]
    fn radio_energy_dwarfs_compute_energy() {
        // the §III argument: sending 100 KB over LTE costs more device
        // energy than a million MACs of local compute
        let radio = NetworkProfile::lte().round_trip_cost(100_000, 0);
        let compute = 1_000_000.0 * 4.6e-12;
        assert!(radio.energy_j > compute * 100.0);
    }

    #[test]
    fn metering_flags() {
        assert!(!NetworkProfile::wifi().metered);
        assert!(NetworkProfile::lte().metered);
        assert!(NetworkProfile::cellular_3g().metered);
    }
}
