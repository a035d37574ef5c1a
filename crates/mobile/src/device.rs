//! Analytic compute/memory model of a mobile device (§I, §III).
//!
//! The paper's inference-side arguments rest on two hardware facts:
//! off-chip DRAM access costs ~two orders of magnitude more energy than
//! on-chip SRAM (references [13], [14]), and the dot-product volume of a
//! DNN dominates mobile compute budgets. The model here captures exactly
//! those effects with literature constants (Horowitz-style 45 nm numbers,
//! as cited by Han et al.): it is a *relative-cost* model — absolute
//! numbers are indicative, orderings are what the experiments rely on.

use mdl_nn::LayerInfo;

/// Energy/latency estimate of one inference (or transfer).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Wall-clock seconds.
    pub latency_s: f64,
    /// Energy in joules.
    pub energy_j: f64,
}

impl CostEstimate {
    /// Component-wise sum.
    pub fn plus(self, other: CostEstimate) -> CostEstimate {
        CostEstimate {
            latency_s: self.latency_s + other.latency_s,
            energy_j: self.energy_j + other.energy_j,
        }
    }

    /// A zero-cost estimate.
    pub fn zero() -> CostEstimate {
        CostEstimate::default()
    }
}

/// Compute and memory profile of a device class.
///
/// # Examples
///
/// ```
/// use mdl_mobile::DeviceProfile;
/// use mdl_nn::LayerInfo;
///
/// let layer = LayerInfo { kind: "dense", in_dim: 64, out_dim: 32,
///                         params: 64 * 32 + 32, macs: 64 * 32 };
/// let cost = DeviceProfile::midrange_phone().inference_cost(&[layer], 4.0);
/// assert!(cost.latency_s > 0.0 && cost.energy_j > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Sustained multiply–accumulates per second.
    pub macs_per_sec: f64,
    /// Energy per MAC in joules (arithmetic only).
    pub energy_per_mac_j: f64,
    /// On-chip (SRAM/cache) capacity in bytes available for weights.
    pub on_chip_bytes: u64,
    /// Energy per byte read from on-chip memory.
    pub on_chip_j_per_byte: f64,
    /// Energy per byte read from off-chip DRAM (~2 orders of magnitude
    /// above on-chip — the key constant behind §I's memory argument).
    pub off_chip_j_per_byte: f64,
}

impl DeviceProfile {
    /// A flagship-class phone SoC (large cache, fast NPU-ish throughput).
    pub fn flagship_phone() -> Self {
        Self {
            name: "flagship-phone".into(),
            macs_per_sec: 2.0e10,
            energy_per_mac_j: 4.6e-12,
            on_chip_bytes: 8 * 1024 * 1024,
            on_chip_j_per_byte: 1.25e-12,
            off_chip_j_per_byte: 1.6e-10,
        }
    }

    /// A mid-range phone.
    pub fn midrange_phone() -> Self {
        Self {
            name: "midrange-phone".into(),
            macs_per_sec: 4.0e9,
            energy_per_mac_j: 6.0e-12,
            on_chip_bytes: 2 * 1024 * 1024,
            on_chip_j_per_byte: 1.25e-12,
            off_chip_j_per_byte: 1.6e-10,
        }
    }

    /// A wearable / embedded sensor node.
    pub fn wearable() -> Self {
        Self {
            name: "wearable".into(),
            macs_per_sec: 2.0e8,
            energy_per_mac_j: 1.0e-11,
            on_chip_bytes: 256 * 1024,
            on_chip_j_per_byte: 1.25e-12,
            off_chip_j_per_byte: 2.0e-10,
        }
    }

    /// A cloud server (effectively unconstrained for our model sizes);
    /// energy is billed to the provider so the device-side energy is zero.
    pub fn cloud_server() -> Self {
        Self {
            name: "cloud-server".into(),
            macs_per_sec: 2.0e12,
            energy_per_mac_j: 0.0,
            on_chip_bytes: u64::MAX,
            on_chip_j_per_byte: 0.0,
            off_chip_j_per_byte: 0.0,
        }
    }

    /// Estimates one forward pass over layers with `model_bytes` of weights.
    ///
    /// Weights that fit on-chip are read at SRAM cost; any overflow is
    /// charged at DRAM cost *per inference* (streamed weights cannot be
    /// cached — the paper's §I point about large models being pushed
    /// off-chip).
    pub fn inference_cost(&self, layers: &[LayerInfo], bytes_per_weight: f64) -> CostEstimate {
        let total_macs: u64 = layers.iter().map(|l| l.macs).sum();
        let total_params: u64 = layers.iter().map(|l| l.params as u64).sum();
        let model_bytes = total_params as f64 * bytes_per_weight;

        let latency = total_macs as f64 / self.macs_per_sec;
        let compute_energy = total_macs as f64 * self.energy_per_mac_j;
        let on_chip = model_bytes.min(self.on_chip_bytes as f64);
        let off_chip = (model_bytes - on_chip).max(0.0);
        let memory_energy = on_chip * self.on_chip_j_per_byte + off_chip * self.off_chip_j_per_byte;
        CostEstimate { latency_s: latency, energy_j: compute_energy + memory_energy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(params: usize, macs: u64) -> LayerInfo {
        LayerInfo { kind: "dense", in_dim: 0, out_dim: 0, params, macs }
    }

    #[test]
    fn bigger_models_cost_more() {
        let dev = DeviceProfile::midrange_phone();
        let small = dev.inference_cost(&[layer(1000, 1000)], 4.0);
        let big = dev.inference_cost(&[layer(1_000_000, 1_000_000)], 4.0);
        assert!(big.latency_s > small.latency_s);
        assert!(big.energy_j > small.energy_j);
    }

    #[test]
    fn off_chip_spill_dominates_energy() {
        let dev = DeviceProfile::wearable(); // 256 KiB on-chip
                                             // 64 KiB model: fully on-chip
        let fits = dev.inference_cost(&[layer(16_384, 16_384)], 4.0);
        // 2.56 MiB model: 90% spills to DRAM, same MACs per weight
        let spills = dev.inference_cost(&[layer(655_360, 655_360)], 4.0);
        let fits_per_mac = fits.energy_j / 16_384.0;
        let spills_per_mac = spills.energy_j / 655_360.0;
        assert!(
            spills_per_mac > fits_per_mac * 5.0,
            "DRAM spill must dominate per-MAC energy: {spills_per_mac} vs {fits_per_mac}"
        );
    }

    #[test]
    fn compression_reduces_memory_energy() {
        let dev = DeviceProfile::wearable();
        let l = [layer(1_000_000, 1_000_000)];
        let fp32 = dev.inference_cost(&l, 4.0);
        let compressed = dev.inference_cost(&l, 0.4); // ~10x compressed
        assert!(compressed.energy_j < fp32.energy_j / 2.0);
    }

    #[test]
    fn device_ordering_is_sane() {
        let l = [layer(100_000, 100_000)];
        let flagship = DeviceProfile::flagship_phone().inference_cost(&l, 4.0);
        let mid = DeviceProfile::midrange_phone().inference_cost(&l, 4.0);
        let wear = DeviceProfile::wearable().inference_cost(&l, 4.0);
        assert!(flagship.latency_s < mid.latency_s);
        assert!(mid.latency_s < wear.latency_s);
        let cloud = DeviceProfile::cloud_server().inference_cost(&l, 4.0);
        assert_eq!(cloud.energy_j, 0.0);
    }

    #[test]
    fn cost_estimates_add() {
        let a = CostEstimate { latency_s: 1.0, energy_j: 2.0 };
        let b = CostEstimate { latency_s: 0.5, energy_j: 0.25 };
        let c = a.plus(b);
        assert_eq!(c.latency_s, 1.5);
        assert_eq!(c.energy_j, 2.25);
        assert_eq!(CostEstimate::zero(), CostEstimate::default());
    }
}
