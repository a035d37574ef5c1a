//! Execution-placement comparison: on-device vs cloud vs split inference
//! (§III, Figs. 2 and 3).

use crate::device::{CostEstimate, DeviceProfile};
use crate::radio::NetworkProfile;
use mdl_nn::LayerInfo;

/// Where an inference executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Entire model on the device (Fig. 2's alternative).
    OnDevice,
    /// Raw input shipped to the cloud, result shipped back (Fig. 2).
    Cloud,
    /// First `local_layers` layers on the device, the rest in the cloud,
    /// transmitting the intermediate representation (Fig. 3).
    Split {
        /// Number of layers executed locally before the upload.
        local_layers: usize,
    },
}

/// Inputs to a placement evaluation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Per-layer structure of the model.
    pub layers: Vec<LayerInfo>,
    /// Bytes of one raw input example.
    pub input_bytes: u64,
    /// Bytes of the returned result.
    pub result_bytes: u64,
    /// Bytes per weight on the device (4.0 = fp32; smaller after compression).
    pub bytes_per_weight: f64,
}

impl Scenario {
    /// Bytes of the activation crossing the network when splitting after
    /// `local_layers` (fp32 activations).
    pub fn representation_bytes(&self, local_layers: usize) -> u64 {
        if local_layers == 0 {
            return self.input_bytes;
        }
        let width = self.layers[local_layers - 1].out_dim;
        4 * width as u64
    }
}

/// Device-side cost of one inference under a placement.
///
/// Cloud compute time is included in latency (the user waits for it) but
/// cloud energy is not charged to the device.
///
/// # Panics
///
/// Panics if a split point exceeds the layer count.
pub fn placement_cost(
    placement: Placement,
    scenario: &Scenario,
    device: &DeviceProfile,
    cloud: &DeviceProfile,
    network: &NetworkProfile,
) -> CostEstimate {
    match placement {
        Placement::OnDevice => device.inference_cost(&scenario.layers, scenario.bytes_per_weight),
        Placement::Cloud => {
            let radio = network.round_trip_cost(scenario.input_bytes, scenario.result_bytes);
            let compute = cloud.inference_cost(&scenario.layers, 4.0);
            CostEstimate {
                latency_s: radio.latency_s + compute.latency_s,
                energy_j: radio.energy_j,
            }
        }
        Placement::Split { local_layers } => {
            assert!(local_layers <= scenario.layers.len(), "split point beyond network depth");
            let local =
                device.inference_cost(&scenario.layers[..local_layers], scenario.bytes_per_weight);
            let remote = cloud.inference_cost(&scenario.layers[local_layers..], 4.0);
            let radio = network.round_trip_cost(
                scenario.representation_bytes(local_layers),
                scenario.result_bytes,
            );
            CostEstimate {
                latency_s: local.latency_s + radio.latency_s + remote.latency_s,
                energy_j: local.energy_j + radio.energy_j,
            }
        }
    }
}

/// Evaluates all placements (every split point) and returns them sorted by
/// the chosen objective.
pub fn rank_placements(
    scenario: &Scenario,
    device: &DeviceProfile,
    cloud: &DeviceProfile,
    network: &NetworkProfile,
    by_energy: bool,
) -> Vec<(Placement, CostEstimate)> {
    let mut options = vec![Placement::OnDevice, Placement::Cloud];
    for at in 1..scenario.layers.len() {
        options.push(Placement::Split { local_layers: at });
    }
    let mut ranked: Vec<(Placement, CostEstimate)> = options
        .into_iter()
        .map(|p| (p, placement_cost(p, scenario, device, cloud, network)))
        .collect();
    ranked.sort_by(|a, b| {
        let ka = if by_energy { a.1.energy_j } else { a.1.latency_s };
        let kb = if by_energy { b.1.energy_j } else { b.1.latency_s };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp_scenario() -> Scenario {
        // 784 → 512 → 128 → 10 (bottlenecking widths: split sends less)
        let dims = [784usize, 512, 128, 10];
        let layers: Vec<LayerInfo> = dims
            .windows(2)
            .map(|w| LayerInfo {
                kind: "dense",
                in_dim: w[0],
                out_dim: w[1],
                params: w[0] * w[1] + w[1],
                macs: (w[0] * w[1]) as u64,
            })
            .collect();
        Scenario { layers, input_bytes: 4 * 784, result_bytes: 4 * 10, bytes_per_weight: 4.0 }
    }

    #[test]
    fn offline_forces_on_device() {
        let s = mlp_scenario();
        let ranked = rank_placements(
            &s,
            &DeviceProfile::midrange_phone(),
            &DeviceProfile::cloud_server(),
            &NetworkProfile::offline(),
            false,
        );
        assert_eq!(ranked[0].0, Placement::OnDevice);
        assert!(ranked[0].1.latency_s.is_finite());
        assert!(ranked[1].1.latency_s.is_infinite());
    }

    #[test]
    fn offline_forces_on_device_under_energy_objective() {
        // regression: offline round trips used to report 0 J, which made the
        // energy ranker place Cloud (no device compute, "free" radio) above
        // OnDevice even though the link cannot move a single byte
        let s = mlp_scenario();
        let ranked = rank_placements(
            &s,
            &DeviceProfile::midrange_phone(),
            &DeviceProfile::cloud_server(),
            &NetworkProfile::offline(),
            true,
        );
        assert_eq!(ranked[0].0, Placement::OnDevice, "ranked: {ranked:?}");
        assert!(ranked[0].1.energy_j.is_finite());
        for (placement, cost) in &ranked[1..] {
            assert!(
                cost.energy_j.is_infinite(),
                "{placement:?} must be infinitely expensive offline"
            );
        }
    }

    #[test]
    fn split_sends_fewer_bytes_than_cloud_after_bottleneck() {
        let s = mlp_scenario();
        // after layer 2 the representation is 128 floats < 784-float input
        assert!(s.representation_bytes(2) < s.input_bytes);
        assert_eq!(s.representation_bytes(2), 4 * 128);
        assert_eq!(s.representation_bytes(0), s.input_bytes);
    }

    fn big_scenario() -> Scenario {
        // a VGG-fc-sized stack: far beyond a wearable's budget
        let dims = [784usize, 4096, 4096, 4096, 10];
        let layers: Vec<LayerInfo> = dims
            .windows(2)
            .map(|w| LayerInfo {
                kind: "dense",
                in_dim: w[0],
                out_dim: w[1],
                params: w[0] * w[1] + w[1],
                macs: (w[0] * w[1]) as u64,
            })
            .collect();
        Scenario { layers, input_bytes: 4 * 784, result_bytes: 4 * 10, bytes_per_weight: 4.0 }
    }

    #[test]
    fn weak_device_prefers_cloud_on_wifi() {
        let s = big_scenario();
        let ranked = rank_placements(
            &s,
            &DeviceProfile::wearable(),
            &DeviceProfile::cloud_server(),
            &NetworkProfile::wifi(),
            false,
        );
        assert_ne!(ranked[0].0, Placement::OnDevice, "wearable should offload: {ranked:?}");
    }

    #[test]
    fn energy_ranking_counts_radio() {
        let s = mlp_scenario();
        let device = DeviceProfile::flagship_phone();
        let cloud = DeviceProfile::cloud_server();
        let net = NetworkProfile::cellular_3g();
        let on_device = placement_cost(Placement::OnDevice, &s, &device, &cloud, &net);
        let on_cloud = placement_cost(Placement::Cloud, &s, &device, &cloud, &net);
        // flagship local compute is cheap; 3G upload of the raw input is not
        assert!(on_device.energy_j < on_cloud.energy_j);
    }

    #[test]
    fn split_costs_compose() {
        let s = mlp_scenario();
        let device = DeviceProfile::midrange_phone();
        let cloud = DeviceProfile::cloud_server();
        let net = NetworkProfile::wifi();
        let full_split =
            placement_cost(Placement::Split { local_layers: 3 }, &s, &device, &cloud, &net);
        let on_device = placement_cost(Placement::OnDevice, &s, &device, &cloud, &net);
        // splitting after the last layer = on-device + shipping 10 floats
        assert!(full_split.latency_s >= on_device.latency_s);
        assert!(full_split.energy_j >= on_device.energy_j);
    }
}
