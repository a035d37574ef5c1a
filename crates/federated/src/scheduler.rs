//! Client eligibility scheduling (§II-B).
//!
//! Google's deployment only trains on a device that is simultaneously
//! *idle*, *plugged in* and on an *unmetered (Wi-Fi) connection*. The
//! simulator gives every client an independent probability of being in each
//! state per round (roughly "overnight on the charger") and only eligible
//! clients can be selected.

use rand::Rng;

/// Instantaneous device state relevant to federated participation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceState {
    /// Screen off, no foreground interaction.
    pub idle: bool,
    /// Connected to power.
    pub charging: bool,
    /// On an unmetered (Wi-Fi) connection.
    pub unmetered: bool,
}

impl DeviceState {
    /// Whether the deployment policy allows training right now.
    pub fn eligible(&self) -> bool {
        self.idle && self.charging && self.unmetered
    }
}

/// Per-client Bernoulli availability model.
///
/// # Examples
///
/// ```
/// use mdl_federated::AvailabilityModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = AvailabilityModel::overnight(100);
/// let eligible = model.sample_eligible(&mut rng);
/// assert!(eligible.len() < 100, "not everyone is idle+charging+Wi-Fi");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityModel {
    /// Probability of being idle at a check-in.
    pub p_idle: f64,
    /// Probability of being plugged in.
    pub p_charging: f64,
    /// Probability of being on Wi-Fi.
    pub p_unmetered: f64,
    clients: usize,
}

impl AvailabilityModel {
    /// A model over `clients` devices with the given state probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(clients: usize, p_idle: f64, p_charging: f64, p_unmetered: f64) -> Self {
        for (name, p) in [("idle", p_idle), ("charging", p_charging), ("unmetered", p_unmetered)] {
            assert!((0.0..=1.0).contains(&p), "p_{name} out of [0, 1]: {p}");
        }
        Self { p_idle, p_charging, p_unmetered, clients }
    }

    /// Always-available model (the idealised simulation default).
    pub fn always_available(clients: usize) -> Self {
        Self::new(clients, 1.0, 1.0, 1.0)
    }

    /// A realistic overnight pattern: devices are eligible roughly a third
    /// of check-ins.
    pub fn overnight(clients: usize) -> Self {
        Self::new(clients, 0.75, 0.55, 0.85)
    }

    /// Number of clients covered.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Samples each device's state for one round.
    pub fn sample_states(&self, rng: &mut impl Rng) -> Vec<DeviceState> {
        (0..self.clients)
            .map(|_| DeviceState {
                idle: rng.gen::<f64>() < self.p_idle,
                charging: rng.gen::<f64>() < self.p_charging,
                unmetered: rng.gen::<f64>() < self.p_unmetered,
            })
            .collect()
    }

    /// Indices of clients eligible this round.
    pub fn sample_eligible(&self, rng: &mut impl Rng) -> Vec<usize> {
        self.sample_states(rng)
            .iter()
            .enumerate()
            .filter(|(_, s)| s.eligible())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eligibility_requires_all_three() {
        assert!(DeviceState { idle: true, charging: true, unmetered: true }.eligible());
        assert!(!DeviceState { idle: false, charging: true, unmetered: true }.eligible());
        assert!(!DeviceState { idle: true, charging: false, unmetered: true }.eligible());
        assert!(!DeviceState { idle: true, charging: true, unmetered: false }.eligible());
    }

    #[test]
    fn always_available_selects_everyone() {
        let mut rng = StdRng::seed_from_u64(180);
        let m = AvailabilityModel::always_available(20);
        assert_eq!(m.sample_eligible(&mut rng).len(), 20);
    }

    #[test]
    fn overnight_rate_matches_product() {
        let mut rng = StdRng::seed_from_u64(181);
        let m = AvailabilityModel::overnight(1000);
        let expect = 0.75 * 0.55 * 0.85;
        let mut total = 0usize;
        let trials = 30;
        for _ in 0..trials {
            total += m.sample_eligible(&mut rng).len();
        }
        let rate = total as f64 / (1000.0 * trials as f64);
        assert!((rate - expect).abs() < 0.05, "rate={rate} expect≈{expect}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn rejects_bad_probability() {
        let _ = AvailabilityModel::new(5, 1.5, 0.5, 0.5);
    }
}
