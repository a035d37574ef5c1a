//! Availability-transition parameters (§II-B eligibility dynamics).
//!
//! The deployment policy only trains on a device that is simultaneously
//! *idle*, *plugged in* and on an *unmetered* connection. The per-round
//! Bernoulli model in `mdl-federated` captures the steady-state rate but
//! not the *dynamics*: a phone that just went on the charger stays there
//! for hours, it does not flip a coin every round. An
//! [`AvailabilityProfile`] gives each of the three eligibility attributes
//! an alternating-renewal dwell-time model (mean seconds spent in the ON
//! and OFF state), so a population simulator can evolve per-client state
//! machines in virtual time instead of inventing transition parameters ad
//! hoc.
//!
//! All dwell draws are made by the *caller* from seeded randomness; the
//! profile itself is pure data plus the inverse-CDF helper
//! [`AvailabilityProfile::dwell_s`], so two simulations with the same
//! seeds walk identical state trajectories.

use crate::device::DeviceProfile;

/// Mean dwell times (seconds) of the three §II-B eligibility attributes,
/// each modelled as an alternating ON/OFF renewal process with
/// exponentially distributed sojourns.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityProfile {
    /// Human-readable name.
    pub name: String,
    /// Mean seconds a device stays idle (screen off) once idle.
    pub mean_idle_s: f64,
    /// Mean seconds of foreground use once active.
    pub mean_active_s: f64,
    /// Mean seconds on the charger once plugged in.
    pub mean_charging_s: f64,
    /// Mean seconds off the charger once unplugged.
    pub mean_unplugged_s: f64,
    /// Mean seconds on unmetered (Wi-Fi) connectivity once associated.
    pub mean_unmetered_s: f64,
    /// Mean seconds on metered (cellular) connectivity once roaming.
    pub mean_metered_s: f64,
}

impl AvailabilityProfile {
    /// The overnight pattern federated deployments harvest: long idle and
    /// charging dwells (a phone on the nightstand), mostly home Wi-Fi.
    pub fn overnight_phone() -> Self {
        Self {
            name: "overnight-phone".into(),
            mean_idle_s: 6.0 * 3600.0,
            mean_active_s: 45.0 * 60.0,
            mean_charging_s: 7.0 * 3600.0,
            mean_unplugged_s: 14.0 * 3600.0,
            mean_unmetered_s: 10.0 * 3600.0,
            mean_metered_s: 3.0 * 3600.0,
        }
    }

    /// A commuter's phone: shorter charge windows, frequent hand-offs
    /// between Wi-Fi and cellular, more foreground use.
    pub fn commuter_phone() -> Self {
        Self {
            name: "commuter-phone".into(),
            mean_idle_s: 2.0 * 3600.0,
            mean_active_s: 30.0 * 60.0,
            mean_charging_s: 3.0 * 3600.0,
            mean_unplugged_s: 16.0 * 3600.0,
            mean_unmetered_s: 2.5 * 3600.0,
            mean_metered_s: 2.0 * 3600.0,
        }
    }

    /// A wearable: almost always idle, short nightly charge, tethered
    /// (unmetered) whenever its host phone is near.
    pub fn wearable() -> Self {
        Self {
            name: "wearable".into(),
            mean_idle_s: 12.0 * 3600.0,
            mean_active_s: 5.0 * 60.0,
            mean_charging_s: 2.0 * 3600.0,
            mean_unplugged_s: 22.0 * 3600.0,
            mean_unmetered_s: 8.0 * 3600.0,
            mean_metered_s: 4.0 * 3600.0,
        }
    }

    /// A device that is always idle, plugged in and on Wi-Fi — the
    /// degenerate profile legacy simulations assumed. Useful for tests
    /// that want population plumbing without availability gating.
    pub fn always_eligible() -> Self {
        Self {
            name: "always-eligible".into(),
            mean_idle_s: f64::INFINITY,
            mean_active_s: 0.0,
            mean_charging_s: f64::INFINITY,
            mean_unplugged_s: 0.0,
            mean_unmetered_s: f64::INFINITY,
            mean_metered_s: 0.0,
        }
    }

    /// The seeded default dwell parameters for a device profile, keyed by
    /// its name: flagships follow the overnight pattern, mid-range phones
    /// commute, wearables get the wearable pattern. Unknown device names
    /// fall back to the commuter profile (the most conservative eligible
    /// fraction).
    pub fn for_device(device: &DeviceProfile) -> Self {
        match device.name.as_str() {
            "flagship-phone" => Self::overnight_phone(),
            "wearable" => Self::wearable(),
            "cloud-server" => Self::always_eligible(),
            _ => Self::commuter_phone(),
        }
    }

    /// Steady-state probability of one attribute being ON given its mean
    /// ON/OFF dwells: `on / (on + off)`.
    fn on_fraction(mean_on_s: f64, mean_off_s: f64) -> f64 {
        if mean_on_s.is_infinite() || mean_off_s <= 0.0 {
            return 1.0;
        }
        if mean_on_s <= 0.0 {
            return 0.0;
        }
        mean_on_s / (mean_on_s + mean_off_s)
    }

    /// Steady-state fraction of time each attribute is ON:
    /// `(idle, charging, unmetered)`.
    pub fn on_fractions(&self) -> (f64, f64, f64) {
        (
            Self::on_fraction(self.mean_idle_s, self.mean_active_s),
            Self::on_fraction(self.mean_charging_s, self.mean_unplugged_s),
            Self::on_fraction(self.mean_unmetered_s, self.mean_metered_s),
        )
    }

    /// Expected fraction of check-ins at which the device is eligible
    /// (idle ∧ charging ∧ unmetered), assuming attribute independence.
    pub fn duty_cycle(&self) -> f64 {
        let (i, c, u) = self.on_fractions();
        i * c * u
    }

    /// Inverse-CDF exponential dwell draw: maps a uniform `u ∈ [0, 1)` to
    /// a sojourn of mean `mean_s` seconds. A zero mean yields an
    /// instantaneous sojourn; an infinite mean pins the state forever.
    pub fn dwell_s(mean_s: f64, u: f64) -> f64 {
        if mean_s <= 0.0 {
            return 0.0;
        }
        if mean_s.is_infinite() {
            return f64::INFINITY;
        }
        let u = u.clamp(0.0, 1.0 - 1e-12);
        -mean_s * (1.0 - u).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycles_are_ordered_sanely() {
        let overnight = AvailabilityProfile::overnight_phone().duty_cycle();
        let commuter = AvailabilityProfile::commuter_phone().duty_cycle();
        assert!(overnight > commuter, "{overnight} vs {commuter}");
        assert!(overnight > 0.05 && overnight < 0.6, "overnight duty {overnight}");
        assert_eq!(AvailabilityProfile::always_eligible().duty_cycle(), 1.0);
    }

    #[test]
    fn device_defaults_are_seeded_per_profile() {
        let flagship = AvailabilityProfile::for_device(&DeviceProfile::flagship_phone());
        let mid = AvailabilityProfile::for_device(&DeviceProfile::midrange_phone());
        let wear = AvailabilityProfile::for_device(&DeviceProfile::wearable());
        assert_eq!(flagship.name, "overnight-phone");
        assert_eq!(mid.name, "commuter-phone");
        assert_eq!(wear.name, "wearable");
        assert_eq!(
            AvailabilityProfile::for_device(&DeviceProfile::cloud_server()).duty_cycle(),
            1.0
        );
    }

    #[test]
    fn dwell_draw_matches_exponential_inverse_cdf() {
        assert_eq!(AvailabilityProfile::dwell_s(0.0, 0.5), 0.0);
        assert_eq!(AvailabilityProfile::dwell_s(f64::INFINITY, 0.5), f64::INFINITY);
        let median = AvailabilityProfile::dwell_s(100.0, 0.5);
        assert!((median - 100.0 * std::f64::consts::LN_2).abs() < 1e-9);
        // mean over a uniform grid converges on the configured mean
        let n = 10_000;
        let mean: f64 =
            (0..n).map(|i| AvailabilityProfile::dwell_s(60.0, i as f64 / n as f64)).sum::<f64>()
                / n as f64;
        assert!((mean - 60.0).abs() < 1.0, "empirical mean {mean}");
    }

    #[test]
    fn dwell_is_monotone_in_u() {
        let a = AvailabilityProfile::dwell_s(10.0, 0.1);
        let b = AvailabilityProfile::dwell_s(10.0, 0.9);
        assert!(b > a && a > 0.0);
    }
}
