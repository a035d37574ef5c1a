//! A client population with compact per-client availability state.
//!
//! 100k+ clients never fit as 100k `Dataset`s or 100k RNGs. Instead each
//! client is ~80 bytes: a class index (which [`ClientClass`] it belongs
//! to) plus three alternating-renewal attribute chains — idle, charging,
//! unmetered — each an `(on, next_flip_ns, SeedStream)` triple. Chains
//! advance **lazily**: asking whether a client is eligible at virtual time
//! `t` fast-forwards its flips up to `t` and nothing else ever touches it.
//! Every dwell draw comes from the client's own keyed stream, so the
//! trajectory of client 77 is a pure function of `(population seed, 77)` —
//! independent of who else was queried, in what order, or how often.

use crate::seed::SeedStream;
use mdl_mobile::{AvailabilityProfile, DeviceProfile, NetworkProfile};

/// Domain separators for the per-client draw streams.
const CLASS_DOMAIN: u64 = 0xC1A5_5000_0000_0000;
const ATTR_DOMAIN: u64 = 0xA77E_0000_0000_0000;

/// Finite dwells shorter than this are clamped up, so a degenerate
/// profile (mean → 0) cannot wedge the lazy advance in an endless flip
/// loop.
const MIN_DWELL_NS: u64 = 1_000_000; // 1 ms

/// One stratum of the population: a device tier, its availability
/// dynamics and its radio, weighted by prevalence.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientClass {
    /// Relative prevalence (normalised over the spec's classes).
    pub weight: f64,
    /// Compute tier (drives local-training time).
    pub device: DeviceProfile,
    /// Dwell-time dynamics of the §II-B eligibility attributes.
    pub availability: AvailabilityProfile,
    /// Radio the client's link is built from.
    pub network: NetworkProfile,
}

/// Declarative description of a population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Number of clients.
    pub size: u64,
    /// Strata; each client is assigned one by a keyed hash of its id.
    pub classes: Vec<ClientClass>,
    /// Seed for class assignment and every availability chain.
    pub seed: u64,
}

impl PopulationSpec {
    /// A single-stratum population.
    pub fn uniform(size: u64, class: ClientClass, seed: u64) -> Self {
        Self { size, classes: vec![class], seed }
    }

    /// The default §II deployment mix: half commuting mid-range phones on
    /// LTE, a third overnight flagships on Wi-Fi, the rest wearables
    /// tethered over Wi-Fi.
    pub fn mobile_mix(size: u64, seed: u64) -> Self {
        Self {
            size,
            classes: vec![
                ClientClass {
                    weight: 0.5,
                    device: DeviceProfile::midrange_phone(),
                    availability: AvailabilityProfile::commuter_phone(),
                    network: NetworkProfile::lte(),
                },
                ClientClass {
                    weight: 0.35,
                    device: DeviceProfile::flagship_phone(),
                    availability: AvailabilityProfile::overnight_phone(),
                    network: NetworkProfile::wifi(),
                },
                ClientClass {
                    weight: 0.15,
                    device: DeviceProfile::wearable(),
                    availability: AvailabilityProfile::wearable(),
                    network: NetworkProfile::wifi(),
                },
            ],
            seed,
        }
    }

    /// A population that is always eligible — legacy semantics, useful
    /// for isolating transport effects from availability effects.
    pub fn always_eligible(size: u64, network: NetworkProfile, seed: u64) -> Self {
        Self::uniform(
            size,
            ClientClass {
                weight: 1.0,
                device: DeviceProfile::flagship_phone(),
                availability: AvailabilityProfile::always_eligible(),
                network,
            },
            seed,
        )
    }
}

/// One ON/OFF renewal chain, advanced lazily in virtual time.
#[derive(Debug, Clone)]
struct AttrChain {
    stream: SeedStream,
    next_flip_ns: u64,
    on: bool,
}

impl AttrChain {
    fn init(seed: u64, id: u64, attr: u64, mean_on_s: f64, mean_off_s: f64) -> Self {
        let mut stream = SeedStream::new(seed ^ ATTR_DOMAIN, id, attr);
        // start in steady state so round 1 sees realistic eligibility
        let p_on = if mean_on_s.is_infinite() || mean_off_s <= 0.0 {
            1.0
        } else if mean_on_s <= 0.0 {
            0.0
        } else {
            mean_on_s / (mean_on_s + mean_off_s)
        };
        let on = stream.next_f64() < p_on;
        let mut chain = Self { stream, next_flip_ns: 0, on };
        chain.next_flip_ns = chain.draw_flip(0, if on { mean_on_s } else { mean_off_s });
        chain
    }

    fn draw_flip(&mut self, now_ns: u64, mean_s: f64) -> u64 {
        let dwell = AvailabilityProfile::dwell_s(mean_s, self.stream.next_f64());
        if dwell.is_infinite() {
            return u64::MAX;
        }
        let dwell_ns = ((dwell * 1e9) as u64).max(MIN_DWELL_NS);
        now_ns.saturating_add(dwell_ns)
    }

    fn advance_to(&mut self, t_ns: u64, mean_on_s: f64, mean_off_s: f64) {
        while self.next_flip_ns <= t_ns {
            let flip_at = self.next_flip_ns;
            self.on = !self.on;
            let mean = if self.on { mean_on_s } else { mean_off_s };
            self.next_flip_ns = self.draw_flip(flip_at, mean);
        }
    }
}

#[derive(Debug, Clone)]
struct ClientState {
    class: u32,
    idle: AttrChain,
    charging: AttrChain,
    unmetered: AttrChain,
}

/// The instantiated population: one compact state machine per client.
#[derive(Debug)]
pub struct Population {
    spec: PopulationSpec,
    states: Vec<ClientState>,
}

impl Population {
    /// Instantiates `spec`, assigning each client a class by keyed hash
    /// of its id against the cumulative class weights.
    ///
    /// # Panics
    ///
    /// Panics when the spec has no classes or no positive weight.
    pub fn new(spec: PopulationSpec) -> Self {
        assert!(!spec.classes.is_empty(), "population needs at least one class");
        let total: f64 = spec.classes.iter().map(|c| c.weight.max(0.0)).sum();
        assert!(total > 0.0, "population class weights must be positive");
        let states = (0..spec.size)
            .map(|id| {
                let mut pick = SeedStream::new(spec.seed ^ CLASS_DOMAIN, id, 0);
                let mut u = pick.next_f64() * total;
                let mut class = spec.classes.len() - 1;
                for (i, c) in spec.classes.iter().enumerate() {
                    u -= c.weight.max(0.0);
                    if u < 0.0 {
                        class = i;
                        break;
                    }
                }
                let a = &spec.classes[class].availability;
                ClientState {
                    class: class as u32,
                    idle: AttrChain::init(spec.seed, id, 0, a.mean_idle_s, a.mean_active_s),
                    charging: AttrChain::init(
                        spec.seed,
                        id,
                        1,
                        a.mean_charging_s,
                        a.mean_unplugged_s,
                    ),
                    unmetered: AttrChain::init(
                        spec.seed,
                        id,
                        2,
                        a.mean_unmetered_s,
                        a.mean_metered_s,
                    ),
                }
            })
            .collect();
        Self { spec, states }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The spec this population was built from.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }

    /// The class of one client.
    pub fn class_of(&self, id: u64) -> &ClientClass {
        &self.spec.classes[self.states[id as usize].class as usize]
    }

    /// Advances `id`'s chains to virtual time `t_ns` and reports whether
    /// it is eligible (idle ∧ charging ∧ unmetered) at that instant.
    pub fn is_eligible_at(&mut self, id: u64, t_ns: u64) -> bool {
        let class = self.states[id as usize].class as usize;
        let a = &self.spec.classes[class].availability;
        let (idle_on, idle_off) = (a.mean_idle_s, a.mean_active_s);
        let (chg_on, chg_off) = (a.mean_charging_s, a.mean_unplugged_s);
        let (um_on, um_off) = (a.mean_unmetered_s, a.mean_metered_s);
        let s = &mut self.states[id as usize];
        s.idle.advance_to(t_ns, idle_on, idle_off);
        s.charging.advance_to(t_ns, chg_on, chg_off);
        s.unmetered.advance_to(t_ns, um_on, um_off);
        s.idle.on && s.charging.on && s.unmetered.on
    }

    /// Ids of every client eligible at `t_ns`, in ascending id order.
    pub fn eligible_at(&mut self, t_ns: u64) -> Vec<u64> {
        (0..self.states.len() as u64).filter(|&id| self.is_eligible_at(id, t_ns)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_assignment_tracks_weights() {
        let pop = Population::new(PopulationSpec::mobile_mix(20_000, 9));
        let mut counts = [0usize; 3];
        for id in 0..20_000u64 {
            counts[pop.states[id as usize].class as usize] += 1;
        }
        let fracs: Vec<f64> = counts.iter().map(|&c| c as f64 / 20_000.0).collect();
        assert!((fracs[0] - 0.5).abs() < 0.02, "{fracs:?}");
        assert!((fracs[1] - 0.35).abs() < 0.02, "{fracs:?}");
        assert!((fracs[2] - 0.15).abs() < 0.02, "{fracs:?}");
    }

    #[test]
    fn eligibility_tracks_duty_cycle_in_steady_state() {
        let spec = PopulationSpec::uniform(
            10_000,
            ClientClass {
                weight: 1.0,
                device: DeviceProfile::flagship_phone(),
                availability: AvailabilityProfile::overnight_phone(),
                network: NetworkProfile::wifi(),
            },
            4,
        );
        let duty = spec.classes[0].availability.duty_cycle();
        let mut pop = Population::new(spec);
        let frac = pop.eligible_at(0).len() as f64 / 10_000.0;
        assert!((frac - duty).abs() < 0.03, "t=0 eligible {frac} vs duty {duty}");
        // hours later the chains have churned but the rate holds
        let later = 3600 * 5 * 1_000_000_000u64;
        let frac_later = pop.eligible_at(later).len() as f64 / 10_000.0;
        assert!((frac_later - duty).abs() < 0.03, "t=5h eligible {frac_later} vs duty {duty}");
    }

    #[test]
    fn trajectories_are_independent_of_query_pattern() {
        let spec = PopulationSpec::mobile_mix(64, 11);
        let t1 = 600 * 1_000_000_000u64;
        let t2 = 7200 * 1_000_000_000u64;
        // population A: queried at t1 then t2; population B: only at t2
        let mut a = Population::new(spec.clone());
        let _ = a.eligible_at(t1);
        let at_t2 = a.eligible_at(t2);
        let mut b = Population::new(spec);
        assert_eq!(at_t2, b.eligible_at(t2), "lazy advance must not depend on query history");
    }

    #[test]
    fn always_eligible_population_never_gates() {
        let mut pop =
            Population::new(PopulationSpec::always_eligible(100, NetworkProfile::wifi(), 1));
        assert_eq!(pop.eligible_at(0).len(), 100);
        assert_eq!(pop.eligible_at(86_400 * 1_000_000_000).len(), 100);
        assert_eq!(pop.class_of(3).availability.name, "always-eligible");
    }
}
