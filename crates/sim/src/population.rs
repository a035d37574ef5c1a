//! A client population with compact per-client availability state.
//!
//! 100k+ clients never fit as 100k `Dataset`s or 100k RNGs. Instead each
//! client is 65 bytes: three alternating-renewal attribute chains — idle,
//! charging, unmetered — plus a class index (which [`ClientClass`] it
//! belongs to). The state is split by how often it is read. Hot, in two
//! dense arrays: the chains' three ON bits and the time of the client's
//! earliest pending flip — all a scan needs from a client with no flip
//! due. Cold: the class and each chain's `(SeedStream, next_flip_ns)`.
//! Chains advance **lazily**: asking whether a client is eligible at
//! virtual time `t` fast-forwards its flips up to `t` and nothing else
//! ever touches it. Every dwell draw comes from the chain's own keyed
//! stream, so the trajectory of client 77 is a pure function of
//! `(population seed, 77)` — independent of who else was queried, in what
//! order, or how often.

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

/// Bits of a client's `on` byte, one per §II-B attribute chain in stream
/// order: idle, charging, unmetered.
const ALL_ON: u8 = 0b111;

/// `(mean ON dwell, mean OFF dwell)` of the three chains, in bit order.
type ChainMeans = [(f64, f64); 3];

fn chain_means(a: &AvailabilityProfile) -> ChainMeans {
    [
        (a.mean_idle_s, a.mean_active_s),
        (a.mean_charging_s, a.mean_unplugged_s),
        (a.mean_unmetered_s, a.mean_metered_s),
    ]
}

/// One ON/OFF renewal chain minus its ON bit (that lives in the hot
/// `on` byte): the dwell stream and the virtual time of the next flip.
#[derive(Debug, Clone)]
struct Chain {
    stream: SeedStream,
    next_flip_ns: u64,
}

impl Chain {
    /// A chain in steady state at time zero, so round 1 sees realistic
    /// eligibility; returns it with its initial ON bit.
    fn init(seed: u64, id: u64, attr: u64, (mean_on_s, mean_off_s): (f64, f64)) -> (Self, bool) {
        let mut stream = SeedStream::new(seed ^ ATTR_DOMAIN, id, attr);
        let p_on = if mean_on_s.is_infinite() || mean_off_s <= 0.0 {
            1.0
        } else if mean_on_s <= 0.0 {
            0.0
        } else {
            mean_on_s / (mean_on_s + mean_off_s)
        };
        let on = stream.next_f64() < p_on;
        let mut chain = Self { stream, next_flip_ns: 0 };
        chain.next_flip_ns = chain.draw_flip(0, if on { mean_on_s } else { mean_off_s });
        (chain, on)
    }

    fn draw_flip(&mut self, now_ns: u64, mean_s: f64) -> u64 {
        let dwell = AvailabilityProfile::dwell_s(mean_s, self.stream.next_f64());
        if dwell.is_infinite() {
            return u64::MAX;
        }
        let dwell_ns = ((dwell * 1e9) as u64).max(MIN_DWELL_NS);
        now_ns.saturating_add(dwell_ns)
    }

    /// Applies every flip due by `t_ns` and returns the chain's ON bit.
    fn advance_to(&mut self, mut on: bool, t_ns: u64, (mean_on_s, mean_off_s): (f64, f64)) -> bool {
        while self.next_flip_ns <= t_ns {
            let flip_at = self.next_flip_ns;
            on = !on;
            self.next_flip_ns = self.draw_flip(flip_at, if on { mean_on_s } else { mean_off_s });
        }
        on
    }
}

/// The half of a client that only a due flip touches.
#[derive(Debug, Clone)]
struct ColdState {
    class: u32,
    chains: [Chain; 3],
}

/// The instantiated population: one compact state machine per client,
/// split so that a scan reads 9 bytes of each client that has nothing to
/// do (`next_change`, `on`) and the cold 56 only of those with a flip due.
#[derive(Debug)]
pub struct Population {
    spec: PopulationSpec,
    /// Per client, the earliest pending flip of its three chains.
    next_change: Vec<u64>,
    /// Per client, the chains' ON bits.
    on: Vec<u8>,
    cold: Vec<ColdState>,
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
        let means: Vec<ChainMeans> =
            spec.classes.iter().map(|c| chain_means(&c.availability)).collect();
        let ((next_change, on), cold): ((Vec<u64>, Vec<u8>), Vec<ColdState>) = (0..spec.size)
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
                let m = &means[class];
                let (idle, idle_on) = Chain::init(spec.seed, id, 0, m[0]);
                let (charging, charging_on) = Chain::init(spec.seed, id, 1, m[1]);
                let (unmetered, unmetered_on) = Chain::init(spec.seed, id, 2, m[2]);
                let next_change =
                    idle.next_flip_ns.min(charging.next_flip_ns).min(unmetered.next_flip_ns);
                let on =
                    u8::from(idle_on) | u8::from(charging_on) << 1 | u8::from(unmetered_on) << 2;
                let cold = ColdState { class: class as u32, chains: [idle, charging, unmetered] };
                ((next_change, on), cold)
            })
            .unzip();
        Self { spec, next_change, on, cold }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.cold.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.cold.is_empty()
    }

    /// The spec this population was built from.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }

    /// The class of one client.
    pub fn class_of(&self, id: u64) -> &ClientClass {
        &self.spec.classes[self.cold[id as usize].class as usize]
    }

    /// Advances `id`'s chains to virtual time `t_ns` and reports whether
    /// it is eligible (idle ∧ charging ∧ unmetered) at that instant.
    pub fn is_eligible_at(&mut self, id: u64, t_ns: u64) -> bool {
        let i = id as usize;
        if self.next_change[i] <= t_ns {
            self.apply_due_flips(i, t_ns);
        }
        self.on[i] == ALL_ON
    }

    /// The cold path: each chain draws only from its own stream, so
    /// advancing them one after another is advancing them together.
    fn apply_due_flips(&mut self, i: usize, t_ns: u64) {
        let cold = &mut self.cold[i];
        let means = chain_means(&self.spec.classes[cold.class as usize].availability);
        let mut on = self.on[i];
        let mut next_change = u64::MAX;
        for (bit, (chain, mean)) in cold.chains.iter_mut().zip(means).enumerate() {
            let mask = 1u8 << bit;
            if chain.advance_to(on & mask != 0, t_ns, mean) {
                on |= mask;
            } else {
                on &= !mask;
            }
            next_change = next_change.min(chain.next_flip_ns);
        }
        self.on[i] = on;
        self.next_change[i] = next_change;
    }

    /// Ids of every client eligible at `t_ns`, in ascending id order.
    pub fn eligible_at(&mut self, t_ns: u64) -> Vec<u64> {
        (0..self.len() as u64).filter(|&id| self.is_eligible_at(id, t_ns)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn class_assignment_tracks_weights() {
        let pop = Population::new(PopulationSpec::mobile_mix(20_000, 9));
        let mut counts = [0usize; 3];
        for id in 0..20_000u64 {
            counts[pop.cold[id as usize].class as usize] += 1;
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
        // population A: scanned at t1, a few ids asked one by one on the
        // way, then scanned at t2; population B: only scanned at t2
        let mut a = Population::new(spec.clone());
        let _ = a.eligible_at(t1);
        for (id, t) in [(5, t1), (40, t1 + 1), (5, 3000 * 1_000_000_000), (63, t2)] {
            let _ = a.is_eligible_at(id, t);
        }
        let at_t2 = a.eligible_at(t2);
        let mut b = Population::new(spec);
        assert_eq!(at_t2, b.eligible_at(t2), "lazy advance must not depend on query history");
    }

    #[test]
    fn a_client_is_no_larger_than_before_the_split() {
        // the pre-split `ClientState` was 80 bytes
        let hot = std::mem::size_of::<u64>() + std::mem::size_of::<u8>();
        assert!(hot + std::mem::size_of::<ColdState>() <= 80);
    }

    /// The pre-split client: three whole chains, every one advanced on
    /// every query, no `next_change` shortcut.
    struct ReferenceClient {
        class: usize,
        chains: [(Chain, bool); 3],
    }

    impl ReferenceClient {
        /// Copies client `i` out of a population nobody has queried yet.
        fn of(pop: &Population, i: usize) -> Self {
            let cold = &pop.cold[i];
            let chain = |bit: usize| (cold.chains[bit].clone(), pop.on[i] & (1 << bit) != 0);
            Self { class: cold.class as usize, chains: [chain(0), chain(1), chain(2)] }
        }

        fn is_eligible_at(&mut self, t_ns: u64, means: &[ChainMeans]) -> bool {
            for ((chain, on), &(mean_on_s, mean_off_s)) in
                self.chains.iter_mut().zip(&means[self.class])
            {
                while chain.next_flip_ns <= t_ns {
                    let flip_at = chain.next_flip_ns;
                    *on = !*on;
                    let mean = if *on { mean_on_s } else { mean_off_s };
                    chain.next_flip_ns = chain.draw_flip(flip_at, mean);
                }
            }
            self.chains.iter().all(|&(_, on)| on)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Any interleaving of single-id queries and whole scans at
        // non-decreasing times answers what the three-chain reference
        // answers, for every id.
        #[test]
        fn hot_cold_split_agrees_with_the_three_chain_reference(
            seed in any::<u64>(),
            size in 1u64..48,
            queries in 1usize..40,
        ) {
            let mut pop = Population::new(PopulationSpec::mobile_mix(size, seed));
            let mut reference: Vec<ReferenceClient> =
                (0..size as usize).map(|i| ReferenceClient::of(&pop, i)).collect();
            let means: Vec<ChainMeans> =
                pop.spec.classes.iter().map(|c| chain_means(&c.availability)).collect();
            let mut draw = SeedStream::new(seed, size, queries as u64);
            let mut t_ns = 0u64;
            for _ in 0..queries {
                // stay put, step a few minutes, or jump hours
                t_ns += match draw.next_u64() % 3 {
                    0 => 0,
                    1 => draw.next_u64() % (600 * 1_000_000_000),
                    _ => draw.next_u64() % (6 * 3600 * 1_000_000_000),
                };
                if draw.next_u64().is_multiple_of(2) {
                    let id = draw.next_u64() % size;
                    prop_assert_eq!(
                        pop.is_eligible_at(id, t_ns),
                        reference[id as usize].is_eligible_at(t_ns, &means),
                        "id {} at {} ns", id, t_ns
                    );
                } else {
                    let expected: Vec<u64> = (0..size)
                        .filter(|&id| reference[id as usize].is_eligible_at(t_ns, &means))
                        .collect();
                    prop_assert_eq!(pop.eligible_at(t_ns), expected, "scan at {} ns", t_ns);
                }
            }
            for id in 0..size {
                prop_assert_eq!(
                    pop.is_eligible_at(id, t_ns),
                    reference[id as usize].is_eligible_at(t_ns, &means)
                );
            }
        }
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
