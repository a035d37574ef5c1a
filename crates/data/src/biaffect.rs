//! Synthetic BiAffect study: mood-modulated typing dynamics (§IV-A).
//!
//! The real BiAffect dataset (40 participants, 8 weeks, a custom Android
//! keyboard logging keypress metadata and accelerometer values) is private
//! clinical data. This module substitutes a generative model that preserves
//! the structure DeepMood exploits: every participant has an idiosyncratic
//! typing signature, and a latent mood state (euthymic vs. depressed)
//! modulates that signature — psychomotor retardation slows typing, increases
//! rhythm variability and error rate, and damps gross motor activity.

use crate::dataset::Dataset;
use crate::typing::{featurize_session, TypingProfile, TypingSession, FEATURE_DIM};
use mdl_tensor::init::gaussian;
use mdl_tensor::Matrix;
use rand::Rng;

/// Mood classes predicted by DeepMood in this reproduction.
pub const MOOD_CLASSES: usize = 2;

/// Configuration of the synthetic BiAffect cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct BiAffectConfig {
    /// Number of study participants (the study enrolled 40).
    pub participants: usize,
    /// Sessions generated per participant.
    pub sessions_per_participant: usize,
    /// Strength of the mood effect on typing dynamics (1.0 = calibrated
    /// default; 0.0 makes the task impossible).
    pub mood_effect: f32,
    /// Probability that the mood state persists between consecutive
    /// sessions (mood episodes last days, sessions minutes).
    pub episode_persistence: f64,
}

impl Default for BiAffectConfig {
    fn default() -> Self {
        Self {
            participants: 40,
            sessions_per_participant: 60,
            mood_effect: 1.0,
            episode_persistence: 0.9,
        }
    }
}

/// One labelled phone-usage session.
#[derive(Debug, Clone, PartialEq)]
pub struct MoodSession {
    /// Participant index in `0..participants`.
    pub participant: usize,
    /// Mood label: `0` = euthymic, `1` = depressed.
    pub label: usize,
    /// The session's multi-view metadata.
    pub session: TypingSession,
}

/// The generated cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct BiAffectDataset {
    /// All sessions across all participants, participant-major order.
    pub sessions: Vec<MoodSession>,
    /// The configuration used to generate the data.
    pub config: BiAffectConfig,
}

/// Draws a per-participant baseline typing profile.
pub(crate) fn personal_profile(rng: &mut impl Rng) -> TypingProfile {
    let base = TypingProfile::default();
    TypingProfile {
        mean_duration: base.mean_duration * (gaussian(rng) * 0.20).exp(),
        mean_iki: base.mean_iki * (gaussian(rng) * 0.25).exp(),
        rhythm_std: base.rhythm_std * (gaussian(rng) * 0.20).exp(),
        keys_per_session: base.keys_per_session * (gaussian(rng) * 0.40).exp(),
        special_rates: {
            let mut r = base.special_rates;
            for v in &mut r {
                *v *= (gaussian(rng) * 0.30).exp();
            }
            r
        },
        key_travel: [
            base.key_travel[0] * (gaussian(rng) * 0.15).exp(),
            base.key_travel[1] * (gaussian(rng) * 0.15).exp(),
        ],
        accel_base: [gaussian(rng) * 0.3, 0.2 + gaussian(rng) * 0.3, 9.6 + gaussian(rng) * 0.2],
        accel_std: base.accel_std * (gaussian(rng) * 0.30).exp(),
        accel_freq: base.accel_freq * (gaussian(rng) * 0.25).exp(),
        accel_axis_gains: [
            (base.accel_axis_gains[0] * (gaussian(rng) * 0.45).exp()).clamp(0.05, 2.5),
            (base.accel_axis_gains[1] * (gaussian(rng) * 0.45).exp()).clamp(0.05, 2.5),
            (base.accel_axis_gains[2] * (gaussian(rng) * 0.45).exp()).clamp(0.05, 2.5),
        ],
        burst_persistence: (base.burst_persistence + gaussian(rng) * 0.18).clamp(0.45, 0.98),
        burst_ratio: (base.burst_ratio * (gaussian(rng) * 0.55).exp()).clamp(1.0, 10.0),
    }
}

/// How strongly each depressive symptom manifests for one participant.
///
/// Depression expresses heterogeneously: one person slows down, another
/// makes more corrections, a third mostly loses motor energy. The
/// heterogeneity is what defeats global feature thresholds while sequence
/// models can still pick up the within-session dynamics.
#[derive(Debug, Clone)]
struct MoodResponse {
    slowing: f32,
    errors: f32,
    motor: f32,
    pausing: f32,
}

fn mood_response(rng: &mut impl Rng) -> MoodResponse {
    MoodResponse {
        slowing: (gaussian(rng) * 0.5).exp(),
        errors: (gaussian(rng) * 0.5).exp(),
        motor: (gaussian(rng) * 0.5).exp(),
        pausing: (gaussian(rng) * 0.5).exp(),
    }
}

/// Applies the depression effect to a baseline profile.
fn depressed_variant(profile: &TypingProfile, effect: f32, resp: &MoodResponse) -> TypingProfile {
    let e = effect;
    let mut special = profile.special_rates;
    special[0] *= 1.0 + 0.25 * e * resp.errors; // more auto-corrects
    special[1] *= 1.0 + 0.45 * e * resp.errors; // more backspaces
    TypingProfile {
        mean_duration: profile.mean_duration * (1.0 + 0.08 * e * resp.slowing),
        mean_iki: profile.mean_iki * (1.0 + 0.15 * e * resp.slowing),
        rhythm_std: profile.rhythm_std * (1.0 + 0.30 * e * resp.slowing),
        keys_per_session: profile.keys_per_session * (1.0 - 0.12 * e).max(0.2),
        special_rates: special,
        key_travel: profile.key_travel,
        accel_base: profile.accel_base,
        accel_std: profile.accel_std * (1.0 - 0.20 * e * resp.motor).max(0.1),
        accel_freq: profile.accel_freq * (1.0 - 0.12 * e * resp.motor).max(0.2),
        accel_axis_gains: profile.accel_axis_gains,
        // psychomotor retardation shows up as *pause structure*: longer,
        // stickier pauses between typing bursts — a temporal marker that
        // per-session means barely register
        burst_persistence: (profile.burst_persistence + 0.10 * e * resp.pausing).min(0.98),
        burst_ratio: (profile.burst_ratio * (1.0 + 0.60 * e * resp.pausing)).min(12.0),
    }
}

impl BiAffectDataset {
    /// Generates the full cohort from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `participants` or `sessions_per_participant` is zero.
    pub fn generate(config: &BiAffectConfig, rng: &mut impl Rng) -> Self {
        assert!(config.participants > 0, "need at least one participant");
        assert!(config.sessions_per_participant > 0, "need at least one session");
        let mut sessions =
            Vec::with_capacity(config.participants * config.sessions_per_participant);
        for participant in 0..config.participants {
            let baseline = personal_profile(rng);
            let resp = mood_response(rng);
            let depressed = depressed_variant(&baseline, config.mood_effect, &resp);
            // two-state Markov chain over the session sequence
            let mut state = usize::from(rng.gen::<f64>() < 0.5);
            for _ in 0..config.sessions_per_participant {
                if rng.gen::<f64>() > config.episode_persistence {
                    state = 1 - state;
                }
                let profile = if state == 1 { &depressed } else { &baseline };
                // small session-to-session jitter on top of the state profile
                let jittered = TypingProfile {
                    mean_iki: profile.mean_iki * (gaussian(rng) * 0.05).exp(),
                    ..profile.clone()
                };
                sessions.push(MoodSession {
                    participant,
                    label: state,
                    session: jittered.generate_session(rng),
                });
            }
        }
        Self { sessions, config: config.clone() }
    }

    /// Total number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no sessions were generated.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions belonging to one participant.
    pub fn sessions_of(&self, participant: usize) -> Vec<&MoodSession> {
        self.sessions.iter().filter(|s| s.participant == participant).collect()
    }

    /// Flattens every session into summary features for shallow baselines.
    pub fn to_feature_dataset(&self) -> Dataset {
        let n = self.sessions.len();
        let mut x = Matrix::zeros(n, FEATURE_DIM);
        let mut y = Vec::with_capacity(n);
        for (r, s) in self.sessions.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&featurize_session(&s.session));
            y.push(s.label);
        }
        Dataset::new(x, y, MOOD_CLASSES)
    }

    /// Random per-participant split: each participant contributes
    /// `train_fraction` of their sessions to train and the rest to test.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split(
        &self,
        train_fraction: f64,
        rng: &mut impl Rng,
    ) -> (Vec<MoodSession>, Vec<MoodSession>) {
        use rand::seq::SliceRandom;
        assert!(train_fraction > 0.0 && train_fraction < 1.0, "train_fraction must be in (0, 1)");
        let mut train = Vec::new();
        let mut test = Vec::new();
        for p in 0..self.config.participants {
            let mut mine: Vec<&MoodSession> = self.sessions_of(p);
            mine.shuffle(rng);
            let cut = ((mine.len() as f64) * train_fraction).round() as usize;
            for (i, s) in mine.into_iter().enumerate() {
                if i < cut {
                    train.push(s.clone());
                } else {
                    test.push(s.clone());
                }
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> BiAffectConfig {
        BiAffectConfig { participants: 4, sessions_per_participant: 20, ..Default::default() }
    }

    #[test]
    fn generates_expected_counts() {
        let mut rng = StdRng::seed_from_u64(90);
        let d = BiAffectDataset::generate(&small(), &mut rng);
        assert_eq!(d.len(), 80);
        assert_eq!(d.sessions_of(0).len(), 20);
        assert_eq!(d.sessions_of(3).len(), 20);
    }

    #[test]
    fn both_mood_states_occur() {
        let mut rng = StdRng::seed_from_u64(91);
        let d = BiAffectDataset::generate(
            &BiAffectConfig { participants: 8, sessions_per_participant: 40, ..Default::default() },
            &mut rng,
        );
        let depressed = d.sessions.iter().filter(|s| s.label == 1).count();
        let frac = depressed as f64 / d.len() as f64;
        assert!((0.2..=0.8).contains(&frac), "depressed fraction {frac}");
    }

    #[test]
    fn mood_episodes_are_persistent() {
        let mut rng = StdRng::seed_from_u64(92);
        let d = BiAffectDataset::generate(&small(), &mut rng);
        // consecutive sessions of a participant should mostly share a label
        let mut same = 0usize;
        let mut total = 0usize;
        for p in 0..4 {
            let s = d.sessions_of(p);
            for w in s.windows(2) {
                total += 1;
                if w[0].label == w[1].label {
                    same += 1;
                }
            }
        }
        assert!(same as f64 / total as f64 > 0.7, "labels flip too often");
    }

    #[test]
    fn depression_slows_typing_on_average() {
        let mut rng = StdRng::seed_from_u64(93);
        let d = BiAffectDataset::generate(
            &BiAffectConfig {
                participants: 12,
                sessions_per_participant: 30,
                ..Default::default()
            },
            &mut rng,
        );
        let mean_iki = |label: usize| {
            let (mut tot, mut n) = (0.0f64, 0usize);
            for s in d.sessions.iter().filter(|s| s.label == label) {
                tot += s.session.alphanumeric.col(1).iter().sum::<f32>() as f64;
                n += s.session.alphanumeric.rows();
            }
            tot / n as f64
        };
        assert!(
            mean_iki(1) > mean_iki(0) * 1.1,
            "depressed IKI {} should exceed euthymic {}",
            mean_iki(1),
            mean_iki(0)
        );
    }

    #[test]
    fn feature_dataset_shape() {
        let mut rng = StdRng::seed_from_u64(94);
        let d = BiAffectDataset::generate(&small(), &mut rng);
        let f = d.to_feature_dataset();
        assert_eq!(f.len(), 80);
        assert_eq!(f.dim(), FEATURE_DIM);
        assert_eq!(f.classes, MOOD_CLASSES);
    }

    #[test]
    fn split_is_per_participant() {
        let mut rng = StdRng::seed_from_u64(95);
        let d = BiAffectDataset::generate(&small(), &mut rng);
        let (train, test) = d.split(0.75, &mut rng);
        assert_eq!(train.len(), 60);
        assert_eq!(test.len(), 20);
        for p in 0..4 {
            assert_eq!(train.iter().filter(|s| s.participant == p).count(), 15);
        }
    }

    #[test]
    fn zero_effect_removes_signal() {
        let mut rng = StdRng::seed_from_u64(96);
        let cfg = BiAffectConfig {
            mood_effect: 0.0,
            participants: 6,
            sessions_per_participant: 20,
            ..Default::default()
        };
        let d = BiAffectDataset::generate(&cfg, &mut rng);
        // with zero effect the depressed and euthymic IKI distributions match
        let mean_iki = |label: usize| {
            let (mut tot, mut n) = (0.0f64, 0usize);
            for s in d.sessions.iter().filter(|s| s.label == label) {
                tot += s.session.alphanumeric.col(1).iter().sum::<f32>() as f64;
                n += s.session.alphanumeric.rows();
            }
            tot / n.max(1) as f64
        };
        let ratio = mean_iki(1) / mean_iki(0).max(1e-9);
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }
}
