//! Shared typing-dynamics session model.
//!
//! Both applications in the paper (§IV) consume the same BiAffect-style
//! metadata: per-keypress timing of alphanumeric keys, one-hot special-key
//! events, and a dense 3-axis accelerometer stream sampled every 60 ms. A
//! [`TypingProfile`] captures the generative parameters of one
//! (participant, state) pair; [`TypingProfile::generate_session`] draws one
//! phone-usage session from it.

use mdl_tensor::init::gaussian;
use mdl_tensor::stats::pearson;
use mdl_tensor::Matrix;
use rand::Rng;

/// Number of special-key categories (paper §IV-A): auto-correct, backspace,
/// space, suggestion, switching-keyboard, other.
pub const SPECIAL_KEYS: usize = 6;

/// Channels of the alphanumeric view: key-hold duration, time since last
/// key, and the distance from the previous key along the two screen axes.
pub const ALPHANUMERIC_CHANNELS: usize = 4;

/// Channels of the accelerometer view (x, y, z).
pub const ACCEL_CHANNELS: usize = 3;

/// Generative parameters for one person's typing behaviour in one state.
#[derive(Debug, Clone, PartialEq)]
pub struct TypingProfile {
    /// Mean key-hold duration in seconds.
    pub mean_duration: f32,
    /// Mean inter-key interval in seconds.
    pub mean_iki: f32,
    /// Multiplicative rhythm variability (log-normal sigma of the IKI).
    pub rhythm_std: f32,
    /// Mean keypresses per session.
    pub keys_per_session: f32,
    /// Per-keypress probability of each special key
    /// `[auto-correct, backspace, space, suggestion, switch, other]`.
    pub special_rates: [f32; SPECIAL_KEYS],
    /// Mean travel distance between keys (screen units), per axis.
    pub key_travel: [f32; 2],
    /// Baseline accelerometer offset per axis (device orientation habit).
    pub accel_base: [f32; ACCEL_CHANNELS],
    /// Accelerometer movement energy (tremor/activity level).
    pub accel_std: f32,
    /// Dominant hand-motion frequency in Hz (shows up as oscillation).
    pub accel_freq: f32,
    /// Per-axis share of the oscillation energy (grip/posture signature);
    /// this is what differentiates the axis correlations in Fig. 6.
    pub accel_axis_gains: [f32; ACCEL_CHANNELS],
    /// Probability of staying in the current burst/pause typing state from
    /// one keypress to the next. Burst structure is *temporal*: summary
    /// statistics barely see it, sequence models do.
    pub burst_persistence: f32,
    /// Speed ratio between burst and pause states (IKI multiplier).
    pub burst_ratio: f32,
}

impl Default for TypingProfile {
    fn default() -> Self {
        Self {
            mean_duration: 0.09,
            mean_iki: 0.28,
            rhythm_std: 0.35,
            keys_per_session: 40.0,
            special_rates: [0.04, 0.08, 0.16, 0.03, 0.02, 0.02],
            key_travel: [2.1, 1.3],
            accel_base: [0.0, 0.2, 9.6],
            accel_std: 0.45,
            accel_freq: 1.8,
            accel_axis_gains: [1.0, 0.7, 0.4],
            burst_persistence: 0.85,
            burst_ratio: 2.5,
        }
    }
}

/// One phone-usage session of multi-view typing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TypingSession {
    /// `T_a × 4` alphanumeric keypress features.
    pub alphanumeric: Matrix,
    /// `T_s × 6` one-hot special-key events.
    pub special: Matrix,
    /// `T_acc × 3` accelerometer samples (60 ms cadence, truncated).
    pub accelerometer: Matrix,
    /// Session duration in seconds.
    pub duration_secs: f32,
}

impl TypingSession {
    /// The three views in the order DeepMood consumes them.
    pub fn views(&self) -> [&Matrix; 3] {
        [&self.alphanumeric, &self.special, &self.accelerometer]
    }

    /// Total number of keypresses (alphanumeric + special).
    pub fn keypress_count(&self) -> usize {
        self.alphanumeric.rows() + self.special.rows()
    }
}

/// Cap on accelerometer timesteps kept per session, so BPTT stays tractable.
pub const MAX_ACCEL_STEPS: usize = 64;

impl TypingProfile {
    /// Draws one session from the profile.
    ///
    /// Sequence lengths vary with the profile's `keys_per_session`; at least
    /// four alphanumeric keys and one special key are always produced so
    /// every view is non-empty.
    pub fn generate_session(&self, rng: &mut impl Rng) -> TypingSession {
        let n_keys = (self.keys_per_session * (0.6 + 0.8 * rng.gen::<f32>())).round() as usize;
        let n_keys = n_keys.max(6);

        let special_total: f32 = self.special_rates.iter().sum();
        let mut alpha_rows: Vec<[f32; ALPHANUMERIC_CHANNELS]> = Vec::new();
        let mut special_rows: Vec<usize> = Vec::new();
        let mut clock = 0.0f32;
        // two-state burst/pause Markov chain over keypresses
        let mut bursting = rng.gen::<f32>() < 0.5;
        for _ in 0..n_keys {
            if rng.gen::<f32>() > self.burst_persistence {
                bursting = !bursting;
            }
            let pace = if bursting {
                1.0 / self.burst_ratio.max(1.0).sqrt()
            } else {
                self.burst_ratio.max(1.0).sqrt()
            };
            // inter-key interval: log-normal around mean_iki, burst-modulated
            let iki = self.mean_iki * pace * (gaussian(rng) * self.rhythm_std).exp();
            clock += iki.clamp(0.02, 4.9);
            if rng.gen::<f32>() < special_total {
                // pick a special key proportional to its rate
                let mut pick = rng.gen::<f32>() * special_total;
                let mut idx = SPECIAL_KEYS - 1;
                for (i, &r) in self.special_rates.iter().enumerate() {
                    if pick < r {
                        idx = i;
                        break;
                    }
                    pick -= r;
                }
                special_rows.push(idx);
            } else {
                let duration = (self.mean_duration * (gaussian(rng) * 0.25).exp()).clamp(0.02, 0.6);
                let dx = gaussian(rng) * self.key_travel[0];
                let dy = gaussian(rng) * self.key_travel[1];
                alpha_rows.push([duration, iki.min(4.9), dx, dy]);
            }
        }
        // guarantee non-empty views
        if alpha_rows.len() < 4 {
            for _ in alpha_rows.len()..4 {
                alpha_rows.push([self.mean_duration, self.mean_iki, 0.0, 0.0]);
            }
        }
        if special_rows.is_empty() {
            special_rows.push(2); // a lone space
        }

        let alphanumeric =
            Matrix::from_fn(alpha_rows.len(), ALPHANUMERIC_CHANNELS, |r, c| alpha_rows[r][c]);
        let mut special = Matrix::zeros(special_rows.len(), SPECIAL_KEYS);
        for (r, &k) in special_rows.iter().enumerate() {
            special[(r, k)] = 1.0;
        }

        // accelerometer: 60 ms cadence over the session, truncated
        let duration_secs = clock.max(1.0);
        let steps = ((duration_secs / 0.06) as usize).clamp(8, MAX_ACCEL_STEPS);
        let phase = rng.gen::<f32>() * std::f32::consts::TAU;
        let mut accelerometer = Matrix::zeros(steps, ACCEL_CHANNELS);
        for t in 0..steps {
            let time = t as f32 * 0.06;
            let osc = (self.accel_freq * std::f32::consts::TAU * time + phase).sin();
            for a in 0..ACCEL_CHANNELS {
                accelerometer[(t, a)] = self.accel_base[a]
                    + self.accel_std * self.accel_axis_gains[a] * osc
                    + gaussian(rng) * self.accel_std * 0.3;
            }
        }

        TypingSession { alphanumeric, special, accelerometer, duration_secs }
    }
}

/// Number of summary features produced by [`featurize_session`].
pub const FEATURE_DIM: usize =
    5 * ALPHANUMERIC_CHANNELS + 1 + SPECIAL_KEYS + 1 + 2 * ACCEL_CHANNELS + 3 + 1;

/// Flattens a session into fixed summary statistics for shallow baselines
/// (the LR/SVM/tree models of Table I operate on these).
///
/// Layout: per alphanumeric channel `mean, std, median, q25, q75`; key count;
/// normalised special-key histogram plus special count; accelerometer mean
/// and std per axis; the three pairwise axis correlations; session duration.
pub fn featurize_session(session: &TypingSession) -> Vec<f32> {
    use mdl_tensor::stats::{mean, median, quantile, std_dev};
    let mut out = Vec::with_capacity(FEATURE_DIM);
    for c in 0..ALPHANUMERIC_CHANNELS {
        let col = session.alphanumeric.col(c);
        out.push(mean(&col));
        out.push(std_dev(&col));
        out.push(median(&col));
        out.push(quantile(&col, 0.25));
        out.push(quantile(&col, 0.75));
    }
    out.push(session.alphanumeric.rows() as f32);

    let n_special = session.special.rows().max(1) as f32;
    for k in 0..SPECIAL_KEYS {
        out.push(session.special.col(k).iter().sum::<f32>() / n_special);
    }
    out.push(session.special.rows() as f32);

    let cols: Vec<Vec<f32>> = (0..ACCEL_CHANNELS).map(|a| session.accelerometer.col(a)).collect();
    for col in &cols {
        out.push(mean(col));
        out.push(std_dev(col));
    }
    out.push(pearson(&cols[0], &cols[1]));
    out.push(pearson(&cols[0], &cols[2]));
    out.push(pearson(&cols[1], &cols[2]));
    out.push(session.duration_secs);

    debug_assert_eq!(out.len(), FEATURE_DIM);
    out
}

/// Width of [`featurize_session_basic`].
pub const BASIC_FEATURE_DIM: usize =
    ALPHANUMERIC_CHANNELS + 1 + SPECIAL_KEYS + 1 + ACCEL_CHANNELS + 1;

/// A deliberately simple "traditional" feature set: per-channel means and
/// event counts only — the kind of representation classical pipelines fed
/// to LR/SVM/tree models before deep sequence models (used by the Table I
/// baselines; [`featurize_session`] is the richer statistical summary).
pub fn featurize_session_basic(session: &TypingSession) -> Vec<f32> {
    use mdl_tensor::stats::mean;
    let mut out = Vec::with_capacity(BASIC_FEATURE_DIM);
    for c in 0..ALPHANUMERIC_CHANNELS {
        out.push(mean(&session.alphanumeric.col(c)));
    }
    out.push(session.alphanumeric.rows() as f32);
    let n_special = session.special.rows().max(1) as f32;
    for k in 0..SPECIAL_KEYS {
        out.push(session.special.col(k).iter().sum::<f32>() / n_special);
    }
    out.push(session.special.rows() as f32);
    for a in 0..ACCEL_CHANNELS {
        out.push(mean(&session.accelerometer.col(a)));
    }
    out.push(session.duration_secs);
    debug_assert_eq!(out.len(), BASIC_FEATURE_DIM);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_features_have_fixed_width() {
        let mut rng = StdRng::seed_from_u64(86);
        let s = TypingProfile::default().generate_session(&mut rng);
        assert_eq!(featurize_session_basic(&s).len(), BASIC_FEATURE_DIM);
    }

    #[test]
    fn session_views_non_empty_and_shaped() {
        let mut rng = StdRng::seed_from_u64(80);
        let s = TypingProfile::default().generate_session(&mut rng);
        assert!(s.alphanumeric.rows() >= 4);
        assert_eq!(s.alphanumeric.cols(), ALPHANUMERIC_CHANNELS);
        assert!(s.special.rows() >= 1);
        assert_eq!(s.special.cols(), SPECIAL_KEYS);
        assert!(s.accelerometer.rows() >= 8);
        assert_eq!(s.accelerometer.cols(), ACCEL_CHANNELS);
        assert!(s.duration_secs > 0.0);
    }

    #[test]
    fn special_rows_are_one_hot() {
        let mut rng = StdRng::seed_from_u64(81);
        let s = TypingProfile::default().generate_session(&mut rng);
        for r in 0..s.special.rows() {
            let row = s.special.row(r);
            assert_eq!(row.iter().filter(|&&v| v == 1.0).count(), 1);
            assert_eq!(row.iter().sum::<f32>(), 1.0);
        }
    }

    #[test]
    fn slower_profile_has_longer_intervals() {
        let mut rng = StdRng::seed_from_u64(82);
        let fast = TypingProfile { mean_iki: 0.15, ..Default::default() };
        let slow = TypingProfile { mean_iki: 0.45, ..Default::default() };
        let avg_iki = |p: &TypingProfile, rng: &mut StdRng| {
            let mut total = 0.0f32;
            let mut n = 0usize;
            for _ in 0..20 {
                let s = p.generate_session(rng);
                total += s.alphanumeric.col(1).iter().sum::<f32>();
                n += s.alphanumeric.rows();
            }
            total / n as f32
        };
        let f = avg_iki(&fast, &mut rng);
        let s = avg_iki(&slow, &mut rng);
        assert!(s > f * 1.5, "slow={s} fast={f}");
    }

    #[test]
    fn featurize_has_fixed_width() {
        let mut rng = StdRng::seed_from_u64(83);
        for _ in 0..5 {
            let s = TypingProfile::default().generate_session(&mut rng);
            let f = featurize_session(&s);
            assert_eq!(f.len(), FEATURE_DIM);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn backspace_rate_shows_in_features() {
        let mut rng = StdRng::seed_from_u64(84);
        let heavy = TypingProfile {
            special_rates: [0.02, 0.30, 0.10, 0.02, 0.01, 0.01],
            ..Default::default()
        };
        let light = TypingProfile {
            special_rates: [0.02, 0.02, 0.10, 0.02, 0.01, 0.01],
            ..Default::default()
        };
        let backspace_share = |p: &TypingProfile, rng: &mut StdRng| {
            let mut acc = 0.0f32;
            for _ in 0..30 {
                let s = p.generate_session(rng);
                let f = featurize_session(&s);
                // backspace share is the second entry of the special histogram
                acc += f[5 * ALPHANUMERIC_CHANNELS + 1 + 1];
            }
            acc / 30.0
        };
        assert!(backspace_share(&heavy, &mut rng) > backspace_share(&light, &mut rng) * 2.0);
    }

    #[test]
    fn accel_steps_capped() {
        let mut rng = StdRng::seed_from_u64(85);
        let chatty = TypingProfile { keys_per_session: 500.0, ..Default::default() };
        let s = chatty.generate_session(&mut rng);
        assert!(s.accelerometer.rows() <= MAX_ACCEL_STEPS);
    }
}
