//! Synthetic keystroke-biometrics cohort for user identification (§IV-B).
//!
//! DEEPSERVICE identifies *who* is typing from the same multi-view metadata
//! DeepMood uses. The generator draws one persistent [`TypingProfile`] per
//! user with controlled between-user separation, then samples sessions with
//! natural within-user variation. Increasing the user count increases
//! between-user pattern overlap, reproducing the Table I degradation from
//! 10 to 26 users.

use crate::biaffect::personal_profile;
use crate::dataset::Dataset;
use crate::typing::{featurize_session, TypingProfile, TypingSession, FEATURE_DIM};
use mdl_tensor::init::gaussian;
use mdl_tensor::Matrix;
use rand::Rng;

/// Configuration of the synthetic keystroke cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct KeystrokeConfig {
    /// Number of users to enrol (Table I evaluates 10 and 26).
    pub users: usize,
    /// Sessions per user.
    pub sessions_per_user: usize,
    /// Scales how far apart user signatures are (1.0 = calibrated default).
    pub user_separation: f32,
}

impl Default for KeystrokeConfig {
    fn default() -> Self {
        Self { users: 10, sessions_per_user: 80, user_separation: 1.0 }
    }
}

/// One session labelled with its author.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSession {
    /// User index in `0..users`.
    pub user: usize,
    /// The session's multi-view metadata.
    pub session: TypingSession,
}

/// The generated cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct KeystrokeDataset {
    /// All sessions, user-major order.
    pub sessions: Vec<UserSession>,
    /// The configuration used to generate the data.
    pub config: KeystrokeConfig,
}

/// Number of usage contexts a user types in (seated / walking / reclined).
pub const CONTEXTS: usize = 3;

/// Derives the profile a user exhibits in one usage context.
///
/// Context effects have a population-level direction (walking shakes the
/// accelerometer and slows typing for everyone) but a **user-specific
/// magnitude** — the per-user context response is part of the biometric
/// signature, and it makes the class-conditional feature distributions
/// multi-modal (each user is a mixture over contexts).
fn context_profile(base: &TypingProfile, context: usize, response: f32) -> TypingProfile {
    let r = response;
    match context {
        // seated: the neutral baseline
        0 => base.clone(),
        // walking: strong periodic accelerometer energy, slower typing
        1 => TypingProfile {
            mean_iki: base.mean_iki * (1.0 + 0.30 * r),
            keys_per_session: base.keys_per_session * (1.0 - 0.25 * r).max(0.3),
            accel_std: base.accel_std * (1.5 + 1.5 * r),
            accel_freq: base.accel_freq * (1.3 + 0.5 * r),
            ..base.clone()
        },
        // reclined: rotated grip, damped motion, slightly faster typing
        _ => TypingProfile {
            mean_iki: base.mean_iki * (1.0 - 0.12 * r).max(0.3),
            accel_base: [
                base.accel_base[1] + 0.3 * r,
                base.accel_base[2] * (0.5 + 0.2 * r),
                base.accel_base[0] + 6.0,
            ],
            accel_std: base.accel_std * (0.8 - 0.3 * r).max(0.2),
            ..base.clone()
        },
    }
}

/// Interpolates a profile toward the population default, shrinking
/// between-user separation when `separation < 1`.
fn blend_toward_default(profile: TypingProfile, separation: f32) -> TypingProfile {
    let base = TypingProfile::default();
    let s = separation;
    // first-moment parameters are shrunk harder: simple per-session means
    // are exactly what traditional feature pipelines read, and real users
    // overlap heavily there — identity lives more in rhythm, error habits
    // and temporal burst structure
    let s_mean = 0.35 * s;
    let lerp = |a: f32, b: f32| b + (a - b) * s;
    let lerp_mean = |a: f32, b: f32| b + (a - b) * s_mean;
    TypingProfile {
        mean_duration: lerp_mean(profile.mean_duration, base.mean_duration),
        mean_iki: lerp_mean(profile.mean_iki, base.mean_iki),
        rhythm_std: lerp(profile.rhythm_std, base.rhythm_std),
        keys_per_session: lerp_mean(profile.keys_per_session, base.keys_per_session),
        special_rates: std::array::from_fn(|i| {
            lerp(profile.special_rates[i], base.special_rates[i])
        }),
        key_travel: [
            lerp(profile.key_travel[0], base.key_travel[0]),
            lerp(profile.key_travel[1], base.key_travel[1]),
        ],
        accel_base: [
            lerp(profile.accel_base[0], base.accel_base[0]),
            lerp(profile.accel_base[1], base.accel_base[1]),
            lerp(profile.accel_base[2], base.accel_base[2]),
        ],
        accel_std: lerp(profile.accel_std, base.accel_std),
        accel_freq: lerp(profile.accel_freq, base.accel_freq),
        accel_axis_gains: [
            lerp(profile.accel_axis_gains[0], base.accel_axis_gains[0]),
            lerp(profile.accel_axis_gains[1], base.accel_axis_gains[1]),
            lerp(profile.accel_axis_gains[2], base.accel_axis_gains[2]),
        ],
        burst_persistence: lerp(profile.burst_persistence, base.burst_persistence),
        burst_ratio: lerp(profile.burst_ratio, base.burst_ratio),
    }
}

impl KeystrokeDataset {
    /// Generates the cohort.
    ///
    /// # Panics
    ///
    /// Panics if `users` or `sessions_per_user` is zero.
    pub fn generate(config: &KeystrokeConfig, rng: &mut impl Rng) -> Self {
        assert!(config.users > 0, "need at least one user");
        assert!(config.sessions_per_user > 0, "need at least one session per user");
        let mut sessions = Vec::with_capacity(config.users * config.sessions_per_user);
        for user in 0..config.users {
            let base = blend_toward_default(personal_profile(rng), config.user_separation);
            // user-specific context responses: how strongly walking /
            // reclining reshapes this user's dynamics
            let responses: [f32; CONTEXTS] = [
                1.0,
                (1.0 + gaussian(rng) * 0.5 * config.user_separation).clamp(0.2, 2.5),
                (1.0 + gaussian(rng) * 0.5 * config.user_separation).clamp(0.2, 2.5),
            ];
            let contexts: Vec<TypingProfile> =
                (0..CONTEXTS).map(|c| context_profile(&base, c, responses[c])).collect();
            for _ in 0..config.sessions_per_user {
                let profile = &contexts[rng.gen_range(0..CONTEXTS)];
                // per-session drift: mood, fatigue, posture and grip all move
                // the observable signature substantially between sessions, so
                // session-level summary statistics overlap across users
                let mut special = profile.special_rates;
                for v in &mut special {
                    *v *= (gaussian(rng) * 0.35).exp();
                }
                let drift = TypingProfile {
                    mean_iki: profile.mean_iki * (gaussian(rng) * 0.10).exp(),
                    mean_duration: profile.mean_duration * (gaussian(rng) * 0.08).exp(),
                    rhythm_std: profile.rhythm_std * (gaussian(rng) * 0.12).exp(),
                    keys_per_session: profile.keys_per_session * (gaussian(rng) * 0.30).exp(),
                    special_rates: special,
                    accel_std: profile.accel_std * (gaussian(rng) * 0.15).exp(),
                    accel_base: [
                        profile.accel_base[0] + gaussian(rng) * 0.1,
                        profile.accel_base[1] + gaussian(rng) * 0.1,
                        profile.accel_base[2] + gaussian(rng) * 0.05,
                    ],
                    ..profile.clone()
                };
                sessions.push(UserSession { user, session: drift.generate_session(rng) });
            }
        }
        Self { sessions, config: config.clone() }
    }

    /// Total session count.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no sessions were generated.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Flattens sessions into summary features labelled by user.
    pub fn to_feature_dataset(&self) -> Dataset {
        let n = self.sessions.len();
        let mut x = Matrix::zeros(n, FEATURE_DIM);
        let mut y = Vec::with_capacity(n);
        for (r, s) in self.sessions.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&featurize_session(&s.session));
            y.push(s.user);
        }
        Dataset::new(x, y, self.config.users)
    }

    /// Restricts the cohort to a pair of users, relabelled `{0, 1}` — the
    /// binary identification scenario (husband/wife sharing a phone).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either user does not exist.
    pub fn pair(&self, a: usize, b: usize) -> KeystrokeDataset {
        assert!(a != b, "pair requires two distinct users");
        assert!(a < self.config.users && b < self.config.users, "user out of range");
        let sessions: Vec<UserSession> = self
            .sessions
            .iter()
            .filter(|s| s.user == a || s.user == b)
            .map(|s| UserSession { user: usize::from(s.user == b), session: s.session.clone() })
            .collect();
        KeystrokeDataset { sessions, config: KeystrokeConfig { users: 2, ..self.config.clone() } }
    }

    /// Random per-user split of the sessions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split(
        &self,
        train_fraction: f64,
        rng: &mut impl Rng,
    ) -> (Vec<UserSession>, Vec<UserSession>) {
        use rand::seq::SliceRandom;
        assert!(train_fraction > 0.0 && train_fraction < 1.0, "train_fraction must be in (0, 1)");
        let mut train = Vec::new();
        let mut test = Vec::new();
        for u in 0..self.config.users {
            let mut mine: Vec<&UserSession> =
                self.sessions.iter().filter(|s| s.user == u).collect();
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

    fn small() -> KeystrokeConfig {
        KeystrokeConfig { users: 5, sessions_per_user: 20, ..Default::default() }
    }

    #[test]
    fn generates_expected_counts() {
        let mut rng = StdRng::seed_from_u64(100);
        let d = KeystrokeDataset::generate(&small(), &mut rng);
        assert_eq!(d.len(), 100);
        let f = d.to_feature_dataset();
        assert_eq!(f.classes, 5);
        assert_eq!(f.class_counts(), vec![20; 5]);
    }

    #[test]
    fn users_are_distinguishable_by_nearest_centroid() {
        let mut rng = StdRng::seed_from_u64(101);
        let d = KeystrokeDataset::generate(
            &KeystrokeConfig { users: 5, sessions_per_user: 40, ..Default::default() },
            &mut rng,
        );
        let mut f = d.to_feature_dataset();
        f.standardize();
        let counts = f.class_counts();
        let dim = f.dim();
        let mut centroids = vec![vec![0.0f32; dim]; 5];
        for i in 0..f.len() {
            for (j, c) in centroids[f.y[i]].iter_mut().enumerate() {
                *c += f.x[(i, j)] / counts[f.y[i]] as f32;
            }
        }
        let mut correct = 0;
        for i in 0..f.len() {
            let mut best = (f32::MAX, 0usize);
            for (c, centroid) in centroids.iter().enumerate() {
                let dist: f32 = (0..dim).map(|j| (f.x[(i, j)] - centroid[j]).powi(2)).sum();
                if dist < best.0 {
                    best = (dist, c);
                }
            }
            if best.1 == f.y[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / f.len() as f64;
        assert!(acc > 0.5, "users should be broadly separable: {acc}");
    }

    #[test]
    fn pair_relabels_binary() {
        let mut rng = StdRng::seed_from_u64(102);
        let d = KeystrokeDataset::generate(&small(), &mut rng);
        let p = d.pair(1, 3);
        assert_eq!(p.len(), 40);
        assert_eq!(p.config.users, 2);
        assert!(p.sessions.iter().all(|s| s.user < 2));
        assert_eq!(p.sessions.iter().filter(|s| s.user == 1).count(), 20);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_rejects_same_user() {
        let mut rng = StdRng::seed_from_u64(103);
        let d = KeystrokeDataset::generate(&small(), &mut rng);
        let _ = d.pair(2, 2);
    }

    #[test]
    fn split_is_per_user() {
        let mut rng = StdRng::seed_from_u64(104);
        let d = KeystrokeDataset::generate(&small(), &mut rng);
        let (train, test) = d.split(0.8, &mut rng);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        for u in 0..5 {
            assert_eq!(train.iter().filter(|s| s.user == u).count(), 16);
        }
    }

    #[test]
    fn lower_separation_shrinks_profile_spread() {
        let mut rng = StdRng::seed_from_u64(105);
        let tight = KeystrokeDataset::generate(
            &KeystrokeConfig { users: 8, sessions_per_user: 10, user_separation: 0.1 },
            &mut rng,
        );
        let wide = KeystrokeDataset::generate(
            &KeystrokeConfig { users: 8, sessions_per_user: 10, user_separation: 1.0 },
            &mut rng,
        );
        let iki_spread = |d: &KeystrokeDataset| {
            let per_user: Vec<f32> = (0..8)
                .map(|u| {
                    let mine: Vec<&UserSession> =
                        d.sessions.iter().filter(|s| s.user == u).collect();
                    let (mut tot, mut n) = (0.0f32, 0usize);
                    for s in &mine {
                        tot += s.session.alphanumeric.col(1).iter().sum::<f32>();
                        n += s.session.alphanumeric.rows();
                    }
                    tot / n as f32
                })
                .collect();
            mdl_tensor::stats::std_dev(&per_user)
        };
        assert!(iki_spread(&tight) < iki_spread(&wide), "separation should widen spread");
    }
}
