//! Experiment harness for DeepMood over the synthetic BiAffect cohort:
//! session-level mood prediction and the per-participant analysis of the
//! paper's Fig. 5.

use crate::model::{DeepMood, DeepMoodConfig};
use crate::normalize::ViewNormalizer;
use mdl_data::biaffect::{BiAffectDataset, MoodSession, MOOD_CLASSES};
use mdl_data::metrics::ConfusionMatrix;
use mdl_tensor::Matrix;
use rand::rngs::StdRng;

/// The three views' input widths in the BiAffect session model.
pub fn biaffect_view_dims() -> Vec<usize> {
    use mdl_data::typing::{ACCEL_CHANNELS, ALPHANUMERIC_CHANNELS, SPECIAL_KEYS};
    vec![ALPHANUMERIC_CHANNELS, SPECIAL_KEYS, ACCEL_CHANNELS]
}

/// Converts owned mood sessions into the model's `(views, label)` form.
pub fn as_training_pairs(sessions: &[MoodSession]) -> Vec<(Vec<&Matrix>, usize)> {
    sessions.iter().map(|s| (s.session.views().to_vec(), s.label)).collect()
}

/// Standardised `(views, label)` pairs for one data split.
pub type LabeledViews = Vec<(Vec<Matrix>, usize)>;

/// Fits a channel normalizer on training sessions and materialises
/// standardised `(views, label)` pairs for both splits.
pub fn normalized_pairs(
    train: &[MoodSession],
    test: &[MoodSession],
) -> (ViewNormalizer, LabeledViews, LabeledViews) {
    let train_views: Vec<Vec<&Matrix>> = train.iter().map(|s| s.session.views().to_vec()).collect();
    let norm = ViewNormalizer::fit(&train_views);
    let apply = |sessions: &[MoodSession]| {
        sessions.iter().map(|s| (norm.apply(&s.session.views()), s.label)).collect::<Vec<_>>()
    };
    let train_pairs = apply(train);
    let test_pairs = apply(test);
    (norm, train_pairs, test_pairs)
}

/// Borrows owned `(views, label)` pairs as the reference form the model
/// consumes.
pub fn borrow_pairs(pairs: &[(Vec<Matrix>, usize)]) -> Vec<(Vec<&Matrix>, usize)> {
    pairs.iter().map(|(v, y)| (v.iter().collect(), *y)).collect()
}

/// Result of one train/test evaluation.
#[derive(Debug)]
pub struct MoodEvaluation {
    /// Test-set accuracy.
    pub accuracy: f64,
    /// Macro-averaged F1.
    pub macro_f1: f64,
    /// The fitted model (reusable for per-participant analysis).
    pub model: DeepMood,
}

impl MoodEvaluation {
    fn from_model(model: DeepMood, test: &[(Vec<&Matrix>, usize)]) -> MoodEvaluation {
        let pred = model.predictions(test);
        let truth: Vec<usize> = test.iter().map(|(_, y)| *y).collect();
        let cm = ConfusionMatrix::from_predictions(&truth, &pred, MOOD_CLASSES);
        MoodEvaluation { accuracy: cm.accuracy(), macro_f1: cm.macro_f1(), model }
    }
}

/// Trains DeepMood on `train` sessions and evaluates on `test`.
pub fn train_and_evaluate(
    train: &[MoodSession],
    test: &[MoodSession],
    config: &DeepMoodConfig,
    rng: &mut StdRng,
) -> MoodEvaluation {
    let (_, train_owned, test_owned) = normalized_pairs(train, test);
    let train_pairs = borrow_pairs(&train_owned);
    let test_pairs = borrow_pairs(&test_owned);
    let mut model = DeepMood::new(&biaffect_view_dims(), config.clone(), rng);
    let _ = model.train(&train_pairs, rng);
    MoodEvaluation::from_model(model, &test_pairs)
}

/// One dot of Fig. 5: a participant's training-session count and the
/// model's accuracy on that participant's test sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticipantPoint {
    /// Participant index.
    pub participant: usize,
    /// Sessions this participant contributed to training.
    pub training_sessions: usize,
    /// Accuracy on this participant's held-out sessions.
    pub accuracy: f64,
}

/// Reproduces Fig. 5: per-participant accuracy against training volume.
///
/// Trains one shared model on everyone's training sessions, then scores
/// each participant's test sessions separately.
pub fn per_participant_analysis(
    cohort: &BiAffectDataset,
    train: &[MoodSession],
    test: &[MoodSession],
    config: &DeepMoodConfig,
    rng: &mut StdRng,
) -> Vec<ParticipantPoint> {
    let (norm, train_owned, _) = normalized_pairs(train, &[]);
    let train_pairs = borrow_pairs(&train_owned);
    let mut model = DeepMood::new(&biaffect_view_dims(), config.clone(), rng);
    let _ = model.train(&train_pairs, rng);

    (0..cohort.config.participants)
        .map(|p| {
            let mine: Vec<(Vec<Matrix>, usize)> = test
                .iter()
                .filter(|s| s.participant == p)
                .map(|s| (norm.apply(&s.session.views()), s.label))
                .collect();
            let pairs = borrow_pairs(&mine);
            let accuracy = model.accuracy(&pairs);
            ParticipantPoint {
                participant: p,
                training_sessions: train.iter().filter(|s| s.participant == p).count(),
                accuracy,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FusionKind;
    use mdl_data::biaffect::BiAffectConfig;
    use rand::SeedableRng;

    fn small_cohort(rng: &mut StdRng) -> BiAffectDataset {
        BiAffectDataset::generate(
            &BiAffectConfig {
                participants: 8,
                sessions_per_participant: 40,
                mood_effect: 1.5,
                ..Default::default()
            },
            rng,
        )
    }

    #[test]
    fn deepmood_beats_chance_on_synthetic_biaffect() {
        let mut rng = StdRng::seed_from_u64(350);
        let cohort = small_cohort(&mut rng);
        let (train, test) = cohort.split(0.75, &mut rng);
        let eval = train_and_evaluate(
            &train,
            &test,
            &DeepMoodConfig {
                epochs: 10,
                hidden_dim: 8,
                fusion: FusionKind::FullyConnected { hidden: 16 },
                ..Default::default()
            },
            &mut rng,
        );
        assert!(eval.accuracy > 0.7, "accuracy {}", eval.accuracy);
        assert!(eval.macro_f1 > 0.6, "macro F1 {}", eval.macro_f1);
    }

    #[test]
    fn per_participant_points_cover_cohort() {
        let mut rng = StdRng::seed_from_u64(351);
        let cohort = small_cohort(&mut rng);
        let (train, test) = cohort.split(0.75, &mut rng);
        let points = per_participant_analysis(
            &cohort,
            &train,
            &test,
            &DeepMoodConfig { epochs: 4, hidden_dim: 5, ..Default::default() },
            &mut rng,
        );
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.training_sessions > 0);
            assert!((0.0..=1.0).contains(&p.accuracy));
        }
    }
}
