//! DEEPSERVICE (§IV-B): multi-view, multi-class mobile user identification,
//! plus the Table I comparison harness against the shallow baselines.

use mdl_baselines::{
    fit_evaluate, Classifier, DecisionTree, Evaluation, GradientBoost, LinearSvm,
    LogisticRegression, RandomForest,
};
use mdl_data::keystroke::{KeystrokeDataset, UserSession};
use mdl_data::metrics::ConfusionMatrix;
use mdl_data::Dataset;
use mdl_deepmood::{DeepMood, DeepMoodConfig, FusionKind, ViewNormalizer};
use mdl_tensor::Matrix;
use rand::rngs::StdRng;

/// The three view widths of a keystroke session (same metadata as DeepMood).
pub fn view_dims() -> Vec<usize> {
    mdl_deepmood::biaffect_view_dims()
}

/// Default DEEPSERVICE configuration for `users` classes.
pub fn deepservice_config(users: usize) -> DeepMoodConfig {
    DeepMoodConfig {
        hidden_dim: 14,
        encoder: Default::default(),
        fusion: FusionKind::FullyConnected { hidden: 32 },
        classes: users,
        learning_rate: 0.015,
        epochs: 25,
        batch_size: 16,
    }
}

/// Converts user sessions into `(views, label)` training pairs.
pub fn as_training_pairs(sessions: &[UserSession]) -> Vec<(Vec<&Matrix>, usize)> {
    sessions.iter().map(|s| (s.session.views().to_vec(), s.user)).collect()
}

/// Trains DEEPSERVICE and evaluates accuracy / macro-F1 on test sessions.
pub fn train_deepservice(
    train: &[UserSession],
    test: &[UserSession],
    config: &DeepMoodConfig,
    rng: &mut StdRng,
) -> (Evaluation, DeepMood) {
    // standardise every channel with training statistics — raw metadata
    // mixes seconds with m/s² and would saturate the GRU gates
    let train_views: Vec<Vec<&Matrix>> = train.iter().map(|s| s.session.views().to_vec()).collect();
    let norm = ViewNormalizer::fit(&train_views);
    let own = |sessions: &[UserSession]| -> Vec<(Vec<Matrix>, usize)> {
        sessions.iter().map(|s| (norm.apply(&s.session.views()), s.user)).collect()
    };
    let train_owned = own(train);
    let test_owned = own(test);
    let train_pairs: Vec<(Vec<&Matrix>, usize)> =
        train_owned.iter().map(|(v, y)| (v.iter().collect(), *y)).collect();
    let test_pairs: Vec<(Vec<&Matrix>, usize)> =
        test_owned.iter().map(|(v, y)| (v.iter().collect(), *y)).collect();
    let mut model = DeepMood::new(&view_dims(), config.clone(), rng);
    let _ = model.train(&train_pairs, rng);
    let pred = model.predictions(&test_pairs);
    let truth: Vec<usize> = test_pairs.iter().map(|(_, y)| *y).collect();
    let cm = ConfusionMatrix::from_predictions(&truth, &pred, config.classes);
    (Evaluation { accuracy: cm.accuracy(), macro_f1: cm.macro_f1() }, model)
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Method name as printed in the paper.
    pub method: &'static str,
    /// Test accuracy.
    pub accuracy: f64,
    /// Macro-averaged F1.
    pub f1: f64,
}

/// Reproduces one column pair of Table I: every baseline plus DEEPSERVICE
/// on the given cohort.
///
/// Baselines consume flattened summary features; DEEPSERVICE consumes the
/// raw multi-view sequences.
pub fn table_one(cohort: &KeystrokeDataset, rng: &mut StdRng) -> Vec<TableRow> {
    // shared split on session indices so both representations see the same
    // train/test membership
    let (train_sessions, test_sessions) = cohort.split(0.75, rng);

    // "traditional" flattened features for the shallow models (per-channel
    // means and counts — see `featurize_session_basic`), standardised with
    // training statistics. DEEPSERVICE consumes the raw sequences instead.
    let featurize = |sessions: &[UserSession]| -> Dataset {
        let mut x = Matrix::zeros(sessions.len(), mdl_data::typing::BASIC_FEATURE_DIM);
        let mut y = Vec::with_capacity(sessions.len());
        for (r, s) in sessions.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&mdl_data::typing::featurize_session_basic(&s.session));
            y.push(s.user);
        }
        Dataset::new(x, y, cohort.config.users)
    };
    let mut train_flat = featurize(&train_sessions);
    let mut test_flat = featurize(&test_sessions);
    let (means, stds) = train_flat.standardize();
    test_flat.apply_standardization(&means, &stds);

    let mut rows = Vec::new();
    let mut run = |name: &'static str, model: &mut dyn Classifier, rng: &mut StdRng| {
        let eval = fit_evaluate(model, &train_flat, &test_flat, rng);
        rows.push(TableRow { method: name, accuracy: eval.accuracy, f1: eval.macro_f1 });
    };
    run("LR", &mut LogisticRegression::new(), rng);
    run("SVM", &mut LinearSvm::new(), rng);
    run("Decision Tree", &mut DecisionTree::new(), rng);
    run("RandomForest", &mut RandomForest::new(), rng);
    run("XGBoost", &mut GradientBoost::new(), rng);

    let (eval, _) = train_deepservice(
        &train_sessions,
        &test_sessions,
        &deepservice_config(cohort.config.users),
        rng,
    );
    rows.push(TableRow { method: "DEEPSERVICE", accuracy: eval.accuracy, f1: eval.macro_f1 });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::keystroke::KeystrokeConfig;
    use rand::SeedableRng;

    #[test]
    fn deepservice_identifies_users_above_chance() {
        let mut rng = StdRng::seed_from_u64(360);
        let cohort = KeystrokeDataset::generate(
            &KeystrokeConfig { users: 5, sessions_per_user: 40, ..Default::default() },
            &mut rng,
        );
        let (train, test) = cohort.split(0.75, &mut rng);
        let mut config = deepservice_config(5);
        config.epochs = 8;
        let (eval, _) = train_deepservice(&train, &test, &config, &mut rng);
        assert!(eval.accuracy > 0.5, "5-way accuracy {}", eval.accuracy);
        assert!(eval.macro_f1 > 0.4, "macro F1 {}", eval.macro_f1);
    }

    #[test]
    fn table_one_produces_six_rows() {
        let mut rng = StdRng::seed_from_u64(361);
        let cohort = KeystrokeDataset::generate(
            &KeystrokeConfig { users: 4, sessions_per_user: 25, ..Default::default() },
            &mut rng,
        );
        let rows = table_one(&cohort, &mut rng);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows.last().unwrap().method, "DEEPSERVICE");
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.accuracy), "{row:?}");
            assert!((0.0..=1.0).contains(&row.f1), "{row:?}");
        }
        // on a tiny 4-user cohort rankings are noisy; just require that the
        // strongest nonlinear model is not far below the linear floor
        let lr = rows.iter().find(|r| r.method == "LR").unwrap().accuracy;
        let best = rows
            .iter()
            .filter(|r| ["RandomForest", "XGBoost", "DEEPSERVICE"].contains(&r.method))
            .map(|r| r.accuracy)
            .fold(0.0, f64::max);
        assert!(best >= lr - 0.15, "ensembles/deep ({best}) collapsed vs LR ({lr})");
    }
}
