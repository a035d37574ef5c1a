//! Integration tests of the two applications (§IV) against the baseline
//! family — the cross-crate orderings the paper's evaluation rests on.

use mdl_core::deepmood::{train_and_evaluate, EncoderKind};
use mdl_core::prelude::*;

#[test]
fn deepmood_beats_majority_and_linear_baselines() {
    let mut rng = StdRng::seed_from_u64(9101);
    let cohort = BiAffectDataset::generate(
        &BiAffectConfig {
            participants: 16,
            sessions_per_participant: 40,
            mood_effect: 1.25,
            ..Default::default()
        },
        &mut rng,
    );
    let (train, test) = cohort.split(0.75, &mut rng);

    // shallow reference on basic features
    use mdl_core::data::typing::{featurize_session_basic, BASIC_FEATURE_DIM};
    let flat = |sessions: &[mdl_core::data::biaffect::MoodSession]| {
        let mut x = Matrix::zeros(sessions.len(), BASIC_FEATURE_DIM);
        let mut y = Vec::new();
        for (r, s) in sessions.iter().enumerate() {
            x.row_mut(r).copy_from_slice(&featurize_session_basic(&s.session));
            y.push(s.label);
        }
        Dataset::new(x, y, 2)
    };
    let mut train_flat = flat(&train);
    let mut test_flat = flat(&test);
    let (m, s) = train_flat.standardize();
    test_flat.apply_standardization(&m, &s);

    let mut majority = MajorityClass::new();
    let floor = fit_evaluate(&mut majority, &train_flat, &test_flat, &mut rng);
    let mut lr = LogisticRegression::new();
    let linear = fit_evaluate(&mut lr, &train_flat, &test_flat, &mut rng);

    let deep = train_and_evaluate(
        &train,
        &test,
        &DeepMoodConfig {
            hidden_dim: 10,
            fusion: FusionKind::FullyConnected { hidden: 24 },
            epochs: 12,
            ..Default::default()
        },
        &mut rng,
    );

    assert!(
        deep.accuracy > floor.accuracy + 0.1,
        "DeepMood {} must beat majority {}",
        deep.accuracy,
        floor.accuracy
    );
    assert!(
        deep.accuracy > linear.accuracy,
        "DeepMood {} must beat LR {}",
        deep.accuracy,
        linear.accuracy
    );
}

#[test]
fn deepservice_degrades_gracefully_with_more_users() {
    let mut rng = StdRng::seed_from_u64(9102);
    let accuracy_at = |users: usize, rng: &mut StdRng| {
        let cohort = KeystrokeDataset::generate(
            &KeystrokeConfig { users, sessions_per_user: 50, ..Default::default() },
            rng,
        );
        let (train, test) = cohort.split(0.75, rng);
        let mut cfg = mdl_core::deepservice::deepservice_config(users);
        cfg.epochs = 14;
        let (eval, _) = train_deepservice(&train, &test, &cfg, rng);
        eval.accuracy
    };
    let two = accuracy_at(2, &mut rng);
    let ten = accuracy_at(10, &mut rng);
    assert!(two > 0.8, "binary identification {two}");
    assert!(ten > 1.5 / 10.0 * 2.0, "10-way identification {ten} barely above chance");
    assert!(two > ten, "identification must get harder with more users: {two} vs {ten}");
}

#[test]
fn fig6_patterns_separate_users_that_deepservice_separates() {
    let mut rng = StdRng::seed_from_u64(9103);
    let cohort = KeystrokeDataset::generate(
        &KeystrokeConfig { users: 6, sessions_per_user: 30, ..Default::default() },
        &mut rng,
    );
    let patterns = mdl_core::deepservice::analyze_top_users(&cohort, 6);
    assert_eq!(patterns.len(), 6);
    // at least two users must differ noticeably in their typing signature
    let ikis: Vec<f32> = patterns.iter().map(|p| p.mean_iki).collect();
    let max = ikis.iter().cloned().fold(f32::MIN, f32::max);
    let min = ikis.iter().cloned().fold(f32::MAX, f32::min);
    assert!(max / min > 1.05, "users indistinguishable in IKI: {ikis:?}");
}

#[test]
fn table_one_ordering_holds_on_a_medium_cohort() {
    let mut rng = StdRng::seed_from_u64(9104);
    let cohort = KeystrokeDataset::generate(
        &KeystrokeConfig { users: 8, sessions_per_user: 80, ..Default::default() },
        &mut rng,
    );
    let rows = table_one(&cohort, &mut rng);
    let get = |name: &str| rows.iter().find(|r| r.method == name).unwrap().accuracy;
    // the load-bearing orderings of Table I (with slack for seed noise)
    assert!(
        get("RandomForest") > get("LR") - 0.02,
        "RF {} should not trail LR {} meaningfully",
        get("RandomForest"),
        get("LR")
    );
    assert!(
        get("DEEPSERVICE") > get("SVM"),
        "DEEPSERVICE {} must beat the linear floor {}",
        get("DEEPSERVICE"),
        get("SVM")
    );
    assert!(
        get("DEEPSERVICE") + 0.08 > get("XGBoost"),
        "DEEPSERVICE {} must at least be competitive with XGBoost {}",
        get("DEEPSERVICE"),
        get("XGBoost")
    );
}

/// Asking a model for an answer takes `&self`, so one trained model serves
/// every thread of an app: the types are `Sync`, and four threads predicting
/// at once on a shared `&DeepMood` reproduce the single-thread answers, with
/// each encoder (GRU, BiGRU, LSTM) — `DeepMood` is one type over all three.
#[test]
fn trained_applications_answer_through_a_shared_reference() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<DeepMood>();
    assert_sync::<Arden>();
    assert_sync::<mdl_core::split::EarlyExitNetwork>();

    let mut rng = StdRng::seed_from_u64(9105);
    let data: Vec<(Vec<Matrix>, usize)> = (0..24)
        .map(|i| {
            let (label, t) = (i % 2, 5 + i % 4);
            let drift = if label == 0 { 0.3 } else { -0.3 };
            let v0 = Matrix::from_fn(t, 2, |r, c| drift * r as f32 + 0.1 * c as f32);
            let v1 =
                Matrix::from_fn(t + 2, 3, |r, c| ((1 + label) as f32 * r as f32 + c as f32).sin());
            (vec![v0, v1], label)
        })
        .collect();
    let sessions: Vec<(Vec<&Matrix>, usize)> =
        data.iter().map(|(views, y)| (views.iter().collect(), *y)).collect();
    for encoder in [EncoderKind::Gru, EncoderKind::BiGru, EncoderKind::Lstm] {
        let config = DeepMoodConfig { encoder, epochs: 2, ..Default::default() };
        let mut model = DeepMood::new(&[2, 3], config, &mut rng);
        let _ = model.train(&sessions, &mut rng);

        let model = &model;
        let expected = model.predictions(&sessions);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        sessions.iter().map(|(views, _)| model.predict(views)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                let got = worker.join().expect("predicting thread panicked");
                assert_eq!(got, expected, "{encoder:?} encoder");
            }
        });
    }
}
