//! Knowledge distillation (§III-B, reference [37]): train a small student
//! to mimic a large teacher's softened predictions.

use mdl_nn::loss::{distillation, softmax_cross_entropy};
use mdl_nn::{fit_batches, EpochStats, Layer, Optimizer, TrainConfig};
use mdl_tensor::Matrix;
use rand::Rng;

/// Hyper-parameters of a distillation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillConfig {
    /// Softmax temperature `T` for both teacher and student.
    pub temperature: f32,
    /// Weight of the soft (teacher) loss; `1 − alpha` weights the hard loss.
    pub alpha: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for DistillConfig {
    fn default() -> Self {
        Self { temperature: 3.0, alpha: 0.7, epochs: 20, batch_size: 32 }
    }
}

/// Trains `student` to match `teacher` on inputs `x` with labels `labels`.
///
/// The combined objective is
/// `alpha · KD(student, teacher; T) + (1 − alpha) · CE(student, labels)`;
/// the returned per-epoch `loss` is its mean over the epoch's batches and
/// `accuracy` the student's against `labels`.
///
/// # Panics
///
/// Panics if shapes disagree or the training set is empty.
pub fn distill(
    teacher: &dyn Layer,
    student: &mut dyn Layer,
    opt: &mut dyn Optimizer,
    x: &Matrix,
    labels: &[usize],
    config: &DistillConfig,
    rng: &mut impl Rng,
) -> Vec<EpochStats> {
    assert_eq!(x.rows(), labels.len(), "one label per example required");
    // teacher logits are fixed; compute once
    let teacher_logits = teacher.forward_eval(x);
    let train =
        TrainConfig { epochs: config.epochs, batch_size: config.batch_size, ..Default::default() };
    fit_batches(labels.len(), &train, rng, |chunk| {
        let bx = x.select_rows(chunk);
        let bt = teacher_logits.select_rows(chunk);
        let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();

        student.zero_grad();
        let logits = student.forward(&bx);
        let (soft_loss, soft_grad) = distillation(&logits, &bt, config.temperature);
        let (hard_loss, hard_grad) = softmax_cross_entropy(&logits, &by);
        let grad = soft_grad.scale(config.alpha).add(&hard_grad.scale(1.0 - config.alpha));
        let _ = student.backward(&grad);
        opt.step(student);

        let loss = config.alpha * soft_loss + (1.0 - config.alpha) * hard_loss;
        let correct = logits.argmax_rows().iter().zip(&by).filter(|(p, y)| p == y).count();
        (loss as f64, 1, correct)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::synthetic::two_spirals;
    use mdl_nn::{fit_classifier, Activation, Adam, Dense, ParamVector, Sequential, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(dims: &[usize], rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        for (i, w) in dims.windows(2).enumerate() {
            let act = if i + 2 == dims.len() { Activation::Identity } else { Activation::Relu };
            net.push(Dense::new(w[0], w[1], act, rng));
        }
        net
    }

    #[test]
    fn student_approaches_teacher_on_spirals() {
        let mut rng = StdRng::seed_from_u64(280);
        let data = two_spirals(400, 0.05, &mut rng);
        let (train, test) = data.split(0.75, &mut rng);

        // strong teacher
        let mut teacher = mlp(&[2, 48, 48, 2], &mut rng);
        let mut topt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut teacher,
            &mut topt,
            &train.x,
            &train.y,
            &TrainConfig { epochs: 80, batch_size: 32, ..Default::default() },
            &mut rng,
        );
        let teacher_acc = teacher.accuracy(&test.x, &test.y);
        assert!(teacher_acc > 0.9, "teacher too weak: {teacher_acc}");

        // small student distilled from the teacher
        let mut student = mlp(&[2, 24, 2], &mut rng);
        let mut sopt = Adam::new(0.01);
        let _ = distill(
            &teacher,
            &mut student,
            &mut sopt,
            &train.x,
            &train.y,
            &DistillConfig { epochs: 200, ..Default::default() },
            &mut rng,
        );
        let student_acc = student.accuracy(&test.x, &test.y);
        assert!(
            student_acc > teacher_acc - 0.15,
            "student {student_acc} should approach teacher {teacher_acc}"
        );
        // and the student really is smaller
        assert!(student.num_params() * 4 < teacher.num_params());
    }

    #[test]
    fn distillation_loss_decreases() {
        let mut rng = StdRng::seed_from_u64(281);
        let data = two_spirals(200, 0.05, &mut rng);
        let mut teacher = mlp(&[2, 24, 2], &mut rng);
        let mut topt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut teacher,
            &mut topt,
            &data.x,
            &data.y,
            &TrainConfig { epochs: 40, ..Default::default() },
            &mut rng,
        );
        let mut student = mlp(&[2, 6, 2], &mut rng);
        let mut sopt = Adam::new(0.01);
        let stats = distill(
            &teacher,
            &mut student,
            &mut sopt,
            &data.x,
            &data.y,
            &DistillConfig { epochs: 30, ..Default::default() },
            &mut rng,
        );
        assert!(stats.last().unwrap().loss < stats[0].loss, "{stats:?}");
    }

    #[test]
    fn pure_soft_distillation_works_without_labels_weight() {
        let mut rng = StdRng::seed_from_u64(282);
        let data = two_spirals(200, 0.05, &mut rng);
        let mut teacher = mlp(&[2, 24, 2], &mut rng);
        let mut topt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut teacher,
            &mut topt,
            &data.x,
            &data.y,
            &TrainConfig { epochs: 40, ..Default::default() },
            &mut rng,
        );
        let mut student = mlp(&[2, 8, 2], &mut rng);
        let mut sopt = Adam::new(0.01);
        let _ = distill(
            &teacher,
            &mut student,
            &mut sopt,
            &data.x,
            &data.y,
            &DistillConfig { alpha: 1.0, epochs: 60, ..Default::default() },
            &mut rng,
        );
        // student should agree with the teacher on most points
        let t_pred = teacher.predict(&data.x);
        let s_pred = student.predict(&data.x);
        let agree = t_pred.iter().zip(s_pred.iter()).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 / t_pred.len() as f64 > 0.8,
            "agreement {}",
            agree as f64 / t_pred.len() as f64
        );
    }
}
