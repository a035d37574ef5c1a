//! The mini-batch training loop: one epoch driver, [`fit_batches`], and
//! its softmax cross-entropy instance, [`fit_classifier`].

use crate::layer::Layer;
use crate::loss::softmax_cross_entropy;
use crate::optim::Optimizer;
use crate::profile::LayerProfiler;
use mdl_obs::{Buckets, Obs};
use mdl_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`fit_batches`] and [`fit_classifier`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Whether to shuffle example order each epoch.
    pub shuffle: bool,
    /// Optional L2 gradient-norm clip applied per batch.
    pub grad_clip: Option<f64>,
    /// GEMM kernel worker threads for this run (`None` keeps the process
    /// default from `MDL_THREADS`/available parallelism). Thread count
    /// never affects results — the kernel is bit-deterministic — only
    /// wall-clock time.
    pub kernel_threads: Option<usize>,
    /// Observability session: when set, the loop opens `train.fit` /
    /// `train.epoch` / `train.batch` spans, publishes `train.*` counters
    /// and attaches a per-layer [`LayerProfiler`] to the model.
    /// Instrumentation never changes results — only what is recorded.
    pub obs: Option<Obs>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            shuffle: true,
            grad_clip: None,
            kernel_threads: None,
            obs: None,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean cross-entropy over the epoch.
    pub loss: f64,
    /// Training accuracy measured over the epoch's batches.
    pub accuracy: f64,
}

/// The one mini-batch epoch loop of the workspace.
///
/// The driver owns everything that is the same for every mini-batch
/// trainer: it checks the set is non-empty, applies
/// `config.kernel_threads`, shuffles the example order once per epoch
/// (when `config.shuffle`), walks it in `config.batch_size` chunks, opens
/// the `train.fit` / `train.epoch` / `train.batch` spans and `train.*`
/// instruments when `config.obs` is set, and reduces what the batches
/// report into one [`EpochStats`] per epoch.
///
/// `step` owns the batch: gather the chunk's examples, `zero_grad`,
/// forward, loss, backward, clip, optimizer step. It returns
/// `(loss, weight, correct)`; the epoch's loss is `Σ loss / Σ weight` — a
/// step that reports a batch mean weighs 1, one that reports a per-example
/// sum weighs `chunk.len()` — and its accuracy is `Σ correct / n`.
/// `config.grad_clip` is the step's to honour ([`fit_classifier`] does).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn fit_batches(
    n: usize,
    config: &TrainConfig,
    rng: &mut impl Rng,
    mut step: impl FnMut(&[usize]) -> (f64, usize, usize),
) -> Vec<EpochStats> {
    assert!(n > 0, "training set must be non-empty");
    if let Some(t) = config.kernel_threads {
        mdl_tensor::kernel::set_threads(t);
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = Vec::with_capacity(config.epochs);

    // resolve instrumentation once; the batch loop then only touches
    // atomics (counters) and the span ring buffer
    let instruments = config.obs.as_ref().map(|obs| {
        (
            obs.root_span("train.fit"),
            obs.registry().counter("train.batches"),
            obs.registry().counter("train.examples"),
            obs.registry().histogram("train.batch_ns", Buckets::Pow2),
            obs.clock().clone(),
        )
    });

    for epoch in 0..config.epochs {
        let epoch_span = instruments.as_ref().map(|(fit, _, _, _, _)| fit.child("train.epoch"));
        if config.shuffle {
            order.shuffle(rng);
        }
        let (mut total_loss, mut total_weight, mut total_correct) = (0.0f64, 0usize, 0usize);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch_span = epoch_span.as_ref().map(|e| e.child("train.batch"));
            let t0 = instruments.as_ref().map(|(_, _, _, _, clock)| clock.now_ns());
            let (loss, weight, correct) = step(chunk);
            total_loss += loss;
            total_weight += weight;
            total_correct += correct;
            if let Some((_, batch_counter, examples, batch_ns, clock)) = instruments.as_ref() {
                batch_counter.inc();
                examples.add(chunk.len() as u64);
                batch_ns.record(clock.now_ns().saturating_sub(t0.unwrap_or(0)));
            }
            drop(batch_span);
        }
        let stats = EpochStats {
            epoch,
            loss: total_loss / total_weight.max(1) as f64,
            accuracy: total_correct as f64 / n as f64,
        };
        if let Some(obs) = &config.obs {
            obs.registry().gauge("train.loss").set(stats.loss);
            obs.registry().gauge("train.accuracy").set(stats.accuracy);
        }
        history.push(stats);
        drop(epoch_span);
    }
    if let Some((fit, ..)) = instruments {
        fit.exit();
    }
    history
}

/// Trains `model` with softmax cross-entropy on `(x, labels)` — the
/// plain-classifier instance of [`fit_batches`].
///
/// Returns per-epoch loss/accuracy. The model is modified in place.
///
/// # Panics
///
/// Panics if `x.rows() != labels.len()` or the training set is empty.
pub fn fit_classifier(
    model: &mut dyn Layer,
    opt: &mut dyn Optimizer,
    x: &Matrix,
    labels: &[usize],
    config: &TrainConfig,
    rng: &mut impl Rng,
) -> Vec<EpochStats> {
    assert_eq!(x.rows(), labels.len(), "one label per example required");
    if let Some(obs) = &config.obs {
        model.set_profiler(Some(LayerProfiler::new(obs)));
    }
    let history = fit_batches(labels.len(), config, rng, |chunk| {
        let bx = x.select_rows(chunk);
        let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        model.zero_grad();
        let logits = model.forward(&bx);
        let (loss, grad) = softmax_cross_entropy(&logits, &by);
        let _ = model.backward(&grad);
        if let Some(max_norm) = config.grad_clip {
            clip_gradients(model, max_norm);
        }
        opt.step(model);
        let correct = logits.argmax_rows().iter().zip(&by).filter(|(p, y)| p == y).count();
        (loss as f64, 1, correct)
    });
    if config.obs.is_some() {
        model.set_profiler(None);
    }
    history
}

/// Scales all parameter gradients so their global L2 norm is at most `max_norm`.
pub fn clip_gradients(model: &mut dyn Layer, max_norm: f64) {
    let mut sq = 0.0f64;
    model.visit_params(&mut |_, g| {
        sq += g.as_slice().iter().map(|&v| (v as f64).powi(2)).sum::<f64>();
    });
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = (max_norm / norm) as f32;
        model.visit_params(&mut |_, g| g.scale_mut(scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::dense::Dense;
    use crate::optim::Adam;
    use crate::sequential::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two Gaussian blobs: class 0 centred at (-1,-1), class 1 at (1,1).
    fn blobs(n: usize, rng: &mut StdRng) -> (Matrix, Vec<usize>) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let centre = if label == 0 { -1.0 } else { 1.0 };
            x[(i, 0)] = centre + mdl_tensor::init::gaussian(rng) * 0.3;
            x[(i, 1)] = centre + mdl_tensor::init::gaussian(rng) * 0.3;
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(50);
        let (x, y) = blobs(200, &mut rng);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, Activation::Relu, &mut rng));
        net.push(Dense::new(8, 2, Activation::Identity, &mut rng));
        let mut opt = Adam::new(0.01);
        let history = fit_classifier(
            &mut net,
            &mut opt,
            &x,
            &y,
            &TrainConfig { epochs: 20, batch_size: 16, ..Default::default() },
            &mut rng,
        );
        assert_eq!(history.len(), 20);
        assert!(history.last().unwrap().accuracy > 0.95, "{history:?}");
        assert!(history.last().unwrap().loss < history[0].loss);
    }

    #[test]
    fn grad_clip_bounds_norm() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, Activation::Identity, &mut rng));
        net.zero_grad();
        // inject a large gradient
        net.visit_params(&mut |_, g| g.map_mut(|_| 100.0));
        clip_gradients(&mut net, 1.0);
        let mut sq = 0.0f64;
        net.visit_params(&mut |_, g| {
            sq += g.as_slice().iter().map(|&v| (v as f64).powi(2)).sum::<f64>();
        });
        assert!((sq.sqrt() - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_panics() {
        let mut rng = StdRng::seed_from_u64(52);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, Activation::Identity, &mut rng));
        let mut opt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &Matrix::zeros(0, 2),
            &[],
            &TrainConfig::default(),
            &mut rng,
        );
    }
}
