//! The DeepMood architecture (paper Fig. 4): one GRU encoder per metadata
//! view, late-fused by an FC / FM / MVM output layer.

use crate::fusion::{FactorizationMachineFusion, FullyConnectedFusion, MultiViewMachineFusion};
use mdl_nn::loss::softmax_cross_entropy;
use mdl_nn::{fit_batches, Adam, BiGru, EpochStats, Gru, Layer, Lstm, Optimizer, TrainConfig};
use mdl_tensor::Matrix;
use rand::Rng;

/// Which late-fusion head sits on top of the view encoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionKind {
    /// Eq. 2: fully connected with `k'` hidden units.
    FullyConnected {
        /// Hidden width `k'`.
        hidden: usize,
    },
    /// Eq. 3: factorization machine with `k` factors.
    FactorizationMachine {
        /// Factor count `k`.
        factors: usize,
    },
    /// Eq. 4: multi-view machine with `k` factors.
    MultiViewMachine {
        /// Factor count `k`.
        factors: usize,
    },
}

/// Which recurrent encoder processes each view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// Unidirectional GRU (the paper's default, Eq. 1).
    #[default]
    Gru,
    /// Bidirectional GRU (doubles the fused width).
    BiGru,
    /// LSTM (reference [42]) — the un-simplified alternative.
    Lstm,
}

/// DeepMood hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepMoodConfig {
    /// GRU hidden width per view.
    pub hidden_dim: usize,
    /// Recurrent cell per view.
    pub encoder: EncoderKind,
    /// The fusion head.
    pub fusion: FusionKind,
    /// Number of output classes.
    pub classes: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Sessions per gradient step.
    pub batch_size: usize,
}

impl Default for DeepMoodConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 8,
            encoder: EncoderKind::Gru,
            fusion: FusionKind::MultiViewMachine { factors: 4 },
            classes: 2,
            learning_rate: 0.01,
            epochs: 12,
            batch_size: 16,
        }
    }
}

/// One view's recurrent encoder: a sequence layer whose output rows are
/// per-step states. The encoded state reads the first `fwd` columns at the
/// last row and the rest — a `BiGru`'s reversed direction, which finishes
/// on the first step; nothing for `Gru` / `Lstm` — at row 0.
struct Encoder {
    cell: Box<dyn Layer>,
    fwd: usize,
}

impl Encoder {
    fn new(kind: EncoderKind, input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        let cell: Box<dyn Layer> = match kind {
            EncoderKind::Gru => Box::new(Gru::new(input_dim, hidden_dim, rng)),
            EncoderKind::BiGru => Box::new(BiGru::new(input_dim, hidden_dim, rng)),
            EncoderKind::Lstm => Box::new(Lstm::new(input_dim, hidden_dim, rng)),
        };
        Self { cell, fwd: hidden_dim }
    }

    fn final_state(&self, states: &Matrix) -> Matrix {
        let mut out = Matrix::row_vector(states.row(states.rows() - 1));
        out.row_mut(0)[self.fwd..].copy_from_slice(&states.row(0)[self.fwd..]);
        out
    }

    /// Read-only final state (`1 × out`) — the answer path.
    fn encode(&self, seq: &Matrix) -> Matrix {
        self.final_state(&self.cell.forward_eval(seq))
    }

    /// Training forward: the same final state, with every step cached for
    /// [`Encoder::backward_encoded`].
    fn forward(&mut self, seq: &Matrix) -> Matrix {
        let states = self.cell.forward(seq);
        self.final_state(&states)
    }

    /// Backpropagates a gradient on the encoded state through time.
    fn backward_encoded(&mut self, d: &[f32], t_len: usize) {
        let mut gout = Matrix::zeros(t_len, d.len());
        gout.row_mut(t_len - 1)[..self.fwd].copy_from_slice(&d[..self.fwd]);
        gout.row_mut(0)[self.fwd..].copy_from_slice(&d[self.fwd..]);
        let _ = self.cell.backward(&gout);
    }
}

/// A multi-view sequence classifier: per-view GRUs + late-fusion head.
///
/// This is both DeepMood (§IV-A, mood classes) and the deep core of
/// DEEPSERVICE (§IV-B, user classes) — the architecture is identical, only
/// the label semantics differ.
pub struct DeepMood {
    encoders: Vec<Encoder>,
    head: Box<dyn Layer>,
    view_dims: Vec<usize>,
    config: DeepMoodConfig,
}

impl std::fmt::Debug for DeepMood {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeepMood")
            .field("views", &self.view_dims)
            .field("config", &self.config)
            .finish()
    }
}

/// Late fusion's input: the per-view final states side by side (`1 × Σ out`).
fn fuse(encoded: impl Iterator<Item = Matrix>) -> Matrix {
    encoded.reduce(|fused, enc| fused.hstack(&enc)).expect("a DeepMood has at least one view")
}

impl DeepMood {
    /// Creates the model for views with the given input widths.
    pub fn new(view_input_dims: &[usize], config: DeepMoodConfig, rng: &mut impl Rng) -> Self {
        assert!(!view_input_dims.is_empty(), "need at least one view");
        let encoders: Vec<Encoder> = view_input_dims
            .iter()
            .map(|&d| Encoder::new(config.encoder, d, config.hidden_dim, rng))
            .collect();
        let view_dims: Vec<usize> = encoders.iter().map(|e| e.cell.info().out_dim).collect();
        let fused: usize = view_dims.iter().sum();
        let head: Box<dyn Layer> = match config.fusion {
            FusionKind::FullyConnected { hidden } => {
                Box::new(FullyConnectedFusion::new(fused, hidden, config.classes, rng))
            }
            FusionKind::FactorizationMachine { factors } => {
                Box::new(FactorizationMachineFusion::new(fused, factors, config.classes, rng))
            }
            FusionKind::MultiViewMachine { factors } => {
                Box::new(MultiViewMachineFusion::new(&view_dims, factors, config.classes, rng))
            }
        };
        Self { encoders, head, view_dims, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DeepMoodConfig {
        &self.config
    }

    /// Total trainable parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |v, _| n += v.len());
        n
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for e in &mut self.encoders {
            e.cell.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.map_mut(|_| 0.0));
    }

    /// Class logits for one session's views.
    ///
    /// # Panics
    ///
    /// Panics if the number of views differs from the model's.
    pub fn logits(&self, views: &[&Matrix]) -> Matrix {
        assert_eq!(views.len(), self.encoders.len(), "view count mismatch");
        let encoded = self.encoders.iter().zip(views).map(|(e, v)| e.encode(v));
        self.head.forward_eval(&fuse(encoded))
    }

    /// Predicted class for one session.
    pub fn predict(&self, views: &[&Matrix]) -> usize {
        self.logits(views).argmax_rows()[0]
    }

    /// Loss + gradient accumulation for one labelled session: the training
    /// twin of [`DeepMood::logits`], then backpropagation through time.
    fn accumulate(&mut self, views: &[&Matrix], label: usize) -> (f32, bool) {
        assert_eq!(views.len(), self.encoders.len(), "view count mismatch");
        let encoded = self.encoders.iter_mut().zip(views).map(|(e, v)| e.forward(v));
        let logits = self.head.forward(&fuse(encoded));
        let correct = logits.argmax_rows()[0] == label;
        let (loss, grad) = softmax_cross_entropy(&logits, &[label]);
        let d_fused = self.head.backward(&grad);
        let mut at = 0;
        for ((e, v), &w) in self.encoders.iter_mut().zip(views).zip(&self.view_dims) {
            e.backward_encoded(&d_fused.row(0)[at..at + w], v.rows());
            at += w;
        }
        (loss, correct)
    }

    /// Trains on labelled multi-view sessions with mini-batch Adam — the
    /// multi-view instance of [`fit_batches`]: each session runs forward and
    /// backward through time on its own, gradients accumulate over the batch
    /// and are averaged before the step.
    ///
    /// Each element of `sessions` is `(views, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty.
    pub fn train(
        &mut self,
        sessions: &[(Vec<&Matrix>, usize)],
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.config.learning_rate);
        let config = TrainConfig {
            epochs: self.config.epochs,
            batch_size: self.config.batch_size,
            ..Default::default()
        };
        fit_batches(sessions.len(), &config, rng, |chunk| {
            self.zero_grad();
            let (mut loss, mut correct) = (0.0f64, 0usize);
            for &i in chunk {
                let (views, label) = &sessions[i];
                let (l, ok) = self.accumulate(views, *label);
                loss += l as f64;
                correct += usize::from(ok);
            }
            // average accumulated gradients over the batch
            let scale = 1.0 / chunk.len() as f32;
            self.visit_params(&mut |_, g| g.scale_mut(scale));
            opt.step_params(&mut |f| self.visit_params(f));
            (loss, chunk.len(), correct)
        })
    }

    /// Accuracy over labelled sessions.
    pub fn accuracy(&self, sessions: &[(Vec<&Matrix>, usize)]) -> f64 {
        if sessions.is_empty() {
            return 0.0;
        }
        let correct =
            sessions.iter().filter(|(views, label)| self.predict(views) == *label).count();
        correct as f64 / sessions.len() as f64
    }

    /// Predictions over labelled sessions (order preserved).
    pub fn predictions(&self, sessions: &[(Vec<&Matrix>, usize)]) -> Vec<usize> {
        sessions.iter().map(|(views, _)| self.predict(views)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic two-view sequence task: class decides the drift direction
    /// of view 0 and the frequency of view 1.
    fn toy_sessions(n: usize, rng: &mut StdRng) -> Vec<(Vec<Matrix>, usize)> {
        use mdl_tensor::init::gaussian;
        (0..n)
            .map(|i| {
                let label = i % 2;
                let t = 6 + (i % 5);
                let drift = if label == 0 { 0.3 } else { -0.3 };
                let v0 = Matrix::from_fn(t, 2, |r, c| {
                    drift * r as f32 + 0.05 * gaussian(rng) + c as f32 * 0.1
                });
                let freq = if label == 0 { 0.5 } else { 2.0 };
                let v1 = Matrix::from_fn(t + 2, 3, |r, c| {
                    (freq * r as f32 + c as f32).sin() + 0.05 * gaussian(rng)
                });
                (vec![v0, v1], label)
            })
            .collect()
    }

    fn as_refs(data: &[(Vec<Matrix>, usize)]) -> Vec<(Vec<&Matrix>, usize)> {
        data.iter().map(|(v, y)| (v.iter().collect(), *y)).collect()
    }

    fn learns_with(fusion: FusionKind, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = toy_sessions(120, &mut rng);
        let sessions = as_refs(&data);
        let (train, test) = sessions.split_at(90);
        let mut model = DeepMood::new(
            &[2, 3],
            DeepMoodConfig {
                fusion,
                epochs: 15,
                hidden_dim: 6,
                learning_rate: 0.02,
                ..Default::default()
            },
            &mut rng,
        );
        let history = model.train(train, &mut rng);
        assert!(history.last().unwrap().loss < history[0].loss, "loss should fall");
        model.accuracy(test)
    }

    #[test]
    fn fc_fusion_learns_toy_task() {
        let acc = learns_with(FusionKind::FullyConnected { hidden: 8 }, 340);
        assert!(acc > 0.85, "FC fusion accuracy {acc}");
    }

    #[test]
    fn fm_fusion_learns_toy_task() {
        let acc = learns_with(FusionKind::FactorizationMachine { factors: 4 }, 341);
        assert!(acc > 0.85, "FM fusion accuracy {acc}");
    }

    #[test]
    fn mvm_fusion_learns_toy_task() {
        let acc = learns_with(FusionKind::MultiViewMachine { factors: 4 }, 342);
        assert!(acc > 0.85, "MVM fusion accuracy {acc}");
    }

    #[test]
    fn lstm_encoders_learn_toy_task() {
        let mut rng = StdRng::seed_from_u64(346);
        let data = toy_sessions(100, &mut rng);
        let sessions = as_refs(&data);
        let (train, test) = sessions.split_at(75);
        let mut model = DeepMood::new(
            &[2, 3],
            DeepMoodConfig {
                encoder: EncoderKind::Lstm,
                epochs: 15,
                hidden_dim: 6,
                learning_rate: 0.02,
                ..Default::default()
            },
            &mut rng,
        );
        let history = model.train(train, &mut rng);
        assert!(history.last().unwrap().loss < history[0].loss);
        assert!(model.accuracy(test) > 0.8, "LSTM encoder accuracy");
    }

    #[test]
    fn bidirectional_encoders_work() {
        let mut rng = StdRng::seed_from_u64(343);
        let data = toy_sessions(80, &mut rng);
        let sessions = as_refs(&data);
        let mut model = DeepMood::new(
            &[2, 3],
            DeepMoodConfig {
                encoder: EncoderKind::BiGru,
                epochs: 12,
                hidden_dim: 5,
                learning_rate: 0.02,
                ..Default::default()
            },
            &mut rng,
        );
        let history = model.train(&sessions, &mut rng);
        assert!(history.last().unwrap().accuracy > 0.8, "{history:?}");
    }

    /// The read-only and the training encoders read the same rows of the
    /// cell's per-step states: the last row, except a `BiGru`'s reversed
    /// half, which finishes on row 0.
    #[test]
    fn encoder_reads_the_matching_rows_of_forward_eval() {
        let x = Matrix::from_fn(6, 2, |r, c| (r as f32 - c as f32) * 0.1);
        for kind in [EncoderKind::Gru, EncoderKind::BiGru, EncoderKind::Lstm] {
            let mut rng = StdRng::seed_from_u64(24);
            let mut enc = Encoder::new(kind, 2, 3, &mut rng);
            let states = enc.cell.forward_eval(&x);
            let width = if kind == EncoderKind::BiGru { 6 } else { 3 };
            assert_eq!(states.shape(), (6, width), "{kind:?}");
            let mut want = states.row(5)[..3].to_vec();
            want.extend_from_slice(&states.row(0)[3..]);
            assert_eq!(enc.encode(&x).row(0), &want[..], "{kind:?} encode");
            assert_eq!(enc.forward(&x).row(0), &want[..], "{kind:?} training forward");
        }
    }

    #[test]
    fn predictions_are_deterministic_after_training() {
        let mut rng = StdRng::seed_from_u64(344);
        let data = toy_sessions(40, &mut rng);
        let sessions = as_refs(&data);
        let mut model =
            DeepMood::new(&[2, 3], DeepMoodConfig { epochs: 2, ..Default::default() }, &mut rng);
        let _ = model.train(&sessions, &mut rng);
        assert_eq!(model.predictions(&sessions), model.predictions(&sessions));
    }

    #[test]
    #[should_panic(expected = "view count mismatch")]
    fn logits_rejects_wrong_view_count() {
        let mut rng = StdRng::seed_from_u64(345);
        let model = DeepMood::new(&[2, 3], DeepMoodConfig::default(), &mut rng);
        let v = Matrix::ones(4, 2);
        let _ = model.logits(&[&v]);
    }
}
