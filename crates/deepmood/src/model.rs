//! The DeepMood architecture (paper Fig. 4): one GRU encoder per metadata
//! view, late-fused by an FC / FM / MVM output layer.

use crate::fusion::{FactorizationMachineFusion, FullyConnectedFusion, MultiViewMachineFusion};
use mdl_nn::loss::softmax_cross_entropy;
use mdl_nn::{Adam, BiGru, Gru, Layer, LayerInfo, Lstm, Optimizer};
use mdl_tensor::Matrix;
use rand::seq::SliceRandom;
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

enum Encoder {
    Uni(Box<Gru>),
    Bi(Box<BiGru>),
    Mem(Box<Lstm>),
}

impl Encoder {
    fn out_dim(&self) -> usize {
        match self {
            Encoder::Uni(g) => g.hidden_dim(),
            Encoder::Bi(g) => 2 * g.hidden_dim(),
            Encoder::Mem(l) => l.hidden_dim(),
        }
    }

    /// Read-only final state (`1 × out`) — the answer path.
    fn encode(&self, seq: &Matrix) -> Matrix {
        match self {
            Encoder::Uni(g) => g.encode(seq),
            Encoder::Bi(g) => g.encode(seq),
            Encoder::Mem(l) => l.encode(seq),
        }
    }

    /// Training forward: the same final state, with every step cached for
    /// [`Encoder::backward_encoded`].
    fn forward(&mut self, seq: &Matrix) -> Matrix {
        let states = match self {
            Encoder::Uni(g) => g.forward(seq),
            Encoder::Bi(g) => g.forward(seq),
            Encoder::Mem(l) => l.forward(seq),
        };
        let mut out = Matrix::row_vector(states.row(states.rows() - 1));
        if let Encoder::Bi(g) = self {
            // the reversed direction finishes on the first row
            let h = g.hidden_dim();
            out.row_mut(0)[h..].copy_from_slice(&states.row(0)[h..]);
        }
        out
    }

    /// Backpropagates a gradient on the encoded state through time.
    fn backward_encoded(&mut self, d: &Matrix, t_len: usize) {
        match self {
            Encoder::Uni(g) => {
                let h = g.hidden_dim();
                let mut gout = Matrix::zeros(t_len, h);
                gout.row_mut(t_len - 1).copy_from_slice(d.row(0));
                let _ = g.backward(&gout);
            }
            Encoder::Bi(g) => {
                let h = g.hidden_dim();
                let mut gout = Matrix::zeros(t_len, 2 * h);
                gout.row_mut(t_len - 1)[..h].copy_from_slice(&d.row(0)[..h]);
                gout.row_mut(0)[h..].copy_from_slice(&d.row(0)[h..]);
                let _ = g.backward(&gout);
            }
            Encoder::Mem(l) => {
                let h = l.hidden_dim();
                let mut gout = Matrix::zeros(t_len, h);
                gout.row_mut(t_len - 1).copy_from_slice(d.row(0));
                let _ = l.backward(&gout);
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        match self {
            Encoder::Uni(g) => g.visit_params(f),
            Encoder::Bi(g) => g.visit_params(f),
            Encoder::Mem(l) => l.visit_params(f),
        }
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

/// Parameter-only adapter so stock optimizers can drive the composite model.
struct ParamsOnly<'a>(&'a mut DeepMood);

impl Layer for ParamsOnly<'_> {
    fn forward(&mut self, _x: &Matrix) -> Matrix {
        unreachable!("ParamsOnly is only used for optimizer parameter visits")
    }

    fn forward_eval(&self, _x: &Matrix) -> Matrix {
        unreachable!("ParamsOnly is only used for optimizer parameter visits")
    }

    fn backward(&mut self, _grad_out: &Matrix) -> Matrix {
        unreachable!("ParamsOnly is only used for optimizer parameter visits")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.0.visit_params(f);
    }

    fn info(&self) -> LayerInfo {
        LayerInfo { kind: "params-only", in_dim: 0, out_dim: 0, params: 0, macs: 0 }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        // ParamsOnly is a transient borrow adapter; it is never downcast.
        unreachable!("ParamsOnly does not support downcasting")
    }
}

/// Late fusion's input: the per-view final states side by side (`1 × Σ out`).
fn fuse(encoded: impl Iterator<Item = Matrix>) -> Matrix {
    encoded.reduce(|fused, enc| fused.hstack(&enc)).expect("a DeepMood has at least one view")
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepMoodEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Mean cross-entropy.
    pub loss: f64,
    /// Training accuracy.
    pub accuracy: f64,
}

impl DeepMood {
    /// Creates the model for views with the given input widths.
    pub fn new(view_input_dims: &[usize], config: DeepMoodConfig, rng: &mut impl Rng) -> Self {
        assert!(!view_input_dims.is_empty(), "need at least one view");
        let encoders: Vec<Encoder> = view_input_dims
            .iter()
            .map(|&d| match config.encoder {
                EncoderKind::Gru => Encoder::Uni(Box::new(Gru::new(d, config.hidden_dim, rng))),
                EncoderKind::BiGru => Encoder::Bi(Box::new(BiGru::new(d, config.hidden_dim, rng))),
                EncoderKind::Lstm => Encoder::Mem(Box::new(Lstm::new(d, config.hidden_dim, rng))),
            })
            .collect();
        let view_dims: Vec<usize> = encoders.iter().map(|e| e.out_dim()).collect();
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
            e.visit_params(f);
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
        for (e, v) in self.encoders.iter_mut().zip(views.iter()) {
            let w = e.out_dim();
            let d = Matrix::row_vector(&d_fused.row(0)[at..at + w]);
            e.backward_encoded(&d, v.rows());
            at += w;
        }
        (loss, correct)
    }

    /// Trains on labelled multi-view sessions with mini-batch Adam.
    ///
    /// Each element of `sessions` is `(views, label)`.
    pub fn train(
        &mut self,
        sessions: &[(Vec<&Matrix>, usize)],
        rng: &mut impl Rng,
    ) -> Vec<DeepMoodEpoch> {
        assert!(!sessions.is_empty(), "training set must be non-empty");
        let mut opt = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        let mut history = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            order.shuffle(rng);
            let mut total_loss = 0.0f64;
            let mut correct = 0usize;
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                self.zero_grad();
                for &i in chunk {
                    let (views, label) = &sessions[i];
                    let (loss, ok) = self.accumulate(views, *label);
                    total_loss += loss as f64;
                    correct += usize::from(ok);
                }
                // average accumulated gradients over the batch
                let scale = 1.0 / chunk.len() as f32;
                self.visit_params(&mut |_, g| g.scale_mut(scale));
                opt.step(&mut ParamsOnly(self));
            }
            history.push(DeepMoodEpoch {
                epoch,
                loss: total_loss / sessions.len() as f64,
                accuracy: correct as f64 / sessions.len() as f64,
            });
        }
        history
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
