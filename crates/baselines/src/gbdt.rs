//! Gradient-boosted decision trees with a second-order (XGBoost-style)
//! objective — the paper's strongest shallow baseline (reference [47]).
//!
//! Each boosting round fits one regression tree per class to the softmax
//! gradient/hessian pairs, with the regularised leaf weight
//! `w = -G / (H + λ)` and split gain
//! `½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`.

use crate::classifier::Classifier;
use mdl_data::Dataset;
use mdl_tensor::stats::softmax_rows;
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

#[derive(Debug, Clone)]
enum RegNode {
    Leaf { weight: f32 },
    Split { feature: usize, threshold: f32, left: usize, right: usize },
}

/// One regression tree over `(gradient, hessian)` targets.
#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<RegNode>,
}

struct SplitSpec {
    feature: usize,
    threshold: f32,
}

impl RegTree {
    #[allow(clippy::too_many_arguments)]
    fn fit(
        x: &Matrix,
        idx: &[usize],
        grad: &[f32],
        hess: &[f32],
        max_depth: usize,
        lambda: f64,
        gamma: f64,
        min_child_weight: f64,
    ) -> Self {
        let mut tree = RegTree { nodes: Vec::new() };
        tree.build(x, idx, grad, hess, 0, max_depth, lambda, gamma, min_child_weight);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &Matrix,
        idx: &[usize],
        grad: &[f32],
        hess: &[f32],
        depth: usize,
        max_depth: usize,
        lambda: f64,
        gamma: f64,
        min_child_weight: f64,
    ) -> usize {
        let g: f64 = idx.iter().map(|&i| grad[i] as f64).sum();
        let h: f64 = idx.iter().map(|&i| hess[i] as f64).sum();

        if depth < max_depth && idx.len() >= 2 {
            if let Some(split) =
                best_split(x, idx, grad, hess, g, h, lambda, gamma, min_child_weight)
            {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x[(i, split.feature)] <= split.threshold);
                if !left_idx.is_empty() && !right_idx.is_empty() {
                    let me = self.nodes.len();
                    self.nodes.push(RegNode::Leaf { weight: 0.0 });
                    let left = self.build(
                        x,
                        &left_idx,
                        grad,
                        hess,
                        depth + 1,
                        max_depth,
                        lambda,
                        gamma,
                        min_child_weight,
                    );
                    let right = self.build(
                        x,
                        &right_idx,
                        grad,
                        hess,
                        depth + 1,
                        max_depth,
                        lambda,
                        gamma,
                        min_child_weight,
                    );
                    self.nodes[me] = RegNode::Split {
                        feature: split.feature,
                        threshold: split.threshold,
                        left,
                        right,
                    };
                    return me;
                }
            }
        }
        let me = self.nodes.len();
        self.nodes.push(RegNode::Leaf { weight: (-g / (h + lambda)) as f32 });
        me
    }

    fn predict_one(&self, row: &[f32]) -> f32 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                RegNode::Leaf { weight } => return *weight,
                RegNode::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn best_split(
    x: &Matrix,
    idx: &[usize],
    grad: &[f32],
    hess: &[f32],
    g_total: f64,
    h_total: f64,
    lambda: f64,
    gamma: f64,
    min_child_weight: f64,
) -> Option<SplitSpec> {
    let parent_score = g_total * g_total / (h_total + lambda);
    let mut best: Option<(f64, SplitSpec)> = None;
    for f in 0..x.cols() {
        let mut sorted: Vec<usize> = idx.to_vec();
        sorted.sort_by(|&a, &b| {
            x[(a, f)].partial_cmp(&x[(b, f)]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut gl = 0.0f64;
        let mut hl = 0.0f64;
        for w in 0..sorted.len() - 1 {
            let i = sorted[w];
            gl += grad[i] as f64;
            hl += hess[i] as f64;
            let v_here = x[(i, f)];
            let v_next = x[(sorted[w + 1], f)];
            if v_here == v_next {
                continue;
            }
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < min_child_weight || hr < min_child_weight {
                continue;
            }
            let gain =
                0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score) - gamma;
            if gain > 0.0 && best.as_ref().is_none_or(|(b, _)| gain > *b) {
                best = Some((gain, SplitSpec { feature: f, threshold: 0.5 * (v_here + v_next) }));
            }
        }
    }
    best.map(|(_, s)| s)
}

/// Multi-class gradient-boosted trees.
#[derive(Debug, Clone)]
pub struct GradientBoost {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f32,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// L2 leaf-weight regularisation λ.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per round.
    pub subsample: f64,
    /// trees[round][class]
    trees: Vec<Vec<RegTree>>,
    classes: usize,
}

impl Default for GradientBoost {
    fn default() -> Self {
        Self {
            n_rounds: 40,
            learning_rate: 0.3,
            max_depth: 5,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 0.9,
            trees: Vec::new(),
            classes: 0,
        }
    }
}

impl GradientBoost {
    /// Creates a model with default hyper-parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model with an explicit round count.
    pub fn with_rounds(n_rounds: usize) -> Self {
        Self { n_rounds, ..Default::default() }
    }

    /// Raw margins `F(x)` before the softmax.
    fn margins(&self, x: &Matrix) -> Matrix {
        let mut f = Matrix::zeros(x.rows(), self.classes);
        for round in &self.trees {
            for (k, tree) in round.iter().enumerate() {
                for r in 0..x.rows() {
                    f[(r, k)] += self.learning_rate * tree.predict_one(x.row(r));
                }
            }
        }
        f
    }
}

impl Classifier for GradientBoost {
    fn fit(&mut self, data: &Dataset, rng: &mut StdRng) {
        assert!(!data.is_empty(), "cannot fit GBDT to an empty dataset");
        self.classes = data.classes;
        self.trees.clear();
        let n = data.len();
        let c = data.classes;
        let mut margins = Matrix::zeros(n, c);

        for _ in 0..self.n_rounds {
            let probs = softmax_rows(&margins);
            // row subsample per round
            let idx: Vec<usize> = if self.subsample < 1.0 {
                (0..n).filter(|_| rng.gen::<f64>() < self.subsample).collect()
            } else {
                (0..n).collect()
            };
            let idx = if idx.is_empty() { (0..n).collect() } else { idx };

            let mut round_trees = Vec::with_capacity(c);
            for k in 0..c {
                let mut grad = vec![0.0f32; n];
                let mut hess = vec![0.0f32; n];
                for i in 0..n {
                    let p = probs[(i, k)];
                    let y = if data.y[i] == k { 1.0 } else { 0.0 };
                    grad[i] = p - y;
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
                let tree = RegTree::fit(
                    &data.x,
                    &idx,
                    &grad,
                    &hess,
                    self.max_depth,
                    self.lambda,
                    self.gamma,
                    self.min_child_weight,
                );
                for i in 0..n {
                    margins[(i, k)] += self.learning_rate * tree.predict_one(data.x.row(i));
                }
                round_trees.push(tree);
            }
            self.trees.push(round_trees);
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert!(!self.trees.is_empty(), "predict called before fit");
        self.margins(x).argmax_rows()
    }

    fn name(&self) -> &'static str {
        "XGBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::fit_evaluate;
    use mdl_data::synthetic::{gaussian_blobs, synthetic_digits, two_spirals};
    use rand::SeedableRng;

    #[test]
    fn boosting_learns_blobs() {
        let mut rng = StdRng::seed_from_u64(150);
        let d = gaussian_blobs(300, 3, 0.4, &mut rng);
        let (train, test) = d.split(0.7, &mut rng);
        let mut gb = GradientBoost::with_rounds(20);
        let eval = fit_evaluate(&mut gb, &train, &test, &mut rng);
        assert!(eval.accuracy > 0.9, "{eval:?}");
    }

    #[test]
    fn boosting_learns_spirals() {
        let mut rng = StdRng::seed_from_u64(151);
        let d = two_spirals(400, 0.05, &mut rng);
        let (train, test) = d.split(0.7, &mut rng);
        let mut gb = GradientBoost::with_rounds(40);
        let eval = fit_evaluate(&mut gb, &train, &test, &mut rng);
        assert!(eval.accuracy > 0.85, "{eval:?}");
    }

    #[test]
    fn boosting_handles_many_classes() {
        let mut rng = StdRng::seed_from_u64(152);
        let d = synthetic_digits(700, 0.08, &mut rng);
        let (train, test) = d.split(0.75, &mut rng);
        let mut gb = GradientBoost { n_rounds: 40, max_depth: 5, ..Default::default() };
        let eval = fit_evaluate(&mut gb, &train, &test, &mut rng);
        assert!(eval.accuracy > 0.65, "{eval:?}");
    }

    #[test]
    fn more_rounds_fit_training_data_better() {
        let mut rng = StdRng::seed_from_u64(153);
        let d = gaussian_blobs(200, 3, 1.2, &mut rng);
        let train_acc = |rounds: usize, rng: &mut StdRng| {
            let mut gb = GradientBoost { n_rounds: rounds, subsample: 1.0, ..Default::default() };
            gb.fit(&d, rng);
            crate::classifier::evaluate(&gb, &d).accuracy
        };
        let few = train_acc(2, &mut rng);
        let many = train_acc(40, &mut rng);
        assert!(many >= few, "more rounds should not hurt training fit: {few} vs {many}");
    }

    #[test]
    fn leaf_weight_formula() {
        // single leaf on constant features: w = -G/(H+λ)
        let x = Matrix::zeros(4, 1);
        let idx = [0usize, 1, 2, 3];
        let grad = [1.0f32, 1.0, 1.0, 1.0];
        let hess = [1.0f32, 1.0, 1.0, 1.0];
        let tree = RegTree::fit(&x, &idx, &grad, &hess, 3, 1.0, 0.0, 0.0);
        let w = tree.predict_one(&[0.0]);
        assert!((w - (-4.0 / 5.0)).abs() < 1e-6, "w={w}");
    }
}
