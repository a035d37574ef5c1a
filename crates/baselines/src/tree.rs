//! CART decision tree (Gini impurity, exact greedy splits).

use crate::classifier::Classifier;
use mdl_data::Dataset;
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Tree nodes stored in a flat arena.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf { class: usize },
    Split { feature: usize, threshold: f32, left: usize, right: usize },
}

/// A CART-style classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum examples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of random features considered per split
    /// (`None` = all features; random forests pass `sqrt(d)`).
    pub max_features: Option<usize>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) classes: usize,
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            max_features: None,
            nodes: Vec::new(),
            classes: 0,
        }
    }
}

fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts.iter().enumerate().max_by_key(|&(_, &c)| c).map(|(i, _)| i).unwrap_or(0)
}

impl DecisionTree {
    /// Creates a tree with default hyper-parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tree with an explicit depth limit.
    pub fn with_depth(max_depth: usize) -> Self {
        Self { max_depth, ..Default::default() }
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn class_counts(&self, data: &Dataset, idx: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &i in idx {
            counts[data.y[i]] += 1;
        }
        counts
    }

    /// Finds the best `(feature, threshold, gini_decrease)` split, or `None`.
    fn best_split(
        &self,
        data: &Dataset,
        idx: &[usize],
        rng: &mut StdRng,
    ) -> Option<(usize, f32, f64)> {
        let parent_counts = self.class_counts(data, idx);
        let parent_gini = gini(&parent_counts);
        if parent_gini == 0.0 {
            return None;
        }
        let n = idx.len() as f64;

        let mut features: Vec<usize> = (0..data.dim()).collect();
        if let Some(k) = self.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1));
        }

        let mut best: Option<(usize, f32, f64)> = None;
        for &f in &features {
            // sort example indices by feature value
            let mut sorted: Vec<usize> = idx.to_vec();
            sorted.sort_by(|&a, &b| {
                data.x[(a, f)].partial_cmp(&data.x[(b, f)]).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_counts = vec![0usize; self.classes];
            let mut right_counts = parent_counts.clone();
            for w in 0..sorted.len() - 1 {
                let i = sorted[w];
                left_counts[data.y[i]] += 1;
                right_counts[data.y[i]] -= 1;
                let v_here = data.x[(i, f)];
                let v_next = data.x[(sorted[w + 1], f)];
                if v_here == v_next {
                    continue; // cannot split between equal values
                }
                let nl = (w + 1) as f64;
                let nr = n - nl;
                let weighted = nl / n * gini(&left_counts) + nr / n * gini(&right_counts);
                let decrease = parent_gini - weighted;
                if best.is_none_or(|(_, _, d)| decrease > d) {
                    best = Some((f, 0.5 * (v_here + v_next), decrease));
                }
            }
        }
        best.filter(|&(_, _, d)| d > 1e-12)
    }

    fn build(&mut self, data: &Dataset, idx: &[usize], depth: usize, rng: &mut StdRng) -> usize {
        let counts = self.class_counts(data, idx);
        let make_leaf =
            depth >= self.max_depth || idx.len() < self.min_samples_split || gini(&counts) == 0.0;
        if !make_leaf {
            if let Some((feature, threshold, _)) = self.best_split(data, idx, rng) {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| data.x[(i, feature)] <= threshold);
                if !left_idx.is_empty() && !right_idx.is_empty() {
                    let me = self.nodes.len();
                    self.nodes.push(Node::Leaf { class: 0 }); // placeholder
                    let left = self.build(data, &left_idx, depth + 1, rng);
                    let right = self.build(data, &right_idx, depth + 1, rng);
                    self.nodes[me] = Node::Split { feature, threshold, left, right };
                    return me;
                }
            }
        }
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { class: majority(&counts) });
        me
    }

    fn predict_one(&self, row: &[f32]) -> usize {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset, rng: &mut StdRng) {
        assert!(!data.is_empty(), "cannot fit a tree to an empty dataset");
        self.classes = data.classes;
        self.nodes.clear();
        let idx: Vec<usize> = (0..data.len()).collect();
        self.build(data, &idx, 0, rng);
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert!(!self.nodes.is_empty(), "predict called before fit");
        (0..x.rows()).map(|r| self.predict_one(x.row(r))).collect()
    }

    fn name(&self) -> &'static str {
        "DecisionTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{evaluate, fit_evaluate};
    use mdl_data::synthetic::{gaussian_blobs, two_spirals};
    use rand::SeedableRng;

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
    }

    #[test]
    fn memorises_training_set_without_depth_limit() {
        let mut rng = StdRng::seed_from_u64(130);
        let d = gaussian_blobs(120, 3, 0.4, &mut rng);
        let mut tree = DecisionTree { max_depth: 64, min_samples_split: 2, ..Default::default() };
        tree.fit(&d, &mut rng);
        let eval = evaluate(&tree, &d);
        assert!(eval.accuracy > 0.99, "tree should fit training data: {eval:?}");
    }

    #[test]
    fn generalises_on_blobs() {
        let mut rng = StdRng::seed_from_u64(131);
        let d = gaussian_blobs(400, 4, 0.3, &mut rng);
        let (train, test) = d.split(0.7, &mut rng);
        let mut tree = DecisionTree::new();
        let eval = fit_evaluate(&mut tree, &train, &test, &mut rng);
        assert!(eval.accuracy > 0.9, "{eval:?}");
    }

    #[test]
    fn handles_nonlinear_boundaries_better_than_chance() {
        let mut rng = StdRng::seed_from_u64(132);
        let d = two_spirals(400, 0.05, &mut rng);
        let (train, test) = d.split(0.7, &mut rng);
        let mut tree = DecisionTree::new();
        let eval = fit_evaluate(&mut tree, &train, &test, &mut rng);
        assert!(eval.accuracy > 0.7, "{eval:?}");
    }

    #[test]
    fn depth_limit_caps_nodes() {
        let mut rng = StdRng::seed_from_u64(133);
        let d = gaussian_blobs(200, 2, 1.5, &mut rng);
        let mut stump = DecisionTree::with_depth(1);
        stump.fit(&d, &mut rng);
        assert!(stump.node_count() <= 3, "depth-1 tree has ≤3 nodes");
    }

    #[test]
    fn constant_labels_give_single_leaf() {
        let mut rng = StdRng::seed_from_u64(134);
        let d = Dataset::new(Matrix::zeros(10, 2), vec![1; 10], 3);
        let mut tree = DecisionTree::new();
        tree.fit(&d, &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&Matrix::zeros(2, 2)), vec![1, 1]);
    }
}
