//! Labelled tabular datasets with splitting utilities.

use mdl_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A tabular classification dataset: one example per row of `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, `n × d`.
    pub x: Matrix,
    /// Integer class labels, length `n`.
    pub y: Vec<usize>,
    /// Number of classes (labels are `0..classes`).
    pub classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating labels against `classes`.
    ///
    /// # Panics
    ///
    /// Panics if row/label counts differ or a label is out of range.
    pub fn new(x: Matrix, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.rows(), y.len(), "one label per row required");
        assert!(y.iter().all(|&l| l < classes), "label out of range for {classes} classes");
        Self { x, y, classes }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Returns a new dataset containing the given example indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            classes: self.classes,
        }
    }

    /// Random train/test split with `train_fraction` of examples in train.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split(&self, train_fraction: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!(train_fraction > 0.0 && train_fraction < 1.0, "train_fraction must be in (0, 1)");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.len().saturating_sub(1).max(1));
        (self.subset(&order[..cut]), self.subset(&order[cut..]))
    }

    /// Stratified split preserving per-class proportions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split_stratified(&self, train_fraction: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!(train_fraction > 0.0 && train_fraction < 1.0, "train_fraction must be in (0, 1)");
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for c in 0..self.classes {
            let mut idx: Vec<usize> = (0..self.len()).filter(|&i| self.y[i] == c).collect();
            idx.shuffle(rng);
            let cut = ((idx.len() as f64) * train_fraction).round() as usize;
            train_idx.extend_from_slice(&idx[..cut]);
            test_idx.extend_from_slice(&idx[cut..]);
        }
        train_idx.shuffle(rng);
        test_idx.shuffle(rng);
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Per-class example counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &y in &self.y {
            counts[y] += 1;
        }
        counts
    }

    /// Standardises features to zero mean / unit variance **using this
    /// dataset's statistics**, returning the `(means, stds)` used.
    pub fn standardize(&mut self) -> (Vec<f32>, Vec<f32>) {
        let d = self.dim();
        let n = self.len().max(1) as f32;
        let mut means = vec![0.0f32; d];
        let mut stds = vec![0.0f32; d];
        for r in 0..self.len() {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.x[(r, c)];
            }
        }
        for m in &mut means {
            *m /= n;
        }
        for r in 0..self.len() {
            for (c, s) in stds.iter_mut().enumerate() {
                let dlt = self.x[(r, c)] - means[c];
                *s += dlt * dlt;
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt().max(1e-8);
        }
        self.apply_standardization(&means, &stds);
        (means, stds)
    }

    /// Applies externally computed standardisation statistics (e.g. the
    /// training set's) to this dataset.
    ///
    /// # Panics
    ///
    /// Panics if the statistic lengths do not match the feature width.
    pub fn apply_standardization(&mut self, means: &[f32], stds: &[f32]) {
        assert_eq!(means.len(), self.dim(), "means width mismatch");
        assert_eq!(stds.len(), self.dim(), "stds width mismatch");
        for r in 0..self.x.rows() {
            for c in 0..self.x.cols() {
                self.x[(r, c)] = (self.x[(r, c)] - means[c]) / stds[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let x = Matrix::from_fn(10, 3, |r, c| (r * 3 + c) as f32);
        let y = (0..10).map(|i| i % 2).collect();
        Dataset::new(x, y, 2)
    }

    #[test]
    fn subset_selects() {
        let d = toy();
        let s = d.subset(&[0, 9]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.y, vec![0, 1]);
        assert_eq!(s.x.row(1), d.x.row(9));
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(60);
        let (tr, te) = d.split(0.7, &mut rng);
        assert_eq!(tr.len() + te.len(), d.len());
        assert_eq!(tr.len(), 7);
    }

    #[test]
    fn stratified_split_keeps_proportions() {
        let x = Matrix::zeros(100, 2);
        let y: Vec<usize> = (0..100).map(|i| usize::from(i >= 80)).collect();
        let d = Dataset::new(x, y, 2);
        let mut rng = StdRng::seed_from_u64(61);
        let (tr, te) = d.split_stratified(0.5, &mut rng);
        assert_eq!(tr.class_counts(), vec![40, 10]);
        assert_eq!(te.class_counts(), vec![40, 10]);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let mut d = toy();
        let (means, stds) = d.standardize();
        assert_eq!(means.len(), 3);
        for c in 0..3 {
            let col = d.x.col(c);
            let m: f32 = col.iter().sum::<f32>() / col.len() as f32;
            let v: f32 = col.iter().map(|x| (x - m).powi(2)).sum::<f32>() / col.len() as f32;
            assert!(m.abs() < 1e-5, "mean {m}");
            assert!((v - 1.0).abs() < 1e-4, "var {v}");
        }
        assert!(stds.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn apply_external_standardization() {
        let mut train = toy();
        let mut test = toy();
        let (m, s) = train.standardize();
        test.apply_standardization(&m, &s);
        assert!(train.x.approx_eq(&test.x, 1e-6));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn new_rejects_bad_labels() {
        let _ = Dataset::new(Matrix::zeros(1, 1), vec![5], 2);
    }

    #[test]
    fn class_counts_sum_to_len() {
        let d = toy();
        assert_eq!(d.class_counts().iter().sum::<usize>(), d.len());
    }
}
