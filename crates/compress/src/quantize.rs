//! Weight quantization: k-means codebook sharing (Deep Compression,
//! reference [28]) and uniform fixed-point quantization (references
//! [32]–[34]).

use mdl_tensor::Matrix;
use rand::Rng;

/// A matrix stored as per-entry codebook indices plus a shared codebook.
///
/// Zero entries (pruned weights) are kept exactly zero via a reserved
/// codebook slot so quantization composes with pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Codebook of shared weight values.
    codebook: Vec<f32>,
    /// Index into `codebook` for every entry, row-major.
    indices: Vec<u8>,
    /// Bits needed per index.
    bits: u32,
}

impl QuantizedMatrix {
    /// K-means clustering of the non-zero weights into `2^bits − 1` shared
    /// values (one codebook slot is reserved for exact zero).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn kmeans(dense: &Matrix, bits: u32, rng: &mut impl Rng) -> Self {
        assert!((1..=8).contains(&bits), "codebook bits must be in 1..=8");
        let k = (1usize << bits) - 1;
        let nonzero: Vec<f32> = dense.as_slice().iter().copied().filter(|&v| v != 0.0).collect();

        let centroids = if nonzero.is_empty() {
            Vec::new()
        } else {
            kmeans_1d(&nonzero, k.min(nonzero.len()), 25, rng)
        };

        // codebook slot 0 = exact zero
        let mut codebook = Vec::with_capacity(centroids.len() + 1);
        codebook.push(0.0);
        codebook.extend_from_slice(&centroids);

        let indices = dense
            .as_slice()
            .iter()
            .map(|&v| {
                if v == 0.0 {
                    0u8
                } else {
                    let mut best = (f32::MAX, 0usize);
                    for (i, &c) in centroids.iter().enumerate() {
                        let d = (v - c).abs();
                        if d < best.0 {
                            best = (d, i);
                        }
                    }
                    (best.1 + 1) as u8
                }
            })
            .collect();

        Self { rows: dense.rows(), cols: dense.cols(), codebook, indices, bits }
    }

    /// Uniform (linear) quantization of the value range into `2^bits` levels.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn uniform(dense: &Matrix, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        let levels = 1usize << bits;
        let lo = dense.as_slice().iter().cloned().fold(f32::MAX, f32::min);
        let hi = dense.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        let (lo, hi) = if lo > hi { (0.0, 0.0) } else { (lo, hi) };
        let step = if hi > lo { (hi - lo) / (levels - 1) as f32 } else { 0.0 };
        let codebook: Vec<f32> = (0..levels).map(|i| lo + step * i as f32).collect();
        let indices = dense
            .as_slice()
            .iter()
            .map(|&v| {
                if step == 0.0 {
                    0u8
                } else {
                    (((v - lo) / step).round() as usize).min(levels - 1) as u8
                }
            })
            .collect();
        Self { rows: dense.rows(), cols: dense.cols(), codebook, indices, bits }
    }

    /// Reconstructs the dense matrix from the codebook.
    pub fn dequantize(&self) -> Matrix {
        let data = self.indices.iter().map(|&i| self.codebook[i as usize]).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Bits per stored index.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `(rows, cols)` of the matrix the codebook quantized.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The raw index stream (input to the Huffman stage).
    pub fn indices(&self) -> &[u8] {
        &self.indices
    }

    /// The shared-value codebook.
    pub fn codebook(&self) -> &[f32] {
        &self.codebook
    }

    /// Storage in bytes at `bits` per index plus the fp32 codebook.
    pub fn storage_bytes(&self) -> u64 {
        let index_bits = self.indices.len() as u64 * self.bits as u64;
        index_bits.div_ceil(8) + 4 * self.codebook.len() as u64
    }

    /// Maximum absolute reconstruction error against the original.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_error(&self, original: &Matrix) -> f32 {
        let rec = self.dequantize();
        assert_eq!(rec.shape(), original.shape(), "shape mismatch");
        rec.sub(original).max_abs()
    }
}

/// Lloyd's algorithm in one dimension with k-means++ style seeding.
fn kmeans_1d(values: &[f32], k: usize, iters: usize, rng: &mut impl Rng) -> Vec<f32> {
    assert!(k >= 1 && k <= values.len());
    // seed with quantiles for stability, then jitter ties
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut centroids: Vec<f32> = (0..k)
        .map(|i| {
            let pos = (i as f64 + 0.5) / k as f64 * (sorted.len() - 1) as f64;
            sorted[pos.round() as usize]
        })
        .collect();
    // de-duplicate identical seeds
    for i in 1..centroids.len() {
        if centroids[i] <= centroids[i - 1] {
            centroids[i] = centroids[i - 1] + 1e-6 + rng.gen::<f32>() * 1e-6;
        }
    }

    let mut assignment = vec![0usize; values.len()];
    for _ in 0..iters {
        // assign
        for (a, &v) in assignment.iter_mut().zip(values.iter()) {
            let mut best = (f32::MAX, 0usize);
            for (i, &c) in centroids.iter().enumerate() {
                let d = (v - c).abs();
                if d < best.0 {
                    best = (d, i);
                }
            }
            *a = best.1;
        }
        // update
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (&a, &v) in assignment.iter().zip(values.iter()) {
            sums[a] += v as f64;
            counts[a] += 1;
        }
        for i in 0..k {
            if counts[i] > 0 {
                centroids[i] = (sums[i] / counts[i] as f64) as f32;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_tensor::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kmeans_preserves_zeros_exactly() {
        let mut rng = StdRng::seed_from_u64(260);
        let mut w = Init::Normal { std: 1.0 }.sample(10, 10, &mut rng);
        // prune half
        for i in 0..50 {
            w.as_mut_slice()[i * 2] = 0.0;
        }
        let q = QuantizedMatrix::kmeans(&w, 4, &mut rng);
        let rec = q.dequantize();
        for i in 0..100 {
            if w.as_slice()[i] == 0.0 {
                assert_eq!(rec.as_slice()[i], 0.0, "zero must stay exactly zero");
            }
        }
    }

    #[test]
    fn more_bits_reduce_error() {
        let mut rng = StdRng::seed_from_u64(261);
        let w = Init::Normal { std: 1.0 }.sample(20, 20, &mut rng);
        let e2 = QuantizedMatrix::kmeans(&w, 2, &mut rng).max_error(&w);
        let e6 = QuantizedMatrix::kmeans(&w, 6, &mut rng).max_error(&w);
        assert!(e6 < e2, "6-bit error {e6} should beat 2-bit error {e2}");
    }

    #[test]
    fn uniform_bounds_error_by_half_step() {
        let w = Matrix::from_fn(8, 8, |r, c| (r as f32 - c as f32) / 7.0);
        let bits = 5;
        let q = QuantizedMatrix::uniform(&w, bits);
        let lo = -1.0f32;
        let hi = 1.0f32;
        let step = (hi - lo) / ((1 << bits) - 1) as f32;
        assert!(q.max_error(&w) <= step / 2.0 + 1e-6);
    }

    #[test]
    fn uniform_handles_constant_matrix() {
        let w = Matrix::full(3, 3, 2.5);
        let q = QuantizedMatrix::uniform(&w, 3);
        assert!(q.dequantize().approx_eq(&w, 1e-6));
    }

    #[test]
    fn storage_shrinks_with_fewer_bits() {
        let mut rng = StdRng::seed_from_u64(262);
        let w = Init::Normal { std: 1.0 }.sample(32, 32, &mut rng);
        let q2 = QuantizedMatrix::kmeans(&w, 2, &mut rng);
        let q8 = QuantizedMatrix::kmeans(&w, 8, &mut rng);
        assert!(q2.storage_bytes() < q8.storage_bytes());
        assert!(q8.storage_bytes() < 4 * 32 * 32, "8-bit beats fp32");
    }

    #[test]
    fn kmeans_1d_recovers_separated_clusters() {
        let mut rng = StdRng::seed_from_u64(263);
        let mut values = Vec::new();
        for _ in 0..100 {
            values.push(-5.0 + rng.gen::<f32>() * 0.1);
            values.push(5.0 + rng.gen::<f32>() * 0.1);
        }
        let c = kmeans_1d(&values, 2, 20, &mut rng);
        let mut c = c;
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c[0] + 5.0).abs() < 0.2, "{c:?}");
        assert!((c[1] - 5.0).abs() < 0.2, "{c:?}");
    }

    #[test]
    fn indices_fit_in_bits() {
        let mut rng = StdRng::seed_from_u64(264);
        let w = Init::Normal { std: 1.0 }.sample(16, 16, &mut rng);
        let q = QuantizedMatrix::kmeans(&w, 3, &mut rng);
        assert!(q.indices().iter().all(|&i| (i as usize) < (1 << 3)));
        assert!(q.codebook().len() <= 8);
    }
}
