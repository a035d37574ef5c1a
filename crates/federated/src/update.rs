//! Model-update transport: flat parameter vectors with wire-size accounting.

use mdl_tensor::wire::Reader;

/// A dense model update: full parameter (or delta) vector plus the size of
/// the local dataset that produced it (the FedAvg weighting term `n_k`).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseUpdate {
    /// Flat parameter or delta values.
    pub values: Vec<f32>,
    /// Number of local examples behind this update.
    pub num_examples: usize,
}

impl DenseUpdate {
    /// Wire size in bytes: 4 bytes per value plus an 8-byte header.
    pub fn wire_bytes(&self) -> u64 {
        8 + 4 * self.values.len() as u64
    }

    /// Serialises to a length-prefixed little-endian byte frame:
    /// `len u32 | num_examples u32 | values f32 × len`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_bytes() as usize);
        buf.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.num_examples as u32).to_le_bytes());
        for &v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Decodes a frame produced by [`DenseUpdate::encode`].
    ///
    /// Returns `None` on a malformed frame: one that ends before `len`
    /// values or carries bytes after them. Never panics, and allocates
    /// nothing for a `len` the frame cannot back.
    pub fn decode(frame: &[u8]) -> Option<Self> {
        let mut r = Reader::new(frame);
        let len = r.u32().ok()? as usize;
        let num_examples = r.u32().ok()? as usize;
        let values = r.f32s(len).ok()?;
        r.finish().ok()?;
        Some(Self { values, num_examples })
    }
}

/// A sparse update: selected coordinates only (distributed selective SGD,
/// paper Fig. 1 / reference [16]).
///
/// # Examples
///
/// ```
/// use mdl_federated::SparseUpdate;
///
/// let gradients = [0.01, -4.0, 0.2, 3.0];
/// let update = SparseUpdate::top_fraction(&gradients, 0.5, 10);
/// assert_eq!(update.entries.len(), 2); // the two largest magnitudes
/// let mut global = vec![0.0; 4];
/// update.apply_to(&mut global, 1.0);
/// assert_eq!(global, vec![0.0, -4.0, 0.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseUpdate {
    /// Total parameter count of the model this indexes into.
    pub dim: usize,
    /// `(coordinate, value)` pairs, strictly increasing coordinates.
    pub entries: Vec<(u32, f32)>,
    /// Number of local examples behind this update.
    pub num_examples: usize,
}

impl SparseUpdate {
    /// Selects the `fraction` largest-magnitude coordinates of `delta`.
    ///
    /// At least one coordinate is always kept (if any is non-zero).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn top_fraction(delta: &[f32], fraction: f64, num_examples: usize) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let k = (((delta.len() as f64) * fraction).ceil() as usize).clamp(1, delta.len());
        let mut order: Vec<usize> = (0..delta.len()).collect();
        order.sort_by(|&a, &b| {
            delta[b].abs().partial_cmp(&delta[a].abs()).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut picked: Vec<usize> = order.into_iter().take(k).collect();
        picked.sort_unstable();
        Self {
            dim: delta.len(),
            entries: picked.into_iter().map(|i| (i as u32, delta[i])).collect(),
            num_examples,
        }
    }

    /// Wire size: 8 bytes per entry (index + value) plus a 12-byte header.
    pub fn wire_bytes(&self) -> u64 {
        12 + 8 * self.entries.len() as u64
    }

    /// Adds this update into a dense parameter vector, scaled by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.dim`.
    pub fn apply_to(&self, params: &mut [f32], scale: f32) {
        assert_eq!(params.len(), self.dim, "dimension mismatch applying sparse update");
        for &(i, v) in &self.entries {
            params[i as usize] += scale * v;
        }
    }
}

/// An 8-bit linearly quantized update: 4× smaller on the wire than fp32,
/// the standard bandwidth mitigation for federated uplinks.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedUpdate {
    /// Minimum of the original values (codebook anchor).
    pub min: f32,
    /// Maximum of the original values.
    pub max: f32,
    /// One byte per parameter.
    pub codes: Vec<u8>,
    /// Number of local examples behind this update.
    pub num_examples: usize,
}

impl QuantizedUpdate {
    /// Quantizes a parameter vector to 8 bits per value.
    pub fn quantize(values: &[f32], num_examples: usize) -> Self {
        let min = values.iter().cloned().fold(f32::MAX, f32::min).min(0.0);
        let max = values.iter().cloned().fold(f32::MIN, f32::max).max(min + 1e-12);
        let scale = 255.0 / (max - min);
        let codes = values
            .iter()
            .map(|&v| (((v - min) * scale).round() as i32).clamp(0, 255) as u8)
            .collect();
        Self { min, max, codes, num_examples }
    }

    /// Reconstructs the (lossy) parameter vector.
    pub fn dequantize(&self) -> Vec<f32> {
        let step = (self.max - self.min) / 255.0;
        self.codes.iter().map(|&c| self.min + step * c as f32).collect()
    }

    /// Wire size: one byte per value plus a 16-byte header.
    pub fn wire_bytes(&self) -> u64 {
        16 + self.codes.len() as u64
    }

    /// Worst-case absolute quantization error (half a step).
    pub fn max_error(&self) -> f32 {
        (self.max - self.min) / 255.0 / 2.0
    }
}

/// Weighted average of dense updates: `Σ (n_k / n) · w_k` (§II-B).
///
/// Returns `None` when `updates` is empty or dimensions disagree.
pub fn weighted_average(updates: &[DenseUpdate]) -> Option<Vec<f32>> {
    let first = updates.first()?;
    let dim = first.values.len();
    if updates.iter().any(|u| u.values.len() != dim) {
        return None;
    }
    let total: f64 = updates.iter().map(|u| u.num_examples as f64).sum();
    if total == 0.0 {
        return None;
    }
    let mut out = vec![0.0f32; dim];
    for u in updates {
        let w = (u.num_examples as f64 / total) as f32;
        for (o, &v) in out.iter_mut().zip(u.values.iter()) {
            *o += w * v;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let u = DenseUpdate { values: vec![1.0, -2.5, 0.0, 3.25], num_examples: 17 };
        let frame = u.encode();
        assert_eq!(frame.len() as u64, u.wire_bytes());
        let back = DenseUpdate::decode(&frame).expect("decode");
        assert_eq!(back, u);
    }

    #[test]
    fn dense_decode_rejects_truncated() {
        let u = DenseUpdate { values: vec![1.0, 2.0], num_examples: 1 };
        let mut frame = u.encode();
        frame.pop();
        assert!(DenseUpdate::decode(&frame).is_none());
        assert!(DenseUpdate::decode(&[1, 2]).is_none());
    }

    #[test]
    fn top_fraction_picks_largest() {
        let delta = [0.1f32, -5.0, 0.01, 2.0, -0.3];
        let s = SparseUpdate::top_fraction(&delta, 0.4, 3);
        assert_eq!(s.entries.len(), 2);
        let coords: Vec<u32> = s.entries.iter().map(|e| e.0).collect();
        assert_eq!(coords, vec![1, 3]);
        assert_eq!(s.dim, 5);
    }

    #[test]
    fn top_fraction_full_keeps_everything() {
        let delta = [1.0f32, 2.0, 3.0];
        let s = SparseUpdate::top_fraction(&delta, 1.0, 1);
        assert_eq!(s.entries.len(), 3);
    }

    #[test]
    fn sparse_apply_adds_scaled() {
        let delta = [0.0f32, 4.0, 0.0, -2.0];
        let s = SparseUpdate::top_fraction(&delta, 0.5, 1);
        let mut params = vec![1.0f32; 4];
        s.apply_to(&mut params, 0.5);
        assert_eq!(params, vec![1.0, 3.0, 1.0, 0.0]);
    }

    #[test]
    fn sparse_is_smaller_on_wire() {
        let delta = vec![1.0f32; 1000];
        let sparse = SparseUpdate::top_fraction(&delta, 0.01, 1);
        let dense = DenseUpdate { values: delta, num_examples: 1 };
        assert!(sparse.wire_bytes() * 10 < dense.wire_bytes());
    }

    #[test]
    fn quantized_update_round_trips_within_error_bound() {
        let values: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let q = QuantizedUpdate::quantize(&values, 10);
        let back = q.dequantize();
        let bound = q.max_error() + 1e-6;
        for (a, b) in values.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
        assert!(q.wire_bytes() < 4 * values.len() as u64 / 3);
    }

    #[test]
    fn quantized_update_handles_constant_vector() {
        let q = QuantizedUpdate::quantize(&[2.5; 8], 1);
        let back = q.dequantize();
        for v in back {
            assert!((v - 2.5).abs() <= q.max_error() + 1e-6);
        }
    }

    #[test]
    fn weighted_average_weights_by_examples() {
        let a = DenseUpdate { values: vec![0.0, 0.0], num_examples: 30 };
        let b = DenseUpdate { values: vec![10.0, 20.0], num_examples: 10 };
        let avg = weighted_average(&[a, b]).expect("avg");
        assert!((avg[0] - 2.5).abs() < 1e-6);
        assert!((avg[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_average_edge_cases() {
        assert!(weighted_average(&[]).is_none());
        let a = DenseUpdate { values: vec![1.0], num_examples: 1 };
        let b = DenseUpdate { values: vec![1.0, 2.0], num_examples: 1 };
        assert!(weighted_average(&[a.clone(), b]).is_none());
        let z = DenseUpdate { values: vec![1.0], num_examples: 0 };
        assert!(weighted_average(&[z]).is_none());
        assert_eq!(weighted_average(&[a]).unwrap(), vec![1.0]);
    }
}
