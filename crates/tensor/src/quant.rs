//! Per-channel symmetric int8 quantization: the representation the
//! quantized inference path executes directly (no f32 round-trip).
//!
//! # Scheme
//!
//! Weights quantize **per output channel**: channel `j` gets
//! `scale_j = max|w[·][j]| / 127` (1.0 for an all-zero channel) and the
//! bytes `round(w / scale_j)` saturated to `[-127, 127]`. Activations
//! quantize **per tensor** with the same rule. A dot product of
//! quantized operands then satisfies
//! `Σ aᵢ·bᵢ ≈ s_x · s_w · Σ qa_i · qb_i`, so the whole matrix product
//! runs in the exact-integer [`crate::kernel::int8`] kernel and only the
//! final rescale touches floating point. `-128` is excluded so negation
//! never saturates asymmetrically.
//!
//! The quantized weight matrix is stored **input-major** (`in × out`,
//! one contiguous row of output channels per input) — the f32 layer
//! convention and the layout [`crate::kernel::int8::gemm_i8`] reads: an
//! exactly-zero activation skips one whole weight row.

use crate::kernel::int8;
use crate::Matrix;

/// Saturating symmetric requantize of one value: `round(x / scale)`
/// clamped to `[-127, 127]`. A non-finite ratio (zero/inf/NaN scale
/// pathologies) saturates like any out-of-range value.
#[inline]
pub fn quantize_value(x: f32, scale: f32) -> i8 {
    let r = (x / scale).round();
    if r >= 127.0 {
        127
    } else if r <= -127.0 {
        -127
    } else if r.is_nan() {
        0
    } else {
        r as i8
    }
}

/// Symmetric scale for a tensor: `max|x| / 127`, or 1.0 when the tensor
/// is all-zero (any scale represents zeros exactly; 1.0 keeps the
/// arithmetic finite).
#[inline]
pub fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes a slice per-tensor: writes `round(src / scale)` into `dst`
/// and returns the scale used.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn quantize_slice(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len());
    let scale = symmetric_scale(src.iter().fold(0.0f32, |m, &v| m.max(v.abs())));
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = quantize_value(s, scale);
    }
    scale
}

/// A per-output-channel symmetric int8 weight matrix.
///
/// The same `in × out` operand as the f32 layer weight it was quantized
/// from, in the same row-major layout.
#[derive(Clone, Debug)]
pub struct Int8Matrix {
    in_dim: usize,
    out_dim: usize,
    /// `in_dim × out_dim` row-major: row `t` holds input `t`'s weight to
    /// every channel.
    data: Vec<i8>,
    /// One symmetric scale per output channel (`len == out_dim`).
    scales: Vec<f32>,
}

impl Int8Matrix {
    /// Quantizes an `in × out` f32 weight matrix per output channel: one
    /// row-major pass finds each channel's max-abs, a second writes the
    /// bytes.
    pub fn quantize(w: &Matrix) -> Self {
        let (in_dim, out_dim) = w.shape();
        let src = w.as_slice();
        let mut scales = vec![0.0f32; out_dim];
        for row in src.chunks_exact(out_dim.max(1)) {
            for (max_abs, &v) in scales.iter_mut().zip(row) {
                *max_abs = max_abs.max(v.abs());
            }
        }
        for scale in &mut scales {
            *scale = symmetric_scale(*scale);
        }
        let mut data = vec![0i8; in_dim * out_dim];
        for (q_row, row) in
            data.chunks_exact_mut(out_dim.max(1)).zip(src.chunks_exact(out_dim.max(1)))
        {
            for ((q, &v), &scale) in q_row.iter_mut().zip(row).zip(&scales) {
                *q = quantize_value(v, scale);
            }
        }
        Self { in_dim, out_dim, data, scales }
    }

    /// Builds from input-major bytes (`in_dim × out_dim`, the stored
    /// layout, taken as is) and per-channel scales — the `mdl-compress`
    /// artifact bridge, which never materializes an f32 weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not `in_dim × out_dim` or `scales` is not
    /// `out_dim` long.
    pub fn from_input_rows(in_dim: usize, out_dim: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        assert_eq!(data.len(), in_dim * out_dim, "data must be in×out input-major");
        assert_eq!(scales.len(), out_dim, "one scale per output channel");
        Self { in_dim, out_dim, data, scales }
    }

    /// Builds from channel-major bytes (`out_dim × in_dim`, one row per
    /// output channel) and per-channel scales, transposing once into the
    /// stored layout.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not `out_dim × in_dim` or `scales` is not
    /// `out_dim` long.
    pub fn from_channel_rows(
        out_dim: usize,
        in_dim: usize,
        data: Vec<i8>,
        scales: Vec<f32>,
    ) -> Self {
        assert_eq!(data.len(), out_dim * in_dim, "data must be out×in channel-major");
        assert_eq!(scales.len(), out_dim, "one scale per output channel");
        let mut input_major = vec![0i8; in_dim * out_dim];
        for (j, channel) in data.chunks_exact(in_dim.max(1)).enumerate() {
            for (t, &q) in channel.iter().enumerate() {
                input_major[t * out_dim + j] = q;
            }
        }
        Self::from_input_rows(in_dim, out_dim, input_major, scales)
    }

    /// Input dimension (rows of the logical f32 operand).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (columns of the logical f32 operand = channels).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Input-major quantized bytes (`in_dim × out_dim`).
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// `out[i·out + j] {=, +=} Σ_t x[i·in + t] · w_q[t][j]` over `m`
    /// quantized input rows — the raw integer accumulators, to be scaled
    /// by `x_scale · scales()[j]` by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `m × in_dim` or `out` is not `m × out_dim`.
    pub fn gemm_into(&self, m: usize, x: &[i8], out: &mut [i32], acc: bool) {
        int8::gemm_i8(m, self.out_dim, self.in_dim, x, &self.data, out, acc);
    }

    /// Reconstructs the `in × out` f32 matrix (diagnostics only — the
    /// inference path never calls this).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.in_dim, self.out_dim);
        let width = self.out_dim.max(1);
        for (row, q_row) in
            out.as_mut_slice().chunks_exact_mut(width).zip(self.data.chunks_exact(width))
        {
            for ((v, &q), &scale) in row.iter_mut().zip(q_row).zip(&self.scales) {
                *v = q as f32 * scale;
            }
        }
        out
    }

    /// Bytes held by the quantized representation (weights + scales).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_per_channel() {
        let w = Matrix::from_fn(8, 5, |i, j| ((i * 5 + j) as f32 * 0.37).sin() * (j + 1) as f32);
        let q = Int8Matrix::quantize(&w);
        let back = q.dequantize();
        for j in 0..5 {
            let scale = q.scales()[j];
            for i in 0..8 {
                let err = (w.as_slice()[i * 5 + j] - back.as_slice()[i * 5 + j]).abs();
                assert!(err <= 0.5 * scale + 1e-6, "channel {j} err {err} > half-step {scale}");
            }
        }
    }

    #[test]
    fn zero_channel_gets_unit_scale_and_exact_zeros() {
        let w = Matrix::from_fn(4, 2, |i, j| if j == 0 { 0.0 } else { i as f32 });
        let q = Int8Matrix::quantize(&w);
        assert_eq!(q.scales()[0], 1.0);
        assert!(q.data().iter().step_by(2).all(|&b| b == 0));
    }

    #[test]
    fn channel_rows_transpose_into_the_quantized_layout() {
        let w = Matrix::from_fn(3, 5, |i, j| ((i * 5 + j) as f32 * 0.7).sin() - 0.2);
        let q = Int8Matrix::quantize(&w);
        let mut channel_major = vec![0i8; 5 * 3];
        for (t, row) in q.data().chunks_exact(5).enumerate() {
            for (j, &b) in row.iter().enumerate() {
                channel_major[j * 3 + t] = b;
            }
        }
        let back = Int8Matrix::from_channel_rows(5, 3, channel_major, q.scales().to_vec());
        assert_eq!(back.data(), q.data());
        assert_eq!(back.dequantize(), q.dequantize());
    }

    #[test]
    fn quantize_value_saturates() {
        assert_eq!(quantize_value(1e9, 1.0), 127);
        assert_eq!(quantize_value(-1e9, 1.0), -127);
        assert_eq!(quantize_value(0.49, 1.0), 0);
        assert_eq!(quantize_value(0.51, 1.0), 1);
    }

    #[test]
    fn gemm_into_matches_f32_product_within_quant_error() {
        let w = Matrix::from_fn(16, 6, |i, j| ((i + 2 * j) as f32 * 0.11).cos());
        let x: Vec<f32> = (0..32).map(|t| ((t as f32) * 0.2).sin()).collect();
        let q = Int8Matrix::quantize(&w);
        let mut xq = vec![0i8; 32];
        let sx = quantize_slice(&x, &mut xq);
        let mut accs = vec![0i32; 2 * 6];
        q.gemm_into(2, &xq, &mut accs, false);
        for i in 0..2 {
            for j in 0..6 {
                let exact: f32 = (0..16).map(|t| x[i * 16 + t] * w.as_slice()[t * 6 + j]).sum();
                let approx = accs[i * 6 + j] as f32 * sx * q.scales()[j];
                assert!((exact - approx).abs() < 0.05, "({i},{j}): {exact} vs {approx}");
            }
        }
    }
}
