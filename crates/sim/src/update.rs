//! The one federated update frame. A client [`encode`](Update::encode)s
//! its upload, the fabric charges the frame's length, and the server
//! aggregates only what [`decode`](Update::decode) returns.
//!
//! | kind | layout | bytes |
//! |---|---|---|
//! | dense | `len` · `n_examples u32` · `len × f32` | [`dense_len`]: 8 + 4·len |
//! | top-k sparse | `dim` · `k u32` · `n_examples u32` · `k × (index u32, f32)` | [`sparse_len`]: 12 + 8·k |
//! | 8-bit uniform | `len` · `n_examples u32` · `min f32` · `max f32` · `len × u8` | [`quantized_len`]: 16 + len |
//!
//! Fields are little-endian. The first `u32` holds the kind in its top two
//! bits (0 dense, 1 sparse, 2 8-bit; 3 is an error) and `len` or `dim` in
//! the low 30, which must therefore be below 2³⁰. A tag byte would make
//! every upload a byte longer, and byte counts set link transfer times.

use mdl_tensor::wire::{Reader, WireError};

const DENSE: u32 = 0;
const SPARSE: u32 = 1;
const QUANTIZED: u32 = 2;
/// Lengths and dimensions stay below this: the first word's low 30 bits.
const MAX_LEN: usize = 1 << 30;

/// Bytes of a dense frame of `n` values.
pub const fn dense_len(n: usize) -> u64 {
    8 + 4 * n as u64
}

/// Bytes of a sparse frame of `k` entries.
pub const fn sparse_len(k: usize) -> u64 {
    12 + 8 * k as u64
}

/// Bytes of an 8-bit frame of `n` values.
pub const fn quantized_len(n: usize) -> u64 {
    16 + n as u64
}

/// The values an [`Update`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Every value.
    Dense(Vec<f32>),
    /// The non-zero coordinates of a `dim`-long vector.
    Sparse {
        /// Length of the vector the indices address.
        dim: usize,
        /// `(index, value)` pairs, indices strictly increasing below `dim`.
        entries: Vec<(u32, f32)>,
    },
    /// One code per value, on 256 evenly spaced levels from `min` to `max`.
    Quantized {
        /// Value of code 0.
        min: f32,
        /// Value of code 255.
        max: f32,
        /// One byte per value.
        codes: Vec<u8>,
    },
}

/// One client's upload: its values and the FedAvg weight `n_k` behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// The values.
    pub payload: Payload,
    /// Local examples behind the update.
    pub num_examples: u32,
}

/// Why [`Update::decode`] refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame ends early, declares more than it carries, or runs on.
    Wire(WireError),
    /// Kind tag 3, which no encoder writes.
    UnknownKind,
    /// A sparse index at or past `dim`, or not above the one before it.
    BadIndex,
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Wire(e) => e.as_str(),
            Self::UnknownKind => "update kind 3 does not exist",
            Self::BadIndex => "sparse index out of range or not increasing",
        })
    }
}

impl std::error::Error for FrameError {}

impl Update {
    /// A dense update.
    pub fn dense(values: Vec<f32>, num_examples: u32) -> Self {
        Self { payload: Payload::Dense(values), num_examples }
    }

    /// The `fraction` largest-magnitude coordinates of `delta`, at least
    /// one: distributed selective SGD's upload (paper Fig. 1).
    ///
    /// ```
    /// let update = mdl_sim::Update::top_fraction(&[0.01, -4.0, 0.2, 3.0], 0.5, 10);
    /// let mut global = vec![0.0; 4];
    /// assert!(update.apply_to(&mut global, 1.0));
    /// assert_eq!(global, [0.0, -4.0, 0.0, 3.0]); // the two largest magnitudes
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn top_fraction(delta: &[f32], fraction: f64, num_examples: u32) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let k = (((delta.len() as f64) * fraction).ceil() as usize).clamp(1, delta.len());
        let mut order: Vec<usize> = (0..delta.len()).collect();
        order.sort_by(|&a, &b| {
            delta[b].abs().partial_cmp(&delta[a].abs()).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut picked: Vec<usize> = order.into_iter().take(k).collect();
        picked.sort_unstable();
        let entries = picked.into_iter().map(|i| (i as u32, delta[i])).collect();
        Self { payload: Payload::Sparse { dim: delta.len(), entries }, num_examples }
    }

    /// `values` at 8 bits each: a quarter of the dense bytes, each value
    /// off by at most half a level.
    pub fn quantize(values: &[f32], num_examples: u32) -> Self {
        let min = values.iter().cloned().fold(f32::MAX, f32::min).min(0.0);
        let max = values.iter().cloned().fold(f32::MIN, f32::max).max(min + 1e-12);
        let scale = 255.0 / (max - min);
        let codes = values
            .iter()
            .map(|&v| (((v - min) * scale).round() as i32).clamp(0, 255) as u8)
            .collect();
        Self { payload: Payload::Quantized { min, max, codes }, num_examples }
    }

    /// Length of the vector the update stands for.
    pub fn dim(&self) -> usize {
        match &self.payload {
            Payload::Dense(values) => values.len(),
            Payload::Sparse { dim, .. } => *dim,
            Payload::Quantized { codes, .. } => codes.len(),
        }
    }

    /// The whole vector: zero where a sparse update has no entry, codes
    /// dequantized. Allocates [`dim`](Self::dim) values, so a server
    /// checks a decoded frame's `dim` against its model first.
    pub fn into_dense(self) -> Vec<f32> {
        match self.payload {
            Payload::Dense(values) => values,
            Payload::Sparse { dim, entries } => {
                let mut out = vec![0.0; dim];
                for (i, v) in entries {
                    out[i as usize] = v;
                }
                out
            }
            Payload::Quantized { min, max, codes } => {
                let step = (max - min) / 255.0;
                codes.iter().map(|&c| min + step * c as f32).collect()
            }
        }
    }

    /// Adds `scale ×` the update into `params`; a sparse update touches
    /// its entries only. Returns `false`, adding nothing, when `params` is
    /// not [`dim`](Self::dim) long.
    pub fn apply_to(&self, params: &mut [f32], scale: f32) -> bool {
        if params.len() != self.dim() {
            return false;
        }
        match &self.payload {
            Payload::Sparse { entries, .. } => {
                entries.iter().for_each(|&(i, v)| params[i as usize] += scale * v)
            }
            _ => {
                params.iter_mut().zip(self.clone().into_dense()).for_each(|(p, v)| *p += scale * v)
            }
        }
        true
    }

    /// The frame, in the layout of its kind (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when the length or dimension is 2³⁰ or more.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, head, len) = match &self.payload {
            Payload::Dense(values) => (DENSE, values.len(), dense_len(values.len())),
            Payload::Sparse { dim, entries } => (SPARSE, *dim, sparse_len(entries.len())),
            Payload::Quantized { codes, .. } => {
                (QUANTIZED, codes.len(), quantized_len(codes.len()))
            }
        };
        assert!(head < MAX_LEN, "an update frame holds lengths below 2^30, not {head}");
        let mut out = Vec::with_capacity(len as usize);
        out.extend_from_slice(&((kind << 30) | head as u32).to_le_bytes());
        let n = self.num_examples.to_le_bytes();
        match &self.payload {
            Payload::Dense(values) => {
                out.extend_from_slice(&n);
                values.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
            }
            Payload::Sparse { entries, .. } => {
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                out.extend_from_slice(&n);
                for (i, v) in entries {
                    out.extend_from_slice(&i.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Payload::Quantized { min, max, codes } => {
                out.extend_from_slice(&n);
                out.extend_from_slice(&min.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
                out.extend_from_slice(codes);
            }
        }
        out
    }

    /// Reads a frame [`encode`](Self::encode) could have written. Never
    /// panics, and allocates no more than the frame's own length.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on any other input.
    pub fn decode(frame: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(frame);
        let word = r.u32()?;
        let head = word as usize & (MAX_LEN - 1);
        let (num_examples, payload) = match word >> 30 {
            DENSE => (r.u32()?, Payload::Dense(r.f32s(head)?)),
            SPARSE => {
                let (k, n) = (r.u32()? as usize, r.u32()?);
                // the entries' bytes are claimed before anything is reserved
                let mut pairs = Reader::new(r.bytes(k.saturating_mul(8))?);
                let mut entries: Vec<(u32, f32)> = Vec::with_capacity(k);
                for _ in 0..k {
                    let (i, v) = (pairs.u32()?, pairs.f32()?);
                    if i as usize >= head || entries.last().is_some_and(|&(last, _)| i <= last) {
                        return Err(FrameError::BadIndex);
                    }
                    entries.push((i, v));
                }
                (n, Payload::Sparse { dim: head, entries })
            }
            QUANTIZED => {
                let n = r.u32()?;
                let (min, max) = (r.f32()?, r.f32()?);
                (n, Payload::Quantized { min, max, codes: r.bytes(head)?.to_vec() })
            }
            _ => return Err(FrameError::UnknownKind),
        };
        r.finish()?;
        Ok(Self { payload, num_examples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(update: &Update) -> &[(u32, f32)] {
        match &update.payload {
            Payload::Sparse { entries, .. } => entries,
            other => panic!("not sparse: {other:?}"),
        }
    }

    /// What the server does with decoded uploads: each one's whole vector
    /// into a [`BufferedAggregator`](crate::BufferedAggregator), weighted by `n_k`.
    fn weighted_average(updates: &[Update]) -> Option<Vec<f32>> {
        let mut agg = crate::BufferedAggregator::new();
        for u in updates {
            agg.push(u.clone().into_dense(), u.num_examples as u64);
        }
        agg.mean()
    }

    #[test]
    fn weighted_average_weights_by_examples() {
        let a = Update::dense(vec![0.0, 0.0], 30);
        let b = Update::dense(vec![10.0, 20.0], 10);
        let avg = weighted_average(&[a, b]).expect("avg");
        assert!((avg[0] - 2.5).abs() < 1e-6);
        assert!((avg[1] - 5.0).abs() < 1e-6);
        // a sparse upload counts as zero where it carries no entry
        let s = Update::top_fraction(&[0.0, 20.0], 0.5, 10);
        let avg = weighted_average(&[Update::dense(vec![0.0, 0.0], 30), s]).expect("avg");
        assert!(avg[0].abs() < 1e-6 && (avg[1] - 5.0).abs() < 1e-6, "{avg:?}");
    }

    #[test]
    fn weighted_average_edge_cases() {
        assert!(weighted_average(&[]).is_none());
        let a = Update::dense(vec![1.0], 1);
        let b = Update::dense(vec![1.0, 2.0], 1);
        assert!(weighted_average(&[a.clone(), b]).is_none());
        let z = Update::dense(vec![1.0], 0);
        assert!(weighted_average(&[z]).is_none());
        assert_eq!(weighted_average(&[a]).unwrap(), vec![1.0]);
    }

    #[test]
    fn dense_round_trip() {
        let u = Update::dense(vec![1.0, -2.5, 0.0, 3.25], 17);
        let frame = u.encode();
        assert_eq!(frame.len() as u64, dense_len(4));
        assert_eq!(Update::decode(&frame), Ok(u));
    }

    #[test]
    fn dense_decode_rejects_truncated() {
        let mut frame = Update::dense(vec![1.0, 2.0], 1).encode();
        frame.pop();
        assert_eq!(Update::decode(&frame), Err(FrameError::Wire(WireError::Truncated)));
        assert_eq!(Update::decode(&[1, 2]), Err(FrameError::Wire(WireError::Truncated)));
    }

    #[test]
    fn top_fraction_picks_largest() {
        let s = Update::top_fraction(&[0.1, -5.0, 0.01, 2.0, -0.3], 0.4, 3);
        assert_eq!(entries(&s), &[(1, -5.0), (3, 2.0)]);
        assert_eq!(s.dim(), 5);
    }

    #[test]
    fn top_fraction_full_keeps_everything() {
        let s = Update::top_fraction(&[1.0, 2.0, 3.0], 1.0, 1);
        assert_eq!(entries(&s).len(), 3);
    }

    #[test]
    fn sparse_apply_adds_scaled() {
        let s = Update::top_fraction(&[0.0, 4.0, 0.0, -2.0], 0.5, 1);
        let mut params = vec![1.0f32; 4];
        assert!(s.apply_to(&mut params, 0.5));
        assert_eq!(params, vec![1.0, 3.0, 1.0, 0.0]);
        assert!(!s.apply_to(&mut [0.0f32; 3], 1.0), "a vector of another length is left alone");
        assert_eq!(s.into_dense(), vec![0.0, 4.0, 0.0, -2.0]);
    }

    #[test]
    fn sparse_is_smaller_on_wire() {
        let delta = vec![1.0f32; 1000];
        let sparse = Update::top_fraction(&delta, 0.01, 1).encode();
        assert_eq!(sparse.len() as u64, sparse_len(10));
        assert!(sparse.len() * 10 < Update::dense(delta, 1).encode().len());
    }

    #[test]
    fn quantized_update_round_trips_within_error_bound() {
        let values: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let q = Update::quantize(&values, 10);
        let Payload::Quantized { min, max, .. } = q.payload else { panic!("not quantized") };
        let frame = q.encode();
        assert_eq!(frame.len() as u64, quantized_len(1000));
        let back = Update::decode(&frame).expect("own frame").into_dense();
        let bound = (max - min) / 255.0 / 2.0 + 1e-6;
        for (a, b) in values.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn quantized_update_handles_constant_vector() {
        let q = Update::quantize(&[2.5; 8], 1);
        let Payload::Quantized { min, max, .. } = q.payload else { panic!("not quantized") };
        for v in q.into_dense() {
            assert!((v - 2.5).abs() <= (max - min) / 255.0 / 2.0 + 1e-6);
        }
    }
}
