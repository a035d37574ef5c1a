//! Delta checkpoints: ship model version *N+1* as "base version *N* plus
//! what changed", bit-exactly.
//!
//! The paper's §III deployment story updates on-device models without
//! re-shipping the whole network. This module encodes the new parameter
//! vector against a pinned base as a sparse, optionally code-booked diff:
//!
//! - **positions** are delta-gap varints over the changed indices;
//! - **values** are *exact bit patterns*, never float arithmetic — a
//!   reconstructed checkpoint is byte-identical to the original for
//!   arbitrary tensors (NaNs, `-0.0`, denormals included);
//! - when the changed values collapse onto few distinct patterns (the
//!   quantized-diff path: successive versions snapped onto a shared
//!   codebook via [`snap_to_codebook`]), values become small codes
//!   squeezed through the canonical [`HuffmanEncoded`] codec.
//!
//! The encoder scores every applicable layout — sparse raw, sparse
//! coded, dense coded, dense raw — and keeps the smallest, so a delta is
//! never materially larger than a full checkpoint even in the worst case
//! (every weight changed, all values distinct).
//!
//! # Examples
//!
//! ```
//! use mdl_compress::delta::{uniform_codebook, snap_to_codebook, DeltaCheckpoint};
//!
//! let base: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
//! let grid = uniform_codebook(&base, 64);
//! let v1 = snap_to_codebook(&base, &grid);
//! // a fine-tune nudges a fifth of the weights; snapping absorbs the rest
//! let v2: Vec<f32> = snap_to_codebook(
//!     &v1.iter().enumerate().map(|(i, &w)| if i % 5 == 0 { w + 0.04 } else { w }).collect::<Vec<_>>(),
//!     &grid,
//! );
//! let delta = DeltaCheckpoint::encode(&v1, &v2, 1, 2);
//! assert_eq!(delta.apply(&v1).unwrap(), v2);
//! let wire = delta.to_bytes();
//! assert!(wire.len() < 4 * v1.len(), "delta beats the full checkpoint");
//! assert_eq!(DeltaCheckpoint::from_bytes(&wire).unwrap(), delta);
//! ```

use crate::huffman::HuffmanEncoded;
use mdl_tensor::wire::{Reader, WireError};
use std::collections::BTreeMap;

/// Wire magic for a serialised delta checkpoint (`MDLD`).
pub const DELTA_MAGIC: [u8; 4] = *b"MDLD";
const WIRE_VERSION: u8 = 1;
/// Largest codebook either coded layout will build: codes are at most
/// two bytes wide.
const MAX_CODEBOOK: usize = 1 << 16;

/// FNV-1a over the little-endian bit patterns of a parameter vector —
/// the fingerprint that pins a delta to its base version.
pub fn param_hash(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Why a delta could not be applied or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The supplied base parameters are not the version this delta was
    /// encoded against.
    BaseHashMismatch {
        /// Hash the delta was encoded against.
        expected: u64,
        /// Hash of the parameters actually supplied.
        found: u64,
    },
    /// The supplied base has the wrong parameter count.
    LengthMismatch {
        /// Parameter count the delta expects.
        expected: usize,
        /// Parameter count actually supplied.
        found: usize,
    },
    /// The byte frame is truncated or internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BaseHashMismatch { expected, found } => {
                write!(f, "base hash mismatch: delta wants {expected:#018x}, got {found:#018x}")
            }
            Self::LengthMismatch { expected, found } => {
                write!(f, "base length mismatch: delta wants {expected} params, got {found}")
            }
            Self::Malformed(what) => write!(f, "malformed delta frame: {what}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<WireError> for DeltaError {
    fn from(e: WireError) -> Self {
        DeltaError::Malformed(e.as_str())
    }
}

/// How the changed values are stored. All layouts preserve exact bit
/// patterns; they differ only in size.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// Raw bit patterns for each changed position.
    SparseRaw(Vec<u32>),
    /// Codebook of distinct bit patterns + Huffman-packed codes, one per
    /// changed position. `wide` = two-byte codes (codebook > 256).
    SparseCoded { codebook: Vec<u32>, codes: HuffmanEncoded, wide: bool },
    /// Codebook + one code per position (changed or not) — wins when
    /// nearly everything changed but the *new* version is quantized.
    DenseCoded { codebook: Vec<u32>, codes: HuffmanEncoded, wide: bool },
    /// Full new parameter vector; the floor that keeps a delta from ever
    /// degenerating past a plain checkpoint.
    DenseRaw(Vec<u32>),
}

/// A new model version encoded against a pinned base.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCheckpoint {
    base_version: u64,
    new_version: u64,
    base_hash: u64,
    total: u32,
    /// Ascending changed positions; empty for the dense layouts.
    indices: Vec<u32>,
    payload: Payload,
}

fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Gap-encodes ascending indices (first index, then successive gaps).
fn index_bytes(indices: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(indices.len());
    let mut prev = 0u32;
    for (i, &idx) in indices.iter().enumerate() {
        write_varint(&mut out, if i == 0 { idx } else { idx - prev });
        prev = idx;
    }
    out
}

/// Packs codebook codes into a byte stream (one or two bytes per code)
/// and squeezes it through the Huffman codec.
fn pack_codes(codes: &[u16], wide: bool) -> HuffmanEncoded {
    let mut stream = Vec::with_capacity(codes.len() * if wide { 2 } else { 1 });
    for &c in codes {
        stream.push((c & 0xFF) as u8);
        if wide {
            stream.push((c >> 8) as u8);
        }
    }
    HuffmanEncoded::encode(&stream)
}

fn unpack_codes(codes: &HuffmanEncoded, wide: bool, expected: usize) -> Option<Vec<u16>> {
    let stream = codes.try_decode()?;
    let width = if wide { 2 } else { 1 };
    if stream.len() != expected * width {
        return None;
    }
    Some(
        stream
            .chunks_exact(width)
            .map(|c| if wide { u16::from_le_bytes([c[0], c[1]]) } else { c[0] as u16 })
            .collect(),
    )
}

/// Assigns codes to bit patterns in first-occurrence order (deterministic
/// and independent of the platform's hash seeds).
fn build_codebook(values: impl Iterator<Item = u32>) -> Option<(Vec<u32>, Vec<u16>)> {
    let mut table: BTreeMap<u32, u16> = BTreeMap::new();
    let mut book = Vec::new();
    let mut codes = Vec::new();
    for bits in values {
        let next = book.len() as u16;
        let code = *table.entry(bits).or_insert_with(|| {
            book.push(bits);
            next
        });
        codes.push(code);
        if book.len() > MAX_CODEBOOK {
            return None;
        }
    }
    Some((book, codes))
}

impl DeltaCheckpoint {
    /// Encodes `new` against `base`, picking the smallest applicable
    /// layout. Identity holds for arbitrary float contents.
    ///
    /// # Panics
    ///
    /// Panics when the two versions disagree on parameter count — a
    /// delta only makes sense between same-architecture checkpoints —
    /// or when the vector exceeds `u32` positions.
    pub fn encode(base: &[f32], new: &[f32], base_version: u64, new_version: u64) -> Self {
        assert_eq!(base.len(), new.len(), "delta requires same-architecture checkpoints");
        assert!(base.len() <= u32::MAX as usize, "parameter vector exceeds u32 positions");
        let total = base.len() as u32;
        let base_hash = param_hash(base);

        let changed: Vec<(u32, u32)> = base
            .iter()
            .zip(new)
            .enumerate()
            .filter(|(_, (b, n))| b.to_bits() != n.to_bits())
            .map(|(i, (_, n))| (i as u32, n.to_bits()))
            .collect();
        let indices: Vec<u32> = changed.iter().map(|&(i, _)| i).collect();
        let idx_cost = index_bytes(&indices).len();

        // score every applicable layout; ties go to the earlier entry
        let mut best: Option<(usize, Payload, bool)> = None; // (bytes, payload, sparse)
        let mut consider = |bytes: usize, payload: Payload, sparse: bool| {
            if best.as_ref().is_none_or(|(b, _, _)| bytes < *b) {
                best = Some((bytes, payload, sparse));
            }
        };

        if let Some((book, codes)) = build_codebook(changed.iter().map(|&(_, v)| v)) {
            let wide = book.len() > 256;
            let packed = pack_codes(&codes, wide);
            let bytes = idx_cost + 4 + 4 * book.len() + packed.to_bytes().len();
            consider(bytes, Payload::SparseCoded { codebook: book, codes: packed, wide }, true);
        }
        if let Some((book, codes)) = build_codebook(new.iter().map(|v| v.to_bits())) {
            let wide = book.len() > 256;
            let packed = pack_codes(&codes, wide);
            let bytes = 4 + 4 * book.len() + packed.to_bytes().len();
            consider(bytes, Payload::DenseCoded { codebook: book, codes: packed, wide }, false);
        }
        consider(
            idx_cost + 4 * changed.len(),
            Payload::SparseRaw(changed.iter().map(|&(_, v)| v).collect()),
            true,
        );
        consider(
            4 * new.len(),
            Payload::DenseRaw(new.iter().map(|v| v.to_bits()).collect()),
            false,
        );

        let (_, payload, sparse) = best.expect("dense-raw layout always applies");
        Self {
            base_version,
            new_version,
            base_hash,
            total,
            indices: if sparse { indices } else { Vec::new() },
            payload,
        }
    }

    /// Reconstructs the new parameter vector from the pinned base.
    ///
    /// # Errors
    ///
    /// [`DeltaError::LengthMismatch`] / [`DeltaError::BaseHashMismatch`]
    /// when `base` is not the version this delta was encoded against;
    /// [`DeltaError::Malformed`] when a decoded frame is internally
    /// inconsistent.
    pub fn apply(&self, base: &[f32]) -> Result<Vec<f32>, DeltaError> {
        if base.len() != self.total as usize {
            return Err(DeltaError::LengthMismatch {
                expected: self.total as usize,
                found: base.len(),
            });
        }
        let found = param_hash(base);
        if found != self.base_hash {
            return Err(DeltaError::BaseHashMismatch { expected: self.base_hash, found });
        }

        let changed_bits: Vec<u32> = match &self.payload {
            Payload::SparseRaw(bits) => bits.clone(),
            Payload::SparseCoded { codebook, codes, wide } => {
                let codes = unpack_codes(codes, *wide, self.indices.len())
                    .ok_or(DeltaError::Malformed("sparse code stream inconsistent"))?;
                Self::look_up(codebook, &codes)?
            }
            Payload::DenseCoded { codebook, codes, wide } => {
                let codes = unpack_codes(codes, *wide, self.total as usize)
                    .ok_or(DeltaError::Malformed("dense code stream inconsistent"))?;
                return Ok(Self::look_up(codebook, &codes)?
                    .into_iter()
                    .map(f32::from_bits)
                    .collect());
            }
            Payload::DenseRaw(bits) => {
                return Ok(bits.iter().map(|&b| f32::from_bits(b)).collect());
            }
        };

        if changed_bits.len() != self.indices.len() {
            return Err(DeltaError::Malformed("value count disagrees with index count"));
        }
        let mut out: Vec<f32> = base.to_vec();
        for (&idx, &bits) in self.indices.iter().zip(&changed_bits) {
            *out.get_mut(idx as usize)
                .ok_or(DeltaError::Malformed("changed index out of range"))? = f32::from_bits(bits);
        }
        Ok(out)
    }

    fn look_up(codebook: &[u32], codes: &[u16]) -> Result<Vec<u32>, DeltaError> {
        codes
            .iter()
            .map(|&c| {
                codebook
                    .get(c as usize)
                    .copied()
                    .ok_or(DeltaError::Malformed("code exceeds codebook"))
            })
            .collect()
    }

    /// Version this delta must be applied on top of.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// Version this delta produces.
    pub fn new_version(&self) -> u64 {
        self.new_version
    }

    /// Fingerprint of the pinned base parameters.
    pub fn base_hash(&self) -> u64 {
        self.base_hash
    }

    /// Parameter count of both versions.
    pub fn total(&self) -> usize {
        self.total as usize
    }

    /// Number of positions whose bit pattern changed.
    pub fn changed(&self) -> usize {
        match &self.payload {
            Payload::SparseRaw(_) | Payload::SparseCoded { .. } => self.indices.len(),
            // dense layouts dropped the index list; report the whole vector
            Payload::DenseCoded { .. } | Payload::DenseRaw(_) => self.total as usize,
        }
    }

    /// `true` when values went through a codebook (the quantized-diff
    /// path) rather than raw bit patterns.
    pub fn is_coded(&self) -> bool {
        matches!(&self.payload, Payload::SparseCoded { .. } | Payload::DenseCoded { .. })
    }

    /// Human-readable name of the chosen layout.
    pub fn mode_name(&self) -> &'static str {
        match &self.payload {
            Payload::SparseRaw(_) => "sparse-raw",
            Payload::SparseCoded { .. } => "sparse-coded",
            Payload::DenseCoded { .. } => "dense-coded",
            Payload::DenseRaw(_) => "dense-raw",
        }
    }

    /// Size of a full (non-delta) f32 checkpoint of this model.
    pub fn full_bytes(&self) -> u64 {
        4 * self.total as u64
    }

    /// Serialised size — what distribution actually ships per device.
    pub fn encoded_bytes(&self) -> u64 {
        self.to_bytes().len() as u64
    }

    /// Compression ratio of the delta against a full checkpoint.
    pub fn ratio_vs_full(&self) -> f64 {
        self.full_bytes() as f64 / self.encoded_bytes().max(1) as f64
    }

    /// Serialises to the `MDLD` wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 4 * self.indices.len());
        out.extend_from_slice(&DELTA_MAGIC);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&self.base_version.to_le_bytes());
        out.extend_from_slice(&self.new_version.to_le_bytes());
        out.extend_from_slice(&self.base_hash.to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        let (mode, wide): (u8, bool) = match &self.payload {
            Payload::SparseRaw(_) => (0, false),
            Payload::SparseCoded { wide, .. } => (1, *wide),
            Payload::DenseCoded { wide, .. } => (2, *wide),
            Payload::DenseRaw(_) => (3, false),
        };
        out.push(mode);
        out.push(wide as u8);
        out.extend_from_slice(&(self.indices.len() as u32).to_le_bytes());
        out.extend_from_slice(&index_bytes(&self.indices));
        match &self.payload {
            Payload::SparseRaw(bits) | Payload::DenseRaw(bits) => {
                for &b in bits {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            Payload::SparseCoded { codebook, codes, .. }
            | Payload::DenseCoded { codebook, codes, .. } => {
                out.extend_from_slice(&(codebook.len() as u32).to_le_bytes());
                for &b in codebook {
                    out.extend_from_slice(&b.to_le_bytes());
                }
                out.extend_from_slice(&codes.to_bytes());
            }
        }
        out
    }

    /// Parses an `MDLD` frame.
    ///
    /// Never panics, and never allocates more than a small multiple of
    /// `bytes.len()`: every declared count — changed indices (a varint is
    /// at least one byte), raw values and codebook entries (four bytes
    /// each), the embedded Huffman block — is checked against the bytes
    /// that remain before anything is reserved for it.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Malformed`] on a bad magic, truncation, trailing
    /// garbage, or an inconsistent payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DeltaError> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != DELTA_MAGIC {
            return Err(DeltaError::Malformed("bad magic — not a delta checkpoint"));
        }
        if r.u8()? != WIRE_VERSION {
            return Err(DeltaError::Malformed("unsupported wire version"));
        }
        let base_version = r.u64()?;
        let new_version = r.u64()?;
        let base_hash = r.u64()?;
        let total = r.u32()?;
        let mode = r.u8()?;
        let wide = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DeltaError::Malformed("wide flag out of range")),
        };
        let n_indices = r.u32()? as usize;
        if n_indices > total as usize {
            return Err(DeltaError::Malformed("more changed indices than parameters"));
        }
        if n_indices > r.remaining() {
            return Err(DeltaError::Malformed("more changed indices than bytes to hold them"));
        }
        let mut indices = Vec::with_capacity(n_indices);
        let mut prev = 0u32;
        for i in 0..n_indices {
            let gap = r.varint()?;
            let idx = if i == 0 {
                gap
            } else {
                prev.checked_add(gap).ok_or(DeltaError::Malformed("index gap overflows"))?
            };
            if idx >= total || (i > 0 && idx <= prev) {
                return Err(DeltaError::Malformed("indices not strictly ascending in range"));
            }
            indices.push(idx);
            prev = idx;
        }

        let coded = |r: &mut Reader<'_>| -> Result<(Vec<u32>, HuffmanEncoded), DeltaError> {
            let book_len = r.u32()? as usize;
            if book_len > MAX_CODEBOOK {
                return Err(DeltaError::Malformed("codebook exceeds the two-byte code space"));
            }
            let codebook = r.u32s(book_len)?;
            let codes = HuffmanEncoded::read(r)
                .ok_or(DeltaError::Malformed("huffman block truncated or inconsistent"))?;
            Ok((codebook, codes))
        };
        if matches!(mode, 2 | 3) && n_indices != 0 {
            return Err(DeltaError::Malformed("dense layout carries an index list"));
        }

        let payload = match mode {
            0 => Payload::SparseRaw(r.u32s(n_indices)?),
            1 => {
                let (codebook, codes) = coded(&mut r)?;
                Payload::SparseCoded { codebook, codes, wide }
            }
            2 => {
                let (codebook, codes) = coded(&mut r)?;
                Payload::DenseCoded { codebook, codes, wide }
            }
            3 => Payload::DenseRaw(r.u32s(total as usize)?),
            _ => return Err(DeltaError::Malformed("unknown payload mode")),
        };
        r.finish()?;
        Ok(Self { base_version, new_version, base_hash, total, indices, payload })
    }
}

/// A uniform quantization grid over the value range of `params` with
/// `levels` entries — the shared codebook that makes successive versions
/// delta-friendly.
pub fn uniform_codebook(params: &[f32], levels: usize) -> Vec<f32> {
    assert!(levels >= 2, "a grid needs at least two levels");
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &p in params {
        if p.is_finite() {
            lo = lo.min(p);
            hi = hi.max(p);
        }
    }
    if !lo.is_finite() || lo >= hi {
        return vec![if lo.is_finite() { lo } else { 0.0 }];
    }
    let step = (hi - lo) as f64 / (levels - 1) as f64;
    (0..levels).map(|i| (lo as f64 + step * i as f64) as f32).collect()
}

/// Snaps every parameter to its nearest codebook entry (ties to the
/// earlier entry), so small training nudges are absorbed and the delta
/// between two snapped versions touches few, heavily repeated values.
pub fn snap_to_codebook(params: &[f32], codebook: &[f32]) -> Vec<f32> {
    assert!(!codebook.is_empty(), "codebook must be non-empty");
    params
        .iter()
        .map(|&p| {
            if !p.is_finite() {
                return p;
            }
            let mut best = codebook[0];
            let mut best_d = (p - best).abs();
            for &c in &codebook[1..] {
                let d = (p - c).abs();
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sparse_raw_round_trips_arbitrary_edits() {
        let base: Vec<f32> = (0..100).map(|i| i as f32 * 0.1).collect();
        let mut new = base.clone();
        new[3] = f32::NAN;
        new[40] = -0.0;
        new[99] = 1e-42; // denormal
        let d = DeltaCheckpoint::encode(&base, &new, 7, 8);
        assert_eq!(d.changed(), 3);
        assert_eq!(bits(&d.apply(&base).unwrap()), bits(&new));
        assert_eq!((d.base_version(), d.new_version()), (7, 8));
    }

    #[test]
    fn quantized_diff_takes_the_coded_path_and_beats_full() {
        let base: Vec<f32> = (0..2000).map(|i| ((i * 37) % 64) as f32 * 0.01).collect();
        let mut new = base.clone();
        for i in (0..2000).step_by(7) {
            new[i] = ((i * 11) % 64) as f32 * 0.01; // values from the same 64-entry grid
        }
        let d = DeltaCheckpoint::encode(&base, &new, 1, 2);
        assert!(d.is_coded(), "few distinct changed values must pick a coded layout");
        assert!(d.ratio_vs_full() > 3.0, "ratio {}", d.ratio_vs_full());
        assert_eq!(bits(&d.apply(&base).unwrap()), bits(&new));
    }

    #[test]
    fn dense_layout_bounds_the_worst_case() {
        // every position changed, every value distinct → dense-raw floor
        let base: Vec<f32> = (0..500).map(|i| i as f32).collect();
        let new: Vec<f32> = (0..500).map(|i| i as f32 * 1.0001 + 0.5).collect();
        let d = DeltaCheckpoint::encode(&base, &new, 1, 2);
        assert_eq!(d.mode_name(), "dense-raw");
        assert!(d.encoded_bytes() <= d.full_bytes() + 64, "header-only overhead");
        assert_eq!(bits(&d.apply(&base).unwrap()), bits(&new));
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let base = vec![1.0f32, 2.0, 3.0];
        let new = vec![1.0f32, 9.0, 3.0];
        let d = DeltaCheckpoint::encode(&base, &new, 1, 2);
        assert!(matches!(d.apply(&[1.0, 2.5, 3.0]), Err(DeltaError::BaseHashMismatch { .. })));
        assert!(matches!(d.apply(&[1.0, 2.0]), Err(DeltaError::LengthMismatch { .. })));
    }

    #[test]
    fn wire_frame_round_trips_and_rejects_corruption() {
        let base: Vec<f32> = (0..300).map(|i| (i as f32).sin()).collect();
        let grid = uniform_codebook(&base, 32);
        let v1 = snap_to_codebook(&base, &grid);
        let v2: Vec<f32> = v1.iter().map(|&w| if w > 0.0 { w } else { grid[0] }).collect();
        let d = DeltaCheckpoint::encode(&v1, &v2, 4, 5);
        let wire = d.to_bytes();
        assert_eq!(DeltaCheckpoint::from_bytes(&wire).unwrap(), d);
        assert_eq!(wire.len() as u64, d.encoded_bytes());
        assert!(DeltaCheckpoint::from_bytes(&wire[..wire.len() - 1]).is_err());
        assert!(DeltaCheckpoint::from_bytes(b"MDLX").is_err());
        let mut trailing = wire.clone();
        trailing.push(0);
        assert!(DeltaCheckpoint::from_bytes(&trailing).is_err());
    }

    /// A 39-byte header whose counts promise gigabytes: at the parent
    /// commit `from_bytes` reserved `4 · total` (17 GB) for the dense-raw
    /// values, or `4 · n_indices` for the index list, and aborted.
    #[test]
    fn declared_counts_are_checked_against_the_frame_before_allocating() {
        let header = |total: u32, mode: u8, n_indices: u32| {
            let mut f = DELTA_MAGIC.to_vec();
            f.push(WIRE_VERSION);
            f.extend_from_slice(&[0u8; 24]); // versions + base hash
            f.extend_from_slice(&total.to_le_bytes());
            f.extend_from_slice(&[mode, 0]);
            f.extend_from_slice(&n_indices.to_le_bytes());
            assert_eq!(f.len(), 39);
            f
        };
        for frame in [
            header(u32::MAX, 3, 0),
            header(u32::MAX, 0, u32::MAX),
            header(u32::MAX, 1, u32::MAX - 1),
        ] {
            assert!(matches!(DeltaCheckpoint::from_bytes(&frame), Err(DeltaError::Malformed(_))));
        }
        // a codebook length the frame cannot back
        let mut coded = header(8, 2, 0);
        coded.extend_from_slice(&(MAX_CODEBOOK as u32).to_le_bytes());
        coded.extend_from_slice(&[0u8; 64]);
        assert!(matches!(DeltaCheckpoint::from_bytes(&coded), Err(DeltaError::Malformed(_))));
    }

    #[test]
    fn snapping_absorbs_small_nudges() {
        let params: Vec<f32> = (0..64).map(|i| i as f32 * 0.25 - 8.0).collect();
        let grid = uniform_codebook(&params, 16);
        let v1 = snap_to_codebook(&params, &grid);
        let nudged: Vec<f32> = v1.iter().map(|&w| w + 1e-4).collect();
        let v2 = snap_to_codebook(&nudged, &grid);
        assert_eq!(bits(&v1), bits(&v2), "sub-step nudges must snap back");
    }
}
