//! The one byte cursor every wire decoder in the workspace reads through.
//!
//! Saved models, delta checkpoints, Huffman blocks, federated updates and
//! request records all arrive from outside the process. [`Reader`] walks a
//! borrowed buffer little-endian field by field, fails instead of
//! indexing past the end, and — the rule that lives only here — checks a
//! *declared* element count against the bytes that remain **before**
//! anything is allocated for it, so a hostile header cannot make a
//! decoder request more memory than the frame it arrived in.
//!
//! Writing has no failure mode to centralise: encoders keep
//! `extend_from_slice(&x.to_le_bytes())`.
//!
//! # Examples
//!
//! ```
//! use mdl_tensor::wire::{Reader, WireError};
//!
//! let mut r = Reader::new(&[2, 0, 0, 0, 0, 0, 128, 63, 0, 0, 0, 64]);
//! let n = r.u32().unwrap() as usize;
//! assert_eq!(r.f32s(n).unwrap(), vec![1.0, 2.0]);
//! assert_eq!(r.finish(), Ok(()));
//!
//! // a count the buffer cannot back fails before any allocation
//! let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4]);
//! let n = r.u32().unwrap() as usize;
//! assert_eq!(r.f32s(n), Err(WireError::Truncated));
//! ```

/// Why a [`Reader`] call failed. Each decoder maps this onto its own
/// error (`LoadModelError::Truncated`, `DeltaError::Malformed`, `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the requested field, or a declared count
    /// needs more bytes than remain.
    Truncated,
    /// A varint runs past five bytes or encodes a value above `u32::MAX`.
    BadVarint,
    /// [`Reader::finish`] found unread bytes after the last field.
    Trailing,
}

impl WireError {
    /// A static description, for error types that carry `&'static str`.
    pub fn as_str(self) -> &'static str {
        match self {
            WireError::Truncated => "frame ends before its declared content",
            WireError::BadVarint => "varint longer than five bytes or above u32::MAX",
            WireError::Trailing => "trailing bytes after the last field",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for WireError {}

/// A bounded little-endian cursor over a borrowed byte buffer.
///
/// No method panics or reads out of bounds on any input, and no method
/// allocates more than the bytes it consumes (times the element width
/// ratio, which is 1 for every bulk getter here).
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `n` bytes, borrowed from the underlying buffer.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) returns exactly N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian IEEE-754 `f32` (exact bit pattern).
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.u32().map(f32::from_bits)
    }

    /// An LEB128 `u32`: seven value bits per byte, low group first, high
    /// bit set on every byte but the last. At most five bytes, and the
    /// fifth may carry only the top four value bits.
    pub fn varint(&mut self) -> Result<u32, WireError> {
        let mut v = 0u32;
        for shift in (0..35).step_by(7) {
            let byte = self.u8()?;
            if shift == 28 && byte > 0x0F {
                return Err(WireError::BadVarint);
            }
            v |= ((byte & 0x7F) as u32) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::BadVarint)
    }

    /// `n` four-byte words; `4 · n` is checked against what remains before
    /// the caller collects (and so allocates) anything.
    fn words(&mut self, n: usize) -> Result<impl Iterator<Item = [u8; 4]> + 'a, WireError> {
        let len = n.checked_mul(4).ok_or(WireError::Truncated)?;
        Ok(self.bytes(len)?.chunks_exact(4).map(|c| c.try_into().expect("chunks_exact(4)")))
    }

    /// `n` little-endian `u32`s. `4 · n` is checked against
    /// [`Reader::remaining`] before the vector is allocated.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        Ok(self.words(n)?.map(u32::from_le_bytes).collect())
    }

    /// `n` little-endian `f32`s, bounded like [`Reader::u32s`].
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        Ok(self.words(n)?.map(f32::from_le_bytes).collect())
    }

    /// Ends the read: any byte left over is an error, so a frame cannot
    /// smuggle content past the decoder that accepted it.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder side of [`Reader::varint`], as `mdl-compress` writes it.
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

    #[test]
    fn every_getter_at_every_offset_of_a_short_buffer() {
        let buf: Vec<u8> = (1..=11).collect();
        for at in 0..=buf.len() {
            let left = buf.len() - at;
            let tail = &buf[at..];
            let at_offset = || {
                let mut r = Reader::new(&buf);
                r.bytes(at).expect("offset within buffer");
                r
            };
            assert_eq!(at_offset().remaining(), left);
            assert_eq!(at_offset().u8().ok(), tail.first().copied());
            let le = |n: usize| -> Option<u64> {
                tail.get(..n).map(|s| s.iter().rev().fold(0u64, |v, &b| (v << 8) | b as u64))
            };
            assert_eq!(at_offset().u16().ok(), le(2).map(|v| v as u16));
            assert_eq!(at_offset().u32().ok(), le(4).map(|v| v as u32));
            assert_eq!(at_offset().u64().ok(), le(8));
            assert_eq!(
                at_offset().f32().ok().map(f32::to_bits),
                le(4).map(|v| v as u32),
                "f32 is the exact bit pattern"
            );
            for n in 0..=4 {
                assert_eq!(at_offset().bytes(n).ok(), tail.get(..n));
                let words: Option<Vec<u32>> = (4 * n <= left).then(|| {
                    tail.chunks_exact(4)
                        .take(n)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                        .collect()
                });
                assert_eq!(at_offset().u32s(n).ok(), words);
                assert_eq!(
                    at_offset().f32s(n).ok().map(|v| v.iter().map(|x| x.to_bits()).collect()),
                    words
                );
            }
            assert_eq!(
                at_offset().finish(),
                if left == 0 { Ok(()) } else { Err(WireError::Trailing) }
            );
            // a failed read consumes nothing
            let mut r = at_offset();
            if r.u64().is_err() {
                assert_eq!(r.remaining(), left);
            }
        }
    }

    #[test]
    fn declared_counts_fail_before_allocating() {
        let buf = [0u8; 16];
        for n in [5, 1 << 30, usize::MAX / 4, usize::MAX / 4 + 1, usize::MAX] {
            assert_eq!(Reader::new(&buf).u32s(n), Err(WireError::Truncated));
            assert_eq!(Reader::new(&buf).f32s(n), Err(WireError::Truncated));
            assert_eq!(Reader::new(&buf).bytes(n.max(17)), Err(WireError::Truncated));
        }
        assert_eq!(Reader::new(&buf).u32s(4).map(|v| v.len()), Ok(4));
    }

    #[test]
    fn varint_rejects_overlong_and_overflowing_encodings() {
        let read = |b: &[u8]| Reader::new(b).varint();
        assert_eq!(read(&[]), Err(WireError::Truncated));
        assert_eq!(read(&[0x80]), Err(WireError::Truncated));
        assert_eq!(read(&[0xFF, 0xFF, 0xFF, 0xFF]), Err(WireError::Truncated));
        assert_eq!(read(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]), Ok(u32::MAX));
        // the fifth byte holds bits 28..32 only
        assert_eq!(read(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]), Err(WireError::BadVarint));
        assert_eq!(read(&[0x80, 0x80, 0x80, 0x80, 0x7F]), Err(WireError::BadVarint));
        // a sixth byte is never read
        assert_eq!(read(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]), Err(WireError::BadVarint));
        assert_eq!(read(&[0x80, 0x80, 0x80, 0x80, 0x8F, 0x00]), Err(WireError::BadVarint));
    }

    proptest! {
        #[test]
        fn varint_reads_exactly_what_write_varint_emits(
            low in any::<u32>(),
            shift in 0u32..32,
            tail in prop::collection::vec(any::<u8>(), 0..4),
        ) {
            let v = low >> shift; // every encoded length, 1 to 5 bytes
            let mut frame = Vec::new();
            write_varint(&mut frame, v);
            let encoded = frame.len();
            prop_assert!(encoded <= 5);
            frame.extend_from_slice(&tail);
            let mut r = Reader::new(&frame);
            prop_assert_eq!(r.varint(), Ok(v));
            prop_assert_eq!(r.remaining(), tail.len(), "consumed {} bytes", encoded);
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_never_over_read(
            buf in prop::collection::vec(any::<u8>(), 0..24),
            ops in prop::collection::vec(0u8..9, 0..12),
            counts in prop::collection::vec(0usize..40, 12),
        ) {
            let mut r = Reader::new(&buf);
            for (op, n) in ops.into_iter().zip(counts) {
                let before = r.remaining();
                let ok = match op {
                    0 => r.u8().is_ok(),
                    1 => r.u16().is_ok(),
                    2 => r.u32().is_ok(),
                    3 => r.u64().is_ok(),
                    4 => r.f32().is_ok(),
                    5 => r.bytes(n).is_ok(),
                    6 => r.u32s(n).is_ok_and(|v| v.len() == n),
                    7 => r.f32s(n).is_ok_and(|v| v.len() == n),
                    _ => r.varint().is_ok(),
                };
                prop_assert!(r.remaining() <= before);
                // only a varint may consume bytes and still fail
                prop_assert!(ok || op == 8 || r.remaining() == before);
            }
        }
    }
}
