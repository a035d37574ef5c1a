//! Canonical Huffman codec — the final stage of Deep Compression
//! (reference [28]), squeezing the skewed quantization-index stream.

use mdl_tensor::wire::Reader;
use std::collections::BinaryHeap;

/// A Huffman code table plus an encoded bitstream.
///
/// # Examples
///
/// ```
/// use mdl_compress::HuffmanEncoded;
///
/// let data = b"aaaaaaaabbbc".to_vec();
/// let encoded = HuffmanEncoded::encode(&data);
/// assert_eq!(encoded.decode(), data);
/// assert!(encoded.storage_bytes() < data.len() as u64 + 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HuffmanEncoded {
    /// Canonical code lengths per symbol (0 = symbol absent).
    code_lengths: Vec<u8>,
    /// The packed bitstream, MSB first within each byte.
    bits: Vec<u8>,
    /// Number of encoded symbols.
    len: usize,
}

#[derive(PartialEq, Eq)]
struct HeapNode {
    weight: u64,
    /// tiebreaker for determinism
    order: usize,
    node: usize,
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap: reverse on weight, then order
        other.weight.cmp(&self.weight).then(other.order.cmp(&self.order))
    }
}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes Huffman code lengths from symbol frequencies, none longer
/// than [`MAX_CODE_LEN`]: while the optimal tree is deeper (a skewed,
/// Fibonacci-like table over 34+ symbols), every nonzero frequency is
/// halved, keeping a floor of 1, and the tree rebuilt. A table whose tree
/// already fits is never rescaled.
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut lengths = tree_lengths(freqs);
    let mut scaled = freqs.to_vec();
    while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
        for f in scaled.iter_mut().filter(|f| **f > 0) {
            *f = (*f / 2).max(1);
        }
        lengths = tree_lengths(&scaled);
    }
    lengths
}

/// The depth of every symbol in the optimal (unbounded) Huffman tree.
fn tree_lengths(freqs: &[u64]) -> Vec<u8> {
    let symbols: Vec<usize> =
        freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(s, _)| s).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match symbols.len() {
        0 => return lengths,
        1 => {
            lengths[symbols[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // standard two-queue-equivalent: binary heap over tree nodes
    struct Tree {
        children: Vec<Option<(usize, usize)>>,
        symbol: Vec<Option<usize>>,
    }
    let mut tree = Tree { children: Vec::new(), symbol: Vec::new() };
    let mut heap = BinaryHeap::new();
    let mut order = 0usize;
    for &s in &symbols {
        tree.children.push(None);
        tree.symbol.push(Some(s));
        heap.push(HeapNode { weight: freqs[s], order, node: tree.symbol.len() - 1 });
        order += 1;
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("heap non-empty");
        let b = heap.pop().expect("heap non-empty");
        tree.children.push(Some((a.node, b.node)));
        tree.symbol.push(None);
        heap.push(HeapNode { weight: a.weight + b.weight, order, node: tree.symbol.len() - 1 });
        order += 1;
    }
    // DFS to collect depths
    let root = heap.pop().expect("root").node;
    let mut stack = vec![(root, 0u8)];
    while let Some((n, depth)) = stack.pop() {
        match tree.children[n] {
            Some((l, r)) => {
                stack.push((l, depth + 1));
                stack.push((r, depth + 1));
            }
            None => {
                let s = tree.symbol[n].expect("leaf symbol");
                lengths[s] = depth.max(1);
            }
        }
    }
    lengths
}

/// Longest code the codec handles: codes are held in a `u32`.
const MAX_CODE_LEN: u8 = 32;

/// Assigns canonical codes (symbol-ordered within each length). `None`
/// when a length exceeds [`MAX_CODE_LEN`] or the lengths violate Kraft's
/// inequality (more codes of some length than that many bits can tell
/// apart) — no prefix code has those lengths, so a table read off the
/// wire that fails here is rejected rather than decoded.
fn canonical_codes(lengths: &[u8]) -> Option<Vec<(u32, u8)>> {
    let max_len = lengths.iter().cloned().max().unwrap_or(0);
    if max_len > MAX_CODE_LEN {
        return None;
    }
    let mut codes = vec![(0u32, 0u8); lengths.len()];
    let mut code = 0u64;
    for len in 1..=max_len {
        for (s, &l) in lengths.iter().enumerate() {
            if l == len {
                codes[s] = (code as u32, len);
                code += 1;
            }
        }
        if code > 1u64 << len {
            return None;
        }
        code <<= 1;
    }
    Some(codes)
}

impl HuffmanEncoded {
    /// Encodes a symbol stream (symbols must be `u8`).
    pub fn encode(symbols: &[u8]) -> Self {
        let mut freqs = vec![0u64; 256];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths)
            .expect("tree depths form a prefix code no deeper than MAX_CODE_LEN");

        let mut bits = Vec::new();
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &s in symbols {
            let (code, len) = codes[s as usize];
            acc = (acc << len) | code as u64;
            nbits += len as u32;
            while nbits >= 8 {
                nbits -= 8;
                bits.push(((acc >> nbits) & 0xFF) as u8);
            }
        }
        if nbits > 0 {
            bits.push(((acc << (8 - nbits)) & 0xFF) as u8);
        }

        Self { code_lengths: lengths, bits, len: symbols.len() }
    }

    /// Decodes the full symbol stream.
    ///
    /// # Panics
    ///
    /// Panics if the bitstream is internally inconsistent (possible only
    /// for frames built by hand or truncated in transit — see
    /// [`HuffmanEncoded::try_decode`] for the checked variant).
    pub fn decode(&self) -> Vec<u8> {
        self.try_decode().expect("huffman bitstream consistent with its code table")
    }

    /// Bounds-checked decode: `None` when the code table describes no
    /// prefix code, the bitstream runs out before `len` symbols were
    /// produced, or a code exceeds the table's depth. Allocates nothing
    /// for a `len` the bitstream cannot hold (a symbol costs at least one
    /// bit).
    pub fn try_decode(&self) -> Option<Vec<u8>> {
        if self.len == 0 {
            return Some(Vec::new());
        }
        if self.len > 8 * self.bits.len() {
            return None;
        }
        let codes = canonical_codes(&self.code_lengths)?;
        // build a simple (code,len) → symbol map
        let mut by_len: Vec<Vec<(u32, u8)>> = vec![Vec::new(); MAX_CODE_LEN as usize + 1];
        for (s, &(code, len)) in codes.iter().enumerate() {
            if len > 0 {
                by_len[len as usize].push((code, s as u8));
            }
        }
        for v in &mut by_len {
            v.sort_unstable();
        }

        let mut out = Vec::with_capacity(self.len);
        let mut code = 0u32;
        let mut len = 0u8;
        let mut bit_pos = 0usize;
        while out.len() < self.len {
            let byte = *self.bits.get(bit_pos / 8)?;
            let bit = (byte >> (7 - (bit_pos % 8))) & 1;
            bit_pos += 1;
            code = (code << 1) | bit as u32;
            len += 1;
            if len > MAX_CODE_LEN {
                return None;
            }
            if let Ok(found) = by_len[len as usize].binary_search_by_key(&code, |e| e.0) {
                out.push(by_len[len as usize][found].1);
                code = 0;
                len = 0;
            }
        }
        Some(out)
    }

    /// Serialises the codec to a flat, self-delimiting frame (code-length
    /// table, symbol count, packed bitstream) so callers can embed a
    /// Huffman block inside their own wire formats — the delta-checkpoint
    /// encoding in [`crate::delta`] does exactly this.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.code_lengths.len() + 8 + self.bits.len());
        out.extend_from_slice(&(self.code_lengths.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.code_lengths);
        out.extend_from_slice(&(self.len as u32).to_le_bytes());
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Parses a frame written by [`HuffmanEncoded::to_bytes`], returning
    /// the codec and the number of bytes consumed. `None` on truncation,
    /// a table that is no prefix code, or an inconsistent bitstream.
    ///
    /// Never panics, and never allocates more than a small multiple of
    /// `bytes.len()`: the table and bitstream lengths are checked against
    /// the bytes that remain, and the symbol count against the bitstream
    /// (see [`HuffmanEncoded::try_decode`]), before anything is reserved.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Self, usize)> {
        let mut r = Reader::new(bytes);
        let decoded = Self::read(&mut r)?;
        Some((decoded, bytes.len() - r.remaining()))
    }

    /// Reads one block off a caller's cursor — how [`crate::delta`] embeds
    /// a Huffman block in its own frame.
    pub(crate) fn read(r: &mut Reader<'_>) -> Option<Self> {
        let table_len = r.u16().ok()? as usize;
        if table_len > 256 {
            return None;
        }
        let code_lengths = r.bytes(table_len).ok()?.to_vec();
        let len = r.u32().ok()? as usize;
        let bits_len = r.u32().ok()? as usize;
        let bits = r.bytes(bits_len).ok()?.to_vec();
        let decoded = Self { code_lengths, bits, len };
        decoded.try_decode()?;
        Some(decoded)
    }

    /// Encoded size in bytes (bitstream + one length byte per symbol slot
    /// actually used, the canonical-table representation).
    pub fn storage_bytes(&self) -> u64 {
        let table = self.code_lengths.iter().filter(|&&l| l > 0).count().max(1);
        self.bits.len() as u64 + table as u64 + 2
    }

    /// Number of encoded symbols.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no symbols were encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let data = b"abracadabra".to_vec();
        let enc = HuffmanEncoded::encode(&data);
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn round_trip_single_symbol() {
        let data = vec![7u8; 100];
        let enc = HuffmanEncoded::encode(&data);
        assert_eq!(enc.decode(), data);
        // 100 symbols at 1 bit = 13 bytes of stream
        assert!(enc.storage_bytes() < 20);
    }

    #[test]
    fn round_trip_empty() {
        let enc = HuffmanEncoded::encode(&[]);
        assert!(enc.is_empty());
        assert_eq!(enc.decode(), Vec::<u8>::new());
    }

    #[test]
    fn skewed_distribution_compresses_well() {
        // 90% zeros (like a pruned-and-quantized index stream)
        let mut data = vec![0u8; 900];
        data.extend((0..100).map(|i| (i % 15 + 1) as u8));
        let enc = HuffmanEncoded::encode(&data);
        assert_eq!(enc.decode(), data);
        assert!(
            enc.storage_bytes() < data.len() as u64 / 3,
            "skewed stream should compress ≥3×: {} vs {}",
            enc.storage_bytes(),
            data.len()
        );
    }

    #[test]
    fn uniform_distribution_compresses_little() {
        let data: Vec<u8> = (0..1024).map(|i| (i % 256) as u8).collect();
        let enc = HuffmanEncoded::encode(&data);
        assert_eq!(enc.decode(), data);
        assert!(enc.storage_bytes() >= data.len() as u64, "uniform bytes are incompressible");
    }

    #[test]
    fn prefix_property_holds() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let enc = HuffmanEncoded::encode(&data);
        let codes = canonical_codes(&enc.code_lengths).expect("encoder-built table");
        let used: Vec<(u32, u8)> = codes.iter().cloned().filter(|&(_, l)| l > 0).collect();
        for (i, &(ca, la)) in used.iter().enumerate() {
            for &(cb, lb) in used.iter().skip(i + 1) {
                let (short, slen, long, llen) =
                    if la <= lb { (ca, la, cb, lb) } else { (cb, lb, ca, la) };
                if slen == llen {
                    assert_ne!(short, long, "duplicate code");
                } else {
                    assert_ne!(
                        long >> (llen - slen),
                        short,
                        "code {short:0slen$b} is a prefix of {long:0llen$b}",
                        slen = slen as usize,
                        llen = llen as usize
                    );
                }
            }
        }
    }

    /// A Fibonacci frequency table's optimal tree is one symbol deeper per
    /// symbol; over 40 symbols it is 39 deep, past what a `u32` code holds.
    #[test]
    fn fibonacci_skewed_counts_are_limited_to_32_bit_codes() {
        let mut freqs = vec![0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in &mut freqs[..40] {
            *f = a;
            (a, b) = (b, a + b);
        }
        assert!(tree_lengths(&freqs).iter().any(|&l| l > MAX_CODE_LEN));
        let lengths = code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN), "{lengths:?}");
        assert!(lengths[..40].iter().all(|&l| l > 0) && lengths[40..].iter().all(|&l| l == 0));
        assert!(canonical_codes(&lengths).is_some());
    }

    /// A 13-byte block with a code length of 200: at the parent commit
    /// `try_decode` indexed its 33-slot length table with it and panicked.
    #[test]
    fn from_bytes_rejects_tables_that_are_no_prefix_code() {
        let block = |table: &[u8], len: u32, bits: &[u8]| {
            let mut f = (table.len() as u16).to_le_bytes().to_vec();
            f.extend_from_slice(table);
            f.extend_from_slice(&len.to_le_bytes());
            f.extend_from_slice(&(bits.len() as u32).to_le_bytes());
            f.extend_from_slice(bits);
            f
        };
        let overlong = block(&[200], 1, &[0, 0]);
        assert_eq!(overlong.len(), 13);
        assert_eq!(HuffmanEncoded::from_bytes(&overlong), None);
        assert_eq!(HuffmanEncoded::from_bytes(&block(&[33], 1, &[0; 8])), None);
        // three one-bit codes, and a full tree with one code too many
        assert_eq!(HuffmanEncoded::from_bytes(&block(&[1, 1, 1], 1, &[0])), None);
        assert_eq!(HuffmanEncoded::from_bytes(&block(&[1, 2, 2, 32], 1, &[0])), None);
        // more symbols than the bitstream has bits: nothing is reserved
        assert_eq!(HuffmanEncoded::from_bytes(&block(&[1], u32::MAX, &[0; 4])), None);
        // a table wider than the byte alphabet
        assert_eq!(HuffmanEncoded::from_bytes(&block(&[0; 257], 0, &[])), None);
        // the same shapes, well-formed, still decode: codes 0, 10, 11
        let (ok, used) = HuffmanEncoded::from_bytes(&block(&[1, 2, 2], 3, &[0b0101_1000]))
            .expect("complete prefix code");
        assert_eq!((ok.decode(), used), (vec![0, 1, 2], 2 + 3 + 8 + 1));
    }

    #[test]
    fn expected_length_beats_fixed_width_on_skew() {
        let mut data = Vec::new();
        for (sym, count) in [(0u8, 800), (1, 100), (2, 60), (3, 40)] {
            data.extend(std::iter::repeat_n(sym, count));
        }
        let enc = HuffmanEncoded::encode(&data);
        let fixed_bits = data.len() * 2; // 4 symbols = 2 bits fixed
        let huff_bits = enc.bits.len() * 8;
        assert!(huff_bits < fixed_bits, "{huff_bits} vs {fixed_bits}");
        assert_eq!(enc.decode(), data);
    }
}
