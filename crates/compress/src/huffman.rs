//! Canonical Huffman codec — the final stage of Deep Compression
//! (reference [28]), squeezing the skewed quantization-index stream.

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

/// Computes Huffman code lengths from symbol frequencies.
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
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

/// Assigns canonical codes (symbol-ordered within each length).
fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u8)> {
    let max_len = lengths.iter().cloned().max().unwrap_or(0);
    let mut codes = vec![(0u32, 0u8); lengths.len()];
    let mut code = 0u32;
    for len in 1..=max_len {
        for (s, &l) in lengths.iter().enumerate() {
            if l == len {
                codes[s] = (code, len);
                code += 1;
            }
        }
        code <<= 1;
    }
    codes
}

impl HuffmanEncoded {
    /// Encodes a symbol stream (symbols must be `u8`).
    pub fn encode(symbols: &[u8]) -> Self {
        let mut freqs = vec![0u64; 256];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);

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

    /// Bounds-checked decode: `None` when the bitstream runs out before
    /// `len` symbols were produced or a code exceeds the table's depth.
    pub fn try_decode(&self) -> Option<Vec<u8>> {
        if self.len == 0 {
            return Some(Vec::new());
        }
        let codes = canonical_codes(&self.code_lengths);
        // build a simple (code,len) → symbol map
        let mut by_len: Vec<Vec<(u32, u8)>> = vec![Vec::new(); 33];
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
            if len > 32 {
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
    /// the codec and the number of bytes consumed. `None` on truncation
    /// or an inconsistent bitstream.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Self, usize)> {
        let table_len = u16::from_le_bytes(bytes.get(0..2)?.try_into().ok()?) as usize;
        let mut pos = 2;
        let code_lengths = bytes.get(pos..pos + table_len)?.to_vec();
        pos += table_len;
        let len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let bits_len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let bits = bytes.get(pos..pos + bits_len)?.to_vec();
        pos += bits_len;
        let decoded = Self { code_lengths, bits, len };
        decoded.try_decode()?;
        Some((decoded, pos))
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
        let codes = canonical_codes(&enc.code_lengths);
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
