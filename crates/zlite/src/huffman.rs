//! Canonical Huffman coding with length-limited code construction.
//!
//! Codes are canonical (assigned in order of increasing length, then symbol)
//! so only the per-symbol lengths need to be transmitted. Encoded bits are
//! written MSB-of-code-first into the LSB-first bit stream — i.e. the code is
//! bit-reversed before writing, exactly as DEFLATE does — which lets the
//! decoder use a prefix lookup table on peeked bits.
//!
//! The [`Decoder`] is built for reuse: [`Decoder::rebuild`] refills its
//! flat tables in place from a new set of code lengths, with a counting
//! sort instead of a comparison sort and no allocation once its buffers
//! have grown. Its fast table is indexed by the next `min(max_len, 10)`
//! bits, so the short codes of small streams (a mean `max_len` under 10
//! for literal/length and under 5 for distance codes on the RLZ factor
//! streams) pay for a table sized to them, not a fixed 1 024 entries.
//! Codes longer than the table, and the patterns a Kraft-incomplete code
//! leaves unassigned, take a canonical walk over the per-length counts;
//! the latter decode as [`CodecError::Corrupt`].

use rlz_codecs::bitio::{BitReader, BitWriter};
use rlz_codecs::{CodecError, Result};

/// Maximum code length this implementation transmits (5 bits in headers).
pub const MAX_CODE_LEN: u8 = 20;

/// Width of the decoder's fast prefix table.
const FAST_BITS: u32 = 10;

/// Builds length-limited Huffman code lengths for `freqs`.
///
/// Symbols with zero frequency get length 0 (absent). If only one symbol is
/// present it is assigned length 1. When the optimal tree exceeds
/// `MAX_CODE_LEN`, frequencies are repeatedly halved (rounding up) and the
/// tree rebuilt — a standard dampening trick that converges quickly and
/// costs a negligible fraction of optimality.
pub fn build_lengths(freqs: &[u32]) -> Vec<u8> {
    let mut damped: Vec<u64> = freqs.iter().map(|&f| f as u64).collect();
    loop {
        let lens = huffman_lengths(&damped);
        if lens.iter().all(|&l| l <= MAX_CODE_LEN) {
            return lens;
        }
        for f in damped.iter_mut() {
            if *f > 0 {
                *f = (*f).div_ceil(2);
            }
        }
    }
}

/// Unrestricted Huffman code lengths by the classic two-queue method.
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    let n = freqs.len();
    let mut lens = vec![0u8; n];
    let present: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match present.len() {
        0 => return lens,
        1 => {
            lens[present[0]] = 1;
            return lens;
        }
        _ => {}
    }
    // Heap of (weight, node). Leaves are 0..n, internal nodes follow.
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    // parent[] for leaves and internal nodes; leaves are slots 0..m,
    // internal nodes m..2m-1.
    let m = present.len();
    let mut parent = vec![usize::MAX; 2 * m];
    let mut leaf_slot = vec![usize::MAX; n]; // leaf symbol -> tree slot
    for (slot, &sym) in present.iter().enumerate() {
        leaf_slot[sym] = slot;
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(m);
    for (slot, &sym) in present.iter().enumerate() {
        heap.push(Node {
            weight: freqs[sym],
            id: slot,
        });
    }
    let mut next_internal = m;
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        parent[a.id] = next_internal;
        parent[b.id] = next_internal;
        heap.push(Node {
            weight: a.weight + b.weight,
            id: next_internal,
        });
        next_internal += 1;
    }
    // Depth of each leaf = chain length to the root.
    for &sym in &present {
        let mut depth = 0u32;
        let mut node = leaf_slot[sym];
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lens[sym] = depth.min(255) as u8;
    }
    lens
}

/// Canonical code assignment: returns the code (not bit-reversed) per symbol.
fn canonical_codes(lens: &[u8]) -> Result<Vec<u32>> {
    let max_len = lens.iter().copied().max().unwrap_or(0) as usize;
    let mut count = vec![0u32; max_len + 1];
    for &l in lens {
        count[l as usize] += 1;
    }
    count[0] = 0;
    // Kraft check: the code must not be over-subscribed.
    let mut code = 0u32;
    let mut next_code = vec![0u32; max_len + 2];
    for bits in 1..=max_len {
        code = (code + count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    // Over-subscription check.
    let mut kraft: u64 = 0;
    for (bits, &c) in count.iter().enumerate().skip(1) {
        kraft += (c as u64) << (max_len - bits);
    }
    if max_len > 0 && kraft > 1u64 << max_len {
        return Err(CodecError::Corrupt("huffman code over-subscribed"));
    }
    let mut codes = vec![0u32; lens.len()];
    for (sym, &len) in lens.iter().enumerate() {
        if len > 0 {
            codes[sym] = next_code[len as usize];
            next_code[len as usize] += 1;
        }
    }
    Ok(codes)
}

#[inline]
fn reverse_bits(code: u32, len: u8) -> u32 {
    code.reverse_bits() >> (32 - len as u32)
}

/// Symbol-to-bits encoder for one canonical code.
#[derive(Debug)]
pub struct Encoder {
    /// Bit-reversed codes, ready for LSB-first emission.
    codes: Vec<u32>,
    lens: Vec<u8>,
}

impl Encoder {
    /// Builds an encoder from per-symbol code lengths.
    pub fn from_lengths(lens: &[u8]) -> Result<Self> {
        let codes = canonical_codes(lens)?;
        let rev: Vec<u32> = codes
            .iter()
            .zip(lens)
            .map(|(&c, &l)| if l == 0 { 0 } else { reverse_bits(c, l) })
            .collect();
        Ok(Encoder {
            codes: rev,
            lens: lens.to_vec(),
        })
    }

    /// Emits the code for `sym`.
    #[inline]
    pub fn write(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lens[sym];
        debug_assert!(len > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym] as u64, len as u32);
    }

    /// Code length of `sym` in bits (0 when absent).
    #[inline]
    pub fn len(&self, sym: usize) -> u8 {
        self.lens[sym]
    }

    /// Total encoded size in bits of a frequency histogram under this code.
    pub fn cost_bits(&self, freqs: &[u32]) -> u64 {
        freqs
            .iter()
            .zip(&self.lens)
            .map(|(&f, &l)| f as u64 * l as u64)
            .sum()
    }
}

/// Largest alphabet a [`Decoder`] takes: a fast-table entry keeps the
/// symbol in the 11 bits above its 5-bit length.
const MAX_SYMBOLS: usize = 1 << 11;

/// Fast-table slot that no code of at most `fast_bits` bits owns: the code
/// there is longer, or — in a Kraft-incomplete code — there is none.
const SLOW: u16 = u16::MAX;

/// Table-driven canonical Huffman decoder whose tables are rebuilt in place.
///
/// A decoder starts empty ([`Default`]) and is refilled per block by
/// [`Decoder::rebuild`]; its buffers keep their high-water capacity, so a
/// warm rebuild allocates nothing. The fast table has `2^min(max_len, 10)`
/// slots, so a code of at most ten bits decodes with one lookup and a short
/// code pays for a short table. Longer codes, and bit patterns an
/// incomplete code leaves unassigned, take a canonical walk over the
/// per-length counts.
#[derive(Debug, Default)]
pub struct Decoder {
    /// Indexed by the next `log2(fast.len())` input bits (LSB-first):
    /// `(sym << 5) | len`, or [`SLOW`]. Empty until the first rebuild.
    fast: Vec<u16>,
    /// Codes per length.
    count: [u16; MAX_CODE_LEN as usize + 1],
    /// First canonical code of each length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// Index into `syms` of the first symbol of each length.
    first_sym: [u16; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    syms: Vec<u16>,
    max_len: u8,
}

impl Decoder {
    /// Builds a decoder from per-symbol code lengths.
    pub fn from_lengths(lens: &[u8]) -> Result<Self> {
        let mut decoder = Decoder::default();
        decoder.rebuild(lens)?;
        Ok(decoder)
    }

    /// Replaces this decoder's code with the one `lens` describes (one
    /// length per symbol, 0 = absent), reusing its buffers: a counting
    /// sort orders the symbols and only `2^min(max_len, 10)` fast slots are
    /// filled. Over-subscribed codes, empty codes and lengths above
    /// [`MAX_CODE_LEN`] are rejected, as are alphabets of more than 2 048
    /// symbols; incomplete codes are accepted and their unassigned
    /// patterns fail at decode time.
    pub fn rebuild(&mut self, lens: &[u8]) -> Result<()> {
        // Until it succeeds the decoder is empty and rejects every input.
        self.max_len = 0;
        self.fast.clear();
        if lens.len() > MAX_SYMBOLS {
            return Err(CodecError::Corrupt("huffman alphabet too large"));
        }
        let mut count = [0u16; MAX_CODE_LEN as usize + 1];
        for &len in lens {
            let slot = count
                .get_mut(len as usize)
                .ok_or(CodecError::Corrupt("huffman code length exceeds limit"))?;
            *slot += 1;
        }
        count[0] = 0;
        let max_len = count
            .iter()
            .rposition(|&c| c > 0)
            .ok_or(CodecError::Corrupt("huffman table is empty"))?;

        // Canonical layout, checking Kraft as it goes: `unused` is the
        // number of still-free codes of the current length.
        let mut unused = 1i32;
        let mut code = 0u32;
        let mut index = 0u16;
        for len in 1..=max_len {
            unused = (unused << 1) - count[len] as i32;
            if unused < 0 {
                return Err(CodecError::Corrupt("huffman code over-subscribed"));
            }
            code = (code + count[len - 1] as u32) << 1;
            self.first_code[len] = code;
            self.first_sym[len] = index;
            index += count[len];
        }
        self.count = count;

        let mut next = self.first_sym;
        self.syms.clear();
        self.syms.resize(index as usize, 0);
        for (sym, &len) in lens.iter().enumerate() {
            if len > 0 {
                self.syms[next[len as usize] as usize] = sym as u16;
                next[len as usize] += 1;
            }
        }

        // Every code of at most `fast_bits` bits owns the slots whose low
        // bits are its bit-reversed codeword; the rest stay SLOW, so no
        // slot keeps an entry from the previous code. The table grows a
        // length at a time: doubling the `2^(len-1)` slots filled so far
        // repeats every shorter code's entry at its period, then each
        // `len`-bit code is stored once, in a slot still SLOW.
        self.fast.resize(1, SLOW);
        let mut run_start = 0;
        let by_len = count.iter().zip(&self.first_code).enumerate();
        for (len, (&n, &first_code)) in by_len.take(max_len.min(FAST_BITS as usize) + 1).skip(1) {
            self.fast.extend_from_within(..);
            let run = &self.syms[run_start..run_start + n as usize];
            run_start += n as usize;
            for (code, &sym) in (first_code..).zip(run) {
                self.fast[reverse_bits(code, len as u8) as usize] = (sym << 5) | len as u16;
            }
        }
        self.max_len = max_len as u8;
        Ok(())
    }

    /// Longest code length in bits.
    #[inline]
    pub fn max_len(&self) -> u32 {
        self.max_len as u32
    }

    /// Decodes one symbol, refilling the reader as needed.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let (sym, len) = self.lookup(r.peek_bits_padded(self.max_len()))?;
        r.consume_bits(len)?;
        Ok(sym)
    }

    /// Looks up the symbol the buffered bits start with, returning it and
    /// its code length without consuming anything: the caller guarantees at
    /// least [`Decoder::max_len`] buffered bits (see [`BitReader::top_up`])
    /// and takes the code length itself.
    #[inline]
    pub fn peek(&self, r: &BitReader<'_>) -> Result<(u16, u32)> {
        self.lookup(r.peek_buffered(self.max_len()))
    }

    /// Maps the next `max_len` input bits (LSB-first, zero-padded) to the
    /// symbol they start with and its code length.
    #[inline]
    fn lookup(&self, bits: u64) -> Result<(u16, u32)> {
        let slot = bits as usize & self.fast.len().wrapping_sub(1);
        let entry = self.fast.get(slot).copied().unwrap_or(SLOW);
        if entry != SLOW {
            return Ok((entry >> 5, (entry & 0x1F) as u32));
        }
        // Canonical walk: accumulate the code MSB-first, one length at a
        // time, until it falls inside that length's range.
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | ((bits >> (len - 1)) & 1) as u32;
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] as u32 {
                let sym = self.syms[self.first_sym[len] as usize + offset as usize];
                return Ok((sym, len as u32));
            }
        }
        Err(CodecError::Corrupt("invalid huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(lens: &[u8], symbols: &[usize]) {
        let enc = Encoder::from_lengths(lens).unwrap();
        let dec = Decoder::from_lengths(lens).unwrap();
        let mut w = BitWriter::new();
        for &s in symbols {
            enc.write(&mut w, s);
        }
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0, 0, 0, 0]); // decoder peek padding
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn two_symbol_code() {
        roundtrip(&[1, 1], &[0, 1, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn skewed_code_roundtrip() {
        let freqs = [1000u32, 500, 250, 125, 60, 30, 15, 8, 4, 2, 1, 1];
        let lens = build_lengths(&freqs);
        let symbols: Vec<usize> = (0..12)
            .flat_map(|s| std::iter::repeat_n(s, 12 - s))
            .collect();
        roundtrip(&lens, &symbols);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lens = build_lengths(&[0, 7, 0]);
        assert_eq!(lens, vec![0, 1, 0]);
        roundtrip(&lens, &[1, 1, 1]);
    }

    #[test]
    fn lengths_satisfy_kraft_equality_when_complete() {
        let freqs: Vec<u32> = (1..=64).collect();
        let lens = build_lengths(&freqs);
        let max = *lens.iter().max().unwrap() as u32;
        let kraft: u64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max - l as u32))
            .sum();
        assert_eq!(kraft, 1u64 << max, "complete code expected");
    }

    #[test]
    fn length_limit_is_enforced() {
        // Fibonacci-like frequencies force deep optimal trees.
        let mut freqs = vec![0u32; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a.min(u32::MAX as u64) as u32;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = build_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        // Code must still be decodable.
        let symbols: Vec<usize> = (0..40).collect();
        roundtrip(&lens, &symbols);
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three codes of length 1 cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(Encoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn long_codes_use_slow_path() {
        // Explicit canonical lengths 1,2,...,14,15,15: Kraft-complete with
        // several codes beyond the 10-bit fast table.
        let mut lens: Vec<u8> = (1..=15).collect();
        lens.push(15);
        assert!(lens.iter().any(|&l| l as u32 > 10));
        let symbols: Vec<usize> = (0..lens.len()).cycle().take(500).collect();
        roundtrip(&lens, &symbols);
    }

    #[test]
    fn garbage_bits_yield_error_not_panic() {
        let dec = Decoder::from_lengths(&[2, 2, 2, 0, 3, 3]).unwrap();
        // Kraft-incomplete code: some bit patterns are invalid.
        let bytes = [0xFFu8, 0xFF, 0xFF, 0xFF];
        let mut r = BitReader::new(&bytes);
        let mut saw_err = false;
        for _ in 0..16 {
            if dec.decode(&mut r).is_err() {
                saw_err = true;
                break;
            }
        }
        // Either an invalid code or clean decoding is fine; no panic is the
        // property. (With this table 0b11 prefixes are undefined.)
        assert!(saw_err);
    }
}
