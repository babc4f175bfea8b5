//! `zlite` — a DEFLATE-class general-purpose compressor.
//!
//! This crate is the workspace's stand-in for zlib, which the paper uses
//! both as the block compressor of its baselines and as the `Z` coder for
//! RLZ position/length streams. The architecture matches deflate:
//!
//! * LZ77 over a 32 KB sliding window with hash-chain match finding and
//!   one-step-lazy evaluation ([`lz77`]),
//! * canonical, length-limited Huffman coding of literal/length and
//!   distance symbols ([`huffman`]), with RFC 1951's length/distance code
//!   tables ([`tables`]),
//! * per-block choice between stored, fixed-code and dynamic-code encoding,
//!   whichever is smallest.
//!
//! The container format is this crate's own (there is no zlib to interoperate
//! with offline), but window size, token structure and asymptotics mirror
//! deflate, so it reproduces the properties the paper's evaluation relies
//! on: a window far too small to capture cross-document redundancy, fast
//! decoding, and per-block decode start-up cost.
//!
//! # Decoding
//!
//! The RLZ store inflates two small streams per `Z`-coded document get, so
//! per-stream start-up cost matters as much as per-byte speed:
//!
//! * **Scratch.** [`decompress_into`] takes an [`InflateScratch`] holding
//!   both Huffman decoders and the code-length array. A dynamic block
//!   refills them in place ([`huffman::Decoder::rebuild`]: a counting sort
//!   and a fast table of `2^min(max_len, 10)` slots), so a warm decode
//!   allocates nothing. The fixed block type's decoders are built once per
//!   process.
//! * **Refill once per token.** The bit reader refills a 64-bit word at a
//!   time and buffers at least 56 bits while 8 input bytes remain. A token
//!   takes at most 48 bits when both codes are at most 15 bits long: a
//!   15-bit literal/length code, 5 length extra bits, a 15-bit distance
//!   code and 13 distance extra bits. So after one top-up that buffers 48
//!   bits, the whole token is read with no refill and no end-of-input
//!   check, and the next code is looked up before the following top-up.
//!   Over the last bytes of the input, or when a code is longer than 15
//!   bits, every read is checked instead. The dynamic header's 5-bit code
//!   lengths take checked reads, several from each refilled word.
//! * **Copies.** The output keeps 8 writable bytes of slack past what it
//!   has granted, so a match at distance `d ≥ 8` is copied in whole 8-byte
//!   chunks; a shorter period copies doubling runs with `copy_within`.
//!
//! # Example
//!
//! ```
//! let data = b"hello hello hello hello hello".repeat(10);
//! let compressed = rlz_zlite::compress(&data, rlz_zlite::Level::Default);
//! assert!(compressed.len() < data.len());
//! assert_eq!(rlz_zlite::decompress(&compressed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod huffman;
pub mod lz77;
pub mod tables;

pub use lz77::Level;

use huffman::{Decoder, Encoder};
use lz77::{MatchFinder, Token};
use rlz_codecs::bitio::{BitReader, BitWriter};
use rlz_codecs::{vbyte, CodecError};
use std::sync::OnceLock;
use tables::{
    dist_code, length_code, DIST_BASE, DIST_EXTRA, EOB, LENGTH_BASE, LENGTH_EXTRA, NUM_DIST,
    NUM_LITLEN,
};

/// Errors returned by [`decompress`].
pub type Error = CodecError;
/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Block type tags (2 bits on the wire).
const BLOCK_STORED: u64 = 0;
const BLOCK_FIXED: u64 = 1;
const BLOCK_DYNAMIC: u64 = 2;

/// Tokens per block before the Huffman statistics are flushed.
const TOKENS_PER_BLOCK: usize = 1 << 15;

/// Code-length alphabet escape marking a run of zeros (6-bit run follows).
const LEN_RLE_ZERO_RUN: u64 = 31;

/// Compresses `data` at the given effort level.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 3 + 16);
    vbyte::write_u64(data.len() as u64, &mut out);
    if data.is_empty() {
        return out;
    }
    let mut w = BitWriter::new();
    let mut finder = MatchFinder::new(data.len(), level);
    let mut tokens: Vec<Token> = Vec::with_capacity(TOKENS_PER_BLOCK);
    let mut block_start = 0usize; // raw offset where the current block began
    let mut raw_pos = 0usize;

    // Tokenize the whole input, flushing a block whenever enough tokens
    // accumulate. Match distances may reach into previous blocks, exactly as
    // in deflate.
    let flush = |tokens: &mut Vec<Token>, w: &mut BitWriter, start: usize, end: usize| {
        write_block(w, tokens, &data[start..end]);
        tokens.clear();
    };
    finder.tokenize(data, |t| {
        raw_pos += match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => len as usize,
        };
        tokens.push(t);
        if tokens.len() >= TOKENS_PER_BLOCK {
            flush(&mut tokens, &mut w, block_start, raw_pos);
            block_start = raw_pos;
        }
    });
    if !tokens.is_empty() {
        flush(&mut tokens, &mut w, block_start, raw_pos);
    }
    debug_assert_eq!(raw_pos, data.len());
    w.finish_into(&mut out);
    // Padding so the decoder's fast-path peeks never see EOF.
    out.extend_from_slice(&[0u8; 4]);
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(data, &mut out, &mut InflateScratch::default())?;
    Ok(out)
}

/// Reusable decode state for [`decompress_into`]: the two Huffman decoders
/// a dynamic block rebuilds and the code lengths its header carries.
///
/// The decoders keep their table buffers between streams (see
/// [`Decoder::rebuild`]), so a caller that inflates many streams through one
/// scratch — the RLZ store keeps one per reader thread — builds every table
/// in place and allocates nothing once warm. The scratch carries no stream
/// state from one call to the next: every dynamic block rebuilds both
/// tables before it decodes a symbol.
#[derive(Debug)]
pub struct InflateScratch {
    litlen: Decoder,
    dist: Decoder,
    lens: [u8; NUM_LITLEN + NUM_DIST],
}

impl Default for InflateScratch {
    fn default() -> Self {
        InflateScratch {
            litlen: Decoder::default(),
            dist: Decoder::default(),
            lens: [0; NUM_LITLEN + NUM_DIST],
        }
    }
}

/// Decompresses a buffer produced by [`compress`] into `out`, **replacing**
/// its contents while reusing its capacity, with `scratch`'s tables.
///
/// This is the hot-path variant for callers that inflate many streams in a
/// loop (the RLZ store's `Z` position/length coders inflate one small
/// stream per document get): a reused buffer and scratch mean the inflate
/// pass does no heap allocation once warm. On error `out` may hold a
/// partial prefix.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>, scratch: &mut InflateScratch) -> Result<()> {
    out.clear();
    let mut pos = 0usize;
    let raw_len = vbyte::read_u64(data, &mut pos)? as usize;
    let mut r = BitReader::new(&data[pos..]);
    let mut w = Window::new(out, raw_len);
    let result = inflate_blocks(&mut r, &mut w, scratch);
    let written = w.pos;
    out.truncate(written);
    result
}

fn inflate_blocks(
    r: &mut BitReader<'_>,
    w: &mut Window<'_>,
    scratch: &mut InflateScratch,
) -> Result<()> {
    while w.pos < w.end {
        match r.read_bits(2)? {
            BLOCK_STORED => {
                r.align_byte();
                let count = read_vbyte_bits(r)? as usize;
                w.reserve(count)?;
                for b in &mut w.buf[w.pos..w.pos + count] {
                    *b = r.read_bits(8)? as u8;
                }
                w.pos += count;
            }
            BLOCK_FIXED => {
                let (litlen, dist) = fixed_decoders();
                inflate_block(r, litlen, dist, w)?;
            }
            BLOCK_DYNAMIC => {
                read_dynamic_header(r, scratch)?;
                inflate_block(r, &scratch.litlen, &scratch.dist, w)?;
            }
            _ => return Err(CodecError::Corrupt("invalid block type")),
        }
    }
    Ok(())
}

/// Bytes kept writable past the output's high-water mark, so a match copy
/// may move whole 8-byte chunks and let the last one run over.
const SLACK: usize = 8;

/// Largest output buffer allocated before a stream has produced the bytes
/// to justify it: the declared length is untrusted input.
const INITIAL_WINDOW: usize = 1 << 16;

/// The output of one stream: `buf[..pos]` is decoded, and `buf` always
/// extends [`SLACK`] bytes past what [`Window::reserve`] has granted, up to
/// the declared length `end`.
struct Window<'a> {
    buf: &'a mut Vec<u8>,
    pos: usize,
    end: usize,
}

impl<'a> Window<'a> {
    /// A window over the empty `buf`, for `end` output bytes.
    fn new(buf: &'a mut Vec<u8>, end: usize) -> Self {
        debug_assert!(buf.is_empty());
        buf.resize(end.min(INITIAL_WINDOW) + SLACK, 0);
        Window { buf, pos: 0, end }
    }

    /// Makes room for `n` more output bytes (plus the slack), failing when
    /// they would pass the declared length.
    #[inline]
    fn reserve(&mut self, n: usize) -> Result<()> {
        if n > self.buf.len() - SLACK - self.pos {
            self.grow(n)?;
        }
        Ok(())
    }

    #[cold]
    fn grow(&mut self, n: usize) -> Result<()> {
        if n > self.end - self.pos {
            return Err(CodecError::Corrupt("block overflows output"));
        }
        let granted = self.buf.len() - SLACK;
        let want = (self.pos + n).max(2 * granted).min(self.end);
        self.buf.resize(want + SLACK, 0);
        Ok(())
    }

    #[inline]
    fn literal(&mut self, b: u8) -> Result<()> {
        self.reserve(1)?;
        self.buf[self.pos] = b;
        self.pos += 1;
        Ok(())
    }

    /// Appends `len` bytes copied from `d` bytes back; the source may
    /// overlap the bytes being written (a run with period `d`).
    #[inline]
    fn copy_match(&mut self, len: usize, d: usize) -> Result<()> {
        if d > self.pos {
            return Err(CodecError::Corrupt("match reaches before stream start"));
        }
        self.reserve(len)?;
        let (pos, src) = (self.pos, self.pos - d);
        if d >= 8 {
            // Each chunk's source ends at or before the chunk being
            // written, so it is already decoded; the last chunk may spill
            // up to 7 bytes into the slack.
            for k in (0..len).step_by(8) {
                let chunk: [u8; 8] = self.buf[src + k..src + k + 8]
                    .try_into()
                    .expect("8-byte slice");
                self.buf[pos + k..pos + k + 8].copy_from_slice(&chunk);
            }
        } else {
            // Short period: every copy ends where the decoded run ends and
            // the run grows by what was copied, so chunks double.
            let mut done = 0;
            while done < len {
                let n = (len - done).min(d + done);
                self.buf.copy_within(src..src + n, pos + done);
                done += n;
            }
        }
        self.pos += len;
        Ok(())
    }
}

/// Fixed code lengths in the spirit of DEFLATE's fixed block type: strongly
/// useful for short inputs where a dynamic header would dominate.
fn fixed_litlen_lengths() -> Vec<u8> {
    let mut lens = vec![0u8; NUM_LITLEN];
    for (sym, len) in lens.iter_mut().enumerate() {
        *len = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lens
}

fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; NUM_DIST]
}

/// The fixed block type's decoders, built once per process.
fn fixed_decoders() -> &'static (Decoder, Decoder) {
    static FIXED: OnceLock<(Decoder, Decoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        (
            Decoder::from_lengths(&fixed_litlen_lengths()).expect("fixed lengths form a code"),
            Decoder::from_lengths(&fixed_dist_lengths()).expect("fixed lengths form a code"),
        )
    })
}

/// Writes one block, choosing the cheapest of stored / fixed / dynamic.
fn write_block(w: &mut BitWriter, tokens: &[Token], raw: &[u8]) {
    // Histogram the token stream.
    let mut lit_freq = vec![0u32; NUM_LITLEN];
    let mut dist_freq = vec![0u32; NUM_DIST];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (lc, _, _) = length_code(len as usize);
                lit_freq[257 + lc as usize] += 1;
                let (dc, _, _) = dist_code(dist as usize);
                dist_freq[dc as usize] += 1;
            }
        }
    }
    lit_freq[EOB as usize] += 1;

    let mut dyn_lit_lens = huffman::build_lengths(&lit_freq);
    let mut dyn_dist_lens = huffman::build_lengths(&dist_freq);
    // Guarantee a non-empty distance table so the decoder can always build.
    if dyn_dist_lens.iter().all(|&l| l == 0) {
        dyn_dist_lens[0] = 1;
    }
    if dyn_lit_lens.iter().all(|&l| l == 0) {
        dyn_lit_lens[EOB as usize] = 1;
    }

    let extra_bits: u64 = tokens
        .iter()
        .map(|t| match *t {
            Token::Literal(_) => 0u64,
            Token::Match { len, dist } => {
                length_code(len as usize).2 as u64 + dist_code(dist as usize).2 as u64
            }
        })
        .sum();

    let fixed_lit = fixed_litlen_lengths();
    let fixed_dist = fixed_dist_lengths();
    let payload_cost = |lit_lens: &[u8], dist_lens: &[u8]| -> u64 {
        let lit: u64 = lit_freq
            .iter()
            .zip(lit_lens)
            .map(|(&f, &l)| f as u64 * l as u64)
            .sum();
        let dist: u64 = dist_freq
            .iter()
            .zip(dist_lens)
            .map(|(&f, &l)| f as u64 * l as u64)
            .sum();
        lit + dist + extra_bits
    };

    let dynamic_cost = 2
        + header_cost_bits(&dyn_lit_lens)
        + header_cost_bits(&dyn_dist_lens)
        + 14
        + payload_cost(&dyn_lit_lens, &dyn_dist_lens);
    let fixed_cost = 2 + payload_cost(&fixed_lit, &fixed_dist);
    let stored_cost = 2 + 7 + (vbyte_len_u64(raw.len() as u64) as u64 + raw.len() as u64) * 8;

    if stored_cost < dynamic_cost && stored_cost < fixed_cost {
        w.write_bits(BLOCK_STORED, 2);
        align_writer(w);
        write_vbyte_bits(w, raw.len() as u64);
        for &b in raw {
            w.write_bits(b as u64, 8);
        }
        return;
    }
    let (lit_lens, dist_lens) = if fixed_cost <= dynamic_cost {
        w.write_bits(BLOCK_FIXED, 2);
        (fixed_lit, fixed_dist)
    } else {
        w.write_bits(BLOCK_DYNAMIC, 2);
        write_dynamic_header(w, &dyn_lit_lens, &dyn_dist_lens);
        (dyn_lit_lens, dyn_dist_lens)
    };
    let lit_enc = Encoder::from_lengths(&lit_lens).expect("valid built lengths");
    let dist_enc = Encoder::from_lengths(&dist_lens).expect("valid built lengths");
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_enc.write(w, b as usize),
            Token::Match { len, dist } => {
                let (lc, lextra, lbits) = length_code(len as usize);
                lit_enc.write(w, 257 + lc as usize);
                w.write_bits(lextra as u64, lbits as u32);
                let (dc, dextra, dbits) = dist_code(dist as usize);
                dist_enc.write(w, dc as usize);
                w.write_bits(dextra as u64, dbits as u32);
            }
        }
    }
    lit_enc.write(w, EOB as usize);
}

/// Longest code either table may have for a token to fit [`TOKEN_BITS`].
const BUDGET_CODE_LEN: u32 = 15;

/// Most bits one token can take when both codes are at most
/// [`BUDGET_CODE_LEN`] bits: a length code, 5 length extra bits, a
/// distance code and 13 distance extra bits.
const TOKEN_BITS: u32 = 2 * BUDGET_CODE_LEN + 5 + 13;

/// Decodes tokens until end-of-block, appending raw bytes to `w`: from
/// topped-up words while the input and both codes allow it, then with
/// checked reads (over the last bytes of the input, or with a code longer
/// than [`BUDGET_CODE_LEN`]).
fn inflate_block(
    r: &mut BitReader<'_>,
    litlen: &Decoder,
    dist: &Decoder,
    w: &mut Window<'_>,
) -> Result<()> {
    if litlen.max_len().max(dist.max_len()) <= BUDGET_CODE_LEN
        && inflate_buffered(r, litlen, dist, w)?
    {
        return Ok(());
    }
    loop {
        let sym = litlen.decode(r)?;
        if sym < 256 {
            w.literal(sym as u8)?;
        } else if sym == EOB {
            return Ok(());
        } else {
            let (len, d) = read_match::<false>(r, sym, dist)?;
            w.copy_match(len, d)?;
        }
    }
}

/// The fast loop of [`inflate_block`]: tops the reader up once per token
/// and, while that leaves a whole token's [`TOKEN_BITS`] buffered, decodes
/// the token with no further refill or end-of-input check. Returns whether
/// it reached the end of the block; otherwise the rest of the block is
/// left for checked reads, starting at a token boundary.
fn inflate_buffered(
    r: &mut BitReader<'_>,
    litlen: &Decoder,
    dist: &Decoder,
    w: &mut Window<'_>,
) -> Result<bool> {
    if r.top_up() < TOKEN_BITS {
        return Ok(false);
    }
    let mut next = litlen.peek(r);
    loop {
        let (sym, code_len) = next?;
        r.take(code_len);
        if sym < 256 {
            // A literal leaves at least TOKEN_BITS - 15 bits, enough to
            // look the next code up before the refill rather than after.
            next = litlen.peek(r);
            w.literal(sym as u8)?;
            if r.top_up() < TOKEN_BITS {
                return Ok(false);
            }
            continue;
        }
        if sym == EOB {
            return Ok(true);
        }
        let (len, d) = read_match::<true>(r, sym, dist)?;
        w.copy_match(len, d)?;
        if r.top_up() < TOKEN_BITS {
            return Ok(false);
        }
        next = litlen.peek(r);
    }
}

/// Reads the rest of a match whose length symbol `sym` was just decoded:
/// the length's extra bits, the distance code and its extra bits. With
/// `BUFFERED` they are drawn from bits the caller has topped up (see
/// [`inflate_buffered`]); otherwise each read is checked.
#[inline(always)]
fn read_match<const BUFFERED: bool>(
    r: &mut BitReader<'_>,
    sym: u16,
    dist: &Decoder,
) -> Result<(usize, usize)> {
    let extra = |r: &mut BitReader<'_>, n: u8| {
        if BUFFERED {
            Ok(r.take(n as u32))
        } else {
            r.read_bits(n as u32)
        }
    };
    let lc = (sym - 257) as usize;
    if lc >= LENGTH_BASE.len() {
        return Err(CodecError::Corrupt("invalid length symbol"));
    }
    let len = LENGTH_BASE[lc] as usize + extra(r, LENGTH_EXTRA[lc])? as usize;
    let dsym = if BUFFERED {
        let (dsym, code_len) = dist.peek(r)?;
        r.take(code_len);
        dsym
    } else {
        dist.decode(r)?
    } as usize;
    if dsym >= DIST_BASE.len() {
        return Err(CodecError::Corrupt("invalid distance symbol"));
    }
    let d = DIST_BASE[dsym] as usize + extra(r, DIST_EXTRA[dsym])? as usize;
    Ok((len, d))
}

// --- dynamic header (code lengths with zero-run RLE) ---

fn header_cost_bits(lens: &[u8]) -> u64 {
    let mut bits = 9; // transmitted count
    let mut i = 0usize;
    let n = trimmed_len(lens);
    while i < n {
        if lens[i] == 0 {
            let mut run = 1usize;
            while i + run < n && lens[i + run] == 0 && run < 64 {
                run += 1;
            }
            bits += 5 + 6;
            i += run;
        } else {
            bits += 5;
            i += 1;
        }
    }
    bits
}

fn trimmed_len(lens: &[u8]) -> usize {
    lens.iter().rposition(|&l| l != 0).map_or(0, |p| p + 1)
}

fn write_dynamic_header(w: &mut BitWriter, lit_lens: &[u8], dist_lens: &[u8]) {
    for lens in [lit_lens, dist_lens] {
        let n = trimmed_len(lens);
        w.write_bits(n as u64, 9);
        let mut i = 0usize;
        while i < n {
            if lens[i] == 0 {
                let mut run = 1usize;
                while i + run < n && lens[i + run] == 0 && run < 64 {
                    run += 1;
                }
                w.write_bits(LEN_RLE_ZERO_RUN, 5);
                w.write_bits(run as u64 - 1, 6);
                i += run;
            } else {
                debug_assert!(lens[i] < 31);
                w.write_bits(lens[i] as u64, 5);
                i += 1;
            }
        }
    }
}

/// Reads a dynamic block's two code-length tables into `scratch` and
/// rebuilds its decoders from them.
fn read_dynamic_header(r: &mut BitReader<'_>, scratch: &mut InflateScratch) -> Result<()> {
    let (lit_lens, dist_lens) = scratch.lens.split_at_mut(NUM_LITLEN);
    read_code_lengths(r, lit_lens)?;
    read_code_lengths(r, dist_lens)?;
    scratch.litlen.rebuild(lit_lens)?;
    scratch.dist.rebuild(dist_lens)
}

/// Reads one table's transmitted count and code lengths into `lens`,
/// zeroing the symbols the table leaves out.
fn read_code_lengths(r: &mut BitReader<'_>, lens: &mut [u8]) -> Result<()> {
    let n = r.read_bits(9)? as usize;
    if n > lens.len() {
        return Err(CodecError::Corrupt("code length count out of range"));
    }
    lens.fill(0);
    let mut i = 0usize;
    while i < n {
        // `read_bits` tops the reader up a word at a time, so one refill
        // serves several entries.
        let v = r.read_bits(5)?;
        if v == LEN_RLE_ZERO_RUN {
            let run = r.read_bits(6)? as usize + 1;
            if run > n - i {
                return Err(CodecError::Corrupt("zero run overflows table"));
            }
            i += run;
        } else {
            lens[i] = v as u8;
            i += 1;
        }
    }
    Ok(())
}

// --- helpers for byte-ish values inside the bit stream ---

fn align_writer(w: &mut BitWriter) {
    let rem = (w.bit_len() % 8) as u32;
    if rem != 0 {
        w.write_bits(0, 8 - rem);
    }
}

fn write_vbyte_bits(w: &mut BitWriter, mut v: u64) {
    loop {
        let byte = v & 0x7F;
        v >>= 7;
        if v == 0 {
            w.write_bits(byte, 8);
            return;
        }
        w.write_bits(byte | 0x80, 8);
    }
}

fn read_vbyte_bits(r: &mut BitReader<'_>) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.read_bits(8)?;
        if shift >= 64 {
            return Err(CodecError::Corrupt("vbyte run too long"));
        }
        v |= (byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn vbyte_len_u64(v: u64) -> usize {
    let bits = 64 - v.leading_zeros().min(63);
    ((bits as usize).max(1)).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], level: Level) -> usize {
        let c = compress(data, level);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "level {level:?} len {}", data.len());
        c.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b"", Level::Default), 1);
    }

    #[test]
    fn tiny_inputs() {
        for data in [&b"a"[..], b"ab", b"abc", b"aaaa", b"\x00\xFF"] {
            for level in [Level::Fast, Level::Default, Level::Best] {
                roundtrip(data, level);
            }
        }
    }

    #[test]
    fn repetitive_text_compresses_hard() {
        let data = b"<html><head><title>page</title></head><body>".repeat(500);
        let n = roundtrip(&data, Level::Best);
        assert!(
            n < data.len() / 20,
            "expected >20x on boilerplate, got {} / {}",
            n,
            data.len()
        );
    }

    #[test]
    fn incompressible_data_stays_close_to_raw() {
        // xorshift noise: stored blocks should kick in.
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let n = roundtrip(&data, Level::Default);
        assert!(n < data.len() + data.len() / 50 + 64, "blowup: {n}");
    }

    #[test]
    fn english_like_text_ratio() {
        let sentence = b"the quick brown fox jumps over the lazy dog and runs away quickly. ";
        let data: Vec<u8> = sentence.iter().cycle().take(200_000).copied().collect();
        let n = roundtrip(&data, Level::Default);
        assert!(n < data.len() / 10);
    }

    #[test]
    fn multi_block_inputs() {
        // Force several blocks with shifting content.
        let mut data = Vec::new();
        for i in 0..40u32 {
            let chunk = format!(
                "section {i} body text {} end. ",
                "word ".repeat(i as usize % 17)
            );
            data.extend(chunk.bytes().cycle().take(9000));
        }
        for level in [Level::Fast, Level::Default, Level::Best] {
            roundtrip(&data, level);
        }
    }

    #[test]
    fn cross_block_matches_are_valid() {
        // Content repeating at a period near the block size exercises
        // distances that reach into the previous block.
        let unit: Vec<u8> = (0..29_000u32).map(|i| (i % 251) as u8).collect();
        let mut data = unit.clone();
        data.extend_from_slice(&unit);
        data.extend_from_slice(&unit);
        roundtrip(&data, Level::Best);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = b"some compressible data some compressible data".repeat(50);
        let c = compress(&data, Level::Default);
        for cut in [1usize, 2, c.len() / 2] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_header_errors() {
        let data = b"hello world hello world".repeat(20);
        let mut c = compress(&data, Level::Default);
        // Flip bits in the first block header region.
        c[2] ^= 0xFF;
        let _ = decompress(&c); // must not panic; error or garbage tolerated
                                // Declare a longer output than the stream encodes.
        let mut c2 = compress(&data, Level::Default);
        c2[0] = c2[0].wrapping_add(1);
        assert!(decompress(&c2).is_err());
    }

    #[test]
    fn levels_trade_ratio_for_effort() {
        let data: Vec<u8> = {
            // Mildly repetitive: levels should differ.
            let mut v = Vec::new();
            for i in 0..3000u32 {
                v.extend_from_slice(format!("entry-{:06} value={} ", i % 500, i % 37).as_bytes());
            }
            v
        };
        let fast = compress(&data, Level::Fast).len();
        let best = compress(&data, Level::Best).len();
        assert!(best <= fast, "best {best} > fast {fast}");
    }

    #[test]
    fn decompress_into_replaces_and_reuses_buffer() {
        let a = b"first payload first payload first payload".repeat(30);
        let b = b"x".to_vec();
        let ca = compress(&a, Level::Default);
        let cb = compress(&b, Level::Default);
        let mut buf = b"stale".to_vec();
        let mut scratch = InflateScratch::default();
        decompress_into(&ca, &mut buf, &mut scratch).unwrap();
        assert_eq!(buf, a);
        let cap = buf.capacity();
        decompress_into(&cb, &mut buf, &mut scratch).unwrap();
        assert_eq!(buf, b);
        assert_eq!(buf.capacity(), cap, "shrinking the buffer defeats reuse");
    }

    /// One dynamic block declaring `raw_len` output bytes, with the given
    /// literal/length code lengths, a one-symbol distance code, and a body
    /// written by `body`.
    fn dynamic_stream(raw_len: u64, lit_lens: &[u8], body: impl FnOnce(&mut BitWriter)) -> Vec<u8> {
        let mut out = Vec::new();
        vbyte::write_u64(raw_len, &mut out);
        let mut w = BitWriter::new();
        w.write_bits(BLOCK_DYNAMIC, 2);
        write_dynamic_header(&mut w, lit_lens, &[1]);
        body(&mut w);
        w.finish_into(&mut out);
        out.extend_from_slice(&[0u8; 4]);
        out
    }

    #[test]
    fn incomplete_code_after_a_complete_one_rejects_its_unassigned_pattern() {
        // Complete code: EOB = 0, 'a' = 10, 'b' = 11.
        let mut complete = vec![0u8; NUM_LITLEN];
        complete[EOB as usize] = 1;
        complete[b'a' as usize] = 2;
        complete[b'b' as usize] = 2;
        let first = dynamic_stream(2, &complete, |w| {
            let enc = Encoder::from_lengths(&complete).unwrap();
            enc.write(w, b'a' as usize);
            enc.write(w, b'b' as usize);
            enc.write(w, EOB as usize);
        });
        // Kraft-incomplete code of the same table size: 'a' = 0, EOB = 10,
        // and 11 — 'b' above — is assigned to nothing.
        let mut incomplete = vec![0u8; NUM_LITLEN];
        incomplete[b'a' as usize] = 1;
        incomplete[EOB as usize] = 2;
        let second = dynamic_stream(2, &incomplete, |w| {
            let enc = Encoder::from_lengths(&incomplete).unwrap();
            enc.write(w, b'a' as usize);
            w.write_bits(0b11, 2);
            enc.write(w, EOB as usize);
        });

        let mut scratch = InflateScratch::default();
        let mut out = Vec::new();
        decompress_into(&first, &mut out, &mut scratch).unwrap();
        assert_eq!(out, b"ab");
        let invalid = CodecError::Corrupt("invalid huffman code");
        assert_eq!(decompress(&second), Err(invalid.clone()), "fresh scratch");
        assert_eq!(
            decompress_into(&second, &mut out, &mut scratch),
            Err(invalid),
            "a stale 'b' entry must not decode"
        );
    }

    #[test]
    fn binary_with_zero_runs() {
        let mut data = vec![0u8; 10_000];
        data.extend((0..200).map(|i| i as u8));
        data.extend(vec![0xFFu8; 5_000]);
        roundtrip(&data, Level::Default);
    }
}
