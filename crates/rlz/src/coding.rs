//! Factor-stream coding (§3.4 of the paper).
//!
//! A document's factors are split into a *position* stream and a *length*
//! stream, each coded independently. The paper evaluates four combinations,
//! named by two letters (positions then lengths):
//!
//! * `U` — raw unsigned 32-bit integers,
//! * `V` — variable-byte code,
//! * `Z` — zlib applied per document to the raw 32-bit stream (here:
//!   `zlite` at best effort, matching the paper's "zlib with z best
//!   compression"),
//!
//! giving `ZZ`, `ZV`, `UZ`, `UV`. The paper's future-work section names two
//! more integer codes, and both are wired in:
//!
//! * `P` — PForDelta: `PV`, `PP` and `PS` are the smallest pairs on the
//!   measured (size, decode speed) frontier, the archival codings,
//! * `S` — Simple-9, kept as a length coder: `PS` is the smallest pair of
//!   all,
//!
//! and two post-paper codecs extend the family where modern entropy coding
//! has moved since 2011:
//!
//! * `F` — FSE/tANS entropy coding of the stream's variable-byte image
//!   (`rlz_fse::tans`): Z-class ratio with a table-driven decode loop that
//!   replaces zlib's per-bit Huffman walk,
//! * `L` — LZ4-style fast-literal compression of the raw 32-bit image
//!   (`rlz_fse::lz4`): decode at memcpy-class speed, ratio between `U`
//!   and `Z`.
//!
//! Wire format per document:
//! `vbyte(n_factors) · vbyte(|pos|) · pos bytes · vbyte(|len|) · len bytes`.
//!
//! # The fused decode pipeline
//!
//! Retrieval speed is the paper's headline claim (Tables 5 and 8): a
//! document get is one map lookup, one positioned read, and a factor decode
//! against the resident dictionary. Two decode paths serve that claim:
//!
//! * **Two-step oracle** — [`decode_document`] materialises a
//!   `Vec<Factor>`, then [`crate::factor::expand`] copies each factor with
//!   per-factor bounds checks. Simple, allocating, kept as the correctness
//!   baseline and benchmark ablation.
//! * **Fused** — [`decode_and_expand_scratch`] decodes both integer
//!   streams into a caller-owned [`DecodeScratch`] (two `u32` buffers plus
//!   the compressing coders' inflate buffer and reusable `Z`/`F` decode
//!   tables), reserves `out` once from the summed lengths, then expands
//!   the factors in a single copy pass that validates each one as it
//!   goes: factors of ≤ 16 bytes (the overwhelming majority per Figure 3)
//!   whose 16-byte window lies inside the dictionary take a fixed-width
//!   copy that the compiler lowers to two unconditional vector moves;
//!   longer factors are a checked `dict.get(pos..pos + len)` and a plain
//!   `memcpy`; literals must be byte values. A bad factor truncates
//!   `out` back to its length on entry, so an error appends nothing. A
//!   caller that reuses its scratch and output buffer — the store layer
//!   keeps one scratch per thread — performs **zero heap allocations** per
//!   steady-state document get.
//!
//! [`decode_and_expand`] wraps the fused path with a fresh scratch for
//! one-off callers. Both paths are byte-identical on every valid record
//! (asserted by tests and property tests), and both reject corrupt records
//! without panicking: header offsets are `checked_add`-guarded and factor
//! counts are validated against each stream's maximum possible density
//! before any value decoding happens.

use crate::factor::Factor;
use rlz_codecs::{fixed, pfor, simple9, vbyte, CodecError};
use std::cell::RefCell;
use std::fmt;

/// Coder for a single integer stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coder {
    /// `U`: little-endian `u32` (the paper's unsigned 32-bit baseline).
    U32,
    /// `V`: variable-byte code.
    VByte,
    /// `Z`: general-purpose compression (zlite, best effort) of the raw
    /// 32-bit stream — captures higher-order per-document patterns.
    Zlib,
    /// `S`: Simple-9 word-aligned code (future work in the paper).
    Simple9,
    /// `P`: PForDelta (future work in the paper).
    PFor,
    /// `F`: FSE/tANS entropy coding of the variable-byte image.
    Fse,
    /// `L`: LZ4-style fast-literal compression of the raw 32-bit image.
    Lz4,
}

/// The single source of truth for coder letters: every parse, letter
/// lookup and error message derives from this table.
const CODERS: [(char, Coder); 7] = [
    ('U', Coder::U32),
    ('V', Coder::VByte),
    ('Z', Coder::Zlib),
    ('S', Coder::Simple9),
    ('P', Coder::PFor),
    ('F', Coder::Fse),
    ('L', Coder::Lz4),
];

/// Error from parsing a coder letter or a two-letter pair-coding name.
///
/// The display form names the valid letters, so a CLI typo surfaces as an
/// actionable message instead of a silent `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseCodingError {
    /// The character does not name a coder.
    UnknownLetter(char),
    /// A pair-coding name must be exactly two letters; this was the actual
    /// character count.
    BadLength(usize),
}

impl fmt::Display for ParseCodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCodingError::UnknownLetter(c) => {
                write!(f, "unknown coder letter {c:?}; valid letters are ")?;
                for (i, (letter, _)) in CODERS.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{letter}")?;
                }
                Ok(())
            }
            ParseCodingError::BadLength(n) => {
                write!(f, "pair coding names are two letters, got {n} character(s)")
            }
        }
    }
}

impl std::error::Error for ParseCodingError {}

impl Coder {
    /// Every coder, in letter-table order.
    pub const ALL: [Coder; CODERS.len()] = {
        let mut all = [Coder::U32; CODERS.len()];
        let mut i = 0;
        while i < CODERS.len() {
            all[i] = CODERS[i].1;
            i += 1;
        }
        all
    };

    /// Parses the single-letter name used in the paper's tables
    /// (case-insensitive).
    pub fn parse(letter: char) -> Result<Coder, ParseCodingError> {
        let up = letter.to_ascii_uppercase();
        CODERS
            .iter()
            .find(|&&(l, _)| l == up)
            .map(|&(_, coder)| coder)
            .ok_or(ParseCodingError::UnknownLetter(letter))
    }

    /// The single-letter name.
    pub fn letter(&self) -> char {
        CODERS
            .iter()
            .find(|&&(_, c)| c == *self)
            .expect("every coder is in the letter table")
            .0
    }

    /// Encodes a value stream, appending to `out`.
    pub fn encode_stream(&self, values: &[u32], out: &mut Vec<u8>) {
        match self {
            Coder::U32 => fixed::FixedU32.encode(values, out),
            Coder::VByte => vbyte::VByte.encode(values, out),
            Coder::Simple9 => simple9::Simple9.encode(values, out),
            Coder::PFor => pfor::PForDelta.encode(values, out),
            Coder::Zlib => ENCODE_STAGE_SCRATCH.with(|cell| {
                // The raw u32 staging buffer is per-thread scratch: bulk
                // compression encodes millions of documents, and a fresh
                // `Vec` per document showed up as pure allocator traffic.
                let (raw, _) = &mut *cell.borrow_mut();
                raw.clear();
                fixed::FixedU32.encode(values, raw);
                let compressed = rlz_zlite::compress(raw, rlz_zlite::Level::Best);
                out.extend_from_slice(&compressed);
            }),
            Coder::Fse => ENCODE_STAGE_SCRATCH.with(|cell| {
                let (raw, comp) = &mut *cell.borrow_mut();
                raw.clear();
                vbyte::VByte.encode(values, raw);
                rlz_fse::tans::compress(raw, comp);
                out.extend_from_slice(comp);
            }),
            Coder::Lz4 => ENCODE_STAGE_SCRATCH.with(|cell| {
                let (raw, comp) = &mut *cell.borrow_mut();
                raw.clear();
                fixed::FixedU32.encode(values, raw);
                rlz_fse::lz4::compress(raw, comp);
                out.extend_from_slice(comp);
            }),
        }
    }

    /// Decodes exactly `n` values from `data`.
    pub fn decode_stream(&self, data: &[u8], n: usize) -> Result<Vec<u32>, CodecError> {
        let mut out = Vec::new();
        self.decode_stream_into(data, n, &mut out, &mut StreamScratch::default())?;
        Ok(out)
    }

    /// Decodes exactly `n` values from `data` into `out`, **replacing** its
    /// contents while reusing its capacity and `stage`'s buffers and
    /// tables. The zero-allocation entry point of the fused decode pipeline
    /// (see the module docs).
    pub fn decode_stream_into(
        &self,
        data: &[u8],
        n: usize,
        out: &mut Vec<u32>,
        stage: &mut StreamScratch,
    ) -> Result<(), CodecError> {
        let StreamScratch {
            inflate,
            fse,
            zlite,
        } = stage;
        out.clear();
        match self {
            Coder::U32 => fixed::FixedU32.decode(data, n, out),
            Coder::VByte => vbyte::VByte.decode(data, n, out).map(drop),
            Coder::Simple9 => simple9::Simple9.decode(data, n, out),
            Coder::PFor => pfor::PForDelta.decode(data, n, out),
            Coder::Zlib => {
                rlz_zlite::decompress_into(data, inflate, zlite)?;
                if Some(inflate.len()) != n.checked_mul(4) {
                    return Err(CodecError::Corrupt("Z stream count mismatch"));
                }
                fixed::FixedU32.decode(inflate, n, out)
            }
            Coder::Fse => {
                rlz_fse::tans::decompress_into(data, inflate, fse)?;
                // The inflate buffer holds the vbyte image; requiring the
                // decode to consume it exactly pins the value count.
                let consumed = vbyte::VByte.decode(inflate, n, out)?;
                if consumed != inflate.len() {
                    return Err(CodecError::Corrupt("F stream count mismatch"));
                }
                Ok(())
            }
            Coder::Lz4 => {
                rlz_fse::lz4::decompress_into(data, inflate)?;
                if Some(inflate.len()) != n.checked_mul(4) {
                    return Err(CodecError::Corrupt("L stream count mismatch"));
                }
                fixed::FixedU32.decode(inflate, n, out)
            }
        }
    }
}

/// Reusable state of the compressing coders' decoders: the buffer the `Z`,
/// `F` and `L` coders decompress into, the `F` coder's state table and the
/// `Z` coder's Huffman tables. The other coders leave it untouched.
#[derive(Debug, Default)]
pub struct StreamScratch {
    inflate: Vec<u8>,
    fse: rlz_fse::FseScratch,
    zlite: rlz_zlite::InflateScratch,
}

thread_local! {
    /// Per-thread staging buffers for `encode_stream`'s compressing coders:
    /// the raw integer image of the stream being compressed, and the coded
    /// form before it is appended to the record.
    static ENCODE_STAGE_SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A position/length coder pair, e.g. `ZV` = zlib positions, vbyte lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCoding {
    /// Coder for the position stream.
    pub pos: Coder,
    /// Coder for the length stream.
    pub len: Coder,
}

impl PairCoding {
    /// zlib positions, zlib lengths — best compression in the paper.
    pub const ZZ: PairCoding = PairCoding {
        pos: Coder::Zlib,
        len: Coder::Zlib,
    };
    /// zlib positions, vbyte lengths.
    pub const ZV: PairCoding = PairCoding {
        pos: Coder::Zlib,
        len: Coder::VByte,
    };
    /// raw u32 positions, zlib lengths.
    pub const UZ: PairCoding = PairCoding {
        pos: Coder::U32,
        len: Coder::Zlib,
    };
    /// raw u32 positions, vbyte lengths — fastest decoding in the paper.
    pub const UV: PairCoding = PairCoding {
        pos: Coder::U32,
        len: Coder::VByte,
    };

    /// FSE positions, FSE lengths — the modern-entropy answer to `ZZ`.
    pub const FF: PairCoding = PairCoding {
        pos: Coder::Fse,
        len: Coder::Fse,
    };
    /// FSE positions, vbyte lengths.
    pub const FV: PairCoding = PairCoding {
        pos: Coder::Fse,
        len: Coder::VByte,
    };
    /// LZ4 positions, LZ4 lengths — the fast-literal answer to `ZZ`.
    pub const LL: PairCoding = PairCoding {
        pos: Coder::Lz4,
        len: Coder::Lz4,
    };
    /// LZ4 positions, vbyte lengths.
    pub const LV: PairCoding = PairCoding {
        pos: Coder::Lz4,
        len: Coder::VByte,
    };

    /// PForDelta positions, vbyte lengths — the fastest archival coding.
    pub const PV: PairCoding = PairCoding {
        pos: Coder::PFor,
        len: Coder::VByte,
    };
    /// PForDelta positions, PForDelta lengths.
    pub const PP: PairCoding = PairCoding {
        pos: Coder::PFor,
        len: Coder::PFor,
    };
    /// PForDelta positions, Simple-9 lengths — the smallest coding on the
    /// measured frontier.
    pub const PS: PairCoding = PairCoding {
        pos: Coder::PFor,
        len: Coder::Simple9,
    };

    /// The four combinations evaluated in Tables 4, 5 and 8.
    pub const PAPER_SET: [PairCoding; 4] = [Self::ZZ, Self::ZV, Self::UZ, Self::UV];

    /// The paper's set plus the post-paper F/L pairs and the archival `P`
    /// pairs — what the record-level oracle-equality and hostility tests
    /// sweep.
    pub const EXTENDED_SET: [PairCoding; 11] = [
        Self::ZZ,
        Self::ZV,
        Self::UZ,
        Self::UV,
        Self::FF,
        Self::FV,
        Self::LL,
        Self::LV,
        Self::PV,
        Self::PP,
        Self::PS,
    ];

    /// Parses a two-letter name such as `"ZV"`.
    pub fn parse(name: &str) -> Result<PairCoding, ParseCodingError> {
        let mut chars = name.chars();
        match (chars.next(), chars.next(), chars.next()) {
            (Some(p), Some(l), None) => Ok(PairCoding {
                pos: Coder::parse(p)?,
                len: Coder::parse(l)?,
            }),
            _ => Err(ParseCodingError::BadLength(name.chars().count())),
        }
    }

    /// The two-letter name used in the paper's tables.
    pub fn name(&self) -> String {
        format!("{}{}", self.pos.letter(), self.len.letter())
    }
}

/// Encodes a factorized document.
pub fn encode_document(factors: &[Factor], coding: PairCoding) -> Vec<u8> {
    let mut out = Vec::new();
    encode_document_into(factors, coding, &mut EncodeScratch::new(), &mut out);
    out
}

/// Reusable buffers for the encode side, mirroring [`DecodeScratch`] on the
/// read side: the factor list of the document being compressed plus the
/// split position/length streams and their coded images. One scratch per
/// worker thread makes steady-state bulk compression allocation-free.
///
/// The scratch holds no document state between calls — any coding may share
/// one.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Factor buffer for [`crate::RlzCompressor::compress_with`]; cleared
    /// and refilled per document.
    pub(crate) factors: Vec<Factor>,
    positions: Vec<u32>,
    lengths: Vec<u32>,
    pos_bytes: Vec<u8>,
    len_bytes: Vec<u8>,
}

impl EncodeScratch {
    /// An empty scratch; buffers grow to the working-set size on first use.
    pub fn new() -> Self {
        EncodeScratch::default()
    }
}

/// Encodes a factorized document, appending to `out`. Byte-identical to
/// [`encode_document`]; the allocation-free entry point for bulk builders
/// that hold a per-thread [`EncodeScratch`].
pub fn encode_document_into(
    factors: &[Factor],
    coding: PairCoding,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    scratch.positions.clear();
    scratch.positions.extend(factors.iter().map(|f| f.pos));
    scratch.lengths.clear();
    scratch.lengths.extend(factors.iter().map(|f| f.len));
    scratch.pos_bytes.clear();
    coding
        .pos
        .encode_stream(&scratch.positions, &mut scratch.pos_bytes);
    scratch.len_bytes.clear();
    coding
        .len
        .encode_stream(&scratch.lengths, &mut scratch.len_bytes);

    out.reserve(scratch.pos_bytes.len() + scratch.len_bytes.len() + 12);
    vbyte::write_u32(factors.len() as u32, out);
    vbyte::write_u32(scratch.pos_bytes.len() as u32, out);
    out.extend_from_slice(&scratch.pos_bytes);
    vbyte::write_u32(scratch.len_bytes.len() as u32, out);
    out.extend_from_slice(&scratch.len_bytes);
}

/// Decodes an encoded document back to factors.
pub fn decode_document(data: &[u8], coding: PairCoding) -> Result<Vec<Factor>, CodecError> {
    let (positions, lengths) = decode_streams(data, coding)?;
    Ok(positions
        .into_iter()
        .zip(lengths)
        .map(|(pos, len)| Factor { pos, len })
        .collect())
}

/// Upper bound on how many decoded values one encoded stream byte can
/// yield, across every [`Coder`]. The densest case is the `Z` coder: a
/// DEFLATE-class match token can cost as little as ~2 bits and emit up to
/// 258 raw bytes, so one compressed byte can expand to ~1032 raw bytes =
/// 258 u32 values; the bit-packed coders top out far lower (PForDelta
/// width-0 ≈ 64 values/byte, Simple-9 7).
/// 1024 leaves headroom above all of them. Used to reject a corrupt factor
/// count before it drives any allocation or decoding.
const MAX_VALUES_PER_STREAM_BYTE: u64 = 1024;

impl Coder {
    /// Per-coder bound on decoded values per encoded stream byte, used by
    /// the record-header pre-pass. The `F` and `L` containers are exempt:
    /// an FSE symbol can cost a fraction of a bit (a constant stream codes
    /// in `~0` bits/value), so no useful static density bound exists —
    /// instead their decoders inflate with progressive reservation and the
    /// value count is validated against the container's own raw length.
    fn max_values_per_stream_byte(&self) -> u64 {
        match self {
            Coder::Fse | Coder::Lz4 => u64::MAX,
            _ => MAX_VALUES_PER_STREAM_BYTE,
        }
    }
}

/// Parses the record header, returning `(n_factors, pos bytes, len bytes)`.
///
/// Hardened against corrupt records: the `at + stream_len` offsets are
/// `checked_add`-guarded so huge declared lengths cannot wrap, both stream
/// extents must lie inside the record, and `n` is rejected when it exceeds
/// the maximum density the stream's coder can achieve on a stream of that
/// size.
fn split_streams(data: &[u8], coding: PairCoding) -> Result<(usize, &[u8], &[u8]), CodecError> {
    fn stream<'a>(
        data: &'a [u8],
        at: &mut usize,
        n: usize,
        coder: Coder,
    ) -> Result<&'a [u8], CodecError> {
        let stream_len = vbyte::read_u32(data, at)? as usize;
        if n as u64 > (stream_len as u64).saturating_mul(coder.max_values_per_stream_byte()) {
            return Err(CodecError::Corrupt("factor count exceeds stream capacity"));
        }
        let end = at
            .checked_add(stream_len)
            .filter(|&end| end <= data.len())
            .ok_or(CodecError::UnexpectedEof)?;
        let bytes = &data[*at..end];
        *at = end;
        Ok(bytes)
    }
    let mut at = 0usize;
    let n = vbyte::read_u32(data, &mut at)? as usize;
    let pos_bytes = stream(data, &mut at, n, coding.pos)?;
    let len_bytes = stream(data, &mut at, n, coding.len)?;
    Ok((n, pos_bytes, len_bytes))
}

/// Decodes the two value streams of an encoded document.
pub fn decode_streams(data: &[u8], coding: PairCoding) -> Result<(Vec<u32>, Vec<u32>), CodecError> {
    let (n, pos_bytes, len_bytes) = split_streams(data, coding)?;
    let positions = coding.pos.decode_stream(pos_bytes, n)?;
    let lengths = coding.len.decode_stream(len_bytes, n)?;
    Ok((positions, lengths))
}

/// Reusable buffers for the fused decode pipeline: the position and length
/// streams of the document being decoded, plus the coders' staging buffer
/// and tables ([`StreamScratch`]).
///
/// One scratch per thread (the store layer keeps a thread-local) makes a
/// steady-state document get allocation-free: every buffer stays at the
/// high-water size of the documents that thread has served, and the `Z`
/// coder rebuilds its Huffman tables in place. The scratch holds no
/// document state between calls — any store/coding may share one.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    positions: Vec<u32>,
    lengths: Vec<u32>,
    stage: StreamScratch,
}

impl DecodeScratch {
    /// An empty scratch; buffers grow to the working-set size on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Decodes both value streams of `data` into this scratch, replacing
    /// previous contents, and returns `(positions, lengths)` views.
    pub fn decode_streams(
        &mut self,
        data: &[u8],
        coding: PairCoding,
    ) -> Result<(&[u32], &[u32]), CodecError> {
        let (n, pos_bytes, len_bytes) = split_streams(data, coding)?;
        coding
            .pos
            .decode_stream_into(pos_bytes, n, &mut self.positions, &mut self.stage)?;
        coding
            .len
            .decode_stream_into(len_bytes, n, &mut self.lengths, &mut self.stage)?;
        Ok((&self.positions, &self.lengths))
    }
}

/// Decodes an encoded document and expands it against the dictionary text in
/// one pass, appending the document bytes to `out`.
///
/// Convenience wrapper over [`decode_and_expand_scratch`] with a fresh
/// scratch; retrieval loops should hold a [`DecodeScratch`] and call the
/// scratch variant directly to stay allocation-free.
pub fn decode_and_expand(
    data: &[u8],
    coding: PairCoding,
    dict_bytes: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    decode_and_expand_scratch(data, coding, dict_bytes, out, &mut DecodeScratch::new())
}

/// Copy factors of up to this many bytes go through the fixed-width fast
/// path: copy a full window, then truncate to the real length. Figure 3 of
/// the paper puts the bulk of factor lengths well under this.
const SHORT_FACTOR_WINDOW: usize = 16;

/// The fused decode path: decodes both factor streams into `scratch`, then
/// expands them against `dict_bytes` in one validating copy pass,
/// appending to `out`. On any error nothing is appended to `out`.
///
/// Byte-identical to [`decode_document`] + [`crate::factor::expand`] (the
/// two-step oracle) on every valid record; see the module docs for the
/// pipeline design.
pub fn decode_and_expand_scratch(
    data: &[u8],
    coding: PairCoding,
    dict_bytes: &[u8],
    out: &mut Vec<u8>,
    scratch: &mut DecodeScratch,
) -> Result<(), CodecError> {
    let (positions, lengths) = scratch.decode_streams(data, coding)?;
    let start = out.len();
    // Reserve the whole document once: a fresh `out` (`DocStore::get`, an
    // MGET slot, a cache entry) then ends at its exact size, where
    // reserving only the factor count regrows it by doubling. A literal
    // expands to one byte. The cap of one dictionary per factor keeps
    // lengths no valid record holds from forcing a huge allocation before
    // the copy loop rejects them. The short-factor fast path overshoots by
    // up to WINDOW-1 bytes before truncating back.
    let expanded: u64 = lengths
        .iter()
        .map(|&len| u64::from(len) + u64::from(len == 0))
        .sum();
    let cap = (lengths.len() as u64).saturating_mul(dict_bytes.len().max(1) as u64);
    let expanded = usize::try_from(expanded.min(cap))
        .map_err(|_| CodecError::Corrupt("document exceeds usize"))?;
    out.reserve(expanded + SHORT_FACTOR_WINDOW);
    // A short factor at `pos < window_end` has a whole window inside the
    // dictionary, so that window also covers the factor itself.
    let window_end = (dict_bytes.len() + 1).saturating_sub(SHORT_FACTOR_WINDOW);

    for (&pos, &len) in positions.iter().zip(lengths) {
        let (pos, len) = (pos as usize, len as usize);
        if len == 0 {
            let Ok(byte) = u8::try_from(pos) else {
                out.truncate(start);
                return Err(CodecError::Corrupt("literal is not a byte"));
            };
            out.push(byte);
        } else if len <= SHORT_FACTOR_WINDOW && pos < window_end {
            // Fixed-width copy: unconditionally move a whole window (two
            // 8-byte loads/stores after vectorization), then cut back.
            let window: &[u8; SHORT_FACTOR_WINDOW] = dict_bytes[pos..pos + SHORT_FACTOR_WINDOW]
                .try_into()
                .expect("window bounds checked");
            out.extend_from_slice(window);
            out.truncate(out.len() - (SHORT_FACTOR_WINDOW - len));
        } else {
            let Some(src) = pos
                .checked_add(len)
                .and_then(|end| dict_bytes.get(pos..end))
            else {
                out.truncate(start);
                return Err(CodecError::Corrupt("factor exceeds dictionary"));
            };
            out.extend_from_slice(src);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_factors() -> Vec<Factor> {
        vec![
            Factor::copy(1000, 42),
            Factor::literal(b'q'),
            Factor::copy(0, 7),
            Factor::copy(999_999, 3),
            Factor::literal(0),
            Factor::copy(77, 258),
        ]
    }

    #[test]
    fn all_pair_codings_roundtrip() {
        let factors = sample_factors();
        for name in [
            "ZZ", "ZV", "UZ", "UV", "SS", "PP", "PS", "SV", "PV", "FF", "FV", "LL", "LV", "FZ",
            "LF",
        ] {
            let coding = PairCoding::parse(name).unwrap();
            assert_eq!(coding.name(), name.to_uppercase());
            let enc = encode_document(&factors, coding);
            let dec = decode_document(&enc, coding).unwrap();
            assert_eq!(dec, factors, "coding {name}");
        }
    }

    #[test]
    fn empty_document_roundtrips() {
        for coding in PairCoding::EXTENDED_SET {
            let enc = encode_document(&[], coding);
            assert!(decode_document(&enc, coding).unwrap().is_empty());
        }
    }

    #[test]
    fn parse_rejects_garbage_with_typed_errors() {
        assert_eq!(PairCoding::parse("Q"), Err(ParseCodingError::BadLength(1)));
        assert_eq!(
            PairCoding::parse("ZZZ"),
            Err(ParseCodingError::BadLength(3))
        );
        assert_eq!(PairCoding::parse(""), Err(ParseCodingError::BadLength(0)));
        assert_eq!(
            PairCoding::parse("XY"),
            Err(ParseCodingError::UnknownLetter('X'))
        );
        assert_eq!(
            PairCoding::parse("Ux"),
            Err(ParseCodingError::UnknownLetter('x'))
        );
        assert!(PairCoding::parse("zv").is_ok(), "case-insensitive");
        assert!(PairCoding::parse("fl").is_ok(), "case-insensitive");
        let msg = ParseCodingError::UnknownLetter('x').to_string();
        for (letter, _) in super::CODERS {
            assert!(msg.contains(letter), "error message names {letter}: {msg}");
        }
    }

    #[test]
    fn every_coder_letter_parses_back() {
        for (letter, coder) in super::CODERS {
            assert_eq!(Coder::parse(letter), Ok(coder));
            assert_eq!(coder.letter(), letter);
        }
    }

    #[test]
    fn decode_and_expand_matches_two_step() {
        let dict = b"the common dictionary text with patterns".to_vec();
        let factors = vec![
            Factor::copy(4, 6), // "common"
            Factor::literal(b'!'),
            Factor::copy(10, 11), // " dictionary"
        ];
        let mut scratch = DecodeScratch::new();
        for coding in PairCoding::EXTENDED_SET {
            let enc = encode_document(&factors, coding);
            let mut fast = Vec::new();
            decode_and_expand(&enc, coding, &dict, &mut fast).unwrap();
            let mut fused = b"prefix".to_vec();
            decode_and_expand_scratch(&enc, coding, &dict, &mut fused, &mut scratch).unwrap();
            let mut slow = Vec::new();
            crate::factor::expand(&dict, &decode_document(&enc, coding).unwrap(), &mut slow)
                .unwrap();
            assert_eq!(fast, slow);
            assert_eq!(fast, b"common! dictionary");
            assert_eq!(&fused[6..], slow.as_slice(), "fused path appends");
            assert_eq!(&fused[..6], b"prefix");
        }
    }

    #[test]
    fn fused_decode_matches_oracle_on_boundary_factors() {
        // Factors crossing the 16-byte fast-path window in every way: len
        // exactly at/over the window, copies ending at the dictionary's
        // last byte (where the fixed-width window would overrun), empty
        // docs, and all-literal docs.
        let dict: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let end = dict.len() as u32;
        let shapes: Vec<Vec<Factor>> = vec![
            vec![],
            vec![Factor::literal(0), Factor::literal(255)],
            (1..=33).map(|l| Factor::copy(end - l, l)).collect(),
            vec![
                Factor::copy(end - 1, 1), // final byte: window cannot fit
                Factor::copy(0, 16),
                Factor::copy(end - 16, 16),
                Factor::copy(end - 17, 17),
                Factor::literal(b'x'),
                Factor::copy(3, 15),
            ],
        ];
        let mut scratch = DecodeScratch::new();
        for name in [
            "ZZ", "ZV", "UZ", "UV", "SS", "PP", "PS", "FF", "FV", "LL", "LV",
        ] {
            let coding = PairCoding::parse(name).unwrap();
            for factors in &shapes {
                let enc = encode_document(factors, coding);
                let mut fused = Vec::new();
                decode_and_expand_scratch(&enc, coding, &dict, &mut fused, &mut scratch).unwrap();
                let mut oracle = Vec::new();
                crate::factor::expand(&dict, &decode_document(&enc, coding).unwrap(), &mut oracle)
                    .unwrap();
                assert_eq!(fused, oracle, "coding {name}");
            }
        }
    }

    #[test]
    fn fused_decode_sizes_a_fresh_buffer_exactly() {
        // Long copies and literals: a fresh `out` is reserved once for the
        // whole document (plus the short-copy overshoot), never regrown.
        let dict: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let factors: Vec<Factor> = (0..40)
            .flat_map(|i| [Factor::copy(i * 50, 1000), Factor::literal(b'x')])
            .collect();
        let enc = encode_document(&factors, PairCoding::UV);
        let mut out = Vec::new();
        decode_and_expand(&enc, PairCoding::UV, &dict, &mut out).unwrap();
        assert_eq!(out.len(), 40 * 1001);
        assert!(
            out.capacity() <= out.len() + SHORT_FACTOR_WINDOW,
            "capacity {} for {} bytes",
            out.capacity(),
            out.len()
        );
    }

    #[test]
    fn fused_decode_rejects_huge_lengths_without_reserving_them() {
        // 1000 factors of u32::MAX bytes each: the summed length (4 TB)
        // must not reach the allocator before the copy loop rejects them.
        let factors = vec![Factor::copy(0, u32::MAX); 1000];
        let enc = encode_document(&factors, PairCoding::UV);
        let mut out = b"keep".to_vec();
        let got = decode_and_expand(&enc, PairCoding::UV, b"tiny", &mut out);
        assert_eq!(got, Err(CodecError::Corrupt("factor exceeds dictionary")));
        assert_eq!(out, b"keep");
        assert!(out.capacity() < 1 << 20, "reserved {}", out.capacity());
    }

    #[test]
    fn fused_decode_errors_append_nothing() {
        let dict = b"tiny".to_vec();
        let bad = vec![
            vec![Factor::copy(0, 4), Factor::copy(2, 3)], // second exceeds dict
            vec![Factor { pos: 999, len: 0 }],            // literal above a byte
        ];
        let mut scratch = DecodeScratch::new();
        for factors in &bad {
            let enc = encode_document(factors, PairCoding::UV);
            let mut out = b"keep".to_vec();
            assert!(
                decode_and_expand_scratch(&enc, PairCoding::UV, &dict, &mut out, &mut scratch)
                    .is_err()
            );
            assert_eq!(out, b"keep", "a rejected factor must truncate out back");
        }
    }

    #[test]
    fn corrupt_headers_are_rejected_not_wrapped() {
        // A declared stream length reaching past the record must error.
        let mut enc = Vec::new();
        vbyte::write_u32(1, &mut enc); // n = 1
        vbyte::write_u32(u32::MAX, &mut enc); // |pos| far beyond the record
        enc.extend_from_slice(&[0xAA; 8]);
        assert!(decode_streams(&enc, PairCoding::UV).is_err());

        // A factor count no coder could fit in the declared streams must be
        // rejected before any decoding or allocation happens.
        let mut enc = Vec::new();
        vbyte::write_u32(u32::MAX, &mut enc); // n = 4 billion factors
        vbyte::write_u32(2, &mut enc); // ...from a 2-byte position stream
        enc.extend_from_slice(&[0, 0]);
        vbyte::write_u32(0, &mut enc);
        for coding in PairCoding::PAPER_SET {
            assert!(matches!(
                decode_streams(&enc, coding),
                Err(CodecError::Corrupt("factor count exceeds stream capacity"))
            ));
        }
        // The F/L containers are exempt from the static density bound (an
        // FSE symbol can cost a fraction of a bit), but the same record
        // must still error: the container's own raw length pins the count.
        for coding in [PairCoding::FF, PairCoding::LL, PairCoding::FV] {
            assert!(decode_streams(&enc, coding).is_err(), "{}", coding.name());
        }
    }

    #[test]
    fn fse_coding_handles_streams_denser_than_the_static_bound() {
        // 200k identical positions cost ~0 bits each under F — far beyond
        // the 1024 values/byte bound the other coders are held to. The
        // pre-pass must not reject it, and the roundtrip must hold.
        let factors: Vec<Factor> = (0..200_000).map(|_| Factor::copy(7, 5)).collect();
        let enc = encode_document(&factors, PairCoding::FF);
        assert!(
            enc.len() < factors.len() / 64,
            "constant factors should code near zero bits ({} bytes)",
            enc.len()
        );
        let dec = decode_document(&enc, PairCoding::FF).unwrap();
        assert_eq!(dec, factors);
    }

    #[test]
    fn truncated_documents_error() {
        let factors = sample_factors();
        for coding in PairCoding::EXTENDED_SET {
            let enc = encode_document(&factors, coding);
            for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
                assert!(
                    decode_document(&enc[..cut], coding).is_err(),
                    "coding {} cut {}",
                    coding.name(),
                    cut
                );
            }
        }
    }

    #[test]
    fn z_coding_compresses_repetitive_positions() {
        // Repeated intra-document factors: Z positions must beat U.
        let factors: Vec<Factor> = (0..500)
            .map(|i| Factor::copy([100u32, 2000, 30000][i % 3], 20))
            .collect();
        let z = encode_document(&factors, PairCoding::ZZ).len();
        let u = encode_document(&factors, PairCoding::UV).len();
        assert!(z < u / 3, "ZZ {} vs UV {}", z, u);
    }

    #[test]
    fn wrong_coding_fails_or_differs() {
        // Decoding with a mismatched pair coding must not silently return
        // the original factors.
        let factors = sample_factors();
        let enc = encode_document(&factors, PairCoding::UV);
        if let Ok(dec) = decode_document(&enc, PairCoding::ZV) {
            assert_ne!(dec, factors)
        }
    }
}
