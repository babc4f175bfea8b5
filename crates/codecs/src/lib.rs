//! Integer and bit-level codecs for RLZ factor streams.
//!
//! §3.4 of the paper encodes the `(position, length)` pairs of a document's
//! factorization with combinations of raw 32-bit integers (`U`), variable
//! byte codes (`V`), and zlib (`Z`). Its future-work section names Simple-9
//! and PForDelta as promising alternatives; this crate provides all of the
//! integer codes behind one trait so the store can mix and match:
//!
//! * [`vbyte`] — the paper's `V` coder (7 data bits per byte, continuation
//!   flag in the high bit).
//! * [`fixed`] — the paper's `U` coder (little-endian `u32`).
//! * [`simple9`] — word-aligned packing, 9 configurations per 32-bit word
//!   (Anh & Moffat 2005), with an escape for values above 28 bits.
//! * [`pfor`] — PForDelta (Zukowski et al. 2006): per-block bit packing with
//!   patched exceptions.
//! * [`elias`] — Elias γ and δ codes, bit-oriented baselines.
//! * [`bitio`] — LSB-first bit reader/writer shared with the `zlite`
//!   compressor.
//! * [`hash`] — CRC32C (Castagnoli) used by the store layer for
//!   block/record integrity checksums: SSE4.2 `crc32` when the CPU has it,
//!   slicing-by-8 otherwise, chosen at run time.
//!
//! All coders implement [`IntCodec`] and round-trip arbitrary `u32` slices;
//! decoding is fully bounds-checked and returns [`CodecError`] on truncated
//! or corrupt input (no panics).
//!
//! The crate is safe code except for one audited call: [`hash`] invokes its
//! SSE4.2 backend only after detecting the feature at run time (its module
//! docs give the safety argument).

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod bitio;
pub mod elias;
pub mod fixed;
pub mod hash;
pub mod pfor;
pub mod simple9;
pub mod vbyte;

use std::fmt;

/// Errors produced by decoders on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the expected number of values was decoded.
    UnexpectedEof,
    /// A structural invariant of the format was violated.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of encoded stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoded stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// A reusable encoder/decoder for sequences of `u32` values.
///
/// Encoders append to `out` so callers can concatenate streams; decoders are
/// told how many values to expect (RLZ stores factor counts in the document
/// map) and return the number of input bytes consumed.
pub trait IntCodec: fmt::Debug + Send + Sync {
    /// Appends the encoding of `values` to `out`.
    fn encode(&self, values: &[u32], out: &mut Vec<u8>);

    /// Decodes exactly `n` values from the front of `data` into `out`,
    /// returning the number of bytes consumed.
    fn decode(&self, data: &[u8], n: usize, out: &mut Vec<u32>) -> Result<usize>;

    /// Short identifier used in benchmark tables (e.g. `"vbyte"`).
    fn name(&self) -> &'static str;

    /// Convenience wrapper returning a fresh vector.
    fn encode_to_vec(&self, values: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(values, &mut out);
        out
    }

    /// Convenience wrapper decoding `n` values into a fresh vector.
    fn decode_to_vec(&self, data: &[u8], n: usize) -> Result<Vec<u32>> {
        // Cap the speculative reservation so a corrupt header cannot force
        // a huge allocation before the first bounds check fires.
        let mut out = Vec::with_capacity(n.min(data.len().saturating_mul(8).max(64)));
        self.decode(data, n, &mut out)?;
        Ok(out)
    }

    /// Decodes exactly `n` values from `data` into `out`, **replacing** its
    /// contents while reusing its capacity; returns the number of input
    /// bytes consumed.
    ///
    /// This is the retrieval hot-path entry point: a caller that keeps one
    /// `Vec<u32>` per stream performs zero heap allocations once the buffer
    /// has grown to the working-set size. All codecs in this crate decode
    /// by appending to the caller's buffer, so the default implementation
    /// (clear, then [`decode`](IntCodec::decode)) is already
    /// allocation-free; codecs with a dedicated fast path (e.g. [`vbyte`]'s
    /// word-at-a-time loop) get it through their `decode` body. On error
    /// `out` may hold a partially decoded prefix.
    fn decode_into(&self, data: &[u8], n: usize, out: &mut Vec<u32>) -> Result<usize> {
        out.clear();
        self.decode(data, n, out)
    }
}

/// ZigZag-maps a signed value to an unsigned one so small magnitudes stay
/// small (used when delta-coding monotone position streams).
#[inline]
pub fn zigzag_encode(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// All codecs in this crate, for sweeps in tests and benchmarks.
pub fn all_codecs() -> Vec<Box<dyn IntCodec>> {
    vec![
        Box::new(fixed::FixedU32),
        Box::new(vbyte::VByte),
        Box::new(simple9::Simple9),
        Box::new(pfor::PForDelta::default()),
        Box::new(elias::EliasGamma),
        Box::new(elias::EliasDelta),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i32, 1, -1, 2, -2, i32::MAX, i32::MIN, 12345, -54321] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn all_codecs_roundtrip_common_patterns() {
        let patterns: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![1, 2, 3, 4, 5],
            (0..1000).collect(),
            vec![0; 500],
            vec![1 << 28, (1 << 28) - 1, 1 << 31, 7],
            (0..257).map(|i| i * 31 % 257).collect(),
        ];
        for codec in all_codecs() {
            for p in &patterns {
                let enc = codec.encode_to_vec(p);
                let dec = codec.decode_to_vec(&enc, p.len()).unwrap_or_else(|e| {
                    panic!(
                        "{} failed on {:?}: {}",
                        codec.name(),
                        &p[..p.len().min(8)],
                        e
                    )
                });
                assert_eq!(&dec, p, "codec {}", codec.name());
            }
        }
    }

    #[test]
    fn decoders_error_on_truncated_input() {
        let values: Vec<u32> = (100..200).collect();
        for codec in all_codecs() {
            let enc = codec.encode_to_vec(&values);
            // Chop the stream; expecting the full count must fail, not panic.
            for cut in [0usize, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
                if cut >= enc.len() {
                    continue;
                }
                let res = codec.decode_to_vec(&enc[..cut], values.len());
                assert!(
                    res.is_err(),
                    "codec {} accepted truncated input",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn decode_reports_bytes_consumed() {
        let values = vec![7u32, 300, 70000, 5];
        for codec in all_codecs() {
            let mut enc = codec.encode_to_vec(&values);
            let orig_len = enc.len();
            enc.extend_from_slice(b"trailing garbage");
            let mut out = Vec::new();
            let used = codec.decode(&enc, values.len(), &mut out).unwrap();
            assert_eq!(used, orig_len, "codec {}", codec.name());
            assert_eq!(out, values);
        }
    }
}
