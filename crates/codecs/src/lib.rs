//! Integer and bit-level codecs for RLZ factor streams.
//!
//! §3.4 of the paper encodes the `(position, length)` pairs of a document's
//! factorization with combinations of raw 32-bit integers (`U`), variable
//! byte codes (`V`), and zlib (`Z`). Its future-work section names Simple-9
//! and PForDelta as promising alternatives. This crate provides the integer
//! codes; `rlz_core::coding::Coder` is the one dispatch over them:
//!
//! * [`vbyte`] — the paper's `V` coder (7 data bits per byte, continuation
//!   flag in the high bit).
//! * [`fixed`] — the paper's `U` coder (little-endian `u32`).
//! * [`simple9`] — word-aligned packing, 9 configurations per 32-bit word
//!   (Anh & Moffat 2005), with an escape for values above 28 bits.
//! * [`pfor`] — PForDelta (Zukowski et al. 2006): per-block bit packing with
//!   patched exceptions.
//! * [`bitio`] — LSB-first bit reader/writer shared with the `zlite`
//!   compressor.
//! * [`hash`] — CRC32C (Castagnoli) used by the store layer for
//!   block/record integrity checksums: SSE4.2 `crc32` when the CPU has it,
//!   slicing-by-8 otherwise, chosen at run time.
//!
//! Each coder is a unit struct with inherent `encode` and `decode`
//! methods. `encode` appends to its output so streams concatenate;
//! `decode` is told how many values to expect (RLZ stores factor counts in
//! the record header) and appends them; only vbyte's also returns the
//! number of input bytes consumed, which the `F` coder checks. Every coder round-trips arbitrary `u32` slices; decoding is
//! fully bounds-checked and returns [`CodecError`] on truncated or corrupt
//! input (no panics).
//!
//! The crate is safe code except for one audited call: [`hash`] invokes its
//! SSE4.2 backend only after detecting the feature at run time (its module
//! docs give the safety argument).

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod bitio;
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
