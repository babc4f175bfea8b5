//! `rlz-fse` — table-based entropy coding for the factor streams.
//!
//! Two codecs with one goal: close most of the decode-speed gap between the
//! byte-oriented `U`/`V` coders and the zlib-class `Z` coder without giving
//! up the ratio story.
//!
//! * [`tans`] — an FSE/tANS order-0 entropy coder (the entropy stage zstd
//!   popularized): per-stream normalized frequency tables, an adaptive
//!   table log so short streams pay a short table build, and an
//!   interleaved two-state decode loop. Ratio close to a Huffman stage,
//!   decode speed far past it because the hot loop is one table lookup and
//!   one bit refill per symbol.
//! * [`lz4`] — an LZ4-style fast-literal compressor: greedy hash-table
//!   match finding, token-coded sequences, no entropy stage. The decode
//!   loop is pure copying, so it runs at memcpy-class speed.
//!
//! Both containers are self-describing and fall back to a stored mode when
//! coding would not shrink the input, so incompressible data costs a
//! header byte plus a memcpy. Both decoders validate headers before
//! allocating (progressive reserve, checked arithmetic, exact frequency
//! sums), matching the hardening rules of the other stream decoders in
//! this workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lz4;
pub mod tans;

use rlz_codecs::CodecError;

/// Errors returned by the decoders.
pub type Error = CodecError;
/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Reusable decode state for [`tans::decompress_into`]: the state table is
/// grown once to the largest table seen and then reused, so a warm decode
/// loop performs zero heap allocations.
#[derive(Debug, Default)]
pub struct FseScratch {
    table: Vec<tans::DecodeEntry>,
}

impl FseScratch {
    /// Returns the table resized for `size` entries (stale contents are
    /// overwritten by the caller, which fills every slot).
    pub(crate) fn table_mut(&mut self, size: usize) -> &mut [tans::DecodeEntry] {
        if self.table.len() < size {
            self.table.resize(size, tans::DecodeEntry::default());
        }
        &mut self.table[..size]
    }
}
