//! The document map: byte extents of every document (§3.1 step 3).
//!
//! "Store a document map which provides the position on disk of each
//! encoded file. This component is common to all large scale file
//! compression systems." Offsets are monotone, so the map serializes as
//! delta-vbyte.

use crate::verify::{encode_sums, write_quarantine, SUMS_FILE};
use crate::StoreError;
use rlz_codecs::hash::crc32c;
use rlz_codecs::vbyte;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The document map's file in every store directory.
pub(crate) const MAP_FILE: &str = "docmap.bin";

/// Monotone offsets delimiting `n` documents (`n + 1` entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocMap {
    offsets: Vec<u64>,
    /// Largest single extent, precomputed so serving frontends can report
    /// it without rescanning the map per STAT request.
    max_extent: u64,
}

impl DocMap {
    fn from_offsets(offsets: Vec<u64>) -> Self {
        let max_extent = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        DocMap {
            offsets,
            max_extent,
        }
    }

    /// Builds a map from document lengths.
    pub fn from_lens(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0u64];
        let mut at = 0u64;
        for len in lens {
            at += len as u64;
            offsets.push(at);
        }
        DocMap::from_offsets(offsets)
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total payload bytes covered.
    pub fn total_bytes(&self) -> u64 {
        *self.offsets.last().expect("at least one offset")
    }

    /// `(offset, len)` of document `id`.
    pub fn extent(&self, id: usize) -> Option<(u64, usize)> {
        let start = *self.offsets.get(id)?;
        let end = *self.offsets.get(id + 1)?;
        Some((start, (end - start) as usize))
    }

    /// Length of the largest single extent (0 for an empty map). Extents
    /// are deltas of the serialized offsets, so this is the longest *stored
    /// record* — the raw document for stores keeping documents verbatim,
    /// the encoded record for `RlzStore`.
    pub fn max_extent_len(&self) -> u64 {
        self.max_extent
    }

    /// Serializes as `vbyte(n+1)` then delta-vbyte offsets.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.offsets.len() * 2 + 8);
        vbyte::write_u64(self.offsets.len() as u64, &mut out);
        let mut prev = 0u64;
        for &o in &self.offsets {
            vbyte::write_u64(o - prev, &mut out);
            prev = o;
        }
        out
    }

    /// Exact size of [`serialize`](Self::serialize)'s output, computed
    /// without materializing it — used for footprint accounting
    /// (`RlzStore::total_stored_bytes`), which previously re-serialized the
    /// whole map just to measure it.
    pub fn serialized_len(&self) -> usize {
        let mut n = vbyte::encoded_len_u64(self.offsets.len() as u64);
        let mut prev = 0u64;
        for &o in &self.offsets {
            n += vbyte::encoded_len_u64(o - prev);
            prev = o;
        }
        n
    }

    /// Parses a serialized map.
    pub fn deserialize(data: &[u8]) -> Result<Self, StoreError> {
        let mut pos = 0usize;
        let n = vbyte::read_u64(data, &mut pos)? as usize;
        if n == 0 {
            return Err(StoreError::corrupt("document map has no offsets"));
        }
        // Every delta costs at least one byte, so an offset count larger
        // than the input is corrupt; reject it before it sizes the
        // allocation below (an untrusted vbyte can claim up to 2^64).
        if n > data.len() {
            return Err(StoreError::corrupt(
                "document map offset count exceeds input",
            ));
        }
        let mut offsets = Vec::with_capacity(n);
        let mut at = 0u64;
        for _ in 0..n {
            at = at
                .checked_add(vbyte::read_u64(data, &mut pos)?)
                .ok_or_else(|| StoreError::corrupt("document map offset overflow"))?;
            offsets.push(at);
        }
        Ok(DocMap::from_offsets(offsets))
    }
}

/// Streams one record per document into a payload file and, on
/// [`finish`](Self::finish), writes the docmap and the `sums.bin` sidecar
/// (one CRC32C per record) — the container shared by `AsciiStore` (raw
/// documents in `data.bin`) and `RlzStore` (encoded records in
/// `payload.bin`). Peak memory is one record plus the length and checksum
/// tables, never the corpus.
#[derive(Debug)]
pub(crate) struct RecordWriter {
    payload: BufWriter<File>,
    pub(crate) dir: PathBuf,
    lens: Vec<usize>,
    sums: Vec<u32>,
}

impl RecordWriter {
    /// Creates `dir` and opens `payload_file` in it for streaming appends.
    /// A quarantine sidecar left by an earlier store in `dir` is removed:
    /// its doc ids name documents of that store, not of this one.
    pub fn create(dir: &Path, payload_file: &str) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        write_quarantine(dir, &[])?;
        Ok(RecordWriter {
            payload: BufWriter::new(File::create(dir.join(payload_file))?),
            dir: dir.to_path_buf(),
            lens: Vec::new(),
            sums: Vec::new(),
        })
    }

    /// Appends the next document's record.
    pub fn append(&mut self, record: &[u8]) -> Result<(), StoreError> {
        self.payload.write_all(record)?;
        self.lens.push(record.len());
        self.sums.push(crc32c(record));
        Ok(())
    }

    /// Flushes the payload and writes the docmap and checksum sidecar.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.payload.flush()?;
        std::fs::write(
            self.dir.join(MAP_FILE),
            DocMap::from_lens(self.lens).serialize(),
        )?;
        std::fs::write(self.dir.join(SUMS_FILE), encode_sums(&self.sums))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_from_lens() {
        let m = DocMap::from_lens([10usize, 0, 5]);
        assert_eq!(m.num_docs(), 3);
        assert_eq!(m.total_bytes(), 15);
        assert_eq!(m.extent(0), Some((0, 10)));
        assert_eq!(m.extent(1), Some((10, 0)));
        assert_eq!(m.extent(2), Some((10, 5)));
        assert_eq!(m.extent(3), None);
    }

    #[test]
    fn max_extent_tracks_longest_record() {
        assert_eq!(DocMap::from_lens(std::iter::empty()).max_extent_len(), 0);
        assert_eq!(DocMap::from_lens([0usize, 0]).max_extent_len(), 0);
        let m = DocMap::from_lens([10usize, 0, 5, 42, 7]);
        assert_eq!(m.max_extent_len(), 42);
        let round = DocMap::deserialize(&m.serialize()).unwrap();
        assert_eq!(round.max_extent_len(), 42);
    }

    #[test]
    fn serialization_roundtrip() {
        let m = DocMap::from_lens((0..1000usize).map(|i| i * 7 % 50_000));
        let bytes = m.serialize();
        assert_eq!(DocMap::deserialize(&bytes).unwrap(), m);
    }

    #[test]
    fn serialized_len_matches_serialize() {
        for lens in [
            vec![],
            vec![0usize, 0, 0],
            vec![1, 127, 128, 16_383, 16_384, 1 << 20, (1 << 35)],
            (0..500usize).map(|i| i * 13 % 9_000).collect(),
        ] {
            let m = DocMap::from_lens(lens);
            assert_eq!(m.serialized_len(), m.serialize().len());
        }
    }

    #[test]
    fn empty_collection() {
        let m = DocMap::from_lens(std::iter::empty());
        assert_eq!(m.num_docs(), 0);
        assert_eq!(m.total_bytes(), 0);
        let bytes = m.serialize();
        assert_eq!(DocMap::deserialize(&bytes).unwrap(), m);
    }

    #[test]
    fn corrupt_input_is_an_error() {
        assert!(DocMap::deserialize(&[]).is_err());
        assert!(DocMap::deserialize(&[0]).is_err()); // zero offsets
        assert!(DocMap::deserialize(&[5, 1]).is_err()); // truncated
    }
}
