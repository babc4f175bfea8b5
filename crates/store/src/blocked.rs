//! Blocked-compression stores — the paper's baselines (§2.2, §4).
//!
//! "Collections are split into fixed size blocks and compressed with an
//! adaptive algorithm (zlib)." Retrieval of one document decompresses its
//! whole block; block size trades compression (bigger = better ratio)
//! against access latency (bigger = slower), the exact trade-off of
//! Tables 6, 7 and 9. A block size of zero puts one document per block
//! (the paper's "0.0MB" rows).
//!
//! # Self-describing block format
//!
//! The metadata is a per-block offset table whose entries mark each block
//! *compressed* or *stored*: at build time a block whose coded form would
//! not be smaller than the raw bytes is written verbatim, and reads pass
//! it through with a plain copy instead of a trial decompression. Any
//! block codec is therefore random-accessible (the table gives exact
//! extents) and incompressible data costs memcpy speed, not codec speed.
//! `meta.bin` is `[0xF6, codec tag, vbyte block count]` then per block
//! `vbyte file offset, vbyte on-disk length, vbyte first doc, vbyte raw
//! start, stored flag byte, CRC32C u32le` — the one layout the writer
//! emits and the one `open` accepts; anything else is
//! [`StoreError::Corrupt`].
//!
//! # Checksums
//!
//! Every block carries a CRC32C computed over its exact bytes on disk
//! (compressed or stored) and verified on every read before any
//! decompression runs. A mismatch surfaces as
//! [`StoreError::Corrupt`] naming the block — and through
//! [`DocStore::get_batch_results`], only the documents living in that
//! block fail; every other id in the batch still decodes.

use crate::backend::{FileBackend, MemBackend, StorageBackend};
use crate::cache::ShardedLru;
use crate::docmap::{DocMap, MAP_FILE};
use crate::verify::{load_quarantine, write_quarantine, BadUnit, ScrubReport};
use crate::{read_file, DocStore, StoreError};
use rlz_codecs::hash::crc32c;
use rlz_codecs::vbyte;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

pub(crate) const BLOCKS_FILE: &str = "blocks.bin";
const META_FILE: &str = "meta.bin";

/// Default block-cache capacity when enabled without an explicit size.
const DEFAULT_CACHE_BLOCKS: usize = 32;

/// Which general-purpose codec compresses each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCodec {
    /// DEFLATE-class (the paper's zlib baseline).
    Zlite(rlz_zlite::Level),
    /// LZMA-class (the paper's lzma baseline).
    Lzlite(rlz_lzlite::Level),
}

impl BlockCodec {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            BlockCodec::Zlite(_) => "zlib",
            BlockCodec::Lzlite(_) => "lzma",
        }
    }

    pub(crate) fn compress(&self, data: &[u8]) -> Vec<u8> {
        match *self {
            BlockCodec::Zlite(level) => rlz_zlite::compress(data, level),
            BlockCodec::Lzlite(level) => rlz_lzlite::compress(data, level),
        }
    }

    /// Decompresses one block into `out`, replacing its contents while
    /// reusing its capacity.
    fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), StoreError> {
        match self {
            BlockCodec::Zlite(_) => {
                let mut scratch = rlz_zlite::InflateScratch::default();
                Ok(rlz_zlite::decompress_into(data, out, &mut scratch)?)
            }
            BlockCodec::Lzlite(_) => Ok(rlz_lzlite::decompress_into(data, out)?),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            BlockCodec::Zlite(_) => 0,
            BlockCodec::Lzlite(_) => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, StoreError> {
        match tag {
            0 => Ok(BlockCodec::Zlite(rlz_zlite::Level::Default)),
            1 => Ok(BlockCodec::Lzlite(rlz_lzlite::Level::Default)),
            _ => Err(StoreError::corrupt("unknown block codec tag")),
        }
    }
}

/// Leads `meta.bin`: codec tag, then per-block stored flags and a CRC32C
/// (little-endian, after the stored flag) over each block's exact on-disk
/// bytes.
const META_VERSION: u8 = 0xF6;

/// One block's location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockEntry {
    /// Offset of the block's bytes in `blocks.bin`.
    file_offset: u64,
    /// On-disk size (compressed size, or raw size for stored blocks).
    comp_len: u32,
    /// First document stored in this block.
    first_doc: u32,
    /// Uncompressed offset of the block's first byte in the collection.
    raw_start: u64,
    /// Stored verbatim: the codec could not shrink this block, so reads
    /// pass it through without decompression.
    stored: bool,
    /// CRC32C over the block's on-disk bytes.
    crc: u32,
}

/// One raw (uncompressed) block produced by [`BlockPacker`]: concatenated
/// whole documents plus the table fields the writer records for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawBlock {
    /// The block's concatenated document bytes.
    pub bytes: Vec<u8>,
    /// Length of each document in the block, in order (feeds the docmap).
    pub doc_lens: Vec<usize>,
    /// Doc id of the block's first document.
    pub first_doc: u32,
    /// Uncompressed offset of the block's first byte in the collection.
    pub raw_start: u64,
}

/// Greedy whole-document packing into raw blocks — the rule for block
/// boundaries, run by the chunked build pipeline's reader.
/// `block_size == 0` places one document per block; documents are never
/// split.
#[derive(Debug)]
pub(crate) struct BlockPacker {
    block_size: usize,
    current: Vec<u8>,
    doc_lens: Vec<usize>,
    doc_id: u32,
    block_first: u32,
    block_start: u64,
    raw_at: u64,
}

impl BlockPacker {
    pub fn new(block_size: usize) -> Self {
        BlockPacker {
            block_size,
            current: Vec::new(),
            doc_lens: Vec::new(),
            doc_id: 0,
            block_first: 0,
            block_start: 0,
            raw_at: 0,
        }
    }

    /// Appends one document; returns the completed block when `doc` opens a
    /// new one.
    pub fn push(&mut self, doc: &[u8]) -> Option<RawBlock> {
        let flushed = if !self.current.is_empty()
            && (self.block_size == 0 || self.current.len() + doc.len() > self.block_size)
        {
            let block = RawBlock {
                bytes: std::mem::take(&mut self.current),
                doc_lens: std::mem::take(&mut self.doc_lens),
                first_doc: self.block_first,
                raw_start: self.block_start,
            };
            self.block_first = self.doc_id;
            self.block_start = self.raw_at;
            Some(block)
        } else {
            None
        };
        self.current.extend_from_slice(doc);
        self.doc_lens.push(doc.len());
        self.raw_at += doc.len() as u64;
        self.doc_id += 1;
        flushed
    }

    /// The final block, plus the lengths of any trailing zero-length
    /// documents that close the collection without a block of their own —
    /// they still need docmap entries. A zero-document collection emits one
    /// empty block.
    pub fn finish(self) -> (Option<RawBlock>, Vec<usize>) {
        if !self.current.is_empty() || self.doc_id == 0 {
            (
                Some(RawBlock {
                    bytes: self.current,
                    doc_lens: self.doc_lens,
                    first_doc: self.block_first,
                    raw_start: self.block_start,
                }),
                Vec::new(),
            )
        } else {
            (None, self.doc_lens)
        }
    }
}

/// Block-level emission for blocked stores: completed blocks (with their
/// precompressed image) are appended in order and land on disk immediately;
/// `finish` writes the metadata table and docmap. The stored-verbatim
/// decision lives here.
#[derive(Debug)]
pub(crate) struct BlockedSink {
    payload: std::io::BufWriter<File>,
    dir: std::path::PathBuf,
    codec: BlockCodec,
    entries: Vec<BlockEntry>,
    lens: Vec<usize>,
    file_at: u64,
}

impl BlockedSink {
    /// Creates `dir` and opens the payload; like the record writer, drops
    /// a quarantine sidecar left by an earlier store in `dir`.
    pub fn create(dir: &Path, codec: BlockCodec) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        write_quarantine(dir, &[])?;
        Ok(BlockedSink {
            payload: std::io::BufWriter::new(File::create(dir.join(BLOCKS_FILE))?),
            dir: dir.to_path_buf(),
            codec,
            entries: Vec::new(),
            lens: Vec::new(),
            file_at: 0,
        })
    }

    /// Appends one packed block given its compressed image; a block the
    /// codec could not shrink is marked stored and written verbatim.
    pub fn append_compressed(&mut self, raw: &RawBlock, comp: &[u8]) -> Result<(), StoreError> {
        let stored = comp.len() >= raw.bytes.len() && !raw.bytes.is_empty();
        let bytes: &[u8] = if stored { &raw.bytes } else { comp };
        self.payload.write_all(bytes)?;
        self.entries.push(BlockEntry {
            file_offset: self.file_at,
            comp_len: bytes.len() as u32,
            first_doc: raw.first_doc,
            raw_start: raw.raw_start,
            stored,
            crc: crc32c(bytes),
        });
        self.file_at += bytes.len() as u64;
        self.lens.extend_from_slice(&raw.doc_lens);
        Ok(())
    }

    /// Records docmap entries for trailing zero-length documents that have
    /// no block (see [`BlockPacker::finish`]).
    pub fn append_trailing_doc_lens(&mut self, lens: &[usize]) {
        self.lens.extend_from_slice(lens);
    }

    /// Flushes the payload and writes the block table and docmap,
    /// completing the store.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.payload.flush()?;
        let mut meta = Vec::new();
        meta.push(META_VERSION);
        meta.push(self.codec.tag());
        vbyte::write_u64(self.entries.len() as u64, &mut meta);
        for e in &self.entries {
            vbyte::write_u64(e.file_offset, &mut meta);
            vbyte::write_u32(e.comp_len, &mut meta);
            vbyte::write_u32(e.first_doc, &mut meta);
            vbyte::write_u64(e.raw_start, &mut meta);
            meta.push(e.stored as u8);
            meta.extend_from_slice(&e.crc.to_le_bytes());
        }
        std::fs::write(self.dir.join(META_FILE), meta)?;
        std::fs::write(
            self.dir.join(MAP_FILE),
            DocMap::from_lens(self.lens).serialize(),
        )?;
        Ok(())
    }
}

/// Blocked store reader. Clones are cheap handles sharing the backend,
/// block table, document map and (if enabled) the block cache.
#[derive(Debug, Clone)]
pub struct BlockedStore {
    payload: Arc<dyn StorageBackend>,
    codec: BlockCodec,
    blocks: Arc<Vec<BlockEntry>>,
    /// Uncompressed document extents over the whole collection.
    map: Arc<DocMap>,
    /// Optional decompressed-block cache — OFF by default to match the
    /// paper's baselines, which pay the full block decompression on every
    /// request. When enabled it is a thread-safe sharded LRU shared by all
    /// clones of this store.
    cache: Option<Arc<ShardedLru>>,
    stored_bytes: u64,
    /// Sorted doc ids quarantined by `rlz-verify`; gets pre-fail with a
    /// typed corruption error instead of touching known-bad blocks.
    quarantine: Arc<Vec<u32>>,
}

impl BlockedStore {
    /// Opens a previously built store with a file-backed payload.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::with_backend(dir, Arc::new(FileBackend::open(&dir.join(BLOCKS_FILE))?))
    }

    /// Opens a previously built store with the compressed payload fully
    /// resident in memory (blocks still decompress per request).
    pub fn open_resident(dir: &Path) -> Result<Self, StoreError> {
        Self::with_backend(dir, Arc::new(MemBackend::load(&dir.join(BLOCKS_FILE))?))
    }

    /// Opens a previously built store over a caller-supplied backend
    /// (fault-injection harnesses, custom storage layers).
    pub fn open_with_backend(
        dir: &Path,
        payload: Arc<dyn StorageBackend>,
    ) -> Result<Self, StoreError> {
        Self::with_backend(dir, payload)
    }

    fn with_backend(dir: &Path, payload: Arc<dyn StorageBackend>) -> Result<Self, StoreError> {
        let meta = read_file(&dir.join(META_FILE))?;
        let truncated = || StoreError::corrupt("truncated blocked-store metadata");
        let &[version, tag, ..] = meta.as_slice() else {
            return Err(truncated());
        };
        if version != META_VERSION {
            return Err(StoreError::corrupt(
                "blocked-store metadata lacks the 0xF6 CRC32C header",
            ));
        }
        let codec = BlockCodec::from_tag(tag)?;
        let mut pos = 2usize;
        let n = vbyte::read_u64(&meta, &mut pos)? as usize;
        // Every entry takes at least 5 bytes, so a count claiming more
        // entries than the metadata could possibly hold is corrupt — and
        // must be rejected *before* it sizes an allocation.
        if n > meta.len() {
            return Err(StoreError::corrupt(
                "blocked-store block count exceeds metadata size",
            ));
        }
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let file_offset = vbyte::read_u64(&meta, &mut pos)?;
            let comp_len = vbyte::read_u32(&meta, &mut pos)?;
            let first_doc = vbyte::read_u32(&meta, &mut pos)?;
            let raw_start = vbyte::read_u64(&meta, &mut pos)?;
            let Some(&[flag, c0, c1, c2, c3]) = meta.get(pos..pos + 5) else {
                return Err(truncated());
            };
            pos += 5;
            let stored = match flag {
                0 => false,
                1 => true,
                _ => return Err(StoreError::corrupt("invalid stored-block flag")),
            };
            let crc = u32::from_le_bytes([c0, c1, c2, c3]);
            blocks.push(BlockEntry {
                file_offset,
                comp_len,
                first_doc,
                raw_start,
                stored,
                crc,
            });
        }
        // Structural validation before any read can trust the table:
        // `block_of_doc` indexes `partition_point(..) - 1`, which is only
        // safe when block 0 covers doc 0; extents must stay inside the
        // payload and blocks must be laid out in order.
        let payload_len = payload.len();
        let mut prev_first = 0u32;
        let mut prev_end = 0u64;
        for (i, b) in blocks.iter().enumerate() {
            if i == 0 && b.first_doc != 0 {
                return Err(StoreError::corrupt("first block does not start at doc 0"));
            }
            if b.first_doc < prev_first {
                return Err(StoreError::corrupt("block table doc ids not monotone"));
            }
            if b.file_offset < prev_end {
                return Err(StoreError::corrupt("block table offsets not monotone"));
            }
            let end = b
                .file_offset
                .checked_add(b.comp_len as u64)
                .ok_or_else(|| StoreError::corrupt("block extent overflows"))?;
            if end > payload_len {
                return Err(StoreError::corrupt("block extent exceeds payload"));
            }
            prev_first = b.first_doc;
            prev_end = end;
        }
        let map = Arc::new(DocMap::deserialize(&read_file(&dir.join(MAP_FILE))?)?);
        if map.num_docs() > 0 && blocks.is_empty() {
            return Err(StoreError::corrupt(
                "document map names docs but block table is empty",
            ));
        }
        let quarantine = Arc::new(load_quarantine(dir)?);
        Ok(BlockedStore {
            payload,
            codec,
            blocks: Arc::new(blocks),
            map,
            cache: None,
            stored_bytes: payload_len,
            quarantine,
        })
    }

    /// Enables or disables the shared decompressed-block cache (an
    /// extension over the paper's baselines; used by the ablation
    /// benchmarks). Enabling installs a fresh sharded LRU of
    /// [`DEFAULT_CACHE_BLOCKS`](Self::set_block_cache_capacity) blocks,
    /// shared with every clone made afterwards.
    pub fn set_block_cache(&mut self, enabled: bool) {
        self.cache = enabled.then(|| Arc::new(ShardedLru::new(DEFAULT_CACHE_BLOCKS)));
    }

    /// Enables the shared block cache with room for `blocks` decompressed
    /// blocks (`0` disables).
    pub fn set_block_cache_capacity(&mut self, blocks: usize) {
        self.cache = (blocks > 0).then(|| Arc::new(ShardedLru::new(blocks)));
    }

    /// Compressed payload size in bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn block_of_doc(&self, id: usize) -> usize {
        // Last block whose first_doc <= id; open-time validation pins
        // block 0's first_doc to 0, so the subtraction cannot underflow for
        // any id the document map accepted.
        self.blocks.partition_point(|b| b.first_doc as usize <= id) - 1
    }

    /// CRC-checks block `b`'s on-disk bytes against its table entry.
    fn verify_block_bytes(&self, b: usize, bytes: &[u8]) -> Result<(), StoreError> {
        if crc32c(bytes) != self.blocks[b].crc {
            return Err(StoreError::Corrupt {
                what: "block checksum mismatch",
                block: Some(b as u32),
                doc_id: None,
            });
        }
        Ok(())
    }

    /// Reads, CRC-verifies and decompresses block `b` into `out` (no cache
    /// involvement), replacing `out`'s contents while reusing its capacity.
    /// Stored blocks pass straight from the backend into `out` — no codec,
    /// no staging copy.
    fn decompress_block_into(&self, b: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        let entry = self.blocks[b];
        if entry.stored {
            out.clear();
            out.resize(entry.comp_len as usize, 0);
            self.payload.read_exact_at(out, entry.file_offset)?;
            return self.verify_block_bytes(b, out);
        }
        crate::with_scratch(entry.comp_len as usize, |comp| {
            self.payload.read_exact_at(comp, entry.file_offset)?;
            self.verify_block_bytes(b, comp)?;
            self.codec.decompress_into(comp, out)
        })
    }

    /// Reads and decompresses block `b` into a fresh buffer.
    fn decompress_block(&self, b: usize) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        self.decompress_block_into(b, &mut out)?;
        Ok(out)
    }

    /// Decompressed bytes of block `b`, through the shared cache when one
    /// is enabled.
    fn load_block(&self, b: usize) -> Result<Arc<Vec<u8>>, StoreError> {
        let Some(cache) = &self.cache else {
            return Ok(Arc::new(self.decompress_block(b)?));
        };
        match cache.get(b) {
            Some(hit) => Ok(hit),
            None => {
                let raw = Arc::new(self.decompress_block(b)?);
                cache.insert(b, Arc::clone(&raw));
                Ok(raw)
            }
        }
    }

    /// Pre-fails a doc id quarantined by `rlz-verify`.
    fn check_quarantine(&self, id: usize) -> Result<(), StoreError> {
        if id <= u32::MAX as usize && self.quarantine.binary_search(&(id as u32)).is_ok() {
            return Err(StoreError::Corrupt {
                what: "document quarantined by rlz-verify",
                block: None,
                doc_id: Some(id as u32),
            });
        }
        Ok(())
    }

    /// Walks every block, verifying its checksum and then decompressing
    /// it, and reports the blocks that fail along with the doc ids they
    /// take down. Never panics on corrupt input; used by the `rlz-verify`
    /// scrub bin.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let num_docs = self.map.num_docs() as u32;
        let mut raw = Vec::new();
        for (b, entry) in self.blocks.iter().enumerate() {
            report.units += 1;
            report.bytes += entry.comp_len as u64;
            if let Err(e) = self.decompress_block_into(b, &mut raw) {
                let first = entry.first_doc;
                let end = self
                    .blocks
                    .get(b + 1)
                    .map_or(num_docs, |next| next.first_doc);
                report.bad.push(BadUnit {
                    block: Some(b as u32),
                    doc_ids: (first..end.max(first)).collect(),
                    error: e,
                });
            }
        }
        report
    }

    fn slice_doc(
        raw: &[u8],
        entry: BlockEntry,
        doc_off: u64,
        doc_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let chunk = doc_off
            .checked_sub(entry.raw_start)
            .map(|s| s as usize)
            .and_then(|start| raw.get(start..)?.get(..doc_len))
            .ok_or_else(|| StoreError::corrupt("document extent exceeds block"))?;
        out.extend_from_slice(chunk);
        Ok(())
    }
}

impl DocStore for BlockedStore {
    fn num_docs(&self) -> usize {
        self.map.num_docs()
    }

    fn quarantined_docs(&self) -> u64 {
        self.quarantine.len() as u64
    }

    fn stats(&self) -> crate::StoreStats {
        crate::StoreStats {
            num_docs: self.map.num_docs() as u64,
            payload_bytes: self.stored_bytes,
            // The blocked map delimits *uncompressed* documents, so this is
            // the longest raw document in the collection.
            max_record_len: self.map.max_extent_len(),
        }
    }

    fn record_offset(&self, id: usize) -> Option<u64> {
        // Position of the *block* holding the document: ordering a batch by
        // it both sweeps the payload forward and lands same-block ids next
        // to each other.
        self.map.extent(id)?;
        Some(self.blocks[self.block_of_doc(id)].file_offset)
    }

    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        let (doc_off, doc_len) = self.map.extent(id).ok_or(StoreError::DocOutOfRange(id))?;
        self.check_quarantine(id)?;
        let b = self.block_of_doc(id);
        let entry = self.blocks[b];
        if self.cache.is_some() {
            let raw = self.load_block(b)?;
            return Self::slice_doc(&raw, entry, doc_off, doc_len, out);
        }
        // Uncached (the paper's baseline): inflate into the thread's block
        // scratch instead of allocating a block-sized buffer per get.
        crate::with_block_scratch(|raw| {
            self.decompress_block_into(b, raw)?;
            Self::slice_doc(raw, entry, doc_off, doc_len, out)
        })
    }

    /// Seek-coalesced multi-get with per-id containment: ids landing in the
    /// same block are grouped so each block is read, CRC-checked and
    /// decompressed **once** per batch, however many documents it serves;
    /// groups are processed in file order across the workers. A block that
    /// fails (checksum, read or decompression) fans its failure out to
    /// exactly the ids living in it — every other id in the batch decodes
    /// normally. Results come back in request order.
    fn get_batch_results(&self, ids: &[u32], threads: usize) -> Vec<Result<Vec<u8>, StoreError>> {
        // (request slot, id, block); out-of-range ids go to a pseudo-run
        // keyed by usize::MAX so the scatter still fills every slot.
        let mut reqs = Vec::with_capacity(ids.len());
        for (slot, &id) in ids.iter().enumerate() {
            let idx = id as usize;
            let b = match self.map.extent(idx) {
                Some(_) => self.block_of_doc(idx),
                None => usize::MAX,
            };
            reqs.push((slot, id, b));
        }
        // Blocks are written to the payload in index order, so sorting by
        // block index is sorting by file offset.
        reqs.sort_by_key(|&(_, id, b)| (b, id));
        let runs: Vec<&[(usize, u32, usize)]> = reqs.chunk_by(|a, b| a.2 == b.2).collect();
        crate::scatter_chunks(ids.len(), &runs, threads, |run| {
            let b = run[0].2;
            if b == usize::MAX {
                // Out-of-range pseudo-run.
                return run
                    .iter()
                    .map(|&(slot, id, _)| (slot, Err(StoreError::DocOutOfRange(id as usize))))
                    .collect();
            }
            // One decode attempt per block; on failure, the error fans out
            // to every id in the run, each tagged with its own doc id.
            let entry = self.blocks[b];
            let shared = self.load_block(b);
            run.iter()
                .map(|&(slot, id, _)| {
                    let idx = id as usize;
                    let r = (|| {
                        let (doc_off, doc_len) =
                            self.map.extent(idx).ok_or(StoreError::DocOutOfRange(idx))?;
                        self.check_quarantine(idx)?;
                        let raw = match &shared {
                            Ok(raw) => raw,
                            Err(e) => return Err(e.duplicate()),
                        };
                        let mut out = Vec::with_capacity(doc_len);
                        Self::slice_doc(raw, entry, doc_off, doc_len, &mut out)?;
                        Ok(out)
                    })()
                    .map_err(|e| e.for_doc(id));
                    (slot, r)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_blocked, TestDir};

    fn docs() -> Vec<Vec<u8>> {
        (0..120)
            .map(|i| {
                format!(
                    "<doc id={i}><body>{} shared boilerplate trailer</body></doc>",
                    "text ".repeat(i % 40)
                )
                .into_bytes()
            })
            .collect()
    }

    fn check_store(codec: BlockCodec, block_size: usize) {
        let dir = TestDir::new(&format!("blocked-{}-{}", codec.name(), block_size));
        let d = docs();
        build_blocked(dir.path(), &d, codec, block_size);
        for store in [
            BlockedStore::open(dir.path()).unwrap(),
            BlockedStore::open_resident(dir.path()).unwrap(),
        ] {
            assert_eq!(store.num_docs(), d.len());
            for (i, doc) in d.iter().enumerate() {
                assert_eq!(&store.get(i).unwrap(), doc, "doc {i}");
            }
            // Reverse order hits different blocks each time.
            for i in (0..d.len()).rev() {
                assert_eq!(&store.get(i).unwrap(), &d[i]);
            }
        }
    }

    #[test]
    fn zlite_one_doc_per_block() {
        check_store(BlockCodec::Zlite(rlz_zlite::Level::Default), 0);
    }

    #[test]
    fn zlite_fixed_blocks() {
        check_store(BlockCodec::Zlite(rlz_zlite::Level::Default), 4096);
    }

    #[test]
    fn lzlite_fixed_blocks() {
        check_store(BlockCodec::Lzlite(rlz_lzlite::Level::Default), 8192);
    }

    #[test]
    fn incompressible_blocks_are_stored_verbatim() {
        // A xorshift byte stream defeats every codec, so each block must be
        // marked stored and the payload must be exactly the raw collection.
        let mut state = 0x2545_F491u32;
        let d: Vec<Vec<u8>> = (0..16)
            .map(|_| {
                (0..1500)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 17;
                        state ^= state << 5;
                        state as u8
                    })
                    .collect()
            })
            .collect();
        let raw_total: u64 = d.iter().map(|v| v.len() as u64).sum();
        for codec in [
            BlockCodec::Zlite(rlz_zlite::Level::Default),
            BlockCodec::Lzlite(rlz_lzlite::Level::Default),
        ] {
            let dir = TestDir::new(&format!("blocked-stored-{}", codec.name()));
            build_blocked(dir.path(), &d, codec, 4096);
            let store = BlockedStore::open(dir.path()).unwrap();
            assert_eq!(
                store.stored_bytes(),
                raw_total,
                "{}: stored blocks should be written verbatim",
                codec.name()
            );
            for (i, doc) in d.iter().enumerate() {
                assert_eq!(&store.get(i).unwrap(), doc, "doc {i}");
            }
        }
    }

    #[test]
    fn older_meta_formats_are_rejected() {
        // Layouts an earlier version wrote — `0xF5` (stored flags, no
        // CRCs) and the tag-first legacy table — are typed open errors,
        // never a store that serves unverified bytes. Rewriting the
        // version byte is enough: `open` never looks past it. So are the
        // retired FSE and LZ4 codec tags 2 and 3.
        let d = docs();
        let dir = TestDir::new("blocked-older-meta");
        build_blocked(
            dir.path(),
            &d,
            BlockCodec::Zlite(rlz_zlite::Level::Default),
            4096,
        );
        let meta = read_file(&dir.path().join(META_FILE)).unwrap();
        for first_byte in [0xF5, meta[1]] {
            let mut older = meta.clone();
            older[0] = first_byte;
            std::fs::write(dir.path().join(META_FILE), older).unwrap();
            assert!(matches!(
                BlockedStore::open(dir.path()),
                Err(StoreError::Corrupt { .. })
            ));
        }
        for tag in [2, 3] {
            let mut retired = meta.clone();
            retired[1] = tag;
            std::fs::write(dir.path().join(META_FILE), retired).unwrap();
            assert!(matches!(
                BlockedStore::open(dir.path()),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn checksummed_store_detects_flips() {
        let dir = TestDir::new("blocked-crc");
        let d = docs();
        build_blocked(
            dir.path(),
            &d,
            BlockCodec::Zlite(rlz_zlite::Level::Default),
            4096,
        );

        // Flip one bit in the middle of the payload: the block holding it
        // must fail with a typed error naming the block, and every id in
        // other blocks must still decode.
        let path = dir.path().join(BLOCKS_FILE);
        let mut payload = std::fs::read(&path).unwrap();
        let victim = payload.len() / 2;
        payload[victim] ^= 0x10;
        std::fs::write(&path, payload).unwrap();
        let store = BlockedStore::open(dir.path()).unwrap();

        let bad_block = store
            .blocks
            .partition_point(|b| b.file_offset <= victim as u64)
            - 1;
        let mut bad_ids = 0;
        for (i, doc) in d.iter().enumerate() {
            match store.get(i) {
                Ok(bytes) => {
                    assert_ne!(store.block_of_doc(i), bad_block);
                    assert_eq!(&bytes, doc, "doc {i}");
                }
                Err(StoreError::Corrupt { what, block, .. }) => {
                    assert_eq!(what, "block checksum mismatch");
                    assert_eq!(block, Some(bad_block as u32));
                    assert_eq!(store.block_of_doc(i), bad_block);
                    bad_ids += 1;
                }
                Err(other) => panic!("doc {i}: unexpected error {other}"),
            }
        }
        assert!(bad_ids > 0, "the flipped bit must land in some block");

        // Per-id batch semantics: one call, same containment.
        let ids: Vec<u32> = (0..d.len() as u32).collect();
        let results = store.get_batch_results(&ids, 2);
        for (i, r) in results.iter().enumerate() {
            if store.block_of_doc(i) == bad_block {
                assert!(
                    matches!(
                        r,
                        Err(StoreError::Corrupt {
                            doc_id: Some(did), ..
                        }) if *did == i as u32
                    ),
                    "doc {i} should carry its own id in the corruption error"
                );
            } else {
                assert_eq!(r.as_ref().unwrap(), &d[i], "doc {i}");
            }
        }
        // Whole-batch get_batch, by contrast, must refuse the batch.
        assert!(store.get_batch(&ids, 2).is_err());
    }

    #[test]
    fn block_larger_than_collection() {
        check_store(BlockCodec::Zlite(rlz_zlite::Level::Fast), usize::MAX);
    }

    #[test]
    fn bigger_blocks_compress_better() {
        let dir_small = TestDir::new("blocked-ratio-small");
        let dir_big = TestDir::new("blocked-ratio-big");
        let d = docs();
        let codec = BlockCodec::Zlite(rlz_zlite::Level::Default);
        build_blocked(dir_small.path(), &d, codec, 0);
        build_blocked(dir_big.path(), &d, codec, 1 << 20);
        let small = BlockedStore::open(dir_small.path()).unwrap().stored_bytes();
        let big = BlockedStore::open(dir_big.path()).unwrap().stored_bytes();
        assert!(big < small, "big-block {big} should beat per-doc {small}");
    }

    #[test]
    fn cache_changes_speed_not_results() {
        let dir = TestDir::new("blocked-cache");
        let d = docs();
        let codec = BlockCodec::Zlite(rlz_zlite::Level::Default);
        build_blocked(dir.path(), &d, codec, 16384);
        let mut store = BlockedStore::open(dir.path()).unwrap();
        store.set_block_cache(true);
        for (i, doc) in d.iter().enumerate() {
            assert_eq!(&store.get(i).unwrap(), doc);
        }
        // And again in reverse, now served partly from cache.
        for (i, doc) in d.iter().enumerate().rev() {
            assert_eq!(&store.get(i).unwrap(), doc);
        }
        store.set_block_cache(false);
        assert_eq!(&store.get(7).unwrap(), &d[7]);
    }

    #[test]
    fn cache_is_shared_across_clones_and_threads() {
        let dir = TestDir::new("blocked-cache-shared");
        let d = docs();
        let codec = BlockCodec::Zlite(rlz_zlite::Level::Default);
        build_blocked(dir.path(), &d, codec, 8192);
        let mut store = BlockedStore::open(dir.path()).unwrap();
        store.set_block_cache_capacity(16);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let handle = store.clone();
                let d = &d;
                scope.spawn(move || {
                    for round in 0..3 {
                        for (i, doc) in d.iter().enumerate() {
                            if (i + t + round) % 2 == 0 {
                                assert_eq!(&handle.get(i).unwrap(), doc);
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn empty_collection_is_valid() {
        let dir = TestDir::new("blocked-empty");
        let codec = BlockCodec::Zlite(rlz_zlite::Level::Default);
        build_blocked::<&[u8]>(dir.path(), &[], codec, 4096);
        let store = BlockedStore::open(dir.path()).unwrap();
        assert_eq!(store.num_docs(), 0);
    }
}
