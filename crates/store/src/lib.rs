//! Document stores with fast random access — the storage layer of the
//! paper's evaluation (§4, "Systems Tested").
//!
//! Three store families, all sharing one [`DocStore`] trait and an on-disk
//! directory layout:
//!
//! * [`AsciiStore`] — raw concatenation + document map (the uncompressed
//!   baseline),
//! * [`BlockedStore`] — fixed-size blocks compressed with
//!   [`BlockCodec::Zlite`] (zlib-class) or [`BlockCodec::Lzlite`]
//!   (lzma-class); block size 0 = one document per block,
//! * [`RlzStore`] — the paper's contribution: per-document RLZ encodings
//!   decoded against a memory-resident dictionary.
//!
//! # Shared-reader architecture
//!
//! The paper's headline result is that RLZ retrieval is just a document-map
//! lookup, one positioned read, and memcpy expansion against an in-memory
//! dictionary — a read path that scales with reader threads. The store
//! layer is built around that:
//!
//! * every retrieval method takes **`&self`**: one opened store serves any
//!   number of threads concurrently;
//! * disk access goes through [`StorageBackend`] (positional
//!   `read_exact_at`; no shared file cursor), with a file-backed
//!   ([`FileBackend`]) and a memory-resident ([`MemBackend`]) variant —
//!   see each store's `open` / `open_resident`;
//! * stores are `Clone`, and clones are cheap handles sharing the
//!   dictionary, document map and backend via `Arc` — hand one to each
//!   worker thread, or just share a reference;
//! * [`DocStore::get_batch_results`] serves a batch of requests on N
//!   threads with per-id error containment, seek-aware: requests are
//!   ordered by on-disk offset ([`DocStore::record_offset`]) so workers
//!   sweep the payload forward, and [`BlockedStore`] coalesces same-block
//!   ids so one decompression serves every document in the block (results
//!   return in request order; [`DocStore::get_batch`] is the fail-fast
//!   wrapper over it);
//! * every family opens exactly the layout its writer emits — per-record
//!   or per-block CRC32C sums included — and rejects anything else with a
//!   typed [`StoreError::Corrupt`] at open;
//! * [`BlockedStore`]'s optional block cache is a thread-safe sharded LRU
//!   ([`ShardedLru`]) shared by all clones of the store.
//!
//! # Example
//!
//! ```
//! use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};
//! use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
//!
//! let docs: Vec<Vec<u8>> = (0..50)
//!     .map(|i| format!("<page>{i} shared header</page>").into_bytes())
//!     .collect();
//! let all: Vec<u8> = docs.concat();
//! let dict = Dictionary::sample(&all, 256, 64, SampleStrategy::Evenly);
//!
//! let dir = std::env::temp_dir().join("rlz-doc-example");
//! let compressor = RlzCompressor::new(dict, PairCoding::UV);
//! build_rlz_chunked(&dir, &compressor, docs.iter(), &BuildConfig::default()).unwrap();
//!
//! let store = RlzStore::open(&dir).unwrap();
//! assert_eq!(store.get(7).unwrap(), docs[7]);
//!
//! // Concurrent multi-get: one shared store, four worker threads.
//! let ids: Vec<u32> = (0..50).collect();
//! let batch = store.get_batch(&ids, 4).unwrap();
//! assert_eq!(batch[13], docs[13]);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod backend;
mod blocked;
mod build;
mod cache;
mod docmap;
mod fault;
mod live;
mod rlz_store;
mod segment;
#[cfg(test)]
pub(crate) mod testutil;
mod verify;
mod wal;

pub use ascii::AsciiStore;
pub use backend::{FileBackend, MemBackend, StorageBackend};
pub use blocked::{BlockCodec, BlockedStore};
pub use build::{build_blocked_chunked, build_rlz_chunked, BuildConfig, BuildReport};
pub use cache::ShardedLru;
pub use docmap::DocMap;
pub use fault::{FaultBackend, FaultMedia, FaultPlan};
pub use live::{scrub_live, LiveConfig, LiveSnapshot, LiveStore, RecoveryInfo};
pub use rlz_store::{RlzStore, RlzWriter};
pub use segment::{segment_file_name, Manifest, SegmentReader, MANIFEST_FILE};
pub use verify::{write_quarantine, BadUnit, ScrubReport, QUARANTINE_FILE};
pub use wal::{FileMedia, FsyncPolicy, Wal, WalMedia, WalOp, WalRecord, WalRecovery, WAL_FILE};

use std::cell::RefCell;
use std::fmt;
use std::io;
use std::path::Path;

/// Errors from building or reading stores.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A compressed payload failed to decode.
    Codec(rlz_codecs::CodecError),
    /// An lzlite block failed to decode.
    Lz(rlz_lzlite::Error),
    /// Structural corruption or checksum mismatch in store data.
    ///
    /// `block` and `doc_id` bound the blast radius when it is known: a
    /// failed block checksum names the block, a failed record verification
    /// names the document. Open-time metadata corruption carries neither.
    /// Construct via [`StoreError::corrupt`] when no context is known.
    Corrupt {
        /// Which invariant or checksum failed.
        what: &'static str,
        /// Compressed block containing the corruption, when known.
        block: Option<u32>,
        /// Document id whose bytes are unreadable, when known.
        doc_id: Option<u32>,
    },
    /// Requested document does not exist.
    DocOutOfRange(usize),
    /// A write was attempted on a store opened without a write path.
    ReadOnly,
    /// The write-ahead log hit its hard size bound; writes fail until a
    /// seal drains it.
    WalFull,
}

impl StoreError {
    /// Structural corruption with no localized blast radius (open-time
    /// metadata failures, unknown codec tags, and the like).
    pub fn corrupt(what: &'static str) -> Self {
        StoreError::Corrupt {
            what,
            block: None,
            doc_id: None,
        }
    }

    /// Attaches a document id to a corruption error that does not already
    /// name one, so per-id containment paths can report which document a
    /// shared failure (e.g. one bad block) took down. Other variants pass
    /// through unchanged.
    pub fn for_doc(self, doc_id: u32) -> Self {
        match self {
            StoreError::Corrupt {
                what,
                block,
                doc_id: None,
            } => StoreError::Corrupt {
                what,
                block,
                doc_id: Some(doc_id),
            },
            other => other,
        }
    }

    /// Structural copy of this error, for fanning one failure out to every
    /// document it affects (`io::Error` is not `Clone`; the `Io` variant is
    /// rebuilt from its kind and message).
    pub fn duplicate(&self) -> Self {
        match self {
            StoreError::Io(e) => StoreError::Io(io::Error::new(e.kind(), e.to_string())),
            StoreError::Codec(e) => StoreError::Codec(e.clone()),
            StoreError::Lz(e) => StoreError::Lz(e.clone()),
            StoreError::Corrupt {
                what,
                block,
                doc_id,
            } => StoreError::Corrupt {
                what,
                block: *block,
                doc_id: *doc_id,
            },
            StoreError::DocOutOfRange(id) => StoreError::DocOutOfRange(*id),
            StoreError::ReadOnly => StoreError::ReadOnly,
            StoreError::WalFull => StoreError::WalFull,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
            StoreError::Lz(e) => write!(f, "store lzlite error: {e}"),
            StoreError::Corrupt {
                what,
                block,
                doc_id,
            } => {
                write!(f, "corrupt store: {what}")?;
                if let Some(b) = block {
                    write!(f, " [block {b}]")?;
                }
                if let Some(d) = doc_id {
                    write!(f, " [doc {d}]")?;
                }
                Ok(())
            }
            StoreError::DocOutOfRange(id) => write!(f, "document {id} out of range"),
            StoreError::ReadOnly => write!(f, "store is read-only"),
            StoreError::WalFull => write!(f, "write-ahead log is full"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Lz(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<rlz_codecs::CodecError> for StoreError {
    fn from(e: rlz_codecs::CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<rlz_lzlite::Error> for StoreError {
    fn from(e: rlz_lzlite::Error) -> Self {
        StoreError::Lz(e)
    }
}

/// Cheap aggregate statistics about an opened store.
///
/// Serving frontends (`rlz-serve`'s STAT opcode) and monitoring read these
/// without touching the payload: every field comes from metadata already
/// resident after `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of documents stored.
    pub num_docs: u64,
    /// Stored payload bytes (compressed where the store compresses;
    /// excludes dictionary/metadata). 0 when the store cannot say cheaply.
    pub payload_bytes: u64,
    /// Largest single record in the payload: the raw document for
    /// [`AsciiStore`] and [`BlockedStore`], the *encoded* record for
    /// [`RlzStore`] (decoded sizes are unknowable without decoding).
    /// 0 when the store cannot say cheaply.
    pub max_record_len: u64,
}

/// Random access to documents by ID, shareable across reader threads.
///
/// All retrieval takes `&self`: implementations use positional I/O and
/// interior synchronization (never a shared cursor), so one opened store can
/// serve concurrent requests. `Send + Sync` is part of the contract.
pub trait DocStore: Send + Sync {
    /// Number of documents stored.
    fn num_docs(&self) -> usize;

    /// Cheap aggregate statistics (metadata only; never touches the
    /// payload). The default reports the document count and leaves the
    /// other fields 0; the concrete stores override with exact values.
    fn stats(&self) -> StoreStats {
        StoreStats {
            num_docs: self.num_docs() as u64,
            ..StoreStats::default()
        }
    }

    /// Appends document `id`'s bytes to `out`.
    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError>;

    /// Fetches document `id` into a fresh buffer.
    fn get(&self, id: usize) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        self.get_into(id, &mut out)?;
        Ok(out)
    }

    /// Byte offset of document `id`'s record within the store's payload,
    /// when the store keeps one (used by
    /// [`DocStore::get_batch_results`] to order batched reads by on-disk
    /// position). `None` for out-of-range ids or stores without a
    /// meaningful payload offset.
    fn record_offset(&self, id: usize) -> Option<u64> {
        let _ = id;
        None
    }

    /// Number of doc ids quarantined by `rlz-verify` (reads of them
    /// pre-fail with [`StoreError::Corrupt`]). The default reports 0;
    /// families that load the `quarantine.bin` sidecar override it.
    fn quarantined_docs(&self) -> u64 {
        0
    }

    /// Fetches every document in `ids`, **in request order**, using up to
    /// `threads` worker threads sharing this store, with **per-id** error
    /// containment: one unreadable document (a corrupt block, an I/O
    /// error, an out-of-range id) yields an `Err` in its slot while every
    /// other slot still carries its bytes. This is the one batch primitive
    /// a store overrides.
    ///
    /// The default implementation is seek-aware: requests are sorted by
    /// [`record_offset`](DocStore::record_offset) so each worker sweeps
    /// forward through a contiguous region of the payload instead of
    /// seeking randomly — the win is largest on cold file-backed stores.
    /// Duplicates are served independently. [`BlockedStore`] overrides
    /// this to coalesce ids sharing a block, so one decompression serves
    /// every document in the block and a block that fails its checksum
    /// fails exactly the ids living in it; [`LiveStore`] overrides it to
    /// pin one snapshot for the whole batch.
    fn get_batch_results(&self, ids: &[u32], threads: usize) -> Vec<Result<Vec<u8>, StoreError>> {
        let mut order: Vec<(usize, u32)> = ids.iter().copied().enumerate().collect();
        // Stable sort by on-disk position; `None` (offset-less or
        // out-of-range ids — the latter error inside get) sorts first,
        // which is harmless.
        order.sort_by_cached_key(|&(_, id)| self.record_offset(id as usize));
        let threads = threads.max(1).min(ids.len().max(1));
        let chunk = order.len().div_ceil(threads).max(1);
        let tasks: Vec<&[(usize, u32)]> = order.chunks(chunk).collect();
        scatter_chunks(ids.len(), &tasks, threads, |part| {
            part.iter()
                .map(|&(slot, id)| (slot, self.get(id as usize).map_err(|e| e.for_doc(id))))
                .collect()
        })
    }

    /// Fail-fast [`get_batch_results`](DocStore::get_batch_results): the
    /// documents in request order, or the first error in request order.
    fn get_batch(&self, ids: &[u32], threads: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        self.get_batch_results(ids, threads).into_iter().collect()
    }
}

/// A store that accepts writes. [`LiveStore`] is the one implementation;
/// the trait exists so the serving layer can hold `Arc<dyn WriteStore>`
/// without knowing the store family.
///
/// Durability contract: under [`FsyncPolicy::Always`] an `Ok` return means
/// the mutation's WAL frame is on stable storage — it survives `kill -9`
/// and power loss. Under `Interval`/`Never` an `Ok` means the mutation is
/// logged and visible, with durability following by the policy's window.
pub trait WriteStore: DocStore {
    /// Stores a new document, returning its assigned id.
    fn put(&self, doc: &[u8]) -> Result<u32, StoreError>;

    /// Appends bytes to an existing document.
    fn append(&self, id: u32, bytes: &[u8]) -> Result<(), StoreError>;

    /// Deletes a document; subsequent gets fail with
    /// [`StoreError::DocOutOfRange`].
    fn delete(&self, id: u32) -> Result<(), StoreError>;

    /// True when the write backlog (WAL length) passed its soft bound and
    /// new writes should be shed with `ERR_BUSY`. Reads are unaffected.
    fn write_pressure(&self) -> bool {
        false
    }

    /// Point-in-time write-path accounting for monitoring (WAL backlog,
    /// seal counts, what the last open recovered). The default reports
    /// zeros; [`LiveStore`] overrides with live values. May take the
    /// writer lock briefly — call it from scrape paths, not hot paths.
    fn write_stats(&self) -> WriteStats {
        WriteStats::default()
    }
}

/// Write-path accounting reported by [`WriteStore::write_stats`].
///
/// Counters (`wal_frames`, `seals`, `seal_failures`) accumulate from the
/// store's open; gauges (`wal_bytes`, `unsynced_frames`) are current
/// values; the `recovery_*` fields describe what the most recent open
/// replayed (see [`RecoveryInfo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteStats {
    /// Current WAL backlog in bytes.
    pub wal_bytes: u64,
    /// WAL frames logged since open (PUT/APPEND/DELETE).
    pub wal_frames: u64,
    /// WAL frames appended but not yet on stable storage.
    pub unsynced_frames: u64,
    /// Tail seals published since open (manifest generations advanced).
    pub seals: u64,
    /// Post-write opportunistic seals that failed (retried on the next
    /// write; the writes they followed were already durable).
    pub seal_failures: u64,
    /// Pre-write seals that failed and rejected the incoming write (the
    /// WAL was at its hard bound and could not be drained) — each one is
    /// an error a writer saw.
    pub pre_seal_failures: u64,
    /// WAL frames the most recent open replayed.
    pub recovery_replayed_frames: u64,
    /// WAL bytes the most recent open read back.
    pub recovery_wal_bytes: u64,
    /// Torn/corrupt WAL tail bytes the most recent open truncated away.
    pub recovery_torn_bytes: u64,
    /// Seal-debris files the most recent open deleted.
    pub recovery_debris_removed: u64,
}

/// Runs `tasks` on up to `threads` scoped workers; each task yields
/// `(slot, value)` pairs that are scattered into a `n_out`-slot result
/// vector. Every slot must be filled exactly once across all tasks.
pub(crate) fn scatter_chunks<T: Sync, R: Send>(
    n_out: usize,
    tasks: &[T],
    threads: usize,
    f: impl Fn(&T) -> Vec<(usize, R)> + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(tasks.len().max(1));
    let mut slots: Vec<Option<R>> = (0..n_out).map(|_| None).collect();
    let fill = |slots: &mut Vec<Option<R>>, pairs: Vec<(usize, R)>| {
        for (slot, r) in pairs {
            debug_assert!(slots[slot].is_none(), "slot {slot} filled twice");
            slots[slot] = Some(r);
        }
    };
    if threads <= 1 {
        for t in tasks {
            fill(&mut slots, f(t));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (f, next) = (&f, &next);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut acc = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(t) = tasks.get(i) else { break };
                            acc.append(&mut f(t));
                        }
                        acc
                    })
                })
                .collect();
            for h in handles {
                fill(&mut slots, h.join().expect("batch worker panicked"));
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled by exactly one task"))
        .collect()
}

thread_local! {
    /// Per-thread scratch for encoded records, so the hot read path does
    /// not allocate per get.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread factor-stream scratch for the fused RLZ decode pipeline
    /// (two `u32` buffers + one inflate buffer, see
    /// [`rlz_core::DecodeScratch`]). Together with `SCRATCH` this makes a
    /// warm `RlzStore::get_into` perform zero heap allocations.
    static DECODE_SCRATCH: RefCell<rlz_core::DecodeScratch> =
        RefCell::new(rlz_core::DecodeScratch::new());
    /// Per-thread decompressed-block buffer for `BlockedStore` gets that
    /// bypass the shared cache (the paper's baseline configuration), so a
    /// warm uncached get reuses one inflate target instead of allocating a
    /// block-sized `Vec` per request.
    static BLOCK_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread encode-side scratch mirroring `DECODE_SCRATCH`, used by
    /// the chunked build pipeline's workers so factorizing a master block
    /// reuses one set of factor/stream buffers per thread.
    static ENCODE_SCRATCH: RefCell<rlz_core::EncodeScratch> =
        RefCell::new(rlz_core::EncodeScratch::new());
}

/// Runs `f` over a `len`-byte per-thread scratch slice. Must not be nested
/// (the inner call would hit the RefCell's borrow check).
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        f(&mut buf[..len])
    })
}

/// Runs `f` with this thread's RLZ factor-stream scratch. Safe to nest
/// inside [`with_scratch`] (different thread-local cells); must not be
/// nested within itself.
pub(crate) fn with_decode_scratch<R>(f: impl FnOnce(&mut rlz_core::DecodeScratch) -> R) -> R {
    DECODE_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `f` with this thread's decompressed-block buffer. Safe to nest
/// inside [`with_scratch`]; must not be nested within itself.
pub(crate) fn with_block_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    BLOCK_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `f` with this thread's RLZ encode scratch. Must not be nested
/// within itself.
pub(crate) fn with_encode_scratch<R>(f: impl FnOnce(&mut rlz_core::EncodeScratch) -> R) -> R {
    ENCODE_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The store family whose layout `dir` holds — `"live"`, `"rlz"`,
/// `"blocked"` or `"ascii"` — by the file each family's writer always
/// emits; `None` when no layout matches. A live directory also carries
/// `dict.bin`, so its `MANIFEST` is probed first.
pub fn detect_family(dir: &Path) -> Option<&'static str> {
    [
        (MANIFEST_FILE, "live"),
        (rlz_store::DICT_FILE, "rlz"),
        (blocked::BLOCKS_FILE, "blocked"),
        (ascii::DATA_FILE, "ascii"),
    ]
    .into_iter()
    .find(|(file, _)| dir.join(file).exists())
    .map(|(_, family)| family)
}

/// Reads a whole file (helper shared by store readers).
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    Ok(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_blocked, build_rlz, TestDir};
    use rlz_core::{Dictionary, PairCoding};

    #[test]
    fn detect_family_recognizes_each_layout() {
        let docs: [&[u8]; 2] = [b"alpha", b"beta"];
        let ascii = TestDir::new("detect-ascii");
        AsciiStore::build(ascii.path(), docs.into_iter()).unwrap();
        let blocked = TestDir::new("detect-blocked");
        build_blocked(
            blocked.path(),
            &docs,
            BlockCodec::Zlite(rlz_zlite::Level::Fast),
            0,
        );
        let rlz = TestDir::new("detect-rlz");
        let dict = Dictionary::from_bytes(b"alphabeta".to_vec());
        build_rlz(rlz.path(), dict.clone(), PairCoding::UV, &docs);
        let live = TestDir::new("detect-live");
        LiveStore::create(live.path(), dict, PairCoding::UV, LiveConfig::default()).unwrap();
        let empty = TestDir::new("detect-empty");
        assert_eq!(detect_family(ascii.path()), Some("ascii"));
        assert_eq!(detect_family(blocked.path()), Some("blocked"));
        assert_eq!(detect_family(rlz.path()), Some("rlz"));
        assert_eq!(detect_family(live.path()), Some("live"));
        assert_eq!(detect_family(empty.path()), None);
    }

    #[test]
    fn scratch_reuses_capacity() {
        let p1 = with_scratch(64, |buf| {
            assert_eq!(buf.len(), 64);
            buf.as_ptr() as usize
        });
        let p2 = with_scratch(32, |buf| {
            assert_eq!(buf.len(), 32);
            buf.as_ptr() as usize
        });
        assert_eq!(p1, p2, "same thread must reuse the same scratch buffer");
    }
}
