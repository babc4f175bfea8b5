//! The RLZ document store (§3.1): a memory-resident dictionary, one encoded
//! record per document, and a document map for random access.
//!
//! Retrieval = document-map lookup → one positioned read → factor decode
//! against the in-memory dictionary. No per-request model rebuilding, no
//! neighbours decompressed — the two costs that make blocked baselines slow.
//!
//! The dictionary and document map are behind `Arc`s: cloning an open
//! `RlzStore` is a cheap per-thread handle onto the same resident state,
//! and every read uses positional I/O, so one store serves many threads.

use crate::backend::{FileBackend, MemBackend, StorageBackend};
use crate::docmap::{DocMap, RecordWriter, MAP_FILE};
use crate::verify::{load_quarantine, load_sums, BadUnit, ScrubReport};
use crate::{read_file, DocStore, StoreError};
use rlz_codecs::hash::crc32c;
use rlz_core::PairCoding;
use std::path::Path;
use std::sync::Arc;

pub(crate) const DICT_FILE: &str = "dict.bin";
const PAYLOAD_FILE: &str = "payload.bin";
const META_FILE: &str = "meta.bin";

/// Leads `meta.bin`: `[0xF6, 0x01, coding name…]` — the layout version and
/// the CRC32C tag (one checksum per encoded record in `sums.bin`). The
/// only layout the writer emits and the only one `open` accepts.
const META_HEADER: [u8; 2] = [0xF6, 0x01];

/// Streamed writer for [`RlzStore`]: pre-encoded records are appended one
/// at a time and land on disk immediately, so peak memory is one record
/// plus the per-document length/checksum tables — never the corpus. The
/// chunked build pipeline ([`crate::build_rlz_chunked`]) drives it from
/// its writer thread.
///
/// Callers compress documents themselves (via
/// [`rlz_core::RlzCompressor::compress`] or the scratch-reusing
/// [`rlz_core::RlzCompressor::compress_with`]) and hand the encoded record to
/// [`append_encoded`](Self::append_encoded) — that split is what lets a
/// worker pool own the CPU-heavy factorization while one writer owns the
/// files.
#[derive(Debug)]
pub struct RlzWriter {
    records: RecordWriter,
    coding: PairCoding,
}

impl RlzWriter {
    /// Creates `dir`, writes the dictionary file, and opens the payload for
    /// streaming appends.
    pub fn create(dir: &Path, dict_bytes: &[u8], coding: PairCoding) -> Result<Self, StoreError> {
        let records = RecordWriter::create(dir, PAYLOAD_FILE)?;
        std::fs::write(dir.join(DICT_FILE), dict_bytes)?;
        Ok(RlzWriter { records, coding })
    }

    /// Appends one pre-encoded record (the next document, in order).
    pub fn append_encoded(&mut self, record: &[u8]) -> Result<(), StoreError> {
        self.records.append(record)
    }

    /// Writes the metadata, then flushes the payload and writes the docmap
    /// and checksum sidecar, completing the store.
    pub fn finish(self) -> Result<(), StoreError> {
        let mut meta = META_HEADER.to_vec();
        meta.extend_from_slice(self.coding.name().as_bytes());
        std::fs::write(self.records.dir.join(META_FILE), meta)?;
        self.records.finish()
    }
}

/// RLZ store reader. Holds the dictionary bytes in memory; decoding needs
/// no suffix array, so opening is cheap. Clones share the dictionary,
/// document map and payload backend.
#[derive(Debug, Clone)]
pub struct RlzStore {
    payload: Arc<dyn StorageBackend>,
    dict_bytes: Arc<Vec<u8>>,
    coding: PairCoding,
    map: Arc<DocMap>,
    stored_bytes: u64,
    map_bytes: u64,
    /// Per-record CRC32C over the *encoded* bytes, verified on every read.
    sums: Arc<Vec<u32>>,
    /// Sorted doc ids quarantined by `rlz-verify`.
    quarantine: Arc<Vec<u32>>,
}

impl RlzStore {
    /// Opens a previously built store; encoded records are read from disk
    /// per request (the paper's configuration).
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::with_backend_fn(dir, |p| Ok(Arc::new(FileBackend::open(p)?)))
    }

    /// Opens a previously built store with the encoded payload fully
    /// resident in memory alongside the dictionary: retrieval does no disk
    /// I/O at all.
    pub fn open_resident(dir: &Path) -> Result<Self, StoreError> {
        Self::with_backend_fn(dir, |p| Ok(Arc::new(MemBackend::load(p)?)))
    }

    /// Opens a previously built store over a caller-supplied backend
    /// (fault-injection harnesses, custom storage layers).
    pub fn open_with_backend(
        dir: &Path,
        payload: Arc<dyn StorageBackend>,
    ) -> Result<Self, StoreError> {
        Self::with_backend_fn(dir, |_| Ok(payload))
    }

    fn with_backend_fn(
        dir: &Path,
        make: impl FnOnce(&Path) -> Result<Arc<dyn StorageBackend>, StoreError>,
    ) -> Result<Self, StoreError> {
        let meta = read_file(&dir.join(META_FILE))?;
        let name = meta
            .strip_prefix(META_HEADER.as_slice())
            .ok_or_else(|| StoreError::corrupt("RLZ metadata lacks the 0xF6 CRC32C header"))?;
        let name = std::str::from_utf8(name)
            .map_err(|_| StoreError::corrupt("pair-coding name is not UTF-8"))?;
        let coding = PairCoding::parse(name)
            .map_err(|_| StoreError::corrupt("unknown pair coding in metadata"))?;
        let dict_bytes = Arc::new(read_file(&dir.join(DICT_FILE))?);
        let map = Arc::new(DocMap::deserialize(&read_file(&dir.join(MAP_FILE))?)?);
        let sums = Arc::new(load_sums(dir, map.num_docs())?);
        let quarantine = Arc::new(load_quarantine(dir)?);
        let payload = make(&dir.join(PAYLOAD_FILE))?;
        let stored_bytes = payload.len();
        let map_bytes = map.serialized_len() as u64;
        Ok(RlzStore {
            payload,
            dict_bytes,
            coding,
            map,
            stored_bytes,
            map_bytes,
            sums,
            quarantine,
        })
    }

    /// Compressed payload bytes (excluding dictionary).
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Dictionary size in bytes.
    pub fn dict_bytes(&self) -> usize {
        self.dict_bytes.len()
    }

    /// Total footprint: payload + dictionary + document map (the fair
    /// "Enc. (%)" accounting used by the benchmark tables).
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes + self.dict_bytes.len() as u64 + self.map_bytes
    }

    /// The pair coding this store was built with.
    pub fn coding(&self) -> PairCoding {
        self.coding
    }

    /// Reads record `id`'s encoded bytes into `enc` and verifies its
    /// checksum.
    fn read_record(&self, id: usize, offset: u64, enc: &mut [u8]) -> Result<(), StoreError> {
        self.payload.read_exact_at(enc, offset)?;
        if crc32c(enc) != self.sums[id] {
            return Err(StoreError::Corrupt {
                what: "record checksum mismatch",
                block: None,
                doc_id: Some(id as u32),
            });
        }
        Ok(())
    }

    /// Walks every record verifying its checksum and reports the
    /// unreadable doc ids. Read + CRC, no decode — scrubbing runs at I/O
    /// speed rather than decode speed. Never panics on corrupt input; used
    /// by `rlz-verify`.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for id in 0..self.map.num_docs() {
            let Some((offset, len)) = self.map.extent(id) else {
                continue;
            };
            report.units += 1;
            report.bytes += len as u64;
            let result = crate::with_scratch(len, |enc| self.read_record(id, offset, enc));
            if let Err(error) = result {
                report.bad.push(BadUnit {
                    block: None,
                    doc_ids: vec![id as u32],
                    error,
                });
            }
        }
        report
    }
}

impl DocStore for RlzStore {
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
            // Encoded records: the map delimits the compressed payload.
            max_record_len: self.map.max_extent_len(),
        }
    }

    fn record_offset(&self, id: usize) -> Option<u64> {
        self.map.extent(id).map(|(offset, _)| offset)
    }

    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        let (offset, len) = self.map.extent(id).ok_or(StoreError::DocOutOfRange(id))?;
        if id <= u32::MAX as usize && self.quarantine.binary_search(&(id as u32)).is_ok() {
            return Err(StoreError::Corrupt {
                what: "document quarantined by rlz-verify",
                block: None,
                doc_id: Some(id as u32),
            });
        }
        let start = out.len();
        // Fused decode against the thread's scratch buffers: a warm get
        // performs zero heap allocations (asserted by the counting-
        // allocator test in `tests/alloc_counting.rs`) — the checksum is
        // verified over the encoded bytes already sitting in the scratch,
        // before the decoder sees them.
        let result = crate::with_scratch(len, |enc| {
            self.read_record(id, offset, enc)?;
            crate::with_decode_scratch(|scratch| {
                rlz_core::coding::decode_and_expand_scratch(
                    enc,
                    self.coding,
                    &self.dict_bytes,
                    out,
                    scratch,
                )
            })?;
            Ok(())
        });
        // The fused copy loop truncates `out` back itself when a factor
        // fails validation; keep this truncate as defence in depth: a
        // failing get must never leave partial bytes behind in a reused
        // buffer.
        if result.is_err() {
            out.truncate(start);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_rlz, TestDir};
    use rlz_core::{Dictionary, SampleStrategy};

    fn collection() -> Vec<Vec<u8>> {
        (0..200)
            .map(|i| {
                format!(
                    "<html><nav>home about contact</nav><p>page {i} body {}</p></html>",
                    "common phrase ".repeat(i % 23)
                )
                .into_bytes()
            })
            .collect()
    }

    fn build_and_check(coding: PairCoding) {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
        let dir = TestDir::new(&format!("rlzstore-{}", coding.name()));
        build_rlz(dir.path(), dict, coding, &docs);
        for store in [
            RlzStore::open(dir.path()).unwrap(),
            RlzStore::open_resident(dir.path()).unwrap(),
        ] {
            assert_eq!(store.num_docs(), docs.len());
            assert_eq!(store.coding(), coding);
            for (i, doc) in docs.iter().enumerate() {
                assert_eq!(&store.get(i).unwrap(), doc, "doc {i}");
            }
        }
    }

    #[test]
    fn roundtrip_all_paper_codings() {
        for coding in PairCoding::PAPER_SET {
            build_and_check(coding);
        }
    }

    #[test]
    fn compresses_redundant_collections() {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, all.len() / 50, 512, SampleStrategy::Evenly);
        let dir = TestDir::new("rlzstore-ratio");
        build_rlz(dir.path(), dict, PairCoding::ZZ, &docs);
        let store = RlzStore::open(dir.path()).unwrap();
        let ratio = store.total_stored_bytes() as f64 / all.len() as f64;
        assert!(ratio < 0.5, "ratio {ratio:.3}");
    }

    #[test]
    fn total_stored_bytes_counts_the_map_exactly() {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
        let dir = TestDir::new("rlzstore-footprint");
        build_rlz(dir.path(), dict, PairCoding::UV, &docs);
        let store = RlzStore::open(dir.path()).unwrap();
        let map_file = std::fs::metadata(dir.path().join(MAP_FILE)).unwrap().len();
        assert_eq!(
            store.total_stored_bytes(),
            store.stored_bytes() + store.dict_bytes() as u64 + map_file
        );
    }

    #[test]
    fn empty_docs_and_empty_store() {
        let dict = Dictionary::from_bytes(b"seed".to_vec());
        let dir = TestDir::new("rlzstore-empty");
        build_rlz(
            dir.path(),
            dict,
            PairCoding::UV,
            &[b"".as_slice(), b"x", b""],
        );
        let store = RlzStore::open(dir.path()).unwrap();
        assert_eq!(store.get(0).unwrap(), b"");
        assert_eq!(store.get(1).unwrap(), b"x");
        assert_eq!(store.get(2).unwrap(), b"");
        assert!(matches!(store.get(3), Err(StoreError::DocOutOfRange(3))));
    }

    #[test]
    fn get_batch_matches_sequential_gets() {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
        let dir = TestDir::new("rlzstore-batch");
        build_rlz(dir.path(), dict, PairCoding::ZV, &docs);
        let store = RlzStore::open(dir.path()).unwrap();
        let ids: Vec<u32> = (0..docs.len() as u32).rev().collect();
        for threads in [1, 4] {
            let batch = store.get_batch(&ids, threads).unwrap();
            assert_eq!(batch.len(), ids.len());
            for (got, &id) in batch.iter().zip(&ids) {
                assert_eq!(got, &docs[id as usize], "doc {id} at {threads} threads");
            }
        }
        // An out-of-range ID anywhere in the batch surfaces as an error.
        assert!(store.get_batch(&[0, 9_999], 2).is_err());
    }

    #[test]
    fn decode_error_leaves_out_unchanged() {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
        let dir = TestDir::new("rlzstore-partial");
        build_rlz(dir.path(), dict, PairCoding::UV, &docs);
        // Truncate the payload so later records read past EOF or decode
        // mid-record; any failing get must not leave partial bytes in a
        // reused output buffer.
        let payload = dir.path().join(super::PAYLOAD_FILE);
        let bytes = std::fs::read(&payload).unwrap();
        std::fs::write(&payload, &bytes[..bytes.len() / 3]).unwrap();
        let store = RlzStore::open(dir.path()).unwrap();
        let mut out = b"keep".to_vec();
        let mut failures = 0;
        for i in 0..docs.len() {
            out.truncate(4);
            if store.get_into(i, &mut out).is_err() {
                failures += 1;
                assert_eq!(out, b"keep", "doc {i} left partial bytes on error");
            }
        }
        assert!(failures > 0, "truncation should make some gets fail");
    }

    #[test]
    fn open_rejects_corrupt_meta() {
        let dict = Dictionary::from_bytes(b"seed".to_vec());
        let dir = TestDir::new("rlzstore-badmeta");
        build_rlz(dir.path(), dict, PairCoding::UV, &[b"doc".as_slice()]);
        std::fs::write(dir.path().join(super::META_FILE), b"??").unwrap();
        assert!(RlzStore::open(dir.path()).is_err());
        // The right version byte with a bogus checksum tag must also fail.
        std::fs::write(dir.path().join(super::META_FILE), [0xF6, 9, b'U', b'V']).unwrap();
        assert!(RlzStore::open(dir.path()).is_err());
        // A valid header naming a retired coder (Elias γ/δ) is corrupt too.
        for name in [b"GV", b"DV"] {
            std::fs::write(
                dir.path().join(super::META_FILE),
                [&super::META_HEADER[..], name].concat(),
            )
            .unwrap();
            assert!(matches!(
                RlzStore::open(dir.path()),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn legacy_meta_without_checksums_is_rejected() {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
        let dir = TestDir::new("rlzstore-legacy-meta");
        build_rlz(dir.path(), dict, PairCoding::ZV, &docs);
        // The layout an earlier version wrote — the bare coding name —
        // is a typed open error, not a silently unverified store.
        std::fs::write(dir.path().join(super::META_FILE), b"ZV").unwrap();
        assert!(matches!(
            RlzStore::open(dir.path()),
            Err(StoreError::Corrupt { .. })
        ));
        // So is current metadata whose sums sidecar vanished.
        std::fs::write(
            dir.path().join(super::META_FILE),
            [&super::META_HEADER[..], b"ZV"].concat(),
        )
        .unwrap();
        RlzStore::open(dir.path()).unwrap();
        std::fs::remove_file(dir.path().join(crate::verify::SUMS_FILE)).unwrap();
        assert!(matches!(
            RlzStore::open(dir.path()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn checksums_catch_bit_flips_per_record() {
        let docs = collection();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
        let dir = TestDir::new("rlzstore-crc");
        build_rlz(dir.path(), dict, PairCoding::UV, &docs);
        let path = dir.path().join(super::PAYLOAD_FILE);
        let mut payload = std::fs::read(&path).unwrap();
        let victim = payload.len() / 2;
        payload[victim] ^= 0x40;
        std::fs::write(&path, payload).unwrap();

        let store = RlzStore::open(dir.path()).unwrap();
        let mut bad = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            match store.get(i) {
                Ok(bytes) => assert_eq!(&bytes, doc, "doc {i}"),
                Err(StoreError::Corrupt {
                    what,
                    doc_id: Some(did),
                    ..
                }) => {
                    assert_eq!(what, "record checksum mismatch");
                    assert_eq!(did, i as u32);
                    bad.push(i as u32);
                }
                Err(other) => panic!("doc {i}: unexpected error {other}"),
            }
        }
        // A single flipped bit lives in exactly one record.
        assert_eq!(bad.len(), 1, "one flipped bit must fail exactly one record");

        // The scrub finds the same record, and quarantining it makes the
        // store pre-fail that id with a typed error.
        let report = store.scrub();
        assert_eq!(report.bad_doc_ids(), bad);
        assert_eq!(report.units, docs.len() as u64);
        crate::write_quarantine(dir.path(), &report.bad_doc_ids()).unwrap();
        let store = RlzStore::open(dir.path()).unwrap();
        assert!(matches!(
            store.get(bad[0] as usize),
            Err(StoreError::Corrupt {
                what: "document quarantined by rlz-verify",
                ..
            })
        ));
        // Per-id batch: only the corrupt record errors.
        let ids: Vec<u32> = (0..docs.len() as u32).collect();
        for (i, r) in store.get_batch_results(&ids, 2).iter().enumerate() {
            if i as u32 == bad[0] {
                assert!(r.is_err());
            } else {
                assert_eq!(r.as_ref().unwrap(), &docs[i], "doc {i}");
            }
        }
    }
}
