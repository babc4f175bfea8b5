//! The uncompressed baseline store: "simply a raw concatenation of
//! uncompressed documents with a map specifying offsets to each document
//! location" (§4, Systems Tested).
//!
//! The data file is headerless raw bytes, so integrity rides in the
//! self-describing `sums.bin` sidecar (one CRC32C per document, written at
//! build time and verified on every read). The sidecar is mandatory: a
//! store without it does not open.

use crate::backend::{FileBackend, MemBackend, StorageBackend};
use crate::docmap::{DocMap, RecordWriter, MAP_FILE};
use crate::verify::{load_quarantine, load_sums, BadUnit, ScrubReport};
use crate::{read_file, DocStore, StoreError};
use rlz_codecs::hash::crc32c;
use std::path::Path;
use std::sync::Arc;

pub(crate) const DATA_FILE: &str = "data.bin";

/// Uncompressed document store with random access. Clones are cheap
/// handles onto the same backend and document map.
#[derive(Debug, Clone)]
pub struct AsciiStore {
    data: Arc<dyn StorageBackend>,
    map: Arc<DocMap>,
    /// Per-document CRC32C, verified on every read.
    sums: Arc<Vec<u32>>,
    /// Sorted doc ids quarantined by `rlz-verify`.
    quarantine: Arc<Vec<u32>>,
}

impl AsciiStore {
    /// Builds the store in `dir` from the given documents, streaming each
    /// to disk as it arrives (there is no CPU stage to parallelize).
    pub fn build<'a>(dir: &Path, docs: impl Iterator<Item = &'a [u8]>) -> Result<(), StoreError> {
        let mut records = RecordWriter::create(dir, DATA_FILE)?;
        for doc in docs {
            records.append(doc)?;
        }
        records.finish()
    }

    /// Opens a previously built store with a file-backed payload.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::with_backend(dir, Arc::new(FileBackend::open(&dir.join(DATA_FILE))?))
    }

    /// Opens a previously built store with the payload fully resident in
    /// memory.
    pub fn open_resident(dir: &Path) -> Result<Self, StoreError> {
        Self::with_backend(dir, Arc::new(MemBackend::load(&dir.join(DATA_FILE))?))
    }

    /// Opens a previously built store over a caller-supplied backend
    /// (fault-injection harnesses, custom storage layers).
    pub fn open_with_backend(
        dir: &Path,
        data: Arc<dyn StorageBackend>,
    ) -> Result<Self, StoreError> {
        Self::with_backend(dir, data)
    }

    fn with_backend(dir: &Path, data: Arc<dyn StorageBackend>) -> Result<Self, StoreError> {
        let map = Arc::new(DocMap::deserialize(&read_file(&dir.join(MAP_FILE))?)?);
        let sums = Arc::new(load_sums(dir, map.num_docs())?);
        let quarantine = Arc::new(load_quarantine(dir)?);
        Ok(AsciiStore {
            data,
            map,
            sums,
            quarantine,
        })
    }

    /// Total stored payload bytes (equals the collection size).
    pub fn stored_bytes(&self) -> u64 {
        self.map.total_bytes()
    }

    /// Walks every document verifying its checksum and reports the
    /// unreadable doc ids. Never panics on corrupt input; used by
    /// `rlz-verify`.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut buf = Vec::new();
        for id in 0..self.map.num_docs() {
            report.units += 1;
            if let Some((_, len)) = self.map.extent(id) {
                report.bytes += len as u64;
            }
            buf.clear();
            if let Err(error) = self.get_into(id, &mut buf) {
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

impl DocStore for AsciiStore {
    fn num_docs(&self) -> usize {
        self.map.num_docs()
    }

    fn quarantined_docs(&self) -> u64 {
        self.quarantine.len() as u64
    }

    fn stats(&self) -> crate::StoreStats {
        crate::StoreStats {
            num_docs: self.map.num_docs() as u64,
            payload_bytes: self.map.total_bytes(),
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
        out.resize(start + len, 0);
        let result = self
            .data
            .read_exact_at(&mut out[start..], offset)
            .and_then(|()| {
                if crc32c(&out[start..]) != self.sums[id] {
                    return Err(StoreError::Corrupt {
                        what: "record checksum mismatch",
                        block: None,
                        doc_id: Some(id as u32),
                    });
                }
                Ok(())
            });
        if let Err(e) = result {
            out.truncate(start);
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    #[test]
    fn build_open_get() {
        let dir = TestDir::new("ascii-basic");
        let docs: Vec<Vec<u8>> = (0..50)
            .map(|i| format!("document number {i} with body").into_bytes())
            .collect();
        AsciiStore::build(dir.path(), docs.iter().map(|d| d.as_slice())).unwrap();
        for store in [
            AsciiStore::open(dir.path()).unwrap(),
            AsciiStore::open_resident(dir.path()).unwrap(),
        ] {
            assert_eq!(store.num_docs(), 50);
            for (i, doc) in docs.iter().enumerate() {
                assert_eq!(&store.get(i).unwrap(), doc);
            }
            // Random-ish order too.
            for i in [49usize, 0, 25, 13, 49, 1] {
                assert_eq!(&store.get(i).unwrap(), &docs[i]);
            }
        }
    }

    #[test]
    fn empty_documents_are_fine() {
        let dir = TestDir::new("ascii-empty");
        let docs: Vec<&[u8]> = vec![b"", b"x", b"", b""];
        AsciiStore::build(dir.path(), docs.iter().copied()).unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();
        assert_eq!(store.get(0).unwrap(), b"");
        assert_eq!(store.get(1).unwrap(), b"x");
        assert_eq!(store.get(3).unwrap(), b"");
    }

    #[test]
    fn out_of_range_is_an_error() {
        let dir = TestDir::new("ascii-oor");
        AsciiStore::build(dir.path(), [b"only".as_slice()].into_iter()).unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();
        assert!(matches!(store.get(1), Err(StoreError::DocOutOfRange(1))));
    }

    #[test]
    fn missing_files_error_cleanly() {
        let dir = TestDir::new("ascii-missing");
        assert!(AsciiStore::open(dir.path()).is_err());
    }

    #[test]
    fn truncated_payload_leaves_out_unchanged() {
        let dir = TestDir::new("ascii-trunc-out");
        AsciiStore::build(dir.path(), [b"0123456789".as_slice()].into_iter()).unwrap();
        std::fs::write(dir.path().join(super::DATA_FILE), b"0123").unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();
        let mut out = b"prefix".to_vec();
        assert!(store.get_into(0, &mut out).is_err());
        assert_eq!(out, b"prefix", "failed read must not leave partial bytes");
    }

    #[test]
    fn checksums_catch_flips_and_stores_without_them_are_rejected() {
        let dir = TestDir::new("ascii-crc");
        let docs: Vec<Vec<u8>> = (0..20)
            .map(|i| format!("document {i} {}", "payload ".repeat(10)).into_bytes())
            .collect();
        AsciiStore::build(dir.path(), docs.iter().map(|d| d.as_slice())).unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();

        // Flip a bit in doc 7's bytes: exactly that doc must fail.
        let path = dir.path().join(super::DATA_FILE);
        let mut data = std::fs::read(&path).unwrap();
        let (off, _) = store.map.extent(7).unwrap();
        data[off as usize + 3] ^= 0x02;
        std::fs::write(&path, &data).unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            if i == 7 {
                assert!(matches!(
                    store.get(i),
                    Err(StoreError::Corrupt {
                        what: "record checksum mismatch",
                        doc_id: Some(7),
                        ..
                    })
                ));
            } else {
                assert_eq!(&store.get(i).unwrap(), doc, "doc {i}");
            }
        }
        let report = store.scrub();
        assert_eq!(report.bad_doc_ids(), vec![7]);
        crate::write_quarantine(dir.path(), &report.bad_doc_ids()).unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();
        assert_eq!(store.quarantined_docs(), 1);
        assert!(matches!(
            store.get(7),
            Err(StoreError::Corrupt {
                what: "document quarantined by rlz-verify",
                ..
            })
        ));

        // Without the sidecar the flip would go unnoticed, so the store
        // must not open at all.
        std::fs::remove_file(dir.path().join(crate::verify::SUMS_FILE)).unwrap();
        assert!(matches!(
            AsciiStore::open(dir.path()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn clones_share_the_backend() {
        let dir = TestDir::new("ascii-clone");
        let docs: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 100]).collect();
        AsciiStore::build(dir.path(), docs.iter().map(|d| d.as_slice())).unwrap();
        let store = AsciiStore::open(dir.path()).unwrap();
        let clone = store.clone();
        assert_eq!(store.get(3).unwrap(), clone.get(3).unwrap());
    }
}
