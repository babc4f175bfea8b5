//! Sealed, immutable segments and the manifest that publishes them.
//!
//! The live store folds its in-memory tail into **segments**: append-only
//! files of RLZ-encoded records, each published atomically and never
//! rewritten. A segment file (`seg-NNNNNN.seg`) is:
//!
//! ```text
//! "RLZG" 0x01                         header: magic + version
//! record bytes …                      encoded docs, back to back
//! footer:
//!   count:u32le
//!   count × (doc_id:u32le kind:u8 len:u32le crc32c:u32le)
//! footer_len:u32le  footer_crc:u32le  trailer (last 8 bytes)
//! ```
//!
//! Record offsets are not stored: they are reconstructed cumulatively from
//! the header end, which keeps the footer small and makes a truncated file
//! self-evident (the trailer will not parse, or the payload region will be
//! shorter than the footer claims). `kind` is PUT (an encoded document) or
//! TOMBSTONE (len 0 — the doc was deleted at or before seal time). Each
//! record carries its own CRC32C over the *encoded* bytes, verified on
//! every read and by `rlz-verify` scrubs.
//!
//! Publication is the classic crash-safe dance: write `seg-N.seg.tmp`,
//! fsync the file, rename into place, fsync the directory, and only then
//! publish a new `MANIFEST` (same tmp/rename/dir-fsync dance) that lists
//! the segment. Recovery trusts the manifest alone: any `*.tmp` or
//! unlisted `seg-*.seg` is debris from an interrupted seal and is deleted —
//! its data is still in the WAL, which replays after the listed segments
//! load.

use crate::backend::{FileBackend, StorageBackend};
use crate::StoreError;
use rlz_codecs::hash::crc32c;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// Manifest file name inside a live store directory. Its *presence* is how
/// tools (`rlz-serve`, `rlz-verify`) detect the live family.
pub const MANIFEST_FILE: &str = "MANIFEST";

const SEGMENT_MAGIC: &[u8; 4] = b"RLZG";
const SEGMENT_VERSION: u8 = 1;
const SEGMENT_HEADER: u64 = 5;
/// Bytes per footer index entry: doc_id + kind + len + crc.
const ENTRY_BYTES: usize = 13;

const MANIFEST_MAGIC: &[u8; 4] = b"RLZM";
const MANIFEST_VERSION: u8 = 1;

/// Record kind: an encoded document.
pub(crate) const KIND_PUT: u8 = 0;
/// Record kind: a tombstone (the doc is deleted; len is 0).
pub(crate) const KIND_TOMBSTONE: u8 = 1;

/// Segment file name for sequence number `n`.
pub fn segment_file_name(n: u64) -> String {
    format!("seg-{n:06}.seg")
}

/// One record to be sealed into a segment: the doc id and either its
/// encoded bytes or a tombstone.
pub(crate) enum SealRecord<'a> {
    Put(u32, &'a [u8]),
    Tombstone(u32),
}

/// Writes and publishes a segment file containing `records`, in order.
/// Crash-safe: the file only becomes visible under its final name after
/// its bytes are on stable storage, and the rename itself is made durable
/// by an fsync of the directory.
pub(crate) fn seal_segment(
    dir: &Path,
    seg_no: u64,
    records: &[SealRecord<'_>],
) -> Result<(), StoreError> {
    let final_name = segment_file_name(seg_no);
    let tmp_path = dir.join(format!("{final_name}.tmp"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp_path)?);
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&[SEGMENT_VERSION])?;
    let mut footer = Vec::with_capacity(4 + records.len() * ENTRY_BYTES);
    footer.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for record in records {
        let (id, kind, bytes): (u32, u8, &[u8]) = match record {
            SealRecord::Put(id, bytes) => (*id, KIND_PUT, bytes),
            SealRecord::Tombstone(id) => (*id, KIND_TOMBSTONE, &[]),
        };
        file.write_all(bytes)?;
        footer.extend_from_slice(&id.to_le_bytes());
        footer.push(kind);
        footer.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        footer.extend_from_slice(&crc32c(bytes).to_le_bytes());
    }
    file.write_all(&footer)?;
    file.write_all(&(footer.len() as u32).to_le_bytes())?;
    file.write_all(&crc32c(&footer).to_le_bytes())?;
    let file = file
        .into_inner()
        .map_err(|e| StoreError::Io(e.into_error()))?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp_path, dir.join(&final_name))?;
    sync_dir(dir)?;
    Ok(())
}

/// Fsyncs a directory so a just-completed rename survives power loss.
/// Directory fsync is a unix-ism; elsewhere the rename is the best we get.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Footer index entry for one record in a sealed segment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentEntry {
    pub kind: u8,
    /// Byte offset of the encoded record from the start of the file.
    pub offset: u64,
    pub len: u32,
    pub crc: u32,
}

/// A read handle on one sealed segment: footer index in memory, record
/// bytes read positionally on demand, every read CRC-verified.
pub struct SegmentReader {
    /// Segment sequence number (from the file name / manifest).
    pub seg_no: u64,
    backend: FileBackend,
    index: HashMap<u32, SegmentEntry>,
    /// Footer order preserved for scrubbing (payload order).
    order: Vec<u32>,
    payload_bytes: u64,
}

impl SegmentReader {
    /// Opens `seg-N.seg` in `dir`, parsing and validating the footer.
    pub fn open(dir: &Path, seg_no: u64) -> Result<Self, StoreError> {
        let path = dir.join(segment_file_name(seg_no));
        let backend = FileBackend::open(&path)?;
        let total = backend.len();
        let fail = StoreError::corrupt;
        if total < SEGMENT_HEADER + 8 {
            return Err(fail("segment file too short"));
        }
        let mut head = [0u8; 5];
        backend.read_exact_at(&mut head, 0)?;
        if &head[..4] != SEGMENT_MAGIC {
            return Err(fail("segment has wrong magic"));
        }
        if head[4] != SEGMENT_VERSION {
            return Err(fail("segment has unknown version"));
        }
        let mut trailer = [0u8; 8];
        backend.read_exact_at(&mut trailer, total - 8)?;
        let footer_len = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes")) as u64;
        let footer_crc = u32::from_le_bytes(trailer[4..].try_into().expect("4 bytes"));
        if footer_len < 4 || SEGMENT_HEADER + footer_len + 8 > total {
            return Err(fail("segment footer length out of bounds"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        backend.read_exact_at(&mut footer, total - 8 - footer_len)?;
        if crc32c(&footer) != footer_crc {
            return Err(fail("segment footer checksum mismatch"));
        }
        let count = u32::from_le_bytes(footer[..4].try_into().expect("4 bytes")) as usize;
        if footer.len() != 4 + count * ENTRY_BYTES {
            return Err(fail("segment footer length mismatches its count"));
        }
        let payload_bytes = total - 8 - footer_len - SEGMENT_HEADER;
        let mut index = HashMap::with_capacity(count);
        let mut order = Vec::with_capacity(count);
        let mut offset = SEGMENT_HEADER;
        for entry in footer[4..].chunks_exact(ENTRY_BYTES) {
            let id = u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"));
            let kind = entry[4];
            let len = u32::from_le_bytes(entry[5..9].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(entry[9..13].try_into().expect("4 bytes"));
            if kind != KIND_PUT && kind != KIND_TOMBSTONE {
                return Err(fail("segment has unknown record kind"));
            }
            index.insert(
                id,
                SegmentEntry {
                    kind,
                    offset,
                    len,
                    crc,
                },
            );
            order.push(id);
            offset += len as u64;
        }
        if offset - SEGMENT_HEADER != payload_bytes {
            return Err(fail("segment record lengths mismatch payload size"));
        }
        Ok(SegmentReader {
            seg_no,
            backend,
            index,
            order,
            payload_bytes,
        })
    }

    /// Looks up `id` in this segment's index.
    pub(crate) fn entry(&self, id: u32) -> Option<SegmentEntry> {
        self.index.get(&id).copied()
    }

    /// Reads and CRC-verifies the encoded bytes of `entry` into `buf`
    /// (resized to fit).
    pub(crate) fn read_entry(
        &self,
        id: u32,
        entry: SegmentEntry,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        buf.resize(entry.len as usize, 0);
        self.backend.read_exact_at(buf, entry.offset)?;
        if crc32c(buf) != entry.crc {
            return Err(StoreError::Corrupt {
                what: "segment record checksum mismatch",
                block: None,
                doc_id: Some(id),
            });
        }
        Ok(())
    }

    /// Doc ids in payload order, for scrubbing.
    pub(crate) fn doc_order(&self) -> &[u32] {
        &self.order
    }

    /// Encoded payload bytes (excludes header/footer).
    pub(crate) fn payload_len(&self) -> u64 {
        self.payload_bytes
    }
}

/// The durable root of a live store: which segments exist, the next doc id,
/// and the highest WAL sequence the sealed segments already cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotone generation, bumped on every publish.
    pub gen: u64,
    /// Next doc id to assign.
    pub next_doc_id: u32,
    /// WAL frames with `seq <= applied_seq` are folded into segments and
    /// must not be replayed.
    pub applied_seq: u64,
    /// Sealed segment sequence numbers, oldest first.
    pub segments: Vec<u64>,
}

impl Manifest {
    /// A brand-new store: nothing sealed, nothing applied.
    pub fn empty() -> Self {
        Manifest {
            gen: 0,
            next_doc_id: 0,
            applied_seq: 0,
            segments: Vec::new(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.segments.len() * 8);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        out.extend_from_slice(&self.gen.to_le_bytes());
        out.extend_from_slice(&self.next_doc_id.to_le_bytes());
        out.extend_from_slice(&self.applied_seq.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for &s in &self.segments {
            out.extend_from_slice(&s.to_le_bytes());
        }
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(data: &[u8]) -> Result<Self, StoreError> {
        let fail = StoreError::corrupt;
        if data.len() < 4 {
            return Err(fail("manifest file too short"));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32c(body) != crc {
            return Err(fail("manifest checksum mismatch"));
        }
        let rest = body
            .strip_prefix(MANIFEST_MAGIC.as_slice())
            .ok_or_else(|| fail("manifest has wrong magic"))?;
        let (&version, rest) = rest
            .split_first()
            .ok_or_else(|| fail("truncated manifest"))?;
        if version != MANIFEST_VERSION {
            return Err(fail("manifest has unknown version"));
        }
        if rest.len() < 24 {
            return Err(fail("truncated manifest header"));
        }
        let gen = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        let next_doc_id = u32::from_le_bytes(rest[8..12].try_into().expect("4 bytes"));
        let applied_seq = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(rest[20..24].try_into().expect("4 bytes")) as usize;
        let seg_bytes = rest
            .get(24..)
            .filter(|b| b.len() == count.saturating_mul(8))
            .ok_or_else(|| fail("manifest segment list mismatches its count"))?;
        let segments = seg_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Ok(Manifest {
            gen,
            next_doc_id,
            applied_seq,
            segments,
        })
    }

    /// Loads the manifest from a live store directory.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let data = std::fs::read(dir.join(MANIFEST_FILE))?;
        Self::decode(&data)
    }

    /// Publishes this manifest atomically: tmp file, fsync, rename over
    /// `MANIFEST`, dir fsync. A crash leaves either the old or the new
    /// manifest — never a torn one (and a torn tmp never gets renamed).
    pub fn publish(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join("MANIFEST.tmp");
        let bytes = self.encode();
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        sync_dir(dir)?;
        Ok(())
    }
}

/// Deletes seal debris: `*.tmp` files and `seg-*.seg` files not listed in
/// `manifest`. Returns the number of files removed. Safe because anything
/// not in the manifest is, by the publication ordering, also still in the
/// WAL (or was never acknowledged).
pub(crate) fn remove_debris(dir: &Path, manifest: &Manifest) -> Result<usize, StoreError> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_tmp = name.ends_with(".tmp");
        let is_orphan_seg = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(".seg"))
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|n| !manifest.segments.contains(&n));
        if is_tmp || is_orphan_seg {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    #[test]
    fn segment_roundtrip_and_crc() {
        let dir = TestDir::new("segment-roundtrip");
        let records = [
            SealRecord::Put(0, b"alpha record"),
            SealRecord::Tombstone(1),
            SealRecord::Put(2, b""),
            SealRecord::Put(7, b"last"),
        ];
        seal_segment(dir.path(), 3, &records).unwrap();
        let seg = SegmentReader::open(dir.path(), 3).unwrap();
        assert_eq!(seg.doc_order().len(), 4);
        assert_eq!(seg.doc_order(), &[0, 1, 2, 7]);
        assert_eq!(seg.payload_len(), 16);
        let mut buf = Vec::new();
        let e = seg.entry(0).unwrap();
        assert_eq!(e.kind, KIND_PUT);
        seg.read_entry(0, e, &mut buf).unwrap();
        assert_eq!(buf, b"alpha record");
        assert_eq!(seg.entry(1).unwrap().kind, KIND_TOMBSTONE);
        seg.read_entry(2, seg.entry(2).unwrap(), &mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(seg.entry(3).is_none());
        // Flip a payload bit: the read fails typed, with the doc id.
        let path = dir.path().join(segment_file_name(3));
        let mut data = std::fs::read(&path).unwrap();
        data[SEGMENT_HEADER as usize] ^= 0x40;
        std::fs::write(&path, data).unwrap();
        let seg = SegmentReader::open(dir.path(), 3).unwrap();
        let err = seg
            .read_entry(0, seg.entry(0).unwrap(), &mut buf)
            .unwrap_err();
        match err {
            StoreError::Corrupt { doc_id, .. } => assert_eq!(doc_id, Some(0)),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_or_garbled_segment_is_a_typed_open_error() {
        let dir = TestDir::new("segment-truncated");
        seal_segment(dir.path(), 1, &[SealRecord::Put(0, b"some payload here")]).unwrap();
        let path = dir.path().join(segment_file_name(1));
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                SegmentReader::open(dir.path(), 1).is_err(),
                "cut at {cut} must not open"
            );
        }
        // Footer bit flip is also caught.
        let mut bad = full.clone();
        let n = bad.len();
        bad[n - 10] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(SegmentReader::open(dir.path(), 1).is_err());
    }

    #[test]
    fn manifest_roundtrip_publish_and_debris() {
        let dir = TestDir::new("segment-manifest");
        let mut m = Manifest::empty();
        m.publish(dir.path()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), m);
        m.gen = 2;
        m.next_doc_id = 41;
        m.applied_seq = 97;
        m.segments = vec![1, 2];
        m.publish(dir.path()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), m);
        // Debris: an unlisted segment and a stranded tmp vanish; listed
        // segments stay.
        seal_segment(dir.path(), 1, &[SealRecord::Put(0, b"keep")]).unwrap();
        seal_segment(dir.path(), 9, &[SealRecord::Put(1, b"orphan")]).unwrap();
        std::fs::write(dir.path().join("seg-000010.seg.tmp"), b"partial").unwrap();
        let removed = remove_debris(dir.path(), &m).unwrap();
        assert_eq!(removed, 2);
        assert!(dir.path().join(segment_file_name(1)).exists());
        assert!(!dir.path().join(segment_file_name(9)).exists());
        assert!(!dir.path().join("seg-000010.seg.tmp").exists());
        // Corrupt manifest bytes are a typed error, not a panic.
        let mut data = std::fs::read(dir.path().join(MANIFEST_FILE)).unwrap();
        data[6] ^= 0xFF;
        std::fs::write(dir.path().join(MANIFEST_FILE), &data).unwrap();
        assert!(Manifest::load(dir.path()).is_err());
        // A version this build does not know, under a valid checksum, is
        // reported as the manifest's.
        let mut future = m.encode();
        future[MANIFEST_MAGIC.len()] += 1;
        let body = future.len() - 4;
        let crc = crc32c(&future[..body]);
        future[body..].copy_from_slice(&crc.to_le_bytes());
        match Manifest::decode(&future) {
            Err(StoreError::Corrupt { what, .. }) => {
                assert_eq!(what, "manifest has unknown version")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
