//! The live store: a writable, crash-recoverable RLZ store.
//!
//! The read-only families ([`RlzStore`](crate::RlzStore) and friends) are
//! built once and never change; a crash mid-build leaves an unusable
//! directory. [`LiveStore`] is the write path built for failure:
//!
//! 1. every PUT / APPEND / DELETE first lands in a CRC32C-framed
//!    write-ahead log ([`Wal`](crate::wal::Wal)), fsynced per the
//!    configured [`FsyncPolicy`] — under `Always`, the `Ok` return *is*
//!    the durability ack;
//! 2. the document is then factorized against the memory-resident
//!    dictionary into the in-memory **tail** (encoded bytes, shared via
//!    `Arc`), immediately visible to readers;
//! 3. when the tail outgrows the seal threshold — or the WAL backlog
//!    grows past half its hard bound, which catches delete-heavy and
//!    highly-compressible traffic whose tail stays small — it is folded
//!    into an immutable [segment](crate::segment) published by atomic
//!    rename + directory fsync, a new `MANIFEST` generation is published
//!    the same way, and the WAL is reset. The write path can therefore
//!    always drain itself: a WAL at its hard bound seals *before*
//!    accepting the next write instead of wedging, and
//!    [`StoreError::WalFull`] is reserved for the pathological case where
//!    that seal cannot reclaim space.
//!
//! # Epoch-swap reads
//!
//! Readers never block on the writer. Every mutation publishes a fresh
//! immutable [`LiveSnapshot`] behind an `RwLock<Arc<…>>`; a read clones
//! the `Arc` (the lock is held only for that pointer copy) and then runs
//! entirely against frozen state: tail map → sealed segments newest-first.
//! A snapshot pinned at any epoch stays internally consistent forever —
//! batch reads pin one snapshot for the whole batch, so a concurrent seal
//! or delete can never make a document vanish mid-batch.
//!
//! # Recovery
//!
//! [`LiveStore::open`] trusts the manifest, deletes seal debris (`*.tmp`,
//! unlisted `seg-*.seg`), loads the listed segments, then replays WAL
//! frames with `seq > manifest.applied_seq` — re-assigning PUT ids
//! monotonically from `manifest.next_doc_id`, which reproduces the
//! original assignment because frames were logged in id order under the
//! writer lock. A torn WAL tail is truncated, never fatal. The result
//! after `kill -9` at *any* instant: every write acked under
//! `FsyncPolicy::Always` is present and byte-identical, and no
//! unacknowledged write is visible.

use crate::segment::{remove_debris, seal_segment, Manifest, SealRecord, SegmentReader, KIND_PUT};
use crate::verify::{load_quarantine, BadUnit, ScrubReport};
use crate::wal::{FileMedia, FsyncPolicy, Wal, WalMedia, WalOp, WAL_FILE};
use crate::{read_file, DocStore, Integrity, StoreError, StoreStats};
use rlz_core::{Dictionary, EncodeScratch, PairCoding, RlzCompressor};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const DICT_FILE: &str = "dict.bin";
const META_FILE: &str = "meta.bin";

/// Leads live-store metadata: `[0xF7, coding name…]`. Distinct from the
/// read-only RLZ store's `0xF6` and from legacy bare-ASCII metadata.
const META_VERSION_LIVE: u8 = 0xF7;

/// Tuning for a [`LiveStore`].
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// When the WAL is pushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Seal the in-memory tail into a segment once its encoded bytes pass
    /// this threshold. The WAL backlog is a second, independent seal
    /// trigger (at `wal_max_bytes / 2`): tombstones add nothing to the
    /// tail and compressible documents add little, so the tail alone must
    /// not be what keeps the log drainable.
    pub seal_bytes: u64,
    /// Soft WAL bound: past this, [`crate::WriteStore::write_pressure`]
    /// reports
    /// true and the server sheds *writes* with `ERR_BUSY` (reads are
    /// unaffected — the backlog is writer-side work).
    pub wal_soft_bytes: u64,
    /// Hard WAL bound: a write arriving with the WAL at or past this first
    /// seals the tail to drain the log, then proceeds.
    /// [`StoreError::WalFull`] is returned only if that seal cannot
    /// reclaim space — the write path never wedges on a full log.
    pub wal_max_bytes: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            fsync: FsyncPolicy::Always,
            seal_bytes: 8 << 20,
            wal_soft_bytes: 32 << 20,
            wal_max_bytes: 64 << 20,
        }
    }
}

/// One live document in the unsealed tail: its encoded bytes, or a
/// tombstone shadowing an earlier version.
#[derive(Clone)]
enum TailEntry {
    Doc(Arc<Vec<u8>>),
    Tombstone,
}

/// Frozen state shared by every reader of one epoch.
struct Snapshot {
    next_id: u32,
    tail: HashMap<u32, TailEntry>,
    /// Newest first: the tail shadows these, earlier entries shadow later.
    segments: Vec<Arc<SegmentReader>>,
    dict_bytes: Arc<Vec<u8>>,
    coding: PairCoding,
    quarantine: Arc<Vec<u32>>,
    payload_bytes: u64,
}

impl Snapshot {
    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        let Ok(id32) = u32::try_from(id) else {
            return Err(StoreError::DocOutOfRange(id));
        };
        if id32 >= self.next_id {
            return Err(StoreError::DocOutOfRange(id));
        }
        if self.quarantine.binary_search(&id32).is_ok() {
            return Err(StoreError::Corrupt {
                what: "document quarantined by rlz-verify",
                block: None,
                doc_id: Some(id32),
            });
        }
        let start = out.len();
        let result = self.get_inner(id32, out);
        if result.is_err() {
            out.truncate(start);
        }
        result
    }

    fn get_inner(&self, id: u32, out: &mut Vec<u8>) -> Result<(), StoreError> {
        if let Some(entry) = self.tail.get(&id) {
            return match entry {
                TailEntry::Doc(enc) => self.decode(enc, out),
                TailEntry::Tombstone => Err(StoreError::DocOutOfRange(id as usize)),
            };
        }
        for seg in &self.segments {
            if let Some(entry) = seg.entry(id) {
                if entry.kind != KIND_PUT {
                    return Err(StoreError::DocOutOfRange(id as usize));
                }
                return crate::with_block_scratch(|enc| {
                    seg.read_entry(id, entry, enc)?;
                    self.decode(enc, out)
                });
            }
        }
        // An assigned id with no record anywhere: deleted and sealed away,
        // or never written (gap from a crash between ack and replay).
        Err(StoreError::DocOutOfRange(id as usize))
    }

    fn decode(&self, enc: &[u8], out: &mut Vec<u8>) -> Result<(), StoreError> {
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
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            num_docs: self.next_id as u64,
            payload_bytes: self.payload_bytes,
            max_record_len: 0,
            integrity: Integrity::Crc32c,
        }
    }
}

/// A pinned, immutable view of a [`LiveStore`] at one epoch.
///
/// Implements [`DocStore`], so anything that reads a store can read a
/// snapshot. Whatever the writer does afterwards — put, delete, seal —
/// this view keeps serving exactly the documents it was born with.
#[derive(Clone)]
pub struct LiveSnapshot {
    snap: Arc<Snapshot>,
}

impl DocStore for LiveSnapshot {
    fn num_docs(&self) -> usize {
        self.snap.next_id as usize
    }

    fn stats(&self) -> StoreStats {
        self.snap.stats()
    }

    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        self.snap.get_into(id, out)
    }

    fn quarantined_docs(&self) -> u64 {
        self.snap.quarantine.len() as u64
    }
}

/// Writer-side state, serialized behind one mutex.
struct Writer {
    wal: Wal,
    /// Next WAL sequence number to assign (monotone, never reused).
    next_seq: u64,
    next_id: u32,
    gen: u64,
    /// Sealed segment numbers, oldest first (mirrors the manifest).
    segments: Vec<u64>,
    seg_readers: Vec<Arc<SegmentReader>>,
    tail: HashMap<u32, TailEntry>,
    tail_bytes: u64,
    next_seg_no: u64,
    /// Factor list and coded-stream buffers every write's compression
    /// reuses, so a PUT under the lock allocates only its record.
    scratch: EncodeScratch,
}

/// One document's encoded record, compressed through the writer's scratch.
fn compress_record(compressor: &RlzCompressor, scratch: &mut EncodeScratch, doc: &[u8]) -> Vec<u8> {
    let mut enc = Vec::new();
    compressor.compress_with(doc, scratch, &mut enc);
    enc
}

struct LiveInner {
    dir: PathBuf,
    compressor: RlzCompressor,
    coding: PairCoding,
    dict_bytes: Arc<Vec<u8>>,
    config: LiveConfig,
    quarantine: Arc<Vec<u32>>,
    writer: Mutex<Writer>,
    snapshot: RwLock<Arc<Snapshot>>,
    /// WAL length mirrored out of the writer lock so `write_pressure` is a
    /// lock-free load on the serving path.
    wal_len: AtomicU64,
    /// Opportunistic post-write seals that failed. The writes themselves
    /// were already durable and acked; the seal retries on later writes.
    seal_failures: AtomicU64,
    /// Pre-write seals (draining a WAL at its hard bound) that failed and
    /// therefore failed the incoming write. Unlike post-write failures
    /// these are user-visible errors, so they are logged and counted
    /// separately.
    pre_seal_failures: AtomicU64,
    /// WAL frames logged since open (PUT/APPEND/DELETE), for monitoring.
    wal_frames: AtomicU64,
    /// Seals published since open (manifest generations advanced).
    seals: AtomicU64,
}

/// What [`LiveStore::open`] had to do to get consistent.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryInfo {
    /// Intact WAL frames replayed (those newer than the manifest).
    pub replayed_frames: u64,
    /// WAL bytes scanned during replay.
    pub wal_bytes: u64,
    /// Bytes of torn/corrupt WAL tail truncated away.
    pub torn_bytes_dropped: u64,
    /// Seal-debris files (`*.tmp`, unlisted segments) deleted.
    pub debris_removed: u64,
}

/// A writable, crash-recoverable RLZ document store. See the module docs
/// for the architecture. Clones are cheap handles on the same store.
#[derive(Clone)]
pub struct LiveStore {
    inner: Arc<LiveInner>,
    recovery: RecoveryInfo,
}

impl LiveStore {
    /// Creates a fresh live store in `dir` (which must not already hold
    /// one) and opens it.
    pub fn create(
        dir: &Path,
        dict: Dictionary,
        coding: PairCoding,
        config: LiveConfig,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        if dir.join(crate::segment::MANIFEST_FILE).exists() {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a live store",
            )));
        }
        std::fs::write(dir.join(DICT_FILE), dict.bytes())?;
        let mut meta = vec![META_VERSION_LIVE];
        meta.extend_from_slice(coding.name().as_bytes());
        std::fs::write(dir.join(META_FILE), meta)?;
        Manifest::empty().publish(dir)?;
        Self::open(dir, config)
    }

    /// Opens (and recovers) a live store.
    pub fn open(dir: &Path, config: LiveConfig) -> Result<Self, StoreError> {
        Self::open_with_media(dir, config, |media| Box::new(media))
    }

    /// Opens a live store with the WAL's byte device wrapped by `wrap` —
    /// the hook the crash-injection harness uses to interpose
    /// [`FaultMedia`](crate::FaultMedia) between the writer and the file.
    pub fn open_with_media(
        dir: &Path,
        config: LiveConfig,
        wrap: impl FnOnce(FileMedia) -> Box<dyn WalMedia>,
    ) -> Result<Self, StoreError> {
        let meta = read_file(&dir.join(META_FILE))?;
        let name_bytes = match meta.split_first() {
            Some((&META_VERSION_LIVE, rest)) => rest,
            _ => return Err(StoreError::corrupt("not a live store (bad metadata)")),
        };
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| StoreError::corrupt("pair-coding name is not UTF-8"))?;
        let coding = PairCoding::parse(name)
            .map_err(|_| StoreError::corrupt("unknown pair coding in metadata"))?;
        let dict_bytes = Arc::new(read_file(&dir.join(DICT_FILE))?);
        let dict = Dictionary::from_bytes(dict_bytes.as_ref().clone());
        let compressor = RlzCompressor::new(dict, coding);

        let manifest = Manifest::load(dir)?;
        let debris_removed = remove_debris(dir, &manifest)? as u64;
        let mut seg_readers = Vec::with_capacity(manifest.segments.len());
        // Manifest lists oldest first; readers overlay newest first.
        for &n in manifest.segments.iter().rev() {
            seg_readers.push(Arc::new(SegmentReader::open(dir, n)?));
        }
        let quarantine = Arc::new(load_quarantine(dir)?);

        let wal_path = dir.join(WAL_FILE);
        let read_back = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let media = wrap(FileMedia::open(&wal_path)?);
        let (wal, wal_recovery) = Wal::open(media, config.fsync, &read_back)?;

        // Replay: only frames the sealed segments do not already cover.
        // PUT ids re-assign monotonically from the manifest's counter —
        // identical to the original assignment, because frames were logged
        // in id order under the writer lock.
        let mut next_id = manifest.next_doc_id;
        let mut next_seq = manifest.applied_seq + 1;
        let mut tail: HashMap<u32, TailEntry> = HashMap::new();
        let mut tail_bytes = 0u64;
        let mut replayed = 0u64;
        let mut scratch = EncodeScratch::new();
        {
            // Temporary snapshot of the sealed state, for APPEND replay
            // reads of documents that live below the tail.
            let sealed = Snapshot {
                next_id: u32::MAX,
                tail: HashMap::new(),
                segments: seg_readers.clone(),
                dict_bytes: Arc::clone(&dict_bytes),
                coding,
                quarantine: Arc::new(Vec::new()),
                payload_bytes: 0,
            };
            let mut doc = Vec::new();
            for record in &wal_recovery.records {
                if record.seq <= manifest.applied_seq {
                    continue; // already folded into a sealed segment
                }
                next_seq = record.seq + 1;
                replayed += 1;
                match &record.op {
                    WalOp::Put(bytes) => {
                        let enc = compress_record(&compressor, &mut scratch, bytes);
                        tail_bytes += enc.len() as u64;
                        tail.insert(next_id, TailEntry::Doc(Arc::new(enc)));
                        next_id += 1;
                    }
                    WalOp::Append(id, bytes) => {
                        doc.clear();
                        let found = match tail.get(id) {
                            Some(TailEntry::Doc(enc)) => {
                                sealed.decode(enc, &mut doc)?;
                                true
                            }
                            Some(TailEntry::Tombstone) => false,
                            // Only a doc that positively does not exist may
                            // be skipped. A corrupt or unreadable sealed
                            // record must surface — silently dropping an
                            // acked APPEND here would be data loss.
                            None => match sealed.get_inner(*id, &mut doc) {
                                Ok(()) => true,
                                Err(StoreError::DocOutOfRange(_)) => false,
                                Err(e) => return Err(e),
                            },
                        };
                        if !found {
                            // Appending to a doc that no longer exists:
                            // the original call failed too. Skip.
                            continue;
                        }
                        doc.extend_from_slice(bytes);
                        let enc = compress_record(&compressor, &mut scratch, &doc);
                        tail_bytes += enc.len() as u64;
                        tail.insert(*id, TailEntry::Doc(Arc::new(enc)));
                    }
                    WalOp::Delete(id) => {
                        tail.insert(*id, TailEntry::Tombstone);
                    }
                }
            }
        }

        let next_seg_no = manifest.segments.iter().copied().max().map_or(1, |n| n + 1);
        let payload_bytes = seg_readers.iter().map(|s| s.payload_len()).sum::<u64>() + tail_bytes;
        let snapshot = Arc::new(Snapshot {
            next_id,
            tail: tail.clone(),
            segments: seg_readers.clone(),
            dict_bytes: Arc::clone(&dict_bytes),
            coding,
            quarantine: Arc::clone(&quarantine),
            payload_bytes,
        });
        let wal_len = wal.len();
        let writer = Writer {
            wal,
            next_seq,
            next_id,
            gen: manifest.gen,
            segments: manifest.segments,
            seg_readers,
            tail,
            tail_bytes,
            next_seg_no,
            scratch,
        };
        let recovery = RecoveryInfo {
            replayed_frames: replayed,
            wal_bytes: read_back.len() as u64,
            torn_bytes_dropped: wal_recovery.dropped_bytes,
            debris_removed,
        };
        let store = LiveStore {
            inner: Arc::new(LiveInner {
                dir: dir.to_path_buf(),
                compressor,
                coding,
                dict_bytes,
                config,
                quarantine,
                writer: Mutex::new(writer),
                snapshot: RwLock::new(snapshot),
                wal_len: AtomicU64::new(wal_len),
                seal_failures: AtomicU64::new(0),
                pre_seal_failures: AtomicU64::new(0),
                wal_frames: AtomicU64::new(0),
                seals: AtomicU64::new(0),
            }),
            recovery,
        };
        // Under the Interval policy an append only syncs when a *later*
        // append arrives past the interval; if writes stop, the last
        // frames would sit unsynced forever. A background flusher holds
        // the loss window to the interval even across write silence. It
        // keeps only a Weak handle, so it dies (within one interval) once
        // the last store handle is dropped.
        if let FsyncPolicy::Interval(every) = config.fsync {
            let weak = Arc::downgrade(&store.inner);
            std::thread::Builder::new()
                .name("rlz-live-flusher".into())
                .spawn(move || loop {
                    std::thread::sleep(every);
                    let Some(inner) = weak.upgrade() else { break };
                    let mut writer = inner.writer.lock().expect("writer lock");
                    // An fsync failure here is retried next tick; the
                    // frames stay in the WAL either way.
                    let _ = writer.wal.sync();
                })
                .map_err(StoreError::Io)?;
        }
        Ok(store)
    }

    /// What the most recent [`open`](LiveStore::open) recovered.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// The pair coding documents are factorized with.
    pub fn coding(&self) -> PairCoding {
        self.inner.coding
    }

    /// Current WAL backlog in bytes.
    pub fn wal_len(&self) -> u64 {
        self.inner.wal_len.load(Ordering::Relaxed)
    }

    /// Opportunistic post-write seals that failed so far. The writes they
    /// followed were already durable and acked — a failed seal costs
    /// nothing but backlog, and the next write retries it.
    pub fn seal_failures(&self) -> u64 {
        self.inner.seal_failures.load(Ordering::Relaxed)
    }

    /// Pre-write seals that failed and so failed the incoming write (the
    /// WAL was at its hard bound and could not be drained). Each one is a
    /// write the caller saw error.
    pub fn pre_seal_failures(&self) -> u64 {
        self.inner.pre_seal_failures.load(Ordering::Relaxed)
    }

    /// WAL frames appended but not yet on stable storage (always 0 under
    /// [`FsyncPolicy::Always`]; under `Interval` the background flusher
    /// returns this to 0 within one interval even when writes stop).
    pub fn unsynced_frames(&self) -> u64 {
        self.inner
            .writer
            .lock()
            .expect("writer lock")
            .wal
            .unsynced()
    }

    /// Pins the current epoch: an immutable [`LiveSnapshot`] that future
    /// writes and seals cannot perturb.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            snap: self.inner.snapshot.read().expect("snapshot lock").clone(),
        }
    }

    fn publish(&self, writer: &Writer) {
        let payload_bytes = writer
            .seg_readers
            .iter()
            .map(|s| s.payload_len())
            .sum::<u64>()
            + writer.tail_bytes;
        let snap = Arc::new(Snapshot {
            next_id: writer.next_id,
            tail: writer.tail.clone(),
            segments: writer.seg_readers.clone(),
            dict_bytes: Arc::clone(&self.inner.dict_bytes),
            coding: self.inner.coding,
            quarantine: Arc::clone(&self.inner.quarantine),
            payload_bytes,
        });
        *self.inner.snapshot.write().expect("snapshot lock") = snap;
        self.inner
            .wal_len
            .store(writer.wal.len(), Ordering::Relaxed);
    }

    /// Makes room for one more write. A WAL at its hard bound is drained
    /// by sealing — nothing has been logged for the incoming write yet, so
    /// a seal failure here fails the write cleanly. [`StoreError::WalFull`]
    /// only if even a successful seal could not reclaim space.
    fn ensure_wal_room(&self, writer: &mut Writer) -> Result<(), StoreError> {
        if writer.wal.len() < self.inner.config.wal_max_bytes {
            return Ok(());
        }
        if let Err(e) = self.seal_locked(writer) {
            // This failure rejects the incoming write, so make it count
            // and make it visible — post-write seal failures are silent
            // retries, this one is not.
            self.inner.pre_seal_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("rlz-store: pre-write seal failed, rejecting write: {e}");
            return Err(e);
        }
        if writer.wal.len() >= self.inner.config.wal_max_bytes {
            return Err(StoreError::WalFull);
        }
        Ok(())
    }

    /// Post-write opportunistic seal: fires when the tail passes
    /// `seal_bytes` *or* the WAL backlog passes half its hard bound (the
    /// trigger that keeps delete-heavy traffic — whose tombstones add no
    /// tail bytes — and highly-compressible traffic drainable long before
    /// the hard bound). The write that got us here is already durably
    /// logged, published, and its id consumed, so a seal failure must NOT
    /// fail the ack: it is counted in [`seal_failures`](Self::seal_failures)
    /// and retried on the next write (or by [`ensure_wal_room`]
    /// pre-write, where failing is still safe).
    fn maybe_auto_seal(&self, writer: &mut Writer) {
        let due = writer.tail_bytes >= self.inner.config.seal_bytes
            || writer.wal.len() >= self.inner.config.wal_max_bytes / 2;
        if due && self.seal_locked(writer).is_err() {
            self.inner.seal_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seals the in-memory tail into a segment and publishes a new
    /// manifest generation. No-op on an empty tail. Readers are never
    /// blocked: the swap is one snapshot publish at the end.
    pub fn seal(&self) -> Result<(), StoreError> {
        let mut writer = self.inner.writer.lock().expect("writer lock");
        self.seal_locked(&mut writer)
    }

    fn seal_locked(&self, writer: &mut Writer) -> Result<(), StoreError> {
        if writer.tail.is_empty() {
            // No new documents, but the WAL can still hold frames that
            // replayed to no-ops (APPENDs to since-deleted docs are
            // skipped during recovery). Publish the advanced watermark and
            // drain them, so a full WAL is always reclaimable.
            if !writer.wal.is_empty() {
                let manifest = Manifest {
                    gen: writer.gen + 1,
                    next_doc_id: writer.next_id,
                    applied_seq: writer.next_seq - 1,
                    segments: writer.segments.clone(),
                };
                manifest.publish(&self.inner.dir)?;
                writer.wal.reset()?;
                writer.gen = manifest.gen;
                self.inner.seals.fetch_add(1, Ordering::Relaxed);
                self.publish(writer);
            }
            return Ok(());
        }
        let mut ids: Vec<u32> = writer.tail.keys().copied().collect();
        ids.sort_unstable();
        let records: Vec<SealRecord<'_>> = ids
            .iter()
            .map(|id| match &writer.tail[id] {
                TailEntry::Doc(enc) => SealRecord::Put(*id, enc.as_slice()),
                TailEntry::Tombstone => SealRecord::Tombstone(*id),
            })
            .collect();
        let seg_no = writer.next_seg_no;
        seal_segment(&self.inner.dir, seg_no, &records)?;
        drop(records);
        let reader = Arc::new(SegmentReader::open(&self.inner.dir, seg_no)?);
        let mut segments = writer.segments.clone();
        segments.push(seg_no);
        let manifest = Manifest {
            gen: writer.gen + 1,
            next_doc_id: writer.next_id,
            // Everything logged so far is now in a sealed segment.
            applied_seq: writer.next_seq - 1,
            segments,
        };
        manifest.publish(&self.inner.dir)?;
        // Only after the manifest is durable may the WAL forget.
        writer.wal.reset()?;
        writer.gen = manifest.gen;
        writer.segments = manifest.segments;
        writer.next_seg_no = seg_no + 1;
        writer.seg_readers.insert(0, reader); // newest first
        writer.tail.clear();
        writer.tail_bytes = 0;
        self.inner.seals.fetch_add(1, Ordering::Relaxed);
        self.publish(writer);
        Ok(())
    }

    /// Forces the WAL to stable storage regardless of fsync policy.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut writer = self.inner.writer.lock().expect("writer lock");
        writer.wal.sync()
    }

    /// Offline integrity scrub of the whole live directory — see
    /// [`scrub_live`].
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        scrub_live(&self.inner.dir)
    }
}

impl crate::WriteStore for LiveStore {
    fn put(&self, doc: &[u8]) -> Result<u32, StoreError> {
        let mut writer = self.inner.writer.lock().expect("writer lock");
        self.ensure_wal_room(&mut writer)?;
        let seq = writer.next_seq;
        writer.wal.log_put(seq, doc)?;
        self.inner.wal_frames.fetch_add(1, Ordering::Relaxed);
        writer.next_seq += 1;
        let id = writer.next_id;
        writer.next_id += 1;
        let enc = compress_record(&self.inner.compressor, &mut writer.scratch, doc);
        writer.tail_bytes += enc.len() as u64;
        writer.tail.insert(id, TailEntry::Doc(Arc::new(enc)));
        self.publish(&writer);
        self.maybe_auto_seal(&mut writer);
        Ok(id)
    }

    fn append(&self, id: u32, bytes: &[u8]) -> Result<(), StoreError> {
        let mut writer = self.inner.writer.lock().expect("writer lock");
        self.ensure_wal_room(&mut writer)?;
        // Read the current content through the snapshot (consistent with
        // the writer under its lock); fails typed if the doc never existed
        // or was deleted.
        let snap = self.inner.snapshot.read().expect("snapshot lock").clone();
        let mut doc = Vec::new();
        snap.get_into(id as usize, &mut doc)?;
        let seq = writer.next_seq;
        writer.wal.log_append(seq, id, bytes)?;
        self.inner.wal_frames.fetch_add(1, Ordering::Relaxed);
        writer.next_seq += 1;
        doc.extend_from_slice(bytes);
        let enc = compress_record(&self.inner.compressor, &mut writer.scratch, &doc);
        writer.tail_bytes += enc.len() as u64;
        writer.tail.insert(id, TailEntry::Doc(Arc::new(enc)));
        self.publish(&writer);
        self.maybe_auto_seal(&mut writer);
        Ok(())
    }

    fn delete(&self, id: u32) -> Result<(), StoreError> {
        let mut writer = self.inner.writer.lock().expect("writer lock");
        self.ensure_wal_room(&mut writer)?;
        // Deleting a doc that is not currently visible is out-of-range.
        let snap = self.inner.snapshot.read().expect("snapshot lock").clone();
        let mut probe = Vec::new();
        snap.get_into(id as usize, &mut probe)?;
        drop(probe);
        let seq = writer.next_seq;
        writer.wal.log_delete(seq, id)?;
        self.inner.wal_frames.fetch_add(1, Ordering::Relaxed);
        writer.next_seq += 1;
        writer.tail.insert(id, TailEntry::Tombstone);
        self.publish(&writer);
        // Tombstones add no tail bytes; the WAL-length trigger inside is
        // what keeps delete-heavy traffic sealing (and the log draining).
        self.maybe_auto_seal(&mut writer);
        Ok(())
    }

    fn write_pressure(&self) -> bool {
        self.inner.wal_len.load(Ordering::Relaxed) > self.inner.config.wal_soft_bytes
    }

    // Briefly takes the writer lock (for the unsynced-frame count); meant
    // for scrape paths, never the per-request hot path.
    fn write_stats(&self) -> crate::WriteStats {
        crate::WriteStats {
            wal_bytes: self.wal_len(),
            wal_frames: self.inner.wal_frames.load(Ordering::Relaxed),
            unsynced_frames: self.unsynced_frames(),
            seals: self.inner.seals.load(Ordering::Relaxed),
            seal_failures: self.seal_failures(),
            pre_seal_failures: self.pre_seal_failures(),
            recovery_replayed_frames: self.recovery.replayed_frames,
            recovery_wal_bytes: self.recovery.wal_bytes,
            recovery_torn_bytes: self.recovery.torn_bytes_dropped,
            recovery_debris_removed: self.recovery.debris_removed,
        }
    }
}

impl DocStore for LiveStore {
    fn num_docs(&self) -> usize {
        self.inner.snapshot.read().expect("snapshot lock").next_id as usize
    }

    fn stats(&self) -> StoreStats {
        self.inner.snapshot.read().expect("snapshot lock").stats()
    }

    fn get_into(&self, id: usize, out: &mut Vec<u8>) -> Result<(), StoreError> {
        let snap = self.inner.snapshot.read().expect("snapshot lock").clone();
        snap.get_into(id, out)
    }

    fn quarantined_docs(&self) -> u64 {
        self.inner.quarantine.len() as u64
    }

    // Batch reads pin ONE snapshot for the whole batch: a concurrent seal
    // or delete can never make a document vanish between two ids of the
    // same request (the consistency property the seal/swap proptest
    // asserts).
    fn get_batch(&self, ids: &[u32], threads: usize) -> Result<Vec<Vec<u8>>, StoreError> {
        crate::get_batch_ordered(&self.snapshot(), ids, threads)
    }

    fn get_batch_results(&self, ids: &[u32], threads: usize) -> Vec<Result<Vec<u8>, StoreError>> {
        crate::get_batch_results_ordered(&self.snapshot(), ids, threads)
    }
}

/// Scrubs a live store directory offline: every WAL frame re-parsed and
/// CRC-checked, every sealed-segment record CRC-verified. Read-only — the
/// scrub itself never truncates or repairs (that is what opening the store
/// does, and what `rlz-verify --quarantine` records).
pub fn scrub_live(dir: &Path) -> Result<ScrubReport, StoreError> {
    let manifest = Manifest::load(dir)?;
    let mut report = ScrubReport::new(Integrity::Crc32c);
    // WAL frames.
    match std::fs::read(dir.join(WAL_FILE)) {
        Ok(data) => {
            let (records, clean) = crate::wal::parse_frames(&data);
            report.units += records.len() as u64;
            report.bytes += clean;
            if clean < data.len() as u64 {
                report.bad.push(BadUnit {
                    block: None,
                    doc_ids: Vec::new(),
                    error: StoreError::corrupt("torn or corrupt WAL tail (recovered on next open)"),
                });
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(StoreError::Io(e)),
    }
    // Sealed segments, oldest first.
    let mut buf = Vec::new();
    for &seg_no in &manifest.segments {
        let seg = match SegmentReader::open(dir, seg_no) {
            Ok(seg) => seg,
            Err(error) => {
                report.units += 1;
                report.bad.push(BadUnit {
                    block: Some(seg_no as u32),
                    doc_ids: Vec::new(),
                    error,
                });
                continue;
            }
        };
        for &id in seg.doc_order() {
            let entry = seg.entry(id).expect("indexed id");
            report.units += 1;
            report.bytes += entry.len as u64;
            if let Err(error) = seg.read_entry(id, entry, &mut buf) {
                report.bad.push(BadUnit {
                    block: Some(seg_no as u32),
                    doc_ids: vec![id],
                    error,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;
    use crate::{FaultMedia, FaultPlan, WriteStore};
    use rlz_core::SampleStrategy;

    fn dict() -> Dictionary {
        let seed: Vec<u8> = (0..200)
            .flat_map(|i: u32| {
                format!(
                    "<html><nav>home about contact</nav><p>page {i} body common phrase</p></html>"
                )
                .into_bytes()
            })
            .collect();
        Dictionary::sample(&seed, 2048, 256, SampleStrategy::Evenly)
    }

    fn doc(i: usize) -> Vec<u8> {
        format!(
            "<html><p>page {i} body {}</p></html>",
            "common phrase ".repeat(i % 13)
        )
        .into_bytes()
    }

    fn small_config() -> LiveConfig {
        LiveConfig {
            fsync: FsyncPolicy::Always,
            seal_bytes: 512, // tiny, so tests exercise sealing
            ..LiveConfig::default()
        }
    }

    #[test]
    fn put_get_append_delete_roundtrip() {
        let dir = TestDir::new("live-roundtrip");
        let store =
            LiveStore::create(dir.path(), dict(), PairCoding::ZV, LiveConfig::default()).unwrap();
        let a = store.put(&doc(0)).unwrap();
        let b = store.put(&doc(1)).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.get(0).unwrap(), doc(0));
        assert_eq!(store.get(1).unwrap(), doc(1));
        assert_eq!(store.num_docs(), 2);

        store.append(0, b" tail bytes").unwrap();
        let mut want = doc(0);
        want.extend_from_slice(b" tail bytes");
        assert_eq!(store.get(0).unwrap(), want);

        store.delete(1).unwrap();
        assert!(matches!(
            store.get(1).unwrap_err(),
            StoreError::DocOutOfRange(1)
        ));
        assert!(matches!(
            store.delete(1).unwrap_err(),
            StoreError::DocOutOfRange(1)
        ));
        assert!(matches!(
            store.append(7, b"x").unwrap_err(),
            StoreError::DocOutOfRange(7)
        ));
        assert_eq!(store.num_docs(), 2, "deleted ids stay assigned");
    }

    #[test]
    fn survives_reopen_with_and_without_seal() {
        let dir = TestDir::new("live-reopen");
        let store = LiveStore::create(dir.path(), dict(), PairCoding::ZV, small_config()).unwrap();
        let docs: Vec<Vec<u8>> = (0..40).map(doc).collect();
        for d in &docs {
            store.put(d).unwrap();
        }
        store.append(3, b" extra").unwrap();
        store.delete(5).unwrap();
        drop(store);

        let store = LiveStore::open(dir.path(), small_config()).unwrap();
        assert_eq!(store.num_docs(), 40);
        for (i, d) in docs.iter().enumerate() {
            match i {
                3 => {
                    let mut want = d.clone();
                    want.extend_from_slice(b" extra");
                    assert_eq!(store.get(i).unwrap(), want);
                }
                5 => assert!(store.get(i).is_err()),
                _ => assert_eq!(&store.get(i).unwrap(), d, "doc {i}"),
            }
        }
        // Sealing happened along the way (512-byte threshold), so reads
        // span segments and the tail; batch reads agree with gets.
        let ids: Vec<u32> = (0..40).filter(|&i| i != 5).collect();
        let batch = store.get_batch(&ids, 4).unwrap();
        for (slot, &id) in ids.iter().enumerate() {
            assert_eq!(batch[slot], store.get(id as usize).unwrap());
        }
        // An explicit seal drains the tail and the WAL.
        store.seal().unwrap();
        assert_eq!(store.wal_len(), 0);
        drop(store);
        let store = LiveStore::open(dir.path(), small_config()).unwrap();
        assert_eq!(store.recovery().replayed_frames, 0);
        assert_eq!(store.get(2).unwrap(), docs[2]);
    }

    #[test]
    fn snapshot_is_immutable_across_writes_and_seals() {
        let dir = TestDir::new("live-snapshot");
        let store = LiveStore::create(dir.path(), dict(), PairCoding::ZV, small_config()).unwrap();
        store.put(&doc(0)).unwrap();
        let pinned = store.snapshot();
        assert_eq!(pinned.num_docs(), 1);
        store.put(&doc(1)).unwrap();
        store.delete(0).unwrap();
        store.seal().unwrap();
        // The pinned epoch still serves doc 0 and has never heard of 1.
        assert_eq!(pinned.get(0).unwrap(), doc(0));
        assert!(pinned.get(1).is_err());
        assert_eq!(store.snapshot().num_docs(), 2);
    }

    #[test]
    fn wal_bound_seals_to_drain_instead_of_wedging() {
        // The reviewer's wedge scenario: the tail-size seal trigger is
        // unreachable (seal_bytes = MAX), so only the WAL-length triggers
        // keep the log drainable. Writes must never wedge on WalFull.
        let dir = TestDir::new("live-walbound");
        let config = LiveConfig {
            fsync: FsyncPolicy::Always,
            seal_bytes: u64::MAX,
            wal_soft_bytes: u64::MAX, // isolate the hard-bound machinery
            wal_max_bytes: 2048,
        };
        let store = LiveStore::create(dir.path(), dict(), PairCoding::ZV, config).unwrap();
        let docs: Vec<Vec<u8>> = (0..200).map(doc).collect();
        for d in &docs {
            store.put(d).unwrap(); // never WalFull
        }
        assert!(
            store.wal_len() < config.wal_max_bytes,
            "auto-seal kept the log below its hard bound"
        );
        assert_eq!(store.seal_failures(), 0);
        // Delete-heavy traffic: tombstones add no tail bytes, so only the
        // WAL-length trigger can drain the log here. Before the fix this
        // wedged permanently once the log filled with DELETE frames.
        for id in 0..docs.len() as u32 {
            store.delete(id).unwrap();
        }
        assert!(store.wal_len() < config.wal_max_bytes);
        drop(store);
        // Restart lands in the same healthy state: all deletes took.
        let store = LiveStore::open(dir.path(), config).unwrap();
        assert_eq!(store.num_docs(), docs.len());
        for id in 0..docs.len() {
            assert!(store.get(id).is_err(), "doc {id} stays deleted");
        }
        store.put(&doc(999)).unwrap();
    }

    #[test]
    fn write_pressure_trips_at_soft_bound_while_reads_serve() {
        let dir = TestDir::new("live-pressure");
        let config = LiveConfig {
            fsync: FsyncPolicy::Always,
            seal_bytes: u64::MAX,
            wal_soft_bytes: 64,
            wal_max_bytes: 1 << 30, // backlog grows; auto-seal far away
        };
        let store = LiveStore::create(dir.path(), dict(), PairCoding::ZV, config).unwrap();
        for i in 0..10 {
            store.put(&doc(i)).unwrap();
        }
        assert!(store.write_pressure(), "soft bound passed");
        // Reads keep working while the server would shed writes.
        assert_eq!(store.get(0).unwrap(), doc(0));
        store.seal().unwrap();
        assert!(!store.write_pressure(), "seal drains the backlog");
        assert_eq!(store.wal_len(), 0);
    }

    #[test]
    fn interval_policy_background_flusher_syncs_idle_tail() {
        use std::time::{Duration, Instant};
        let dir = TestDir::new("live-flusher");
        let config = LiveConfig {
            fsync: FsyncPolicy::Interval(Duration::from_millis(20)),
            ..LiveConfig::default()
        };
        let store = LiveStore::create(dir.path(), dict(), PairCoding::ZV, config).unwrap();
        store.put(&doc(0)).unwrap();
        // No further writes arrive; the background flusher alone must push
        // the frame to stable storage within the interval (the documented
        // bounded-loss-window guarantee).
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.unsynced_frames() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(store.unsynced_frames(), 0, "flusher synced the idle tail");
    }

    #[test]
    fn injected_crash_points_recover_acked_prefix() {
        // Crash on every append index 0..N with a range of torn-write
        // lengths: after reopening, the store holds exactly the writes
        // whose WAL frame was fully acknowledged — byte-identical — and
        // nothing else. This is the in-process twin of the SIGKILL
        // harness in tests/crash_recovery.rs.
        let docs: Vec<Vec<u8>> = (0..6).map(doc).collect();
        for crash_at in 0..6u64 {
            for torn in [0usize, 1, 7, 64, usize::MAX] {
                let dir = TestDir::new("live-crash");
                LiveStore::create(dir.path(), dict(), PairCoding::ZV, LiveConfig::default())
                    .unwrap();
                let plan = FaultPlan {
                    crash_after_appends: Some(crash_at),
                    torn_write_bytes: torn,
                    ..FaultPlan::default()
                };
                let store = LiveStore::open_with_media(dir.path(), LiveConfig::default(), |m| {
                    Box::new(FaultMedia::new(Box::new(m), &plan))
                })
                .unwrap();
                let mut acked = 0usize;
                for d in &docs {
                    match store.put(d) {
                        Ok(_) => acked += 1,
                        Err(_) => break,
                    }
                }
                assert_eq!(acked, crash_at as usize, "acks stop at the crash point");
                drop(store);
                let store = LiveStore::open(dir.path(), LiveConfig::default()).unwrap();
                // Every acked doc survives. The one in-flight write may
                // also survive — exactly when its torn prefix happened to
                // contain the whole frame — but then it is whole and
                // byte-identical, never garbled, and nothing beyond it
                // ever appears.
                let recovered = store.num_docs();
                assert!(
                    recovered == acked || recovered == acked + 1,
                    "crash_at {crash_at} torn {torn}: recovered {recovered}, acked {acked}"
                );
                for (i, d) in docs.iter().take(recovered).enumerate() {
                    assert_eq!(&store.get(i).unwrap(), d, "crash_at {crash_at} torn {torn}");
                }
            }
        }
    }

    #[test]
    fn scrub_reports_torn_wal_and_corrupt_segment_records() {
        let dir = TestDir::new("live-scrub");
        let store = LiveStore::create(dir.path(), dict(), PairCoding::ZV, small_config()).unwrap();
        for i in 0..30 {
            store.put(&doc(i)).unwrap();
        }
        store.seal().unwrap();
        store.put(&doc(30)).unwrap();
        assert!(store.scrub().unwrap().is_clean());
        drop(store);
        // Tear the WAL tail and flip a bit in the first segment's payload.
        let wal_path = dir.path().join(WAL_FILE);
        let mut wal = std::fs::read(&wal_path).unwrap();
        wal.truncate(wal.len() - 3);
        std::fs::write(&wal_path, wal).unwrap();
        let manifest = Manifest::load(dir.path()).unwrap();
        let seg_path = dir
            .path()
            .join(crate::segment_file_name(manifest.segments[0]));
        let mut seg = std::fs::read(&seg_path).unwrap();
        seg[6] ^= 0x08;
        std::fs::write(&seg_path, seg).unwrap();
        let report = scrub_live(dir.path()).unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .bad
                .iter()
                .any(|u| u.block.is_none() && u.doc_ids.is_empty()),
            "torn WAL reported"
        );
        let bad_ids = report.bad_doc_ids();
        assert!(!bad_ids.is_empty(), "corrupt segment record names its doc");
        // Quarantining those ids makes reads pre-fail typed after reopen.
        crate::write_quarantine(dir.path(), &bad_ids).unwrap();
        let store = LiveStore::open(dir.path(), small_config()).unwrap();
        assert!(matches!(
            store.get(bad_ids[0] as usize).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }
}
