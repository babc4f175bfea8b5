//! Bounded-memory, parallel, streaming store construction — the one way
//! RLZ and blocked stores are written.
//!
//! The paper encodes each document on its own against one shared
//! dictionary, so construction parallelizes and streams. The pipeline's
//! memory is **O(dictionary + in-flight blocks)** — the corpus streams
//! through and never sits in RAM:
//!
//! * a **reader** packs the incoming document stream into *master blocks*
//!   of whole documents (`block_bytes` budget, zopfli's
//!   `ZOPFLI_MASTER_BLOCK_SIZE` idiom: factorize huge inputs in
//!   independent large blocks at negligible ratio cost — a document larger
//!   than the budget gets a block of its own, it is never split);
//! * a pool of **workers** compresses blocks independently against the
//!   shared dictionary, each with a per-thread [`rlz_core::EncodeScratch`]
//!   mirroring the read side's `DecodeScratch`;
//! * one **writer** consumes completed blocks *in sequence order* and
//!   appends records (through [`RlzWriter`]) or storage blocks (through
//!   the blocked store's sink).
//!
//! The bound is enforced by credits: the reader takes one of
//! [`BuildConfig::max_inflight_blocks`] credits before it pulls a block
//! and the writer returns it once that block is on disk. A slow block
//! therefore stalls the reader after at most that many blocks instead of
//! letting the writer's reorder buffer absorb the rest of the input.
//!
//! Block boundaries only cut *between* documents and compression is per
//! document (RLZ) or per storage block (blocked), so the emitted store
//! does not depend on the thread count or the master-block size —
//! asserted by `tests/build_stream.rs` against a sequential
//! compress-and-append loop (RLZ) and a one-worker build (blocked).

use crate::blocked::{BlockPacker, BlockedSink, RawBlock};
use crate::{BlockCodec, RlzWriter, StoreError};
use rlz_core::RlzCompressor;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};

/// Capacity of each bounded inter-stage channel, in blocks.
const QUEUED_BLOCKS: usize = 4;

/// Configuration for the chunked build pipeline, shared by every build
/// binary (`--threads` / `--block-bytes` plumb into this instead of
/// ad-hoc arguments).
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Worker threads compressing master blocks. Defaults to
    /// `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Master-block budget in bytes: the reader packs whole documents into
    /// blocks of roughly this size (a single larger document still forms
    /// one block). Default 1 MiB.
    pub block_bytes: usize,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            block_bytes: 1 << 20,
        }
    }
}

impl BuildConfig {
    /// Blocks resident at once, at most: the reader's credits. A block
    /// holds one from the moment the reader starts packing it until the
    /// writer has emitted it. Sized to keep every stage busy — both
    /// channels full, two blocks per worker, one being packed. The
    /// pipeline's raw-byte high-water mark is
    /// `max_inflight_blocks() * block_bytes` plus one oversized document,
    /// which is what the build bench budgets RSS against.
    pub fn max_inflight_blocks(&self) -> usize {
        2 * QUEUED_BLOCKS + 2 * self.threads.max(1) + 1
    }
}

/// What a completed chunked build processed (the bench's throughput
/// denominators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildReport {
    /// Documents written.
    pub docs: u64,
    /// Raw (uncompressed) corpus bytes consumed.
    pub raw_bytes: u64,
    /// Master blocks (RLZ) or storage blocks (blocked) processed.
    pub blocks: u64,
}

/// Reader → workers → in-order writer over bounded channels. `blocks` is
/// drained on a spawned reader thread; `work` runs on `cfg.threads`
/// workers; `emit` observes results in exactly the order `blocks` yielded
/// their inputs, on the calling thread. On an `emit` error the channels
/// are dropped, upstream stages unwind, and the error is returned.
fn run_pipeline<B, R>(
    mut blocks: impl Iterator<Item = B> + Send,
    cfg: &BuildConfig,
    work: impl Fn(B) -> R + Sync,
    mut emit: impl FnMut(R) -> Result<(), StoreError>,
) -> Result<(), StoreError>
where
    B: Send,
    R: Send,
{
    let (block_tx, block_rx) = sync_channel::<(u64, B)>(QUEUED_BLOCKS);
    // The std receiver is `!Sync`, so workers share it behind a mutex; the
    // lock is held only for the dequeue, never during compression.
    let block_rx = Arc::new(Mutex::new(block_rx));
    let (result_tx, result_rx) = sync_channel::<(u64, R)>(QUEUED_BLOCKS);
    let credits = cfg.max_inflight_blocks();
    let (credit_tx, credit_rx) = sync_channel::<()>(credits);
    for _ in 0..credits {
        credit_tx.send(()).expect("credit receiver alive");
    }
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut seq = 0u64;
            // A credit error means the writer stopped on an error; a send
            // error that the workers are gone. Either way, stop reading.
            while credit_rx.recv().is_ok() {
                let Some(block) = blocks.next() else { break };
                if block_tx.send((seq, block)).is_err() {
                    break;
                }
                seq += 1;
            }
        });
        for _ in 0..cfg.threads.max(1) {
            let block_rx = Arc::clone(&block_rx);
            let result_tx = result_tx.clone();
            let work = &work;
            scope.spawn(move || loop {
                let msg = block_rx.lock().expect("no poisoning").recv();
                let Ok((seq, block)) = msg else { break };
                if result_tx.send((seq, work(block))).is_err() {
                    break;
                }
            });
        }
        // The workers now hold the only handles to their channels. Dropping
        // the originals here matters on the error path: if `emit` fails the
        // writer drops `result_rx`, the workers' sends fail and they exit,
        // and the shared block receiver must die *with them* so the
        // reader's send fails too — a strong ref surviving in this frame
        // would leave the reader blocked and the scope joining forever.
        drop(block_rx);
        drop(result_tx);

        // In-order emission: results arrive in completion order; hold the
        // out-of-order ones (never more than the credits) until their turn.
        let mut pending: BTreeMap<u64, R> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut outcome = Ok(());
        'recv: while let Ok((seq, result)) = result_rx.recv() {
            pending.insert(seq, result);
            while let Some(result) = pending.remove(&next_seq) {
                if let Err(e) = emit(result) {
                    outcome = Err(e);
                    break 'recv;
                }
                next_seq += 1;
                // Fails only once the reader has finished.
                let _ = credit_tx.send(());
            }
        }
        // Dropping the credit sender stops a reader waiting for a credit;
        // dropping the receiver fails the workers' sends; workers exiting
        // drop the shared block receiver, failing the reader's sends — the
        // scope then joins everything.
        drop(credit_tx);
        drop(result_rx);
        outcome
    })
}

/// One master block of whole documents, concatenated.
#[derive(Default)]
struct DocChunk {
    bytes: Vec<u8>,
    lens: Vec<usize>,
}

/// Packs a document stream into master blocks of at most `block_bytes`
/// (one oversized document still forms a block; documents are never
/// split).
fn doc_chunks<D: AsRef<[u8]>>(
    mut docs: impl Iterator<Item = D>,
    block_bytes: usize,
) -> impl Iterator<Item = DocChunk> {
    let block_bytes = block_bytes.max(1);
    let mut carry: Option<D> = None;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let mut chunk = DocChunk::default();
        while let Some(doc) = carry.take().or_else(|| docs.next()) {
            let doc_bytes = doc.as_ref();
            if !chunk.lens.is_empty() && chunk.bytes.len() + doc_bytes.len() > block_bytes {
                carry = Some(doc);
                return Some(chunk);
            }
            chunk.bytes.extend_from_slice(doc_bytes);
            chunk.lens.push(doc_bytes.len());
        }
        done = true;
        if chunk.lens.is_empty() {
            None
        } else {
            Some(chunk)
        }
    })
}

/// Builds an RLZ store from a document stream with bounded memory:
/// workers factorize master blocks against `compressor`'s shared
/// dictionary (per-thread encode scratch), the writer streams encoded
/// records to disk in document order through [`RlzWriter`].
pub fn build_rlz_chunked<D: AsRef<[u8]> + Send>(
    dir: &Path,
    compressor: &RlzCompressor,
    docs: impl Iterator<Item = D> + Send,
    cfg: &BuildConfig,
) -> Result<BuildReport, StoreError> {
    struct EncodedChunk {
        bytes: Vec<u8>,
        lens: Vec<usize>,
        raw_bytes: u64,
    }
    let mut writer = RlzWriter::create(dir, compressor.dict().bytes(), compressor.coding())?;
    let mut report = BuildReport::default();
    run_pipeline(
        doc_chunks(docs, cfg.block_bytes),
        cfg,
        |chunk: DocChunk| {
            let mut bytes = Vec::new();
            let mut lens = Vec::with_capacity(chunk.lens.len());
            crate::with_encode_scratch(|scratch| {
                let mut at = 0usize;
                for &len in &chunk.lens {
                    let start = bytes.len();
                    compressor.compress_with(&chunk.bytes[at..at + len], scratch, &mut bytes);
                    lens.push(bytes.len() - start);
                    at += len;
                }
            });
            EncodedChunk {
                bytes,
                lens,
                raw_bytes: chunk.bytes.len() as u64,
            }
        },
        |enc: EncodedChunk| {
            let mut at = 0usize;
            for &len in &enc.lens {
                writer.append_encoded(&enc.bytes[at..at + len])?;
                at += len;
            }
            report.docs += enc.lens.len() as u64;
            report.raw_bytes += enc.raw_bytes;
            report.blocks += 1;
            Ok(())
        },
    )?;
    writer.finish()?;
    Ok(report)
}

/// Builds a blocked store from a document stream with bounded memory:
/// the reader packs storage blocks, workers compress them, the writer
/// emits them in order.
///
/// `block_size` is the *storage* block budget (0 = one document per
/// block), which doubles as the pipeline's work granularity;
/// [`BuildConfig::block_bytes`] is not used here.
pub fn build_blocked_chunked<D: AsRef<[u8]> + Send>(
    dir: &Path,
    codec: BlockCodec,
    block_size: usize,
    docs: impl Iterator<Item = D> + Send,
    cfg: &BuildConfig,
) -> Result<BuildReport, StoreError> {
    /// Reader → worker items: packed storage blocks, then (last) the
    /// docmap lengths of any trailing zero-length documents without a
    /// block of their own.
    enum Item {
        Packed(RawBlock),
        Trailing(Vec<usize>),
    }
    enum Done {
        Block(RawBlock, Vec<u8>),
        Trailing(Vec<usize>),
    }
    let mut packer = Some(BlockPacker::new(block_size));
    let mut docs = docs;
    let mut queue: VecDeque<Item> = VecDeque::new();
    let blocks = std::iter::from_fn(move || loop {
        if let Some(item) = queue.pop_front() {
            return Some(item);
        }
        let p = packer.as_mut()?;
        match docs.next() {
            Some(doc) => {
                if let Some(block) = p.push(doc.as_ref()) {
                    return Some(Item::Packed(block));
                }
            }
            None => {
                let (tail, trailing) = packer.take().expect("packer present").finish();
                if let Some(block) = tail {
                    queue.push_back(Item::Packed(block));
                }
                if !trailing.is_empty() {
                    queue.push_back(Item::Trailing(trailing));
                }
            }
        }
    });

    let mut sink = BlockedSink::create(dir, codec)?;
    let mut report = BuildReport::default();
    run_pipeline(
        blocks,
        cfg,
        |item: Item| match item {
            Item::Packed(raw) => {
                let comp = codec.compress(&raw.bytes);
                Done::Block(raw, comp)
            }
            Item::Trailing(lens) => Done::Trailing(lens),
        },
        |done: Done| {
            match done {
                Done::Block(raw, comp) => {
                    report.docs += raw.doc_lens.len() as u64;
                    report.raw_bytes += raw.bytes.len() as u64;
                    report.blocks += 1;
                    sink.append_compressed(&raw, &comp)?;
                }
                Done::Trailing(lens) => {
                    report.docs += lens.len() as u64;
                    sink.append_trailing_doc_lens(&lens);
                }
            }
            Ok(())
        },
    )?;
    sink.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;
    use crate::{BlockedStore, DocStore, RlzStore};
    use rlz_core::{Dictionary, PairCoding};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn oversized_document_forms_its_own_block() {
        let docs = [vec![b'a'; 10], vec![b'b'; 5000], vec![b'c'; 10]];
        let chunks: Vec<DocChunk> = doc_chunks(docs.iter(), 64).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1].bytes.len(), 5000);
        assert_eq!(
            chunks.iter().map(|c| c.lens.len()).sum::<usize>(),
            docs.len()
        );
    }

    #[test]
    fn empty_stream_builds_empty_stores() {
        let cfg = BuildConfig::default();
        let dict = Dictionary::from_bytes(b"seed".to_vec());
        let comp = RlzCompressor::new(dict, PairCoding::UV);
        let rlz = TestDir::new("build-empty-rlz");
        let report =
            build_rlz_chunked(rlz.path(), &comp, std::iter::empty::<&[u8]>(), &cfg).unwrap();
        assert_eq!(report.docs, 0);
        assert_eq!(RlzStore::open(rlz.path()).unwrap().num_docs(), 0);

        let blocked = TestDir::new("build-empty-blocked");
        let codec = BlockCodec::Zlite(rlz_zlite::Level::Default);
        let report = build_blocked_chunked(
            blocked.path(),
            codec,
            4096,
            std::iter::empty::<&[u8]>(),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.docs, 0);
        assert_eq!(BlockedStore::open(blocked.path()).unwrap().num_docs(), 0);
    }

    #[test]
    fn writer_error_unwinds_the_pipeline() {
        // An emit error must propagate out of run_pipeline without
        // deadlocking reader or workers.
        let cfg = BuildConfig {
            threads: 2,
            ..BuildConfig::default()
        };
        let err = run_pipeline(
            (0..10_000u64).map(|i| vec![i as u8; 64]),
            &cfg,
            |b: Vec<u8>| b,
            |_b: Vec<u8>| Err(StoreError::corrupt("synthetic writer failure")),
        );
        assert!(matches!(err, Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn read_ahead_is_bounded_while_one_block_is_slow() {
        // Block 0 is held while the other worker finishes everything the
        // reader hands it. Without credits the reader runs through the
        // whole input into the writer's reorder buffer; the hold ends as
        // soon as it passes the bound, or after a timeout when it cannot.
        let cfg = BuildConfig {
            threads: 2,
            ..BuildConfig::default()
        };
        let bound = cfg.max_inflight_blocks();
        let (overrun_tx, overrun_rx) = sync_channel::<()>(1);
        let overrun_rx = Mutex::new(overrun_rx);
        let pulled = AtomicUsize::new(0);
        let mut emitted = 0usize;
        let mut read_ahead = 0usize;
        run_pipeline(
            (0..10_000usize).inspect(|_| {
                if pulled.fetch_add(1, Ordering::SeqCst) == bound {
                    let _ = overrun_tx.try_send(());
                }
            }),
            &cfg,
            |i: usize| {
                if i == 0 {
                    let overrun = overrun_rx.lock().expect("no poisoning");
                    let _ = overrun.recv_timeout(std::time::Duration::from_millis(300));
                }
                i
            },
            |i: usize| {
                assert_eq!(i, emitted, "emitted out of order");
                read_ahead = read_ahead.max(pulled.load(Ordering::SeqCst) - emitted);
                emitted += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(emitted, 10_000);
        assert!(
            read_ahead <= bound,
            "reader ran {read_ahead} blocks ahead of the writer, over the {bound} in flight"
        );
    }
}
