//! Chunked/parallel construction must emit the same bytes whatever its
//! thread count and master-block size — for every store family, across
//! random corpora, master block sizes, storage block sizes and thread
//! counts, including the edges the pipeline has to get right: a document
//! larger than the block budget (one block of its own, never split),
//! zero-length documents, and trailing zero-length documents (which in the
//! blocked format get docmap entries but no storage block of their own).
//!
//! The references are independent of the pipeline's scheduling: for RLZ a
//! plain loop of `compress` → [`RlzWriter`]; for blocked stores the same
//! pipeline with one worker, which cannot reorder blocks (reordering is
//! the only logic the thread count changes). Ascii stores have one
//! sequential writer, so they are checked by `get` round-trips.

use proptest::prelude::*;
use rlz_repro::ingest::doc_bytes;
use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{
    build_blocked_chunked, build_rlz_chunked, AsciiStore, BlockCodec, BlockedStore, BuildConfig,
    DocStore, RlzStore, RlzWriter,
};
use std::collections::BTreeMap;
use std::path::Path;

mod common;
use common::TestDir;

/// Every file a build emitted, by name — the identity being asserted.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    out
}

/// A corpus with the awkward shapes mixed in: generator documents, some
/// zero-length documents scattered through, optionally one document far
/// larger than any block budget, optionally trailing zero-length docs.
fn make_docs(seed: u64, n: usize, oversized: bool, trailing_empties: usize) -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> = (0..n as u32).map(|id| doc_bytes(seed, id)).collect();
    for i in (0..n).step_by(7) {
        docs[i].clear();
    }
    if oversized {
        let at = n / 2;
        let big = doc_bytes(seed, u32::MAX)
            .iter()
            .cycle()
            .take(64 * 1024)
            .copied()
            .collect();
        docs.insert(at.min(docs.len()), big);
    }
    docs.extend(std::iter::repeat_n(Vec::new(), trailing_empties));
    docs
}

fn dict_for(docs: &[Vec<u8>]) -> Dictionary {
    let all: Vec<u8> = docs.concat();
    Dictionary::sample(&all, (all.len() / 32).max(64), 128, SampleStrategy::Evenly)
}

/// Builds one family through the pipeline under `cfg` (and, for RLZ and
/// blocked, its reference) and asserts file-level identity, the build
/// report, and `get` round-trips on the piped store.
fn check_family(
    family: &str,
    docs: &[Vec<u8>],
    cfg: &BuildConfig,
    storage_block: usize,
    tag: &str,
) {
    let reference = TestDir::new(&format!("{family}-reference-{tag}"));
    let chunked = TestDir::new(&format!("{family}-chunked-{tag}"));
    let raw_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let reopened: Box<dyn DocStore> = match family {
        "ascii" => {
            AsciiStore::build(chunked.path(), docs.iter().map(|d| d.as_slice())).unwrap();
            Box::new(AsciiStore::open(chunked.path()).unwrap())
        }
        "blocked" => {
            let codec = BlockCodec::Zlite(rlz_repro::zlite::Level::Default);
            let one_worker = BuildConfig {
                threads: 1,
                ..cfg.clone()
            };
            build_blocked_chunked(
                reference.path(),
                codec,
                storage_block,
                docs.iter(),
                &one_worker,
            )
            .unwrap();
            let report =
                build_blocked_chunked(chunked.path(), codec, storage_block, docs.iter(), cfg)
                    .unwrap();
            assert_eq!(report.docs, docs.len() as u64, "blocked ({tag})");
            assert_eq!(report.raw_bytes, raw_bytes, "blocked ({tag})");
            Box::new(BlockedStore::open(chunked.path()).unwrap())
        }
        "rlz" => {
            let compressor = RlzCompressor::new(dict_for(docs), PairCoding::ZV);
            let mut writer = RlzWriter::create(
                reference.path(),
                compressor.dict().bytes(),
                compressor.coding(),
            )
            .unwrap();
            for doc in docs {
                writer.append_encoded(&compressor.compress(doc)).unwrap();
            }
            writer.finish().unwrap();
            let report = build_rlz_chunked(chunked.path(), &compressor, docs.iter(), cfg).unwrap();
            assert_eq!(report.docs, docs.len() as u64, "rlz ({tag})");
            assert_eq!(report.raw_bytes, raw_bytes, "rlz ({tag})");
            Box::new(RlzStore::open(chunked.path()).unwrap())
        }
        other => panic!("unknown family {other}"),
    };
    if family != "ascii" {
        assert_eq!(
            dir_bytes(reference.path()),
            dir_bytes(chunked.path()),
            "{family} ({tag}): chunked build diverged from its reference"
        );
    }
    assert_eq!(reopened.num_docs(), docs.len(), "{family} ({tag})");
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(&reopened.get(i).unwrap(), doc, "{family} ({tag}): doc {i}");
    }
}

const FAMILIES: [&str; 3] = ["ascii", "blocked", "rlz"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chunked_build_equals_serial_build(
        seed in 0u64..u32::MAX as u64,
        n in 0usize..90,
        threads in 1usize..5,
        block_bytes in 1usize..4096,
        storage_block in 0usize..8192,
        oversized in any::<bool>(),
        trailing_empties in 0usize..4,
    ) {
        let docs = make_docs(seed, n, oversized, trailing_empties);
        let cfg = BuildConfig { threads, block_bytes };
        let tag = format!("{seed}-{n}-{threads}-{block_bytes}");
        for family in FAMILIES {
            check_family(family, &docs, &cfg, storage_block, &tag);
        }
    }
}

/// One document larger than the master block budget must still round-trip
/// byte-identically (it forms a block of its own; documents are never
/// split) — also with one document per storage block.
#[test]
fn one_doc_larger_than_block() {
    let docs = make_docs(0xB16, 12, true, 0);
    let cfg = BuildConfig {
        threads: 3,
        block_bytes: 512,
    };
    for storage_block in [0, 1024] {
        for family in FAMILIES {
            check_family(family, &docs, &cfg, storage_block, "oversized");
        }
    }
}

/// Trailing zero-length documents: the blocked format gives them docmap
/// entries but no storage block; the streamed packer must reproduce that
/// exactly.
#[test]
fn trailing_empty_docs_match_serial() {
    let docs = make_docs(0xE0F, 9, false, 3);
    let cfg = BuildConfig {
        threads: 2,
        block_bytes: 777,
    };
    for family in FAMILIES {
        check_family(family, &docs, &cfg, 512, "trailing");
    }
}
