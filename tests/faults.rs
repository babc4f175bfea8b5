//! Fault-injection harness: deterministic corruption through
//! [`FaultBackend`] must be *contained* — a broken block fails exactly the
//! documents living in it, typed as `StoreError::Corrupt`, while every
//! other document decodes byte-identically — and arbitrary on-disk damage
//! (bit rot, truncation, zero-extension of any store file) must never
//! panic, only error.

use proptest::prelude::*;
use rlz_repro::corpus::{generate_web, WebConfig};
use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{
    build_blocked_chunked, build_rlz_chunked, write_quarantine, AsciiStore, BlockCodec,
    BlockedStore, BuildConfig, DocStore, FaultBackend, FaultPlan, FileBackend, RlzStore,
    StorageBackend, StoreError,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;
use common::TestDir;

fn corpus_docs() -> Vec<Vec<u8>> {
    let collection = generate_web(&WebConfig::gov2(256 * 1024, 0xFA17));
    collection.iter_docs().map(|d| d.to_vec()).collect()
}

/// The three store families, built into `dir` and reopened over a
/// [`FaultBackend`] wrapping the payload file, so tests can arm faults
/// mid-flight.
fn build_faulted(
    family: &str,
    dir: &Path,
    docs: &[Vec<u8>],
) -> (Box<dyn DocStore>, Arc<FaultBackend>, u64) {
    let payload_file = match family {
        "ascii" => {
            AsciiStore::build(dir, docs.iter().map(|d| d.as_slice())).unwrap();
            "data.bin"
        }
        "blocked" => {
            build_blocked_chunked(
                dir,
                BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
                16 * 1024,
                docs.iter(),
                &BuildConfig::default(),
            )
            .unwrap();
            "blocks.bin"
        }
        "rlz" => {
            let all: Vec<u8> = docs.concat();
            let dict = Dictionary::sample(&all, all.len() / 64, 512, SampleStrategy::Evenly);
            build_rlz_chunked(
                dir,
                &RlzCompressor::new(dict, PairCoding::ZV),
                docs.iter(),
                &BuildConfig::default(),
            )
            .unwrap();
            "payload.bin"
        }
        other => panic!("unknown family {other}"),
    };
    let payload_len = std::fs::metadata(dir.join(payload_file)).unwrap().len();
    let fault = FaultBackend::new(Arc::new(
        FileBackend::open(&dir.join(payload_file)).unwrap(),
    ));
    let backend = Arc::clone(&fault) as Arc<dyn StorageBackend>;
    let store: Box<dyn DocStore> = match family {
        "ascii" => Box::new(AsciiStore::open_with_backend(dir, backend).unwrap()),
        "blocked" => Box::new(BlockedStore::open_with_backend(dir, backend).unwrap()),
        "rlz" => Box::new(RlzStore::open_with_backend(dir, backend).unwrap()),
        _ => unreachable!(),
    };
    (store, fault, payload_len)
}

const FAMILIES: [&str; 3] = ["ascii", "blocked", "rlz"];

#[test]
fn seeded_corruption_is_contained_and_typed() {
    let docs = corpus_docs();
    for family in FAMILIES {
        let dir = TestDir::new(&format!("contain-{family}"));
        let (store, fault, payload_len) = build_faulted(family, dir.path(), &docs);
        let ids: Vec<u32> = (0..docs.len() as u32).collect();

        // Clean pass: everything decodes byte-identically.
        for r in store.get_batch_results(&ids, 2) {
            r.unwrap_or_else(|e| panic!("{family}: clean store failed: {e}"));
        }

        // One flipped bit in the payload: at least one document fails with
        // the *typed* corruption error, every other one is byte-identical.
        fault.set_plan(FaultPlan::seeded_bit_flips(7, 1, payload_len));
        let results = store.get_batch_results(&ids, 2);
        let mut failed = Vec::new();
        for (id, r) in ids.iter().zip(&results) {
            match r {
                Ok(doc) => assert_eq!(
                    doc, &docs[*id as usize],
                    "{family}: doc {id} must be unaffected by a fault in another unit"
                ),
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::Corrupt { .. }),
                        "{family}: doc {id} failed untyped: {e}"
                    );
                    failed.push(*id);
                }
            }
        }
        assert!(
            !failed.is_empty(),
            "{family}: a payload bit flip must be detected by the checksums"
        );
        assert!(
            failed.len() < docs.len(),
            "{family}: one flipped bit must not take down the whole store"
        );

        // Single-document gets agree with the batch verdicts.
        for &id in failed.iter().take(3) {
            assert!(
                matches!(store.get(id as usize), Err(StoreError::Corrupt { .. })),
                "{family}: doc {id} must fail typed on a direct get too"
            );
        }

        // The scrub walks the same checksums: its quarantine list is
        // exactly the set of unreadable documents.
        let report = match family {
            "ascii" => AsciiStore::open_with_backend(
                dir.path(),
                Arc::clone(&fault) as Arc<dyn StorageBackend>,
            )
            .unwrap()
            .scrub(),
            "blocked" => BlockedStore::open_with_backend(
                dir.path(),
                Arc::clone(&fault) as Arc<dyn StorageBackend>,
            )
            .unwrap()
            .scrub(),
            "rlz" => RlzStore::open_with_backend(
                dir.path(),
                Arc::clone(&fault) as Arc<dyn StorageBackend>,
            )
            .unwrap()
            .scrub(),
            _ => unreachable!(),
        };
        assert_eq!(
            report.bad_doc_ids(),
            failed,
            "{family}: scrub and retrieval must agree on the failure set"
        );

        // Disarming the fault restores every byte — containment did not
        // poison any cached state.
        fault.clear();
        for (id, r) in ids.iter().zip(store.get_batch_results(&ids, 2)) {
            assert_eq!(
                r.unwrap_or_else(|e| panic!("{family}: doc {id} after clear: {e}")),
                docs[*id as usize]
            );
        }
    }
}

#[test]
fn injected_io_errors_fail_only_overlapping_reads() {
    let docs = corpus_docs();
    let dir = TestDir::new("eio");
    let (store, fault, payload_len) = build_faulted("blocked", dir.path(), &docs);
    // A "bad sector" covering a small window in the middle of the payload.
    let mid = payload_len / 2;
    fault.set_plan(FaultPlan {
        eio_ranges: vec![(mid, mid + 64)],
        ..FaultPlan::default()
    });
    let ids: Vec<u32> = (0..docs.len() as u32).collect();
    let results = store.get_batch_results(&ids, 2);
    let failed = results.iter().filter(|r| r.is_err()).count();
    assert!(failed > 0, "reads over the bad sector must fail");
    assert!(failed < docs.len(), "reads elsewhere must succeed");
    for (id, r) in ids.iter().zip(&results) {
        if let Ok(doc) = r {
            assert_eq!(doc, &docs[*id as usize], "doc {id}");
        }
    }
}

#[test]
fn truncated_backend_errors_without_panicking() {
    let docs = corpus_docs();
    for family in FAMILIES {
        let dir = TestDir::new(&format!("trunc-{family}"));
        let (store, fault, payload_len) = build_faulted(family, dir.path(), &docs);
        fault.set_plan(FaultPlan {
            truncate_at: Some(payload_len / 3),
            ..FaultPlan::default()
        });
        let ids: Vec<u32> = (0..docs.len() as u32).collect();
        let results = store.get_batch_results(&ids, 2);
        assert!(
            results.iter().any(|r| r.is_err()),
            "{family}: documents past the truncation point must fail"
        );
        for (id, r) in ids.iter().zip(&results) {
            if let Ok(doc) = r {
                assert_eq!(doc, &docs[*id as usize], "{family}: doc {id}");
            }
        }
    }
}

/// A quarantine sidecar names documents of the store that was scrubbed:
/// rebuilding into the same directory must not carry it over and fail
/// healthy documents of the new store.
#[test]
fn rebuilding_a_store_drops_the_old_quarantine() {
    let old = corpus_docs();
    let new: Vec<Vec<u8>> = old.iter().rev().take(40).cloned().collect();
    for family in FAMILIES {
        let dir = TestDir::new(&format!("requarantine-{family}"));
        build_faulted(family, dir.path(), &old);
        write_quarantine(dir.path(), &[1]).unwrap();
        let (store, _, _) = build_faulted(family, dir.path(), &new);
        assert_eq!(store.quarantined_docs(), 0, "{family}");
        for (i, doc) in new.iter().enumerate() {
            assert_eq!(&store.get(i).unwrap(), doc, "{family}: doc {i}");
        }
    }
}

/// Tiny per-family stores whose on-disk files the property tests mutate.
/// Built once; each case copies the directory and damages the copy.
fn tiny_store(family: &'static str) -> &'static (PathBuf, usize) {
    use std::sync::OnceLock;
    static STORES: OnceLock<Vec<(&'static str, (PathBuf, usize))>> = OnceLock::new();
    let stores = STORES.get_or_init(|| {
        let docs: Vec<Vec<u8>> = (0..24)
            .map(|i| {
                format!(
                    "<doc id={i}>{}</doc>",
                    "common web boilerplate ".repeat(3 + i % 5)
                )
                .into_bytes()
            })
            .collect();
        FAMILIES
            .iter()
            .map(|&family| {
                let dir = std::env::temp_dir()
                    .join(format!("rlz-faults-tiny-{family}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                match family {
                    "ascii" => AsciiStore::build(&dir, docs.iter().map(|d| d.as_slice())).unwrap(),
                    "blocked" => {
                        build_blocked_chunked(
                            &dir,
                            BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
                            1024,
                            docs.iter(),
                            &BuildConfig::default(),
                        )
                        .unwrap();
                    }
                    "rlz" => {
                        let all: Vec<u8> = docs.concat();
                        let dict = Dictionary::sample(&all, 1024, 128, SampleStrategy::Evenly);
                        build_rlz_chunked(
                            &dir,
                            &RlzCompressor::new(dict, PairCoding::ZV),
                            docs.iter(),
                            &BuildConfig::default(),
                        )
                        .unwrap();
                    }
                    _ => unreachable!(),
                }
                (family, (dir, docs.len()))
            })
            .collect()
    });
    &stores.iter().find(|(f, _)| *f == family).unwrap().1
}

/// Opens whatever is at `dir` as `family` and drains every access path:
/// open, stats, every get, a batch, and a scrub. Any outcome is fine —
/// except a panic.
fn open_and_drain(family: &str, dir: &Path, num_docs: usize) {
    let ids: Vec<u32> = (0..num_docs as u32).collect();
    match family {
        "ascii" => {
            if let Ok(store) = AsciiStore::open(dir) {
                let _ = store.stats();
                for id in 0..num_docs {
                    let _ = store.get(id);
                }
                let _ = store.get_batch_results(&ids, 2);
                let _ = store.scrub();
            }
        }
        "blocked" => {
            if let Ok(store) = BlockedStore::open(dir) {
                let _ = store.stats();
                for id in 0..num_docs {
                    let _ = store.get(id);
                }
                let _ = store.get_batch_results(&ids, 2);
                let _ = store.scrub();
            }
        }
        "rlz" => {
            if let Ok(store) = RlzStore::open(dir) {
                let _ = store.stats();
                for id in 0..num_docs {
                    let _ = store.get(id);
                }
                let _ = store.get_batch_results(&ids, 2);
                let _ = store.scrub();
            }
        }
        _ => unreachable!(),
    }
}

/// Copies the pristine store, applies `damage` to the file picked by
/// `file_pick`, and drains it. The scratch directory name carries the case
/// inputs so failures identify themselves.
fn damage_case(
    family: &'static str,
    file_pick: usize,
    case_tag: &str,
    damage: impl FnOnce(&mut Vec<u8>),
) {
    let (src, num_docs) = tiny_store(family);
    let mut files: Vec<PathBuf> = std::fs::read_dir(src)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let target = &files[file_pick % files.len()];
    let scratch = std::env::temp_dir().join(format!(
        "rlz-faults-case-{family}-{case_tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    for f in &files {
        std::fs::copy(f, scratch.join(f.file_name().unwrap())).unwrap();
    }
    let damaged = scratch.join(target.file_name().unwrap());
    let mut bytes = std::fs::read(&damaged).unwrap();
    damage(&mut bytes);
    std::fs::write(&damaged, &bytes).unwrap();
    open_and_drain(family, &scratch, *num_docs);
    let _ = std::fs::remove_dir_all(&scratch);
}

proptest! {
    #[test]
    fn bit_flipped_files_never_panic(
        file_pick in 0usize..16,
        frac in 0u16..=u16::MAX,
        mask in 1u8..=255,
    ) {
        for family in FAMILIES {
            damage_case(family, file_pick, "flip", |bytes| {
                if !bytes.is_empty() {
                    let at = (frac as usize * (bytes.len() - 1)) / u16::MAX as usize;
                    bytes[at] ^= mask;
                }
            });
        }
    }

    #[test]
    fn truncated_files_never_panic(file_pick in 0usize..16, frac in 0u16..=u16::MAX) {
        for family in FAMILIES {
            damage_case(family, file_pick, "trunc", |bytes| {
                let keep = (frac as usize * bytes.len()) / (u16::MAX as usize + 1);
                bytes.truncate(keep);
            });
        }
    }

    #[test]
    fn zero_extended_files_never_panic(file_pick in 0usize..16, extra in 1usize..256) {
        for family in FAMILIES {
            damage_case(family, file_pick, "zext", |bytes| {
                bytes.extend(std::iter::repeat_n(0u8, extra));
            });
        }
    }
}
