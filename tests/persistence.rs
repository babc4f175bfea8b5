//! On-disk format stability: stores built by one "process" (builder scope)
//! must reopen cleanly and serve identical bytes; metadata corruption must
//! be detected.

use rlz_repro::corpus::{generate_web, WebConfig};
use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{
    build_blocked_chunked, build_rlz_chunked, AsciiStore, BlockCodec, BlockedStore, BuildConfig,
    DocStore, RlzStore,
};

mod common;
use common::TestDir;

#[test]
fn rlz_store_reopens_across_sessions() {
    let c = generate_web(&WebConfig::gov2(1 << 20, 99));
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dir = TestDir::new("rlz-reopen");
    {
        let dict = Dictionary::sample(&c.data, 16 * 1024, 512, SampleStrategy::Evenly);
        build_rlz_chunked(
            dir.path(),
            &RlzCompressor::new(dict, PairCoding::ZV),
            docs.iter(),
            &BuildConfig::default(),
        )
        .unwrap();
    } // builder, dictionary, suffix array all dropped — "process exit"

    // First reader session.
    {
        let store = RlzStore::open(dir.path()).unwrap();
        assert_eq!(store.get(0).unwrap(), docs[0]);
    }
    // Second reader session sees the same bytes.
    let store = RlzStore::open(dir.path()).unwrap();
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(&store.get(i).unwrap(), doc, "doc {i}");
    }
}

#[test]
fn blocked_store_reopens_and_detects_meta_corruption() {
    let c = generate_web(&WebConfig::gov2(1 << 20, 98));
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dir = TestDir::new("blocked-reopen");
    build_blocked_chunked(
        dir.path(),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
        64 * 1024,
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    {
        let store = BlockedStore::open(dir.path()).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(&store.get(i).unwrap(), doc);
        }
    }
    // Truncate the metadata: open (or first access) must fail, not panic.
    let meta = dir.path().join("meta.bin");
    let bytes = std::fs::read(&meta).unwrap();
    std::fs::write(&meta, &bytes[..bytes.len() / 2]).unwrap();
    assert!(BlockedStore::open(dir.path()).is_err());
}

#[test]
fn ascii_store_detects_truncated_payload() {
    let dir = TestDir::new("ascii-trunc");
    let docs: Vec<&[u8]> = vec![b"first document", b"second document"];
    AsciiStore::build(dir.path(), docs.iter().copied()).unwrap();
    // Chop the data file: the doc map now points past EOF.
    let data = dir.path().join("data.bin");
    let bytes = std::fs::read(&data).unwrap();
    std::fs::write(&data, &bytes[..5]).unwrap();
    let store = AsciiStore::open(dir.path()).unwrap();
    assert!(store.get(1).is_err());
}

#[test]
fn rlz_store_detects_cross_coding_mismatch() {
    // A payload written as UV but labelled ZZ must error or mis-decode, not
    // panic, and a correct label round-trips.
    let c = generate_web(&WebConfig::gov2(256 * 1024, 97));
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let dir = TestDir::new("rlz-mislabel");
    let dict = Dictionary::sample(&c.data, 8 * 1024, 512, SampleStrategy::Evenly);
    build_rlz_chunked(
        dir.path(),
        &RlzCompressor::new(dict, PairCoding::UV),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    // Keep the two-byte layout header, swap the coding name after it.
    let meta = dir.path().join("meta.bin");
    let mut bytes = std::fs::read(&meta).unwrap();
    assert_eq!(&bytes[2..], b"UV");
    bytes.truncate(2);
    bytes.extend_from_slice(b"ZZ");
    std::fs::write(&meta, bytes).unwrap();
    let store = RlzStore::open(dir.path()).unwrap();
    for (i, doc) in docs.iter().enumerate() {
        if let Ok(bytes) = store.get(i) {
            assert_ne!(&bytes, doc, "mislabelled store decoded correctly?!");
        }
    }
}
