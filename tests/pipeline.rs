//! End-to-end integration: synthetic crawl → every store type → retrieval
//! equality, plus the compression-ordering claims of the paper's discussion
//! section at miniature scale.

use rlz_repro::corpus::{self, access, generate_web, WebConfig};
use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{
    build_blocked_chunked, build_rlz_chunked, AsciiStore, BlockCodec, BlockedStore, BuildConfig,
    DocStore, RlzStore,
};

mod common;
use common::TestDir;

fn crawl() -> &'static corpus::Collection {
    use std::sync::OnceLock;
    static CRAWL: OnceLock<corpus::Collection> = OnceLock::new();
    CRAWL.get_or_init(|| generate_web(&WebConfig::gov2(6 * 1024 * 1024, 0xFEED)))
}

#[test]
fn every_store_returns_identical_documents() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();

    let ascii_dir = TestDir::new("ascii");
    AsciiStore::build(ascii_dir.path(), docs.iter().copied()).unwrap();
    let ascii = AsciiStore::open(ascii_dir.path()).unwrap();

    let zl_dir = TestDir::new("zl");
    build_blocked_chunked(
        zl_dir.path(),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
        64 * 1024,
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    let zl = BlockedStore::open(zl_dir.path()).unwrap();

    let lz_dir = TestDir::new("lz");
    build_blocked_chunked(
        lz_dir.path(),
        BlockCodec::Lzlite(rlz_repro::lzlite::Level::Fast),
        128 * 1024,
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    let lz = BlockedStore::open(lz_dir.path()).unwrap();

    let dict = Dictionary::sample(&c.data, c.data.len() / 200, 1024, SampleStrategy::Evenly);
    let rlz_dir = TestDir::new("rlz");
    build_rlz_chunked(
        rlz_dir.path(),
        &RlzCompressor::new(dict, PairCoding::ZV),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    let rlz = RlzStore::open(rlz_dir.path()).unwrap();

    assert_eq!(ascii.num_docs(), docs.len());
    assert_eq!(zl.num_docs(), docs.len());
    assert_eq!(lz.num_docs(), docs.len());
    assert_eq!(rlz.num_docs(), docs.len());

    // Query-log access pattern over all four stores.
    let requests = access::query_log(docs.len(), 500, 20, 7);
    for &id in &requests {
        let expect = docs[id as usize];
        assert_eq!(ascii.get(id as usize).unwrap(), expect);
        assert_eq!(zl.get(id as usize).unwrap(), expect);
        assert_eq!(lz.get(id as usize).unwrap(), expect);
        assert_eq!(rlz.get(id as usize).unwrap(), expect);
    }
}

#[test]
fn rlz_compresses_better_than_small_block_zlib() {
    // The paper's headline space claim at miniature scale: RLZ with a ~1%
    // dictionary beats blocked zlib.
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();

    let zl_dir = TestDir::new("ratio-zl");
    build_blocked_chunked(
        zl_dir.path(),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Best),
        100 * 1024,
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    let zl = BlockedStore::open(zl_dir.path()).unwrap();

    let dict = Dictionary::sample(&c.data, c.data.len() / 50, 1024, SampleStrategy::Evenly);
    let rlz_dir = TestDir::new("ratio-rlz");
    build_rlz_chunked(
        rlz_dir.path(),
        &RlzCompressor::new(dict, PairCoding::ZZ),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    let rlz = RlzStore::open(rlz_dir.path()).unwrap();

    let zl_pct = zl.stored_bytes() as f64 * 100.0 / c.total_bytes() as f64;
    let rlz_pct = rlz.total_stored_bytes() as f64 * 100.0 / c.total_bytes() as f64;
    assert!(
        rlz_pct < zl_pct,
        "rlz {rlz_pct:.2}% should beat blocked zlib {zl_pct:.2}%"
    );
}

#[test]
fn url_sorting_helps_blocked_but_not_rlz() {
    let c = crawl();
    let sorted = c.url_sorted();

    let build_zl = |col: &corpus::Collection, tag: &str| {
        let docs: Vec<&[u8]> = col.iter_docs().collect();
        let dir = TestDir::new(tag);
        build_blocked_chunked(
            dir.path(),
            BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
            100 * 1024,
            docs.iter(),
            &BuildConfig::default(),
        )
        .unwrap();
        let s = BlockedStore::open(dir.path()).unwrap().stored_bytes();
        s
    };
    let crawl_size = build_zl(c, "url-zl-crawl");
    let sorted_size = build_zl(&sorted, "url-zl-sorted");
    assert!(
        (sorted_size as f64) < crawl_size as f64 * 0.98,
        "URL sorting should help blocked zlib: {sorted_size} vs {crawl_size}"
    );

    let build_rlz = |col: &corpus::Collection, tag: &str| {
        let docs: Vec<&[u8]> = col.iter_docs().collect();
        let dict = Dictionary::sample(
            &col.data,
            col.data.len() / 150,
            1024,
            SampleStrategy::Evenly,
        );
        let dir = TestDir::new(tag);
        build_rlz_chunked(
            dir.path(),
            &RlzCompressor::new(dict, PairCoding::ZV),
            docs.iter(),
            &BuildConfig::default(),
        )
        .unwrap();
        RlzStore::open(dir.path()).unwrap().total_stored_bytes()
    };
    let rlz_crawl = build_rlz(c, "url-rlz-crawl") as f64;
    let rlz_sorted = build_rlz(&sorted, "url-rlz-sorted") as f64;
    // The paper's claim (§5): reordering moves RLZ "by a fraction of a
    // percent" while blocked compressors improve substantially. At this
    // miniature scale, sampling variance adds noise to RLZ's delta, so
    // assert the *relative* claim: RLZ is much less order-sensitive than
    // the blocked baseline. (The 32 MiB benchmark reproduces the ~0.5-point
    // absolute figure; see EXPERIMENTS.md, Tables 4/5.)
    let rlz_rel = (rlz_sorted - rlz_crawl).abs() / rlz_crawl;
    let blocked_rel = (crawl_size as f64 - sorted_size as f64).abs() / crawl_size as f64;
    assert!(
        rlz_rel < blocked_rel,
        "RLZ order-sensitivity ({rlz_rel:.4}) should be below blocked zlib's ({blocked_rel:.4})"
    );
    assert!(rlz_rel < 0.2, "RLZ moved implausibly much: {rlz_rel:.4}");
}

#[test]
fn dictionary_size_trades_compression() {
    let c = crawl();
    let docs: Vec<&[u8]> = c.iter_docs().collect();
    let mut sizes = Vec::new();
    for (i, frac) in [800usize, 200, 50].into_iter().enumerate() {
        let dict = Dictionary::sample(&c.data, c.data.len() / frac, 1024, SampleStrategy::Evenly);
        let dir = TestDir::new(&format!("dictsize-{i}"));
        build_rlz_chunked(
            dir.path(),
            &RlzCompressor::new(dict, PairCoding::ZV),
            docs.iter(),
            &BuildConfig::default(),
        )
        .unwrap();
        sizes.push(RlzStore::open(dir.path()).unwrap().total_stored_bytes());
    }
    assert!(
        sizes[0] > sizes[1] && sizes[1] > sizes[2],
        "larger dictionaries must compress better: {sizes:?}"
    );
}
