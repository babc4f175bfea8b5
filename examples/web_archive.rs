//! Web archive walkthrough: generate a synthetic crawl, build all four
//! store types of the paper's evaluation, and compare compression and
//! retrieval throughput under sequential and query-log access — a
//! miniature of §4/§5.
//!
//! Run with: `cargo run --release --example web_archive`

use rlz_repro::corpus::{access, generate_web, WebConfig};
use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{
    build_blocked_chunked, build_rlz_chunked, AsciiStore, BlockCodec, BlockedStore, BuildConfig,
    DocStore, RlzStore,
};
use std::time::Instant;

fn main() {
    let size = 16 * 1024 * 1024;
    println!("generating a {} MiB synthetic .gov crawl...", size >> 20);
    let crawl = generate_web(&WebConfig::gov2(size, 2026));
    let docs: Vec<&[u8]> = crawl.iter_docs().collect();
    println!(
        "  {} documents, avg {} bytes",
        docs.len(),
        crawl.total_bytes() / docs.len()
    );

    let root = std::env::temp_dir().join(format!("rlz-web-archive-{}", std::process::id()));

    // --- build the four systems ---
    let t = Instant::now();
    AsciiStore::build(&root.join("ascii"), docs.iter().copied()).unwrap();
    println!("ascii store built in {:.1?}", t.elapsed());

    let t = Instant::now();
    build_blocked_chunked(
        &root.join("zlib"),
        BlockCodec::Zlite(rlz_repro::zlite::Level::Default),
        100 * 1024,
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    println!("blocked zlib-class store built in {:.1?}", t.elapsed());

    let t = Instant::now();
    build_blocked_chunked(
        &root.join("lzma"),
        BlockCodec::Lzlite(rlz_repro::lzlite::Level::Default),
        100 * 1024,
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    println!("blocked lzma-class store built in {:.1?}", t.elapsed());

    let t = Instant::now();
    let dict = Dictionary::sample(
        &crawl.data,
        crawl.data.len() / 100, // 1% dictionary
        1024,
        SampleStrategy::Evenly,
    );
    build_rlz_chunked(
        &root.join("rlz"),
        &RlzCompressor::new(dict, PairCoding::ZV),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    println!("rlz store built in {:.1?}", t.elapsed());

    // --- measure ---
    let sequential = access::sequential(docs.len(), 2 * docs.len());
    let querylog = access::query_log(docs.len(), 5_000, 20, 42);

    let report = |name: &str, store: &dyn DocStore, stored: u64| {
        let pct = stored as f64 * 100.0 / crawl.total_bytes() as f64;
        let mut buf = Vec::new();
        let t = Instant::now();
        for &id in &sequential {
            buf.clear();
            store.get_into(id as usize, &mut buf).unwrap();
        }
        let seq = sequential.len() as f64 / t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &id in &querylog {
            buf.clear();
            store.get_into(id as usize, &mut buf).unwrap();
        }
        let qlog = querylog.len() as f64 / t.elapsed().as_secs_f64();
        println!("{name:<22} {pct:>7.2}% {seq:>12.0} docs/s seq {qlog:>12.0} docs/s query-log");
    };

    println!(
        "\n{:<22} {:>8} {:>18} {:>22}",
        "system", "size", "sequential", "query log"
    );
    let s = AsciiStore::open(&root.join("ascii")).unwrap();
    report("ascii", &s, s.stored_bytes());
    let s = BlockedStore::open(&root.join("zlib")).unwrap();
    report("zlib 100KB blocks", &s, s.stored_bytes());
    let s = BlockedStore::open(&root.join("lzma")).unwrap();
    report("lzma 100KB blocks", &s, s.stored_bytes());
    let rlz = RlzStore::open(&root.join("rlz")).unwrap();
    report("rlz 1% dict (ZV)", &rlz, rlz.total_stored_bytes());

    // --- concurrent retrieval: one shared store, N reader threads ---
    // Every retrieval method takes `&self`, so the same opened store can be
    // hammered from any number of threads; get_batch does the fan-out.
    println!("\nconcurrent query-log retrieval over the shared rlz store:");
    for workers in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let batch = rlz.get_batch(&querylog, workers).unwrap();
        let rate = batch.len() as f64 / t.elapsed().as_secs_f64();
        println!("  {workers} thread(s): {rate:>12.0} docs/s");
    }

    std::fs::remove_dir_all(&root).ok();
    println!("\nExpected shape (paper §5): rlz compresses best or near-best and");
    println!("serves documents orders of magnitude faster than blocked baselines,");
    println!("and rlz throughput grows with reader threads on one shared store.");
}
