//! Minimal network client for the `rlz-serve` wire protocol: build a tiny
//! RLZ store, serve it on a loopback socket, and drive every opcode —
//! STAT, GET, MGET, and a clean SHUTDOWN — through `rlz_serve::Client`.
//!
//! Run with: `cargo run --release --example serve_client`
//!
//! Against a store served by the standalone binary instead
//! (`cargo run --release -p rlz-serve -- --store DIR`), skip the in-process
//! setup and call `Client::connect("127.0.0.1:7641".parse().unwrap())`.

use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::serve::{serve, Client, ServeConfig};
use rlz_repro::store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};
use std::net::TcpListener;
use std::sync::Arc;

fn main() {
    // A small collection sharing a site template, compressed into an RLZ
    // store on disk (the quickstart example walks through this part).
    let pages: Vec<Vec<u8>> = (0..200)
        .map(|i| {
            format!(
                "<html><head><title>Article {i}</title></head><body>\
                 <nav><a href=/home>home</a></nav><p>Article number {i} of the \
                 archive, served over the rlz-serve wire protocol.</p></body></html>"
            )
            .into_bytes()
        })
        .collect();
    let collection: Vec<u8> = pages.concat();
    let dict = Dictionary::sample(
        &collection,
        collection.len() / 50,
        1024,
        SampleStrategy::Evenly,
    );
    let dir = std::env::temp_dir().join(format!("rlz-serve-example-{}", std::process::id()));
    build_rlz_chunked(
        &dir,
        &RlzCompressor::new(dict, PairCoding::ZV),
        pages.iter(),
        &BuildConfig::default(),
    )
    .expect("store builds");

    // Serve it: any DocStore family works; port 0 picks a free port.
    let store: Arc<dyn DocStore> = Arc::new(RlzStore::open(&dir).expect("store opens"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = serve(store, listener, ServeConfig::default()).expect("server starts");
    println!("serving on {}", handle.addr());

    // STAT: cheap store metadata.
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let stats = client.stat().expect("STAT");
    println!(
        "STAT: {} docs, {} payload bytes, max record {} bytes",
        stats.num_docs, stats.payload_bytes, stats.max_record_len
    );

    // GET: one document, byte-identical to the original.
    let doc = client.get(123).expect("GET");
    assert_eq!(doc, pages[123]);
    println!("GET 123: {} bytes, verified", doc.len());

    // MGET: a batch in one frame, served through the seek-aware batch
    // path, results in request order.
    let ids: Vec<u32> = (0..200).step_by(13).collect();
    let docs = client.mget(&ids).expect("MGET");
    for (doc, &id) in docs.iter().zip(&ids) {
        assert_eq!(doc, &pages[id as usize]);
    }
    println!("MGET: {} docs in one frame, all verified", docs.len());

    // Errors come back as typed frames, not broken connections.
    let err = client.get(9_999).expect_err("out of range");
    println!("GET 9999: {err}");

    // SHUTDOWN: the server acknowledges, then every worker exits.
    client.shutdown_server().expect("SHUTDOWN acknowledged");
    handle.join();
    println!("server shut down cleanly");
    std::fs::remove_dir_all(&dir).ok();
}
