//! Quickstart: compress a document collection with RLZ and read documents
//! back at random — the paper's §3.1 pipeline in eighty lines, ending with
//! an on-disk store shared by concurrent readers.
//!
//! Run with: `cargo run --release --example quickstart`

use rlz_repro::rlz::{Dictionary, FactorStats, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};

fn main() {
    // A toy collection: 500 "web pages" sharing a site template. In a real
    // deployment this would stream from disk; the algorithm only ever needs
    // the sampled dictionary in memory.
    let pages: Vec<Vec<u8>> = (0..500)
        .map(|i| {
            format!(
                "<html><head><title>Product {i}</title></head><body>\
                 <nav><a href=/home>home</a><a href=/cart>cart</a></nav>\
                 <h1>Product {i}</h1><p>Our catalogue entry number {i} ships \
                 with free delivery and a two-year warranty.</p>\
                 <footer>ACME Corp, 1 Example Road</footer></body></html>"
            )
            .into_bytes()
        })
        .collect();
    let collection: Vec<u8> = pages.concat();
    println!(
        "collection: {} docs, {} bytes",
        pages.len(),
        collection.len()
    );

    // Step 1 (§3.3): sample an evenly spaced dictionary — here 2% of the
    // collection from 1 KB samples. The paper uses as little as 0.1%.
    let dict = Dictionary::sample(
        &collection,
        collection.len() / 50,
        1024,
        SampleStrategy::Evenly,
    );
    println!(
        "dictionary: {} bytes ({:.2}% of collection)",
        dict.len(),
        dict.len() as f64 * 100.0 / collection.len() as f64
    );

    // Step 2 (§3.2/§3.4): factorize and encode every document. ZV = zlib
    // positions + vbyte lengths, a good space/speed middle ground.
    let rlz = RlzCompressor::new(dict, PairCoding::ZV);
    let mut stats = FactorStats::new(rlz.dict().len());
    let encoded: Vec<Vec<u8>> = pages
        .iter()
        .map(|p| {
            let factors = rlz.factorize(p);
            stats.record(&factors);
            rlz.encode_factors(&factors)
        })
        .collect();
    let total_encoded: usize = encoded.iter().map(Vec::len).sum();
    println!(
        "encoded: {} bytes = {:.2}% of original (avg factor length {:.1})",
        total_encoded,
        (total_encoded + rlz.dict().len()) as f64 * 100.0 / collection.len() as f64,
        stats.avg_factor_len()
    );

    // Step 3 (§3.1): random access — decode one document, no neighbours.
    let doc_id = 321;
    let roundtrip = rlz.decompress(&encoded[doc_id]).expect("decodes cleanly");
    assert_eq!(roundtrip, pages[doc_id]);
    println!(
        "random access to doc {}: {} bytes decoded, content verified",
        doc_id,
        roundtrip.len()
    );

    // Step 4: the same pipeline as a persistent store, coded PV (PForDelta
    // positions + vbyte lengths), an archival coding on the measured
    // size/decode-speed frontier. Retrieval takes `&self`, so one opened
    // store serves any number of reader threads; get_batch fans a request
    // list out over workers.
    let dir = std::env::temp_dir().join(format!("rlz-quickstart-{}", std::process::id()));
    let dict = Dictionary::sample(
        &collection,
        collection.len() / 50,
        1024,
        SampleStrategy::Evenly,
    );
    build_rlz_chunked(
        &dir,
        &RlzCompressor::new(dict, PairCoding::PV),
        pages.iter(),
        &BuildConfig::default(),
    )
    .expect("store builds");
    let store = RlzStore::open(&dir).expect("store opens");
    let wanted: Vec<u32> = (0..500).step_by(7).collect();
    let batch = store.get_batch(&wanted, 4).expect("batch retrieval");
    for (bytes, &id) in batch.iter().zip(&wanted) {
        assert_eq!(bytes, &pages[id as usize]);
    }
    println!(
        "store: {} docs on disk, {} fetched in one 4-thread batch, all verified",
        store.num_docs(),
        batch.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
