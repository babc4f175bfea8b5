//! RLZ for genomics: compress resequenced individuals against a reference
//! genome dictionary — the workload RLZ was born from (Kuruppu, Puglisi &
//! Zobel, SPIRE 2010, reference [20] of the paper).
//!
//! Run with: `cargo run --release --example genome_store`

use rlz_repro::corpus::genome::{self, GenomeConfig};
use rlz_repro::rlz::{Dictionary, FactorStats, PairCoding, RlzCompressor};
use rlz_repro::store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};

fn main() {
    let cfg = GenomeConfig {
        individuals: 64,
        reference_len: 500_000,
        snp_rate: 0.001, // ~1 SNP per kilobase, human-ish
        indel_rate: 0.0001,
        seed: 1000,
    };
    println!(
        "simulating {} individuals of {} bases (SNP rate {}, indel rate {})",
        cfg.individuals, cfg.reference_len, cfg.snp_rate, cfg.indel_rate
    );
    let reference = genome::reference(&cfg);
    let collection = genome::generate(&cfg);

    // The dictionary is simply the reference sequence: every individual is
    // a light edit of it, so factorization produces a few long factors per
    // chromosome plus literals at variant sites.
    let rlz = RlzCompressor::new(Dictionary::from_bytes(reference), PairCoding::ZV);

    let mut stats = FactorStats::new(rlz.dict().len());
    let mut total_raw = 0usize;
    let mut total_enc = 0usize;
    for (i, seq) in collection.iter_docs().enumerate() {
        let factors = rlz.factorize(seq);
        stats.record(&factors);
        let enc = rlz.encode_factors(&factors);
        assert_eq!(rlz.decompress(&enc).unwrap(), seq, "individual {i}");
        total_raw += seq.len();
        total_enc += enc.len();
    }

    println!("raw collection:   {:>12} bytes", total_raw);
    println!("rlz encoded:      {:>12} bytes", total_enc);
    println!(
        "dictionary:       {:>12} bytes (the reference)",
        rlz.dict().len()
    );
    println!(
        "compression:      {:>11.3}% of raw ({:.0}x)",
        (total_enc + rlz.dict().len()) as f64 * 100.0 / total_raw as f64,
        total_raw as f64 / (total_enc + rlz.dict().len()) as f64
    );
    println!(
        "factors/individual: {:>9.0}  (avg length {:.0} bases)",
        stats.total_factors() as f64 / cfg.individuals as f64,
        stats.avg_factor_len()
    );
    println!(
        "dictionary usage:  {:>10.1}% of reference bases referenced",
        100.0 - stats.unused_dict_percent()
    );

    // Persist the cohort as an RLZ store and read every individual back
    // with a multi-threaded batch over one shared reader — the serving
    // setup for a population-scale archive.
    let dir = std::env::temp_dir().join(format!("rlz-genome-{}", std::process::id()));
    let individuals: Vec<&[u8]> = collection.iter_docs().collect();
    build_rlz_chunked(
        &dir,
        &RlzCompressor::new(
            Dictionary::from_bytes(genome::reference(&cfg)),
            PairCoding::ZV,
        ),
        individuals.iter(),
        &BuildConfig::default(),
    )
    .expect("store builds");
    let store = RlzStore::open(&dir).expect("store opens");
    let ids: Vec<u32> = (0..store.num_docs() as u32).collect();
    let batch = store.get_batch(&ids, 4).expect("batch retrieval");
    assert!(batch
        .iter()
        .zip(&individuals)
        .all(|(got, want)| got == want));
    println!(
        "store round-trip: {} individuals re-read on 4 threads, byte-identical",
        batch.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
