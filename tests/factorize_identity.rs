//! Whole-parse identity and a fidelity pin for the factorizer.
//!
//! `factorize` finds each factor with one whole-pattern suffix-array search;
//! `factorize_plain` is the paper's per-character `Refine` loop. They must
//! emit the same factors — same positions, same lengths — on every document,
//! or stored bytes move. The golden totals are what catch a change
//! that moves both at once.

use rlz_repro::corpus::genome::{self, GenomeConfig};
use rlz_repro::corpus::{generate_web, Collection, WebConfig};
use rlz_repro::rlz::coding::encode_document;
use rlz_repro::rlz::{factorize, factorize_plain, Dictionary, PairCoding, SampleStrategy};

const WEB_BYTES: usize = 2 << 20;
/// The benchmark's proportions: a dictionary 1/128 of the collection.
const WEB_DICT_BYTES: usize = WEB_BYTES / 128;
const SAMPLE_LEN: usize = 1024;

fn web_dictionary(collection: &Collection) -> Dictionary {
    Dictionary::sample(
        &collection.data,
        WEB_DICT_BYTES,
        SAMPLE_LEN,
        SampleStrategy::Evenly,
    )
}

/// Factorizes every document both ways, asserts the parses are equal, and
/// returns the total ZZ-encoded size.
fn assert_same_parse(dict: &Dictionary, collection: &Collection, what: &str) -> usize {
    let (mut fast, mut plain) = (Vec::new(), Vec::new());
    let mut encoded = 0;
    for (id, doc) in collection.iter_docs().enumerate() {
        fast.clear();
        plain.clear();
        factorize(dict, doc, &mut fast);
        factorize_plain(dict, doc, &mut plain);
        assert_eq!(fast, plain, "{what}: document {id} parsed differently");
        encoded += encode_document(&fast, PairCoding::ZZ).len();
    }
    encoded
}

#[test]
fn web_parse_equals_the_refine_loops_and_its_zz_size_is_pinned() {
    // The totals move only if the corpus generator, the dictionary
    // sampler, the parse or the ZZ coder changes; a matcher change must
    // not move them.
    for (seed, golden) in [(1, 455_212), (7, 481_082), (13, 492_569)] {
        let collection = generate_web(&WebConfig::gov2(WEB_BYTES, seed));
        let dict = web_dictionary(&collection);
        let encoded = assert_same_parse(&dict, &collection, &format!("gov2 seed {seed}"));
        assert_eq!(encoded, golden, "ZZ bytes at seed {seed}");
    }
}

#[test]
fn genome_parse_equals_the_refine_loops() {
    // Long matches against one reference: factors of hundreds of bases,
    // where the refine loop and the whole-pattern search differ most in
    // how they get to the answer.
    let cfg = GenomeConfig {
        individuals: 6,
        ..GenomeConfig::default()
    };
    let dict = Dictionary::from_bytes(genome::reference(&cfg));
    assert_same_parse(&dict, &genome::generate(&cfg), "genome");
}
