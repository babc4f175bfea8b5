//! Property tests for the RLZ core: every stream coder round-trips
//! arbitrary values, factorization round-trips arbitrary documents against
//! arbitrary dictionaries, all codings agree, and parses are
//! greedy-maximal.

use proptest::prelude::*;
use rlz_core::{
    coding::{decode_document, encode_document, Coder, StreamScratch},
    decode_and_expand_scratch, expand, factorize_to_vec, DecodeScratch, Dictionary, PairCoding,
    RlzCompressor, SampleStrategy,
};

fn encode_stream(coder: Coder, values: &[u32]) -> Vec<u8> {
    let mut enc = Vec::new();
    coder.encode_stream(values, &mut enc);
    enc
}

#[test]
fn every_coder_roundtrips_common_patterns() {
    let patterns: Vec<Vec<u32>> = vec![
        vec![],
        vec![0],
        vec![u32::MAX],
        vec![1, 2, 3, 4, 5],
        (0..1000).collect(),
        vec![0; 500],
        vec![1 << 28, (1 << 28) - 1, 1 << 31, 7],
        (0..257).map(|i| i * 31 % 257).collect(),
    ];
    for coder in Coder::ALL {
        for p in &patterns {
            let enc = encode_stream(coder, p);
            let dec = coder.decode_stream(&enc, p.len());
            assert_eq!(dec.as_ref(), Ok(p), "coder {}", coder.letter());
        }
    }
}

#[test]
fn stream_decoders_error_on_truncated_input() {
    let values: Vec<u32> = (100..200).collect();
    for coder in Coder::ALL {
        let enc = encode_stream(coder, &values);
        // A `Z` stream ends in 4 zero bytes that only pad the decoder's
        // peeks; cutting those loses nothing.
        let content = enc.len() - if coder == Coder::Zlib { 4 } else { 0 };
        // Chop the stream; expecting the full count must fail, not panic.
        for cut in [0usize, 1, content / 2, content.saturating_sub(1)] {
            if cut >= content {
                continue;
            }
            let res = coder.decode_stream(&enc[..cut], values.len());
            assert!(
                res.is_err(),
                "coder {} accepted truncated input",
                coder.letter()
            );
        }
    }
}

#[test]
fn stream_decoders_ignore_trailing_bytes() {
    // A stream coder must return the same values whatever follows the
    // stream.
    let values = vec![7u32, 300, 70000, 5];
    for coder in Coder::ALL {
        let mut enc = encode_stream(coder, &values);
        enc.extend_from_slice(b"trailing garbage");
        let dec = coder.decode_stream(&enc, values.len()).unwrap();
        assert_eq!(dec, values, "coder {}", coder.letter());
    }
}

proptest! {
    #[test]
    fn codecs_roundtrip_small_skewed(values in proptest::collection::vec(0u32..128, 0..400)) {
        // The regime RLZ factor lengths live in (Fig. 3 of the paper).
        for coder in Coder::ALL {
            let enc = encode_stream(coder, &values);
            let dec = coder.decode_stream(&enc, values.len()).unwrap();
            prop_assert_eq!(&dec, &values, "coder {}", coder.letter());
        }
    }

    #[test]
    fn codecs_roundtrip_arbitrary_through_both_decode_paths(
        values in proptest::collection::vec(any::<u32>(), 0..400),
        stale in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        // Every coder round-trips arbitrary values, and the buffer-reusing
        // hot path must fully replace whatever the buffer held and produce
        // exactly what the allocating wrapper produces (including vbyte's
        // word-at-a-time fast path, which `stale`-sized prefixes shift
        // around), with one staging scratch carried across all coders.
        let mut stage = StreamScratch::default();
        for coder in Coder::ALL {
            let enc = encode_stream(coder, &values);
            let fresh = coder.decode_stream(&enc, values.len());
            let mut reused = stale.clone();
            let into = coder.decode_stream_into(&enc, values.len(), &mut reused, &mut stage);
            prop_assert_eq!(fresh.as_ref().ok(), Some(&values), "coder {}", coder.letter());
            prop_assert_eq!(into, Ok(()), "coder {}", coder.letter());
            prop_assert_eq!(&reused, &values, "coder {}", coder.letter());
        }
    }

    #[test]
    fn codecs_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..200), n in 0usize..300) {
        for coder in Coder::ALL {
            let _ = coder.decode_stream(&data, n);
        }
    }

    #[test]
    fn factorize_expand_roundtrip(
        dict_bytes in proptest::collection::vec(0u8..8, 0..300),
        doc in proptest::collection::vec(0u8..8, 0..400),
    ) {
        let dict = Dictionary::from_bytes(dict_bytes);
        let factors = factorize_to_vec(&dict, &doc);
        let mut out = Vec::new();
        expand(dict.bytes(), &factors, &mut out).unwrap();
        prop_assert_eq!(out, doc);
    }

    #[test]
    fn full_byte_alphabet_roundtrip(
        dict_bytes in proptest::collection::vec(any::<u8>(), 0..200),
        doc in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let dict = Dictionary::from_bytes(dict_bytes);
        for coding in PairCoding::PAPER_SET {
            let comp = RlzCompressor::new(dict.clone(), coding);
            let enc = comp.compress(&doc);
            prop_assert_eq!(comp.decompress(&enc).unwrap(), doc.clone());
        }
    }

    #[test]
    fn factors_are_greedy_maximal(
        dict_bytes in proptest::collection::vec(0u8..4, 1..150),
        doc in proptest::collection::vec(0u8..4, 1..200),
    ) {
        // Each copy factor must be the longest dictionary match at its
        // position (definition 1 in §3), verified by brute force.
        let dict = Dictionary::from_bytes(dict_bytes.clone());
        let factors = factorize_to_vec(&dict, &doc);
        let mut at = 0usize;
        for f in &factors {
            let brute = (0..dict_bytes.len())
                .map(|s| {
                    dict_bytes[s..]
                        .iter()
                        .zip(&doc[at..])
                        .take_while(|(a, b)| a == b)
                        .count()
                })
                .max()
                .unwrap_or(0);
            if f.len == 0 {
                prop_assert_eq!(brute, 0, "literal emitted where a match exists");
                at += 1;
            } else {
                prop_assert_eq!(f.len as usize, brute, "factor not maximal at {}", at);
                at += f.len as usize;
            }
        }
        prop_assert_eq!(at, doc.len());
    }

    #[test]
    fn encoded_documents_roundtrip_through_all_codings(
        positions in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        // Synthesize factor streams directly to stress the coding layer
        // with value distributions factorization would rarely produce.
        let factors: Vec<rlz_core::Factor> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if i % 5 == 4 {
                    rlz_core::Factor::literal((p % 256) as u8)
                } else {
                    rlz_core::Factor { pos: p, len: (p % 300) + 1 }
                }
            })
            .collect();
        for name in ["ZZ", "ZV", "UZ", "UV", "SS", "PP", "PS", "SV", "PZ", "FF", "FV", "LL", "LV", "FZ", "LF"] {
            let coding = PairCoding::parse(name).unwrap();
            let enc = encode_document(&factors, coding);
            prop_assert_eq!(decode_document(&enc, coding).unwrap(), factors.clone(), "{}", name);
        }
    }

    #[test]
    fn sampled_dictionaries_always_roundtrip(
        seed_docs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 1..20),
        dict_size in 1usize..500,
        sample_len in 1usize..64,
    ) {
        let collection: Vec<u8> = seed_docs.concat();
        let dict = Dictionary::sample(&collection, dict_size, sample_len, SampleStrategy::Evenly);
        let comp = RlzCompressor::new(dict, PairCoding::ZV);
        for doc in &seed_docs {
            let enc = comp.compress(doc);
            prop_assert_eq!(&comp.decompress(&enc).unwrap(), doc);
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let dict = Dictionary::from_bytes(b"some dictionary".to_vec());
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        for coding in PairCoding::EXTENDED_SET {
            let comp = RlzCompressor::new(dict.clone(), coding);
            let _ = comp.decompress(&data);
            out.clear();
            let _ = decode_and_expand_scratch(&data, coding, dict.bytes(), &mut out, &mut scratch);
        }
    }

    #[test]
    fn fused_decode_matches_two_step_oracle(
        dict_bytes in proptest::collection::vec(any::<u8>(), 1..300),
        doc in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        // The fused zero-allocation pipeline must be byte-identical to the
        // two-step `decode_document` + `expand` oracle, with one reused
        // scratch carried across every coding and document.
        let dict = Dictionary::from_bytes(dict_bytes);
        let mut scratch = DecodeScratch::new();
        let mut fused = Vec::new();
        for coding in PairCoding::EXTENDED_SET {
            let comp = RlzCompressor::new(dict.clone(), coding);
            let enc = comp.compress(&doc);
            let mut oracle = Vec::new();
            expand(dict.bytes(), &decode_document(&enc, coding).unwrap(), &mut oracle).unwrap();
            fused.clear();
            decode_and_expand_scratch(&enc, coding, dict.bytes(), &mut fused, &mut scratch)
                .unwrap();
            prop_assert_eq!(&fused, &oracle, "{}", coding.name());
            prop_assert_eq!(&fused, &doc, "{}", coding.name());
        }
    }
}
