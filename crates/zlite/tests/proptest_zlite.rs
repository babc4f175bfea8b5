//! Property tests: zlite round-trips arbitrary byte strings at every level,
//! never panics on corrupted streams, and a reused decode scratch behaves
//! exactly like a fresh one.

use proptest::prelude::*;
use rlz_codecs::bitio::BitWriter;
use rlz_codecs::vbyte;
use rlz_zlite::{compress, decompress, decompress_into, InflateScratch, Level};

/// One dynamic block, written field by field in zlite's container (vbyte
/// output length; 2-bit block type; per table a 9-bit count and a 5-bit
/// length per symbol), whose literal/length code gives up to seven of the
/// payload's byte values and end-of-block three bits each — Kraft-
/// incomplete unless there are seven — and whose body is the payload's raw
/// bits, so decoding often reaches a pattern no code owns.
fn incomplete_code_stream(payload: &[u8]) -> Vec<u8> {
    let mut lens = [0u8; 257];
    for &b in payload.iter().take(1 + payload.len() % 7) {
        lens[b as usize] = 3;
    }
    lens[256] = 3;
    let mut out = Vec::new();
    vbyte::write_u64(payload.len() as u64, &mut out);
    let mut w = BitWriter::new();
    w.write_bits(2, 2);
    w.write_bits(lens.len() as u64, 9);
    for &len in &lens {
        w.write_bits(len as u64, 5);
    }
    w.write_bits(1, 9);
    w.write_bits(1, 5);
    for &b in payload {
        w.write_bits(b as u64, 8);
    }
    w.finish_into(&mut out);
    out
}

proptest! {
    #[test]
    fn roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        for level in [Level::Fast, Level::Default, Level::Best] {
            let c = compress(&data, level);
            let d = decompress(&c);
            prop_assert_eq!(d.as_deref(), Ok(&data[..]), "{:?}", level);
        }
    }

    #[test]
    fn roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..6000)) {
        // Tiny alphabets produce long matches and deep Huffman skew.
        let c = compress(&data, Level::Best);
        let d = decompress(&c);
        prop_assert_eq!(d.as_deref(), Ok(&data[..]));
    }

    #[test]
    fn roundtrip_repeated_chunks(
        chunk in proptest::collection::vec(any::<u8>(), 1..100),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = chunk.iter().cycle().take(chunk.len() * reps).copied().collect();
        let c = compress(&data, Level::Default);
        let d = decompress(&c);
        prop_assert_eq!(d.as_deref(), Ok(&data[..]));
        // Strong repetition must compress once it is long enough.
        if data.len() > 2000 {
            prop_assert!(c.len() < data.len());
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let _ = decompress(&data);
    }

    #[test]
    fn decompress_never_panics_on_bitflips(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut c = compress(&data, Level::Default);
        let idx = flip_byte.index(c.len());
        c[idx] ^= 1 << flip_bit;
        let _ = decompress(&c);
    }

    #[test]
    fn reused_scratch_decodes_like_a_fresh_one(
        streams in proptest::collection::vec(
            (0u8..4, 1u8..=255, proptest::collection::vec(any::<u8>(), 0..700), any::<prop::sample::Index>()),
            1..12,
        ),
    ) {
        // One scratch and one output buffer carried through valid, garbage,
        // bit-flipped and Kraft-incomplete streams in any order: every
        // result (bytes or error) must be what a fresh scratch gives, so no
        // table entry or code length from an earlier stream can leak into a
        // later one.
        let mut scratch = InflateScratch::default();
        let mut out = Vec::new();
        for (kind, alphabet, bytes, flip) in &streams {
            // Small alphabets give dynamic blocks with short codes, as
            // short as the incomplete ones, large ones longer codes or
            // stored blocks.
            let data: Vec<u8> = bytes.iter().map(|b| b % alphabet).collect();
            let stream = match kind {
                0 => compress(&data, Level::Best),
                1 => data,
                2 => {
                    let mut c = compress(&data, Level::Best);
                    let bit = flip.index(c.len() * 8);
                    c[bit / 8] ^= 1 << (bit % 8);
                    c
                }
                _ => incomplete_code_stream(&data),
            };
            let reused = decompress_into(&stream, &mut out, &mut scratch).map(|()| out.clone());
            prop_assert_eq!(reused, decompress(&stream), "stream kind {}", kind);
        }
    }
}
