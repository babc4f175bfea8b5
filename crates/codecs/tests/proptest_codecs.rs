//! Property tests: the bit reader/writer are exact inverses, and vbyte's
//! word-at-a-time decoder agrees with its scalar reader. The sweep over
//! every stream coder lives with the coder dispatch, in `rlz-core`.

use proptest::prelude::*;
use rlz_codecs::bitio::{BitReader, BitWriter, TOP_UP_BITS};
use rlz_codecs::vbyte::{self, VByte};
use rlz_codecs::CodecError;

/// Both edges of every vbyte width: the largest 1-, 2-, 3- and 4-byte
/// values, the smallest 2-, 3-, 4- and 5-byte ones, and `u32::MAX`.
const VBYTE_EDGES: [u32; 10] = [
    0,
    (1 << 7) - 1,
    1 << 7,
    (1 << 14) - 1,
    1 << 14,
    (1 << 21) - 1,
    1 << 21,
    (1 << 28) - 1,
    1 << 28,
    u32::MAX,
];

/// A vbyte-stream value: ~90 % below 128, the rest spread over all five
/// code widths, about a third of those exactly on a width edge.
fn mixed_width_value((class, pick, raw): (u32, usize, u32)) -> u32 {
    match class {
        0..=89 => raw & 0x7F,
        90..=92 => VBYTE_EDGES[pick],
        _ => raw >> [25, 18, 11, 4, 0][pick % 5],
    }
}

/// `n` values read one at a time with `read_u32`: the decoder the word
/// fast path must agree with.
fn vbyte_scalar(data: &[u8], n: usize) -> Result<(Vec<u32>, usize), CodecError> {
    let mut pos = 0;
    let values = (0..n)
        .map(|_| vbyte::read_u32(data, &mut pos))
        .collect::<Result<_, _>>()?;
    Ok((values, pos))
}

/// `n` values through `decode`, appended after a stale prefix it must
/// leave alone.
fn vbyte_fast(data: &[u8], n: usize) -> Result<(Vec<u32>, usize), CodecError> {
    let mut out = vec![u32::MAX; 5];
    let used = VByte.decode(data, n, &mut out)?;
    assert_eq!(out.drain(..5).collect::<Vec<_>>(), [u32::MAX; 5]);
    Ok((out, used))
}

proptest! {
    #[test]
    fn bitio_roundtrips_random_fields(fields in proptest::collection::vec((any::<u64>(), 1u32..=56), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            let mask = u64::MAX >> (64 - n);
            prop_assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
    }

    #[test]
    fn bitreader_matches_a_bit_model_across_the_refill_switch(
        fields in proptest::collection::vec((any::<u64>(), 1u32..=56), 0..16),
        ops in proptest::collection::vec((0u8..4, 0u32..=56), 1..80),
    ) {
        // Inputs of 0..112 bytes and scripts that usually read past their
        // end: every script crosses from 64-bit word refills to the byte
        // refills of the last 7 input bytes, at every alignment. A bit-
        // at-a-time model over the same bytes fixes each value, the bits
        // consumed, and exactly when the input runs out.
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let total = bytes.len() as u64 * 8;
        let bit = |i: u64| {
            if i < total {
                (bytes[(i / 8) as usize] >> (i % 8)) as u64 & 1
            } else {
                0
            }
        };
        let model = |pos: u64, n: u32| (0..n as u64).fold(0u64, |acc, k| acc | bit(pos + k) << k);
        let eof = Some(CodecError::UnexpectedEof);
        let mut r = BitReader::new(&bytes);
        let mut pos = 0u64;
        for &(op, n) in &ops {
            match op {
                0 => {
                    // A failed read consumes nothing.
                    let got = r.read_bits(n);
                    if pos + n as u64 > total {
                        prop_assert_eq!(got.err(), eof);
                    } else {
                        prop_assert_eq!(got, Ok(model(pos, n)));
                        pos += n as u64;
                    }
                }
                1 => {
                    prop_assert_eq!(r.peek_bits_padded(n), model(pos, n));
                    let m = n / 2;
                    let got = r.consume_bits(m);
                    if pos + m as u64 > total {
                        prop_assert_eq!(got.err(), eof);
                    } else {
                        prop_assert_eq!(got, Ok(()));
                        pos += m as u64;
                    }
                }
                2 => {
                    r.align_byte();
                    pos = pos.div_ceil(8) * 8;
                }
                _ => {
                    let buffered = r.top_up() as u64;
                    prop_assert!(buffered <= 63 && buffered <= total - pos);
                    prop_assert!(buffered >= (total - pos).min(TOP_UP_BITS as u64));
                    let k = n.min(buffered as u32);
                    prop_assert_eq!(r.take(k), model(pos, k));
                    pos += k as u64;
                }
            }
            prop_assert_eq!(r.bits_consumed(), pos);
            prop_assert_eq!(r.bytes_consumed() as u64, pos.div_ceil(8));
        }
    }

    #[test]
    fn vbyte_word_path_matches_scalar_reads_on_mixed_widths(
        picks in proptest::collection::vec((0u32..100, 0usize..10, any::<u32>()), 0..300),
        count in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        flipped in any::<u8>(),
    ) {
        // Mostly 1-byte codes with multi-byte ones at every offset inside
        // the fast path's 8-byte word, so words break after clean prefixes
        // of every length 0..7.
        let values: Vec<u32> = picks.into_iter().map(mixed_width_value).collect();
        let mut enc = Vec::new();
        VByte.encode(&values, &mut enc);
        prop_assert_eq!(vbyte_fast(&enc, values.len()), Ok((values.clone(), enc.len())));
        // Bytes after the stream are neither read nor counted.
        let mut padded = enc.clone();
        padded.extend_from_slice(b"trailing");
        prop_assert_eq!(vbyte_fast(&padded, values.len()), Ok((values.clone(), enc.len())));
        // Any shorter count stops at the same byte as the scalar reader.
        let n = count.index(values.len() + 1);
        prop_assert_eq!(vbyte_fast(&enc, n), vbyte_scalar(&enc, n), "count {}", n);
        // Every truncation fails, and fails the same way.
        for cut in 0..enc.len() {
            let got = vbyte_fast(&enc[..cut], values.len());
            prop_assert!(got.is_err(), "cut {} decoded", cut);
            prop_assert_eq!(got, vbyte_scalar(&enc[..cut], values.len()), "cut {}", cut);
        }
        // One overwritten byte: the same values, consumed length or error
        // (overlong runs and 5th-byte overflow included).
        if !enc.is_empty() {
            let mut bad = enc.clone();
            bad[flip.index(enc.len())] = flipped;
            prop_assert_eq!(
                vbyte_fast(&bad, values.len()),
                vbyte_scalar(&bad, values.len()),
                "byte {} set to {:#x}", flip.index(enc.len()), flipped
            );
        }
    }
}
