//! CRC32C (Castagnoli) for store integrity checking: SSE4.2 `crc32` where
//! the CPU has it, table-driven slicing-by-8 everywhere else.
//!
//! The store layer stamps a CRC32C over every compressed block and encoded
//! record it writes, and verifies it on every read, so a flipped bit in a
//! long-lived archive surfaces as a typed corruption error instead of
//! garbage bytes or a decoder panic. CRC32C is the right tool here: the
//! Castagnoli polynomial has better error-detection properties than the
//! zlib polynomial at these lengths, and it is the checksum used by similar
//! storage systems (LevelDB/RocksDB block trailers, iSCSI, ext4).
//!
//! # Dispatch
//!
//! [`crc32c_append`] asks the CPU once per call
//! (`is_x86_feature_detected!("sse4.2")`, a cached atomic load). When the
//! feature is present the call goes to a private
//! `#[target_feature(enable = "sse4.2")]` function that folds 8-byte words
//! (loaded with `u64::from_le_bytes`, no pointer casts) through
//! `_mm_crc32_u64` and the tail through `_mm_crc32_u8`. On any other CPU,
//! and on every other architecture, the private `crc32c_table` runs:
//! slicing-by-8 (Kounavis & Berry 2005), eight 256-entry tables derived
//! from the bit-reflected polynomial at first use, folding 8 input bytes
//! per iteration with eight independent lookups. Both compute the same
//! function, so checksums on disk do not depend on which CPU wrote them;
//! the table version is the tests' reference for the hardware one. There is
//! no switch to pick a backend: the CPU decides.
//!
//! # Safety
//!
//! This module holds the crate's one `unsafe` block (the crate is
//! `deny(unsafe_code)`; only `crc32c_hw` is allowed it): the call into the
//! SSE4.2 function. Calling a `#[target_feature]` function is unsafe
//! because executing an instruction the CPU lacks is undefined behaviour.
//! The call sits directly behind the run-time detection of that very
//! feature, and the function itself only reads the slice it is given
//! through safe indexing, so the precondition holds on every path.
//!
//! # Why hardware
//!
//! On a read-mostly store the checksum runs on every get. With mean 2 KiB
//! `UV` records on a 2.1 GHz x86-64 container, slicing-by-8 ran at
//! 1.2–1.3 GB/s, slicing-by-16 at 1.5–1.6 GB/s and a 3-way-interleaved
//! slicing-by-8 with a GF(2) combine at 2.4–2.6 GB/s: every safe route
//! stayed under 4 GB/s, and the CRC cost about as much as the read and the
//! decode of the record together. One SSE4.2 stream runs at 6–8 GB/s
//! there (≈ 0.3 µs per record against 1.5–1.9 µs), which is why it is the
//! one exception. Interleaving hardware streams or PCLMUL folding would
//! have at most those 0.3 µs left to win.

use std::sync::OnceLock;

/// Bit-reflected CRC32C (Castagnoli) polynomial, 0x1EDC6F41 reversed.
const POLY: u32 = 0x82F6_3B78;

/// Eight slicing tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` extends `TABLES[k-1][b]` by one zero byte.
type Tables = [[u32; 256]; 8];

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (b, slot) in t[0].iter_mut().enumerate() {
            let mut crc = b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for b in 0..256 {
                let prev = t[k - 1][b];
                t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC32C of `data` in one shot.
///
/// ```
/// // The canonical check vector for the Castagnoli polynomial.
/// assert_eq!(rlz_codecs::hash::crc32c(b"123456789"), 0xE306_9283);
/// ```
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends a running CRC32C with more data (`crc32c_append(crc32c(a), b) ==
/// crc32c(a ++ b)`), so callers can checksum streamed or scattered input
/// without concatenating it.
#[inline]
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    crc32c_hw(crc, data).unwrap_or_else(|| crc32c_table(crc, data))
}

/// The hardware backend, or `None` when this CPU lacks SSE4.2.
#[cfg(target_arch = "x86_64")]
#[inline]
#[allow(unsafe_code)]
fn crc32c_hw(crc: u32, data: &[u8]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` is compiled for SSE4.2, and the check just
        // above proved this CPU executes SSE4.2 instructions.
        Some(unsafe { crc32c_sse42(crc, data) })
    } else {
        None
    }
}

/// The hardware backend; no architecture but x86-64 has one here.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn crc32c_hw(_crc: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// SSE4.2 CRC32C: one `crc32` per 8-byte word, then one per tail byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(ch.try_into().expect("chunk of 8")));
    }
    // `_mm_crc32_u64` zero-extends its 32-bit result.
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Slicing-by-8 CRC32C: the backend on CPUs without SSE4.2 and the tests'
/// reference for the hardware one.
fn crc32c_table(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        // Fold the CRC into the first word, then look all 8 bytes up in
        // their position-specific tables; XOR order is associative so the
        // eight lookups have no serial dependency between them.
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][ch[4] as usize]
            ^ t[2][ch[5] as usize]
            ^ t[1][ch[6] as usize]
            ^ t[0][ch[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time reference implementation straight off the polynomial.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors for CRC32C, through the dispatched
        // entry point, the table backend and (where the CPU has it) the
        // SSE4.2 backend.
        let ascending: Vec<u8> = (0u8..32).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        let hw = crc32c_hw(0, b"").is_some();
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "dispatched, {data:?}");
            assert_eq!(crc32c_table(0, data), want, "table, {data:?}");
            if hw {
                assert_eq!(crc32c_hw(0, data), Some(want), "sse4.2, {data:?}");
            }
        }
        if !hw {
            eprintln!("known_vectors: no SSE4.2 on this CPU; hardware backend not checked");
        }
    }

    #[test]
    fn slicing_matches_reference_at_all_alignments() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
        for start in 0..9 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 500, 1000] {
                if start + len > data.len() {
                    continue;
                }
                let slice = &data[start..start + len];
                assert_eq!(crc32c(slice), reference(slice), "start={start} len={len}");
                assert_eq!(crc32c_table(0, slice), reference(slice));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dispatched_crc_equals_the_table_at_every_offset(
            bytes in proptest::collection::vec(any::<u8>(), 0..=4103),
            split in any::<prop::sample::Index>(),
            seed in any::<u32>(),
        ) {
            // Up to 4 096 bytes after each of the 8 start offsets, so the
            // word loop meets every alignment and every tail length.
            for start in 0..8.min(bytes.len() + 1) {
                let data = &bytes[start..bytes.len().min(start + 4096)];
                prop_assert_eq!(crc32c(data), crc32c_table(0, data), "start {}", start);
                prop_assert_eq!(
                    crc32c_append(seed, data),
                    crc32c_table(seed, data),
                    "start {} seed {}", start, seed
                );
                let (a, b) = data.split_at(split.index(data.len() + 1));
                prop_assert_eq!(crc32c_append(crc32c(a), b), crc32c(data), "split {}", a.len());
            }
        }
    }

    #[test]
    fn append_is_concatenation() {
        let a = b"hello, ";
        let b = b"world";
        let whole = [&a[..], &b[..]].concat();
        assert_eq!(crc32c_append(crc32c(a), b), crc32c(&whole));
        for split in 0..whole.len() {
            let (x, y) = whole.split_at(split);
            assert_eq!(crc32c_append(crc32c(x), y), crc32c(&whole));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
        let good = crc32c(&data);
        let mut tampered = data.clone();
        for bit in [0usize, 1, 777, 2047] {
            tampered[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&tampered), good, "bit {bit} flip went undetected");
            tampered[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&tampered), good);
    }
}
