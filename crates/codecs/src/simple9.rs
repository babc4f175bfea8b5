//! Simple-9 word-aligned coding (Anh & Moffat, 2005).
//!
//! Each 32-bit word spends 4 bits on a selector and 28 on payload; the nine
//! selectors pack 28×1-bit, 14×2-bit, 9×3-bit, 7×4-bit, 5×5-bit, 4×7-bit,
//! 3×9-bit, 2×14-bit or 1×28-bit values. The paper's future-work section
//! suggests Simple-9 as an alternative to vbyte for factor lengths; we add
//! an escape selector (9) that stores one full 32-bit value in the following
//! word so arbitrary `u32` input round-trips.

use crate::{CodecError, Result};

/// (values per word, bits per value) for selectors 0..=8.
const CONFIGS: [(usize, u32); 9] = [
    (28, 1),
    (14, 2),
    (9, 3),
    (7, 4),
    (5, 5),
    (4, 7),
    (3, 9),
    (2, 14),
    (1, 28),
];

/// Selector marking "next word is one raw 32-bit value".
const ESCAPE: u32 = 9;

/// The Simple-9 codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simple9;

impl Simple9 {
    /// Appends the encoding of `values` to `out`.
    pub fn encode(&self, values: &[u32], out: &mut Vec<u8>) {
        let mut i = 0usize;
        while i < values.len() {
            if values[i] >= 1 << 28 {
                out.extend_from_slice(&(ESCAPE << 28).to_le_bytes());
                out.extend_from_slice(&values[i].to_le_bytes());
                i += 1;
                continue;
            }
            // Greedy: densest selector whose group fits. Positions past the
            // end of input are treated as zero padding.
            let mut chosen = CONFIGS.len() - 1;
            'sel: for (sel, &(count, bits)) in CONFIGS.iter().enumerate() {
                let limit = if bits == 32 {
                    u32::MAX
                } else {
                    (1u32 << bits) - 1
                };
                for j in 0..count {
                    if let Some(&v) = values.get(i + j) {
                        if v > limit {
                            continue 'sel;
                        }
                    }
                }
                chosen = sel;
                break;
            }
            let (count, bits) = CONFIGS[chosen];
            let mut word = (chosen as u32) << 28;
            for j in 0..count {
                let v = values.get(i + j).copied().unwrap_or(0);
                word |= v << (j as u32 * bits);
            }
            out.extend_from_slice(&word.to_le_bytes());
            i += count.min(values.len() - i);
        }
    }

    /// Decodes exactly `n` values from the front of `data`, appending them
    /// to `out`.
    pub fn decode(&self, data: &[u8], n: usize, out: &mut Vec<u32>) -> Result<()> {
        let mut pos = 0usize;
        let mut produced = 0usize;
        // One 4-byte word yields at most 28 values: capping the reservation
        // keeps a corrupt count from driving a huge allocation up front.
        out.reserve(n.min(data.len().saturating_mul(7)));
        while produced < n {
            let Some(word_bytes) = data.get(pos..pos + 4) else {
                return Err(CodecError::UnexpectedEof);
            };
            let word = u32::from_le_bytes(word_bytes.try_into().expect("4 bytes"));
            pos += 4;
            let sel = word >> 28;
            if sel == ESCAPE {
                let Some(raw) = data.get(pos..pos + 4) else {
                    return Err(CodecError::UnexpectedEof);
                };
                out.push(u32::from_le_bytes(raw.try_into().expect("4 bytes")));
                pos += 4;
                produced += 1;
                continue;
            }
            let Some(&(count, bits)) = CONFIGS.get(sel as usize) else {
                return Err(CodecError::Corrupt("invalid simple9 selector"));
            };
            let mask = (1u32 << bits) - 1;
            let take = count.min(n - produced);
            for j in 0..take {
                out.push((word >> (j as u32 * bits)) & mask);
            }
            produced += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(values: &[u32]) -> Vec<u8> {
        let mut enc = Vec::new();
        Simple9.encode(values, &mut enc);
        enc
    }

    fn decode(data: &[u8], n: usize) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        Simple9.decode(data, n, &mut out)?;
        Ok(out)
    }

    #[test]
    fn packs_28_single_bits_in_one_word() {
        let values = vec![1u32; 28];
        let enc = encode(&values);
        assert_eq!(enc.len(), 4);
        assert_eq!(decode(&enc, 28).unwrap(), values);
    }

    #[test]
    fn escape_handles_large_values() {
        let values = vec![u32::MAX, 1 << 28, (1 << 28) - 1];
        let mut enc = encode(&values);
        enc.extend_from_slice(b"trailing");
        assert_eq!(decode(&enc, values.len()).unwrap(), values);
    }

    #[test]
    fn partial_final_group() {
        // 3 one-bit values: packed with the 28×1 selector, padded.
        let values = vec![1u32, 0, 1];
        let enc = encode(&values);
        assert_eq!(enc.len(), 4);
        assert_eq!(decode(&enc, 3).unwrap(), values);
    }

    #[test]
    fn mixed_magnitudes() {
        let values: Vec<u32> = (0..500).map(|i| (i * i * 31) % 100_000).collect();
        let enc = encode(&values);
        assert_eq!(decode(&enc, values.len()).unwrap(), values);
        // Should be denser than raw u32 for this distribution.
        assert!(enc.len() < values.len() * 4);
    }

    #[test]
    fn invalid_selector_rejected() {
        // Selectors 10..15 are undefined.
        let word = (10u32 << 28).to_le_bytes();
        assert_eq!(
            decode(&word, 1),
            Err(CodecError::Corrupt("invalid simple9 selector"))
        );
    }
}
