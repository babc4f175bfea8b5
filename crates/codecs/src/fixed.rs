//! Fixed-width little-endian `u32` coding — the paper's `U` position coder.
//!
//! The paper's first factor-coding scheme assumed positions are spread
//! uniformly over the dictionary and stored each as a raw unsigned 32-bit
//! integer. It is the fastest coder to decode and the baseline the others
//! are compared against.

use crate::{CodecError, Result};

/// Raw little-endian `u32` codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedU32;

impl FixedU32 {
    /// Appends the encoding of `values` to `out`.
    pub fn encode(&self, values: &[u32], out: &mut Vec<u8>) {
        out.reserve(values.len() * 4);
        for &v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes exactly `n` values from the front of `data`, appending them
    /// to `out`.
    pub fn decode(&self, data: &[u8], n: usize, out: &mut Vec<u32>) -> Result<()> {
        let need = n
            .checked_mul(4)
            .ok_or(CodecError::Corrupt("count overflow"))?;
        let Some(bytes) = data.get(..need) else {
            return Err(CodecError::UnexpectedEof);
        };
        // Bulk extend from an exact-size iterator: one capacity check for
        // the whole stream instead of one per value.
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("chunk of 4"))),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let values = vec![0u32, 1, u32::MAX, 0xDEAD_BEEF];
        let mut enc = Vec::new();
        FixedU32.encode(&values, &mut enc);
        assert_eq!(enc.len(), 16);
        enc.extend_from_slice(b"trailing");
        let mut out = Vec::new();
        assert_eq!(FixedU32.decode(&enc, 4, &mut out), Ok(()));
        assert_eq!(out, values);
    }

    #[test]
    fn truncation_detected() {
        let mut enc = Vec::new();
        FixedU32.encode(&[1, 2, 3], &mut enc);
        assert!(FixedU32.decode(&enc[..11], 3, &mut Vec::new()).is_err());
    }

    #[test]
    fn exactly_four_bytes_each() {
        let mut enc = Vec::new();
        FixedU32.encode(&[9; 250], &mut enc);
        assert_eq!(enc.len(), 1000);
    }
}
