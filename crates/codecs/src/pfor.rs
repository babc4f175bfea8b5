//! PForDelta — patched frame-of-reference coding (Zukowski et al., ICDE'06).
//!
//! Values are grouped in blocks of 128. Each block picks a bit width
//! `b`, packs the low `b` bits of every value, and records values that do
//! not fit as *exceptions*: their in-block index plus the overflowing high
//! part, patched back in after unpacking. The width is chosen per block by
//! exact cost minimization over all 33 candidate widths.
//!
//! Named by the paper's future-work section as a candidate upgrade over
//! vbyte for RLZ factor streams.

use crate::bitio::{BitReader, BitWriter};
use crate::{vbyte, CodecError, Result};

/// Values per block. Exception indices are stored as single bytes, so it
/// must stay at most 255.
const BLOCK: usize = 128;

/// The PForDelta codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct PForDelta;

impl PForDelta {
    /// Appends the encoding of `values` to `out`.
    pub fn encode(&self, values: &[u32], out: &mut Vec<u8>) {
        for chunk in values.chunks(BLOCK) {
            encode_block(chunk, out);
        }
    }

    /// Decodes exactly `n` values from the front of `data`, appending them
    /// to `out`.
    pub fn decode(&self, data: &[u8], n: usize, out: &mut Vec<u32>) -> Result<()> {
        let mut pos = 0usize;
        let mut remaining = n;
        while remaining > 0 {
            let count = remaining.min(BLOCK);
            pos += decode_block(&data[pos.min(data.len())..], count, out)?;
            remaining -= count;
        }
        Ok(())
    }
}

fn encode_block(values: &[u32], out: &mut Vec<u8>) {
    // Exact cost for each candidate width: packed bits + exception bytes.
    let mut best_b = 32u32;
    let mut best_cost = usize::MAX;
    for b in 0..=32u32 {
        let packed = (values.len() * b as usize).div_ceil(8);
        let mut exc = 0usize;
        for &v in values {
            if b < 32 && (v >> b) != 0 {
                exc += 1 + vbyte::encoded_len(v >> b);
            }
        }
        let cost = packed + exc;
        if cost < best_cost {
            best_cost = cost;
            best_b = b;
        }
    }
    let b = best_b;
    let exceptions: Vec<(usize, u32)> = values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| b < 32 && (v >> b) != 0)
        .map(|(i, &v)| (i, v >> b))
        .collect();
    out.push(b as u8);
    debug_assert!(exceptions.len() <= BLOCK);
    out.push(exceptions.len() as u8);
    let mut w = BitWriter::new();
    if b > 0 {
        let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
        for &v in values {
            w.write_bits((v & mask) as u64, b);
        }
    }
    w.finish_into(out);
    for (idx, high) in exceptions {
        out.push(idx as u8);
        vbyte::write_u32(high, out);
    }
}

fn decode_block(data: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    let mut pos = 0usize;
    let Some(&b) = data.first() else {
        return Err(CodecError::UnexpectedEof);
    };
    let b = b as u32;
    if b > 32 {
        return Err(CodecError::Corrupt("pfor width above 32"));
    }
    let Some(&n_exc) = data.get(1) else {
        return Err(CodecError::UnexpectedEof);
    };
    pos += 2;
    let packed_bytes = (count * b as usize).div_ceil(8);
    let Some(packed) = data.get(pos..pos + packed_bytes) else {
        return Err(CodecError::UnexpectedEof);
    };
    let start = out.len();
    if b == 0 {
        out.resize(start + count, 0);
    } else {
        let mut r = BitReader::new(packed);
        for _ in 0..count {
            out.push(r.read_bits(b)? as u32);
        }
    }
    pos += packed_bytes;
    for _ in 0..n_exc {
        let Some(&idx) = data.get(pos) else {
            return Err(CodecError::UnexpectedEof);
        };
        pos += 1;
        let high = vbyte::read_u32(data, &mut pos)?;
        let slot = out
            .get_mut(start + idx as usize)
            .ok_or(CodecError::Corrupt("pfor exception index out of range"))?;
        let patched = (high as u64) << b | *slot as u64;
        *slot = u32::try_from(patched).map_err(|_| CodecError::Corrupt("pfor patch overflow"))?;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(values: &[u32]) -> Vec<u8> {
        let mut enc = Vec::new();
        PForDelta.encode(values, &mut enc);
        enc
    }

    fn decode(data: &[u8], n: usize) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        PForDelta.decode(data, n, &mut out)?;
        Ok(out)
    }

    #[test]
    fn uniform_small_values_pack_tightly() {
        let values = vec![3u32; 128];
        let enc = encode(&values);
        // 2 header bytes + 128 * 2 bits = 32 bytes.
        assert_eq!(enc.len(), 2 + 32);
        assert_eq!(decode(&enc, 128).unwrap(), values);
    }

    #[test]
    fn outliers_become_exceptions() {
        let mut values = vec![1u32; 128];
        values[17] = u32::MAX;
        values[99] = 1 << 20;
        let enc = encode(&values);
        assert_eq!(decode(&enc, 128).unwrap(), values);
        // Far smaller than raw encoding despite two 32-bit outliers.
        assert!(enc.len() < 128 * 4 / 4);
    }

    #[test]
    fn multi_block_and_partial_final_block() {
        let values: Vec<u32> = (0..300).map(|i| i * 7).collect();
        let mut enc = encode(&values);
        enc.extend_from_slice(b"trailing");
        assert_eq!(decode(&enc, 300).unwrap(), values);
    }

    #[test]
    fn corrupt_width_rejected() {
        let data = [77u8, 0, 0, 0];
        assert!(decode(&data, 4).is_err());
    }

    #[test]
    fn corrupt_exception_index_rejected() {
        // One value, width 0, one exception pointing past the block.
        let data = [0u8, 1, 200, 1];
        assert!(decode(&data, 1).is_err());
    }
}
