//! Variable-byte coding — the paper's `V` position/length coder.
//!
//! Each byte carries 7 data bits; the high bit flags continuation. Factor
//! lengths in an RLZ encoding are mostly below 100 (Figure 3 of the paper),
//! so the vast majority of lengths take a single byte, which is exactly why
//! the paper picked vbyte for the `V` coders.

use crate::{CodecError, Result};

/// The variable-byte codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct VByte;

/// Appends the vbyte encoding of a single value.
#[inline]
pub fn write_u32(mut v: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded size of a value in bytes (1–5).
#[inline]
pub fn encoded_len(v: u32) -> usize {
    match v {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// Encoded size of a 64-bit value in bytes (1–10).
#[inline]
pub fn encoded_len_u64(v: u64) -> usize {
    // ceil(bits/7), with v == 0 still costing one byte.
    let bits = 64 - v.max(1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Reads one vbyte value from `data[*pos..]`, advancing `pos`.
#[inline]
pub fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(CodecError::UnexpectedEof);
        };
        *pos += 1;
        let payload = (byte & 0x7F) as u32;
        if shift == 28 && payload > 0xF {
            return Err(CodecError::Corrupt("vbyte value exceeds u32"));
        }
        if shift > 28 {
            return Err(CodecError::Corrupt("vbyte run too long"));
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a vbyte-encoded `u64` (used by store headers for file offsets).
#[inline]
pub fn write_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one vbyte-encoded `u64` from `data[*pos..]`, advancing `pos`.
#[inline]
pub fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(CodecError::UnexpectedEof);
        };
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("vbyte u64 run too long"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl VByte {
    /// Appends the encoding of `values` to `out`.
    pub fn encode(&self, values: &[u32], out: &mut Vec<u8>) {
        out.reserve(values.len());
        for &v in values {
            write_u32(v, out);
        }
    }

    /// Decodes exactly `n` values from the front of `data`, appending them
    /// to `out`; returns the number of bytes consumed.
    pub fn decode(&self, data: &[u8], n: usize, out: &mut Vec<u32>) -> Result<usize> {
        let mut pos = 0usize;
        out.reserve(n.min(data.len()));
        let mut remaining = n;
        // Word-at-a-time fast path: RLZ factor lengths are mostly < 128
        // (Fig. 3), so long runs of single-byte codes dominate. Load 8
        // input bytes at once; the bytes before the first continuation bit
        // (all 8 when none is set) are complete single-byte values. Emit
        // that clean prefix in bulk, let the scalar reader take the value
        // the first continuation bit starts, then retry the fast path.
        const MSB: u64 = 0x8080_8080_8080_8080;
        while remaining >= 8 {
            let Some(chunk) = data.get(pos..pos + 8) else {
                break;
            };
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            let clean = ((word & MSB).trailing_zeros() / 8) as usize;
            if clean > 0 {
                // Emit all 8 lanes, then cut back to the clean prefix. This
                // never reallocates: at least 8 values and 8 input bytes
                // remain, and every value so far consumed an input byte, so
                // the 8 lanes fit in the `n.min(data.len())` reserved above.
                let at = out.len();
                out.extend((0..8).map(|i| ((word >> (8 * i)) & 0x7F) as u32));
                out.truncate(at + clean);
                pos += clean;
                remaining -= clean;
            }
            if clean < 8 {
                out.push(read_u32(data, &mut pos)?);
                remaining -= 1;
            }
        }
        for _ in 0..remaining {
            out.push(read_u32(data, &mut pos)?);
        }
        Ok(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_values() {
        let mut out = Vec::new();
        write_u32(0, &mut out);
        write_u32(127, &mut out);
        assert_eq!(out, vec![0, 127]);
    }

    #[test]
    fn boundary_values() {
        for v in [
            0u32,
            1,
            127,
            128,
            16383,
            16384,
            0x1F_FFFF,
            0x20_0000,
            u32::MAX,
        ] {
            let mut out = Vec::new();
            write_u32(v, &mut out);
            assert_eq!(out.len(), encoded_len(v), "value {v}");
            let mut pos = 0;
            assert_eq!(read_u32(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn rejects_overlong_encoding() {
        // Six continuation bytes cannot be a valid u32.
        let data = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut pos = 0;
        assert!(read_u32(&data, &mut pos).is_err());
    }

    #[test]
    fn rejects_u32_overflow_in_fifth_byte() {
        // 5th byte payload 0x10 would set bit 32.
        let data = [0xFF, 0xFF, 0xFF, 0xFF, 0x10];
        let mut pos = 0;
        assert!(read_u32(&data, &mut pos).is_err());
        // While 0x0F is exactly u32::MAX.
        let data = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let mut pos = 0;
        assert_eq!(read_u32(&data, &mut pos).unwrap(), u32::MAX);
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 0x7F, 0x80, u32::MAX as u64, u64::MAX, 1 << 50] {
            let mut out = Vec::new();
            write_u64(v, &mut out);
            let mut pos = 0;
            assert_eq!(read_u64(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn word_fast_path_matches_scalar_decoding() {
        // Mix runs of single-byte values (fast path) with multi-byte values
        // (scalar fallback) at every alignment relative to the 8-byte word.
        for lead in 0..9usize {
            let mut values: Vec<u32> = (0..lead as u32).collect();
            values.push(1 << 20); // 3-byte code breaks the word
            values.extend(0..23u32); // long single-byte tail
            values.push(u32::MAX);
            values.extend(100..105u32); // short tail below 8 values
            let mut enc = Vec::new();
            VByte.encode(&values, &mut enc);
            let len = enc.len();
            enc.extend_from_slice(b"trailing");
            let mut out = vec![99u32; 4]; // decode appends after these
            let used = VByte.decode(&enc, values.len(), &mut out).unwrap();
            assert_eq!(used, len, "lead {lead}");
            assert_eq!(out[..4], [99; 4], "lead {lead}");
            assert_eq!(out[4..], values, "lead {lead}");
        }
    }

    #[test]
    fn most_small_lengths_take_one_byte() {
        // The property the paper relies on (Fig. 3): lengths < 128 are 1 byte.
        for v in 0..128u32 {
            assert_eq!(encoded_len(v), 1);
        }
    }
}
