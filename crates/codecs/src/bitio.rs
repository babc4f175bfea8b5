//! LSB-first bit-oriented reader and writer.
//!
//! Bits are appended into the low end of an accumulator and flushed to bytes
//! least-significant-bit first, the convention DEFLATE uses; the `zlite`
//! compressor and the bit-oriented integer codecs share this module.

use crate::{CodecError, Result};

/// Maximum number of bits accepted by a single `write_bits`/`read_bits`
/// call. Keeping it below 64 minus a byte of slack lets the accumulator
/// logic stay branch-light.
pub const MAX_BITS: u32 = 56;

/// Accumulates bits LSB-first and flushes them into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `value` (`n <= 56`).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= MAX_BITS);
        let value = if n == 0 {
            0
        } else {
            value & (u64::MAX >> (64 - n))
        };
        self.acc |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.nbits as u64
    }

    /// Pads the final partial byte with zeros and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }

    /// Pads to a byte boundary and appends to an existing buffer.
    pub fn finish_into(mut self, out: &mut Vec<u8>) {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        out.extend_from_slice(&self.out);
    }
}

/// Reads bits LSB-first from a byte slice, tracking exact consumption.
///
/// The accumulator is refilled a 64-bit word at a time while at least 8
/// input bytes remain, and a byte at a time over the last 7. The low
/// `nbits` bits are buffered input; each bit above them is either zero or
/// the input bit that follows (a word refill ORs in a partial byte it does
/// not count, and the next refill ORs in the same bits again). After
/// [`BitReader::top_up`] at least [`TOP_UP_BITS`] bits are buffered unless
/// the input ends first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to count into `nbits`; every earlier byte is buffered or
    /// consumed.
    next_byte: usize,
    acc: u64,
    /// Buffered bits, at most 63.
    nbits: u32,
}

/// Bits [`BitReader::top_up`] guarantees while the input lasts: a refill
/// counts whole bytes into a 64-bit accumulator, so 56 is the most it can
/// promise from any starting fill.
pub const TOP_UP_BITS: u32 = 56;

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            next_byte: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Fills the accumulator with as many whole input bytes as fit (at
    /// least [`TOP_UP_BITS`] bits while the input lasts) and returns the
    /// number of bits now buffered. Bits from [`BitReader::take`] and
    /// [`BitReader::peek_buffered`] may be drawn up to that count without
    /// further checks.
    #[inline]
    pub fn top_up(&mut self) -> u32 {
        let at = self.next_byte;
        if let Some(word) = self.data.get(at..at + 8) {
            // Counts the (63 - nbits) / 8 whole bytes that fit, which makes
            // `nbits` 56 + nbits % 8; already-counted bits are ORed in
            // again unchanged.
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.acc |= word << self.nbits;
            self.next_byte += ((63 - self.nbits) / 8) as usize;
            self.nbits |= TOP_UP_BITS;
        } else {
            while self.nbits < TOP_UP_BITS {
                let Some(&b) = self.data.get(self.next_byte) else {
                    break;
                };
                self.acc |= (b as u64) << self.nbits;
                self.nbits += 8;
                self.next_byte += 1;
            }
        }
        self.nbits
    }

    #[inline]
    fn refill(&mut self, need: u32) -> Result<()> {
        if self.nbits < need && self.top_up() < need {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(())
    }

    /// Returns the next `n` buffered bits without consuming them. The
    /// caller guarantees `n` is at most what [`BitReader::top_up`] last
    /// reported, less what it has taken since.
    #[inline]
    pub fn peek_buffered(&self, n: u32) -> u64 {
        debug_assert!(n <= self.nbits && n <= MAX_BITS);
        self.acc & !(u64::MAX << n)
    }

    /// Consumes and returns the next `n` buffered bits, under the same
    /// guarantee as [`BitReader::peek_buffered`].
    #[inline]
    pub fn take(&mut self, n: u32) -> u64 {
        let v = self.peek_buffered(n);
        self.acc >>= n;
        self.nbits -= n;
        v
    }

    /// Reads `n` bits (`n <= 56`), least significant first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= MAX_BITS);
        self.refill(n)?;
        Ok(self.take(n))
    }

    /// Peeks at the next `n` bits without consuming them, zero-padding past
    /// the end of input (callers that rely on padding must ensure, as the
    /// `zlite` format does, that a terminator symbol stops decoding before
    /// padding is ever consumed).
    #[inline]
    pub fn peek_bits_padded(&mut self, n: u32) -> u64 {
        debug_assert!(n <= MAX_BITS);
        if self.nbits < n {
            self.top_up();
        }
        // Bits above `nbits` are zero or the input bits that follow; past
        // the end of input they are zero, the padding.
        self.acc & !(u64::MAX << n)
    }

    /// Consumes `n` bits previously seen via [`BitReader::peek_bits_padded`].
    /// Fails if the input genuinely does not hold `n` more bits.
    #[inline]
    pub fn consume_bits(&mut self, n: u32) -> Result<()> {
        if n > self.nbits {
            return Err(CodecError::UnexpectedEof);
        }
        self.take(n);
        Ok(())
    }

    /// Discards bits up to the next byte boundary of the underlying input.
    #[inline]
    pub fn align_byte(&mut self) {
        // Buffered bits are the tail of whole counted bytes, so the partial
        // byte's remainder is exactly `nbits % 8` bits.
        self.take(self.nbits % 8);
    }

    /// Total bits consumed by reads so far.
    #[inline]
    pub fn bits_consumed(&self) -> u64 {
        self.next_byte as u64 * 8 - self.nbits as u64
    }

    /// Bytes consumed, rounding the final partial byte up (matching the
    /// writer's padding).
    #[inline]
    pub fn bytes_consumed(&self) -> usize {
        self.bits_consumed().div_ceil(8) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(0x12345678, 32);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), 0x12345678);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.bits_consumed(), 53);
        assert_eq!(r.bytes_consumed(), 7);
    }

    #[test]
    fn eof_is_reported() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 0);
        assert_eq!(w.bit_len(), 0);
        let bytes = w.finish();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn masks_extraneous_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 4); // only low 4 bits may land
        w.write_bits(0, 4);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x0F]);
    }
}
