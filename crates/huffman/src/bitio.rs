//! MSB-first bit-level readers and writers.
//!
//! Compressed code is a bit stream; blocks are byte-aligned by the layout
//! engine (paper §3.3: "we address this by aligning the first op of a block
//! to byte boundaries"), so the writer exposes [`BitWriter::align_byte`]
//! and reports bit positions.

/// Accumulates bits most-significant-first into a byte vector.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final partial byte (0..8).
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `len` bits of `code`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn write_bits(&mut self, code: u64, len: u32) {
        assert!(len <= 64, "cannot write {len} bits at once");
        for i in (0..len).rev() {
            self.write_bit((code >> i) & 1 == 1);
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    /// Pads with zero bits to the next byte boundary and returns how many
    /// padding bits were added.
    pub fn align_byte(&mut self) -> u32 {
        let pad = (8 - self.used) % 8;
        for _ in 0..pad {
            self.write_bit(false);
        }
        pad
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        if self.used == 0 {
            self.bytes.len() as u64 * 8
        } else {
            (self.bytes.len() as u64 - 1) * 8 + self.used as u64
        }
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Finishes the stream (zero-padding the final byte) and returns the
    /// bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        self.bytes
    }

    /// Borrowed view of the full bytes written so far (final byte may be
    /// partially filled, padded with zeros).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Reads bits most-significant-first from a byte slice.
///
/// The reader keeps a 64-bit *lookahead accumulator*: the top
/// [`BitReader::available`] bits of `acc` are the next stream bits at
/// `pos`, left-aligned, with all lower bits zero. [`BitReader::refill`]
/// tops the accumulator up a byte at a time, so [`BitReader::read_bits`]
/// and table-driven decoders ([`crate::lut::LutDecoder`]) extract whole
/// fields per shift instead of looping bit-by-bit. The observable
/// MSB-first semantics are identical to a per-bit cursor.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor (bits consumed so far).
    pos: u64,
    /// Lookahead: top `acc_bits` bits are the stream bits at
    /// `pos..pos + acc_bits`; all lower bits are zero.
    acc: u64,
    /// Valid bits in `acc` (0..=64), never exceeding what remains.
    acc_bits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at bit 0.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader::at_bit(bytes, 0)
    }

    /// Creates a reader positioned at an absolute bit offset.
    pub fn at_bit(bytes: &'a [u8], bit: u64) -> BitReader<'a> {
        BitReader {
            bytes,
            pos: bit,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Current absolute bit position.
    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Remaining readable bits.
    #[inline]
    pub fn remaining(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Tops the lookahead accumulator up to at least 57 valid bits, or
    /// to end of stream, whichever comes first. Away from the buffer
    /// tail this is a single unaligned 8-byte load; the final <8 bytes
    /// fall back to byte-at-a-time.
    #[inline]
    pub fn refill(&mut self) {
        refill_parts(self.bytes, self.pos, &mut self.acc, &mut self.acc_bits);
    }

    /// Number of valid lookahead bits currently buffered. After
    /// [`BitReader::refill`] this is `min(57.., remaining())` — if it is
    /// below 57, the stream has no further bits.
    #[inline]
    pub fn available(&self) -> u32 {
        self.acc_bits
    }

    /// The next `n` buffered bits, right-aligned, without consuming
    /// them. Meaningful only for `n <= available()`; bits past the end
    /// of the buffer read as zero.
    #[inline]
    pub fn peek(&self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            0
        } else {
            self.acc >> (64 - n)
        }
    }

    /// [`BitReader::peek`] for a table index: `n` must be in `1..=64`,
    /// which spares the zero-width case its branch.
    #[inline]
    pub(crate) fn peek_index(&self, n: u32) -> usize {
        debug_assert!((1..=64).contains(&n));
        (self.acc >> (64 - n)) as usize
    }

    /// [`BitReader::consume`] for one codeword: `n` must be below 64
    /// and at most [`BitReader::available`], which spares the
    /// whole-accumulator case its branch.
    #[inline]
    pub(crate) fn consume_code(&mut self, n: u32) {
        debug_assert!(n < 64 && n <= self.acc_bits);
        self.pos += n as u64;
        self.acc <<= n;
        self.acc_bits -= n;
    }

    /// Consumes `n` buffered bits (`n` must be `<= available()`).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.acc_bits);
        self.pos += n as u64;
        self.acc = if n == 64 { 0 } else { self.acc << n };
        self.acc_bits -= n;
    }

    /// Reads one bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.acc_bits == 0 {
            self.refill();
            if self.acc_bits == 0 {
                return None;
            }
        }
        let bit = self.acc >> 63 == 1;
        self.consume(1);
        Some(bit)
    }

    /// Reads `len` bits MSB-first; `None` if fewer remain. Extracts up
    /// to 57 bits per accumulator refill rather than looping per bit.
    #[inline]
    pub fn read_bits(&mut self, len: u32) -> Option<u64> {
        assert!(len <= 64);
        if self.remaining() < len as u64 {
            return None;
        }
        let mut v = 0u64;
        let mut need = len;
        while need > 0 {
            if self.acc_bits == 0 {
                self.refill();
            }
            let take = need.min(self.acc_bits);
            if take == 64 {
                v = self.acc;
            } else {
                v = (v << take) | (self.acc >> (64 - take));
            }
            self.consume(take);
            need -= take;
        }
        Some(v)
    }

    /// Skips forward to the next byte boundary.
    #[inline]
    pub fn align_byte(&mut self) {
        let aligned = self.pos.div_ceil(8) * 8;
        let skip = (aligned - self.pos) as u32;
        if skip <= self.acc_bits {
            self.consume(skip);
        } else {
            self.pos = aligned;
            self.acc = 0;
            self.acc_bits = 0;
        }
    }
}

/// The body of [`BitReader::refill`] on the reader's raw cursor parts.
#[inline(always)]
fn refill_parts(bytes: &[u8], pos: u64, acc: &mut u64, acc_bits: &mut u32) {
    if *acc_bits > 56 {
        return;
    }
    let mut next = pos + *acc_bits as u64;
    let idx = (next / 8) as usize;
    let shift = (next % 8) as u32;
    if let Some(chunk) = bytes.get(idx..idx + 8) {
        // Whole-word load: the u64 shift drops the `shift` bits of
        // the leading byte already accounted for, leaving the next
        // `64 - shift` stream bits left-aligned.
        let w = u64::from_be_bytes(chunk.try_into().expect("8-byte slice")) << shift;
        *acc |= w >> *acc_bits;
        *acc_bits = (*acc_bits + 64 - shift).min(64);
        return;
    }
    while *acc_bits <= 56 {
        let idx = (next / 8) as usize;
        if idx >= bytes.len() {
            break;
        }
        // `shift` is nonzero only for the partial leading byte; the
        // u8 shift left-aligns its unread bits and zeroes the rest.
        let shift = (next % 8) as u32;
        let v = (bytes[idx] << shift) as u64;
        *acc |= v << (56 - *acc_bits);
        *acc_bits += 8 - shift;
        next += (8 - shift) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_patterns() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFF, 8);
        w.write_bits(0, 5);
        w.write_bits(0b110011, 6);
        let total = w.bit_len();
        assert_eq!(total, 22);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(5), Some(0));
        assert_eq!(r.read_bits(6), Some(0b110011));
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn align_byte_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.align_byte(), 6);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0b1, 1);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1100_0000, 0b1000_0000]);
    }

    #[test]
    fn align_on_boundary_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        assert_eq!(w.align_byte(), 0);
        assert_eq!(w.bit_len(), 8);
    }

    #[test]
    fn reader_at_bit_offset() {
        let bytes = [0b0000_0001, 0b1000_0000];
        let mut r = BitReader::at_bit(&bytes, 7);
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.bit_pos(), 9);
    }

    #[test]
    fn reader_stops_at_end() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn write_64_bit_value() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0xFF; 8]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn reader_align_byte() {
        let bytes = [0b1010_1010, 0b0101_0101];
        let mut r = BitReader::new(&bytes);
        r.read_bits(3);
        r.align_byte();
        assert_eq!(r.bit_pos(), 8);
        assert_eq!(r.read_bits(8), Some(0b0101_0101));
    }

    #[test]
    fn align_without_lookahead_still_moves() {
        // align_byte before any refill (empty accumulator) must advance
        // the cursor exactly like the per-bit reader did.
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::at_bit(&bytes, 3);
        r.align_byte();
        assert_eq!(r.bit_pos(), 8);
        assert_eq!(r.read_bits(8), Some(0xCD));
    }

    #[test]
    fn peek_consume_refill_primitives() {
        let bytes = [0b1100_1010, 0b0111_0001, 0xFF];
        let mut r = BitReader::new(&bytes);
        r.refill();
        assert_eq!(r.available(), 24);
        assert_eq!(r.peek(4), 0b1100);
        assert_eq!(r.peek(12), 0b1100_1010_0111);
        r.consume(5);
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.peek(3), 0b010);
        // Peeking past the end of the stream reads zeros.
        r.consume(19);
        r.refill();
        assert_eq!(r.available(), 0);
        assert_eq!(r.peek(8), 0);
    }

    #[test]
    fn refill_from_unaligned_entry() {
        let bytes = [0b0000_0111, 0b1010_0000];
        let mut r = BitReader::at_bit(&bytes, 5);
        r.refill();
        assert_eq!(r.available(), 11);
        assert_eq!(r.peek(6), 0b111101);
        assert_eq!(r.read_bits(6), Some(0b111101));
        assert_eq!(r.bit_pos(), 11);
    }

    #[test]
    fn interleaved_bit_and_field_reads() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(0x3FFF_FFFF_FFFF_FFFF, 62);
        w.write_bit(false);
        w.write_bits(0b1011, 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(62), Some(0x3FFF_FFFF_FFFF_FFFF));
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_bits(4), Some(0b1011));
    }

    #[test]
    fn read_bits_full_word_from_odd_offset() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_CAFE_F00D));
    }

    #[test]
    fn word_refill_matches_per_bit_view_from_every_offset() {
        // Long enough that refill takes the 8-byte word path away from
        // the tail and the byte path near it.
        let bytes: Vec<u8> = (0..21u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let total = bytes.len() as u64 * 8;
        for start in 0..16u64 {
            let mut r = BitReader::at_bit(&bytes, start);
            let mut got = Vec::new();
            while let Some(bit) = r.read_bit() {
                got.push(bit);
            }
            let expected: Vec<bool> = (start..total)
                .map(|i| (bytes[(i / 8) as usize] >> (7 - (i % 8))) & 1 == 1)
                .collect();
            assert_eq!(got, expected, "start {start}");
        }
        // Mixed field widths across the word/byte refill boundary.
        for start in 0..8u64 {
            let mut a = BitReader::at_bit(&bytes, start);
            let mut b = BitReader::at_bit(&bytes, start);
            for width in [13u32, 7, 64, 1, 29, 40, 3] {
                let slow: Option<u64> = (0..width)
                    .map(|_| b.read_bit().map(u64::from))
                    .try_fold(0u64, |acc, bit| bit.map(|x| (acc << 1) | x));
                assert_eq!(a.read_bits(width), slow, "start {start} width {width}");
            }
        }
    }

    #[test]
    fn at_bit_past_end_reads_nothing() {
        let bytes = [0xFFu8];
        let mut r = BitReader::at_bit(&bytes, 12);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.read_bits(0), Some(0));
    }
}
