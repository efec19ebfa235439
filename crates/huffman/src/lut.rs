//! Table-driven canonical Huffman decoding: one direct-indexed level
//! plus the bit-serial fallback.
//!
//! [`LutDecoder`] is the software fast path over the same canonical
//! code space as [`CanonicalDecoder`]: a direct-indexed table of
//! [`DEFAULT_LUT_BITS`] bits resolves every short code (one peek, one
//! table load, one consume), while codes longer than the table index —
//! rare by construction, since Huffman assigns long codes to rare
//! symbols — fall back to the bit-serial `first_code` walk of the
//! reference decoder.
//!
//! Each table entry is one packed `u32`. A hit is `(sym << 8) | len`
//! (`len` ≥ 1), so the hot step is a load, a test of the low byte, a
//! consume and a shift. A miss has a zero low byte: `0` sends the
//! codeword to the reference walk (a code longer than the index, or a
//! symbol too wide for 24 bits), and `(depth << 16) | class` raises
//! [`DecodeError::InvalidCode`] or [`DecodeError::LengthOverflow`]
//! after `depth` bits. The table is built by canonical fill: codes of
//! one length are consecutive values, so each code of length
//! `len ≤ lut_bits` fills the next `2^(lut_bits − len)` slots, the
//! prefixes of longer codes follow as `0`, and only the slots past the
//! deepest code — present in incomplete books alone — run the reference
//! loop's `classify_prefix` walk.
//!
//! The decoder is *observationally identical* to [`CanonicalDecoder`]:
//! the same symbols in the same order, and on corrupt or truncated
//! input the same [`DecodeError`] variant at the same bit position.
//! Every entry is the outcome the reference decode loop reaches on the
//! entry's index bits; the unit tests check the canonical fill against
//! a `classify_prefix` walk over every index, and the differential
//! proptests in `tests/proptests.rs` check whole streams. The reference
//! decoder remains the model of the paper's Figure-9 bit-per-level
//! hardware; this table is how the *simulator* gets through compressed
//! images quickly, not a change to the modelled machine.

use crate::bitio::BitReader;
use crate::code::CodeBook;
use crate::decode::{CanonicalDecoder, DecodeCounters, DecodeError, PrefixClass};

/// Default table index width, in bits. 2^11 entries cover every code
/// the byte scheme can emit (bound 10) and the popular head of every
/// other scheme's book; the table is 8 KiB of entries — comfortably
/// cache-resident.
pub const DEFAULT_LUT_BITS: u32 = 11;

/// Low byte of an entry: the code length of a hit, 0 for a miss.
const LEN: u32 = 0xFF;
/// Miss class bits of an entry (a miss's low byte is 0).
const CLASS: u32 = 0xFF00;
/// Miss class: the walk raises [`DecodeError::InvalidCode`].
const INVALID: u32 = 1 << 8;
/// Miss class: the walk raises [`DecodeError::LengthOverflow`].
const OVERFLOW: u32 = 2 << 8;

/// The packed entry for a prefix class: `(sym << 8) | len` for a code
/// the table resolves, `(depth << 16) | class` for an error, and 0 for
/// the reference walk (a longer code, or a symbol of 2^24 or more).
fn pack(class: PrefixClass) -> u32 {
    match class {
        PrefixClass::Sym { sym, len } if sym < 1 << 24 => (sym << 8) | len as u32,
        PrefixClass::Sym { .. } | PrefixClass::Long => 0,
        PrefixClass::Invalid { depth } => (depth as u32) << 16 | INVALID,
        PrefixClass::Overflow { depth } => (depth as u32) << 16 | OVERFLOW,
    }
}

/// An entry's hit part: the entry itself for a resolved code, else 0 —
/// the packed form the [`crate::interleave`] table builder stores.
pub(crate) fn hit(entry: u32) -> u32 {
    if entry & LEN != 0 {
        entry
    } else {
        0
    }
}

/// A one-level lookup-table canonical Huffman decoder.
///
/// Built from the same [`CodeBook`] as the reference
/// [`CanonicalDecoder`], which it embeds both as the long-code fallback
/// and as the near-end-of-stream path (where full lookahead is not
/// available and per-bit consumption reproduces the exact error
/// positions).
#[derive(Debug, Clone)]
pub struct LutDecoder {
    /// Table index width in bits (1..=16, capped at `max_len`).
    lut_bits: u32,
    /// Direct-indexed packed entries: `1 << lut_bits` of them.
    table: Vec<u32>,
    /// The bit-serial reference decoder: long codes, short streams.
    reference: CanonicalDecoder,
}

impl LutDecoder {
    /// Builds the decoder with the default table width.
    pub fn new(book: &CodeBook) -> LutDecoder {
        LutDecoder::with_lut_bits(book, DEFAULT_LUT_BITS)
    }

    /// Builds the decoder with an explicit table width (clamped to
    /// 1..=16 and to the book's maximum code length).
    pub fn with_lut_bits(book: &CodeBook, lut_bits: u32) -> LutDecoder {
        let reference = CanonicalDecoder::new(book);
        let lut_bits = lut_bits.clamp(1, 16).min(reference.max_len().max(1) as u32);
        let size = 1usize << lut_bits;
        // Slots past the fill stay 0 (the reference walk) unless the
        // classification below marks them.
        let mut table = vec![0u32; size];
        let mut slot = 0usize;
        for len in 1..=lut_bits.min(reference.max_len() as u32) {
            let span = 1usize << (lut_bits - len);
            for &sym in reference.symbols_of_len(len as usize) {
                let class = PrefixClass::Sym {
                    sym,
                    len: len as u8,
                };
                table[slot..slot + span].fill(pack(class));
                slot += span;
            }
        }
        // The prefixes of longer codes follow the short codes and end at
        // the deepest code's; whatever lies beyond matches no code.
        let long_end = match reference.deepest_code() {
            Some((len, code)) if len as u32 > lut_bits => {
                (code >> (len as u32 - lut_bits)) as usize + 1
            }
            _ => slot,
        };
        for (prefix, entry) in table.iter_mut().enumerate().skip(long_end) {
            *entry = pack(reference.classify_prefix(prefix as u64, lut_bits));
        }
        LutDecoder {
            lut_bits,
            table,
            reference,
        }
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// Exactly the [`DecodeError`]s (variant and `at_bit`) that
    /// [`CanonicalDecoder::decode`] would produce at this position.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        self.decode_counted(r, &mut DecodeCounters::default())
    }

    /// Decodes one codeword with decode-effort telemetry folded into
    /// `counts` (see [`DecodeCounters`]): the single step every LUT
    /// decode — [`LutDecoder::decode`], [`LutDecoder::decode_n_counted`]
    /// and the scheme codecs' block loops — is made of. Behaviour —
    /// symbols, cursor positions and errors — is that of
    /// [`LutDecoder::decode`].
    ///
    /// # Errors
    ///
    /// Exactly the errors [`LutDecoder::decode`] produces; the failing
    /// prefix's bits are still charged to `counts.stall_bits`.
    #[inline(always)]
    pub fn decode_counted(
        &self,
        r: &mut BitReader<'_>,
        counts: &mut DecodeCounters,
    ) -> Result<u32, DecodeError> {
        if r.available() < self.lut_bits {
            r.refill();
        }
        if r.available() >= self.lut_bits {
            let entry = self.table[r.peek_index(self.lut_bits)];
            let len = entry & LEN;
            if len != 0 {
                r.consume_code(len);
                counts.symbols += 1;
                counts.stall_bits += u64::from(len);
                return Ok(entry >> 8);
            }
        }
        // The cold path takes the reader and the counters by value, so
        // their addresses never escape and a caller's block loop keeps
        // them in registers.
        let (res, after, spent) = self.decode_cold(r.clone(), *counts);
        *r = after;
        *counts = spent;
        res
    }

    /// Everything but a table hit. With a full index of lookahead, the
    /// entry is a miss: an error class raises its error after `depth`
    /// bits, and anything else is a code longer than the table index
    /// (or a symbol too wide to pack) that takes the reference walk.
    /// With less, the stream is genuinely short (refill tops up to ≥ 57
    /// bits away from the tail) and the reference's per-bit walk pins
    /// the exact end-of-stream behaviour; that is not a fallback, since
    /// the table was never consulted.
    #[cold]
    #[inline(never)]
    fn decode_cold<'a>(
        &self,
        mut r: BitReader<'a>,
        mut counts: DecodeCounters,
    ) -> (Result<u32, DecodeError>, BitReader<'a>, DecodeCounters) {
        let entry = if r.available() >= self.lut_bits {
            self.table[r.peek_index(self.lut_bits)]
        } else {
            0
        };
        let depth = entry >> 16;
        let res = match entry & CLASS {
            INVALID => {
                r.consume(depth);
                counts.stall_bits += u64::from(depth);
                Err(DecodeError::InvalidCode {
                    at_bit: r.bit_pos(),
                })
            }
            OVERFLOW => {
                r.consume(depth);
                counts.stall_bits += u64::from(depth);
                Err(DecodeError::LengthOverflow {
                    at_bit: r.bit_pos(),
                })
            }
            _ => {
                if r.available() >= self.lut_bits {
                    counts.long_fallbacks += 1;
                }
                self.reference.decode_counted(&mut r, &mut counts)
            }
        };
        (res, r, counts)
    }

    /// Decodes exactly `n` symbols, failing on the first corrupt or
    /// truncated codeword.
    pub fn decode_n(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
        self.decode_n_counted(r, n, &mut DecodeCounters::default())
    }

    /// [`LutDecoder::decode_n`] with decode-effort telemetry: bits
    /// consumed (= modelled stall cycles), symbols decoded, and how many
    /// codewords overflowed the table into the bit-serial walk.
    ///
    /// # Errors
    ///
    /// Exactly the errors `n` calls of [`LutDecoder::decode`] would
    /// produce; the failing prefix's bits are still charged to
    /// `counts.stall_bits`.
    pub fn decode_n_counted(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.decode_counted(r, counts)?);
        }
        Ok(out)
    }

    /// Table index width in bits.
    pub fn lut_bits(&self) -> u32 {
        self.lut_bits
    }

    /// The packed table, which the [`crate::interleave`] table builder
    /// re-packs.
    pub(crate) fn entries(&self) -> &[u32] {
        &self.table
    }

    /// Longest code length this decoder handles.
    pub fn max_len(&self) -> u8 {
        self.reference.max_len()
    }

    /// Dictionary size (`k` in the paper's complexity model).
    pub fn dictionary_size(&self) -> usize {
        self.reference.dictionary_size()
    }

    /// The embedded bit-serial reference decoder.
    pub fn reference(&self) -> &CanonicalDecoder {
        &self.reference
    }

    /// Serialized decode tables for integrity checking — byte-identical
    /// to [`CanonicalDecoder::table_image`] for the same book, so
    /// dictionary CRCs are unchanged by the fast path.
    pub fn table_image(&self) -> Vec<u8> {
        self.reference.table_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use proptest::prelude::*;

    /// The table entry of the decoder before packing: the outcome of
    /// feeding the entry's index bits to the reference decoder.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Entry {
        /// A code of length `len` matches: consume `len` bits, emit `sym`.
        Sym { sym: u32, len: u8 },
        /// The prefix dies after `depth` bits: `InvalidCode`.
        Invalid { depth: u8 },
        /// `max_len` (= `depth`) bits match nothing: `LengthOverflow`.
        Overflow { depth: u8 },
        /// The codeword extends beyond the table index: the slow walk.
        Long,
    }

    impl Entry {
        /// The entry in the packed layout the decoder stores.
        fn packed(self) -> u32 {
            match self {
                Entry::Sym { sym, len } if sym < (1 << 24) => (sym << 8) | len as u32,
                Entry::Sym { .. } | Entry::Long => 0,
                Entry::Invalid { depth } => ((depth as u32) << 16) | 0x100,
                Entry::Overflow { depth } => ((depth as u32) << 16) | 0x200,
            }
        }

        /// The hit-only form the interleave builder stores: the code's
        /// `(sym << 8) | len`, else 0.
        fn hit(self) -> u32 {
            match self {
                Entry::Sym { sym, len } if sym < (1 << 24) => (sym << 8) | len as u32,
                _ => 0,
            }
        }
    }

    /// The table the way it was built before canonical fill: every index
    /// run through the reference walk.
    fn enum_table(book: &CodeBook, lut_bits: u32) -> Vec<Entry> {
        let reference = CanonicalDecoder::new(book);
        let lut_bits = lut_bits.clamp(1, 16).min(reference.max_len().max(1) as u32);
        (0u64..1 << lut_bits)
            .map(|prefix| match reference.classify_prefix(prefix, lut_bits) {
                PrefixClass::Sym { sym, len } => Entry::Sym { sym, len },
                PrefixClass::Invalid { depth } => Entry::Invalid { depth },
                PrefixClass::Overflow { depth } => Entry::Overflow { depth },
                PrefixClass::Long => Entry::Long,
            })
            .collect()
    }

    /// Asserts the canonical-fill table equals the classified one,
    /// entry for entry, in both the packed and the hit-only form.
    fn assert_fill_matches_classify(book: &CodeBook, lut_bits: u32) {
        let lut = LutDecoder::with_lut_bits(book, lut_bits);
        let oracle = enum_table(book, lut_bits);
        assert_eq!(lut.entries().len(), oracle.len(), "table size");
        for (i, (&got, want)) in lut.entries().iter().zip(&oracle).enumerate() {
            assert_eq!(
                got,
                want.packed(),
                "entry {i} ({want:?}), lut_bits {lut_bits}"
            );
            assert_eq!(hit(got), want.hit(), "hit form of entry {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Canonical fill equals the per-index classification on random
        /// complete books, bounded books, and incomplete books (codes
        /// dropped from a complete one), at every width 1..=16.
        #[test]
        fn canonical_fill_matches_the_classified_table(
            freqs in prop::collection::vec(0u64..5000, 1..300),
            bound in 1u8..24,
            drop_mask in any::<u64>(),
            lut_bits in 1u32..=16,
        ) {
            if let Ok(book) = CodeBook::from_freqs(&freqs) {
                assert_fill_matches_classify(&book, lut_bits);
                let lengths: Vec<u8> = (0..freqs.len() as u32)
                    .map(|s| if drop_mask >> (s % 64) & 1 == 1 { 0 } else { book.len_of(s) })
                    .collect();
                assert_fill_matches_classify(&CodeBook::from_lengths(lengths), lut_bits);
            }
            if let Ok(book) = CodeBook::bounded_from_freqs(&freqs, bound) {
                assert_fill_matches_classify(&book, lut_bits);
            }
        }
    }

    #[test]
    fn canonical_fill_matches_on_edge_books() {
        let wide = {
            // A symbol past 2^24 with a short code packs as a miss.
            let mut lengths = vec![0u8; (1 << 24) + 2];
            lengths[1 << 24] = 1;
            lengths[3] = 2;
            lengths[(1 << 24) + 1] = 2;
            CodeBook::from_lengths(lengths)
        };
        for book in [
            CodeBook::from_lengths(vec![1, 2, 0]),
            CodeBook::from_lengths(vec![0, 0]),
            CodeBook::from_lengths(vec![3]),
            CodeBook::from_freqs(&[0, 5]).unwrap(),
        ] {
            for lut_bits in 1..=16 {
                assert_fill_matches_classify(&book, lut_bits);
            }
        }
        // Its longest code has 2 bits, so every wider table clamps to 2.
        for lut_bits in 1..=2 {
            assert_fill_matches_classify(&wide, lut_bits);
        }
        let mut w = BitWriter::new();
        for s in [1 << 24, 3, (1 << 24) + 1] {
            wide.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut counts = DecodeCounters::default();
        let lut = wide.lut_decoder();
        assert_eq!(
            lut.decode_n_counted(&mut r, 3, &mut counts),
            Ok(vec![1 << 24, 3, (1 << 24) + 1])
        );
        assert_eq!(
            counts.long_fallbacks, 2,
            "wide symbols take the reference walk"
        );
        assert_differential(&wide, &bytes, 0);
    }

    /// Decodes `stream` to exhaustion with both decoders, asserting
    /// identical symbols, positions and terminal error.
    fn assert_differential(book: &CodeBook, stream: &[u8], start: u64) {
        let reference = book.decoder();
        let lut = book.lut_decoder();
        let mut a = BitReader::at_bit(stream, start);
        let mut b = BitReader::at_bit(stream, start);
        loop {
            let x = reference.decode(&mut a);
            let y = lut.decode(&mut b);
            assert_eq!(x, y, "divergence at bit {}", a.bit_pos());
            assert_eq!(a.bit_pos(), b.bit_pos(), "cursor drift");
            if x.is_err() {
                break;
            }
        }
    }

    #[test]
    fn short_codes_round_trip_via_table() {
        let freqs = [40u64, 20, 10, 5, 2, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let msg: Vec<u32> = (0..6).chain((0..6).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let lut = book.lut_decoder();
        let mut r = BitReader::new(&bytes);
        assert_eq!(lut.decode_n(&mut r, msg.len()).unwrap(), msg);
    }

    #[test]
    fn long_codes_take_the_overflow_path() {
        // Exponential frequencies force codes far past 11 bits.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << i).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        assert!(book.max_len() > DEFAULT_LUT_BITS as u8);
        let msg: Vec<u32> = (0..30).chain((0..30).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let lut = book.lut_decoder();
        let mut r = BitReader::new(&bytes);
        assert_eq!(lut.decode_n(&mut r, msg.len()).unwrap(), msg);
        assert_differential(&book, &bytes, 0);
    }

    #[test]
    fn garbage_streams_match_reference_errors() {
        let freqs: Vec<u64> = (0..24).map(|i| (i as u64 + 1) * 3).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        // Deterministic pseudo-random garbage.
        let mut x = 0x2545F4914F6CDD1Du64;
        let bytes: Vec<u8> = (0..96)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            assert_differential(&book, &bytes, start);
        }
    }

    #[test]
    fn incomplete_book_invalid_positions_match() {
        // Code space: 0 (len 1), 10 (len 2); prefix 11 is invalid.
        let book = CodeBook::from_lengths(vec![1, 2, 0]);
        let lut = book.lut_decoder();
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            lut.decode(&mut r),
            Err(DecodeError::InvalidCode { at_bit: 2 })
        );
        assert_differential(&book, &bytes, 0);
    }

    #[test]
    fn truncated_and_empty_streams_match() {
        let book = CodeBook::from_freqs(&[1, 1, 1, 1]).unwrap();
        let lut = book.lut_decoder();
        let mut r = BitReader::new(&[]);
        assert_eq!(
            lut.decode(&mut r),
            Err(DecodeError::UnexpectedEos { at_bit: 0 })
        );
        let mut w = BitWriter::new();
        for s in [0u32, 1, 2, 3] {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        assert_differential(&book, &bytes, 0);
    }

    #[test]
    fn decode_n_matches_repeated_decode_including_errors() {
        let freqs: Vec<u64> = (0..24).map(|i| (i as u64 + 1) * 3).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let lut = book.lut_decoder();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            let mut a = BitReader::at_bit(&bytes, start);
            let mut syms = Vec::new();
            let err = loop {
                match lut.decode(&mut a) {
                    Ok(s) => syms.push(s),
                    Err(e) => break e,
                }
            };
            // Asking for one symbol too many must surface the same
            // prefix and the same terminal error at the same position.
            let mut b = BitReader::at_bit(&bytes, start);
            assert_eq!(lut.decode_n(&mut b, syms.len() + 1), Err(err));
            assert_eq!(a.bit_pos(), b.bit_pos(), "cursor drift after error");
            let mut c = BitReader::at_bit(&bytes, start);
            assert_eq!(lut.decode_n(&mut c, syms.len()).unwrap(), syms);
        }
    }

    #[test]
    fn counted_decode_tallies_bits_symbols_and_fallbacks() {
        // Exponential frequencies force codes past the table index, so
        // the Long path is exercised.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << i).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let lut = book.lut_decoder();
        assert!(book.max_len() > lut.lut_bits() as u8);
        let msg: Vec<u32> = (0..30).chain((0..30).rev()).collect();
        let mut w = BitWriter::new();
        let mut total_bits = 0u64;
        let mut expect_long = 0u64;
        for &s in &msg {
            book.encode_into(s, &mut w);
            total_bits += book.len_of(s) as u64;
            if book.len_of(s) as u32 > lut.lut_bits() {
                expect_long += 1;
            }
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut c = DecodeCounters::default();
        assert_eq!(
            lut.decode_n_counted(&mut r, msg.len(), &mut c).unwrap(),
            msg
        );
        assert_eq!(c.symbols, msg.len() as u64);
        assert_eq!(c.stall_bits, total_bits, "every code bit is a stall bit");
        // Long codes near the stream tail may resolve through the
        // short-stream path instead of a table hit, so the fallback
        // count is bounded by — and normally equal to — the long-code
        // population.
        assert!(c.long_fallbacks >= 1 && c.long_fallbacks <= expect_long);
        // The reference decoder counts the same bits and symbols.
        let mut r2 = BitReader::new(&bytes);
        let mut c2 = DecodeCounters::default();
        let reference = book.decoder();
        for _ in 0..msg.len() {
            reference.decode_counted(&mut r2, &mut c2).unwrap();
        }
        assert_eq!(c2.symbols, c.symbols);
        assert_eq!(c2.stall_bits, c.stall_bits);
        assert_eq!(c2.long_fallbacks, 0);
    }

    #[test]
    fn metadata_and_table_image_match_reference() {
        let book = CodeBook::from_freqs(&[9, 4, 2, 1]).unwrap();
        let reference = book.decoder();
        let lut = book.lut_decoder();
        assert_eq!(lut.max_len(), reference.max_len());
        assert_eq!(lut.dictionary_size(), reference.dictionary_size());
        assert_eq!(lut.table_image(), reference.table_image());
        assert!(lut.lut_bits() <= DEFAULT_LUT_BITS);
    }

    #[test]
    fn tiny_books_clamp_the_table() {
        let book = CodeBook::from_freqs(&[0, 5]).unwrap();
        let lut = book.lut_decoder();
        assert_eq!(lut.lut_bits(), 1);
        let mut w = BitWriter::new();
        for _ in 0..3 {
            book.encode_into(1, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(lut.decode_n(&mut r, 3).unwrap(), vec![1, 1, 1]);
        assert_differential(&book, &bytes, 0);
    }
}
