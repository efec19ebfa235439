//! Canonical table-driven Huffman decoding.
//!
//! Models the software view of the PLA decoder: per-length `first_code` /
//! `first_index` tables over the canonical code space. Decoding consumes
//! one bit at a time, exactly like the paper's Huffman-tree hardware
//! (Figure 9) walks one level per multiplexer row.
//!
//! Decoding is fallible with a typed [`DecodeError`]: embedded ROMs see
//! real bit errors, and a corrupted stream must be distinguishable from
//! a legitimately exhausted one. `UnexpectedEos` means the stream ran
//! out mid-symbol; `InvalidCode` means the accumulated prefix can no
//! longer match any code in the book (detected at the earliest possible
//! bit); `LengthOverflow` means `max_len` bits were consumed without a
//! match — unreachable for complete canonical books, kept as a safety
//! net for hand-built tables.

use crate::bitio::BitReader;
use crate::code::CodeBook;
use std::fmt;

/// Why canonical decoding failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit stream ended in the middle of a codeword.
    UnexpectedEos {
        /// Bit position where the stream ran out.
        at_bit: u64,
    },
    /// The accumulated prefix exceeds every code in the book; no
    /// continuation can produce a valid symbol.
    InvalidCode {
        /// Bit position just past the offending bit.
        at_bit: u64,
    },
    /// `max_len` bits were read without reaching a code. Unreachable
    /// for complete canonical books; guards incomplete tables.
    LengthOverflow {
        /// Bit position after the final bit examined.
        at_bit: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEos { at_bit } => {
                write!(f, "bit stream ended mid-codeword at bit {at_bit}")
            }
            DecodeError::InvalidCode { at_bit } => {
                write!(f, "invalid Huffman code detected at bit {at_bit}")
            }
            DecodeError::LengthOverflow { at_bit } => {
                write!(f, "no code matched within max length at bit {at_bit}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode-effort counters, tallied by the `*_counted` decode variants.
///
/// Plain (non-atomic) `u64`s by design: the decoders sit on the
/// simulator's hottest loop, and the uncounted entry points pass a
/// throwaway instance that the optimizer strips — callers that want the
/// numbers thread their own instance through and fold it into the
/// telemetry registry afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// Symbols successfully decoded.
    pub symbols: u64,
    /// Codewords that overflowed the first-level lookup table and took
    /// the bit-serial reference walk (the `Long` table entry). Always 0
    /// for the reference decoder itself.
    pub long_fallbacks: u64,
    /// Total bits consumed across all codewords (including the bits of
    /// a terminal error prefix). The paper's Figure-9 tree decoder
    /// resolves one level — one bit — per cycle, so this doubles as the
    /// modelled decode-stall cycle count.
    pub stall_bits: u64,
}

impl DecodeCounters {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &DecodeCounters) {
        self.symbols += other.symbols;
        self.long_fallbacks += other.long_fallbacks;
        self.stall_bits += other.stall_bits;
    }
}

/// What the reference decode loop does with a fixed-width bit prefix —
/// the unit [`crate::lut::LutDecoder`] tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrefixClass {
    /// A code of length `len` matches the top of the prefix.
    Sym {
        /// Decoded symbol.
        sym: u32,
        /// Codeword length in bits.
        len: u8,
    },
    /// The walk raises [`DecodeError::InvalidCode`] after `depth` bits.
    Invalid {
        /// Bits consumed before the error.
        depth: u8,
    },
    /// The walk raises [`DecodeError::LengthOverflow`] after `depth`
    /// (= `max_len`) bits.
    Overflow {
        /// Bits consumed before the error.
        depth: u8,
    },
    /// The codeword is longer than the prefix: more bits are needed.
    Long,
}

/// A canonical Huffman decoder built from a [`CodeBook`].
#[derive(Debug, Clone)]
pub struct CanonicalDecoder {
    /// `first_code[l]` = canonical code value of the first code of length l.
    first_code: Vec<u64>,
    /// `first_index[l]` = index into `symbols` of that first code.
    first_index: Vec<usize>,
    /// Number of codes of each length.
    count: Vec<usize>,
    /// Symbols in canonical order.
    symbols: Vec<u32>,
    /// `last_code[l]` = value of the deepest code, right-shifted to
    /// length l: a prefix of length l that exceeds this can never match.
    last_code: Vec<u64>,
    max_len: u8,
}

impl CanonicalDecoder {
    /// Builds the decoder tables.
    pub fn new(book: &CodeBook) -> CanonicalDecoder {
        let max_len = book.max_len();
        let mut symbols: Vec<u32> = (0..book.alphabet_size() as u32)
            .filter(|&s| book.len_of(s) > 0)
            .collect();
        symbols.sort_by_key(|&s| (book.len_of(s), s));
        let mut first_code = vec![0u64; max_len as usize + 1];
        let mut first_index = vec![0usize; max_len as usize + 1];
        let mut count = vec![0usize; max_len as usize + 1];
        for &s in &symbols {
            count[book.len_of(s) as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0usize;
        for l in 1..=max_len as usize {
            code <<= 1;
            first_code[l] = code;
            first_index[l] = index;
            code += count[l] as u64;
            index += count[l];
        }
        // Deepest nonempty level and its last code value, projected up
        // to every shallower length for early invalid-prefix detection.
        let mut last_code = vec![0u64; max_len as usize + 1];
        let deepest = (1..=max_len as usize).rev().find(|&l| count[l] > 0);
        if let Some(j) = deepest {
            let last = first_code[j] + count[j] as u64 - 1;
            for (l, slot) in last_code.iter_mut().enumerate().skip(1) {
                *slot = if l <= j { last >> (j - l) } else { u64::MAX };
            }
        }
        CanonicalDecoder {
            first_code,
            first_index,
            count,
            symbols,
            last_code,
            max_len,
        }
    }

    /// Decodes one symbol from the reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        let mut code = 0u64;
        for l in 1..=self.max_len as usize {
            let bit = r.read_bit().ok_or(DecodeError::UnexpectedEos {
                at_bit: r.bit_pos(),
            })? as u64;
            code = (code << 1) | bit;
            if self.count[l] > 0 {
                let offset = code.wrapping_sub(self.first_code[l]);
                if code >= self.first_code[l] && (offset as usize) < self.count[l] {
                    return Ok(self.symbols[self.first_index[l] + offset as usize]);
                }
            }
            // A prefix beyond the projection of the deepest last code
            // cannot be extended into any valid codeword: fail now
            // instead of consuming the rest of the block.
            if code > self.last_code[l] {
                return Err(DecodeError::InvalidCode {
                    at_bit: r.bit_pos(),
                });
            }
        }
        Err(DecodeError::LengthOverflow {
            at_bit: r.bit_pos(),
        })
    }

    /// Decodes one symbol while tallying decode effort: the bits
    /// consumed (= Figure-9 stall cycles, one tree level per cycle) and
    /// the symbol count. Behaviour is identical to
    /// [`CanonicalDecoder::decode`].
    ///
    /// # Errors
    ///
    /// Exactly the errors [`CanonicalDecoder::decode`] produces; the
    /// bits of the failing prefix are still charged to `stall_bits`.
    pub fn decode_counted(
        &self,
        r: &mut BitReader<'_>,
        counts: &mut DecodeCounters,
    ) -> Result<u32, DecodeError> {
        let start = r.bit_pos();
        let res = self.decode(r);
        counts.stall_bits += r.bit_pos() - start;
        if res.is_ok() {
            counts.symbols += 1;
        }
        res
    }

    /// Walks the reference decode loop over the top `nbits` bits of
    /// `prefix` without touching a reader — exactly the branch sequence
    /// [`CanonicalDecoder::decode`] takes, so [`crate::lut::LutDecoder`]
    /// can precompute the outcome (an error and its depth) for every
    /// table index that no code covers.
    pub(crate) fn classify_prefix(&self, prefix: u64, nbits: u32) -> PrefixClass {
        let mut code = 0u64;
        for l in 1..=self.max_len as u32 {
            if l > nbits {
                return PrefixClass::Long;
            }
            let bit = (prefix >> (nbits - l)) & 1;
            code = (code << 1) | bit;
            let li = l as usize;
            if self.count[li] > 0 {
                let offset = code.wrapping_sub(self.first_code[li]);
                if code >= self.first_code[li] && (offset as usize) < self.count[li] {
                    return PrefixClass::Sym {
                        sym: self.symbols[self.first_index[li] + offset as usize],
                        len: l as u8,
                    };
                }
            }
            if code > self.last_code[li] {
                return PrefixClass::Invalid { depth: l as u8 };
            }
        }
        PrefixClass::Overflow {
            depth: self.max_len,
        }
    }

    /// The symbols coded with length `l`, in canonical order: their
    /// codes are consecutive values starting at `first_code[l]`, so
    /// [`crate::lut::LutDecoder`] fills its table from them in order.
    pub(crate) fn symbols_of_len(&self, l: usize) -> &[u32] {
        let start = self.first_index[l];
        &self.symbols[start..start + self.count[l]]
    }

    /// The deepest code of the book: its length and value. Every prefix
    /// up to this code's projection either is a code or extends to one.
    pub(crate) fn deepest_code(&self) -> Option<(u8, u64)> {
        (1..=self.max_len as usize)
            .rev()
            .find(|&l| self.count[l] > 0)
            .map(|l| (l as u8, self.first_code[l] + self.count[l] as u64 - 1))
    }

    /// Decodes exactly `n` symbols, failing on the first corrupt or
    /// truncated codeword.
    pub fn decode_n(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.decode(r)?);
        }
        Ok(out)
    }

    /// Longest code length this decoder handles (`n` in the paper's
    /// complexity model).
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// Dictionary size (`k` in the paper's complexity model).
    pub fn dictionary_size(&self) -> usize {
        self.symbols.len()
    }

    /// Serializes the decode tables to bytes for integrity checking.
    ///
    /// The layout is deterministic (lengths then symbols, little
    /// endian), so equal decoders produce equal images and any bit
    /// difference in the tables changes the image.
    pub fn table_image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.max_len);
        for l in 0..=self.max_len as usize {
            out.extend_from_slice(&(self.count[l] as u32).to_le_bytes());
            out.extend_from_slice(&self.first_code[l].to_le_bytes());
            out.extend_from_slice(&(self.first_index[l] as u32).to_le_bytes());
        }
        for &s in &self.symbols {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    fn round_trip(freqs: &[u64], message: &[u32]) {
        let book = CodeBook::from_freqs(freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in message {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let dec = book.decoder();
        let mut r = BitReader::new(&bytes);
        let out = dec.decode_n(&mut r, message.len()).expect("decodes");
        assert_eq!(out, message);
    }

    #[test]
    fn simple_round_trip() {
        round_trip(&[10, 3, 1, 1], &[0, 1, 2, 3, 0, 0, 1]);
    }

    #[test]
    fn skewed_round_trip() {
        let freqs: Vec<u64> = (0..32).map(|i| 1u64 << (31 - i)).collect();
        let msg: Vec<u32> = (0..32).chain((0..32).rev()).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn single_symbol_round_trip() {
        round_trip(&[0, 5], &[1, 1, 1]);
    }

    #[test]
    fn bounded_book_round_trip() {
        let freqs: Vec<u64> = (0..64).map(|i| (i as u64 + 1) * (i as u64 + 1)).collect();
        let book = CodeBook::bounded_from_freqs(&freqs, 9).unwrap();
        let msg: Vec<u32> = (0..64).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let dec = book.decoder();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode_n(&mut r, msg.len()).unwrap(), msg);
    }

    #[test]
    fn truncated_stream_is_unexpected_eos() {
        let book = CodeBook::from_freqs(&[1, 1, 1, 1]).unwrap();
        let dec = book.decoder();
        // One symbol needs 2 bits; give it only 1 byte = 4 symbols max,
        // then ask for 5.
        let mut w = BitWriter::new();
        for s in [0u32, 1, 2, 3] {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(
            dec.decode_n(&mut r, 5),
            Err(DecodeError::UnexpectedEos { .. })
        ));
    }

    #[test]
    fn empty_stream_is_unexpected_eos() {
        let book = CodeBook::from_freqs(&[3, 2, 1]).unwrap();
        let dec = book.decoder();
        let mut r = BitReader::new(&[]);
        assert_eq!(
            dec.decode(&mut r),
            Err(DecodeError::UnexpectedEos { at_bit: 0 })
        );
    }

    #[test]
    fn invalid_prefix_detected_early() {
        // Lengths {1, 2, 2} leave no length-3 codes: a skewed book where
        // a sufficiently large prefix can never resolve.
        let book = CodeBook::from_freqs(&[4, 1, 1]).unwrap();
        let dec = book.decoder();
        // All-ones forever would decode the deepest code repeatedly;
        // instead build a book with a hole: lengths {1,3,3} is not
        // canonical-complete, so exercise via an incomplete stream of a
        // deep book: prefix 11 when the deepest code is 10 (len 2).
        // from_freqs(&[4,1,1]) gives codes 0, 10, 11 — complete, so any
        // prefix resolves. Use a bounded book with an uncoded tail
        // instead: freqs [8, 4, 2, 1, 0] → lengths 1,2,3,3 (complete).
        // Canonical Huffman books over all-coded alphabets are always
        // complete, so InvalidCode requires corrupt *tables* or a
        // truncated symbol set. Emulate by decoding with a decoder whose
        // book is missing the deep half: symbols {0,1} of a 3-symbol
        // book, i.e. a book built from lengths directly.
        let partial = CodeBook::from_lengths(vec![1, 2, 0]);
        let pdec = partial.decoder();
        // Code space: 0 (len 1), 10 (len 2); prefix 11 is invalid.
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(
            pdec.decode(&mut r),
            Err(DecodeError::InvalidCode { at_bit: 2 })
        ));
        // The complete book still decodes the same stream fine.
        let mut r2 = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r2), Ok(2));
    }

    #[test]
    fn decoder_metadata_matches_book() {
        let freqs = [9u64, 4, 0, 2, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let dec = book.decoder();
        assert_eq!(dec.dictionary_size(), 4);
        assert_eq!(dec.max_len(), book.max_len());
    }

    #[test]
    fn table_image_is_deterministic_and_sensitive() {
        let book = CodeBook::from_freqs(&[9, 4, 2, 1]).unwrap();
        let a = book.decoder().table_image();
        let b = book.decoder().table_image();
        assert_eq!(a, b);
        let other = CodeBook::from_freqs(&[1, 1, 1, 1]).unwrap();
        assert_ne!(a, other.decoder().table_image());
    }
}
