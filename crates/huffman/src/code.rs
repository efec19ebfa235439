//! Canonical Huffman code construction.
//!
//! Code *lengths* come from the classic two-queue Huffman algorithm (or
//! from the package–merge algorithm in [`crate::bounded`] when a length
//! bound is requested); code *bits* are then assigned canonically —
//! shorter codes first, ties broken by symbol index — which is what makes
//! the table-driven decoder of [`crate::decode`] possible.

use crate::bitio::BitWriter;
use crate::bounded::package_merge;
use std::collections::BinaryHeap;
use std::fmt;

/// Errors from code construction or encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffmanError {
    /// No symbol has a nonzero frequency.
    EmptyAlphabet,
    /// A length bound of `max_len` cannot host `symbols` distinct symbols
    /// (needs `2^max_len >= symbols`).
    BoundTooTight { max_len: u8, symbols: usize },
    /// Attempted to encode a symbol that had zero frequency (no code).
    UncodedSymbol { symbol: u32 },
}

impl fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HuffmanError::EmptyAlphabet => write!(f, "no symbol has a nonzero frequency"),
            HuffmanError::BoundTooTight { max_len, symbols } => {
                write!(f, "length bound {max_len} too tight for {symbols} symbols")
            }
            HuffmanError::UncodedSymbol { symbol } => {
                write!(f, "symbol {symbol} has no code (zero frequency)")
            }
        }
    }
}

impl std::error::Error for HuffmanError {}

/// A canonical Huffman code book over a dense alphabet `0..freqs.len()`.
///
/// Symbols with zero frequency receive no code (length 0) and cannot be
/// encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeBook {
    lengths: Vec<u8>,
    codes: Vec<u64>,
    max_len: u8,
    coded_symbols: usize,
}

impl CodeBook {
    /// Builds an optimal (unbounded) Huffman code from symbol frequencies.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::EmptyAlphabet`] when every frequency is zero.
    pub fn from_freqs(freqs: &[u64]) -> Result<CodeBook, HuffmanError> {
        let lengths = huffman_lengths(freqs)?;
        Ok(Self::from_lengths(lengths))
    }

    /// Builds an optimal *length-limited* Huffman code (max code length
    /// `max_len`) using the package–merge algorithm. This is the paper's
    /// "Bounded Huffman" escape for symbol distributions whose optimal
    /// codes would be too long for the fetch hardware.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::EmptyAlphabet`] when every frequency is zero, and
    /// [`HuffmanError::BoundTooTight`] when `2^max_len` is smaller than the
    /// number of nonzero-frequency symbols.
    pub fn bounded_from_freqs(freqs: &[u64], max_len: u8) -> Result<CodeBook, HuffmanError> {
        let lengths = package_merge(freqs, max_len)?;
        Ok(Self::from_lengths(lengths))
    }

    /// Builds the canonical code from externally computed lengths
    /// (length 0 = uncoded symbol). Public so fault-injection tests can
    /// construct deliberately incomplete books; normal construction goes
    /// through [`CodeBook::from_freqs`] / [`CodeBook::bounded_from_freqs`].
    pub fn from_lengths(lengths: Vec<u8>) -> CodeBook {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        // Canonical assignment: sort coded symbols by (length, symbol).
        let mut order: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = vec![0u64; lengths.len()];
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for &s in &order {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }
        let coded_symbols = order.len();
        CodeBook {
            lengths,
            codes,
            max_len,
            coded_symbols,
        }
    }

    /// The code length of `symbol` in bits (0 = no code).
    pub fn len_of(&self, symbol: u32) -> u8 {
        self.lengths[symbol as usize]
    }

    /// The canonical code bits of `symbol` (valid only when
    /// `len_of(symbol) > 0`).
    pub fn code_of(&self, symbol: u32) -> u64 {
        self.codes[symbol as usize]
    }

    /// Longest code length in the book.
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// Number of symbols that have codes (the Huffman *dictionary size*,
    /// `k` in the paper's complexity model).
    pub fn num_coded(&self) -> usize {
        self.coded_symbols
    }

    /// Alphabet size (including uncoded symbols).
    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }

    /// Code lengths for all symbols.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Writes the code for `symbol` into `w`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code.
    pub fn encode_into(&self, symbol: u32, w: &mut BitWriter) {
        let len = self.lengths[symbol as usize];
        assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(self.codes[symbol as usize], len as u32);
    }

    /// Fallible variant of [`CodeBook::encode_into`].
    ///
    /// # Errors
    ///
    /// [`HuffmanError::UncodedSymbol`] when the symbol has no code.
    pub fn try_encode_into(&self, symbol: u32, w: &mut BitWriter) -> Result<(), HuffmanError> {
        let len = *self
            .lengths
            .get(symbol as usize)
            .ok_or(HuffmanError::UncodedSymbol { symbol })?;
        if len == 0 {
            return Err(HuffmanError::UncodedSymbol { symbol });
        }
        w.write_bits(self.codes[symbol as usize], len as u32);
        Ok(())
    }

    /// Total encoded size in bits of a corpus with the given frequencies.
    pub fn total_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * self.lengths[s] as u64)
            .sum()
    }

    /// Average code length in bits per symbol over the given frequencies.
    pub fn average_len(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.total_bits(freqs) as f64 / total as f64
    }

    /// Builds the canonical table decoder for this book — the
    /// bit-serial reference implementation (the paper's Figure-9
    /// hardware model).
    pub fn decoder(&self) -> crate::decode::CanonicalDecoder {
        crate::decode::CanonicalDecoder::new(self)
    }

    /// Builds the lookup-table decoder for this book — the
    /// fast kernel, observationally identical to [`CodeBook::decoder`].
    pub fn lut_decoder(&self) -> crate::lut::LutDecoder {
        crate::lut::LutDecoder::new(self)
    }

    /// Verifies the Kraft inequality `Σ 2^-len ≤ 1` (sanity check; always
    /// true for books built by this crate).
    pub fn kraft_sum(&self) -> f64 {
        self.lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| (0.5f64).powi(l as i32))
            .sum()
    }
}

/// Computes optimal Huffman code lengths via a binary heap.
///
/// Single-symbol alphabets get length 1 (a real stored bit, matching what
/// hardware would do).
fn huffman_lengths(freqs: &[u64]) -> Result<Vec<u8>, HuffmanError> {
    #[derive(PartialEq, Eq)]
    struct Node {
        freq: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for min-heap; tie-break on id for determinism.
            other.freq.cmp(&self.freq).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let coded: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    if coded.is_empty() {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let mut lengths = vec![0u8; freqs.len()];
    if coded.len() == 1 {
        lengths[coded[0]] = 1;
        return Ok(lengths);
    }

    // Internal tree: nodes 0..coded.len() are leaves, the rest internal.
    let mut heap = BinaryHeap::new();
    let mut parent: Vec<usize> = vec![usize::MAX; coded.len()];
    for (leaf, &_sym) in coded.iter().enumerate() {
        heap.push(Node {
            freq: freqs[coded[leaf]],
            id: leaf,
        });
    }
    let mut next_id = coded.len();
    let mut parents_of_internal: Vec<usize> = Vec::new();
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let id = next_id;
        next_id += 1;
        parents_of_internal.push(usize::MAX);
        for child in [a.id, b.id] {
            if child < coded.len() {
                parent[child] = id;
            } else {
                parents_of_internal[child - coded.len()] = id;
            }
        }
        heap.push(Node {
            freq: a.freq.saturating_add(b.freq),
            id,
        });
    }
    // Depth of each leaf = chain length to root.
    for (leaf, &sym) in coded.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = parent[leaf];
        while node != usize::MAX {
            depth += 1;
            node = parents_of_internal[node - coded.len()];
        }
        lengths[sym] = depth.min(255) as u8;
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy_bits;

    #[test]
    fn classic_example_lengths() {
        // Frequencies 45,13,12,16,9,5 — the CLRS example; optimal lengths
        // are 1,3,3,3,4,4.
        let freqs = [45u64, 13, 12, 16, 9, 5];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let mut lens: Vec<u8> = book.lengths().to_vec();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 3, 3, 3, 4, 4]);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let book = CodeBook::from_freqs(&[0, 7, 0]).unwrap();
        assert_eq!(book.len_of(1), 1);
        assert_eq!(book.num_coded(), 1);
        assert_eq!(book.total_bits(&[0, 7, 0]), 7);
    }

    #[test]
    fn empty_alphabet_rejected() {
        assert_eq!(
            CodeBook::from_freqs(&[0, 0]).unwrap_err(),
            HuffmanError::EmptyAlphabet
        );
        assert_eq!(
            CodeBook::from_freqs(&[]).unwrap_err(),
            HuffmanError::EmptyAlphabet
        );
    }

    #[test]
    fn codes_are_prefix_free() {
        let freqs: Vec<u64> = (1..=40).map(|i| i * i).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        for a in 0..freqs.len() as u32 {
            for b in 0..freqs.len() as u32 {
                if a == b {
                    continue;
                }
                let (la, lb) = (book.len_of(a), book.len_of(b));
                if la <= lb {
                    let prefix = book.code_of(b) >> (lb - la);
                    assert_ne!(prefix, book.code_of(a), "code {a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn average_length_within_one_bit_of_entropy() {
        let freqs: Vec<u64> = vec![1000, 500, 200, 100, 50, 20, 10, 5, 2, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let h = entropy_bits(&freqs);
        let avg = book.average_len(&freqs);
        assert!(avg >= h - 1e-9, "avg {avg} below entropy {h}");
        assert!(avg < h + 1.0, "avg {avg} not within 1 bit of entropy {h}");
    }

    #[test]
    fn kraft_equality_for_full_trees() {
        let freqs = [5u64, 4, 3, 2, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        assert!((book.kraft_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_codes_are_sorted_numerically_by_length() {
        let freqs = [40u64, 30, 20, 10, 5, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        // Within the same length, codes must increase with symbol index.
        for len in 1..=book.max_len() {
            let syms: Vec<u32> = (0..freqs.len() as u32)
                .filter(|&s| book.len_of(s) == len)
                .collect();
            for pair in syms.windows(2) {
                assert!(book.code_of(pair[0]) < book.code_of(pair[1]));
            }
        }
    }

    #[test]
    fn bounded_respects_limit_and_stays_near_optimal() {
        // Exponential frequencies force long optimal codes.
        let freqs: Vec<u64> = (0..20).map(|i| 1u64 << i).collect();
        let opt = CodeBook::from_freqs(&freqs).unwrap();
        assert!(opt.max_len() > 8);
        let bounded = CodeBook::bounded_from_freqs(&freqs, 8).unwrap();
        assert!(bounded.max_len() <= 8);
        assert!(bounded.kraft_sum() <= 1.0 + 1e-12);
        assert!(bounded.total_bits(&freqs) >= opt.total_bits(&freqs));
    }

    #[test]
    fn bound_too_tight_rejected() {
        let freqs = [1u64; 10];
        let err = CodeBook::bounded_from_freqs(&freqs, 3).unwrap_err();
        assert_eq!(
            err,
            HuffmanError::BoundTooTight {
                max_len: 3,
                symbols: 10
            }
        );
    }

    #[test]
    fn try_encode_rejects_uncoded() {
        let book = CodeBook::from_freqs(&[1, 0]).unwrap();
        let mut w = BitWriter::new();
        assert!(book.try_encode_into(1, &mut w).is_err());
        assert!(book.try_encode_into(7, &mut w).is_err());
        assert!(book.try_encode_into(0, &mut w).is_ok());
    }

    #[test]
    fn total_bits_matches_sum() {
        let freqs = [3u64, 2, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let expect: u64 = freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * book.len_of(s as u32) as u64)
            .sum();
        assert_eq!(book.total_bits(&freqs), expect);
    }
}
