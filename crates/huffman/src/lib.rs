//! # tinker-huffman — Huffman coding for cached code compression
//!
//! Huffman machinery used by the compression schemes of Larin & Conte
//! (MICRO-32, 1999): canonical Huffman codes over arbitrary dense symbol
//! alphabets, *length-limited* codes via the package–merge algorithm (the
//! paper's "Bounded Huffman" escape for codes too long for the IFetch
//! hardware), MSB-first bit streams, a canonical table decoder, and the
//! paper's worst-case hardware-complexity model for a Huffman-tree decoder
//! (§3.5, Figure 9):
//!
//! ```text
//! T = 2m(2^n − 1) + 4m(2^n − 2^(n−1) − 1) + 2n
//! ```
//!
//! # Example
//!
//! ```
//! use tinker_huffman::{CodeBook, BitWriter, BitReader};
//!
//! # fn main() -> Result<(), tinker_huffman::HuffmanError> {
//! let freqs = [10u64, 3, 1, 1];
//! let book = CodeBook::from_freqs(&freqs)?;
//! let mut w = BitWriter::new();
//! for sym in [0u32, 1, 0, 3, 0] {
//!     book.encode_into(sym, &mut w);
//! }
//! let bytes = w.into_bytes();
//! let decoder = book.decoder();
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(decoder.decode(&mut r), Ok(0));
//! assert_eq!(decoder.decode(&mut r), Ok(1));
//! # Ok(())
//! # }
//! ```

pub mod bitio;
pub mod bounded;
pub mod code;
pub mod complexity;
pub mod decode;
pub mod dict;
pub mod interleave;
pub mod lut;

pub use bitio::{BitReader, BitWriter};
pub use code::{CodeBook, HuffmanError};
pub use complexity::{decoder_transistors, DecoderComplexity};
pub use decode::{CanonicalDecoder, DecodeCounters, DecodeError};
pub use dict::Dictionary;
pub use interleave::InterleavedDecoder;
pub use lut::LutDecoder;

/// Shannon entropy of a frequency distribution, in bits per symbol.
/// Zero-frequency entries are ignored. Returns 0.0 for degenerate inputs.
pub fn entropy_bits(freqs: &[u64]) -> f64 {
    let total: u64 = freqs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / total;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_is_log2() {
        let freqs = [1u64; 8];
        assert!((entropy_bits(&freqs) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_degenerate_is_zero() {
        assert_eq!(entropy_bits(&[]), 0.0);
        assert_eq!(entropy_bits(&[0, 0]), 0.0);
        assert_eq!(entropy_bits(&[5]), 0.0);
    }

    #[test]
    fn entropy_ignores_zero_entries() {
        assert!((entropy_bits(&[2, 0, 2]) - 1.0).abs() < 1e-12);
    }
}
