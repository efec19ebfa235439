//! Encoded program images: the common shape every scheme produces.
//!
//! Whatever the encoding, the fetch path needs the same facts (paper
//! §3.3): the byte address where each block starts (block starts are
//! byte-aligned; ops within a block are packed back to back), each
//! block's encoded size, and the raw bytes (for the memory-bus bit-flip
//! power model).

use std::fmt;
use tinker_huffman::DecoderComplexity;

/// Which encoding produced an image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The original, uncompressed 40-bit encoding (5 bytes per op).
    Base,
    /// Byte-wise Huffman.
    Byte,
    /// Stream-based Huffman with a named configuration.
    Stream(String),
    /// Whole-op ("Full") Huffman.
    Full,
    /// Tailored (program-specific compact) encoding.
    Tailored,
}

impl SchemeKind {
    /// The scheme's figure name (`base`, `byte`, a stream configuration
    /// name, `full`, `tailored`).
    pub fn name(&self) -> &str {
        match self {
            SchemeKind::Base => "base",
            SchemeKind::Byte => "byte",
            SchemeKind::Stream(name) => name,
            SchemeKind::Full => "full",
            SchemeKind::Tailored => "tailored",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hardware cost of the decode machinery a scheme requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecoderCost {
    /// No extra decoder (the Base encoding).
    None,
    /// Huffman tree decoder(s) — one [`DecoderComplexity`] per table
    /// (stream schemes have several). Cost per paper Figure 9's model.
    Huffman(Vec<DecoderComplexity>),
    /// Tailored PLA decoder: `(inputs, product_terms, outputs)`.
    Pla {
        inputs: u32,
        terms: u32,
        outputs: u32,
    },
}

impl DecoderCost {
    /// Total transistor estimate.
    pub fn transistors(&self) -> u128 {
        match self {
            DecoderCost::None => 0,
            DecoderCost::Huffman(parts) => parts.iter().map(|p| p.transistors()).sum(),
            DecoderCost::Pla {
                inputs,
                terms,
                outputs,
            } => crate::pla::pla_transistors(*inputs, *terms, *outputs),
        }
    }

    /// Total dictionary entries across all tables (k in the paper).
    pub fn dictionary_entries(&self) -> usize {
        match self {
            DecoderCost::None | DecoderCost::Pla { .. } => 0,
            DecoderCost::Huffman(parts) => parts.iter().map(|p| p.k).sum(),
        }
    }
}

/// One encoded code segment.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedProgram {
    /// Producing scheme.
    pub kind: SchemeKind,
    /// The encoded code segment; block starts are byte-aligned.
    pub bytes: Vec<u8>,
    /// Byte offset of each block's first operation.
    pub block_start: Vec<u64>,
    /// Encoded size of each block in bytes (including the final byte's
    /// padding bits).
    pub block_bytes: Vec<u32>,
    /// Decode hardware cost.
    pub decoder: DecoderCost,
}

impl EncodedProgram {
    /// Total encoded code-segment size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Compression ratio against an original size (encoded/original;
    /// lower is better — the paper's "percent of original size").
    pub fn ratio(&self, original_bytes: usize) -> f64 {
        if original_bytes == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / original_bytes as f64
    }

    /// Byte range `[start, end)` of a block in this image's address
    /// space.
    pub fn block_range(&self, block: usize) -> (u64, u64) {
        let s = self.block_start[block];
        (s, s + self.block_bytes[block] as u64)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_start.len()
    }

    /// Structural sanity: blocks are in order, non-overlapping, within
    /// the byte buffer.
    pub fn check_layout(&self) -> bool {
        let mut prev_end = 0u64;
        for b in 0..self.num_blocks() {
            let (s, e) = self.block_range(b);
            if s < prev_end || e < s {
                return false;
            }
            prev_end = e;
        }
        prev_end <= self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(kind: SchemeKind) -> EncodedProgram {
        EncodedProgram {
            kind,
            bytes: vec![0; 10],
            block_start: vec![0, 4],
            block_bytes: vec![4, 6],
            decoder: DecoderCost::None,
        }
    }

    #[test]
    fn ratio_and_ranges() {
        let e = dummy(SchemeKind::Full);
        assert_eq!(e.total_bytes(), 10);
        assert!((e.ratio(20) - 0.5).abs() < 1e-12);
        assert_eq!(e.block_range(1), (4, 10));
        assert!(e.check_layout());
    }

    #[test]
    fn layout_check_catches_overlap() {
        let mut e = dummy(SchemeKind::Byte);
        e.block_start = vec![0, 2];
        assert!(!e.check_layout(), "block 1 starts inside block 0");
    }

    #[test]
    fn decoder_cost_sums_parts() {
        let parts = vec![
            DecoderComplexity { n: 4, k: 10, m: 8 },
            DecoderComplexity { n: 4, k: 10, m: 8 },
        ];
        let one = parts[0].transistors();
        let cost = DecoderCost::Huffman(parts);
        assert_eq!(cost.transistors(), 2 * one);
        assert_eq!(cost.dictionary_entries(), 20);
        assert_eq!(DecoderCost::None.transistors(), 0);
    }

    #[test]
    fn scheme_kind_display() {
        assert_eq!(
            SchemeKind::Stream("stream_1".into()).to_string(),
            "stream_1"
        );
        assert_eq!(SchemeKind::Tailored.to_string(), "tailored");
    }
}
