//! Byte-wise Huffman compression (paper §2.2, the Wolfe-style alphabet).
//!
//! The code segment is treated as a stream of bytes (5 per op); one
//! canonical Huffman table over the ≤256 byte values compresses it. The
//! decoder is the smallest of all Huffman schemes (`m = 8`, small `n`)
//! at an intermediate compression ratio — the paper measures ≈72% of the
//! original size.

use super::{BlockDecodeError, CompressError, Scheme, SchemeOutput, Step, SymbolCodec};
use crate::encoded::{DecoderCost, EncodedProgram, SchemeKind};
use tepic_isa::{Program, OP_BYTES};
use tinker_huffman::{
    BitReader, BitWriter, CodeBook, DecodeCounters, DecoderComplexity, LutDecoder,
};

/// Byte-alphabet Huffman scheme.
#[derive(Debug, Clone, Copy)]
pub struct ByteScheme {
    /// Maximum Huffman code length (bounded Huffman escape). The default
    /// of 10 keeps the whole decoder a single 2¹⁰-entry direct-indexed
    /// table — the reason byte-wise decode hardware is the smallest of
    /// the Huffman family (§3.5: "the limited input width and dictionary
    /// size of byte-wise compression"). The 256-symbol alphabet is dense,
    /// so the bound costs almost nothing in compression.
    pub max_code_len: u8,
}

impl Default for ByteScheme {
    fn default() -> ByteScheme {
        ByteScheme { max_code_len: 10 }
    }
}

pub(crate) struct ByteCodec {
    /// The LUT fast path decodes identically to the bit-serial
    /// reference (`CodeBook::decoder`); hardware cost is still modelled
    /// on the reference (`DecoderComplexity` below).
    table: LutDecoder,
}

impl SymbolCodec for ByteCodec {
    /// Five codes per word, its little-endian bytes.
    #[inline(always)]
    fn decode_words<S: Step>(
        &self,
        step: S,
        r: &mut BitReader<'_>,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        let mut out = Vec::with_capacity(num_ops);
        for _ in 0..num_ops {
            let mut word = 0u64;
            for k in 0..OP_BYTES {
                let byte = step.step(&self.table, r, counts)? as u8;
                word |= u64::from(byte) << (8 * k);
            }
            out.push(word);
        }
        Ok(out)
    }

    fn tables_image(&self) -> Vec<u8> {
        self.table.table_image()
    }

    #[cfg(test)]
    fn tables(&self) -> &[LutDecoder] {
        std::slice::from_ref(&self.table)
    }

    #[cfg(test)]
    fn num_symbols(&self, num_ops: usize) -> usize {
        num_ops * OP_BYTES
    }

    #[cfg(test)]
    fn table_of(&self, _i: usize, _num_ops: usize) -> u32 {
        0
    }

    #[cfg(test)]
    fn assemble(&self, syms: &[u32], num_ops: usize) -> Result<Vec<u64>, BlockDecodeError> {
        let mut out = Vec::with_capacity(num_ops);
        for chunk in syms.chunks_exact(OP_BYTES) {
            let mut w = [0u8; 8];
            for (byte, &sym) in w.iter_mut().zip(chunk) {
                *byte = sym as u8;
            }
            out.push(u64::from_le_bytes(w));
        }
        Ok(out)
    }
}

impl Scheme for ByteScheme {
    fn name(&self) -> String {
        "byte".to_string()
    }

    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError> {
        let (image, codec) = self.build(program)?;
        Ok(SchemeOutput {
            image,
            codec: Box::new(codec),
        })
    }
}

impl ByteScheme {
    /// Compresses `program` into its image and its concrete codec.
    pub(crate) fn build(
        &self,
        program: &Program,
    ) -> Result<(EncodedProgram, ByteCodec), CompressError> {
        if program.num_ops() == 0 {
            return Err(CompressError::EmptyProgram);
        }
        // Static histogram over all code bytes.
        let code = program.code_bytes();
        let mut freqs = [0u64; 256];
        for &b in &code {
            freqs[b as usize] += 1;
        }
        let book = CodeBook::bounded_from_freqs(&freqs, self.max_code_len)?;

        let mut w = BitWriter::new();
        let mut block_start = Vec::with_capacity(program.num_blocks());
        let mut block_bytes = Vec::with_capacity(program.num_blocks());
        for b in 0..program.num_blocks() {
            w.align_byte();
            let start = w.bit_len() / 8;
            block_start.push(start);
            let (s, e) = program.block_byte_range(b);
            for &byte in &code[s as usize..e as usize] {
                book.try_encode_into(byte as u32, &mut w)?;
            }
            let end = w.bit_len().div_ceil(8);
            block_bytes.push((end - start) as u32);
        }
        let decoder_model = DecoderComplexity {
            n: book.max_len() as u32,
            k: book.num_coded(),
            m: 8,
        };
        let image = EncodedProgram {
            kind: SchemeKind::Byte,
            bytes: w.into_bytes(),
            block_start,
            block_bytes,
            decoder: DecoderCost::Huffman(vec![decoder_model]),
        };
        let codec = ByteCodec {
            table: book.lut_decoder(),
        };
        Ok((image, codec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil::{sample_program, tiny_program};

    #[test]
    fn compresses_below_original() {
        let p = sample_program();
        let out = ByteScheme::default().compress(&p).unwrap();
        assert!(out.image.total_bytes() < p.code_size());
        assert!(out.verify_roundtrip(&p));
    }

    #[test]
    fn ratio_in_paper_ballpark() {
        // Paper: byte-wise lands around 72% of original. Accept a broad
        // band — our op mix differs — but it must be a *moderate* ratio,
        // neither trivial nor worse than 1.
        let p = sample_program();
        let out = ByteScheme::default().compress(&p).unwrap();
        let r = out.image.ratio(p.code_size());
        assert!(r > 0.35 && r < 0.95, "byte ratio {r} out of plausible band");
    }

    #[test]
    fn block_starts_are_byte_aligned_and_ordered() {
        let p = sample_program();
        let out = ByteScheme::default().compress(&p).unwrap();
        assert!(out.image.check_layout());
        // Every block decodes independently from its byte offset (this is
        // what lets the ATB point anywhere).
        assert!(out.verify_roundtrip(&p));
    }

    #[test]
    fn tiny_program_works() {
        let p = tiny_program();
        let out = ByteScheme::default().compress(&p).unwrap();
        assert!(out.verify_roundtrip(&p));
    }

    #[test]
    fn decoder_model_reports_byte_width() {
        let p = sample_program();
        let out = ByteScheme::default().compress(&p).unwrap();
        match &out.image.decoder {
            DecoderCost::Huffman(parts) => {
                assert_eq!(parts.len(), 1);
                assert_eq!(parts[0].m, 8);
                assert!(parts[0].k <= 256);
                assert!(parts[0].n as u8 <= ByteScheme::default().max_code_len);
            }
            other => panic!("unexpected decoder {other:?}"),
        }
    }

    #[test]
    fn tighter_bound_grows_output_but_shrinks_decoder() {
        let p = sample_program();
        let loose = ByteScheme { max_code_len: 16 }.compress(&p).unwrap();
        let tight = ByteScheme { max_code_len: 9 }.compress(&p).unwrap();
        assert!(tight.image.total_bytes() >= loose.image.total_bytes());
        assert!(tight.image.decoder.transistors() <= loose.image.decoder.transistors());
        assert!(tight.verify_roundtrip(&p));
    }
}
