//! Stream-based Huffman compression (paper §2.2, Figure 3).
//!
//! Each 40-bit operation is split at fixed bit boundaries into several
//! *streams*; every stream gets its own Huffman table built from the
//! static frequencies of its field values ("certain fields exhibit more
//! repetitive patterns when taken as independent compression streams").
//! An op's encoding is the concatenation of its stream codes.
//!
//! Choosing the best boundary set is exponential (paper: "the choice of
//! best possible stream encoding is an exponential time task; six stream
//! configurations were considered"). The same six-configuration study is
//! reproduced here: [`StreamConfig::ALL`] lists them, with `stream`
//! (the finest split → smallest total decoder) and `stream_1` (two
//! 20-bit halves → smallest code) called out by name as in Figure 5;
//! `stream_explorer` in `ccc-bench` reproduces the selection.

use super::{BlockDecodeError, CompressError, Scheme, SchemeOutput, Step, SymbolCodec};
use crate::encoded::{DecoderCost, EncodedProgram, SchemeKind};
use tepic_isa::Program;
use tinker_huffman::{
    BitReader, BitWriter, CodeBook, DecodeCounters, DecoderComplexity, Dictionary, LutDecoder,
};

/// A stream configuration: cut points over the 40-bit word. `cuts` must
/// start at 0, end at 40, and be strictly increasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Configuration name (Figure 5 uses `stream` and `stream_1`).
    pub name: &'static str,
    /// Cut points; stream `i` covers bits `cuts[i]..cuts[i+1]`.
    pub cuts: &'static [u32],
}

impl StreamConfig {
    /// The six configurations considered in the study.
    ///
    /// Splitting a stream always loses the joint correlation between its
    /// halves (`H(S) ≤ H(S1) + H(S2)`), so *coarser* configurations
    /// compress better — toward Full at the limit — while *finer* ones
    /// keep every per-table `m` and dictionary small, shrinking the total
    /// decoder. Hence, matching Figure 5's callouts:
    ///
    /// * `stream` — the finest field-aligned split (every Table-2
    ///   boundary): the smallest decoder of the family, since each
    ///   per-table `m` and dictionary stays tiny;
    /// * `stream_1` — two 20-bit halves: the smallest code;
    /// * `stream_2`..`stream_5` — the also-rans of the exploration.
    pub const ALL: [StreamConfig; 6] = [
        StreamConfig {
            name: "stream",
            cuts: &[0, 2, 4, 9, 14, 19, 21, 29, 34, 35, 40],
        },
        StreamConfig {
            name: "stream_1",
            cuts: &[0, 20, 40],
        },
        StreamConfig {
            name: "stream_2",
            cuts: &[0, 9, 29, 40],
        },
        StreamConfig {
            name: "stream_3",
            cuts: &[0, 9, 14, 19, 29, 34, 40],
        },
        StreamConfig {
            name: "stream_4",
            cuts: &[0, 9, 19, 29, 40],
        },
        StreamConfig {
            name: "stream_5",
            cuts: &[0, 9, 19, 40],
        },
    ];

    /// Looks a configuration up by name.
    pub fn by_name(name: &str) -> Option<&'static StreamConfig> {
        Self::ALL.iter().find(|c| c.name == name)
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.cuts.len() - 1
    }

    /// `(offset, width)` of stream `i`.
    pub fn stream_bits(&self, i: usize) -> (u32, u32) {
        (self.cuts[i], self.cuts[i + 1] - self.cuts[i])
    }

    /// Validates the cut invariants.
    pub fn is_valid(&self) -> bool {
        self.cuts.first() == Some(&0)
            && self.cuts.last() == Some(&40)
            && self.cuts.windows(2).all(|w| w[0] < w[1])
    }
}

/// Stream-based Huffman scheme over one configuration.
#[derive(Debug, Clone)]
pub struct StreamScheme {
    config: &'static StreamConfig,
    /// Per-stream maximum code length.
    pub max_code_len: u8,
}

impl StreamScheme {
    /// Creates the scheme for a named builtin configuration.
    pub fn named(name: &str) -> Option<StreamScheme> {
        StreamConfig::by_name(name).map(|config| StreamScheme {
            config,
            max_code_len: 20,
        })
    }

    /// Creates the scheme for an explicit configuration.
    pub fn with_config(config: &'static StreamConfig) -> StreamScheme {
        StreamScheme {
            config,
            max_code_len: 20,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &'static StreamConfig {
        self.config
    }
}

fn field(word: u64, off: u32, width: u32) -> u64 {
    (word >> off) & ((1u64 << width) - 1)
}

pub(crate) struct StreamCodec {
    pub(crate) config: &'static StreamConfig,
    /// One table per field stream, visited in stream order: an op is
    /// `num_streams` consecutive codewords.
    pub(crate) tables: Vec<LutDecoder>,
    pub(crate) values: Vec<Vec<u64>>, // per stream: symbol id → field value
}

impl SymbolCodec for StreamCodec {
    /// `num_streams` codes per word, each value OR'd in at its stream's
    /// offset.
    #[inline(always)]
    fn decode_words<S: Step>(
        &self,
        step: S,
        r: &mut BitReader<'_>,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        let mut out = Vec::with_capacity(num_ops);
        let mut bad = false;
        for _ in 0..num_ops {
            let mut word = 0u64;
            for ((table, values), &off) in
                self.tables.iter().zip(&self.values).zip(self.config.cuts)
            {
                let sym = step.step(table, r, counts)?;
                match values.get(sym as usize) {
                    Some(&v) => word |= v << off,
                    None => bad = true,
                }
            }
            out.push(word);
        }
        if bad {
            return Err(BlockDecodeError::BadValue {
                field: "stream symbol",
            });
        }
        Ok(out)
    }

    fn tables_image(&self) -> Vec<u8> {
        let mut img = Vec::new();
        for (si, values) in self.values.iter().enumerate() {
            img.extend_from_slice(&self.tables[si].table_image());
            for v in values {
                img.extend_from_slice(&v.to_le_bytes());
            }
        }
        img
    }

    #[cfg(test)]
    fn tables(&self) -> &[LutDecoder] {
        &self.tables
    }

    #[cfg(test)]
    fn num_symbols(&self, num_ops: usize) -> usize {
        num_ops * self.config.num_streams()
    }

    #[cfg(test)]
    fn table_of(&self, i: usize, _num_ops: usize) -> u32 {
        (i % self.config.num_streams()) as u32
    }

    #[cfg(test)]
    fn assemble(&self, syms: &[u32], num_ops: usize) -> Result<Vec<u64>, BlockDecodeError> {
        let ns = self.config.num_streams();
        let mut out = Vec::with_capacity(num_ops);
        for op_syms in syms.chunks_exact(ns) {
            let mut word = 0u64;
            for (si, &sym) in op_syms.iter().enumerate() {
                let (off, _) = self.config.stream_bits(si);
                let v = self.values[si]
                    .get(sym as usize)
                    .ok_or(BlockDecodeError::BadValue {
                        field: "stream symbol",
                    })?;
                word |= v << off;
            }
            out.push(word);
        }
        Ok(out)
    }
}

impl Scheme for StreamScheme {
    fn name(&self) -> String {
        self.config.name.to_string()
    }

    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError> {
        let (image, codec) = self.build(program)?;
        Ok(SchemeOutput {
            image,
            codec: Box::new(codec),
        })
    }
}

impl StreamScheme {
    /// Compresses `program` into its image and its concrete codec.
    pub(crate) fn build(
        &self,
        program: &Program,
    ) -> Result<(EncodedProgram, StreamCodec), CompressError> {
        if program.num_ops() == 0 {
            return Err(CompressError::EmptyProgram);
        }
        debug_assert!(self.config.is_valid());
        let words = program.op_words();
        let ns = self.config.num_streams();

        // Per-stream dictionaries and Huffman books.
        let mut dicts: Vec<Dictionary<u64>> = vec![Dictionary::new(); ns];
        for &w in &words {
            for (si, dict) in dicts.iter_mut().enumerate() {
                let (off, width) = self.config.stream_bits(si);
                dict.record(field(w, off, width));
            }
        }
        let mut books = Vec::with_capacity(ns);
        for dict in &dicts {
            books.push(CodeBook::bounded_from_freqs(
                dict.freqs(),
                self.max_code_len,
            )?);
        }

        // Encode, block starts byte-aligned.
        let mut wtr = BitWriter::new();
        let mut block_start = Vec::with_capacity(program.num_blocks());
        let mut block_bytes = Vec::with_capacity(program.num_blocks());
        for b in 0..program.num_blocks() {
            wtr.align_byte();
            let start = wtr.bit_len() / 8;
            block_start.push(start);
            for &w in program.block_words(b) {
                for (si, book) in books.iter().enumerate() {
                    let (off, width) = self.config.stream_bits(si);
                    let sym =
                        dicts[si]
                            .id_of(&field(w, off, width))
                            .ok_or(CompressError::Integrity {
                                detail: "stream field missing from its dictionary",
                            })?;
                    book.try_encode_into(sym, &mut wtr)?;
                }
            }
            let end = wtr.bit_len().div_ceil(8);
            block_bytes.push((end - start) as u32);
        }

        let decoders_model: Vec<DecoderComplexity> = books
            .iter()
            .enumerate()
            .map(|(si, book)| DecoderComplexity {
                n: book.max_len() as u32,
                k: book.num_coded(),
                m: self.config.stream_bits(si).1,
            })
            .collect();
        let image = EncodedProgram {
            kind: SchemeKind::Stream(self.config.name.to_string()),
            bytes: wtr.into_bytes(),
            block_start,
            block_bytes,
            decoder: DecoderCost::Huffman(decoders_model),
        };
        let codec = StreamCodec {
            config: self.config,
            tables: books.iter().map(CodeBook::lut_decoder).collect(),
            values: dicts
                .iter()
                .map(|d| (0..d.len() as u32).map(|i| *d.value_of(i)).collect())
                .collect(),
        };
        Ok((image, codec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil::{sample_program, tiny_program};

    #[test]
    fn all_configs_are_valid_partitions() {
        for c in &StreamConfig::ALL {
            assert!(c.is_valid(), "{} invalid", c.name);
            let total: u32 = (0..c.num_streams()).map(|i| c.stream_bits(i).1).sum();
            assert_eq!(total, 40, "{} does not cover 40 bits", c.name);
        }
    }

    #[test]
    fn all_configs_round_trip() {
        let p = sample_program();
        for c in &StreamConfig::ALL {
            let out = StreamScheme::with_config(c).compress(&p).unwrap();
            assert!(out.verify_roundtrip(&p), "{} round trip failed", c.name);
            assert!(out.image.check_layout());
        }
    }

    #[test]
    fn named_lookup() {
        assert!(StreamScheme::named("stream").is_some());
        assert!(StreamScheme::named("stream_1").is_some());
        assert!(StreamScheme::named("nope").is_none());
    }

    #[test]
    fn stream_compresses_below_original() {
        let p = sample_program();
        let out = StreamScheme::named("stream").unwrap().compress(&p).unwrap();
        let r = out.image.ratio(p.code_size());
        assert!(r < 1.0, "stream ratio {r} >= 1");
    }

    #[test]
    fn coarser_split_gives_smaller_code_finer_gives_smaller_decoder() {
        // The entropy argument behind the two Figure-5 callouts:
        // H(S) ≤ H(S1) + H(S2), so the coarse `stream_1` compresses at
        // least as well, while the fine `stream` needs less decoder.
        let p = sample_program();
        let fine = StreamScheme::named("stream").unwrap().compress(&p).unwrap();
        let coarse = StreamScheme::named("stream_1")
            .unwrap()
            .compress(&p)
            .unwrap();
        assert!(
            coarse.image.total_bytes() <= fine.image.total_bytes() + p.num_blocks(),
            "coarse {} vs fine {}",
            coarse.image.total_bytes(),
            fine.image.total_bytes()
        );
        assert!(
            fine.image.decoder.transistors() < coarse.image.decoder.transistors(),
            "fine decoder {} vs coarse {}",
            fine.image.decoder.transistors(),
            coarse.image.decoder.transistors()
        );
    }

    #[test]
    fn decoder_has_one_part_per_stream() {
        let p = sample_program();
        for c in &StreamConfig::ALL {
            let out = StreamScheme::with_config(c).compress(&p).unwrap();
            match &out.image.decoder {
                DecoderCost::Huffman(parts) => assert_eq!(parts.len(), c.num_streams()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn tiny_program_round_trips() {
        let p = tiny_program();
        for c in &StreamConfig::ALL {
            let out = StreamScheme::with_config(c).compress(&p).unwrap();
            assert!(out.verify_roundtrip(&p), "{} tiny failed", c.name);
        }
    }
}
