//! The compression schemes (paper §2.2) and the tailored encoder (§2.3).
//!
//! Each scheme implements [`Scheme`], producing a [`SchemeOutput`] whose
//! [`SchemeOutput::verify_roundtrip`] proves losslessness against the
//! original program. The module-level table of all standard schemes
//! ([`standard_schemes`]) drives the Figure-5/7/10 experiments.

pub mod base;
pub mod byte;
pub mod full;
pub mod pair;
pub mod stream;
pub mod tailored;

use crate::encoded::EncodedProgram;
use crate::integrity::IntegrityError;
use std::fmt;
use tepic_isa::Program;
use tinker_huffman::{BitReader, DecodeCounters, DecodeError, LutDecoder};

/// Compression failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The program has no code.
    EmptyProgram,
    /// Huffman construction failed (propagated).
    Huffman(tinker_huffman::HuffmanError),
    /// A field value exceeded the tailored width computed for it — an
    /// internal invariant violation.
    TailoredOverflow { field: &'static str },
    /// A symbol recorded during the frequency scan was missing from the
    /// dictionary at encode time — the two passes disagree, so the
    /// image's decode tables cannot be trusted.
    Integrity { detail: &'static str },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::EmptyProgram => write!(f, "program has no code"),
            CompressError::Huffman(e) => write!(f, "huffman failure: {e}"),
            CompressError::TailoredOverflow { field } => {
                write!(f, "tailored width overflow in field {field}")
            }
            CompressError::Integrity { detail } => {
                write!(f, "compression integrity violation: {detail}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

impl From<tinker_huffman::HuffmanError> for CompressError {
    fn from(e: tinker_huffman::HuffmanError) -> Self {
        CompressError::Huffman(e)
    }
}

/// Why decoding one block of an encoded image failed. Errors never
/// escape the block that raised them: every block starts byte-aligned,
/// so the decoder resynchronizes at the next block boundary — the
/// paper's atomic fetch unit is also the corruption-containment unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDecodeError {
    /// A Huffman codeword was corrupt or truncated.
    Code(DecodeError),
    /// Fixed-width fields ran past the end of the block's bytes.
    Eos,
    /// A decoded field value is outside its dense table (tailored) or
    /// otherwise impossible.
    BadValue { field: &'static str },
    /// An integrity check rejected the block before decode.
    Integrity(IntegrityError),
}

impl fmt::Display for BlockDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockDecodeError::Code(e) => write!(f, "corrupt codeword: {e}"),
            BlockDecodeError::Eos => write!(f, "block ended mid-operation"),
            BlockDecodeError::BadValue { field } => {
                write!(f, "decoded value out of range for field {field}")
            }
            BlockDecodeError::Integrity(e) => write!(f, "integrity check failed: {e}"),
        }
    }
}

impl std::error::Error for BlockDecodeError {}

impl From<DecodeError> for BlockDecodeError {
    fn from(e: DecodeError) -> Self {
        BlockDecodeError::Code(e)
    }
}

impl From<IntegrityError> for BlockDecodeError {
    fn from(e: IntegrityError) -> Self {
        BlockDecodeError::Integrity(e)
    }
}

/// A scheme's full output: the image plus the codec needed to decode it
/// (in hardware this is the PLA contents; here it also powers the
/// round-trip verification).
pub struct SchemeOutput {
    /// The encoded image.
    pub image: EncodedProgram,
    /// Block decoder: given the image bytes and a block id, reproduce the
    /// original 40-bit words of that block.
    pub codec: Box<dyn BlockCodec>,
}

impl fmt::Debug for SchemeOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeOutput")
            .field("image", &self.image)
            .finish_non_exhaustive()
    }
}

impl SchemeOutput {
    /// Decodes every block and compares with the original op words.
    pub fn verify_roundtrip(&self, program: &Program) -> bool {
        (0..program.num_blocks()).all(|b| {
            let expect = program.block_words(b);
            matches!(self.codec.decode_block(&self.image, b, expect.len()),
                Ok(words) if words == expect)
        })
    }
}

/// Decoding interface over an [`EncodedProgram`]. Codecs are immutable
/// decode tables, so the trait requires `Send + Sync`: a serving layer
/// can memoize one codec per image and share it across worker threads.
pub trait BlockCodec: Send + Sync {
    /// Decodes block `b` (which holds `num_ops` operations) back to its
    /// original 40-bit words.
    ///
    /// # Errors
    ///
    /// [`BlockDecodeError`] on corrupt or truncated input; the failure
    /// is contained to this block (blocks decode independently from
    /// byte-aligned starts).
    fn decode_block(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError>;

    /// [`BlockCodec::decode_block`] with decode-effort telemetry folded
    /// into `counts`: symbols decoded, modelled stall bits (one Figure-9
    /// tree level per bit) and first-level LUT overflows. The default
    /// decodes without counting — correct for codecs with no serial
    /// Huffman machinery (Base's raw words, Tailored's fixed-width
    /// fields resolve in parallel, stalling nothing).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`BlockCodec::decode_block`] produces.
    fn decode_block_counted(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        let _ = counts;
        self.decode_block(image, b, num_ops)
    }

    /// [`BlockCodec::decode_block`] forced down the bit-serial
    /// *reference* decode path, bypassing any LUT fast-path machinery.
    /// This is the graceful-degradation fallback the fetch engine takes
    /// when the fast path errors (DESIGN.md §13): the reference decoder
    /// shares no lookup tables with the LUT, so a corrupted table
    /// cannot poison both. Codecs with no LUT (Base, Tailored) keep the
    /// default, which is just [`BlockCodec::decode_block`].
    ///
    /// # Errors
    ///
    /// [`BlockDecodeError`] when the underlying bytes are themselves
    /// corrupt — then both paths fail and the block is genuinely lost.
    fn decode_block_reference(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        self.decode_block(image, b, num_ops)
    }

    /// Serializes the codec's decode tables (Huffman dictionaries,
    /// dense renumberings) into a deterministic byte image, the unit the
    /// dictionary CRC protects. Empty for codecs with no tables (Base).
    fn dictionary_image(&self) -> Vec<u8>;
}

/// How a codec's block loop decodes one codeword from a table: through
/// its LUT fast path ([`Lut`]) or through the bit-serial reference
/// decoder embedded in it ([`Reference`]), which shares no lookup table
/// with the LUT (the graceful-degradation path, DESIGN.md §13). Every
/// Huffman codec's block loop is generic over this one step, so both
/// paths run the same loop.
pub(crate) trait Step: Copy {
    /// Decodes one codeword with `table`, folding its effort into
    /// `counts`.
    fn step(
        self,
        table: &LutDecoder,
        r: &mut BitReader<'_>,
        counts: &mut DecodeCounters,
    ) -> Result<u32, DecodeError>;
}

/// The LUT fast path: [`LutDecoder::decode_counted`].
#[derive(Clone, Copy)]
pub(crate) struct Lut;

impl Step for Lut {
    #[inline(always)]
    fn step(
        self,
        table: &LutDecoder,
        r: &mut BitReader<'_>,
        counts: &mut DecodeCounters,
    ) -> Result<u32, DecodeError> {
        table.decode_counted(r, counts)
    }
}

/// The bit-serial path: the table's embedded [`tinker_huffman::CanonicalDecoder`].
#[derive(Clone, Copy)]
pub(crate) struct Reference;

impl Step for Reference {
    #[inline]
    fn step(
        self,
        table: &LutDecoder,
        r: &mut BitReader<'_>,
        counts: &mut DecodeCounters,
    ) -> Result<u32, DecodeError> {
        table.reference().decode_counted(r, counts)
    }
}

/// The shared shape of every Huffman block codec: one block loop that
/// decodes a block's codewords straight into its op words, generic over
/// the [`Step`] that decodes one codeword. The blanket [`BlockCodec`]
/// impl below derives the whole `decode_block*` triplet from it.
///
/// Contract, which the block loops keep and the `#[cfg(test)]` oracle
/// (`decode_huffman_block` over `num_symbols`/`table_of`/`assemble`)
/// checks: a corrupt or truncated codeword fails at once with
/// [`BlockDecodeError::Code`]; a decoded symbol outside its value table
/// fails with [`BlockDecodeError::BadValue`] only once every codeword
/// of the block has decoded, naming the first such symbol's field.
pub(crate) trait SymbolCodec: Send + Sync {
    /// Decodes the `num_ops` op words of the block at `r`. Implementations
    /// are `#[inline(always)]`: see `decode_block_with`.
    fn decode_words<S: Step>(
        &self,
        step: S,
        r: &mut BitReader<'_>,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError>;
    /// The codec's serialized decode tables ([`BlockCodec::dictionary_image`]).
    fn tables_image(&self) -> Vec<u8>;

    /// The decode tables, indexed by `table_of`.
    #[cfg(test)]
    fn tables(&self) -> &[LutDecoder];
    /// Codewords encoding a block of `num_ops` operations.
    #[cfg(test)]
    fn num_symbols(&self, num_ops: usize) -> usize;
    /// Table decoding codeword `i`. May name a table the codec was
    /// built without (pair without a singles book) — decoding then
    /// fails with [`BlockDecodeError::BadValue`].
    #[cfg(test)]
    fn table_of(&self, i: usize, num_ops: usize) -> u32;
    /// Reassembles the decoded symbols into the block's op words.
    #[cfg(test)]
    fn assemble(&self, syms: &[u32], num_ops: usize) -> Result<Vec<u64>, BlockDecodeError>;
}

/// Block `b` of `image` through the codec's block loop.
fn decode_block_with<T: SymbolCodec, S: Step>(
    codec: &T,
    step: S,
    image: &EncodedProgram,
    b: usize,
    num_ops: usize,
    counts: &mut DecodeCounters,
) -> Result<Vec<u64>, BlockDecodeError> {
    // The reader and the counters are locals of this frame, into which
    // the block loop is inlined, so they stay in registers.
    let mut r = BitReader::at_bit(&image.bytes, image.block_start[b] * 8);
    let mut spent = DecodeCounters::default();
    let words = codec.decode_words(step, &mut r, num_ops, &mut spent);
    counts.merge(&spent);
    words
}

impl<T: SymbolCodec> BlockCodec for T {
    fn decode_block(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_block_with(self, Lut, image, b, num_ops, &mut DecodeCounters::default())
    }

    fn decode_block_counted(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_block_with(self, Lut, image, b, num_ops, counts)
    }

    fn decode_block_reference(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_block_with(
            self,
            Reference,
            image,
            b,
            num_ops,
            &mut DecodeCounters::default(),
        )
    }

    fn dictionary_image(&self) -> Vec<u8> {
        self.tables_image()
    }
}

/// The per-symbol decode loop the block loops replaced, kept as their
/// test oracle: whole-block `decode_n` when a single table covers the
/// block, per-symbol over `table_of` otherwise, then `assemble`;
/// `reference` forces the bit-serial reference decoder.
#[cfg(test)]
pub(crate) fn decode_huffman_block<T: SymbolCodec + ?Sized>(
    codec: &T,
    image: &EncodedProgram,
    b: usize,
    num_ops: usize,
    counts: &mut DecodeCounters,
    reference: bool,
) -> Result<Vec<u64>, BlockDecodeError> {
    let n = codec.num_symbols(num_ops);
    let table = |i: usize| {
        let t = codec.table_of(i, num_ops) as usize;
        codec.tables().get(t).ok_or(BlockDecodeError::BadValue {
            field: "decode table",
        })
    };
    let mut r = BitReader::at_bit(&image.bytes, image.block_start[b] * 8);
    let syms = if n > 0 && codec.table_of(0, num_ops) == codec.table_of(n - 1, num_ops) {
        let tab = table(0)?;
        if reference {
            tab.reference().decode_n(&mut r, n)?
        } else {
            tab.decode_n_counted(&mut r, n, counts)?
        }
    } else {
        let mut syms = Vec::with_capacity(n);
        for i in 0..n {
            let tab = table(i)?;
            let sym = if reference {
                tab.reference().decode_counted(&mut r, counts)?
            } else {
                tab.decode_counted(&mut r, counts)?
            };
            syms.push(sym);
        }
        syms
    };
    codec.assemble(&syms, num_ops)
}

/// A compression scheme.
pub trait Scheme {
    /// Short name as used in the paper's figures (`byte`, `stream`,
    /// `stream_1`, `full`, `tailored`, `base`).
    fn name(&self) -> String;

    /// Compresses a program.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] when the program cannot be encoded.
    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError>;
}

/// The scheme line-up of the paper's Figure 5, in figure order:
/// byte-wise, the two best stream configurations (`stream` = smallest
/// decoder, `stream_1` = smallest code), Full, and Tailored. The
/// figures, the compression report and the engine's preparation matrix
/// enumerate schemes from this list.
pub const MATRIX: [&str; 5] = ["byte", "stream", "stream_1", "full", "tailored"];

/// Instantiates a scheme by the name its images carry: a [`MATRIX`]
/// name, `base`, `pair`, or any named [`stream::StreamConfig`].
pub fn by_name(name: &str) -> Option<Box<dyn Scheme>> {
    match name {
        "base" => Some(Box::new(base::BaseScheme)),
        "byte" => Some(Box::new(byte::ByteScheme::default())),
        "full" => Some(Box::new(full::FullScheme::default())),
        "pair" => Some(Box::new(pair::PairScheme::default())),
        "tailored" => Some(Box::new(tailored::TailoredScheme)),
        other => stream::StreamScheme::named(other).map(|s| Box::new(s) as Box<dyn Scheme>),
    }
}

/// The [`MATRIX`] schemes, instantiated.
pub fn standard_schemes() -> Vec<Box<dyn Scheme>> {
    MATRIX
        .iter()
        .map(|name| by_name(name).expect("matrix scheme"))
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use tepic_isa::Program;

    /// A mid-sized program exercising every format: loops, calls,
    /// floats, byte/word memory, recursion, string scanning, sorting and
    /// hashing. Large enough (hundreds of ops) that the compression
    /// shapes of the paper's figures emerge.
    pub fn sample_program() -> Program {
        let src = r#"
            global acc[64];
            global heap[128];
            global hist[64];
            bglobal text[64] = "the quick brown fox jumps over the lazy dog again";
            fglobal coefs[8] = { 0.5, 0.25, 1.5, -2.0, 3.25, -0.75, 0.125, 9.5 };
            fn main() {
                var i; var s = 0;
                for (i = 0; i < 64; i = i + 1) { acc[i] = i * i - 3; }
                for (i = 0; i < 50; i = i + 1) { s = s + text[i]; }
                print(s);
                print(fib(10));
                fvar x = 0.0;
                for (i = 0; i < 8; i = i + 1) { x = x + coefs[i]; }
                print(int(x * 100.0));
                fill(37);
                sort(40);
                print(heap[0]); print(heap[39]);
                print(hashtext(50));
                print(gcd(462, 1071));
                classify(25);
                print(hist[1] + hist[2] * 10);
            }
            fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            fn fill(seed) {
                var i; var v = seed;
                for (i = 0; i < 40; i = i + 1) {
                    v = (v * 1103 + 12345) % 2048;
                    heap[i] = v;
                }
                return 0;
            }
            fn sort(n) {
                var i; var j; var t;
                for (i = 0; i < n; i = i + 1) {
                    for (j = 0; j < n - 1 - i; j = j + 1) {
                        if (heap[j] > heap[j + 1]) {
                            t = heap[j]; heap[j] = heap[j + 1]; heap[j + 1] = t;
                        }
                    }
                }
                return 0;
            }
            fn hashtext(n) {
                var i; var h = 5381;
                for (i = 0; i < n; i = i + 1) {
                    h = ((h << 5) + h) ^ text[i];
                    h = h & 0xFFFFFF;
                }
                return h;
            }
            fn gcd(a, b) {
                while (b != 0) { var t = b; b = a % b; a = t; }
                return a;
            }
            fn classify(n) {
                var i;
                for (i = 0; i < n; i = i + 1) {
                    var v = heap[i];
                    if (v < 100) { hist[0] = hist[0] + 1; }
                    else if (v < 500) { hist[1] = hist[1] + 1; }
                    else if (v < 1000) { hist[2] = hist[2] + 1; }
                    else { hist[3] = hist[3] + 1; }
                }
                return 0;
            }
        "#;
        lego::compile(src, &lego::Options::default()).expect("sample compiles")
    }

    /// A tiny program (edge case: few distinct symbols).
    pub fn tiny_program() -> Program {
        lego::compile("fn main() { print(1); }", &lego::Options::default()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepic_isa::Program;

    #[test]
    fn standard_lineup_matches_figure5() {
        let names: Vec<String> = standard_schemes().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["byte", "stream", "stream_1", "full", "tailored"]
        );
    }

    #[test]
    fn by_name_instantiates_every_named_scheme() {
        let p = testutil::sample_program();
        let streams = stream::StreamConfig::ALL.iter().map(|c| c.name);
        let names = MATRIX.into_iter().chain(["base", "pair"]).chain(streams);
        for name in names {
            assert_eq!(by_name(name).map(|s| s.name()).as_deref(), Some(name));
            // An image names the scheme that re-encodes it identically
            // (the engine rebuilds a codec from `image.kind` this way).
            let out = by_name(name).unwrap().compress(&p).unwrap();
            let again = by_name(out.image.kind.name())
                .unwrap()
                .compress(&p)
                .unwrap();
            assert_eq!(again.image, out.image, "{name}");
        }
        assert!(by_name("no-such-scheme").is_none());
    }

    #[test]
    fn every_standard_scheme_round_trips_the_sample() {
        let p = testutil::sample_program();
        for scheme in standard_schemes() {
            let out = scheme
                .compress(&p)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert!(out.image.check_layout(), "{} layout broken", scheme.name());
            assert!(
                out.verify_roundtrip(&p),
                "{} round trip failed",
                scheme.name()
            );
        }
    }

    #[test]
    fn every_standard_scheme_handles_tiny_programs() {
        let p = testutil::tiny_program();
        for scheme in standard_schemes() {
            let out = scheme
                .compress(&p)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert!(
                out.verify_roundtrip(&p),
                "{} tiny round trip failed",
                scheme.name()
            );
        }
    }

    /// The image clean, with 1–8 bits flipped, and cut short, chosen
    /// by `seed`.
    fn corruptions(image: &EncodedProgram, seed: u64) -> Vec<EncodedProgram> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut flipped = image.clone();
        let bits = image.bytes.len() as u64 * 8;
        for _ in 0..1 + next() % 8 {
            let bit = next() % bits;
            flipped.bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
        }
        let mut cut = image.clone();
        cut.bytes
            .truncate((next() % image.bytes.len() as u64) as usize);
        vec![image.clone(), flipped, cut]
    }

    /// Every block of `image`, at its own length and one op shorter and
    /// longer, through the codec's block loop and through the per-symbol
    /// oracle, on both paths: the same `Result` (words or the same
    /// `BlockDecodeError`), and on the LUT path the same counters.
    fn assert_loop_matches_oracle<T: SymbolCodec>(
        what: &str,
        codec: &T,
        image: &EncodedProgram,
        program: &Program,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert_eq;
        for (b, info) in program.blocks().iter().enumerate() {
            let n = info.num_ops;
            for num_ops in [n, n - 1, n + 1] {
                let mut got_counts = DecodeCounters::default();
                let got = codec.decode_block_counted(image, b, num_ops, &mut got_counts);
                let mut want_counts = DecodeCounters::default();
                let want = decode_huffman_block(codec, image, b, num_ops, &mut want_counts, false);
                prop_assert_eq!(&got, &want, "{} block {} x{} (LUT)", what, b, num_ops);
                prop_assert_eq!(got_counts, want_counts, "{} block {} counters", what, b);
                let got = codec.decode_block_reference(image, b, num_ops);
                let mut discarded = DecodeCounters::default();
                let want = decode_huffman_block(codec, image, b, num_ops, &mut discarded, true);
                prop_assert_eq!(&got, &want, "{} block {} x{} (reference)", what, b, num_ops);
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// The block loops against the per-symbol oracle, for every
        /// Huffman scheme of `by_name` (byte, full, pair with and
        /// without a singles book, the six stream configurations), on
        /// generated Tink programs, clean, bit-flipped and truncated.
        /// Codecs with a value table cut short make symbols decode to
        /// `BadValue`, so the loops' error order is checked too.
        #[test]
        fn block_loops_match_the_per_symbol_oracle(seed in proptest::prelude::any::<u64>()) {
            let params = ccc_workgen::GenParams::for_flavor(ccc_workgen::Flavor::Foreign);
            let source = ccc_workgen::generate_program(seed, &params, "differential").source;
            let p = lego::compile(&source, &lego::Options::default()).expect("generated program compiles");
            let (image, codec) = byte::ByteScheme::default().build(&p).unwrap();
            for (k, img) in corruptions(&image, seed).iter().enumerate() {
                assert_loop_matches_oracle(&format!("byte/{k}"), &codec, img, &p)?;
            }
            let (image, codec) = full::FullScheme::default().build(&p).unwrap();
            let mut short = full::FullCodec {
                table: codec.table.clone(),
                values: codec.values.clone(),
            };
            short.values.truncate(codec.values.len() / 2);
            for (k, img) in corruptions(&image, seed).iter().enumerate() {
                assert_loop_matches_oracle(&format!("full/{k}"), &codec, img, &p)?;
                assert_loop_matches_oracle(&format!("full-short/{k}"), &short, img, &p)?;
            }
            let (image, codec) = pair::PairScheme::default().build(&p).unwrap();
            let no_singles = pair::PairCodec {
                tables: codec.tables[..1].to_vec(),
                pair_values: codec.pair_values.clone(),
                single_values: Vec::new(),
            };
            let mut short = pair::PairCodec {
                tables: codec.tables.clone(),
                pair_values: codec.pair_values.clone(),
                single_values: codec.single_values.clone(),
            };
            short.pair_values.truncate(codec.pair_values.len() / 2);
            short.single_values.truncate(codec.single_values.len() / 2);
            for (k, img) in corruptions(&image, seed).iter().enumerate() {
                assert_loop_matches_oracle(&format!("pair/{k}"), &codec, img, &p)?;
                assert_loop_matches_oracle(&format!("pair-no-singles/{k}"), &no_singles, img, &p)?;
                assert_loop_matches_oracle(&format!("pair-short/{k}"), &short, img, &p)?;
            }
            for config in &stream::StreamConfig::ALL {
                let (image, codec) = stream::StreamScheme::with_config(config).build(&p).unwrap();
                let mut short = stream::StreamCodec {
                    config: codec.config,
                    tables: codec.tables.clone(),
                    values: codec.values.clone(),
                };
                let si = seed as usize % config.num_streams();
                short.values[si].truncate(codec.values[si].len() / 2);
                for (k, img) in corruptions(&image, seed).iter().enumerate() {
                    assert_loop_matches_oracle(&format!("{}/{k}", config.name), &codec, img, &p)?;
                    assert_loop_matches_oracle(&format!("{}-short/{k}", config.name), &short, img, &p)?;
                }
            }
        }
    }

    #[test]
    fn compression_ordering_matches_paper_shape() {
        // Figure 5: full < tailored < byte ≲ stream (as fractions of the
        // original size). Exact numbers depend on the workload; the
        // ordering full < tailored and full < byte must hold.
        let p = testutil::sample_program();
        let orig = p.code_size();
        let get = |name: &str| -> f64 {
            standard_schemes()
                .into_iter()
                .find(|s| s.name() == name)
                .unwrap()
                .compress(&p)
                .unwrap()
                .image
                .ratio(orig)
        };
        let full = get("full");
        let tailored = get("tailored");
        let byte = get("byte");
        assert!(
            full < tailored,
            "full {full} should beat tailored {tailored}"
        );
        assert!(full < byte, "full {full} should beat byte {byte}");
        assert!(tailored < 1.0 && byte < 1.0);
    }
}
