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
use crate::integrity::{crc32, IntegrityError};
use std::fmt;
use tepic_isa::Program;
use tinker_huffman::{BitReader, DecodeCounters, DecodeError, InterleavedDecoder, StreamLane};

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
        for b in 0..program.num_blocks() {
            let expect: Vec<u64> = program.block_ops(b).iter().map(|o| o.encode()).collect();
            match self.codec.decode_block(&self.image, b, expect.len()) {
                Ok(words) if words == expect => {}
                _ => return false,
            }
        }
        true
    }

    /// CRC32 of the codec's serialized decode tables — recorded at
    /// compression time, re-checked by the fetch path before trusting
    /// the dictionary.
    pub fn dictionary_crc(&self) -> u32 {
        crc32(&self.codec.dictionary_image())
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

    /// Decodes many blocks in one call, amortizing per-block setup and
    /// — for the Huffman codecs — interleaving the blocks' bitstreams
    /// so their table-lookup latencies overlap (DESIGN.md §15). Each
    /// request yields exactly the result (words or error) that
    /// [`BlockCodec::decode_block_counted`] would produce for it, and
    /// `counts` receives the same totals as the equivalent sequential
    /// loop. The default *is* that sequential loop — correct for every
    /// codec, interleave-accelerated where a codec overrides it.
    fn decode_batch(
        &self,
        image: &EncodedProgram,
        requests: &[BlockRequest],
        counts: &mut DecodeCounters,
    ) -> Vec<Result<Vec<u64>, BlockDecodeError>> {
        requests
            .iter()
            .map(|q| self.decode_block_counted(image, q.block, q.num_ops, counts))
            .collect()
    }

    /// Serializes the codec's decode tables (Huffman dictionaries,
    /// dense renumberings) into a deterministic byte image, the unit the
    /// dictionary CRC protects. Empty for codecs with no tables (Base).
    fn dictionary_image(&self) -> Vec<u8>;
}

/// One block's work item for [`BlockCodec::decode_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest {
    /// Block index into the image.
    pub block: usize,
    /// Number of operations the block holds.
    pub num_ops: usize,
}

/// Batch-decodes blocks `0..ops_per_block.len()` of an image — the
/// whole program when `ops_per_block[b]` is block `b`'s op count.
/// Convenience wrapper over [`BlockCodec::decode_batch`].
pub fn decode_blocks(
    codec: &dyn BlockCodec,
    image: &EncodedProgram,
    ops_per_block: &[usize],
    counts: &mut DecodeCounters,
) -> Vec<Result<Vec<u64>, BlockDecodeError>> {
    let requests: Vec<BlockRequest> = ops_per_block
        .iter()
        .enumerate()
        .map(|(block, &num_ops)| BlockRequest { block, num_ops })
        .collect();
    codec.decode_batch(image, &requests, counts)
}

/// The shared shape of every Huffman block codec: a block is
/// `num_symbols(num_ops)` codewords, codeword `i` decoded with table
/// `table_of(i)` of one [`InterleavedDecoder`], and the symbol sequence
/// reassembled into op words by `assemble`. The blanket
/// [`BlockCodec`] impl below derives the whole `decode_block*` triplet
/// *and* the interleaved `decode_batch` from these five hooks, so the
/// byte/stream/full/pair codecs carry no per-scheme decode loops.
///
/// Contract: positions where `table_of` departs from the decoder's
/// cycle must form a *suffix* of the symbol sequence (the pair codec's
/// odd trailing single). The derived paths decode the cycle-consistent
/// prefix on the fast path and the suffix per-symbol.
pub(crate) trait SymbolCodec: Send + Sync {
    /// The decode tables plus their per-symbol schedule.
    fn decoder(&self) -> &InterleavedDecoder;
    /// Codewords encoding a block of `num_ops` operations.
    fn num_symbols(&self, num_ops: usize) -> usize;
    /// Table decoding codeword `i`. May name a table the decoder was
    /// built without (pair without a singles book) — decoding then
    /// fails with [`BlockDecodeError::BadValue`].
    fn table_of(&self, i: usize, num_ops: usize) -> u32;
    /// Reassembles the decoded symbols into the block's op words.
    fn assemble(&self, syms: &[u32], num_ops: usize) -> Result<Vec<u64>, BlockDecodeError>;
    /// The codec's serialized decode tables ([`BlockCodec::dictionary_image`]).
    fn tables_image(&self) -> Vec<u8>;
}

/// Length of the leading run of codewords whose tables follow the
/// decoder's cycle — the portion the interleaved kernel may decode.
fn cycle_prefix<T: SymbolCodec + ?Sized>(codec: &T, n: usize, num_ops: usize) -> usize {
    let cycle = codec.decoder().cycle();
    let mut k = 0;
    while k < n && codec.table_of(k, num_ops) == cycle[k % cycle.len()] {
        k += 1;
    }
    k
}

/// The one sequential decode loop behind every Huffman codec's
/// `decode_block` / `decode_block_counted` / `decode_block_reference`:
/// whole-block `decode_n` when a single table covers the block,
/// per-symbol over `table_of` otherwise; `reference` forces the
/// bit-serial reference decoder (the PR-5 graceful-degradation path).
fn decode_huffman_block<T: SymbolCodec + ?Sized>(
    codec: &T,
    image: &EncodedProgram,
    b: usize,
    num_ops: usize,
    counts: &mut DecodeCounters,
    reference: bool,
) -> Result<Vec<u64>, BlockDecodeError> {
    let dec = codec.decoder();
    let cycle = dec.cycle();
    let n = codec.num_symbols(num_ops);
    let mut r = BitReader::at_bit(&image.bytes, image.block_start[b] * 8);
    let uniform = cycle.len() == 1 && (n == 0 || codec.table_of(n - 1, num_ops) == cycle[0]);
    let syms = if uniform {
        let tab = dec.table(cycle[0] as usize);
        if reference {
            tab.reference().decode_n(&mut r, n)?
        } else {
            tab.decode_n_counted(&mut r, n, counts)?
        }
    } else {
        let mut syms = Vec::with_capacity(n);
        for i in 0..n {
            let t = codec.table_of(i, num_ops) as usize;
            let tab = dec.get_table(t).ok_or(BlockDecodeError::BadValue {
                field: "decode table",
            })?;
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

/// The interleaved batch path behind every Huffman codec's
/// `decode_batch`: one lane per requested block, all lanes decoded
/// round-robin in a single [`InterleavedDecoder::decode_streams`] call,
/// then any off-cycle suffix (pair's trailing single) and the word
/// reassembly finished per block. Produces exactly the per-block
/// results and counter totals of the sequential loop.
fn decode_huffman_batch<T: SymbolCodec + ?Sized>(
    codec: &T,
    image: &EncodedProgram,
    requests: &[BlockRequest],
    counts: &mut DecodeCounters,
) -> Vec<Result<Vec<u64>, BlockDecodeError>> {
    let dec = codec.decoder();
    let lanes: Vec<StreamLane<'_>> = requests
        .iter()
        .map(|q| StreamLane {
            bytes: &image.bytes,
            start_bit: image.block_start[q.block] * 8,
            symbols: cycle_prefix(codec, codec.num_symbols(q.num_ops), q.num_ops),
            table: None,
        })
        .collect();
    let decoded = dec.decode_streams(&lanes, counts);
    requests
        .iter()
        .zip(decoded)
        .map(|(q, lane)| {
            if let Some(e) = lane.err {
                return Err(e.into());
            }
            let n = codec.num_symbols(q.num_ops);
            let mut syms = lane.syms;
            if syms.len() < n {
                let mut r = BitReader::at_bit(&image.bytes, lane.end_bit);
                for i in syms.len()..n {
                    let t = codec.table_of(i, q.num_ops) as usize;
                    let tab = dec.get_table(t).ok_or(BlockDecodeError::BadValue {
                        field: "decode table",
                    })?;
                    syms.push(tab.decode_counted(&mut r, counts)?);
                }
            }
            codec.assemble(&syms, q.num_ops)
        })
        .collect()
}

impl<T: SymbolCodec> BlockCodec for T {
    fn decode_block(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_huffman_block(
            self,
            image,
            b,
            num_ops,
            &mut DecodeCounters::default(),
            false,
        )
    }

    fn decode_block_counted(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_huffman_block(self, image, b, num_ops, counts, false)
    }

    fn decode_block_reference(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_huffman_block(
            self,
            image,
            b,
            num_ops,
            &mut DecodeCounters::default(),
            true,
        )
    }

    fn decode_batch(
        &self,
        image: &EncodedProgram,
        requests: &[BlockRequest],
        counts: &mut DecodeCounters,
    ) -> Vec<Result<Vec<u64>, BlockDecodeError>> {
        decode_huffman_batch(self, image, requests, counts)
    }

    fn dictionary_image(&self) -> Vec<u8> {
        self.tables_image()
    }
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

/// Instantiates a scheme by its figure name: a [`MATRIX`] name, `base`,
/// or any named [`stream::StreamConfig`].
pub fn by_name(name: &str) -> Option<Box<dyn Scheme>> {
    match name {
        "base" => Some(Box::new(base::BaseScheme)),
        "byte" => Some(Box::new(byte::ByteScheme::default())),
        "full" => Some(Box::new(full::FullScheme::default())),
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
        for name in MATRIX.iter().chain(&["base"]) {
            assert_eq!(by_name(name).map(|s| s.name()).as_deref(), Some(*name));
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
