//! `decode-image`: the four Huffman schemes (byte, stream, stream_1,
//! full) over the 8 paper programs plus the seeded ccc-workgen tiny
//! corpus. Each image is decoded whole by `batch_decode_image` (the
//! interleaved batch tier) and block by block by
//! `BlockCodec::decode_block` (the `simulate_decoded` path), and its
//! decoder tables are rebuilt through the public constructors.
//!
//! It exercises `tinker-huffman` alone and bypasses compile, emulate and
//! `serve`: programs and images are built in set-up. Each image is timed
//! every round and reported as its best round.

use std::time::Instant;

use ccc_bench::engine::scheme_by_name;
use ccc_core::schemes::byte::ByteScheme;
use ccc_core::schemes::full::FullScheme;
use ccc_core::schemes::stream::{StreamConfig, StreamScheme};
use ccc_core::schemes::SchemeOutput;
use ifetch_sim::batch_decode_image;
use tepic_isa::Program;
use tinker_huffman::{CodeBook, Dictionary, InterleavedDecoder};

use crate::stats::{self, UnitMins};
use crate::{Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The Huffman schemes whose decoders this workload drives.
const SCHEMES: [&str; 4] = ["byte", "stream", "stream_1", "full"];

/// A program with its name.
type Named = (String, Program);

/// One compressed image and what its checks need.
struct Image {
    scheme: usize,
    program: usize,
    out: SchemeOutput,
    /// The code books the scheme builds, for the table-build timing.
    books: Vec<CodeBook>,
    ops: Vec<usize>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        kept = Some(set_up(ctx.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (programs, images) = kept.expect("at least one set-up");
    let mut out = Outcome::new(stats::median(&setup_s));

    let n = images.len();
    let (mut batch, mut seq, mut table) = (UnitMins::new(n), UnitMins::new(n), UnitMins::new(n));
    let (mut long_fallbacks, mut reference_fallbacks) = (0, 0);
    let start = Instant::now();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        for (i, img) in images.iter().enumerate() {
            let program = &programs[img.program].1;
            let codec = img.out.codec.as_ref();
            let image = &img.out.image;
            let ((batched, dstats), ns) = ctx.spans.time("decode.batch", 0, i as u64, |_| {
                batch_decode_image(program, image, codec, None)
            });
            batch.record(i, ns);
            let (blocks, ns) = ctx.spans.time("decode.seq", 0, i as u64, |_| {
                img.ops
                    .iter()
                    .enumerate()
                    .map(|(b, &num_ops)| codec.decode_block(image, b, num_ops))
                    .collect::<Vec<_>>()
            });
            seq.record(i, ns);
            let (decoder, ns) = ctx.spans.time("decode.table_build", 0, i as u64, |_| {
                InterleavedDecoder::new(img.books.iter().map(CodeBook::lut_decoder).collect())
            });
            std::hint::black_box(decoder);
            table.record(i, ns);
            if rounds == 1 {
                long_fallbacks += dstats.long_fallbacks;
                reference_fallbacks += dstats.reference_fallbacks;
            }

            let label = || {
                format!(
                    "round {rounds} {}/{}",
                    programs[img.program].0, SCHEMES[img.scheme]
                )
            };
            if dstats.decode_errors != 0 || dstats.reference_fallbacks != 0 {
                out.failures.push(format!(
                    "{}: batch decode had {} errors, {} reference fallbacks",
                    label(),
                    dstats.decode_errors,
                    dstats.reference_fallbacks
                ));
            }
            let same = blocks.len() == batched.len()
                && blocks
                    .iter()
                    .zip(&batched)
                    .all(|(s, b)| matches!((s, b), (Ok(s), Ok(b)) if s == b));
            if !same {
                out.failures
                    .push(format!("{}: per-block decode differs from batch", label()));
            }
        }
        let mean_round = start.elapsed().as_secs_f64() / rounds as f64;
        if start.elapsed().as_secs_f64() + mean_round > ctx.seconds as f64 {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted = rounds * 2 * n as u64;

    // The tiny corpus, and so the image bytes, changes with the seed;
    // per-MB times compare across seeds.
    let bytes: u64 = images.iter().map(|i| i.out.image.bytes.len() as u64).sum();
    let (batch_mb_s, seq_mb_s) = (
        stats::mb_per_s(bytes, batch.sum_of(0..n)),
        stats::mb_per_s(bytes, seq.sum_of(0..n)),
    );
    out.e2e = vec![
        ("primary_ms", 1e3 / batch_mb_s),
        ("secondary_ms", 1e3 / seq_mb_s),
    ];
    out.named = vec![
        ("batch_mb_s", batch_mb_s),
        ("seq_mb_s", seq_mb_s),
        ("decodes_per_s", out.attempted as f64 / wall_s),
    ];
    for (s, name) in SCHEMES.iter().enumerate() {
        let mine: Vec<usize> = (0..n).filter(|&i| images[i].scheme == s).collect();
        for (metric, mins) in [
            ("batch_ms", &batch),
            ("seq_ms", &seq),
            ("table_build_ms", &table),
        ] {
            out.layers.push((
                format!("decode.{metric}.{name}"),
                stats::ms(mins.sum_of(mine.iter().copied()) as f64),
            ));
        }
    }
    out.layers
        .push(("decode.long_fallbacks".into(), long_fallbacks as f64));
    out.layers.push((
        "decode.reference_fallbacks".into(),
        reference_fallbacks as f64,
    ));
    out.notes.push(format!(
        "decode-image: {n} images ({} programs x {} schemes, {bytes} compressed bytes), \
         {rounds} rounds in {wall_s:.2} s",
        programs.len(),
        SCHEMES.len()
    ));
    Ok(out)
}

/// Compiles the paper programs and the seeded tiny corpus and
/// compresses each under every scheme.
fn set_up(seed: u64) -> Result<(Vec<Named>, Vec<Image>), String> {
    let mut programs = Vec::new();
    for w in tinker_workloads::ALL.iter() {
        let p = w.compile().map_err(|e| format!("{}: {e}", w.name))?;
        programs.push((w.name.to_string(), p));
    }
    let corpus =
        ccc_workgen::generate_corpus(seed, ccc_workgen::Tier::Tiny, ccc_workgen::Flavor::Tepic)
            .map_err(|e| format!("tiny corpus: {e}"))?;
    for gp in corpus.programs {
        let p = lego::compile(&gp.source, &lego::Options::default())
            .map_err(|e| format!("{}: {e}", gp.name))?;
        programs.push((gp.name, p));
    }
    let mut images = Vec::new();
    for (s, name) in SCHEMES.iter().enumerate() {
        let scheme = scheme_by_name(name).expect("decode schemes are known");
        for (pi, (pname, p)) in programs.iter().enumerate() {
            let out = scheme
                .compress(p)
                .map_err(|e| format!("{pname}/{name}: {e}"))?;
            images.push(Image {
                scheme: s,
                program: pi,
                out,
                books: code_books(name, p).map_err(|e| format!("{pname}/{name}: {e}"))?,
                ops: p.blocks().iter().map(|b| b.num_ops).collect(),
            });
        }
    }
    Ok((programs, images))
}

/// The code books `scheme` builds for `p`, from the same symbol
/// frequencies and length bounds as its `compress`.
fn code_books(scheme: &str, p: &Program) -> Result<Vec<CodeBook>, tinker_huffman::HuffmanError> {
    match scheme {
        "byte" => {
            let mut freqs = [0u64; 256];
            for b in p.code_bytes() {
                freqs[b as usize] += 1;
            }
            Ok(vec![CodeBook::bounded_from_freqs(
                &freqs,
                ByteScheme::default().max_code_len,
            )?])
        }
        "full" => {
            let dict: Dictionary<u64> = p.op_words().into_iter().collect();
            Ok(vec![CodeBook::bounded_from_freqs(
                dict.freqs(),
                FullScheme::default().max_code_len,
            )?])
        }
        _ => {
            let cfg = StreamConfig::by_name(scheme).expect("stream configuration");
            let max_len = StreamScheme::named(scheme)
                .expect("stream scheme")
                .max_code_len;
            let words = p.op_words();
            (0..cfg.num_streams())
                .map(|si| {
                    let (off, width) = cfg.stream_bits(si);
                    let dict: Dictionary<u64> = words
                        .iter()
                        .map(|w| (w >> off) & ((1u64 << width) - 1))
                        .collect();
                    CodeBook::bounded_from_freqs(dict.freqs(), max_len)
                })
                .collect()
        }
    }
}
