//! Criterion benchmarks over every pipeline stage: compilation, Huffman
//! book and decode-table construction, per-block decode, each
//! compression scheme, emulation and fetch simulation. Complements the figure-reproduction binaries with a
//! performance view of the tooling itself.

use ccc_core::schemes::{
    base::encode_base,
    by_name,
    byte::ByteScheme,
    full::FullScheme,
    stream::{StreamConfig, StreamScheme},
    tailored::TailoredScheme,
    Scheme,
};
use ccc_workgen::servemix::{request_mix, MixParams};
use criterion::{criterion_group, criterion_main, Criterion};
use ifetch_sim::{simulate, FetchConfig};
use std::hint::black_box;
use std::time::Duration;
use tepic_isa::Program;
use tinker_huffman::{CodeBook, Dictionary};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    for name in ["compress", "go", "li"] {
        let w = tinker_workloads::by_name(name).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| black_box(lego::compile(w.source(), &lego::Options::default()).unwrap()))
        });
    }
    // The cold programs of a seed-42 serve mix: what each cold request
    // to the daemon compiles first.
    let cold: Vec<String> = request_mix(42, 64, &MixParams::default())
        .into_iter()
        .filter(|r| !r.hot)
        .take(8)
        .map(|r| r.source)
        .collect();
    g.bench_function("servemix", |b| {
        b.iter(|| {
            for source in &cold {
                black_box(lego::compile(source, &lego::Options::default()).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let w = tinker_workloads::by_name("go").unwrap();
    let p = w.compile().unwrap();
    let words = p.op_words();
    let dict: Dictionary<u64> = words.iter().copied().collect();
    let mut g = c.benchmark_group("huffman");
    g.bench_function("build_bounded_book", |b| {
        b.iter(|| black_box(CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap()))
    });
    let book = CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap();
    g.bench_function("encode_image", |b| {
        b.iter(|| {
            let mut wtr = tinker_huffman::BitWriter::new();
            for word in &words {
                book.encode_into(dict.id_of(word).unwrap(), &mut wtr);
            }
            black_box(wtr.into_bytes())
        })
    });
    let mut wtr = tinker_huffman::BitWriter::new();
    for word in &words {
        book.encode_into(dict.id_of(word).unwrap(), &mut wtr);
    }
    let bytes = wtr.into_bytes();
    let dec = book.decoder();
    g.bench_function("decode_image", |b| {
        b.iter(|| {
            let mut r = tinker_huffman::BitReader::new(&bytes);
            black_box(dec.decode_n(&mut r, words.len()).unwrap())
        })
    });
    // Decode-table construction for go's books, one case per scheme:
    // the work every codec build does per table.
    for (scheme, books) in [
        ("byte", byte_books(&p)),
        ("full", vec![book.clone()]),
        ("stream", stream_books(&p, "stream")),
    ] {
        g.bench_function(&format!("lut_build/{scheme}"), |b| {
            b.iter(|| black_box(books.iter().map(CodeBook::lut_decoder).collect::<Vec<_>>()))
        });
    }
    g.finish();
}

/// The byte scheme's book for `p`: its code-byte histogram, bounded as
/// the scheme bounds it.
fn byte_books(p: &Program) -> Vec<CodeBook> {
    let mut freqs = [0u64; 256];
    for b in p.code_bytes() {
        freqs[b as usize] += 1;
    }
    let bound = ByteScheme::default().max_code_len;
    vec![CodeBook::bounded_from_freqs(&freqs, bound).unwrap()]
}

/// One book per field stream of configuration `name`, bounded as the
/// stream scheme bounds them.
fn stream_books(p: &Program, name: &str) -> Vec<CodeBook> {
    let config = StreamConfig::by_name(name).unwrap();
    let bound = StreamScheme::named(name).unwrap().max_code_len;
    let words = p.op_words();
    (0..config.num_streams())
        .map(|si| {
            let (off, width) = config.stream_bits(si);
            let dict: Dictionary<u64> = words
                .iter()
                .map(|w| (w >> off) & ((1u64 << width) - 1))
                .collect();
            CodeBook::bounded_from_freqs(dict.freqs(), bound).unwrap()
        })
        .collect()
}

/// Every block of go, one `decode_block` each, per Huffman scheme: the
/// per-block decode the fetch path runs on an L0 miss.
fn bench_decode_block(c: &mut Criterion) {
    let p = tinker_workloads::by_name("go").unwrap().compile().unwrap();
    let mut g = c.benchmark_group("decode_block");
    for name in ["byte", "stream", "stream_1", "full", "pair"] {
        let out = by_name(name).unwrap().compress(&p).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                for (block, info) in p.blocks().iter().enumerate() {
                    let words = out.codec.decode_block(&out.image, block, info.num_ops);
                    black_box(words.unwrap());
                }
            })
        });
    }
    g.finish();
}

fn bench_schemes(c: &mut Criterion) {
    let w = tinker_workloads::by_name("go").unwrap();
    let p = w.compile().unwrap();
    let mut g = c.benchmark_group("schemes");
    g.bench_function("byte", |b| {
        b.iter(|| black_box(ByteScheme::default().compress(&p).unwrap()))
    });
    g.bench_function("stream", |b| {
        b.iter(|| black_box(StreamScheme::named("stream").unwrap().compress(&p).unwrap()))
    });
    g.bench_function("full", |b| {
        b.iter(|| black_box(FullScheme::default().compress(&p).unwrap()))
    });
    g.bench_function("tailored", |b| {
        b.iter(|| black_box(TailoredScheme.compress(&p).unwrap()))
    });
    g.finish();
}

fn bench_emulate(c: &mut Criterion) {
    let w = tinker_workloads::by_name("compress").unwrap();
    let p = w.compile().unwrap();
    let mut g = c.benchmark_group("emulate");
    g.bench_function("compress_workload", |b| {
        b.iter(|| {
            black_box(
                yula::Emulator::new(&p)
                    .run(&yula::Limits::default())
                    .unwrap()
                    .stats
                    .ops,
            )
        })
    });
    g.finish();
}

fn bench_fetch_sim(c: &mut Criterion) {
    let w = tinker_workloads::by_name("compress").unwrap();
    let (p, run) = w.compile_and_run().unwrap();
    let base_img = encode_base(&p);
    let full = FullScheme::default().compress(&p).unwrap().image;
    let mut g = c.benchmark_group("fetch_sim");
    g.bench_function("base", |b| {
        b.iter(|| black_box(simulate(&p, &base_img, &run.trace, &FetchConfig::base()).cycles))
    });
    g.bench_function("compressed", |b| {
        b.iter(|| black_box(simulate(&p, &full, &run.trace, &FetchConfig::compressed()).cycles))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_compile, bench_huffman, bench_decode_block, bench_schemes, bench_emulate, bench_fetch_sim
}
criterion_main!(benches);
