//! Criterion benchmarks over every pipeline stage: compilation, Huffman
//! table construction, each compression scheme, emulation and fetch
//! simulation. Complements the figure-reproduction binaries with a
//! performance view of the tooling itself.

use ccc_core::schemes::{
    base::encode_base, byte::ByteScheme, full::FullScheme, stream::StreamScheme,
    tailored::TailoredScheme, Scheme,
};
use ccc_workgen::servemix::{request_mix, MixParams};
use criterion::{criterion_group, criterion_main, Criterion};
use ifetch_sim::{simulate, FetchConfig};
use std::hint::black_box;
use std::time::Duration;
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
    targets = bench_compile, bench_huffman, bench_schemes, bench_emulate, bench_fetch_sim
}
criterion_main!(benches);
