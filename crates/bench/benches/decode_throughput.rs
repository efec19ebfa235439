//! Decode-kernel throughput: the word-at-a-time [`BitReader`] +
//! two-level-LUT [`LutDecoder`] fast path against the bit-serial
//! [`CanonicalDecoder`] reference, the throughput tier of DESIGN.md
//! §15 — the [`InterleavedDecoder`] round-robining many table-pinned
//! stream cursors — and whole images decoded one block at a time
//! through [`BlockCodec::decode_block_counted`] (the `batch` panel),
//! over each Huffman scheme's real tables and symbol streams.
//!
//! Workloads: the `go` benchmark plus a seeded `ccc-workgen` tiny-tier
//! corpus (`CCC_DECODE_SEED`, default 42), so throughput numbers are
//! not one-workload artifacts. `--lut-bits <n[,n..]>` sweeps the
//! first-level table size (8–16); the default sweep is `8,11,16`.
//!
//! Panels time with `bench_best` (best sample, not mean): host
//! interference only adds time, so the minimum estimates the kernel's
//! own cost and keeps the regression gate stable on busy machines. The
//! gated ratio's two sides, `lut` and `interleaved`, take alternate
//! samples (`bench_best_pair`), so both minimums see the same host
//! phases.
//!
//! Besides the usual per-iteration prints, this bench writes
//! `results/decode_throughput.txt` (human table) and
//! `results/BENCH_decode.json` (machine-readable) and exits non-zero
//! when a regression floor fails:
//!
//! * the LUT path slower than the reference on the byte scheme;
//! * the stream scheme's interleaved *compressed* throughput below
//!   `CCC_DECODE_FLOOR` × its sequential-LUT throughput. Issue 8 aims
//!   for 4×; the multi-symbol kernel measures 2.9–3.1× on the
//!   reference machine (a 2.1 GHz Xeon VM), so the default floor is
//!   set one noise notch under that — 2.5 full runs, 2.2 smoke — to
//!   gate regressions rather than aspiration;
//! * the stream scheme's aggregate *decoded-output* bandwidth (the
//!   4-byte symbols the interleaved kernel stores, summed over all
//!   lanes) below `CCC_DECODE_AGG_FLOOR` MB/s (default 1000 — the
//!   Issue-8 "≥ 1 GB/s aggregate" headline; measured ≈ 2.4 GB/s).
//!
//! Set `CCC_DECODE_SMOKE=1` for a short smoke measurement. A smoke run
//! writes both files under Cargo's `target/tmp` instead, so it leaves
//! the committed `results/` files alone.

use ccc_bench::engine::cache::write_atomic;
use ccc_bench::history::{self, SentinelConfig};
use ccc_core::schemes::stream::StreamConfig;
use ccc_core::schemes::{byte::ByteScheme, full::FullScheme, pair::PairScheme};
use ccc_core::schemes::{stream::StreamScheme, BlockCodec, Scheme};
use ccc_telemetry::ledger::{self, Fingerprint};
use criterion::Criterion;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;
use tepic_isa::Program;
use tinker_huffman::{
    BitReader, BitWriter, CanonicalDecoder, CodeBook, DecodeCounters, Dictionary,
    InterleavedDecoder, LutDecoder, StreamLane, PIPE,
};

/// One scheme's decode workload over one program: its Huffman tables,
/// the symbol sequence in decode order (`order[i]` names the table
/// `syms[i]` was coded with — streams interleave several tables per
/// op), and the encoded bitstream.
struct DecodeWorkload {
    books: Vec<CodeBook>,
    order: Vec<u32>,
    syms: Vec<u32>,
    bytes: Vec<u8>,
}

impl DecodeWorkload {
    fn new(books: Vec<CodeBook>, order: Vec<u32>, syms: Vec<u32>) -> Self {
        assert_eq!(order.len(), syms.len());
        let mut w = BitWriter::new();
        for (&bi, &s) in order.iter().zip(&syms) {
            books[bi as usize].try_encode_into(s, &mut w).unwrap();
        }
        DecodeWorkload {
            books,
            order,
            syms,
            bytes: w.into_bytes(),
        }
    }

    /// Single-table schemes decode whole blocks via `decode_n` (the
    /// codecs' production path); interleaved-table schemes replay the
    /// per-symbol table order exactly as their codecs do.
    fn decode_reference(&self, decs: &[CanonicalDecoder]) -> u64 {
        let mut r = BitReader::new(&self.bytes);
        if decs.len() == 1 {
            return checksum(&decs[0].decode_n(&mut r, self.syms.len()).unwrap());
        }
        let mut acc = 0u64;
        for &bi in &self.order {
            acc = acc.wrapping_add(decs[bi as usize].decode(&mut r).unwrap() as u64);
        }
        acc
    }

    fn decode_lut(&self, decs: &[LutDecoder]) -> u64 {
        let mut r = BitReader::new(&self.bytes);
        if decs.len() == 1 {
            return checksum(&decs[0].decode_n(&mut r, self.syms.len()).unwrap());
        }
        let mut acc = 0u64;
        for &bi in &self.order {
            acc = acc.wrapping_add(decs[bi as usize].decode(&mut r).unwrap() as u64);
        }
        acc
    }
}

fn checksum(syms: &[u32]) -> u64 {
    syms.iter().fold(0u64, |a, &s| a.wrapping_add(s as u64))
}

/// The interleaved panel's unit: each per-table symbol subsequence of a
/// [`DecodeWorkload`] re-encoded into contiguous per-lane bitstreams —
/// the compiler-side layout the throughput tier assumes (one cursor
/// per stream) — split into chunks so every scheme presents about
/// [`TARGET_LANES`] concurrent cursors.
struct LaneSet {
    inter: InterleavedDecoder,
    lanes: Vec<LaneBuf>,
}

struct LaneBuf {
    bytes: Vec<u8>,
    syms: Vec<u32>,
    table: u32,
}

const TARGET_LANES: usize = 16;

fn build_lanes(w: &DecodeWorkload) -> LaneSet {
    let nt = w.books.len();
    // Keep the lane count a multiple of the kernel's pipeline width so
    // no lane is left to a partial (single-cursor) group.
    let mut chunks = (TARGET_LANES / nt).max(1);
    while !(nt * chunks).is_multiple_of(PIPE) {
        chunks += 1;
    }
    let mut lanes = Vec::new();
    for t in 0..nt {
        let tsyms: Vec<u32> = w
            .order
            .iter()
            .zip(&w.syms)
            .filter(|&(&o, _)| o == t as u32)
            .map(|(_, &s)| s)
            .collect();
        if tsyms.is_empty() {
            continue;
        }
        let per = tsyms.len().div_ceil(chunks).max(1);
        for chunk in tsyms.chunks(per) {
            let mut bw = BitWriter::new();
            for &s in chunk {
                w.books[t].try_encode_into(s, &mut bw).unwrap();
            }
            lanes.push(LaneBuf {
                bytes: bw.into_bytes(),
                syms: chunk.to_vec(),
                table: t as u32,
            });
        }
    }
    LaneSet {
        inter: InterleavedDecoder::new(w.books.iter().map(CodeBook::lut_decoder).collect()),
        lanes,
    }
}

impl LaneSet {
    fn specs(&self) -> Vec<StreamLane<'_>> {
        self.lanes
            .iter()
            .map(|l| StreamLane {
                bytes: &l.bytes,
                start_bit: 0,
                symbols: l.syms.len(),
                table: l.table,
            })
            .collect()
    }

    fn decode(&self) -> u64 {
        let mut counts = DecodeCounters::default();
        let results = self.inter.decode_streams(&self.specs(), &mut counts);
        results
            .iter()
            .flat_map(|r| r.syms.iter())
            .fold(0u64, |a, &s| a.wrapping_add(s as u64))
    }

    fn bytes(&self) -> usize {
        self.lanes.iter().map(|l| l.bytes.len()).sum()
    }

    /// Differential check: every lane must reproduce its source chunk.
    fn verify(&self) {
        let mut counts = DecodeCounters::default();
        let results = self.inter.decode_streams(&self.specs(), &mut counts);
        for (lane, res) in self.lanes.iter().zip(&results) {
            assert!(res.err.is_none(), "interleaved lane errored: {:?}", res.err);
            assert_eq!(res.syms, lane.syms, "interleaved lane diverged");
        }
    }
}

/// The batch panel's unit: a program compressed by the real
/// [`Scheme`], decoded whole-image one block at a time.
struct BatchLoad {
    image: ccc_core::EncodedProgram,
    codec: Box<dyn BlockCodec>,
    ops: Vec<usize>,
}

fn build_batch(scheme: &dyn Scheme, p: &Program) -> BatchLoad {
    let out = scheme.compress(p).unwrap();
    BatchLoad {
        image: out.image,
        codec: out.codec,
        ops: p.blocks().iter().map(|b| b.num_ops).collect(),
    }
}

impl BatchLoad {
    fn decode_blocks(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        let mut counts = DecodeCounters::default();
        self.ops.iter().enumerate().map(move |(b, &num_ops)| {
            self.codec
                .decode_block_counted(&self.image, b, num_ops, &mut counts)
                .unwrap()
        })
    }

    fn decode(&self) -> u64 {
        self.decode_blocks()
            .flatten()
            .fold(0u64, |a, w| a.wrapping_add(w))
    }

    fn verify(&self, p: &Program) {
        for (b, words) in self.decode_blocks().enumerate() {
            let want: Vec<u64> = p.block_ops(b).iter().map(|o| o.encode()).collect();
            assert_eq!(words, want, "block decode diverged");
        }
    }
}

/// Byte scheme: one table over the code bytes, `max_code_len` 10.
fn byte_workload(p: &Program) -> DecodeWorkload {
    let code = p.code_bytes();
    let mut freqs = [0u64; 256];
    for &b in &code {
        freqs[b as usize] += 1;
    }
    let book = CodeBook::bounded_from_freqs(&freqs, 10).unwrap();
    let syms: Vec<u32> = code.iter().map(|&b| b as u32).collect();
    let order = vec![0u32; syms.len()];
    DecodeWorkload::new(vec![book], order, syms)
}

/// Stream schemes: one table per field stream, interleaved per op.
fn stream_workload(p: &Program, name: &'static str) -> DecodeWorkload {
    let config = StreamConfig::by_name(name).unwrap();
    let words = p.op_words();
    let ns = config.num_streams();
    let mut dicts: Vec<Dictionary<u64>> = vec![Dictionary::new(); ns];
    for &w in &words {
        for (si, dict) in dicts.iter_mut().enumerate() {
            let (off, width) = config.stream_bits(si);
            dict.record((w >> off) & ((1u64 << width) - 1));
        }
    }
    let books: Vec<CodeBook> = dicts
        .iter()
        .map(|d| CodeBook::bounded_from_freqs(d.freqs(), 20).unwrap())
        .collect();
    let mut order = Vec::with_capacity(words.len() * ns);
    let mut syms = Vec::with_capacity(words.len() * ns);
    for &w in &words {
        for (si, dict) in dicts.iter().enumerate() {
            let (off, width) = config.stream_bits(si);
            order.push(si as u32);
            syms.push(dict.id_of(&((w >> off) & ((1u64 << width) - 1))).unwrap());
        }
    }
    DecodeWorkload::new(books, order, syms)
}

/// Full scheme: one table over whole 40-bit op words, `max_code_len` 24.
fn full_workload(p: &Program) -> DecodeWorkload {
    let words = p.op_words();
    let dict: Dictionary<u64> = words.iter().copied().collect();
    let book = CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap();
    let syms: Vec<u32> = words.iter().map(|w| dict.id_of(w).unwrap()).collect();
    let order = vec![0u32; syms.len()];
    DecodeWorkload::new(vec![book], order, syms)
}

/// Pair scheme: non-overlapping op pairs per block (table 0) plus odd
/// trailing singles (table 1), `max_code_len` 28.
fn pair_workload(p: &Program) -> DecodeWorkload {
    let mut pairs: Dictionary<(u64, u64)> = Dictionary::new();
    let mut singles: Dictionary<u64> = Dictionary::new();
    let block_words: Vec<Vec<u64>> = (0..p.num_blocks())
        .map(|b| p.block_ops(b).iter().map(|o| o.encode()).collect())
        .collect();
    for words in &block_words {
        let mut i = 0;
        while i + 1 < words.len() {
            pairs.record((words[i], words[i + 1]));
            i += 2;
        }
        if i < words.len() {
            singles.record(words[i]);
        }
    }
    let pair_book = CodeBook::bounded_from_freqs(pairs.freqs(), 28).unwrap();
    let single_book = CodeBook::bounded_from_freqs(singles.freqs(), 28).unwrap();
    let mut order = Vec::new();
    let mut syms = Vec::new();
    for words in &block_words {
        let mut i = 0;
        while i + 1 < words.len() {
            order.push(0);
            syms.push(pairs.id_of(&(words[i], words[i + 1])).unwrap());
            i += 2;
        }
        if i < words.len() {
            order.push(1);
            syms.push(singles.id_of(&words[i]).unwrap());
        }
    }
    DecodeWorkload::new(vec![pair_book, single_book], order, syms)
}

fn scheme_for(name: &'static str) -> Box<dyn Scheme> {
    match name {
        "byte" => Box::new(ByteScheme::default()),
        "full" => Box::new(FullScheme::default()),
        "pair" => Box::new(PairScheme::default()),
        other => Box::new(StreamScheme::named(other).unwrap()),
    }
}

/// One scheme measured across every workload program: the kernel
/// workloads plus the interleaved lane sets and real-image batch loads.
struct SchemeRow {
    scheme: &'static str,
    loads: Vec<DecodeWorkload>,
    lanes: Vec<LaneSet>,
    batches: Vec<BatchLoad>,
}

fn build_row(scheme: &'static str, programs: &[(String, Program)]) -> SchemeRow {
    let loads: Vec<DecodeWorkload> = programs
        .iter()
        .map(|(_, p)| match scheme {
            "byte" => byte_workload(p),
            "full" => full_workload(p),
            "pair" => pair_workload(p),
            other => stream_workload(p, other),
        })
        .collect();
    let lanes = loads.iter().map(build_lanes).collect();
    let sch = scheme_for(scheme);
    let batches = programs
        .iter()
        .map(|(_, p)| {
            let b = build_batch(sch.as_ref(), p);
            b.verify(p);
            b
        })
        .collect();
    SchemeRow {
        scheme,
        loads,
        lanes,
        batches,
    }
}

struct Measurement {
    scheme: &'static str,
    symbols: usize,
    compressed_bytes: usize,
    ref_ns: f64,
    lut_ns: f64,
    num_lanes: usize,
    lane_bytes: usize,
    inter_ns: f64,
    batch_blocks: usize,
    batch_ops: usize,
    batch_bytes: usize,
    batch_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.ref_ns / self.lut_ns.max(1e-9)
    }
    fn sym_per_s(&self, ns: f64) -> f64 {
        self.symbols as f64 / (ns * 1e-9)
    }
    fn mb_per_s(&self, ns: f64) -> f64 {
        self.compressed_bytes as f64 / (ns * 1e-9) / 1e6
    }
    fn inter_mb_per_s(&self) -> f64 {
        self.lane_bytes as f64 / (self.inter_ns * 1e-9) / 1e6
    }
    fn inter_sym_per_s(&self) -> f64 {
        self.symbols as f64 / (self.inter_ns * 1e-9)
    }
    /// Aggregate decoded-output bandwidth: the 4-byte symbols the
    /// interleaved kernel stores, summed across all lanes.
    fn inter_decoded_mb_per_s(&self) -> f64 {
        (self.symbols * 4) as f64 / (self.inter_ns * 1e-9) / 1e6
    }
    /// The Issue-8 headline: interleaved over sequential-LUT compressed
    /// throughput (both sides normalized by their own byte totals).
    fn inter_over_lut(&self) -> f64 {
        self.inter_mb_per_s() / self.mb_per_s(self.lut_ns).max(1e-9)
    }
    fn batch_mb_per_s(&self) -> f64 {
        self.batch_bytes as f64 / (self.batch_ns * 1e-9) / 1e6
    }
}

fn measure(c: &mut Criterion, row: &SchemeRow) -> Measurement {
    let refs: Vec<Vec<CanonicalDecoder>> = row
        .loads
        .iter()
        .map(|w| w.books.iter().map(CodeBook::decoder).collect())
        .collect();
    let luts: Vec<Vec<LutDecoder>> = row
        .loads
        .iter()
        .map(|w| w.books.iter().map(CodeBook::lut_decoder).collect())
        .collect();
    // Every path must observe the exact same symbol sequence.
    for (i, w) in row.loads.iter().enumerate() {
        assert_eq!(
            w.decode_reference(&refs[i]),
            w.decode_lut(&luts[i]),
            "{}: LUT decode diverged from reference",
            row.scheme
        );
    }
    for set in &row.lanes {
        set.verify();
    }
    let mut g = c.benchmark_group(row.scheme);
    let ref_ns = g.bench_best("reference", |b| {
        b.iter(|| {
            let mut a = 0u64;
            for (i, w) in row.loads.iter().enumerate() {
                a = a.wrapping_add(black_box(w.decode_reference(&refs[i])));
            }
            a
        })
    });
    let (lut_ns, inter_ns) = g.bench_best_pair(
        ["lut", "interleaved"],
        |b| {
            b.iter(|| {
                let mut a = 0u64;
                for (i, w) in row.loads.iter().enumerate() {
                    a = a.wrapping_add(black_box(w.decode_lut(&luts[i])));
                }
                a
            })
        },
        |b| {
            b.iter(|| {
                let mut a = 0u64;
                for set in &row.lanes {
                    a = a.wrapping_add(black_box(set.decode()));
                }
                a
            })
        },
    );
    let batch_ns = g.bench_best("batch", |b| {
        b.iter(|| {
            let mut a = 0u64;
            for load in &row.batches {
                a = a.wrapping_add(black_box(load.decode()));
            }
            a
        })
    });
    g.finish();
    Measurement {
        scheme: row.scheme,
        symbols: row.loads.iter().map(|w| w.syms.len()).sum(),
        compressed_bytes: row.loads.iter().map(|w| w.bytes.len()).sum(),
        ref_ns,
        lut_ns,
        num_lanes: row.lanes.iter().map(|s| s.lanes.len()).sum(),
        lane_bytes: row.lanes.iter().map(LaneSet::bytes).sum(),
        inter_ns,
        batch_blocks: row.batches.iter().map(|b| b.ops.len()).sum(),
        batch_ops: row
            .batches
            .iter()
            .map(|b| b.ops.iter().sum::<usize>())
            .sum(),
        batch_bytes: row.batches.iter().map(|b| b.image.bytes.len()).sum(),
        batch_ns,
    }
}

/// One `--lut-bits` sweep point: sequential LUT throughput per scheme
/// with the first-level table rebuilt at `lut_bits`.
struct SweepPoint {
    lut_bits: u32,
    mb_per_sec: Vec<(&'static str, f64)>,
}

fn sweep_lut_bits(c: &mut Criterion, rows: &[SchemeRow], sizes: &[u32]) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&bits| {
            let mut g = c.benchmark_group(&format!("lut_bits_{bits}"));
            let mb = rows
                .iter()
                .map(|row| {
                    let luts: Vec<Vec<LutDecoder>> = row
                        .loads
                        .iter()
                        .map(|w| {
                            w.books
                                .iter()
                                .map(|b| LutDecoder::with_lut_bits(b, bits))
                                .collect()
                        })
                        .collect();
                    let ns = g.bench_best(row.scheme, |b| {
                        b.iter(|| {
                            let mut a = 0u64;
                            for (i, w) in row.loads.iter().enumerate() {
                                a = a.wrapping_add(black_box(w.decode_lut(&luts[i])));
                            }
                            a
                        })
                    });
                    let bytes: usize = row.loads.iter().map(|w| w.bytes.len()).sum();
                    (row.scheme, bytes as f64 / (ns * 1e-9) / 1e6)
                })
                .collect();
            g.finish();
            SweepPoint {
                lut_bits: bits,
                mb_per_sec: mb,
            }
        })
        .collect()
}

fn render_table(rows: &[Measurement], names: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Decode kernel throughput — workloads [{}], reference vs LUT vs interleaved vs batch",
        names.join(", ")
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>10} {:>12} {:>12} {:>12} {:>6} {:>12} {:>8} {:>12} {:>8}",
        "scheme",
        "symbols",
        "bytes",
        "ref MB/s",
        "lut MB/s",
        "speedup",
        "lanes",
        "inter MB/s",
        "x lut",
        "dec MB/s",
        "batch MB/s"
    );
    for m in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>10} {:>12.1} {:>12.1} {:>11.2}x {:>6} {:>12.1} {:>7.2}x {:>12.0} {:>12.1}",
            m.scheme,
            m.symbols,
            m.compressed_bytes,
            m.mb_per_s(m.ref_ns),
            m.mb_per_s(m.lut_ns),
            m.speedup(),
            m.num_lanes,
            m.inter_mb_per_s(),
            m.inter_over_lut(),
            m.inter_decoded_mb_per_s(),
            m.batch_mb_per_s()
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    rows: &[Measurement],
    sweep: &[SweepPoint],
    names: &[String],
    seed: u64,
    smoke: bool,
    floor: f64,
    stream_ratio: f64,
    agg_floor: f64,
    stream_decoded: f64,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"decode_throughput\",");
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = writeln!(out, "  \"workloads\": [{}],", quoted.join(", "));
    let _ = writeln!(
        out,
        "  \"corpus\": {{ \"seed\": {seed}, \"tier\": \"tiny\", \"flavor\": \"tepic\" }},"
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"lut_bits_default\": {},",
        tinker_huffman::lut::DEFAULT_LUT_BITS
    );
    let _ = writeln!(
        out,
        "  \"floor\": {{ \"stream_interleaved_over_lut\": {floor}, \"measured\": {stream_ratio:.3}, \
         \"aggregate_decoded_mb_per_sec\": {agg_floor}, \"measured_decoded\": {stream_decoded:.1} }},"
    );
    let _ = writeln!(out, "  \"schemes\": [");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"scheme\": \"{}\",", m.scheme);
        let _ = writeln!(out, "      \"symbols\": {},", m.symbols);
        let _ = writeln!(out, "      \"compressed_bytes\": {},", m.compressed_bytes);
        for (label, ns) in [("reference", m.ref_ns), ("lut", m.lut_ns)] {
            let _ = writeln!(out, "      \"{label}\": {{");
            let _ = writeln!(out, "        \"ns_per_pass\": {ns:.1},");
            let _ = writeln!(out, "        \"symbols_per_sec\": {:.0},", m.sym_per_s(ns));
            let _ = writeln!(out, "        \"mb_per_sec\": {:.3}", m.mb_per_s(ns));
            let _ = writeln!(out, "      }},");
        }
        let _ = writeln!(out, "      \"interleaved\": {{");
        let _ = writeln!(out, "        \"lanes\": {},", m.num_lanes);
        let _ = writeln!(out, "        \"lane_bytes\": {},", m.lane_bytes);
        let _ = writeln!(out, "        \"ns_per_pass\": {:.1},", m.inter_ns);
        let _ = writeln!(
            out,
            "        \"symbols_per_sec\": {:.0},",
            m.inter_sym_per_s()
        );
        let _ = writeln!(out, "        \"mb_per_sec\": {:.3},", m.inter_mb_per_s());
        let _ = writeln!(
            out,
            "        \"decoded_mb_per_sec\": {:.3},",
            m.inter_decoded_mb_per_s()
        );
        let _ = writeln!(out, "        \"speedup_vs_lut\": {:.3}", m.inter_over_lut());
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"batch\": {{");
        let _ = writeln!(out, "        \"blocks\": {},", m.batch_blocks);
        let _ = writeln!(out, "        \"ops\": {},", m.batch_ops);
        let _ = writeln!(out, "        \"image_bytes\": {},", m.batch_bytes);
        let _ = writeln!(out, "        \"ns_per_pass\": {:.1},", m.batch_ns);
        let _ = writeln!(out, "        \"mb_per_sec\": {:.3}", m.batch_mb_per_s());
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"speedup\": {:.3}", m.speedup());
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"lut_bits_sweep\": [");
    for (i, pt) in sweep.iter().enumerate() {
        let per: Vec<String> = pt
            .mb_per_sec
            .iter()
            .map(|(s, mb)| format!("\"{s}\": {mb:.3}"))
            .collect();
        let _ = writeln!(
            out,
            "    {{ \"lut_bits\": {}, \"mb_per_sec\": {{ {} }} }}{}",
            pt.lut_bits,
            per.join(", "),
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// Parses `--lut-bits n[,n..]` from the bench argv; values clamp to the
/// 8–16 first-level range. Default sweep: 8, the default 11, and 16.
fn lut_bits_arg() -> Vec<u32> {
    let args: Vec<String> = std::env::args().collect();
    let mut sizes = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let val = if args[i] == "--lut-bits" {
            i += 1;
            args.get(i).cloned()
        } else {
            args[i].strip_prefix("--lut-bits=").map(|v| v.to_string())
        };
        if let Some(v) = val {
            for part in v.split(',') {
                if let Ok(n) = part.trim().parse::<u32>() {
                    sizes.push(n.clamp(8, 16));
                }
            }
        }
        i += 1;
    }
    if sizes.is_empty() {
        sizes = vec![8, tinker_huffman::lut::DEFAULT_LUT_BITS, 16];
    }
    sizes.dedup();
    sizes
}

fn main() {
    let t0 = std::time::Instant::now();
    let smoke = std::env::var("CCC_DECODE_SMOKE").is_ok_and(|v| v == "1");
    let mut c = if smoke {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(200))
    } else {
        Criterion::default()
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
    };

    // Workload programs: `go` plus the seeded tiny-tier corpus.
    let seed = std::env::var("CCC_DECODE_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(42);
    let mut programs: Vec<(String, Program)> = vec![(
        "go".to_string(),
        tinker_workloads::by_name("go").unwrap().compile().unwrap(),
    )];
    let corpus =
        ccc_workgen::generate_corpus(seed, ccc_workgen::Tier::Tiny, ccc_workgen::Flavor::Tepic)
            .unwrap();
    for gp in &corpus.programs {
        let p = lego::compile(&gp.source, &lego::Options::default()).unwrap();
        programs.push((gp.name.clone(), p));
    }
    let names: Vec<String> = programs.iter().map(|(n, _)| n.clone()).collect();

    let rows: Vec<SchemeRow> = ["byte", "stream", "stream_1", "full", "pair"]
        .iter()
        .map(|s| build_row(s, &programs))
        .collect();
    let measured: Vec<Measurement> = rows.iter().map(|r| measure(&mut c, r)).collect();

    // The lut-bits sweep gets a shorter budget: it is a shape scan, not
    // a headline number.
    let mut sweep_c = if smoke {
        Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(100))
    } else {
        Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(500))
    };
    let sweep = sweep_lut_bits(&mut sweep_c, &rows, &lut_bits_arg());

    // Regression floors. CCC_DECODE_FLOOR overrides the stream scheme's
    // interleaved/lut compressed-throughput ratio floor; the defaults
    // sit one noise notch under the 2.9-3.1x the multi-symbol kernel
    // measures here (see the module doc). CCC_DECODE_AGG_FLOOR gates
    // the aggregate decoded-output bandwidth in MB/s (Issue 8's
    // ">= 1 GB/s aggregate"; measured ~2.4 GB/s).
    let env_floor = std::env::var("CCC_DECODE_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if smoke { 2.2 } else { 2.5 });
    let env_agg_floor = std::env::var("CCC_DECODE_AGG_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1000.0);

    // Ledger-derived floors (DESIGN.md §16): the best same-fingerprint
    // historical value for each gated sample, derated by the sentinel
    // band. The env/default constants above stay as the absolute
    // backstop — the effective floor is the max of both, so history can
    // only *raise* the bar, never lower it.
    // Smoke and full measurements have different sample budgets, so
    // they keep separate ledger groups.
    let bench_name = if smoke {
        "decode_throughput/smoke"
    } else {
        "decode_throughput/full"
    };
    let fp = Fingerprint::current("", tinker_huffman::lut::DEFAULT_LUT_BITS as u64);
    let cfg = SentinelConfig::default();
    // `cargo bench` runs with the package dir as cwd, so a relative
    // ledger path is re-anchored at the workspace root — the same file
    // the CLI writes.
    let ledger_file = ledger::ledger_path().map(|p| {
        if p.is_absolute() {
            p
        } else {
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(p)
        }
    });
    let hist = ledger_file
        .as_deref()
        .and_then(|p| ledger::load(p).ok())
        .map(|o| o.records)
        .unwrap_or_default();
    let derived =
        |sample: &str| history::derived_floor(&hist, &fp, bench_name, sample, &cfg).unwrap_or(0.0);
    let floor = env_floor.max(derived("stream_inter_over_lut_ratio"));
    let agg_floor = env_agg_floor.max(derived("stream_decoded_mb_s"));
    if floor > env_floor || agg_floor > env_agg_floor {
        println!(
            "ledger-derived floors active: ratio {floor:.2}x (backstop {env_floor:.2}x), \
             aggregate {agg_floor:.0} MB/s (backstop {env_agg_floor:.0} MB/s)"
        );
    }
    let stream = measured.iter().find(|m| m.scheme == "stream").unwrap();
    let stream_ratio = stream.inter_over_lut();

    let table = render_table(&measured, &names);
    print!("\n{table}");
    let results = if smoke {
        env!("CARGO_TARGET_TMPDIR")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")
    };
    write_atomic(format!("{results}/decode_throughput.txt"), table.as_bytes()).unwrap();
    write_atomic(
        format!("{results}/BENCH_decode.json"),
        render_json(
            &measured,
            &sweep,
            &names,
            seed,
            smoke,
            floor,
            stream_ratio,
            agg_floor,
            stream.inter_decoded_mb_per_s(),
        )
        .as_bytes(),
    )
    .unwrap();
    println!("wrote {results}/decode_throughput.txt and {results}/BENCH_decode.json");

    // Gate 1: on the byte scheme every code fits the first-level LUT,
    // so a slower LUT path means the fast path has regressed.
    let byte = measured.iter().find(|m| m.scheme == "byte").unwrap();
    if byte.speedup() < 1.0 {
        eprintln!(
            "REGRESSION: LUT decode slower than reference on byte scheme ({:.2}x)",
            byte.speedup()
        );
        std::process::exit(1);
    }
    // Gate 2: the throughput tier must hold its floor on the stream
    // scheme (the many-cursor case it exists for).
    if stream_ratio < floor {
        eprintln!(
            "REGRESSION: stream interleaved decode at {:.2}x LUT throughput, floor {floor:.2}x \
             ({:.1} vs {:.1} MB/s)",
            stream_ratio,
            stream.inter_mb_per_s(),
            stream.mb_per_s(stream.lut_ns)
        );
        std::process::exit(1);
    }
    // Gate 3: the Issue-8 headline — aggregate decoded-output
    // bandwidth across all stream cursors.
    if stream.inter_decoded_mb_per_s() < agg_floor {
        eprintln!(
            "REGRESSION: stream interleaved decoded-output bandwidth {:.0} MB/s, \
             floor {agg_floor:.0} MB/s",
            stream.inter_decoded_mb_per_s()
        );
        std::process::exit(1);
    }

    // All gates held: append this run to the ledger so `perf --check`
    // and the next run's derived floors see it. Only passing runs land
    // here — a degenerate measurement must not become the baseline.
    let mut rec = history::base_record(
        bench_name,
        seed,
        tinker_huffman::lut::DEFAULT_LUT_BITS as u64,
        t0.elapsed().as_nanos() as u64,
    );
    rec.samples
        .insert("stream_inter_mb_s".to_string(), stream.inter_mb_per_s());
    rec.samples
        .insert("stream_inter_over_lut_ratio".to_string(), stream_ratio);
    rec.samples.insert(
        "stream_decoded_mb_s".to_string(),
        stream.inter_decoded_mb_per_s(),
    );
    for m in &measured {
        rec.samples
            .insert(format!("{}_lut_mb_s", m.scheme), m.mb_per_s(m.lut_ns));
        rec.samples
            .insert(format!("{}_speedup_ratio", m.scheme), m.speedup());
    }
    if let Some(path) = &ledger_file {
        if let Err(e) = ledger::append(path, &rec) {
            eprintln!("warning: ledger append to {} failed: {e}", path.display());
        }
    }
}
