//! `tepic-cc` — the command-line driver for the LEGO/TEPIC tool suite.
//!
//! ```text
//! tepic-cc run <file.tink>            compile and execute
//! tepic-cc disasm <file.tink>         compile and print the TEPIC listing
//! tepic-cc report <file.tink>         compression report (Fig 5/7/10 rows)
//! tepic-cc verilog <file.tink>        emit the tailored-decoder Verilog
//! tepic-cc sim <file.tink>            fetch-pipeline study (Fig 13 row)
//! tepic-cc stats <file.tink>          static + dynamic statistics
//! tepic-cc faultsim <file.tink>       fault-injection campaign over all schemes
//! tepic-cc bench [options]            the whole figure suite in one invocation
//! tepic-cc trace [options]            Chrome-trace + metrics snapshot of one run
//! tepic-cc chaos [options]            self-healing audit under injected faults
//! tepic-cc gen [options]              seeded synthetic workload corpus + calibration
//! tepic-cc perf [options]             run-ledger sentinel + cost attribution
//! tepic-cc loadgen [options]          hammer a running tepic-ccd daemon
//! ```
//!
//! With `-` as the file, source is read from stdin. `--no-opt` disables
//! the optimizer. `--seed <u64>` sets the fault-campaign PRNG seed
//! (default 42); equal seeds reproduce campaigns bit-for-bit.
//!
//! Every subcommand that compiles goes through the shared prepared-
//! workload engine, so repeated invocations on the same source hit the
//! content-addressed artifact cache (`target/ccc-artifacts` by default;
//! `CCC_CACHE_DIR` relocates it, `CCC_NO_CACHE=1` disables it).
//!
//! `bench` options:
//!
//! ```text
//! --jobs <N>        worker threads (default: all cores; CCC_JOBS)
//! --no-cache        rebuild everything, skip the artifact cache
//! --cache-dir <d>   cache location (default target/ccc-artifacts)
//! --figures <list>  comma-separated subset (default: the core figures)
//! --all             every figure, table and extension experiment
//! --assert-warm     fail unless the run was served entirely from cache
//! --lut-bits <l>    n[,n..] in 8..=16: add a decode panel sweeping the
//!                   first-level LUT size over each workload's op-word book
//! ```
//!
//! `bench` prints only figure text on stdout; the per-figure framing and
//! the engine, decode and LUT panels go to stderr, so
//! `tepic-cc bench --figures fig05 > results/fig05_compression.txt`
//! regenerates a result file (names and stems: `ccc_bench::figures::FIGURES`).
//!
//! `trace` options (DESIGN.md §12):
//!
//! ```text
//! --workload <w>    a built-in workload name (required)
//! --scheme <s>      base|tailored|byte|stream|stream_1|full (default full)
//! --out <file>      Chrome trace-event JSON destination (default trace.json)
//! --check           validate the emitted trace against the metrics snapshot
//! ```
//!
//! `trace` always runs a cold (uncached) pipeline so the compile,
//! emulate and encode spans appear in the trace; the metrics snapshot
//! lands in `results/METRICS_<scheme>.json`. `CCC_TRACE_SMOKE=1` in the
//! environment implies `--check`.
//!
//! `chaos` options (DESIGN.md §13):
//!
//! ```text
//! --seed <u64>      base PRNG seed; run r uses seed+r (default 42)
//! --sites <spec>    failpoint spec, site:prob:mode[,..] (default: all classes)
//! --runs <N>        chaos runs after the clean baseline (default 2)
//! --jobs <N>        worker threads (default: all cores; CCC_JOBS)
//! --out <file>      report path (default results/CHAOS_report.json)
//! ```
//!
//! Each chaos run replays the full figure pipeline twice (a cold pass
//! on a scratch cache, then a warm pass over the survivors) with faults
//! injected at every registered site, then decodes every workload with
//! LUT faults forced. The run passes only if every figure is
//! byte-identical to the clean baseline and the `recover.*` counters
//! reconcile one-for-one against the injection log.
//!
//! `gen` options (DESIGN.md §14):
//!
//! ```text
//! --seed <u64>      corpus seed (default 42); equal seeds reproduce the
//!                   corpus and report bit-for-bit
//! --tier <t>        tiny|paper|10x|100x|1000x (default tiny; 1000x needs
//!                   CCC_GEN_1000X=1)
//! --flavor <f>      tepic|foreign (default tepic)
//! --out <dir>       corpus destination (default results/gen-corpus)
//! --report <file>   calibration report (default results/GEN_report.json)
//! --campaign        run a fault campaign over the first generated program
//! ```
//!
//! `gen` writes one `.tink` file per generated program plus a MANIFEST,
//! pushes the whole corpus through the prepared-workload engine (compile,
//! emulate, all five scheme encodings), and emits the calibration report:
//! generated-vs-target op mix per category with a 5 pp acceptance bound.
//! The exit code is non-zero if the generated mix lands out of band.
//! `CCC_GEN_SMOKE=1` in the environment implies `--campaign`.
//!
//! `perf` options (DESIGN.md §16):
//!
//! ```text
//! --check              judge the latest ledger record of every
//!                      (fingerprint, subcommand) group against its
//!                      history; non-zero exit on any regression
//! --attr               cold in-process `bench --all` pipeline with the
//!                      trace sink on; reconstructs the causal span
//!                      forest, prints the per-workload/per-scheme/
//!                      per-stage cost-attribution tree and the critical
//!                      path (also written to results/PERF_attr.txt)
//! --ledger <file>      ledger to read/write (default CCC_LEDGER or
//!                      results/history/ledger.jsonl)
//! --band <frac>        regression band vs. the baseline best
//!                      (default 0.5 = flag beyond 1.5x)
//! --min-samples <N>    baseline records required before judging
//! --inject-slowdown <f> append a synthetic copy of each group's latest
//!                      record degraded by factor f (test fixture)
//! --jobs <N>           worker threads for --attr
//! ```
//!
//! `loadgen` options (DESIGN.md §17):
//!
//! ```text
//! --addr <host:port>   a running tepic-ccd daemon (required)
//! --requests <N>       total requests across all connections (default 2000)
//! --conns <N>          concurrent client connections (default 8)
//! --seed <u64>         request-mix seed (default 42)
//! --hot-frac <f>       hot-pool draw fraction (default 0.8)
//! --hot-pool <N>       distinct hot (program, op, scheme) combos (default 8)
//! --out <file>         results JSON (default results/BENCH_serve.json)
//! --verify             recompute a sample of encode responses locally and
//!                      re-request every hot combo, asserting the daemon's
//!                      bytes are identical to one-shot CLI artifacts
//! --shutdown           send a shutdown op after the run and verify the
//!                      daemon drains (new connections refused)
//! --min-rps <f>        fail under this aggregate ok-throughput floor
//! --max-hot-p99-ns <N> fail over this warm-hit p99 latency ceiling
//! ```
//!
//! `loadgen` appends a `serve/loadgen` ledger record whose
//! `throughput_per_s` / `*_ns` samples feed the regression sentinel,
//! so serve-path slowdowns fail `perf --check` like any other group.
//!
//! Every subcommand appends one CRC-framed JSONL record (host/build
//! fingerprint, counters, per-stage rollups, wall-clock samples) to the
//! run ledger on success; `CCC_NO_LEDGER=1` disables the append,
//! `CCC_LEDGER` relocates the file.

use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;
use tepic_ccc::bench::engine::cache::write_atomic;
use tepic_ccc::bench::engine::Engine;
use tepic_ccc::bench::figures::{self, Figure, FIGURES};
use tepic_ccc::bench::history::{self, build_features};
use tepic_ccc::bench::Prepared;
use tepic_ccc::ccc::pla::emit_tailored_decoder_verilog;
use tepic_ccc::ccc::schemes::tailored::TailoredSpec;
use tepic_ccc::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tepic-cc <run|disasm|report|verilog|sim|stats|faultsim> <file.tink|-> \
         [--no-opt] [--seed <u64>]\n\
         \x20      tepic-cc bench [--jobs <N>] [--no-cache] [--cache-dir <dir>] \
         [--figures <a,b,..>] [--all] [--assert-warm] [--lut-bits <n,..>]\n\
         \x20      tepic-cc trace --workload <name> [--scheme <s>] [--out <file>] [--check]\n\
         \x20      tepic-cc chaos [--seed <u64>] [--sites <spec>] [--runs <N>] [--jobs <N>] \
         [--out <file>]\n\
         \x20      tepic-cc gen [--seed <u64>] [--tier <t>] [--flavor <f>] [--out <dir>] \
         [--report <file>] [--campaign]\n\
         \x20      tepic-cc perf [--check] [--attr] [--ledger <file>] [--band <frac>] \
         [--min-samples <N>] [--inject-slowdown <f>] [--jobs <N>]\n\
         \x20      tepic-cc loadgen --addr <host:port> [--requests <N>] [--conns <N>] \
         [--seed <u64>] [--hot-frac <f>] [--hot-pool <N>] [--out <file>] [--verify] \
         [--shutdown] [--min-rps <f>] [--max-hot-p99-ns <N>]"
    );
    ExitCode::from(2)
}

/// The shared tail of every single-file subcommand: appends the run's
/// ledger record (fingerprint, engine counters, stage rollups,
/// wall-clock) and reports success. Failed runs never reach this, so
/// aborted-early wall times cannot poison the sentinel's baselines.
fn finish_file_cmd(cmd: &str, seed: u64, engine: &Engine, t0: Instant) -> ExitCode {
    let rec = history::engine_record(
        cmd,
        seed,
        build_features(),
        0,
        engine,
        t0.elapsed().as_nanos() as u64,
    );
    history::append_best_effort(&rec);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        return bench_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return trace_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        return chaos_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("gen") {
        return gen_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("perf") {
        return perf_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("loadgen") {
        return loadgen_cmd(&args[1..]);
    }
    let (cmd, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) => (c.as_str(), f.as_str()),
        _ => return usage(),
    };
    let optimize = !args.iter().any(|a| a == "--no-opt");
    let seed = match args.iter().position(|a| a == "--seed") {
        None => 42u64,
        Some(i) => match args.get(i + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(s)) => s,
            Some(Err(_)) => {
                eprintln!("tepic-cc: --seed wants an unsigned 64-bit integer");
                return ExitCode::from(2);
            }
            None => {
                eprintln!("tepic-cc: --seed needs a value");
                return ExitCode::from(2);
            }
        },
    };

    // The input's file stem joins the ledger group label so runs over
    // different programs never share a sentinel baseline.
    let stem = std::path::Path::new(file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("stdin");
    let cmd_group = format!("{cmd}/{stem}");

    let source = if file == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("tepic-cc: cannot read stdin");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tepic-cc: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let opts = lego::Options {
        optimize,
        ..lego::Options::default()
    };
    // The file's path names the cached artifacts; the key still hashes
    // the source text, so editing the file misses cleanly.
    let t0 = Instant::now();
    let engine = Engine::from_env();
    let program = match engine.program(file, &source, &opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tepic-cc: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd {
        "run" => match Emulator::new(&program).run(&Limits::default()) {
            Ok(r) => {
                print!("{}", r.output);
                finish_file_cmd(&cmd_group, seed, &engine, t0)
            }
            Err(e) => {
                eprintln!("tepic-cc: runtime error: {e}");
                ExitCode::FAILURE
            }
        },
        "disasm" => {
            print!("{}", program.listing());
            finish_file_cmd(&cmd_group, seed, &engine, t0)
        }
        "report" => {
            print!("{}", engine.report(file, &source, &opts, &program));
            finish_file_cmd(&cmd_group, seed, &engine, t0)
        }
        "verilog" => {
            let spec = TailoredSpec::compute(&program);
            print!(
                "{}",
                emit_tailored_decoder_verilog(&spec, "tepic_tailored_decoder")
            );
            finish_file_cmd(&cmd_group, seed, &engine, t0)
        }
        "sim" => {
            let trace = match engine.trace(file, &source, &opts, &program) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("tepic-cc: runtime error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let base = schemes::base::encode_base(&program);
            let images: Vec<EncodedProgram> = match ["tailored", "full"]
                .iter()
                .map(|s| engine.image(file, &source, &opts, s, &program))
                .collect()
            {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("tepic-cc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:<11} {:>7} {:>9} {:>8} {:>9}",
                "config", "IPC", "pred", "I$ hit", "flips"
            );
            for (name, img, cfg) in [
                ("ideal", &base, FetchConfig::ideal()),
                ("base", &base, FetchConfig::base()),
                ("tailored", &images[0], FetchConfig::tailored()),
                ("compressed", &images[1], FetchConfig::compressed()),
            ] {
                let r = simulate(&program, img, &trace, &cfg);
                println!(
                    "{name:<11} {:>7.3} {:>8.1}% {:>7.1}% {:>9}",
                    r.ipc(),
                    r.pred_accuracy() * 100.0,
                    r.cache_hit_rate() * 100.0,
                    r.bus_bit_flips
                );
            }
            finish_file_cmd(&cmd_group, seed, &engine, t0)
        }
        "faultsim" => {
            let cfg = CampaignConfig {
                seed,
                ..CampaignConfig::default()
            };
            let report = run_campaign(&program, &cfg);
            print!("{}", report.render());
            // Per-site outcomes also flow through the shared metrics
            // registry — the same reporting path bench and trace use.
            let registry = MetricsRegistry::new();
            report.record_metrics(&registry);
            println!();
            println!("metrics ({} series):", registry.len());
            print!("{}", registry.dump_text());
            finish_file_cmd(&cmd_group, seed, &engine, t0)
        }
        "stats" => {
            println!("functions   : {}", program.funcs().len());
            println!("blocks      : {}", program.num_blocks());
            println!("operations  : {}", program.num_ops());
            println!("MultiOps    : {}", program.num_mops());
            println!(
                "static ILP  : {:.2} ops/MOP",
                program.num_ops() as f64 / program.num_mops() as f64
            );
            println!("code size   : {} bytes", program.code_size());
            println!("data size   : {} bytes", program.data().len());
            match engine.trace(file, &source, &opts, &program) {
                Ok(trace) => {
                    let stats = yula::TraceStats::compute(&program, &trace);
                    println!("dyn ops     : {}", stats.ops);
                    println!("dyn blocks  : {}", stats.blocks);
                    println!("MOP density : {:.2}", stats.avg_mop_density());
                    println!("taken frac  : {:.2}", stats.taken_fraction);
                    let counts = trace.block_counts(program.num_blocks());
                    let mut hot: Vec<(usize, u64)> = counts
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(_, c)| c > 0)
                        .collect();
                    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    let top = 8.min(hot.len());
                    println!("hottest blocks (top {top} of {} executed):", hot.len());
                    for &(b, execs) in hot.iter().take(top) {
                        let ops = program.block_ops(b).len() as u64;
                        println!(
                            "  block {b:>4}: {execs:>10} execs x {ops:>2} ops = {:>12} dyn ops",
                            execs * ops
                        );
                    }
                }
                Err(e) => println!("dyn         : <runtime error: {e}>"),
            }
            let snap = engine.snapshot();
            let ms = |ns: u64| ns as f64 / 1e6;
            println!(
                "stage time  : compile {:.1} ms, emulate {:.1} ms (cold work this run)",
                ms(snap.compile_ns),
                ms(snap.emulate_ns),
            );
            finish_file_cmd(&cmd_group, seed, &engine, t0)
        }
        _ => usage(),
    }
}

fn bench_cmd(args: &[String]) -> ExitCode {
    let mut jobs: Option<usize> = None;
    let mut no_cache = false;
    let mut cache_dir: Option<String> = None;
    let mut figure_list: Option<Vec<String>> = None;
    let mut all = false;
    let mut assert_warm = false;
    let mut lut_bits: Vec<u32> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = Some(n),
                _ => {
                    eprintln!("tepic-cc bench: --jobs wants a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => no_cache = true,
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(d.clone()),
                None => {
                    eprintln!("tepic-cc bench: --cache-dir needs a path");
                    return ExitCode::from(2);
                }
            },
            "--figures" => match it.next() {
                Some(list) => {
                    figure_list = Some(list.split(',').map(|s| s.trim().to_string()).collect())
                }
                None => {
                    eprintln!("tepic-cc bench: --figures needs a comma-separated list");
                    return ExitCode::from(2);
                }
            },
            "--all" => all = true,
            "--assert-warm" => assert_warm = true,
            "--lut-bits" => match it.next() {
                Some(list) if list.split(',').all(|p| p.trim().parse::<u32>().is_ok()) => {
                    lut_bits = list
                        .split(',')
                        .map(|p| p.trim().parse::<u32>().unwrap().clamp(8, 16))
                        .collect();
                    lut_bits.dedup();
                }
                _ => {
                    eprintln!("tepic-cc bench: --lut-bits wants n[,n..] with n in 8..=16");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("tepic-cc bench: unknown option {other}");
                return usage();
            }
        }
    }

    let jobs = jobs
        .or_else(|| {
            std::env::var("CCC_JOBS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or_else(tepic_ccc::bench::engine::default_jobs);
    let engine = if no_cache {
        Engine::uncached(jobs)
    } else {
        let dir = cache_dir
            .map(std::path::PathBuf::from)
            .or_else(|| std::env::var("CCC_CACHE_DIR").ok().map(Into::into))
            .unwrap_or_else(tepic_ccc::bench::engine::default_cache_dir);
        match Engine::with_cache_dir(jobs, &dir) {
            Ok(e) => e,
            Err(err) => {
                eprintln!(
                    "tepic-cc bench: cannot open cache at {}: {err}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        }
    };

    // The figure selection joins the ledger group label — a fig05-only
    // run and the full core set are not comparable wall-clocks.
    let (selected, figure_label): (Vec<&Figure>, String) = match figure_list {
        Some(list) => {
            if let Some(name) = list.iter().find(|n| figures::figure(n).is_none()) {
                eprintln!("tepic-cc bench: unknown figure {name}");
                return ExitCode::from(2);
            }
            let selected = list.iter().filter_map(|n| figures::figure(n)).collect();
            (selected, list.join("+"))
        }
        None if all => (FIGURES.iter().collect(), "all".to_string()),
        None => (
            FIGURES.iter().filter(|f| f.core).collect(),
            "core".to_string(),
        ),
    };

    eprintln!(
        "tepic-cc bench: {} figure(s), jobs={}, cache={}",
        selected.len(),
        engine.jobs(),
        if engine.is_cached() { "on" } else { "off" }
    );

    let t0 = Instant::now();
    let prepared = match engine.prepare_all() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tepic-cc bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reports = engine.reports(&prepared);
    let prepare_wall = t0.elapsed();

    // Stdout carries only figure text, so `--figures <name>` redirected
    // to `results/<stem>.txt` regenerates that file; the framing and the
    // engine/decode panels go to stderr.
    let t1 = Instant::now();
    for fig in &selected {
        eprintln!("==================== {} ====================", fig.name);
        print!("{}", (fig.render)(&prepared, &reports));
    }
    let render_wall = t1.elapsed();

    let snap = engine.snapshot();
    eprintln!("==================== engine ====================");
    eprint!("{}", snap.render());
    eprintln!(
        "  wall    prepare {:>9.1} ms   figures {:>9.1} ms   (jobs = {})",
        prepare_wall.as_secs_f64() * 1e3,
        render_wall.as_secs_f64() * 1e3,
        engine.jobs()
    );

    // Decode-effort panel: the real decompressor over every workload's
    // fully-compressed image, printed alongside the cache stats so one
    // invocation shows both where time went and what decoding cost.
    eprintln!("==================== decode ====================");
    eprintln!(
        "{:<10} {:>8} {:>10} {:>12} {:>9} {:>7}",
        "workload", "blocks", "ops", "stall-bits", "LUT-long", "errors"
    );
    let mut tot = DecodeStats::default();
    for p in &prepared {
        match schemes::full::FullScheme::default().compress(&p.program) {
            Ok(out) => {
                let (_, ds) = simulate_decoded(
                    &p.program,
                    &p.compressed_img,
                    &p.trace,
                    &FetchConfig::compressed(),
                    out.codec.as_ref(),
                );
                eprintln!(
                    "{:<10} {:>8} {:>10} {:>12} {:>9} {:>7}",
                    p.workload.name,
                    ds.blocks_decoded,
                    ds.ops_decoded,
                    ds.stall_bits,
                    ds.long_fallbacks,
                    ds.decode_errors
                );
                tot.blocks_decoded += ds.blocks_decoded;
                tot.ops_decoded += ds.ops_decoded;
                tot.decode_errors += ds.decode_errors;
                tot.long_fallbacks += ds.long_fallbacks;
                tot.stall_bits += ds.stall_bits;
            }
            Err(e) => eprintln!("{:<10} <compress failed: {e}>", p.workload.name),
        }
    }
    eprintln!(
        "{:<10} {:>8} {:>10} {:>12} {:>9} {:>7}",
        "total",
        tot.blocks_decoded,
        tot.ops_decoded,
        tot.stall_bits,
        tot.long_fallbacks,
        tot.decode_errors
    );

    // `--lut-bits`: sequential-LUT decode throughput per first-level
    // table size, over each workload's full-scheme op-word book (the
    // same sweep `cargo bench -p ccc-bench --bench decode_throughput
    // -- --lut-bits ..` runs over all schemes).
    if !lut_bits.is_empty() {
        use tepic_ccc::huffman::{BitReader, BitWriter, Dictionary, LutDecoder};
        eprintln!("==================== lut-bits sweep ====================");
        let header: Vec<String> = lut_bits.iter().map(|b| format!("{b:>4}b MB/s",)).collect();
        eprintln!("{:<10} {}", "workload", header.join("  "));
        for p in &prepared {
            let words = p.program.op_words();
            let dict: Dictionary<u64> = words.iter().copied().collect();
            let book = match CodeBook::bounded_from_freqs(dict.freqs(), 24) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{:<10} <book failed: {e}>", p.workload.name);
                    continue;
                }
            };
            let syms: Vec<u32> = words.iter().map(|w| dict.id_of(w).unwrap()).collect();
            let mut bw = BitWriter::new();
            for &s in &syms {
                book.encode_into(s, &mut bw);
            }
            let bytes = bw.into_bytes();
            let cols: Vec<String> = lut_bits
                .iter()
                .map(|&bits| {
                    let dec = LutDecoder::with_lut_bits(&book, bits);
                    // Best of a few timed passes: interference only adds
                    // time, so the minimum estimates the kernel's cost.
                    let mut best = f64::INFINITY;
                    for _ in 0..5 {
                        let t = Instant::now();
                        let out = dec
                            .decode_n(&mut BitReader::new(&bytes), syms.len())
                            .unwrap();
                        let el = t.elapsed().as_secs_f64();
                        std::hint::black_box(&out);
                        best = best.min(el);
                    }
                    format!("{:>9.1}", bytes.len() as f64 / best / 1e6)
                })
                .collect();
            eprintln!("{:<10} {}", p.workload.name, cols.join("  "));
        }
    }

    if assert_warm {
        let expected_images =
            (prepared.len() * tepic_ccc::bench::engine::MATRIX_SCHEMES.len()) as u64;
        if snap.misses() != 0 || snap.image_hits != expected_images {
            eprintln!(
                "tepic-cc bench: --assert-warm failed: {} misses, {}/{} image hits",
                snap.misses(),
                snap.image_hits,
                expected_images
            );
            return ExitCode::FAILURE;
        }
        eprintln!("  warm-cache assertion held: 0 misses, {expected_images} image hits.");
    }

    let mut rec = history::engine_record(
        &format!("bench/{figure_label}"),
        0,
        build_features(),
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    );
    rec.samples.insert(
        "prepare_wall_ns".to_string(),
        prepare_wall.as_nanos() as f64,
    );
    rec.samples
        .insert("figures_wall_ns".to_string(), render_wall.as_nanos() as f64);
    history::append_best_effort(&rec);
    ExitCode::SUCCESS
}

fn trace_cmd(args: &[String]) -> ExitCode {
    use tepic_ccc::telemetry::{
        chrome_trace_json, metrics_snapshot_json, observe_fetch_histograms, Clock, MonotonicClock,
        TraceEvent, TraceMeta,
    };

    let t0 = Instant::now();

    let mut workload: Option<String> = None;
    let mut scheme = "full".to_string();
    let mut out_path = "trace.json".to_string();
    let mut check = std::env::var("CCC_TRACE_SMOKE").is_ok_and(|v| v == "1");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => match it.next() {
                Some(w) => workload = Some(w.clone()),
                None => {
                    eprintln!("tepic-cc trace: --workload needs a name");
                    return ExitCode::from(2);
                }
            },
            "--scheme" => match it.next() {
                Some(s) => scheme = s.clone(),
                None => {
                    eprintln!("tepic-cc trace: --scheme needs a name");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("tepic-cc trace: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            other => {
                eprintln!("tepic-cc trace: unknown option {other}");
                return usage();
            }
        }
    }
    let Some(workload) = workload else {
        eprintln!(
            "tepic-cc trace: --workload is required; known: {}",
            workloads::known_names()
        );
        return ExitCode::from(2);
    };
    // by_name_or_err's failure path lists every known benchmark, so a
    // typo'd name is a one-round-trip fix.
    let w = match workloads::by_name_or_err(&workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("tepic-cc trace: {e}");
            return ExitCode::from(2);
        }
    };
    if tepic_ccc::bench::engine::scheme_by_name(&scheme).is_none() {
        eprintln!("tepic-cc trace: unknown scheme {scheme}");
        return ExitCode::from(2);
    }

    // Always a cold engine: the compile/emulate/encode spans only exist
    // when the stages actually run, and a warm cache would skip them.
    let sink = SharedSink::new(1 << 20);
    let engine =
        Engine::uncached(tepic_ccc::bench::engine::default_jobs()).with_trace_sink(sink.clone());
    let opts = lego::Options::default();
    let program = match engine.program(w.name, w.source(), &opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tepic-cc trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let btrace = match engine.trace(w.name, w.source(), &opts, &program) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tepic-cc trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let image = match engine.image(w.name, w.source(), &opts, &scheme, &program) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("tepic-cc trace: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The image's fetch class picks the configuration and whether a
    // codec rides the hit path (only compressed code decodes for real).
    let clock = MonotonicClock::new();
    let class = EncodingClass::of(&image.kind);
    let cfg = FetchConfig::of_class(class);
    let codec = if class.decodes_on_hit() {
        let codec_start = clock.now_ns();
        let out = match tepic_ccc::bench::engine::scheme_by_name(&scheme)
            .expect("validated above")
            .compress(&program)
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tepic-cc trace: {scheme}: {e}");
                return ExitCode::FAILURE;
            }
        };
        sink.record(TraceEvent::Span {
            name: "codec",
            detail: format!("{}/{scheme}", w.name),
            id: engine.next_span_id(),
            parent: 0,
            start_ns: codec_start,
            dur_ns: clock.now_ns().saturating_sub(codec_start),
        });
        Some(out.codec)
    } else {
        None
    };

    let mut fetch_sink = sink.clone();
    let sim_start = clock.now_ns();
    let (result, dstats) = match &codec {
        Some(c) => {
            simulate_decoded_traced(&program, &image, &btrace, &cfg, c.as_ref(), &mut fetch_sink)
        }
        None => (
            simulate_traced(&program, &image, &btrace, &cfg, &mut fetch_sink),
            DecodeStats::default(),
        ),
    };
    let sim_ns = clock.now_ns().saturating_sub(sim_start);
    sink.record(TraceEvent::Span {
        name: "simulate",
        detail: format!("{}/{}", w.name, scheme),
        id: engine.next_span_id(),
        parent: 0,
        start_ns: sim_start,
        dur_ns: sim_ns,
    });

    let registry = MetricsRegistry::new();
    result.record_metrics(&registry);
    dstats.record_metrics(&registry);
    engine.snapshot().record_metrics(&registry);

    let meta = TraceMeta {
        workload: w.name.to_string(),
        scheme: scheme.clone(),
        counts: sink.counts(),
        dropped: sink.dropped(),
    };
    let events = sink.drain();
    // The instant events carry the stall/penalty/fill distributions the
    // counters flatten; fold them into histograms so the snapshot's
    // quantiles mean something.
    observe_fetch_histograms(&events, &registry);
    let trace_json = chrome_trace_json(&events, &meta);
    let metrics_json = metrics_snapshot_json(&registry, &meta);
    if let Err(e) = write_atomic(&out_path, trace_json.as_bytes()) {
        eprintln!("tepic-cc trace: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    // metrics_snapshot_name escapes injectively, so two distinct
    // scheme names can never collide on (or traverse out of) one
    // snapshot path; the matrix schemes keep their historical names.
    let metrics_path = format!(
        "results/{}",
        tepic_ccc::telemetry::metrics_snapshot_name(&scheme)
    );
    if let Err(e) = write_atomic(&metrics_path, metrics_json.as_bytes()) {
        eprintln!("tepic-cc trace: cannot write {metrics_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "trace: {} events ({} spans, {} dropped) -> {out_path}",
        events.len(),
        meta.counts.spans,
        meta.dropped
    );
    println!("metrics: {} series -> {metrics_path}", registry.len());
    println!(
        "fetch: IPC {:.3}, pred {:.1}%, I$ hit {:.1}%; decode: {} blocks, {} stall bits, {} LUT fallbacks",
        result.ipc(),
        result.pred_accuracy() * 100.0,
        result.cache_hit_rate() * 100.0,
        dstats.blocks_decoded,
        dstats.stall_bits,
        dstats.long_fallbacks
    );
    if check {
        match validate_trace(&trace_json, &metrics_json, &scheme, class) {
            Ok(()) => println!("check: trace/metrics reconciliation and span coverage held"),
            Err(e) => {
                eprintln!("tepic-cc trace: check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Scheme and workload join the group label: a tailored-scheme trace
    // and a full-scheme trace have different cost shapes, and the
    // sentinel must only compare like with like.
    let mut rec = history::engine_record(
        &format!("trace/{}/{scheme}", w.name),
        0,
        build_features(),
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    );
    rec.samples.insert("simulate_ns".to_string(), sim_ns as f64);
    history::append_best_effort(&rec);
    ExitCode::SUCCESS
}

/// The default chaos fault mix: every site class the engine registers,
/// at rates high enough to guarantee coverage over a full figure run
/// yet far below the retry budget's give-up horizon.
const DEFAULT_CHAOS_SITES: &str = "cache.read:0.2:io,cache.read:0.15:corrupt,\
                                   cache.write:0.2:io,cache.rename:0.1:io,\
                                   pool.job:0.1:panic,stage.compile:0.2:flaky,\
                                   stage.emulate:0.15:flaky,stage.encode:0.2:flaky,\
                                   stage.report:0.15:flaky,decode.lut:0.5:error";

/// Silences panic output for injected `pool.job` faults (the isolated
/// pool catches them; the default hook's backtraces would drown the
/// chaos summary) while leaving real panics loud.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
        if msg.is_some_and(|m| m.contains("injected failpoint")) {
            return;
        }
        default_hook(info);
    }));
}

/// Renders the core figure suite to one comparable string.
fn figure_suite_text(prepared: &[Prepared], reports: &[CompressionReport]) -> String {
    let mut s = String::new();
    for fig in FIGURES.iter().filter(|f| f.core) {
        s.push_str("==================== ");
        s.push_str(fig.name);
        s.push_str(" ====================\n");
        s.push_str(&(fig.render)(prepared, reports));
        s.push('\n');
    }
    s
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn chaos_cmd(args: &[String]) -> ExitCode {
    use std::sync::Arc;
    use tepic_ccc::bench::engine::RecoverySnapshot;
    use tepic_ccc::ccc::failpoint::{class_of, sites, FailMode, Failpoints, REQUIRED_CLASSES};

    let mut seed = 42u64;
    let mut sites_spec = DEFAULT_CHAOS_SITES.to_string();
    // CCC_CHAOS_SMOKE=1 is the CI gate: one chaos run, same assertions.
    let mut runs = if std::env::var("CCC_CHAOS_SMOKE").is_ok_and(|v| v == "1") {
        1
    } else {
        2
    };
    let mut jobs: Option<usize> = None;
    let mut out_path = "results/CHAOS_report.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => seed = s,
                _ => {
                    eprintln!("tepic-cc chaos: --seed wants an unsigned 64-bit integer");
                    return ExitCode::from(2);
                }
            },
            "--sites" => match it.next() {
                Some(s) => sites_spec = s.clone(),
                None => {
                    eprintln!("tepic-cc chaos: --sites needs a site:prob:mode[,..] spec");
                    return ExitCode::from(2);
                }
            },
            "--runs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => runs = n,
                _ => {
                    eprintln!("tepic-cc chaos: --runs wants a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = Some(n),
                _ => {
                    eprintln!("tepic-cc chaos: --jobs wants a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("tepic-cc chaos: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("tepic-cc chaos: unknown option {other}");
                return usage();
            }
        }
    }
    if let Err(e) = Failpoints::from_spec(&sites_spec, 0) {
        eprintln!("tepic-cc chaos: --sites: {e}");
        return ExitCode::from(2);
    }
    let jobs = jobs
        .or_else(|| {
            std::env::var("CCC_JOBS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or_else(tepic_ccc::bench::engine::default_jobs);
    quiet_injected_panics();
    let root = std::path::Path::new("target/ccc-chaos");

    // One pass of the full figure pipeline: fresh engine over `dir`,
    // optionally with an armed failpoint registry.
    let pass = |dir: &std::path::Path,
                fp: Option<&Arc<Failpoints>>|
     -> Result<(Vec<Prepared>, String, RecoverySnapshot), String> {
        let engine = Engine::with_cache_dir(jobs, dir)
            .map_err(|e| format!("cannot open cache at {}: {e}", dir.display()))?;
        let engine = match fp {
            Some(fp) => engine.with_failpoints(Arc::clone(fp)),
            None => engine,
        };
        let prepared = engine.prepare_all().map_err(|e| e.to_string())?;
        let reports = engine.reports(&prepared);
        let text = figure_suite_text(&prepared, &reports);
        Ok((prepared, text, engine.recovery()))
    };

    // The decode phase: the real decompressor over every workload's
    // full-Huffman image, with LUT faults injected when `fp` is armed.
    let decode_all = |prepared: &[Prepared],
                      fp: Option<&Failpoints>|
     -> Result<(Vec<FetchResult>, u64), String> {
        let mut out = Vec::with_capacity(prepared.len());
        let mut fallbacks = 0u64;
        for p in prepared {
            let full = schemes::full::FullScheme::default()
                .compress(&p.program)
                .map_err(|e| format!("{}: compress: {e}", p.workload.name))?;
            let cfg = FetchConfig::compressed();
            let (r, ds) = match fp {
                Some(fp) => simulate_decoded_injected(
                    &p.program,
                    &full.image,
                    &p.trace,
                    &cfg,
                    full.codec.as_ref(),
                    fp,
                ),
                None => {
                    simulate_decoded(&p.program, &full.image, &p.trace, &cfg, full.codec.as_ref())
                }
            };
            fallbacks += ds.reference_fallbacks;
            out.push(r);
        }
        Ok((out, fallbacks))
    };

    // Clean baseline: a cold run with no faults armed.
    eprintln!("tepic-cc chaos: baseline (jobs={jobs}, sites={sites_spec})");
    let clean_dir = root.join("clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let (clean_prepared, baseline, _) = match pass(&clean_dir, None) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tepic-cc chaos: baseline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (clean_decode, _) = match decode_all(&clean_prepared, None) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tepic-cc chaos: baseline decode failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let t0 = Instant::now();
    let mut all_ok = true;
    let mut coverage: Vec<(&'static str, u64)> = Vec::new();
    let mut run_jsons = Vec::new();
    for r in 0..runs {
        let run_seed = seed.wrapping_add(r as u64);
        let fp = match Failpoints::from_spec(&sites_spec, run_seed) {
            Ok(fp) => Arc::new(fp),
            Err(e) => {
                eprintln!("tepic-cc chaos: {e}");
                return ExitCode::FAILURE;
            }
        };
        let dir = root.join(format!("run-{r}"));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold pass builds everything under fire; the warm pass re-reads
        // whatever survived, exercising the cache.read sites on real
        // entries; the decode phase forces the LUT fallback path.
        let mut error = String::new();
        let mut cold_identical = false;
        let mut warm_identical = false;
        let mut decode_identical = false;
        let mut fallbacks = 0u64;
        let mut recs: Vec<RecoverySnapshot> = Vec::new();
        match pass(&dir, Some(&fp)) {
            Err(e) => error = format!("cold pass: {e}"),
            Ok((prepared, text, rec)) => {
                cold_identical = text == baseline;
                recs.push(rec);
                match decode_all(&prepared, Some(&fp)) {
                    Err(e) => error = format!("decode: {e}"),
                    Ok((results, fb)) => {
                        decode_identical = results == clean_decode;
                        fallbacks = fb;
                        match pass(&dir, Some(&fp)) {
                            Err(e) => error = format!("warm pass: {e}"),
                            Ok((_, text, rec)) => {
                                warm_identical = text == baseline;
                                recs.push(rec);
                            }
                        }
                    }
                }
            }
        }

        // Reconcile: every injected fault must be accounted for by
        // exactly one recovery action (DESIGN.md §13).
        let rsum = |f: fn(&RecoverySnapshot) -> u64| recs.iter().map(f).sum::<u64>();
        let stage_fired: u64 = [
            sites::STAGE_COMPILE,
            sites::STAGE_EMULATE,
            sites::STAGE_ENCODE,
            sites::STAGE_REPORT,
        ]
        .iter()
        .map(|s| fp.fired(s, FailMode::Flaky))
        .sum();
        let checks: [(&str, u64, u64); 6] = [
            (
                "cache.read:io == transient read faults",
                fp.fired(sites::CACHE_READ, FailMode::Io),
                rsum(|x| x.cache_read_faults),
            ),
            (
                "cache.read:corrupt == quarantined entries",
                fp.fired(sites::CACHE_READ, FailMode::Corrupt),
                rsum(|x| x.quarantined),
            ),
            (
                "cache.{write,rename}:io == failed store attempts",
                fp.fired(sites::CACHE_WRITE, FailMode::Io)
                    + fp.fired(sites::CACHE_RENAME, FailMode::Io),
                rsum(|x| x.cache_write_faults),
            ),
            (
                "pool.job:panic == caught job panics",
                fp.fired(sites::POOL_JOB, FailMode::Panic),
                rsum(|x| x.job_panics),
            ),
            (
                "stage.*:flaky == stage faults retried",
                stage_fired,
                rsum(|x| x.stage_faults),
            ),
            (
                "decode.lut:error == reference fallbacks",
                fp.fired(sites::DECODE_LUT, FailMode::Error),
                fallbacks,
            ),
        ];
        let reconciled = checks.iter().all(|&(_, inj, rec)| inj == rec);
        for &(name, inj, rec) in &checks {
            if inj != rec {
                eprintln!(
                    "tepic-cc chaos: run {r}: MISMATCH {name}: injected {inj}, recovered {rec}"
                );
            }
        }

        // Injection census for the report, and class coverage.
        let log = fp.log();
        let mut census: Vec<(String, u64)> = Vec::new();
        for inj in &log {
            let key = format!("{}:{}", inj.site, inj.mode);
            match census.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => census.push((key, 1)),
            }
            let class = class_of(&inj.site);
            match coverage.iter_mut().find(|(c, _)| *c == class) {
                Some((_, n)) => *n += 1,
                None => coverage.push((class, 1)),
            }
        }
        census.sort();

        let ok =
            error.is_empty() && cold_identical && warm_identical && decode_identical && reconciled;
        all_ok &= ok;
        let verdict = |b: bool| if b { "identical" } else { "DIVERGED" };
        if error.is_empty() {
            println!(
                "chaos run {}/{runs} (seed {run_seed}): {} faults injected; figures cold={} warm={} decode={}; {}",
                r + 1,
                log.len(),
                verdict(cold_identical),
                verdict(warm_identical),
                verdict(decode_identical),
                if reconciled { "reconciled" } else { "NOT RECONCILED" },
            );
        } else {
            println!(
                "chaos run {}/{runs} (seed {run_seed}): FAILED: {error}",
                r + 1
            );
        }

        let recovery_totals: [(&str, u64); 11] = [
            ("cache_read_faults", rsum(|x| x.cache_read_faults)),
            ("cache_read_giveups", rsum(|x| x.cache_read_giveups)),
            ("quarantined", rsum(|x| x.quarantined)),
            ("cache_write_faults", rsum(|x| x.cache_write_faults)),
            ("cache_write_giveups", rsum(|x| x.cache_write_giveups)),
            ("job_panics", rsum(|x| x.job_panics)),
            ("job_retries", rsum(|x| x.job_retries)),
            ("job_giveups", rsum(|x| x.job_giveups)),
            ("stage_faults", rsum(|x| x.stage_faults)),
            ("stage_giveups", rsum(|x| x.stage_giveups)),
            ("reference_fallbacks", fallbacks),
        ];
        let injected_json = census
            .iter()
            .map(|(k, n)| format!("\"{}\": {n}", json_escape(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let recovery_json = recovery_totals
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        run_jsons.push(format!(
            "    {{\n      \"seed\": {run_seed},\n      \"ok\": {ok},\n      \
             \"error\": \"{}\",\n      \"figures_cold_identical\": {cold_identical},\n      \
             \"figures_warm_identical\": {warm_identical},\n      \
             \"decode_identical\": {decode_identical},\n      \
             \"reconciled\": {reconciled},\n      \"total_injected\": {},\n      \
             \"injected\": {{{injected_json}}},\n      \"recovery\": {{{recovery_json}}}\n    }}",
            json_escape(&error),
            log.len(),
        ));
    }

    // Campaign-wide coverage: every required site class must have fired
    // at least once, or the run proved nothing about that class.
    coverage.sort();
    let mut missing = Vec::new();
    for class in REQUIRED_CLASSES {
        if !coverage.iter().any(|&(c, n)| c == class && n > 0) {
            missing.push(class);
        }
    }
    if !missing.is_empty() {
        eprintln!("tepic-cc chaos: no injected faults in class(es): {missing:?}");
        all_ok = false;
    }
    let coverage_json = coverage
        .iter()
        .map(|(c, n)| format!("\"{c}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let report = format!(
        "{{\n  \"seed\": {seed},\n  \"runs\": {runs},\n  \"jobs\": {jobs},\n  \
         \"sites\": \"{}\",\n  \"figures\": [{}],\n  \"coverage\": {{{coverage_json}}},\n  \
         \"runs_detail\": [\n{}\n  ],\n  \"ok\": {all_ok}\n}}\n",
        json_escape(&sites_spec),
        FIGURES
            .iter()
            .filter(|f| f.core)
            .map(|f| format!("\"{}\"", f.name))
            .collect::<Vec<_>>()
            .join(", "),
        run_jsons.join(",\n"),
    );
    if let Err(e) = write_atomic(&out_path, report.as_bytes()) {
        eprintln!("tepic-cc chaos: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "chaos: {} run(s) in {:.1} s; coverage {:?}; report -> {out_path}",
        runs,
        t0.elapsed().as_secs_f64(),
        coverage,
    );
    if all_ok {
        println!("chaos: all figures byte-identical under fault injection; recovery reconciled.");
        // Smoke (one run) and full campaigns are different workloads to
        // the sentinel.
        let mode = if std::env::var("CCC_CHAOS_SMOKE").is_ok_and(|v| v == "1") {
            "smoke"
        } else {
            "full"
        };
        let rec = history::base_record(
            &format!("chaos/{mode}"),
            seed,
            build_features(),
            0,
            t0.elapsed().as_nanos() as u64,
        );
        history::append_best_effort(&rec);
        ExitCode::SUCCESS
    } else {
        eprintln!("tepic-cc chaos: FAILED (see {out_path})");
        ExitCode::FAILURE
    }
}

/// Cross-checks an emitted Chrome trace against its metrics snapshot:
/// both parse, every pipeline stage the traced scheme exercises has a
/// span, the span ids/parents form a well-formed forest, nothing was
/// dropped, and the per-kind event totals agree with the `fetch.*`
/// counters — the CLI-level version of the engine's internal
/// reconciliation.
fn validate_trace(
    trace_json: &str,
    metrics_json: &str,
    scheme: &str,
    class: EncodingClass,
) -> Result<(), String> {
    use tepic_ccc::telemetry::{parse_json, JsonValue};
    let t = parse_json(trace_json).map_err(|e| format!("trace JSON: {e}"))?;
    let m = parse_json(metrics_json).map_err(|e| format!("metrics JSON: {e}"))?;
    let events = t
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("traceEvents missing")?;
    // Per-scheme span coverage: every scheme runs the engine stages and
    // the fetch simulation; schemes that decode on hit must additionally
    // show the codec-construction span (the others fetch without a
    // serial decoder, so demanding it there would always fail).
    let mut required = vec!["compile", "emulate", "encode", "simulate"];
    if class.decodes_on_hit() {
        required.push("codec");
    }
    for stage in required {
        let n = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("X")
                    && e.get("name").and_then(JsonValue::as_str) == Some(stage)
            })
            .count();
        if n == 0 {
            return Err(format!("no {stage} span in trace (scheme {scheme})"));
        }
    }
    // Causal integrity of the emitted spans: ids unique and non-zero,
    // every parent link resolving to a span in the same trace.
    let mut span_ids = Vec::new();
    for e in events.iter() {
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let args = e.get("args").ok_or("span without args")?;
        let id = args
            .get("id")
            .and_then(JsonValue::as_f64)
            .ok_or("span without id")?;
        if id == 0.0 {
            return Err("span with id 0".to_string());
        }
        if span_ids.contains(&id) {
            return Err(format!("duplicate span id {id}"));
        }
        span_ids.push(id);
    }
    for e in events.iter() {
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let parent = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(JsonValue::as_f64)
            .ok_or("span without parent")?;
        if parent != 0.0 && !span_ids.contains(&parent) {
            return Err(format!("span parent {parent} names no span"));
        }
    }
    let meta = t.get("metadata").ok_or("metadata missing")?;
    match meta.get("dropped").and_then(JsonValue::as_f64) {
        Some(0.0) => {}
        Some(n) => return Err(format!("{n} events dropped from the ring")),
        None => return Err("metadata.dropped missing".to_string()),
    }
    let counts = meta.get("counts").ok_or("metadata.counts missing")?;
    let counters = m
        .get("metrics")
        .and_then(|v| v.get("counters"))
        .ok_or("metrics.counters missing")?;
    let num = |obj: &JsonValue, k: &str| obj.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    for (kind, metric) in [
        ("cache_hit", "fetch.cache_hits"),
        ("cache_miss", "fetch.cache_misses"),
        ("atb_hit", "fetch.atb_hits"),
        ("atb_miss", "fetch.atb_misses"),
        ("pred_correct", "fetch.pred_correct"),
        ("pred_wrong", "fetch.pred_wrong"),
        ("l0_hit", "fetch.buffer_hits"),
        ("l0_fill", "fetch.buffer_misses"),
        ("decode_stall", "fetch.buffer_misses"),
        ("integrity_fault", "fetch.integrity_faults"),
    ] {
        let traced = num(counts, kind);
        let counted = num(counters, metric);
        if traced != counted {
            return Err(format!("counts.{kind} = {traced} but {metric} = {counted}"));
        }
    }
    // Nothing dropped, so the instant events in the stream must match
    // the totals kind for kind.
    for kind in [
        "cache_hit",
        "cache_miss",
        "atb_hit",
        "atb_miss",
        "pred_correct",
        "pred_wrong",
        "l0_hit",
        "l0_fill",
        "decode_stall",
        "integrity_fault",
    ] {
        let streamed = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("i")
                    && e.get("name").and_then(JsonValue::as_str) == Some(kind)
            })
            .count() as f64;
        let total = num(counts, kind);
        if streamed != total {
            return Err(format!("{kind}: {streamed} in stream, {total} in totals"));
        }
    }
    Ok(())
}

fn gen_cmd(args: &[String]) -> ExitCode {
    use tepic_ccc::ccc::fault::{run_campaign, CampaignConfig};
    use tepic_ccc::workgen::{
        generate_corpus, CalibrationReport, CampaignSummary, Flavor, MixProfile, SchemeSites, Tier,
    };
    use tepic_ccc::yula::opmix::OpMix;

    let mut seed = 42u64;
    let mut tier = Tier::Tiny;
    let mut flavor = Flavor::Tepic;
    let mut out_dir = "results/gen-corpus".to_string();
    let mut report_path = "results/GEN_report.json".to_string();
    let mut campaign = std::env::var("CCC_GEN_SMOKE").is_ok_and(|v| v == "1");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => seed = s,
                _ => {
                    eprintln!("tepic-cc gen: --seed wants an unsigned 64-bit integer");
                    return ExitCode::from(2);
                }
            },
            "--tier" => match it.next().map(|t| Tier::by_name(t)) {
                Some(Some(t)) => tier = t,
                _ => {
                    let known = Tier::ALL.map(Tier::name).join("|");
                    eprintln!("tepic-cc gen: --tier wants one of {known}");
                    return ExitCode::from(2);
                }
            },
            "--flavor" => match it.next().map(|f| Flavor::by_name(f)) {
                Some(Some(f)) => flavor = f,
                _ => {
                    let known = Flavor::ALL.map(Flavor::name).join("|");
                    eprintln!("tepic-cc gen: --flavor wants one of {known}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_dir = p.clone(),
                None => {
                    eprintln!("tepic-cc gen: --out needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--report" => match it.next() {
                Some(p) => report_path = p.clone(),
                None => {
                    eprintln!("tepic-cc gen: --report needs a path");
                    return ExitCode::from(2);
                }
            },
            "--campaign" => campaign = true,
            other => {
                eprintln!("tepic-cc gen: unknown option {other}");
                return usage();
            }
        }
    }

    let start = Instant::now();
    let corpus = match generate_corpus(seed, tier, flavor) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tepic-cc gen: {e}");
            return ExitCode::from(2);
        }
    };

    // Write the corpus: one .tink per program plus a manifest, all
    // deterministic so two equal-seed invocations are byte-identical.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("tepic-cc gen: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let mut manifest = String::new();
    for gp in &corpus.programs {
        let path = format!("{out_dir}/{}.tink", gp.name);
        if let Err(e) = write_atomic(&path, gp.source.as_bytes()) {
            eprintln!("tepic-cc gen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        manifest.push_str(&format!(
            "{} seed={} bytes={}\n",
            gp.name,
            gp.seed,
            gp.source.len()
        ));
    }
    if let Err(e) = write_atomic(format!("{out_dir}/MANIFEST.txt"), manifest.as_bytes()) {
        eprintln!("tepic-cc gen: cannot write manifest: {e}");
        return ExitCode::FAILURE;
    }

    // Everything below flows through the prepared-workload engine, so
    // the corpus exercises the same compile/emulate/encode pipeline (and
    // artifact cache) as the real benchmark suite.
    let engine = Engine::from_env();
    let prepared = match engine.prepare(&corpus.workloads()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tepic-cc gen: {e}");
            return ExitCode::FAILURE;
        }
    };

    let programs: Vec<&Program> = prepared.iter().map(|p| &p.program).collect();
    let dynamic_ops: u64 = prepared
        .iter()
        .map(|p| OpMix::dynamic_mix(&p.program, &p.trace).total())
        .sum();
    let scheme_sites = tepic_ccc::bench::engine::MATRIX_SCHEMES
        .iter()
        .map(|&scheme| {
            let image_bytes: u64 = prepared
                .iter()
                .map(|p| p.image(scheme).expect("matrix scheme").total_bytes() as u64)
                .sum();
            SchemeSites {
                scheme: scheme.to_string(),
                image_bytes,
                sites: image_bytes * 8,
            }
        })
        .collect();

    // The smoke campaign targets the first generated program: enough to
    // prove the fault machinery accepts synthetic inputs without paying
    // for a full sweep on every generation run.
    let campaign = campaign.then(|| {
        let cfg = CampaignConfig {
            seed,
            faults_per_target: 50,
        };
        let rep = run_campaign(&prepared[0].program, &cfg);
        CampaignSummary {
            seed: rep.seed,
            faults_per_target: rep.faults_per_target as u32,
            program: prepared[0].workload.name.to_string(),
            rows: rep
                .rows
                .iter()
                .map(|r| tepic_ccc::workgen::CampaignRow {
                    scheme: r.scheme.clone(),
                    detected: r.payload.detected,
                    contained: r.payload.contained,
                    sdc: r.payload.sdc,
                    masked: r.payload.masked,
                })
                .collect(),
        }
    });

    let report = CalibrationReport {
        seed,
        tier: tier.name().to_string(),
        flavor: flavor.name().to_string(),
        programs: corpus.programs.len(),
        source_bytes: corpus.source_bytes(),
        static_ops: programs.iter().map(|p| p.num_ops() as u64).sum(),
        blocks: programs.iter().map(|p| p.num_blocks() as u64).sum(),
        dynamic_ops,
        target: flavor.target(),
        measured_real: MixProfile::measured_real().clone(),
        generated_static: MixProfile::from_programs(programs.iter().copied()),
        generated_dynamic: MixProfile::from_traces(prepared.iter().map(|p| (&p.program, &p.trace))),
        threshold_pp: 5.0,
        scheme_sites,
        campaign,
    };

    if let Err(e) = write_atomic(&report_path, report.to_json().as_bytes()) {
        eprintln!("tepic-cc gen: cannot write {report_path}: {e}");
        return ExitCode::FAILURE;
    }

    print!("{}", report.render());
    println!(
        "wrote {} programs to {out_dir}, report to {report_path} ({:.1}s)",
        corpus.programs.len(),
        start.elapsed().as_secs_f64()
    );
    if report.ok() {
        let rec = history::engine_record(
            &format!("gen/{}", tier.name()),
            seed,
            build_features(),
            0,
            &engine,
            start.elapsed().as_nanos() as u64,
        );
        history::append_best_effort(&rec);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tepic-cc gen: generated mix out of band ({:.2} pp > {:.1} pp)",
            report.max_delta_pp(),
            report.threshold_pp
        );
        ExitCode::FAILURE
    }
}

fn perf_cmd(args: &[String]) -> ExitCode {
    use std::path::PathBuf;
    use tepic_ccc::bench::history::SentinelConfig;
    use tepic_ccc::telemetry::ledger;

    let mut do_check = false;
    let mut do_attr = false;
    let mut ledger_override: Option<PathBuf> = None;
    let mut cfg = SentinelConfig::default();
    let mut inject: Option<f64> = None;
    let mut jobs: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => do_check = true,
            "--attr" => do_attr = true,
            "--ledger" => match it.next() {
                Some(p) => ledger_override = Some(PathBuf::from(p)),
                None => {
                    eprintln!("tepic-cc perf: --ledger needs a path");
                    return ExitCode::from(2);
                }
            },
            "--band" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(b)) if b >= 0.0 => cfg.band = b,
                _ => {
                    eprintln!("tepic-cc perf: --band wants a non-negative fraction (0.5 = 1.5x)");
                    return ExitCode::from(2);
                }
            },
            "--min-samples" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => cfg.min_samples = n,
                _ => {
                    eprintln!("tepic-cc perf: --min-samples wants a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--inject-slowdown" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(f)) if f > 0.0 => inject = Some(f),
                _ => {
                    eprintln!("tepic-cc perf: --inject-slowdown wants a positive factor");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = Some(n),
                _ => {
                    eprintln!("tepic-cc perf: --jobs wants a positive integer");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("tepic-cc perf: unknown option {other}");
                return usage();
            }
        }
    }
    // The explicit flag wins over CCC_LEDGER; a CCC_NO_LEDGER run can
    // still *read* the default ledger — the variable gates appends, not
    // the sentinel.
    let path = ledger_override
        .or_else(ledger::ledger_path)
        .unwrap_or_else(|| PathBuf::from(ledger::DEFAULT_LEDGER_PATH));

    let mut ok = true;
    if let Some(factor) = inject {
        ok &= perf_inject(&path, factor);
    }
    if do_attr {
        let jobs = jobs
            .or_else(|| {
                std::env::var("CCC_JOBS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
            })
            .unwrap_or_else(tepic_ccc::bench::engine::default_jobs);
        ok &= perf_attr(jobs);
    }
    if do_check {
        ok &= perf_check(&path, &cfg);
    }
    if inject.is_none() && !do_attr && !do_check {
        ok = perf_summary(&path);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `perf --inject-slowdown`: appends a synthetic copy of each group's
/// latest record degraded by `factor` — the test fixture the perf smoke
/// uses to prove the sentinel actually fires.
fn perf_inject(path: &std::path::Path, factor: f64) -> bool {
    use std::collections::BTreeMap;
    use tepic_ccc::bench::history::{direction_of, Direction};
    use tepic_ccc::telemetry::{ledger, LedgerRecord};

    let outcome = match ledger::load(path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tepic-cc perf: cannot read {}: {e}", path.display());
            return false;
        }
    };
    if outcome.records.is_empty() {
        eprintln!(
            "tepic-cc perf: {} holds no records to degrade",
            path.display()
        );
        return false;
    }
    let mut latest: BTreeMap<String, LedgerRecord> = BTreeMap::new();
    for rec in outcome.records {
        let key = format!("{} :: {}", rec.fingerprint.key(), rec.subcommand);
        latest.insert(key, rec);
    }
    let mut appended = 0usize;
    for (_, mut rec) in latest {
        rec.wall_ns = (rec.wall_ns as f64 * factor) as u64;
        for (name, v) in rec.samples.iter_mut() {
            match direction_of(name) {
                Some(Direction::LowerIsBetter) => *v *= factor,
                Some(Direction::HigherIsBetter) => *v /= factor,
                None => {}
            }
        }
        if let Err(e) = ledger::append(path, &rec) {
            eprintln!("tepic-cc perf: cannot append to {}: {e}", path.display());
            return false;
        }
        appended += 1;
    }
    println!(
        "perf: appended {appended} synthetic record(s) degraded {factor:.2}x to {}",
        path.display()
    );
    true
}

/// `perf --check`: the regression sentinel. Judges the latest record of
/// every (fingerprint, subcommand) ledger group against that group's
/// history and reports false on any regression beyond the band.
fn perf_check(path: &std::path::Path, cfg: &tepic_ccc::bench::history::SentinelConfig) -> bool {
    use tepic_ccc::bench::history::SentinelStatus;
    use tepic_ccc::telemetry::ledger;

    let outcome = match ledger::load(path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tepic-cc perf: cannot read {}: {e}", path.display());
            return false;
        }
    };
    if outcome.skipped > 0 {
        eprintln!(
            "perf: note: skipped {} unreadable ledger line(s)",
            outcome.skipped
        );
    }
    if outcome.records.is_empty() {
        println!(
            "perf check: {} holds no records; nothing to judge",
            path.display()
        );
        return true;
    }
    let verdicts = history::check(&outcome.records, cfg);
    let (mut passed, mut fresh, mut regressions) = (0usize, 0usize, 0usize);
    for v in &verdicts {
        match &v.status {
            SentinelStatus::Pass => passed += 1,
            SentinelStatus::InsufficientHistory => fresh += 1,
            SentinelStatus::Regression { worse_by } => {
                regressions += 1;
                eprintln!(
                    "REGRESSION: {} / {}: latest {:.0} vs best {:.0} ({:.2}x worse; \
                     baseline median {:.0}, MAD {:.0}, n={})",
                    v.group, v.sample, v.latest, v.best, worse_by, v.median, v.mad, v.baseline_n
                );
            }
        }
    }
    println!(
        "perf check: {} record(s); {} sample(s): {} pass, {} without history, \
         {} regression(s) (band {:.0}%, min-samples {})",
        outcome.records.len(),
        verdicts.len(),
        passed,
        fresh,
        regressions,
        cfg.band * 100.0,
        cfg.min_samples
    );
    let serve_failures = serve_floor_check(&outcome.records, cfg);
    regressions == 0 && serve_failures == 0
}

/// Absolute throughput backstop for `serve/*` ledger groups, layered
/// under the relative sentinel (which needs history): the latest record
/// of every serve group must clear `max(CCC_SERVE_FLOOR_RPS, derived
/// historical floor)` on `throughput_per_s`. Returns the failure count.
fn serve_floor_check(
    records: &[tepic_ccc::telemetry::LedgerRecord],
    cfg: &tepic_ccc::bench::history::SentinelConfig,
) -> usize {
    use std::collections::BTreeMap;
    use tepic_ccc::telemetry::LedgerRecord;

    let env_floor = std::env::var("CCC_SERVE_FLOOR_RPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(10.0);
    let mut latest: BTreeMap<String, &LedgerRecord> = BTreeMap::new();
    for rec in records {
        if rec.subcommand.starts_with("serve/") {
            let key = format!("{} :: {}", rec.fingerprint.key(), rec.subcommand);
            latest.insert(key, rec);
        }
    }
    let mut failures = 0usize;
    for (group, rec) in &latest {
        let Some(&rps) = rec.samples.get("throughput_per_s") else {
            continue;
        };
        let derived = history::derived_floor(
            records,
            &rec.fingerprint,
            &rec.subcommand,
            "throughput_per_s",
            cfg,
        )
        .unwrap_or(0.0);
        let floor = env_floor.max(derived);
        if rps < floor {
            eprintln!("SERVE FLOOR: {group}: throughput {rps:.1}/s under floor {floor:.1}/s");
            failures += 1;
        } else {
            println!("serve floor: {group}: throughput {rps:.1}/s >= {floor:.1}/s");
        }
    }
    failures
}

/// Bare `perf`: a one-screen inventory of the ledger's groups.
fn perf_summary(path: &std::path::Path) -> bool {
    use std::collections::BTreeMap;
    use tepic_ccc::telemetry::ledger;

    let outcome = match ledger::load(path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tepic-cc perf: cannot read {}: {e}", path.display());
            return false;
        }
    };
    let mut groups: BTreeMap<String, usize> = BTreeMap::new();
    for rec in &outcome.records {
        let key = format!("{} :: {}", rec.fingerprint.key(), rec.subcommand);
        *groups.entry(key).or_default() += 1;
    }
    println!(
        "ledger {}: {} record(s), {} skipped line(s), {} group(s)",
        path.display(),
        outcome.records.len(),
        outcome.skipped,
        groups.len()
    );
    for (g, n) in &groups {
        println!("  {n:>4}  {g}");
    }
    true
}

/// One line of the attribution tree, then the node's children sorted by
/// start time.
fn render_span_tree(
    out: &mut String,
    forest: &tepic_ccc::telemetry::SpanForest,
    node: &tepic_ccc::telemetry::SpanNode,
    depth: usize,
) {
    use std::fmt::Write as _;
    let label = if node.detail.is_empty() {
        node.name.to_string()
    } else {
        format!("{} {}", node.name, node.detail)
    };
    let _ = writeln!(
        out,
        "{:indent$}{label:<width$} {dur:>9.2} ms",
        "",
        indent = depth * 2,
        width = 36usize.saturating_sub(depth * 2),
        dur = node.dur_ns as f64 / 1e6
    );
    let mut kids: Vec<_> = forest.children_of(node.id).collect();
    kids.sort_by_key(|n| (n.start_ns, n.id));
    for k in kids {
        render_span_tree(out, forest, k, depth + 1);
    }
}

/// `perf --attr`: a cold in-process figure pipeline with the trace sink
/// on; reconstructs the causal span forest, cross-checks its per-stage
/// rollups *exactly* against the engine's stage timers, and prints the
/// per-workload / per-scheme / per-stage attribution tree plus the
/// critical path (also written to `results/PERF_attr.txt`).
fn perf_attr(jobs: usize) -> bool {
    use std::fmt::Write as _;
    use tepic_ccc::telemetry::SpanForest;

    eprintln!("tepic-cc perf: cold attribution run (jobs={jobs})");
    let sink = SharedSink::new(1 << 16);
    let engine = Engine::uncached(jobs).with_trace_sink(sink.clone());
    let t0 = Instant::now();
    let prepared = match engine.prepare_all() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tepic-cc perf: {e}");
            return false;
        }
    };
    let reports = engine.reports(&prepared);
    let wall = t0.elapsed();
    std::hint::black_box(&reports);
    if sink.dropped() > 0 {
        eprintln!(
            "tepic-cc perf: {} event(s) dropped from the ring; span forest incomplete",
            sink.dropped()
        );
        return false;
    }
    let events = sink.drain();
    let forest = match SpanForest::build(&events) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tepic-cc perf: span forest invalid: {e}");
            return false;
        }
    };

    // The attribution is only trustworthy if the span view and the
    // engine's own stage timers agree to the nanosecond — both sides
    // are fed the same start/duration pair, so any drift is a bug.
    let snap = engine.snapshot();
    let roll = forest.stage_rollup();
    let total_of = |stage: &str| roll.get(stage).map(|r| r.total_ns).unwrap_or(0);
    for (stage, timer_ns) in [
        ("compile", snap.compile_ns),
        ("emulate", snap.emulate_ns),
        ("encode", snap.encode_ns),
        ("report", snap.report_ns),
    ] {
        if total_of(stage) != timer_ns {
            eprintln!(
                "tepic-cc perf: {stage} span rollup {} ns != engine timer {} ns",
                total_of(stage),
                timer_ns
            );
            return false;
        }
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "cost attribution — cold figure pipeline, jobs={jobs}, wall {:.1} ms",
        wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(text);
    for root in forest.roots() {
        render_span_tree(&mut text, &forest, root, 1);
    }
    let _ = writeln!(
        text,
        "\nper-stage rollup (reconciles exactly with the engine timers):"
    );
    for (stage, r) in &roll {
        let _ = writeln!(
            text,
            "  {stage:<12} {:>4}x {:>9.2} ms",
            r.count,
            ms(r.total_ns)
        );
    }
    let path = forest.critical_path();
    let _ = writeln!(text, "\ncritical path (the chain that bounded wall-clock):");
    for (i, n) in path.iter().enumerate() {
        let _ = writeln!(
            text,
            "  {}{} {} — {:.2} ms",
            "  ".repeat(i),
            n.name,
            n.detail,
            ms(n.dur_ns)
        );
    }

    print!("{text}");
    if let Err(e) = write_atomic("results/PERF_attr.txt", text.as_bytes()) {
        eprintln!("tepic-cc perf: cannot write results/PERF_attr.txt: {e}");
        return false;
    }
    println!(
        "attribution: {} span(s), critical path {} deep -> results/PERF_attr.txt",
        forest.nodes().len(),
        path.len()
    );

    let rec = history::engine_record(
        "perf_attr",
        0,
        build_features(),
        0,
        &engine,
        wall.as_nanos() as u64,
    );
    history::append_best_effort(&rec);
    true
}

/// One loadgen connection's view of a request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeOutcome {
    Ok,
    Busy,
    Error,
}

/// Sends one canonical job request over `stream` and classifies the
/// response. Returns the response bytes alongside so callers can check
/// byte-identity.
fn serve_roundtrip(
    stream: &mut std::net::TcpStream,
    req: &tepic_ccc::bench::serve::proto::Request,
) -> std::io::Result<(ServeOutcome, Vec<u8>)> {
    use tepic_ccc::bench::serve::proto::{read_frame, write_frame};

    write_frame(stream, req.canonical().as_bytes())?;
    let resp = read_frame(stream)
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .ok_or_else(|| std::io::Error::other("daemon closed mid-exchange"))?;
    let text = String::from_utf8_lossy(&resp);
    let outcome = if text.contains("\"ok\":true") {
        ServeOutcome::Ok
    } else if text.contains("\"kind\":\"busy\"") {
        ServeOutcome::Busy
    } else {
        ServeOutcome::Error
    };
    Ok((outcome, resp))
}

fn mix_request(r: &tepic_ccc::workgen::ServeRequest) -> tepic_ccc::bench::serve::proto::Request {
    use tepic_ccc::bench::serve::proto::{JobOp, JobRequest, Request};
    Request::Job(JobRequest {
        op: JobOp::by_name(r.op).expect("servemix ops are valid"),
        name: r.name.clone(),
        scheme: r.scheme.to_string(),
        seed: r.seed,
        source: r.source.clone(),
    })
}

/// Exact percentile over a sorted latency slice (nearest-rank).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `tepic-cc loadgen`: hammers a running `tepic-ccd` with a seeded
/// mixed hot/cold request stream, records p50/p99 latency and req/s to
/// `results/BENCH_serve.json`, and appends a `serve/loadgen` ledger
/// record for the regression sentinel (DESIGN.md §17).
fn loadgen_cmd(args: &[String]) -> ExitCode {
    use std::collections::HashMap;
    use tepic_ccc::bench::serve::proto::Request;
    use tepic_ccc::workgen::{request_mix, MixParams};

    let t0 = Instant::now();
    let mut addr: Option<String> = None;
    let mut requests = 2000usize;
    let mut conns = 8usize;
    let mut seed = 42u64;
    let mut hot_frac = 0.8f64;
    let mut hot_pool = 8usize;
    let mut out_path = "results/BENCH_serve.json".to_string();
    let mut verify = false;
    let mut do_shutdown = false;
    let mut min_rps = 0.0f64;
    let mut max_hot_p99_ns = u64::MAX;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return usage(),
            },
            "--requests" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => requests = n,
                _ => return usage(),
            },
            "--conns" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => conns = n,
                _ => return usage(),
            },
            "--seed" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => seed = n,
                _ => return usage(),
            },
            "--hot-frac" => match it.next().map(|v| v.parse()) {
                Some(Ok(f)) => hot_frac = f,
                _ => return usage(),
            },
            "--hot-pool" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => hot_pool = n,
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out_path = v.clone(),
                None => return usage(),
            },
            "--verify" => verify = true,
            "--shutdown" => do_shutdown = true,
            "--min-rps" => match it.next().map(|v| v.parse()) {
                Some(Ok(f)) => min_rps = f,
                _ => return usage(),
            },
            "--max-hot-p99-ns" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => max_hot_p99_ns = n,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("tepic-cc loadgen: --addr is required (a running tepic-ccd)");
        return ExitCode::from(2);
    };

    let params = MixParams {
        hot_fraction: hot_frac,
        hot_pool,
        ..MixParams::default()
    };
    let mix = request_mix(seed, requests, &params);
    let hot_combos: Vec<_> = {
        let mut seen = std::collections::HashSet::new();
        mix.iter()
            .filter(|r| r.hot && seen.insert(r.name.clone()))
            .cloned()
            .collect()
    };

    // Warmup: build every hot artifact once, serially, and keep the
    // response bytes — the measured phase then exercises the *warm*
    // path for hot requests, and --verify re-checks these exact bytes.
    let mut warm_bytes: HashMap<String, Vec<u8>> = HashMap::new();
    {
        let mut stream = match std::net::TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tepic-cc loadgen: cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for r in &hot_combos {
            match serve_roundtrip(&mut stream, &mix_request(r)) {
                Ok((ServeOutcome::Ok, bytes)) => {
                    warm_bytes.insert(r.name.clone(), bytes);
                }
                Ok((outcome, bytes)) => {
                    eprintln!(
                        "tepic-cc loadgen: warmup {} failed ({outcome:?}): {}",
                        r.name,
                        String::from_utf8_lossy(&bytes)
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("tepic-cc loadgen: warmup i/o error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "loadgen: warmed {} hot combo(s) on {addr}; firing {} request(s) over {} connection(s)",
        hot_combos.len(),
        mix.len(),
        conns
    );

    // Measured phase: the mix split round-robin across `conns`
    // synchronous connections, each timing every exchange.
    let chunks: Vec<Vec<tepic_ccc::workgen::ServeRequest>> = {
        let mut cs: Vec<Vec<_>> = (0..conns).map(|_| Vec::new()).collect();
        for (i, r) in mix.iter().enumerate() {
            cs[i % conns].push(r.clone());
        }
        cs
    };
    let measure_start = Instant::now();
    // Per connection: (hot?, latency-ns) per ok response, busy count,
    // error count.
    type ConnStats = (Vec<(bool, u64)>, usize, usize);
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut lat: Vec<(bool, u64)> = Vec::with_capacity(chunk.len());
                    let (mut busy, mut errors) = (0usize, 0usize);
                    let Ok(mut stream) = std::net::TcpStream::connect(&addr) else {
                        return (lat, busy, chunk.len());
                    };
                    for r in chunk {
                        let req = mix_request(r);
                        let t = Instant::now();
                        match serve_roundtrip(&mut stream, &req) {
                            Ok((ServeOutcome::Ok, _)) => {
                                lat.push((r.hot, t.elapsed().as_nanos() as u64));
                            }
                            Ok((ServeOutcome::Busy, _)) => busy += 1,
                            Ok((ServeOutcome::Error, _)) => errors += 1,
                            Err(_) => {
                                errors += 1;
                                break;
                            }
                        }
                    }
                    (lat, busy, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let wall_ns = measure_start.elapsed().as_nanos() as u64;

    let mut hot_lat: Vec<u64> = Vec::new();
    let mut cold_lat: Vec<u64> = Vec::new();
    let (mut busy, mut errors) = (0usize, 0usize);
    for (lat, b, e) in &per_conn {
        busy += b;
        errors += e;
        for &(hot, ns) in lat {
            if hot {
                hot_lat.push(ns);
            } else {
                cold_lat.push(ns);
            }
        }
    }
    hot_lat.sort_unstable();
    cold_lat.sort_unstable();
    let ok = hot_lat.len() + cold_lat.len();
    let throughput = ok as f64 / (wall_ns.max(1) as f64 / 1e9);
    let (hot_p50, hot_p99) = (percentile_ns(&hot_lat, 0.5), percentile_ns(&hot_lat, 0.99));
    let (cold_p50, cold_p99) = (
        percentile_ns(&cold_lat, 0.5),
        percentile_ns(&cold_lat, 0.99),
    );
    println!(
        "loadgen: {ok} ok / {busy} busy / {errors} error(s) in {:.2}s -> {throughput:.1} req/s",
        wall_ns as f64 / 1e9
    );
    println!(
        "latency: hot p50 {:.3} ms p99 {:.3} ms ({} reqs); cold p50 {:.3} ms p99 {:.3} ms ({} reqs)",
        hot_p50 as f64 / 1e6,
        hot_p99 as f64 / 1e6,
        hot_lat.len(),
        cold_p50 as f64 / 1e6,
        cold_p99 as f64 / 1e6,
        cold_lat.len()
    );

    // --verify: warm hits must be byte-identical to the warmup
    // responses, and encode responses must carry exactly the image
    // bytes a one-shot CLI pipeline produces for the same source.
    if verify {
        let mut stream = match std::net::TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tepic-cc loadgen: verify connect failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for r in &hot_combos {
            match serve_roundtrip(&mut stream, &mix_request(r)) {
                Ok((ServeOutcome::Ok, bytes)) => {
                    if warm_bytes.get(&r.name) != Some(&bytes) {
                        eprintln!(
                            "tepic-cc loadgen: VERIFY FAILED: warm re-request of {} \
                             returned different bytes than its first build",
                            r.name
                        );
                        return ExitCode::FAILURE;
                    }
                }
                _ => {
                    eprintln!("tepic-cc loadgen: verify re-request of {} failed", r.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        let mut checked = 0usize;
        for r in hot_combos.iter().filter(|r| r.op == "encode").take(3) {
            let Some(bytes) = warm_bytes.get(&r.name) else {
                continue;
            };
            if !verify_encode_response(r, bytes) {
                return ExitCode::FAILURE;
            }
            checked += 1;
        }
        println!(
            "verify: {} warm re-request(s) byte-identical; {checked} encode image(s) match \
             one-shot CLI artifacts",
            hot_combos.len()
        );
    }

    // Results JSON + ledger record (the sentinel's serve/* group).
    let json = format!(
        concat!(
            "{{\"requests\":{},\"conns\":{},\"seed\":{},\"hot_fraction\":{},",
            "\"ok\":{},\"busy\":{},\"errors\":{},\"wall_ns\":{},\"throughput_per_s\":{:.3},",
            "\"hot\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}},",
            "\"cold\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}}}}"
        ),
        requests,
        conns,
        seed,
        hot_frac,
        ok,
        busy,
        errors,
        wall_ns,
        throughput,
        hot_lat.len(),
        hot_p50,
        hot_p99,
        cold_lat.len(),
        cold_p50,
        cold_p99,
    );
    if let Err(e) = write_atomic(&out_path, json.as_bytes()) {
        eprintln!("tepic-cc loadgen: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("results -> {out_path}");

    let mut rec = history::base_record(
        "serve/loadgen",
        seed,
        build_features(),
        0,
        t0.elapsed().as_nanos() as u64,
    );
    rec.samples
        .insert("throughput_per_s".to_string(), throughput);
    rec.samples.insert("hot_p50_ns".to_string(), hot_p50 as f64);
    rec.samples.insert("hot_p99_ns".to_string(), hot_p99 as f64);
    rec.samples
        .insert("cold_p50_ns".to_string(), cold_p50 as f64);
    rec.samples
        .insert("cold_p99_ns".to_string(), cold_p99 as f64);
    for (name, v) in [
        ("serve.ok", ok as u64),
        ("serve.busy", busy as u64),
        ("serve.errors", errors as u64),
    ] {
        rec.counters.insert(name.to_string(), v);
    }
    history::append_best_effort(&rec);

    // --shutdown: graceful drain — the daemon acks, finishes admitted
    // jobs, and stops accepting; new connections must be refused.
    if do_shutdown {
        let drained = (|| -> std::io::Result<()> {
            let mut stream = std::net::TcpStream::connect(&addr)?;
            let (outcome, _) = serve_roundtrip(&mut stream, &Request::Shutdown)?;
            if outcome != ServeOutcome::Ok {
                return Err(std::io::Error::other("shutdown op rejected"));
            }
            // A fresh job on the already-open connection must be
            // refused — either a typed draining error, or an i/o error
            // because the drained daemon already exited and tore the
            // connection down. Both prove no new job was served; only
            // an Ok response is a failure.
            let probe = mix_request(&mix[0]);
            match serve_roundtrip(&mut stream, &probe) {
                Ok((ServeOutcome::Ok, _)) => Err(std::io::Error::other(
                    "daemon accepted a job while draining",
                )),
                Ok(_) | Err(_) => Ok(()),
            }
        })();
        match drained {
            Ok(()) => println!("shutdown: daemon draining; no new jobs accepted"),
            Err(e) => {
                eprintln!("tepic-cc loadgen: drain verification failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failed = false;
    if throughput < min_rps {
        eprintln!("tepic-cc loadgen: FLOOR: {throughput:.1} req/s under --min-rps {min_rps:.1}");
        failed = true;
    }
    if hot_p99 > max_hot_p99_ns {
        eprintln!(
            "tepic-cc loadgen: FLOOR: hot p99 {hot_p99} ns over --max-hot-p99-ns {max_hot_p99_ns}"
        );
        failed = true;
    }
    if errors > 0 {
        eprintln!("tepic-cc loadgen: {errors} request(s) failed");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Recomputes an encode response's image locally (compile + compress,
/// the exact one-shot CLI pipeline) and compares byte-for-byte with
/// what the daemon served.
fn verify_encode_response(r: &tepic_ccc::workgen::ServeRequest, resp: &[u8]) -> bool {
    use tepic_ccc::bench::serve::proto::from_hex;

    let text = String::from_utf8_lossy(resp);
    let parsed = match tepic_ccc::telemetry::parse_json(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "tepic-cc loadgen: VERIFY FAILED: {}: unparseable response: {e}",
                r.name
            );
            return false;
        }
    };
    let Some(hex) = parsed.get("image_hex").and_then(|v| v.as_str()) else {
        eprintln!(
            "tepic-cc loadgen: VERIFY FAILED: {}: encode response lacks image_hex",
            r.name
        );
        return false;
    };
    let Some(served) = from_hex(hex) else {
        eprintln!("tepic-cc loadgen: VERIFY FAILED: {}: bad image_hex", r.name);
        return false;
    };
    let program = match lego::compile(&r.source, &lego::Options::default()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "tepic-cc loadgen: VERIFY FAILED: {}: local compile: {e}",
                r.name
            );
            return false;
        }
    };
    let out = match tepic_ccc::bench::engine::scheme_by_name(r.scheme)
        .expect("mix schemes are valid")
        .compress(&program)
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "tepic-cc loadgen: VERIFY FAILED: {}: local compress: {e}",
                r.name
            );
            return false;
        }
    };
    let local = tepic_ccc::ccc::encoded_to_bytes(&out.image);
    if local != served {
        eprintln!(
            "tepic-cc loadgen: VERIFY FAILED: {}: daemon image ({} bytes) differs from \
             one-shot CLI image ({} bytes)",
            r.name,
            served.len(),
            local.len()
        );
        return false;
    }
    true
}
