//! The file subcommands: compile one Tink program and look at it.
//!
//! ```text
//! tepic-cc <run|disasm|report|verilog|sim|stats|faultsim> <file.tink|-> [--no-opt] [--seed <u64>]
//! ```
//!
//! With `-` as the file, source is read from stdin. `--no-opt` disables
//! the optimizer. `--seed <u64>` sets the fault-campaign PRNG seed
//! (default 42); equal seeds reproduce campaigns bit-for-bit. The file
//! may come before, between or after the flags.
//!
//! Every file subcommand compiles through the prepared-workload engine,
//! so repeated invocations on the same source hit the content-addressed
//! artifact cache. The file's path names the cached artifacts; the key
//! still hashes the source text, so editing the file misses cleanly.

use super::flags::{parsed, Command, Flag, U64};
use super::{fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::history;
use crate::ccc::pla::emit_tailored_decoder_verilog;
use crate::ccc::schemes::tailored::TailoredSpec;
use crate::prelude::*;
use std::io::Read;
use std::time::Instant;

/// The subcommands this module answers to.
pub(crate) const COMMANDS: [&str; 7] = [
    "run", "disasm", "report", "verilog", "sim", "stats", "faultsim",
];

#[derive(Debug)]
pub(crate) struct FileOpts {
    pub(crate) no_opt: bool,
    pub(crate) seed: u64,
}

impl Default for FileOpts {
    fn default() -> FileOpts {
        FileOpts {
            no_opt: false,
            seed: 42,
        }
    }
}

type F = Flag<FileOpts>;

pub(crate) fn command() -> Command<FileOpts> {
    Command {
        name: "tepic-cc <run|disasm|report|verilog|sim|stats|faultsim>",
        positional: Some("<file.tink|->"),
        flags: vec![
            F::switch("--no-opt", |o| &mut o.no_opt),
            F::value("--seed", "<u64>", U64, parsed, |o| &mut o.seed),
        ],
    }
}

/// Runs file subcommand `cmd`.
pub(crate) fn run(cmd: &str, args: &[String], env: Env) -> Outcome {
    let (o, file) = command().parse(args).map_err(Exit::Usage)?;
    let file = file.expect("the grammar requires the file");
    let source = if file == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|_| fail("cannot read stdin"))?;
        s
    } else {
        std::fs::read_to_string(&file).map_err(|e| fail(format!("cannot read {file}: {e}")))?
    };
    let opts = lego::Options {
        optimize: !o.no_opt,
        ..lego::Options::default()
    };
    let t0 = Instant::now();
    let engine = EngineArgs::default().build(env);
    let program = engine.program(&file, &source, &opts).map_err(fail)?;
    fn runtime(e: impl std::fmt::Display) -> Exit {
        fail(format!("runtime error: {e}"))
    }

    match cmd {
        "run" => {
            let r = Emulator::new(&program)
                .run(&Limits::default())
                .map_err(runtime)?;
            print!("{}", r.output);
        }
        "disasm" => print!("{}", program.listing()),
        "report" => print!("{}", engine.report(&file, &source, &opts, &program)),
        "verilog" => {
            let spec = TailoredSpec::compute(&program);
            let verilog = emit_tailored_decoder_verilog(&spec, "tepic_tailored_decoder");
            print!("{verilog}");
        }
        "sim" => {
            let trace = engine
                .trace(&file, &source, &opts, &program)
                .map_err(runtime)?;
            let base = schemes::base::encode_base(&program);
            let image = |s| engine.image(&file, &source, &opts, s, &program);
            let (tailored, compressed) = (
                image("tailored").map_err(fail)?,
                image("full").map_err(fail)?,
            );
            println!(
                "{:<11} {:>7} {:>9} {:>8} {:>9}",
                "config", "IPC", "pred", "I$ hit", "flips"
            );
            for (name, img, cfg) in [
                ("ideal", &base, FetchConfig::ideal()),
                ("base", &base, FetchConfig::base()),
                ("tailored", &tailored, FetchConfig::tailored()),
                ("compressed", &compressed, FetchConfig::compressed()),
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
        }
        "faultsim" => {
            let cfg = CampaignConfig {
                seed: o.seed,
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
            match engine.trace(&file, &source, &opts, &program) {
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
        }
        other => unreachable!("{other} is not a file subcommand"),
    }

    // The input's file stem joins the ledger group label so runs over
    // different programs never share a sentinel baseline. Failed runs
    // never get here, so aborted-early wall times cannot poison the
    // sentinel's baselines.
    let stem = std::path::Path::new(&file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("stdin");
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let rec = history::engine_record(&format!("{cmd}/{stem}"), o.seed, 0, &engine, wall_ns);
    history::append_best_effort(&rec);
    Ok(())
}
