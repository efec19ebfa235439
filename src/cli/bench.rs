//! `tepic-cc bench`: the whole figure suite in one invocation.
//!
//! ```text
//! --jobs <N>            worker threads (default: all cores; CCC_JOBS)
//! --no-cache            rebuild everything, skip the artifact cache (CCC_NO_CACHE=1)
//! --cache-dir <dir>     cache location (default target/ccc-artifacts; CCC_CACHE_DIR)
//! --figures <figures>   comma-separated subset (default: the core figures)
//! --all                 every figure, table and extension experiment
//! --assert-warm         fail unless the run was served entirely from cache
//! ```
//!
//! `bench` prints only figure text on stdout; the per-figure framing and
//! the engine and decode panels go to stderr, so
//! `tepic-cc bench --figures fig05 > results/fig05_compression.txt`
//! regenerates a result file (names and stems: `ccc_bench::figures::FIGURES`).

use super::flags::{Command, Flag};
use super::{fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::engine::MATRIX_SCHEMES;
use crate::bench::figures::{self, Figure, FIGURES};
use crate::bench::history;
use crate::prelude::*;
use std::time::Instant;

#[derive(Debug, Default)]
pub(crate) struct BenchOpts {
    pub(crate) engine: EngineArgs,
    figures: Option<Vec<String>>,
    all: bool,
    assert_warm: bool,
}

type F = Flag<BenchOpts>;

pub(crate) fn command() -> Command<BenchOpts> {
    let mut flags = Vec::from(EngineArgs::flags(|o: &mut BenchOpts| &mut o.engine));
    flags.extend([
        F::some(
            "--figures",
            "<figures>",
            "figure names, comma-separated",
            figure_list,
            |o| &mut o.figures,
        ),
        F::switch("--all", |o| &mut o.all),
        F::switch("--assert-warm", |o| &mut o.assert_warm),
    ]);
    Command {
        name: "tepic-cc bench",
        positional: None,
        flags,
    }
}

fn figure_list(v: &str) -> Option<Vec<String>> {
    Some(v.split(',').map(|s| s.trim().to_string()).collect())
}

/// Runs `tepic-cc bench`.
pub(crate) fn run(_: &str, args: &[String], env: Env) -> Outcome {
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;

    // The figure selection joins the ledger group label — a fig05-only
    // run and the full core set are not comparable wall-clocks.
    let (selected, figure_label): (Vec<&Figure>, String) = match &o.figures {
        Some(list) => {
            if let Some(name) = list.iter().find(|n| figures::figure(n).is_none()) {
                return Err(Exit::Usage(format!("unknown figure {name}")));
            }
            let selected = list.iter().filter_map(|n| figures::figure(n)).collect();
            (selected, list.join("+"))
        }
        None if o.all => (FIGURES.iter().collect(), "all".to_string()),
        None => (
            FIGURES.iter().filter(|f| f.core).collect(),
            "core".to_string(),
        ),
    };
    let engine = o.engine.build(env);
    eprintln!(
        "tepic-cc bench: {} figure(s), jobs={}, cache={}",
        selected.len(),
        engine.jobs(),
        if engine.is_cached() { "on" } else { "off" }
    );

    let t0 = Instant::now();
    let prepared = engine.prepare_all().map_err(fail)?;
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
    let row = |name: &str, ds: &DecodeStats| {
        eprintln!(
            "{name:<10} {:>8} {:>10} {:>12} {:>9} {:>7}",
            ds.blocks_decoded, ds.ops_decoded, ds.stall_bits, ds.long_fallbacks, ds.decode_errors
        );
    };
    eprintln!(
        "{:<10} {:>8} {:>10} {:>12} {:>9} {:>7}",
        "workload", "blocks", "ops", "stall-bits", "LUT-long", "errors"
    );
    let mut tot = DecodeStats::default();
    for p in &prepared {
        let name = p.workload.name;
        match engine.simulate(name, &p.program, &p.compressed_img, &p.trace, None) {
            Ok((_, ds)) => {
                row(name, &ds);
                tot.blocks_decoded += ds.blocks_decoded;
                tot.ops_decoded += ds.ops_decoded;
                tot.decode_errors += ds.decode_errors;
                tot.long_fallbacks += ds.long_fallbacks;
                tot.stall_bits += ds.stall_bits;
            }
            Err(e) => eprintln!("{name:<10} <compress failed: {e}>"),
        }
    }
    row("total", &tot);

    if o.assert_warm {
        let expected_images = (prepared.len() * MATRIX_SCHEMES.len()) as u64;
        if snap.misses() != 0 || snap.image_hits != expected_images {
            return Err(fail(format!(
                "--assert-warm failed: {} misses, {}/{} image hits",
                snap.misses(),
                snap.image_hits,
                expected_images
            )));
        }
        eprintln!("  warm-cache assertion held: 0 misses, {expected_images} image hits.");
    }

    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut rec = history::engine_record(&format!("bench/{figure_label}"), 0, 0, &engine, wall_ns);
    rec.samples.insert(
        "prepare_wall_ns".to_string(),
        prepare_wall.as_nanos() as f64,
    );
    rec.samples
        .insert("figures_wall_ns".to_string(), render_wall.as_nanos() as f64);
    history::append_best_effort(&rec);
    Ok(())
}
