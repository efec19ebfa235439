//! `tepic-cc chaos`: the self-healing audit under injected faults
//! (DESIGN.md §13).
//!
//! ```text
//! --seed <u64>      base PRNG seed; run r uses seed+r (default 42)
//! --sites <spec>    failpoint spec, site:prob:mode[,..] (default: all classes)
//! --runs <N>        chaos runs after the clean baseline (default 2;
//!                   1 under CCC_CHAOS_SMOKE=1)
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

use super::flags::{parsed, positive, Command, Flag, PATH, POSITIVE, U64};
use super::{env_on, fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::engine::cache::write_atomic;
use crate::bench::engine::{Engine, RecoverySnapshot};
use crate::bench::figures::FIGURES;
use crate::bench::history;
use crate::bench::Prepared;
use crate::ccc::failpoint::{class_of, sites, FailMode, Failpoints, REQUIRED_CLASSES};
use crate::prelude::*;
use crate::telemetry::json;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

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

/// `"key": n, ..` — the body of a JSON object of counts.
fn json_counts<K: AsRef<str>>(counts: impl IntoIterator<Item = (K, impl Borrow<u64>)>) -> String {
    let fields: Vec<String> = counts
        .into_iter()
        .map(|(k, n)| format!("{}: {}", json::escape(k.as_ref()), n.borrow()))
        .collect();
    fields.join(", ")
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

#[derive(Debug)]
pub(crate) struct ChaosOpts {
    seed: u64,
    sites: String,
    /// `None` is 2 runs, or 1 under `CCC_CHAOS_SMOKE=1`.
    runs: Option<usize>,
    engine: EngineArgs,
    out: String,
}

impl Default for ChaosOpts {
    fn default() -> ChaosOpts {
        ChaosOpts {
            seed: 42,
            sites: DEFAULT_CHAOS_SITES.to_string(),
            runs: None,
            engine: EngineArgs::default(),
            out: "results/CHAOS_report.json".to_string(),
        }
    }
}

type F = Flag<ChaosOpts>;

pub(crate) fn command() -> Command<ChaosOpts> {
    let [jobs, ..] = EngineArgs::flags(|o: &mut ChaosOpts| &mut o.engine);
    let spec = "a site:prob:mode[,..] spec";
    Command {
        name: "tepic-cc chaos",
        positional: None,
        flags: vec![
            F::value("--seed", "<u64>", U64, parsed, |o| &mut o.seed),
            F::value("--sites", "<spec>", spec, parsed, |o| &mut o.sites),
            F::some("--runs", "<N>", POSITIVE, positive, |o| &mut o.runs),
            jobs,
            F::value("--out", "<file>", PATH, parsed, |o| &mut o.out),
        ],
    }
}

/// Runs `tepic-cc chaos`.
pub(crate) fn run(_: &str, args: &[String], env: Env) -> Outcome {
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;
    Failpoints::from_spec(&o.sites, 0).map_err(|e| Exit::Usage(format!("--sites: {e}")))?;
    // CCC_CHAOS_SMOKE=1 is the CI gate: one chaos run, same assertions.
    let smoke = env_on(env, "CCC_CHAOS_SMOKE");
    let runs = o.runs.unwrap_or(if smoke { 1 } else { 2 });
    let (seed, sites_spec) = (o.seed, &o.sites);
    let jobs = o.engine.resolve(env).jobs;
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
    let decoder = Engine::uncached(1);
    let decode_all = |prepared: &[Prepared],
                      fp: Option<&Failpoints>|
     -> Result<(Vec<FetchResult>, u64), String> {
        let mut out = Vec::with_capacity(prepared.len());
        let mut fallbacks = 0u64;
        for p in prepared {
            let name = p.workload.name;
            let (r, ds) = decoder
                .simulate(name, &p.program, &p.compressed_img, &p.trace, fp)
                .map_err(|e| format!("{name}: {e}"))?;
            fallbacks += ds.reference_fallbacks;
            out.push(r);
        }
        Ok((out, fallbacks))
    };

    // Clean baseline: a cold run with no faults armed.
    eprintln!("tepic-cc chaos: baseline (jobs={jobs}, sites={sites_spec})");
    let clean_dir = root.join("clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let (clean_prepared, baseline, _) =
        pass(&clean_dir, None).map_err(|e| fail(format!("baseline failed: {e}")))?;
    let (clean_decode, _) = decode_all(&clean_prepared, None)
        .map_err(|e| fail(format!("baseline decode failed: {e}")))?;

    let t0 = Instant::now();
    let mut all_ok = true;
    let mut coverage: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut run_jsons = Vec::new();
    for r in 0..runs {
        let run_seed = seed.wrapping_add(r as u64);
        let fp = Arc::new(Failpoints::from_spec(sites_spec, run_seed).map_err(fail)?);
        let dir = root.join(format!("run-{r}"));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold pass builds everything under fire; the warm pass re-reads
        // whatever survived, exercising the cache.read sites on real
        // entries; the decode phase forces the LUT fallback path.
        let (mut cold_identical, mut warm_identical, mut decode_identical) = (false, false, false);
        let mut fallbacks = 0u64;
        let mut recs: Vec<RecoverySnapshot> = Vec::new();
        let phases = (|| -> Result<(), String> {
            let (prepared, text, rec) =
                pass(&dir, Some(&fp)).map_err(|e| format!("cold pass: {e}"))?;
            cold_identical = text == baseline;
            recs.push(rec);
            let (results, fb) =
                decode_all(&prepared, Some(&fp)).map_err(|e| format!("decode: {e}"))?;
            decode_identical = results == clean_decode;
            fallbacks = fb;
            let (_, text, rec) = pass(&dir, Some(&fp)).map_err(|e| format!("warm pass: {e}"))?;
            warm_identical = text == baseline;
            recs.push(rec);
            Ok(())
        })();
        let error = phases.err().unwrap_or_default();

        // Reconcile: every injected fault must be accounted for by
        // exactly one recovery action (DESIGN.md §13).
        let rsum = |f: fn(&RecoverySnapshot) -> u64| recs.iter().map(f).sum::<u64>();
        let fired = |site: &str, mode| fp.fired(site, mode);
        let stage_sites = [
            sites::STAGE_COMPILE,
            sites::STAGE_EMULATE,
            sites::STAGE_ENCODE,
            sites::STAGE_REPORT,
        ];
        let checks: [(&str, u64, u64); 6] = [
            (
                "cache.read:io == transient read faults",
                fired(sites::CACHE_READ, FailMode::Io),
                rsum(|x| x.cache_read_faults),
            ),
            (
                "cache.read:corrupt == quarantined entries",
                fired(sites::CACHE_READ, FailMode::Corrupt),
                rsum(|x| x.quarantined),
            ),
            (
                "cache.{write,rename}:io == failed store attempts",
                fired(sites::CACHE_WRITE, FailMode::Io) + fired(sites::CACHE_RENAME, FailMode::Io),
                rsum(|x| x.cache_write_faults),
            ),
            (
                "pool.job:panic == caught job panics",
                fired(sites::POOL_JOB, FailMode::Panic),
                rsum(|x| x.job_panics),
            ),
            (
                "stage.*:flaky == stage faults retried",
                stage_sites.iter().map(|s| fired(s, FailMode::Flaky)).sum(),
                rsum(|x| x.stage_faults),
            ),
            (
                "decode.lut:error == reference fallbacks",
                fired(sites::DECODE_LUT, FailMode::Error),
                fallbacks,
            ),
        ];
        let reconciled = checks.iter().all(|&(_, inj, rec)| inj == rec);
        for &(name, inj, rec) in checks.iter().filter(|&&(_, inj, rec)| inj != rec) {
            eprintln!("tepic-cc chaos: run {r}: MISMATCH {name}: injected {inj}, recovered {rec}");
        }

        // Injection census for the report, and class coverage.
        let log = fp.log();
        let mut census: BTreeMap<String, u64> = BTreeMap::new();
        for inj in &log {
            *census
                .entry(format!("{}:{}", inj.site, inj.mode))
                .or_default() += 1;
            *coverage.entry(class_of(&inj.site)).or_default() += 1;
        }

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
        run_jsons.push(format!(
            "    {{\n      \"seed\": {run_seed},\n      \"ok\": {ok},\n      \
             \"error\": {},\n      \"figures_cold_identical\": {cold_identical},\n      \
             \"figures_warm_identical\": {warm_identical},\n      \
             \"decode_identical\": {decode_identical},\n      \
             \"reconciled\": {reconciled},\n      \"total_injected\": {},\n      \
             \"injected\": {{{}}},\n      \"recovery\": {{{}}}\n    }}",
            json::escape(&error),
            log.len(),
            json_counts(&census),
            json_counts(recovery_totals),
        ));
    }

    // Campaign-wide coverage: every required site class must have fired
    // at least once, or the run proved nothing about that class.
    let missing: Vec<_> = REQUIRED_CLASSES
        .iter()
        .filter(|c| !coverage.contains_key(*c))
        .collect();
    if !missing.is_empty() {
        eprintln!("tepic-cc chaos: no injected faults in class(es): {missing:?}");
        all_ok = false;
    }
    let figures: Vec<String> = FIGURES
        .iter()
        .filter(|f| f.core)
        .map(|f| json::escape(f.name))
        .collect();
    let report = format!(
        "{{\n  \"seed\": {seed},\n  \"runs\": {runs},\n  \"jobs\": {jobs},\n  \
         \"sites\": {},\n  \"figures\": [{}],\n  \"coverage\": {{{}}},\n  \
         \"runs_detail\": [\n{}\n  ],\n  \"ok\": {all_ok}\n}}\n",
        json::escape(sites_spec),
        figures.join(", "),
        json_counts(&coverage),
        run_jsons.join(",\n"),
    );
    let out_path = &o.out;
    write_atomic(out_path, report.as_bytes())
        .map_err(|e| fail(format!("cannot write {out_path}: {e}")))?;
    println!(
        "chaos: {} run(s) in {:.1} s; coverage {:?}; report -> {out_path}",
        runs,
        t0.elapsed().as_secs_f64(),
        coverage.iter().collect::<Vec<_>>(),
    );
    if !all_ok {
        return Err(fail(format!("FAILED (see {out_path})")));
    }
    println!("chaos: all figures byte-identical under fault injection; recovery reconciled.");
    // Smoke (one run) and full campaigns are different workloads to the
    // sentinel.
    let mode = if smoke { "smoke" } else { "full" };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let rec = history::base_record(&format!("chaos/{mode}"), seed, 0, wall_ns);
    history::append_best_effort(&rec);
    Ok(())
}
