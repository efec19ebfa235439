//! `tepic-cc perf`: the run-ledger sentinel and cost attribution
//! (DESIGN.md §16).
//!
//! ```text
//! --check               judge the latest ledger record of every
//!                       (fingerprint, subcommand) group against its
//!                       history; non-zero exit on any regression
//! --attr                cold in-process `bench --all` pipeline with the
//!                       trace sink on; reconstructs the causal span
//!                       forest, prints the per-workload/per-scheme/
//!                       per-stage cost-attribution tree and the critical
//!                       path (also written to results/PERF_attr.txt,
//!                       relative to the working directory)
//! --ledger <file>       ledger to read/write (default CCC_LEDGER or
//!                       results/history/ledger.jsonl)
//! --band <frac>         regression band vs. the baseline best
//!                       (default 0.5 = flag beyond 1.5x)
//! --min-samples <N>     baseline records required before judging
//! --inject-slowdown <f> append a synthetic copy of each group's latest
//!                       record degraded by factor f (test fixture)
//! --jobs <N>            worker threads for --attr (CCC_JOBS)
//! ```
//!
//! Bare `perf` prints the ledger's groups. `--check` also holds the
//! latest `serve/*` record's throughput to `CCC_SERVE_FLOOR_RPS`
//! (default 10 req/s) or its history-derived floor, whichever is
//! higher. The verdicts come from `ccc_bench::history`; this module only
//! prints them.

use super::flags::{parsed, positive, Command, Flag, PATH, POSITIVE};
use super::{fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::engine::cache::write_atomic;
use crate::bench::history::{self, SentinelConfig, SentinelStatus};
use crate::bench::Prepared;
use crate::prelude::*;
use crate::telemetry::{ledger, SpanForest, SpanNode};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Default)]
pub(crate) struct PerfOpts {
    check: bool,
    attr: bool,
    ledger: Option<PathBuf>,
    sentinel: SentinelConfig,
    inject: Option<f64>,
    engine: EngineArgs,
}

type F = Flag<PerfOpts>;

pub(crate) fn command() -> Command<PerfOpts> {
    let [jobs, ..] = EngineArgs::flags(|o: &mut PerfOpts| &mut o.engine);
    let band = |v: &str| parsed(v).filter(|b: &f64| *b >= 0.0);
    let factor = |v: &str| parsed(v).filter(|f: &f64| *f > 0.0);
    Command {
        name: "tepic-cc perf",
        positional: None,
        flags: vec![
            F::switch("--check", |o| &mut o.check),
            F::switch("--attr", |o| &mut o.attr),
            F::some("--ledger", "<file>", PATH, parsed, |o| &mut o.ledger),
            F::value(
                "--band",
                "<frac>",
                "a non-negative fraction (0.5 = 1.5x)",
                band,
                |o| &mut o.sentinel.band,
            ),
            F::value("--min-samples", "<N>", POSITIVE, positive, |o| {
                &mut o.sentinel.min_samples
            }),
            F::some(
                "--inject-slowdown",
                "<f>",
                "a positive factor",
                factor,
                |o| &mut o.inject,
            ),
            jobs,
        ],
    }
}

/// Runs `tepic-cc perf`.
pub(crate) fn run(_: &str, args: &[String], env: Env) -> Outcome {
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;
    // The explicit flag wins over CCC_LEDGER; a CCC_NO_LEDGER run can
    // still *read* the default ledger — the variable gates appends, not
    // the sentinel.
    let path = o
        .ledger
        .clone()
        .or_else(ledger::ledger_path)
        .unwrap_or_else(|| PathBuf::from(ledger::DEFAULT_LEDGER_PATH));
    let floor_rps = env("CCC_SERVE_FLOOR_RPS")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);

    // Every step runs, even after one fails; the run fails if any did.
    let mut steps = Vec::new();
    if let Some(factor) = o.inject {
        steps.push(inject(&path, factor));
    }
    if o.attr {
        steps.push(attr(&o.engine, env));
    }
    if o.check {
        steps.push(check(&path, &o.sentinel, floor_rps));
    }
    if steps.is_empty() {
        steps.push(summary(&path));
    }
    let failed: Vec<String> = steps.into_iter().filter_map(Result::err).collect();
    match failed.is_empty() {
        true => Ok(()),
        false => Err(fail(failed.join("; "))),
    }
}

/// Loads the ledger at `path`.
fn load(path: &Path) -> Result<ledger::LoadOutcome, String> {
    ledger::load(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `--inject-slowdown`: appends a degraded copy of each group's latest
/// record — the fixture the perf smoke uses to prove the sentinel fires.
fn inject(path: &Path, factor: f64) -> Result<(), String> {
    let outcome = load(path)?;
    if outcome.records.is_empty() {
        return Err(format!("{} holds no records to degrade", path.display()));
    }
    let degraded = history::degrade_latest(&outcome.records, factor);
    for rec in &degraded {
        ledger::append(path, rec)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!(
        "perf: appended {} synthetic record(s) degraded {factor:.2}x to {}",
        degraded.len(),
        path.display()
    );
    Ok(())
}

/// `--check`: the regression sentinel, then the serve throughput floor.
fn check(path: &Path, cfg: &SentinelConfig, floor_rps: f64) -> Result<(), String> {
    let outcome = load(path)?;
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
        return Ok(());
    }
    let verdicts = history::check(&outcome.records, cfg);
    let count = |is: fn(&SentinelStatus) -> bool| verdicts.iter().filter(|v| is(&v.status)).count();
    let regressions = count(|s| matches!(s, SentinelStatus::Regression { .. }));
    for v in &verdicts {
        if let SentinelStatus::Regression { worse_by } = v.status {
            eprintln!(
                "REGRESSION: {} / {}: latest {:.0} vs best {:.0} ({:.2}x worse; \
                 baseline median {:.0}, MAD {:.0}, n={})",
                v.group, v.sample, v.latest, v.best, worse_by, v.median, v.mad, v.baseline_n
            );
        }
    }
    println!(
        "perf check: {} record(s); {} sample(s): {} pass, {} without history, \
         {regressions} regression(s) (band {:.0}%, min-samples {})",
        outcome.records.len(),
        verdicts.len(),
        count(|s| *s == SentinelStatus::Pass),
        count(|s| *s == SentinelStatus::InsufficientHistory),
        cfg.band * 100.0,
        cfg.min_samples
    );
    let floors = history::serve_floors(&outcome.records, cfg, floor_rps);
    for f in &floors {
        let (held, rps, floor) = (f.passed(), f.rps, f.floor);
        match held {
            true => println!(
                "serve floor: {}: throughput {rps:.1}/s >= {floor:.1}/s",
                f.group
            ),
            false => eprintln!(
                "SERVE FLOOR: {}: throughput {rps:.1}/s under floor {floor:.1}/s",
                f.group
            ),
        }
    }
    let missed = floors.iter().filter(|f| !f.passed()).count();
    match (regressions, missed) {
        (0, 0) => Ok(()),
        _ => Err(format!(
            "{regressions} regression(s), {missed} serve floor(s) missed"
        )),
    }
}

/// Bare `perf`: a one-screen inventory of the ledger's groups.
fn summary(path: &Path) -> Result<(), String> {
    let outcome = load(path)?;
    let groups = history::group_counts(&outcome.records);
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
    Ok(())
}

/// One line of the attribution tree, then the node's children sorted by
/// start time.
fn render_span_tree(out: &mut String, forest: &SpanForest, node: &SpanNode, depth: usize) {
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
fn attr(args: &EngineArgs, env: Env) -> Result<(), String> {
    let uncached = EngineArgs {
        no_cache: true,
        ..args.clone()
    };
    let sink = SharedSink::new(1 << 16);
    let engine = uncached.build(env).with_trace_sink(sink.clone());
    let jobs = engine.jobs();
    eprintln!("tepic-cc perf: cold attribution run (jobs={jobs})");
    let t0 = Instant::now();
    let prepared = engine.prepare_all().map_err(|e| e.to_string())?;
    let reports: Vec<_> = prepared.iter().map(Prepared::report).collect();
    let wall = t0.elapsed();
    std::hint::black_box(&reports);
    if sink.dropped() > 0 {
        return Err(format!(
            "{} event(s) dropped from the ring; span forest incomplete",
            sink.dropped()
        ));
    }
    let events = sink.drain();
    let forest = SpanForest::build(&events).map_err(|e| format!("span forest invalid: {e}"))?;

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
    ] {
        if total_of(stage) != timer_ns {
            return Err(format!(
                "{stage} span rollup {} ns != engine timer {timer_ns} ns",
                total_of(stage)
            ));
        }
    }

    // lego's stages are children of each compile span, and the
    // optimizer's passes and the scheduler's phases children of each opt
    // and sched span, laid end to end: they may leave a gap but never
    // add up to more than their parent.
    for c in forest
        .nodes()
        .iter()
        .filter(|n| matches!(n.name, "compile" | "opt" | "sched"))
    {
        let parts: u64 = forest.children_of(c.id).map(|k| k.dur_ns).sum();
        if parts > c.dur_ns {
            return Err(format!(
                "{} {}: child spans sum to {parts} ns > {} ns",
                c.name, c.detail, c.dur_ns
            ));
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
        "\nper-stage rollup (compile, emulate and encode reconcile exactly with \
         the engine timers; lego's stages sum to at most compile, its optimizer passes \
         to at most opt, its scheduler phases to at most sched):"
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
    write_atomic("results/PERF_attr.txt", text.as_bytes())
        .map_err(|e| format!("cannot write results/PERF_attr.txt: {e}"))?;
    println!(
        "attribution: {} span(s), critical path {} deep -> results/PERF_attr.txt",
        forest.nodes().len(),
        path.len()
    );

    let rec = history::engine_record("perf_attr", 0, 0, &engine, wall.as_nanos() as u64);
    history::append_best_effort(&rec);
    Ok(())
}
