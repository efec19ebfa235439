//! `tepic-cc trace`: a Chrome trace and metrics snapshot of one run
//! (DESIGN.md §12).
//!
//! ```text
//! --workload <workload>  a built-in workload name (required)
//! --scheme <scheme>      base|tailored|byte|stream|stream_1|full (default full)
//! --out <file>           Chrome trace-event JSON destination (default trace.json)
//! --check                validate the emitted trace against the metrics snapshot
//! ```
//!
//! `trace` always runs a cold (uncached) pipeline so the compile,
//! emulate and encode spans appear in the trace; its worker count
//! follows `CCC_JOBS`. The metrics snapshot lands in
//! `results/METRICS_<scheme>.json`. `CCC_TRACE_SMOKE=1` in the
//! environment implies `--check`.

use super::flags::{parsed, Command, Flag, PATH};
use super::{env_on, fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::engine::cache::write_atomic;
use crate::bench::engine::{scheme_by_name, PrepareError, MATRIX_SCHEMES};
use crate::bench::history;
use crate::prelude::*;
use crate::telemetry::{
    chrome_trace_json, metrics_snapshot_json, observe_fetch_histograms, parse_json, JsonValue,
    TraceEvent, TraceMeta,
};
use std::time::Instant;

#[derive(Debug)]
pub(crate) struct TraceOpts {
    workload: Option<&'static workloads::Workload>,
    scheme: String,
    out: String,
    check: bool,
}

impl Default for TraceOpts {
    fn default() -> TraceOpts {
        TraceOpts {
            workload: None,
            scheme: "full".to_string(),
            out: "trace.json".to_string(),
            check: false,
        }
    }
}

type F = Flag<TraceOpts>;

pub(crate) fn command() -> Command<TraceOpts> {
    let workload = format!("a built-in workload: {}", workloads::known_names());
    let schemes = format!(
        "base, {} or a named stream scheme",
        MATRIX_SCHEMES.join(", ")
    );
    let scheme = |v: &str| scheme_by_name(v).map(|_| v.to_string());
    Command {
        name: "tepic-cc trace",
        positional: None,
        flags: vec![
            F::some(
                "--workload",
                "<workload>",
                workload,
                workloads::by_name,
                |o| &mut o.workload,
            )
            .required(),
            F::value("--scheme", "<scheme>", schemes, scheme, |o| &mut o.scheme),
            F::value("--out", "<file>", PATH, parsed, |o| &mut o.out),
            F::switch("--check", |o| &mut o.check),
        ],
    }
}

/// Runs `tepic-cc trace`.
pub(crate) fn run(_: &str, args: &[String], env: Env) -> Outcome {
    let t0 = Instant::now();
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;
    let w = o.workload.expect("the grammar requires --workload");
    let scheme = o.scheme.as_str();

    // Always a cold engine: the compile/emulate/encode spans only exist
    // when the stages actually run, and a warm cache would skip them.
    let sink = SharedSink::new(1 << 20);
    let uncached = EngineArgs {
        no_cache: true,
        ..EngineArgs::default()
    };
    let engine = uncached.build(env).with_trace_sink(sink.clone());
    let opts = lego::Options::default();
    let pipeline = || -> Result<_, PrepareError> {
        let program = engine.program(w.name, w.source(), &opts)?;
        let btrace = engine.trace(w.name, w.source(), &opts, &program)?;
        let image = engine.image(w.name, w.source(), &opts, scheme, &program)?;
        let sim = engine.simulate(w.name, &program, &image, &btrace, None)?;
        Ok((EncodingClass::of(&image.kind), sim))
    };
    let (class, (result, dstats)) = pipeline().map_err(fail)?;

    let registry = MetricsRegistry::new();
    result.record_metrics(&registry);
    dstats.record_metrics(&registry);
    engine.snapshot().record_metrics(&registry);

    let meta = TraceMeta {
        workload: w.name.to_string(),
        scheme: scheme.to_string(),
        counts: sink.counts(),
        dropped: sink.dropped(),
    };
    let events = sink.drain();
    // The engine's `simulate` span times the fetch loop alone.
    let sim_ns = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Span {
                name: "simulate",
                dur_ns,
                ..
            } => Some(*dur_ns),
            _ => None,
        })
        .unwrap_or(0);
    // The instant events carry the stall/penalty/fill distributions the
    // counters flatten; fold them into histograms so the snapshot's
    // quantiles mean something.
    observe_fetch_histograms(&events, &registry);
    let trace_json = chrome_trace_json(&events, &meta);
    let metrics_json = metrics_snapshot_json(&registry, &meta);
    write_atomic(&o.out, trace_json.as_bytes())
        .map_err(|e| fail(format!("cannot write {}: {e}", o.out)))?;
    // metrics_snapshot_name escapes injectively, so two distinct
    // scheme names can never collide on (or traverse out of) one
    // snapshot path; the matrix schemes keep their historical names.
    let metrics_path = format!(
        "results/{}",
        crate::telemetry::metrics_snapshot_name(scheme)
    );
    write_atomic(&metrics_path, metrics_json.as_bytes())
        .map_err(|e| fail(format!("cannot write {metrics_path}: {e}")))?;
    println!(
        "trace: {} events ({} spans, {} dropped) -> {}",
        events.len(),
        meta.counts.spans,
        meta.dropped,
        o.out
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
    if o.check || env_on(env, "CCC_TRACE_SMOKE") {
        validate_trace(&trace_json, &metrics_json, scheme, class)
            .map_err(|e| fail(format!("check failed: {e}")))?;
        println!("check: trace/metrics reconciliation and span coverage held");
    }

    // Scheme and workload join the group label: a tailored-scheme trace
    // and a full-scheme trace have different cost shapes, and the
    // sentinel must only compare like with like.
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut rec = history::engine_record(
        &format!("trace/{}/{scheme}", w.name),
        0,
        0,
        &engine,
        wall_ns,
    );
    rec.samples.insert("simulate_ns".to_string(), sim_ns as f64);
    history::append_best_effort(&rec);
    Ok(())
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
    let t = parse_json(trace_json).map_err(|e| format!("trace JSON: {e}"))?;
    let m = parse_json(metrics_json).map_err(|e| format!("metrics JSON: {e}"))?;
    let events = t
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("traceEvents missing")?;
    let is = |e: &JsonValue, ph: &str| e.get("ph").and_then(JsonValue::as_str) == Some(ph);
    let named = |e: &JsonValue, name: &str| e.get("name").and_then(JsonValue::as_str) == Some(name);
    let spans: Vec<&JsonValue> = events.iter().filter(|e| is(e, "X")).collect();
    // Per-scheme span coverage: every scheme runs the engine stages and
    // the fetch simulation; schemes that decode on hit must additionally
    // show the codec-construction span (the others fetch without a
    // serial decoder, so demanding it there would always fail).
    let mut required = vec!["compile", "emulate", "encode", "simulate"];
    if class.decodes_on_hit() {
        required.push("codec");
    }
    for stage in required {
        if !spans.iter().any(|e| named(e, stage)) {
            return Err(format!("no {stage} span in trace (scheme {scheme})"));
        }
    }
    // Causal integrity of the emitted spans: ids unique and non-zero,
    // every parent link resolving to a span in the same trace.
    let mut span_ids = Vec::new();
    for e in &spans {
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
    for e in &spans {
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
        // Nothing dropped, so the instant events in the stream must
        // match the totals kind for kind.
        let streamed = events
            .iter()
            .filter(|e| is(e, "i") && named(e, kind))
            .count() as f64;
        if streamed != traced {
            return Err(format!("{kind}: {streamed} in stream, {traced} in totals"));
        }
    }
    Ok(())
}
