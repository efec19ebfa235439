//! Integration tests for the observability layer (DESIGN.md §16): the
//! CRC-framed run ledger must round-trip arbitrary records and shrug
//! off truncated or corrupted lines, and the causal span forest a real
//! engine run produces must stay well-formed — with stage-span
//! parentage intact — across the worker pool hand-off.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tepic_ccc::bench::engine::Engine;
use tepic_ccc::telemetry::ledger::{self, Fingerprint, LedgerRecord};
use tepic_ccc::telemetry::{SharedSink, SpanForest, StageRollup};

/// A fresh temp-file path per call, so proptest cases never collide.
fn scratch_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ccc-obs-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Metric-ish identifiers: lowercase words with separators, as real
/// counter/sample names look.
fn ident() -> impl Strategy<Value = String> {
    let charset: Vec<char> = ('a'..='z').chain(['_', '.']).collect();
    prop::collection::vec(prop::sample::select(charset), 1..12)
        .prop_map(|cs| cs.into_iter().collect())
}

/// An arbitrary ledger record. Integer payloads stay under 2^50 (the
/// JSON model carries numbers as f64) and sample values are dyadic
/// (`v / 1024`), so equality after a round-trip is exact by
/// construction, not by luck.
fn record() -> impl Strategy<Value = LedgerRecord> {
    (
        ident(),
        0u64..1 << 50,
        0u64..1 << 50,
        prop::collection::vec((ident(), 0u64..1 << 50), 0..6),
        prop::collection::vec((ident(), 0u64..1 << 50), 0..6),
        prop::collection::vec((ident(), 0u64..1 << 40, 0u64..1 << 50), 0..4),
    )
        .prop_map(|(subcommand, seed, wall_ns, counters, samples, stages)| {
            let mut rec = LedgerRecord::new(&subcommand, Fingerprint::current("prop", 11));
            rec.seed = seed;
            rec.wall_ns = wall_ns;
            for (k, v) in counters {
                rec.counters.insert(k, v);
            }
            for (k, v) in samples {
                rec.samples.insert(k, v as f64 / 1024.0);
            }
            for (k, count, total_ns) in stages {
                rec.stages.insert(k, StageRollup { count, total_ns });
            }
            rec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Appended records come back exactly, in order, CRC-validated.
    #[test]
    fn ledger_jsonl_round_trips(records in prop::collection::vec(record(), 1..5)) {
        let path = scratch_path();
        for rec in &records {
            ledger::append(&path, rec).expect("append");
        }
        let out = ledger::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(out.skipped, 0);
        prop_assert_eq!(out.records, records);
    }

    /// A crash mid-append leaves a partial final line; loading skips it
    /// (counted, not fatal) and every complete record survives.
    #[test]
    fn truncated_tail_is_skipped_not_fatal(
        records in prop::collection::vec(record(), 1..5),
        cut in 1usize..64,
    ) {
        let path = scratch_path();
        for rec in &records {
            ledger::append(&path, rec).expect("append");
        }
        let line = records[0].to_line();
        let partial = &line[..cut.min(line.len().saturating_sub(1))];
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes.extend_from_slice(partial.as_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let out = ledger::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(out.skipped, 1);
        prop_assert_eq!(out.records, records);
    }
}

/// A flipped byte inside a framed record fails the CRC and only that
/// line is dropped — neighbors parse normally.
#[test]
fn corrupted_line_fails_crc_and_is_skipped_alone() {
    let path = scratch_path();
    let mut recs = Vec::new();
    for i in 0..3u64 {
        let mut rec = LedgerRecord::new("corrupt-test", Fingerprint::current("", 11));
        rec.seed = i;
        rec.samples.insert("wall_ns".to_string(), 100.0 + i as f64);
        ledger::append(&path, &rec).expect("append");
        recs.push(rec);
    }
    let text = std::fs::read_to_string(&path).expect("read back");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[1] = lines[1].replace("\"seed\":1", "\"seed\":7");
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite");
    let out = ledger::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.skipped, 1, "exactly the tampered line is dropped");
    assert_eq!(out.records, vec![recs[0].clone(), recs[2].clone()]);
}

/// A missing ledger is an empty history, not an error.
#[test]
fn missing_ledger_loads_empty() {
    let out = ledger::load(&scratch_path()).expect("load of absent file");
    assert!(out.records.is_empty());
    assert_eq!(out.skipped, 0);
}

/// The pool hand-off test: a real cold pipeline at `--jobs 8` must
/// yield a well-formed span forest in which every stage span kept its
/// workload parent across the thread hop, and whose per-stage rollups
/// reconcile *exactly* with the engine's own stage timers.
#[test]
fn span_forest_survives_pool_handoff_at_jobs_8() {
    let sink = SharedSink::new(1 << 16);
    let engine = Engine::uncached(8).with_trace_sink(sink.clone());
    engine.prepare_all().expect("pipeline prepares");
    assert_eq!(sink.dropped(), 0, "ring large enough for a full run");

    let events = sink.drain();
    let forest = SpanForest::build(&events).expect("span forest is well-formed");
    assert!(!forest.is_empty(), "a cold run records spans");

    let node = |id: u64| forest.nodes().iter().find(|n| n.id == id);
    let mut stage_spans = 0;
    for n in forest.nodes() {
        if matches!(n.name, "compile" | "emulate" | "encode") {
            stage_spans += 1;
            let parent = node(n.parent).unwrap_or_else(|| {
                panic!(
                    "{} {} lost its parent in the pool hand-off",
                    n.name, n.detail
                )
            });
            assert_eq!(
                parent.name, "workload",
                "{} {} reparented to {} {}",
                n.name, n.detail, parent.name, parent.detail
            );
        }
    }
    assert!(stage_spans > 0, "no stage spans recorded");

    let snap = engine.snapshot();
    let roll = forest.stage_rollup();
    let total = |stage: &str| roll.get(stage).map(|r| r.total_ns).unwrap_or(0);
    assert_eq!(total("compile"), snap.compile_ns, "compile rollup drifted");
    assert_eq!(total("emulate"), snap.emulate_ns, "emulate rollup drifted");
    assert_eq!(total("encode"), snap.encode_ns, "encode rollup drifted");
}
