//! Integration tests for the unified telemetry layer (DESIGN.md §12):
//! tracing must observe without steering (traced runs bit-identical to
//! untraced ones for every encoding class), histogram accounting must
//! conserve samples, and the Chrome-trace exporter must emit JSON that
//! round-trips through the in-crate parser with its event totals intact.

use proptest::prelude::*;
use tepic_ccc::prelude::*;
use tepic_ccc::telemetry::{
    chrome_trace_json, parse_json, EventCounts, FetchEventKind, JsonValue, NoopSink, TraceEvent,
    TraceMeta,
};

fn program_and_trace() -> (Program, yula::BlockTrace) {
    let program = lego::compile(
        "fn main() { var i; var s = 0; \
         for (i = 0; i < 120; i = i + 1) { \
         if (i < 60) { s = s + i; } else { s = s - 1; } } print(s); }",
        &lego::Options::default(),
    )
    .expect("test program compiles");
    let run = Emulator::new(&program)
        .run(&Limits::default())
        .expect("test program runs");
    (program, run.trace)
}

/// The tentpole invariant: with tracing attached, the `FetchResult` is
/// byte-identical across all four encoding classes, and the recorded
/// event totals reconcile with the result's own counters.
#[test]
fn traced_fetch_is_bit_identical_for_every_class() {
    let (program, trace) = program_and_trace();
    let base_img = schemes::base::encode_base(&program);
    let tailored = schemes::tailored::TailoredScheme
        .compress(&program)
        .expect("tailored compresses");
    let full = schemes::full::FullScheme::default()
        .compress(&program)
        .expect("full compresses");
    for (name, img, cfg) in [
        ("ideal", &base_img, FetchConfig::ideal()),
        ("base", &base_img, FetchConfig::base()),
        ("tailored", &tailored.image, FetchConfig::tailored()),
        ("compressed", &full.image, FetchConfig::compressed()),
    ] {
        let plain = simulate(&program, img, &trace, &cfg);
        let mut ring = RingSink::new(1 << 20);
        let run = |sink: &mut dyn TraceSink| {
            let probes = Probes {
                sink: Some(sink),
                ..Probes::default()
            };
            simulate_with(&program, img, &trace, &cfg, probes).0
        };
        let (traced, nooped) = (run(&mut ring), run(&mut NoopSink));
        assert_eq!(plain, traced, "{name}: tracing changed the result");
        assert_eq!(plain, nooped, "{name}: noop sink changed the result");

        let c = ring.counts();
        assert_eq!(ring.dropped(), 0, "{name}: ring dropped events");
        assert_eq!(c.cache_hits, plain.cache_hits, "{name}: cache hits");
        assert_eq!(c.cache_misses, plain.cache_misses, "{name}: cache misses");
        assert_eq!(c.atb_hits, plain.atb_hits, "{name}: atb hits");
        assert_eq!(c.atb_misses, plain.atb_misses, "{name}: atb misses");
        assert_eq!(c.pred_correct, plain.pred_correct, "{name}: pred correct");
        assert_eq!(c.pred_wrong, plain.pred_wrong, "{name}: pred wrong");
        assert_eq!(c.buffer_hits, plain.buffer_hits, "{name}: buffer hits");
        assert_eq!(
            c.buffer_misses, plain.buffer_misses,
            "{name}: buffer misses"
        );
        assert_eq!(
            c.integrity_faults, plain.integrity_faults,
            "{name}: integrity faults"
        );
        if name == "ideal" {
            assert_eq!(c.total(), 0, "ideal touches no fetch structures");
        } else {
            assert!(c.total() > 0, "{name}: no events traced");
        }
    }
}

/// The decoded variant: both the result and the decode statistics are
/// identical to the untraced run, and every L0 fill produced exactly
/// one decode-stall event.
#[test]
fn traced_decoded_run_matches_untraced() {
    let (program, trace) = program_and_trace();
    let out = schemes::full::FullScheme::default()
        .compress(&program)
        .expect("full compresses");
    let cfg = FetchConfig::compressed();
    let decoded = |sink| {
        let probes = Probes {
            codec: Some(out.codec.as_ref()),
            sink,
            ..Probes::default()
        };
        simulate_with(&program, &out.image, &trace, &cfg, probes)
    };
    let (r0, s0) = decoded(None);
    let mut ring = RingSink::new(1 << 20);
    let (r1, s1) = decoded(Some(&mut ring));
    assert_eq!(r0, r1, "tracing changed the fetch result");
    assert_eq!(s0, s1, "tracing changed the decode stats");
    assert!(s0.stall_bits > 0, "real decodes consume codeword bits");
    assert_eq!(s0.decode_errors, 0, "clean image decodes cleanly");
    assert_eq!(
        ring.counts().decode_stalls,
        r0.buffer_misses,
        "one decode-stall event per L0 fill"
    );
}

fn fetch_kind() -> impl Strategy<Value = FetchEventKind> {
    prop_oneof![
        (0u8..2).prop_map(|bank| FetchEventKind::CacheHit { bank }),
        (0u8..2, 1u32..8).prop_map(|(bank, lines)| FetchEventKind::CacheMiss { bank, lines }),
        prop::sample::select(vec![
            FetchEventKind::AtbHit,
            FetchEventKind::PredCorrect,
            FetchEventKind::PredWrong,
            FetchEventKind::L0Hit,
            FetchEventKind::IntegrityFault,
        ]),
        (0u32..100).prop_map(|penalty| FetchEventKind::AtbMiss { penalty }),
        (1u32..64).prop_map(|ops| FetchEventKind::L0Fill { ops }),
        (1u32..500).prop_map(|cycles| FetchEventKind::DecodeStall { cycles }),
    ]
}

/// A detail string over printable ASCII — quotes, backslashes and
/// control-adjacent punctuation included, so escaping gets exercised.
fn detail_string() -> impl Strategy<Value = String> {
    let charset: Vec<char> = (' '..='~').collect();
    prop::collection::vec(prop::sample::select(charset), 0..24)
        .prop_map(|cs| cs.into_iter().collect())
}

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0u64..1 << 50, 0u64..1 << 50, any::<u32>(), fetch_kind()).prop_map(
            |(seq, cycle, block, kind)| TraceEvent::Fetch {
                seq,
                cycle,
                block,
                kind
            }
        ),
        (
            detail_string(),
            1u64..1 << 20,
            0u64..1 << 20,
            0u64..1 << 50,
            0u64..1_000_000u64
        )
            .prop_map(|(detail, id, parent, start_ns, dur_ns)| TraceEvent::Span {
                name: "compile",
                detail,
                id,
                parent,
                start_ns,
                dur_ns
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram accounting conserves samples: the bucket counts always
    /// sum to the total observation count, whatever the bounds.
    #[test]
    fn histogram_bucket_counts_sum_to_total(
        bounds in prop::collection::vec(0u64..1000, 1..8),
        samples in prop::collection::vec(0u64..2000, 0..200),
    ) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("stall_cycles", &bounds);
        for &s in &samples {
            h.observe(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }

    /// The Chrome trace-event exporter emits JSON that the in-crate
    /// parser accepts, with one entry per event, names matching the
    /// event kinds, details surviving escaping, and the metadata totals
    /// equal to an independent fold of the events.
    #[test]
    fn chrome_trace_json_round_trips(events in prop::collection::vec(trace_event(), 0..40)) {
        let mut counts = EventCounts::default();
        for e in &events {
            counts.add(e);
        }
        let meta = TraceMeta {
            workload: "prop".to_string(),
            scheme: "full".to_string(),
            counts,
            dropped: 0,
        };
        let json = chrome_trace_json(&events, &meta);
        let v = parse_json(&json).expect("exporter emits well-formed JSON");
        let arr = v
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        prop_assert_eq!(arr.len(), events.len());
        for (parsed, original) in arr.iter().zip(&events) {
            let name = parsed.get("name").and_then(JsonValue::as_str);
            let ph = parsed.get("ph").and_then(JsonValue::as_str);
            match original {
                TraceEvent::Fetch { seq, cycle, kind, .. } => {
                    prop_assert_eq!(ph, Some("i"));
                    prop_assert_eq!(name, Some(kind.name()));
                    prop_assert_eq!(
                        parsed.get("ts").and_then(JsonValue::as_f64),
                        Some(*cycle as f64)
                    );
                    let args = parsed.get("args").expect("fetch args");
                    prop_assert_eq!(
                        args.get("seq").and_then(JsonValue::as_f64),
                        Some(*seq as f64)
                    );
                }
                TraceEvent::Span { name: sname, detail, .. } => {
                    prop_assert_eq!(ph, Some("X"));
                    prop_assert_eq!(name, Some(*sname));
                    let args = parsed.get("args").expect("span args");
                    prop_assert_eq!(
                        args.get("detail").and_then(JsonValue::as_str),
                        Some(detail.as_str())
                    );
                }
            }
        }
        let parsed_counts = v
            .get("metadata")
            .and_then(|m| m.get("counts"))
            .expect("metadata counts");
        let num = |k: &str| parsed_counts.get(k).and_then(JsonValue::as_f64).unwrap_or(-1.0);
        prop_assert_eq!(num("cache_hit"), counts.cache_hits as f64);
        prop_assert_eq!(num("cache_miss"), counts.cache_misses as f64);
        prop_assert_eq!(num("atb_hit"), counts.atb_hits as f64);
        prop_assert_eq!(num("atb_miss"), counts.atb_misses as f64);
        prop_assert_eq!(num("pred_correct"), counts.pred_correct as f64);
        prop_assert_eq!(num("pred_wrong"), counts.pred_wrong as f64);
        prop_assert_eq!(num("l0_hit"), counts.buffer_hits as f64);
        prop_assert_eq!(num("l0_fill"), counts.buffer_misses as f64);
        prop_assert_eq!(num("decode_stall"), counts.decode_stalls as f64);
        prop_assert_eq!(num("integrity_fault"), counts.integrity_faults as f64);
        prop_assert_eq!(num("spans"), counts.spans as f64);
    }
}
