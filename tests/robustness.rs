//! Self-healing integration tests (DESIGN.md §13): corrupt cache
//! entries are quarantined — never served, never silently deleted —
//! and the engine's recovery machinery is *invisible*: under any seeded
//! failpoint schedule the prepared artifacts, fetch results and decoded
//! streams come out bit-identical to a fault-free run, while every
//! injected fault reconciles against exactly one recovery action.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};
use tepic_ccc::bench::engine::{Engine, RecoverySnapshot, MATRIX_SCHEMES};
use tepic_ccc::ccc::failpoint::{sites, FailMode, Failpoints};
use tepic_ccc::ccc::{encoded_to_bytes, RetryPolicy};
use tepic_ccc::isa::program_to_bytes;
use tepic_ccc::prelude::*;
use tepic_ccc::telemetry::FakeClock;
use tepic_ccc::workloads::Workload;

const LOOPY: &Workload = &Workload::custom(
    "rob-loop",
    "hot squaring loop",
    "fn main() { var i; var s = 0; for (i = 0; i < 60; i = i + 1) { s = s + i * i; } print(s); }",
);
const BRANCHY: &Workload = &Workload::custom(
    "rob-branchy",
    "data-dependent branches",
    "fn main() { var i; for (i = 0; i < 50; i = i + 1) { if (i - i / 3 * 3 == 0) { print(i); } } }",
);

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tepic-robustness-{tag}-{}", std::process::id()))
}

/// Installs (once, process-wide) a panic hook that silences injected
/// `pool.job` panics — the isolated pool catches them, so their default
/// backtraces are pure noise — while real panics keep reporting.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
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
    });
}

/// The byte-level fingerprint of one prepared workload: program image,
/// block trace, every matrix-scheme encoding, and the fetch simulator's
/// verdict on the fully-compressed image.
type Fingerprint = (Vec<u8>, Vec<u8>, Vec<Vec<u8>>, FetchResult);

fn fingerprints(prepared: &[tepic_ccc::bench::Prepared]) -> Vec<Fingerprint> {
    prepared
        .iter()
        .map(|p| {
            let images = MATRIX_SCHEMES
                .iter()
                .map(|s| encoded_to_bytes(p.image(s).expect("matrix scheme")))
                .collect();
            let fetch = simulate(
                &p.program,
                &p.compressed_img,
                &p.trace,
                &FetchConfig::compressed(),
            );
            (
                program_to_bytes(&p.program),
                p.trace.to_wire_bytes(),
                images,
                fetch,
            )
        })
        .collect()
}

/// The fault-free reference: prepared once, shared by every case.
fn clean_baseline() -> &'static Vec<Fingerprint> {
    static BASE: OnceLock<Vec<Fingerprint>> = OnceLock::new();
    BASE.get_or_init(|| {
        let engine = Engine::uncached(2);
        fingerprints(&engine.prepare(&[LOOPY, BRANCHY]).expect("clean prepare"))
    })
}

#[test]
fn corrupt_entry_is_quarantined_under_its_original_key() {
    let dir = scratch("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let cold = Engine::with_cache_dir(2, &dir).unwrap();
    cold.prepare(&[LOOPY]).unwrap();

    // Damage one stored trace entry without refreshing its CRC.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("trace-"))
        .expect("a trace entry exists");
    let name = entry.file_name();
    let mut raw = std::fs::read(entry.path()).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0xff;
    std::fs::write(entry.path(), &raw).unwrap();

    let warm = Engine::with_cache_dir(2, &dir).unwrap();
    let healed = warm.prepare(&[LOOPY]).unwrap();

    // The rebuild healed the cache and the damaged bytes moved — intact,
    // under their original key — into the quarantine directory.
    assert_eq!(&fingerprints(&healed)[..], &clean_baseline()[..1]);
    let qpath = dir.join("quarantine").join(&name);
    assert_eq!(
        std::fs::read(&qpath).expect("quarantined entry exists"),
        raw,
        "quarantine must preserve the damaged bytes for post-mortem"
    );
    let rec = warm.recovery();
    assert_eq!(rec.quarantined, 1);
    let registry = MetricsRegistry::new();
    rec.record_metrics(&registry);
    assert_eq!(registry.counter("cache.quarantined").get(), 1);

    // A fresh, valid entry replaced the quarantined one.
    let again = Engine::with_cache_dir(2, &dir).unwrap();
    again.prepare(&[LOOPY]).unwrap();
    assert_eq!(again.snapshot().misses(), 0, "cache healed after rebuild");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole guarantee, stated as a property: for ANY seed and
    /// ANY mix of injected cache I/O errors, cache corruption, job
    /// panics and flaky stages, a cold run and a warm run both produce
    /// artifacts bit-identical to the fault-free baseline, and the
    /// recovery counters reconcile one-for-one with the injection log.
    #[test]
    fn recovery_is_invisible_under_any_fault_schedule(
        seed in any::<u64>(),
        // Fire probabilities in permille (the proptest shim has no f64
        // range strategy); panics are capped low — see the retry note.
        read_pm in 0u32..800,
        corrupt_pm in 0u32..500,
        write_pm in 0u32..800,
        panic_pm in 0u32..350,
        stage_pm in 0u32..800,
    ) {
        let [p_read, p_corrupt, p_write, p_panic, p_stage] =
            [read_pm, corrupt_pm, write_pm, panic_pm, stage_pm].map(|pm| f64::from(pm) / 1000.0);
        quiet_injected_panics();
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = scratch(&format!("prop-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_dir_all(&dir);

        let spec = format!(
            "cache.read:{p_read}:io,cache.read:{p_corrupt}:corrupt,\
             cache.write:{p_write}:io,cache.rename:{p_write}:io,\
             pool.job:{p_panic}:panic,stage.compile:{p_stage}:flaky,\
             stage.emulate:{p_stage}:flaky,stage.encode:{p_stage}:flaky",
        );
        let fp = Arc::new(Failpoints::from_spec(&spec, seed).unwrap());
        // Deep retry budget: at the capped panic rate the odds of a job
        // exhausting 12 attempts are ~3e-6 per job, so the suite stays
        // deterministic-in-practice while still exercising retries.
        let retry = RetryPolicy { max_attempts: 12, ..RetryPolicy::default() };
        let clock = Arc::new(FakeClock::with_step(0));
        let engine = |dir: &PathBuf| {
            Engine::with_cache_dir(2, dir)
                .unwrap()
                .with_clock(clock.clone())
                .with_sleeper(clock.clone())
                .with_retry(retry)
                .with_failpoints(Arc::clone(&fp))
        };

        let cold = engine(&dir);
        let a = cold.prepare(&[LOOPY, BRANCHY]).expect("cold prepare heals");
        prop_assert_eq!(&fingerprints(&a), clean_baseline());
        let warm = engine(&dir);
        let b = warm.prepare(&[LOOPY, BRANCHY]).expect("warm prepare heals");
        prop_assert_eq!(&fingerprints(&b), clean_baseline());

        // Reconciliation: injected == recovered, class by class.
        let recs = [cold.recovery(), warm.recovery()];
        let rsum = |f: fn(&RecoverySnapshot) -> u64| recs.iter().map(f).sum::<u64>();
        prop_assert_eq!(fp.fired(sites::CACHE_READ, FailMode::Io), rsum(|r| r.cache_read_faults));
        prop_assert_eq!(fp.fired(sites::CACHE_READ, FailMode::Corrupt), rsum(|r| r.quarantined));
        prop_assert_eq!(
            fp.fired(sites::CACHE_WRITE, FailMode::Io) + fp.fired(sites::CACHE_RENAME, FailMode::Io),
            rsum(|r| r.cache_write_faults)
        );
        prop_assert_eq!(fp.fired(sites::POOL_JOB, FailMode::Panic), rsum(|r| r.job_panics));
        let stage_fired: u64 = [sites::STAGE_COMPILE, sites::STAGE_EMULATE, sites::STAGE_ENCODE]
            .iter()
            .map(|s| fp.fired(s, FailMode::Flaky))
            .sum();
        prop_assert_eq!(stage_fired, rsum(|r| r.stage_faults));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LUT-decoder graceful degradation: whatever fraction of block
    /// decodes an injected schedule fails, the one-shot fallback to the
    /// bit-serial reference decoder keeps the fetch simulation
    /// bit-identical, error-free, and fully accounted.
    #[test]
    fn decode_fault_schedule_never_changes_fetch_result(
        seed in any::<u64>(),
        prob_pm in 0u32..=1000,
    ) {
        let prob = f64::from(prob_pm) / 1000.0;
        static CLEAN: OnceLock<(Program, tepic_ccc::yula::BlockTrace, FetchResult)> = OnceLock::new();
        let (program, trace, clean) = CLEAN.get_or_init(|| {
            let program = lego::compile(LOOPY.source(), &lego::Options::default()).unwrap();
            let run = Emulator::new(&program).run(&Limits::default()).unwrap();
            let out = schemes::full::FullScheme::default().compress(&program).unwrap();
            let probes = Probes {
                codec: Some(out.codec.as_ref()),
                ..Probes::default()
            };
            let cfg = FetchConfig::compressed();
            let (clean, _) = simulate_with(&program, &out.image, &run.trace, &cfg, probes);
            (program, run.trace, clean)
        });
        let out = schemes::full::FullScheme::default().compress(program).unwrap();
        let fp = Failpoints::from_spec(&format!("decode.lut:{prob}:error"), seed).unwrap();
        let probes = Probes {
            codec: Some(out.codec.as_ref()),
            failpoints: Some(&fp),
            ..Probes::default()
        };
        let cfg = FetchConfig::compressed();
        let (injected, stats) = simulate_with(program, &out.image, trace, &cfg, probes);
        prop_assert_eq!(&injected, clean);
        prop_assert_eq!(stats.reference_fallbacks, fp.fired(sites::DECODE_LUT, FailMode::Error));
        prop_assert_eq!(stats.decode_errors, 0);
        if prob >= 1.0 {
            prop_assert_eq!(stats.reference_fallbacks, stats.blocks_decoded);
        }
    }
}
