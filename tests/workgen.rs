//! Whole-pipeline property tests for the synthetic workload generator
//! (DESIGN.md §14). The generator's contract has three legs, and each
//! is asserted here end-to-end rather than unit-by-unit:
//!
//! 1. **Determinism** — equal (seed, tier, flavor) reproduce the corpus
//!    byte-for-byte, and the prepared artifacts are identical whether
//!    the engine runs cold or warm, serial or parallel.
//! 2. **Validity** — every generated program compiles through `lego`,
//!    runs to a clean halt inside a bounded step budget, and round-trips
//!    all five compression schemes bit-exactly.
//! 3. **Calibration** — the `10x` tier's aggregate static op mix lands
//!    within 5 percentage points of the flavor target in every
//!    category (the acceptance bound `tepic-cc gen` enforces in CI).

use tepic_ccc::bench::engine::{scheme_by_name, Engine, MATRIX_SCHEMES};
use tepic_ccc::prelude::*;
use tepic_ccc::workgen::{generate_corpus, Flavor, GenError, MixProfile, Tier};

/// Step budget for generated programs: generous against the observed
/// 22k–200k dynamic ops, tight enough to catch a runaway loop fast.
const GEN_LIMITS: Limits = Limits { max_ops: 5_000_000 };

#[test]
fn serve_mix_draws_from_the_scheme_matrix() {
    // ccc-workgen does not depend on ccc-core, so it keeps a copy of the
    // scheme list; this pins the copy to the original.
    assert_eq!(tepic_ccc::workgen::MIX_SCHEMES, MATRIX_SCHEMES);
}

#[test]
fn corpus_generation_is_deterministic() {
    let a = generate_corpus(42, Tier::Tiny, Flavor::Tepic).unwrap();
    let b = generate_corpus(42, Tier::Tiny, Flavor::Tepic).unwrap();
    assert_eq!(a.programs.len(), b.programs.len());
    for (pa, pb) in a.programs.iter().zip(&b.programs) {
        assert_eq!(pa.name, pb.name);
        assert_eq!(pa.seed, pb.seed);
        assert_eq!(pa.source, pb.source, "{}: source text differs", pa.name);
    }

    // Different seeds and flavors must actually change the corpus.
    let c = generate_corpus(43, Tier::Tiny, Flavor::Tepic).unwrap();
    assert_ne!(a.programs[0].source, c.programs[0].source);
    let f = generate_corpus(42, Tier::Tiny, Flavor::Foreign).unwrap();
    assert_ne!(a.programs[0].source, f.programs[0].source);
}

#[test]
fn per_program_seeds_are_decorrelated() {
    let c = generate_corpus(42, Tier::Paper, Flavor::Tepic).unwrap();
    let mut seeds: Vec<u64> = c.programs.iter().map(|p| p.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), c.programs.len(), "derived seeds collide");
    let mut names: Vec<&str> = c.programs.iter().map(|p| p.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), c.programs.len(), "program names collide");
}

#[test]
fn gated_tier_is_refused_without_opt_in() {
    if std::env::var("CCC_GEN_1000X").is_ok_and(|v| v == "1") {
        return; // opted in externally; nothing to refuse
    }
    match generate_corpus(42, Tier::ThousandX, Flavor::Tepic) {
        Err(GenError::TierGated(Tier::ThousandX)) => {}
        other => panic!("expected TierGated, got {other:?}"),
    }
}

/// Every program in a tiny corpus, across several seeds and both
/// flavors: compiles, halts within budget with output, and round-trips
/// all five schemes with a sane image layout.
#[test]
fn tiny_corpora_compile_run_and_roundtrip() {
    for flavor in Flavor::ALL {
        for seed in [1u64, 42, 99] {
            let corpus = generate_corpus(seed, Tier::Tiny, flavor).unwrap();
            assert!(!corpus.programs.is_empty());
            for gp in &corpus.programs {
                let p = lego::compile(&gp.source, &lego::Options::default())
                    .unwrap_or_else(|e| panic!("{}: compile: {e}", gp.name));
                let run = Emulator::new(&p)
                    .run(&GEN_LIMITS)
                    .unwrap_or_else(|e| panic!("{}: run: {e}", gp.name));
                assert!(!run.output.is_empty(), "{}: halted with no output", gp.name);
                for scheme in MATRIX_SCHEMES {
                    let out = scheme_by_name(scheme)
                        .unwrap()
                        .compress(&p)
                        .unwrap_or_else(|e| panic!("{}/{scheme}: {e}", gp.name));
                    assert!(
                        out.verify_roundtrip(&p),
                        "{}/{scheme}: round-trip failed",
                        gp.name
                    );
                    assert_eq!(
                        out.image.num_blocks(),
                        p.num_blocks(),
                        "{}/{scheme}: block count drifted",
                        gp.name
                    );
                    assert!(
                        out.image.total_bytes() > 0,
                        "{}/{scheme}: empty image",
                        gp.name
                    );
                }
            }
        }
    }
}

/// The acceptance property behind `tepic-cc gen`: the 10x tier's
/// aggregate static mix stays within the 5 pp band of the flavor
/// target, and the whole tier survives the full pipeline.
#[test]
fn ten_x_tier_is_calibrated_and_roundtrips() {
    let corpus = generate_corpus(42, Tier::TenX, Flavor::Tepic).unwrap();
    assert_eq!(corpus.programs.len(), Tier::TenX.program_count());

    let opts = lego::Options::default();
    let mut programs = Vec::with_capacity(corpus.programs.len());
    for gp in &corpus.programs {
        let p = lego::compile(&gp.source, &opts)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", gp.name));
        Emulator::new(&p)
            .run(&GEN_LIMITS)
            .unwrap_or_else(|e| panic!("{}: run: {e}", gp.name));
        programs.push(p);
    }

    let generated = MixProfile::from_programs(&programs);
    let target = Flavor::Tepic.target();
    let max_delta = generated.max_delta_pp(&target);
    assert!(
        max_delta <= 5.0,
        "10x tier out of band: {max_delta:.2} pp\n  generated {:?}\n  target {:?}",
        generated.fractions,
        target.fractions
    );

    // Round-trip the whole tier through every scheme. Spot-checking
    // would be cheaper, but the tier is the unit the bench engine
    // consumes, so the tier is the unit we certify.
    for (gp, p) in corpus.programs.iter().zip(&programs) {
        for scheme in MATRIX_SCHEMES {
            let out = scheme_by_name(scheme)
                .unwrap()
                .compress(p)
                .unwrap_or_else(|e| panic!("{}/{scheme}: {e}", gp.name));
            assert!(
                out.verify_roundtrip(p),
                "{}/{scheme}: round-trip failed",
                gp.name
            );
        }
    }
}

/// Generated programs must survive the fetch simulator with a clean
/// integrity record: every compressed block decodes on the miss path
/// (no decode errors, no integrity faults) and the cycle model
/// produces a sane IPC.
#[test]
fn generated_programs_fetch_simulate_cleanly() {
    let corpus = generate_corpus(42, Tier::Tiny, Flavor::Tepic).unwrap();
    for gp in &corpus.programs {
        let p = lego::compile(&gp.source, &lego::Options::default()).unwrap();
        let run = Emulator::new(&p).run(&GEN_LIMITS).unwrap();
        let out = scheme_by_name("full").unwrap().compress(&p).unwrap();
        let (result, dstats) = simulate_decoded(
            &p,
            &out.image,
            &run.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
        );
        assert_eq!(dstats.decode_errors, 0, "{}: decode errors", gp.name);
        assert_eq!(
            result.integrity_faults, 0,
            "{}: integrity faults on a clean image",
            gp.name
        );
        let ipc = result.ipc();
        assert!(
            ipc > 0.0 && ipc <= 6.0,
            "{}: implausible IPC {ipc}",
            gp.name
        );
    }
}

/// The foreign flavor must both land inside its own band and actually
/// skew the mix away from the TEPIC profile in the advertised
/// direction (denser memory traffic, lighter control).
#[test]
fn foreign_flavor_skews_and_stays_in_band() {
    let corpus = generate_corpus(42, Tier::Paper, Flavor::Foreign).unwrap();
    let programs: Vec<_> = corpus
        .programs
        .iter()
        .map(|gp| {
            lego::compile(&gp.source, &lego::Options::default())
                .unwrap_or_else(|e| panic!("{}: compile: {e}", gp.name))
        })
        .collect();
    let generated = MixProfile::from_programs(&programs);
    let target = Flavor::Foreign.target();
    let max_delta = generated.max_delta_pp(&target);
    assert!(max_delta <= 5.0, "foreign out of band: {max_delta:.2} pp");

    // load+store share above the TEPIC target's, ctrl share below.
    let tepic = Flavor::Tepic.target();
    let mem = generated.fractions[3] + generated.fractions[4];
    let mem_tepic = tepic.fractions[3] + tepic.fractions[4];
    assert!(
        mem > mem_tepic,
        "foreign mem {mem:.3} <= tepic {mem_tepic:.3}"
    );
    assert!(
        generated.fractions[5] < tepic.fractions[5],
        "foreign ctrl did not drop"
    );
}

/// A warm engine must reproduce the cold run's artifacts bit-for-bit,
/// and a parallel prepare must match a serial one — the generated
/// corpus rides the same engine guarantees as the real suite.
#[test]
fn engine_prepare_is_cache_and_parallelism_invariant() {
    let corpus = generate_corpus(7, Tier::Tiny, Flavor::Tepic).unwrap();
    let workloads = corpus.workloads();

    let dir = std::env::temp_dir().join(format!("ccc-workgen-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_engine = Engine::with_cache_dir(2, &dir).unwrap();
    let cold = cold_engine.prepare(&workloads).expect("cold prepare");
    let snap = cold_engine.snapshot();
    assert!(snap.misses() > 0, "cold run should build artifacts");

    let warm_engine = Engine::with_cache_dir(2, &dir).unwrap();
    let warm = warm_engine.prepare(&workloads).expect("warm prepare");
    let wsnap = warm_engine.snapshot();
    assert_eq!(wsnap.misses(), 0, "warm run must be fully cache-served");

    let serial = Engine::uncached(1).prepare(&workloads).expect("serial");
    let parallel = Engine::uncached(8).prepare(&workloads).expect("parallel");

    for other in [&warm, &serial, &parallel] {
        assert_eq!(cold.len(), other.len());
        for (a, b) in cold.iter().zip(other.iter()) {
            let name = a.workload.name;
            assert_eq!(a.program, b.program, "{name}: program differs");
            assert_eq!(a.trace, b.trace, "{name}: trace differs");
            for ((sa, ia), (_, ib)) in a.images().zip(b.images()) {
                assert_eq!(ia, ib, "{name}/{sa}: image differs");
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
