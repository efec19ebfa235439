//! Whole-pipeline determinism: identical inputs must produce bit-identical
//! artifacts at every stage (the compiler is part of the trusted base for
//! the ROM contents, so nondeterminism would poison every experiment).

use tepic_ccc::ccc::schemes::standard_schemes;
use tepic_ccc::prelude::*;

#[test]
fn compilation_is_bit_deterministic() {
    for w in workloads::ALL.iter().take(4) {
        let a = w.compile().unwrap();
        let b = w.compile().unwrap();
        assert_eq!(a.code_bytes(), b.code_bytes(), "{}: code differs", w.name);
        assert_eq!(a.data(), b.data(), "{}: data differs", w.name);
        assert_eq!(a.entry(), b.entry());
    }
}

#[test]
fn compression_is_bit_deterministic() {
    let w = workloads::by_name("perl").unwrap();
    let p = w.compile().unwrap();
    for scheme in standard_schemes() {
        let a = scheme.compress(&p).unwrap();
        let b = scheme.compress(&p).unwrap();
        assert_eq!(
            a.image.bytes,
            b.image.bytes,
            "{}: bytes differ",
            scheme.name()
        );
        assert_eq!(a.image.block_start, b.image.block_start);
        assert_eq!(a.image.decoder, b.image.decoder);
    }
}

#[test]
fn traces_are_deterministic() {
    let w = workloads::by_name("go").unwrap();
    let p = w.compile().unwrap();
    let a = Emulator::new(&p).run(&Limits::default()).unwrap();
    let b = Emulator::new(&p).run(&Limits::default()).unwrap();
    assert_eq!(a.trace.blocks(), b.trace.blocks());
    assert_eq!(a.output, b.output);
}

#[test]
fn simulation_is_deterministic_across_configs() {
    let w = workloads::by_name("li").unwrap();
    let (p, run) = w.compile_and_run().unwrap();
    let img = tepic_ccc::ccc::schemes::base::encode_base(&p);
    for cfg in [FetchConfig::base(), FetchConfig::ideal()] {
        let a = simulate(&p, &img, &run.trace, &cfg);
        let b = simulate(&p, &img, &run.trace, &cfg);
        assert_eq!(a, b);
    }
}

#[test]
fn parallel_preparation_matches_serial() {
    // The parallel engine must be invisible in the results: the
    // whole prepared suite — programs, traces, every encoded image — and
    // the downstream fetch statistics must be bit-identical whether one
    // worker runs every task (the reference serial schedule) or eight
    // workers race over them.
    use tepic_ccc::bench::engine::Engine;
    use tepic_ccc::bench::{cache_study_scaled, Prepared};

    let serial: Vec<Prepared> = Engine::uncached(1).prepare_all().expect("jobs=1 prepares");
    let parallel: Vec<Prepared> = Engine::uncached(8).prepare_all().expect("jobs=8 prepares");
    assert_eq!(serial.len(), parallel.len());

    for (a, b) in serial.iter().zip(&parallel) {
        let name = a.workload.name;
        assert_eq!(a.workload.name, b.workload.name, "workload order changed");
        assert_eq!(a.program, b.program, "{name}: program differs");
        assert_eq!(a.trace, b.trace, "{name}: trace differs");
        for ((sa, ia), (_, ib)) in a.images().zip(b.images()) {
            assert_eq!(ia, ib, "{name}/{sa}: image differs");
        }
        assert_eq!(a.base_img, b.base_img, "{name}: base image differs");

        // FetchResult derives PartialEq, so this compares every counter
        // the figures consume (cycles, hits, predictions, bus activity).
        let sa = cache_study_scaled(a);
        let sb = cache_study_scaled(b);
        assert_eq!(sa.ideal, sb.ideal, "{name}: ideal stats differ");
        assert_eq!(sa.base, sb.base, "{name}: base stats differ");
        assert_eq!(sa.compressed, sb.compressed, "{name}: compressed differ");
        assert_eq!(sa.tailored, sb.tailored, "{name}: tailored differ");
    }
}

#[test]
fn generated_corpus_preparation_matches_across_job_counts() {
    // The synthetic corpus must enjoy the same engine guarantee as the
    // built-in suite: a generated tiny tier prepared by one worker is
    // bit-identical — programs, traces, every scheme image — to the
    // same tier prepared by eight workers racing over the task pool.
    use tepic_ccc::bench::engine::Engine;
    use tepic_ccc::workgen::{generate_corpus, Flavor, Tier};

    let corpus = generate_corpus(42, Tier::Tiny, Flavor::Tepic).unwrap();
    let workloads = corpus.workloads();
    let serial = Engine::uncached(1).prepare(&workloads).expect("jobs=1");
    let parallel = Engine::uncached(8).prepare(&workloads).expect("jobs=8");
    assert_eq!(serial.len(), parallel.len());

    for (a, b) in serial.iter().zip(&parallel) {
        let name = a.workload.name;
        assert_eq!(a.workload.name, b.workload.name, "workload order changed");
        assert_eq!(a.program, b.program, "{name}: program differs");
        assert_eq!(a.trace, b.trace, "{name}: trace differs");
        for ((sa, ia), (_, ib)) in a.images().zip(b.images()) {
            assert_eq!(ia, ib, "{name}/{sa}: image differs");
        }
        assert_eq!(a.base_img, b.base_img, "{name}: base image differs");
    }
}
