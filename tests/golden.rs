//! Golden-snapshot tests over every table and figure.
//!
//! Each entry of `figures::FIGURES` has one test here that renders it
//! through the prepared-workload engine (uncached, so nothing on disk
//! can mask a regression) and diffs the full text against the committed
//! `results/<stem>.txt`: any change to the compiler, the codecs, the
//! fetch simulator or the renderers shows up as a line-level diff here
//! before it can silently shift a result. The suite is prepared once and
//! shared, so the tests run the renderers in parallel.
//!
//! To refresh a snapshot after an *intentional* change:
//!
//! ```text
//! cargo build --release
//! ./target/release/tepic-cc bench --no-cache --figures <name> > results/<stem>.txt
//! ```

use std::sync::OnceLock;
use tepic_ccc::bench::engine::Engine;
use tepic_ccc::bench::figures::{self, FIGURES};
use tepic_ccc::bench::Prepared;
use tepic_ccc::ccc::CompressionReport;

/// The prepared suite and its reports, built once for every test.
fn suite() -> &'static (Vec<Prepared>, Vec<CompressionReport>) {
    static SUITE: OnceLock<(Vec<Prepared>, Vec<CompressionReport>)> = OnceLock::new();
    SUITE.get_or_init(|| {
        let engine = Engine::uncached(4);
        let prepared = engine.prepare_all().expect("suite prepares");
        let reports = prepared.iter().map(Prepared::report).collect();
        (prepared, reports)
    })
}

/// Renders figure `name` and diffs it against its committed snapshot,
/// with a line-level report on mismatch.
fn assert_matches_golden(name: &str) {
    let fig = figures::figure(name).expect("a FIGURES entry");
    let path = format!("{}/results/{}.txt", env!("CARGO_MANIFEST_DIR"), fig.stem);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (prepared, reports) = suite();
    let actual = (fig.render)(prepared, reports);
    if actual == golden {
        return;
    }
    let mut report = String::new();
    for (i, (g, a)) in golden.lines().zip(actual.lines()).enumerate() {
        if g != a {
            report.push_str(&format!("line {}:\n  golden: {g}\n  actual: {a}\n", i + 1));
        }
    }
    let (gl, al) = (golden.lines().count(), actual.lines().count());
    if gl != al {
        report.push_str(&format!("line counts differ: golden {gl}, actual {al}\n"));
    }
    panic!(
        "{name} drifted from results/{}.txt (see tests/golden.rs for the \
         refresh recipe):\n{report}",
        fig.stem
    );
}

/// One test per figure, so libtest runs the renders in parallel, plus
/// the list of figures covered.
macro_rules! golden_tests {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                assert_matches_golden($name);
            }
        )*

        const COVERED: &[&str] = &[$($name),*];
    };
}

golden_tests! {
    table1_matches_golden => "table1",
    table2_matches_golden => "table2",
    fig05_matches_golden => "fig05",
    fig07_matches_golden => "fig07",
    fig10_matches_golden => "fig10",
    fig13_matches_golden => "fig13",
    fig14_matches_golden => "fig14",
    diag_matches_golden => "diag",
    ablations_matches_golden => "ablations",
    sweep_cache_matches_golden => "sweep_cache",
    stream_explorer_matches_golden => "stream_explorer",
    ext_complex_units_matches_golden => "ext_complex_units",
    ext_entropy_limit_matches_golden => "ext_entropy_limit",
    ext_fault_campaign_matches_golden => "ext_fault_campaign",
    ext_gshare_matches_golden => "ext_gshare",
    ext_tail_duplication_matches_golden => "ext_tail_duplication",
}

/// The reports behind Figures 5, 7 and 10 are derived from the
/// prepared images; re-encoding every program under every scheme (and
/// checking each round trip) must give the same reports, f64 fields
/// included.
#[test]
fn prepared_reports_equal_freshly_built_ones() {
    let (prepared, reports) = suite();
    for (p, report) in prepared.iter().zip(reports) {
        let built = CompressionReport::build(p.workload.name, &p.program);
        assert_eq!(*report, built, "{}", p.workload.name);
    }
}

#[test]
fn every_figure_has_a_golden_test() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(COVERED, names.as_slice());
}

/// The programs whose compiled bytes `tests/program_crcs.txt` pins: the
/// eight paper workloads, the same under the tail-duplication options of
/// `ext_tail_duplication`, and the distinct programs of the first 16
/// requests of the serve mixes of seeds 1–3.
fn pinned_programs() -> Vec<(String, String, lego::Options)> {
    use tepic_ccc::workgen::servemix::{request_mix, MixParams};
    let taildup = lego::Options {
        tail_duplicate: Some(6),
        ..lego::Options::default()
    };
    let mut out = Vec::new();
    for w in &tepic_ccc::workloads::ALL {
        out.push((
            w.name.to_string(),
            w.source().to_string(),
            lego::Options::default(),
        ));
        out.push((
            format!("{}+taildup", w.name),
            w.source().to_string(),
            taildup.clone(),
        ));
    }
    let mut mix = std::collections::BTreeMap::new();
    for seed in 1..=3 {
        for r in request_mix(seed, 16, &MixParams::default()) {
            mix.insert(r.name, r.source);
        }
    }
    for (name, source) in mix {
        out.push((name, source, lego::Options::default()));
    }
    out
}

/// The figure goldens print rounded numbers, so a one-op drift in the
/// compiler could slip past them. This pins the CRC-32 of every pinned
/// program's `tepic_isa::serialize` bytes instead. On an *intentional*
/// compiler change, replace `tests/program_crcs.txt` with the list this
/// test prints on failure.
#[test]
fn compiled_programs_match_their_pinned_crcs() {
    use tepic_ccc::isa::program_to_bytes;
    use tepic_ccc::telemetry::ledger::crc32;
    let mut actual = String::new();
    for (name, source, opts) in pinned_programs() {
        let program = lego::compile(&source, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        actual.push_str(&format!(
            "{name} {:08x}\n",
            crc32(&program_to_bytes(&program))
        ));
    }
    let path = format!("{}/tests/program_crcs.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != golden {
        let drifted: Vec<&str> = actual
            .lines()
            .filter(|l| !golden.lines().any(|g| g == *l))
            .collect();
        panic!("compiled bytes drifted from {path}: {drifted:?}\nfull list:\n{actual}");
    }
}
