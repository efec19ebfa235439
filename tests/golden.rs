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
        let reports = engine.reports(&prepared);
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

#[test]
fn every_figure_has_a_golden_test() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(COVERED, names.as_slice());
}
