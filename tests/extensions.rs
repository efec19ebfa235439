//! Integration tests over the future-work extensions: gshare prediction,
//! complex fetch units, op-pair compression and tail duplication — each
//! must preserve correctness invariants on the real workloads.

use tepic_ccc::ccc::schemes::{base::encode_base, pair::PairScheme, Scheme};
use tepic_ccc::fetch::{FetchUnits, PredictorKind};
use tepic_ccc::prelude::*;

#[test]
fn gshare_preserves_delivery_and_bounds() {
    let w = workloads::by_name("m88ksim").unwrap();
    let (p, run) = w.compile_and_run().unwrap();
    let img = encode_base(&p);
    let mut cfg = FetchConfig::base();
    cfg.predictor = PredictorKind::Gshare { history_bits: 12 };
    let g = simulate(&p, &img, &run.trace, &cfg);
    let b = simulate(&p, &img, &run.trace, &FetchConfig::base());
    assert_eq!(g.ops, b.ops, "prediction must not change delivered work");
    assert!(g.ipc() <= 6.0 + 1e-9);
    // m88ksim's guest-loop branches are history-predictable: gshare must
    // beat the 2-bit counters here.
    assert!(
        g.pred_accuracy() > b.pred_accuracy(),
        "gshare {:.3} should beat 2-bit {:.3} on m88ksim",
        g.pred_accuracy(),
        b.pred_accuracy()
    );
}

#[test]
fn complex_units_preserve_delivery_on_all_workloads() {
    for w in &workloads::ALL {
        let (p, run) = w.compile_and_run().unwrap();
        let img = encode_base(&p);
        let units = FetchUnits::form(&p, &run.trace, 0.8);
        let cfg = FetchConfig::base();
        let probes = Probes {
            units: Some(&units),
            ..Probes::default()
        };
        let (u, _) = simulate_with(&p, &img, &run.trace, &cfg, probes);
        let b = simulate(&p, &img, &run.trace, &cfg);
        assert_eq!(u.ops, b.ops, "{}: unit fetch dropped ops", w.name);
        assert!(
            u.pred_correct + u.pred_wrong <= b.pred_correct + b.pred_wrong,
            "{}: units must not add prediction points",
            w.name
        );
    }
}

#[test]
fn pair_scheme_round_trips_all_workloads() {
    for w in &workloads::ALL {
        let p = w.compile().unwrap();
        let out = PairScheme::default().compress(&p).unwrap();
        assert!(out.image.check_layout(), "{}", w.name);
        assert!(out.verify_roundtrip(&p), "{}", w.name);
    }
}

#[test]
fn tail_duplication_preserves_behaviour_everywhere() {
    for w in &workloads::ALL {
        let plain = w.compile_and_run().unwrap().1.output;
        let duped_p = w
            .compile_with(&lego::Options {
                tail_duplicate: Some(8),
                ..lego::Options::default()
            })
            .unwrap();
        let duped = Emulator::new(&duped_p)
            .run(&Limits::default())
            .unwrap()
            .output;
        assert_eq!(
            plain, duped,
            "{}: tail duplication changed behaviour",
            w.name
        );
    }
}

#[test]
fn tail_duplication_grows_blocks_not_semantics() {
    let w = workloads::by_name("go").unwrap();
    let plain = w.compile().unwrap();
    let duped = w
        .compile_with(&lego::Options {
            tail_duplicate: Some(8),
            ..lego::Options::default()
        })
        .unwrap();
    let avg = |p: &Program| p.num_ops() as f64 / p.num_blocks() as f64;
    assert!(
        avg(&duped) > avg(&plain),
        "duplication should enlarge average blocks: {} vs {}",
        avg(&duped),
        avg(&plain)
    );
}
