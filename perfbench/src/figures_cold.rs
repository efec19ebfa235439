//! `figures-cold`: the paper's own output, built cold. An uncached
//! engine with one job prepares the 8 paper workloads (compile, emulate,
//! encode under every scheme, report), then all 16 figures render from
//! them, repeated in interleaved rounds.
//!
//! The only workload where `lego`, `yula`, `schemes` encode and the
//! `ifetch-sim` simulations behind the figures are bound by compute; it
//! bypasses `serve` and the cache. Each unit (one workload's prepare,
//! one figure's render) is timed every round and reported as its best
//! round: on a shared host the per-unit minimum moves far less between
//! runs than any one long wall clock.

use std::time::Instant;

use ccc_bench::engine::{Engine, MATRIX_SCHEMES};
use ccc_bench::{figures, Prepared};
use ccc_core::fault::CampaignConfig;
use ccc_core::schemes::base::encode_base;
use ccc_core::CompressionReport;
use tinker_workloads::Workload;

use crate::stats::{self, UnitMins};
use crate::{Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every figure of the suite with the results file it must reproduce.
const FIGURES: [(&str, &str); 16] = [
    ("table1", "table1_penalties"),
    ("table2", "table2_formats"),
    ("fig05", "fig05_compression"),
    ("fig07", "fig07_att_size"),
    ("fig10", "fig10_decoder"),
    ("fig13", "fig13_cache_study"),
    ("fig14", "fig14_bus_power"),
    ("diag", "diag"),
    ("ablations", "ablations"),
    ("sweep_cache", "sweep_cache"),
    ("stream_explorer", "stream_explorer"),
    ("ext_complex_units", "ext_complex_units"),
    ("ext_entropy_limit", "ext_entropy_limit"),
    ("ext_fault_campaign", "ext_fault_campaign"),
    ("ext_gshare", "ext_gshare"),
    ("ext_tail_duplication", "ext_tail_duplication"),
];

/// Prepare passes per round; each feeds an equal slice of the figures.
const PREPARES_PER_ROUND: usize = 2;

/// The pipeline stages of one workload's prepare, as per-layer metrics.
const STAGES: [&str; 4] = [
    "lego.compile_ms",
    "yula.emulate_ms",
    "schemes.encode_ms",
    "engine.report_ms",
];

/// The fault campaign the `ext_fault_campaign` binary runs (the
/// committed results file has 100 faults per target; the default
/// config has 200).
const CAMPAIGN: CampaignConfig = CampaignConfig {
    seed: 42,
    faults_per_target: 100,
};

fn render(name: &str, prepared: &[Prepared], reports: &[CompressionReport]) -> String {
    match name {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig05" => figures::fig05(reports),
        "fig07" => figures::fig07(reports, prepared),
        "fig10" => figures::fig10(reports),
        "fig13" => figures::fig13(prepared),
        "fig14" => figures::fig14(prepared),
        "diag" => figures::diag(prepared),
        "ablations" => figures::ablations(prepared),
        "sweep_cache" => figures::sweep_cache(prepared),
        "stream_explorer" => figures::stream_explorer(prepared),
        "ext_complex_units" => figures::ext_complex_units(prepared),
        "ext_entropy_limit" => figures::ext_entropy_limit(prepared),
        "ext_fault_campaign" => figures::ext_fault_campaign(prepared, &CAMPAIGN),
        "ext_gshare" => figures::ext_gshare(prepared),
        "ext_tail_duplication" => figures::ext_tail_duplication(prepared),
        _ => unreachable!("figure {name} is not in FIGURES"),
    }
}

/// Best-round times of every unit.
struct Mins {
    prepare: UnitMins,
    stages: [UnitMins; 4],
    render: UnitMins,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let workloads: Vec<&'static Workload> = tinker_workloads::ALL.iter().collect();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        kept = Some(set_up(&workloads)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (engine, expected) = kept.expect("at least one set-up");
    let mut out = Outcome::new(stats::median(&setup_s));

    let n = workloads.len();
    let mut mins = Mins {
        prepare: UnitMins::new(n),
        stages: std::array::from_fn(|_| UnitMins::new(n)),
        render: UnitMins::new(FIGURES.len()),
    };
    let start = Instant::now();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        ctx.spans.time("figures.round", 0, rounds, |root| {
            round(
                ctx, &engine, &workloads, &expected, root, rounds, &mut mins, &mut out,
            )
        });
        // Start another round only if it should end within the time.
        let mean_round = start.elapsed().as_secs_f64() / rounds as f64;
        if start.elapsed().as_secs_f64() + mean_round > ctx.seconds as f64 {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted = rounds * (PREPARES_PER_ROUND * n + FIGURES.len()) as u64;
    if !(mins.prepare.complete() && mins.render.complete()) {
        return Err(format!(
            "figures-cold: units never completed: {}",
            out.failures.join("; ")
        ));
    }

    let prepare_ms = stats::ms(mins.prepare.sum_of(0..n) as f64);
    let render_ms = stats::ms(mins.render.sum_of(0..FIGURES.len()) as f64);
    out.e2e = vec![("primary_ms", prepare_ms), ("secondary_ms", render_ms)];
    out.named = vec![("prepare_ms", prepare_ms), ("render_ms", render_ms)];
    for (stage, m) in STAGES.iter().zip(&mins.stages) {
        out.layers
            .push((stage.to_string(), stats::ms(m.sum_of(0..n) as f64)));
    }
    let mut figure_sum = 0.0;
    for (i, (name, _)) in FIGURES.iter().enumerate() {
        let v = stats::ms(mins.render.min(i) as f64);
        figure_sum += v;
        out.layers.push((format!("figures.{name}_ms"), v));
    }
    out.notes.push(format!(
        "figures-cold: {rounds} rounds in {wall_s:.2} s; best-round sums: prepare {prepare_ms:.3} ms, \
         render {render_ms:.3} ms = sum of the 16 figures {figure_sum:.3} ms"
    ));
    Ok(out)
}

/// An uncached engine with one job, the committed figure texts, and one
/// untimed prepare pass so the timed rounds start with code and
/// allocator warm.
fn set_up(workloads: &[&'static Workload]) -> Result<(Engine, Vec<String>), String> {
    let engine = Engine::uncached(1);
    let expected = FIGURES
        .iter()
        .map(|(_, file)| {
            let path = format!("results/{file}.txt");
            std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for w in workloads {
        std::hint::black_box(prepare(&engine, w, &mut |_, f| f())?);
    }
    Ok((engine, expected))
}

/// One round: the figures render in [`PREPARES_PER_ROUND`] slices,
/// each after a fresh prepare of every workload, so prepare units (40 to
/// 150 ms each) get more samples spread across the round than the
/// second-long renders do.
#[allow(clippy::too_many_arguments)]
fn round(
    ctx: &Ctx,
    engine: &Engine,
    workloads: &[&'static Workload],
    expected: &[String],
    root: u64,
    round: u64,
    mins: &mut Mins,
    out: &mut Outcome,
) {
    let slice = FIGURES.len().div_ceil(PREPARES_PER_ROUND);
    for first in (0..FIGURES.len()).step_by(slice) {
        let mut prepared = Vec::with_capacity(workloads.len());
        let mut reports = Vec::with_capacity(workloads.len());
        for (wi, w) in workloads.iter().enumerate() {
            let (res, ns) = ctx.spans.time("engine.prepare", root, round, |id| {
                prepare(engine, w, &mut |stage, f| {
                    let ((), ns) = ctx.spans.time(STAGES[stage], id, round, |_| f());
                    mins.stages[stage].record(wi, ns);
                })
            });
            match res {
                Ok((p, r)) => {
                    mins.prepare.record(wi, ns);
                    prepared.push(p);
                    reports.push(r);
                }
                Err(e) => out
                    .failures
                    .push(format!("round {round} prepare {}: {e}", w.name)),
            }
        }
        let figures = first..(first + slice).min(FIGURES.len());
        if prepared.len() != workloads.len() {
            out.failures.push(format!(
                "round {round}: figures {figures:?} not rendered without every workload"
            ));
            continue;
        }
        for i in figures {
            let (name, file) = FIGURES[i];
            let (text, ns) = ctx.spans.time("figures.render", root, round, |_| {
                render(name, &prepared, &reports)
            });
            mins.render.record(i, ns);
            if text != expected[i] {
                out.failures.push(format!(
                    "round {round}: {name} differs from results/{file}.txt"
                ));
            }
        }
    }
}

/// One workload's prepare through the engine's per-artifact calls:
/// program, trace, the five matrix images plus the base image, and the
/// report. `stage(i, f)` runs stage `i` of [`STAGES`].
fn prepare(
    engine: &Engine,
    w: &'static Workload,
    stage: &mut dyn FnMut(usize, &mut dyn FnMut()),
) -> Result<(Prepared, CompressionReport), String> {
    let opts = lego::Options::default();
    let (name, source) = (w.name, w.source());
    let mut err = None;
    let mut program = None;
    stage(0, &mut || match engine.program(name, source, &opts) {
        Ok(p) => program = Some(p),
        Err(e) => err = Some(e.to_string()),
    });
    let program = program.ok_or_else(|| err.take().unwrap_or_default())?;
    let mut trace = None;
    stage(
        1,
        &mut || match engine.trace(name, source, &opts, &program) {
            Ok(t) => trace = Some(t),
            Err(e) => err = Some(e.to_string()),
        },
    );
    let trace = trace.ok_or_else(|| err.take().unwrap_or_default())?;
    let mut images = Vec::new();
    let mut base_img = None;
    stage(2, &mut || {
        for scheme in MATRIX_SCHEMES {
            match engine.image(name, source, &opts, scheme, &program) {
                Ok(img) => images.push(img),
                Err(e) => err = Some(e.to_string()),
            }
        }
        base_img = Some(encode_base(&program));
    });
    if let Some(e) = err {
        return Err(e);
    }
    let [byte_img, stream_img, stream1_img, compressed_img, tailored_img] =
        <[_; 5]>::try_from(images).map_err(|_| "image matrix incomplete".to_string())?;
    let mut report = None;
    stage(3, &mut || {
        report = Some(engine.report(name, source, &opts, &program))
    });
    let prepared = Prepared {
        workload: w,
        program,
        trace,
        base_img: base_img.expect("set by the encode stage"),
        byte_img,
        stream_img,
        stream1_img,
        compressed_img,
        tailored_img,
    };
    Ok((prepared, report.expect("set by the report stage")))
}
