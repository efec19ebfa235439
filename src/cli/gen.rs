//! `tepic-cc gen`: a seeded synthetic workload corpus and its
//! calibration (DESIGN.md §14).
//!
//! ```text
//! --seed <u64>      corpus seed (default 42); equal seeds reproduce the
//!                   corpus and report bit-for-bit
//! --tier <tier>     tiny|paper|10x|100x|1000x (default tiny; 1000x needs
//!                   CCC_GEN_1000X=1)
//! --flavor <flavor> tepic|foreign (default tepic)
//! --out <dir>       corpus destination (default results/gen-corpus)
//! --report <file>   calibration report (default results/GEN_report.json)
//! --campaign        run a fault campaign over the first generated program
//! ```
//!
//! `gen` writes one `.tink` file per generated program plus a MANIFEST,
//! pushes the whole corpus through the prepared-workload engine (compile,
//! emulate, all five scheme encodings), and emits the calibration report:
//! generated-vs-target op mix per category with a 5 pp acceptance bound.
//! The exit code is non-zero if the generated mix lands out of band.
//! `CCC_GEN_SMOKE=1` in the environment implies `--campaign`.

use super::flags::{parsed, Command, Flag, PATH, U64};
use super::{env_on, fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::engine::cache::write_atomic;
use crate::bench::engine::MATRIX_SCHEMES;
use crate::bench::history;
use crate::ccc::fault::{run_campaign, CampaignConfig};
use crate::prelude::*;
use crate::workgen::{
    generate_corpus, CalibrationReport, CampaignRow, CampaignSummary, Flavor, MixProfile,
    SchemeSites, Tier,
};
use crate::yula::opmix::OpMix;
use std::time::Instant;

#[derive(Debug)]
pub(crate) struct GenOpts {
    seed: u64,
    tier: Tier,
    flavor: Flavor,
    out: String,
    report: String,
    campaign: bool,
}

impl Default for GenOpts {
    fn default() -> GenOpts {
        GenOpts {
            seed: 42,
            tier: Tier::Tiny,
            flavor: Flavor::Tepic,
            out: "results/gen-corpus".to_string(),
            report: "results/GEN_report.json".to_string(),
            campaign: false,
        }
    }
}

type F = Flag<GenOpts>;

pub(crate) fn command() -> Command<GenOpts> {
    let tiers = format!("one of {}", Tier::ALL.map(Tier::name).join("|"));
    let flavors = format!("one of {}", Flavor::ALL.map(Flavor::name).join("|"));
    Command {
        name: "tepic-cc gen",
        positional: None,
        flags: vec![
            F::value("--seed", "<u64>", U64, parsed, |o| &mut o.seed),
            F::value("--tier", "<tier>", tiers, Tier::by_name, |o| &mut o.tier),
            F::value("--flavor", "<flavor>", flavors, Flavor::by_name, |o| {
                &mut o.flavor
            }),
            F::value("--out", "<dir>", PATH, parsed, |o| &mut o.out),
            F::value("--report", "<file>", PATH, parsed, |o| &mut o.report),
            F::switch("--campaign", |o| &mut o.campaign),
        ],
    }
}

/// Runs `tepic-cc gen`.
pub(crate) fn run(_: &str, args: &[String], env: Env) -> Outcome {
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;
    let (seed, tier, flavor) = (o.seed, o.tier, o.flavor);
    let (out_dir, report_path) = (&o.out, &o.report);
    let start = Instant::now();
    let corpus = generate_corpus(seed, tier, flavor).map_err(|e| Exit::Usage(e.to_string()))?;

    // Write the corpus: one .tink per program plus a manifest, all
    // deterministic so two equal-seed invocations are byte-identical.
    std::fs::create_dir_all(out_dir).map_err(|e| fail(format!("cannot create {out_dir}: {e}")))?;
    let mut manifest = String::new();
    for gp in &corpus.programs {
        let path = format!("{out_dir}/{}.tink", gp.name);
        write_atomic(&path, gp.source.as_bytes())
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
        manifest.push_str(&format!(
            "{} seed={} bytes={}\n",
            gp.name,
            gp.seed,
            gp.source.len()
        ));
    }
    write_atomic(format!("{out_dir}/MANIFEST.txt"), manifest.as_bytes())
        .map_err(|e| fail(format!("cannot write manifest: {e}")))?;

    // Everything below flows through the prepared-workload engine, so
    // the corpus exercises the same compile/emulate/encode pipeline (and
    // artifact cache) as the real benchmark suite.
    let engine = EngineArgs::default().build(env);
    let prepared = engine.prepare(&corpus.workloads()).map_err(fail)?;

    let programs: Vec<&Program> = prepared.iter().map(|p| &p.program).collect();
    let dynamic_ops: u64 = prepared
        .iter()
        .map(|p| OpMix::dynamic_mix(&p.program, &p.trace).total())
        .sum();
    let scheme_sites = MATRIX_SCHEMES
        .iter()
        .map(|&scheme| {
            let image_bytes: u64 = prepared
                .iter()
                .map(|p| p.image(scheme).expect("matrix scheme").total_bytes() as u64)
                .sum();
            SchemeSites {
                scheme: scheme.to_string(),
                image_bytes,
                sites: image_bytes * 8,
            }
        })
        .collect();

    // The smoke campaign targets the first generated program: enough to
    // prove the fault machinery accepts synthetic inputs without paying
    // for a full sweep on every generation run.
    let campaign = (o.campaign || env_on(env, "CCC_GEN_SMOKE")).then(|| {
        let cfg = CampaignConfig {
            seed,
            faults_per_target: 50,
        };
        let rep = run_campaign(&prepared[0].program, &cfg);
        CampaignSummary {
            seed: rep.seed,
            faults_per_target: rep.faults_per_target as u32,
            program: prepared[0].workload.name.to_string(),
            rows: rep
                .rows
                .iter()
                .map(|r| CampaignRow {
                    scheme: r.scheme.clone(),
                    detected: r.payload.detected,
                    contained: r.payload.contained,
                    sdc: r.payload.sdc,
                    masked: r.payload.masked,
                })
                .collect(),
        }
    });

    let report = CalibrationReport {
        seed,
        tier: tier.name().to_string(),
        flavor: flavor.name().to_string(),
        programs: corpus.programs.len(),
        source_bytes: corpus.source_bytes(),
        static_ops: programs.iter().map(|p| p.num_ops() as u64).sum(),
        blocks: programs.iter().map(|p| p.num_blocks() as u64).sum(),
        dynamic_ops,
        target: flavor.target(),
        measured_real: MixProfile::measured_real().clone(),
        generated_static: MixProfile::from_programs(programs.iter().copied()),
        generated_dynamic: MixProfile::from_traces(prepared.iter().map(|p| (&p.program, &p.trace))),
        threshold_pp: 5.0,
        scheme_sites,
        campaign,
    };

    write_atomic(report_path, report.to_json().as_bytes())
        .map_err(|e| fail(format!("cannot write {report_path}: {e}")))?;

    print!("{}", report.render());
    println!(
        "wrote {} programs to {out_dir}, report to {report_path} ({:.1}s)",
        corpus.programs.len(),
        start.elapsed().as_secs_f64()
    );
    if !report.ok() {
        return Err(fail(format!(
            "generated mix out of band ({:.2} pp > {:.1} pp)",
            report.max_delta_pp(),
            report.threshold_pp
        )));
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let rec = history::engine_record(&format!("gen/{}", tier.name()), seed, 0, &engine, wall_ns);
    history::append_best_effort(&rec);
    Ok(())
}
