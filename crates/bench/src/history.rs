//! Run-ledger glue and the regression sentinel.
//!
//! Record construction: every `tepic-cc` subcommand calls
//! [`engine_record`] / [`base_record`] at exit and hands the
//! result to [`append_best_effort`], which honors `CCC_LEDGER` /
//! `CCC_NO_LEDGER` and never fails the run over a ledger problem.
//!
//! Sentinel statistics (`tepic-cc perf --check`): records are grouped
//! by ([`Fingerprint::key`], subcommand) — numbers are only comparable
//! on the same host/build running the same thing — and within each
//! group the *latest* record is judged against all earlier ones,
//! per named sample:
//!
//! * **minimum-sample floor** (the `bench_best` idea: the best of N
//!   runs is the noise floor): the latest value must not be worse than
//!   the baseline *best* by more than the configured band;
//! * **median/MAD change detector**: the latest value must also sit
//!   beyond `max(3·MAD, 5% of median)` on the bad side of the baseline
//!   median — a wide band alone would flag honest noise on tight
//!   baselines, and MAD alone collapses when the baseline has little
//!   spread.
//!
//! Both must trip to call a regression. Direction comes from the sample
//! name (see [`direction_of`]); names with an unknown suffix are not
//! judged. Groups with fewer than `min_samples` baseline records pass
//! with an [`SentinelStatus::InsufficientHistory`] note.
//!
//! The rest of `tepic-cc perf` is here too, as pure functions over the
//! loaded records: [`serve_floors`] (the absolute `serve/*` throughput
//! backstop), [`degrade_latest`] (the `--inject-slowdown` fixture) and
//! [`group_counts`] (the bare `perf` inventory). The CLI only prints.

use crate::engine::Engine;
use ccc_telemetry::ledger::{self, Fingerprint, LedgerRecord};
use ccc_telemetry::spans::StageRollup;
use ccc_telemetry::MetricsRegistry;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A record with fingerprint, seed and wall-clock but no engine data.
/// The workspace has no cargo features, so the fingerprint's features
/// half is empty.
pub fn base_record(subcommand: &str, seed: u64, lut_bits: u64, wall_ns: u64) -> LedgerRecord {
    let mut rec = LedgerRecord::new(subcommand, Fingerprint::current("", lut_bits));
    rec.seed = seed;
    rec.wall_ns = wall_ns;
    rec.samples.insert("wall_ns".to_string(), wall_ns as f64);
    rec
}

/// A record carrying the engine's full counter snapshot and per-stage
/// rollups. The rollups are derived from the snapshot itself (one stage
/// span per cold build, timer totals), so they are exact whether or not
/// a trace sink was attached.
pub fn engine_record(
    subcommand: &str,
    seed: u64,
    lut_bits: u64,
    engine: &Engine,
    wall_ns: u64,
) -> LedgerRecord {
    let mut rec = base_record(subcommand, seed, lut_bits, wall_ns);
    let snap = engine.snapshot();
    let registry = MetricsRegistry::new();
    snap.record_metrics(&registry);
    rec.record_registry(&registry);
    for (stage, count, total_ns) in [
        ("compile", snap.program_misses, snap.compile_ns),
        ("emulate", snap.trace_misses, snap.emulate_ns),
        ("encode", snap.image_misses, snap.encode_ns),
        ("report", snap.report_misses, snap.report_ns),
    ] {
        rec.counters.insert(format!("engine.{stage}_ns"), total_ns);
        rec.stages
            .insert(stage.to_string(), StageRollup { count, total_ns });
    }
    rec
}

/// Appends `record` to the configured ledger. Best-effort: a disabled
/// ledger returns `None` silently, an I/O failure warns on stderr and
/// returns `None` — a measurement run must never die over bookkeeping.
pub fn append_best_effort(record: &LedgerRecord) -> Option<PathBuf> {
    let path = ledger::ledger_path()?;
    match ledger::append(&path, record) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: ledger append to {} failed: {e}", path.display());
            None
        }
    }
}

/// Which way "better" points for a named sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Durations, sizes: smaller is better.
    LowerIsBetter,
    /// Throughputs, speedup ratios: bigger is better.
    HigherIsBetter,
}

/// Infers the direction from the sample-name suffix; `None` means the
/// sentinel cannot judge this sample.
pub fn direction_of(name: &str) -> Option<Direction> {
    if name.ends_with("_ns") || name.ends_with("_cycles") || name.ends_with("_bytes") {
        Some(Direction::LowerIsBetter)
    } else if name.ends_with("_mb_s") || name.ends_with("_per_s") || name.ends_with("_ratio") {
        Some(Direction::HigherIsBetter)
    } else {
        None
    }
}

/// Sentinel tuning.
#[derive(Debug, Clone, Copy)]
pub struct SentinelConfig {
    /// Relative band vs. the baseline best: a latest value worse than
    /// `best × (1 + band)` (or below `best / (1 + band)` for
    /// higher-is-better samples) trips the floor check.
    pub band: f64,
    /// Minimum baseline records before judging a group.
    pub min_samples: usize,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            band: 0.5,
            min_samples: 1,
        }
    }
}

/// How one (group, sample) comparison came out.
#[derive(Debug, Clone, PartialEq)]
pub enum SentinelStatus {
    /// Within band, or on the good side.
    Pass,
    /// Worse than the baseline best by more than the band AND beyond
    /// the median/MAD guard. `worse_by` is the ratio vs. the best
    /// (e.g. 2.0 = twice as slow).
    Regression {
        /// How much worse than the baseline best, as a ratio ≥ 1.
        worse_by: f64,
    },
    /// Fewer than `min_samples` baseline records: noted, not judged.
    InsufficientHistory,
}

/// One judged sample of one group's latest record.
#[derive(Debug, Clone)]
pub struct SampleVerdict {
    /// `fingerprint-key :: subcommand`.
    pub group: String,
    /// Sample name.
    pub sample: String,
    /// The latest record's value.
    pub latest: f64,
    /// Best baseline value (the noise floor).
    pub best: f64,
    /// Baseline median.
    pub median: f64,
    /// Baseline median absolute deviation.
    pub mad: f64,
    /// Baseline record count.
    pub baseline_n: usize,
    /// The verdict.
    pub status: SentinelStatus,
}

/// Median absolute deviation around the median.
pub fn mad(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let med = crate::median(vals);
    let dev: Vec<f64> = vals.iter().map(|v| (v - med).abs()).collect();
    crate::median(&dev)
}

/// The sentinel's group of a record: `fingerprint-key :: subcommand`.
pub fn group_key(rec: &LedgerRecord) -> String {
    format!("{} :: {}", rec.fingerprint.key(), rec.subcommand)
}

/// The latest record of every group, keyed and ordered by [`group_key`].
fn latest_per_group<'a>(
    records: impl IntoIterator<Item = &'a LedgerRecord>,
) -> BTreeMap<String, &'a LedgerRecord> {
    records.into_iter().map(|r| (group_key(r), r)).collect()
}

/// Record count per group: the bare `tepic-cc perf` inventory.
pub fn group_counts(records: &[LedgerRecord]) -> BTreeMap<String, usize> {
    let mut groups = BTreeMap::new();
    for rec in records {
        *groups.entry(group_key(rec)).or_default() += 1;
    }
    groups
}

/// Judges the latest record of every (fingerprint, subcommand) group
/// against that group's earlier records, per sample. Records must be in
/// file (chronological) order, as [`ccc_telemetry::ledger::load`]
/// returns them.
pub fn check(records: &[LedgerRecord], cfg: &SentinelConfig) -> Vec<SampleVerdict> {
    let mut groups: BTreeMap<String, Vec<&LedgerRecord>> = BTreeMap::new();
    for rec in records {
        groups.entry(group_key(rec)).or_default().push(rec);
    }
    let mut out = Vec::new();
    for (group, members) in groups {
        let (latest, baseline) = members.split_last().expect("groups are non-empty");
        for (name, &value) in &latest.samples {
            let Some(dir) = direction_of(name) else {
                continue;
            };
            let base_vals: Vec<f64> = baseline
                .iter()
                .filter_map(|r| r.samples.get(name).copied())
                .collect();
            let mut verdict = SampleVerdict {
                group: group.clone(),
                sample: name.clone(),
                latest: value,
                best: 0.0,
                median: 0.0,
                mad: 0.0,
                baseline_n: base_vals.len(),
                status: SentinelStatus::InsufficientHistory,
            };
            if base_vals.len() >= cfg.min_samples {
                let med = crate::median(&base_vals);
                let spread = mad(&base_vals);
                let guard = (3.0 * spread).max(0.05 * med.abs());
                let (best, worse_by, beyond_guard) = match dir {
                    Direction::LowerIsBetter => {
                        let best = base_vals.iter().copied().fold(f64::INFINITY, f64::min);
                        (best, value / best, value > med + guard)
                    }
                    Direction::HigherIsBetter => {
                        let best = base_vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        (best, best / value, value < med - guard)
                    }
                };
                verdict.best = best;
                verdict.median = med;
                verdict.mad = spread;
                // NaN ratios (0/0 baselines) fail the comparison and
                // pass: no signal, no verdict.
                verdict.status = if worse_by > 1.0 + cfg.band && beyond_guard {
                    SentinelStatus::Regression { worse_by }
                } else {
                    SentinelStatus::Pass
                };
            }
            out.push(verdict);
        }
    }
    out
}

/// The ledger-derived floor for one higher-is-better sample: the best
/// same-fingerprint historical value, derated by `band`. Returns `None`
/// with fewer than `min_samples` history records — callers then fall
/// back to their hard-coded constant, which also remains the absolute
/// backstop (the effective floor is the max of both).
pub fn derived_floor(
    records: &[LedgerRecord],
    fingerprint: &Fingerprint,
    subcommand: &str,
    sample: &str,
    cfg: &SentinelConfig,
) -> Option<f64> {
    let vals: Vec<f64> = records
        .iter()
        .filter(|r| r.subcommand == subcommand && r.fingerprint.key() == fingerprint.key())
        .filter_map(|r| r.samples.get(sample).copied())
        .collect();
    if vals.len() < cfg.min_samples.max(1) {
        return None;
    }
    let best = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(best / (1.0 + cfg.band))
}

/// One `serve/*` group's latest throughput against its floor.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorVerdict {
    /// `fingerprint-key :: subcommand`.
    pub group: String,
    /// The latest record's `throughput_per_s`.
    pub rps: f64,
    /// `max(floor_rps, derived_floor)`.
    pub floor: f64,
}

impl FloorVerdict {
    /// Whether the throughput cleared its floor.
    pub fn passed(&self) -> bool {
        self.rps >= self.floor
    }
}

/// The absolute throughput backstop for `serve/*` groups, layered under
/// the relative sentinel (which needs history): the latest record of
/// every serve group that carries `throughput_per_s` must clear
/// `max(floor_rps, derived_floor)`.
pub fn serve_floors(
    records: &[LedgerRecord],
    cfg: &SentinelConfig,
    floor_rps: f64,
) -> Vec<FloorVerdict> {
    let serve = records
        .iter()
        .filter(|r| r.subcommand.starts_with("serve/"));
    latest_per_group(serve)
        .into_iter()
        .filter_map(|(group, rec)| {
            let rps = *rec.samples.get("throughput_per_s")?;
            let derived = derived_floor(
                records,
                &rec.fingerprint,
                &rec.subcommand,
                "throughput_per_s",
                cfg,
            )
            .unwrap_or(0.0);
            Some(FloorVerdict {
                group,
                rps,
                floor: floor_rps.max(derived),
            })
        })
        .collect()
}

/// A copy of every group's latest record degraded by `factor`: wall
/// time and lower-is-better samples multiplied, higher-is-better ones
/// divided. Appended to a ledger, it is the fixture that proves the
/// sentinel fires (`tepic-cc perf --inject-slowdown`).
pub fn degrade_latest(records: &[LedgerRecord], factor: f64) -> Vec<LedgerRecord> {
    latest_per_group(records)
        .into_values()
        .map(|latest| {
            let mut rec = latest.clone();
            rec.wall_ns = (rec.wall_ns as f64 * factor) as u64;
            for (name, v) in rec.samples.iter_mut() {
                match direction_of(name) {
                    Some(Direction::LowerIsBetter) => *v *= factor,
                    Some(Direction::HigherIsBetter) => *v /= factor,
                    None => {}
                }
            }
            rec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(subcommand: &str, samples: &[(&str, f64)]) -> LedgerRecord {
        let mut r = LedgerRecord::new(subcommand, Fingerprint::current("", 8));
        for (k, v) in samples {
            r.samples.insert((*k).to_string(), *v);
        }
        r
    }

    #[test]
    fn direction_inference() {
        assert_eq!(
            direction_of("prepare_wall_ns"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("decoded_mb_s"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            direction_of("inter_over_lut_ratio"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(direction_of("mystery"), None);
    }

    #[test]
    fn two_back_to_back_runs_pass() {
        let records = vec![
            rec("bench", &[("wall_ns", 100.0)]),
            rec("bench", &[("wall_ns", 104.0)]),
        ];
        let verdicts = check(&records, &SentinelConfig::default());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].status, SentinelStatus::Pass);
    }

    #[test]
    fn injected_2x_slowdown_is_caught() {
        let records = vec![
            rec("bench", &[("wall_ns", 100.0)]),
            rec("bench", &[("wall_ns", 103.0)]),
            rec("bench", &[("wall_ns", 206.0)]),
        ];
        let verdicts = check(&records, &SentinelConfig::default());
        assert_eq!(verdicts.len(), 1);
        match &verdicts[0].status {
            SentinelStatus::Regression { worse_by } => {
                assert!(*worse_by > 2.0, "{worse_by}");
            }
            other => panic!("expected regression, got {other:?}"),
        }
    }

    #[test]
    fn throughput_drop_is_caught_and_gain_passes() {
        let base = [
            rec("decode_throughput", &[("decoded_mb_s", 2000.0)]),
            rec("decode_throughput", &[("decoded_mb_s", 2100.0)]),
        ];
        let mut dropped = base.to_vec();
        dropped.push(rec("decode_throughput", &[("decoded_mb_s", 900.0)]));
        let v = check(&dropped, &SentinelConfig::default());
        assert!(matches!(v[0].status, SentinelStatus::Regression { .. }));

        let mut gained = base.to_vec();
        gained.push(rec("decode_throughput", &[("decoded_mb_s", 4000.0)]));
        let v = check(&gained, &SentinelConfig::default());
        assert_eq!(v[0].status, SentinelStatus::Pass);
    }

    #[test]
    fn serve_ledger_samples_are_judgeable() {
        // The serve/loadgen tier's sample names must land on the right
        // side of the direction inference: req/s up is good, tail
        // latency down is good.
        assert_eq!(
            direction_of("throughput_per_s"),
            Some(Direction::HigherIsBetter)
        );
        for latency in ["hot_p50_ns", "hot_p99_ns", "cold_p50_ns", "cold_p99_ns"] {
            assert_eq!(
                direction_of(latency),
                Some(Direction::LowerIsBetter),
                "{latency}"
            );
        }
    }

    #[test]
    fn serve_throughput_collapse_and_tail_blowup_are_caught() {
        let base = [
            rec(
                "serve/loadgen",
                &[("throughput_per_s", 800.0), ("hot_p99_ns", 2_000_000.0)],
            ),
            rec(
                "serve/loadgen",
                &[("throughput_per_s", 840.0), ("hot_p99_ns", 2_100_000.0)],
            ),
        ];

        // Halved throughput on the latest run trips the sentinel.
        let mut collapsed = base.to_vec();
        collapsed.push(rec(
            "serve/loadgen",
            &[("throughput_per_s", 300.0), ("hot_p99_ns", 2_050_000.0)],
        ));
        let v = check(&collapsed, &SentinelConfig::default());
        let s = v
            .iter()
            .find(|x| x.group.ends_with(":: serve/loadgen") && x.sample == "throughput_per_s")
            .unwrap();
        assert!(
            matches!(s.status, SentinelStatus::Regression { .. }),
            "{v:?}"
        );

        // A 4x hot-path p99 blowup trips it even with throughput held.
        let mut blown = base.to_vec();
        blown.push(rec(
            "serve/loadgen",
            &[("throughput_per_s", 820.0), ("hot_p99_ns", 8_400_000.0)],
        ));
        let v = check(&blown, &SentinelConfig::default());
        let s = v
            .iter()
            .find(|x| x.group.ends_with(":: serve/loadgen") && x.sample == "hot_p99_ns")
            .unwrap();
        assert!(
            matches!(s.status, SentinelStatus::Regression { .. }),
            "{v:?}"
        );

        // Faster and higher-throughput passes clean on every sample.
        let mut improved = base.to_vec();
        improved.push(rec(
            "serve/loadgen",
            &[("throughput_per_s", 1600.0), ("hot_p99_ns", 1_000_000.0)],
        ));
        let v = check(&improved, &SentinelConfig::default());
        for s in v.iter().filter(|x| x.group.ends_with(":: serve/loadgen")) {
            assert_eq!(s.status, SentinelStatus::Pass, "{v:?}");
        }

        // And the derived throughput floor derates the baseline best,
        // which is what `tepic-cc perf --check` gates loadgen runs on.
        let fp = Fingerprint::current("", 8);
        let floor = derived_floor(
            &base,
            &fp,
            "serve/loadgen",
            "throughput_per_s",
            &SentinelConfig::default(),
        )
        .expect("two baseline records are enough");
        assert!(floor > 0.0 && floor < 840.0, "{floor}");
    }

    #[test]
    fn tight_baseline_noise_is_not_flagged() {
        // 4% jitter on a tight baseline: inside both the band and the
        // 5%-of-median guard.
        let records = vec![
            rec("bench", &[("wall_ns", 100.0)]),
            rec("bench", &[("wall_ns", 101.0)]),
            rec("bench", &[("wall_ns", 99.0)]),
            rec("bench", &[("wall_ns", 104.0)]),
        ];
        let v = check(&records, &SentinelConfig::default());
        assert_eq!(v[0].status, SentinelStatus::Pass);
    }

    #[test]
    fn insufficient_history_is_noted_not_failed() {
        let records = vec![rec("bench", &[("wall_ns", 100.0)])];
        let v = check(&records, &SentinelConfig::default());
        assert_eq!(v[0].status, SentinelStatus::InsufficientHistory);
        assert_eq!(v[0].baseline_n, 0);
    }

    #[test]
    fn groups_do_not_cross_subcommands() {
        // A slow "trace" run must not be judged against "bench" history.
        let records = vec![
            rec("bench", &[("wall_ns", 100.0)]),
            rec("trace", &[("wall_ns", 250.0)]),
        ];
        let v = check(&records, &SentinelConfig::default());
        for verdict in &v {
            assert_ne!(
                verdict.status,
                SentinelStatus::Regression { worse_by: 2.5 },
                "{verdict:?}"
            );
        }
        let trace_v = v.iter().find(|x| x.group.ends_with(":: trace")).unwrap();
        assert_eq!(trace_v.status, SentinelStatus::InsufficientHistory);
    }

    #[test]
    fn derived_floor_needs_history_and_derates_the_best() {
        let fp = Fingerprint::current("", 8);
        let cfg = SentinelConfig::default();
        assert_eq!(derived_floor(&[], &fp, "d", "x_mb_s", &cfg), None);
        let records = vec![
            rec("d", &[("x_mb_s", 3000.0)]),
            rec("d", &[("x_mb_s", 2400.0)]),
        ];
        let floor = derived_floor(&records, &fp, "d", "x_mb_s", &cfg).unwrap();
        assert!((floor - 2000.0).abs() < 1e-9, "{floor}");
    }

    #[test]
    fn a_degraded_copy_of_the_latest_run_is_flagged() {
        let mut records = vec![
            rec(
                "bench/fig05",
                &[("wall_ns", 100.0), ("decoded_mb_s", 900.0)],
            ),
            rec(
                "bench/fig05",
                &[("wall_ns", 104.0), ("decoded_mb_s", 880.0)],
            ),
            rec("gen/tiny", &[("wall_ns", 50.0)]),
            rec("gen/tiny", &[("wall_ns", 52.0)]),
        ];
        let cfg = SentinelConfig::default();
        assert!(check(&records, &cfg)
            .iter()
            .all(|v| v.status == SentinelStatus::Pass));
        let degraded = degrade_latest(&records, 2.0);
        assert_eq!(degraded.len(), 2, "one copy per group");
        let slow = degraded
            .iter()
            .find(|r| r.subcommand == "bench/fig05")
            .unwrap();
        assert_eq!(slow.samples["wall_ns"], 208.0);
        assert_eq!(slow.samples["decoded_mb_s"], 440.0);
        records.extend(degraded);
        let verdicts = check(&records, &cfg);
        assert_eq!(verdicts.len(), 3);
        for v in &verdicts {
            assert!(
                matches!(v.status, SentinelStatus::Regression { worse_by } if worse_by >= 1.9),
                "{v:?}"
            );
        }
    }

    #[test]
    fn serve_floor_judges_the_latest_run_of_each_serve_group() {
        let records = vec![
            rec("serve/loadgen", &[("throughput_per_s", 300.0)]),
            rec("serve/loadgen", &[("throughput_per_s", 90.0)]),
            rec("bench/fig05", &[("throughput_per_s", 1.0)]),
            rec("serve/other", &[("hot_p99_ns", 5.0)]),
        ];
        let cfg = SentinelConfig::default();
        // History derives 300 / 1.5 = 200 req/s, above the given floor.
        let v = serve_floors(&records, &cfg, 10.0);
        assert_eq!(
            v.len(),
            1,
            "non-serve groups and groups without throughput are skipped"
        );
        assert_eq!((v[0].rps, v[0].floor), (90.0, 200.0));
        assert!(!v[0].passed());
        // Without history the given floor decides, on either side of it.
        let latest = &records[1..2];
        assert!(serve_floors(latest, &cfg, 50.0)[0].passed());
        let v = serve_floors(latest, &cfg, 100.0);
        assert_eq!(v[0].floor, 100.0);
        assert!(!v[0].passed());
    }

    #[test]
    fn groups_are_counted_per_fingerprint_and_subcommand() {
        let records = vec![rec("a", &[]), rec("b", &[]), rec("a", &[])];
        let counts = group_counts(&records);
        let key = group_key(&records[0]);
        assert!(key.ends_with(" :: a"), "{key}");
        assert_eq!(counts[&key], 2);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn mad_helper() {
        assert_eq!(mad(&[]), 0.0);
        assert_eq!(mad(&[5.0]), 0.0);
        assert!((mad(&[1.0, 2.0, 3.0, 4.0, 100.0]) - 1.0).abs() < 1e-12);
    }
}
