//! Calibration: op-mix profiles and the generated-vs-measured report.
//!
//! The generator's promise is statistical — a corpus whose op mix
//! tracks the real suite's within a few percentage points. That claim
//! is only worth having if it is *measured*, so every generation run
//! ends in a [`CalibrationReport`]: the target profile, the real-corpus
//! profile re-measured from the in-repo compiler, the generated static
//! and dynamic mixes, and the per-category deltas against a hard
//! threshold (5 pp, the acceptance bound asserted in CI).

use std::fmt::Write as _;
use std::sync::OnceLock;
use tepic_isa::Program;
use yula::opmix::{OpCategory, OpMix};
use yula::BlockTrace;

/// The deliberately-skewed "foreign ISA" target (ialu, cmp, float,
/// load, store, ctrl, sys): markedly denser memory traffic and lighter
/// control than TEPIC code, in the shape of unrolled load/store RISC
/// profiles. The skew is chosen to stay inside what the Tink compiler
/// can express — its mov/immediate tax floors the integer-ALU share
/// near 72% no matter what the source looks like, so a "55% ialu"
/// fantasy target would just saturate the steering.
pub const FOREIGN_TARGET: [f64; 7] = [0.733, 0.018, 0.004, 0.100, 0.058, 0.082, 0.005];

/// An op-mix profile: fractions by category in [`OpCategory::ALL`]
/// order, summing to 1 (or all-zero for an empty measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct MixProfile {
    /// Fractions in (ialu, cmp, float, load, store, ctrl, sys) order.
    pub fractions: [f64; 7],
}

impl MixProfile {
    /// Normalizes raw category counts into fractions.
    pub fn from_counts(counts: &[u64; 7]) -> MixProfile {
        let total: u64 = counts.iter().sum();
        let mut fractions = [0.0; 7];
        if total > 0 {
            for i in 0..7 {
                fractions[i] = counts[i] as f64 / total as f64;
            }
        }
        MixProfile { fractions }
    }

    /// Aggregate *static* mix over a set of compiled programs.
    pub fn from_programs<'a>(programs: impl IntoIterator<Item = &'a Program>) -> MixProfile {
        let mut counts = [0u64; 7];
        for p in programs {
            let m = OpMix::static_mix(p);
            for (i, &c) in OpCategory::ALL.iter().enumerate() {
                counts[i] += m.count(c);
            }
        }
        MixProfile::from_counts(&counts)
    }

    /// Aggregate *dynamic* mix over (program, trace) pairs.
    pub fn from_traces<'a>(
        pairs: impl IntoIterator<Item = (&'a Program, &'a BlockTrace)>,
    ) -> MixProfile {
        let mut counts = [0u64; 7];
        for (p, t) in pairs {
            let m = OpMix::dynamic_mix(p, t);
            for (i, &c) in OpCategory::ALL.iter().enumerate() {
                counts[i] += m.count(c);
            }
        }
        MixProfile::from_counts(&counts)
    }

    /// The real eight-workload corpus's static mix, measured once per
    /// process by compiling `tinker_workloads::ALL` through the
    /// in-repo compiler — the calibration target tracks the compiler
    /// instead of fossilizing a constant.
    pub fn measured_real() -> &'static MixProfile {
        static REAL: OnceLock<MixProfile> = OnceLock::new();
        REAL.get_or_init(|| {
            let programs: Vec<Program> = tinker_workloads::ALL
                .iter()
                .map(|w| {
                    w.compile()
                        .unwrap_or_else(|e| panic!("real workload {}: {e}", w.name))
                })
                .collect();
            MixProfile::from_programs(&programs)
        })
    }

    /// This category's share in percent.
    pub fn pct(&self, i: usize) -> f64 {
        self.fractions[i] * 100.0
    }

    /// Signed per-category deltas vs `other`, in percentage points.
    pub fn delta_pp(&self, other: &MixProfile) -> [f64; 7] {
        let mut d = [0.0; 7];
        for (i, v) in d.iter_mut().enumerate() {
            *v = (self.fractions[i] - other.fractions[i]) * 100.0;
        }
        d
    }

    /// Largest absolute per-category delta vs `other`, in pp.
    pub fn max_delta_pp(&self, other: &MixProfile) -> f64 {
        self.delta_pp(other)
            .iter()
            .fold(0.0f64, |m, d| m.max(d.abs()))
    }
}

/// Fault-injection surface per scheme over the generated corpus: how
/// many image bytes (and so flippable bit sites) each encoding exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSites {
    /// Scheme name (`byte`, `stream`, `stream_1`, `full`, `tailored`).
    pub scheme: String,
    /// Encoded image bytes, summed over the corpus.
    pub image_bytes: u64,
    /// Single-bit fault sites (`image_bytes * 8`).
    pub sites: u64,
}

/// One scheme's fault-campaign outcome tallies: the scheme name plus
/// the fields of `ccc_core::fault::Tally`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRow {
    /// Scheme name.
    pub scheme: String,
    /// Faults caught by an integrity check.
    pub detected: u64,
    /// Faults contained to the faulted block.
    pub contained: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Faults with no observable effect.
    pub masked: u64,
}

/// A fault campaign run against a generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// The campaign's RNG seed.
    pub seed: u64,
    /// Injections per (scheme, target-region) pair.
    pub faults_per_target: u32,
    /// Which generated program was targeted.
    pub program: String,
    /// Per-scheme tallies.
    pub rows: Vec<CampaignRow>,
}

/// The generation run's ground-truth summary: identity, corpus size,
/// and generated-vs-target op mix with pass/fail deltas.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Corpus seed.
    pub seed: u64,
    /// Tier name.
    pub tier: String,
    /// Flavor name.
    pub flavor: String,
    /// Program count.
    pub programs: usize,
    /// Total `.tink` source bytes.
    pub source_bytes: u64,
    /// Total static ops across compiled programs.
    pub static_ops: u64,
    /// Total cache blocks across compiled programs.
    pub blocks: u64,
    /// Total dynamic ops across emulated runs.
    pub dynamic_ops: u64,
    /// The flavor's steering target.
    pub target: MixProfile,
    /// The real corpus's measured static mix.
    pub measured_real: MixProfile,
    /// The generated corpus's static mix.
    pub generated_static: MixProfile,
    /// The generated corpus's dynamic mix.
    pub generated_dynamic: MixProfile,
    /// Acceptance bound on the worst per-category delta, in pp.
    pub threshold_pp: f64,
    /// Per-scheme encoded-image fault surface (empty if not computed).
    pub scheme_sites: Vec<SchemeSites>,
    /// Optional fault-campaign summary (smoke runs).
    pub campaign: Option<CampaignSummary>,
}

impl CalibrationReport {
    /// Worst per-category |generated static − target| in pp.
    pub fn max_delta_pp(&self) -> f64 {
        self.generated_static.max_delta_pp(&self.target)
    }

    /// Whether the corpus lands within the acceptance bound.
    pub fn ok(&self) -> bool {
        self.max_delta_pp() <= self.threshold_pp
    }

    /// Renders the report as deterministic JSON (stable key order, no
    /// timestamps — two identical runs produce byte-identical files).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        let _ = write!(
            s,
            "{{\n  \"seed\": {},\n  \"tier\": \"{}\",\n  \"flavor\": \"{}\",\n  \
             \"programs\": {},\n  \"source_bytes\": {},\n  \"static_ops\": {},\n  \
             \"blocks\": {},\n  \"dynamic_ops\": {},\n  \"threshold_pp\": {:.1},\n  \
             \"max_delta_pp\": {:.4},\n  \"ok\": {},\n  \"categories\": [",
            self.seed,
            self.tier,
            self.flavor,
            self.programs,
            self.source_bytes,
            self.static_ops,
            self.blocks,
            self.dynamic_ops,
            self.threshold_pp,
            self.max_delta_pp(),
            self.ok()
        );
        let deltas = self.generated_static.delta_pp(&self.target);
        for (i, c) in OpCategory::ALL.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"category\": \"{}\", \"target_pct\": {:.4}, \
                 \"generated_static_pct\": {:.4}, \"generated_dynamic_pct\": {:.4}, \
                 \"measured_real_pct\": {:.4}, \"delta_pp\": {:.4}}}",
                if i == 0 { "" } else { "," },
                c.label(),
                self.target.pct(i),
                self.generated_static.pct(i),
                self.generated_dynamic.pct(i),
                self.measured_real.pct(i),
                deltas[i]
            );
        }
        s.push_str("\n  ],\n  \"scheme_sites\": [");
        for (i, sc) in self.scheme_sites.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"scheme\": \"{}\", \"image_bytes\": {}, \"sites\": {}}}",
                if i == 0 { "" } else { "," },
                sc.scheme,
                sc.image_bytes,
                sc.sites
            );
        }
        if self.scheme_sites.is_empty() {
            s.push(']');
        } else {
            s.push_str("\n  ]");
        }
        match &self.campaign {
            None => s.push_str(",\n  \"campaign\": null\n}"),
            Some(c) => {
                let _ = write!(
                    s,
                    ",\n  \"campaign\": {{\"seed\": {}, \"faults_per_target\": {}, \
                     \"program\": \"{}\", \"rows\": [",
                    c.seed, c.faults_per_target, c.program
                );
                for (i, r) in c.rows.iter().enumerate() {
                    let _ = write!(
                        s,
                        "{}\n    {{\"scheme\": \"{}\", \"detected\": {}, \"contained\": {}, \
                         \"sdc\": {}, \"masked\": {}}}",
                        if i == 0 { "" } else { "," },
                        r.scheme,
                        r.detected,
                        r.contained,
                        r.sdc,
                        r.masked
                    );
                }
                s.push_str("\n  ]}\n}");
            }
        }
        s.push('\n');
        s
    }

    /// Renders a human-readable calibration table.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = writeln!(
            s,
            "corpus seed={} tier={} flavor={}: {} programs, {} static ops, {} blocks, {} dynamic ops",
            self.seed, self.tier, self.flavor, self.programs, self.static_ops, self.blocks,
            self.dynamic_ops
        );
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "category", "target%", "gen-st%", "gen-dyn%", "real%", "delta-pp"
        );
        let deltas = self.generated_static.delta_pp(&self.target);
        for (i, c) in OpCategory::ALL.iter().enumerate() {
            let _ = writeln!(
                s,
                "{:<8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>+9.2}",
                c.label(),
                self.target.pct(i),
                self.generated_static.pct(i),
                self.generated_dynamic.pct(i),
                self.measured_real.pct(i),
                deltas[i]
            );
        }
        let _ = writeln!(
            s,
            "max delta {:.2} pp (threshold {:.1} pp): {}",
            self.max_delta_pp(),
            self.threshold_pp,
            if self.ok() { "OK" } else { "OUT OF BAND" }
        );
        for sc in &self.scheme_sites {
            let _ = writeln!(
                s,
                "scheme {:<9} image {:>9} B  fault sites {:>10}",
                sc.scheme, sc.image_bytes, sc.sites
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_normalizes() {
        let p = MixProfile::from_counts(&[50, 0, 0, 25, 25, 0, 0]);
        assert!((p.fractions[0] - 0.5).abs() < 1e-12);
        assert!((p.fractions[3] - 0.25).abs() < 1e-12);
        let z = MixProfile::from_counts(&[0; 7]);
        assert_eq!(z.fractions, [0.0; 7]);
    }

    #[test]
    fn deltas_are_signed_pp() {
        let a = MixProfile {
            fractions: [0.6, 0.1, 0.0, 0.1, 0.1, 0.1, 0.0],
        };
        let b = MixProfile {
            fractions: [0.5, 0.2, 0.0, 0.1, 0.1, 0.1, 0.0],
        };
        let d = a.delta_pp(&b);
        assert!((d[0] - 10.0).abs() < 1e-9);
        assert!((d[1] + 10.0).abs() < 1e-9);
        assert!((a.max_delta_pp(&b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn measured_real_is_plausible_and_memoized() {
        let real = MixProfile::measured_real();
        let total: f64 = real.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1: {total}");
        assert!(real.fractions[0] > 0.5, "TEPIC code is ialu-heavy");
        assert!(real.fractions[5] > 0.05, "and has real control flow");
        assert!(std::ptr::eq(real, MixProfile::measured_real()), "memoized");
    }

    #[test]
    fn report_json_is_wellformed_and_deterministic() {
        let real = MixProfile::measured_real().clone();
        let rep = CalibrationReport {
            seed: 42,
            tier: "tiny".into(),
            flavor: "tepic".into(),
            programs: 2,
            source_bytes: 100,
            static_ops: 500,
            blocks: 60,
            dynamic_ops: 100_000,
            target: real.clone(),
            measured_real: real.clone(),
            generated_static: real.clone(),
            generated_dynamic: real,
            threshold_pp: 5.0,
            scheme_sites: vec![SchemeSites {
                scheme: "byte".into(),
                image_bytes: 1000,
                sites: 8000,
            }],
            campaign: Some(CampaignSummary {
                seed: 1,
                faults_per_target: 4,
                program: "gen-tepic-42-0000".into(),
                rows: vec![CampaignRow {
                    scheme: "full".into(),
                    detected: 3,
                    contained: 1,
                    sdc: 0,
                    masked: 4,
                }],
            }),
        };
        assert!(rep.ok(), "identical profiles have zero delta");
        let j = rep.to_json();
        assert_eq!(j, rep.to_json(), "deterministic");
        assert!(j.contains("\"max_delta_pp\": 0.0000"));
        assert!(j.contains("\"scheme\": \"byte\""));
        assert!(j.contains("\"campaign\": {"));
        assert!(rep.render().contains("OK"));
        // Crude structural check: balanced braces/brackets.
        let opens = j.matches(['{', '[']).count();
        let closes = j.matches(['}', ']']).count();
        assert_eq!(opens, closes, "balanced: {j}");
    }

    #[test]
    fn foreign_target_sums_to_one() {
        let total: f64 = FOREIGN_TARGET.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }
}
