//! # ccc-workgen — seeded synthetic Tink workload generation
//!
//! Everything the reproduction measures — compression ratios, fetch
//! cycles, fault-campaign outcomes — was, until this crate, measured on
//! the same eight hand-ported `.tink` workloads. `ccc-workgen` grows
//! that corpus without growing the trust problem: it emits **seeded,
//! fully deterministic** Tink programs whose *operation mix* is steered
//! toward a target profile calibrated against the real corpus (measured
//! through `yula::opmix`), so a thousand generated programs stress the
//! pipeline with the same statistical shape the paper's figures depend
//! on — or, with the foreign flavor, deliberately *not* that shape.
//!
//! Guarantees, by construction:
//!
//! * **Determinism** — same seed + params ⇒ byte-identical `.tink`
//!   source. The generator is a pure function of a 64-bit seed; no
//!   clocks, no host randomness, no hash-map iteration.
//! * **Termination** — only bounded `for` loops with constant trips,
//!   and a call DAG (a function only calls lower-indexed functions),
//!   so every program halts within a computable step budget.
//! * **Compilability** — emission is structured (declared variables,
//!   masked in-bounds indices, parenthesized precedence), so every
//!   program parses and lowers through `lego`.
//!
//! The whole-pipeline properties (compile → emulate → encode →
//! fetch-simulate; per-scheme bit-identical round-trips; warm-cache
//! fingerprint reproduction) are asserted over generated corpora in
//! `tests/workgen.rs` at the workspace root.
//!
//! # Corpus tiers
//!
//! | tier | programs | use |
//! |---|---|---|
//! | `tiny` | 2 | CI smoke, unit tests |
//! | `paper` | 8 | same scale as the hand-written suite |
//! | `10x` | 80 | property suite, engine stress |
//! | `100x` | 800 | cache/pool scale studies |
//! | `1000x` | 8000 | gated behind `CCC_GEN_1000X=1` |
//!
//! # Example
//!
//! ```
//! use ccc_workgen::{generate_corpus, Flavor, Tier};
//!
//! let corpus = generate_corpus(42, Tier::Tiny, Flavor::Tepic).unwrap();
//! assert_eq!(corpus.programs.len(), 2);
//! // Deterministic: regenerating yields byte-identical source.
//! let again = generate_corpus(42, Tier::Tiny, Flavor::Tepic).unwrap();
//! assert_eq!(corpus.programs[0].source, again.programs[0].source);
//! // And every program compiles through LEGO.
//! let p = lego::compile(&corpus.programs[0].source, &lego::Options::default()).unwrap();
//! assert!(p.num_ops() > 0);
//! ```

mod calibrate;
mod gen;
pub mod servemix;

pub use calibrate::{
    CalibrationReport, CampaignRow, CampaignSummary, MixProfile, SchemeSites, FOREIGN_TARGET,
};
pub use gen::generate_program;
pub use servemix::{request_mix, MixParams, ServeRequest};

use std::fmt;
use tinker_workloads::Workload;

/// Corpus size tiers, as multiples of the eight-workload paper suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Two programs — CI smoke and unit tests.
    Tiny,
    /// Eight programs — the scale of the hand-written suite.
    Paper,
    /// Eighty programs — the property-suite tier.
    TenX,
    /// Eight hundred programs — engine/cache stress.
    HundredX,
    /// Eight thousand programs — gated behind `CCC_GEN_1000X=1`.
    ThousandX,
}

impl Tier {
    /// Every tier, smallest first.
    pub const ALL: [Tier; 5] = [
        Tier::Tiny,
        Tier::Paper,
        Tier::TenX,
        Tier::HundredX,
        Tier::ThousandX,
    ];

    /// The tier's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Tiny => "tiny",
            Tier::Paper => "paper",
            Tier::TenX => "10x",
            Tier::HundredX => "100x",
            Tier::ThousandX => "1000x",
        }
    }

    /// Parses a CLI tier name.
    pub fn by_name(name: &str) -> Option<Tier> {
        Tier::ALL.iter().copied().find(|t| t.name() == name)
    }

    /// How many programs the tier holds.
    pub fn program_count(self) -> usize {
        match self {
            Tier::Tiny => 2,
            Tier::Paper => 8,
            Tier::TenX => 80,
            Tier::HundredX => 800,
            Tier::ThousandX => 8000,
        }
    }

    /// Whether the tier needs the `CCC_GEN_1000X=1` opt-in (it prepares
    /// eight thousand programs — deliberate, never accidental).
    pub fn is_gated(self) -> bool {
        self == Tier::ThousandX
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Op-mix flavor: whose statistical shape the corpus imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Calibrated to the measured static op-mix of the real eight-
    /// workload corpus (re-measured at generation time, so the target
    /// tracks the in-repo compiler).
    Tepic,
    /// A deliberately skewed "foreign ISA" profile — denser control and
    /// memory traffic, in the spirit of the compressed-RISC studies
    /// (Hirvola's entropy-coded RISC-V; RVCoreP-32IC) — to stress
    /// dictionary construction away from the TEPIC defaults.
    Foreign,
}

impl Flavor {
    /// Both flavors.
    pub const ALL: [Flavor; 2] = [Flavor::Tepic, Flavor::Foreign];

    /// The flavor's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Tepic => "tepic",
            Flavor::Foreign => "foreign",
        }
    }

    /// Parses a CLI flavor name.
    pub fn by_name(name: &str) -> Option<Flavor> {
        Flavor::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// The op-mix profile this flavor steers toward.
    pub fn target(self) -> MixProfile {
        match self {
            Flavor::Tepic => MixProfile::measured_real().clone(),
            Flavor::Foreign => MixProfile {
                fractions: FOREIGN_TARGET,
            },
        }
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shape parameters for one generated program. [`GenParams::for_flavor`]
/// gives the calibrated defaults; every knob is public for sweeps.
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Target op-mix fractions, in [`yula::opmix::OpCategory::ALL`]
    /// order (ialu, cmp, float, load, store, ctrl, sys).
    pub target: [f64; 7],
    /// Helper-function count range (inclusive).
    pub funcs: (u32, u32),
    /// Estimated static-op budget range per program (inclusive).
    pub ops_budget: (u32, u32),
    /// Multiplier on the score of emitting an `if` (branchiness).
    pub branchiness: f64,
    /// Multiplier on the score of emitting a bounded `for` loop.
    pub loopiness: f64,
    /// Maximum loop-nesting depth inside one function.
    pub max_loop_nest: u32,
    /// Maximum call-chain depth (a function calls only functions at
    /// most this many indices below it).
    pub max_call_depth: u32,
    /// Trip-count range for main's driver loop (inclusive).
    pub main_trip: (u32, u32),
    /// Maximum trip count for generated inner loops.
    pub loop_trip_max: u32,
}

impl GenParams {
    /// Calibrated defaults for a flavor.
    pub fn for_flavor(flavor: Flavor) -> GenParams {
        let target = flavor.target().fractions;
        match flavor {
            Flavor::Tepic => GenParams {
                target,
                funcs: (4, 8),
                ops_budget: (280, 560),
                branchiness: 1.0,
                loopiness: 1.0,
                max_loop_nest: 2,
                max_call_depth: 3,
                main_trip: (6, 14),
                loop_trip_max: 24,
            },
            Flavor::Foreign => GenParams {
                target,
                funcs: (5, 9),
                ops_budget: (280, 560),
                branchiness: 1.35,
                loopiness: 1.1,
                max_loop_nest: 2,
                max_call_depth: 4,
                main_trip: (6, 14),
                loop_trip_max: 20,
            },
        }
    }
}

/// One generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProgram {
    /// Stable corpus-unique name (`gen-<flavor>-<seed>-<index>`).
    pub name: String,
    /// The per-program seed (derived from the corpus seed and index).
    pub seed: u64,
    /// The Tink source text.
    pub source: String,
}

impl GenProgram {
    /// Leaks this program into a `'static` [`Workload`] so it can flow
    /// through the prepared-workload engine and the fault campaign.
    pub fn workload(&self, flavor: Flavor) -> &'static Workload {
        Workload::leaked(
            self.name.clone(),
            format!("synthetic {flavor} workload (seed {})", self.seed),
            self.source.clone(),
        )
    }
}

/// A generated corpus: the tier's worth of programs plus the identity
/// that reproduces it.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The corpus seed.
    pub seed: u64,
    /// The size tier.
    pub tier: Tier,
    /// The op-mix flavor.
    pub flavor: Flavor,
    /// The generated programs, in index order.
    pub programs: Vec<GenProgram>,
}

impl Corpus {
    /// Leaks every program into `'static` [`Workload`]s (engine fuel).
    pub fn workloads(&self) -> Vec<&'static Workload> {
        self.programs
            .iter()
            .map(|p| p.workload(self.flavor))
            .collect()
    }

    /// Total source bytes across the corpus.
    pub fn source_bytes(&self) -> u64 {
        self.programs.iter().map(|p| p.source.len() as u64).sum()
    }
}

/// Why a corpus could not be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The `1000x` tier was requested without `CCC_GEN_1000X=1`.
    TierGated(Tier),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::TierGated(t) => write!(
                f,
                "tier {t} generates {} programs and is gated: set CCC_GEN_1000X=1 to opt in",
                t.program_count()
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// SplitMix64 — derives independent per-program seeds from the corpus
/// seed so programs are decorrelated but individually reproducible.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates a full corpus: `tier.program_count()` programs, each from
/// its own derived seed, steered toward the flavor's op-mix target.
///
/// # Errors
///
/// [`GenError::TierGated`] for the `1000x` tier without the
/// `CCC_GEN_1000X=1` opt-in.
pub fn generate_corpus(seed: u64, tier: Tier, flavor: Flavor) -> Result<Corpus, GenError> {
    if tier.is_gated() && !std::env::var("CCC_GEN_1000X").is_ok_and(|v| v == "1") {
        return Err(GenError::TierGated(tier));
    }
    let params = GenParams::for_flavor(flavor);
    let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
    let programs = (0..tier.program_count())
        .map(|i| {
            let pseed = splitmix64(&mut state);
            let name = format!("gen-{}-{seed}-{i:04}", flavor.name());
            generate_program(pseed, &params, &name)
        })
        .collect();
    Ok(Corpus {
        seed,
        tier,
        flavor,
        programs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for t in Tier::ALL {
            assert_eq!(Tier::by_name(t.name()), Some(t));
        }
        assert_eq!(Tier::by_name("11x"), None);
        assert!(Tier::ThousandX.is_gated());
        assert!(!Tier::HundredX.is_gated());
    }

    #[test]
    fn flavor_names_round_trip() {
        for f in Flavor::ALL {
            assert_eq!(Flavor::by_name(f.name()), Some(f));
        }
        assert_eq!(Flavor::by_name("mips"), None);
    }

    #[test]
    fn gated_tier_refuses_without_env() {
        // The test env never sets CCC_GEN_1000X.
        let err = generate_corpus(1, Tier::ThousandX, Flavor::Tepic).unwrap_err();
        assert!(err.to_string().contains("CCC_GEN_1000X"));
    }

    #[test]
    fn corpus_is_deterministic_and_programs_distinct() {
        let a = generate_corpus(7, Tier::Tiny, Flavor::Tepic).unwrap();
        let b = generate_corpus(7, Tier::Tiny, Flavor::Tepic).unwrap();
        assert_eq!(a.programs, b.programs, "same seed, same corpus");
        assert_ne!(
            a.programs[0].source, a.programs[1].source,
            "derived seeds decorrelate programs"
        );
        let c = generate_corpus(8, Tier::Tiny, Flavor::Tepic).unwrap();
        assert_ne!(a.programs[0].source, c.programs[0].source);
    }

    #[test]
    fn splitmix_is_stable() {
        let mut s = 42;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        let mut s2 = 42;
        assert_eq!(splitmix64(&mut s2), a);
    }
}
