//! # tinker-workloads — the benchmark suite
//!
//! Eight benchmark programs written in the Tink language, standing in for
//! the SPECint95-class suite of the paper's evaluation (Figure 13 names
//! `compress`, `go`, `ijpeg` and `m88ksim`; the rest of the usual suite
//! rounds out the set). SPEC sources cannot be shipped; each stand-in
//! implements the same *algorithmic family*, so the static op mix, block
//! sizes and branch behaviour — the properties the paper's results
//! depend on — are exercised realistically:
//!
//! | name | family |
//! |---|---|
//! | `compress` | LZW compression + decompression with lossless verification |
//! | `gcc` | recursive-descent parsing + RPN codegen + constant folding |
//! | `go` | board game: recursive flood fill, captures, greedy search |
//! | `ijpeg` | 8×8 float DCT/IDCT codec: quantize, zigzag, RLE, error measure |
//! | `li` | cons-cell Lisp kernel: map/filter/reduce + tree evaluator |
//! | `m88ksim` | a guest RISC instruction-set simulator |
//! | `perl` | word splitting, hashing, backtracking glob matching |
//! | `vortex` | hash-indexed object store with chained buckets |
//!
//! # Example
//!
//! ```
//! let w = tinker_workloads::by_name("compress").unwrap();
//! let (program, result) = w.compile_and_run().unwrap();
//! assert!(program.num_ops() > 0);
//! assert!(!result.output.is_empty());
//! ```

use std::fmt;
use tepic_isa::Program;
use yula::{Emulator, Limits, RunResult};

/// One benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// SPECint95-style name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    source: &'static str,
}

/// Failure while building or running a workload.
#[derive(Debug)]
pub enum WorkloadError {
    /// The Tink source failed to compile (a bug in this crate).
    Compile(lego::CompileError),
    /// The program faulted or exceeded its budget.
    Run(yula::EmuError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Compile(e) => write!(f, "compile: {e}"),
            WorkloadError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl Workload {
    /// Builds a workload from explicit parts — the benchmark suite uses
    /// the [`ALL`] table, but harness tests (e.g. the engine's
    /// failure-path coverage) need workloads with sources of their own.
    pub const fn custom(
        name: &'static str,
        description: &'static str,
        source: &'static str,
    ) -> Workload {
        Workload {
            name,
            description,
            source,
        }
    }

    /// Builds a workload from owned parts by leaking them into
    /// `'static` storage. The prepared-workload engine and the
    /// [`ALL`] table traffic in `&'static Workload`, so dynamically
    /// produced programs (the `ccc-workgen` synthetic corpus) go
    /// through here; corpora are bounded, so the leak is too.
    pub fn leaked(name: String, description: String, source: String) -> &'static Workload {
        Box::leak(Box::new(Workload {
            name: Box::leak(name.into_boxed_str()),
            description: Box::leak(description.into_boxed_str()),
            source: Box::leak(source.into_boxed_str()),
        }))
    }

    /// The Tink source text.
    pub fn source(&self) -> &'static str {
        self.source
    }

    /// Stable fingerprint of the workload's identity and source text.
    /// This is what the artifact cache keys on: editing a benchmark's
    /// `.tink` source changes the fingerprint and invalidates every
    /// artifact derived from it.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.name.len() + self.source.len() + 1);
        buf.extend_from_slice(self.name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.source.as_bytes());
        tepic_isa::wire::fnv1a64(&buf)
    }

    /// Compiles with the default (optimizing) LEGO options.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Compile`] on pipeline failure.
    pub fn compile(&self) -> Result<Program, WorkloadError> {
        lego::compile(self.source, &lego::Options::default()).map_err(WorkloadError::Compile)
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// As [`Workload::compile`].
    pub fn compile_with(&self, opts: &lego::Options) -> Result<Program, WorkloadError> {
        lego::compile(self.source, opts).map_err(WorkloadError::Compile)
    }

    /// Compiles and executes, returning the program and its run result
    /// (output + block trace + stats).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for compile or runtime failures.
    pub fn compile_and_run(&self) -> Result<(Program, RunResult), WorkloadError> {
        let p = self.compile()?;
        let r = Emulator::new(&p)
            .run(&Limits::default())
            .map_err(WorkloadError::Run)?;
        Ok((p, r))
    }
}

/// All eight workloads, in the order the figures list them.
pub const ALL: [Workload; 8] = [
    Workload {
        name: "compress",
        description: "LZW compression + decompression with lossless verification",
        source: include_str!("programs/compress.tink"),
    },
    Workload {
        name: "gcc",
        description: "expression parsing, RPN codegen and constant folding",
        source: include_str!("programs/gcc.tink"),
    },
    Workload {
        name: "go",
        description: "9x9 territory game with recursive capture search",
        source: include_str!("programs/go.tink"),
    },
    Workload {
        name: "ijpeg",
        description: "8x8 float DCT/IDCT codec with quantization and error measure",
        source: include_str!("programs/ijpeg.tink"),
    },
    Workload {
        name: "li",
        description: "cons-cell Lisp kernel with a recursive tree evaluator",
        source: include_str!("programs/li.tink"),
    },
    Workload {
        name: "m88ksim",
        description: "guest RISC instruction-set simulator",
        source: include_str!("programs/m88ksim.tink"),
    },
    Workload {
        name: "perl",
        description: "word splitting, hashing and backtracking glob matching",
        source: include_str!("programs/perl.tink"),
    },
    Workload {
        name: "vortex",
        description: "hash-indexed object store with chained buckets",
        source: include_str!("programs/vortex.tink"),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The benchmark names, comma-separated in figure order — what CLI
/// `--workload` failure paths print so a typo'd flag reports the whole
/// menu instead of a bare miss.
pub fn known_names() -> String {
    ALL.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_compile() {
        for w in &ALL {
            let p = w.compile().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                p.num_ops() > 100,
                "{} suspiciously small: {} ops",
                w.name,
                p.num_ops()
            );
        }
    }

    #[test]
    fn all_workloads_run_and_produce_output() {
        for w in &ALL {
            let (_, r) = w
                .compile_and_run()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(!r.output.is_empty(), "{} produced no output", w.name);
            assert!(
                r.stats.ops > 5_000,
                "{} trace too small: {} ops",
                w.name,
                r.stats.ops
            );
            assert!(
                r.stats.ops < 100_000_000,
                "{} trace too large: {} ops",
                w.name,
                r.stats.ops
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for w in &ALL {
            let (_, a) = w.compile_and_run().unwrap();
            let (_, b) = w.compile_and_run().unwrap();
            assert_eq!(a.output, b.output, "{} not deterministic", w.name);
        }
    }

    #[test]
    fn optimization_preserves_behaviour() {
        // The strongest end-to-end compiler check: -O0 and -O2 outputs
        // agree on every workload.
        for w in &ALL {
            let opt = w.compile_and_run().unwrap().1.output;
            let p0 = w
                .compile_with(&lego::Options {
                    optimize: false,
                    ..lego::Options::default()
                })
                .unwrap();
            let unopt = yula::Emulator::new(&p0)
                .run(&yula::Limits::default())
                .unwrap_or_else(|e| panic!("{} unopt: {e}", w.name))
                .output;
            assert_eq!(opt, unopt, "{}: optimizer changed behaviour", w.name);
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for w in &ALL {
            assert_eq!(w.fingerprint(), w.fingerprint(), "{} unstable", w.name);
            assert!(seen.insert(w.fingerprint()), "{} collides", w.name);
        }
        let custom = Workload::custom("compress", "different source", "fn main() { }");
        assert_ne!(
            custom.fingerprint(),
            by_name("compress").unwrap().fingerprint(),
            "source must be part of the fingerprint"
        );
    }

    #[test]
    fn by_name_finds_each() {
        for w in &ALL {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("xalancbmk").is_none());
    }

    #[test]
    fn leaked_workload_behaves_like_static() {
        let w = Workload::leaked(
            "leaky".to_string(),
            "leak test".to_string(),
            "fn main() { print(7); }".to_string(),
        );
        assert_eq!(w.name, "leaky");
        let (p, r) = w.compile_and_run().unwrap();
        assert!(p.num_ops() > 0);
        assert!(!r.output.is_empty());
        // Fingerprints hash the leaked source exactly like static ones.
        let twin = Workload::leaked(
            "leaky".to_string(),
            "leak test".to_string(),
            "fn main() { print(7); }".to_string(),
        );
        assert_eq!(w.fingerprint(), twin.fingerprint());
    }

    #[test]
    fn names_match_figure13_set() {
        let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        for required in ["compress", "go", "ijpeg", "m88ksim"] {
            assert!(names.contains(&required), "paper names {required}");
        }
        assert_eq!(names.len(), 8);
    }
}
