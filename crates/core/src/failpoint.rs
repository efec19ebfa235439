//! Deterministic failpoints: named fault-injection sites for the
//! *infrastructure* plane.
//!
//! PR 1 hardened the **data** plane (CRC'd dictionaries and ATT entries,
//! fail-closed decode); this module gives the **infrastructure** plane —
//! cache I/O, pool job dispatch, pipeline stages, the LUT decode fast
//! path — the same treatment: every place the engine can fail gets a
//! *named site*, and a seeded registry decides, reproducibly, whether a
//! given arrival at that site should be forced to fail and how.
//!
//! Sites are checked with [`Failpoints::check`]; an inactive registry
//! (the default everywhere) costs one relaxed atomic load per check, so
//! production paths pay essentially nothing. An active registry draws
//! from a per-rule xorshift64* stream seeded at configuration time, so a
//! fixed seed and call order reproduce the exact same fault schedule —
//! the property the chaos harness (`tepic-cc chaos`) and the recovery
//! proptests rely on.
//!
//! Configuration is a spec string of comma-separated `site:prob:mode`
//! rules, e.g.
//!
//! ```text
//! cache.read:0.2:io,cache.read:0.1:corrupt,pool.job:0.05:panic
//! ```
//!
//! `prob` is a fire probability in `[0,1]`; `mode` is one of `io`
//! (transient I/O error), `corrupt` (data damage), `panic` (poisoned
//! job), `flaky` (transient stage failure) or `error` (generic decode
//! failure). The CLI exposes this as `tepic-cc chaos --sites <spec>`;
//! every engine the CLI and daemon build also honours the
//! `CCC_FAILPOINTS` / `CCC_FAILPOINT_SEED` environment variables (see
//! `tepic_ccc::cli`). Every fired injection
//! is appended to an in-registry log so a chaos run can reconcile
//! *injected* faults against *recovered* ones — recovery must account
//! for every fault, one for one. See DESIGN.md §13.

use crate::fault::XorShift64;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The site-name catalog. Free-form names are accepted too, but every
/// site the repo's own code checks is listed here (and documented in
/// DESIGN.md §13's failpoint site catalog).
pub mod sites {
    /// Reading an existing artifact-cache entry from disk.
    pub const CACHE_READ: &str = "cache.read";
    /// Writing an artifact-cache temp file.
    pub const CACHE_WRITE: &str = "cache.write";
    /// The atomic rename publishing a cache entry.
    pub const CACHE_RENAME: &str = "cache.rename";
    /// Dispatch of one pool job (a prepare task).
    pub const POOL_JOB: &str = "pool.job";
    /// The compile stage build.
    pub const STAGE_COMPILE: &str = "stage.compile";
    /// The emulate stage build.
    pub const STAGE_EMULATE: &str = "stage.emulate";
    /// The encode stage build.
    pub const STAGE_ENCODE: &str = "stage.encode";
    /// The report stage build.
    pub const STAGE_REPORT: &str = "stage.report";
    /// The LUT Huffman fast path in the fetch simulator.
    pub const DECODE_LUT: &str = "decode.lut";
}

/// The coarse class a site belongs to, as reported by the chaos
/// harness (`cache-read`, `cache-write`, `pool-job`, `stage`, `decode`).
pub fn class_of(site: &str) -> &'static str {
    match site {
        sites::CACHE_READ => "cache-read",
        sites::CACHE_WRITE | sites::CACHE_RENAME => "cache-write",
        sites::POOL_JOB => "pool-job",
        s if s.starts_with("stage.") => "stage",
        s if s.starts_with("decode.") => "decode",
        _ => "other",
    }
}

/// All site classes the chaos harness requires coverage of.
pub const REQUIRED_CLASSES: [&str; 4] = ["cache-read", "cache-write", "pool-job", "stage"];

/// How an injected fault should manifest at the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailMode {
    /// A transient I/O error (retryable).
    Io,
    /// Data corruption (detected by integrity checks, quarantined).
    Corrupt,
    /// A panic (poisoned job; caught by the isolated pool).
    Panic,
    /// A transient stage failure (retryable).
    Flaky,
    /// A generic operation error (e.g. a decode failure).
    Error,
}

impl FailMode {
    /// The spec-string name.
    pub fn name(self) -> &'static str {
        match self {
            FailMode::Io => "io",
            FailMode::Corrupt => "corrupt",
            FailMode::Panic => "panic",
            FailMode::Flaky => "flaky",
            FailMode::Error => "error",
        }
    }

    fn parse(s: &str) -> Option<FailMode> {
        Some(match s {
            "io" => FailMode::Io,
            "corrupt" => FailMode::Corrupt,
            "panic" => FailMode::Panic,
            "flaky" => FailMode::Flaky,
            "error" => FailMode::Error,
            _ => return None,
        })
    }
}

impl fmt::Display for FailMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed failpoint spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending `site:prob:mode` clause.
    pub clause: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad failpoint clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// One configured injection rule.
#[derive(Debug, Clone)]
struct Rule {
    site: String,
    mode: FailMode,
    /// Fire threshold scaled to u64: fire iff `rng.next_u64() < threshold`.
    threshold: u64,
    rng: XorShift64,
}

/// One fired injection, in firing order (per thread schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Global sequence number (1-based, in firing order).
    pub seq: u64,
    /// The site that fired.
    pub site: String,
    /// The mode it fired with.
    pub mode: FailMode,
}

#[derive(Debug, Default)]
struct Inner {
    rules: Vec<Rule>,
    log: Vec<Injection>,
    /// Total arrivals per unique site name (fired or not).
    hits: Vec<(String, u64)>,
}

/// A registry of named failpoints. Cheap to share (`Arc`), cheap to
/// check while inactive (one relaxed atomic load), deterministic while
/// active (seeded per-rule xorshift64*).
#[derive(Debug, Default)]
pub struct Failpoints {
    active: AtomicBool,
    inner: Mutex<Inner>,
}

impl Failpoints {
    /// An inactive registry: every [`Failpoints::check`] returns `None`.
    pub fn disabled() -> Failpoints {
        Failpoints::default()
    }

    /// Parses a `site:prob:mode[,site:prob:mode...]` spec into an active
    /// registry. An empty spec yields an inactive registry.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first malformed clause.
    pub fn from_spec(spec: &str, seed: u64) -> Result<Failpoints, SpecError> {
        let fp = Failpoints::disabled();
        fp.configure(spec, seed)?;
        Ok(fp)
    }

    /// Replaces the rule set (and clears the log) from a spec string.
    /// Each rule draws from its own xorshift64* stream seeded by
    /// `seed` mixed with the rule index, so adding a rule never perturbs
    /// the schedule of the rules before it.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first malformed clause; on error the
    /// registry is left disabled.
    pub fn configure(&self, spec: &str, seed: u64) -> Result<(), SpecError> {
        let mut rules = Vec::new();
        for (i, clause) in spec
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .enumerate()
        {
            let parts: Vec<&str> = clause.split(':').collect();
            let [site, prob, mode] = parts[..] else {
                return Err(SpecError {
                    clause: clause.to_string(),
                    reason: "want site:prob:mode",
                });
            };
            if site.is_empty() {
                return Err(SpecError {
                    clause: clause.to_string(),
                    reason: "empty site name",
                });
            }
            let prob: f64 = prob.parse().map_err(|_| SpecError {
                clause: clause.to_string(),
                reason: "probability does not parse",
            })?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(SpecError {
                    clause: clause.to_string(),
                    reason: "probability out of [0,1]",
                });
            }
            let mode = FailMode::parse(mode).ok_or(SpecError {
                clause: clause.to_string(),
                reason: "unknown mode (io|corrupt|panic|flaky|error)",
            })?;
            // Scale to the u64 range; prob 1.0 must always fire.
            let threshold = if prob >= 1.0 {
                u64::MAX
            } else {
                (prob * u64::MAX as f64) as u64
            };
            rules.push(Rule {
                site: site.to_string(),
                mode,
                threshold,
                // splitmix-style index mixing keeps rule streams independent.
                rng: XorShift64::new(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            });
        }
        let mut inner = self.inner.lock().expect("failpoint registry");
        inner.log.clear();
        inner.hits.clear();
        let any = !rules.is_empty();
        inner.rules = rules;
        self.active.store(any, Ordering::Release);
        Ok(())
    }

    /// Deactivates the registry and clears its rules and log.
    pub fn disable(&self) {
        let mut inner = self.inner.lock().expect("failpoint registry");
        inner.rules.clear();
        inner.log.clear();
        inner.hits.clear();
        self.active.store(false, Ordering::Release);
    }

    /// Whether any rule is configured. The fast path: callers may skip
    /// site bookkeeping entirely when this is false.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Should this arrival at `site` fail? Returns the injected mode if
    /// so, recording the injection in the log. Rules are consulted in
    /// configuration order; the first that fires wins (later rules for
    /// the same site still advance their streams, keeping schedules
    /// independent of earlier rules' outcomes).
    pub fn check(&self, site: &str) -> Option<FailMode> {
        if !self.is_active() {
            return None;
        }
        let mut inner = self.inner.lock().expect("failpoint registry");
        let inner = &mut *inner;
        match inner.hits.iter_mut().find(|(s, _)| s == site) {
            Some((_, n)) => *n += 1,
            None => inner.hits.push((site.to_string(), 1)),
        }
        let mut fired: Option<FailMode> = None;
        for rule in inner.rules.iter_mut().filter(|r| r.site == site) {
            let draw = rule.rng.next_u64();
            if fired.is_none() && draw < rule.threshold {
                fired = Some(rule.mode);
            }
        }
        if let Some(mode) = fired {
            let seq = inner.log.len() as u64 + 1;
            inner.log.push(Injection {
                seq,
                site: site.to_string(),
                mode,
            });
        }
        fired
    }

    /// The injection log, in firing order.
    pub fn log(&self) -> Vec<Injection> {
        self.inner.lock().expect("failpoint registry").log.clone()
    }

    /// Total injections fired since configuration.
    pub fn total_fired(&self) -> u64 {
        self.inner.lock().expect("failpoint registry").log.len() as u64
    }

    /// Injections fired for a specific `(site, mode)` pair.
    pub fn fired(&self, site: &str, mode: FailMode) -> u64 {
        self.inner
            .lock()
            .expect("failpoint registry")
            .log
            .iter()
            .filter(|i| i.site == site && i.mode == mode)
            .count() as u64
    }

    /// Total arrivals (fired or not) at `site` since configuration.
    pub fn arrivals(&self, site: &str) -> u64 {
        self.inner
            .lock()
            .expect("failpoint registry")
            .hits
            .iter()
            .find(|(s, _)| s == site)
            .map_or(0, |&(_, n)| n)
    }

    /// Clears the injection log and arrival counts, keeping the rules
    /// (and their PRNG positions) intact — used between chaos passes
    /// that share one configuration.
    pub fn clear_log(&self) {
        let mut inner = self.inner.lock().expect("failpoint registry");
        inner.log.clear();
        inner.hits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_fires() {
        let fp = Failpoints::disabled();
        assert!(!fp.is_active());
        for _ in 0..100 {
            assert_eq!(fp.check(sites::CACHE_READ), None);
        }
        assert_eq!(fp.total_fired(), 0);
        // Inactive checks do not even count arrivals (fast path).
        assert_eq!(fp.arrivals(sites::CACHE_READ), 0);
    }

    #[test]
    fn prob_one_always_fires_prob_zero_never() {
        let fp = Failpoints::from_spec("a:1.0:io,b:0.0:panic", 7).unwrap();
        for _ in 0..50 {
            assert_eq!(fp.check("a"), Some(FailMode::Io));
            assert_eq!(fp.check("b"), None);
        }
        assert_eq!(fp.fired("a", FailMode::Io), 50);
        assert_eq!(fp.fired("b", FailMode::Panic), 0);
        assert_eq!(fp.arrivals("a"), 50);
        assert_eq!(fp.arrivals("b"), 50);
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = "cache.read:0.3:io,cache.read:0.2:corrupt,pool.job:0.1:panic";
        let a = Failpoints::from_spec(spec, 42).unwrap();
        let b = Failpoints::from_spec(spec, 42).unwrap();
        let outcomes_a: Vec<_> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    a.check("pool.job")
                } else {
                    a.check("cache.read")
                }
            })
            .collect();
        let outcomes_b: Vec<_> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    b.check("pool.job")
                } else {
                    b.check("cache.read")
                }
            })
            .collect();
        assert_eq!(outcomes_a, outcomes_b);
        assert_eq!(a.log(), b.log());
        assert!(a.total_fired() > 0, "0.3 over 200 draws must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let spec = "s:0.5:flaky";
        let a = Failpoints::from_spec(spec, 1).unwrap();
        let b = Failpoints::from_spec(spec, 2).unwrap();
        let seq_a: Vec<_> = (0..64).map(|_| a.check("s").is_some()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.check("s").is_some()).collect();
        assert_ne!(seq_a, seq_b, "64 coin flips colliding is ~2^-64");
    }

    #[test]
    fn first_matching_rule_wins_but_all_streams_advance() {
        // Rule 1 fires always; rule 2 would too, but rule 1 wins.
        let fp = Failpoints::from_spec("s:1.0:io,s:1.0:corrupt", 3).unwrap();
        assert_eq!(fp.check("s"), Some(FailMode::Io));
        assert_eq!(fp.fired("s", FailMode::Io), 1);
        assert_eq!(fp.fired("s", FailMode::Corrupt), 0);
    }

    #[test]
    fn spec_errors_are_typed() {
        assert!(Failpoints::from_spec("justasite", 0).is_err());
        assert!(Failpoints::from_spec("s:notanumber:io", 0).is_err());
        assert!(Failpoints::from_spec("s:1.5:io", 0).is_err());
        assert!(Failpoints::from_spec("s:0.5:explode", 0).is_err());
        assert!(Failpoints::from_spec(":0.5:io", 0).is_err());
        // Empty and whitespace specs disable cleanly.
        assert!(!Failpoints::from_spec("", 0).unwrap().is_active());
        assert!(!Failpoints::from_spec("  ", 0).unwrap().is_active());
    }

    #[test]
    fn classes_cover_the_catalog() {
        assert_eq!(class_of(sites::CACHE_READ), "cache-read");
        assert_eq!(class_of(sites::CACHE_WRITE), "cache-write");
        assert_eq!(class_of(sites::CACHE_RENAME), "cache-write");
        assert_eq!(class_of(sites::POOL_JOB), "pool-job");
        for s in [
            sites::STAGE_COMPILE,
            sites::STAGE_EMULATE,
            sites::STAGE_ENCODE,
            sites::STAGE_REPORT,
        ] {
            assert_eq!(class_of(s), "stage");
        }
        assert_eq!(class_of(sites::DECODE_LUT), "decode");
        assert_eq!(class_of("someone.else"), "other");
    }

    #[test]
    fn clear_log_keeps_rules_armed() {
        let fp = Failpoints::from_spec("s:1.0:io", 9).unwrap();
        fp.check("s");
        assert_eq!(fp.total_fired(), 1);
        fp.clear_log();
        assert_eq!(fp.total_fired(), 0);
        assert!(fp.is_active());
        assert_eq!(fp.check("s"), Some(FailMode::Io));
    }
}
