//! The append-only run ledger: one CRC-framed JSONL record per
//! pipeline run, durable across processes.
//!
//! Every `tepic-cc` subcommand and bench binary appends one
//! [`LedgerRecord`] to `results/history/ledger.jsonl` (override with
//! `CCC_LEDGER`, disable with `CCC_NO_LEDGER=1`). A record carries the
//! host/build [`Fingerprint`], the seed, the wall-clock, the full
//! counter snapshot of the run's [`MetricsRegistry`], per-stage span
//! rollups and a small set of named scalar samples (the measurements
//! the regression sentinel compares across runs).
//!
//! ## Frame format
//!
//! Each line is `{"crc":<u32>,"rec":{...}}` where `crc` is the IEEE
//! CRC-32 over the exact bytes of the `rec` value. The reader
//! re-extracts those bytes (the writer controls the serialization, so
//! the `,"rec":` marker is unambiguous), recomputes the CRC and skips
//! the line on mismatch. A torn tail line — the partial write of a
//! killed process — fails either the JSON parse or the CRC and is
//! *skipped, never fatal*: the ledger degrades by one record, not by
//! the whole history. Appends are a single `write` on an
//! `O_APPEND` handle, which POSIX keeps atomic for these line sizes in
//! practice; the CRC frame catches the rest.
//!
//! Integer values are exact below 2^53 (the in-crate JSON model is
//! f64-backed); nanosecond wall-clocks fit with two orders of magnitude
//! to spare.

use crate::json::{self, JsonValue};
use crate::registry::MetricsRegistry;
use crate::spans::StageRollup;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current record schema version.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// Default ledger path, relative to the repo root.
pub const DEFAULT_LEDGER_PATH: &str = "results/history/ledger.jsonl";

/// The reflected IEEE polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables, built at compile time: `[0]` is the CRC of each
/// byte value (eight bitwise steps), and `[k]` advances `[k - 1]` by one
/// zero byte, so eight table lookups fold in eight bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (reflected, init/xorout `0xFFFF_FFFF`), slice-by-8. The
/// workspace's only implementation: ccc-core re-exports it as
/// `ccc_core::integrity::crc32` for its ROM-image checks, and the engine
/// cache frames every artifact with it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The host/build identity a record was measured under. Two records are
/// comparable only when these match: CPU features, compiled cargo
/// features, LUT depth and build profile all shift the numbers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Runtime-detected CPU features relevant to the decode kernels,
    /// `+`-joined (`avx2+bmi2`), or `baseline`.
    pub cpu: String,
    /// Cargo feature set the measuring binary was built with
    /// (caller-supplied: features are per-crate and invisible across
    /// crate boundaries), or empty.
    pub features: String,
    /// `debug` or `release`.
    pub build: String,
    /// Decoder LUT depth in bits the run used.
    pub lut_bits: u64,
    /// Short git revision, or `unknown`. Recorded for provenance; NOT
    /// part of [`Fingerprint::key`], so baselines survive commits.
    pub git_rev: String,
}

impl Fingerprint {
    /// Detects the current host/build identity.
    pub fn current(features: &str, lut_bits: u64) -> Fingerprint {
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpu: detect_cpu(),
            features: features.to_string(),
            build: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            lut_bits,
            git_rev: read_git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Grouping key for the regression sentinel: every field that
    /// changes the performance envelope, excluding `git_rev` (history
    /// must span commits to be useful).
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/lut{}",
            self.os, self.arch, self.cpu, self.build, self.features, self.lut_bits
        )
    }
}

/// Runtime CPU feature detection for the fields the decode kernels
/// care about.
fn detect_cpu() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("bmi2") {
            feats.push("bmi2");
        }
        if feats.is_empty() {
            "baseline".to_string()
        } else {
            feats.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "baseline".to_string()
    }
}

/// Best-effort short git revision: follows `.git/HEAD` one level of
/// indirection, walking up from the current directory so bench
/// binaries run from crate subdirectories still resolve it.
fn read_git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(contents) = fs::read_to_string(&head) {
            let contents = contents.trim();
            let hash = if let Some(refname) = contents.strip_prefix("ref: ") {
                fs::read_to_string(dir.join(".git").join(refname.trim()))
                    .ok()?
                    .trim()
                    .to_string()
            } else {
                contents.to_string()
            };
            return Some(hash.chars().take(12).collect());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// One run's durable record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerRecord {
    /// Record schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Which subcommand / bench binary measured this (`bench`, `trace`,
    /// `decode_throughput`, …). The sentinel only compares records with
    /// equal subcommands.
    pub subcommand: String,
    /// Host/build identity.
    pub fingerprint: Fingerprint,
    /// The run's seed (0 when the subcommand takes none).
    pub seed: u64,
    /// End-to-end wall-clock of the run in nanoseconds.
    pub wall_ns: u64,
    /// Full counter snapshot of the run's [`MetricsRegistry`].
    pub counters: BTreeMap<String, u64>,
    /// Per-stage span rollups (name → count + total duration).
    pub stages: BTreeMap<String, StageRollup>,
    /// Named scalar measurements the sentinel compares across runs.
    /// Direction convention: names ending in `_ns` are lower-is-better;
    /// names ending in `_mb_s`, `_per_s` or `_ratio` are
    /// higher-is-better. Non-finite values are dropped on write.
    pub samples: BTreeMap<String, f64>,
}

impl LedgerRecord {
    /// Starts a record for `subcommand` under `fingerprint`.
    pub fn new(subcommand: &str, fingerprint: Fingerprint) -> LedgerRecord {
        LedgerRecord {
            schema: LEDGER_SCHEMA_VERSION,
            subcommand: subcommand.to_string(),
            fingerprint,
            ..LedgerRecord::default()
        }
    }

    /// Copies every counter out of `registry` into the record.
    pub fn record_registry(&mut self, registry: &MetricsRegistry) {
        for (name, value) in registry.counters() {
            self.counters.insert(name, value);
        }
    }

    /// Serializes the record as one framed JSONL line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let rec = self.rec_json();
        format!("{{\"crc\":{},\"rec\":{}}}", crc32(rec.as_bytes()), rec)
    }

    fn rec_json(&self) -> String {
        let f = &self.fingerprint;
        let mut counters = String::new();
        for (k, v) in &self.counters {
            if !counters.is_empty() {
                counters.push(',');
            }
            counters.push_str(&format!("{}:{}", json::escape(k), v));
        }
        let mut stages = String::new();
        for (k, v) in &self.stages {
            if !stages.is_empty() {
                stages.push(',');
            }
            stages.push_str(&format!(
                "{}:{{\"count\":{},\"total_ns\":{}}}",
                json::escape(k),
                v.count,
                v.total_ns
            ));
        }
        let mut samples = String::new();
        for (k, v) in &self.samples {
            if !v.is_finite() {
                continue;
            }
            if !samples.is_empty() {
                samples.push(',');
            }
            samples.push_str(&format!("{}:{}", json::escape(k), fmt_f64(*v)));
        }
        format!(
            "{{\"schema\":{},\"subcommand\":{},\"fingerprint\":{{\"os\":{},\"arch\":{},\
             \"cpu\":{},\"features\":{},\"build\":{},\"lut_bits\":{},\"git_rev\":{}}},\
             \"seed\":{},\"wall_ns\":{},\"counters\":{{{}}},\"stages\":{{{}}},\
             \"samples\":{{{}}}}}",
            self.schema,
            json::escape(&self.subcommand),
            json::escape(&f.os),
            json::escape(&f.arch),
            json::escape(&f.cpu),
            json::escape(&f.features),
            json::escape(&f.build),
            f.lut_bits,
            json::escape(&f.git_rev),
            self.seed,
            self.wall_ns,
            counters,
            stages,
            samples
        )
    }

    /// Parses one framed line, validating the CRC.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the line is not valid JSON,
    /// is missing frame fields, fails the CRC, or has a malformed
    /// record body — all of which [`load`] treats as "skip this line".
    pub fn parse_line(line: &str) -> Result<LedgerRecord, String> {
        let marker = ",\"rec\":";
        let start = line
            .find(marker)
            .ok_or_else(|| "no rec field".to_string())?;
        let rec_bytes = line
            .get(start + marker.len()..line.len().saturating_sub(1))
            .ok_or_else(|| "truncated frame".to_string())?;
        let v = json::parse_json(line).map_err(|e| format!("bad json: {e:?}"))?;
        let framed_crc = v
            .get("crc")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| "no crc field".to_string())? as u32;
        let actual = crc32(rec_bytes.as_bytes());
        if actual != framed_crc {
            return Err(format!(
                "crc mismatch: framed {framed_crc}, actual {actual}"
            ));
        }
        let rec = v.get("rec").ok_or_else(|| "no rec value".to_string())?;
        LedgerRecord::from_json(rec).ok_or_else(|| "malformed record".to_string())
    }

    /// Rebuilds a record from its parsed `rec` JSON value.
    pub fn from_json(v: &JsonValue) -> Option<LedgerRecord> {
        let u64_of = |v: &JsonValue| v.as_f64().map(|f| f as u64);
        let str_of = |v: Option<&JsonValue>| v.and_then(JsonValue::as_str).map(str::to_string);
        let f = v.get("fingerprint")?;
        let fingerprint = Fingerprint {
            os: str_of(f.get("os"))?,
            arch: str_of(f.get("arch"))?,
            cpu: str_of(f.get("cpu"))?,
            features: str_of(f.get("features"))?,
            build: str_of(f.get("build"))?,
            lut_bits: f.get("lut_bits").and_then(u64_of)?,
            git_rev: str_of(f.get("git_rev"))?,
        };
        let mut rec = LedgerRecord {
            schema: v.get("schema").and_then(u64_of)?,
            subcommand: str_of(v.get("subcommand"))?,
            fingerprint,
            seed: v.get("seed").and_then(u64_of)?,
            wall_ns: v.get("wall_ns").and_then(u64_of)?,
            ..LedgerRecord::default()
        };
        if let Some(JsonValue::Obj(m)) = v.get("counters") {
            for (k, val) in m {
                rec.counters.insert(k.clone(), u64_of(val)?);
            }
        }
        if let Some(JsonValue::Obj(m)) = v.get("stages") {
            for (k, val) in m {
                rec.stages.insert(
                    k.clone(),
                    StageRollup {
                        count: val.get("count").and_then(u64_of)?,
                        total_ns: val.get("total_ns").and_then(u64_of)?,
                    },
                );
            }
        }
        if let Some(JsonValue::Obj(m)) = v.get("samples") {
            for (k, val) in m {
                rec.samples.insert(k.clone(), val.as_f64()?);
            }
        }
        Some(rec)
    }
}

/// Shortest-round-trip f64 formatting that stays valid JSON (`Display`
/// prints integral floats without a dot, which JSON accepts).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// The ledger path for this process: `CCC_LEDGER` override, else
/// [`DEFAULT_LEDGER_PATH`]; `None` when `CCC_NO_LEDGER=1` disables
/// ledger writes entirely (tests, throwaway runs).
pub fn ledger_path() -> Option<PathBuf> {
    if std::env::var_os("CCC_NO_LEDGER").is_some_and(|v| v == "1") {
        return None;
    }
    Some(
        std::env::var_os("CCC_LEDGER")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_LEDGER_PATH)),
    )
}

/// Appends one record (single `write` on an append-mode handle).
///
/// # Errors
///
/// Propagates directory-creation / open / write failures; callers
/// treat ledger appends as best-effort and only warn.
pub fn append(path: &Path, record: &LedgerRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut line = record.to_line();
    line.push('\n');
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())
}

/// What [`load`] found.
#[derive(Debug, Clone, Default)]
pub struct LoadOutcome {
    /// Every record that parsed and passed its CRC, in file order.
    pub records: Vec<LedgerRecord>,
    /// Lines skipped (torn tail, corruption, foreign schema).
    pub skipped: u64,
}

/// Loads a ledger, skipping (and counting) undecodable lines.
/// A missing file is an empty ledger, not an error.
///
/// # Errors
///
/// Propagates only read I/O failures on an *existing* file.
pub fn load(path: &Path) -> std::io::Result<LoadOutcome> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadOutcome::default());
        }
        Err(e) => return Err(e),
    };
    let mut out = LoadOutcome::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match LedgerRecord::parse_line(line) {
            Ok(rec) if rec.schema == LEDGER_SCHEMA_VERSION => out.records.push(rec),
            _ => out.skipped += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> LedgerRecord {
        let mut rec = LedgerRecord::new(
            "bench",
            Fingerprint {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpu: "avx2+bmi2".into(),
                features: "simd".into(),
                build: "release".into(),
                lut_bits: 8,
                git_rev: "abc123def456".into(),
            },
        );
        rec.seed = 42;
        rec.wall_ns = 1_234_567;
        rec.counters.insert("engine.cache.hits".into(), 17);
        rec.stages.insert(
            "compile".into(),
            StageRollup {
                count: 3,
                total_ns: 900,
            },
        );
        rec.samples.insert("prepare_wall_ns".into(), 1_234_567.0);
        rec.samples.insert("inter_over_lut_ratio".into(), 2.75);
        rec
    }

    #[test]
    fn line_round_trips_exactly() {
        let rec = sample_record();
        let line = rec.to_line();
        let back = LedgerRecord::parse_line(&line).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn crc_catches_a_flipped_byte() {
        let line = sample_record().to_line();
        // Flip one payload character (a digit inside wall_ns).
        let corrupted = line.replace("1234567", "1234568");
        assert_ne!(line, corrupted);
        let err = LedgerRecord::parse_line(&corrupted).unwrap_err();
        assert!(err.contains("crc mismatch"), "{err}");
    }

    #[test]
    fn truncated_tail_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("ccc-ledger-test-{}", std::process::id()));
        let path = dir.join("ledger.jsonl");
        let _ = fs::remove_dir_all(&dir);
        let rec = sample_record();
        append(&path, &rec).unwrap();
        append(&path, &rec).unwrap();
        // Simulate a torn final append.
        let mut text = fs::read_to_string(&path).unwrap();
        let full = rec.to_line();
        text.push_str(&full[..full.len() / 2]);
        fs::write(&path, &text).unwrap();
        let out = load(&path).unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_is_empty() {
        let out = load(Path::new("/nonexistent/ccc/ledger.jsonl")).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.skipped, 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bit-at-a-time CRC-32 the table is built from: the oracle.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..=4096 {
            let offset = len % 8;
            let bytes = &buf[offset..offset + len];
            assert_eq!(crc32(bytes), bitwise_crc32(bytes), "len {len} at {offset}");
        }
    }

    #[test]
    fn fingerprint_key_excludes_git_rev() {
        let mut a = sample_record().fingerprint;
        let mut b = a.clone();
        b.git_rev = "other".into();
        assert_eq!(a.key(), b.key());
        b.lut_bits = 9;
        assert_ne!(a.key(), b.key());
        a.features.clear();
        assert!(a.key().contains("//"), "empty feature set keeps its slot");
    }
}
