//! Deterministic fault injection for compressed ROM images.
//!
//! The paper targets embedded ROMs, where bit errors (radiation upsets,
//! cell wear, marginal voltages) are a first-class concern. This module
//! provides the experiment the paper never ran: inject faults into the
//! encoded payload, the decode dictionaries and the ATT entries, then
//! classify what the fetch path does with each one:
//!
//! * **detected** — an integrity check (per-block parity, dictionary
//!   CRC32, ATT entry CRC-8) or a typed decoder error flags the fault
//!   before wrong operations reach the pipeline;
//! * **contained** — no check fires and the decoded stream is wrong,
//!   but only inside the faulted block: blocks start byte-aligned and
//!   decode independently, so the corruption cannot cross the atomic
//!   fetch unit (the paper's block-atomic fetch doubles as the
//!   containment boundary);
//! * **sdc** — silent data corruption: wrong decode escaping its block
//!   with nothing raised;
//! * **masked** — the fault changed nothing observable (stuck-at on a
//!   bit already at that value, or a flip in block padding bits).
//!
//! Everything is driven by an explicit xorshift PRNG so a campaign is a
//! pure function of its seed — `faultsim --seed 42` reproduces exactly.

use crate::att::AddressTranslationTable;
use crate::integrity::crc32;
use crate::schemes::{
    base::BaseScheme, byte::ByteScheme, full::FullScheme, stream::StreamScheme,
    tailored::TailoredScheme, Scheme, SchemeOutput,
};
use std::fmt;
use tepic_isa::Program;

/// xorshift64* — 64 bits of state, full period, no external deps.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates the generator; a zero seed (the one fixed point) is
    /// remapped to a nonzero constant.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The fault models of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Invert one bit (single-event upset).
    BitFlip,
    /// Force one bit to 0 (cell wear / short).
    StuckAt0,
    /// Force one bit to 1.
    StuckAt1,
    /// Invert `len` consecutive bits (2–8; a row/line disturbance).
    Burst { len: u32 },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BitFlip => write!(f, "bit-flip"),
            FaultKind::StuckAt0 => write!(f, "stuck-at-0"),
            FaultKind::StuckAt1 => write!(f, "stuck-at-1"),
            FaultKind::Burst { len } => write!(f, "burst({len})"),
        }
    }
}

/// Where a fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The encoded code segment (block payload bits).
    Payload,
    /// A decode dictionary / codebook image.
    Dictionary,
    /// A packed ATT entry.
    AttEntry,
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Payload => write!(f, "payload"),
            FaultTarget::Dictionary => write!(f, "dictionary"),
            FaultTarget::AttEntry => write!(f, "att-entry"),
        }
    }
}

/// One planned fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Fault model applied.
    pub kind: FaultKind,
    /// Target region.
    pub target: FaultTarget,
    /// Bit offset within the target region (MSB-first within bytes).
    pub bit: u64,
}

/// What the fetch path did with one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// An integrity check or decoder error flagged it.
    Detected,
    /// Wrong decode, confined to the faulted block.
    Contained,
    /// Wrong decode escaping its block, nothing raised.
    Sdc,
    /// No observable change.
    Masked,
}

/// Deterministic fault planner/applier.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: XorShift64,
}

impl FaultInjector {
    /// Creates an injector; every decision derives from `seed`.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            rng: XorShift64::new(seed),
        }
    }

    /// Draws a fault model (flip-heavy mix: half flips, quarter
    /// stuck-at, quarter bursts).
    pub fn pick_kind(&mut self) -> FaultKind {
        match self.rng.below(8) {
            0..=3 => FaultKind::BitFlip,
            4 => FaultKind::StuckAt0,
            5 => FaultKind::StuckAt1,
            _ => FaultKind::Burst {
                len: 2 + self.rng.below(7) as u32,
            },
        }
    }

    /// Draws a bit offset within a region of `total_bits`.
    pub fn pick_bit(&mut self, total_bits: u64) -> u64 {
        self.rng.below(total_bits.max(1))
    }

    /// Plans one fault against a region of `total_bits`.
    pub fn plan(&mut self, target: FaultTarget, total_bits: u64) -> FaultRecord {
        let kind = self.pick_kind();
        let bit = self.pick_bit(total_bits);
        FaultRecord { kind, target, bit }
    }

    /// Applies `fault` to `bytes` (MSB-first bit addressing; bursts
    /// clip at the end of the region). Returns whether any bit actually
    /// changed.
    pub fn apply(fault: &FaultRecord, bytes: &mut [u8]) -> bool {
        let total_bits = bytes.len() as u64 * 8;
        if total_bits == 0 {
            return false;
        }
        let set = |bytes: &mut [u8], bit: u64, op: fn(u8, u8) -> u8| -> bool {
            let mask = 0x80u8 >> (bit % 8);
            let byte = &mut bytes[(bit / 8) as usize];
            let before = *byte;
            *byte = op(*byte, mask);
            *byte != before
        };
        let bit = fault.bit.min(total_bits - 1);
        match fault.kind {
            FaultKind::BitFlip => set(bytes, bit, |b, m| b ^ m),
            FaultKind::StuckAt0 => set(bytes, bit, |b, m| b & !m),
            FaultKind::StuckAt1 => set(bytes, bit, |b, m| b | m),
            FaultKind::Burst { len } => {
                let mut changed = false;
                for i in 0..len as u64 {
                    let p = bit + i;
                    if p >= total_bits {
                        break;
                    }
                    changed |= set(bytes, p, |b, m| b ^ m);
                }
                changed
            }
        }
    }
}

/// Outcome counters for one (scheme, target) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Faults flagged by a check or decoder error.
    pub detected: u64,
    /// Undetected faults confined to the faulted block.
    pub contained: u64,
    /// Undetected faults escaping their block.
    pub sdc: u64,
    /// Faults with no observable effect.
    pub masked: u64,
}

impl Tally {
    fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Detected => self.detected += 1,
            Outcome::Contained => self.contained += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Masked => self.masked += 1,
        }
    }

    /// Total faults recorded.
    pub fn total(&self) -> u64 {
        self.detected + self.contained + self.sdc + self.masked
    }
}

/// Campaign results for one scheme.
#[derive(Debug, Clone)]
pub struct SchemeCampaign {
    /// Scheme name (`base`, `byte`, `stream`, `full`, `tailored`).
    pub scheme: String,
    /// Payload faults with integrity checks active (parity + decoder).
    pub payload: Tally,
    /// Payload faults with *only* the decoder as a safety net — exposes
    /// each encoding's raw error amplification.
    pub payload_raw: Tally,
    /// Mean corrupted ops per undetected raw payload fault (the
    /// amplification factor: variable-length codes cascade, dense
    /// fixed-width fields do not).
    pub raw_amplification: f64,
    /// Dictionary faults (CRC32-protected).
    pub dictionary: Tally,
    /// ATT entry faults (CRC-8 self-check).
    pub att: Tally,
}

/// A full campaign over all schemes.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// PRNG seed the whole campaign derives from.
    pub seed: u64,
    /// Faults injected per (scheme, target) cell.
    pub faults_per_target: u64,
    /// Per-scheme results in line-up order.
    pub rows: Vec<SchemeCampaign>,
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// PRNG seed; equal seeds give bit-identical campaigns.
    pub seed: u64,
    /// Faults per (scheme, target) cell.
    pub faults_per_target: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            faults_per_target: 200,
        }
    }
}

/// The five-scheme line-up the campaign runs (base/byte/stream/full/
/// tailored).
pub fn campaign_schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(BaseScheme),
        Box::new(ByteScheme::default()),
        Box::new(StreamScheme::named("stream").expect("builtin config")),
        Box::new(FullScheme::default()),
        Box::new(TailoredScheme),
    ]
}

/// Runs a deterministic fault campaign over every scheme.
///
/// # Panics
///
/// Panics if a scheme fails to compress `program` — campaign inputs are
/// expected to be valid programs.
pub fn run_campaign(program: &Program, cfg: &CampaignConfig) -> CampaignReport {
    let mut rows = Vec::new();
    for scheme in campaign_schemes() {
        let out = scheme
            .compress(program)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        rows.push(campaign_one(program, &scheme.name(), &out, cfg));
    }
    CampaignReport {
        seed: cfg.seed,
        faults_per_target: cfg.faults_per_target,
        rows,
    }
}

fn campaign_one(
    program: &Program,
    name: &str,
    out: &SchemeOutput,
    cfg: &CampaignConfig,
) -> SchemeCampaign {
    let att = AddressTranslationTable::build(program, &out.image);
    let dict_image = out.codec.dictionary_image();
    let dict_crc = crc32(&dict_image);

    // Independent deterministic streams per target so adding faults to
    // one target never perturbs another.
    let mix = |salt: u64| cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);

    let mut payload = Tally::default();
    let mut payload_raw = Tally::default();
    let mut dictionary = Tally::default();
    let mut att_tally = Tally::default();
    let mut raw_corrupted_ops = 0u64;
    let mut raw_undetected = 0u64;

    // --- payload faults, protected fetch path ---------------------------
    let mut inj = FaultInjector::new(mix(1));
    let payload_bits = out.image.bytes.len() as u64 * 8;
    for _ in 0..cfg.faults_per_target {
        let fault = inj.plan(FaultTarget::Payload, payload_bits);
        let mut bytes = out.image.bytes.clone();
        if !FaultInjector::apply(&fault, &mut bytes) {
            payload.add(Outcome::Masked);
            continue;
        }
        let faulted = faulted_blocks(&out.image, &fault, payload_bits);
        // Fetch path order: the block's lines arrive, parity is checked
        // against the ATT entry, then the decoder runs.
        let outcome = classify_payload(out, &att, program, &bytes, faulted, true, &mut 0);
        payload.add(outcome);
    }

    // --- payload faults, raw decoder only (amplification view) ----------
    let mut inj = FaultInjector::new(mix(2));
    for _ in 0..cfg.faults_per_target {
        let fault = inj.plan(FaultTarget::Payload, payload_bits);
        let mut bytes = out.image.bytes.clone();
        if !FaultInjector::apply(&fault, &mut bytes) {
            payload_raw.add(Outcome::Masked);
            continue;
        }
        let faulted = faulted_blocks(&out.image, &fault, payload_bits);
        let mut corrupted = 0u64;
        let outcome = classify_payload(out, &att, program, &bytes, faulted, false, &mut corrupted);
        if matches!(outcome, Outcome::Contained | Outcome::Sdc) {
            raw_undetected += 1;
            raw_corrupted_ops += corrupted;
        }
        payload_raw.add(outcome);
    }

    // --- dictionary faults (CRC32) ---------------------------------------
    let mut inj = FaultInjector::new(mix(3));
    let dict_bits = (dict_image.len() as u64 * 8).max(1);
    for _ in 0..cfg.faults_per_target {
        let fault = inj.plan(FaultTarget::Dictionary, dict_bits);
        let mut bytes = dict_image.clone();
        if !FaultInjector::apply(&fault, &mut bytes) {
            dictionary.add(Outcome::Masked);
            continue;
        }
        // The fetch path re-checks the dictionary CRC before trusting
        // the tables; a mismatch is a detected fault, a match on
        // changed bytes would be silent corruption.
        dictionary.add(if crc32(&bytes) != dict_crc {
            Outcome::Detected
        } else {
            Outcome::Sdc
        });
    }

    // --- ATT entry faults (CRC-8 self-check) ----------------------------
    let mut inj = FaultInjector::new(mix(4));
    let n_entries = att.entries().len() as u64;
    for _ in 0..cfg.faults_per_target {
        let entry = &att.entries()[inj.rng.below(n_entries.max(1)) as usize];
        let packed = entry.pack();
        let fault = inj.plan(FaultTarget::AttEntry, packed.len() as u64 * 8);
        let mut bytes = packed;
        if !FaultInjector::apply(&fault, &mut bytes) {
            att_tally.add(Outcome::Masked);
            continue;
        }
        let read_back = crate::att::AttEntry::unpack(&bytes);
        att_tally.add(if read_back.self_check() {
            Outcome::Sdc
        } else {
            Outcome::Detected
        });
    }

    SchemeCampaign {
        scheme: name.to_string(),
        payload,
        payload_raw,
        raw_amplification: if raw_undetected == 0 {
            0.0
        } else {
            raw_corrupted_ops as f64 / raw_undetected as f64
        },
        dictionary,
        att: att_tally,
    }
}

/// Maps a byte offset in the image to the block containing it. Empty
/// blocks share their start byte with the following block and alignment
/// padding belongs to no block's used range, so after the binary search
/// the index is advanced to the first block whose used bytes actually
/// cover the offset — otherwise a fault in a shared start byte would be
/// attributed to the empty block while its successor decodes wrong,
/// misreading containment as escape.
fn block_of(block_start: &[u64], block_bytes: &[u32], byte: u64) -> usize {
    let mut b = match block_start.binary_search(&byte) {
        Ok(i) => i,
        Err(ins) => ins.saturating_sub(1),
    };
    while b + 1 < block_start.len()
        && byte >= block_start[b] + block_bytes[b] as u64
        && byte >= block_start[b + 1]
    {
        b += 1;
    }
    b
}

/// The inclusive block range a fault's bit span touches. A burst can
/// straddle a block boundary, corrupting two adjacent blocks — both
/// belong to the faulted region, or containment would be misread as
/// escape.
fn faulted_blocks(
    image: &crate::encoded::EncodedProgram,
    fault: &FaultRecord,
    total_bits: u64,
) -> (usize, usize) {
    let span = match fault.kind {
        FaultKind::Burst { len } => len as u64,
        _ => 1,
    };
    let first_bit = fault.bit.min(total_bits - 1);
    let last_bit = (fault.bit + span - 1).min(total_bits - 1);
    (
        block_of(&image.block_start, &image.block_bytes, first_bit / 8),
        block_of(&image.block_start, &image.block_bytes, last_bit / 8),
    )
}

/// Decodes every block of the corrupted image and classifies the result.
/// With `protected`, the per-block parity from the ATT entries of the
/// faulted range is checked first, exactly as the fetch path would.
/// `corrupted_ops` receives the number of wrong operations when the
/// fault goes undetected.
fn classify_payload(
    out: &SchemeOutput,
    att: &AddressTranslationTable,
    program: &Program,
    corrupt_bytes: &[u8],
    faulted: (usize, usize),
    protected: bool,
    corrupted_ops: &mut u64,
) -> Outcome {
    let mut image = out.image.clone();
    image.bytes = corrupt_bytes.to_vec();

    if protected {
        for b in faulted.0..=faulted.1 {
            let e = att.lookup(b);
            let (s, end) = image.block_range(b);
            if !e.verify_payload(&image.bytes[s as usize..end as usize]) {
                return Outcome::Detected;
            }
        }
    }

    let mut wrong_in_fault_blocks = 0u64;
    let mut wrong_elsewhere = 0u64;
    for b in 0..program.num_blocks() {
        let want = program.block_words(b);
        match out.codec.decode_block(&image, b, want.len()) {
            Err(_) => return Outcome::Detected,
            Ok(words) => {
                let wrong = words.iter().zip(want).filter(|(a, b)| a != b).count() as u64;
                if (faulted.0..=faulted.1).contains(&b) {
                    wrong_in_fault_blocks += wrong;
                } else {
                    wrong_elsewhere += wrong;
                }
            }
        }
    }
    *corrupted_ops = wrong_in_fault_blocks + wrong_elsewhere;
    if wrong_elsewhere > 0 {
        Outcome::Sdc
    } else if wrong_in_fault_blocks > 0 {
        Outcome::Contained
    } else {
        Outcome::Masked
    }
}

impl CampaignReport {
    /// Renders the report as the `results/ext_fault_campaign.txt` table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Fault-injection campaign: {} faults per scheme per target, seed {}.\n\
             Fault mix: 1/2 bit-flips, 1/4 stuck-at, 1/4 bursts (2-8 bits).\n\n",
            self.faults_per_target, self.seed
        ));
        s.push_str(
            "Payload faults, integrity checks ON (per-block parity + typed decode errors):\n\n",
        );
        s.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>5} {:>8}\n",
            "scheme", "detected", "contained", "sdc", "masked"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<10} {:>9} {:>9} {:>5} {:>8}\n",
                r.scheme, r.payload.detected, r.payload.contained, r.payload.sdc, r.payload.masked
            ));
        }
        s.push_str(
            "\nPayload faults, RAW decoder only (no parity) - each encoding's intrinsic\n\
             error response; 'amp' is mean corrupted ops per undetected fault:\n\n",
        );
        s.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>5} {:>8} {:>7}\n",
            "scheme", "detected", "contained", "sdc", "masked", "amp"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<10} {:>9} {:>9} {:>5} {:>8} {:>7.2}\n",
                r.scheme,
                r.payload_raw.detected,
                r.payload_raw.contained,
                r.payload_raw.sdc,
                r.payload_raw.masked,
                r.raw_amplification
            ));
        }
        s.push_str(
            "\nDictionary faults (CRC32 over decode tables) and ATT entry faults\n\
             (CRC-8 self-check):\n\n",
        );
        s.push_str(&format!(
            "{:<10} {:>9} {:>5} {:>8}   {:>9} {:>5} {:>8}\n",
            "scheme", "dict det", "sdc", "masked", "att det", "sdc", "masked"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<10} {:>9} {:>5} {:>8}   {:>9} {:>5} {:>8}\n",
                r.scheme,
                r.dictionary.detected,
                r.dictionary.sdc,
                r.dictionary.masked,
                r.att.detected,
                r.att.sdc,
                r.att.masked
            ));
        }
        s
    }

    /// Records every per-fault-site outcome into `registry` under
    /// `fault.<scheme>.<target>.<outcome>` counters (plus the campaign
    /// seed and size as gauges), so faultsim reports flow through the
    /// same telemetry path — and the same snapshot exporter — as the
    /// bench and fetch counters.
    pub fn record_metrics(&self, registry: &ccc_telemetry::MetricsRegistry) {
        registry.gauge("fault.seed").set(self.seed as i64);
        registry
            .gauge("fault.faults_per_target")
            .set(self.faults_per_target as i64);
        let record = |scheme: &str, target: &str, t: &Tally| {
            for (outcome, n) in [
                ("detected", t.detected),
                ("contained", t.contained),
                ("sdc", t.sdc),
                ("masked", t.masked),
            ] {
                registry
                    .counter(&format!("fault.{scheme}.{target}.{outcome}"))
                    .add(n);
            }
        };
        for r in &self.rows {
            record(&r.scheme, "payload", &r.payload);
            record(&r.scheme, "payload_raw", &r.payload_raw);
            record(&r.scheme, "dictionary", &r.dictionary);
            record(&r.scheme, "att", &r.att);
        }
    }

    /// True when no CRC-protected region leaked silent corruption — the
    /// campaign's headline guarantee.
    pub fn zero_sdc_in_protected_regions(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.dictionary.sdc == 0 && r.att.sdc == 0 && r.payload.sdc == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil::sample_program;

    #[test]
    fn xorshift_is_deterministic_and_nonzero_seeded() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed must be remapped");
    }

    #[test]
    fn apply_bit_flip_changes_exactly_one_bit() {
        let mut bytes = vec![0u8; 4];
        let fault = FaultRecord {
            kind: FaultKind::BitFlip,
            target: FaultTarget::Payload,
            bit: 10,
        };
        assert!(FaultInjector::apply(&fault, &mut bytes));
        assert_eq!(bytes, vec![0, 0b0010_0000, 0, 0]);
        assert!(FaultInjector::apply(&fault, &mut bytes));
        assert_eq!(bytes, vec![0; 4]);
    }

    #[test]
    fn stuck_at_faults_can_mask() {
        let mut bytes = vec![0u8; 2];
        let fault = FaultRecord {
            kind: FaultKind::StuckAt0,
            target: FaultTarget::Payload,
            bit: 3,
        };
        assert!(!FaultInjector::apply(&fault, &mut bytes), "already zero");
        let fault = FaultRecord {
            kind: FaultKind::StuckAt1,
            target: FaultTarget::Payload,
            bit: 3,
        };
        assert!(FaultInjector::apply(&fault, &mut bytes));
        assert_eq!(bytes[0], 0b0001_0000);
    }

    #[test]
    fn burst_clips_at_region_end() {
        let mut bytes = vec![0u8; 1];
        let fault = FaultRecord {
            kind: FaultKind::Burst { len: 8 },
            target: FaultTarget::Payload,
            bit: 6,
        };
        assert!(FaultInjector::apply(&fault, &mut bytes));
        assert_eq!(bytes[0], 0b0000_0011);
    }

    #[test]
    fn block_of_maps_bytes_to_blocks() {
        let starts = [0u64, 10, 25];
        let sizes = [10u32, 15, 5];
        assert_eq!(block_of(&starts, &sizes, 0), 0);
        assert_eq!(block_of(&starts, &sizes, 9), 0);
        assert_eq!(block_of(&starts, &sizes, 10), 1);
        assert_eq!(block_of(&starts, &sizes, 24), 1);
        assert_eq!(block_of(&starts, &sizes, 99), 2);
    }

    #[test]
    fn block_of_skips_empty_blocks_and_keeps_padding() {
        // Block 1 is empty (shares start 10 with block 2); block 0 has
        // 2 padding bytes after its 8 used ones.
        let starts = [0u64, 10, 10, 30];
        let sizes = [8u32, 0, 20, 4];
        assert_eq!(block_of(&starts, &sizes, 9), 0, "padding stays put");
        assert_eq!(block_of(&starts, &sizes, 10), 2, "empty block skipped");
        assert_eq!(block_of(&starts, &sizes, 29), 2);
        assert_eq!(block_of(&starts, &sizes, 30), 3);
    }

    #[test]
    fn campaign_is_deterministic_and_protected_regions_are_clean() {
        let p = sample_program();
        let cfg = CampaignConfig {
            seed: 42,
            faults_per_target: 25,
        };
        let a = run_campaign(&p, &cfg);
        let b = run_campaign(&p, &cfg);
        assert_eq!(a.render(), b.render(), "same seed must reproduce exactly");
        assert!(
            a.zero_sdc_in_protected_regions(),
            "CRC-protected regions leaked SDC:\n{}",
            a.render()
        );
        assert_eq!(a.rows.len(), 5);
        let names: Vec<&str> = a.rows.iter().map(|r| r.scheme.as_str()).collect();
        assert_eq!(names, ["base", "byte", "stream", "full", "tailored"]);
        // Different seeds should (overwhelmingly) differ somewhere.
        let c = run_campaign(
            &p,
            &CampaignConfig {
                seed: 7,
                faults_per_target: 25,
            },
        );
        assert_ne!(a.render(), c.render());
    }

    #[test]
    fn metrics_recording_accounts_for_every_fault() {
        let p = sample_program();
        let cfg = CampaignConfig {
            seed: 3,
            faults_per_target: 10,
        };
        let rep = run_campaign(&p, &cfg);
        let reg = ccc_telemetry::MetricsRegistry::new();
        rep.record_metrics(&reg);
        // 5 schemes × 4 targets × faults_per_target outcomes, all
        // landing in some counter.
        let total: u64 = reg.counters().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 5 * 4 * cfg.faults_per_target);
        assert_eq!(reg.gauge("fault.seed").get(), 3);
        assert_eq!(
            reg.counter("fault.base.payload.detected").get()
                + reg.counter("fault.base.payload.contained").get()
                + reg.counter("fault.base.payload.sdc").get()
                + reg.counter("fault.base.payload.masked").get(),
            cfg.faults_per_target
        );
    }

    #[test]
    fn every_cell_accounts_for_all_faults() {
        let p = sample_program();
        let cfg = CampaignConfig {
            seed: 3,
            faults_per_target: 10,
        };
        let rep = run_campaign(&p, &cfg);
        for r in &rep.rows {
            for t in [r.payload, r.payload_raw, r.dictionary, r.att] {
                assert_eq!(t.total(), cfg.faults_per_target, "{}", r.scheme);
            }
        }
    }
}
