//! The trace-driven fetch engine: walks a program's dynamic block trace
//! through the cache/ATB/buffer models with Table-1 cycle accounting and
//! reports IPC (operations delivered per cycle) plus every component's
//! hit statistics and the bus power figures.

use crate::atb::Atb;
use crate::buffer::{L0Buffer, DEFAULT_L0_OPS};
use crate::cache::{BankedCache, CacheConfig};
use crate::gshare::Gshare;
use crate::penalty::{Outcome, PenaltyTable};
use crate::power::BusModel;
use ccc_core::failpoint::{sites, Failpoints};
use ccc_core::schemes::{BlockCodec, BlockDecodeError, BlockRequest};
use ccc_core::{AddressTranslationTable, EncodedProgram, SchemeKind};
use ccc_telemetry::{EventCounts, FetchEventKind, MetricsRegistry, TraceEvent, TraceSink};
use tepic_isa::Program;
use tinker_huffman::DecodeCounters;
use yula::BlockTrace;

/// Which fetch organization to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingClass {
    /// Uncompressed baseline (banked cache, predictor, no translation).
    Base,
    /// Tailored ISA (extra miss-path stage, translation via ATB).
    Tailored,
    /// Huffman-compressed code cached compressed (decompressor on the
    /// hit path behind the L0 buffer, translation via ATB).
    Compressed,
    /// Perfect cache and predictor: one MultiOp per cycle.
    Ideal,
}

impl EncodingClass {
    /// The fetch organization an image of `kind` runs under: Base and
    /// Tailored fetch their own words straight from the cache; every
    /// Huffman scheme caches compressed code and decodes on the hit path.
    pub fn of(kind: &SchemeKind) -> EncodingClass {
        match kind {
            SchemeKind::Base => EncodingClass::Base,
            SchemeKind::Tailored => EncodingClass::Tailored,
            SchemeKind::Byte | SchemeKind::Stream(_) | SchemeKind::Full => {
                EncodingClass::Compressed
            }
        }
    }

    /// Whether a codec rides the hit path (only compressed code needs
    /// a decoder between cache and issue).
    pub fn decodes_on_hit(self) -> bool {
        self == EncodingClass::Compressed
    }
}

/// Which next-block predictor the ATB couples to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// The paper's baseline: per-entry 2-bit counter + last target.
    AtbTwoBit,
    /// Future-work extension: gshare direction predictor (global history
    /// XOR block id) with the ATB supplying targets.
    Gshare {
        /// log2 of the pattern table size.
        history_bits: u32,
    },
}

/// Full configuration of one simulation.
#[derive(Debug, Clone)]
pub struct FetchConfig {
    /// Fetch organization.
    pub class: EncodingClass,
    /// ICache geometry.
    pub cache: CacheConfig,
    /// ATB capacity in blocks.
    pub atb_entries: usize,
    /// Extra cycles to pull an ATT entry on an ATB miss (translated
    /// encodings only — Base keeps original addresses).
    pub atb_miss_penalty: u32,
    /// L0 buffer capacity in ops (Compressed only).
    pub l0_ops: u32,
    /// The Table-1 column.
    pub penalties: PenaltyTable,
    /// Next-block prediction mechanism.
    pub predictor: PredictorKind,
}

impl FetchConfig {
    /// The paper's Base configuration: 20KB 2-way, 30-byte lines.
    pub fn base() -> FetchConfig {
        FetchConfig {
            class: EncodingClass::Base,
            cache: CacheConfig::base(),
            atb_entries: 64,
            atb_miss_penalty: 0,
            l0_ops: DEFAULT_L0_OPS,
            penalties: PenaltyTable::base(),
            predictor: PredictorKind::AtbTwoBit,
        }
    }

    /// The paper's Tailored configuration: 16KB 2-way.
    pub fn tailored() -> FetchConfig {
        FetchConfig {
            class: EncodingClass::Tailored,
            cache: CacheConfig::compact(),
            atb_entries: 64,
            atb_miss_penalty: 2,
            l0_ops: DEFAULT_L0_OPS,
            penalties: PenaltyTable::tailored(),
            predictor: PredictorKind::AtbTwoBit,
        }
    }

    /// The paper's Compressed configuration: 16KB 2-way + 32-op L0.
    pub fn compressed() -> FetchConfig {
        FetchConfig {
            class: EncodingClass::Compressed,
            cache: CacheConfig::compact(),
            atb_entries: 64,
            atb_miss_penalty: 2,
            l0_ops: DEFAULT_L0_OPS,
            penalties: PenaltyTable::compressed(),
            predictor: PredictorKind::AtbTwoBit,
        }
    }

    /// Perfect-everything upper bound.
    pub fn ideal() -> FetchConfig {
        FetchConfig {
            class: EncodingClass::Ideal,
            ..FetchConfig::base()
        }
    }

    /// The paper configuration of `class`.
    pub fn of_class(class: EncodingClass) -> FetchConfig {
        match class {
            EncodingClass::Base => FetchConfig::base(),
            EncodingClass::Tailored => FetchConfig::tailored(),
            EncodingClass::Compressed => FetchConfig::compressed(),
            EncodingClass::Ideal => FetchConfig::ideal(),
        }
    }

    /// Scaled variant preserving the paper's pressure ratios.
    ///
    /// The paper runs SPEC-class binaries (hundreds of KB) against 16KB
    /// (20KB Base) caches and a 64-entry ATB over thousands of blocks.
    /// Our workloads are smaller, so the cache scales with the *base*
    /// image size: the Base cache gets `base_code_bytes × ratio` (the
    /// default [`FetchConfig::SCALED_RATIO`]), the compact caches keep
    /// the paper's 16:20 capacity relation, and the 64-entry ATB keeps
    /// the paper's "very low contention" property (it covers every block
    /// of our workloads, as the paper's covers SPEC's hot blocks). Line sizes, the L0 buffer and every Table-1 penalty are
    /// unchanged. See DESIGN.md §4 (substitutions).
    pub fn scaled(class: EncodingClass, base_code_bytes: usize) -> FetchConfig {
        let mut cfg = FetchConfig::of_class(class);
        if class == EncodingClass::Ideal {
            return cfg;
        }
        let base_capacity =
            ((base_code_bytes as f64 * Self::SCALED_RATIO) as usize).max(8 * cfg.cache.line_bytes);
        cfg.cache.capacity = match class {
            EncodingClass::Base => base_capacity,
            _ => base_capacity * 16 / 20,
        };

        cfg
    }

    /// Cache capacity as a fraction of the Base code size in scaled
    /// configurations (the paper's 20KB vs SPEC-sized-code pressure
    /// point, transposed).
    pub const SCALED_RATIO: f64 = 0.3;
}

/// Everything a simulation run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResult {
    /// Configuration label.
    pub class: EncodingClass,
    /// Total fetch cycles.
    pub cycles: u64,
    /// Operations delivered.
    pub ops: u64,
    /// MultiOps delivered.
    pub mops: u64,
    /// Correctly predicted block transitions.
    pub pred_correct: u64,
    /// Mispredicted block transitions.
    pub pred_wrong: u64,
    /// ICache hits / misses (block granularity).
    pub cache_hits: u64,
    /// ICache misses.
    pub cache_misses: u64,
    /// L0 buffer hits (Compressed only).
    pub buffer_hits: u64,
    /// L0 buffer misses.
    pub buffer_misses: u64,
    /// ATB hits.
    pub atb_hits: u64,
    /// ATB misses.
    pub atb_misses: u64,
    /// Memory-bus beats.
    pub bus_beats: u64,
    /// Memory-bus bit flips (the Figure-14 power proxy).
    pub bus_bit_flips: u64,
    /// Integrity-check failures observed on the fetch path: ATT entries
    /// failing their CRC-8 self-check when the ATB loads them, and block
    /// payloads failing parity when their lines arrive from memory. Zero
    /// on an uncorrupted image.
    pub integrity_faults: u64,
}

impl FetchResult {
    /// Operations delivered per cycle — the Figure-13 metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy.
    pub fn pred_accuracy(&self) -> f64 {
        let t = self.pred_correct + self.pred_wrong;
        if t == 0 {
            0.0
        } else {
            self.pred_correct as f64 / t as f64
        }
    }

    /// ICache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        let t = self.cache_hits + self.cache_misses;
        if t == 0 {
            0.0
        } else {
            self.cache_hits as f64 / t as f64
        }
    }

    /// ATB hit rate (Figure 7's "ATB characteristics").
    pub fn atb_hit_rate(&self) -> f64 {
        let t = self.atb_hits + self.atb_misses;
        if t == 0 {
            0.0
        } else {
            self.atb_hits as f64 / t as f64
        }
    }

    /// Folds every counter into `registry` under `fetch.*` names, so a
    /// run's results land in the same snapshot as the engine and decode
    /// telemetry (`results/METRICS_<scheme>.json`).
    pub fn record_metrics(&self, registry: &MetricsRegistry) {
        for (name, v) in [
            ("fetch.cycles", self.cycles),
            ("fetch.ops", self.ops),
            ("fetch.mops", self.mops),
            ("fetch.pred_correct", self.pred_correct),
            ("fetch.pred_wrong", self.pred_wrong),
            ("fetch.cache_hits", self.cache_hits),
            ("fetch.cache_misses", self.cache_misses),
            ("fetch.buffer_hits", self.buffer_hits),
            ("fetch.buffer_misses", self.buffer_misses),
            ("fetch.atb_hits", self.atb_hits),
            ("fetch.atb_misses", self.atb_misses),
            ("fetch.bus_beats", self.bus_beats),
            ("fetch.bus_bit_flips", self.bus_bit_flips),
            ("fetch.integrity_faults", self.integrity_faults),
        ] {
            registry.counter(name).add(v);
        }
    }
}

/// Decompressor activity observed when a [`BlockCodec`] rides along via
/// [`simulate_decoded`]. The decompressor engages on every L0 buffer
/// miss of the Compressed class (paper §4: the buffer sits in front of
/// it precisely to keep it off the common path), so these counters
/// measure how much actual Huffman decode work the fetch path performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Blocks run through the decompressor.
    pub blocks_decoded: u64,
    /// Operations reconstructed by those decodes.
    pub ops_decoded: u64,
    /// Decodes that errored or reconstructed the wrong op words. Zero on
    /// a clean image.
    pub decode_errors: u64,
    /// Codewords that overflowed the simulator's first-level decode LUT
    /// into the bit-serial reference walk (the "Long" path) — a software
    /// fast-path quality measure, not a modelled-hardware cost.
    pub long_fallbacks: u64,
    /// Total codeword bits consumed — one Figure-9 tree level per bit,
    /// so this is the modelled serial-decoder stall-cycle count.
    pub stall_bits: u64,
    /// Whole-block decodes whose LUT fast path errored and were retried
    /// one-shot through the bit-serial reference decoder (graceful
    /// degradation, DESIGN.md §13). A block only lands in
    /// `decode_errors` if the reference path failed too.
    pub reference_fallbacks: u64,
}

impl DecodeStats {
    /// Folds the counters into `registry` under `decode.*` names.
    pub fn record_metrics(&self, registry: &MetricsRegistry) {
        for (name, v) in [
            ("decode.blocks_decoded", self.blocks_decoded),
            ("decode.ops_decoded", self.ops_decoded),
            ("decode.decode_errors", self.decode_errors),
            ("decode.long_fallbacks", self.long_fallbacks),
            ("decode.stall_bits", self.stall_bits),
            ("decode.reference_fallbacks", self.reference_fallbacks),
        ] {
            registry.counter(name).add(v);
        }
    }
}

/// Runs one configuration over a program, its encoded image and its
/// dynamic trace. The ATT is built from the image as given — for fault
/// studies where the ROM image may differ from what the compiler saw,
/// use [`simulate_with_att`] with the compile-time table.
pub fn simulate(
    program: &Program,
    image: &EncodedProgram,
    trace: &BlockTrace,
    config: &FetchConfig,
) -> FetchResult {
    let att = AddressTranslationTable::build(program, image);
    simulate_with_att(program, image, &att, trace, config)
}

/// [`simulate`] with an explicit Address Translation Table. The table
/// carries the integrity metadata (per-block parity, entry CRC-8) the
/// compiler recorded; passing the clean-build table against a corrupted
/// `image` is how fault-injection studies observe `integrity_faults`.
pub fn simulate_with_att(
    program: &Program,
    image: &EncodedProgram,
    att: &AddressTranslationTable,
    trace: &BlockTrace,
    config: &FetchConfig,
) -> FetchResult {
    simulate_inner(program, image, att, trace, config, None, None, None)
}

/// [`simulate`] with structured event tracing: every per-block pipeline
/// event (cache hit/miss with its bank, ATB hit/miss, predictor
/// outcome, L0 hit/fill, decode stall, integrity fault) is recorded
/// into `sink`, stamped with the simulated cycle. The [`FetchResult`]
/// is **identical** to the untraced run — tracing observes, never
/// steers — and before returning, the engine asserts that the traced
/// event counts reconcile exactly with the result's own counters.
pub fn simulate_traced(
    program: &Program,
    image: &EncodedProgram,
    trace: &BlockTrace,
    config: &FetchConfig,
    sink: &mut dyn TraceSink,
) -> FetchResult {
    let att = AddressTranslationTable::build(program, image);
    simulate_inner(program, image, &att, trace, config, None, None, Some(sink))
}

/// [`simulate_decoded`] with structured event tracing — see
/// [`simulate_traced`]. Both the [`FetchResult`] and the
/// [`DecodeStats`] are identical to the untraced run.
pub fn simulate_decoded_traced(
    program: &Program,
    image: &EncodedProgram,
    trace: &BlockTrace,
    config: &FetchConfig,
    codec: &dyn BlockCodec,
    sink: &mut dyn TraceSink,
) -> (FetchResult, DecodeStats) {
    let att = AddressTranslationTable::build(program, image);
    let mut stats = DecodeStats::default();
    let r = simulate_inner(
        program,
        image,
        &att,
        trace,
        config,
        Some((codec, &mut stats)),
        None,
        Some(sink),
    );
    (r, stats)
}

/// [`simulate`] with the real decompressor on the fetch path: whenever
/// the Compressed class misses the L0 buffer, the block is actually
/// decoded through `codec` and checked against the program. Cycle
/// accounting is untouched — Table 1 already prices the decompressor —
/// so the [`FetchResult`] is identical to [`simulate`]'s; the extra
/// [`DecodeStats`] report the decode work and any corruption it caught.
pub fn simulate_decoded(
    program: &Program,
    image: &EncodedProgram,
    trace: &BlockTrace,
    config: &FetchConfig,
    codec: &dyn BlockCodec,
) -> (FetchResult, DecodeStats) {
    let att = AddressTranslationTable::build(program, image);
    let mut stats = DecodeStats::default();
    let r = simulate_inner(
        program,
        image,
        &att,
        trace,
        config,
        Some((codec, &mut stats)),
        None,
        None,
    );
    (r, stats)
}

/// [`simulate_decoded`] with a [`Failpoints`] registry armed on the LUT
/// decode fast path (site `decode.lut`): each injected fault forces the
/// primary decode to error, exercising the one-shot fallback to the
/// bit-serial reference decoder. The [`FetchResult`] is identical to
/// the clean run's — degradation changes *how* a block is decoded,
/// never what the fetch path observes — while
/// [`DecodeStats::reference_fallbacks`] records every rescue.
pub fn simulate_decoded_injected(
    program: &Program,
    image: &EncodedProgram,
    trace: &BlockTrace,
    config: &FetchConfig,
    codec: &dyn BlockCodec,
    failpoints: &Failpoints,
) -> (FetchResult, DecodeStats) {
    let att = AddressTranslationTable::build(program, image);
    let mut stats = DecodeStats::default();
    let r = simulate_inner(
        program,
        image,
        &att,
        trace,
        config,
        Some((codec, &mut stats)),
        Some(failpoints),
        None,
    );
    (r, stats)
}

/// One block through the decompressor with the healing protocol every
/// decoded path shares: an armed `decode.lut` failpoint forces the fast
/// path to error, any fast-path error takes the one-shot retry down the
/// bit-serial reference decoder (graceful degradation, DESIGN.md §13 —
/// the reference shares no lookup tables with the LUT, so a corrupted
/// table cannot poison both), and the decoded words are checked against
/// the program. A block only lands in `decode_errors` if both paths
/// reject it (genuinely corrupt bytes).
fn decode_block_healed(
    codec: &dyn BlockCodec,
    program: &Program,
    image: &EncodedProgram,
    block: usize,
    num_ops: usize,
    stats: &mut DecodeStats,
    failpoints: Option<&Failpoints>,
) -> Result<Vec<u64>, BlockDecodeError> {
    stats.blocks_decoded += 1;
    let mut counters = DecodeCounters::default();
    let primary = if failpoints.is_some_and(|fp| fp.check(sites::DECODE_LUT).is_some()) {
        Err(BlockDecodeError::BadValue {
            field: "injected failpoint: decode.lut",
        })
    } else {
        codec.decode_block_counted(image, block, num_ops, &mut counters)
    };
    let decoded = primary.or_else(|_| {
        stats.reference_fallbacks += 1;
        codec.decode_block_reference(image, block, num_ops)
    });
    note_decoded(&decoded, program, block, num_ops, stats);
    stats.long_fallbacks += counters.long_fallbacks;
    stats.stall_bits += counters.stall_bits;
    decoded
}

/// Post-decode accounting shared by the healed paths: tally the ops and
/// flag a decode error when the block errored or reconstructed the
/// wrong words.
fn note_decoded(
    decoded: &Result<Vec<u64>, BlockDecodeError>,
    program: &Program,
    block: usize,
    num_ops: usize,
    stats: &mut DecodeStats,
) {
    match decoded {
        Ok(words) => {
            stats.ops_decoded += words.len() as u64;
            let ok = words
                .iter()
                .zip(program.block_ops(block))
                .all(|(&w, op)| w == op.encode());
            if !ok || words.len() != num_ops {
                stats.decode_errors += 1;
            }
        }
        Err(_) => stats.decode_errors += 1,
    }
}

/// Decodes every block of `image` through one
/// [`BlockCodec::decode_batch`] call — the interleaved throughput tier
/// (DESIGN.md §15) — under the same healing protocol as
/// [`simulate_decoded`]: blocks whose armed `decode.lut` failpoint
/// fires are rerouted to the bit-serial reference decoder before the
/// batch is formed, batch lanes that error take the same one-shot
/// reference retry, and every decode is checked against the program.
/// Returns the per-block results in block order plus [`DecodeStats`]
/// with exactly the per-miss path's semantics
/// (`reference_fallbacks` counts each rescue).
pub fn batch_decode_image(
    program: &Program,
    image: &EncodedProgram,
    codec: &dyn BlockCodec,
    failpoints: Option<&Failpoints>,
) -> (Vec<Result<Vec<u64>, BlockDecodeError>>, DecodeStats) {
    let mut stats = DecodeStats::default();
    let mut counters = DecodeCounters::default();
    let num_blocks = program.num_blocks();
    let mut results: Vec<Option<Result<Vec<u64>, BlockDecodeError>>> = vec![None; num_blocks];
    let mut requests = Vec::with_capacity(num_blocks);
    for (block, info) in program.blocks().iter().enumerate() {
        if failpoints.is_some_and(|fp| fp.check(sites::DECODE_LUT).is_some()) {
            // The failpoint kills this block's fast path: heal it on
            // the spot so the batch carries only clean fast-path lanes.
            stats.blocks_decoded += 1;
            stats.reference_fallbacks += 1;
            let decoded = codec.decode_block_reference(image, block, info.num_ops);
            note_decoded(&decoded, program, block, info.num_ops, &mut stats);
            results[block] = Some(decoded);
        } else {
            requests.push(BlockRequest {
                block,
                num_ops: info.num_ops,
            });
        }
    }
    let batched = codec.decode_batch(image, &requests, &mut counters);
    for (q, res) in requests.iter().zip(batched) {
        stats.blocks_decoded += 1;
        let decoded = res.or_else(|_| {
            stats.reference_fallbacks += 1;
            codec.decode_block_reference(image, q.block, q.num_ops)
        });
        note_decoded(&decoded, program, q.block, q.num_ops, &mut stats);
        results[q.block] = Some(decoded);
    }
    stats.long_fallbacks += counters.long_fallbacks;
    stats.stall_bits += counters.stall_bits;
    let results = results
        .into_iter()
        .map(|r| r.expect("every block decoded"))
        .collect();
    (results, stats)
}

/// Event recorder threaded through the traced runs: forwards each event
/// to the sink while tallying per-kind counts for the post-run
/// reconciliation check. Only constructed when a sink is supplied, so
/// untraced runs execute the exact pre-telemetry path.
struct Tracer<'s> {
    sink: &'s mut dyn TraceSink,
    counts: EventCounts,
}

impl Tracer<'_> {
    fn fetch(&mut self, seq: u64, cycle: u64, block: u32, kind: FetchEventKind) {
        let ev = TraceEvent::Fetch {
            seq,
            cycle,
            block,
            kind,
        };
        self.counts.add(&ev);
        self.sink.record(ev);
    }
}

#[allow(clippy::too_many_arguments)]
fn simulate_inner(
    program: &Program,
    image: &EncodedProgram,
    att: &AddressTranslationTable,
    trace: &BlockTrace,
    config: &FetchConfig,
    mut decode: Option<(&dyn BlockCodec, &mut DecodeStats)>,
    failpoints: Option<&Failpoints>,
    sink: Option<&mut dyn TraceSink>,
) -> FetchResult {
    let mut tracer = sink.map(|sink| Tracer {
        sink,
        counts: EventCounts::default(),
    });
    let mut atb = Atb::new(config.atb_entries);
    let mut gshare = match config.predictor {
        PredictorKind::Gshare { history_bits } => Some(Gshare::new(history_bits)),
        PredictorKind::AtbTwoBit => None,
    };
    let mut cache = BankedCache::new(config.cache);
    let mut buffer = L0Buffer::new(config.l0_ops);
    let mut bus = BusModel::new();
    let compressed = config.class == EncodingClass::Compressed;
    let translated = matches!(
        config.class,
        EncodingClass::Compressed | EncodingClass::Tailored
    );

    let mut r = FetchResult {
        class: config.class,
        cycles: 0,
        ops: 0,
        mops: 0,
        pred_correct: 0,
        pred_wrong: 0,
        cache_hits: 0,
        cache_misses: 0,
        buffer_hits: 0,
        buffer_misses: 0,
        atb_hits: 0,
        atb_misses: 0,
        bus_beats: 0,
        bus_bit_flips: 0,
        integrity_faults: 0,
    };

    // What the previous block's predictor said the current block would be
    // (None for the very first block: treated as predicted — cold start).
    let mut predicted_cur: Option<u32> = None;

    let mut seq = 0u64;
    for (cur, next) in trace.transitions() {
        seq += 1;
        let info = &program.blocks()[cur as usize];
        r.ops += info.num_ops as u64;
        r.mops += info.num_mops as u64;

        if config.class == EncodingClass::Ideal {
            r.cycles += info.num_mops as u64;
            continue;
        }

        let predicted = predicted_cur.is_none_or(|p| p == cur);
        if predicted_cur.is_some() {
            if predicted {
                r.pred_correct += 1;
            } else {
                r.pred_wrong += 1;
            }
            if let Some(t) = tracer.as_mut() {
                let kind = if predicted {
                    FetchEventKind::PredCorrect
                } else {
                    FetchEventKind::PredWrong
                };
                t.fetch(seq, r.cycles, cur, kind);
            }
        }

        let entry = att.lookup(cur as usize);
        let atb_hit = atb.access(cur, entry);
        if let Some(t) = tracer.as_mut() {
            let kind = if atb_hit {
                FetchEventKind::AtbHit
            } else {
                FetchEventKind::AtbMiss {
                    penalty: if translated {
                        config.atb_miss_penalty
                    } else {
                        0
                    },
                }
            };
            t.fetch(seq, r.cycles, cur, kind);
        }
        if translated && !atb_hit {
            r.cycles += config.atb_miss_penalty as u64;
            // The entry just arrived from code memory: run its CRC-8
            // self-check before letting it steer the fetch.
            if !entry.self_check() {
                r.integrity_faults += 1;
                if let Some(t) = tracer.as_mut() {
                    t.fetch(seq, r.cycles, cur, FetchEventKind::IntegrityFault);
                }
            }
        }

        let (start, end) = image.block_range(cur as usize);
        let lines = config.cache.lines_spanned(start, end);

        // The L0 buffer has priority over the main cache (paper §4): a
        // buffer hit never touches the cache or the bus.
        let buffer_hit = compressed && buffer.access(cur, info.num_ops as u32);
        if compressed {
            if let Some(t) = tracer.as_mut() {
                let kind = if buffer_hit {
                    FetchEventKind::L0Hit
                } else {
                    FetchEventKind::L0Fill {
                        ops: info.num_ops as u32,
                    }
                };
                t.fetch(seq, r.cycles, cur, kind);
            }
        }
        if compressed && !buffer_hit {
            // The decompressor engages: the block's compressed bits —
            // whether they come from the cache or from memory — are
            // decoded into the buffer before ops can issue.
            if let Some((codec, stats)) = decode.as_mut() {
                let _ = decode_block_healed(
                    *codec,
                    program,
                    image,
                    cur as usize,
                    info.num_ops,
                    stats,
                    failpoints,
                );
            }
        }
        // Bank of the block's first line: lines interleave across the
        // two banks of the Figure-8 fetch design.
        let bank = ((start / config.cache.line_bytes as u64) % 2) as u8;
        let cache_hit = if buffer_hit {
            true
        } else {
            let access = cache.access_block(start, end);
            if let Some(t) = tracer.as_mut() {
                let kind = if access.hit {
                    FetchEventKind::CacheHit { bank }
                } else {
                    FetchEventKind::CacheMiss {
                        bank,
                        lines: access.fetched_lines.len() as u32,
                    }
                };
                t.fetch(seq, r.cycles, cur, kind);
            }
            for &l in &access.fetched_lines {
                bus.transfer_line(&image.bytes, l, config.cache.line_bytes);
            }
            // Lines came in from ROM: check the block payload against
            // the parity recorded in its ATT entry.
            if translated
                && !access.hit
                && !entry.verify_payload(&image.bytes[start as usize..end as usize])
            {
                r.integrity_faults += 1;
                if let Some(t) = tracer.as_mut() {
                    t.fetch(seq, r.cycles, cur, FetchEventKind::IntegrityFault);
                }
            }
            access.hit
        };

        let pen = config.penalties.penalty(Outcome {
            predicted,
            cache_hit,
            buffer_hit,
        });
        if compressed && !buffer_hit {
            // The Table-1 penalty charged on an L0 fill is the modelled
            // fetch+decompress stall for this block.
            if let Some(t) = tracer.as_mut() {
                t.fetch(
                    seq,
                    r.cycles,
                    cur,
                    FetchEventKind::DecodeStall {
                        cycles: pen.cycles(lines),
                    },
                );
            }
        }
        r.cycles += pen.cycles(lines) as u64 + (info.num_mops as u64).saturating_sub(1);

        // Predict the next block from this block's entry, then train.
        if let Some(n) = next {
            predicted_cur = Some(match &gshare {
                Some(g) => {
                    if g.predict_taken(cur) {
                        atb.last_target(cur).unwrap_or(cur + 1)
                    } else {
                        cur + 1
                    }
                }
                None => atb.predict_next(cur),
            });
            if let Some(g) = &mut gshare {
                g.train(cur, n != cur + 1);
            }
            atb.train(cur, n);
        }
    }

    r.cache_hits = cache.hits();
    r.cache_misses = cache.misses();
    r.buffer_hits = buffer.hits();
    r.buffer_misses = buffer.misses();
    r.atb_hits = atb.hits();
    r.atb_misses = atb.misses();
    r.bus_beats = bus.beats();
    r.bus_bit_flips = bus.bit_flips();

    // Traced runs must reconcile exactly: every counter the components
    // accumulated has a matching stream of recorded events. A mismatch
    // means an emission site drifted from the model — fail loudly.
    if let Some(t) = &tracer {
        let c = &t.counts;
        let pairs = [
            ("cache_hits", c.cache_hits, r.cache_hits),
            ("cache_misses", c.cache_misses, r.cache_misses),
            ("buffer_hits", c.buffer_hits, r.buffer_hits),
            ("buffer_misses", c.buffer_misses, r.buffer_misses),
            ("atb_hits", c.atb_hits, r.atb_hits),
            ("atb_misses", c.atb_misses, r.atb_misses),
            ("pred_correct", c.pred_correct, r.pred_correct),
            ("pred_wrong", c.pred_wrong, r.pred_wrong),
            ("integrity_faults", c.integrity_faults, r.integrity_faults),
            // Every L0 fill engages the decompressor exactly once.
            ("decode_stalls", c.decode_stalls, r.buffer_misses),
        ];
        for (name, traced, counted) in pairs {
            assert_eq!(
                traced, counted,
                "trace/counter divergence on {name}: {traced} events vs {counted} counted"
            );
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_core::schemes::{
        base::encode_base, full::FullScheme, tailored::TailoredScheme, Scheme,
    };
    use yula::{Emulator, Limits};

    struct Setup {
        program: Program,
        trace: BlockTrace,
        base_img: EncodedProgram,
        tail_img: EncodedProgram,
        comp_img: EncodedProgram,
    }

    fn setup(src: &str) -> Setup {
        let program = lego::compile(src, &lego::Options::default()).unwrap();
        let run = Emulator::new(&program).run(&Limits::default()).unwrap();
        let base_img = encode_base(&program);
        let tail_img = TailoredScheme.compress(&program).unwrap().image;
        let comp_img = FullScheme::default().compress(&program).unwrap().image;
        Setup {
            program,
            trace: run.trace,
            base_img,
            tail_img,
            comp_img,
        }
    }

    fn loopy() -> Setup {
        setup(
            r#"
            global a[64];
            fn main() {
                var i; var j; var s = 0;
                for (i = 0; i < 40; i = i + 1) {
                    for (j = 0; j < 40; j = j + 1) {
                        s = s + (i ^ j);
                        if (s > 100000) { s = s - 100000; }
                    }
                    a[i] = s;
                }
                print(s);
            }
        "#,
        )
    }

    #[test]
    fn ideal_bounds_everything() {
        let s = loopy();
        let ideal = simulate(&s.program, &s.base_img, &s.trace, &FetchConfig::ideal());
        let base = simulate(&s.program, &s.base_img, &s.trace, &FetchConfig::base());
        let tail = simulate(&s.program, &s.tail_img, &s.trace, &FetchConfig::tailored());
        let comp = simulate(
            &s.program,
            &s.comp_img,
            &s.trace,
            &FetchConfig::compressed(),
        );
        assert!(ideal.ipc() >= base.ipc());
        assert!(ideal.ipc() >= tail.ipc());
        assert!(ideal.ipc() >= comp.ipc());
        assert!(ideal.ipc() <= 6.0 + 1e-9, "issue width bounds the ideal");
        // All deliver the same instruction stream.
        assert_eq!(ideal.ops, base.ops);
        assert_eq!(base.ops, tail.ops);
        assert_eq!(base.ops, comp.ops);
    }

    #[test]
    fn tight_loop_warms_every_structure() {
        let s = loopy();
        let base = simulate(&s.program, &s.base_img, &s.trace, &FetchConfig::base());
        assert!(
            base.cache_hit_rate() > 0.95,
            "hot loop should hit: {}",
            base.cache_hit_rate()
        );
        assert!(
            base.pred_accuracy() > 0.7,
            "2-bit counters learn loops: {}",
            base.pred_accuracy()
        );
        let comp = simulate(
            &s.program,
            &s.comp_img,
            &s.trace,
            &FetchConfig::compressed(),
        );
        assert!(
            comp.atb_hit_rate() > 0.9,
            "ATB contention is low: {}",
            comp.atb_hit_rate()
        );
        assert!(
            comp.buffer_hits + comp.buffer_misses > 0,
            "compressed path exercises the buffer"
        );
    }

    #[test]
    fn compression_reduces_bus_traffic() {
        // Figure 14's shape: compressed encodings move fewer bits for
        // the same instruction stream.
        let s = loopy();
        let base = simulate(&s.program, &s.base_img, &s.trace, &FetchConfig::base());
        let tail = simulate(&s.program, &s.tail_img, &s.trace, &FetchConfig::tailored());
        let comp = simulate(
            &s.program,
            &s.comp_img,
            &s.trace,
            &FetchConfig::compressed(),
        );
        assert!(
            tail.bus_beats <= base.bus_beats,
            "tailored beats {} vs base {}",
            tail.bus_beats,
            base.bus_beats
        );
        assert!(
            comp.bus_beats <= base.bus_beats,
            "compressed beats {} vs base {}",
            comp.bus_beats,
            base.bus_beats
        );
    }

    #[test]
    fn cycles_monotone_in_penalties() {
        // Same trace and image under a strictly costlier table must not
        // get faster.
        let s = loopy();
        let cheap = simulate(
            &s.program,
            &s.tail_img,
            &s.trace,
            &FetchConfig {
                penalties: PenaltyTable::base(),
                ..FetchConfig::tailored()
            },
        );
        let costly = simulate(&s.program, &s.tail_img, &s.trace, &FetchConfig::tailored());
        assert!(costly.cycles >= cheap.cycles);
    }

    #[test]
    fn deterministic() {
        let s = loopy();
        let a = simulate(
            &s.program,
            &s.comp_img,
            &s.trace,
            &FetchConfig::compressed(),
        );
        let b = simulate(
            &s.program,
            &s.comp_img,
            &s.trace,
            &FetchConfig::compressed(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn clean_image_reports_no_integrity_faults() {
        let s = loopy();
        for (img, cfg) in [
            (&s.base_img, FetchConfig::base()),
            (&s.tail_img, FetchConfig::tailored()),
            (&s.comp_img, FetchConfig::compressed()),
        ] {
            let r = simulate(&s.program, img, &s.trace, &cfg);
            assert_eq!(r.integrity_faults, 0, "{:?}", cfg.class);
        }
    }

    #[test]
    fn corrupted_payload_is_caught_by_parity() {
        let s = loopy();
        // The compiler recorded parity over the clean image; the ROM
        // then corrupts one bit of the hottest block's payload.
        let att = AddressTranslationTable::build(&s.program, &s.comp_img);
        let hot = s.trace.transitions().next().unwrap().0 as usize;
        let (start, _) = s.comp_img.block_range(hot);
        let mut bad = s.comp_img.clone();
        bad.bytes[start as usize] ^= 0x40;
        let r = simulate_with_att(&s.program, &bad, &att, &s.trace, &FetchConfig::compressed());
        assert!(
            r.integrity_faults > 0,
            "flipped payload bit must fail parity on the miss path"
        );
        // The clean image against its own table stays silent.
        let ok = simulate_with_att(
            &s.program,
            &s.comp_img,
            &att,
            &s.trace,
            &FetchConfig::compressed(),
        );
        assert_eq!(ok.integrity_faults, 0);
    }

    #[test]
    fn corrupted_att_entry_fails_self_check_on_load() {
        let s = loopy();
        let mut att = AddressTranslationTable::build(&s.program, &s.comp_img);
        let hot = s.trace.transitions().next().unwrap().0 as usize;
        // Corrupt the stored entry without refreshing its CRC-8.
        att.entries_mut()[hot].num_mops ^= 1;
        let r = simulate_with_att(
            &s.program,
            &s.comp_img,
            &att,
            &s.trace,
            &FetchConfig::compressed(),
        );
        assert!(
            r.integrity_faults > 0,
            "corrupt entry must fail its self-check when the ATB loads it"
        );
    }

    #[test]
    fn decoded_run_matches_plain_run_and_decodes_cleanly() {
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let plain = simulate(&s.program, &out.image, &s.trace, &FetchConfig::compressed());
        let (decoded, stats) = simulate_decoded(
            &s.program,
            &out.image,
            &s.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
        );
        // Decoding rides along without disturbing any accounting.
        assert_eq!(decoded, plain);
        // Every buffer miss ran the decompressor, and every decode was
        // clean and complete.
        assert_eq!(stats.blocks_decoded, plain.buffer_misses);
        assert!(stats.ops_decoded > 0, "hot loop must decode some ops");
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn decoded_run_catches_corrupted_block() {
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let hot = s.trace.transitions().next().unwrap().0 as usize;
        let (start, _) = out.image.block_range(hot);
        let mut bad = out.image.clone();
        bad.bytes[start as usize] ^= 0x40;
        let (_, stats) = simulate_decoded(
            &s.program,
            &bad,
            &s.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
        );
        assert!(
            stats.decode_errors > 0,
            "flipped payload bit must surface as a decode error"
        );
    }

    #[test]
    fn injected_lut_faults_fall_back_to_reference_decoder() {
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let (clean, clean_stats) = simulate_decoded(
            &s.program,
            &out.image,
            &s.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
        );
        let fp = ccc_core::Failpoints::from_spec("decode.lut:1.0:error", 7).unwrap();
        let (healed, stats) = simulate_decoded_injected(
            &s.program,
            &out.image,
            &s.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
            &fp,
        );
        // Every block decode hit the injected fault and degraded to the
        // bit-serial reference path, with no visible effect on the run.
        assert_eq!(healed, clean);
        assert_eq!(stats.reference_fallbacks, stats.blocks_decoded);
        assert_eq!(stats.blocks_decoded, clean_stats.blocks_decoded);
        assert_eq!(stats.reference_fallbacks, fp.total_fired());
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn batch_decode_matches_per_block_decode_for_every_scheme() {
        use ccc_core::schemes::{byte::ByteScheme, pair::PairScheme, stream::StreamScheme};
        let s = loopy();
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(FullScheme::default()),
            Box::new(ByteScheme::default()),
            Box::new(StreamScheme::named("stream").unwrap()),
            Box::new(StreamScheme::named("stream_1").unwrap()),
            Box::new(PairScheme::default()),
        ];
        for scheme in schemes {
            let out = scheme.compress(&s.program).unwrap();
            let (results, stats) =
                batch_decode_image(&s.program, &out.image, out.codec.as_ref(), None);
            assert_eq!(results.len(), s.program.num_blocks());
            let mut seq = DecodeCounters::default();
            for (b, info) in s.program.blocks().iter().enumerate() {
                let want = out
                    .codec
                    .decode_block_counted(&out.image, b, info.num_ops, &mut seq)
                    .unwrap();
                assert_eq!(
                    results[b].as_ref().unwrap(),
                    &want,
                    "{}: block {b} batch/sequential mismatch",
                    scheme.name()
                );
            }
            assert_eq!(stats.blocks_decoded, s.program.num_blocks() as u64);
            assert_eq!(stats.ops_decoded, s.program.num_ops() as u64);
            assert_eq!(stats.decode_errors, 0, "{}", scheme.name());
            assert_eq!(stats.reference_fallbacks, 0, "{}", scheme.name());
            // Interleaved counters fold to the sequential totals.
            assert_eq!(
                stats.long_fallbacks,
                seq.long_fallbacks,
                "{}",
                scheme.name()
            );
            assert_eq!(stats.stall_bits, seq.stall_bits, "{}", scheme.name());
        }
    }

    #[test]
    fn batch_decode_heals_injected_lut_faults() {
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let fp = ccc_core::Failpoints::from_spec("decode.lut:1.0:error", 7).unwrap();
        let (results, stats) =
            batch_decode_image(&s.program, &out.image, out.codec.as_ref(), Some(&fp));
        // Every block's fast path was killed and rerouted to the
        // reference decoder before the batch formed; nothing is lost.
        assert_eq!(stats.reference_fallbacks, stats.blocks_decoded);
        assert_eq!(stats.reference_fallbacks, fp.total_fired());
        assert_eq!(stats.decode_errors, 0);
        for (b, info) in s.program.blocks().iter().enumerate() {
            let words = results[b].as_ref().unwrap();
            assert_eq!(words.len(), info.num_ops);
        }
    }

    #[test]
    fn batch_decode_surfaces_corruption_after_reference_retry() {
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let hot = s.trace.transitions().next().unwrap().0 as usize;
        let (start, _) = out.image.block_range(hot);
        let mut bad = out.image.clone();
        bad.bytes[start as usize] ^= 0x40;
        let (_, stats) = batch_decode_image(&s.program, &bad, out.codec.as_ref(), None);
        // The corrupted lane takes its one-shot reference retry (which
        // cannot help — the bits themselves are wrong) and is flagged.
        assert!(stats.reference_fallbacks >= 1 || stats.decode_errors >= 1);
        assert!(stats.decode_errors >= 1, "corruption must be flagged");
    }

    #[test]
    fn non_compressed_class_never_engages_decompressor() {
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let (_, stats) = simulate_decoded(
            &s.program,
            &s.base_img,
            &s.trace,
            &FetchConfig::base(),
            out.codec.as_ref(),
        );
        assert_eq!(stats, DecodeStats::default());
    }

    #[test]
    fn traced_run_is_identical_and_reconciles_for_every_class() {
        use ccc_telemetry::{NoopSink, RingSink};
        let s = loopy();
        for (img, cfg) in [
            (&s.base_img, FetchConfig::base()),
            (&s.tail_img, FetchConfig::tailored()),
            (&s.comp_img, FetchConfig::compressed()),
            (&s.base_img, FetchConfig::ideal()),
        ] {
            let plain = simulate(&s.program, img, &s.trace, &cfg);
            let mut ring = RingSink::new(1 << 22);
            let traced = simulate_traced(&s.program, img, &s.trace, &cfg, &mut ring);
            assert_eq!(traced, plain, "{:?}: tracing must not steer", cfg.class);
            let c = ring.counts();
            assert_eq!(c.cache_hits, plain.cache_hits, "{:?}", cfg.class);
            assert_eq!(c.cache_misses, plain.cache_misses, "{:?}", cfg.class);
            assert_eq!(c.buffer_hits, plain.buffer_hits, "{:?}", cfg.class);
            assert_eq!(c.buffer_misses, plain.buffer_misses, "{:?}", cfg.class);
            assert_eq!(c.atb_hits, plain.atb_hits, "{:?}", cfg.class);
            assert_eq!(c.atb_misses, plain.atb_misses, "{:?}", cfg.class);
            assert_eq!(c.pred_correct, plain.pred_correct, "{:?}", cfg.class);
            assert_eq!(c.pred_wrong, plain.pred_wrong, "{:?}", cfg.class);
            assert_eq!(c.integrity_faults, 0, "{:?}", cfg.class);
            if cfg.class == EncodingClass::Ideal {
                assert_eq!(c.total(), 0, "ideal fetch touches no structure");
            } else {
                assert!(!ring.is_empty(), "{:?} must record events", cfg.class);
            }
            // The no-op sink works too (and discards everything).
            let mut noop = NoopSink;
            let quiet = simulate_traced(&s.program, img, &s.trace, &cfg, &mut noop);
            assert_eq!(quiet, plain);
        }
    }

    #[test]
    fn traced_decoded_run_reports_decode_effort() {
        use ccc_telemetry::RingSink;
        let s = loopy();
        let out = FullScheme::default().compress(&s.program).unwrap();
        let (plain, plain_stats) = simulate_decoded(
            &s.program,
            &out.image,
            &s.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
        );
        let mut ring = RingSink::new(1 << 22);
        let (traced, stats) = simulate_decoded_traced(
            &s.program,
            &out.image,
            &s.trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
            &mut ring,
        );
        assert_eq!(traced, plain);
        assert_eq!(stats, plain_stats);
        assert_eq!(stats.decode_errors, 0);
        assert!(
            stats.stall_bits > 0,
            "huffman decode must consume codeword bits"
        );
        // One decode-stall event per L0 fill, by construction.
        assert_eq!(ring.counts().decode_stalls, traced.buffer_misses);
        // Metrics recording is total-preserving.
        let reg = MetricsRegistry::new();
        traced.record_metrics(&reg);
        stats.record_metrics(&reg);
        assert_eq!(reg.counter("fetch.cycles").get(), traced.cycles);
        assert_eq!(reg.counter("decode.stall_bits").get(), stats.stall_bits);
    }

    #[test]
    fn branchy_code_mispredicts_more_than_straight() {
        let straight = setup(
            "fn main() { var i; var s = 0; for (i = 0; i < 2000; i = i + 1) { s = s + i; } print(s); }",
        );
        let branchy = setup(
            r#"
            fn main() {
                var i; var s = 0; var v = 12345;
                for (i = 0; i < 2000; i = i + 1) {
                    v = (v * 1103 + 12345) % 65536;
                    if (v % 2 == 0) { s = s + 1; } else { s = s - 1; }
                }
                print(s);
            }
        "#,
        );
        let a = simulate(
            &straight.program,
            &straight.base_img,
            &straight.trace,
            &FetchConfig::base(),
        );
        let b = simulate(
            &branchy.program,
            &branchy.base_img,
            &branchy.trace,
            &FetchConfig::base(),
        );
        assert!(
            b.pred_accuracy() < a.pred_accuracy(),
            "random branches must hurt: {} vs {}",
            b.pred_accuracy(),
            a.pred_accuracy()
        );
    }
}
