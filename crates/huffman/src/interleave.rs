//! The packed and multi-symbol decode tables of the retired
//! interleaved multi-stream decoder.
//!
//! Images decode one block at a time through [`LutDecoder`] (DESIGN.md
//! §15); no codec, request, figure or fault campaign builds these
//! tables. [`InterleavedDecoder::new`] stays only because the repo
//! benchmark's `decode.table_build_ms` layer times it.

use crate::lut::{hit, LutDecoder};

/// A set of [`LutDecoder`] tables re-packed into one shared first
/// level plus a multi-symbol level per table.
///
/// Kept only for perfbench's `decode.table_build_ms` layer, which times
/// [`InterleavedDecoder::new`], until a benchmark change retires that
/// layer; nothing reads the tables.
#[derive(Debug, Clone)]
#[expect(
    dead_code,
    reason = "built for perfbench's table-build timing; no decoder reads it"
)]
pub struct InterleavedDecoder {
    tables: Vec<LutDecoder>,
    /// Packed first levels of all tables, concatenated: entry
    /// `(sym << 8) | len` for a code resolved within the index, else 0.
    packed: Vec<u32>,
    /// Start of each table's packed first level within `packed`.
    base: Vec<u32>,
    /// Packed width of each table's first level.
    bits: Vec<u32>,
    /// Whether every packed entry of the table resolves a symbol.
    complete: Vec<bool>,
    /// Start of each table's multi-symbol level within `multi`.
    multi_base: Vec<u32>,
    /// Whether the table's multi level resolves ≥ 1.5 symbols per
    /// lookup, expected over uniform windows.
    multi_good: Vec<bool>,
    /// Multi-symbol level rows for every table, 2^[`MULTI_BITS`] rows
    /// of [`MULTI_ROW`] u32s each: `[(count << 8) | bits, symbols...]`
    /// for the whole codewords a window holds (`count == 0` marks a
    /// window the packed level must resolve instead).
    multi: Vec<u32>,
}

impl InterleavedDecoder {
    /// Builds the packed and multi-symbol levels over `tables`.
    ///
    /// # Panics
    ///
    /// If `tables` is empty.
    pub fn new(tables: Vec<LutDecoder>) -> InterleavedDecoder {
        assert!(!tables.is_empty(), "interleaved decoder needs tables");
        let mut packed = Vec::new();
        let mut base = Vec::with_capacity(tables.len());
        let mut bits = Vec::with_capacity(tables.len());
        let mut complete = Vec::with_capacity(tables.len());
        // Pack each table at the width of its widest first-level code,
        // not at `lut_bits`: a peek's top `w` bits identify every code
        // of length ≤ w, so the narrow level fast-paths exactly the
        // same symbols as the full one while shrinking the hot tables
        // toward cache residency (a 2-bit stream book drops from 8 KiB
        // to a couple of cache lines).
        for tab in &tables {
            let entries = tab.entries();
            let lut_bits = tab.lut_bits();
            let wmax_code = entries
                .iter()
                .map(|&e| hit(e) & 0xFF)
                .max()
                .unwrap_or(0)
                .max(1);
            // Bucket the width to min(4, lut_bits), min(8, lut_bits) or
            // lut_bits: narrow books stay cache-resident (a 2-bit
            // stream book needs one cache line, not 8 KiB) while the
            // small width set lets the scalar kernel group lanes of
            // equal width and share one peek shift across a whole quad.
            let tiny = lut_bits.min(4);
            let narrow = lut_bits.min(8);
            let w = if wmax_code <= tiny {
                tiny
            } else if wmax_code <= narrow {
                narrow
            } else {
                lut_bits
            };
            let shift = (lut_bits - w) as usize;
            let start = packed.len();
            base.push(start as u32);
            bits.push(w);
            // The entry at each narrowed index is the unique code whose
            // top bits match the narrow peek (len ≤ w by choice of w).
            packed.extend((0..1usize << w).map(|j| hit(entries[j << shift])));
            complete.push(packed[start..].iter().all(|&e| e & 0xFF != 0));
        }
        // Second pass: a multi-symbol level per table, always at a
        // fixed [`MULTI_BITS`]-bit window. A window of a prefix code is
        // a greedy concatenation of whole codewords plus a partial
        // tail; precomputing the run lets the hot kernel emit up to
        // [`MULTI`] symbols per lookup while consuming exactly the bits
        // sequential decode would. The window peeks the refill
        // accumulator, not the table, so it is deliberately wider than
        // narrow packed levels (a 2-bit-average stream book packs ~4
        // whole codewords into an 8-bit window but ~1.5 into a 4-bit
        // one) and narrower than wide ones — a window whose first code
        // is longer than [`MULTI_BITS`] (or escapes to the second
        // level) gets `count == 0`, which the kernel resolves through
        // the packed level instead. Rows are [`MULTI_ROW`] u32s,
        // `[(count << 8) | bits, sym0..sym3, pad..]`, so one pointer
        // and a shift reach both the metadata and the blind-copyable
        // symbol run.
        let mut multi_base = Vec::with_capacity(tables.len());
        let mut multi_good = Vec::with_capacity(tables.len());
        let mut multi = Vec::new();
        for t in 0..tables.len() {
            let w = bits[t];
            multi_base.push(multi.len() as u32);
            let mut syms_resolved = 0u64;
            let start = base[t] as usize;
            for i in 0..1u64 << MULTI_BITS {
                let mut win = i << (64 - MULTI_BITS);
                let mut used = 0u32;
                let mut row = [0u32; MULTI_ROW];
                let mut cnt = 0u32;
                while (cnt as usize) < MULTI {
                    // A prefix code matching the window's real bits is
                    // unique, so the zero-padded peek resolves it
                    // whenever it fits the bits that remain (the
                    // `used + len` guard); longer matches are refused,
                    // never trusted.
                    let e = packed[start + (win >> (64 - w)) as usize];
                    let len = e & 0xFF;
                    if len == 0 || used + len > MULTI_BITS {
                        break;
                    }
                    row[1 + cnt as usize] = e >> 8;
                    cnt += 1;
                    used += len;
                    win <<= len;
                }
                row[0] = (cnt << 8) | used;
                syms_resolved += cnt.max(1) as u64;
                multi.extend_from_slice(&row);
            }
            // A Huffman bitstream is near-incompressible, so windows
            // are close to uniformly distributed: the mean symbols per
            // lookup over all 2^MULTI_BITS windows (an escape still
            // resolves one) estimates the kernel's amortization. Below
            // ~1.5 the extra row load and escape branches cost more
            // than the packed single-symbol kernels.
            multi_good.push(syms_resolved * 2 >= 3 << MULTI_BITS);
        }
        InterleavedDecoder {
            tables,
            packed,
            base,
            bits,
            complete,
            multi_base,
            multi_good,
            multi,
        }
    }
}

/// Max symbols one multi-symbol row resolves.
const MULTI: usize = 4;

/// Window width of every multi-symbol level; a window whose first code
/// is longer gets `count == 0`.
const MULTI_BITS: u32 = 9;

/// u32s per multi-symbol row: metadata word plus [`MULTI`] symbols,
/// padded to a power of two.
const MULTI_ROW: usize = 8;
