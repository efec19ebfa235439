//! Interleaved multi-stream canonical Huffman decoding.
//!
//! A single Huffman stream decodes serially: the length of symbol *i*
//! must be known before the cursor can move to symbol *i+1*, so the
//! table-load → length-extract → consume chain of [`LutDecoder`] is one
//! long dependency chain and the CPU's out-of-order window sits idle.
//! [`InterleavedDecoder`] breaks the chain the same way the paper's
//! hardware does for the stream scheme: it keeps one [`BitReader`]
//! cursor per *lane* (an independent bitstream pinned to one table,
//! such as a per-field stream) and round-robins *bursts* of symbol
//! decodes across the lanes. Within a burst a lane runs a
//! software-pipelined hot loop — one wide refill feeds a run of
//! peek→packed-load→consume
//! steps with the cursor held in registers — and the rotation to the
//! next lane starts a chain with no data dependency on the last, so
//! refills and first-level lookups from different lanes overlap in the
//! out-of-order window instead of serializing. (One symbol per lane
//! per round maximizes overlap on paper but pays per-symbol scheduling
//! costs that dwarf the decode itself; bursts keep the overlap where
//! it matters — across refills — at ~1/[`BURST`] the scheduling cost.)
//!
//! The fast path reads a *packed* first level — `(sym << 8) | len` in a
//! flat `u32` array shared by all tables — and every miss (long code,
//! short stream, corrupt prefix, oversized symbol) delegates the whole
//! symbol to [`LutDecoder::decode_counted`] on the same cursor. Each
//! lane therefore observes exactly the sequence of symbols, cursor
//! positions, [`DecodeError`]s and [`DecodeCounters`] increments that a
//! sequential per-symbol `decode_counted` loop would produce; the
//! counters are additive, so the totals across lanes are identical too.
//! The differential proptests in `tests/proptests.rs` enforce this.

use crate::bitio::BitReader;
use crate::decode::{DecodeCounters, DecodeError};
use crate::lut::LutDecoder;

/// One independent bitstream to decode: `symbols` codewords starting at
/// `start_bit` of `bytes`, every one coded with table `table`.
#[derive(Debug, Clone, Copy)]
pub struct StreamLane<'a> {
    /// Backing buffer.
    pub bytes: &'a [u8],
    /// First bit of the lane's stream within `bytes`.
    pub start_bit: u64,
    /// Number of codewords to decode.
    pub symbols: usize,
    /// The table decoding every codeword of the lane.
    pub table: u32,
}

/// Outcome of one lane: the symbols decoded before the first error (if
/// any) and the cursor's final bit position — exactly where a
/// sequential decode of the same lane would leave it, including the
/// bits consumed by a terminal error prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneResult {
    /// Successfully decoded symbols, in stream order.
    pub syms: Vec<u32>,
    /// First decode failure, if the lane did not complete.
    pub err: Option<DecodeError>,
    /// Bit position after the last consumed bit.
    pub end_bit: u64,
}

/// Per-lane cursor state while a batch is in flight.
struct Lane<'a> {
    r: BitReader<'a>,
    out: Vec<u32>,
    total: usize,
    /// The lane's table.
    table: usize,
    err: Option<DecodeError>,
}

/// A set of [`LutDecoder`] tables plus a packed shared first level,
/// decoding many independent streams interleaved.
#[derive(Debug, Clone)]
pub struct InterleavedDecoder {
    tables: Vec<LutDecoder>,
    /// Packed first levels of all tables, concatenated: entry
    /// `(sym << 8) | len` for a code resolved within the index, else 0
    /// (delegate the symbol to [`LutDecoder::decode_counted`]).
    packed: Vec<u32>,
    /// Start of each table's packed first level within `packed`.
    base: Vec<u32>,
    /// Cached `lut_bits` of each table.
    bits: Vec<u32>,
    /// Whether every packed entry of the table resolves a symbol (a
    /// complete canonical code fitting the first level): the fast path
    /// can never miss mid-stream, so the lockstep kernel drops the
    /// per-symbol escape branch entirely.
    complete: Vec<bool>,
    /// Start of each table's multi-symbol level within `multi`.
    multi_base: Vec<u32>,
    /// Whether the table's multi level resolves enough symbols per
    /// lookup (≥ 1.5 expected over uniform windows) to beat the packed
    /// single-symbol kernels.
    multi_good: Vec<bool>,
    /// Multi-symbol level rows for every table, 2^[`MULTI_BITS`] rows
    /// of [`MULTI_ROW`] u32s each: `[(count << 8) | bits, symbols...]`
    /// for the whole codewords a window holds (`count == 0` marks a
    /// window the packed level must resolve instead).
    multi: Vec<u32>,
}

impl InterleavedDecoder {
    /// Builds a decoder over `tables`; lanes name their table by index.
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
                .map(|e| e.packed() & 0xFF)
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
            packed.extend((0..1usize << w).map(|j| entries[j << shift].packed()));
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

    /// Decodes all lanes, round-robin, one burst of up to [`BURST`]
    /// symbols per active lane per round. Returns one [`LaneResult`]
    /// per lane, in input order.
    ///
    /// Each lane behaves exactly like a sequential loop of
    /// [`LutDecoder::decode_counted`] on its table, stopping at
    /// its first error; `counts` receives the sum of every lane's
    /// increments. Lanes are independent and the counters are
    /// additive, so the burst width is unobservable in the results.
    ///
    /// # Panics
    ///
    /// If a lane pins a table out of range.
    pub fn decode_streams(
        &self,
        lanes: &[StreamLane<'_>],
        counts: &mut DecodeCounters,
    ) -> Vec<LaneResult> {
        let mut states: Vec<Lane<'_>> = lanes
            .iter()
            .map(|l| {
                let table = l.table as usize;
                assert!(table < self.tables.len(), "lane table out of range");
                Lane {
                    r: BitReader::at_bit(l.bytes, l.start_bit),
                    out: Vec::with_capacity(l.symbols),
                    total: l.symbols,
                    table,
                    err: None,
                }
            })
            .collect();

        let mut active: Vec<u32> = (0..states.len() as u32)
            .filter(|&i| states[i as usize].total > 0)
            .collect();
        // Group lanes by multi-level profitability, then packed width,
        // so each quad is uniform: multi-profitable quads take the
        // multi-symbol kernel, equal widths let the rest share one peek
        // shift. Lanes are independent and the counters additive, so
        // the scheduling order is unobservable in the results.
        active.sort_by_key(|&i| {
            let t = states[i as usize].table;
            (!self.multi_good[t], self.bits[t])
        });
        while !active.is_empty() {
            self.round(&mut states, &mut active, counts);
        }

        states
            .into_iter()
            .map(|s| LaneResult {
                syms: s.out,
                err: s.err,
                end_bit: s.r.bit_pos(),
            })
            .collect()
    }

    /// One round: active lanes run bursts in software-pipelined groups
    /// of [`PIPE`] (single leftover lanes run alone), then lanes that
    /// finish or fail compact out of `active`.
    fn round(&self, states: &mut [Lane<'_>], active: &mut Vec<u32>, counts: &mut DecodeCounters) {
        let mut idx = 0;
        while idx + PIPE <= active.len() {
            let ids = [
                active[idx] as usize,
                active[idx + 1] as usize,
                active[idx + 2] as usize,
                active[idx + 3] as usize,
            ];
            let lanes = states
                .get_disjoint_mut(ids)
                .expect("active lane ids are distinct");
            let miss = self.burst_quad_pinned(lanes, counts);
            for (j, &li) in ids.iter().enumerate() {
                if miss[j] {
                    // The quad stopped this lane on a symbol it cannot
                    // fast-path: take the slow path now so every round
                    // makes progress on the lane that stalled it.
                    self.burst(&mut states[li], counts);
                }
            }
            idx += PIPE;
        }
        for i in idx..active.len() {
            self.burst(&mut states[active[i] as usize], counts);
        }
        active.retain(|&li| {
            let st = &states[li as usize];
            st.err.is_none() && st.out.len() < st.total
        });
    }

    /// The software-pipelined quad kernel: four lanes' cursors live in
    /// locals simultaneously and each loop iteration decodes one symbol
    /// on each. A single lane's peek → packed-load → consume chain is
    /// loop-carried (~the L1 load latency per symbol); four independent
    /// chains in one body let the out-of-order core overlap them, which
    /// is the whole point of interleaving (module docs). Stops when any
    /// lane reaches its burst quota or misses the fast path; `miss[j]`
    /// tells the caller lane `j` still owes a slow-path symbol.
    ///
    /// Each lane's table, its width and its packed first level are
    /// loop-invariant, and symbol/stall counters fall out of the
    /// output-pointer and bit-position deltas after the loop, so each
    /// lane carries just six live values — little enough that the hot
    /// state stays in registers instead of spilling to the stack.
    fn burst_quad_pinned(
        &self,
        lanes: [&mut Lane<'_>; PIPE],
        counts: &mut DecodeCounters,
    ) -> [bool; PIPE] {
        // Monomorphize the stride length on the widest first level in
        // the group: G symbols decode per refill, so G * bits must fit
        // the ≥57 bits a refill guarantees.
        let maxb = lanes
            .iter()
            .map(|l| self.bits[l.table])
            .max()
            .expect("PIPE > 0");
        // Quads with enough quota headroom take the multi-symbol
        // kernel: one lookup emits up to [`MULTI`] symbols, so the
        // per-symbol uop cost (the scalar kernels' ceiling) amortizes
        // across a whole run. A kernel step consumes at most
        // `max(MULTI_BITS, maxb)` bits (a packed window or one escaped
        // code), which picks G; the kernel stops within `MULTI * G` of
        // any lane's quota because its blind row stores need that
        // slack. Partial bursts are fine — the rotation re-enters —
        // and the single-symbol tiers below finish short remainders.
        let wm = maxb.max(MULTI_BITS);
        // `G * wm` must stay within a refill's 57-bit guarantee or the
        // kernel can never satisfy its threshold.
        let multi_g = match wm {
            0..=9 => 6,
            10..=11 => 5,
            12..=14 => 4,
            15..=19 => 3,
            20..=28 => 2,
            _ => 1,
        };
        if lanes
            .iter()
            .all(|l| self.multi_good[l.table] && l.total - l.out.len() >= MULTI * multi_g)
        {
            return match multi_g {
                6 => self.burst_quad_pinned_multi_g::<6>(lanes, counts),
                5 => self.burst_quad_pinned_multi_g::<5>(lanes, counts),
                4 => self.burst_quad_pinned_multi_g::<4>(lanes, counts),
                3 => self.burst_quad_pinned_multi_g::<3>(lanes, counts),
                2 => self.burst_quad_pinned_multi_g::<2>(lanes, counts),
                _ => self.burst_quad_pinned_multi_g::<1>(lanes, counts),
            };
        }
        if maxb <= 4 {
            self.burst_quad_pinned_g::<14>(lanes, counts)
        } else if maxb <= 7 {
            self.burst_quad_pinned_g::<8>(lanes, counts)
        } else if maxb <= 8 {
            self.burst_quad_pinned_g::<7>(lanes, counts)
        } else if maxb <= 9 {
            self.burst_quad_pinned_g::<6>(lanes, counts)
        } else if maxb <= 11 {
            self.burst_quad_pinned_g::<5>(lanes, counts)
        } else if maxb <= 14 {
            self.burst_quad_pinned_g::<4>(lanes, counts)
        } else {
            self.burst_quad_pinned_g::<3>(lanes, counts)
        }
    }

    /// The strided pinned kernel: sets up per-lane cursors, hands the
    /// whole-stride portion of the shared quota to [`stride_quad`] (the
    /// register-resident hot loop), then finishes the sub-stride
    /// remainder in a checked per-symbol tail.
    fn burst_quad_pinned_g<const G: usize>(
        &self,
        lanes: [&mut Lane<'_>; PIPE],
        counts: &mut DecodeCounters,
    ) -> [bool; PIPE] {
        let [l0, l1, l2, l3] = lanes;
        let mut miss = [false; PIPE];
        macro_rules! lane_locals {
            ($l:ident => $ti:ident, $w:ident, $pt:ident, $by:ident, $p:ident, $a:ident, $n:ident, $q:ident, $os:ident) => {
                let $ti = $l.table;
                let $w = self.bits[$ti];
                // SAFETY: the packed first level of table `ti` starts at
                // base[ti] and holds 2^w entries (constructor), and every
                // peek below stays under 2^w.
                let $pt = unsafe { self.packed.as_ptr().add(self.base[$ti] as usize) };
                let ($by, $p, $a, $n) = $l.r.raw_parts();
                let $q = ($l.total - $l.out.len()).min(BURST);
                $l.out.reserve($q);
                let $os = $l.out.as_mut_ptr().wrapping_add($l.out.len());
            };
        }
        lane_locals!(l0 => ti0, w0, t0, by0, p0, a0, n0, q0, os0);
        lane_locals!(l1 => ti1, w1, t1, by1, p1, a1, n1, q1, os1);
        lane_locals!(l2 => ti2, w2, t2, by2, p2, a2, n2, q2, os2);
        lane_locals!(l3 => ti3, w3, t3, by3, p3, a3, n3, q3, os3);
        let start = [p0, p1, p2, p3];
        let k = q0.min(q1).min(q2).min(q3);

        let st = StrideLanes {
            acc: [a0, a1, a2, a3],
            nbits: [n0, n1, n2, n3],
            shift: [64 - w0, 64 - w1, 64 - w2, 64 - w3],
            bit_pos: [p0, p1, p2, p3],
            table: [t0, t1, t2, t3],
            out: [os0, os1, os2, os3],
            bytes: [by0.as_ptr(), by1.as_ptr(), by2.as_ptr(), by3.as_ptr()],
            len: [by0.len(), by1.len(), by2.len(), by3.len()],
        };
        let wmax = w0.max(w1).max(w2).max(w3);
        // Width-homogeneous quads (the common case after the sort in
        // `decode_streams`, since packed widths take only two values)
        // run the shared-shift kernel: one peek shift for the whole
        // group trims the pipeline's live values enough to keep all
        // four decode chains register-resident. When the four tables
        // are also complete codes, the lockstep kernel drops the
        // per-symbol escape branch and the per-lane output cursors too.
        let shared = w0 == w1 && w1 == w2 && w2 == w3;
        let lockstep = shared
            && self.complete[ti0]
            && self.complete[ti1]
            && self.complete[ti2]
            && self.complete[ti3];
        let (st, mask) = if lockstep {
            // Rows of a shared scratch area stand in for the four
            // output cursors (one shared counter addresses all four),
            // then whole rows copy contiguously into the lanes' vecs.
            let mut scratch = [const { core::mem::MaybeUninit::<u32>::uninit() }; PIPE * BURST];
            let sp = scratch.as_mut_ptr() as *mut u32;
            #[cfg(target_arch = "x86_64")]
            let (mut st, mask, done) = if std::arch::is_x86_feature_detected!("bmi2") {
                // SAFETY: BMI2 presence just checked.
                unsafe { stride_quad_lockstep_bmi2::<G>(st, w0, k / G, sp) }
            } else {
                stride_quad_lockstep::<G>(st, w0, k / G, sp)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let (mut st, mask, done) = stride_quad_lockstep::<G>(st, w0, k / G, sp);
            let wrote = done * G;
            for j in 0..PIPE {
                // SAFETY: every completed stride wrote G entries per
                // row, so `wrote` entries of row `j` are initialized;
                // the destination has ≥ k ≥ wrote reserved entries.
                unsafe {
                    core::ptr::copy_nonoverlapping(sp.add(j * BURST), st.out[j], wrote);
                    st.out[j] = st.out[j].add(wrote);
                }
            }
            (st, mask)
        } else {
            #[cfg(target_arch = "x86_64")]
            let r = if std::arch::is_x86_feature_detected!("bmi2") {
                // SAFETY: BMI2 presence just checked.
                unsafe {
                    if shared {
                        stride_quad_shared_bmi2::<G>(st, w0, k / G)
                    } else {
                        stride_quad_bmi2::<G>(st, wmax, k / G)
                    }
                }
            } else if shared {
                stride_quad_shared::<G>(st, w0, k / G)
            } else {
                stride_quad::<G>(st, wmax, k / G)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let r = if shared {
                stride_quad_shared::<G>(st, w0, k / G)
            } else {
                stride_quad::<G>(st, wmax, k / G)
            };
            r
        };
        let [mut a0, mut a1, mut a2, mut a3] = st.acc;
        let [mut n0, mut n1, mut n2, mut n3] = st.nbits;
        let [mut p0, mut p1, mut p2, mut p3] = st.bit_pos;
        let [mut o0, mut o1, mut o2, mut o3] = st.out;
        for (j, m) in miss.iter_mut().enumerate() {
            *m = mask & (1 << j) != 0;
        }

        // Checked tail for the sub-stride remainder of the quota (a
        // miss in the hot loop skips it: the caller's scalar path owes
        // the stalled lane its next symbol first).
        let mut left = if mask == 0 { k % G } else { 0 };
        'pipe: while left > 0 {
            macro_rules! step {
                ($j:tt, $w:ident, $pt:ident, $by:ident, $p:ident, $a:ident, $n:ident, $o:ident) => {{
                    if $n < $w {
                        crate::bitio::refill_parts($by, $p, &mut $a, &mut $n);
                        if $n < $w {
                            miss[$j] = true;
                            break 'pipe;
                        }
                    }
                    // SAFETY: as in lane_locals; writes stay within the
                    // reserved capacity.
                    let e = unsafe { *$pt.add(($a >> (64 - $w)) as usize) };
                    let len = e & 0xFF;
                    if len == 0 {
                        miss[$j] = true;
                        break 'pipe;
                    }
                    $a <<= len;
                    $n -= len;
                    $p += len as u64;
                    unsafe { *$o = e >> 8 };
                    $o = $o.wrapping_add(1);
                }};
            }
            step!(0, w0, t0, by0, p0, a0, n0, o0);
            step!(1, w1, t1, by1, p1, a1, n1, o1);
            step!(2, w2, t2, by2, p2, a2, n2, o2);
            step!(3, w3, t3, by3, p3, a3, n3, o3);
            left -= 1;
        }
        macro_rules! commit {
            ($l:ident, $i:tt, $p:ident, $a:ident, $n:ident, $o:ident, $os:ident) => {{
                $l.r.set_raw_parts($p, $a, $n);
                let written = ($o as usize - $os as usize) / core::mem::size_of::<u32>();
                // SAFETY: `written` symbols were stored past the old
                // length, within reserved capacity.
                unsafe { $l.out.set_len($l.out.len() + written) };
                counts.symbols += written as u64;
                counts.stall_bits += $p - start[$i];
            }};
        }
        commit!(l0, 0, p0, a0, n0, o0, os0);
        commit!(l1, 1, p1, a1, n1, o1, os1);
        commit!(l2, 2, p2, a2, n2, o2, os2);
        commit!(l3, 3, p3, a3, n3, o3, os3);
        miss
    }

    /// The multi-symbol pinned kernel: each lookup resolves a whole
    /// window of codewords at once (up to [`MULTI`] symbols per peek)
    /// using the precomputed multi level; windows whose first code
    /// outruns the window resolve one symbol through the packed level
    /// instead (rare for skewed books: frequent symbols carry short
    /// codes). Row stores are blind [`MULTI`]-wide copies and the
    /// output cursor advances by the entry's count. The kernel stops
    /// when any lane comes within one stride's worst-case output
    /// (`MULTI * G`) of its quota and returns the partial burst — the
    /// caller's rotation re-enters, and sub-quota remainders fall to
    /// the single-symbol tiers.
    fn burst_quad_pinned_multi_g<const G: usize>(
        &self,
        lanes: [&mut Lane<'_>; PIPE],
        counts: &mut DecodeCounters,
    ) -> [bool; PIPE] {
        let wm = lanes
            .iter()
            .map(|l| self.bits[l.table])
            .max()
            .expect("PIPE > 0")
            .max(MULTI_BITS);
        let [l0, l1, l2, l3] = lanes;
        let mut miss = [false; PIPE];
        macro_rules! lane_locals {
            ($l:ident => $mt:ident, $pt:ident, $sh:ident, $by:ident, $p:ident, $a:ident, $n:ident, $q:ident, $os:ident) => {
                let ti = $l.table;
                // SAFETY: table ti's multi level spans `multi_base[ti]
                // .. + MULTI_ROW << MULTI_BITS` (constructor) and its
                // packed level `base[ti] .. + 2^bits[ti]`; every peek
                // below stays in range.
                let $mt = unsafe { self.multi.as_ptr().add(self.multi_base[ti] as usize) };
                let $pt = unsafe { self.packed.as_ptr().add(self.base[ti] as usize) };
                let $sh = 64 - self.bits[ti];
                let ($by, $p, $a, $n) = $l.r.raw_parts();
                // A larger quota than the scalar tiers' BURST: the
                // kernel has no per-symbol escape churn to bound, so
                // longer runs just amortize call setup further. Lanes
                // stay fair because the kernel still exits when the
                // fastest lane nears its quota and the rotation
                // re-enters.
                let $q = ($l.total - $l.out.len()).min(MULTI_BURST);
                $l.out.reserve($q);
                let $os = $l.out.as_mut_ptr().wrapping_add($l.out.len());
            };
        }
        lane_locals!(l0 => mt0, pt0, sh0, by0, p0, a0, n0, q0, os0);
        lane_locals!(l1 => mt1, pt1, sh1, by1, p1, a1, n1, q1, os1);
        lane_locals!(l2 => mt2, pt2, sh2, by2, p2, a2, n2, q2, os2);
        lane_locals!(l3 => mt3, pt3, sh3, by3, p3, a3, n3, q3, os3);
        let start = [p0, p1, p2, p3];

        // A stride blind-writes up to MULTI entries per lookup but
        // advances the cursor only by the real count, so a lane must
        // keep `MULTI * G` reserved slots of headroom past its cursor:
        // strides run while every cursor is at or below its limit.
        // The caller guarantees q >= MULTI * G, so at least one stride
        // runs (or a refill miss reports immediately).
        let st = MultiLanes {
            acc: [a0, a1, a2, a3],
            nbits: [n0, n1, n2, n3],
            bit_pos: [p0, p1, p2, p3],
            multi: [mt0, mt1, mt2, mt3],
            table: [pt0, pt1, pt2, pt3],
            shift: [sh0, sh1, sh2, sh3],
            out: [os0, os1, os2, os3],
            lim: [
                os0.wrapping_add(q0 - MULTI * G),
                os1.wrapping_add(q1 - MULTI * G),
                os2.wrapping_add(q2 - MULTI * G),
                os3.wrapping_add(q3 - MULTI * G),
            ],
            bytes: [by0.as_ptr(), by1.as_ptr(), by2.as_ptr(), by3.as_ptr()],
            len: [by0.len(), by1.len(), by2.len(), by3.len()],
        };
        #[cfg(target_arch = "x86_64")]
        let (st, mask) = if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: BMI2 presence just checked.
            unsafe { stride_quad_multi_bmi2::<G>(st, wm) }
        } else {
            stride_quad_multi::<G>(st, wm)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (st, mask) = stride_quad_multi::<G>(st, wm);
        let [p0, p1, p2, p3] = st.bit_pos;
        let [a0, a1, a2, a3] = st.acc;
        let [n0, n1, n2, n3] = st.nbits;
        let [o0, o1, o2, o3] = st.out;
        for (j, m) in miss.iter_mut().enumerate() {
            *m = mask & (1 << j) != 0;
        }
        macro_rules! commit {
            ($l:ident, $i:tt, $p:ident, $a:ident, $n:ident, $o:ident, $os:ident) => {{
                $l.r.set_raw_parts($p, $a, $n);
                let written = ($o as usize - $os as usize) / core::mem::size_of::<u32>();
                // SAFETY: `written` symbols were stored past the old
                // length, within reserved capacity (see `lim` above).
                unsafe { $l.out.set_len($l.out.len() + written) };
                counts.symbols += written as u64;
                counts.stall_bits += $p - start[$i];
            }};
        }
        commit!(l0, 0, p0, a0, n0, o0, os0);
        commit!(l1, 1, p1, a1, n1, o1, os1);
        commit!(l2, 2, p2, a2, n2, o2, os2);
        commit!(l3, 3, p3, a3, n3, o3, os3);
        miss
    }

    /// Decodes up to [`BURST`] symbols on one lane before yielding the
    /// cursor back to the rotation: runs of fast-path symbols in the
    /// register-resident hot loop, each miss delegated per-symbol to
    /// the slow path between runs.
    #[inline]
    fn burst(&self, st: &mut Lane<'_>, counts: &mut DecodeCounters) {
        let goal = (st.out.len() + BURST).min(st.total);
        loop {
            if !self.burst_hot(st, counts, goal) {
                return;
            }
            // The hot loop stopped on a symbol it cannot fast-path
            // (short refill, long code, corrupt prefix): delegate that
            // one symbol whole, then resume the hot loop.
            self.step_slow(st, counts);
            if st.err.is_some() || st.out.len() >= goal {
                return;
            }
        }
    }

    /// The hot loop: the bit cursor is held in locals (via
    /// [`BitReader::raw_parts`]) and the body has no function calls,
    /// so every iteration is peek → packed load → shift/consume →
    /// store, all in registers; counter increments accumulate locally
    /// and fold on exit. Stops at `goal` (returns `false`) or on the
    /// first symbol the packed first level cannot resolve (returns
    /// `true` with the cursor committed just before that symbol, for
    /// the caller to delegate — bit-exactly [`Self::step`]'s order).
    fn burst_hot(&self, st: &mut Lane<'_>, counts: &mut DecodeCounters, goal: usize) -> bool {
        let t = st.table;
        let bits = self.bits[t];
        let (bytes, mut pos, mut acc, mut nbits) = st.r.raw_parts();
        let mut syms = 0u64;
        let mut stall = 0u64;
        let mut miss = false;
        while st.out.len() < goal {
            if nbits < bits {
                crate::bitio::refill_parts(bytes, pos, &mut acc, &mut nbits);
                if nbits < bits {
                    miss = true;
                    break;
                }
            }
            let e = self.packed[(self.base[t] + (acc >> (64 - bits)) as u32) as usize];
            let len = e & 0xFF;
            if len == 0 {
                miss = true;
                break;
            }
            acc <<= len;
            nbits -= len;
            pos += len as u64;
            syms += 1;
            stall += len as u64;
            st.out.push(e >> 8);
        }
        st.r.set_raw_parts(pos, acc, nbits);
        counts.symbols += syms;
        counts.stall_bits += stall;
        miss
    }

    /// Decodes one symbol delegated whole to
    /// [`LutDecoder::decode_counted`] (which replays the refill and
    /// table consultation bit-exactly).
    #[cold]
    fn step_slow(&self, st: &mut Lane<'_>, counts: &mut DecodeCounters) {
        match self.tables[st.table].decode_counted(&mut st.r, counts) {
            Ok(sym) => st.out.push(sym),
            Err(e) => st.err = Some(e),
        }
    }
}

/// Symbols decoded per lane per scheduling round: large enough that the
/// rotation's bookkeeping vanishes against the decode work, small
/// enough that many lanes' refills still interleave through the cache.
pub const BURST: usize = 256;

/// Lanes decoded together by the software-pipelined scalar kernel. Four
/// independent peek→load→consume chains cover the per-symbol L1 load
/// latency without spilling the pipelined cursors out of registers.
pub const PIPE: usize = 4;

/// Max symbols one multi-symbol table entry resolves. Four u32 symbols
/// are one 16-byte row — a single unaligned vector store — and stream
/// books average ~2 bits per code, so an 8-bit window rarely holds
/// more whole codewords than this.
pub const MULTI: usize = 4;

/// Window width of every multi-symbol level. Fixed rather than
/// per-table: 8 bits keeps the level at 2^8 rows (8 KiB — hot rows of
/// a skewed book stay L1-resident), packs ~4 two-bit codes per lookup,
/// and makes the peek shift shared across any quad. Codes longer than
/// this fall back to the packed level via `count == 0` entries.
const MULTI_BITS: u32 = 9;

/// u32s per multi-symbol row: metadata word plus [`MULTI`] symbols,
/// padded to a power of two so row addressing is a shift, and so
/// metadata and symbols share a cache line.
const MULTI_ROW: usize = 8;

/// Per-call quota of the multi-symbol kernel. Larger than [`BURST`]:
/// the branch-free kernel gains nothing from yielding often, so longer
/// runs amortize the per-call cursor setup across more symbols.
const MULTI_BURST: usize = 4 * BURST;

/// Cursor state of one pinned quad group, passed to [`stride_quad`] by
/// value so the optimizer scatters the arrays into locals instead of
/// keeping them behind a reference.
#[derive(Clone, Copy)]
struct StrideLanes {
    acc: [u64; PIPE],
    nbits: [u32; PIPE],
    /// Peek shift per lane: `64 - w` for the lane's packed width.
    shift: [u32; PIPE],
    bit_pos: [u64; PIPE],
    table: [*const u32; PIPE],
    out: [*mut u32; PIPE],
    bytes: [*const u8; PIPE],
    len: [usize; PIPE],
}

/// The hot loop of the pinned kernel, never inlined: its register
/// allocation must see only the ~12 live values of the pipeline (four
/// lanes' `acc`/`nbits`/output cursor plus the shared shift), not the
/// caller's bookkeeping — inlined into the kernel's prologue/epilogue
/// the accumulators spill to the stack and the four decode chains
/// serialize on the reloads.
///
/// Each outer iteration tops every lane up once (a refill buffers ≥57
/// bits, covering `G` codes of up to `w` bits), then decodes `G`
/// symbols per lane with the escape on a second-level/invalid entry as
/// the only per-symbol branch. Bit positions are recovered from the
/// buffered-bit deltas at stride boundaries. Returns the updated
/// cursors and a bitmask of lanes that missed the fast path (the caller
/// owes them a checked/slow-path symbol).
#[inline(never)]
fn stride_quad<const G: usize>(st: StrideLanes, wmax: u32, strides: usize) -> (StrideLanes, u8) {
    stride_quad_impl::<G>(st, wmax, strides)
}

/// [`stride_quad`] compiled with BMI2: `shlx`/`shrx` carry no
/// FLAGS-merge dependency, so the four lanes' variable shifts stop
/// serializing through the flags register (plain `shl %cl` must
/// preserve flags when `cl == 0`, chaining every shift in the loop).
/// Same Rust body, so bit-identical results; callers runtime-detect.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "bmi2")]
unsafe fn stride_quad_bmi2<const G: usize>(
    st: StrideLanes,
    wmax: u32,
    strides: usize,
) -> (StrideLanes, u8) {
    stride_quad_impl::<G>(st, wmax, strides)
}

#[inline(always)]
fn stride_quad_impl<const G: usize>(
    mut st: StrideLanes,
    wmax: u32,
    strides: usize,
) -> (StrideLanes, u8) {
    // One threshold for all lanes: a refill covering G codes of the
    // group's widest table covers every lane's.
    let thresh = G as u32 * wmax;
    let mut mask = 0u8;
    let [mut a0, mut a1, mut a2, mut a3] = st.acc;
    let [mut n0, mut n1, mut n2, mut n3] = st.nbits;
    let [s0, s1, s2, s3] = st.shift;
    let [t0, t1, t2, t3] = st.table;
    let [mut o0, mut o1, mut o2, mut o3] = st.out;
    'strides: for _ in 0..strides {
        macro_rules! ensure {
            ($j:tt, $a:ident, $n:ident) => {{
                if $n < thresh {
                    // SAFETY: pointer and length of a byte slice the
                    // caller holds borrowed for the whole call.
                    let by = unsafe { core::slice::from_raw_parts(st.bytes[$j], st.len[$j]) };
                    crate::bitio::refill_parts(by, st.bit_pos[$j], &mut $a, &mut $n);
                    if $n < thresh {
                        mask |= 1 << $j;
                    }
                }
            }};
        }
        ensure!(0, a0, n0);
        ensure!(1, a1, n1);
        ensure!(2, a2, n2);
        ensure!(3, a3, n3);
        if mask != 0 {
            break 'strides;
        }
        let m = [n0, n1, n2, n3];
        'steps: for _ in 0..G {
            macro_rules! step {
                ($j:tt, $a:ident, $n:ident, $s:ident, $t:ident, $o:ident) => {{
                    // SAFETY: peek < 2^w, within the table's packed
                    // first level; at most `strides * G` symbols are
                    // written, within the capacity the caller reserved.
                    let e = unsafe { *$t.add(($a >> $s) as usize) };
                    let len = e & 0xFF;
                    if len == 0 {
                        mask |= 1 << $j;
                        break 'steps;
                    }
                    $a <<= len;
                    $n -= len;
                    unsafe { *$o = e >> 8 };
                    $o = $o.wrapping_add(1);
                }};
            }
            step!(0, a0, n0, s0, t0, o0);
            step!(1, a1, n1, s1, t1, o1);
            step!(2, a2, n2, s2, t2, o2);
            step!(3, a3, n3, s3, t3, o3);
        }
        // Buffered bits only shrink between refills, so the delta is
        // exactly the bits each lane consumed this stride.
        st.bit_pos[0] += (m[0] - n0) as u64;
        st.bit_pos[1] += (m[1] - n1) as u64;
        st.bit_pos[2] += (m[2] - n2) as u64;
        st.bit_pos[3] += (m[3] - n3) as u64;
        if mask != 0 {
            break 'strides;
        }
    }
    st.acc = [a0, a1, a2, a3];
    st.nbits = [n0, n1, n2, n3];
    st.out = [o0, o1, o2, o3];
    (st, mask)
}

/// [`stride_quad`] for a width-homogeneous quad: one peek shift serves
/// all four lanes, dropping the pipeline from ~20 live values (which
/// forces per-symbol stack reloads of the spilled shifts and cursors)
/// to few enough that the accumulators and table pointers stay in
/// registers. Identical per-lane behaviour — the shift is the same
/// value the per-lane kernel would load.
#[inline(never)]
fn stride_quad_shared<const G: usize>(
    st: StrideLanes,
    w: u32,
    strides: usize,
) -> (StrideLanes, u8) {
    stride_quad_shared_impl::<G>(st, w, strides)
}

/// [`stride_quad_shared`] compiled with BMI2; see [`stride_quad_bmi2`].
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "bmi2")]
unsafe fn stride_quad_shared_bmi2<const G: usize>(
    st: StrideLanes,
    w: u32,
    strides: usize,
) -> (StrideLanes, u8) {
    stride_quad_shared_impl::<G>(st, w, strides)
}

#[inline(always)]
fn stride_quad_shared_impl<const G: usize>(
    mut st: StrideLanes,
    w: u32,
    strides: usize,
) -> (StrideLanes, u8) {
    let thresh = G as u32 * w;
    let s = 64 - w;
    let mut mask = 0u8;
    let [mut a0, mut a1, mut a2, mut a3] = st.acc;
    let [mut n0, mut n1, mut n2, mut n3] = st.nbits;
    let [t0, t1, t2, t3] = st.table;
    let [mut o0, mut o1, mut o2, mut o3] = st.out;
    'strides: for _ in 0..strides {
        macro_rules! ensure {
            ($j:tt, $a:ident, $n:ident) => {{
                if $n < thresh {
                    // SAFETY: pointer and length of a byte slice the
                    // caller holds borrowed for the whole call.
                    let by = unsafe { core::slice::from_raw_parts(st.bytes[$j], st.len[$j]) };
                    crate::bitio::refill_parts(by, st.bit_pos[$j], &mut $a, &mut $n);
                    if $n < thresh {
                        mask |= 1 << $j;
                    }
                }
            }};
        }
        ensure!(0, a0, n0);
        ensure!(1, a1, n1);
        ensure!(2, a2, n2);
        ensure!(3, a3, n3);
        if mask != 0 {
            break 'strides;
        }
        let m = [n0, n1, n2, n3];
        'steps: for _ in 0..G {
            macro_rules! step {
                ($j:tt, $a:ident, $n:ident, $t:ident, $o:ident) => {{
                    // SAFETY: peek < 2^w, within the table's packed
                    // first level; at most `strides * G` symbols are
                    // written, within the capacity the caller reserved.
                    let e = unsafe { *$t.add(($a >> s) as usize) };
                    let len = e & 0xFF;
                    if len == 0 {
                        mask |= 1 << $j;
                        break 'steps;
                    }
                    $a <<= len;
                    $n -= len;
                    unsafe { *$o = e >> 8 };
                    $o = $o.wrapping_add(1);
                }};
            }
            step!(0, a0, n0, t0, o0);
            step!(1, a1, n1, t1, o1);
            step!(2, a2, n2, t2, o2);
            step!(3, a3, n3, t3, o3);
        }
        // Buffered bits only shrink between refills, so the delta is
        // exactly the bits each lane consumed this stride.
        st.bit_pos[0] += (m[0] - n0) as u64;
        st.bit_pos[1] += (m[1] - n1) as u64;
        st.bit_pos[2] += (m[2] - n2) as u64;
        st.bit_pos[3] += (m[3] - n3) as u64;
        if mask != 0 {
            break 'strides;
        }
    }
    st.acc = [a0, a1, a2, a3];
    st.nbits = [n0, n1, n2, n3];
    st.out = [o0, o1, o2, o3];
    (st, mask)
}

/// [`stride_quad_shared`] for quads whose four tables are *complete*
/// codes fitting their packed first level: no packed entry has length
/// zero, so the per-symbol escape branch of the other kernels is
/// provably dead — a sequential decode of the same lane could not take
/// it either — and every lane advances exactly `G` symbols per stride
/// in lockstep. That lets one shared counter address all four outputs
/// as rows of `scratch` (row `j` starts at `j * BURST`), shrinking the
/// loop to table-load → shift/consume → store per symbol with no
/// branch and few enough live values that nothing spills. Only the
/// refill guard can stop the loop early; it stops whole strides, so
/// every row holds exactly `done * G` symbols for the caller to copy
/// out. Returns the updated cursors, the refill-miss mask, and the
/// number of completed strides.
#[inline(never)]
fn stride_quad_lockstep<const G: usize>(
    st: StrideLanes,
    w: u32,
    strides: usize,
    scratch: *mut u32,
) -> (StrideLanes, u8, usize) {
    stride_quad_lockstep_impl::<G>(st, w, strides, scratch)
}

/// [`stride_quad_lockstep`] compiled with BMI2; see [`stride_quad_bmi2`].
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "bmi2")]
unsafe fn stride_quad_lockstep_bmi2<const G: usize>(
    st: StrideLanes,
    w: u32,
    strides: usize,
    scratch: *mut u32,
) -> (StrideLanes, u8, usize) {
    stride_quad_lockstep_impl::<G>(st, w, strides, scratch)
}

#[inline(always)]
fn stride_quad_lockstep_impl<const G: usize>(
    mut st: StrideLanes,
    w: u32,
    strides: usize,
    scratch: *mut u32,
) -> (StrideLanes, u8, usize) {
    let thresh = G as u32 * w;
    let s = 64 - w;
    let mut mask = 0u8;
    let mut done = 0usize;
    let mut c = 0usize;
    let [mut a0, mut a1, mut a2, mut a3] = st.acc;
    let [mut n0, mut n1, mut n2, mut n3] = st.nbits;
    let [t0, t1, t2, t3] = st.table;
    'strides: for _ in 0..strides {
        macro_rules! ensure {
            ($j:tt, $a:ident, $n:ident) => {{
                if $n < thresh {
                    // SAFETY: pointer and length of a byte slice the
                    // caller holds borrowed for the whole call.
                    let by = unsafe { core::slice::from_raw_parts(st.bytes[$j], st.len[$j]) };
                    crate::bitio::refill_parts(by, st.bit_pos[$j], &mut $a, &mut $n);
                    if $n < thresh {
                        mask |= 1 << $j;
                    }
                }
            }};
        }
        ensure!(0, a0, n0);
        ensure!(1, a1, n1);
        ensure!(2, a2, n2);
        ensure!(3, a3, n3);
        if mask != 0 {
            break 'strides;
        }
        let m = [n0, n1, n2, n3];
        for _ in 0..G {
            macro_rules! step {
                ($j:tt, $a:ident, $n:ident, $t:ident) => {{
                    // SAFETY: peek < 2^w, within the table's packed
                    // first level; c stays below BURST (≤ strides * G ≤
                    // the caller's quota), within row `j` of scratch.
                    let e = unsafe { *$t.add(($a >> s) as usize) };
                    let len = e & 0xFF;
                    // A complete table has 1 ≤ len ≤ w for every entry
                    // (constructor), so the step cannot miss and the
                    // G·w ≤ `thresh` bits checked above cover the whole
                    // stride.
                    $a <<= len;
                    $n -= len;
                    unsafe { *scratch.add($j * BURST + c) = e >> 8 };
                }};
            }
            step!(0, a0, n0, t0);
            step!(1, a1, n1, t1);
            step!(2, a2, n2, t2);
            step!(3, a3, n3, t3);
            c += 1;
        }
        // Buffered bits only shrink between refills, so the delta is
        // exactly the bits each lane consumed this stride.
        st.bit_pos[0] += (m[0] - n0) as u64;
        st.bit_pos[1] += (m[1] - n1) as u64;
        st.bit_pos[2] += (m[2] - n2) as u64;
        st.bit_pos[3] += (m[3] - n3) as u64;
        done += 1;
    }
    st.acc = [a0, a1, a2, a3];
    st.nbits = [n0, n1, n2, n3];
    (st, mask, done)
}

/// Cursor state of a pinned quad running the multi-symbol kernel.
#[derive(Clone, Copy)]
struct MultiLanes {
    acc: [u64; PIPE],
    nbits: [u32; PIPE],
    bit_pos: [u64; PIPE],
    /// Multi-symbol level per lane: [`MULTI_ROW`]-u32 rows.
    multi: [*const u32; PIPE],
    /// Packed single-symbol level per lane, for escaped windows.
    table: [*const u32; PIPE],
    /// Packed-level peek shift per lane: `64 - bits`.
    shift: [u32; PIPE],
    out: [*mut u32; PIPE],
    /// Highest cursor value at which a stride may still start: one
    /// stride past it blind-writes at most to the end of the lane's
    /// reserved quota.
    lim: [*mut u32; PIPE],
    bytes: [*const u8; PIPE],
    len: [usize; PIPE],
}

/// The multi-symbol hot loop (see [`stride_quad`] for the `inline`
/// split rationale): one [`MULTI_BITS`]-bit peek per *window*, not per
/// symbol. The row carries the count and total length of every whole
/// codeword in the window, so the common step is load row, blind-copy
/// its [`MULTI`]-wide symbol run, shift/consume, bump the cursor by the
/// count — no per-symbol work at all. A `count == 0` row (first code
/// longer than the window) resolves one symbol through the packed
/// level, where an unresolved (second-level/invalid) entry is the only
/// miss exit. Strides stop on the quota limit or a refill shortfall;
/// bit positions fall out of buffered-bit deltas as in the other
/// kernels.
#[inline(never)]
fn stride_quad_multi<const G: usize>(st: MultiLanes, w: u32) -> (MultiLanes, u8) {
    stride_quad_multi_impl::<G>(st, w)
}

/// [`stride_quad_multi`] compiled with BMI2; see [`stride_quad_bmi2`].
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "bmi2")]
unsafe fn stride_quad_multi_bmi2<const G: usize>(st: MultiLanes, w: u32) -> (MultiLanes, u8) {
    stride_quad_multi_impl::<G>(st, w)
}

#[inline(always)]
fn stride_quad_multi_impl<const G: usize>(mut st: MultiLanes, w: u32) -> (MultiLanes, u8) {
    // A step consumes at most `w = max(MULTI_BITS, packed width)` bits
    // (a whole window, or one escaped code), so a refill covering G
    // codes of `w` bits covers a stride.
    let thresh = G as u32 * w;
    const SM: u32 = 64 - MULTI_BITS;
    let mut mask = 0u8;
    let [mut a0, mut a1, mut a2, mut a3] = st.acc;
    let [mut n0, mut n1, mut n2, mut n3] = st.nbits;
    let [t0, t1, t2, t3] = st.multi;
    let [mut o0, mut o1, mut o2, mut o3] = st.out;
    let [l0, l1, l2, l3] = st.lim;
    'strides: loop {
        // Quota guard: a stride advances each cursor by at most
        // MULTI * G, so past `lim` the next stride could overrun the
        // reserved output.
        if o0 > l0 || o1 > l1 || o2 > l2 || o3 > l3 {
            break 'strides;
        }
        macro_rules! ensure {
            ($j:tt, $a:ident, $n:ident) => {{
                if $n < thresh {
                    // SAFETY: pointer and length of a byte slice the
                    // caller holds borrowed for the whole call.
                    let by = unsafe { core::slice::from_raw_parts(st.bytes[$j], st.len[$j]) };
                    crate::bitio::refill_parts(by, st.bit_pos[$j], &mut $a, &mut $n);
                    if $n < thresh {
                        mask |= 1 << $j;
                    }
                }
            }};
        }
        ensure!(0, a0, n0);
        ensure!(1, a1, n1);
        ensure!(2, a2, n2);
        ensure!(3, a3, n3);
        if mask != 0 {
            break 'strides;
        }
        let m = [n0, n1, n2, n3];
        'steps: for _ in 0..G {
            macro_rules! step {
                ($j:tt, $a:ident, $n:ident, $t:ident, $o:ident) => {{
                    // SAFETY: the window peek indexes one of the 2^8
                    // MULTI_ROW-wide rows of the lane's multi level;
                    // the blind MULTI-wide copy stays within the
                    // reserved quota because the cursor was at or under
                    // `lim` when the stride began and each of the G
                    // steps advances it by at most MULTI.
                    let r = unsafe { $t.add(($a >> SM) as usize * MULTI_ROW) };
                    let e = unsafe { *r };
                    let cnt = (e >> 8) as usize;
                    if cnt != 0 {
                        unsafe { core::ptr::copy_nonoverlapping(r.add(1), $o, MULTI) };
                        $a <<= e & 0xFF;
                        $n -= e & 0xFF;
                        $o = $o.wrapping_add(cnt);
                    } else {
                        // Escaped window: one symbol through the packed
                        // level (in-bounds as in `stride_quad`).
                        let e2 = unsafe { *st.table[$j].add(($a >> st.shift[$j]) as usize) };
                        let len = e2 & 0xFF;
                        if len == 0 {
                            mask |= 1 << $j;
                            break 'steps;
                        }
                        $a <<= len;
                        $n -= len;
                        unsafe { *$o = e2 >> 8 };
                        $o = $o.wrapping_add(1);
                    }
                }};
            }
            step!(0, a0, n0, t0, o0);
            step!(1, a1, n1, t1, o1);
            step!(2, a2, n2, t2, o2);
            step!(3, a3, n3, t3, o3);
        }
        // Buffered bits only shrink between refills, so the delta is
        // exactly the bits each lane consumed this stride.
        st.bit_pos[0] += (m[0] - n0) as u64;
        st.bit_pos[1] += (m[1] - n1) as u64;
        st.bit_pos[2] += (m[2] - n2) as u64;
        st.bit_pos[3] += (m[3] - n3) as u64;
        if mask != 0 {
            break 'strides;
        }
    }
    st.acc = [a0, a1, a2, a3];
    st.nbits = [n0, n1, n2, n3];
    st.out = [o0, o1, o2, o3];
    (st, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::code::CodeBook;

    /// Sequential model: per-symbol `decode_counted` on the lane's
    /// table, stopping at the first error.
    fn decode_lane_sequential(
        dec: &InterleavedDecoder,
        lane: &StreamLane<'_>,
        counts: &mut DecodeCounters,
    ) -> LaneResult {
        let mut r = BitReader::at_bit(lane.bytes, lane.start_bit);
        let mut syms = Vec::new();
        let mut err = None;
        for _ in 0..lane.symbols {
            match dec.tables[lane.table as usize].decode_counted(&mut r, counts) {
                Ok(s) => syms.push(s),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        LaneResult {
            syms,
            err,
            end_bit: r.bit_pos(),
        }
    }

    fn assert_matches_sequential(dec: &InterleavedDecoder, lanes: &[StreamLane<'_>]) {
        let mut ic = DecodeCounters::default();
        let got = dec.decode_streams(lanes, &mut ic);
        let mut sc = DecodeCounters::default();
        let want: Vec<LaneResult> = lanes
            .iter()
            .map(|l| decode_lane_sequential(dec, l, &mut sc))
            .collect();
        assert_eq!(got, want);
        assert_eq!(ic, sc, "counter totals diverge");
    }

    fn book(freqs: &[u64]) -> CodeBook {
        CodeBook::from_freqs(freqs).unwrap()
    }

    fn encode(book: &CodeBook, syms: &[u32]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &s in syms {
            book.encode_into(s, &mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn pinned_lanes_match_sequential() {
        let b0 = book(&[40, 20, 10, 5, 2, 1]);
        let b1 = book(&[1, 1, 3, 9, 27]);
        let dec = InterleavedDecoder::new(vec![b0.lut_decoder(), b1.lut_decoder()]);
        let m0: Vec<u32> = (0..6).cycle().take(101).collect();
        let m1: Vec<u32> = (0..5).rev().cycle().take(57).collect();
        let s0 = encode(&b0, &m0);
        let s1 = encode(&b1, &m1);
        let lanes = [
            StreamLane {
                bytes: &s0,
                start_bit: 0,
                symbols: m0.len(),
                table: 0,
            },
            StreamLane {
                bytes: &s1,
                start_bit: 0,
                symbols: m1.len(),
                table: 1,
            },
        ];
        let mut c = DecodeCounters::default();
        let res = dec.decode_streams(&lanes, &mut c);
        assert_eq!(res[0].syms, m0);
        assert_eq!(res[1].syms, m1);
        assert!(res.iter().all(|r| r.err.is_none()));
        assert_eq!(c.symbols, (m0.len() + m1.len()) as u64);
        assert_matches_sequential(&dec, &lanes);
    }

    #[test]
    fn long_codes_and_garbage_match_sequential() {
        // Exponential freqs force codes past the first level.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << i).collect();
        let b = book(&freqs);
        assert!(b.max_len() > crate::lut::DEFAULT_LUT_BITS as u8);
        let dec = InterleavedDecoder::new(vec![b.lut_decoder()]);
        let msg: Vec<u32> = (0..30).chain((0..30).rev()).collect();
        let good = encode(&b, &msg);
        // Deterministic garbage.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let junk: Vec<u8> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            let lanes = [
                StreamLane {
                    bytes: &good,
                    start_bit: 0,
                    symbols: msg.len(),
                    table: 0,
                },
                // Over-ask: runs off the end of the good stream.
                StreamLane {
                    bytes: &good,
                    start_bit: start,
                    symbols: msg.len() + 4,
                    table: 0,
                },
                StreamLane {
                    bytes: &junk,
                    start_bit: start,
                    symbols: 1000,
                    table: 0,
                },
            ];
            assert_matches_sequential(&dec, &lanes);
        }
    }

    #[test]
    fn truncated_and_empty_lanes() {
        let b = book(&[1, 1, 1, 1]);
        let dec = InterleavedDecoder::new(vec![b.lut_decoder()]);
        let bytes = encode(&b, &[0, 1, 2, 3]);
        let lanes = [
            StreamLane {
                bytes: &[],
                start_bit: 0,
                symbols: 3,
                table: 0,
            },
            StreamLane {
                bytes: &bytes,
                start_bit: 0,
                symbols: 0,
                table: 0,
            },
            StreamLane {
                bytes: &bytes,
                start_bit: 7,
                symbols: 9,
                table: 0,
            },
        ];
        let mut c = DecodeCounters::default();
        let res = dec.decode_streams(&lanes, &mut c);
        assert_eq!(res[0].err, Some(DecodeError::UnexpectedEos { at_bit: 0 }));
        assert_eq!(
            res[1],
            LaneResult {
                syms: vec![],
                err: None,
                end_bit: 0
            }
        );
        assert_matches_sequential(&dec, &lanes);
    }

    #[test]
    fn many_lanes_shared_buffer_interleave() {
        // 32 lanes carved from one shared buffer at staggered bit offsets.
        let b = book(&[13, 7, 5, 3, 2, 1, 1, 1]);
        let dec = InterleavedDecoder::new(vec![b.lut_decoder()]);
        let mut w = BitWriter::new();
        let mut starts = Vec::new();
        let mut msgs: Vec<Vec<u32>> = Vec::new();
        for lane in 0..32u32 {
            starts.push(w.bit_len());
            let msg: Vec<u32> = (0..(lane % 17 + 1)).map(|i| (i * 5 + lane) % 8).collect();
            for &s in &msg {
                b.encode_into(s, &mut w);
            }
            msgs.push(msg);
        }
        let bytes = w.into_bytes();
        let lanes: Vec<StreamLane<'_>> = starts
            .iter()
            .zip(&msgs)
            .map(|(&start_bit, m)| StreamLane {
                bytes: &bytes,
                start_bit,
                symbols: m.len(),
                table: 0,
            })
            .collect();
        let mut c = DecodeCounters::default();
        let res = dec.decode_streams(&lanes, &mut c);
        for (r, m) in res.iter().zip(&msgs) {
            assert_eq!(&r.syms, m);
            assert_eq!(r.err, None);
        }
        assert_matches_sequential(&dec, &lanes);
    }

    #[test]
    fn counters_fold_across_lanes() {
        let b = book(&[8, 4, 2, 1]);
        let dec = InterleavedDecoder::new(vec![b.lut_decoder()]);
        let m: Vec<u32> = (0..4).cycle().take(25).collect();
        let bytes = encode(&b, &m);
        let lane = StreamLane {
            bytes: &bytes,
            start_bit: 0,
            symbols: m.len(),
            table: 0,
        };
        let mut c = DecodeCounters::default();
        dec.decode_streams(&[lane, lane, lane], &mut c);
        let mut one = DecodeCounters::default();
        dec.decode_streams(&[lane], &mut one);
        assert_eq!(c.symbols, 3 * one.symbols);
        assert_eq!(c.stall_bits, 3 * one.stall_bits);
        assert_eq!(c.long_fallbacks, 3 * one.long_fallbacks);
    }
}
