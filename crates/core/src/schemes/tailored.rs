//! Tailored encoding (paper §2.3): an *uncompressed but compact*
//! program-specific ISA.
//!
//! Every field is shrunk to the minimum width the program actually
//! needs: opcodes and registers are densely renumbered ("if the program
//! uses less than eight floating-point operations, the FP OpCode field
//! only needs three bits; … if no more than four registers … it needs
//! only two bits"), reserved fields disappear, the speculative bit is
//! dropped when unused, and immediates/branch targets take exactly the
//! bits their largest value requires. The tail bit, OPT and OPCODE stay
//! at fixed head positions so the decoder needs no search — exactly the
//! decode-friendly regularity the paper's compiler looks for.
//!
//! The payload fields come from `tepic-isa`'s one per-kind list,
//! [`OpKind::walk`], and each opsel code's kind from
//! [`OpKind::template`]. From them the spec builds one placement table
//! per dense opsel code: the constant bits of the TEPIC word (OPT,
//! OPCODE, fixed bits), then one row per field, giving the field's
//! tailored width, its inverse map and its TEPIC bit range. The encoder
//! reads each row's range out of the TEPIC word, [`TailoredSpec::expand`]
//! writes it back, and [`crate::pla`] prints the same rows as the
//! decoder's Verilog, so the three cannot disagree.
//!
//! Decoding a tailored op yields the processor's internal signals
//! directly; no Huffman stage exists. The decoder is a compiler-emitted
//! PLA (see [`crate::pla`] for the cost model and Verilog generator).

use super::{BlockCodec, BlockDecodeError, CompressError, Scheme, SchemeOutput};
use crate::encoded::{EncodedProgram, SchemeKind};
use tepic_isa::op::{self, BitRange, Field, OpKind, OpType, Operation};
use tepic_isa::Program;
use tinker_huffman::{BitReader, BitWriter};

/// Dense renumbering of a field's used values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Remap {
    /// The used values, sorted; dense code `d` stands for `from_dense[d]`.
    from_dense: Vec<u32>,
}

impl Remap {
    fn build(mut used: Vec<u32>) -> Remap {
        used.sort_unstable();
        used.dedup();
        Remap { from_dense: used }
    }

    /// Bits needed to address every used value (0 when ≤1 value).
    pub fn width(&self) -> u32 {
        ceil_log2(self.from_dense.len())
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.from_dense.len()
    }

    /// True when no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.from_dense.is_empty()
    }

    /// Dense code of an original value.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not in the program (spec mismatch).
    pub fn enc(&self, v: u32) -> u32 {
        match self.from_dense.binary_search(&v) {
            Ok(d) => d as u32,
            Err(_) => panic!("value {v} is not in the program's renumbering"),
        }
    }

    /// Original value of a dense code.
    pub fn dec(&self, d: u32) -> Option<u32> {
        self.from_dense.get(d as usize).copied()
    }

    /// The used original values in dense order.
    pub fn values(&self) -> &[u32] {
        &self.from_dense
    }
}

fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Minimal signed width for an immediate.
fn signed_width(v: i32) -> u32 {
    if v == 0 {
        1
    } else {
        33 - (if v < 0 { !v } else { v }).leading_zeros()
    }
}

/// The `(OPT, OPCODE)` pair of `op`, keyed as `opt * 32 + opcode`.
fn opsel_key(op: &Operation) -> u32 {
    let (opt, opc) = op.opt_opcode();
    opt as u32 * 32 + opc as u32
}

fn bad(field: &'static str) -> BlockDecodeError {
    BlockDecodeError::BadValue { field }
}

/// The spec's renumbering tables of payload fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Table {
    Gpr,
    Fpr,
    Pr,
    Cond,
    Mw,
    Lat,
    Sys,
}

impl Table {
    /// The table a payload field is renumbered through, with the name a
    /// bad code of the field is reported under; `None` for the
    /// immediate, the branch target and fixed bits.
    fn of(f: &Field<'_>) -> Option<(Table, &'static str)> {
        Some(match f {
            Field::Gpr(_) => (Table::Gpr, "gpr"),
            Field::Fpr(_) => (Table::Fpr, "fpr"),
            Field::Pr(_) => (Table::Pr, "pred dest"),
            Field::Cond(_) => (Table::Cond, "cond"),
            Field::Mw(_) => (Table::Mw, "mem width"),
            Field::Lat(_) => (Table::Lat, "load latency"),
            Field::Sys(_) => (Table::Sys, "sys code"),
            Field::Imm(_) | Field::Target(_) | Field::Fixed(_) => return None,
        })
    }

    /// Short name; the Verilog inverse map is `<name>_decode`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Table::Gpr => "gpr",
            Table::Fpr => "fpr",
            Table::Pr => "pr",
            Table::Cond => "cond",
            Table::Mw => "mw",
            Table::Lat => "lat",
            Table::Sys => "sys",
        }
    }
}

/// How a row's code becomes its TEPIC field value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Map {
    /// The code is the value: tail, spec, branch target.
    Raw,
    /// The code sign-extended from its width: the immediate.
    SignExtend,
    /// The code's entry in a renumbering table; `field` names it in a
    /// [`BlockDecodeError::BadValue`].
    Table(Table, &'static str),
}

/// One field of a tailored op: its next `width` bits, mapped by `map`,
/// land in range `at` of the TEPIC word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) width: u32,
    pub(crate) map: Map,
    pub(crate) at: BitRange,
}

/// The expansion of one dense opsel code into the TEPIC word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Placement {
    /// OPT, OPCODE and the bits the format fixes for the kind.
    pub(crate) base: u64,
    /// The guard predicate's row, then one row per payload field, in
    /// stream order after the opsel code.
    pub(crate) rows: Vec<Row>,
}

/// The complete tailored ISA specification for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailoredSpec {
    /// Whether any op sets the speculative bit (else the field is
    /// dropped).
    pub spec_used: bool,
    /// Dense numbering of `(opt, opcode)` pairs, keyed as
    /// `opt * 32 + opcode`.
    pub opsel: Remap,
    /// GPR renumbering.
    pub gpr: Remap,
    /// FPR renumbering.
    pub fpr: Remap,
    /// Predicate renumbering (guards and compare destinations).
    pub pr: Remap,
    /// Condition codes used.
    pub cond: Remap,
    /// Memory widths used.
    pub mw: Remap,
    /// Load latencies used.
    pub lat: Remap,
    /// System-call codes used.
    pub sys: Remap,
    /// Immediate field width (max over all `ldi`/`ldih`).
    pub imm_width: u32,
    /// Branch target field width (⌈log₂ #blocks⌉).
    pub target_width: u32,
    /// One placement per dense `opsel` code, built from its key through
    /// [`OpKind::template`]: the PLA's programming.
    placements: Vec<Placement>,
}

impl TailoredSpec {
    /// Scans a program and computes all field widths and renumberings.
    pub fn compute(program: &Program) -> TailoredSpec {
        let mut spec_used = false;
        let mut opsel = Vec::new();
        let mut tables: [Vec<u32>; 7] = Default::default();
        let mut imm_width = 1u32;
        for op in program.ops() {
            spec_used |= op.spec;
            opsel.push(opsel_key(op));
            let word = op.encode();
            tables[Table::Pr as usize].push(op::PRED.get(word) as u32);
            op.kind.visit(|f, at| {
                if let Some((t, _)) = Table::of(&f) {
                    tables[t as usize].push(at.get(word) as u32);
                } else if let Field::Imm(v) = f {
                    imm_width = imm_width.max(signed_width(*v));
                }
            });
        }
        let [gpr, fpr, pr, cond, mw, lat, sys] = tables.map(Remap::build);
        let mut spec = TailoredSpec {
            spec_used,
            opsel: Remap::build(opsel),
            gpr,
            fpr,
            pr,
            cond,
            mw,
            lat,
            sys,
            imm_width,
            target_width: ceil_log2(program.num_blocks()).max(1),
            placements: Vec::new(),
        };
        spec.placements = spec
            .opsel
            .values()
            .iter()
            .map(|&key| spec.placement(key))
            .collect();
        spec
    }

    /// Bits of the fixed header: tail + (spec) + opsel.
    pub fn header_width(&self) -> u32 {
        1 + self.spec_used as u32 + self.opsel.width()
    }

    /// Encoded size in bits of one operation under this spec.
    pub fn op_bits(&self, op: &Operation) -> u32 {
        let mut bits = self.header_width() + self.pr.width();
        op.kind
            .visit(|f, _| bits += self.layout(&f).map_or(0, |(width, _)| width));
        bits
    }

    /// The renumbering table `t`.
    pub(crate) fn table(&self, t: Table) -> &Remap {
        match t {
            Table::Gpr => &self.gpr,
            Table::Fpr => &self.fpr,
            Table::Pr => &self.pr,
            Table::Cond => &self.cond,
            Table::Mw => &self.mw,
            Table::Lat => &self.lat,
            Table::Sys => &self.sys,
        }
    }

    /// A payload field's width and map; `None` for bits the format fixes.
    fn layout(&self, f: &Field<'_>) -> Option<(u32, Map)> {
        Some(match (Table::of(f), f) {
            (Some((t, field)), _) => (self.table(t).width(), Map::Table(t, field)),
            (None, Field::Imm(_)) => (self.imm_width, Map::SignExtend),
            (None, Field::Target(_)) => (self.target_width, Map::Raw),
            _ => return None,
        })
    }

    /// The placement of the ops whose opsel key is `key`.
    fn placement(&self, key: u32) -> Placement {
        let (opt, opcode) = (OpType::from_bits(u64::from(key / 32)), u64::from(key % 32));
        let kind = OpKind::template(opt, opcode).expect("opsel keys come from the program's ops");
        let mut base = op::OPT.place(opt as u64) | op::OPCODE.place(opcode);
        let pred = Row {
            width: self.pr.width(),
            map: Map::Table(Table::Pr, "pred"),
            at: op::PRED,
        };
        let mut rows = vec![pred];
        kind.visit(|f, at| match self.layout(&f) {
            Some((width, map)) => rows.push(Row { width, map, at }),
            None => base |= at.place(f.raw()),
        });
        Placement { base, rows }
    }

    /// The rows ahead of the opsel code: the tail bit, then the spec bit
    /// (0 bits wide when unused).
    pub(crate) fn head(&self) -> [Row; 2] {
        let raw = |width, at| Row {
            width,
            map: Map::Raw,
            at,
        };
        [raw(1, op::TAIL), raw(self.spec_used as u32, op::SPEC)]
    }

    /// The placement of each dense opsel code, in dense order.
    pub(crate) fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Writes each row's code, read out of the op's TEPIC word.
    fn encode_op(&self, op: &Operation, w: &mut BitWriter) {
        let word = op.encode();
        let opsel = self.opsel.enc(opsel_key(op));
        let code = |row: &Row| {
            let value = row.at.get(word);
            match row.map {
                Map::Table(t, _) => u64::from(self.table(t).enc(value as u32)),
                Map::Raw | Map::SignExtend => value,
            }
        };
        for row in &self.head() {
            w.write_bits(code(row), row.width);
        }
        w.write_bits(u64::from(opsel), self.opsel.width());
        for row in &self.placements[opsel as usize].rows {
            w.write_bits(code(row), row.width);
        }
    }

    /// Reads one tailored operation and expands it into its 40-bit TEPIC
    /// word, row by row through its opsel code's placement. Every table
    /// entry is a field value read out of one of the program's words, so
    /// a code inside its table always expands to a defined value.
    ///
    /// # Errors
    ///
    /// [`BlockDecodeError::Eos`] when the bits run out mid-operation,
    /// [`BlockDecodeError::BadValue`] when a dense code falls outside
    /// its renumbering table (corrupt stream or tables).
    pub fn expand(&self, r: &mut BitReader<'_>) -> Result<u64, BlockDecodeError> {
        let mut word = 0;
        for row in &self.head() {
            word |= self.place(row, r)?;
        }
        let opsel = r
            .read_bits(self.opsel.width())
            .ok_or(BlockDecodeError::Eos)?;
        let placement = self.placements.get(opsel as usize).ok_or(bad("opsel"))?;
        for row in &placement.rows {
            word |= self.place(row, r)?;
        }
        Ok(word | placement.base)
    }

    /// Reads one row's code and moves the value it stands for into the
    /// row's TEPIC range.
    fn place(&self, row: &Row, r: &mut BitReader<'_>) -> Result<u64, BlockDecodeError> {
        let code = r.read_bits(row.width).ok_or(BlockDecodeError::Eos)?;
        Ok(row.at.place(self.value(row, code)?))
    }

    /// The TEPIC field value that `code` stands for in `row`.
    pub(crate) fn value(&self, row: &Row, code: u64) -> Result<u64, BlockDecodeError> {
        Ok(match row.map {
            Map::Raw => code,
            Map::SignExtend => ((code << (64 - row.width)) as i64 >> (64 - row.width)) as u64,
            Map::Table(t, field) => u64::from(self.table(t).dec(code as u32).ok_or(bad(field))?),
        })
    }

    /// Serializes the spec's renumbering tables and field widths into a
    /// deterministic byte image — the tailored decoder's "dictionary"
    /// for integrity protection.
    pub fn table_image(&self) -> Vec<u8> {
        let mut img = Vec::new();
        img.push(self.spec_used as u8);
        img.extend_from_slice(&self.imm_width.to_le_bytes());
        img.extend_from_slice(&self.target_width.to_le_bytes());
        for remap in [
            &self.opsel,
            &self.gpr,
            &self.fpr,
            &self.pr,
            &self.cond,
            &self.mw,
            &self.lat,
            &self.sys,
        ] {
            img.extend_from_slice(&(remap.len() as u32).to_le_bytes());
            for &v in remap.values() {
                img.extend_from_slice(&v.to_le_bytes());
            }
        }
        img
    }
}

/// The tailored encoding scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct TailoredScheme;

struct TailoredCodec {
    spec: TailoredSpec,
}

impl BlockCodec for TailoredCodec {
    fn decode_block(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        let mut r = BitReader::at_bit(&image.bytes, image.block_start[b] * 8);
        let mut out = Vec::with_capacity(num_ops);
        for _ in 0..num_ops {
            out.push(self.spec.expand(&mut r)?);
        }
        Ok(out)
    }

    fn dictionary_image(&self) -> Vec<u8> {
        self.spec.table_image()
    }
}

impl Scheme for TailoredScheme {
    fn name(&self) -> String {
        "tailored".to_string()
    }

    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError> {
        if program.num_ops() == 0 {
            return Err(CompressError::EmptyProgram);
        }
        let spec = TailoredSpec::compute(program);
        let mut w = BitWriter::new();
        let mut block_start = Vec::with_capacity(program.num_blocks());
        let mut block_bytes = Vec::with_capacity(program.num_blocks());
        for b in 0..program.num_blocks() {
            w.align_byte();
            let start = w.bit_len() / 8;
            block_start.push(start);
            for op in program.block_ops(b) {
                spec.encode_op(op, &mut w);
            }
            let end = w.bit_len().div_ceil(8);
            block_bytes.push((end - start) as u32);
        }
        let decoder = crate::pla::tailored_decoder_cost(&spec);
        let image = EncodedProgram {
            kind: SchemeKind::Tailored,
            bytes: w.into_bytes(),
            block_start,
            block_bytes,
            decoder,
        };
        Ok(SchemeOutput {
            image,
            codec: Box::new(TailoredCodec { spec }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::DecoderCost;
    use crate::schemes::testutil::{sample_program, tiny_program};

    #[test]
    fn spec_widths_shrink() {
        let p = sample_program();
        let spec = TailoredSpec::compute(&p);
        assert!(
            spec.opsel.width() <= 7,
            "opsel width {}",
            spec.opsel.width()
        );
        assert!(spec.gpr.width() <= 5);
        assert!(spec.pr.width() <= 5);
        assert!(!spec.spec_used, "compiler never speculates yet");
        // The whole point: average op must be well under 40 bits.
        let total_bits: u64 = p.ops().iter().map(|o| spec.op_bits(o) as u64).sum();
        let avg = total_bits as f64 / p.num_ops() as f64;
        assert!(avg < 33.0, "average tailored op {avg} bits is not compact");
    }

    #[test]
    fn round_trips() {
        let p = sample_program();
        let out = TailoredScheme.compress(&p).unwrap();
        assert!(out.verify_roundtrip(&p));
        assert!(out.image.check_layout());
    }

    #[test]
    fn ratio_in_paper_ballpark() {
        // Paper: tailored ≈ 64% of original. Allow a generous band.
        let p = sample_program();
        let out = TailoredScheme.compress(&p).unwrap();
        let r = out.image.ratio(p.code_size());
        assert!(r > 0.3 && r < 0.9, "tailored ratio {r} out of band");
    }

    #[test]
    fn tiny_program_round_trips() {
        let p = tiny_program();
        let out = TailoredScheme.compress(&p).unwrap();
        assert!(out.verify_roundtrip(&p));
    }

    #[test]
    fn signed_width_is_minimal() {
        assert_eq!(signed_width(0), 1);
        assert_eq!(signed_width(1), 2);
        assert_eq!(signed_width(-1), 1);
        assert_eq!(signed_width(-2), 2);
        assert_eq!(signed_width(7), 4);
        assert_eq!(signed_width(-8), 4);
        assert_eq!(signed_width(i32::MAX), 32);
        assert_eq!(signed_width(i32::MIN), 32);
    }

    #[test]
    fn ceil_log2_edges() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(32), 5);
        assert_eq!(ceil_log2(33), 6);
    }

    #[test]
    fn remap_is_dense_and_ordered() {
        let r = Remap::build(vec![7, 3, 3, 31, 0]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.values(), &[0, 3, 7, 31]);
        assert_eq!(r.enc(3), 1);
        assert_eq!(r.dec(2), Some(7));
        assert_eq!(r.dec(9), None);
        assert_eq!(r.width(), 2);
    }

    #[test]
    fn decoder_cost_is_pla_and_small_vs_full() {
        let p = sample_program();
        let tailored = TailoredScheme.compress(&p).unwrap();
        assert!(matches!(tailored.image.decoder, DecoderCost::Pla { .. }));
        let full = crate::schemes::full::FullScheme::default()
            .compress(&p)
            .unwrap();
        assert!(
            tailored.image.decoder.transistors() < full.image.decoder.transistors(),
            "tailored PLA should be far smaller than the Full Huffman tree"
        );
    }
}
