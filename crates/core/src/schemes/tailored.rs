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
//! Each operation kind's payload fields are listed once, in `walk`; the
//! program scan, the sizes, the encoder, the decoder and the PLA's
//! per-opcode lengths all follow that list. The decoder dispatches on
//! the dense opsel code to a template kind taken from the program, so
//! the `(OPT, OPCODE)` numbering stays in `tepic-isa`.
//!
//! Decoding a tailored op yields the processor's internal signals
//! directly; no Huffman stage exists. The decoder is a compiler-emitted
//! PLA (see [`crate::pla`] for the cost model and Verilog generator).

use super::{BlockCodec, BlockDecodeError, CompressError, Scheme, SchemeOutput};
use crate::encoded::{EncodedProgram, SchemeKind};
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use tepic_isa::op::{BlockTarget, Cond, MemWidth, OpKind, Operation, SysCode};
use tepic_isa::regs::{Fpr, Gpr, Pr};
use tepic_isa::Program;
use tinker_huffman::{BitReader, BitWriter};

/// Dense renumbering of a field's used values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Remap {
    to_dense: HashMap<u32, u32>,
    from_dense: Vec<u32>,
}

impl Remap {
    fn build(mut used: Vec<u32>) -> Remap {
        used.sort_unstable();
        used.dedup();
        let to_dense = used
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        Remap {
            to_dense,
            from_dense: used,
        }
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
        self.to_dense[&v]
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

/// One payload field of an operation, borrowed from its [`OpKind`].
enum Field<'a> {
    Gpr(&'a mut Gpr),
    Fpr(&'a mut Fpr),
    /// A compare's predicate destination (the guard is header, not
    /// payload).
    Pr(&'a mut Pr),
    Cond(&'a mut Cond),
    Mw(&'a mut MemWidth),
    Lat(&'a mut u8),
    Sys(&'a mut SysCode),
    Imm(&'a mut i32),
    Target(&'a mut BlockTarget),
}

/// Visits the payload fields of `kind` in encode order, stopping at the
/// first error. This is the tailored ISA's one per-kind field list: the
/// scan, the sizes, the encoder, the decoder and the PLA's per-opcode
/// lengths all follow it.
fn walk<E>(kind: &mut OpKind, mut f: impl FnMut(Field<'_>) -> Result<(), E>) -> Result<(), E> {
    use Field as F;
    match kind {
        OpKind::IntAlu {
            src1, src2, dest, ..
        } => {
            f(F::Gpr(src1))?;
            f(F::Gpr(src2))?;
            f(F::Gpr(dest))
        }
        OpKind::IntCmp {
            cond,
            src1,
            src2,
            dest,
        } => {
            f(F::Gpr(src1))?;
            f(F::Gpr(src2))?;
            f(F::Cond(cond))?;
            f(F::Pr(dest))
        }
        OpKind::FloatCmp {
            cond,
            src1,
            src2,
            dest,
        } => {
            f(F::Fpr(src1))?;
            f(F::Fpr(src2))?;
            f(F::Cond(cond))?;
            f(F::Pr(dest))
        }
        OpKind::LoadImm { imm, dest, .. } => {
            f(F::Imm(imm))?;
            f(F::Gpr(dest))
        }
        OpKind::Float {
            src1, src2, dest, ..
        } => {
            f(F::Fpr(src1))?;
            f(F::Fpr(src2))?;
            f(F::Fpr(dest))
        }
        OpKind::CvtIf { src, dest } => {
            f(F::Gpr(src))?;
            f(F::Fpr(dest))
        }
        OpKind::CvtFi { src, dest } => {
            f(F::Fpr(src))?;
            f(F::Gpr(dest))
        }
        OpKind::Load {
            width,
            base,
            lat,
            dest,
        } => {
            f(F::Gpr(base))?;
            f(F::Mw(width))?;
            f(F::Lat(lat))?;
            f(F::Gpr(dest))
        }
        OpKind::Store { width, base, value } => {
            f(F::Gpr(base))?;
            f(F::Mw(width))?;
            f(F::Gpr(value))
        }
        OpKind::FLoad { base, lat, dest } => {
            f(F::Gpr(base))?;
            f(F::Lat(lat))?;
            f(F::Fpr(dest))
        }
        OpKind::FStore { base, value } => {
            f(F::Gpr(base))?;
            f(F::Fpr(value))
        }
        OpKind::Branch { target } => f(F::Target(target)),
        OpKind::Call { target, link } => {
            f(F::Target(target))?;
            f(F::Gpr(link))
        }
        OpKind::Ret { src } => f(F::Gpr(src)),
        OpKind::Halt => Ok(()),
        OpKind::Sys { code, arg } => {
            f(F::Sys(code))?;
            f(F::Gpr(arg))
        }
    }
}

/// [`walk`] over a copy of `kind`, for visitors that only read.
fn visit(mut kind: OpKind, mut f: impl FnMut(Field<'_>)) {
    let Ok(()) = walk(&mut kind, |x| {
        f(x);
        Ok::<(), Infallible>(())
    });
}

/// The `(OPT, OPCODE)` pair of `op`, keyed as `opt * 32 + opcode`.
fn opsel_key(op: &Operation) -> u32 {
    let (opt, opc) = op.opt_opcode();
    opt as u32 * 32 + opc as u32
}

fn bad(field: &'static str) -> BlockDecodeError {
    BlockDecodeError::BadValue { field }
}

/// Maps a dense register code back through `table` to a register.
fn reg<R>(
    table: &Remap,
    code: u64,
    new: fn(u8) -> Option<R>,
    field: &'static str,
) -> Result<R, BlockDecodeError> {
    table
        .dec(code as u32)
        .and_then(|v| new(v as u8))
        .ok_or(bad(field))
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
    /// The kind of the program's first op with each dense `opsel` code.
    /// Decoding copies it and overwrites every payload field, so the
    /// `(OPT, OPCODE)` → kind mapping stays in `tepic-isa`, as the PLA
    /// is programmed.
    templates: Vec<OpKind>,
}

impl TailoredSpec {
    /// Scans a program and computes all field widths and renumberings.
    pub fn compute(program: &Program) -> TailoredSpec {
        let mut spec_used = false;
        let mut templates = BTreeMap::new();
        let [mut gpr, mut fpr, mut pr, mut cond, mut mw, mut lat, mut sys]: [Vec<u32>; 7] =
            Default::default();
        let mut imm_width = 1u32;
        for op in program.ops() {
            spec_used |= op.spec;
            templates.entry(opsel_key(op)).or_insert(op.kind);
            pr.push(op.pred.index() as u32);
            visit(op.kind, |f| match f {
                Field::Gpr(r) => gpr.push(r.index() as u32),
                Field::Fpr(r) => fpr.push(r.index() as u32),
                Field::Pr(r) => pr.push(r.index() as u32),
                Field::Cond(c) => cond.push(*c as u32),
                Field::Mw(w) => mw.push(*w as u32),
                Field::Lat(l) => lat.push(*l as u32),
                Field::Sys(s) => sys.push(*s as u32),
                Field::Imm(v) => imm_width = imm_width.max(signed_width(*v)),
                Field::Target(_) => {}
            });
        }
        TailoredSpec {
            spec_used,
            opsel: Remap::build(templates.keys().copied().collect()),
            gpr: Remap::build(gpr),
            fpr: Remap::build(fpr),
            pr: Remap::build(pr),
            cond: Remap::build(cond),
            mw: Remap::build(mw),
            lat: Remap::build(lat),
            sys: Remap::build(sys),
            imm_width,
            target_width: ceil_log2(program.num_blocks()).max(1),
            templates: templates.into_values().collect(),
        }
    }

    /// Bits of the fixed header: tail + (spec) + opsel.
    pub fn header_width(&self) -> u32 {
        1 + self.spec_used as u32 + self.opsel.width()
    }

    /// Encoded size in bits of one operation under this spec.
    pub fn op_bits(&self, op: &Operation) -> u32 {
        self.kind_bits(op.kind)
    }

    /// Encoded size in bits of an op of each dense `opsel` code, in
    /// dense order: the PLA's per-opcode lengths.
    pub(crate) fn opsel_bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.templates.iter().map(|&kind| self.kind_bits(kind))
    }

    fn kind_bits(&self, kind: OpKind) -> u32 {
        let mut bits = self.header_width() + self.pr.width();
        visit(kind, |f| bits += self.width(&f));
        bits
    }

    /// Width of a field under this spec.
    fn width(&self, f: &Field<'_>) -> u32 {
        match f {
            Field::Gpr(_) => self.gpr.width(),
            Field::Fpr(_) => self.fpr.width(),
            Field::Pr(_) => self.pr.width(),
            Field::Cond(_) => self.cond.width(),
            Field::Mw(_) => self.mw.width(),
            Field::Lat(_) => self.lat.width(),
            Field::Sys(_) => self.sys.width(),
            Field::Imm(_) => self.imm_width,
            Field::Target(_) => self.target_width,
        }
    }

    /// The code a field is written as (only its low [`Self::width`] bits
    /// are stored, which sign-truncates immediates).
    fn code(&self, f: &Field<'_>) -> u64 {
        u64::from(match f {
            Field::Gpr(r) => self.gpr.enc(r.index() as u32),
            Field::Fpr(r) => self.fpr.enc(r.index() as u32),
            Field::Pr(r) => self.pr.enc(r.index() as u32),
            Field::Cond(c) => self.cond.enc(**c as u32),
            Field::Mw(w) => self.mw.enc(**w as u32),
            Field::Lat(l) => self.lat.enc(**l as u32),
            Field::Sys(s) => self.sys.enc(**s as u32),
            Field::Imm(v) => **v as u32,
            Field::Target(t) => u32::from(**t),
        })
    }

    /// Reads one field's code and stores the value it stands for,
    /// checked against the renumbering tables.
    fn read(&self, f: Field<'_>, r: &mut BitReader<'_>) -> Result<(), BlockDecodeError> {
        let code = r.read_bits(self.width(&f)).ok_or(BlockDecodeError::Eos)?;
        let dense = |table: &Remap| table.dec(code as u32);
        match f {
            Field::Gpr(x) => *x = reg(&self.gpr, code, Gpr::try_new, "gpr")?,
            Field::Fpr(x) => *x = reg(&self.fpr, code, Fpr::try_new, "fpr")?,
            Field::Pr(x) => *x = reg(&self.pr, code, Pr::try_new, "pred dest")?,
            Field::Cond(x) => {
                *x = dense(&self.cond)
                    .and_then(|v| Cond::ALL.get(v as usize).copied())
                    .ok_or(bad("cond"))?;
            }
            Field::Mw(x) => *x = dense(&self.mw).map(decode_mw).ok_or(bad("mem width"))?,
            Field::Lat(x) => *x = dense(&self.lat).ok_or(bad("load latency"))? as u8,
            Field::Sys(x) => {
                *x = match dense(&self.sys) {
                    Some(1) => SysCode::PrintInt,
                    Some(2) => SysCode::PrintChar,
                    _ => return Err(bad("sys code")),
                };
            }
            Field::Imm(x) => {
                // Sign-extend from imm_width.
                let shift = 32 - self.imm_width;
                *x = ((code as u32) << shift) as i32 >> shift;
            }
            Field::Target(x) => *x = code as BlockTarget,
        }
        Ok(())
    }

    fn encode_op(&self, op: &Operation, w: &mut BitWriter) {
        w.write_bit(op.tail);
        if self.spec_used {
            w.write_bit(op.spec);
        }
        w.write_bits(self.opsel.enc(opsel_key(op)) as u64, self.opsel.width());
        w.write_bits(self.pr.enc(op.pred.index() as u32) as u64, self.pr.width());
        visit(op.kind, |f| w.write_bits(self.code(&f), self.width(&f)));
    }

    /// Decodes one tailored operation.
    ///
    /// # Errors
    ///
    /// [`BlockDecodeError::Eos`] when the bits run out mid-operation,
    /// [`BlockDecodeError::BadValue`] when a dense field code falls
    /// outside its renumbering table (corrupt stream or tables).
    pub fn decode_op(&self, r: &mut BitReader<'_>) -> Result<Operation, BlockDecodeError> {
        let mut bits = |n| r.read_bits(n).ok_or(BlockDecodeError::Eos);
        let tail = bits(1)? != 0;
        let spec = self.spec_used && bits(1)? != 0;
        let opsel = bits(self.opsel.width())?;
        let mut kind = *self.templates.get(opsel as usize).ok_or(bad("opsel"))?;
        let pred = reg(&self.pr, bits(self.pr.width())?, Pr::try_new, "pred")?;
        walk(&mut kind, |f| self.read(f, r))?;
        Ok(Operation {
            tail,
            spec,
            pred,
            kind,
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

fn decode_mw(v: u32) -> MemWidth {
    match v {
        0 => MemWidth::Byte,
        1 => MemWidth::Half,
        2 => MemWidth::Word,
        _ => MemWidth::Double,
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
            out.push(self.spec.decode_op(&mut r)?.encode());
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
