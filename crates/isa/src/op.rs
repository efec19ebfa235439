//! Typed TEPIC operations and their 40-bit binary encoding.
//!
//! Every operation is 40 bits. Bit 0 holds the tail bit `T` (zero-NOP MOP
//! delimiter), bit 1 the speculative bit `S`, bits 2..=3 the operation type
//! `OPT`, bits 4..=8 the 5-bit `OPCODE` and bits 35..=39 the guard
//! predicate ([`TAIL`], [`SPEC`], [`OPT`], [`OPCODE`], [`PRED`]). The
//! payload between them is laid out per format as in the paper's Appendix
//! Table 2 ([`crate::format`] prints that table).
//!
//! [`OpKind::walk`] is the one list of each kind's payload fields and
//! their bit ranges, and [`OpKind::template`] the one `(OPT, OPCODE)` →
//! kind table. [`Operation::encode`], [`Operation::decode`] and the
//! tailored ISA's encoder, decoder and Verilog all read those two.
//!
//! Branch targets are *block indices* into the program's Address Translation
//! Table rather than byte addresses — an isomorphic choice documented in
//! DESIGN.md §4 that keeps the 16-bit target field of the branch format
//! sufficient for every workload.

use crate::regs::{Fpr, Gpr, Pr};
use std::convert::Infallible;
use std::fmt;

/// A bit range of the 40-bit word: `width` bits from bit `off`
/// (LSB-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitRange {
    /// Offset of the range's lowest bit.
    pub off: u32,
    /// Width in bits.
    pub width: u32,
}

impl BitRange {
    /// The range's bits of `word`, right-aligned.
    #[inline]
    pub fn get(self, word: u64) -> u64 {
        (word >> self.off) & ((1u64 << self.width) - 1)
    }

    /// The low `width` bits of `value`, moved into the range.
    #[inline]
    pub fn place(self, value: u64) -> u64 {
        (value & ((1u64 << self.width) - 1)) << self.off
    }
}

/// The tail bit `T`, shared by every format.
pub const TAIL: BitRange = BitRange { off: 0, width: 1 };
/// The speculative bit `S`.
pub const SPEC: BitRange = BitRange { off: 1, width: 1 };
/// The operation type `OPT`.
pub const OPT: BitRange = BitRange { off: 2, width: 2 };
/// The `OPCODE` within its operation type.
pub const OPCODE: BitRange = BitRange { off: 4, width: 5 };
/// The guard predicate.
pub const PRED: BitRange = BitRange { off: 35, width: 5 };

/// Operation type — the 2-bit `OPT` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpType {
    /// Integer ALU, compares and immediates.
    Int = 0,
    /// Floating point.
    Float = 1,
    /// Memory (loads and stores).
    Mem = 2,
    /// Control transfer and system operations.
    Ctrl = 3,
}

impl OpType {
    /// Decodes the 2-bit `OPT` field.
    pub fn from_bits(v: u64) -> OpType {
        match v & 0b11 {
            0 => OpType::Int,
            1 => OpType::Float,
            2 => OpType::Mem,
            _ => OpType::Ctrl,
        }
    }
}

/// Integer ALU opcodes (OPT = `Int`, `IntAlu` format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum IntOpcode {
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
    Rem = 4,
    And = 5,
    Or = 6,
    Xor = 7,
    Shl = 8,
    Shr = 9,
    Sra = 10,
    /// `dest = src1` (register move; `src2` ignored).
    Mov = 11,
    /// `dest = !src1` (bitwise complement; `src2` ignored).
    Not = 12,
    Min = 13,
    Max = 14,
}

impl IntOpcode {
    /// All integer ALU opcodes.
    pub const ALL: [IntOpcode; 15] = [
        IntOpcode::Add,
        IntOpcode::Sub,
        IntOpcode::Mul,
        IntOpcode::Div,
        IntOpcode::Rem,
        IntOpcode::And,
        IntOpcode::Or,
        IntOpcode::Xor,
        IntOpcode::Shl,
        IntOpcode::Shr,
        IntOpcode::Sra,
        IntOpcode::Mov,
        IntOpcode::Not,
        IntOpcode::Min,
        IntOpcode::Max,
    ];

    fn from_bits(v: u64) -> Option<IntOpcode> {
        Self::ALL.get(v as usize).copied()
    }

    /// Lowercase mnemonic, e.g. `"add"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntOpcode::Add => "add",
            IntOpcode::Sub => "sub",
            IntOpcode::Mul => "mul",
            IntOpcode::Div => "div",
            IntOpcode::Rem => "rem",
            IntOpcode::And => "and",
            IntOpcode::Or => "or",
            IntOpcode::Xor => "xor",
            IntOpcode::Shl => "shl",
            IntOpcode::Shr => "shr",
            IntOpcode::Sra => "sra",
            IntOpcode::Mov => "mov",
            IntOpcode::Not => "not",
            IntOpcode::Min => "min",
            IntOpcode::Max => "max",
        }
    }
}

/// Secondary opcodes under OPT = `Int` that use non-ALU formats.
pub(crate) mod int_secondary {
    /// Compare-to-predicate (`IntCmp` format).
    pub const CMPP: u64 = 16;
    /// Load 20-bit sign-extended immediate (`LoadImm` format).
    pub const LDI: u64 = 17;
    /// Load 20-bit immediate shifted left by 12 (`LoadImm` format).
    pub const LDIH: u64 = 18;
}

/// Floating-point arithmetic opcodes (OPT = `Float`, `Float` format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum FloatOpcode {
    Fadd = 0,
    Fsub = 1,
    Fmul = 2,
    Fdiv = 3,
    /// `dest = -src1` (`src2` ignored).
    Fneg = 4,
    /// `dest = |src1|` (`src2` ignored).
    Fabs = 5,
    Fmin = 6,
    Fmax = 7,
    /// `dest = src1` (`src2` ignored).
    Fmov = 8,
}

impl FloatOpcode {
    /// All floating-point arithmetic opcodes.
    pub const ALL: [FloatOpcode; 9] = [
        FloatOpcode::Fadd,
        FloatOpcode::Fsub,
        FloatOpcode::Fmul,
        FloatOpcode::Fdiv,
        FloatOpcode::Fneg,
        FloatOpcode::Fabs,
        FloatOpcode::Fmin,
        FloatOpcode::Fmax,
        FloatOpcode::Fmov,
    ];

    fn from_bits(v: u64) -> Option<FloatOpcode> {
        Self::ALL.get(v as usize).copied()
    }

    /// Lowercase mnemonic, e.g. `"fadd"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatOpcode::Fadd => "fadd",
            FloatOpcode::Fsub => "fsub",
            FloatOpcode::Fmul => "fmul",
            FloatOpcode::Fdiv => "fdiv",
            FloatOpcode::Fneg => "fneg",
            FloatOpcode::Fabs => "fabs",
            FloatOpcode::Fmin => "fmin",
            FloatOpcode::Fmax => "fmax",
            FloatOpcode::Fmov => "fmov",
        }
    }
}

/// Secondary opcodes under OPT = `Float`.
pub(crate) mod float_secondary {
    /// FP compare-to-predicate (`IntCmp` format over FPR indices).
    pub const FCMPP: u64 = 16;
    /// Convert integer to float (`IntAlu` format, GPR src → FPR dest).
    pub const CVTIF: u64 = 17;
    /// Convert float to integer, truncating (`IntAlu` format, FPR src → GPR dest).
    pub const CVTFI: u64 = 18;
}

/// Memory opcodes (OPT = `Mem`).
pub(crate) mod mem_opcode {
    pub const LOAD: u64 = 0;
    pub const STORE: u64 = 1;
    pub const FLOAD: u64 = 2;
    pub const FSTORE: u64 = 3;
}

/// Control opcodes (OPT = `Ctrl`, `Branch` format).
pub(crate) mod ctrl_opcode {
    pub const BR: u64 = 0;
    pub const BRL: u64 = 1;
    pub const BRET: u64 = 2;
    pub const HALT: u64 = 3;
    pub const SYS: u64 = 4;
}

/// Comparison condition — the 3-bit `D1` field of the compare-to-predicate
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Cond {
    Eq = 0,
    Ne = 1,
    Lt = 2,
    Le = 3,
    Gt = 4,
    Ge = 5,
    /// Unsigned less-than.
    Ltu = 6,
    /// Unsigned greater-or-equal.
    Geu = 7,
}

impl Cond {
    /// All conditions.
    pub const ALL: [Cond; 8] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::Ltu,
        Cond::Geu,
    ];

    fn from_bits(v: u64) -> Cond {
        Self::ALL[(v & 0b111) as usize]
    }

    /// The condition testing the logically opposite outcome.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// The condition with operands swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swap(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Lt => Cond::Gt,
            Cond::Le => Cond::Ge,
            Cond::Gt => Cond::Lt,
            Cond::Ge => Cond::Le,
            Cond::Ltu => Cond::Ltu, // unsigned swaps are not closed; callers avoid
            Cond::Geu => Cond::Geu,
        }
    }

    /// Evaluates the condition over two signed 32-bit operands.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
            Cond::Ltu => (a as u32) < (b as u32),
            Cond::Geu => (a as u32) >= (b as u32),
        }
    }

    /// Evaluates the condition over two `f32` operands (unsigned variants
    /// fall back to their signed meaning).
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt | Cond::Ltu => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge | Cond::Geu => a >= b,
        }
    }

    /// Lowercase mnemonic suffix, e.g. `"lt"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::Ltu => "ltu",
            Cond::Geu => "geu",
        }
    }
}

/// Memory access width — the 2-bit `BHWX` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum MemWidth {
    Byte = 0,
    Half = 1,
    Word = 2,
    /// Double-word; accepted by the encoding, unused by the workloads.
    Double = 3,
}

impl MemWidth {
    fn from_bits(v: u64) -> MemWidth {
        match v & 0b11 {
            0 => MemWidth::Byte,
            1 => MemWidth::Half,
            2 => MemWidth::Word,
            _ => MemWidth::Double,
        }
    }

    /// Access size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// System call codes carried by the `Sys` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SysCode {
    /// Print the argument register as a signed decimal integer + newline.
    PrintInt = 1,
    /// Print the low byte of the argument register as a character.
    PrintChar = 2,
}

impl SysCode {
    fn from_bits(v: u64) -> Option<SysCode> {
        match v {
            1 => Some(SysCode::PrintInt),
            2 => Some(SysCode::PrintChar),
            _ => None,
        }
    }
}

/// Branch target: an index into the program's block table (and thus its
/// Address Translation Table).
pub type BlockTarget = u16;

/// The format-specific payload of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `dest = src1 <op> src2` (Integer ALU format).
    IntAlu {
        op: IntOpcode,
        src1: Gpr,
        src2: Gpr,
        dest: Gpr,
    },
    /// `dest(pred) = src1 <cond> src2` (compare-to-predicate format).
    IntCmp {
        cond: Cond,
        src1: Gpr,
        src2: Gpr,
        dest: Pr,
    },
    /// FP compare-to-predicate (same format over FPR indices).
    FloatCmp {
        cond: Cond,
        src1: Fpr,
        src2: Fpr,
        dest: Pr,
    },
    /// `dest = sext(imm20)` or, when `high`, `dest = imm20 << 12`.
    LoadImm { high: bool, imm: i32, dest: Gpr },
    /// `dest = src1 <op> src2` (FP format; single precision).
    Float {
        op: FloatOpcode,
        src1: Fpr,
        src2: Fpr,
        dest: Fpr,
    },
    /// `dest = (f32)src` — int → float conversion.
    CvtIf { src: Gpr, dest: Fpr },
    /// `dest = (i32)src` — float → int conversion (truncating).
    CvtFi { src: Fpr, dest: Gpr },
    /// `dest = mem[base]`, sign-extended per `width`; `lat` is the
    /// compiler-scheduled latency.
    Load {
        width: MemWidth,
        base: Gpr,
        lat: u8,
        dest: Gpr,
    },
    /// `mem[base] = value` per `width`.
    Store {
        width: MemWidth,
        base: Gpr,
        value: Gpr,
    },
    /// `fdest = mem[base]` (32-bit float load).
    FLoad { base: Gpr, lat: u8, dest: Fpr },
    /// `mem[base] = fvalue` (32-bit float store).
    FStore { base: Gpr, value: Fpr },
    /// Jump to block `target` (conditional when predicated).
    Branch { target: BlockTarget },
    /// Call: `link = <fall-through block>; goto target`.
    Call { target: BlockTarget, link: Gpr },
    /// Return / indirect jump: `goto block(src)`.
    Ret { src: Gpr },
    /// Stop the machine.
    Halt,
    /// Environment call.
    Sys { code: SysCode, arg: Gpr },
}

/// One payload field of an operation, borrowed from its [`OpKind`].
#[derive(Debug)]
pub enum Field<'a> {
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
    /// Bits the format fixes for this kind (FLoad/FStore's `BHWX` =
    /// word); decoding ignores them, as it does reserved bits.
    Fixed(u64),
}

impl Field<'_> {
    /// The value the field stores in the 40-bit word (its range keeps
    /// the low bits).
    ///
    /// # Panics
    ///
    /// Panics if an immediate is outside the signed 20-bit range.
    pub fn raw(&self) -> u64 {
        match self {
            Field::Gpr(r) => r.index() as u64,
            Field::Fpr(r) => r.index() as u64,
            Field::Pr(r) => r.index() as u64,
            Field::Cond(c) => **c as u64,
            Field::Mw(w) => **w as u64,
            Field::Lat(l) => **l as u64,
            Field::Sys(s) => **s as u64,
            Field::Imm(v) => {
                let v = **v;
                assert!(
                    (IMM_MIN..=IMM_MAX).contains(&v),
                    "immediate {v} outside 20-bit signed range"
                );
                v as u32 as u64
            }
            Field::Target(t) => **t as u64,
            Field::Fixed(v) => *v,
        }
    }

    /// Sets the field from `bits`, the contents of its `width`-bit range.
    fn set(self, bits: u64, width: u32) -> Result<(), &'static str> {
        match self {
            Field::Gpr(r) => *r = Gpr::new(bits as u8),
            Field::Fpr(r) => *r = Fpr::new(bits as u8),
            Field::Pr(r) => *r = Pr::new(bits as u8),
            Field::Cond(c) => *c = Cond::from_bits(bits),
            Field::Mw(w) => *w = MemWidth::from_bits(bits),
            Field::Lat(l) => *l = bits as u8,
            Field::Sys(s) => *s = SysCode::from_bits(bits).ok_or("undefined system call code")?,
            Field::Imm(v) => *v = ((bits << (64 - width)) as i64 >> (64 - width)) as i32,
            Field::Target(t) => *t = bits as BlockTarget,
            Field::Fixed(_) => {}
        }
        Ok(())
    }
}

impl OpKind {
    /// Visits the payload fields of the kind, each with its range in the
    /// 40-bit word, stopping at the first error. This is the ISA's one
    /// per-kind field list: [`Operation::encode`], [`Operation::decode`]
    /// and the tailored ISA's scan, encoder and decoder table all follow
    /// it, in this order.
    pub fn walk<E>(
        &mut self,
        mut f: impl FnMut(Field<'_>, BitRange) -> Result<(), E>,
    ) -> Result<(), E> {
        const SRC1: BitRange = BitRange { off: 9, width: 5 };
        const SRC2: BitRange = BitRange { off: 14, width: 5 };
        const DEST: BitRange = BitRange { off: 29, width: 5 };
        const D1: BitRange = BitRange { off: 21, width: 3 };
        const IMM: BitRange = BitRange { off: 9, width: 20 };
        const LOAD_BHWX: BitRange = BitRange { off: 14, width: 2 };
        const LAT: BitRange = BitRange { off: 24, width: 5 };
        const BHWX: BitRange = BitRange { off: 19, width: 2 };
        const COUNTER: BitRange = BitRange { off: 14, width: 5 };
        const TARGET: BitRange = BitRange { off: 19, width: 16 };
        use Field as F;
        let word_width = F::Fixed(MemWidth::Word as u64);
        match self {
            OpKind::IntAlu {
                src1, src2, dest, ..
            } => {
                f(F::Gpr(src1), SRC1)?;
                f(F::Gpr(src2), SRC2)?;
                f(F::Gpr(dest), DEST)
            }
            OpKind::IntCmp {
                cond,
                src1,
                src2,
                dest,
            } => {
                f(F::Gpr(src1), SRC1)?;
                f(F::Gpr(src2), SRC2)?;
                f(F::Cond(cond), D1)?;
                f(F::Pr(dest), DEST)
            }
            OpKind::FloatCmp {
                cond,
                src1,
                src2,
                dest,
            } => {
                f(F::Fpr(src1), SRC1)?;
                f(F::Fpr(src2), SRC2)?;
                f(F::Cond(cond), D1)?;
                f(F::Pr(dest), DEST)
            }
            OpKind::LoadImm { imm, dest, .. } => {
                f(F::Imm(imm), IMM)?;
                f(F::Gpr(dest), DEST)
            }
            OpKind::Float {
                src1, src2, dest, ..
            } => {
                f(F::Fpr(src1), SRC1)?;
                f(F::Fpr(src2), SRC2)?;
                f(F::Fpr(dest), DEST)
            }
            OpKind::CvtIf { src, dest } => {
                f(F::Gpr(src), SRC1)?;
                f(F::Fpr(dest), DEST)
            }
            OpKind::CvtFi { src, dest } => {
                f(F::Fpr(src), SRC1)?;
                f(F::Gpr(dest), DEST)
            }
            OpKind::Load {
                width,
                base,
                lat,
                dest,
            } => {
                f(F::Gpr(base), SRC1)?;
                f(F::Mw(width), LOAD_BHWX)?;
                f(F::Lat(lat), LAT)?;
                f(F::Gpr(dest), DEST)
            }
            OpKind::Store { width, base, value } => {
                f(F::Gpr(base), SRC1)?;
                f(F::Mw(width), BHWX)?;
                f(F::Gpr(value), SRC2)
            }
            OpKind::FLoad { base, lat, dest } => {
                f(F::Gpr(base), SRC1)?;
                f(word_width, LOAD_BHWX)?;
                f(F::Lat(lat), LAT)?;
                f(F::Fpr(dest), DEST)
            }
            OpKind::FStore { base, value } => {
                f(F::Gpr(base), SRC1)?;
                f(F::Fpr(value), SRC2)?;
                f(word_width, BHWX)
            }
            OpKind::Branch { target } => f(F::Target(target), TARGET),
            OpKind::Call { target, link } => {
                f(F::Target(target), TARGET)?;
                f(F::Gpr(link), COUNTER)
            }
            OpKind::Ret { src } => f(F::Gpr(src), SRC1),
            OpKind::Halt => Ok(()),
            OpKind::Sys { code, arg } => {
                f(F::Sys(code), COUNTER)?;
                f(F::Gpr(arg), SRC1)
            }
        }
    }

    /// [`OpKind::walk`] over a copy of the kind, for visitors that only
    /// read.
    pub fn visit(mut self, mut f: impl FnMut(Field<'_>, BitRange)) {
        let Ok(()) = self.walk(|x, at| {
            f(x, at);
            Ok::<(), Infallible>(())
        });
    }

    /// The kind that `(OPT, OPCODE)` selects, with every payload field at
    /// its first value, or `None` for an undefined opcode. The inverse of
    /// [`Operation::opt_opcode`].
    pub fn template(opt: OpType, opcode: u64) -> Option<OpKind> {
        let (g, f, p) = (Gpr::ZERO, Fpr::default(), Pr::P0);
        let (cond, width, code) = (Cond::Eq, MemWidth::Byte, SysCode::PrintInt);
        Some(match (opt, opcode) {
            (OpType::Int, int_secondary::CMPP) => OpKind::IntCmp {
                cond,
                src1: g,
                src2: g,
                dest: p,
            },
            (OpType::Int, int_secondary::LDI | int_secondary::LDIH) => OpKind::LoadImm {
                high: opcode == int_secondary::LDIH,
                imm: 0,
                dest: g,
            },
            (OpType::Int, _) => OpKind::IntAlu {
                op: IntOpcode::from_bits(opcode)?,
                src1: g,
                src2: g,
                dest: g,
            },
            (OpType::Float, float_secondary::FCMPP) => OpKind::FloatCmp {
                cond,
                src1: f,
                src2: f,
                dest: p,
            },
            (OpType::Float, float_secondary::CVTIF) => OpKind::CvtIf { src: g, dest: f },
            (OpType::Float, float_secondary::CVTFI) => OpKind::CvtFi { src: f, dest: g },
            (OpType::Float, _) => OpKind::Float {
                op: FloatOpcode::from_bits(opcode)?,
                src1: f,
                src2: f,
                dest: f,
            },
            (OpType::Mem, mem_opcode::LOAD) => OpKind::Load {
                width,
                base: g,
                lat: 0,
                dest: g,
            },
            (OpType::Mem, mem_opcode::STORE) => OpKind::Store {
                width,
                base: g,
                value: g,
            },
            (OpType::Mem, mem_opcode::FLOAD) => OpKind::FLoad {
                base: g,
                lat: 0,
                dest: f,
            },
            (OpType::Mem, mem_opcode::FSTORE) => OpKind::FStore { base: g, value: f },
            (OpType::Ctrl, ctrl_opcode::BR) => OpKind::Branch { target: 0 },
            (OpType::Ctrl, ctrl_opcode::BRL) => OpKind::Call { target: 0, link: g },
            (OpType::Ctrl, ctrl_opcode::BRET) => OpKind::Ret { src: g },
            (OpType::Ctrl, ctrl_opcode::HALT) => OpKind::Halt,
            (OpType::Ctrl, ctrl_opcode::SYS) => OpKind::Sys { code, arg: g },
            _ => return None,
        })
    }
}

/// A decoded TEPIC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// Tail bit: set on the last operation of a MultiOp (zero-NOP encoding).
    pub tail: bool,
    /// Speculative bit.
    pub spec: bool,
    /// Guard predicate; [`Pr::P0`] means "always execute".
    pub pred: Pr,
    /// Format-specific payload.
    pub kind: OpKind,
}

/// Error returned by [`Operation::decode`] for malformed 40-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOpError {
    /// The offending word.
    pub word: u64,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for DecodeOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {:#012x}: {}", self.word, self.reason)
    }
}

impl std::error::Error for DecodeOpError {}

/// Maximum positive value of the 20-bit signed immediate.
pub const IMM_MAX: i32 = (1 << 19) - 1;
/// Minimum value of the 20-bit signed immediate.
pub const IMM_MIN: i32 = -(1 << 19);

impl Operation {
    /// A canonical no-op (`r0 = r0 + r0`); only used internally — the
    /// zero-NOP encoding means NOPs are never stored in an image.
    pub fn nop() -> Operation {
        Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::IntAlu {
                op: IntOpcode::Add,
                src1: Gpr::ZERO,
                src2: Gpr::ZERO,
                dest: Gpr::ZERO,
            },
        }
    }

    /// Encodes the operation into its 40-bit word (in the low 40 bits of the
    /// returned `u64`): the header, then each field of [`OpKind::walk`]
    /// in its range.
    ///
    /// # Panics
    ///
    /// Panics if a `LoadImm` immediate is outside the signed 20-bit range.
    pub fn encode(&self) -> u64 {
        let mut w = TAIL.place(self.tail as u64)
            | SPEC.place(self.spec as u64)
            | PRED.place(self.pred.index() as u64);
        self.kind.visit(|f, at| w |= at.place(f.raw()));
        // Selected after the walk, so that the two matches on the kind
        // compile to one dispatch; selected first, encode measured ~30%
        // slower.
        let (opt, opc) = self.opt_opcode();
        w | OPT.place(opt as u64) | OPCODE.place(opc)
    }

    /// The `(OPT, OPCODE)` pair that selects this operation's format.
    pub fn opt_opcode(&self) -> (OpType, u64) {
        match self.kind {
            OpKind::IntAlu { op, .. } => (OpType::Int, op as u64),
            OpKind::IntCmp { .. } => (OpType::Int, int_secondary::CMPP),
            OpKind::LoadImm { high: false, .. } => (OpType::Int, int_secondary::LDI),
            OpKind::LoadImm { high: true, .. } => (OpType::Int, int_secondary::LDIH),
            OpKind::Float { op, .. } => (OpType::Float, op as u64),
            OpKind::FloatCmp { .. } => (OpType::Float, float_secondary::FCMPP),
            OpKind::CvtIf { .. } => (OpType::Float, float_secondary::CVTIF),
            OpKind::CvtFi { .. } => (OpType::Float, float_secondary::CVTFI),
            OpKind::Load { .. } => (OpType::Mem, mem_opcode::LOAD),
            OpKind::Store { .. } => (OpType::Mem, mem_opcode::STORE),
            OpKind::FLoad { .. } => (OpType::Mem, mem_opcode::FLOAD),
            OpKind::FStore { .. } => (OpType::Mem, mem_opcode::FSTORE),
            OpKind::Branch { .. } => (OpType::Ctrl, ctrl_opcode::BR),
            OpKind::Call { .. } => (OpType::Ctrl, ctrl_opcode::BRL),
            OpKind::Ret { .. } => (OpType::Ctrl, ctrl_opcode::BRET),
            OpKind::Halt => (OpType::Ctrl, ctrl_opcode::HALT),
            OpKind::Sys { .. } => (OpType::Ctrl, ctrl_opcode::SYS),
        }
    }

    /// Decodes a 40-bit word: the kind that `(OPT, OPCODE)` selects, each
    /// field of [`OpKind::walk`] read from its range. Reserved bits are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeOpError`] when the word carries an undefined opcode
    /// or system call code, or when bits above bit 39 are set.
    pub fn decode(word: u64) -> Result<Operation, DecodeOpError> {
        let err = |reason| DecodeOpError { word, reason };
        if word >> 40 != 0 {
            return Err(err("bits above bit 39 are set"));
        }
        let opt = OpType::from_bits(OPT.get(word));
        let mut kind = OpKind::template(opt, OPCODE.get(word)).ok_or_else(|| {
            err(match opt {
                OpType::Int => "undefined integer opcode",
                OpType::Float => "undefined float opcode",
                OpType::Mem => "undefined memory opcode",
                OpType::Ctrl => "undefined control opcode",
            })
        })?;
        kind.walk(|f, at| f.set(at.get(word), at.width).map_err(err))?;
        Ok(Operation {
            tail: TAIL.get(word) != 0,
            spec: SPEC.get(word) != 0,
            pred: Pr::new(PRED.get(word) as u8),
            kind,
        })
    }

    /// True when the operation is a control transfer that ends a basic
    /// block (branch, call, return, or halt — everything under OPT = `Ctrl`
    /// except `Sys`).
    pub fn ends_block(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Branch { .. } | OpKind::Call { .. } | OpKind::Ret { .. } | OpKind::Halt
        )
    }

    /// True for loads, stores and their FP variants — the operations that
    /// may only use the two memory-capable issue slots.
    pub fn is_mem(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Load { .. }
                | OpKind::Store { .. }
                | OpKind::FLoad { .. }
                | OpKind::FStore { .. }
        )
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::disasm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(op: Operation) {
        let w = op.encode();
        assert!(w >> 40 == 0, "encoding exceeds 40 bits: {w:#x}");
        assert_eq!(
            Operation::decode(w).expect("decodes"),
            op,
            "round-trip failed for {op:?}"
        );
    }

    #[test]
    fn int_alu_round_trip_all_opcodes() {
        for op in IntOpcode::ALL {
            rt(Operation {
                tail: true,
                spec: false,
                pred: Pr::new(3),
                kind: OpKind::IntAlu {
                    op,
                    src1: Gpr::new(1),
                    src2: Gpr::new(31),
                    dest: Gpr::new(17),
                },
            });
        }
    }

    #[test]
    fn cmp_round_trip_all_conditions() {
        for cond in Cond::ALL {
            rt(Operation {
                tail: false,
                spec: true,
                pred: Pr::P0,
                kind: OpKind::IntCmp {
                    cond,
                    src1: Gpr::new(9),
                    src2: Gpr::new(10),
                    dest: Pr::new(11),
                },
            });
            rt(Operation {
                tail: false,
                spec: false,
                pred: Pr::P0,
                kind: OpKind::FloatCmp {
                    cond,
                    src1: Fpr::new(1),
                    src2: Fpr::new(2),
                    dest: Pr::new(3),
                },
            });
        }
    }

    #[test]
    fn load_imm_round_trip_extremes() {
        for imm in [0, 1, -1, IMM_MAX, IMM_MIN, 42_i32, -524_287] {
            for high in [false, true] {
                rt(Operation {
                    tail: true,
                    spec: false,
                    pred: Pr::P0,
                    kind: OpKind::LoadImm {
                        high,
                        imm,
                        dest: Gpr::new(5),
                    },
                });
            }
        }
    }

    #[test]
    #[should_panic]
    fn load_imm_overflow_panics() {
        Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::LoadImm {
                high: false,
                imm: IMM_MAX + 1,
                dest: Gpr::new(5),
            },
        }
        .encode();
    }

    #[test]
    fn float_round_trip_all_opcodes() {
        for op in FloatOpcode::ALL {
            rt(Operation {
                tail: true,
                spec: false,
                pred: Pr::new(30),
                kind: OpKind::Float {
                    op,
                    src1: Fpr::new(8),
                    src2: Fpr::new(9),
                    dest: Fpr::new(10),
                },
            });
        }
    }

    #[test]
    fn memory_round_trip() {
        for width in [
            MemWidth::Byte,
            MemWidth::Half,
            MemWidth::Word,
            MemWidth::Double,
        ] {
            rt(Operation {
                tail: false,
                spec: false,
                pred: Pr::P0,
                kind: OpKind::Load {
                    width,
                    base: Gpr::new(4),
                    lat: 2,
                    dest: Gpr::new(6),
                },
            });
            rt(Operation {
                tail: true,
                spec: false,
                pred: Pr::new(1),
                kind: OpKind::Store {
                    width,
                    base: Gpr::new(4),
                    value: Gpr::new(6),
                },
            });
        }
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::FLoad {
                base: Gpr::new(2),
                lat: 2,
                dest: Fpr::new(3),
            },
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::FStore {
                base: Gpr::new(2),
                value: Fpr::new(3),
            },
        });
    }

    #[test]
    fn control_round_trip() {
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::new(7),
            kind: OpKind::Branch { target: 0xBEEF },
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Call {
                target: 123,
                link: Gpr::LR,
            },
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Ret { src: Gpr::LR },
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Halt,
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Sys {
                code: SysCode::PrintInt,
                arg: Gpr::new(2),
            },
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Sys {
                code: SysCode::PrintChar,
                arg: Gpr::new(2),
            },
        });
    }

    #[test]
    fn conversions_round_trip() {
        rt(Operation {
            tail: false,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::CvtIf {
                src: Gpr::new(3),
                dest: Fpr::new(4),
            },
        });
        rt(Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::CvtFi {
                src: Fpr::new(4),
                dest: Gpr::new(3),
            },
        });
    }

    #[test]
    fn decode_rejects_high_bits() {
        assert!(Operation::decode(1u64 << 40).is_err());
    }

    #[test]
    fn decode_rejects_undefined_opcodes() {
        // OPT=Int, OPCODE=31 is undefined.
        assert!(Operation::decode(OPCODE.place(31)).is_err());
        // OPT=Mem, OPCODE=9 is undefined.
        let w = OPT.place(OpType::Mem as u64) | OPCODE.place(9);
        assert!(Operation::decode(w).is_err());
        // OPT=Ctrl, OPCODE=29 is undefined.
        let w = OPT.place(OpType::Ctrl as u64) | OPCODE.place(29);
        assert!(Operation::decode(w).is_err());
    }

    /// The per-kind encoder and decoder that `OpKind::walk` replaced,
    /// kept verbatim as oracles for the differential tests below.
    mod oracle {
        use super::super::*;

        /// Extracts `width` bits of `word` starting at bit `off` (LSB-first).
        #[inline]
        fn get_bits(word: u64, off: u32, width: u32) -> u64 {
            (word >> off) & ((1u64 << width) - 1)
        }

        /// Inserts `value` into `width` bits of `word` at bit `off`.
        ///
        /// # Panics
        ///
        /// Panics (debug) if `value` does not fit in `width` bits.
        #[inline]
        fn set_bits(word: &mut u64, off: u32, width: u32, value: u64) {
            debug_assert!(
                value < (1u64 << width),
                "field value {value} overflows {width} bits"
            );
            *word |= (value & ((1u64 << width) - 1)) << off;
        }

        // Field offsets shared by every format.
        const T_OFF: u32 = 0;
        const S_OFF: u32 = 1;
        const OPT_OFF: u32 = 2;
        const OPC_OFF: u32 = 4;
        const SRC1_OFF: u32 = 9;
        const DEST_OFF: u32 = 29;
        const PRED_OFF: u32 = 35;
        // IntAlu / IntCmp / Store secondary source.
        const SRC2_OFF: u32 = 14;
        // IntCmp condition.
        const D1_OFF: u32 = 21;
        // LoadImm immediate.
        const IMM_OFF: u32 = 9;
        const IMM_W: u32 = 20;
        // Load format fields.
        const LD_BHWX_OFF: u32 = 14;
        const LD_LAT_OFF: u32 = 24;
        // IntAlu / Store width field.
        const BHWX_OFF: u32 = 19;
        // Branch fields.
        const CTR_OFF: u32 = 14;
        const TGT_OFF: u32 = 19;
        const TGT_W: u32 = 16;

        pub fn encode(op: &Operation) -> u64 {
            let mut w = 0u64;
            set_bits(&mut w, T_OFF, 1, op.tail as u64);
            set_bits(&mut w, S_OFF, 1, op.spec as u64);
            let (opt, opc) = op.opt_opcode();
            set_bits(&mut w, OPT_OFF, 2, opt as u64);
            set_bits(&mut w, OPC_OFF, 5, opc);
            set_bits(&mut w, PRED_OFF, 5, op.pred.index() as u64);
            match op.kind {
                OpKind::IntAlu {
                    src1, src2, dest, ..
                } => {
                    set_bits(&mut w, SRC1_OFF, 5, src1.index() as u64);
                    set_bits(&mut w, SRC2_OFF, 5, src2.index() as u64);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::IntCmp {
                    cond,
                    src1,
                    src2,
                    dest,
                } => {
                    set_bits(&mut w, SRC1_OFF, 5, src1.index() as u64);
                    set_bits(&mut w, SRC2_OFF, 5, src2.index() as u64);
                    set_bits(&mut w, D1_OFF, 3, cond as u64);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::FloatCmp {
                    cond,
                    src1,
                    src2,
                    dest,
                } => {
                    set_bits(&mut w, SRC1_OFF, 5, src1.index() as u64);
                    set_bits(&mut w, SRC2_OFF, 5, src2.index() as u64);
                    set_bits(&mut w, D1_OFF, 3, cond as u64);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::LoadImm { imm, dest, .. } => {
                    assert!(
                        (IMM_MIN..=IMM_MAX).contains(&imm),
                        "immediate {imm} outside 20-bit signed range"
                    );
                    set_bits(
                        &mut w,
                        IMM_OFF,
                        IMM_W,
                        (imm as u32 as u64) & ((1 << IMM_W) - 1),
                    );
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::Float {
                    src1, src2, dest, ..
                } => {
                    set_bits(&mut w, SRC1_OFF, 5, src1.index() as u64);
                    set_bits(&mut w, SRC2_OFF, 5, src2.index() as u64);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::CvtIf { src, dest } => {
                    set_bits(&mut w, SRC1_OFF, 5, src.index() as u64);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::CvtFi { src, dest } => {
                    set_bits(&mut w, SRC1_OFF, 5, src.index() as u64);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::Load {
                    width,
                    base,
                    lat,
                    dest,
                } => {
                    set_bits(&mut w, SRC1_OFF, 5, base.index() as u64);
                    set_bits(&mut w, LD_BHWX_OFF, 2, width as u64);
                    set_bits(&mut w, LD_LAT_OFF, 5, lat as u64 & 0x1f);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::FLoad { base, lat, dest } => {
                    set_bits(&mut w, SRC1_OFF, 5, base.index() as u64);
                    set_bits(&mut w, LD_BHWX_OFF, 2, MemWidth::Word as u64);
                    set_bits(&mut w, LD_LAT_OFF, 5, lat as u64 & 0x1f);
                    set_bits(&mut w, DEST_OFF, 5, dest.index() as u64);
                }
                OpKind::Store { width, base, value } => {
                    set_bits(&mut w, SRC1_OFF, 5, base.index() as u64);
                    set_bits(&mut w, SRC2_OFF, 5, value.index() as u64);
                    set_bits(&mut w, BHWX_OFF, 2, width as u64);
                }
                OpKind::FStore { base, value } => {
                    set_bits(&mut w, SRC1_OFF, 5, base.index() as u64);
                    set_bits(&mut w, SRC2_OFF, 5, value.index() as u64);
                    set_bits(&mut w, BHWX_OFF, 2, MemWidth::Word as u64);
                }
                OpKind::Branch { target } => {
                    set_bits(&mut w, TGT_OFF, TGT_W, target as u64);
                }
                OpKind::Call { target, link } => {
                    set_bits(&mut w, CTR_OFF, 5, link.index() as u64);
                    set_bits(&mut w, TGT_OFF, TGT_W, target as u64);
                }
                OpKind::Ret { src } => {
                    set_bits(&mut w, SRC1_OFF, 5, src.index() as u64);
                }
                OpKind::Halt => {}
                OpKind::Sys { code, arg } => {
                    set_bits(&mut w, SRC1_OFF, 5, arg.index() as u64);
                    set_bits(&mut w, CTR_OFF, 5, code as u64);
                }
            }
            w
        }

        pub fn decode(word: u64) -> Result<Operation, DecodeOpError> {
            if word >> 40 != 0 {
                return Err(DecodeOpError {
                    word,
                    reason: "bits above bit 39 are set",
                });
            }
            let err = |reason| DecodeOpError { word, reason };
            let tail = get_bits(word, T_OFF, 1) != 0;
            let spec = get_bits(word, S_OFF, 1) != 0;
            let opt = OpType::from_bits(get_bits(word, OPT_OFF, 2));
            let opc = get_bits(word, OPC_OFF, 5);
            let pred = Pr::new(get_bits(word, PRED_OFF, 5) as u8);
            let g = |off| Gpr::new(get_bits(word, off, 5) as u8);
            let f = |off| Fpr::new(get_bits(word, off, 5) as u8);
            let kind = match opt {
                OpType::Int => match opc {
                    int_secondary::CMPP => OpKind::IntCmp {
                        cond: Cond::from_bits(get_bits(word, D1_OFF, 3)),
                        src1: g(SRC1_OFF),
                        src2: g(SRC2_OFF),
                        dest: Pr::new(get_bits(word, DEST_OFF, 5) as u8),
                    },
                    int_secondary::LDI | int_secondary::LDIH => {
                        let raw = get_bits(word, IMM_OFF, IMM_W) as u32;
                        // Sign-extend 20 bits.
                        let imm = ((raw << 12) as i32) >> 12;
                        OpKind::LoadImm {
                            high: opc == int_secondary::LDIH,
                            imm,
                            dest: g(DEST_OFF),
                        }
                    }
                    _ => OpKind::IntAlu {
                        op: IntOpcode::from_bits(opc)
                            .ok_or_else(|| err("undefined integer opcode"))?,
                        src1: g(SRC1_OFF),
                        src2: g(SRC2_OFF),
                        dest: g(DEST_OFF),
                    },
                },
                OpType::Float => match opc {
                    float_secondary::FCMPP => OpKind::FloatCmp {
                        cond: Cond::from_bits(get_bits(word, D1_OFF, 3)),
                        src1: f(SRC1_OFF),
                        src2: f(SRC2_OFF),
                        dest: Pr::new(get_bits(word, DEST_OFF, 5) as u8),
                    },
                    float_secondary::CVTIF => OpKind::CvtIf {
                        src: g(SRC1_OFF),
                        dest: f(DEST_OFF),
                    },
                    float_secondary::CVTFI => OpKind::CvtFi {
                        src: f(SRC1_OFF),
                        dest: g(DEST_OFF),
                    },
                    _ => OpKind::Float {
                        op: FloatOpcode::from_bits(opc)
                            .ok_or_else(|| err("undefined float opcode"))?,
                        src1: f(SRC1_OFF),
                        src2: f(SRC2_OFF),
                        dest: f(DEST_OFF),
                    },
                },
                OpType::Mem => match opc {
                    mem_opcode::LOAD => OpKind::Load {
                        width: MemWidth::from_bits(get_bits(word, LD_BHWX_OFF, 2)),
                        base: g(SRC1_OFF),
                        lat: get_bits(word, LD_LAT_OFF, 5) as u8,
                        dest: g(DEST_OFF),
                    },
                    mem_opcode::STORE => OpKind::Store {
                        width: MemWidth::from_bits(get_bits(word, BHWX_OFF, 2)),
                        base: g(SRC1_OFF),
                        value: g(SRC2_OFF),
                    },
                    mem_opcode::FLOAD => OpKind::FLoad {
                        base: g(SRC1_OFF),
                        lat: get_bits(word, LD_LAT_OFF, 5) as u8,
                        dest: f(DEST_OFF),
                    },
                    mem_opcode::FSTORE => OpKind::FStore {
                        base: g(SRC1_OFF),
                        value: f(SRC2_OFF),
                    },
                    _ => return Err(err("undefined memory opcode")),
                },
                OpType::Ctrl => match opc {
                    ctrl_opcode::BR => OpKind::Branch {
                        target: get_bits(word, TGT_OFF, TGT_W) as u16,
                    },
                    ctrl_opcode::BRL => OpKind::Call {
                        target: get_bits(word, TGT_OFF, TGT_W) as u16,
                        link: g(CTR_OFF),
                    },
                    ctrl_opcode::BRET => OpKind::Ret { src: g(SRC1_OFF) },
                    ctrl_opcode::HALT => OpKind::Halt,
                    ctrl_opcode::SYS => OpKind::Sys {
                        code: SysCode::from_bits(get_bits(word, CTR_OFF, 5))
                            .ok_or_else(|| err("undefined system call code"))?,
                        arg: g(SRC1_OFF),
                    },
                    _ => return Err(err("undefined control opcode")),
                },
            };
            Ok(Operation {
                tail,
                spec,
                pred,
                kind,
            })
        }
    }

    /// splitmix64: a deterministic stream of test words.
    fn words(mut seed: u64) -> impl Iterator<Item = u64> {
        std::iter::repeat_with(move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    /// Decode agrees with the per-kind decoder, reason text included, on
    /// 20,000 words: raw `u64`s (mostly bits above bit 39), 40- and
    /// 41-bit words (undefined opcodes included), `sys` words with random
    /// codes, and words with a random defined selector. Every word that
    /// decodes also encodes as the per-kind encoder does.
    #[test]
    fn walk_decode_matches_the_per_kind_decoder() {
        let selector = |opt: OpType, opc| OPT.place(opt as u64) | OPCODE.place(opc);
        let defined: Vec<u64> = [OpType::Int, OpType::Float, OpType::Mem, OpType::Ctrl]
            .into_iter()
            .flat_map(|opt| (0..32).map(move |opc| (opt, opc)))
            .filter(|&(opt, opc)| OpKind::template(opt, opc).is_some())
            .map(|(opt, opc)| selector(opt, opc))
            .collect();
        let sys = selector(OpType::Ctrl, ctrl_opcode::SYS);
        let payload = |w: u64| w & ((1 << 40) - 1) & !selector(OpType::Ctrl, 31);
        let shapes: [&dyn Fn(u64) -> u64; 5] = [
            &|w| w,
            &|w| w & ((1 << 40) - 1),
            &|w| w & ((1 << 41) - 1),
            &|w| payload(w) | sys,
            &|w| payload(w) | defined[(w >> 40) as usize % defined.len()],
        ];
        let (mut ok, mut errs) = (0, std::collections::BTreeSet::new());
        for (shape, seed) in shapes.iter().zip(1..) {
            for w in words(seed).take(4_000).map(shape) {
                let got = Operation::decode(w);
                assert_eq!(got, oracle::decode(w), "{w:#x}");
                match got {
                    Ok(op) => {
                        ok += 1;
                        assert_eq!(op.encode(), oracle::encode(&op), "{op:?}");
                    }
                    Err(e) => {
                        errs.insert(e.reason);
                    }
                }
            }
        }
        assert!(ok > 5_000, "only {ok} words decoded");
        assert_eq!(errs.len(), 6, "reasons seen: {errs:?}");
    }

    /// Encode agrees with the per-kind encoder on every op of the paper
    /// programs, and decode inverts both.
    #[test]
    fn walk_encode_matches_the_per_kind_encoder_on_the_paper_programs() {
        for w in &tinker_workloads::ALL {
            let program = w.compile().expect("paper program compiles");
            for word in program.ops().iter().map(|op| op.encode()) {
                let op = Operation::decode(word).expect("paper op decodes");
                assert_eq!(oracle::encode(&op), word, "{}: {op:?}", w.name);
                assert_eq!(oracle::decode(word), Ok(op), "{}: {word:#x}", w.name);
            }
        }
    }

    #[test]
    fn cond_negate_is_involution() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            for a in [-5i32, 0, 3] {
                for b in [-5i32, 0, 3] {
                    assert_eq!(c.eval(a, b), !c.negate().eval(a, b));
                }
            }
        }
    }

    #[test]
    fn cond_eval_unsigned() {
        assert!(Cond::Ltu.eval(5, -1)); // 5 < 0xFFFF_FFFF unsigned
        assert!(!Cond::Lt.eval(5, -1));
        assert!(Cond::Geu.eval(-1, 5));
    }

    #[test]
    fn ends_block_classification() {
        let p = Pr::P0;
        let mk = |kind| Operation {
            tail: true,
            spec: false,
            pred: p,
            kind,
        };
        assert!(mk(OpKind::Branch { target: 0 }).ends_block());
        assert!(mk(OpKind::Call {
            target: 0,
            link: Gpr::LR
        })
        .ends_block());
        assert!(mk(OpKind::Ret { src: Gpr::LR }).ends_block());
        assert!(mk(OpKind::Halt).ends_block());
        assert!(!mk(OpKind::Sys {
            code: SysCode::PrintInt,
            arg: Gpr::RV
        })
        .ends_block());
        assert!(!Operation::nop().ends_block());
    }

    #[test]
    fn mem_classification() {
        let op = Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Load {
                width: MemWidth::Word,
                base: Gpr::SP,
                lat: 2,
                dest: Gpr::RV,
            },
        };
        assert!(op.is_mem());
        assert!(!Operation::nop().is_mem());
    }
}
