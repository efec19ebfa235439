//! IR instructions, operands and terminators.

use std::fmt;

/// Register class — mirrors TEPIC's three register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// 32-bit integer / pointer (maps to GPRs).
    Int,
    /// 32-bit float (maps to FPRs).
    Float,
    /// 1-bit predicate (maps to PRs).
    Pred,
}

/// A virtual register. The owning [`crate::Function`] records its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic-block reference within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockRef(pub u32);

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sra,
    Min,
    Max,
}

/// Integer unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IUnOp {
    /// Copy.
    Mov,
    /// Bitwise complement.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

/// Comparison conditions (signed unless suffixed `U`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LtU,
    GeU,
}

impl Cond {
    /// Logical negation.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
            Cond::LtU => Cond::GeU,
            Cond::GeU => Cond::LtU,
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    Byte,
    Half,
    Word,
}

/// Environment call codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysCode {
    PrintInt,
    PrintChar,
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = imm` (integer/pointer constant).
    IConst { dst: VReg, value: i64 },
    /// `dst = imm` (float constant).
    FConst { dst: VReg, value: f32 },
    /// `dst = addressof(global)`.
    GlobalAddr {
        dst: VReg,
        global: crate::func::GlobalId,
    },
    /// `dst = a <op> b`.
    IBin {
        op: IBinOp,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// `dst = <op> a`.
    IUn { op: IUnOp, dst: VReg, a: VReg },
    /// `dst = a <op> b` (float).
    FBin {
        op: FBinOp,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// `dst = -a` (float).
    FNeg { dst: VReg, a: VReg },
    /// `dst = |a|` (float).
    FAbs { dst: VReg, a: VReg },
    /// `dst = a` (float copy).
    FMov { dst: VReg, a: VReg },
    /// `dst(pred) = a <cond> b` (integer compare).
    ICmp {
        cond: Cond,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// `dst(pred) = a <cond> b` (float compare).
    FCmp {
        cond: Cond,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// `dst = (f32) a`.
    CvtIF { dst: VReg, a: VReg },
    /// `dst = (i32) a` (truncating).
    CvtFI { dst: VReg, a: VReg },
    /// `dst = mem[base + offset]`, extended per `width`.
    Load {
        width: Width,
        dst: VReg,
        base: VReg,
        offset: i32,
    },
    /// `mem[base + offset] = value` per `width`.
    Store {
        width: Width,
        base: VReg,
        offset: i32,
        value: VReg,
    },
    /// `dst = fmem[base + offset]` (f32 load).
    FLoad { dst: VReg, base: VReg, offset: i32 },
    /// `fmem[base + offset] = value` (f32 store).
    FStore {
        base: VReg,
        offset: i32,
        value: VReg,
    },
    /// Direct call; `ret` receives the return value if the callee has one.
    Call {
        func: crate::func::FuncId,
        args: Vec<VReg>,
        ret: Option<VReg>,
    },
    /// Environment call.
    Sys { code: SysCode, arg: VReg },
}

impl Inst {
    /// The destination register, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::IConst { dst, .. }
            | Inst::FConst { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::IBin { dst, .. }
            | Inst::IUn { dst, .. }
            | Inst::FBin { dst, .. }
            | Inst::FNeg { dst, .. }
            | Inst::FAbs { dst, .. }
            | Inst::FMov { dst, .. }
            | Inst::ICmp { dst, .. }
            | Inst::FCmp { dst, .. }
            | Inst::CvtIF { dst, .. }
            | Inst::CvtFI { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FLoad { dst, .. } => Some(*dst),
            Inst::Call { ret, .. } => *ret,
            Inst::Store { .. } | Inst::FStore { .. } | Inst::Sys { .. } => None,
        }
    }

    /// Calls `f` with each source register, in [`Inst::uses`] order.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            Inst::IConst { .. } | Inst::FConst { .. } | Inst::GlobalAddr { .. } => {}
            Inst::IBin { a, b, .. }
            | Inst::FBin { a, b, .. }
            | Inst::ICmp { a, b, .. }
            | Inst::FCmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Inst::IUn { a, .. }
            | Inst::FNeg { a, .. }
            | Inst::FAbs { a, .. }
            | Inst::FMov { a, .. }
            | Inst::CvtIF { a, .. }
            | Inst::CvtFI { a, .. } => f(*a),
            Inst::Load { base, .. } | Inst::FLoad { base, .. } => f(*base),
            Inst::Store { base, value, .. } | Inst::FStore { base, value, .. } => {
                f(*base);
                f(*value);
            }
            Inst::Call { args, .. } => args.iter().copied().for_each(f),
            Inst::Sys { arg, .. } => f(*arg),
        }
    }

    /// All source registers.
    pub fn uses(&self) -> Vec<VReg> {
        let mut v = Vec::new();
        self.for_each_use(|u| v.push(u));
        v
    }

    /// True for instructions that touch memory or have side effects and
    /// must not be removed or reordered across each other.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::FStore { .. } | Inst::Call { .. } | Inst::Sys { .. }
        )
    }

    /// True for loads (reorderable among themselves, not across stores).
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::FLoad { .. })
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockRef),
    /// Branch to `then_bb` when predicate `pred` is true, else `else_bb`.
    CondBr {
        pred: VReg,
        then_bb: BlockRef,
        else_bb: BlockRef,
    },
    /// Return (with optional value).
    Ret(Option<VReg>),
    /// Program exit (only meaningful in `main`).
    Halt,
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockRef> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) | Terminator::Halt => vec![],
        }
    }

    /// The register the terminator reads, if any.
    pub fn use_reg(&self) -> Option<VReg> {
        match self {
            Terminator::CondBr { pred, .. } => Some(*pred),
            Terminator::Ret(v) => *v,
            Terminator::Jump(_) | Terminator::Halt => None,
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self) -> Vec<VReg> {
        self.use_reg().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::IBin {
            op: IBinOp::Add,
            dst: VReg(2),
            a: VReg(0),
            b: VReg(1),
        };
        assert_eq!(i.def(), Some(VReg(2)));
        assert_eq!(i.uses(), vec![VReg(0), VReg(1)]);
        let s = Inst::Store {
            width: Width::Word,
            base: VReg(3),
            offset: 4,
            value: VReg(5),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![VReg(3), VReg(5)]);
        assert!(s.has_side_effects());
    }

    #[test]
    fn call_defs_and_uses() {
        let c = Inst::Call {
            func: crate::func::FuncId(0),
            args: vec![VReg(1), VReg(2)],
            ret: Some(VReg(3)),
        };
        assert_eq!(c.def(), Some(VReg(3)));
        assert_eq!(c.uses(), vec![VReg(1), VReg(2)]);
        assert!(c.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(
            Terminator::Jump(BlockRef(3)).successors(),
            vec![BlockRef(3)]
        );
        let cb = Terminator::CondBr {
            pred: VReg(0),
            then_bb: BlockRef(1),
            else_bb: BlockRef(2),
        };
        assert_eq!(cb.successors(), vec![BlockRef(1), BlockRef(2)]);
        assert_eq!(cb.uses(), vec![VReg(0)]);
        assert!(Terminator::Halt.successors().is_empty());
        assert_eq!(Terminator::Ret(Some(VReg(9))).uses(), vec![VReg(9)]);
    }

    #[test]
    fn cond_negate_involution() {
        for c in [
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Le,
            Cond::Gt,
            Cond::Ge,
            Cond::LtU,
            Cond::GeU,
        ] {
            assert_eq!(c.negate().negate(), c);
        }
    }
}
