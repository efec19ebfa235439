//! Block-local constant folding and algebraic strength reduction.
//!
//! Tracks `vreg → constant` within each block (invalidated on
//! redefinition) and rewrites:
//!
//! * integer/float binaries over two known constants → a constant;
//! * `x * 2^k` → `x << k`, `x * 1` → copy, `x + 0`/`x - 0`/`x | 0`/
//!   `x ^ 0` → copy, `x & 0`/`x * 0` → 0;
//! * comparisons over two known constants feed
//!   [`crate::opt::simplify`]'s branch folding via a recorded constant
//!   predicate.

use crate::fxmap::FxMap;
use tinker_ir::{Cond, FBinOp, Function, IBinOp, IUnOp, Inst};

/// Runs the pass; returns true when anything changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut f.blocks {
        let mut consts: FxMap<u32, i64> = FxMap::default();
        let mut fconsts: FxMap<u32, f32> = FxMap::default();
        let mut pconsts: FxMap<u32, bool> = FxMap::default();
        for inst in &mut block.insts {
            // Invalidate the destination before folding (self-redefines).
            let def = inst.def();
            let get = |m: &FxMap<u32, i64>, v: tinker_ir::VReg| m.get(&v.0).copied();
            let getf = |m: &FxMap<u32, f32>, v: tinker_ir::VReg| m.get(&v.0).copied();
            let new_inst: Option<Inst> = match inst {
                Inst::IBin { op, dst, a, b } => {
                    let (ca, cb) = (get(&consts, *a), get(&consts, *b));
                    match (ca, cb) {
                        (Some(x), Some(y)) => eval_ibin(*op, x, y).map(|v| Inst::IConst {
                            dst: *dst,
                            value: v,
                        }),
                        (_, Some(y)) => fold_identity_rhs(*op, *dst, *a, y),
                        (Some(x), _) => fold_identity_lhs(*op, *dst, *b, x),
                        _ => None,
                    }
                }
                Inst::FBin { op, dst, a, b } => match (getf(&fconsts, *a), getf(&fconsts, *b)) {
                    (Some(x), Some(y)) => eval_fbin(*op, x, y).map(|v| Inst::FConst {
                        dst: *dst,
                        value: v,
                    }),
                    _ => None,
                },
                // A copy of a constant stays a copy (tracked below):
                // CSE would only turn its folded form back into it.
                Inst::IUn { op: IUnOp::Mov, .. } => None,
                Inst::IUn { op, dst, a } => get(&consts, *a).map(|x| Inst::IConst {
                    dst: *dst,
                    value: match op {
                        IUnOp::Not => !(x as i32) as i64,
                        IUnOp::Neg => (x as i32).wrapping_neg() as i64,
                        IUnOp::Mov => unreachable!("copies are not folded"),
                    },
                }),
                Inst::ICmp { .. } => None, // tracked below, after invalidation
                Inst::CvtIF { dst, a } => get(&consts, *a).map(|x| Inst::FConst {
                    dst: *dst,
                    value: x as i32 as f32,
                }),
                Inst::CvtFI { dst, a } => getf(&fconsts, *a).map(|x| Inst::IConst {
                    dst: *dst,
                    value: (x as i32) as i64,
                }),
                _ => None,
            };
            if let Some(ni) = new_inst {
                *inst = ni;
                changed = true;
            }
            // Update the tracked constants for the (possibly new) inst.
            let copied = match inst {
                Inst::IUn {
                    op: IUnOp::Mov, a, ..
                } => consts.get(&a.0).copied(),
                _ => None,
            };
            if let Some(d) = def {
                consts.remove(&d.0);
                fconsts.remove(&d.0);
                pconsts.remove(&d.0);
            }
            match inst {
                Inst::IConst { dst, value } => {
                    consts.insert(dst.0, *value);
                }
                Inst::IUn { dst, .. } => {
                    if let Some(c) = copied {
                        consts.insert(dst.0, c);
                    }
                }
                Inst::FConst { dst, value } => {
                    fconsts.insert(dst.0, *value);
                }
                Inst::ICmp { cond, dst, a, b } => {
                    if let (Some(&x), Some(&y)) = (consts.get(&a.0), consts.get(&b.0)) {
                        pconsts.insert(dst.0, eval_cond(*cond, x as i32, y as i32));
                    }
                }
                Inst::Call { .. } => {
                    // Calls do not clobber locals (registers), only memory;
                    // constants stay valid.
                }
                _ => {}
            }
        }
        // Fold conditional branches over constant predicates.
        if let tinker_ir::Terminator::CondBr {
            pred,
            then_bb,
            else_bb,
        } = block.term.clone()
        {
            if let Some(&v) = pconsts.get(&pred.0) {
                block.term = tinker_ir::Terminator::Jump(if v { then_bb } else { else_bb });
                changed = true;
            }
        }
    }
    changed
}

fn eval_ibin(op: IBinOp, x: i64, y: i64) -> Option<i64> {
    let (x, y) = (x as i32, y as i32);
    let v: i32 = match op {
        IBinOp::Add => x.wrapping_add(y),
        IBinOp::Sub => x.wrapping_sub(y),
        IBinOp::Mul => x.wrapping_mul(y),
        IBinOp::Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        IBinOp::Rem => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        IBinOp::And => x & y,
        IBinOp::Or => x | y,
        IBinOp::Xor => x ^ y,
        IBinOp::Shl => x.wrapping_shl(y as u32 & 31),
        IBinOp::Shr => ((x as u32).wrapping_shr(y as u32 & 31)) as i32,
        IBinOp::Sra => x.wrapping_shr(y as u32 & 31),
        IBinOp::Min => x.min(y),
        IBinOp::Max => x.max(y),
    };
    Some(v as i64)
}

fn eval_fbin(op: FBinOp, x: f32, y: f32) -> Option<f32> {
    Some(match op {
        FBinOp::Add => x + y,
        FBinOp::Sub => x - y,
        FBinOp::Mul => x * y,
        FBinOp::Div => x / y,
        FBinOp::Min => x.min(y),
        FBinOp::Max => x.max(y),
    })
}

fn eval_cond(c: Cond, a: i32, b: i32) -> bool {
    match c {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => a < b,
        Cond::Le => a <= b,
        Cond::Gt => a > b,
        Cond::Ge => a >= b,
        Cond::LtU => (a as u32) < (b as u32),
        Cond::GeU => (a as u32) >= (b as u32),
    }
}

/// `a <op> const` identities.
fn fold_identity_rhs(op: IBinOp, dst: tinker_ir::VReg, a: tinker_ir::VReg, y: i64) -> Option<Inst> {
    match (op, y) {
        (
            IBinOp::Add
            | IBinOp::Sub
            | IBinOp::Or
            | IBinOp::Xor
            | IBinOp::Shl
            | IBinOp::Shr
            | IBinOp::Sra,
            0,
        ) => Some(Inst::IUn {
            op: IUnOp::Mov,
            dst,
            a,
        }),
        (IBinOp::Mul | IBinOp::Div, 1) => Some(Inst::IUn {
            op: IUnOp::Mov,
            dst,
            a,
        }),
        (IBinOp::Mul | IBinOp::And, 0) => Some(Inst::IConst { dst, value: 0 }),
        (IBinOp::Mul, v) if v > 1 && (v & (v - 1)) == 0 => {
            // x * 2^k → handled by simplify (needs a fresh const vreg);
            // leave to keep this pass allocation-free.
            None
        }
        _ => None,
    }
}

/// `const <op> b` identities.
fn fold_identity_lhs(op: IBinOp, dst: tinker_ir::VReg, b: tinker_ir::VReg, x: i64) -> Option<Inst> {
    match (op, x) {
        (IBinOp::Add | IBinOp::Or | IBinOp::Xor, 0) => Some(Inst::IUn {
            op: IUnOp::Mov,
            dst,
            a: b,
        }),
        (IBinOp::Mul, 1) => Some(Inst::IUn {
            op: IUnOp::Mov,
            dst,
            a: b,
        }),
        (IBinOp::Mul | IBinOp::And, 0) => Some(Inst::IConst { dst, value: 0 }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinker_ir::{FunctionBuilder, RegClass, Terminator};

    #[test]
    fn folds_constant_addition() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let x = b.iconst(e, 2);
        let y = b.iconst(e, 3);
        let s = b.ibin(e, IBinOp::Add, x, y);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::IConst { value: 5, .. }
        ));
    }

    #[test]
    fn copies_of_constants_stay_copies_but_fold_their_uses() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let x = b.iconst(e, 2);
        let y = b.iun(e, IUnOp::Mov, x);
        let three = b.iconst(e, 3);
        let s = b.ibin(e, IBinOp::Add, y, three);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(matches!(
            f.blocks[0].insts[1],
            Inst::IUn { op: IUnOp::Mov, .. }
        ));
        assert!(matches!(
            f.blocks[0].insts[3],
            Inst::IConst { value: 5, .. }
        ));
    }

    #[test]
    fn folds_division_by_zero_left_alone() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let x = b.iconst(e, 2);
        let z = b.iconst(e, 0);
        let s = b.ibin(e, IBinOp::Div, x, z);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::IBin {
                op: IBinOp::Div,
                ..
            }
        ));
    }

    #[test]
    fn folds_identities() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let z = b.iconst(e, 0);
        let s = b.ibin(e, IBinOp::Add, p, z);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(matches!(
            f.blocks[0].insts[1],
            Inst::IUn { op: IUnOp::Mov, .. }
        ));
    }

    #[test]
    fn folds_constant_branch_to_jump() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let x = b.iconst(e, 1);
        let y = b.iconst(e, 2);
        let p = b.icmp(e, Cond::Lt, x, y);
        let t = b.new_block();
        let el = b.new_block();
        b.set_term(
            e,
            Terminator::CondBr {
                pred: p,
                then_bb: t,
                else_bb: el,
            },
        );
        let one = b.iconst(t, 1);
        b.set_term(t, Terminator::Ret(Some(one)));
        let zero = b.iconst(el, 0);
        b.set_term(el, Terminator::Ret(Some(zero)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].term, Terminator::Jump(t));
    }

    #[test]
    fn redefinition_invalidates_tracking() {
        // v = 2; v = param; w = v + 1 must NOT fold w to 3.
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let v = b.iconst(e, 2);
        let p = b.param(0);
        b.push(
            e,
            Inst::IUn {
                op: IUnOp::Mov,
                dst: v,
                a: p,
            },
        );
        let one = b.iconst(e, 1);
        let w = b.ibin(e, IBinOp::Add, v, one);
        b.set_term(e, Terminator::Ret(Some(w)));
        let mut f = b.finish();
        run(&mut f);
        assert!(matches!(
            f.blocks[0].insts.last(),
            Some(Inst::IBin {
                op: IBinOp::Add,
                ..
            })
        ));
    }

    #[test]
    fn folds_float_constants_and_conversions() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let x = b.fconst(e, 1.5);
        let y = b.fconst(e, 2.0);
        let s = b.fbin(e, FBinOp::Mul, x, y);
        let i = b.cvt_fi(e, s);
        b.set_term(e, Terminator::Ret(Some(i)));
        let mut f = b.finish();
        assert!(run(&mut f));
        run(&mut f);
        assert!(matches!(
            f.blocks[0].insts[3],
            Inst::IConst { value: 3, .. }
        ));
    }
}
