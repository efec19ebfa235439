//! Block-local copy propagation.
//!
//! Within a block, after `dst = mov src`, later reads of `dst` are
//! rewritten to `src` until either register is redefined. Predicates are
//! never copied, so only the integer and float files participate.

use crate::fxmap::FxMap;
use tinker_ir::{Function, IUnOp, Inst, VReg};

/// Runs the pass; returns true when anything changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut f.blocks {
        // copy_of[d] = s when "d currently equals s".
        let mut copy_of: FxMap<u32, u32> = FxMap::default();
        for inst in &mut block.insts {
            // Rewrite uses through the copy map.
            let remap = |copy_of: &FxMap<u32, u32>, v: &mut VReg, changed: &mut bool| {
                if let Some(&s) = copy_of.get(&v.0) {
                    *v = VReg(s);
                    *changed = true;
                }
            };
            match inst {
                Inst::IBin { a, b, .. }
                | Inst::ICmp { a, b, .. }
                | Inst::FBin { a, b, .. }
                | Inst::FCmp { a, b, .. } => {
                    remap(&copy_of, a, &mut changed);
                    remap(&copy_of, b, &mut changed);
                }
                Inst::IUn { a, .. }
                | Inst::FNeg { a, .. }
                | Inst::FAbs { a, .. }
                | Inst::FMov { a, .. }
                | Inst::CvtIF { a, .. }
                | Inst::CvtFI { a, .. } => remap(&copy_of, a, &mut changed),
                Inst::Load { base, .. } | Inst::FLoad { base, .. } => {
                    remap(&copy_of, base, &mut changed)
                }
                Inst::Store { base, value, .. } => {
                    remap(&copy_of, base, &mut changed);
                    remap(&copy_of, value, &mut changed);
                }
                Inst::FStore { base, value, .. } => {
                    remap(&copy_of, base, &mut changed);
                    remap(&copy_of, value, &mut changed);
                }
                Inst::Call { args, .. } => {
                    for a in args {
                        remap(&copy_of, a, &mut changed);
                    }
                }
                Inst::Sys { arg, .. } => remap(&copy_of, arg, &mut changed),
                Inst::IConst { .. } | Inst::FConst { .. } | Inst::GlobalAddr { .. } => {}
            }
            // Kill mappings involving the redefined register.
            if let Some(d) = inst.def() {
                copy_of.remove(&d.0);
                copy_of.retain(|_, &mut s| s != d.0);
                // Record fresh copies.
                match inst {
                    Inst::IUn {
                        op: IUnOp::Mov,
                        dst,
                        a,
                    } if dst != a => {
                        copy_of.insert(dst.0, a.0);
                    }
                    Inst::FMov { dst, a } if dst != a => {
                        copy_of.insert(dst.0, a.0);
                    }
                    _ => {}
                }
            }
        }
        // Rewrite the terminator's uses too.
        match &mut block.term {
            tinker_ir::Terminator::Ret(Some(v)) => {
                if let Some(&s) = copy_of.get(&v.0) {
                    *v = VReg(s);
                    changed = true;
                }
            }
            tinker_ir::Terminator::CondBr { pred, .. } => {
                if let Some(&s) = copy_of.get(&pred.0) {
                    *pred = VReg(s);
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinker_ir::{FunctionBuilder, IBinOp, RegClass, Terminator};

    #[test]
    fn propagates_simple_copy() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let c = b.iun(e, IUnOp::Mov, p); // c = mov p
        let one = b.iconst(e, 1);
        let s = b.ibin(e, IBinOp::Add, c, one);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        assert!(run(&mut f));
        match &f.blocks[0].insts[2] {
            Inst::IBin { a, .. } => assert_eq!(*a, p),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redefinition_of_source_kills_mapping() {
        // c = mov p; p = 7; use c → must NOT become 7's register.
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let c = b.iun(e, IUnOp::Mov, p);
        let seven = b.iconst(e, 7);
        b.push(
            e,
            Inst::IUn {
                op: IUnOp::Mov,
                dst: p,
                a: seven,
            },
        );
        let s = b.ibin(e, IBinOp::Add, c, c);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        match &f.blocks[0].insts.last().unwrap() {
            Inst::IBin { a, b: rhs, .. } => {
                assert_eq!(*a, c, "use of c must stay c after p was redefined");
                assert_eq!(*rhs, c);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn propagates_into_terminator() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let c = b.iun(e, IUnOp::Mov, p);
        b.set_term(e, Terminator::Ret(Some(c)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].term, Terminator::Ret(Some(p)));
    }

    #[test]
    fn no_change_reports_false() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        b.set_term(e, Terminator::Ret(Some(p)));
        let mut f = b.finish();
        assert!(!run(&mut f));
    }
}
