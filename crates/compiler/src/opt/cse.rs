//! Block-local common-subexpression elimination via value numbering.
//!
//! Within a block, a pure instruction whose `(operator, operands)` tuple
//! was already computed — and whose operands and the register holding
//! that result have not been redefined since — is replaced by a copy
//! from the earlier result. Loads are excluded (stores/calls could
//! intervene), and so are copies, which are copy propagation's; it then
//! melts the inserted moves.

use crate::fxmap::FxMap;
use tinker_ir::{Function, IUnOp, Inst, VReg};

/// A pure computation's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    IConst(i64),
    /// Bit pattern, so -0.0 and NaN payloads stay distinct.
    FConst(u32),
    GlobalAddr(u32),
    IBin(u8, u32, u32),
    IUn(u8, u32),
    FBin(u8, u32, u32),
    FNeg(u32),
    FAbs(u32),
    CvtIF(u32),
    CvtFI(u32),
}

fn key_of(inst: &Inst) -> Option<Key> {
    Some(match inst {
        Inst::IConst { value, .. } => Key::IConst(*value),
        Inst::FConst { value, .. } => Key::FConst(value.to_bits()),
        Inst::GlobalAddr { global, .. } => Key::GlobalAddr(global.0),
        Inst::IBin { op, a, b, .. } => Key::IBin(*op as u8, a.0, b.0),
        // Copies are copy propagation's: a copy rewritten to read an
        // earlier copy is only rewritten back.
        Inst::IUn { op: IUnOp::Mov, .. } => return None,
        Inst::IUn { op, a, .. } => Key::IUn(*op as u8, a.0),
        Inst::FBin { op, a, b, .. } => Key::FBin(*op as u8, a.0, b.0),
        Inst::FNeg { a, .. } => Key::FNeg(a.0),
        Inst::FAbs { a, .. } => Key::FAbs(a.0),
        Inst::CvtIF { a, .. } => Key::CvtIF(a.0),
        Inst::CvtFI { a, .. } => Key::CvtFI(a.0),
        _ => return None,
    })
}

impl Key {
    /// The registers the key reads.
    fn operands(&self) -> [Option<u32>; 2] {
        match *self {
            Key::IConst(_) | Key::FConst(_) | Key::GlobalAddr(_) => [None, None],
            Key::IBin(_, a, b) | Key::FBin(_, a, b) => [Some(a), Some(b)],
            Key::IUn(_, a) | Key::FNeg(a) | Key::FAbs(a) | Key::CvtIF(a) | Key::CvtFI(a) => {
                [Some(a), None]
            }
        }
    }

    /// True when the value is a float.
    fn is_float(&self) -> bool {
        matches!(
            self,
            Key::FConst(_) | Key::FBin(..) | Key::FNeg(_) | Key::FAbs(_) | Key::CvtIF(_)
        )
    }
}

/// The copy `dst = prev` in the class of `k`'s value.
fn copy_of(k: &Key, dst: VReg, prev: VReg) -> Inst {
    if k.is_float() {
        Inst::FMov { dst, a: prev }
    } else {
        Inst::IUn {
            op: IUnOp::Mov,
            dst,
            a: prev,
        }
    }
}

/// Runs the pass; returns true when anything changed.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    // key → vreg currently holding the value.
    let mut available: FxMap<Key, VReg> = FxMap::default();
    // Per vreg id, the keys recorded while reading or holding it, so a
    // redefinition visits only those: singly linked lists threaded
    // through one arena, `head[v]` indexing `links`. An entry goes stale
    // when its key is invalidated through another register (and perhaps
    // recorded again), hence the re-check against `available` before
    // removing.
    const NIL: u32 = u32::MAX;
    let mut head: Vec<u32> = vec![NIL; f.vreg_classes.len()];
    let mut links: Vec<(Key, u32)> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    for block in &mut f.blocks {
        available.clear();
        links.clear();
        for v in touched.drain(..) {
            head[v as usize] = NIL;
        }
        for inst in &mut block.insts {
            if let Some(k) = key_of(inst) {
                if let Some(&prev) = available.get(&k) {
                    // Replace with a copy; classes agree by construction.
                    let dst = inst.def().expect("pure insts define");
                    if dst != prev {
                        *inst = copy_of(&k, dst, prev);
                        changed = true;
                    }
                }
            }
            // Invalidate everything touching the (re)defined register.
            let Some(d) = inst.def() else { continue };
            let mut at = std::mem::replace(&mut head[d.0 as usize], NIL);
            while at != NIL {
                let (k, next) = links[at as usize];
                let hit = available
                    .get(&k)
                    .is_some_and(|&v| v == d || k.operands().contains(&Some(d.0)));
                if hit {
                    available.remove(&k);
                }
                at = next;
            }
            // Record the fresh value. A rewritten instruction is a copy
            // and has no key; any other key was either absent or held by
            // `d` and so just invalidated.
            if let Some(k) = key_of(inst) {
                let shadowed = available.insert(k, d);
                debug_assert!(shadowed.is_none(), "{k:?} was still available");
                for v in [Some(d.0)].into_iter().chain(k.operands()).flatten() {
                    let h = &mut head[v as usize];
                    if *h == NIL {
                        touched.push(v);
                    }
                    links.push((k, *h));
                    *h = links.len() as u32 - 1;
                }
            }
        }
    }
    changed
}

/// The pass as it was before the reverse index: every definition
/// filters the whole table. Kept as the oracle the indexed version is
/// checked against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{copy_of, key_of, Key};
    use std::collections::HashMap;
    use tinker_ir::{Function, VReg};

    fn key_operands(k: &Key) -> Vec<u32> {
        k.operands().into_iter().flatten().collect()
    }

    /// The whole pass.
    pub fn run(f: &mut Function) -> bool {
        let mut changed = false;
        for block in &mut f.blocks {
            let mut available: HashMap<Key, VReg> = HashMap::new();
            for inst in &mut block.insts {
                let key = key_of(inst);
                if let Some(k) = &key {
                    if let Some(&prev) = available.get(k) {
                        let dst = inst.def().expect("pure insts define");
                        if dst != prev {
                            *inst = copy_of(k, dst, prev);
                            changed = true;
                        }
                    }
                }
                if let Some(d) = inst.def() {
                    available.retain(|k, &mut v| v != d && !key_operands(k).contains(&d.0));
                    if let Some(k) = key_of(inst) {
                        available.entry(k).or_insert(d);
                    }
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinker_ir::{FunctionBuilder, IBinOp, Module, RegClass, Terminator};

    #[test]
    fn eliminates_repeated_addition() {
        let mut b = FunctionBuilder::new("f", 2, Some(RegClass::Int));
        let e = b.entry();
        let (x, y) = (b.param(0), b.param(1));
        let s1 = b.ibin(e, IBinOp::Add, x, y);
        let s2 = b.ibin(e, IBinOp::Add, x, y); // duplicate
        let t = b.ibin(e, IBinOp::Mul, s1, s2);
        b.set_term(e, Terminator::Ret(Some(t)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(
            matches!(f.blocks[0].insts[1], Inst::IUn { op: IUnOp::Mov, .. }),
            "duplicate becomes a copy: {:?}",
            f.blocks[0].insts[1]
        );
        let mut m = Module::new();
        m.add_func(f);
        m.verify().unwrap();
    }

    #[test]
    fn redefinition_blocks_reuse() {
        // x = a+b; a = 0; y = a+b  →  second a+b must NOT reuse x.
        let mut b = FunctionBuilder::new("f", 2, Some(RegClass::Int));
        let e = b.entry();
        let (a, c) = (b.param(0), b.param(1));
        let _x = b.ibin(e, IBinOp::Add, a, c);
        let z = b.iconst(e, 0);
        b.push(
            e,
            Inst::IUn {
                op: IUnOp::Mov,
                dst: a,
                a: z,
            },
        );
        let y = b.ibin(e, IBinOp::Add, a, c);
        b.set_term(e, Terminator::Ret(Some(y)));
        let mut f = b.finish();
        run(&mut f);
        assert!(
            matches!(
                f.blocks[0].insts.last(),
                Some(Inst::IBin {
                    op: IBinOp::Add,
                    ..
                })
            ),
            "must stay a real add"
        );
    }

    #[test]
    fn redefining_the_holder_blocks_reuse() {
        // x = a+b; x = 0; y = a+b  →  a and b are untouched, but x no
        // longer holds a+b, so the second add must NOT become `y = x`.
        let mut b = FunctionBuilder::new("f", 2, Some(RegClass::Int));
        let e = b.entry();
        let (a, c) = (b.param(0), b.param(1));
        let x = b.ibin(e, IBinOp::Add, a, c);
        b.push(e, Inst::IConst { dst: x, value: 0 });
        let y = b.ibin(e, IBinOp::Add, a, c);
        let s = b.ibin(e, IBinOp::Sub, y, x);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        assert!(!run(&mut f), "nothing to reuse");
        assert!(
            matches!(
                f.blocks[0].insts[2],
                Inst::IBin {
                    op: IBinOp::Add,
                    ..
                }
            ),
            "must stay a real add: {:?}",
            f.blocks[0].insts[2]
        );
    }

    #[test]
    fn copies_are_left_to_copy_propagation() {
        // u = a; v = a  →  no rewrite to `v = u` (copyprop would undo it).
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let a = b.param(0);
        let u = b.iun(e, IUnOp::Mov, a);
        let v = b.iun(e, IUnOp::Mov, a);
        let s = b.ibin(e, IBinOp::Add, u, v);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        let before = f.clone();
        assert!(!run(&mut f));
        assert_eq!(f, before);
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let c1 = b.iconst(e, 42);
        let c2 = b.iconst(e, 42);
        let s = b.ibin(e, IBinOp::Add, c1, c2);
        b.set_term(e, Terminator::Ret(Some(s)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(matches!(
            f.blocks[0].insts[1],
            Inst::IUn { op: IUnOp::Mov, .. }
        ));
    }

    #[test]
    fn float_constants_compare_by_bits() {
        let mut b = FunctionBuilder::new("f", 0, Some(RegClass::Int));
        let e = b.entry();
        let a = b.fconst(e, 0.0);
        let c = b.fconst(e, -0.0); // different bit pattern!
        let s = b.fbin(e, tinker_ir::FBinOp::Add, a, c);
        let i = b.cvt_fi(e, s);
        b.set_term(e, Terminator::Ret(Some(i)));
        let mut f = b.finish();
        run(&mut f);
        assert!(
            matches!(f.blocks[0].insts[1], Inst::FConst { .. }),
            "-0.0 must not be folded into 0.0"
        );
    }

    #[test]
    fn loads_are_never_cse_d() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let l1 = b.load(e, tinker_ir::Width::Word, p, 0);
        b.store(e, tinker_ir::Width::Word, p, 0, l1);
        let l2 = b.load(e, tinker_ir::Width::Word, p, 0);
        b.set_term(e, Terminator::Ret(Some(l2)));
        let mut f = b.finish();
        run(&mut f);
        assert!(
            matches!(f.blocks[0].insts[2], Inst::Load { .. }),
            "load stays a load"
        );
    }
}
