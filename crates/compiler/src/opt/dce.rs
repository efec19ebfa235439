//! Global dead-code elimination.
//!
//! Backward liveness fixpoint over the CFG; a side-effect-free
//! instruction whose destination is dead after it is removed. Calls keep
//! their side effects but drop an unused return value binding.
//!
//! Liveness runs over dense [`VRegSets`] indexed by vreg id: each
//! block's gen (upward-exposed uses) and kill (definitions) sets are
//! built in one walk, after which [`solve_backward`] iterates the
//! word-wise transfer with no per-iteration block walk.

use crate::dataflow::{solve_backward, VRegSets};
use tinker_ir::{Function, Inst, Terminator, VReg};

/// Runs the pass; returns true when anything changed.
pub fn run(f: &mut Function) -> bool {
    let (_, live_out) = liveness(f);
    sweep(f, live_out)
}

/// Block-level liveness over vreg ids: `(live_in, live_out)`.
pub fn liveness(f: &Function) -> (VRegSets, VRegSets) {
    let nb = f.blocks.len();
    let nv = f.vreg_classes.len();
    let mut gen = VRegSets::new(nb, nv);
    let mut kill = VRegSets::new(nb, nv);
    for (b, block) in f.blocks.iter().enumerate() {
        // Forward: a use counts unless the block defined it earlier.
        let read = |u: VReg, gen: &mut VRegSets, kill: &VRegSets| {
            if !kill.contains(b, u.0) {
                gen.insert(b, u.0);
            }
        };
        for inst in &block.insts {
            inst.for_each_use(|u| read(u, &mut gen, &kill));
            if let Some(d) = inst.def() {
                kill.insert(b, d.0);
            }
        }
        if let Some(u) = block.term.use_reg() {
            read(u, &mut gen, &kill);
        }
    }
    let succs: Vec<[Option<u32>; 2]> = f
        .blocks
        .iter()
        .map(|b| match b.term {
            Terminator::Jump(t) => [Some(t.0), None],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => [Some(then_bb.0), Some(else_bb.0)],
            Terminator::Ret(_) | Terminator::Halt => [None, None],
        })
        .collect();
    solve_backward(&gen, &kill, &succs)
}

/// Deletes the dead side-effect-free instructions; `live` starts as each
/// block's live-out set and is walked backward through the block in
/// place. Returns true when any instruction was removed.
fn sweep(f: &mut Function, mut live: VRegSets) -> bool {
    let mut keep: Vec<bool> = Vec::new();
    let mut any = false;
    for (b, block) in f.blocks.iter_mut().enumerate() {
        if let Some(u) = block.term.use_reg() {
            live.insert(b, u.0);
        }
        keep.clear();
        keep.resize(block.insts.len(), true);
        let mut dropped = false;
        for (i, inst) in block.insts.iter_mut().enumerate().rev() {
            let dead_def = inst.def().is_some_and(|d| !live.contains(b, d.0));
            if dead_def && !inst.has_side_effects() {
                keep[i] = false;
                dropped = true;
                continue; // its uses do not become live
            }
            if dead_def {
                // A call with an unused return value keeps its effects.
                if let Inst::Call { ret, .. } = inst {
                    *ret = None;
                }
            }
            if let Some(d) = inst.def() {
                live.remove(b, d.0);
            }
            inst.for_each_use(|u| live.insert(b, u.0));
        }
        if dropped {
            let mut it = keep.iter();
            block.insts.retain(|_| *it.next().unwrap());
            any = true;
        }
    }
    any
}

/// The hash-set liveness and sweep this pass replaced, kept as the
/// oracle the dense version is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashSet;
    use tinker_ir::{Function, Inst};

    /// `(live_in, live_out)` per block.
    pub fn liveness(f: &Function) -> (Vec<HashSet<u32>>, Vec<HashSet<u32>>) {
        let nb = f.blocks.len();
        let mut live_in: Vec<HashSet<u32>> = vec![HashSet::new(); nb];
        let mut live_out: Vec<HashSet<u32>> = vec![HashSet::new(); nb];
        let succs: Vec<Vec<u32>> = f
            .blocks
            .iter()
            .map(|b| b.term.successors().iter().map(|s| s.0).collect())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                let mut out: HashSet<u32> = HashSet::new();
                for &s in &succs[bi] {
                    out.extend(live_in[s as usize].iter().copied());
                }
                let mut live = out.clone();
                let block = &f.blocks[bi];
                for v in block.term.uses() {
                    live.insert(v.0);
                }
                for inst in block.insts.iter().rev() {
                    if let Some(d) = inst.def() {
                        live.remove(&d.0);
                    }
                    for u in inst.uses() {
                        live.insert(u.0);
                    }
                }
                if out != live_out[bi] || live != live_in[bi] {
                    changed = true;
                    live_out[bi] = out;
                    live_in[bi] = live;
                }
            }
        }
        (live_in, live_out)
    }

    /// The whole pass.
    pub fn run(f: &mut Function) -> bool {
        let (_, live_out) = liveness(f);
        let mut any = false;
        for (bi, out) in live_out.into_iter().enumerate() {
            let mut live = out;
            for v in f.blocks[bi].term.uses() {
                live.insert(v.0);
            }
            let block = &mut f.blocks[bi];
            let mut keep: Vec<bool> = vec![true; block.insts.len()];
            for (i, inst) in block.insts.iter_mut().enumerate().rev() {
                let dead_def = inst.def().map(|d| !live.contains(&d.0)).unwrap_or(false);
                if dead_def && !inst.has_side_effects() {
                    keep[i] = false;
                    any = true;
                    continue;
                }
                if dead_def {
                    if let Inst::Call { ret, .. } = inst {
                        *ret = None;
                    }
                }
                if let Some(d) = inst.def() {
                    live.remove(&d.0);
                }
                for u in inst.uses() {
                    live.insert(u.0);
                }
            }
            let mut it = keep.iter();
            block.insts.retain(|_| *it.next().unwrap());
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinker_ir::{FunctionBuilder, IBinOp, Module, RegClass, Terminator, Width};

    #[test]
    fn removes_dead_arithmetic() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let _dead = b.ibin(e, IBinOp::Add, p, p);
        b.set_term(e, Terminator::Ret(Some(p)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn keeps_stores_and_sys() {
        let mut b = FunctionBuilder::new("f", 1, None);
        let e = b.entry();
        let p = b.param(0);
        b.store(e, Width::Word, p, 0, p);
        b.push(
            e,
            Inst::Sys {
                code: tinker_ir::SysCode::PrintInt,
                arg: p,
            },
        );
        b.set_term(e, Terminator::Ret(None));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn keeps_call_but_drops_unused_ret() {
        let mut m = Module::new();
        let callee = m.add_func(FunctionBuilder::new("g", 0, Some(RegClass::Int)).finish());
        let mut b = FunctionBuilder::new("f", 0, None);
        let e = b.entry();
        let _r = b.call(e, callee, vec![], Some(RegClass::Int));
        b.set_term(e, Terminator::Ret(None));
        let mut f = b.finish();
        assert!(!run(&mut f) || !f.blocks[0].insts.is_empty());
        match &f.blocks[0].insts[0] {
            Inst::Call { ret, .. } => assert!(ret.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keeps_values_live_across_blocks() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let v = b.ibin(e, IBinOp::Add, p, p); // used in the next block
        let nxt = b.new_block();
        b.set_term(e, Terminator::Jump(nxt));
        b.set_term(nxt, Terminator::Ret(Some(v)));
        let mut f = b.finish();
        assert!(!run(&mut f), "nothing should be removed");
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn chains_of_dead_code_removed_in_one_run() {
        let mut b = FunctionBuilder::new("f", 1, Some(RegClass::Int));
        let e = b.entry();
        let p = b.param(0);
        let a = b.ibin(e, IBinOp::Add, p, p);
        let c = b.ibin(e, IBinOp::Mul, a, a);
        let _d = b.ibin(e, IBinOp::Sub, c, a);
        b.set_term(e, Terminator::Ret(Some(p)));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert!(f.blocks[0].insts.is_empty(), "whole dead chain removed");
    }
}
