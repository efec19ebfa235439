//! Linear-scan register allocation onto the TEPIC register files.
//!
//! Pools (see [`crate::machine`] for the reservation rationale):
//!
//! * GPR: caller-saved `r8..=r15`, callee-saved `r16..=r25` and `r28`;
//! * FPR: caller-saved `f0..=f15`, callee-saved `f16..=f29`;
//! * PR: `p1..=p31` (all caller-saved; predicate live ranges are
//!   block-local by construction and never cross calls).
//!
//! Intervals that span a call site must receive a callee-saved register
//! (calls clobber the caller-saved files) or spill to the stack frame.
//! Spill code uses the reserved scratch registers (`r30` for addresses,
//! `r26`/`r27` and `f30`/`f31` for values), so allocation never needs to
//! iterate.

use crate::liveness::{Interval, Liveness};
use crate::machine::{MFunction, MInst, MReg};
use std::collections::HashMap;
use std::fmt;
use tepic_isa::op::{IntOpcode, MemWidth};
use tepic_isa::regs::Gpr;
use tinker_ir::RegClass;

/// Allocatable pools per class: (caller-saved, callee-saved).
fn pools(class: RegClass) -> (&'static [u8], &'static [u8]) {
    match class {
        RegClass::Int => (
            &[8, 9, 10, 11, 12, 13, 14, 15],
            &[16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 28],
        ),
        RegClass::Float => (
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
            &[16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29],
        ),
        RegClass::Pred => (
            &[
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                24, 25, 26, 27, 28, 29, 30, 31,
            ],
            &[],
        ),
    }
}

/// GPR scratch for spill addresses.
const ADDR_TMP: u8 = 30;
/// GPR scratch registers for spilled values.
const GPR_TMPS: [u8; 2] = [26, 27];
/// FPR scratch registers for spilled values.
const FPR_TMPS: [u8; 2] = [30, 31];

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegAllocError {
    /// A predicate interval would need to spill — cannot happen with the
    /// frontend's block-local predicate discipline; reported rather than
    /// silently miscompiled.
    PredicateSpill { func: String },
}

impl fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegAllocError::PredicateSpill { func } => {
                write!(f, "{func}: predicate register pressure requires spilling")
            }
        }
    }
}

impl std::error::Error for RegAllocError {}

/// Result of allocation: the rewritten function plus frame facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Stack frame size in bytes (0 = no frame, no prologue).
    pub frame_size: u32,
    /// Number of spill slots.
    pub spill_slots: u32,
    /// Callee-saved GPRs the function uses (saved/restored).
    pub saved_gprs: Vec<u8>,
    /// Callee-saved FPRs the function uses.
    pub saved_fprs: Vec<u8>,
}

#[derive(Clone, Copy)]
enum Loc {
    Reg(u8),
    Slot(u32),
}

/// Allocates registers for `f` in place: every `MReg::Virt` is replaced by
/// a physical register or spill code, and the prologue/epilogue is
/// inserted when a frame is needed.
///
/// # Errors
///
/// [`RegAllocError::PredicateSpill`] when predicate pressure exceeds the
/// 31 allocatable predicates (unreachable via the Tink frontend).
pub fn allocate(f: &mut MFunction) -> Result<FrameInfo, RegAllocError> {
    let liveness = Liveness::compute(f);
    let mut intervals = liveness.intervals(f);
    intervals.sort_by_key(|iv| (iv.start, iv.end, iv.vreg));

    // Call sites in linear index space.
    let mut call_points: Vec<u32> = Vec::new();
    {
        let mut idx = 0u32;
        for b in &f.blocks {
            for inst in &b.insts {
                if matches!(inst, MInst::Call { .. }) {
                    call_points.push(idx);
                }
                idx += 1;
            }
        }
    }
    // `call_points` is ascending: look at the first call after the start.
    let crosses_call = |iv: &Interval| -> bool {
        let first_after = call_points.partition_point(|&c| c <= iv.start);
        call_points.get(first_after).is_some_and(|&c| c < iv.end)
    };

    let mut loc: Vec<Option<Loc>> = vec![None; f.vclass.len()];
    let mut next_slot = 0u32;
    let mut used_callee: HashMap<RegClass, Vec<u8>> = HashMap::new();

    // Per-class active lists: (end, vreg, reg).
    let mut active: HashMap<RegClass, Vec<(u32, u32, u8)>> = HashMap::new();

    for iv in &intervals {
        let class = f.vclass[iv.vreg as usize];
        let (caller, callee) = pools(class);
        let act = active.entry(class).or_default();
        act.retain(|&(end, _, _)| end >= iv.start);

        let needs_callee = class != RegClass::Pred && crosses_call(iv);
        let in_use: u64 = act.iter().fold(0, |m, &(_, _, r)| m | 1 << r);
        let free = |pool: &[u8]| pool.iter().copied().find(|&r| in_use & 1 << r == 0);

        let choice = if needs_callee {
            free(callee)
        } else {
            free(caller).or_else(|| free(callee))
        };

        match choice {
            Some(reg) => {
                if callee.contains(&reg) {
                    let v = used_callee.entry(class).or_default();
                    if !v.contains(&reg) {
                        v.push(reg);
                    }
                }
                loc[iv.vreg as usize] = Some(Loc::Reg(reg));
                act.push((iv.end, iv.vreg, reg));
            }
            None => {
                // Try to steal from the active interval with the furthest
                // end whose register is compatible with our constraint.
                let victim = act
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, _, r))| !needs_callee || callee.contains(&r))
                    .max_by_key(|(_, &(end, _, _))| end)
                    .map(|(i, &v)| (i, v));
                match victim {
                    Some((ai, (vend, vvreg, vreg_phys))) if vend > iv.end => {
                        if class == RegClass::Pred {
                            return Err(RegAllocError::PredicateSpill {
                                func: f.name.clone(),
                            });
                        }
                        // Victim spills; we take its register.
                        loc[vvreg as usize] = Some(Loc::Slot(next_slot));
                        next_slot += 1;
                        loc[iv.vreg as usize] = Some(Loc::Reg(vreg_phys));
                        act.remove(ai);
                        act.push((iv.end, iv.vreg, vreg_phys));
                    }
                    _ => {
                        if class == RegClass::Pred {
                            return Err(RegAllocError::PredicateSpill {
                                func: f.name.clone(),
                            });
                        }
                        loc[iv.vreg as usize] = Some(Loc::Slot(next_slot));
                        next_slot += 1;
                    }
                }
            }
        }
    }

    let saved_gprs = used_callee.remove(&RegClass::Int).unwrap_or_default();
    let saved_fprs = used_callee.remove(&RegClass::Float).unwrap_or_default();
    let spill_slots = next_slot;
    // Frame: spill slots, then saved GPRs, then saved FPRs (4 bytes each).
    let frame_size = (spill_slots + saved_gprs.len() as u32 + saved_fprs.len() as u32) * 4;

    rewrite(f, &loc, spill_slots, frame_size, &saved_gprs, &saved_fprs);

    Ok(FrameInfo {
        frame_size,
        spill_slots,
        saved_gprs,
        saved_fprs,
    })
}

/// Emits `dst_gpr(ADDR_TMP) = sp + off` into `out`.
fn emit_slot_addr(out: &mut Vec<MInst>, off: u32) {
    let sp = MReg::Phys(Gpr::SP.index());
    let at = MReg::Phys(ADDR_TMP);
    if off == 0 {
        out.push(MInst::IntAlu {
            op: IntOpcode::Add,
            dst: at,
            a: sp,
            b: MReg::Phys(0),
        });
    } else {
        out.push(MInst::LoadImm {
            high: false,
            imm: off as i32,
            dst: at,
        });
        out.push(MInst::IntAlu {
            op: IntOpcode::Add,
            dst: at,
            a: sp,
            b: at,
        });
    }
}

fn emit_reload(out: &mut Vec<MInst>, class: RegClass, slot_off: u32, tmp: u8) {
    emit_slot_addr(out, slot_off);
    let at = MReg::Phys(ADDR_TMP);
    match class {
        RegClass::Int => out.push(MInst::Load {
            width: MemWidth::Word,
            dst: MReg::Phys(tmp),
            base: at,
        }),
        RegClass::Float => out.push(MInst::FLoad {
            dst: MReg::Phys(tmp),
            base: at,
        }),
        RegClass::Pred => unreachable!("predicates never spill"),
    }
}

fn emit_spill_store(out: &mut Vec<MInst>, class: RegClass, slot_off: u32, tmp: u8) {
    emit_slot_addr(out, slot_off);
    let at = MReg::Phys(ADDR_TMP);
    match class {
        RegClass::Int => out.push(MInst::Store {
            width: MemWidth::Word,
            base: at,
            value: MReg::Phys(tmp),
        }),
        RegClass::Float => out.push(MInst::FStore {
            base: at,
            value: MReg::Phys(tmp),
        }),
        RegClass::Pred => unreachable!("predicates never spill"),
    }
}

fn rewrite(
    f: &mut MFunction,
    loc: &[Option<Loc>],
    spill_slots: u32,
    frame_size: u32,
    saved_gprs: &[u8],
    saved_fprs: &[u8],
) {
    for block in &mut f.blocks {
        let old = std::mem::take(&mut block.insts);
        let mut out: Vec<MInst> = Vec::with_capacity(old.len());
        for mut inst in old {
            // Map spilled *uses* to temps (reload before the inst).
            let mut use_tmp: HashMap<u32, u8> = HashMap::new();
            let mut def_spill: Option<(u32, RegClass, u8)> = None;
            let mut gpr_tmp_i = 0usize;
            let mut fpr_tmp_i = 0usize;
            // First pass: plan temps for spilled operands.
            for (class, r) in inst.uses() {
                if let MReg::Virt(v) = r {
                    if let Some(Loc::Slot(s)) = loc[v as usize] {
                        if use_tmp.contains_key(&v) {
                            continue;
                        }
                        let tmp = match class {
                            RegClass::Int => {
                                let t = GPR_TMPS[gpr_tmp_i];
                                gpr_tmp_i += 1;
                                t
                            }
                            RegClass::Float => {
                                let t = FPR_TMPS[fpr_tmp_i];
                                fpr_tmp_i += 1;
                                t
                            }
                            RegClass::Pred => unreachable!("predicates never spill"),
                        };
                        emit_reload(&mut out, class, s * 4, tmp);
                        use_tmp.insert(v, tmp);
                    }
                }
            }
            for (class, r) in inst.defs() {
                if let MReg::Virt(v) = r {
                    if let Some(Loc::Slot(s)) = loc[v as usize] {
                        // Reuse the use temp when the same vreg is both
                        // read and written, else grab a fresh one.
                        let tmp = use_tmp.get(&v).copied().unwrap_or(match class {
                            RegClass::Int => GPR_TMPS[gpr_tmp_i.min(1)],
                            RegClass::Float => FPR_TMPS[fpr_tmp_i.min(1)],
                            RegClass::Pred => unreachable!(),
                        });
                        def_spill = Some((s, class, tmp));
                        use_tmp.insert(v, tmp);
                    }
                }
            }
            inst.map_regs(|class, _, r| match r {
                MReg::Virt(v) => match loc[v as usize] {
                    Some(Loc::Reg(p)) => MReg::Phys(p),
                    Some(Loc::Slot(_)) => MReg::Phys(use_tmp[&v]),
                    None => {
                        // A register with no interval is dead everywhere;
                        // route it to a scratch so the op stays encodable.
                        MReg::Phys(match class {
                            RegClass::Int => GPR_TMPS[0],
                            RegClass::Float => FPR_TMPS[0],
                            RegClass::Pred => 31,
                        })
                    }
                },
                phys => phys,
            });
            // Drop no-op copies produced by coalescable moves.
            let is_nop_copy = matches!(inst, MInst::Copy { dst, src, .. } if dst == src);
            if !is_nop_copy {
                out.push(inst);
            }
            if let Some((s, class, tmp)) = def_spill {
                emit_spill_store(&mut out, class, s * 4, tmp);
            }
        }
        block.insts = out;
    }

    if frame_size == 0 {
        return;
    }
    let sp = MReg::Phys(Gpr::SP.index());
    let at = MReg::Phys(ADDR_TMP);

    // Prologue at the entry block head: sp -= frame; save callee regs.
    let mut pro: Vec<MInst> = vec![
        MInst::LoadImm {
            high: false,
            imm: frame_size as i32,
            dst: at,
        },
        MInst::IntAlu {
            op: IntOpcode::Sub,
            dst: sp,
            a: sp,
            b: at,
        },
    ];
    for (i, &r) in saved_gprs.iter().enumerate() {
        let off = (spill_slots + i as u32) * 4;
        emit_slot_addr(&mut pro, off);
        pro.push(MInst::Store {
            width: MemWidth::Word,
            base: at,
            value: MReg::Phys(r),
        });
    }
    for (i, &r) in saved_fprs.iter().enumerate() {
        let off = (spill_slots + saved_gprs.len() as u32 + i as u32) * 4;
        emit_slot_addr(&mut pro, off);
        pro.push(MInst::FStore {
            base: at,
            value: MReg::Phys(r),
        });
    }
    let entry = &mut f.blocks[0].insts;
    pro.append(entry);
    *entry = pro;

    // Epilogue before every Ret.
    for block in &mut f.blocks {
        if let Some(MInst::Ret { addr }) = block.insts.last().cloned() {
            block.insts.pop();
            let mut epi: Vec<MInst> = Vec::new();
            // Preserve the return target across the restores.
            let link_tmp = MReg::Phys(GPR_TMPS[0]);
            if addr != link_tmp {
                epi.push(MInst::Copy {
                    class: RegClass::Int,
                    dst: link_tmp,
                    src: addr,
                });
            }
            for (i, &r) in saved_gprs.iter().enumerate() {
                let off = (spill_slots + i as u32) * 4;
                emit_slot_addr(&mut epi, off);
                epi.push(MInst::Load {
                    width: MemWidth::Word,
                    dst: MReg::Phys(r),
                    base: at,
                });
            }
            for (i, &r) in saved_fprs.iter().enumerate() {
                let off = (spill_slots + saved_gprs.len() as u32 + i as u32) * 4;
                emit_slot_addr(&mut epi, off);
                epi.push(MInst::FLoad {
                    dst: MReg::Phys(r),
                    base: at,
                });
            }
            epi.push(MInst::LoadImm {
                high: false,
                imm: frame_size as i32,
                dst: at,
            });
            epi.push(MInst::IntAlu {
                op: IntOpcode::Add,
                dst: sp,
                a: sp,
                b: at,
            });
            epi.push(MInst::Ret { addr: link_tmp });
            block.insts.append(&mut epi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{lower_program, parser::parse};
    use crate::machine::{layout_order, lower_function, ConstPool, DataLayout, DATA_BASE};

    fn alloc_fn(src: &str, name: &str) -> (MFunction, FrameInfo) {
        let m = lower_program(&parse(src).unwrap()).unwrap();
        let (_, f) = m.func_by_name(name).unwrap();
        let layout = DataLayout::new(&m, DATA_BASE);
        let mut pool = ConstPool::default();
        let mut mf = lower_function(&m, f, &layout_order(f), &layout, &mut pool);
        let fi = allocate(&mut mf).unwrap();
        (mf, fi)
    }

    fn assert_fully_physical(f: &MFunction) {
        for b in &f.blocks {
            for i in &b.insts {
                for (_, r) in i.defs().into_iter().chain(i.uses()) {
                    assert!(matches!(r, MReg::Phys(_)), "unallocated operand in {i:?}");
                }
            }
        }
    }

    #[test]
    fn simple_function_allocates_without_frame() {
        let (f, fi) = alloc_fn("fn main() { var a = 1; var b = 2; print(a + b); }", "main");
        assert_fully_physical(&f);
        assert_eq!(fi.spill_slots, 0);
    }

    #[test]
    fn value_live_across_call_gets_callee_saved_or_spills() {
        let src = r#"
            fn main() { var x = 5; var y = f(1); print(x + y); }
            fn f(a) { return a + 1; }
        "#;
        let (f, fi) = alloc_fn(src, "main");
        assert_fully_physical(&f);
        // `x` crosses the call: either a callee-saved GPR was used (and
        // saved) or it spilled.
        assert!(!fi.saved_gprs.is_empty() || fi.spill_slots > 0);
        if fi.frame_size > 0 {
            // Prologue must open with the sp adjustment.
            assert!(matches!(f.blocks[0].insts[0], MInst::LoadImm { .. }));
            assert!(matches!(
                f.blocks[0].insts[1],
                MInst::IntAlu {
                    op: IntOpcode::Sub,
                    ..
                }
            ));
        }
    }

    #[test]
    fn high_pressure_forces_spills() {
        // 30 simultaneously-live integer locals exceed the 19 allocatable
        // GPRs.
        let mut body = String::new();
        for i in 0..30 {
            body.push_str(&format!("var x{i} = {i};\n"));
        }
        body.push_str("var s = 0;\n");
        for i in 0..30 {
            body.push_str(&format!("s = s + x{i};\n"));
        }
        // Keep them all live by summing in reverse too.
        for i in (0..30).rev() {
            body.push_str(&format!("s = s + x{i};\n"));
        }
        let src = format!("fn main() {{ {body} print(s); }}");
        let (f, fi) = alloc_fn(&src, "main");
        assert_fully_physical(&f);
        assert!(fi.spill_slots > 0, "expected spills under pressure");
        assert!(fi.frame_size >= fi.spill_slots * 4);
    }

    #[test]
    fn reserved_registers_never_allocated() {
        let mut body = String::new();
        for i in 0..24 {
            body.push_str(&format!("var x{i} = {i};\n"));
        }
        let mut sum = String::from("0");
        for i in 0..24 {
            sum = format!("{sum} + x{i}");
        }
        let src = format!("fn main() {{ {body} print({sum}); }}");
        let (f, _) = alloc_fn(&src, "main");
        for b in &f.blocks {
            for inst in &b.insts {
                // The frame adjustment legitimately writes sp; everything
                // else must not.
                let is_sp_adjust = matches!(
                    inst,
                    MInst::IntAlu {
                        op: IntOpcode::Sub | IntOpcode::Add,
                        dst: MReg::Phys(29),
                        a: MReg::Phys(29),
                        ..
                    }
                );
                if is_sp_adjust {
                    continue;
                }
                for (class, r) in inst.defs() {
                    if class == RegClass::Int {
                        if let MReg::Phys(p) = r {
                            assert_ne!(p, Gpr::SP.index(), "allocator wrote sp: {inst:?}");
                        }
                    }
                }
            }
        }
        assert_fully_physical(&f);
    }

    #[test]
    fn epilogue_restores_before_ret() {
        let src = r#"
            fn main() { print(g(3)); }
            fn g(n) { var keep = n * 2; var t = h(n); return keep + t; }
            fn h(n) { return n + 1; }
        "#;
        let (f, fi) = alloc_fn(src, "g");
        assert_fully_physical(&f);
        if fi.frame_size > 0 {
            // The block ending in Ret must adjust sp back just before.
            let ret_block = f
                .blocks
                .iter()
                .find(|b| matches!(b.insts.last(), Some(MInst::Ret { .. })))
                .expect("ret block");
            let n = ret_block.insts.len();
            assert!(matches!(
                ret_block.insts[n - 2],
                MInst::IntAlu {
                    op: IntOpcode::Add,
                    ..
                }
            ));
        }
    }

    #[test]
    fn recursion_allocates() {
        let src = r#"
            fn main() { print(fib(10)); }
            fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        "#;
        let (f, fi) = alloc_fn(src, "fib");
        assert_fully_physical(&f);
        // fib keeps n and fib(n-1) across calls.
        assert!(fi.frame_size > 0 || !fi.saved_gprs.is_empty());
    }
}
