//! Post-allocation cycle scheduler: packs each machine block's operations
//! into zero-NOP MultiOps under the 6-issue TEPIC machine model.
//!
//! Dependence semantics follow the VLIW read-before-write rule: every
//! operation in a MultiOp reads machine state as of the start of the
//! cycle, and writes land at the end of it. Hence:
//!
//! * RAW edges carry the producer's latency;
//! * WAR edges carry delay 0 (reader and writer may share a cycle);
//! * WAW edges carry delay 1 (two writes to one register must not share a
//!   cycle);
//! * memory: store→(load|store) and anything→`Sys` carry delay 1,
//!   load→store carries 0 (the load reads pre-cycle memory);
//! * a block-ending operation issues only after every other operation in
//!   the block has issued.
//!
//! The list scheduler issues by critical-path height, limited to
//! [`tepic_isa::ISSUE_WIDTH`] operations and [`tepic_isa::MEM_SLOTS`]
//! memory operations per cycle.

use crate::machine::{MFunction, MInst, MReg};
use std::collections::HashMap;
use tepic_isa::{ISSUE_WIDTH, MEM_SLOTS};
use tinker_ir::RegClass;

/// A scheduled machine function: per block, a list of cycles, each holding
/// the instructions issued that cycle (a MultiOp).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedFunction {
    /// Function name.
    pub name: String,
    /// `cycles[b]` — MultiOps of block `b` in issue order.
    pub blocks: Vec<Vec<Vec<MInst>>>,
}

/// Result latency used for RAW edges.
fn latency(inst: &MInst) -> u32 {
    match inst {
        MInst::Load { .. } | MInst::FLoad { .. } => 2,
        MInst::IntAlu {
            op: tepic_isa::op::IntOpcode::Mul,
            ..
        } => 3,
        MInst::IntAlu {
            op: tepic_isa::op::IntOpcode::Div | tepic_isa::op::IntOpcode::Rem,
            ..
        } => 8,
        MInst::Float {
            op: tepic_isa::op::FloatOpcode::Fdiv,
            ..
        } => 8,
        MInst::Float { .. } | MInst::CvtIf { .. } | MInst::CvtFi { .. } => 2,
        _ => 1,
    }
}

fn is_sys(inst: &MInst) -> bool {
    matches!(inst, MInst::Sys { .. })
}

fn is_store(inst: &MInst) -> bool {
    matches!(inst, MInst::Store { .. } | MInst::FStore { .. })
}

fn is_load(inst: &MInst) -> bool {
    matches!(inst, MInst::Load { .. } | MInst::FLoad { .. })
}

/// Register key combining class and physical index.
fn reg_key(class: RegClass, r: MReg) -> (u8, u8) {
    let c = match class {
        RegClass::Int => 0,
        RegClass::Float => 1,
        RegClass::Pred => 2,
    };
    (c, r.phys())
}

/// Schedules one block's instruction list into cycles.
///
/// # Panics
///
/// Panics if a virtual register survives to scheduling (allocation must
/// run first).
pub fn schedule_block(insts: &[MInst]) -> Vec<Vec<MInst>> {
    let n = insts.len();
    if n == 0 {
        return vec![];
    }
    // Build dependence edges: succ[i] = (j, delay).
    let mut succ: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    let mut npred: Vec<u32> = vec![0; n];
    let add_edge =
        |succ: &mut Vec<Vec<(usize, u32)>>, npred: &mut Vec<u32>, a: usize, b: usize, d: u32| {
            succ[a].push((b, d));
            npred[b] += 1;
        };

    // Last writer / readers per register.
    let mut last_def: HashMap<(u8, u8), usize> = HashMap::new();
    let mut readers: HashMap<(u8, u8), Vec<usize>> = HashMap::new();
    let mut last_store: Option<usize> = None;
    let mut loads_since_store: Vec<usize> = Vec::new();
    let mut last_sys: Option<usize> = None;

    for (i, inst) in insts.iter().enumerate() {
        // Register dependences. r0 is a hardwired constant: ignore it.
        for (class, r) in inst.uses() {
            let key = reg_key(class, r);
            if key == (0, 0) {
                continue;
            }
            if let Some(&d) = last_def.get(&key) {
                add_edge(&mut succ, &mut npred, d, i, latency(&insts[d])); // RAW
            }
            readers.entry(key).or_default().push(i);
        }
        for (class, r) in inst.defs() {
            let key = reg_key(class, r);
            if key == (0, 0) {
                continue;
            }
            if let Some(&d) = last_def.get(&key) {
                add_edge(&mut succ, &mut npred, d, i, 1); // WAW
            }
            if let Some(rs) = readers.get(&key) {
                for &r_i in rs {
                    if r_i != i {
                        add_edge(&mut succ, &mut npred, r_i, i, 0); // WAR
                    }
                }
            }
            last_def.insert(key, i);
            readers.insert(key, vec![]);
        }
        // Memory and system ordering.
        if is_load(inst) {
            if let Some(s) = last_store {
                add_edge(&mut succ, &mut npred, s, i, 1);
            }
            if let Some(s) = last_sys {
                add_edge(&mut succ, &mut npred, s, i, 1);
            }
            loads_since_store.push(i);
        }
        if is_store(inst) {
            if let Some(s) = last_store {
                add_edge(&mut succ, &mut npred, s, i, 1);
            }
            for &l in &loads_since_store {
                add_edge(&mut succ, &mut npred, l, i, 0);
            }
            if let Some(s) = last_sys {
                add_edge(&mut succ, &mut npred, s, i, 1);
            }
            last_store = Some(i);
            loads_since_store.clear();
        }
        if is_sys(inst) {
            if let Some(s) = last_sys {
                add_edge(&mut succ, &mut npred, s, i, 1);
            }
            if let Some(s) = last_store {
                add_edge(&mut succ, &mut npred, s, i, 1);
            }
            for &l in &loads_since_store {
                add_edge(&mut succ, &mut npred, l, i, 0);
            }
            last_sys = Some(i);
        }
        // Calls and other block enders wait for everything.
        if inst.is_block_end() {
            for j in 0..i {
                add_edge(&mut succ, &mut npred, j, i, 0);
            }
        }
    }

    // Critical-path heights for priority.
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        for &(j, d) in &succ[i] {
            height[i] = height[i].max(height[j] + d.max(1));
        }
    }

    // List scheduling.
    let mut earliest = vec![0u32; n]; // earliest legal cycle
    let mut remaining = npred;
    let mut scheduled = vec![false; n];
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut done = 0usize;
    let mut cycle = 0u32;
    while done < n {
        let mut issued_this_cycle: Vec<usize> = Vec::new();
        let mut mem_used = 0usize;
        loop {
            // Ready = all preds issued, earliest ≤ cycle, resources free.
            let mut best: Option<usize> = None;
            for i in 0..n {
                if scheduled[i] || remaining[i] > 0 || earliest[i] > cycle {
                    continue;
                }
                if insts[i].is_mem() && mem_used >= MEM_SLOTS {
                    continue;
                }
                if issued_this_cycle.len() >= ISSUE_WIDTH {
                    continue;
                }
                // A block ender must issue alone-last: only when everything
                // else is done and nothing else was picked first is fine;
                // sharing a cycle with earlier ops is legal.
                if best.is_none_or(|b| {
                    (height[i], std::cmp::Reverse(i)) > (height[b], std::cmp::Reverse(b))
                }) {
                    best = Some(i);
                }
            }
            let Some(pick) = best else { break };
            scheduled[pick] = true;
            issued_this_cycle.push(pick);
            if insts[pick].is_mem() {
                mem_used += 1;
            }
            done += 1;
            for &(j, d) in &succ[pick] {
                remaining[j] -= 1;
                earliest[j] = earliest[j].max(cycle + d);
            }
        }
        if !issued_this_cycle.is_empty() {
            // Keep program order inside a cycle for deterministic output
            // (and so a block ender lands last).
            issued_this_cycle.sort_unstable();
            cycles.push(issued_this_cycle);
        }
        cycle += 1;
        // Safety valve: cycles without progress still advance `cycle`
        // because `earliest` may exceed the current cycle.
        debug_assert!(cycle < 16 * n as u32 + 16, "scheduler stuck");
    }
    cycles
        .into_iter()
        .map(|idxs| idxs.into_iter().map(|i| insts[i].clone()).collect())
        .collect()
}

/// Schedules every block of an allocated machine function.
pub fn schedule_function(f: &MFunction) -> SchedFunction {
    SchedFunction {
        name: f.name.clone(),
        blocks: f.blocks.iter().map(|b| schedule_block(&b.insts)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepic_isa::op::{IntOpcode, MemWidth};

    fn alu(op: IntOpcode, dst: u8, a: u8, b: u8) -> MInst {
        MInst::IntAlu {
            op,
            dst: MReg::Phys(dst),
            a: MReg::Phys(a),
            b: MReg::Phys(b),
        }
    }

    fn ldi(dst: u8, imm: i32) -> MInst {
        MInst::LoadImm {
            high: false,
            imm,
            dst: MReg::Phys(dst),
        }
    }

    fn flatten(cycles: &[Vec<MInst>]) -> Vec<MInst> {
        cycles.iter().flatten().cloned().collect()
    }

    fn cycle_of(cycles: &[Vec<MInst>], inst: &MInst) -> usize {
        cycles
            .iter()
            .position(|c| c.contains(inst))
            .expect("scheduled")
    }

    #[test]
    fn independent_ops_pack_into_one_cycle() {
        let insts = vec![ldi(8, 1), ldi(9, 2), ldi(10, 3), ldi(11, 4)];
        let cycles = schedule_block(&insts);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 4);
    }

    #[test]
    fn raw_dependence_separates_cycles() {
        let a = ldi(8, 1);
        let b = alu(IntOpcode::Add, 9, 8, 8);
        let cycles = schedule_block(&[a.clone(), b.clone()]);
        assert!(cycle_of(&cycles, &b) > cycle_of(&cycles, &a));
    }

    #[test]
    fn raw_latency_separates_mops() {
        // Empty cycles are not materialized (zero-NOP encoding: the load's
        // Lat field tells the hardware to interlock), so the consumer lands
        // in a strictly later MOP, with independent work able to fill the
        // latency MOPs when present.
        let ld = MInst::Load {
            width: MemWidth::Word,
            dst: MReg::Phys(8),
            base: MReg::Phys(9),
        };
        let use_ = alu(IntOpcode::Add, 10, 8, 8);
        let filler1 = ldi(11, 1);
        let filler2 = ldi(12, 2);
        let cycles = schedule_block(&[ld.clone(), use_.clone(), filler1.clone(), filler2.clone()]);
        assert!(cycle_of(&cycles, &use_) > cycle_of(&cycles, &ld));
        // Fillers issue alongside or before the stalled consumer.
        assert!(cycle_of(&cycles, &filler1) <= cycle_of(&cycles, &use_));
    }

    #[test]
    fn war_can_share_a_cycle() {
        // read r8 then write r8: legal same cycle under read-before-write.
        let reader = alu(IntOpcode::Add, 9, 8, 8);
        let writer = ldi(8, 7);
        let cycles = schedule_block(&[reader.clone(), writer.clone()]);
        assert!(cycle_of(&cycles, &writer) >= cycle_of(&cycles, &reader));
    }

    #[test]
    fn waw_never_shares_a_cycle() {
        let w1 = ldi(8, 1);
        let w2 = ldi(8, 2);
        let cycles = schedule_block(&[w1.clone(), w2.clone()]);
        assert!(cycle_of(&cycles, &w2) > cycle_of(&cycles, &w1));
        // Final value must be the later write.
        let flat = flatten(&cycles);
        assert_eq!(flat.last(), Some(&w2));
    }

    #[test]
    fn issue_width_limits_cycle_size() {
        let insts: Vec<MInst> = (0..10i32).map(|i| ldi(8 + (i % 2) as u8, i)).collect();
        // Interleaved WAWs force order; use distinct regs instead:
        let insts2: Vec<MInst> = (0..10i32).map(|i| ldi(8 + i as u8, i)).collect();
        let cycles = schedule_block(&insts2);
        for c in &cycles {
            assert!(c.len() <= ISSUE_WIDTH);
        }
        assert!(cycles.len() >= 2);
        let _ = insts;
    }

    #[test]
    fn mem_slots_limit_memory_ops_per_cycle() {
        let mk = |dst: u8, base: u8| MInst::Load {
            width: MemWidth::Word,
            dst: MReg::Phys(dst),
            base: MReg::Phys(base),
        };
        let insts = vec![mk(8, 20), mk(9, 21), mk(10, 22), mk(11, 23)];
        let cycles = schedule_block(&insts);
        for c in &cycles {
            assert!(c.iter().filter(|i| i.is_mem()).count() <= MEM_SLOTS);
        }
        assert!(cycles.len() >= 2);
    }

    #[test]
    fn store_then_load_ordered() {
        let st = MInst::Store {
            width: MemWidth::Word,
            base: MReg::Phys(8),
            value: MReg::Phys(9),
        };
        let ld = MInst::Load {
            width: MemWidth::Word,
            dst: MReg::Phys(10),
            base: MReg::Phys(11),
        };
        let cycles = schedule_block(&[st.clone(), ld.clone()]);
        assert!(cycle_of(&cycles, &ld) > cycle_of(&cycles, &st));
    }

    #[test]
    fn load_then_store_can_share() {
        let ld = MInst::Load {
            width: MemWidth::Word,
            dst: MReg::Phys(10),
            base: MReg::Phys(11),
        };
        let st = MInst::Store {
            width: MemWidth::Word,
            base: MReg::Phys(8),
            value: MReg::Phys(9),
        };
        let cycles = schedule_block(&[ld.clone(), st.clone()]);
        assert!(cycle_of(&cycles, &st) >= cycle_of(&cycles, &ld));
    }

    #[test]
    fn block_ender_is_last() {
        let insts = vec![
            ldi(8, 1),
            MInst::Branch {
                pred: None,
                target: 0,
            },
        ];
        // Put the branch second (as lowering does) plus some fillers after
        // reordering opportunities.
        let cycles = schedule_block(&insts);
        let flat = flatten(&cycles);
        assert!(matches!(flat.last(), Some(MInst::Branch { .. })));
        // Branch must be in the final cycle.
        assert!(matches!(
            cycles.last().unwrap().last(),
            Some(MInst::Branch { .. })
        ));
    }

    #[test]
    fn sys_order_is_preserved() {
        let s1 = MInst::Sys {
            code: tepic_isa::op::SysCode::PrintInt,
            arg: MReg::Phys(8),
        };
        let s2 = MInst::Sys {
            code: tepic_isa::op::SysCode::PrintChar,
            arg: MReg::Phys(9),
        };
        let cycles = schedule_block(&[s1.clone(), s2.clone()]);
        assert!(cycle_of(&cycles, &s2) > cycle_of(&cycles, &s1));
    }

    #[test]
    fn empty_block_schedules_to_nothing() {
        assert!(schedule_block(&[]).is_empty());
    }
}
