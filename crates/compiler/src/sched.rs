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
//!
//! [`schedule_function`] runs in three phases over the whole function,
//! each timed as a part of the `sched` stage ([`SchedTimes`]): the
//! dependence build, the critical-path heights and the issue. Every
//! buffer is sized once per function and shared by its blocks, so a
//! block allocates nothing once the buffers have grown. Instructions are
//! numbered function-wide. The last writer of each register, and its
//! readers since, sit in dense tables indexed by (class, physical
//! index); readers are chained through one arena, and only the slots a
//! block touched are reset after it. Edges are collected in one list and
//! then sorted by source into compressed rows. The issue writes each
//! block's MultiOps as instruction indices into one order buffer with
//! MultiOp and block bounds ([`SchedFunction`]).

use crate::driver::timed;
use crate::machine::{MFunction, MInst, MReg};
use std::cmp::Reverse;
use std::time::Duration;
use tepic_isa::{ISSUE_WIDTH, MEM_SLOTS};
use tinker_ir::RegClass;

/// A scheduled machine function: the MultiOps of each block, as indices
/// into that block's instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedFunction {
    /// Instruction indices within their block: block after block, MultiOp
    /// after MultiOp in issue order, program order inside a MultiOp.
    order: Vec<u32>,
    /// MultiOp `m` is `order[mop_bounds[m]..mop_bounds[m + 1]]`.
    mop_bounds: Vec<u32>,
    /// Block `b`'s MultiOps are `block_bounds[b]..block_bounds[b + 1]`.
    block_bounds: Vec<u32>,
}

impl SchedFunction {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_bounds.len() - 1
    }

    /// The MultiOps of block `b` in issue order, each as the ascending
    /// indices of its instructions in the machine block's `insts`.
    pub fn mops(&self, b: usize) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        let (first, end) = (self.block_bounds[b], self.block_bounds[b + 1]);
        self.mop_bounds[first as usize..=end as usize]
            .windows(2)
            .map(|w| &self.order[w[0] as usize..w[1] as usize])
    }
}

/// Wall time of each scheduler phase, summed over functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTimes {
    /// Dependence edges and their compressed rows.
    pub deps: Duration,
    /// Critical-path heights.
    pub heights: Duration,
    /// The cycle-by-cycle issue into MultiOps.
    pub issue: Duration,
}

impl SchedTimes {
    /// Every phase as `(name, time)`, in order.
    pub fn phases(&self) -> [(&'static str, Duration); 3] {
        [
            ("deps", self.deps),
            ("heights", self.heights),
            ("issue", self.issue),
        ]
    }
}

/// Result latency used for RAW edges.
pub(crate) fn latency(inst: &MInst) -> u32 {
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

/// No instruction, register writer or reader.
const NONE: u32 = u32::MAX;

/// One slot per (class, physical index).
const REG_SLOTS: usize = 3 * 256;

/// The register table slot of `r`.
fn reg_slot(class: RegClass, r: MReg) -> usize {
    let c = match class {
        RegClass::Int => 0,
        RegClass::Float => 1,
        RegClass::Pred => 2,
    };
    c * 256 + r.phys() as usize
}

/// Per register: the last writer in the block so far, and the readers
/// since it.
struct RegTable {
    /// Last writer per slot, or [`NONE`].
    last_def: Vec<u32>,
    /// Head of each slot's reader chain in `readers`, or [`NONE`].
    first_reader: Vec<u32>,
    /// Reader chain links: (instruction, next link or [`NONE`]).
    readers: Vec<(u32, u32)>,
    /// Slots set since the last reset.
    touched: Vec<u16>,
}

impl RegTable {
    fn new() -> RegTable {
        RegTable {
            last_def: vec![NONE; REG_SLOTS],
            first_reader: vec![NONE; REG_SLOTS],
            readers: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn touch(&mut self, s: usize) {
        if self.last_def[s] == NONE && self.first_reader[s] == NONE {
            self.touched.push(s as u16);
        }
    }

    fn add_reader(&mut self, s: usize, i: u32) {
        self.touch(s);
        self.readers.push((i, self.first_reader[s]));
        self.first_reader[s] = self.readers.len() as u32 - 1;
    }

    /// Makes `i` the last writer of `s`, with no readers since.
    fn define(&mut self, s: usize, i: u32) {
        self.touch(s);
        self.last_def[s] = i;
        self.first_reader[s] = NONE;
    }

    /// Calls `f` on each reader of `s` since its last writer.
    fn for_each_reader(&self, s: usize, mut f: impl FnMut(u32)) {
        let mut link = self.first_reader[s];
        while link != NONE {
            let (i, next) = self.readers[link as usize];
            f(i);
            link = next;
        }
    }

    /// Clears every slot the last block set.
    fn reset(&mut self) {
        for &s in &self.touched {
            self.last_def[s as usize] = NONE;
            self.first_reader[s as usize] = NONE;
        }
        self.touched.clear();
        self.readers.clear();
    }
}

/// The dependence edges of a function: `(from, to, delay)` while one
/// block at a time is added, then compressed rows of successors.
struct Deps {
    edges: Vec<(u32, u32, u32)>,
    /// Predecessor edges per instruction, duplicates counted.
    npred: Vec<u32>,
    /// Instruction `i`'s successors are `succ[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    /// `(successor, delay)`.
    succ: Vec<(u32, u32)>,
}

impl Deps {
    fn add(&mut self, from: u32, to: u32, delay: u32) {
        self.edges.push((from, to, delay));
        self.npred[to as usize] += 1;
    }

    fn succ_of(&self, i: usize) -> &[(u32, u32)] {
        &self.succ[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Adds the edges of one block whose first instruction is number
    /// `base`. Duplicate edges are kept: each counts in `npred`.
    ///
    /// # Panics
    ///
    /// Panics if a virtual register survives to scheduling (allocation
    /// must run first).
    fn add_block(
        &mut self,
        insts: &[MInst],
        base: u32,
        regs: &mut RegTable,
        loads_since_store: &mut Vec<u32>,
    ) {
        let mut last_store = None;
        let mut last_sys = None;
        for (k, inst) in insts.iter().enumerate() {
            let i = base + k as u32;
            // Register dependences. r0 is a hardwired constant: ignore it.
            for (class, r) in inst.uses() {
                let s = reg_slot(class, r);
                if s == 0 {
                    continue;
                }
                let d = regs.last_def[s];
                if d != NONE {
                    self.add(d, i, latency(&insts[(d - base) as usize])); // RAW
                }
                regs.add_reader(s, i);
            }
            for (class, r) in inst.defs() {
                let s = reg_slot(class, r);
                if s == 0 {
                    continue;
                }
                let d = regs.last_def[s];
                if d != NONE {
                    self.add(d, i, 1); // WAW
                }
                regs.for_each_reader(s, |r_i| {
                    if r_i != i {
                        self.add(r_i, i, 0); // WAR
                    }
                });
                regs.define(s, i);
            }
            // Memory and system ordering.
            if is_load(inst) {
                if let Some(s) = last_store {
                    self.add(s, i, 1);
                }
                if let Some(s) = last_sys {
                    self.add(s, i, 1);
                }
                loads_since_store.push(i);
            }
            if is_store(inst) {
                if let Some(s) = last_store {
                    self.add(s, i, 1);
                }
                for &l in loads_since_store.iter() {
                    self.add(l, i, 0);
                }
                if let Some(s) = last_sys {
                    self.add(s, i, 1);
                }
                last_store = Some(i);
                loads_since_store.clear();
            }
            if is_sys(inst) {
                if let Some(s) = last_sys {
                    self.add(s, i, 1);
                }
                if let Some(s) = last_store {
                    self.add(s, i, 1);
                }
                for &l in loads_since_store.iter() {
                    self.add(l, i, 0);
                }
                last_sys = Some(i);
            }
            // Calls and other block enders wait for everything.
            if inst.is_block_end() {
                for j in base..i {
                    self.add(j, i, 0);
                }
            }
        }
        regs.reset();
        loads_since_store.clear();
    }

    /// Sorts the edges by source into `start`/`succ`, keeping each
    /// source's edges in the order they were added.
    fn compress(&mut self) {
        let n = self.npred.len();
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &(from, _, _) in &self.edges {
            self.start[from as usize] += 1;
        }
        // Running sums: `start[i]` is the end of `i`'s row until the
        // fill below moves it back to the row's first slot.
        let mut sum = 0;
        for s in &mut self.start {
            sum += *s;
            *s = sum;
        }
        self.succ.clear();
        self.succ.resize(self.edges.len(), (0, 0));
        for &(from, to, delay) in self.edges.iter().rev() {
            let slot = &mut self.start[from as usize];
            *slot -= 1;
            self.succ[*slot as usize] = (to, delay);
        }
    }
}

/// Schedules every block of an allocated machine function.
///
/// # Panics
///
/// Panics if a virtual register survives to scheduling (allocation must
/// run first).
pub fn schedule_function(f: &MFunction) -> SchedFunction {
    schedule_function_timed(f, &mut SchedTimes::default())
}

/// [`schedule_function`], adding each phase's wall time to `times`.
///
/// # Panics
///
/// As [`schedule_function`].
pub fn schedule_function_timed(f: &MFunction, times: &mut SchedTimes) -> SchedFunction {
    let n: usize = f.blocks.iter().map(|b| b.insts.len()).sum();

    let mut deps = timed(&mut times.deps, || {
        let mut deps = Deps {
            edges: Vec::with_capacity(2 * n),
            npred: vec![0; n],
            start: Vec::new(),
            succ: Vec::new(),
        };
        let mut regs = RegTable::new();
        let mut loads_since_store = Vec::new();
        let mut base = 0;
        for b in &f.blocks {
            deps.add_block(&b.insts, base, &mut regs, &mut loads_since_store);
            base += b.insts.len() as u32;
        }
        deps.compress();
        deps
    });

    // Edges only run forward inside a block, so a reverse walk sees every
    // successor's height final.
    let height = timed(&mut times.heights, || {
        let mut height = vec![0u32; n];
        for i in (0..n).rev() {
            let mut h = 0;
            for &(j, d) in deps.succ_of(i) {
                h = h.max(height[j as usize] + d.max(1));
            }
            height[i] = h;
        }
        height
    });

    timed(&mut times.issue, || {
        let mut out = SchedFunction {
            order: Vec::with_capacity(n),
            mop_bounds: vec![0],
            block_bounds: Vec::with_capacity(f.blocks.len() + 1),
        };
        out.block_bounds.push(0);
        let remaining = std::mem::take(&mut deps.npred);
        let mut issue = Issue {
            deps: &deps,
            height: &height,
            remaining,
            earliest: vec![0; n],
            ready: Vec::new(),
        };
        let mut base = 0;
        for b in &f.blocks {
            issue.schedule_block(&b.insts, base, &mut out);
            base += b.insts.len();
            out.block_bounds.push(out.mop_bounds.len() as u32 - 1);
        }
        out
    })
}

/// List-scheduling state over a function's instructions.
struct Issue<'a> {
    deps: &'a Deps,
    height: &'a [u32],
    /// Predecessors not yet issued.
    remaining: Vec<u32>,
    /// Earliest legal cycle.
    earliest: Vec<u32>,
    /// The block's unissued instructions whose predecessors have all
    /// issued, in no particular order.
    ready: Vec<u32>,
}

impl Issue<'_> {
    /// Issues the block `insts`, numbered from `base`, appending its
    /// MultiOps to `out`.
    fn schedule_block(&mut self, insts: &[MInst], base: usize, out: &mut SchedFunction) {
        let n = insts.len();
        let first = out.order.len();
        self.ready.clear();
        self.ready.extend(
            (base..base + n)
                .filter(|&i| self.remaining[i] == 0)
                .map(|i| i as u32),
        );
        let mut cycle = 0u32;
        while !self.ready.is_empty() {
            let mop_start = out.order.len();
            let mut mem_used = 0usize;
            while out.order.len() - mop_start < ISSUE_WIDTH {
                // Eligible = ready, earliest ≤ cycle, memory slot free;
                // the highest, then the first in program order, wins.
                // The key orders all instructions, so the scan order of
                // `ready` does not matter.
                let mut best: Option<(usize, usize)> = None;
                for (at, &i) in self.ready.iter().enumerate() {
                    let i = i as usize;
                    if self.earliest[i] > cycle {
                        continue;
                    }
                    if insts[i - base].is_mem() && mem_used >= MEM_SLOTS {
                        continue;
                    }
                    if best.is_none_or(|(_, b)| {
                        (self.height[i], Reverse(i)) > (self.height[b], Reverse(b))
                    }) {
                        best = Some((at, i));
                    }
                }
                let Some((at, pick)) = best else { break };
                self.ready.swap_remove(at);
                out.order.push((pick - base) as u32);
                if insts[pick - base].is_mem() {
                    mem_used += 1;
                }
                for &(j, d) in self.deps.succ_of(pick) {
                    let j = j as usize;
                    self.remaining[j] -= 1;
                    self.earliest[j] = self.earliest[j].max(cycle + d);
                    if self.remaining[j] == 0 {
                        // A delay-0 successor may still issue this cycle.
                        self.ready.push(j as u32);
                    }
                }
            }
            if out.order.len() > mop_start {
                // Keep program order inside a cycle for deterministic
                // output (and so a block ender lands last).
                out.order[mop_start..].sort_unstable();
                out.mop_bounds.push(out.order.len() as u32);
            }
            cycle += 1;
            // Cycles without progress still advance `cycle`, because
            // `earliest` may exceed the current cycle.
            debug_assert!(cycle < 16 * n as u32 + 16, "scheduler stuck");
        }
        debug_assert_eq!(out.order.len() - first, n, "every instruction issued");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MBlock;
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

    fn load(dst: u8, base: u8) -> MInst {
        MInst::Load {
            width: MemWidth::Word,
            dst: MReg::Phys(dst),
            base: MReg::Phys(base),
        }
    }

    fn one_block(insts: &[MInst]) -> MFunction {
        MFunction {
            name: "f".into(),
            blocks: vec![MBlock {
                insts: insts.to_vec(),
            }],
            vclass: Vec::new(),
            nargs: 0,
        }
    }

    /// The MultiOps of `insts` scheduled as one block.
    fn schedule_block(insts: &[MInst]) -> Vec<Vec<MInst>> {
        let s = schedule_function(&one_block(insts));
        assert_eq!(s.num_blocks(), 1);
        s.mops(0)
            .map(|mop| mop.iter().map(|&i| insts[i as usize].clone()).collect())
            .collect()
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
    fn latencies() {
        assert_eq!(latency(&load(8, 9)), 2);
        // Operation::nop(): add r0, r0, r0.
        assert_eq!(latency(&alu(IntOpcode::Add, 0, 0, 0)), 1);
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
        let ld = load(8, 9);
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
        let insts: Vec<MInst> = (0..10i32).map(|i| ldi(8 + i as u8, i)).collect();
        let cycles = schedule_block(&insts);
        for c in &cycles {
            assert!(c.len() <= ISSUE_WIDTH);
        }
        assert!(cycles.len() >= 2);
    }

    #[test]
    fn mem_slots_limit_memory_ops_per_cycle() {
        let insts = vec![load(8, 20), load(9, 21), load(10, 22), load(11, 23)];
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
        let ld = load(10, 11);
        let cycles = schedule_block(&[st.clone(), ld.clone()]);
        assert!(cycle_of(&cycles, &ld) > cycle_of(&cycles, &st));
    }

    #[test]
    fn load_then_store_can_share() {
        let ld = load(10, 11);
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

    #[test]
    fn blocks_keep_their_own_mops() {
        // The register tables reset between blocks: the second block's
        // reader of r8 does not wait on the first block's writer.
        let mut f = one_block(&[ldi(8, 1), ldi(9, 2)]);
        f.blocks.push(MBlock::default());
        f.blocks.push(MBlock {
            insts: vec![alu(IntOpcode::Add, 10, 8, 9), ldi(8, 3)],
        });
        let s = schedule_function(&f);
        assert_eq!(s.num_blocks(), 3);
        let mops = |b| s.mops(b).map(<[u32]>::to_vec).collect::<Vec<_>>();
        assert_eq!(mops(0), [vec![0, 1]]);
        assert!(mops(1).is_empty());
        assert_eq!(mops(2), [vec![0, 1]]);
    }
}
