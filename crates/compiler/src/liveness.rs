//! Global liveness analysis over machine functions (virtual registers).
//!
//! Standard backward dataflow at block granularity, then per-instruction
//! refinement to build the live intervals the linear-scan allocator
//! consumes. Physical registers are excluded — by construction the ABI
//! registers are never allocatable and their uses are confined to
//! adjacent copy instructions (see [`crate::machine`]).

use crate::dataflow::{solve_backward, VRegSets};
use crate::machine::{MFunction, MReg};

/// Live interval of a virtual register over the linearized instruction
/// index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Virtual register index.
    pub vreg: u32,
    /// First point (a def) covered.
    pub start: u32,
    /// Last point (a use or def) covered, inclusive.
    pub end: u32,
    /// Approximate spill weight (use count, loop-weighted upstream).
    pub weight: u32,
}

/// Liveness facts for one machine function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Set `b` — vregs live at entry of block `b`.
    pub live_in: VRegSets,
    /// Set `b` — vregs live at exit of block `b`.
    pub live_out: VRegSets,
    /// Global linear index of the first instruction of each block.
    pub block_start: Vec<u32>,
    /// Total linearized instruction count.
    pub num_points: u32,
}

impl Liveness {
    /// Runs the dataflow analysis: per-block use/def sets in one walk,
    /// then [`solve_backward`]'s word-wise fixpoint.
    pub fn compute(f: &MFunction) -> Liveness {
        let nb = f.blocks.len();
        let nv = f.vclass.len();
        let mut use_set = VRegSets::new(nb, nv);
        let mut def_set = VRegSets::new(nb, nv);
        for (bi, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                for (_, r) in inst.uses() {
                    if let MReg::Virt(v) = r {
                        if !def_set.contains(bi, v) {
                            use_set.insert(bi, v);
                        }
                    }
                }
                for (_, r) in inst.defs() {
                    if let MReg::Virt(v) = r {
                        def_set.insert(bi, v);
                    }
                }
            }
        }
        let succs: Vec<[Option<u32>; 2]> = (0..nb)
            .map(|b| {
                let s = f.successors(b);
                [0, 1].map(|i| s.get(i).map(|&s| s as u32))
            })
            .collect();
        let (live_in, live_out) = solve_backward(&use_set, &def_set, &succs);
        let mut block_start = Vec::with_capacity(nb);
        let mut idx = 0u32;
        for b in &f.blocks {
            block_start.push(idx);
            idx += b.insts.len() as u32;
        }
        Liveness {
            live_in,
            live_out,
            block_start,
            num_points: idx,
        }
    }

    /// Builds coarse live intervals (min start, max end per vreg). A vreg
    /// live into or out of a block extends across that whole block, so
    /// holes are over-approximated away — the classic linear-scan trade.
    pub fn intervals(&self, f: &MFunction) -> Vec<Interval> {
        let nv = f.vclass.len();
        let mut start = vec![u32::MAX; nv];
        let mut end = vec![0u32; nv];
        let mut weight = vec![0u32; nv];
        let mut touch = |v: u32, point: u32| {
            let vi = v as usize;
            if start[vi] == u32::MAX || point < start[vi] {
                start[vi] = point;
            }
            if point > end[vi] {
                end[vi] = point;
            }
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            let bstart = self.block_start[bi];
            let bend = bstart + b.insts.len() as u32;
            for v in self.live_in.iter(bi) {
                touch(v, bstart);
            }
            for v in self.live_out.iter(bi) {
                // Live-out extends to the block's end point.
                touch(v, bend.saturating_sub(1).max(bstart));
                touch(v, bstart);
            }
            for (ii, inst) in b.insts.iter().enumerate() {
                let p = bstart + ii as u32;
                for (_, r) in inst.defs() {
                    if let MReg::Virt(v) = r {
                        touch(v, p);
                        weight[v as usize] += 1;
                    }
                }
                for (_, r) in inst.uses() {
                    if let MReg::Virt(v) = r {
                        touch(v, p);
                        weight[v as usize] += 1;
                    }
                }
            }
        }
        (0..nv as u32)
            .filter(|&v| start[v as usize] != u32::MAX)
            .map(|v| Interval {
                vreg: v,
                start: start[v as usize],
                end: end[v as usize],
                weight: weight[v as usize],
            })
            .collect()
    }
}

/// The hash-set analysis [`Liveness`] replaced, with its interval
/// builder, kept as the oracle the dense version is checked against.
#[cfg(test)]
pub(crate) mod reference {
    use super::Interval;
    use crate::machine::{MFunction, MReg};
    use std::collections::HashSet;

    /// `(live_in, live_out)` per block.
    pub fn compute(f: &MFunction) -> (Vec<HashSet<u32>>, Vec<HashSet<u32>>) {
        let nb = f.blocks.len();
        let mut use_set: Vec<HashSet<u32>> = vec![HashSet::new(); nb];
        let mut def_set: Vec<HashSet<u32>> = vec![HashSet::new(); nb];
        for (bi, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                for (_, r) in inst.uses() {
                    if let MReg::Virt(v) = r {
                        if !def_set[bi].contains(&v) {
                            use_set[bi].insert(v);
                        }
                    }
                }
                for (_, r) in inst.defs() {
                    if let MReg::Virt(v) = r {
                        def_set[bi].insert(v);
                    }
                }
            }
        }
        let mut live_in: Vec<HashSet<u32>> = vec![HashSet::new(); nb];
        let mut live_out: Vec<HashSet<u32>> = vec![HashSet::new(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                let mut out = HashSet::new();
                for s in f.successors(bi) {
                    out.extend(live_in[s].iter().copied());
                }
                let mut inn: HashSet<u32> = use_set[bi].clone();
                for &v in &out {
                    if !def_set[bi].contains(&v) {
                        inn.insert(v);
                    }
                }
                if out != live_out[bi] || inn != live_in[bi] {
                    changed = true;
                    live_out[bi] = out;
                    live_in[bi] = inn;
                }
            }
        }
        (live_in, live_out)
    }

    /// Intervals from the hash-set live sets, visited in hash order.
    pub fn intervals(
        f: &MFunction,
        live_in: &[HashSet<u32>],
        live_out: &[HashSet<u32>],
    ) -> Vec<Interval> {
        let nv = f.vclass.len();
        let mut start = vec![u32::MAX; nv];
        let mut end = vec![0u32; nv];
        let mut weight = vec![0u32; nv];
        let mut touch = |v: u32, point: u32| {
            let vi = v as usize;
            if start[vi] == u32::MAX || point < start[vi] {
                start[vi] = point;
            }
            if point > end[vi] {
                end[vi] = point;
            }
        };
        let mut bstart = 0u32;
        for (bi, b) in f.blocks.iter().enumerate() {
            let bend = bstart + b.insts.len() as u32;
            for &v in &live_in[bi] {
                touch(v, bstart);
            }
            for &v in &live_out[bi] {
                touch(v, bend.saturating_sub(1).max(bstart));
                touch(v, bstart);
            }
            for (ii, inst) in b.insts.iter().enumerate() {
                let p = bstart + ii as u32;
                for (_, r) in inst.defs().into_iter().chain(inst.uses()) {
                    if let MReg::Virt(v) = r {
                        touch(v, p);
                        weight[v as usize] += 1;
                    }
                }
            }
            bstart = bend;
        }
        (0..nv as u32)
            .filter(|&v| start[v as usize] != u32::MAX)
            .map(|v| Interval {
                vreg: v,
                start: start[v as usize],
                end: end[v as usize],
                weight: weight[v as usize],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{lower_program, parser::parse};
    use crate::machine::{layout_order, lower_function, ConstPool, DataLayout, DATA_BASE};

    fn machine_of(src: &str, name: &str) -> MFunction {
        let m = lower_program(&parse(src).unwrap()).unwrap();
        let (_, f) = m.func_by_name(name).unwrap();
        let layout = DataLayout::new(&m, DATA_BASE);
        let mut pool = ConstPool::default();
        lower_function(&m, f, &layout_order(f), &layout, &mut pool)
    }

    #[test]
    fn loop_variable_live_across_backedge() {
        let f = machine_of(
            "fn main() { var i = 0; while (i < 10) { i = i + 1; } print(i); }",
            "main",
        );
        let lv = Liveness::compute(&f);
        // Some block must have a nonempty live-in (the loop-carried `i`).
        assert!((0..f.blocks.len()).any(|b| !lv.live_in.is_empty(b)));
        let ivs = lv.intervals(&f);
        assert!(!ivs.is_empty());
        for iv in &ivs {
            assert!(iv.start <= iv.end);
            assert!(iv.end < lv.num_points);
        }
    }

    #[test]
    fn straight_line_intervals_are_local() {
        let f = machine_of("fn main() { var a = 1; var b = 2; print(a + b); }", "main");
        let lv = Liveness::compute(&f);
        let ivs = lv.intervals(&f);
        // All intervals fit within the program.
        for iv in &ivs {
            assert!(iv.weight >= 1);
        }
    }

    #[test]
    fn dead_def_gets_point_interval() {
        let f = machine_of("fn main() { var a = 5; print(1); }", "main");
        let lv = Liveness::compute(&f);
        let ivs = lv.intervals(&f);
        // `a`'s value vreg is defined but never used (print(1) ignores it);
        // its interval is still well-formed.
        assert!(ivs.iter().all(|iv| iv.start <= iv.end));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::lang::{lower_program, parser::parse};
    use crate::machine::{layout_order, lower_function, ConstPool, DataLayout, DATA_BASE};

    fn machine(src: &str, name: &str) -> MFunction {
        let m = lower_program(&parse(src).unwrap()).unwrap();
        let (_, f) = m.func_by_name(name).unwrap();
        let layout = DataLayout::new(&m, DATA_BASE);
        let mut pool = ConstPool::default();
        lower_function(&m, f, &layout_order(f), &layout, &mut pool)
    }

    #[test]
    fn value_live_across_call_has_interval_spanning_the_call() {
        let src = r#"
            fn main() { var keep = 11; var t = f(2); print(keep + t); }
            fn f(x) { return x; }
        "#;
        let f = machine(src, "main");
        let lv = Liveness::compute(&f);
        let ivs = lv.intervals(&f);
        // Find the call's linear index.
        let mut idx = 0u32;
        let mut call_at = None;
        for b in &f.blocks {
            for inst in &b.insts {
                if matches!(inst, crate::machine::MInst::Call { .. }) {
                    call_at = Some(idx);
                }
                idx += 1;
            }
        }
        let call_at = call_at.expect("has a call");
        assert!(
            ivs.iter().any(|iv| iv.start < call_at && iv.end > call_at),
            "some interval must span the call (the kept variable)"
        );
    }

    #[test]
    fn block_start_indices_are_cumulative() {
        let f = machine(
            "fn main() { var x = 1; if (x > 0) { print(1); } print(2); }",
            "main",
        );
        let lv = Liveness::compute(&f);
        let mut expect = 0u32;
        for (bi, b) in f.blocks.iter().enumerate() {
            assert_eq!(lv.block_start[bi], expect);
            expect += b.insts.len() as u32;
        }
        assert_eq!(lv.num_points, expect);
    }
}
