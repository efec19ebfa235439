//! The dense dataflow checked against the hash-set code it replaced.
//!
//! The optimizer is driven round by round as [`crate::opt::optimize_module`]
//! drives it, and every function DCE or CSE is about to see is first run
//! through both that pass and its reference: the live sets, the
//! instructions removed and the rewritten function must all agree. Every
//! function is then lowered to machine code, before and after
//! optimization, and the backend's [`Liveness`] and its intervals are
//! compared the same way. Inputs: the eight paper programs, random Tink
//! programs, and random IR functions whose few registers are redefined
//! all the time (lowered Tink computes into fresh temporaries, so it
//! seldom redefines an operand or holder of an available expression).

use crate::dataflow::VRegSets;
use crate::lang::{lower_program, parse};
use crate::liveness::{self, Liveness};
use crate::machine::{layout_order, lower_function, ConstPool, DataLayout, DATA_BASE};
use crate::opt::{constfold, copyprop, cse, dce, simplify};
use proptest::prelude::*;
use std::collections::HashSet;
use tinker_ir::{
    BlockRef, Cond, FBinOp, FuncId, Function, FunctionBuilder, IBinOp, IUnOp, Inst, Module,
    RegClass, Terminator, VReg, Width,
};

const PAPER: [(&str, &str); 8] = [
    (
        "compress",
        include_str!("../../workloads/src/programs/compress.tink"),
    ),
    ("gcc", include_str!("../../workloads/src/programs/gcc.tink")),
    ("go", include_str!("../../workloads/src/programs/go.tink")),
    (
        "ijpeg",
        include_str!("../../workloads/src/programs/ijpeg.tink"),
    ),
    ("li", include_str!("../../workloads/src/programs/li.tink")),
    (
        "m88ksim",
        include_str!("../../workloads/src/programs/m88ksim.tink"),
    ),
    (
        "perl",
        include_str!("../../workloads/src/programs/perl.tink"),
    ),
    (
        "vortex",
        include_str!("../../workloads/src/programs/vortex.tink"),
    ),
];

fn as_hash_sets(sets: &VRegSets, blocks: usize) -> Vec<HashSet<u32>> {
    (0..blocks).map(|b| sets.iter(b).collect()).collect()
}

fn check_dce(f: &Function) -> Result<(), String> {
    let nb = f.blocks.len();
    let (live_in, live_out) = dce::liveness(f);
    let (ref_in, ref_out) = dce::reference::liveness(f);
    if as_hash_sets(&live_in, nb) != ref_in || as_hash_sets(&live_out, nb) != ref_out {
        return Err(format!("{}: DCE live sets differ", f.name));
    }
    let (mut dense, mut reference) = (f.clone(), f.clone());
    let changed = (dce::run(&mut dense), dce::reference::run(&mut reference));
    if changed.0 != changed.1 || dense != reference {
        return Err(format!("{}: DCE removed different instructions", f.name));
    }
    Ok(())
}

fn check_cse(f: &Function) -> Result<(), String> {
    let (mut indexed, mut reference) = (f.clone(), f.clone());
    let changed = (cse::run(&mut indexed), cse::reference::run(&mut reference));
    if changed.0 != changed.1 || indexed != reference {
        return Err(format!("{}: CSE rewrote differently", f.name));
    }
    Ok(())
}

fn check_backend(m: &Module) -> Result<(), String> {
    let layout = DataLayout::new(m, DATA_BASE);
    let mut pool = ConstPool::default();
    for f in m.funcs() {
        let mf = lower_function(m, f, &layout_order(f), &layout, &mut pool);
        let nb = mf.blocks.len();
        let lv = Liveness::compute(&mf);
        let (ref_in, ref_out) = liveness::reference::compute(&mf);
        if as_hash_sets(&lv.live_in, nb) != ref_in || as_hash_sets(&lv.live_out, nb) != ref_out {
            return Err(format!("{}: backend live sets differ", f.name));
        }
        if lv.intervals(&mf) != liveness::reference::intervals(&mf, &ref_in, &ref_out) {
            return Err(format!("{}: intervals differ", f.name));
        }
    }
    Ok(())
}

/// Checks every DCE and CSE input of a full optimization of `src`, and
/// the backend liveness of the module before and after it.
fn check_program(src: &str) -> Result<(), String> {
    let ast = parse(src).map_err(|e| e.to_string())?;
    let mut m = lower_program(&ast).map_err(|e| e.to_string())?;
    check_backend(&m)?;
    for _ in 0..crate::Options::default().opt_iters {
        let mut changed = false;
        for f in m.funcs_mut() {
            changed |= constfold::run(f);
            check_cse(f)?;
            changed |= cse::run(f);
            changed |= copyprop::run(f);
            changed |= simplify::run(f);
            check_dce(f)?;
            changed |= dce::run(f);
        }
        if !changed {
            break;
        }
    }
    check_backend(&m)
}

#[test]
fn paper_programs_match_the_reference_dataflow() {
    for (name, src) in PAPER {
        check_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A random Tink program: integer and float locals, a global array,
/// nested branches and loops, calls, and a small pool of constants and
/// repeated subexpressions so that CSE and DCE have work. The programs
/// are only compiled, never run, so loops need not terminate.
fn random_program(seed: u64) -> String {
    let mut g = Gen(seed);
    let mut helper = String::new();
    g.block(&mut helper, 2, 4);
    let mut main = String::new();
    g.block(&mut main, 3, 6);
    format!(
        "global arr[16];\n\
         fn helper(x0, x1) {{ var x2 = x0 - x1; var x3; fvar f0 = 0.5; fvar f1 = float(x0);\n{helper}return x2 + x3; }}\n\
         fn main() {{ var x0 = 3; var x1 = 7; var x2; var x3 = 0; fvar f0 = 1.5; fvar f1;\n{main}print(x0 + x1 + x2 + x3 + int(f0 + f1)); }}\n"
    )
}

/// SplitMix64 over a seed, emitting Tink text.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn int_var(&mut self) -> String {
        format!("x{}", self.below(4))
    }

    fn float_var(&mut self) -> String {
        format!("f{}", self.below(2))
    }

    fn int_expr(&mut self, depth: u32) -> String {
        let pick = if depth == 0 {
            self.below(3)
        } else {
            self.below(9)
        };
        match pick {
            0 => ["0", "1", "2", "7", "255"][self.below(5) as usize].to_string(),
            1 | 2 => self.int_var(),
            3 => format!("arr[{} & 15]", self.int_expr(depth - 1)),
            4 => format!("-{}", self.int_expr(depth - 1)),
            5 => format!("int({})", self.float_expr(depth - 1)),
            6 => {
                // The same subexpression twice, for CSE.
                let e = self.int_expr(depth - 1);
                format!("(({e}) + ({e}))")
            }
            _ => {
                let op = ["+", "-", "*", "&", "|", "^", "<<", ">>"][self.below(8) as usize];
                format!(
                    "({} {op} {})",
                    self.int_expr(depth - 1),
                    self.int_expr(depth - 1)
                )
            }
        }
    }

    fn float_expr(&mut self, depth: u32) -> String {
        let pick = if depth == 0 {
            self.below(2)
        } else {
            self.below(5)
        };
        match pick {
            0 => ["0.0", "-0.0", "1.5", "2.0"][self.below(4) as usize].to_string(),
            1 => self.float_var(),
            2 => format!("float({})", self.int_expr(depth - 1)),
            _ => {
                let op = ["+", "-", "*"][self.below(3) as usize];
                format!(
                    "({} {op} {})",
                    self.float_expr(depth - 1),
                    self.float_expr(depth - 1)
                )
            }
        }
    }

    fn cond(&mut self) -> String {
        let op = ["<", "==", "!=", ">="][self.below(4) as usize];
        format!("{} {op} {}", self.int_expr(1), self.int_expr(1))
    }

    fn block(&mut self, out: &mut String, depth: u32, len: u64) {
        for _ in 0..=self.below(len) {
            self.stmt(out, depth);
        }
    }

    fn stmt(&mut self, out: &mut String, depth: u32) {
        let pick = if depth == 0 {
            self.below(5)
        } else {
            self.below(8)
        };
        match pick {
            0 | 1 => {
                let (v, e) = (self.int_var(), self.int_expr(2));
                out.push_str(&format!("{v} = {e};\n"));
            }
            2 => {
                let (v, e) = (self.float_var(), self.float_expr(2));
                out.push_str(&format!("{v} = {e};\n"));
            }
            3 => {
                let (i, e) = (self.int_expr(1), self.int_expr(2));
                out.push_str(&format!("arr[{i} & 15] = {e};\n"));
            }
            4 => {
                let e = self.int_expr(2);
                out.push_str(&format!("print({e});\n"));
            }
            5 => {
                let c = self.cond();
                out.push_str(&format!("if ({c}) {{\n"));
                self.block(out, depth - 1, 3);
                out.push_str("} else {\n");
                self.block(out, depth - 1, 3);
                out.push_str("}\n");
            }
            6 => {
                let c = self.cond();
                out.push_str(&format!("while ({c}) {{\n"));
                self.block(out, depth - 1, 3);
                out.push_str("}\n");
            }
            _ => {
                let (v, a, b) = (self.int_var(), self.int_expr(1), self.int_expr(1));
                out.push_str(&format!("{v} = helper({a}, {b});\n"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random Tink programs give the reference dataflow's live sets,
    /// removed instructions, CSE rewrites and intervals.
    #[test]
    fn random_programs_match_the_reference_dataflow(seed in any::<u64>()) {
        let src = random_program(seed);
        prop_assert!(check_program(&src).is_ok(), "{:?}\n{src}", check_program(&src));
    }

    /// Random IR functions over a handful of registers: CSE and DCE, run
    /// on them and on what each pass leaves, match their references.
    #[test]
    fn random_functions_match_the_reference_passes(seed in any::<u64>()) {
        let mut f = random_function(seed);
        for _ in 0..2 {
            prop_assert!(check_cse(&f).is_ok(), "{:?}", f);
            prop_assert!(check_dce(&f).is_ok(), "{:?}", f);
            cse::run(&mut f);
            dce::run(&mut f);
        }
    }
}

/// A random function of one to five blocks of up to 16 instructions
/// over six integer, three float and two predicate registers, every instruction writing one of
/// them.
fn random_function(seed: u64) -> Function {
    let mut g = Gen(seed);
    let mut b = FunctionBuilder::new("r", 2, Some(RegClass::Int));
    let mut ints = vec![b.param(0), b.param(1)];
    ints.extend((0..4).map(|_| b.new_vreg(RegClass::Int)));
    let floats: Vec<VReg> = (0..3).map(|_| b.new_vreg(RegClass::Float)).collect();
    let preds: Vec<VReg> = (0..2).map(|_| b.new_vreg(RegClass::Pred)).collect();
    let blocks: Vec<BlockRef> = std::iter::once(b.entry())
        .chain((0..g.below(5)).map(|_| b.new_block()))
        .collect();
    let pick = |g: &mut Gen, from: &[VReg]| from[g.below(from.len() as u64) as usize];
    for &blk in &blocks {
        for _ in 0..g.below(17) {
            // Sources come from half the pool and are written a quarter
            // of the time, so values often stay available for a while.
            let dsts = if g.below(4) == 0 {
                &ints[..3]
            } else {
                &ints[3..]
            };
            let (i, j, k) = (
                pick(&mut g, dsts),
                pick(&mut g, &ints[..3]),
                pick(&mut g, &ints[..3]),
            );
            let (x, y, z) = (
                pick(&mut g, &floats),
                pick(&mut g, &floats),
                pick(&mut g, &floats),
            );
            let inst = match g.below(11) {
                0 => Inst::IConst {
                    dst: i,
                    value: g.below(3) as i64,
                },
                1 | 2 => Inst::IBin {
                    op: [IBinOp::Add, IBinOp::Mul][g.below(2) as usize],
                    dst: i,
                    a: j,
                    b: k,
                },
                3 => Inst::IUn {
                    op: [IUnOp::Mov, IUnOp::Neg][g.below(2) as usize],
                    dst: i,
                    a: j,
                },
                4 => Inst::FConst {
                    dst: x,
                    value: [0.0, -0.0, 1.5][g.below(3) as usize],
                },
                5 => Inst::FBin {
                    op: [FBinOp::Add, FBinOp::Mul][g.below(2) as usize],
                    dst: x,
                    a: y,
                    b: z,
                },
                6 => Inst::CvtIF { dst: x, a: i },
                7 => Inst::CvtFI { dst: i, a: x },
                8 => Inst::ICmp {
                    cond: Cond::Lt,
                    dst: pick(&mut g, &preds),
                    a: i,
                    b: j,
                },
                9 => Inst::Store {
                    width: Width::Word,
                    base: i,
                    offset: 0,
                    value: j,
                },
                _ => Inst::Call {
                    func: FuncId(0),
                    args: vec![j],
                    ret: (g.below(2) == 0).then_some(i),
                },
            };
            b.push(blk, inst);
        }
        let to = |g: &mut Gen| blocks[g.below(blocks.len() as u64) as usize];
        let term = match g.below(4) {
            0 => Terminator::Jump(to(&mut g)),
            1 => Terminator::CondBr {
                pred: pick(&mut g, &preds),
                then_bb: to(&mut g),
                else_bb: to(&mut g),
            },
            2 => Terminator::Ret(Some(pick(&mut g, &ints))),
            _ => Terminator::Halt,
        };
        b.set_term(blk, term);
    }
    b.finish()
}
