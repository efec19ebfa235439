//! Final emission: scheduled machine functions → an executable
//! [`tepic_isa::Program`] with global block numbering, resolved call and
//! branch targets, tail bits, and the data segment.

use crate::machine::{MFunction, MInst, MReg};
use crate::sched::SchedFunction;
use std::fmt;
use tepic_isa::op::{OpKind, Operation};
use tepic_isa::regs::{Fpr, Gpr, Pr};
use tepic_isa::{BlockInfo, FuncInfo, Program};
use tinker_ir::RegClass;

/// Emission failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EmitError {
    /// The assembled program failed `Program` validation.
    Program(tepic_isa::image::ProgramError),
    /// More blocks than the 16-bit branch target field supports.
    TooManyBlocks(usize),
    /// `main` is missing.
    NoMain,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Program(e) => write!(f, "program validation failed: {e}"),
            EmitError::TooManyBlocks(n) => write!(f, "{n} blocks exceed 16-bit target space"),
            EmitError::NoMain => write!(f, "no main function"),
        }
    }
}

impl std::error::Error for EmitError {}

/// Per-function block numbering: empty machine blocks are dropped and any
/// reference to them resolves forward to the next kept block.
struct FnLayout {
    /// machine block index → *global* block id it resolves to.
    resolve: Vec<u32>,
    /// Kept machine block indices in order.
    kept: Vec<usize>,
}

impl FnLayout {
    fn resolve_local(&self, machine_block: u32) -> u32 {
        self.resolve[machine_block as usize]
    }
}

/// Assembles scheduled functions into a program.
///
/// `funcs` pairs each machine function (for block metadata) with its
/// schedule; `main_index` selects the entry function; `data`/`data_base`
/// give the initial data segment.
///
/// # Errors
///
/// Returns [`EmitError`] on validation failure or a missing entry.
pub fn emit_program(
    funcs: &[(MFunction, SchedFunction)],
    main_index: usize,
    data: Vec<u8>,
    data_base: u32,
) -> Result<Program, EmitError> {
    if main_index >= funcs.len() {
        return Err(EmitError::NoMain);
    }

    // Pass 1: number kept blocks globally.
    let mut layouts: Vec<FnLayout> = Vec::with_capacity(funcs.len());
    let mut next_global = 0u32;
    for (_, sched) in funcs {
        let nb = sched.num_blocks();
        let mut kept = Vec::new();
        let mut kept_id = vec![u32::MAX; nb];
        for (bi, id) in kept_id.iter_mut().enumerate() {
            if sched.mops(bi).len() > 0 {
                *id = next_global + kept.len() as u32;
                kept.push(bi);
            }
        }
        let mut resolve = vec![u32::MAX; nb];
        let mut next_kept = u32::MAX;
        for bi in (0..nb).rev() {
            if kept_id[bi] != u32::MAX {
                next_kept = kept_id[bi];
            }
            resolve[bi] = next_kept;
        }
        debug_assert!(
            resolve.iter().all(|&r| r != u32::MAX),
            "function ends with an empty block"
        );
        next_global += kept.len() as u32;
        layouts.push(FnLayout { resolve, kept });
    }
    if next_global as usize > u16::MAX as usize + 1 {
        return Err(EmitError::TooManyBlocks(next_global as usize));
    }

    // Pass 2: emit operations.
    let mut ops: Vec<Operation> = Vec::new();
    let mut blocks: Vec<BlockInfo> = Vec::new();
    let mut func_infos: Vec<FuncInfo> = Vec::new();
    for (fi, (mf, sched)) in funcs.iter().enumerate() {
        let lay = &layouts[fi];
        let first_block = blocks.len();
        for &bi in &lay.kept {
            let insts = &mf.blocks[bi].insts;
            let first_op = ops.len();
            for mop in sched.mops(bi) {
                for (k, &i) in mop.iter().enumerate() {
                    let tail = k + 1 == mop.len();
                    ops.push(lower_inst(&insts[i as usize], tail, lay, &layouts));
                }
            }
            blocks.push(BlockInfo {
                first_op,
                num_ops: ops.len() - first_op,
                num_mops: sched.mops(bi).len(),
                func: fi,
            });
        }
        func_infos.push(FuncInfo {
            name: mf.name.clone(),
            first_block,
            num_blocks: lay.kept.len(),
        });
    }

    let entry = layouts[main_index].resolve[0] as usize;
    Program::new(ops, blocks, func_infos, entry, data, data_base).map_err(EmitError::Program)
}

fn gpr(r: MReg) -> Gpr {
    Gpr::new(r.phys())
}

fn fpr(r: MReg) -> Fpr {
    Fpr::new(r.phys())
}

fn pr(r: MReg) -> Pr {
    Pr::new(r.phys())
}

fn lower_inst(inst: &MInst, tail: bool, lay: &FnLayout, all: &[FnLayout]) -> Operation {
    let mut pred = Pr::P0;
    let kind = match inst {
        MInst::IntAlu { op, dst, a, b } => OpKind::IntAlu {
            op: *op,
            src1: gpr(*a),
            src2: gpr(*b),
            dest: gpr(*dst),
        },
        MInst::IntCmp { cond, dst, a, b } => OpKind::IntCmp {
            cond: *cond,
            src1: gpr(*a),
            src2: gpr(*b),
            dest: pr(*dst),
        },
        MInst::FloatCmp { cond, dst, a, b } => OpKind::FloatCmp {
            cond: *cond,
            src1: fpr(*a),
            src2: fpr(*b),
            dest: pr(*dst),
        },
        MInst::LoadImm { high, imm, dst } => OpKind::LoadImm {
            high: *high,
            imm: *imm,
            dest: gpr(*dst),
        },
        MInst::Float { op, dst, a, b } => OpKind::Float {
            op: *op,
            src1: fpr(*a),
            src2: fpr(*b),
            dest: fpr(*dst),
        },
        MInst::CvtIf { dst, a } => OpKind::CvtIf {
            src: gpr(*a),
            dest: fpr(*dst),
        },
        MInst::CvtFi { dst, a } => OpKind::CvtFi {
            src: fpr(*a),
            dest: gpr(*dst),
        },
        MInst::Load { width, dst, base } => OpKind::Load {
            width: *width,
            base: gpr(*base),
            lat: 2,
            dest: gpr(*dst),
        },
        MInst::Store { width, base, value } => OpKind::Store {
            width: *width,
            base: gpr(*base),
            value: gpr(*value),
        },
        MInst::FLoad { dst, base } => OpKind::FLoad {
            base: gpr(*base),
            lat: 2,
            dest: fpr(*dst),
        },
        MInst::FStore { base, value } => OpKind::FStore {
            base: gpr(*base),
            value: fpr(*value),
        },
        MInst::Copy { class, dst, src } => match class {
            RegClass::Int => OpKind::IntAlu {
                op: tepic_isa::op::IntOpcode::Mov,
                src1: gpr(*src),
                src2: Gpr::ZERO,
                dest: gpr(*dst),
            },
            RegClass::Float => OpKind::Float {
                op: tepic_isa::op::FloatOpcode::Fmov,
                src1: fpr(*src),
                src2: fpr(*src),
                dest: fpr(*dst),
            },
            RegClass::Pred => unreachable!("predicate copies are never emitted"),
        },
        MInst::Branch { pred: p, target } => {
            if let Some(pp) = p {
                pred = pr(*pp);
            }
            OpKind::Branch {
                target: lay.resolve_local(*target) as u16,
            }
        }
        MInst::Call { callee, .. } => OpKind::Call {
            target: all[callee.0 as usize].resolve_local(0) as u16,
            link: Gpr::LR,
        },
        MInst::Ret { addr } => OpKind::Ret { src: gpr(*addr) },
        MInst::Halt => OpKind::Halt,
        MInst::Sys { code, arg } => OpKind::Sys {
            code: *code,
            arg: gpr(*arg),
        },
    };
    Operation {
        tail,
        spec: false,
        pred,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::{compile, Options};
    use tepic_isa::op::OpKind;

    #[test]
    fn entry_is_mains_first_block() {
        let p = compile(
            "fn helper() { return 3; } fn main() { print(helper()); }",
            &Options::default(),
        )
        .unwrap();
        // main is the second function; the entry block must belong to it.
        let entry_func = p.blocks()[p.entry()].func;
        assert_eq!(p.funcs()[entry_func].name, "main");
    }

    #[test]
    fn calls_resolve_to_callee_entry_blocks() {
        let p = compile(
            "fn main() { print(f(1)); } fn f(x) { return x * 2; }",
            &Options::default(),
        )
        .unwrap();
        let f_entry = {
            let (fi, info) = p
                .funcs()
                .iter()
                .enumerate()
                .find(|(_, f)| f.name == "f")
                .expect("f exists");
            let _ = fi;
            info.first_block
        };
        let mut found = false;
        for op in p.ops() {
            if let OpKind::Call { target, .. } = op.kind {
                assert_eq!(target as usize, f_entry, "call targets f's entry");
                found = true;
            }
        }
        assert!(found, "no call emitted");
    }

    #[test]
    fn tail_bits_delimit_mops_consistently() {
        let p = compile(
            "fn main() { var i; var s = 0; for (i = 0; i < 5; i = i + 1) { s = s + i * i; } print(s); }",
            &Options::default(),
        )
        .unwrap();
        for b in 0..p.num_blocks() {
            let ops = p.block_ops(b);
            assert!(
                ops.last().unwrap().tail,
                "block {b} missing trailing tail bit"
            );
            let mops = tepic_isa::mop::count_mops(ops);
            assert_eq!(mops, p.blocks()[b].num_mops);
            for mop in tepic_isa::mop::mops(ops) {
                assert!(
                    tepic_isa::mop::is_legal_mop(mop),
                    "illegal MOP in block {b}"
                );
            }
        }
    }

    #[test]
    fn branch_targets_stay_in_function_and_resolve() {
        let src = r#"
            fn main() {
                var i;
                for (i = 0; i < 3; i = i + 1) {
                    if (i == 1) { print(10); } else { print(20); }
                }
            }
        "#;
        let p = compile(src, &Options::default()).unwrap();
        let main_info = p.funcs().iter().find(|f| f.name == "main").unwrap();
        let range = main_info.first_block..main_info.first_block + main_info.num_blocks;
        for op in p.ops() {
            if let OpKind::Branch { target } = op.kind {
                assert!(
                    range.contains(&(target as usize)),
                    "branch escapes its function: {target}"
                );
            }
        }
    }

    #[test]
    fn no_empty_blocks_survive_emission() {
        // Join blocks and fallthrough stubs collapse away.
        let src = "fn main() { var x = 1; if (x > 0) { x = 2; } print(x); }";
        let p = compile(src, &Options::default()).unwrap();
        for b in 0..p.num_blocks() {
            assert!(p.blocks()[b].num_ops > 0, "block {b} is empty");
        }
    }

    #[test]
    fn unoptimized_emission_also_validates() {
        let src = r#"
            global a[4];
            fn main() { a[0] = 1 + 2; print(a[0]); }
        "#;
        let p = compile(
            src,
            &Options {
                optimize: false,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(p.num_ops() > 0);
    }
}
