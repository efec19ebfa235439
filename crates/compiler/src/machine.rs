//! Machine-level representation: TEPIC operations over virtual (or
//! physical) registers, organized into machine blocks with explicit
//! fallthrough.
//!
//! Machine lowering fixes the TEPIC calling convention:
//!
//! * arguments in `r2..=r7`, return value in `r1`, link in `r31`;
//! * `r0` is zero, `r29` the stack pointer, `r30` the address scratch
//!   used by spill code, `r26`/`r27` (and `f30`/`f31`) the spill-value
//!   temporaries — none of these are allocatable;
//! * calls clobber every caller-saved register (`r1..r15`, `f0..f15`,
//!   every predicate); values live across a call must land in the
//!   callee-saved pools (`r16..r28`, `f16..f29`) or spill.
//!
//! A call ends its machine block (calls are branches in the atomic-block
//! fetch discipline, paper §3.1), so IR blocks containing calls split into
//! several machine blocks here.

use std::collections::HashMap;
use tepic_isa::op::{Cond as ICond, FloatOpcode, IntOpcode, MemWidth, SysCode as ISysCode};
use tepic_isa::regs::Gpr;
use tinker_ir::{self as ir, CfgInfo, Inst, RegClass, Terminator};

/// A machine register operand: virtual until allocation, physical after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MReg {
    /// Virtual register (index into [`MFunction::vclass`]).
    Virt(u32),
    /// Physical register index within its file.
    Phys(u8),
}

impl MReg {
    /// The physical index, when allocated.
    ///
    /// # Panics
    ///
    /// Panics when still virtual.
    pub fn phys(self) -> u8 {
        match self {
            MReg::Phys(p) => p,
            MReg::Virt(v) => panic!("unallocated virtual register v{v}"),
        }
    }
}

/// A machine instruction. Register operands carry an implicit class from
/// their position (documented per variant).
#[derive(Debug, Clone, PartialEq)]
pub enum MInst {
    /// `dst ← a <op> b` (all GPR).
    IntAlu {
        op: IntOpcode,
        dst: MReg,
        a: MReg,
        b: MReg,
    },
    /// `dst(pred) ← a <cond> b` (GPR sources).
    IntCmp {
        cond: ICond,
        dst: MReg,
        a: MReg,
        b: MReg,
    },
    /// `dst(pred) ← a <cond> b` (FPR sources).
    FloatCmp {
        cond: ICond,
        dst: MReg,
        a: MReg,
        b: MReg,
    },
    /// `dst ← imm` (GPR); `high` selects `ldih`.
    LoadImm { high: bool, imm: i32, dst: MReg },
    /// `dst ← a <op> b` (all FPR).
    Float {
        op: FloatOpcode,
        dst: MReg,
        a: MReg,
        b: MReg,
    },
    /// `dst(FPR) ← (f32) a(GPR)`.
    CvtIf { dst: MReg, a: MReg },
    /// `dst(GPR) ← (i32) a(FPR)`.
    CvtFi { dst: MReg, a: MReg },
    /// `dst(GPR) ← mem[base]`.
    Load {
        width: MemWidth,
        dst: MReg,
        base: MReg,
    },
    /// `mem[base] ← value` (GPR).
    Store {
        width: MemWidth,
        base: MReg,
        value: MReg,
    },
    /// `dst(FPR) ← mem[base]`.
    FLoad { dst: MReg, base: MReg },
    /// `mem[base] ← value(FPR)`.
    FStore { base: MReg, value: MReg },
    /// Register copy within one class.
    Copy {
        class: RegClass,
        dst: MReg,
        src: MReg,
    },
    /// Branch to a machine block of this function; `pred` = conditional.
    Branch { pred: Option<MReg>, target: u32 },
    /// Call; ends the block; falls through on return. `nargs` tells the
    /// scheduler/allocator which argument registers the call reads.
    Call { callee: ir::FuncId, nargs: u8 },
    /// Return through the link value in `addr` (GPR).
    Ret { addr: MReg },
    /// Stop.
    Halt,
    /// Environment call (GPR argument).
    Sys { code: ISysCode, arg: MReg },
}

impl MInst {
    /// True when this instruction must terminate its machine block.
    pub fn is_block_end(&self) -> bool {
        matches!(
            self,
            MInst::Branch { .. } | MInst::Call { .. } | MInst::Ret { .. } | MInst::Halt
        )
    }

    /// True for memory operations (issue-slot constraint).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            MInst::Load { .. } | MInst::Store { .. } | MInst::FLoad { .. } | MInst::FStore { .. }
        )
    }

    /// Defined registers as `(class, reg)` pairs.
    pub fn defs(&self) -> Operands {
        use RegClass::*;
        match self {
            MInst::IntAlu { dst, .. }
            | MInst::LoadImm { dst, .. }
            | MInst::Load { dst, .. }
            | MInst::CvtFi { dst, .. } => Operands::of(&[(Int, *dst)]),
            MInst::IntCmp { dst, .. } | MInst::FloatCmp { dst, .. } => {
                Operands::of(&[(Pred, *dst)])
            }
            MInst::Float { dst, .. } | MInst::CvtIf { dst, .. } | MInst::FLoad { dst, .. } => {
                Operands::of(&[(Float, *dst)])
            }
            MInst::Copy { class, dst, .. } => Operands::of(&[(*class, *dst)]),
            MInst::Store { .. }
            | MInst::FStore { .. }
            | MInst::Branch { .. }
            | MInst::Ret { .. }
            | MInst::Halt
            | MInst::Sys { .. } => Operands::of(&[]),
            // Calls define the return-value and link registers; full
            // caller-saved clobbering is handled by the allocator.
            MInst::Call { .. } => Operands::of(&[
                (Int, MReg::Phys(Gpr::RV.index())),
                (Int, MReg::Phys(Gpr::LR.index())),
            ]),
        }
    }

    /// Used registers as `(class, reg)` pairs.
    pub fn uses(&self) -> Operands {
        use RegClass::*;
        match self {
            MInst::IntAlu { a, b, .. } => Operands::of(&[(Int, *a), (Int, *b)]),
            MInst::IntCmp { a, b, .. } => Operands::of(&[(Int, *a), (Int, *b)]),
            MInst::FloatCmp { a, b, .. } => Operands::of(&[(Float, *a), (Float, *b)]),
            MInst::LoadImm { .. } => Operands::of(&[]),
            MInst::Float { a, b, .. } => Operands::of(&[(Float, *a), (Float, *b)]),
            MInst::CvtIf { a, .. } => Operands::of(&[(Int, *a)]),
            MInst::CvtFi { a, .. } => Operands::of(&[(Float, *a)]),
            MInst::Load { base, .. } => Operands::of(&[(Int, *base)]),
            MInst::Store { base, value, .. } => Operands::of(&[(Int, *base), (Int, *value)]),
            MInst::FLoad { base, .. } => Operands::of(&[(Int, *base)]),
            MInst::FStore { base, value } => Operands::of(&[(Int, *base), (Float, *value)]),
            MInst::Copy { class, src, .. } => Operands::of(&[(*class, *src)]),
            MInst::Branch { pred: Some(p), .. } => Operands::of(&[(Pred, *p)]),
            MInst::Branch { pred: None, .. } | MInst::Halt => Operands::of(&[]),
            MInst::Call { nargs, .. } => {
                let mut ops = Operands::of(&[]);
                for i in 0..*nargs {
                    ops.push((Int, MReg::Phys(Gpr::arg(i).index())));
                }
                ops
            }
            MInst::Ret { addr } => Operands::of(&[(Int, *addr)]),
            MInst::Sys { arg, .. } => Operands::of(&[(Int, *arg)]),
        }
    }

    /// Rewrites every register operand through `f` (class, is_def, reg).
    pub fn map_regs(&mut self, mut f: impl FnMut(RegClass, bool, MReg) -> MReg) {
        use RegClass::*;
        match self {
            MInst::IntAlu { dst, a, b, .. } => {
                *a = f(Int, false, *a);
                *b = f(Int, false, *b);
                *dst = f(Int, true, *dst);
            }
            MInst::IntCmp { dst, a, b, .. } => {
                *a = f(Int, false, *a);
                *b = f(Int, false, *b);
                *dst = f(Pred, true, *dst);
            }
            MInst::FloatCmp { dst, a, b, .. } => {
                *a = f(Float, false, *a);
                *b = f(Float, false, *b);
                *dst = f(Pred, true, *dst);
            }
            MInst::LoadImm { dst, .. } => *dst = f(Int, true, *dst),
            MInst::Float { dst, a, b, .. } => {
                *a = f(Float, false, *a);
                *b = f(Float, false, *b);
                *dst = f(Float, true, *dst);
            }
            MInst::CvtIf { dst, a } => {
                *a = f(Int, false, *a);
                *dst = f(Float, true, *dst);
            }
            MInst::CvtFi { dst, a } => {
                *a = f(Float, false, *a);
                *dst = f(Int, true, *dst);
            }
            MInst::Load { dst, base, .. } => {
                *base = f(Int, false, *base);
                *dst = f(Int, true, *dst);
            }
            MInst::Store { base, value, .. } => {
                *base = f(Int, false, *base);
                *value = f(Int, false, *value);
            }
            MInst::FLoad { dst, base } => {
                *base = f(Int, false, *base);
                *dst = f(Float, true, *dst);
            }
            MInst::FStore { base, value } => {
                *base = f(Int, false, *base);
                *value = f(Float, false, *value);
            }
            MInst::Copy { class, dst, src } => {
                *src = f(*class, false, *src);
                *dst = f(*class, true, *dst);
            }
            MInst::Branch { pred: Some(p), .. } => *p = f(Pred, false, *p),
            MInst::Ret { addr } => *addr = f(Int, false, *addr),
            MInst::Sys { arg, .. } => *arg = f(Int, false, *arg),
            MInst::Branch { pred: None, .. } | MInst::Call { .. } | MInst::Halt => {}
        }
    }
}

/// The register operands one side of an instruction reads or writes,
/// held inline: at most the six argument registers a call reads, so
/// walking an instruction's operands never allocates.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    regs: [(RegClass, MReg); Operands::MAX],
    len: u8,
}

impl Operands {
    /// Capacity: the argument-register count.
    const MAX: usize = Gpr::NUM_ARGS as usize;

    fn of(list: &[(RegClass, MReg)]) -> Operands {
        let mut ops = Operands {
            regs: [(RegClass::Int, MReg::Phys(0)); Operands::MAX],
            len: 0,
        };
        for &r in list {
            ops.push(r);
        }
        ops
    }

    fn push(&mut self, r: (RegClass, MReg)) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }
}

impl IntoIterator for Operands {
    type Item = (RegClass, MReg);
    type IntoIter = std::iter::Take<std::array::IntoIter<(RegClass, MReg), { Operands::MAX }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

/// A machine basic block. Only the last instruction may be a block ender;
/// when it is a conditional branch or a call (or absent), control falls
/// through to the next block in layout order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MBlock {
    /// Instruction sequence.
    pub insts: Vec<MInst>,
}

impl MBlock {
    /// True when control can fall through past this block.
    pub fn falls_through(&self) -> bool {
        match self.insts.last() {
            Some(MInst::Branch { pred: Some(_), .. }) | Some(MInst::Call { .. }) | None => true,
            Some(MInst::Branch { pred: None, .. })
            | Some(MInst::Ret { .. })
            | Some(MInst::Halt) => false,
            Some(_) => true,
        }
    }
}

/// A machine function.
#[derive(Debug, Clone, PartialEq)]
pub struct MFunction {
    /// Name, copied from the IR.
    pub name: String,
    /// Blocks in layout order; block 0 is the entry.
    pub blocks: Vec<MBlock>,
    /// Class of each virtual register.
    pub vclass: Vec<RegClass>,
    /// Parameter count.
    pub nargs: u32,
}

impl MFunction {
    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self, class: RegClass) -> MReg {
        let v = self.vclass.len() as u32;
        self.vclass.push(class);
        MReg::Virt(v)
    }

    /// Successor machine-block ids of block `b` (fallthrough last).
    pub fn successors(&self, b: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let blk = &self.blocks[b];
        if let Some(MInst::Branch { target, .. }) = blk.insts.last() {
            out.push(*target as usize);
        }
        if blk.falls_through() && b + 1 < self.blocks.len() {
            out.push(b + 1);
        }
        out
    }
}

/// Float-constant pool collected during machine lowering: distinct `f32`
/// bit patterns that must be materialized from data memory.
#[derive(Debug, Clone, Default)]
pub struct ConstPool {
    entries: Vec<u32>,
    index: HashMap<u32, u32>,
}

impl ConstPool {
    /// Interns a float constant, returning its pool slot.
    pub fn intern(&mut self, v: f32) -> u32 {
        let bits = v.to_bits();
        if let Some(&i) = self.index.get(&bits) {
            return i;
        }
        let i = self.entries.len() as u32;
        self.entries.push(bits);
        self.index.insert(bits, i);
        i
    }

    /// Pool contents as bytes (little-endian f32 bit patterns).
    pub fn bytes(&self) -> Vec<u8> {
        self.entries.iter().flat_map(|b| b.to_le_bytes()).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no float constants were needed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Data-segment layout: address of each IR global plus the float pool.
#[derive(Debug, Clone)]
pub struct DataLayout {
    /// Base address of the data segment.
    pub base: u32,
    /// Address of each global, by [`ir::GlobalId`] index.
    pub global_addr: Vec<u32>,
    /// Address of the float constant pool.
    pub pool_addr: u32,
    /// Total segment size in bytes (pool excluded until sealed).
    pub size: u32,
}

/// Default data-segment base address in the emulated address space.
pub const DATA_BASE: u32 = 0x1_0000;

impl DataLayout {
    /// Lays out all module globals word-aligned from `base`.
    pub fn new(module: &ir::Module, base: u32) -> DataLayout {
        let mut addr = base;
        let mut global_addr = Vec::with_capacity(module.globals().len());
        for g in module.globals() {
            global_addr.push(addr);
            addr += (g.size + 3) & !3;
        }
        DataLayout {
            base,
            global_addr,
            pool_addr: addr,
            size: addr - base,
        }
    }

    /// Reserves `pool_len` float-pool entries after the globals and
    /// returns the final segment size.
    pub fn seal_pool(&mut self, pool_len: usize) -> u32 {
        self.size = self.pool_addr - self.base + (pool_len as u32) * 4;
        self.size
    }

    /// Builds the initial data-segment bytes (globals + pool).
    pub fn initial_bytes(&self, module: &ir::Module, pool: &ConstPool) -> Vec<u8> {
        let mut data = vec![0u8; self.size as usize];
        for (g, &addr) in module.globals().iter().zip(&self.global_addr) {
            let off = (addr - self.base) as usize;
            data[off..off + g.init.len()].copy_from_slice(&g.init);
        }
        let pool_off = (self.pool_addr - self.base) as usize;
        let pb = pool.bytes();
        data[pool_off..pool_off + pb.len()].copy_from_slice(&pb);
        data
    }
}

/// Lowers one IR function to machine code.
///
/// `order` gives the desired block layout (from treegion formation); it
/// must start with the IR entry block and include every reachable block.
/// Returns the machine function; float constants are interned into `pool`.
pub fn lower_function(
    module: &ir::Module,
    func: &ir::Function,
    order: &[ir::BlockRef],
    layout: &DataLayout,
    pool: &mut ConstPool,
) -> MFunction {
    Lowerer::run(module, func, order, layout, pool)
}

struct Lowerer<'a> {
    f: MFunction,
    module: &'a ir::Module,
    layout: &'a DataLayout,
    pool: &'a mut ConstPool,
    /// IR block → machine head-block index.
    head: HashMap<u32, u32>,
    /// Branch fixups: (machine block, inst index) whose `target` is still
    /// an IR block id.
    fixups: Vec<(usize, usize)>,
}

impl<'a> Lowerer<'a> {
    fn run(
        module: &'a ir::Module,
        func: &'a ir::Function,
        order: &[ir::BlockRef],
        layout: &'a DataLayout,
        pool: &'a mut ConstPool,
    ) -> MFunction {
        assert_eq!(
            order.first(),
            Some(&func.entry()),
            "layout must start at entry"
        );
        let mut lo = Lowerer {
            f: MFunction {
                name: func.name.clone(),
                blocks: vec![],
                vclass: func.vreg_classes.clone(),
                nargs: func.num_params,
            },
            module,
            layout,
            pool,
            head: HashMap::new(),
            fixups: vec![],
        };

        // vlink holds the incoming return address for the whole function.
        let vlink = lo.f.new_vreg(RegClass::Int);

        for (pos, &bref) in order.iter().enumerate() {
            let head_idx = lo.f.blocks.len() as u32;
            lo.head.insert(bref.0, head_idx);
            lo.f.blocks.push(MBlock::default());
            if pos == 0 {
                // Entry: capture params and link register.
                for i in 0..func.num_params {
                    lo.emit(MInst::Copy {
                        class: func.vreg_classes[i as usize],
                        dst: MReg::Virt(i),
                        src: MReg::Phys(Gpr::arg(i as u8).index()),
                    });
                }
                lo.emit(MInst::Copy {
                    class: RegClass::Int,
                    dst: vlink,
                    src: MReg::Phys(Gpr::LR.index()),
                });
            }
            let block = func.block(bref);
            for inst in &block.insts {
                lo.inst(inst);
            }
            let next_ir = order.get(pos + 1).copied();
            lo.terminator(&block.term, next_ir, vlink);
        }

        // Patch branch targets from IR ids to machine head indices.
        for (b, i) in std::mem::take(&mut lo.fixups) {
            if let MInst::Branch { target, .. } = &mut lo.f.blocks[b].insts[i] {
                *target = lo.head[target];
            }
        }
        lo.f
    }

    fn cur(&mut self) -> &mut MBlock {
        self.f.blocks.last_mut().expect("at least one block")
    }

    fn emit(&mut self, inst: MInst) {
        self.cur().insts.push(inst);
    }

    /// Emits a branch whose target is still an IR block id, recording a
    /// fixup.
    fn emit_branch(&mut self, pred: Option<MReg>, ir_target: ir::BlockRef) {
        let b = self.f.blocks.len() - 1;
        let i = self.f.blocks[b].insts.len();
        self.f.blocks[b].insts.push(MInst::Branch {
            pred,
            target: ir_target.0,
        });
        self.fixups.push((b, i));
    }

    fn start_new_block(&mut self) {
        self.f.blocks.push(MBlock::default());
    }

    /// Materializes a 32-bit constant into a fresh GPR vreg.
    fn imm32(&mut self, value: i32) -> MReg {
        let dst = self.f.new_vreg(RegClass::Int);
        if (tepic_isa::op::IMM_MIN..=tepic_isa::op::IMM_MAX).contains(&value) {
            self.emit(MInst::LoadImm {
                high: false,
                imm: value,
                dst,
            });
        } else {
            // ldih dst, hi20 ; ldi t, lo12 ; or dst, dst, t
            let hi = value >> 12;
            let lo = value & 0xFFF;
            self.emit(MInst::LoadImm {
                high: true,
                imm: hi,
                dst,
            });
            let t = self.f.new_vreg(RegClass::Int);
            self.emit(MInst::LoadImm {
                high: false,
                imm: lo,
                dst: t,
            });
            self.emit(MInst::IntAlu {
                op: IntOpcode::Or,
                dst,
                a: dst,
                b: t,
            });
        }
        dst
    }

    /// Computes `base + offset` into a register (reusing `base` when the
    /// offset is zero).
    fn addr(&mut self, base: MReg, offset: i32) -> MReg {
        if offset == 0 {
            return base;
        }
        let off = self.imm32(offset);
        let dst = self.f.new_vreg(RegClass::Int);
        self.emit(MInst::IntAlu {
            op: IntOpcode::Add,
            dst,
            a: base,
            b: off,
        });
        dst
    }

    fn inst(&mut self, inst: &Inst) {
        use tinker_ir::IBinOp;
        let v = |r: ir::VReg| MReg::Virt(r.0);
        match inst {
            Inst::IConst { dst, value } => {
                let r = self.imm32(*value as i32);
                self.emit(MInst::Copy {
                    class: RegClass::Int,
                    dst: v(*dst),
                    src: r,
                });
            }
            Inst::FConst { dst, value } => {
                let slot = self.pool.intern(*value);
                let addr = self.layout.pool_addr + slot * 4;
                let a = self.imm32(addr as i32);
                self.emit(MInst::FLoad {
                    dst: v(*dst),
                    base: a,
                });
            }
            Inst::GlobalAddr { dst, global } => {
                let addr = self.layout.global_addr[global.0 as usize];
                let r = self.imm32(addr as i32);
                self.emit(MInst::Copy {
                    class: RegClass::Int,
                    dst: v(*dst),
                    src: r,
                });
            }
            Inst::IBin { op, dst, a, b } => {
                let mop = match op {
                    IBinOp::Add => IntOpcode::Add,
                    IBinOp::Sub => IntOpcode::Sub,
                    IBinOp::Mul => IntOpcode::Mul,
                    IBinOp::Div => IntOpcode::Div,
                    IBinOp::Rem => IntOpcode::Rem,
                    IBinOp::And => IntOpcode::And,
                    IBinOp::Or => IntOpcode::Or,
                    IBinOp::Xor => IntOpcode::Xor,
                    IBinOp::Shl => IntOpcode::Shl,
                    IBinOp::Shr => IntOpcode::Shr,
                    IBinOp::Sra => IntOpcode::Sra,
                    IBinOp::Min => IntOpcode::Min,
                    IBinOp::Max => IntOpcode::Max,
                };
                self.emit(MInst::IntAlu {
                    op: mop,
                    dst: v(*dst),
                    a: v(*a),
                    b: v(*b),
                });
            }
            Inst::IUn { op, dst, a } => match op {
                ir::IUnOp::Mov => self.emit(MInst::Copy {
                    class: RegClass::Int,
                    dst: v(*dst),
                    src: v(*a),
                }),
                ir::IUnOp::Not => self.emit(MInst::IntAlu {
                    op: IntOpcode::Not,
                    dst: v(*dst),
                    a: v(*a),
                    b: MReg::Phys(0),
                }),
                ir::IUnOp::Neg => self.emit(MInst::IntAlu {
                    op: IntOpcode::Sub,
                    dst: v(*dst),
                    a: MReg::Phys(0), // r0 = 0
                    b: v(*a),
                }),
            },
            Inst::FBin { op, dst, a, b } => {
                let fop = match op {
                    ir::FBinOp::Add => FloatOpcode::Fadd,
                    ir::FBinOp::Sub => FloatOpcode::Fsub,
                    ir::FBinOp::Mul => FloatOpcode::Fmul,
                    ir::FBinOp::Div => FloatOpcode::Fdiv,
                    ir::FBinOp::Min => FloatOpcode::Fmin,
                    ir::FBinOp::Max => FloatOpcode::Fmax,
                };
                self.emit(MInst::Float {
                    op: fop,
                    dst: v(*dst),
                    a: v(*a),
                    b: v(*b),
                });
            }
            Inst::FNeg { dst, a } => self.emit(MInst::Float {
                op: FloatOpcode::Fneg,
                dst: v(*dst),
                a: v(*a),
                b: v(*a),
            }),
            Inst::FAbs { dst, a } => self.emit(MInst::Float {
                op: FloatOpcode::Fabs,
                dst: v(*dst),
                a: v(*a),
                b: v(*a),
            }),
            Inst::FMov { dst, a } => self.emit(MInst::Copy {
                class: RegClass::Float,
                dst: v(*dst),
                src: v(*a),
            }),
            Inst::ICmp { cond, dst, a, b } => self.emit(MInst::IntCmp {
                cond: lower_cond(*cond),
                dst: v(*dst),
                a: v(*a),
                b: v(*b),
            }),
            Inst::FCmp { cond, dst, a, b } => self.emit(MInst::FloatCmp {
                cond: lower_cond(*cond),
                dst: v(*dst),
                a: v(*a),
                b: v(*b),
            }),
            Inst::CvtIF { dst, a } => self.emit(MInst::CvtIf {
                dst: v(*dst),
                a: v(*a),
            }),
            Inst::CvtFI { dst, a } => self.emit(MInst::CvtFi {
                dst: v(*dst),
                a: v(*a),
            }),
            Inst::Load {
                width,
                dst,
                base,
                offset,
            } => {
                let a = self.addr(v(*base), *offset);
                self.emit(MInst::Load {
                    width: lower_width(*width),
                    dst: v(*dst),
                    base: a,
                });
            }
            Inst::Store {
                width,
                base,
                offset,
                value,
            } => {
                let a = self.addr(v(*base), *offset);
                self.emit(MInst::Store {
                    width: lower_width(*width),
                    base: a,
                    value: v(*value),
                });
            }
            Inst::FLoad { dst, base, offset } => {
                let a = self.addr(v(*base), *offset);
                self.emit(MInst::FLoad {
                    dst: v(*dst),
                    base: a,
                });
            }
            Inst::FStore {
                base,
                offset,
                value,
            } => {
                let a = self.addr(v(*base), *offset);
                self.emit(MInst::FStore {
                    base: a,
                    value: v(*value),
                });
            }
            Inst::Call { func, args, ret } => {
                for (i, a) in args.iter().enumerate() {
                    let class = self.module.func(*func).vreg_classes[i];
                    self.emit(MInst::Copy {
                        class,
                        dst: MReg::Phys(Gpr::arg(i as u8).index()),
                        src: v(*a),
                    });
                }
                self.emit(MInst::Call {
                    callee: *func,
                    nargs: args.len() as u8,
                });
                self.start_new_block();
                if let Some(r) = ret {
                    self.emit(MInst::Copy {
                        class: RegClass::Int,
                        dst: v(*r),
                        src: MReg::Phys(Gpr::RV.index()),
                    });
                }
            }
            Inst::Sys { code, arg } => {
                let c = match code {
                    ir::SysCode::PrintInt => ISysCode::PrintInt,
                    ir::SysCode::PrintChar => ISysCode::PrintChar,
                };
                self.emit(MInst::Sys {
                    code: c,
                    arg: v(*arg),
                });
            }
        }
    }

    fn terminator(&mut self, term: &Terminator, next_ir: Option<ir::BlockRef>, vlink: MReg) {
        let v = |r: ir::VReg| MReg::Virt(r.0);
        match term {
            Terminator::Jump(t) => {
                if Some(*t) != next_ir {
                    self.emit_branch(None, *t);
                }
            }
            Terminator::CondBr {
                pred,
                then_bb,
                else_bb,
            } => {
                self.emit_branch(Some(v(*pred)), *then_bb);
                if Some(*else_bb) != next_ir {
                    self.start_new_block();
                    self.emit_branch(None, *else_bb);
                }
            }
            Terminator::Ret(val) => {
                if let Some(r) = val {
                    self.emit(MInst::Copy {
                        class: RegClass::Int,
                        dst: MReg::Phys(Gpr::RV.index()),
                        src: v(*r),
                    });
                }
                self.emit(MInst::Ret { addr: vlink });
            }
            Terminator::Halt => self.emit(MInst::Halt),
        }
    }
}

fn lower_cond(c: ir::Cond) -> ICond {
    match c {
        ir::Cond::Eq => ICond::Eq,
        ir::Cond::Ne => ICond::Ne,
        ir::Cond::Lt => ICond::Lt,
        ir::Cond::Le => ICond::Le,
        ir::Cond::Gt => ICond::Gt,
        ir::Cond::Ge => ICond::Ge,
        ir::Cond::LtU => ICond::Ltu,
        ir::Cond::GeU => ICond::Geu,
    }
}

fn lower_width(w: ir::Width) -> MemWidth {
    match w {
        ir::Width::Byte => MemWidth::Byte,
        ir::Width::Half => MemWidth::Half,
        ir::Width::Word => MemWidth::Word,
    }
}

/// Computes a block layout for `func`: treegion-guided depth-first order
/// (see [`crate::treegion`]) falling back to RPO.
pub fn layout_order(func: &ir::Function) -> Vec<ir::BlockRef> {
    let cfg = CfgInfo::compute(func);
    crate::treegion::layout_order(func, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{lower_program, parser::parse};

    fn machine_of(src: &str, fname: &str) -> (MFunction, ConstPool) {
        let module = lower_program(&parse(src).unwrap()).unwrap();
        module.verify().unwrap();
        let (_, f) = module.func_by_name(fname).unwrap();
        let layout = DataLayout::new(&module, DATA_BASE);
        let mut pool = ConstPool::default();
        let order = layout_order(f);
        let mf = lower_function(&module, f, &order, &layout, &mut pool);
        (mf, pool)
    }

    #[test]
    fn entry_captures_params_and_link() {
        let (mf, _) = machine_of(
            "fn main() { print(f(1, 2)); } fn f(a, b) { return a + b; }",
            "f",
        );
        let first = &mf.blocks[0].insts;
        assert!(matches!(
            first[0],
            MInst::Copy {
                dst: MReg::Virt(0),
                src: MReg::Phys(2),
                ..
            }
        ));
        assert!(matches!(
            first[1],
            MInst::Copy {
                dst: MReg::Virt(1),
                src: MReg::Phys(3),
                ..
            }
        ));
        assert!(matches!(
            first[2],
            MInst::Copy {
                src: MReg::Phys(31),
                ..
            }
        ));
    }

    #[test]
    fn call_splits_block_and_copies_ret() {
        let (mf, _) = machine_of(
            "fn main() { var x = f(7); print(x); } fn f(a) { return a; }",
            "main",
        );
        // Find a block ending in Call; next block must start with copy from r1.
        let mut found = false;
        for (i, b) in mf.blocks.iter().enumerate() {
            if let Some(MInst::Call { nargs, .. }) = b.insts.last() {
                assert_eq!(*nargs, 1);
                // Argument copy targets r2 just before the call.
                assert!(b.insts.iter().any(|inst| matches!(
                    inst,
                    MInst::Copy {
                        dst: MReg::Phys(2),
                        ..
                    }
                )));
                let next = &mf.blocks[i + 1].insts[0];
                assert!(matches!(
                    next,
                    MInst::Copy {
                        src: MReg::Phys(1),
                        ..
                    }
                ));
                found = true;
            }
        }
        assert!(found, "no call block found");
    }

    #[test]
    fn ret_copies_to_rv_and_uses_link() {
        let (mf, _) = machine_of("fn main() { } ", "main");
        // main ends with Ret via the captured link vreg (vlink).
        let last_block = mf
            .blocks
            .iter()
            .rev()
            .find(|b| !b.insts.is_empty())
            .unwrap();
        match last_block.insts.last() {
            Some(MInst::Ret {
                addr: MReg::Virt(_),
            }) => {}
            other => panic!("expected Ret, found {other:?}"),
        }
    }

    #[test]
    fn float_constants_interned_in_pool() {
        let (_, pool) = machine_of(
            "fn main() { fvar x = 2.5; fvar y = 2.5; fvar z = 1.0; print(int(x+y+z)); }",
            "main",
        );
        assert_eq!(pool.len(), 2, "2.5 and 1.0, deduplicated");
    }

    #[test]
    fn big_immediates_use_ldih_sequence() {
        let (mf, _) = machine_of("fn main() { var x = 0x7ABCDE; print(x); }", "main");
        let all: Vec<&MInst> = mf.blocks.iter().flat_map(|b| &b.insts).collect();
        assert!(all
            .iter()
            .any(|i| matches!(i, MInst::LoadImm { high: true, .. })));
        assert!(all.iter().any(|i| matches!(
            i,
            MInst::IntAlu {
                op: IntOpcode::Or,
                ..
            }
        )));
    }

    #[test]
    fn cond_branch_then_fallthrough() {
        let (mf, _) = machine_of(
            "fn main() { var x = 1; if (x > 0) { print(1); } else { print(2); } }",
            "main",
        );
        let has_cond = mf
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, MInst::Branch { pred: Some(_), .. }));
        assert!(has_cond);
        // All branch targets resolve to real machine blocks.
        for b in &mf.blocks {
            for i in &b.insts {
                if let MInst::Branch { target, .. } = i {
                    assert!((*target as usize) < mf.blocks.len());
                }
            }
        }
    }

    #[test]
    fn data_layout_is_word_aligned_and_pool_follows() {
        let module = lower_program(
            &parse("bglobal s[5] = \"ab\"; global w[2]; fn main() { print(w[0] + s[0]); }")
                .unwrap(),
        )
        .unwrap();
        let mut layout = DataLayout::new(&module, DATA_BASE);
        assert_eq!(layout.global_addr[0], DATA_BASE);
        assert_eq!(layout.global_addr[1], DATA_BASE + 8, "5 bytes rounds to 8");
        assert_eq!(layout.pool_addr, DATA_BASE + 16);
        let size = layout.seal_pool(2);
        assert_eq!(size, 24);
    }

    #[test]
    fn successors_follow_branches_and_fallthrough() {
        let (mf, _) = machine_of(
            "fn main() { var i = 0; while (i < 3) { i = i + 1; } print(i); }",
            "main",
        );
        for b in 0..mf.blocks.len() {
            for s in mf.successors(b) {
                assert!(s < mf.blocks.len());
            }
        }
    }
}
