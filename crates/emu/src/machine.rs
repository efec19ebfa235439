//! The emulated machine: registers, memory, MOP-at-a-time execution.

use crate::memory::Memory;
use crate::trace::{BlockTrace, TraceStats};
use std::fmt;
use tepic_isa::op::{FloatOpcode, IntOpcode, MemWidth, OpKind, Operation, SysCode};
use tepic_isa::regs::Gpr;
use tepic_isa::Program;

/// Size of the emulated address space (zero-initialised; only the parts
/// a program writes are backed).
pub const MEM_SIZE: u32 = 8 << 20;
/// Initial stack pointer (stack grows down).
pub const STACK_TOP: u32 = MEM_SIZE - 64;
/// Link value that terminates the program when returned to.
pub const RET_SENTINEL: u32 = 0xFFFF;

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum dynamic operations before aborting.
    pub max_ops: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_ops: 200_000_000,
        }
    }
}

/// Runtime failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EmuError {
    /// Memory access outside the emulated space.
    BadAddress { addr: u32, block: u32 },
    /// Integer division or remainder by zero.
    DivByZero { block: u32 },
    /// Two operations in one MultiOp wrote the same register.
    WriteConflict { block: u32, what: String },
    /// The operation budget was exhausted.
    TooLong { max_ops: u64 },
    /// A return targeted a nonexistent block.
    BadReturn { target: u32 },
    /// Control fell off the end of the program.
    FellOffEnd { block: u32 },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadAddress { addr, block } => {
                write!(f, "bad memory address {addr:#x} in block {block}")
            }
            EmuError::DivByZero { block } => write!(f, "division by zero in block {block}"),
            EmuError::WriteConflict { block, what } => {
                write!(f, "same-cycle write conflict on {what} in block {block}")
            }
            EmuError::TooLong { max_ops } => write!(f, "exceeded {max_ops} operations"),
            EmuError::BadReturn { target } => write!(f, "return to nonexistent block {target}"),
            EmuError::FellOffEnd { block } => {
                write!(f, "control fell off the end after block {block}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// The outcome of a complete run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Program output (from `print`/`putc`).
    pub output: String,
    /// The dynamic block trace.
    pub trace: BlockTrace,
    /// Derived statistics.
    pub stats: TraceStats,
}

enum Write {
    Gpr(u8, i32),
    Fpr(u8, f32),
    Pr(u8, bool),
    Mem(u32, MemWidth, u32),
    FMem(u32, f32),
    Out(String),
}

/// Control decision taken by a block's final MultiOp.
enum Next {
    Fall,
    Goto(u32),
    Stop,
}

/// An executable machine instance bound to one program.
#[derive(Debug)]
pub struct Emulator<'p> {
    program: &'p Program,
    gpr: [i32; 32],
    fpr: [f32; 32],
    pr: [bool; 32],
    mem: Memory,
    output: String,
    ops_executed: u64,
}

impl<'p> Emulator<'p> {
    /// Creates a machine with the program's data segment loaded, the stack
    /// pointer at [`STACK_TOP`] and the link register at [`RET_SENTINEL`].
    pub fn new(program: &'p Program) -> Emulator<'p> {
        let mem = Memory::with_data(program.data_base(), program.data());
        let mut gpr = [0i32; 32];
        gpr[Gpr::SP.index() as usize] = STACK_TOP as i32;
        gpr[Gpr::LR.index() as usize] = RET_SENTINEL as i32;
        let mut pr = [false; 32];
        pr[0] = true;
        Emulator {
            program,
            gpr,
            fpr: [0.0; 32],
            pr,
            mem,
            output: String::new(),
            ops_executed: 0,
        }
    }

    /// Runs from the program entry to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on runtime faults or when `limits.max_ops` is
    /// exceeded.
    pub fn run(mut self, limits: &Limits) -> Result<RunResult, EmuError> {
        let mut trace = BlockTrace::new();
        let mut block = self.program.entry() as u32;
        loop {
            trace.push(block);
            match self.exec_block(block, limits)? {
                Next::Stop => break,
                Next::Goto(t) => {
                    if t == RET_SENTINEL {
                        break;
                    }
                    if (t as usize) >= self.program.num_blocks() {
                        return Err(EmuError::BadReturn { target: t });
                    }
                    block = t;
                }
                Next::Fall => {
                    block += 1;
                    if (block as usize) >= self.program.num_blocks() {
                        return Err(EmuError::FellOffEnd { block: block - 1 });
                    }
                }
            }
        }
        let stats = TraceStats::compute(self.program, &trace);
        Ok(RunResult {
            output: self.output,
            trace,
            stats,
        })
    }

    /// Executes one block and reports where control goes next.
    fn exec_block(&mut self, block: u32, limits: &Limits) -> Result<Next, EmuError> {
        let info = self.program.blocks()[block as usize];
        self.ops_executed += info.num_ops as u64;
        if self.ops_executed > limits.max_ops {
            return Err(EmuError::TooLong {
                max_ops: limits.max_ops,
            });
        }
        let ops = self.program.block_ops(block as usize);
        let mut next = Next::Fall;
        let mut start = 0usize;
        for end in 0..ops.len() {
            if !ops[end].tail {
                continue;
            }
            let mop = &ops[start..=end];
            start = end + 1;
            if let Some(n) = self.exec_mop(block, mop)? {
                next = n;
            }
        }
        Ok(next)
    }

    /// Executes one MultiOp with read-before-write semantics. Returns the
    /// control decision if the MOP contained a taken transfer.
    fn exec_mop(&mut self, block: u32, mop: &[Operation]) -> Result<Option<Next>, EmuError> {
        let mut writes: Vec<Write> = Vec::with_capacity(mop.len());
        let mut next: Option<Next> = None;
        for op in mop {
            if !self.read_pr(op.pred.index()) {
                continue;
            }
            self.exec_op(block, op, &mut writes, &mut next)?;
        }
        // Detect same-cycle register write conflicts, then apply.
        let mut seen_g = [false; 32];
        let mut seen_f = [false; 32];
        let mut seen_p = [false; 32];
        for w in &writes {
            match *w {
                Write::Gpr(r, _) if r != 0 => {
                    if seen_g[r as usize] {
                        return Err(EmuError::WriteConflict {
                            block,
                            what: format!("r{r}"),
                        });
                    }
                    seen_g[r as usize] = true;
                }
                Write::Fpr(r, _) => {
                    if seen_f[r as usize] {
                        return Err(EmuError::WriteConflict {
                            block,
                            what: format!("f{r}"),
                        });
                    }
                    seen_f[r as usize] = true;
                }
                Write::Pr(r, _) if r != 0 => {
                    if seen_p[r as usize] {
                        return Err(EmuError::WriteConflict {
                            block,
                            what: format!("p{r}"),
                        });
                    }
                    seen_p[r as usize] = true;
                }
                _ => {}
            }
        }
        for w in writes {
            match w {
                Write::Gpr(r, v) => {
                    if r != 0 {
                        self.gpr[r as usize] = v;
                    }
                }
                Write::Fpr(r, v) => self.fpr[r as usize] = v,
                Write::Pr(r, v) => {
                    if r != 0 {
                        self.pr[r as usize] = v;
                    }
                }
                Write::Mem(addr, width, v) => self.store(block, addr, width, v)?,
                Write::FMem(addr, v) => self.store(block, addr, MemWidth::Word, v.to_bits())?,
                Write::Out(s) => self.output.push_str(&s),
            }
        }
        Ok(next)
    }

    fn exec_op(
        &self,
        block: u32,
        op: &Operation,
        writes: &mut Vec<Write>,
        next: &mut Option<Next>,
    ) -> Result<(), EmuError> {
        let g = |r: tepic_isa::regs::Gpr| self.read_gpr(r.index());
        let f = |r: tepic_isa::regs::Fpr| self.fpr[r.index() as usize];
        match op.kind {
            OpKind::IntAlu {
                op: alu,
                src1,
                src2,
                dest,
            } => {
                let (a, b) = (g(src1), g(src2));
                let v: i32 = match alu {
                    IntOpcode::Add => a.wrapping_add(b),
                    IntOpcode::Sub => a.wrapping_sub(b),
                    IntOpcode::Mul => a.wrapping_mul(b),
                    IntOpcode::Div => {
                        if b == 0 {
                            return Err(EmuError::DivByZero { block });
                        }
                        a.wrapping_div(b)
                    }
                    IntOpcode::Rem => {
                        if b == 0 {
                            return Err(EmuError::DivByZero { block });
                        }
                        a.wrapping_rem(b)
                    }
                    IntOpcode::And => a & b,
                    IntOpcode::Or => a | b,
                    IntOpcode::Xor => a ^ b,
                    IntOpcode::Shl => a.wrapping_shl(b as u32 & 31),
                    IntOpcode::Shr => ((a as u32).wrapping_shr(b as u32 & 31)) as i32,
                    IntOpcode::Sra => a.wrapping_shr(b as u32 & 31),
                    IntOpcode::Mov => a,
                    IntOpcode::Not => !a,
                    IntOpcode::Min => a.min(b),
                    IntOpcode::Max => a.max(b),
                };
                writes.push(Write::Gpr(dest.index(), v));
            }
            OpKind::IntCmp {
                cond,
                src1,
                src2,
                dest,
            } => {
                writes.push(Write::Pr(dest.index(), cond.eval(g(src1), g(src2))));
            }
            OpKind::FloatCmp {
                cond,
                src1,
                src2,
                dest,
            } => {
                writes.push(Write::Pr(dest.index(), cond.eval_f32(f(src1), f(src2))));
            }
            OpKind::LoadImm { high, imm, dest } => {
                let v = if high { imm << 12 } else { imm };
                writes.push(Write::Gpr(dest.index(), v));
            }
            OpKind::Float {
                op: fop,
                src1,
                src2,
                dest,
            } => {
                let (a, b) = (f(src1), f(src2));
                let v = match fop {
                    FloatOpcode::Fadd => a + b,
                    FloatOpcode::Fsub => a - b,
                    FloatOpcode::Fmul => a * b,
                    FloatOpcode::Fdiv => a / b,
                    FloatOpcode::Fneg => -a,
                    FloatOpcode::Fabs => a.abs(),
                    FloatOpcode::Fmin => a.min(b),
                    FloatOpcode::Fmax => a.max(b),
                    FloatOpcode::Fmov => a,
                };
                writes.push(Write::Fpr(dest.index(), v));
            }
            OpKind::CvtIf { src, dest } => {
                writes.push(Write::Fpr(dest.index(), g(src) as f32));
            }
            OpKind::CvtFi { src, dest } => {
                let x = f(src);
                let v = if x.is_nan() { 0 } else { x as i32 };
                writes.push(Write::Gpr(dest.index(), v));
            }
            OpKind::Load {
                width, base, dest, ..
            } => {
                let addr = g(base) as u32;
                let raw = self.load(block, addr, width)?;
                let v = match width {
                    MemWidth::Byte => raw as u8 as i32,         // zero-extend
                    MemWidth::Half => raw as u16 as i16 as i32, // sign-extend
                    _ => raw as i32,
                };
                writes.push(Write::Gpr(dest.index(), v));
            }
            OpKind::Store { width, base, value } => {
                writes.push(Write::Mem(g(base) as u32, width, g(value) as u32));
            }
            OpKind::FLoad { base, dest, .. } => {
                let raw = self.load(block, g(base) as u32, MemWidth::Word)?;
                writes.push(Write::Fpr(dest.index(), f32::from_bits(raw)));
            }
            OpKind::FStore { base, value } => {
                writes.push(Write::FMem(g(base) as u32, f(value)));
            }
            OpKind::Branch { target } => {
                *next = Some(Next::Goto(target as u32));
            }
            OpKind::Call { target, link } => {
                writes.push(Write::Gpr(link.index(), (block + 1) as i32));
                *next = Some(Next::Goto(target as u32));
            }
            OpKind::Ret { src } => {
                *next = Some(Next::Goto(g(src) as u32));
            }
            OpKind::Halt => {
                *next = Some(Next::Stop);
            }
            OpKind::Sys { code, arg } => {
                let v = g(arg);
                let s = match code {
                    SysCode::PrintInt => format!("{v}\n"),
                    SysCode::PrintChar => ((v as u8) as char).to_string(),
                };
                writes.push(Write::Out(s));
            }
        }
        Ok(())
    }

    fn read_gpr(&self, r: u8) -> i32 {
        if r == 0 {
            0
        } else {
            self.gpr[r as usize]
        }
    }

    fn read_pr(&self, r: u8) -> bool {
        if r == 0 {
            true
        } else {
            self.pr[r as usize]
        }
    }

    fn load(&self, block: u32, addr: u32, width: MemWidth) -> Result<u32, EmuError> {
        self.mem.load(block, addr, width.bytes().min(4))
    }

    fn store(
        &mut self,
        block: u32,
        addr: u32,
        width: MemWidth,
        value: u32,
    ) -> Result<(), EmuError> {
        self.mem.store(block, addr, width.bytes().min(4), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego::{compile, Options};

    fn run_src(src: &str) -> RunResult {
        let p = compile(src, &Options::default()).expect("compiles");
        Emulator::new(&p).run(&Limits::default()).expect("runs")
    }

    #[test]
    fn arithmetic_and_print() {
        let r = run_src("fn main() { print(2 + 3 * 4); print(10 / 3); print(10 % 3); }");
        assert_eq!(r.output, "14\n3\n1\n");
    }

    #[test]
    fn negative_numbers_and_bitops() {
        let r = run_src(
            "fn main() { print(0 - 7); print(5 & 3); print(5 | 3); print(5 ^ 3); print(~0); print(1 << 10); print(1024 >> 3); }",
        );
        assert_eq!(r.output, "-7\n1\n7\n6\n-1\n1024\n128\n");
    }

    #[test]
    fn loops_accumulate() {
        let r = run_src(
            "fn main() { var i; var s = 0; for (i = 1; i <= 100; i = i + 1) { s = s + i; } print(s); }",
        );
        assert_eq!(r.output, "5050\n");
        assert!(r.trace.len() > 100, "loop iterations appear in the trace");
    }

    #[test]
    fn branches_and_boolean_values() {
        let r = run_src(
            r#"
            fn main() {
                var x = 5;
                if (x > 3 && x < 10) { print(1); } else { print(0); }
                if (x == 5 || x == 6) { print(2); }
                var b = !(x < 3);
                print(b);
            }
        "#,
        );
        assert_eq!(r.output, "1\n2\n1\n");
    }

    #[test]
    fn arrays_and_globals() {
        let r = run_src(
            r#"
            global a[10];
            global scalar = 99;
            bglobal msg[6] = "ok";
            fn main() {
                var i;
                for (i = 0; i < 10; i = i + 1) { a[i] = i * i; }
                print(a[7]);
                print(scalar);
                putc(msg[0]); putc(msg[1]); putc(10);
            }
        "#,
        );
        assert_eq!(r.output, "49\n99\nok\n");
    }

    #[test]
    fn calls_and_recursion() {
        let r = run_src(
            r#"
            fn main() { print(fib(15)); print(fact(6)); }
            fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            fn fact(n) { if (n <= 1) { return 1; } return n * fact(n-1); }
        "#,
        );
        assert_eq!(r.output, "610\n720\n");
    }

    #[test]
    fn deep_recursion_uses_stack() {
        let r = run_src(
            r#"
            fn main() { print(depth(1000)); }
            fn depth(n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
        "#,
        );
        assert_eq!(r.output, "1000\n");
    }

    #[test]
    fn floats_work() {
        let r = run_src(
            r#"
            fglobal fs[2];
            fn main() {
                fvar x = 1.5;
                fvar y = 2.25;
                fs[0] = x * y + 0.125;
                print(int(fs[0] * 1000.0));
                fvar z = 0.0 - 3.5;
                print(int(z));
            }
        "#,
        );
        assert_eq!(r.output, "3500\n-3\n");
    }

    #[test]
    fn byte_and_word_memory() {
        let r = run_src(
            r#"
            bglobal b[4];
            global w[2];
            fn main() {
                b[0] = 250;      // stays unsigned on reload
                b[1] = 300;      // truncates to 44
                w[0] = 100000;
                print(b[0]); print(b[1]); print(w[0]);
            }
        "#,
        );
        assert_eq!(r.output, "250\n44\n100000\n");
    }

    #[test]
    fn division_by_zero_detected() {
        let p = compile(
            "fn main() { var z = 0; print(5 / z); }",
            &Options::default(),
        )
        .unwrap();
        let err = Emulator::new(&p).run(&Limits::default()).unwrap_err();
        assert!(matches!(err, EmuError::DivByZero { .. }));
    }

    #[test]
    fn op_budget_enforced() {
        let p = compile(
            "fn main() { var i = 0; while (i < 1000000) { i = i + 1; } }",
            &Options::default(),
        )
        .unwrap();
        let err = Emulator::new(&p)
            .run(&Limits { max_ops: 10_000 })
            .unwrap_err();
        assert!(matches!(err, EmuError::TooLong { .. }));
    }

    #[test]
    fn trace_stats_are_consistent() {
        let r = run_src("fn main() { var i; for (i = 0; i < 50; i = i + 1) { print(i); } }");
        assert_eq!(r.stats.blocks, r.trace.len() as u64);
        assert!(r.stats.ops >= r.stats.mops);
        let d = r.stats.avg_mop_density();
        assert!((1.0..=6.0).contains(&d), "MOP density {d} out of range");
        assert!(r.stats.taken_fraction > 0.0, "loop back edges are taken");
    }

    #[test]
    fn unoptimized_code_matches_optimized_output() {
        let src = r#"
            global a[32];
            fn main() {
                var i; var s = 0;
                for (i = 0; i < 32; i = i + 1) { a[i] = i * 3 - 7; }
                for (i = 0; i < 32; i = i + 1) { s = s + a[i]; }
                print(s);
                print(sum3(4, 5, 6));
            }
            fn sum3(a1, b1, c1) { return a1 + b1 + c1; }
        "#;
        let o1 = run_src(src).output;
        let p2 = compile(
            src,
            &Options {
                optimize: false,
                ..Options::default()
            },
        )
        .unwrap();
        let o2 = Emulator::new(&p2).run(&Limits::default()).unwrap().output;
        assert_eq!(o1, o2);
    }
}

#[cfg(test)]
mod vliw_semantics_tests {
    use super::*;
    use tepic_isa::op::{IntOpcode, OpKind, Operation};
    use tepic_isa::regs::{Gpr, Pr};
    use tepic_isa::{BlockInfo, FuncInfo, Program};

    fn prog(ops: Vec<Operation>) -> Program {
        let n = ops.len();
        let mops = ops.iter().filter(|o| o.tail).count();
        Program::new(
            ops,
            vec![BlockInfo {
                first_op: 0,
                num_ops: n,
                num_mops: mops,
                func: 0,
            }],
            vec![FuncInfo {
                name: "main".into(),
                first_block: 0,
                num_blocks: 1,
            }],
            0,
            vec![],
            0x1_0000,
        )
        .unwrap()
    }

    fn ldi(tail: bool, dest: u8, imm: i32) -> Operation {
        Operation {
            tail,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::LoadImm {
                high: false,
                imm,
                dest: Gpr::new(dest),
            },
        }
    }

    fn add(tail: bool, dest: u8, a: u8, b: u8) -> Operation {
        Operation {
            tail,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::IntAlu {
                op: IntOpcode::Add,
                src1: Gpr::new(a),
                src2: Gpr::new(b),
                dest: Gpr::new(dest),
            },
        }
    }

    fn sys_print(tail: bool, reg: u8) -> Operation {
        Operation {
            tail,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Sys {
                code: tepic_isa::op::SysCode::PrintInt,
                arg: Gpr::new(reg),
            },
        }
    }

    fn halt() -> Operation {
        Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Halt,
        }
    }

    #[test]
    fn same_cycle_raw_reads_old_value() {
        // MOP 1: r8 = 5. MOP 2: [r9 = r8 + r8 ; r8 = 100] — the add must
        // read the pre-cycle r8 (5), not 100.
        let p = prog(vec![
            ldi(true, 8, 5),
            add(false, 9, 8, 8),
            ldi(true, 8, 100),
            sys_print(true, 9),
            halt(),
        ]);
        let r = Emulator::new(&p).run(&Limits::default()).unwrap();
        assert_eq!(r.output, "10\n", "read-before-write semantics violated");
    }

    #[test]
    fn same_cycle_write_conflict_is_detected() {
        // Two writes to r8 in one MOP is a scheduler bug the machine
        // must refuse to paper over.
        let p = prog(vec![ldi(false, 8, 1), ldi(true, 8, 2), halt()]);
        let err = Emulator::new(&p).run(&Limits::default()).unwrap_err();
        assert!(matches!(err, EmuError::WriteConflict { .. }), "got {err:?}");
    }

    #[test]
    fn predicated_false_op_is_skipped() {
        // p1 is false at reset; the guarded write must not land.
        let guarded = Operation {
            tail: true,
            spec: false,
            pred: Pr::new(1),
            kind: OpKind::LoadImm {
                high: false,
                imm: 42,
                dest: Gpr::new(8),
            },
        };
        let p = prog(vec![ldi(true, 8, 7), guarded, sys_print(true, 8), halt()]);
        let r = Emulator::new(&p).run(&Limits::default()).unwrap();
        assert_eq!(r.output, "7\n", "false-predicated op must be skipped");
    }

    #[test]
    fn writes_to_r0_are_ignored() {
        let p = prog(vec![ldi(true, 0, 99), sys_print(true, 0), halt()]);
        let r = Emulator::new(&p).run(&Limits::default()).unwrap();
        assert_eq!(r.output, "0\n", "r0 must stay hardwired to zero");
    }

    #[test]
    fn bad_memory_access_is_reported() {
        // Load from an address far outside the emulated space.
        let ops = vec![
            ldi(true, 8, 0x7FFFF),
            Operation {
                tail: true,
                spec: false,
                pred: Pr::P0,
                kind: OpKind::IntAlu {
                    op: IntOpcode::Mul,
                    src1: Gpr::new(8),
                    src2: Gpr::new(8),
                    dest: Gpr::new(8),
                },
            },
            Operation {
                tail: true,
                spec: false,
                pred: Pr::P0,
                kind: OpKind::Load {
                    width: tepic_isa::op::MemWidth::Word,
                    base: Gpr::new(8),
                    lat: 2,
                    dest: Gpr::new(9),
                },
            },
            halt(),
        ];
        let p = prog(ops);
        let err = Emulator::new(&p).run(&Limits::default()).unwrap_err();
        assert!(matches!(err, EmuError::BadAddress { .. }), "got {err:?}");
    }
}
