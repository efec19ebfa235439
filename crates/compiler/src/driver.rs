//! The one-call compilation driver: Tink source (or a prebuilt IR module)
//! → executable [`tepic_isa::Program`].

use crate::emit::{emit_program, EmitError};
use crate::lang::lower::LowerError;
use crate::lang::{lower_program, parse, ParseError};
use crate::machine::{layout_order, lower_function, ConstPool, DataLayout, DATA_BASE};
use crate::opt::{optimize_module_timed, PassTimes};
use crate::regalloc::{allocate, RegAllocError};
use crate::sched::{schedule_function_timed, SchedTimes};
use std::fmt;
use std::time::{Duration, Instant};
use tepic_isa::Program;
use tinker_ir::{Module, VerifyError};

/// Compilation options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run the IR optimizer (default true).
    pub optimize: bool,
    /// Optimizer iteration budget.
    pub opt_iters: usize,
    /// Data segment base address.
    pub data_base: u32,
    /// Tail-duplicate small join blocks into their jump predecessors
    /// (off by default — the paper keeps code duplication "restricted to
    /// RISC-like levels"; see `opt::taildup`). The value is the maximum
    /// instruction count of a duplicated block.
    pub tail_duplicate: Option<usize>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            optimize: true,
            opt_iters: 8,
            data_base: DATA_BASE,
            tail_duplicate: None,
        }
    }
}

/// Any failure along the compilation pipeline.
#[derive(Debug)]
pub enum CompileError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error during AST → IR lowering.
    Lower(LowerError),
    /// IR verification failure (indicates a pass bug).
    Verify(VerifyError),
    /// Register allocation failure.
    RegAlloc(RegAllocError),
    /// Final assembly failure.
    Emit(EmitError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "internal: {e}"),
            CompileError::RegAlloc(e) => write!(f, "{e}"),
            CompileError::Emit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// Wall time spent in each stage of one compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Tink source → AST.
    pub parse: Duration,
    /// AST → IR.
    pub lower: Duration,
    /// IR verification and optimization (tail duplication included).
    pub opt: Duration,
    /// IR → machine functions, data layout and constant pool.
    pub machine: Duration,
    /// Register allocation, summed over functions.
    pub regalloc: Duration,
    /// MultiOp scheduling, summed over functions.
    pub sched: Duration,
    /// Data image and final assembly.
    pub emit: Duration,
    /// The optimizer's passes, inside `opt`.
    pub opt_passes: PassTimes,
    /// The scheduler's phases, inside `sched`.
    pub sched_phases: SchedTimes,
}

impl StageTimes {
    /// Every stage as `(name, time)`, in pipeline order.
    pub fn stages(&self) -> [(&'static str, Duration); 7] {
        [
            ("parse", self.parse),
            ("lower", self.lower),
            ("opt", self.opt),
            ("machine", self.machine),
            ("regalloc", self.regalloc),
            ("sched", self.sched),
            ("emit", self.emit),
        ]
    }

    /// The timed parts of `stage` as `(name, time)`, in pipeline order:
    /// the optimizer's passes for `opt`, the scheduler's phases for
    /// `sched`, none for the other stages.
    pub fn parts_of(&self, stage: &str) -> Vec<(&'static str, Duration)> {
        match stage {
            "opt" => self.opt_passes.passes().to_vec(),
            "sched" => self.sched_phases.phases().to_vec(),
            _ => Vec::new(),
        }
    }
}

/// Runs `f`, adding its wall time to `slot`.
pub(crate) fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *slot += start.elapsed();
    value
}

/// Compiles Tink source text into an executable TEPIC program.
///
/// # Errors
///
/// Returns [`CompileError`] for syntax, semantic, allocation or assembly
/// failures.
///
/// # Example
///
/// ```
/// let p = lego::compile("fn main() { print(2 + 3); }", &lego::Options::default()).unwrap();
/// assert!(p.num_ops() > 0);
/// ```
pub fn compile(src: &str, opts: &Options) -> Result<Program, CompileError> {
    compile_timed(src, opts).map(|(program, _)| program)
}

/// [`compile`], also returning how long each stage took.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_timed(src: &str, opts: &Options) -> Result<(Program, StageTimes), CompileError> {
    let mut times = StageTimes::default();
    let ast = timed(&mut times.parse, || parse(src))?;
    let module = timed(&mut times.lower, || lower_program(&ast))?;
    let program = build(module, opts, &mut times)?;
    Ok((program, times))
}

/// Compiles a prebuilt IR module (the entry point for programmatic IR
/// construction).
///
/// # Errors
///
/// As [`compile`], minus parsing.
pub fn compile_module(module: Module, opts: &Options) -> Result<Program, CompileError> {
    build(module, opts, &mut StageTimes::default())
}

/// The pipeline from a lowered module on, timing each stage into `times`.
fn build(
    mut module: Module,
    opts: &Options,
    times: &mut StageTimes,
) -> Result<Program, CompileError> {
    timed(&mut times.opt, || {
        module.verify().map_err(CompileError::Verify)?;
        if opts.optimize {
            optimize_module_timed(&mut module, opts.opt_iters, &mut times.opt_passes);
            module.verify().map_err(CompileError::Verify)?;
        }
        if let Some(max_insts) = opts.tail_duplicate {
            for f in module.funcs_mut() {
                crate::opt::taildup::run(f, max_insts);
            }
            // Clean up now-unreachable originals and re-verify.
            optimize_module_timed(&mut module, 2, &mut times.opt_passes);
            module.verify().map_err(CompileError::Verify)?;
        }
        Ok::<(), CompileError>(())
    })?;

    let (layout, pool, machined) = timed(&mut times.machine, || {
        let mut layout = DataLayout::new(&module, opts.data_base);
        let mut pool = ConstPool::default();
        let mut machined = Vec::with_capacity(module.funcs().len());
        for f in module.funcs() {
            let order = layout_order(f);
            let mf = lower_function(&module, f, &order, &layout, &mut pool);
            machined.push(mf);
        }
        layout.seal_pool(pool.len());
        (layout, pool, machined)
    });

    let mut scheduled = Vec::with_capacity(machined.len());
    for mut mf in machined {
        timed(&mut times.regalloc, || allocate(&mut mf)).map_err(CompileError::RegAlloc)?;
        let s = timed(&mut times.sched, || {
            schedule_function_timed(&mf, &mut times.sched_phases)
        });
        scheduled.push((mf, s));
    }

    timed(&mut times.emit, || {
        let main_index = module
            .func_by_name("main")
            .map(|(id, _)| id.0 as usize)
            .ok_or(CompileError::Emit(EmitError::NoMain))?;
        let data = layout.initial_bytes(&module, &pool);
        emit_program(&scheduled, main_index, data, opts.data_base).map_err(CompileError::Emit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_hello_sum() {
        let p = compile(
            "fn main() { var i; var s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } print(s); }",
            &Options::default(),
        )
        .unwrap();
        assert!(p.num_ops() > 0);
        assert!(p.num_blocks() > 2);
        assert!(p.num_mops() <= p.num_ops());
    }

    #[test]
    fn compiles_recursion_and_calls() {
        let src = r#"
            fn main() { print(fib(10)); }
            fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        "#;
        let p = compile(src, &Options::default()).unwrap();
        assert_eq!(p.funcs().len(), 2);
    }

    #[test]
    fn compiles_with_and_without_optimization() {
        let src = r#"
            global a[16];
            fn main() {
                var i;
                for (i = 0; i < 16; i = i + 1) { a[i] = 2 * i + 1; }
                print(a[3]);
            }
        "#;
        let opt = compile(src, &Options::default()).unwrap();
        let unopt = compile(
            src,
            &Options {
                optimize: false,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(opt.num_ops() <= unopt.num_ops());
    }

    #[test]
    fn syntax_error_surfaces() {
        assert!(matches!(
            compile("fn main( { }", &Options::default()),
            Err(CompileError::Parse(_))
        ));
    }

    #[test]
    fn semantic_error_surfaces() {
        assert!(matches!(
            compile("fn main() { frob(1); }", &Options::default()),
            Err(CompileError::Lower(_))
        ));
    }

    #[test]
    fn float_program_compiles() {
        let src = r#"
            fglobal out[4];
            fn main() {
                fvar x = 1.5;
                fvar y = x * x + 0.25;
                out[0] = y;
                print(int(y * 100.0));
            }
        "#;
        let p = compile(src, &Options::default()).unwrap();
        assert!(p.num_ops() > 0);
        assert!(!p.data().is_empty());
    }
}
