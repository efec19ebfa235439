//! # yula — the TEPIC emulator
//!
//! Executes linked [`tepic_isa::Program`]s with faithful VLIW semantics
//! and produces the dynamic *block trace* consumed by the instruction
//! fetch simulator (the role of the TINKER YULA tool in the paper, §2.1).
//!
//! Semantics:
//!
//! * execution proceeds **MultiOp by MultiOp**: every operation in a MOP
//!   reads machine state as of the start of the cycle, and all writes
//!   apply together at its end — so a mis-scheduled same-cycle RAW
//!   dependence is *observable* as wrong output, and two same-cycle writes
//!   to one register are reported as an error;
//! * control transfers only occur at block ends (atomic-block fetch,
//!   paper §3.1); a predicated branch whose guard is false falls through;
//! * `r0` reads as zero (writes ignored), `p0` reads as true;
//! * calls write the *fall-through block index* to their link register;
//!   returning to [`RET_SENTINEL`] terminates the program (how `main`
//!   exits);
//! * byte loads zero-extend, half-word loads sign-extend.
//!
//! # Example
//!
//! ```
//! use yula::{Emulator, Limits};
//!
//! let p = lego::compile("fn main() { print(6 * 7); }", &lego::Options::default()).unwrap();
//! let result = Emulator::new(&p).run(&Limits::default()).unwrap();
//! assert_eq!(result.output, "42\n");
//! assert!(result.trace.len() > 0);
//! ```

mod machine;
mod memory;
pub mod opmix;
mod trace;

pub use machine::{EmuError, Emulator, Limits, RunResult, MEM_SIZE, RET_SENTINEL, STACK_TOP};
pub use opmix::{OpCategory, OpMix};
pub use trace::{BlockTrace, TraceStats, TRACE_WIRE_VERSION};

/// Compiles-and-runs convenience used everywhere in tests and benches.
///
/// # Errors
///
/// Propagates [`EmuError`].
pub fn run_program(program: &tepic_isa::Program, limits: &Limits) -> Result<RunResult, EmuError> {
    Emulator::new(program).run(limits)
}
