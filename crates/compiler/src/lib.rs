//! # lego — the LEGO optimizing compiler for TEPIC
//!
//! A complete, self-contained compilation pipeline reproducing the role of
//! the LEGO compiler in Larin & Conte (MICRO-32, 1999):
//!
//! 1. **Frontend** ([`lang`]): the *Tink* language — a small C-like systems
//!    language (integers, floats, global arrays, functions, recursion) —
//!    lexed, parsed and lowered to the `tinker-ir` representation.
//! 2. **Optimizer** ([`opt`]): constant folding, copy propagation,
//!    dead-code elimination and CFG simplification, iterated to a fixed
//!    point.
//! 3. **Backend**: machine lowering with the TEPIC calling convention
//!    ([`machine`]), global liveness ([`liveness`]), linear-scan register
//!    allocation onto the 32/32/32 register files ([`regalloc`]), treegion
//!    formation for block layout ([`treegion`]), a cycle-by-cycle list
//!    scheduler that packs operations into zero-NOP MultiOps under the
//!    6-issue/2-memory-slot machine constraints ([`sched`]), and final
//!    emission into an executable [`tepic_isa::Program`] ([`emit`]).
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! let src = r#"
//!     fn main() {
//!         var i; var s;
//!         s = 0; i = 0;
//!         while (i < 10) { s = s + i; i = i + 1; }
//!         print(s);
//!     }
//! "#;
//! let program = lego::compile(src, &lego::Options::default()).unwrap();
//! assert!(program.num_blocks() > 0);
//! ```

pub mod dataflow;
pub mod driver;
pub mod emit;
pub mod fxmap;
pub mod lang;
pub mod liveness;
pub mod machine;
pub mod opt;
pub mod regalloc;
pub mod sched;
pub mod treegion;

#[cfg(test)]
mod oracle_tests;

pub use driver::{compile, compile_module, compile_timed, CompileError, Options, StageTimes};
