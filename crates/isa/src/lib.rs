//! # tepic-isa — the TEPIC embedded VLIW instruction set
//!
//! This crate implements the TEPIC ("TINKER EPIC") 40-bit VLIW instruction
//! set used as the baseline architecture in Larin & Conte, *Compiler-Driven
//! Cached Code Compression Schemes for Embedded ILP Processors* (MICRO-32,
//! 1999). TEPIC is a 40-bit derivative of the HP PlayDoh specification
//! adapted for embedded systems, with an encoding close to IA-64.
//!
//! The crate provides:
//!
//! * the bit-level field layouts of the seven operation formats of the
//!   paper's Appendix Table 2 ([`format::OpFormat`]), from which that
//!   table is printed;
//! * a typed, decoded operation representation ([`op::Operation`]) with
//!   lossless 40-bit [`op::Operation::encode`] / [`op::Operation::decode`],
//!   both reading one per-kind field walk ([`op::OpKind::walk`]: each
//!   payload field with its bit range) and one `(OPT, OPCODE)` → kind
//!   table ([`op::OpKind::template`]);
//! * zero-NOP *MultiOps* (VLIW issue groups delimited by tail bits,
//!   [`mop`]);
//! * whole-program images ([`image::Program`]) carrying basic-block
//!   structure, function boundaries, a data segment and raw code bytes
//!   (5 bytes per op);
//! * a disassembler ([`disasm`]).
//!
//! # Example
//!
//! ```
//! use tepic_isa::op::{Operation, OpKind, IntOpcode};
//! use tepic_isa::regs::{Gpr, Pr};
//!
//! // r3 = r1 + r2, last op of its MultiOp, always executed (predicate p0).
//! let op = Operation {
//!     tail: true,
//!     spec: false,
//!     pred: Pr::P0,
//!     kind: OpKind::IntAlu {
//!         op: IntOpcode::Add,
//!         src1: tepic_isa::regs::Gpr::new(1),
//!         src2: Gpr::new(2),
//!         dest: Gpr::new(3),
//!     },
//! };
//! let word = op.encode();
//! assert_eq!(Operation::decode(word).unwrap(), op);
//! ```

pub mod disasm;
pub mod format;
pub mod image;
pub mod mop;
pub mod op;
pub mod regs;
pub mod serialize;
pub mod wire;

pub use image::{BlockId, BlockInfo, FuncInfo, Program};
pub use op::{OpKind, Operation};
pub use serialize::{program_from_bytes, program_to_bytes, PROGRAM_WIRE_VERSION};

/// Size of one TEPIC operation in bits.
pub const OP_BITS: u32 = 40;
/// Size of one TEPIC operation in bytes in the uncompressed image.
pub const OP_BYTES: usize = 5;
/// Maximum number of operations in one MultiOp (the core issue width).
pub const ISSUE_WIDTH: usize = 6;
/// Number of issue slots that may execute memory operations.
pub const MEM_SLOTS: usize = 2;
/// Number of architected general-purpose registers.
pub const NUM_GPR: usize = 32;
/// Number of architected floating-point registers.
pub const NUM_FPR: usize = 32;
/// Number of architected predicate registers.
pub const NUM_PR: usize = 32;
