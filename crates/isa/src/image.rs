//! Whole-program code images: operations, basic-block structure, function
//! table and data segment.
//!
//! A [`Program`] is the unit every downstream stage consumes: the YULA
//! emulator executes it, the compression schemes re-encode its code bytes,
//! and the ATT generator walks its block table. Basic blocks are the
//! *atomic units of instruction fetch* (paper §3.1): control can only enter
//! a block at its first operation, and a block always runs to its end.

use crate::op::{OpKind, Operation};
use crate::{ISSUE_WIDTH, MEM_SLOTS, OP_BYTES};
use std::fmt;

/// Index of a basic block in a program's block table. Branch targets are
/// `BlockId`s (truncated to 16 bits in the encoding).
pub type BlockId = usize;

/// One basic block: a contiguous run of operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockInfo {
    /// Index of the first operation in [`Program::ops`].
    pub first_op: usize,
    /// Number of operations in the block.
    pub num_ops: usize,
    /// Number of MultiOps (VLIW issue groups) in the block.
    pub num_mops: usize,
    /// Owning function (index into [`Program::funcs`]).
    pub func: usize,
}

/// One function: a contiguous run of blocks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncInfo {
    /// Function name (for listings and traces).
    pub name: String,
    /// First block of the function; also its entry point.
    pub first_block: BlockId,
    /// Number of blocks belonging to the function.
    pub num_blocks: usize,
}

/// Validation failure for a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A block's operation range is empty or out of bounds.
    BadBlockRange { block: BlockId },
    /// The last operation of a block does not carry the tail bit.
    MissingTail { block: BlockId },
    /// A control transfer appears before the last operation of a block.
    EarlyControlTransfer { block: BlockId, op_index: usize },
    /// A MultiOp violates an issue constraint.
    IssueViolation {
        block: BlockId,
        reason: &'static str,
    },
    /// A branch names a block that does not exist.
    BadTarget { block: BlockId, target: u16 },
    /// Blocks are not contiguous over the operation array.
    NonContiguousBlocks { block: BlockId },
    /// A function's block range is out of bounds.
    BadFunctionRange { func: usize },
    /// The entry block index is out of range.
    BadEntry,
    /// Block index exceeds the 16-bit branch target field.
    TooManyBlocks { blocks: usize },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadBlockRange { block } => write!(f, "block {block} has a bad range"),
            ProgramError::MissingTail { block } => {
                write!(f, "block {block} does not end with a tail bit")
            }
            ProgramError::EarlyControlTransfer { block, op_index } => {
                write!(
                    f,
                    "block {block} has a control transfer at interior op {op_index}"
                )
            }
            ProgramError::IssueViolation { block, reason } => {
                write!(f, "block {block} violates issue constraints: {reason}")
            }
            ProgramError::BadTarget { block, target } => {
                write!(f, "block {block} branches to nonexistent block {target}")
            }
            ProgramError::NonContiguousBlocks { block } => {
                write!(f, "block {block} is not contiguous with its predecessor")
            }
            ProgramError::BadFunctionRange { func } => {
                write!(f, "function {func} has an out-of-range block span")
            }
            ProgramError::BadEntry => write!(f, "entry block is out of range"),
            ProgramError::TooManyBlocks { blocks } => {
                write!(f, "{blocks} blocks exceed the 16-bit branch target space")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete, executable TEPIC program image.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Operation>,
    /// `ops` encoded, once, at construction: the words every encoder
    /// compresses and every decode is checked against.
    words: Vec<u64>,
    blocks: Vec<BlockInfo>,
    funcs: Vec<FuncInfo>,
    entry: BlockId,
    data: Vec<u8>,
    data_base: u32,
}

impl Program {
    /// Assembles a program from its parts, validating every structural
    /// invariant (tail bits, atomic-block shape, issue constraints, branch
    /// targets, contiguity).
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn new(
        ops: Vec<Operation>,
        blocks: Vec<BlockInfo>,
        funcs: Vec<FuncInfo>,
        entry: BlockId,
        data: Vec<u8>,
        data_base: u32,
    ) -> Result<Program, ProgramError> {
        let words = ops.iter().map(Operation::encode).collect();
        let p = Program {
            ops,
            words,
            blocks,
            funcs,
            entry,
            data,
            data_base,
        };
        p.validate()?;
        Ok(p)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        if self.blocks.len() > u16::MAX as usize + 1 {
            return Err(ProgramError::TooManyBlocks {
                blocks: self.blocks.len(),
            });
        }
        if self.entry >= self.blocks.len() {
            return Err(ProgramError::BadEntry);
        }
        let mut cursor = 0usize;
        for (bi, b) in self.blocks.iter().enumerate() {
            if b.num_ops == 0 || b.first_op + b.num_ops > self.ops.len() {
                return Err(ProgramError::BadBlockRange { block: bi });
            }
            if b.first_op != cursor {
                return Err(ProgramError::NonContiguousBlocks { block: bi });
            }
            cursor += b.num_ops;
            let ops = &self.ops[b.first_op..b.first_op + b.num_ops];
            if !ops.last().unwrap().tail {
                return Err(ProgramError::MissingTail { block: bi });
            }
            for (i, op) in ops.iter().enumerate() {
                if op.ends_block() && i + 1 != ops.len() {
                    return Err(ProgramError::EarlyControlTransfer {
                        block: bi,
                        op_index: b.first_op + i,
                    });
                }
                match op.kind {
                    OpKind::Branch { target } | OpKind::Call { target, .. }
                        if (target as usize) >= self.blocks.len() =>
                    {
                        return Err(ProgramError::BadTarget { block: bi, target });
                    }
                    _ => {}
                }
            }
            // Issue constraints per MultiOp.
            let mut mops = 0usize;
            let mut start = 0usize;
            for (i, op) in ops.iter().enumerate() {
                if op.tail {
                    let mop = &ops[start..=i];
                    mops += 1;
                    if mop.len() > ISSUE_WIDTH {
                        return Err(ProgramError::IssueViolation {
                            block: bi,
                            reason: "more ops than issue width",
                        });
                    }
                    if mop.iter().filter(|o| o.is_mem()).count() > MEM_SLOTS {
                        return Err(ProgramError::IssueViolation {
                            block: bi,
                            reason: "more memory ops than memory slots",
                        });
                    }
                    if mop.iter().filter(|o| o.ends_block()).count() > 1 {
                        return Err(ProgramError::IssueViolation {
                            block: bi,
                            reason: "multiple control transfers in one MultiOp",
                        });
                    }
                    start = i + 1;
                }
            }
            if mops != b.num_mops {
                return Err(ProgramError::IssueViolation {
                    block: bi,
                    reason: "num_mops disagrees with tail bits",
                });
            }
        }
        if cursor != self.ops.len() {
            return Err(ProgramError::NonContiguousBlocks {
                block: self.blocks.len(),
            });
        }
        for (fi, func) in self.funcs.iter().enumerate() {
            if func.num_blocks == 0 || func.first_block + func.num_blocks > self.blocks.len() {
                return Err(ProgramError::BadFunctionRange { func: fi });
            }
        }
        Ok(())
    }

    /// All operations in layout order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// The block table.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The function table.
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The initial data segment.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Base address of the data segment in the emulated address space.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The operations of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_ops(&self, b: BlockId) -> &[Operation] {
        let info = &self.blocks[b];
        &self.ops[info.first_op..info.first_op + info.num_ops]
    }

    /// Iterates over the MultiOps (tail-bit delimited issue groups) of
    /// block `b`.
    pub fn block_mops(&self, b: BlockId) -> impl Iterator<Item = &[Operation]> {
        crate::mop::mops(self.block_ops(b))
    }

    /// The fall-through successor of block `b` (the next sequential block),
    /// if any.
    pub fn fallthrough(&self, b: BlockId) -> Option<BlockId> {
        (b + 1 < self.blocks.len()).then_some(b + 1)
    }

    /// Byte range `[start, end)` of block `b` in the original (uncompressed)
    /// address space, at 5 bytes per operation.
    pub fn block_byte_range(&self, b: BlockId) -> (u64, u64) {
        let info = &self.blocks[b];
        let start = (info.first_op * OP_BYTES) as u64;
        (start, start + (info.num_ops * OP_BYTES) as u64)
    }

    /// The 40-bit words of block `b`'s operations, encoded once when
    /// the program was built.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_words(&self, b: BlockId) -> &[u64] {
        let info = &self.blocks[b];
        &self.words[info.first_op..info.first_op + info.num_ops]
    }

    /// The raw 40-bit words of the whole code segment, in layout order
    /// (a copy of the words encoded at construction).
    pub fn op_words(&self) -> Vec<u64> {
        self.words.clone()
    }

    /// The uncompressed code segment bytes (5 bytes per op, little-endian).
    pub fn code_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * OP_BYTES);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes()[..OP_BYTES]);
        }
        out
    }

    /// Size of the uncompressed code segment in bytes.
    pub fn code_size(&self) -> usize {
        self.ops.len() * OP_BYTES
    }

    /// Total number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Total number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of MultiOps across all blocks.
    pub fn num_mops(&self) -> usize {
        self.blocks.iter().map(|b| b.num_mops).sum()
    }

    /// Full disassembly listing.
    pub fn listing(&self) -> String {
        crate::disasm::listing(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{IntOpcode, OpKind, Operation};
    use crate::regs::{Gpr, Pr};

    fn alu(tail: bool) -> Operation {
        Operation {
            tail,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::IntAlu {
                op: IntOpcode::Add,
                src1: Gpr::new(1),
                src2: Gpr::new(2),
                dest: Gpr::new(3),
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

    fn branch(tail: bool, target: u16) -> Operation {
        Operation {
            tail,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Branch { target },
        }
    }

    fn one_func(blocks: usize) -> Vec<FuncInfo> {
        vec![FuncInfo {
            name: "main".into(),
            first_block: 0,
            num_blocks: blocks,
        }]
    }

    #[test]
    fn minimal_program_validates() {
        let p = Program::new(
            vec![alu(false), halt()],
            vec![BlockInfo {
                first_op: 0,
                num_ops: 2,
                num_mops: 1,
                func: 0,
            }],
            one_func(1),
            0,
            vec![],
            0x1_0000,
        )
        .expect("valid");
        assert_eq!(p.num_ops(), 2);
        assert_eq!(p.num_mops(), 1);
        assert_eq!(p.code_size(), 10);
        assert_eq!(p.block_byte_range(0), (0, 10));
    }

    #[test]
    fn missing_tail_rejected() {
        let err = Program::new(
            vec![alu(false), alu(false)],
            vec![BlockInfo {
                first_op: 0,
                num_ops: 2,
                num_mops: 1,
                func: 0,
            }],
            one_func(1),
            0,
            vec![],
            0,
        )
        .unwrap_err();
        assert_eq!(err, ProgramError::MissingTail { block: 0 });
    }

    #[test]
    fn early_control_transfer_rejected() {
        let err = Program::new(
            vec![branch(false, 0), halt()],
            vec![BlockInfo {
                first_op: 0,
                num_ops: 2,
                num_mops: 1,
                func: 0,
            }],
            one_func(1),
            0,
            vec![],
            0,
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::EarlyControlTransfer { .. }));
    }

    #[test]
    fn wide_mop_rejected() {
        let mut ops: Vec<Operation> = (0..7).map(|_| alu(false)).collect();
        ops.push(halt());
        let err = Program::new(
            ops,
            vec![BlockInfo {
                first_op: 0,
                num_ops: 8,
                num_mops: 1,
                func: 0,
            }],
            one_func(1),
            0,
            vec![],
            0,
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::IssueViolation { .. }));
    }

    #[test]
    fn bad_branch_target_rejected() {
        let err = Program::new(
            vec![branch(true, 7)],
            vec![BlockInfo {
                first_op: 0,
                num_ops: 1,
                num_mops: 1,
                func: 0,
            }],
            one_func(1),
            0,
            vec![],
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ProgramError::BadTarget {
                block: 0,
                target: 7
            }
        );
    }

    #[test]
    fn non_contiguous_blocks_rejected() {
        let err = Program::new(
            vec![halt(), halt()],
            vec![
                BlockInfo {
                    first_op: 0,
                    num_ops: 1,
                    num_mops: 1,
                    func: 0,
                },
                // Skips op 1... starting again at 0.
                BlockInfo {
                    first_op: 0,
                    num_ops: 1,
                    num_mops: 1,
                    func: 0,
                },
            ],
            one_func(2),
            0,
            vec![],
            0,
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::NonContiguousBlocks { .. }));
    }

    #[test]
    fn code_bytes_are_five_per_op() {
        let p = Program::new(
            vec![alu(true), halt()],
            vec![
                BlockInfo {
                    first_op: 0,
                    num_ops: 1,
                    num_mops: 1,
                    func: 0,
                },
                BlockInfo {
                    first_op: 1,
                    num_ops: 1,
                    num_mops: 1,
                    func: 0,
                },
            ],
            one_func(2),
            0,
            vec![],
            0,
        )
        .unwrap();
        let bytes = p.code_bytes();
        assert_eq!(bytes.len(), 10);
        // First op decodes back from its 5 bytes.
        let mut w = [0u8; 8];
        w[..5].copy_from_slice(&bytes[..5]);
        let word = u64::from_le_bytes(w);
        assert_eq!(Operation::decode(word).unwrap(), alu(true));
    }

    #[test]
    fn mops_split_on_tail_bits() {
        let p = Program::new(
            vec![alu(false), alu(true), alu(false), alu(false), halt()],
            vec![BlockInfo {
                first_op: 0,
                num_ops: 5,
                num_mops: 2,
                func: 0,
            }],
            one_func(1),
            0,
            vec![],
            0,
        )
        .unwrap();
        let mops: Vec<_> = p.block_mops(0).collect();
        assert_eq!(mops.len(), 2);
        assert_eq!(mops[0].len(), 2);
        assert_eq!(mops[1].len(), 3);
    }
}
