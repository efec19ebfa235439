//! Wire serialization of whole [`Program`] images (artifact-cache
//! format).
//!
//! Layout (all integers little-endian, lengths 64-bit; see
//! [`crate::wire`]):
//!
//! ```text
//! u32  PROGRAM_WIRE_VERSION
//! u64  num_ops       then 5 bytes per op (the 40-bit word, LE)
//! u64  num_blocks    then per block: u64 first_op, u64 num_ops,
//!                                    u64 num_mops, u64 func
//! u64  num_funcs     then per func:  str name, u64 first_block,
//!                                    u64 num_blocks
//! u64  entry
//! bytes data
//! u32  data_base
//! ```
//!
//! Decoding re-assembles through [`Program::new`], so every structural
//! invariant (tail bits, issue constraints, contiguity, branch targets)
//! is re-validated on load — a corrupted cache entry can not smuggle an
//! invalid program past the front door.

use crate::image::{BlockInfo, FuncInfo, Program};
use crate::op::Operation;
use crate::wire::{WireError, WireReader, WireWriter};
use crate::OP_BYTES;

/// Version stamp of the [`Program`] wire layout. Bump on any change to
/// the byte format (cache keys include it, so stale entries miss).
pub const PROGRAM_WIRE_VERSION: u32 = 1;

/// Serializes a program into the artifact-cache wire format.
pub fn program_to_bytes(p: &Program) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(PROGRAM_WIRE_VERSION);
    w.put_len(p.num_ops());
    for op in p.ops() {
        let word = op.encode();
        w.put_u8(word as u8);
        w.put_u8((word >> 8) as u8);
        w.put_u8((word >> 16) as u8);
        w.put_u8((word >> 24) as u8);
        w.put_u8((word >> 32) as u8);
    }
    w.put_len(p.blocks().len());
    for b in p.blocks() {
        w.put_len(b.first_op);
        w.put_len(b.num_ops);
        w.put_len(b.num_mops);
        w.put_len(b.func);
    }
    w.put_len(p.funcs().len());
    for f in p.funcs() {
        w.put_str(&f.name);
        w.put_len(f.first_block);
        w.put_len(f.num_blocks);
    }
    w.put_len(p.entry());
    w.put_bytes(p.data());
    w.put_u32(p.data_base());
    w.into_bytes()
}

/// Deserializes a program, re-validating every structural invariant.
///
/// # Errors
///
/// [`WireError`] on truncation, version mismatch, undecodable operation
/// words, or a structure [`Program::new`] rejects.
pub fn program_from_bytes(bytes: &[u8]) -> Result<Program, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.get_u32()?;
    if version != PROGRAM_WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let num_ops = r.get_len()?;
    let mut ops = Vec::with_capacity(num_ops);
    for _ in 0..num_ops {
        let mut word = 0u64;
        for i in 0..OP_BYTES {
            word |= (r.get_u8()? as u64) << (8 * i);
        }
        let op = Operation::decode(word).map_err(|e| WireError::Invalid(e.to_string()))?;
        ops.push(op);
    }
    let num_blocks = r.get_len()?;
    let mut blocks = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        blocks.push(BlockInfo {
            first_op: r.get_len()?,
            num_ops: r.get_len()?,
            num_mops: r.get_len()?,
            func: r.get_len()?,
        });
    }
    let num_funcs = r.get_len()?;
    let mut funcs = Vec::with_capacity(num_funcs);
    for _ in 0..num_funcs {
        funcs.push(FuncInfo {
            name: r.get_str()?.to_string(),
            first_block: r.get_len()?,
            num_blocks: r.get_len()?,
        });
    }
    let entry = r.get_len()?;
    let data = r.get_bytes()?.to_vec();
    let data_base = r.get_u32()?;
    if !r.is_exhausted() {
        return Err(WireError::Invalid("trailing bytes after program".into()));
    }
    Program::new(ops, blocks, funcs, entry, data, data_base)
        .map_err(|e| WireError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{IntOpcode, OpKind};
    use crate::regs::{Gpr, Pr};

    fn sample() -> Program {
        let alu = |tail| Operation {
            tail,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::IntAlu {
                op: IntOpcode::Add,
                src1: Gpr::new(1),
                src2: Gpr::new(2),
                dest: Gpr::new(3),
            },
        };
        let halt = Operation {
            tail: true,
            spec: false,
            pred: Pr::P0,
            kind: OpKind::Halt,
        };
        Program::new(
            vec![alu(false), alu(true), halt],
            vec![
                BlockInfo {
                    first_op: 0,
                    num_ops: 2,
                    num_mops: 1,
                    func: 0,
                },
                BlockInfo {
                    first_op: 2,
                    num_ops: 1,
                    num_mops: 1,
                    func: 0,
                },
            ],
            vec![FuncInfo {
                name: "main".into(),
                first_block: 0,
                num_blocks: 2,
            }],
            0,
            vec![1, 2, 3],
            0x1_0000,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_identity() {
        let p = sample();
        let bytes = program_to_bytes(&p);
        let q = program_from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    /// The words a program encodes once at construction are each op's
    /// `encode`, block by block and whole, and survive the wire round
    /// trip unchanged.
    #[test]
    fn block_words_are_each_ops_encoding_across_the_wire() {
        let mut programs = vec![sample()];
        for w in &tinker_workloads::ALL {
            // The workloads build this crate's non-test copy, so the
            // program is rebuilt here from its words and tables.
            let q = w.compile().expect("paper program compiles");
            let ops = q
                .op_words()
                .into_iter()
                .map(|w| Operation::decode(w).unwrap());
            let blocks = q.blocks().iter().map(|b| BlockInfo {
                first_op: b.first_op,
                num_ops: b.num_ops,
                num_mops: b.num_mops,
                func: b.func,
            });
            let funcs = q.funcs().iter().map(|f| FuncInfo {
                name: f.name.clone(),
                first_block: f.first_block,
                num_blocks: f.num_blocks,
            });
            let p = Program::new(
                ops.collect(),
                blocks.collect(),
                funcs.collect(),
                q.entry(),
                q.data().to_vec(),
                q.data_base(),
            );
            programs.push(p.expect("paper program rebuilds"));
        }
        for p in programs {
            let again = program_from_bytes(&program_to_bytes(&p)).unwrap();
            let mut all = Vec::new();
            for b in 0..p.num_blocks() {
                let want: Vec<u64> = p.block_ops(b).iter().map(Operation::encode).collect();
                assert_eq!(p.block_words(b), want, "block {b}");
                assert_eq!(again.block_words(b), want, "block {b} after the wire");
                all.extend(want);
            }
            assert_eq!(p.op_words(), all);
            assert_eq!(again.op_words(), all);
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = program_to_bytes(&sample());
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(program_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let mut bytes = program_to_bytes(&sample());
        bytes[0] ^= 0x40;
        assert!(matches!(
            program_from_bytes(&bytes),
            Err(WireError::BadVersion(_))
        ));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = program_to_bytes(&sample());
        bytes.push(0);
        assert!(program_from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_structure_fails_validation() {
        let mut bytes = program_to_bytes(&sample());
        // Offset of block 0's `first_op`: version(4) + op count(8) +
        // 3 ops * 5 bytes + block count(8). Setting it to 1 makes the
        // block table non-contiguous, which Program::new must reject.
        let off = 4 + 8 + 15 + 8;
        bytes[off] = 1;
        assert!(matches!(
            program_from_bytes(&bytes),
            Err(WireError::Invalid(_))
        ));
    }
}
