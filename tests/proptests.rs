//! Property-based tests over the core invariants: ISA encode/decode,
//! Huffman coding, every compression scheme's losslessness on arbitrary
//! op sequences, and compiler semantics against a host-side evaluator.

use proptest::prelude::*;
use tepic_ccc::ccc::schemes::standard_schemes;
use tepic_ccc::ccc::schemes::tailored::TailoredScheme;
use tepic_ccc::huffman::{BitReader, BitWriter, CodeBook};
use tepic_ccc::isa::op::{
    Cond, FloatOpcode, IntOpcode, MemWidth, OpKind, Operation, SysCode, IMM_MAX, IMM_MIN,
};
use tepic_ccc::isa::regs::{Fpr, Gpr, Pr};
use tepic_ccc::isa::{BlockInfo, FuncInfo, Program};
use tepic_ccc::prelude::*;

#[path = "support/verilog_eval.rs"]
mod verilog_eval;

fn gpr() -> impl Strategy<Value = Gpr> {
    (0u8..32).prop_map(Gpr::new)
}

fn fpr() -> impl Strategy<Value = Fpr> {
    (0u8..32).prop_map(Fpr::new)
}

fn pr() -> impl Strategy<Value = Pr> {
    (0u8..32).prop_map(Pr::new)
}

fn cond() -> impl Strategy<Value = Cond> {
    prop::sample::select(Cond::ALL.to_vec())
}

fn mem_width() -> impl Strategy<Value = MemWidth> {
    prop::sample::select(vec![
        MemWidth::Byte,
        MemWidth::Half,
        MemWidth::Word,
        MemWidth::Double,
    ])
}

/// Any non-control operation kind (the block body alphabet).
fn body_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (
            prop::sample::select(IntOpcode::ALL.to_vec()),
            gpr(),
            gpr(),
            gpr()
        )
            .prop_map(|(op, src1, src2, dest)| OpKind::IntAlu {
                op,
                src1,
                src2,
                dest
            }),
        (cond(), gpr(), gpr(), pr()).prop_map(|(cond, src1, src2, dest)| OpKind::IntCmp {
            cond,
            src1,
            src2,
            dest
        }),
        (cond(), fpr(), fpr(), pr()).prop_map(|(cond, src1, src2, dest)| OpKind::FloatCmp {
            cond,
            src1,
            src2,
            dest
        }),
        (any::<bool>(), IMM_MIN..=IMM_MAX, gpr()).prop_map(|(high, imm, dest)| OpKind::LoadImm {
            high,
            imm,
            dest
        }),
        (
            prop::sample::select(FloatOpcode::ALL.to_vec()),
            fpr(),
            fpr(),
            fpr()
        )
            .prop_map(|(op, src1, src2, dest)| OpKind::Float {
                op,
                src1,
                src2,
                dest
            }),
        (gpr(), fpr()).prop_map(|(src, dest)| OpKind::CvtIf { src, dest }),
        (fpr(), gpr()).prop_map(|(src, dest)| OpKind::CvtFi { src, dest }),
        (mem_width(), gpr(), 0u8..32, gpr()).prop_map(|(width, base, lat, dest)| OpKind::Load {
            width,
            base,
            lat,
            dest
        }),
        (mem_width(), gpr(), gpr()).prop_map(|(width, base, value)| OpKind::Store {
            width,
            base,
            value
        }),
        (gpr(), 0u8..32, fpr()).prop_map(|(base, lat, dest)| OpKind::FLoad { base, lat, dest }),
        (gpr(), fpr()).prop_map(|(base, value)| OpKind::FStore { base, value }),
        (
            prop::sample::select(vec![SysCode::PrintInt, SysCode::PrintChar]),
            gpr()
        )
            .prop_map(|(code, arg)| OpKind::Sys { code, arg }),
    ]
}

fn operation() -> impl Strategy<Value = Operation> {
    (any::<bool>(), any::<bool>(), pr(), body_kind()).prop_map(|(tail, spec, pred, kind)| {
        Operation {
            tail,
            spec,
            pred,
            kind,
        }
    })
}

/// A structurally valid single-function program: blocks of single-op
/// MOPs ending in a Halt. Body ops draw their speculative bit and guard
/// predicate, so schemes see `spec` set and predicated ops.
fn small_program() -> impl Strategy<Value = Program> {
    let body_op = (any::<bool>(), pr(), body_kind());
    prop::collection::vec(prop::collection::vec(body_op, 1..6), 1..12).prop_map(|blocks| {
        let mut ops = Vec::new();
        let mut infos = Vec::new();
        let nblocks = blocks.len();
        for (bi, body) in blocks.into_iter().enumerate() {
            let first_op = ops.len();
            let n = body.len();
            for (spec, pred, kind) in body {
                ops.push(Operation {
                    tail: true,
                    spec,
                    pred,
                    kind,
                });
            }
            // Last block ends in Halt; others fall through or branch to a
            // valid target (block index mod nblocks).
            if bi + 1 == nblocks {
                ops.push(Operation {
                    tail: true,
                    spec: false,
                    pred: Pr::P0,
                    kind: OpKind::Halt,
                });
            } else {
                ops.push(Operation {
                    tail: true,
                    spec: false,
                    pred: Pr::new(1),
                    kind: OpKind::Branch {
                        target: (bi % nblocks) as u16,
                    },
                });
            }
            infos.push(BlockInfo {
                first_op,
                num_ops: n + 1,
                num_mops: n + 1,
                func: 0,
            });
        }
        Program::new(
            ops,
            infos,
            vec![FuncInfo {
                name: "main".into(),
                first_block: 0,
                num_blocks: nblocks,
            }],
            0,
            vec![],
            0x1_0000,
        )
        .expect("generated program is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every encodable operation round-trips through its 40-bit word.
    #[test]
    fn isa_encode_decode_roundtrip(op in operation()) {
        let w = op.encode();
        prop_assert!(w >> 40 == 0);
        prop_assert_eq!(Operation::decode(w).unwrap(), op);
    }

    /// Bit I/O round-trips arbitrary (value, width) sequences.
    #[test]
    fn bitio_roundtrip(chunks in prop::collection::vec((any::<u64>(), 1u32..=64), 1..50)) {
        let mut w = BitWriter::new();
        for &(v, n) in &chunks {
            w.write_bits(v & ((1u128 << n) - 1) as u64, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &chunks {
            prop_assert_eq!(r.read_bits(n), Some(v & ((1u128 << n) - 1) as u64));
        }
    }

    /// Huffman: decode(encode(m)) == m, codes are prefix-free and obey
    /// Kraft for any frequency profile.
    #[test]
    fn huffman_roundtrip_and_prefix_free(
        freqs in prop::collection::vec(0u64..1000, 2..64),
        seed in any::<u64>(),
    ) {
        prop_assume!(freqs.iter().any(|&f| f > 0));
        let book = CodeBook::from_freqs(&freqs).unwrap();
        prop_assert!(book.kraft_sum() <= 1.0 + 1e-9);
        // Prefix-freeness.
        let coded: Vec<u32> =
            (0..freqs.len() as u32).filter(|&s| book.len_of(s) > 0).collect();
        for &a in &coded {
            for &b in &coded {
                if a != b && book.len_of(a) <= book.len_of(b) {
                    let prefix = book.code_of(b) >> (book.len_of(b) - book.len_of(a));
                    prop_assert_ne!(prefix, book.code_of(a));
                }
            }
        }
        // Round-trip a pseudo-random message over the coded symbols.
        let mut x = seed | 1;
        let msg: Vec<u32> = (0..200)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                coded[(x >> 33) as usize % coded.len()]
            })
            .collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let dec = book.decoder();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(dec.decode_n(&mut r, msg.len()), Ok(msg));
    }

    /// Bounded Huffman: the length bound holds and total size is within
    /// [optimal, fixed-length] for any profile.
    #[test]
    fn bounded_huffman_is_sandwiched(
        freqs in prop::collection::vec(1u64..10_000, 4..40),
    ) {
        let bound = 12u8;
        let bounded = CodeBook::bounded_from_freqs(&freqs, bound).unwrap();
        prop_assert!(bounded.max_len() <= bound);
        let optimal = CodeBook::from_freqs(&freqs).unwrap();
        let fixed_bits = {
            let k = freqs.len() as u64;
            let w = 64 - (k - 1).leading_zeros() as u64;
            freqs.iter().sum::<u64>() * w
        };
        prop_assert!(bounded.total_bits(&freqs) >= optimal.total_bits(&freqs));
        prop_assert!(bounded.total_bits(&freqs) <= fixed_bits);
    }
}

/// Decodes `stream` to exhaustion with both the bit-serial reference
/// and the two-level LUT decoder, asserting identical symbols, identical
/// cursor positions after every step, and an identical terminal error
/// (same variant at the same bit position).
fn assert_lut_differential(book: &CodeBook, stream: &[u8], start: u64) {
    let reference = book.decoder();
    let lut = book.lut_decoder();
    let mut a = BitReader::at_bit(stream, start);
    let mut b = BitReader::at_bit(stream, start);
    loop {
        let x = reference.decode(&mut a);
        let y = lut.decode(&mut b);
        assert_eq!(x, y, "decoder divergence at bit {}", a.bit_pos());
        assert_eq!(a.bit_pos(), b.bit_pos(), "cursor drift");
        if x.is_err() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LUT decoder is observationally identical to the reference on
    /// valid encoded messages over arbitrary codebooks — including the
    /// final error where decoding runs into the zero padding.
    #[test]
    fn lut_matches_reference_on_valid_streams(
        freqs in prop::collection::vec(0u64..1000, 2..64),
        seed in any::<u64>(),
    ) {
        prop_assume!(freqs.iter().any(|&f| f > 0));
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let coded: Vec<u32> =
            (0..freqs.len() as u32).filter(|&s| book.len_of(s) > 0).collect();
        let mut x = seed | 1;
        let mut w = BitWriter::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            book.encode_into(coded[(x >> 33) as usize % coded.len()], &mut w);
        }
        let bytes = w.into_bytes();
        assert_lut_differential(&book, &bytes, 0);
    }

    /// On arbitrary corrupted streams, from every bit offset, both
    /// decoders report the same error variant at the same bit position.
    #[test]
    fn lut_matches_reference_on_garbage(
        freqs in prop::collection::vec(0u64..1000, 2..64),
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        start in 0u64..8,
    ) {
        prop_assume!(freqs.iter().any(|&f| f > 0));
        let book = CodeBook::from_freqs(&freqs).unwrap();
        assert_lut_differential(&book, &bytes, start);
    }

    /// Incomplete books (dropped codewords leave unreachable holes in
    /// the canonical code space) raise `InvalidCode`/`LengthOverflow`
    /// identically on both decoders.
    #[test]
    fn lut_matches_reference_on_incomplete_books(
        freqs in prop::collection::vec(1u64..1000, 3..48),
        drop_mask in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        start in 0u64..8,
    ) {
        let complete = CodeBook::from_freqs(&freqs).unwrap();
        // Dropping codewords only lowers the Kraft sum, so the lengths
        // stay canonically realizable (with unreachable code space).
        let lengths: Vec<u8> = (0..freqs.len() as u32)
            .map(|s| if drop_mask >> (s % 64) & 1 == 1 { 0 } else { complete.len_of(s) })
            .collect();
        let book = CodeBook::from_lengths(lengths);
        assert_lut_differential(&book, &bytes, start);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every compression scheme is lossless on arbitrary valid programs,
    /// the tailored encoding never expands an op beyond 40 bits, and its
    /// decoder table and Verilog expand each op back to its word.
    #[test]
    fn schemes_lossless_on_arbitrary_programs(p in small_program()) {
        for scheme in standard_schemes() {
            let out = scheme.compress(&p).unwrap();
            prop_assert!(out.image.check_layout());
            prop_assert!(out.verify_roundtrip(&p), "{} failed", scheme.name());
        }
        let spec = tepic_ccc::ccc::schemes::tailored::TailoredSpec::compute(&p);
        for op in p.ops() {
            prop_assert!(spec.op_bits(op) <= 40);
        }
        // The placement table expands each op's tailored bits to its word,
        // and so does the Verilog printed from it (speculative bits and
        // guards set).
        let image = TailoredScheme.compress(&p).unwrap().image;
        for b in 0..p.num_blocks() {
            let mut r = BitReader::at_bit(&image.bytes, image.block_start[b] * 8);
            for op in p.block_ops(b) {
                prop_assert_eq!(spec.expand(&mut r), Ok(op.encode()), "{:?}", op);
            }
        }
        let verilog = verilog_eval::check_tailored_verilog(&p);
        prop_assert!(verilog.is_ok(), "{}", verilog.unwrap_err());
    }

    /// Flipping any single payload bit either raises a decoder error or
    /// corrupts only the block containing the flipped bit — the blocks
    /// are byte-aligned, independently decodable atomic fetch units, so
    /// corruption can never cascade past a block boundary.
    #[test]
    fn single_bit_flip_is_detected_or_contained(p in small_program(), pick in any::<u64>()) {
        for scheme in standard_schemes() {
            let out = scheme.compress(&p).unwrap();
            let mut bytes = out.image.bytes.clone();
            prop_assume!(!bytes.is_empty());
            let bit = pick % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 0x80u8 >> (bit % 8);
            let mut image = out.image.clone();
            image.bytes = bytes;
            // The faulted block: the last whose used range covers the byte.
            let byte = bit / 8;
            let faulted = (0..p.num_blocks())
                .rev()
                .find(|&b| {
                    let (s, e) = image.block_range(b);
                    s <= byte && (byte < e || b + 1 == p.num_blocks())
                })
                .unwrap_or(0);
            for b in 0..p.num_blocks() {
                match out.codec.decode_block(&image, b, p.blocks()[b].num_ops) {
                    Err(_) => {} // detected: fine anywhere
                    Ok(words) => {
                        if b != faulted {
                            let want: Vec<u64> =
                                p.block_ops(b).iter().map(|o| o.encode()).collect();
                            prop_assert_eq!(
                                words, want,
                                "{}: flip in block {} corrupted block {}",
                                scheme.name(), faulted, b
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The artifact cache's `Program` wire format is lossless: decode
    /// after encode reproduces the exact program (ops, block and
    /// function tables, data segment, entry).
    #[test]
    fn program_wire_roundtrip(p in small_program()) {
        let bytes = tepic_ccc::isa::program_to_bytes(&p);
        let back = tepic_ccc::isa::program_from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, p);
        // And the encoding itself is deterministic (cache keys assume it).
        let p2 = tepic_ccc::isa::program_from_bytes(&bytes).unwrap();
        prop_assert_eq!(tepic_ccc::isa::program_to_bytes(&p2), bytes);
    }

    /// The `BlockTrace` wire format round-trips arbitrary block-id
    /// sequences, including the empty trace.
    #[test]
    fn trace_wire_roundtrip(blocks in prop::collection::vec(any::<u32>(), 0..600)) {
        let trace: yula::BlockTrace = blocks.iter().copied().collect();
        let bytes = trace.to_wire_bytes();
        let back = yula::BlockTrace::from_wire_bytes(&bytes).unwrap();
        prop_assert_eq!(back.blocks(), trace.blocks());
        // Truncating the payload must be an error, never a silent prefix.
        if bytes.len() > 12 {
            prop_assert!(yula::BlockTrace::from_wire_bytes(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// The `EncodedProgram` wire format round-trips every scheme's output
    /// on arbitrary valid programs: image bytes, block offsets, decoder
    /// spec and ATT all survive encode→decode exactly.
    #[test]
    fn encoded_wire_roundtrip(p in small_program()) {
        for scheme in standard_schemes() {
            let out = scheme.compress(&p).unwrap().image;
            let bytes = tepic_ccc::ccc::encoded_to_bytes(&out);
            let back = tepic_ccc::ccc::encoded_from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &out, "{}: wire round-trip drifted", scheme.name());
            // A decoded image is a first-class artifact: re-encoding it
            // must be byte-identical (warm cache entries are stable).
            prop_assert_eq!(
                tepic_ccc::ccc::encoded_to_bytes(&back),
                bytes,
                "{}: re-encode not canonical",
                scheme.name()
            );
        }
    }
}

/// Host-side reference evaluation with the emulator's wrapping semantics.
#[derive(Debug, Clone)]
enum Expr {
    Lit(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Shl(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self) -> i32 {
        match self {
            Expr::Lit(v) => *v,
            Expr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Expr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            Expr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            Expr::And(a, b) => a.eval() & b.eval(),
            Expr::Or(a, b) => a.eval() | b.eval(),
            Expr::Xor(a, b) => a.eval() ^ b.eval(),
            Expr::Shl(a, b) => a.eval().wrapping_shl(b.eval() as u32 & 31),
        }
    }

    fn to_tink(&self) -> String {
        match self {
            Expr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", (*v as i64).unsigned_abs())
                } else {
                    format!("{v}")
                }
            }
            Expr::Add(a, b) => format!("({} + {})", a.to_tink(), b.to_tink()),
            Expr::Sub(a, b) => format!("({} - {})", a.to_tink(), b.to_tink()),
            Expr::Mul(a, b) => format!("({} * {})", a.to_tink(), b.to_tink()),
            Expr::And(a, b) => format!("({} & {})", a.to_tink(), b.to_tink()),
            Expr::Or(a, b) => format!("({} | {})", a.to_tink(), b.to_tink()),
            Expr::Xor(a, b) => format!("({} ^ {})", a.to_tink(), b.to_tink()),
            Expr::Shl(a, b) => format!("({} << ({} & 31))", a.to_tink(), b.to_tink()),
        }
    }
}

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        (-100_000i32..100_000).prop_map(Expr::Lit).boxed()
    } else {
        let sub = expr(depth - 1);
        prop_oneof![
            (-100_000i32..100_000).prop_map(Expr::Lit),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (sub.clone(), sub).prop_map(|(a, b)| Expr::Shl(Box::new(a), Box::new(b))),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole compiler+emulator stack computes exactly what a host
    /// evaluator computes, optimized or not — wrapping arithmetic, bit
    /// ops, shifts and all.
    #[test]
    fn compiler_matches_reference_semantics(e in expr(4)) {
        let expected = e.eval();
        let src = format!("fn main() {{ print({}); }}", e.to_tink());
        for optimize in [true, false] {
            let opts = lego::Options { optimize, ..lego::Options::default() };
            let p = lego::compile(&src, &opts).unwrap();
            let r = Emulator::new(&p).run(&Limits::default()).unwrap();
            prop_assert_eq!(
                r.output.trim().parse::<i32>().unwrap(),
                expected,
                "optimize={} src={}",
                optimize,
                src
            );
        }
    }
}

/// A random straight-line program over N mutable variables: stresses
/// liveness, register allocation and spilling far harder than single
/// expressions (many simultaneously-live values), then checks the
/// compiled result against a host interpreter.
#[derive(Debug, Clone)]
struct VarProgram {
    nvars: usize,
    /// (dst, op, a_src, b_src, literal) — dst = a op (b or literal).
    steps: Vec<(usize, u8, usize, usize, i32)>,
    print_var: usize,
}

impl VarProgram {
    fn eval(&self) -> i64 {
        let mut vars = vec![0i32; self.nvars];
        for (i, v) in vars.iter_mut().enumerate() {
            *v = i as i32 + 1;
        }
        for &(d, op, a, b, lit) in &self.steps {
            let x = vars[a];
            let y = if op % 2 == 0 { vars[b] } else { lit };
            vars[d] = match op / 2 {
                0 => x.wrapping_add(y),
                1 => x.wrapping_sub(y),
                2 => x.wrapping_mul(y),
                3 => x ^ y,
                _ => x & y,
            };
        }
        vars[self.print_var] as i64
    }

    fn to_tink(&self) -> String {
        let mut s = String::from("fn main() {\n");
        for i in 0..self.nvars {
            s.push_str(&format!("    var v{i} = {};\n", i + 1));
        }
        for &(d, op, a, b, lit) in &self.steps {
            let rhs = if op % 2 == 0 {
                format!("v{b}")
            } else {
                format!("({lit})")
            };
            let sym = match op / 2 {
                0 => "+",
                1 => "-",
                2 => "*",
                3 => "^",
                _ => "&",
            };
            s.push_str(&format!("    v{d} = v{a} {sym} {rhs};\n"));
        }
        s.push_str(&format!("    print(v{});\n}}\n", self.print_var));
        s
    }
}

fn var_program() -> impl Strategy<Value = VarProgram> {
    (4usize..28).prop_flat_map(|nvars| {
        (
            prop::collection::vec(
                (0..nvars, 0u8..10, 0..nvars, 0..nvars, -10_000i32..10_000),
                1..60,
            ),
            0..nvars,
        )
            .prop_map(move |(steps, print_var)| VarProgram {
                nvars,
                steps,
                print_var,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Many-variable straight-line programs survive allocation (and
    /// spilling) with exact semantics, optimized or not.
    #[test]
    fn register_pressure_preserves_semantics(vp in var_program()) {
        let expected = vp.eval();
        let src = vp.to_tink();
        for optimize in [true, false] {
            let opts = lego::Options { optimize, ..lego::Options::default() };
            let p = lego::compile(&src, &opts).unwrap();
            let r = Emulator::new(&p).run(&Limits::default()).unwrap();
            prop_assert_eq!(
                r.output.trim().parse::<i64>().unwrap(),
                expected,
                "optimize={}\n{}",
                optimize,
                src
            );
        }
    }
}

/// One conditional assignment arm: (dst, src, literal).
type BranchArm = (usize, usize, i32);

/// Random branchy programs: chains of if/else over mutable variables,
/// checked against a host interpreter — exercises compare lowering,
/// predicate allocation and block layout.
#[derive(Debug, Clone)]
struct BranchyProgram {
    nvars: usize,
    /// (cond_a, cond_b, cond_kind, then arm, else arm)
    steps: Vec<(usize, usize, u8, BranchArm, BranchArm)>,
    print_var: usize,
}

impl BranchyProgram {
    fn eval(&self) -> i64 {
        let mut vars = vec![0i32; self.nvars];
        for (i, v) in vars.iter_mut().enumerate() {
            *v = (i as i32).wrapping_mul(7) - 3;
        }
        for &(a, b, k, (td, ts, tl), (ed, es, el)) in &self.steps {
            let taken = match k % 4 {
                0 => vars[a] < vars[b],
                1 => vars[a] == vars[b],
                2 => vars[a] >= vars[b],
                _ => vars[a] != vars[b],
            };
            if taken {
                vars[td] = vars[ts].wrapping_add(tl);
            } else {
                vars[ed] = vars[es].wrapping_sub(el);
            }
        }
        vars[self.print_var] as i64
    }

    fn to_tink(&self) -> String {
        let mut s = String::from("fn main() {\n");
        for i in 0..self.nvars {
            s.push_str(&format!(
                "    var v{i} = {};\n",
                (i as i32).wrapping_mul(7) - 3
            ));
        }
        for &(a, b, k, (td, ts, tl), (ed, es, el)) in &self.steps {
            let op = match k % 4 {
                0 => "<",
                1 => "==",
                2 => ">=",
                _ => "!=",
            };
            s.push_str(&format!(
                "    if (v{a} {op} v{b}) {{ v{td} = v{ts} + ({tl}); }} else {{ v{ed} = v{es} - ({el}); }}\n"
            ));
        }
        s.push_str(&format!("    print(v{});\n}}\n", self.print_var));
        s
    }
}

fn branchy_program() -> impl Strategy<Value = BranchyProgram> {
    (3usize..12).prop_flat_map(|nvars| {
        (
            prop::collection::vec(
                (
                    0..nvars,
                    0..nvars,
                    any::<u8>(),
                    (0..nvars, 0..nvars, -100i32..100),
                    (0..nvars, 0..nvars, -100i32..100),
                ),
                1..25,
            ),
            0..nvars,
        )
            .prop_map(move |(steps, print_var)| BranchyProgram {
                nvars,
                steps,
                print_var,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Branch-dense programs compute exactly what the host computes,
    /// optimized or not.
    #[test]
    fn branchy_control_flow_preserves_semantics(bp in branchy_program()) {
        let expected = bp.eval();
        let src = bp.to_tink();
        for optimize in [true, false] {
            let opts = lego::Options { optimize, ..lego::Options::default() };
            let p = lego::compile(&src, &opts).unwrap();
            let r = Emulator::new(&p).run(&Limits::default()).unwrap();
            prop_assert_eq!(
                r.output.trim().parse::<i64>().unwrap(),
                expected,
                "optimize={}\n{}",
                optimize,
                src
            );
        }
    }
}

// ---- Whole-block and whole-image decode (DESIGN.md §15) ----

use tepic_ccc::huffman::{DecodeCounters, DecodeError, LutDecoder};

/// Decodes `n` symbols from `start` three ways and asserts they agree:
/// the whole-block `decode_n_counted` that every single-table codec
/// decodes a block with, a per-symbol `decode_counted` loop, and the
/// bit-serial `CanonicalDecoder::decode_n`. Same symbols or the same
/// error variant at the same bit, the same final cursor, and (for the
/// two counted paths) the same `DecodeCounters` totals. `lut_bits`
/// below the book's longest code sends codewords to the `Long`
/// fallback. Returns the whole-block result.
fn assert_decode_n_agrees(
    book: &CodeBook,
    lut_bits: u32,
    bytes: &[u8],
    start: u64,
    n: usize,
) -> Result<Vec<u32>, DecodeError> {
    let lut = LutDecoder::with_lut_bits(book, lut_bits);
    let mut block_counts = DecodeCounters::default();
    let mut block_r = BitReader::at_bit(bytes, start);
    let block = lut.decode_n_counted(&mut block_r, n, &mut block_counts);

    let mut seq_counts = DecodeCounters::default();
    let mut seq_r = BitReader::at_bit(bytes, start);
    let seq = (0..n)
        .map(|_| lut.decode_counted(&mut seq_r, &mut seq_counts))
        .collect::<Result<Vec<u32>, DecodeError>>();
    assert_eq!(block, seq, "whole-block decode diverged from per-symbol");
    assert_eq!(block_r.bit_pos(), seq_r.bit_pos(), "cursor drift");
    assert_eq!(block_counts, seq_counts, "counter totals diverge");

    let mut ref_r = BitReader::at_bit(bytes, start);
    let reference = book.decoder().decode_n(&mut ref_r, n);
    assert_eq!(
        block, reference,
        "whole-block decode diverged from reference"
    );
    assert_eq!(
        block_r.bit_pos(),
        ref_r.bit_pos(),
        "cursor drift vs reference"
    );
    block
}

/// `n` symbols drawn from `book`'s alphabet by an LCG seeded with
/// `seed`, and their encoding.
fn encode_lcg(book: &CodeBook, alphabet: usize, seed: u64, n: usize) -> (Vec<u32>, Vec<u8>) {
    let mut x = seed | 1;
    let mut w = BitWriter::new();
    let msg: Vec<u32> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = ((x >> 33) % alphabet as u64) as u32;
            book.encode_into(s, &mut w);
            s
        })
        .collect();
    (msg, w.into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid streams decode back to their message, identically on all
    /// three paths.
    #[test]
    fn decode_n_matches_per_symbol_decode_on_valid_streams(
        freqs in prop::collection::vec(1u64..500, 2..24),
        lut_bits in 1u32..12,
        seed in any::<u64>(),
        n in 0usize..200,
    ) {
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let (msg, bytes) = encode_lcg(&book, freqs.len(), seed, n);
        let got = assert_decode_n_agrees(&book, lut_bits, &bytes, 0, n);
        prop_assert_eq!(got, Ok(msg));
    }

    /// Garbage bytes, arbitrary start offsets and over-asked symbol
    /// counts: the same error variant at the same bit on all three
    /// paths, and the same counter totals up to it.
    #[test]
    fn decode_n_matches_per_symbol_decode_on_garbage(
        freqs in prop::collection::vec(1u64..500, 2..24),
        lut_bits in 1u32..12,
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        start in 0u64..8,
        ask in 0usize..300,
    ) {
        let book = CodeBook::from_freqs(&freqs).unwrap();
        for (from, want) in [(start, ask), (0, ask / 2)] {
            if let Ok(syms) = assert_decode_n_agrees(&book, lut_bits, &bytes, from, want) {
                prop_assert_eq!(syms.len(), want);
            }
        }
    }

    /// Valid streams truncated mid-codeword and over-asked fail with the
    /// same `UnexpectedEos`/`InvalidCode` positions on all three paths.
    #[test]
    fn decode_n_matches_per_symbol_decode_on_truncated_streams(
        freqs in prop::collection::vec(1u64..500, 2..24),
        lut_bits in 1u32..12,
        seed in any::<u64>(),
        n in 1usize..150,
        cut_pct in 0u32..=100,
        extra in 0usize..8,
    ) {
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let (msg, mut bytes) = encode_lcg(&book, freqs.len(), seed, n);
        bytes.truncate(bytes.len() * cut_pct as usize / 100);
        // The cut stream is a prefix of the whole one, so a decode that
        // succeeds on it starts with the message.
        if let Ok(syms) = assert_decode_n_agrees(&book, lut_bits, &bytes, 0, n + extra) {
            prop_assert_eq!(&syms[..n], &msg[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole-image batch decode under armed `decode.lut` failpoint
    /// schedules: every fired injection is healed through the
    /// bit-serial reference (counted in `reference_fallbacks`), and the
    /// healed output is bit-identical to an uninjected run.
    #[test]
    fn batch_decode_heals_armed_lut_failpoints(
        p in small_program(),
        prob in prop::sample::select(vec![0.0, 0.3, 1.0]),
        seed in any::<u64>(),
    ) {
        use tepic_ccc::ccc::failpoint::{sites, FailMode, Failpoints};
        use tepic_ccc::fetch::batch_decode_image;
        for scheme in standard_schemes() {
            let out = match scheme.compress(&p) {
                Ok(o) => o,
                Err(_) => continue,
            };
            let (clean, cs) = batch_decode_image(&p, &out.image, out.codec.as_ref(), None);
            prop_assert_eq!(cs.reference_fallbacks, 0);
            prop_assert_eq!(cs.decode_errors, 0);
            let fp =
                Failpoints::from_spec(&format!("decode.lut:{prob}:error"), seed).unwrap();
            let (healed, hs) =
                batch_decode_image(&p, &out.image, out.codec.as_ref(), Some(&fp));
            prop_assert_eq!(&healed, &clean, "healing changed decoded output");
            prop_assert_eq!(hs.decode_errors, 0);
            prop_assert_eq!(
                hs.reference_fallbacks,
                fp.fired(sites::DECODE_LUT, FailMode::Error),
                "every fired decode.lut injection must be one reference rescue"
            );
            if prob == 1.0 {
                prop_assert_eq!(hs.reference_fallbacks, p.num_blocks() as u64);
            }
        }
    }
}
