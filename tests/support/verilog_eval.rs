//! A test-side evaluator for the Verilog subset that
//! `emit_tailored_decoder_verilog` prints: the `opsel` wire, function case
//! tables, and the case arms of the `always` block with their slice
//! assignments (a slice of `tailored_op`, a sign-extending concatenation,
//! a function call or a constant) and their `op_bad` range checks. No
//! Verilog simulator is needed to check that the module expands a
//! tailored op into its TEPIC word, and flags the ops `expand` rejects.

use std::collections::HashMap;
use tepic_ccc::ccc::pla::emit_tailored_decoder_verilog;
use tepic_ccc::ccc::schemes::tailored::{TailoredScheme, TailoredSpec};
use tepic_ccc::ccc::schemes::{BlockDecodeError, Scheme};
use tepic_ccc::huffman::BitReader;
use tepic_ccc::isa::Program;

/// `[hi:lo]` of a bit vector.
type Slice = (u32, u32);

enum Expr {
    Const(u64),
    Bits(Slice),
    /// `{{k{tailored_op[sign]}}, tailored_op[slice]}`.
    SignExtend(u32, u32, Slice),
    Call(String, Slice),
}

/// One case arm: the `word` assignments, the `op_bad` terms (a slice of
/// `tailored_op` at or above a bound; none is `1'b0`) and `op_len`.
#[derive(Default)]
struct Arm {
    stmts: Vec<(Slice, Expr)>,
    bad: Vec<(Slice, u64)>,
    op_len: u64,
}

struct Module {
    opsel: Option<Slice>,
    functions: HashMap<String, HashMap<u64, u64>>,
    arms: HashMap<u64, Arm>,
}

/// What the module drives for one input.
#[derive(Debug, PartialEq, Eq)]
struct Out {
    word: u64,
    op_len: u64,
    op_bad: bool,
}

/// A sized literal: `5'd17`, `40'h2c`, `1'b0`.
fn literal(s: &str) -> u64 {
    let (_, v) = s
        .split_once('\'')
        .unwrap_or_else(|| panic!("not a literal: {s}"));
    let radix = match &v[..1] {
        "d" => 10,
        "h" => 16,
        "b" => 2,
        _ => panic!("unknown radix in {s}"),
    };
    u64::from_str_radix(&v[1..], radix).unwrap()
}

/// `name[hi:lo]` or `name[i]` → `(hi, lo)`.
fn slice(s: &str, name: &str) -> Slice {
    let inner = s
        .strip_prefix(name)
        .and_then(|r| r.strip_prefix('['))
        .and_then(|r| r.strip_suffix(']'))
        .unwrap_or_else(|| panic!("not a slice of {name}: {s}"));
    match inner.split_once(':') {
        Some((hi, lo)) => (hi.parse().unwrap(), lo.parse().unwrap()),
        None => (inner.parse().unwrap(), inner.parse().unwrap()),
    }
}

fn expr(s: &str) -> Expr {
    if let Some(rest) = s.strip_prefix("{{") {
        let (k, rest) = rest.split_once('{').unwrap();
        let (sign, rest) = rest.split_once("}}, ").unwrap();
        let (_, lo) = slice(sign, "tailored_op");
        Expr::SignExtend(
            k.parse().unwrap(),
            lo,
            slice(rest.strip_suffix('}').unwrap(), "tailored_op"),
        )
    } else if let Some((name, arg)) = s.split_once('(') {
        Expr::Call(
            name.to_string(),
            slice(arg.strip_suffix(')').unwrap(), "tailored_op"),
        )
    } else if s.starts_with("tailored_op") {
        Expr::Bits(slice(s, "tailored_op"))
    } else {
        Expr::Const(literal(s))
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

fn bits(x: u64, (hi, lo): Slice) -> u64 {
    (x >> lo) & mask(hi - lo + 1)
}

impl Module {
    fn parse(text: &str) -> Module {
        let mut m = Module {
            opsel: None,
            functions: HashMap::new(),
            arms: HashMap::new(),
        };
        let mut function = None;
        let mut arm: Option<(u64, Arm)> = None;
        for line in text.lines().map(str::trim) {
            if let Some(rhs) = line
                .strip_prefix("wire ")
                .and_then(|l| l.split_once("opsel = "))
            {
                let rhs = rhs.1.split(';').next().unwrap();
                m.opsel = rhs
                    .starts_with("tailored_op")
                    .then(|| slice(rhs, "tailored_op"));
            } else if let Some(rest) = line.strip_prefix("function ") {
                let name = rest.split_once("] ").unwrap().1.trim_end_matches(';');
                function = Some(name.to_string());
            } else if line == "endfunction" {
                function = None;
            } else if let (Some(f), Some((key, value))) = (&function, line.split_once(": ")) {
                if key != "default" {
                    let value = value.split_once(" = ").unwrap().1.trim_end_matches(';');
                    let table = m.functions.entry(f.clone()).or_default();
                    table.insert(literal(key), literal(value));
                }
            } else if let Some((code, _)) = line.split_once(": begin // opt=") {
                arm = Some((literal(code), Arm::default()));
            } else if let (Some((_, a)), Some((lhs, rhs))) = (&mut arm, line.split_once(" = ")) {
                let rhs = rhs.split(';').next().unwrap();
                if lhs == "op_len" {
                    let (code, mut a) = arm.take().unwrap();
                    a.op_len = literal(rhs);
                    m.arms.insert(code, a);
                } else if lhs == "op_bad" {
                    if rhs != "1'b0" {
                        a.bad = rhs.split(" | ").map(bad_term).collect();
                    }
                } else if lhs == "word" {
                    a.stmts.push(((39, 0), expr(rhs)));
                } else {
                    a.stmts.push((slice(lhs, "word"), expr(rhs)));
                }
            }
        }
        m
    }

    /// The outputs for a tailored op left-aligned in `x`.
    fn eval(&self, x: u64) -> Out {
        let opsel = self.opsel.map_or(0, |s| bits(x, s));
        let Some(arm) = self.arms.get(&opsel) else {
            // The `default` arm.
            return Out {
                word: 0,
                op_len: 0,
                op_bad: true,
            };
        };
        let mut word = 0u64;
        for &((hi, lo), ref e) in &arm.stmts {
            let value = match e {
                Expr::Const(v) => *v,
                Expr::Bits(s) => bits(x, *s),
                Expr::SignExtend(k, sign, s) => {
                    let ones = if bits(x, (*sign, *sign)) == 1 {
                        mask(*k)
                    } else {
                        0
                    };
                    ones << (s.0 - s.1 + 1) | bits(x, *s)
                }
                Expr::Call(f, s) => self.functions[f].get(&bits(x, *s)).copied().unwrap_or(0),
            };
            let m = mask(hi - lo + 1);
            word = word & !(m << lo) | (value & m) << lo;
        }
        Out {
            word,
            op_len: arm.op_len,
            op_bad: arm.bad.iter().any(|&(s, bound)| bits(x, s) >= bound),
        }
    }
}

/// `(tailored_op[hi:lo] >= N'dB)` → `((hi, lo), B)`.
fn bad_term(s: &str) -> (Slice, u64) {
    let inner = s
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .unwrap_or_else(|| panic!("not a range check: {s}"));
    let (field, bound) = inner.split_once(" >= ").unwrap();
    (slice(field, "tailored_op"), literal(bound))
}

/// What `spec.expand` makes of the tailored op left-aligned in `x`, as
/// the module should drive it; `None` when `expand` runs out of bits.
fn expanded(spec: &TailoredSpec, x: u64) -> Option<Out> {
    let bytes = x.to_be_bytes();
    let mut r = BitReader::at_bit(&bytes, 0);
    match spec.expand(&mut r) {
        Ok(word) => Some(Out {
            word,
            op_len: r.bit_pos(),
            op_bad: false,
        }),
        Err(BlockDecodeError::BadValue { .. }) => Some(Out {
            word: 0,
            op_len: 0,
            op_bad: true,
        }),
        Err(_) => None,
    }
}

/// Runs the emitted decoder module over every op of `program`'s tailored
/// image: each op, left-aligned with whatever bits follow it, must give
/// `word == op.encode()`, `op_len == spec.op_bits(op)` and no `op_bad`.
/// Then each op with one of its bits flipped must give what `expand`
/// gives: the same word and length, or `op_bad` exactly where `expand`
/// reports a bad value. Returns how many corrupted ops were bad.
pub fn check_tailored_verilog(program: &Program) -> Result<usize, String> {
    let spec = TailoredSpec::compute(program);
    let module = Module::parse(&emit_tailored_decoder_verilog(&spec, "d"));
    let image = TailoredScheme
        .compress(program)
        .map_err(|e| e.to_string())?
        .image;
    let mut bad_ops = 0;
    for b in 0..program.num_blocks() {
        let mut at = image.block_start[b] * 8;
        for op in program.block_ops(b) {
            let mut r = BitReader::at_bit(&image.bytes, at);
            let n = r.remaining().min(64) as u32;
            let x = r.read_bits(n).unwrap() << (64 - n);
            let want = Out {
                word: op.encode(),
                op_len: u64::from(spec.op_bits(op)),
                op_bad: false,
            };
            if module.eval(x) != want {
                return Err(format!(
                    "block {b}, {op:?}: module gives {:#x?}, want {want:#x?}",
                    module.eval(x)
                ));
            }
            for i in 0..want.op_len {
                let bad = x ^ (1 << (63 - i));
                let Some(want) = expanded(&spec, bad) else {
                    continue;
                };
                let mut got = module.eval(bad);
                if got.op_bad {
                    // Word and length are don't-cares on a bad op.
                    (got.word, got.op_len) = (0, 0);
                }
                if got != want {
                    return Err(format!(
                        "block {b}, {op:?} with bit {i} flipped: module gives {got:#x?}, \
                         expand {want:#x?}"
                    ));
                }
                bad_ops += usize::from(want.op_bad);
            }
            at += want.op_len;
        }
    }
    Ok(bad_ops)
}
