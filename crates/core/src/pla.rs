//! PLA decoder modelling and Verilog emission for tailored ISAs.
//!
//! The paper's system reprograms the core processor's PLA decoder with a
//! compiler-generated description ("the Verilog code for the decoder is
//! produced by the compiler and used to configure the PLA", §2.3). Two
//! artifacts reproduce that here:
//!
//! * a transistor-count cost model for a two-plane (AND/OR) PLA, used in
//!   the Figure-10 comparison against the Huffman tree decoders;
//! * a synthesizable-style Verilog generator that expands a tailored
//!   operation back into the baseline 40-bit control word — opcode
//!   dispatch, dense-code inverse mapping, sign extension and field
//!   re-widening. It prints the spec's placement table, the same table
//!   [`TailoredSpec::expand`] interprets, so the Verilog and the Rust
//!   decoder cannot disagree.

use crate::encoded::DecoderCost;
use crate::schemes::tailored::{Map, Remap, Row, TailoredSpec};
use std::fmt::Write as _;

/// Transistor estimate for a PLA with `inputs` input bits, `terms`
/// product terms and `outputs` output bits: the AND plane sees both
/// polarities of every input (2·i·t) and the OR plane one transistor per
/// (term, output) crosspoint (t·o).
pub fn pla_transistors(inputs: u32, terms: u32, outputs: u32) -> u128 {
    2 * inputs as u128 * terms as u128 + terms as u128 * outputs as u128
}

/// Decoder cost of a tailored ISA: a PLA dispatching on the dense
/// `(OPT, OPCODE)` selector with one product term per used operation
/// kind, producing the 40-bit internal control word plus a length code
/// (so the fetch path knows the op size without a search).
pub fn tailored_decoder_cost(spec: &TailoredSpec) -> DecoderCost {
    let inputs = spec.header_width().max(1);
    let terms = spec.opsel.len().max(1) as u32;
    // 40 control bits + ⌈log2(40)⌉ length bits.
    let outputs = 40 + 6;
    DecoderCost::Pla {
        inputs,
        terms,
        outputs,
    }
}

/// Emits a Verilog module that maps one tailored operation (left-aligned
/// in `tailored_op`) to the original 40-bit TEPIC word and its bit
/// length. This mirrors the artifact the paper's compiler hands to the
/// ASIC flow. Each case arm prints one opsel code's placement row by
/// row, as [`TailoredSpec::expand`] interprets it: the constant word,
/// then each field's slice of `tailored_op` through its inverse map
/// (sign-extended for the immediate, a constant when 0 bits wide).
/// `op_bad` is set exactly where `expand` reports a
/// [`BadValue`](crate::schemes::BlockDecodeError::BadValue): for an
/// unused opsel code, and for a field code at or past the end of its
/// map's table (the map itself decodes such a code to 0).
pub fn emit_tailored_decoder_verilog(spec: &TailoredSpec, module_name: &str) -> String {
    let mut v = String::new();
    let hw = spec.header_width();
    let pw = spec.pr.width();
    let opw = spec.opsel.width();
    let _ = writeln!(v, "// Auto-generated tailored-ISA decoder.");
    let _ = writeln!(
        v,
        "// header: tail(1){} opsel({opw}) | pred({pw}) | payload",
        if spec.spec_used { " spec(1)" } else { "" },
    );
    let _ = writeln!(v, "module {module_name} (");
    let _ = writeln!(v, "    input  wire [63:0] tailored_op,");
    let _ = writeln!(v, "    output reg  [39:0] word,");
    let _ = writeln!(v, "    output reg  [5:0]  op_len,");
    let _ = writeln!(v, "    output reg         op_bad");
    let _ = writeln!(v, ");");
    if opw > 0 {
        let hi = 63 - (hw - opw);
        let opsel = slice("tailored_op", hi, opw);
        let _ = writeln!(v, "  wire [{}:0] opsel = {opsel};", opw - 1);
    } else {
        let _ = writeln!(v, "  wire [0:0] opsel = 1'b0; // single opcode program");
    }

    // The inverse map of every table a row reads, in first-use order.
    let mut mapped = Vec::new();
    for row in spec.placements().iter().flat_map(|p| &p.rows) {
        if let Map::Table(t, _) = row.map {
            if row.width > 0 && !mapped.contains(&t) {
                mapped.push(t);
                emit_inverse_map(&mut v, t.name(), spec.table(t), row.at.width);
            }
        }
    }

    let _ = writeln!(v, "  always @* begin");
    let _ = writeln!(v, "    case (opsel)");
    let arms = spec.opsel.values().iter().zip(spec.placements());
    for (dense, (&key, placement)) in arms.enumerate() {
        let _ = writeln!(
            v,
            "      {}'d{dense}: begin // opt={} opcode={}",
            opw.max(1),
            key / 32,
            key % 32
        );
        let _ = writeln!(v, "        word = 40'h{:010x};", placement.base);
        // `next` is one above the next unread bit of `tailored_op`.
        let mut next = 64;
        for row in &spec.head() {
            emit_row(&mut v, spec, row, &mut next);
        }
        next -= opw;
        let bad: Vec<String> = placement
            .rows
            .iter()
            .filter_map(|row| emit_row(&mut v, spec, row, &mut next))
            .collect();
        let bad = if bad.is_empty() {
            "1'b0".to_string()
        } else {
            bad.join(" | ")
        };
        let _ = writeln!(v, "        op_bad = {bad};");
        let len = 64 - next;
        let _ = writeln!(
            v,
            "        op_len = 6'd{len}; // header {hw} + pred {pw} + payload {}",
            len - hw - pw
        );
        let _ = writeln!(v, "      end");
    }
    let _ = writeln!(
        v,
        "      default: begin word = 40'd0; op_len = 6'd0; op_bad = 1'b1; end"
    );
    let _ = writeln!(v, "    endcase");
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "endmodule");
    v
}

/// `name[hi:lo]` for the `width` bits down from `hi` (`name[hi]` for one).
fn slice(name: &str, hi: u32, width: u32) -> String {
    if width == 1 {
        format!("{name}[{hi}]")
    } else {
        format!("{name}[{hi}:{}]", hi + 1 - width)
    }
}

/// Prints one row's assignment into its TEPIC range of `word`; returns
/// the condition under which the row's code falls outside its table,
/// if it can.
fn emit_row(v: &mut String, spec: &TailoredSpec, row: &Row, next: &mut u32) -> Option<String> {
    let tw = row.at.width;
    let dst = slice("word", row.at.off + tw - 1, tw);
    let mut bad = None;
    let rhs = if row.width == 0 {
        format!("{tw}'d{}", spec.value(row, 0).unwrap_or(0))
    } else {
        let src = slice("tailored_op", *next - 1, row.width);
        match row.map {
            Map::Raw => src,
            Map::SignExtend if row.width < tw => {
                let sign = slice("tailored_op", *next - 1, 1);
                format!("{{{{{}{{{sign}}}}}, {src}}}", tw - row.width)
            }
            Map::SignExtend => src,
            Map::Table(t, _) => {
                let len = spec.table(t).len();
                if len < 1 << row.width {
                    bad = Some(format!("({src} >= {}'d{len})", row.width));
                }
                format!("{}_decode({src})", t.name())
            }
        }
    };
    *next -= row.width;
    let _ = writeln!(v, "        {dst} = {rhs};");
    bad
}

fn emit_inverse_map(v: &mut String, name: &str, table: &Remap, out_bits: u32) {
    let in_bits = table.width();
    let _ = writeln!(v, "  function [{}:0] {name}_decode;", out_bits - 1);
    let _ = writeln!(v, "    input [{}:0] dense;", in_bits - 1);
    let _ = writeln!(v, "    case (dense)");
    for (i, &orig) in table.values().iter().enumerate() {
        let _ = writeln!(
            v,
            "      {in_bits}'d{i}: {name}_decode = {out_bits}'d{orig};"
        );
    }
    let _ = writeln!(v, "      default: {name}_decode = {out_bits}'d0;");
    let _ = writeln!(v, "    endcase");
    let _ = writeln!(v, "  endfunction");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::tailored::TailoredSpec;
    use crate::schemes::testutil::sample_program;

    #[test]
    fn pla_formula() {
        // 10 inputs, 20 terms, 46 outputs: 2*10*20 + 20*46 = 400 + 920.
        assert_eq!(pla_transistors(10, 20, 46), 1320);
        assert_eq!(pla_transistors(0, 0, 0), 0);
    }

    #[test]
    fn tailored_cost_is_orders_below_full_huffman() {
        let p = sample_program();
        let spec = TailoredSpec::compute(&p);
        let cost = tailored_decoder_cost(&spec);
        // A few thousand transistors, not millions.
        assert!(cost.transistors() > 0);
        assert!(
            cost.transistors() < 100_000,
            "PLA too big: {}",
            cost.transistors()
        );
    }

    #[test]
    fn verilog_contains_module_and_case_arms() {
        let p = sample_program();
        let spec = TailoredSpec::compute(&p);
        let v = emit_tailored_decoder_verilog(&spec, "tepic_tailored_decoder");
        assert!(v.contains("module tepic_tailored_decoder"));
        assert!(v.contains("endmodule"));
        assert!(v.contains("case (opsel)"));
        assert!(v.contains("function [4:0] gpr_decode"));
        // One case arm per used (opt, opcode).
        let arms = v.matches("// opt=").count();
        assert_eq!(arms, spec.opsel.len());
    }

    #[test]
    fn verilog_is_deterministic() {
        let p = sample_program();
        let spec = TailoredSpec::compute(&p);
        let a = emit_tailored_decoder_verilog(&spec, "d");
        let b = emit_tailored_decoder_verilog(&spec, "d");
        assert_eq!(a, b);
    }
}
