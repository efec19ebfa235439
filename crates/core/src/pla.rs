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
//!   operation back into the baseline 40-bit control word — field
//!   re-widening, dense-code inverse mapping and opcode dispatch.

use crate::encoded::DecoderCost;
use crate::schemes::tailored::TailoredSpec;
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
/// ASIC flow.
pub fn emit_tailored_decoder_verilog(spec: &TailoredSpec, module_name: &str) -> String {
    let mut v = String::new();
    let hw = spec.header_width();
    let _ = writeln!(v, "// Auto-generated tailored-ISA decoder.");
    let _ = writeln!(
        v,
        "// header: tail(1){} opsel({}) | pred({}) | payload",
        if spec.spec_used { " spec(1)" } else { "" },
        spec.opsel.width(),
        spec.pr.width()
    );
    let _ = writeln!(v, "module {module_name} (");
    let _ = writeln!(v, "    input  wire [63:0] tailored_op,");
    let _ = writeln!(v, "    output reg  [39:0] word,");
    let _ = writeln!(v, "    output reg  [5:0]  op_len");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  wire tail = tailored_op[63];");
    let opw = spec.opsel.width();
    if opw > 0 {
        let hi = 63 - spec.spec_used as u32 - 1;
        let lo = hi + 1 - opw;
        let _ = writeln!(v, "  wire [{}:0] opsel = tailored_op[{hi}:{lo}];", opw - 1);
    } else {
        let _ = writeln!(v, "  wire [0:0] opsel = 1'b0; // single opcode program");
    }

    // Inverse maps as functions.
    emit_inverse_map(&mut v, "gpr_decode", spec.gpr.values(), 5);
    emit_inverse_map(&mut v, "fpr_decode", spec.fpr.values(), 5);
    emit_inverse_map(&mut v, "pr_decode", spec.pr.values(), 5);
    emit_inverse_map(&mut v, "opsel_decode", spec.opsel.values(), 7);

    let _ = writeln!(v, "  always @* begin");
    let _ = writeln!(v, "    word = 40'd0;");
    let _ = writeln!(v, "    word[0] = tail;");
    let _ = writeln!(v, "    case (opsel)");
    let pw = spec.pr.width();
    let arms = spec.opsel.values().iter().zip(spec.opsel_bits());
    for (dense, (&orig, len)) in arms.enumerate() {
        let opt = orig / 32;
        let opc = orig % 32;
        let _ = writeln!(v, "      {opw}'d{dense}: begin // opt={opt} opcode={opc}");
        let _ = writeln!(v, "        word[3:2] = 2'd{opt};");
        let _ = writeln!(v, "        word[8:4] = 5'd{opc};");
        let _ = writeln!(
            v,
            "        op_len = 6'd{len}; // header {hw} + pred {pw} + payload {}",
            len - hw - pw
        );
        let _ = writeln!(v, "      end");
    }
    let _ = writeln!(v, "      default: begin word = 40'd0; op_len = 6'd0; end");
    let _ = writeln!(v, "    endcase");
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "endmodule");
    v
}

fn emit_inverse_map(v: &mut String, name: &str, values: &[u32], out_bits: u32) {
    let in_bits = if values.len() <= 1 {
        1
    } else {
        (usize::BITS - (values.len() - 1).leading_zeros()).max(1)
    };
    let _ = writeln!(v, "  function [{}:0] {name};", out_bits - 1);
    let _ = writeln!(v, "    input [{}:0] dense;", in_bits - 1);
    let _ = writeln!(v, "    case (dense)");
    for (i, &orig) in values.iter().enumerate() {
        let _ = writeln!(v, "      {in_bits}'d{i}: {name} = {out_bits}'d{orig};");
    }
    let _ = writeln!(v, "      default: {name} = {out_bits}'d0;");
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
