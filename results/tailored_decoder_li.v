// Auto-generated tailored-ISA decoder.
// header: tail(1) opsel(5) | pred(1) | payload
module tepic_tailored_decoder (
    input  wire [63:0] tailored_op,
    output reg  [39:0] word,
    output reg  [5:0]  op_len,
    output reg         op_bad
);
  wire [4:0] opsel = tailored_op[62:58];
  function [4:0] pr_decode;
    input [0:0] dense;
    case (dense)
      1'd0: pr_decode = 5'd0;
      1'd1: pr_decode = 5'd1;
      default: pr_decode = 5'd0;
    endcase
  endfunction
  function [4:0] gpr_decode;
    input [4:0] dense;
    case (dense)
      5'd0: gpr_decode = 5'd0;
      5'd1: gpr_decode = 5'd1;
      5'd2: gpr_decode = 5'd2;
      5'd3: gpr_decode = 5'd3;
      5'd4: gpr_decode = 5'd8;
      5'd5: gpr_decode = 5'd9;
      5'd6: gpr_decode = 5'd10;
      5'd7: gpr_decode = 5'd11;
      5'd8: gpr_decode = 5'd12;
      5'd9: gpr_decode = 5'd13;
      5'd10: gpr_decode = 5'd14;
      5'd11: gpr_decode = 5'd15;
      5'd12: gpr_decode = 5'd16;
      5'd13: gpr_decode = 5'd17;
      5'd14: gpr_decode = 5'd18;
      5'd15: gpr_decode = 5'd19;
      5'd16: gpr_decode = 5'd20;
      5'd17: gpr_decode = 5'd21;
      5'd18: gpr_decode = 5'd22;
      5'd19: gpr_decode = 5'd23;
      5'd20: gpr_decode = 5'd24;
      5'd21: gpr_decode = 5'd26;
      5'd22: gpr_decode = 5'd29;
      5'd23: gpr_decode = 5'd30;
      5'd24: gpr_decode = 5'd31;
      default: gpr_decode = 5'd0;
    endcase
  endfunction
  function [2:0] cond_decode;
    input [0:0] dense;
    case (dense)
      1'd0: cond_decode = 3'd0;
      1'd1: cond_decode = 3'd2;
      default: cond_decode = 3'd0;
    endcase
  endfunction
  always @* begin
    case (opsel)
      5'd0: begin // opt=0 opcode=0
        word = 40'h0000000000;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd1: begin // opt=0 opcode=1
        word = 40'h0000000010;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd2: begin // opt=0 opcode=2
        word = 40'h0000000020;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd3: begin // opt=0 opcode=4
        word = 40'h0000000040;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd4: begin // opt=0 opcode=5
        word = 40'h0000000050;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd5: begin // opt=0 opcode=6
        word = 40'h0000000060;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd6: begin // opt=0 opcode=8
        word = 40'h0000000080;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd7: begin // opt=0 opcode=11
        word = 40'h00000000b0;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[33:29] = gpr_decode(tailored_op[46:42]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25) | (tailored_op[46:42] >= 5'd25);
        op_len = 6'd22; // header 6 + pred 1 + payload 15
      end
      5'd8: begin // opt=0 opcode=16
        word = 40'h0000000100;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[18:14] = gpr_decode(tailored_op[51:47]);
        word[23:21] = cond_decode(tailored_op[46]);
        word[33:29] = pr_decode(tailored_op[45]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25);
        op_len = 6'd19; // header 6 + pred 1 + payload 12
      end
      5'd9: begin // opt=0 opcode=17
        word = 40'h0000000110;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[28:9] = tailored_op[56:37];
        word[33:29] = gpr_decode(tailored_op[36:32]);
        op_bad = (tailored_op[36:32] >= 5'd25);
        op_len = 6'd32; // header 6 + pred 1 + payload 25
      end
      5'd10: begin // opt=0 opcode=18
        word = 40'h0000000120;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[28:9] = tailored_op[56:37];
        word[33:29] = gpr_decode(tailored_op[36:32]);
        op_bad = (tailored_op[36:32] >= 5'd25);
        op_len = 6'd32; // header 6 + pred 1 + payload 25
      end
      5'd11: begin // opt=2 opcode=0
        word = 40'h0000000008;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[15:14] = 2'd2;
        word[28:24] = 5'd2;
        word[33:29] = gpr_decode(tailored_op[51:47]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25);
        op_len = 6'd17; // header 6 + pred 1 + payload 10
      end
      5'd12: begin // opt=2 opcode=1
        word = 40'h0000000018;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        word[20:19] = 2'd2;
        word[18:14] = gpr_decode(tailored_op[51:47]);
        op_bad = (tailored_op[56:52] >= 5'd25) | (tailored_op[51:47] >= 5'd25);
        op_len = 6'd17; // header 6 + pred 1 + payload 10
      end
      5'd13: begin // opt=3 opcode=0
        word = 40'h000000000c;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[34:19] = tailored_op[56:50];
        op_bad = 1'b0;
        op_len = 6'd14; // header 6 + pred 1 + payload 7
      end
      5'd14: begin // opt=3 opcode=1
        word = 40'h000000001c;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[34:19] = tailored_op[56:50];
        word[18:14] = gpr_decode(tailored_op[49:45]);
        op_bad = (tailored_op[49:45] >= 5'd25);
        op_len = 6'd19; // header 6 + pred 1 + payload 12
      end
      5'd15: begin // opt=3 opcode=2
        word = 40'h000000002c;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[13:9] = gpr_decode(tailored_op[56:52]);
        op_bad = (tailored_op[56:52] >= 5'd25);
        op_len = 6'd12; // header 6 + pred 1 + payload 5
      end
      5'd16: begin // opt=3 opcode=3
        word = 40'h000000003c;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        op_bad = 1'b0;
        op_len = 6'd7; // header 6 + pred 1 + payload 0
      end
      5'd17: begin // opt=3 opcode=4
        word = 40'h000000004c;
        word[0] = tailored_op[63];
        word[1] = 1'd0;
        word[39:35] = pr_decode(tailored_op[57]);
        word[18:14] = 5'd1;
        word[13:9] = gpr_decode(tailored_op[56:52]);
        op_bad = (tailored_op[56:52] >= 5'd25);
        op_len = 6'd12; // header 6 + pred 1 + payload 5
      end
      default: begin word = 40'd0; op_len = 6'd0; op_bad = 1'b1; end
    endcase
  end
endmodule
