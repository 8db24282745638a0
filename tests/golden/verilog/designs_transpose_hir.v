// generated by hir-codegen from hir.func @transpose
module hir_transpose(clk, start, Ai_addr, Ai_rd_en, Ai_rd_data, Co_waddr, Co_wr_en, Co_wr_data, busy);
  input clk;
  input start;
  output [7:0] Ai_addr;
  output Ai_rd_en;
  input [31:0] Ai_rd_data;
  output [7:0] Co_waddr;
  output Co_wr_en;
  output [31:0] Co_wr_data;
  output busy;
  reg start_p1 = 1'd0;
  reg [5:0] loop_0_iv = 6'd0;
  wire loop_0_again;
  wire [5:0] loop_0_cand;
  wire loop_0_guard;
  wire loop_0_iter;
  wire loop_0_done;
  wire [5:0] loop_0_i;
  reg loop_0_iter_p1 = 1'd0;
  reg [5:0] loop_1_iv = 6'd0;
  wire loop_1_again;
  wire [5:0] loop_1_cand;
  wire loop_1_guard;
  wire loop_1_iter;
  wire loop_1_done;
  wire [5:0] loop_1_i;
  reg [5:0] dly_2_0 = 6'd0;
  reg loop_1_iter_p1 = 1'd0;
  reg loop_1_done_p1 = 1'd0;
  assign loop_0_cand = (start_p1 ? 6'd0 : (loop_0_iv + 6'd1));
  assign loop_0_guard = ($signed(loop_0_cand) < $signed(6'd16));
  // loop iteration pulse for hir.for
  assign loop_0_iter = ((start_p1 | loop_0_again) & loop_0_guard);
  assign loop_0_done = ((start_p1 | loop_0_again) & ~(loop_0_guard));
  assign loop_0_i = (loop_0_iter ? loop_0_cand : loop_0_iv);
  assign loop_1_cand = (loop_0_iter_p1 ? 6'd0 : (loop_1_iv + 6'd1));
  assign loop_1_guard = ($signed(loop_1_cand) < $signed(6'd16));
  // loop iteration pulse for hir.for
  assign loop_1_iter = ((loop_0_iter_p1 | loop_1_again) & loop_1_guard);
  assign loop_1_done = ((loop_0_iter_p1 | loop_1_again) & ~(loop_1_guard));
  assign loop_1_i = (loop_1_iter ? loop_1_cand : loop_1_iv);
  assign loop_1_again = loop_1_iter_p1;
  assign loop_0_again = loop_1_done_p1;
  assign Ai_addr = (loop_1_iter ? (({2'd0, loop_0_i} * 8'd16) + {2'd0, loop_1_i}) : 8'd0);
  assign Ai_rd_en = loop_1_iter;
  assign Co_waddr = (loop_1_iter_p1 ? (({2'd0, dly_2_0} * 8'd16) + {2'd0, loop_0_i}) : 8'd0);
  assign Co_wr_en = loop_1_iter_p1;
  assign Co_wr_data = (loop_1_iter_p1 ? Ai_rd_data : 32'd0);
  assign busy = ((((((((start | start_p1) | loop_0_iter) | loop_0_done) | loop_0_iter_p1) | loop_1_iter) | loop_1_done) | loop_1_iter_p1) | loop_1_done_p1);
  always @(posedge clk) begin
    start_p1 <= start;
    if (loop_0_iter) begin
      loop_0_iv <= loop_0_cand;
    end
    loop_0_iter_p1 <= loop_0_iter;
    if (loop_1_iter) begin
      loop_1_iv <= loop_1_cand;
    end
    // synthesis translate_off
    if ((loop_1_iter) && !((loop_0_i < 6'd16))) $error("index out of bounds at hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if ((loop_1_iter) && !((loop_1_i < 6'd16))) $error("index out of bounds at hir.mem_read");
    // synthesis translate_on
    dly_2_0 <= loop_1_i;
    loop_1_iter_p1 <= loop_1_iter;
    // synthesis translate_off
    if ((loop_1_iter_p1) && !((dly_2_0 < 6'd16))) $error("index out of bounds at hir.mem_write");
    // synthesis translate_on
    // synthesis translate_off
    if ((loop_1_iter_p1) && !((loop_0_i < 6'd16))) $error("index out of bounds at hir.mem_write");
    // synthesis translate_on
    loop_1_done_p1 <= loop_1_done;
  end
endmodule
