// generated by hir-codegen from hir.func @stencil_1d
module hir_stencil_1d(clk, start, Ai_addr, Ai_rd_en, Ai_rd_data, Bw_waddr, Bw_wr_en, Bw_wr_data, busy);
  input clk;
  input start;
  output [5:0] Ai_addr;
  output Ai_rd_en;
  input [31:0] Ai_rd_data;
  output [5:0] Bw_waddr;
  output Bw_wr_en;
  output [31:0] Bw_wr_data;
  output busy;
  reg [31:0] dly_0_0 = 32'd0;
  reg start_p1 = 1'd0;
  reg start_p2 = 1'd0;
  reg start_p3 = 1'd0;
  reg [6:0] loop_1_iv = 7'd0;
  wire loop_1_again;
  wire [6:0] loop_1_cand;
  wire loop_1_guard;
  wire loop_1_iter;
  wire loop_1_done;
  wire [6:0] loop_1_i;
  reg loop_1_iter_p1 = 1'd0;
  wire [31:0] m4_0_b0_rdata;
  wire [31:0] m4_0_b1_rdata;
  wire [31:0] v_2;
  wire [31:0] v_3;
  wire [31:0] v_4;
  wire [31:0] v_5;
  reg [6:0] dly_6_0 = 7'd0;
  reg loop_1_done_p1 = 1'd0;
  (* ram_style = "reg" *)
  reg [31:0] m4_b0 [0:0];
  (* ram_style = "reg" *)
  reg [31:0] m4_b1 [0:0];
  assign loop_1_cand = (start_p3 ? 7'd1 : (loop_1_iv + 7'd1));
  assign loop_1_guard = ($signed(loop_1_cand) < $signed(7'd63));
  // loop iteration pulse for hir.for
  assign loop_1_iter = ((start_p3 | loop_1_again) & loop_1_guard);
  assign loop_1_done = ((start_p3 | loop_1_again) & ~(loop_1_guard));
  assign loop_1_i = (loop_1_iter ? loop_1_cand : loop_1_iv);
  // hir.add
  assign v_2 = ({{25{loop_1_i[6]}}, loop_1_i} + 32'd1);
  // hir.shl
  assign v_3 = (m4_0_b1_rdata << 32'd1);
  // hir.add
  assign v_4 = (m4_0_b0_rdata + v_3);
  // hir.add
  assign v_5 = (v_4 + Ai_rd_data);
  assign loop_1_again = loop_1_iter_p1;
  assign Ai_addr = (start ? 6'd0 : (start_p1 ? 6'd1 : (loop_1_iter ? v_2[5:0] : (loop_1_done ? 6'd63 : 6'd0))));
  assign Ai_rd_en = (((start | start_p1) | loop_1_iter) | loop_1_done);
  assign Bw_waddr = (start_p2 ? 6'd0 : (loop_1_iter_p1 ? dly_6_0[5:0] : (loop_1_done_p1 ? 6'd63 : 6'd0)));
  assign Bw_wr_en = ((start_p2 | loop_1_iter_p1) | loop_1_done_p1);
  assign Bw_wr_data = (start_p2 ? dly_0_0 : (loop_1_iter_p1 ? v_5 : (loop_1_done_p1 ? Ai_rd_data : 32'd0)));
  assign m4_0_b0_rdata = m4_b0[(loop_1_iter_p1 ? 1'd0 : 1'd0)];
  assign m4_0_b1_rdata = m4_b1[(loop_1_iter_p1 ? 1'd0 : 1'd0)];
  assign busy = (((((((start | start_p1) | start_p2) | start_p3) | loop_1_iter) | loop_1_done) | loop_1_iter_p1) | loop_1_done_p1);
  always @(posedge clk) begin
    dly_0_0 <= Ai_rd_data;
    start_p1 <= start;
    start_p2 <= start_p1;
    start_p3 <= start_p2;
    if (loop_1_iter) begin
      loop_1_iv <= loop_1_cand;
    end
    loop_1_iter_p1 <= loop_1_iter;
    // synthesis translate_off
    if ((loop_1_iter) && !((v_2 < 32'd64))) $error("index out of bounds at hir.mem_read");
    // synthesis translate_on
    dly_6_0 <= loop_1_i;
    // synthesis translate_off
    if ((loop_1_iter_p1) && !(({1'd0, dly_6_0} < 8'd64))) $error("index out of bounds at hir.mem_write");
    // synthesis translate_on
    loop_1_done_p1 <= loop_1_done;
    // synthesis translate_off
    if (((start & start_p1)) && !((6'd0 == 6'd1))) $error("memory port conflict between hir.mem_read and hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if (((start & loop_1_iter)) && !((6'd0 == v_2[5:0]))) $error("memory port conflict between hir.mem_read and hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if (((start & loop_1_done)) && !((6'd0 == 6'd63))) $error("memory port conflict between hir.mem_read and hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if (((start_p1 & loop_1_iter)) && !((6'd1 == v_2[5:0]))) $error("memory port conflict between hir.mem_read and hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if (((start_p1 & loop_1_done)) && !((6'd1 == 6'd63))) $error("memory port conflict between hir.mem_read and hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if (((loop_1_iter & loop_1_done)) && !((v_2[5:0] == 6'd63))) $error("memory port conflict between hir.mem_read and hir.mem_read");
    // synthesis translate_on
    // synthesis translate_off
    if (((start_p2 & loop_1_iter_p1)) && !((6'd0 == dly_6_0[5:0]))) $error("memory port conflict between hir.mem_write and hir.mem_write");
    // synthesis translate_on
    // synthesis translate_off
    if (((start_p2 & loop_1_done_p1)) && !((6'd0 == 6'd63))) $error("memory port conflict between hir.mem_write and hir.mem_write");
    // synthesis translate_on
    // synthesis translate_off
    if (((loop_1_iter_p1 & loop_1_done_p1)) && !((dly_6_0[5:0] == 6'd63))) $error("memory port conflict between hir.mem_write and hir.mem_write");
    // synthesis translate_on
    if ((start_p2 | loop_1_iter_p1)) begin
      m4_b0[(start_p2 ? 1'd0 : (loop_1_iter_p1 ? 1'd0 : 1'd0))] <= (start_p2 ? dly_0_0 : (loop_1_iter_p1 ? m4_0_b1_rdata : 32'd0));
    end
    if ((start_p2 | loop_1_iter_p1)) begin
      m4_b1[(start_p2 ? 1'd0 : (loop_1_iter_p1 ? 1'd0 : 1'd0))] <= (start_p2 ? Ai_rd_data : (loop_1_iter_p1 ? Ai_rd_data : 32'd0));
    end
  end
endmodule
