// generated by hir-codegen from hir.func @mac0
module hir_mac0(clk, start, a, b, c, result0, result0_valid, busy);
  input clk;
  input start;
  input [31:0] a;
  input [31:0] b;
  input [31:0] c;
  output [31:0] result0;
  output result0_valid;
  output busy;
  wire [31:0] u0_mult_r0;
  reg [31:0] dly_0_0 = 32'd0;
  reg [31:0] dly_0_1 = 32'd0;
  wire [31:0] v_1;
  reg start_p1 = 1'd0;
  reg start_p2 = 1'd0;
  // hir.add
  assign v_1 = (u0_mult_r0 + dly_0_1);
  assign result0 = v_1;
  assign result0_valid = start_p2;
  assign busy = ((start | start_p1) | start_p2);
  mult u0_mult(
    .clk(clk),
    .start(start),
    .arg0(a),
    .arg1(b),
    .result0(u0_mult_r0)
  );
  always @(posedge clk) begin
    dly_0_0 <= c;
    dly_0_1 <= dly_0_0;
    start_p1 <= start;
    start_p2 <= start_p1;
  end
endmodule

// generated by hir-codegen from hir.func @mac1
module hir_mac1(clk, start, a, b, c, result0, result0_valid, busy);
  input clk;
  input start;
  input [31:0] a;
  input [31:0] b;
  input [31:0] c;
  output [31:0] result0;
  output result0_valid;
  output busy;
  wire [31:0] u0_mac0_r0;
  wire u0_mac0_busy;
  reg [31:0] dly_0_0 = 32'd0;
  reg [31:0] dly_0_1 = 32'd0;
  wire [31:0] v_1;
  reg start_p1 = 1'd0;
  reg start_p2 = 1'd0;
  // hir.add
  assign v_1 = (u0_mac0_r0 + dly_0_1);
  assign result0 = v_1;
  assign result0_valid = start_p2;
  assign busy = (((start | u0_mac0_busy) | start_p1) | start_p2);
  hir_mac0 u0_mac0(
    .clk(clk),
    .start(start),
    .a(a),
    .b(b),
    .c(c),
    .result0(u0_mac0_r0),
    .busy(u0_mac0_busy)
  );
  always @(posedge clk) begin
    dly_0_0 <= c;
    dly_0_1 <= dly_0_0;
    start_p1 <= start;
    start_p2 <= start_p1;
  end
endmodule

// generated by hir-codegen from hir.func @mac2
module hir_mac2(clk, start, a, b, c, result0, result0_valid, busy);
  input clk;
  input start;
  input [31:0] a;
  input [31:0] b;
  input [31:0] c;
  output [31:0] result0;
  output result0_valid;
  output busy;
  wire [31:0] u0_mult_r0;
  reg [31:0] dly_0_0 = 32'd0;
  reg [31:0] dly_0_1 = 32'd0;
  wire [31:0] v_1;
  reg start_p1 = 1'd0;
  reg start_p2 = 1'd0;
  // hir.add
  assign v_1 = (u0_mult_r0 + dly_0_1);
  assign result0 = v_1;
  assign result0_valid = start_p2;
  assign busy = ((start | start_p1) | start_p2);
  mult u0_mult(
    .clk(clk),
    .start(start),
    .arg0(b),
    .arg1(a),
    .result0(u0_mult_r0)
  );
  always @(posedge clk) begin
    dly_0_0 <= a;
    dly_0_1 <= dly_0_0;
    start_p1 <= start;
    start_p2 <= start_p1;
  end
endmodule

// generated by hir-codegen from hir.func @alu
module hir_alu(clk, start, x, y, result0, result0_valid, busy);
  input clk;
  input start;
  input [31:0] x;
  input [31:0] y;
  output [31:0] result0;
  output result0_valid;
  output busy;
  wire [31:0] v_0;
  wire [31:0] v_1;
  wire [31:0] v_2;
  wire [31:0] v_3;
  wire [31:0] v_4;
  wire [31:0] v_5;
  // hir.shl
  assign v_0 = (x << 32'd2);
  // hir.shl
  assign v_1 = (x << 32'd3);
  // hir.add
  assign v_2 = (v_0 + v_1);
  // hir.mult
  assign v_3 = (x * y);
  // hir.add
  assign v_4 = (v_2 + v_3);
  // hir.add
  assign v_5 = (v_4 + v_4);
  assign result0 = v_5;
  assign result0_valid = start;
  assign busy = start;
endmodule
