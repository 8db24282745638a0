// generated by hir-codegen from hir.func @mac
module hir_mac(clk, start, a, b, c, result0, result0_valid, busy);
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
