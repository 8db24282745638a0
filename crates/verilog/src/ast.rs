//! AST for the synthesizable Verilog subset emitted by the HIR and HLS code
//! generators.
//!
//! The subset is deliberately small but real: modules with input/output
//! ports, wires/regs, inferred memories (`reg [W-1:0] mem [0:D-1]`),
//! continuous assigns, a single-clock `always @(posedge clk)` process per
//! module (plus any number of extra ones), module instances, and immediate
//! assertions. Everything the paper's Table 3 maps HIR onto is expressible.

use std::fmt;

/// Port direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    Input,
    Output,
}

/// A module port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortDecl {
    pub name: String,
    pub dir: Dir,
    pub width: u32,
    /// Output ports driven from an always block are declared `reg`.
    pub is_reg: bool,
}

/// Kind of an internal net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    Wire,
    Reg,
}

/// An internal net declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetDecl {
    pub name: String,
    pub kind: NetKind,
    pub width: u32,
    /// Initial value (FPGA-style register initialization).
    pub init: Option<u64>,
}

/// An inferred memory: `reg [width-1:0] name [0:depth-1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemDecl {
    pub name: String,
    pub width: u32,
    pub depth: u64,
    /// Synthesis hint carried into resource estimation ("reg", "lutram",
    /// "bram"); printed as a `(* ram_style *)` attribute.
    pub style: Option<String>,
}

/// Binary operators. Comparisons yield 1 bit; arithmetic is modular.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    Eq,
    Ne,
    /// Signed comparisons.
    SLt,
    SLe,
    SGt,
    SGe,
    /// Unsigned comparisons.
    ULt,
    ULe,
}

impl BinOp {
    /// Whether this operator produces a single-bit result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::SLt
                | BinOp::SLe
                | BinOp::SGt
                | BinOp::SGe
                | BinOp::ULt
                | BinOp::ULe
        )
    }

    /// The Verilog token.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::LShr => ">>",
            BinOp::AShr => ">>>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::SLt | BinOp::ULt => "<",
            BinOp::SLe | BinOp::ULe => "<=",
            BinOp::SGt => ">",
            BinOp::SGe => ">=",
        }
    }

    /// Whether operands must be wrapped in `$signed(...)`.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            BinOp::SLt | BinOp::SLe | BinOp::SGt | BinOp::SGe | BinOp::AShr
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise not.
    Not,
    /// Logical not (reduce to 1 bit, invert).
    LNot,
    /// OR-reduction.
    RedOr,
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Sized constant `width'dvalue`.
    Const {
        value: u64,
        width: u32,
    },
    /// A net or port reference.
    Ref(String),
    /// Asynchronous memory read `mem[addr]` (distributed RAM / regs).
    MemRead {
        mem: String,
        addr: Box<Expr>,
    },
    /// Bit slice `base[hi:lo]`.
    Slice {
        base: Box<Expr>,
        hi: u32,
        lo: u32,
    },
    Unary {
        op: UnOp,
        arg: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `cond ? a : b`.
    Ternary {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// `{a, b, c}` — `a[0]` is the most significant part.
    Concat(Vec<Expr>),
    /// `$signed`-preserving sign extension of `arg` (of width `from`) to
    /// width `to`. Printed as a concat with replicated sign bit.
    SignExtend {
        arg: Box<Expr>,
        from: u32,
        to: u32,
    },
}

#[allow(clippy::should_implement_trait)] // `add`/`not` are expression constructors
impl Expr {
    pub fn c(value: u64, width: u32) -> Expr {
        Expr::Const { value, width }
    }
    pub fn r(name: impl Into<String>) -> Expr {
        Expr::Ref(name.into())
    }
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }
    pub fn not(arg: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            arg: Box::new(arg),
        }
    }
    pub fn mux(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::Ternary {
            cond: Box::new(cond),
            then: Box::new(then),
            els: Box::new(els),
        }
    }
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, lhs, rhs)
    }
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, lhs, rhs)
    }
    pub fn or(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Or, lhs, rhs)
    }
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }
}

/// Assignment target inside an always block.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LValue {
    Net(String),
    /// `mem[addr]`.
    MemElem {
        mem: String,
        addr: Expr,
    },
}

/// A statement inside an always block.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Non-blocking assignment `lhs <= rhs;`.
    NonBlocking { lhs: LValue, rhs: Expr },
    /// `if (cond) begin ... end else begin ... end`.
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// Immediate assertion: when `guard` is true, `cond` must hold.
    /// Printed as a guarded `$error` (synthesis ignores it); the simulator
    /// enforces it. These realize the automatic UB checks of paper §4.5.
    Assert {
        guard: Expr,
        cond: Expr,
        message: String,
    },
}

/// A clocked process (`always @(posedge clk)`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AlwaysBlock {
    pub stmts: Vec<Stmt>,
}

/// A continuous assignment `assign lhs = rhs;`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assign {
    pub lhs: String,
    pub rhs: Expr,
    /// Optional source comment (HIR location mapping, paper §5.5).
    pub comment: Option<String>,
}

/// A module instantiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    pub module: String,
    pub name: String,
    /// `(port, expr)` pairs. Output ports must connect to plain net refs.
    pub connections: Vec<(String, Expr)>,
}

/// A Verilog module.
#[derive(Clone, Debug, Default)]
pub struct VModule {
    pub name: String,
    pub ports: Vec<PortDecl>,
    pub nets: Vec<NetDecl>,
    pub memories: Vec<MemDecl>,
    pub assigns: Vec<Assign>,
    pub always: Vec<AlwaysBlock>,
    pub instances: Vec<Instance>,
    /// Header comments (e.g. "generated from foo.mlir:3:1").
    pub comments: Vec<String>,
}

impl VModule {
    pub fn new(name: impl Into<String>) -> Self {
        VModule {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a port, returning its name for convenience.
    pub fn port(&mut self, name: impl Into<String>, dir: Dir, width: u32) -> String {
        let name = name.into();
        self.ports.push(PortDecl {
            name: name.clone(),
            dir,
            width,
            is_reg: false,
        });
        name
    }

    /// Add an internal wire.
    pub fn wire(&mut self, name: impl Into<String>, width: u32) -> String {
        let name = name.into();
        self.nets.push(NetDecl {
            name: name.clone(),
            kind: NetKind::Wire,
            width,
            init: None,
        });
        name
    }

    /// Add an internal register with reset value 0.
    pub fn reg(&mut self, name: impl Into<String>, width: u32) -> String {
        let name = name.into();
        self.nets.push(NetDecl {
            name: name.clone(),
            kind: NetKind::Reg,
            width,
            init: Some(0),
        });
        name
    }

    /// Add a memory.
    pub fn memory(
        &mut self,
        name: impl Into<String>,
        width: u32,
        depth: u64,
        style: Option<&str>,
    ) -> String {
        let name = name.into();
        self.memories.push(MemDecl {
            name: name.clone(),
            width,
            depth,
            style: style.map(str::to_owned),
        });
        name
    }

    /// Add a continuous assign.
    pub fn assign(&mut self, lhs: impl Into<String>, rhs: Expr) {
        self.assigns.push(Assign {
            lhs: lhs.into(),
            rhs,
            comment: None,
        });
    }

    /// Add a continuous assign with a source comment.
    pub fn assign_with_comment(
        &mut self,
        lhs: impl Into<String>,
        rhs: Expr,
        comment: impl Into<String>,
    ) {
        self.assigns.push(Assign {
            lhs: lhs.into(),
            rhs,
            comment: Some(comment.into()),
        });
    }

    /// The first (main) always block, created on demand.
    pub fn main_always(&mut self) -> &mut AlwaysBlock {
        if self.always.is_empty() {
            self.always.push(AlwaysBlock::default());
        }
        &mut self.always[0]
    }

    /// Look up a port.
    pub fn find_port(&self, name: &str) -> Option<&PortDecl> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Width of a named net, port or memory word.
    pub fn width_of(&self, name: &str) -> Option<u32> {
        self.ports
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.width)
            .or_else(|| self.nets.iter().find(|n| n.name == name).map(|n| n.width))
            .or_else(|| {
                self.memories
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.width)
            })
    }
}

/// A design: a set of modules, one of which is usually the top.
#[derive(Clone, Debug, Default)]
pub struct Design {
    pub modules: Vec<VModule>,
}

impl Design {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, module: VModule) -> &mut Self {
        self.modules.push(module);
        self
    }

    pub fn find(&self, name: &str) -> Option<&VModule> {
        self.modules.iter().find(|m| m.name == name)
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::print_design(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_builder_helpers() {
        let mut m = VModule::new("adder");
        m.port("clk", Dir::Input, 1);
        m.port("a", Dir::Input, 32);
        m.port("y", Dir::Output, 32);
        m.wire("tmp", 32);
        m.reg("state", 4);
        m.memory("buf", 32, 256, Some("bram"));
        m.assign("tmp", Expr::add(Expr::r("a"), Expr::c(1, 32)));
        assert_eq!(m.width_of("a"), Some(32));
        assert_eq!(m.width_of("state"), Some(4));
        assert_eq!(m.width_of("buf"), Some(32));
        assert_eq!(m.width_of("nope"), None);
        assert!(m.find_port("clk").is_some());
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::SLt.is_signed());
        assert!(!BinOp::ULt.is_signed());
        assert_eq!(BinOp::AShr.token(), ">>>");
    }
}
