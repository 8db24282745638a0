//! Parser for HIR's paper-style surface syntax — the notation of the
//! paper's listings, and exactly what [`crate::pretty`] prints:
//!
//! ```text
//! hir.func @transpose at %t(%Ai : !hir.memref<16*16*i32, r, bram>,
//!                           %Co : !hir.memref<16*16*i32, w, bram>) {
//!   %c0 = hir.constant 0 : index
//!   %tf = hir.for %i : i32 = %c0 to %c16 step %c1 iter_time(%ti = %t offset 1) {
//!     %v = hir.mem_read %Ai[%i, %j] at %ti offset 0 : i32
//!     hir.yield at %ti offset 1
//!   }
//!   hir.return
//! }
//! ```
//!
//! `pretty_module(parse_pretty(s)?)` is a fixpoint of `pretty_module` for
//! every module the printer produces, and the paper's listings (modulo the
//! offsets-as-attributes convention, see DESIGN.md) parse directly.

use crate::builder::HirBuilder;
use crate::dialect::{attrkey, opname, CmpPredicate};
use crate::types::{const_type, time_type, Dim, MemKind, MemrefInfo, Port};
use ir::{AttrMap, Attribute, Module, Type, ValueId};
use std::collections::HashMap;
use std::fmt;

/// A parse error with 1-based line/column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrettyParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for PrettyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}
impl std::error::Error for PrettyParseError {}

type Result<T> = std::result::Result<T, PrettyParseError>;

/// Parse a module in the paper-style syntax.
///
/// # Errors
/// Returns a positioned [`PrettyParseError`] on malformed input.
pub fn parse_pretty(source: &str) -> Result<Module> {
    let mut p = Parser::new(source)?;
    let mut hb = HirBuilder::new();
    while p.tok != Tok::Eof {
        p.parse_func(&mut hb)?;
    }
    Ok(hb.finish())
}

/// Default cap on recorded errors in recovery mode.
pub const DEFAULT_ERROR_LIMIT: usize = 20;

/// Outcome of [`parse_pretty_recover`].
#[derive(Debug)]
pub struct RecoveredPretty {
    /// Best-effort module; only meaningful when `errors` is empty.
    pub module: Module,
    /// All parse errors, in source order.
    pub errors: Vec<PrettyParseError>,
    /// Recovery stopped early because the error limit was reached.
    pub hit_error_limit: bool,
}

/// Parse with error recovery at function granularity: on a parse failure the
/// error is recorded and the parser skips to the next `hir.func`, so one run
/// reports the first error of every broken function in the file. (Function
/// granularity is what makes recovery safe here: [`HirBuilder::func`] resets
/// all builder state, discarding whatever a broken function left behind.)
///
/// `error_limit` caps the number of recorded errors (0 means
/// [`DEFAULT_ERROR_LIMIT`]).
pub fn parse_pretty_recover(source: &str, error_limit: usize) -> RecoveredPretty {
    let limit = if error_limit == 0 {
        DEFAULT_ERROR_LIMIT
    } else {
        error_limit
    };
    let mut errors = Vec::new();
    let mut p = match Parser::new(source) {
        Ok(p) => p,
        Err(e) => {
            return RecoveredPretty {
                module: Module::new(),
                errors: vec![e],
                hit_error_limit: false,
            }
        }
    };
    let mut hb = HirBuilder::new();
    let mut hit_error_limit = false;
    while p.tok != Tok::Eof {
        if errors.len() >= limit {
            hit_error_limit = true;
            break;
        }
        if let Err(e) = p.parse_func(&mut hb) {
            errors.push(e);
            if !p.synchronize_to_func() {
                break;
            }
        }
    }
    RecoveredPretty {
        module: hb.finish(),
        errors,
        hit_error_limit,
    }
}

// --------------------------------------------------------------------- lexer

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    /// `%name`
    Value(String),
    /// `@name`
    Symbol(String),
    /// Bare identifier or keyword (`hir.for`, `at`, `offset`, `i32`...).
    Ident(String),
    /// `!hir.memref` etc.
    Bang(String),
    Int(i64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Colon,
    Comma,
    Eq,
    Star,
    Arrow,
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
    /// Text of the last block comment skipped before the current token
    /// (argument labels are printed as `/*name*/`).
    last_comment: Option<String>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
            last_comment: None,
        }
    }

    fn err(&self, message: impl Into<String>) -> PrettyParseError {
        PrettyParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'*') => {
                    self.bump();
                    self.bump();
                    let start = self.pos;
                    let end = loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break self.pos - 2;
                            }
                            Some(_) => {}
                            None => return Err(self.err("unterminated block comment")),
                        }
                    };
                    // `*/` is ASCII, so the slice ends on a char boundary.
                    self.last_comment = Some(self.src[start..end].to_string());
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self) -> String {
        let mut s = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                s.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn next(&mut self) -> Result<(Tok, u32, u32)> {
        self.last_comment = None;
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match b {
            b'%' => {
                self.bump();
                Tok::Value(self.ident())
            }
            b'@' => {
                self.bump();
                Tok::Symbol(self.ident())
            }
            b'!' => {
                self.bump();
                Tok::Bang(self.ident())
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b'<' => {
                self.bump();
                Tok::Lt
            }
            b'>' => {
                self.bump();
                Tok::Gt
            }
            b':' => {
                self.bump();
                Tok::Colon
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'=' => {
                self.bump();
                Tok::Eq
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    Tok::Arrow
                } else {
                    let text = self.ident();
                    let v: i64 = text
                        .parse()
                        .map_err(|_| self.err(format!("invalid number -{text}")))?;
                    Tok::Int(-v)
                }
            }
            b'0'..=b'9' => {
                let text = self.ident();
                let v: i64 = text
                    .parse()
                    .map_err(|_| self.err(format!("invalid number {text}")))?;
                Tok::Int(v)
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => Tok::Ident(self.ident()),
            other => return Err(self.err(format!("unexpected character '{}'", other as char))),
        };
        Ok((tok, line, col))
    }
}

// -------------------------------------------------------------------- parser

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    line: u32,
    col: u32,
    /// `%name` -> SSA value, per function.
    values: HashMap<String, ValueId>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self> {
        let mut lexer = Lexer::new(src);
        let (tok, line, col) = lexer.next()?;
        Ok(Parser {
            lexer,
            tok,
            line,
            col,
            values: HashMap::new(),
        })
    }

    fn err(&self, message: impl Into<String>) -> PrettyParseError {
        PrettyParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Result<Tok> {
        let (tok, line, col) = self.lexer.next()?;
        self.line = line;
        self.col = col;
        Ok(std::mem::replace(&mut self.tok, tok))
    }

    /// Skip tokens until the next `hir.func` keyword (the only top-level
    /// construct), always consuming at least one token so recovery makes
    /// progress. Returns `false` when the end of input is reached first.
    fn synchronize_to_func(&mut self) -> bool {
        loop {
            match self.advance() {
                Ok(_) => {}
                Err(_) => {
                    // Lexer error mid-skip: drop the offending byte and keep
                    // scanning; these cascades are not worth reporting.
                    self.lexer.bump();
                    continue;
                }
            }
            match &self.tok {
                Tok::Eof => return false,
                Tok::Ident(s) if s == "hir.func" => return true,
                _ => {}
            }
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<()> {
        if &self.tok == want {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, found {:?}", self.tok)))
        }
    }

    fn eat(&mut self, want: &Tok) -> Result<bool> {
        if &self.tok == want {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match &self.tok {
            Tok::Ident(s) if s == kw => {
                self.advance()?;
                Ok(())
            }
            other => Err(self.err(format!("expected '{kw}', found {other:?}"))),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.tok, Tok::Ident(s) if s == kw)
    }

    fn value_name(&mut self) -> Result<String> {
        match std::mem::replace(&mut self.tok, Tok::Eof) {
            Tok::Value(n) => {
                self.advance()?;
                Ok(n)
            }
            other => {
                self.tok = other;
                Err(self.err(format!("expected %value, found {:?}", self.tok)))
            }
        }
    }

    fn symbol_name(&mut self) -> Result<String> {
        match std::mem::replace(&mut self.tok, Tok::Eof) {
            Tok::Symbol(n) => {
                self.advance()?;
                Ok(n)
            }
            other => {
                self.tok = other;
                Err(self.err(format!("expected @symbol, found {:?}", self.tok)))
            }
        }
    }

    fn int(&mut self) -> Result<i64> {
        match self.tok {
            Tok::Int(v) => {
                self.advance()?;
                Ok(v)
            }
            _ => Err(self.err(format!("expected integer, found {:?}", self.tok))),
        }
    }

    fn lookup(&self, name: &str) -> Result<ValueId> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| self.err(format!("use of undefined value %{name}")))
    }

    fn use_value(&mut self) -> Result<ValueId> {
        let n = self.value_name()?;
        self.lookup(&n)
    }

    // ---------------------------------------------------------------- types

    fn parse_type(&mut self) -> Result<Type> {
        match std::mem::replace(&mut self.tok, Tok::Eof) {
            Tok::Ident(id) => {
                self.advance()?;
                scalar_type(&id).ok_or_else(|| self.err(format!("unknown type '{id}'")))
            }
            Tok::Bang(full) => {
                self.advance()?;
                match full.as_str() {
                    "hir.time" => Ok(time_type()),
                    "hir.const" => Ok(const_type()),
                    "hir.memref" => self.parse_memref_params(),
                    other => Err(self.err(format!("unknown dialect type !{other}"))),
                }
            }
            other => {
                self.tok = other;
                Err(self.err(format!("expected type, found {:?}", self.tok)))
            }
        }
    }

    /// `<16*16*i32, r, bram>` or with `[2]*` distributed dims.
    fn parse_memref_params(&mut self) -> Result<Type> {
        self.expect(&Tok::Lt)?;
        let mut dims = Vec::new();
        let elem;
        loop {
            match std::mem::replace(&mut self.tok, Tok::Eof) {
                Tok::Int(n) => {
                    self.advance()?;
                    self.expect(&Tok::Star)?;
                    if n <= 0 {
                        return Err(self.err("memref dims must be positive"));
                    }
                    dims.push(Dim::Packed(n as u64));
                }
                Tok::LBracket => {
                    self.tok = Tok::LBracket;
                    self.advance()?;
                    let n = self.int()?;
                    self.expect(&Tok::RBracket)?;
                    self.expect(&Tok::Star)?;
                    if n <= 0 {
                        return Err(self.err("memref dims must be positive"));
                    }
                    dims.push(Dim::Distributed(n as u64));
                }
                Tok::Ident(id) => {
                    self.advance()?;
                    elem = scalar_type(&id)
                        .ok_or_else(|| self.err(format!("unknown element type '{id}'")))?;
                    break;
                }
                other => {
                    self.tok = other;
                    return Err(self.err(format!(
                        "expected memref dimension (e.g. `16*`) or element type, found {:?}",
                        self.tok
                    )));
                }
            }
        }
        self.expect(&Tok::Comma)?;
        let port = match &self.tok {
            Tok::Ident(s) => Port::from_mnemonic(s)
                .ok_or_else(|| self.err(format!("unknown port kind '{s}'")))?,
            other => return Err(self.err(format!("expected port kind, found {other:?}"))),
        };
        self.advance()?;
        self.expect(&Tok::Comma)?;
        let kind = match &self.tok {
            Tok::Ident(s) => MemKind::from_mnemonic(s)
                .ok_or_else(|| self.err(format!("unknown memory kind '{s}'")))?,
            other => return Err(self.err(format!("expected memory kind, found {other:?}"))),
        };
        self.advance()?;
        self.expect(&Tok::Gt)?;
        if dims.is_empty() {
            return Err(self.err("memref needs at least one dimension"));
        }
        Ok(MemrefInfo::new(dims, elem, port, kind).to_type())
    }

    // ------------------------------------------------------------ functions

    fn parse_func(&mut self, hb: &mut HirBuilder) -> Result<()> {
        self.keyword("hir.func")?;
        self.values.clear();
        if self.is_keyword("extern") {
            self.advance()?;
            return self.parse_extern(hb);
        }
        let name = self.symbol_name()?;
        self.keyword("at")?;
        let time_name = self.value_name()?;
        self.expect(&Tok::LParen)?;
        let mut args: Vec<(String, String, Type)> = Vec::new(); // (%name, label, type)
        if self.tok != Tok::RParen {
            loop {
                let vname = self.value_name()?;
                // A `/*label*/` comment right after the value names the
                // port; default to the SSA name.
                let label = self
                    .lexer
                    .last_comment
                    .take()
                    .unwrap_or_else(|| vname.clone());
                self.expect(&Tok::Colon)?;
                let ty = self.parse_type()?;
                args.push((vname, label, ty));
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        // Optional result signature `-> (ty delay d, ...)`.
        let mut result_delays: Vec<i64> = Vec::new();
        if self.eat(&Tok::Arrow)? {
            self.expect(&Tok::LParen)?;
            loop {
                let _ty = self.parse_type()?;
                self.keyword("delay")?;
                result_delays.push(self.int()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }

        let named: Vec<(&str, Type)> = args
            .iter()
            .map(|(_, label, t)| (label.as_str(), t.clone()))
            .collect();
        let f = hb.func(&name, &named, &result_delays);
        let formal = f.args(hb.module());
        for ((vname, _, _), v) in args.iter().zip(formal) {
            self.values.insert(vname.clone(), v);
        }
        self.values.insert(time_name, f.time_var(hb.module()));

        self.expect(&Tok::LBrace)?;
        while self.tok != Tok::RBrace {
            self.parse_op(hb)?;
        }
        self.expect(&Tok::RBrace)?;
        Ok(())
    }

    fn parse_extern(&mut self, hb: &mut HirBuilder) -> Result<()> {
        let name = self.symbol_name()?;
        self.expect(&Tok::LParen)?;
        let mut arg_types = Vec::new();
        if self.tok != Tok::RParen {
            loop {
                arg_types.push(self.parse_type()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        self.expect(&Tok::LParen)?;
        let mut result_types = Vec::new();
        let mut delays = Vec::new();
        if self.tok != Tok::RParen {
            loop {
                result_types.push(self.parse_type()?);
                self.keyword("delay")?;
                delays.push(self.int()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        hb.extern_func(&name, &arg_types, &result_types, &delays);
        Ok(())
    }

    // ------------------------------------------------------------------ ops

    /// ` at %t offset k` (offset optional, default 0).
    fn parse_schedule(&mut self) -> Result<(ValueId, i64)> {
        self.keyword("at")?;
        let t = self.use_value()?;
        let mut offset = 0;
        if self.is_keyword("offset") {
            self.advance()?;
            offset = self.parse_offset_amount()?;
        }
        Ok((t, offset))
    }

    /// Offsets are integers here, but the paper writes `%1` (a constant
    /// SSA value); accept both, resolving constants through the builder.
    fn parse_offset_amount(&mut self) -> Result<i64> {
        match &self.tok {
            Tok::Int(_) => self.int(),
            Tok::Value(_) => {
                let name = self.value_name()?;
                // Constant names printed as %cN carry their value; otherwise
                // the value must be a known constant.
                if let Some(rest) = name.strip_prefix('c') {
                    if let Ok(v) = rest.parse::<i64>() {
                        return Ok(v);
                    }
                }
                Err(self.err(format!(
                    "offset %{name} is not a recognizable constant \
                     (use an integer literal or a %c<N> constant name)"
                )))
            }
            other => Err(self.err(format!(
                "expected an integer offset or %c<N> constant, found {other:?}"
            ))),
        }
    }

    fn parse_op(&mut self, hb: &mut HirBuilder) -> Result<()> {
        // Optional results.
        let mut results: Vec<String> = Vec::new();
        if let Tok::Value(_) = self.tok {
            results.push(self.value_name()?);
            while self.eat(&Tok::Comma)? {
                results.push(self.value_name()?);
            }
            self.expect(&Tok::Eq)?;
        }
        let opword = match &self.tok {
            Tok::Ident(s) => s.clone(),
            other => return Err(self.err(format!("expected operation, found {other:?}"))),
        };
        self.advance()?;
        match opword.as_str() {
            "hir.constant" => self.op_constant(hb, &results),
            "hir.for" => self.op_for(hb, &results),
            "hir.unroll_for" => self.op_unroll_for(hb, &results),
            "hir.yield" => {
                let (t, off) = self.parse_schedule()?;
                hb.yield_at(t, off);
                Ok(())
            }
            "hir.return" => self.op_return(hb),
            "hir.mem_read" => self.op_mem_read(hb, &results),
            "hir.mem_write" => self.op_mem_write(hb),
            "hir.delay" => self.op_delay(hb, &results),
            "hir.alloc" => self.op_alloc(hb, &results),
            "hir.call" => self.op_call(hb, &results),
            "hir.if" => self.op_if(hb),
            other if other.starts_with("hir.") => self.op_compute(hb, other, &results),
            other => Err(self.err(format!("unknown operation '{other}'"))),
        }
    }

    fn bind(&mut self, name: &str, v: ValueId) -> Result<()> {
        if self.values.insert(name.to_string(), v).is_some() {
            return Err(self.err(format!("redefinition of %{name}")));
        }
        Ok(())
    }

    fn one_result<'r>(&self, results: &'r [String], what: &str) -> Result<&'r String> {
        if results.len() != 1 {
            return Err(self.err(format!("{what} defines exactly one result")));
        }
        Ok(&results[0])
    }

    fn op_constant(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        let name = self.one_result(results, "hir.constant")?.clone();
        let v = self.int()?;
        self.expect(&Tok::Colon)?;
        let ty = self.parse_type()?;
        let val = if crate::types::is_const(&ty) || ty.is_index() {
            hb.const_val(v)
        } else {
            hb.typed_const(v, ty)
        };
        self.bind(&name, val)
    }

    fn op_for(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        let tf_name = self.one_result(results, "hir.for")?.clone();
        let iv_name = self.value_name()?;
        self.expect(&Tok::Colon)?;
        let iv_ty = self.parse_type()?;
        self.expect(&Tok::Eq)?;
        let lb = self.use_value()?;
        self.keyword("to")?;
        let ub = self.use_value()?;
        self.keyword("step")?;
        let step = self.use_value()?;
        self.keyword("iter_time")?;
        self.expect(&Tok::LParen)?;
        let ti_name = self.value_name()?;
        self.expect(&Tok::Eq)?;
        let t = self.use_value()?;
        let mut offset = 0;
        if self.is_keyword("offset") {
            self.advance()?;
            offset = self.parse_offset_amount()?;
        }
        self.expect(&Tok::RParen)?;

        let lp = hb.for_loop(lb, ub, step, t, offset, iv_ty);
        self.bind(&iv_name, lp.induction_var(hb.module()))?;
        self.bind(&ti_name, lp.iter_time(hb.module()))?;
        self.bind(&tf_name, lp.result_time(hb.module()))?;

        self.expect(&Tok::LBrace)?;
        let body = lp.body(hb.module());
        hb.push_block(body);
        while self.tok != Tok::RBrace {
            self.parse_op(hb)?;
        }
        hb.pop_block();
        self.expect(&Tok::RBrace)?;
        Ok(())
    }

    fn op_unroll_for(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        let tf_name = self.one_result(results, "hir.unroll_for")?.clone();
        let iv_name = self.value_name()?;
        self.expect(&Tok::Eq)?;
        let lb = self.int()?;
        self.keyword("to")?;
        let ub = self.int()?;
        self.keyword("step")?;
        let step = self.int()?;
        self.keyword("iter_time")?;
        self.expect(&Tok::LParen)?;
        let ti_name = self.value_name()?;
        self.expect(&Tok::Eq)?;
        let t = self.use_value()?;
        let mut offset = 0;
        if self.is_keyword("offset") {
            self.advance()?;
            offset = self.parse_offset_amount()?;
        }
        self.expect(&Tok::RParen)?;

        let lp = hb.unroll_for(lb, ub, step, t, offset);
        self.bind(&iv_name, lp.induction_var(hb.module()))?;
        self.bind(&ti_name, lp.iter_time(hb.module()))?;
        self.bind(&tf_name, lp.result_time(hb.module()))?;

        self.expect(&Tok::LBrace)?;
        let body = lp.body(hb.module());
        hb.push_block(body);
        while self.tok != Tok::RBrace {
            self.parse_op(hb)?;
        }
        hb.pop_block();
        self.expect(&Tok::RBrace)?;
        Ok(())
    }

    fn op_return(&mut self, hb: &mut HirBuilder) -> Result<()> {
        let mut vals = Vec::new();
        while let Tok::Value(_) = self.tok {
            vals.push(self.use_value()?);
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        hb.return_(&vals);
        Ok(())
    }

    fn op_mem_read(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        let name = self.one_result(results, "hir.mem_read")?.clone();
        let mem = self.use_value()?;
        let idx = self.parse_indices()?;
        let (t, off) = self.parse_schedule()?;
        // Optional trailing `: type` (informational; checked).
        if self.eat(&Tok::Colon)? {
            let _ = self.parse_type()?;
        }
        let v = hb.mem_read(mem, &idx, t, off);
        self.bind(&name, v)
    }

    fn op_mem_write(&mut self, hb: &mut HirBuilder) -> Result<()> {
        let v = self.use_value()?;
        self.keyword("to")?;
        let mem = self.use_value()?;
        let idx = self.parse_indices()?;
        let (t, off) = self.parse_schedule()?;
        hb.mem_write(v, mem, &idx, t, off);
        Ok(())
    }

    fn parse_indices(&mut self) -> Result<Vec<ValueId>> {
        self.expect(&Tok::LBracket)?;
        let mut idx = Vec::new();
        if self.tok != Tok::RBracket {
            loop {
                idx.push(self.use_value()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RBracket)?;
        Ok(idx)
    }

    fn op_delay(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        let name = self.one_result(results, "hir.delay")?.clone();
        let input = self.use_value()?;
        self.keyword("by")?;
        let by = self.parse_offset_amount()?;
        let (t, off) = self.parse_schedule()?;
        if self.eat(&Tok::Colon)? {
            let _ = self.parse_type()?;
        }
        let v = hb.delay(input, by, t, off);
        self.bind(&name, v)
    }

    fn op_alloc(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        self.expect(&Tok::LParen)?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Colon)?;
        // `(type, type)` — one memref per port; or a single bare type.
        let mut types = Vec::new();
        if self.eat(&Tok::LParen)? {
            loop {
                types.push(self.parse_type()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        } else {
            types.push(self.parse_type()?);
        }
        if types.len() != results.len() {
            return Err(self.err(format!(
                "hir.alloc binds {} results but lists {} port types",
                results.len(),
                types.len()
            )));
        }
        let infos: Vec<MemrefInfo> = types
            .iter()
            .map(|t| {
                MemrefInfo::from_type(t).ok_or_else(|| self.err("alloc types must be memrefs"))
            })
            .collect::<Result<_>>()?;
        let base = &infos[0];
        let ports: Vec<Port> = infos.iter().map(|i| i.port).collect();
        let vals = hb.alloc(&base.dims, base.elem.clone(), base.kind, &ports);
        for (name, v) in results.iter().zip(vals) {
            self.bind(name, v)?;
        }
        Ok(())
    }

    fn op_call(&mut self, hb: &mut HirBuilder, results: &[String]) -> Result<()> {
        let callee = self.symbol_name()?;
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.tok != Tok::RParen {
            loop {
                args.push(self.use_value()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let (t, off) = self.parse_schedule()?;
        let vals = hb.call(&callee, &args, t, off);
        if vals.len() != results.len() {
            return Err(self.err(format!(
                "@{callee} returns {} values but {} results are bound",
                vals.len(),
                results.len()
            )));
        }
        for (name, v) in results.iter().zip(vals) {
            self.bind(name, v)?;
        }
        Ok(())
    }

    fn op_if(&mut self, hb: &mut HirBuilder) -> Result<()> {
        let cond = self.use_value()?;
        let (t, off) = self.parse_schedule()?;
        self.expect(&Tok::LBrace)?;
        // Parse the then block; decide about else after the brace.
        let ifop = hb.if_op(cond, t, off, false);
        let then_block = ifop.then_block(hb.module());
        hb.push_block(then_block);
        while self.tok != Tok::RBrace {
            self.parse_op(hb)?;
        }
        hb.pop_block();
        self.expect(&Tok::RBrace)?;
        if self.is_keyword("else") {
            self.advance()?;
            self.expect(&Tok::LBrace)?;
            let else_block = hb.add_else_block(ifop);
            hb.push_block(else_block);
            while self.tok != Tok::RBrace {
                self.parse_op(hb)?;
            }
            hb.pop_block();
            self.expect(&Tok::RBrace)?;
        }
        Ok(())
    }

    /// Generic compute: `%r = hir.add (%a, %b) : (i32, i32) -> (i32)` with
    /// optional `{pred}` or `{hi:lo}` trailers.
    fn op_compute(&mut self, hb: &mut HirBuilder, opword: &str, results: &[String]) -> Result<()> {
        let name = self.one_result(results, opword)?.clone();
        self.expect(&Tok::LParen)?;
        let mut operands = Vec::new();
        if self.tok != Tok::RParen {
            loop {
                operands.push(self.use_value()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Colon)?;
        self.expect(&Tok::LParen)?;
        let mut in_tys = Vec::new();
        if self.tok != Tok::RParen {
            loop {
                in_tys.push(self.parse_type()?);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        self.expect(&Tok::LParen)?;
        let out_ty = self.parse_type()?;
        self.expect(&Tok::RParen)?;

        // Optional `{eq}` / `{7:4}` trailer.
        let mut predicate: Option<CmpPredicate> = None;
        let mut slice_bounds: Option<(i64, i64)> = None;
        if self.eat(&Tok::LBrace)? {
            match std::mem::replace(&mut self.tok, Tok::Eof) {
                Tok::Ident(p) => {
                    self.advance()?;
                    predicate = Some(
                        CmpPredicate::from_mnemonic(&p)
                            .ok_or_else(|| self.err(format!("unknown predicate '{p}'")))?,
                    );
                }
                Tok::Int(hi) => {
                    self.advance()?;
                    self.expect(&Tok::Colon)?;
                    let lo = self.int()?;
                    slice_bounds = Some((hi, lo));
                }
                other => {
                    self.tok = other;
                    return Err(self.err("expected predicate or slice bounds"));
                }
            }
            self.expect(&Tok::RBrace)?;
        }

        let mut attrs = AttrMap::new();
        if let Some(p) = predicate {
            attrs.insert(attrkey::PREDICATE.into(), Attribute::string(p.mnemonic()));
        }
        if let Some((hi, lo)) = slice_bounds {
            attrs.insert(attrkey::HI.into(), Attribute::index(hi as i128));
            attrs.insert(attrkey::LO.into(), Attribute::index(lo as i128));
        }
        if opword == opname::CMP && predicate.is_none() {
            return Err(self.err("hir.cmp requires a {predicate}"));
        }
        if opword == opname::SLICE && slice_bounds.is_none() {
            return Err(self.err("hir.slice requires {hi:lo} bounds"));
        }
        let v = hb.raw_op(opword, operands, vec![out_ty], attrs);
        self.bind(&name, v)
    }
}

fn scalar_type(id: &str) -> Option<Type> {
    match id {
        "index" => return Some(Type::index()),
        "f32" => return Some(Type::f32()),
        "f64" => return Some(Type::f64()),
        _ => {}
    }
    id.strip_prefix('i')
        .and_then(|w| w.parse::<u32>().ok())
        .filter(|&w| w > 0)
        .map(Type::int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::pretty_module;

    #[test]
    fn parses_the_papers_listing_1() {
        // Listing 1 of the paper, in this implementation's conventions
        // (integer offsets; memory kinds spelled out).
        let src = r#"
hir.func @transpose at %t(
    %Ai : !hir.memref<16*16*i32, r, bram>,
    %Co : !hir.memref<16*16*i32, w, bram>) {
  %c0 = hir.constant 0 : index
  %c1 = hir.constant 1 : index
  %c16 = hir.constant 16 : index
  %tf0 = hir.for %i : i32 = %c0 to %c16 step %c1 iter_time(%ti = %t offset 1) {
    %tf = hir.for %j : i32 = %c0 to %c16 step %c1 iter_time(%tj = %ti offset 1) {
      %v = hir.mem_read %Ai[%i, %j] at %tj offset 0 : i32
      %j1 = hir.delay %j by 1 at %tj offset 0 : i32
      hir.mem_write %v to %Co[%j1, %i] at %tj offset 1
      hir.yield at %tj offset 1
    }
    hir.yield at %tf offset 1
  }
  hir.return
}
"#;
        let m = parse_pretty(src).expect("parse listing 1");
        let mut diags = ir::DiagnosticEngine::new();
        ir::verify_module(&m, &crate::hir_registry(), &mut diags)
            .unwrap_or_else(|_| panic!("{}", diags.render()));
        // Functionally identical to the builder version.
        use crate::interp::{ArgValue, Interpreter};
        let input: Vec<i128> = (0..256).collect();
        let r = Interpreter::new(&m)
            .run(
                "transpose",
                &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(256)],
            )
            .expect("simulate");
        for i in 0..16usize {
            for j in 0..16usize {
                assert_eq!(r.tensors[&1][j * 16 + i], Some(input[i * 16 + j]));
            }
        }
    }

    #[test]
    fn pretty_print_then_parse_is_functionally_stable() {
        // Build with the API, print, parse, print again: fixpoint.
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[0]);
        let t = f.time_var(hb.module());
        let x = f.args(hb.module())[0];
        let d = hb.delay(x, 2, t, 0);
        let s = hb.add(d, d);
        let _ = s;
        hb.return_(&[s]);
        let m = hb.finish();
        let text = pretty_module(&m);
        let reparsed =
            parse_pretty(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(text, pretty_module(&reparsed), "pretty fixpoint");
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_pretty("hir.func @f at %t( {").unwrap_err();
        assert!(err.line >= 1);
        let err = parse_pretty("hir.func @f at %t() {\n  %v = hir.mem_read %nope[%i] at %t\n}")
            .unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
    }

    #[test]
    fn offset_errors_name_the_offending_token() {
        let err =
            parse_pretty("hir.func @f at %t() {\n  %d = hir.delay %t by %bogus at %t offset 0\n}")
                .unwrap_err();
        assert!(err.message.contains("%bogus"), "{err}");
        assert_eq!(err.line, 2);

        let err =
            parse_pretty("hir.func @f at %t() {\n  hir.yield at %t offset @sym\n}").unwrap_err();
        assert!(err.message.contains("Symbol"), "names the token: {err}");
    }

    #[test]
    fn memref_param_errors_name_the_offending_token() {
        let err = parse_pretty("hir.func @f at %t(%A : !hir.memref<@oops*i32, r, bram>) {\n}")
            .unwrap_err();
        assert!(
            err.message.contains("expected memref dimension") && err.message.contains("Symbol"),
            "{err}"
        );
    }

    #[test]
    fn recovery_reports_one_error_per_broken_function() {
        let src = r#"
hir.func @good at %t(%x : i32) -> (i32 delay 0) {
  %y = hir.add (%x, %x) : (i32, i32) -> (i32)
  hir.return %y
}
hir.func @broken1 at %t() {
  %v = hir.bogus_unknown_thing ???
}
hir.func @broken2 at %t() {
  %v = hir.mem_read %undefined[%i] at %t offset 0 : i32
}
hir.func @also_good at %t() {
  hir.return
}
"#;
        let r = parse_pretty_recover(src, 0);
        assert_eq!(r.errors.len(), 2, "{:?}", r.errors);
        assert!(!r.hit_error_limit);
        assert!(r.errors[0].line >= 6, "{:?}", r.errors[0]);
        assert!(r.errors[1].message.contains("undefined value"));
        // Both good functions survived.
        assert_eq!(r.module.top_ops().len(), 4, "partial funcs stay in module");
    }

    #[test]
    fn port_label_comments_keep_utf8() {
        let m = parse_pretty("hir.func @f at %t(%a /*été*/ : i32) {\n  hir.return\n}\n")
            .expect("parse");
        assert_eq!(
            m.op(m.top_ops()[0]).attr("arg_names"),
            Some(&ir::Attribute::Array(vec![ir::Attribute::String(
                "été".into()
            )]))
        );
    }

    #[test]
    fn recovery_matches_strict_parse_on_valid_input() {
        let src = "hir.func @g at %t() {\n  hir.return\n}\n";
        let r = parse_pretty_recover(src, 0);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(
            pretty_module(&r.module),
            pretty_module(&parse_pretty(src).unwrap())
        );
    }

    #[test]
    fn recovery_honors_error_limit() {
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("hir.func @f{i} at %t() {{\n  hir.oops ???\n}}\n"));
        }
        let r = parse_pretty_recover(&src, 2);
        assert_eq!(r.errors.len(), 2);
        assert!(r.hit_error_limit);
    }
}
