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
use crate::decl::{self, OpDecl, Piece, Ty};
use crate::dialect::{attrkey, CmpPredicate};
use crate::ops::{CallOp, FuncOp};
use crate::types::{const_type, is_const, time_type, Dim, MemKind, MemrefInfo, Port};
use ir::{traits, AttrMap, Attribute, BlockId, Module, OpId, SymbolTable, Type, ValueId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::mem::take;

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
    let mut module = hb.finish();
    let mut errors = p.resolve_forward_calls(&mut module);
    errors.extend(p.check_written_types(&module));
    match errors.into_iter().next() {
        Some(e) => Err(e),
        None => Ok(module),
    }
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
        let checks = p.written.len();
        if let Err(e) = p.parse_func(&mut hb) {
            p.written.truncate(checks);
            errors.push(e);
            if !p.synchronize_to_func() {
                break;
            }
        }
    }
    let mut module = hb.finish();
    errors.extend(p.resolve_forward_calls(&mut module));
    errors.extend(p.check_written_types(&module));
    errors.sort_by_key(|e| (e.line, e.col));
    if errors.len() > limit {
        errors.truncate(limit);
        hit_error_limit = true;
    }
    RecoveredPretty {
        module,
        errors,
        hit_error_limit,
    }
}

// --------------------------------------------------------------------- lexer

/// A token; names borrow from the source.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    /// `%name`
    Value(&'a str),
    /// `@name`
    Symbol(&'a str),
    /// Bare identifier or keyword (`hir.for`, `at`, `offset`, `i32`...).
    Ident(&'a str),
    /// `!hir.memref` etc.
    Bang(&'a str),
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
    last_comment: Option<&'a str>,
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
                    self.last_comment = Some(&self.src[start..end]);
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                self.bump();
            } else {
                break;
            }
        }
        // The identifier is ASCII, so the slice ends on a char boundary.
        &self.src[start..self.pos]
    }

    fn next(&mut self) -> Result<(Tok<'a>, u32, u32)> {
        self.last_comment = None;
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        if let Some(tok) = punct(b) {
            self.bump();
            return Ok((tok, line, col));
        }
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
    tok: Tok<'a>,
    line: u32,
    col: u32,
    /// `%name` -> SSA value, per function.
    values: HashMap<&'a str, ValueId>,
    /// Calls to functions not defined yet, with their positions.
    forward: Vec<(OpId, u32, u32)>,
    /// Written types the module must agree with once calls are resolved.
    written: Vec<WrittenTypes>,
}

/// Types written in the source that the builder derives anyway: a
/// function's result signature and the `: type` of an op whose result type
/// follows from its operands. Checked after forward calls are resolved,
/// since a call's results are typed only then.
struct WrittenTypes {
    of: Typed,
    types: Vec<Type>,
    line: u32,
    col: u32,
}

#[derive(Clone, Copy)]
enum Typed {
    /// The function's results, from its `hir.return`.
    Func(FuncOp),
    /// The op's results.
    Op(OpId),
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
            forward: Vec::new(),
            written: Vec::new(),
        })
    }

    fn err(&self, message: impl Into<String>) -> PrettyParseError {
        PrettyParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Result<Tok<'a>> {
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
            match self.tok {
                Tok::Eof => return false,
                Tok::Ident("hir.func") => return true,
                _ => {}
            }
        }
    }

    fn expect(&mut self, want: &Tok<'_>) -> Result<()> {
        if &self.tok == want {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, found {:?}", self.tok)))
        }
    }

    fn eat(&mut self, want: &Tok<'_>) -> Result<bool> {
        if &self.tok == want {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.tok {
            Tok::Ident(s) if s == kw => {
                self.advance()?;
                Ok(())
            }
            other => Err(self.err(format!("expected '{kw}', found {other:?}"))),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.tok, Tok::Ident(s) if s == kw)
    }

    fn value_name(&mut self) -> Result<&'a str> {
        match self.tok {
            Tok::Value(n) => {
                self.advance()?;
                Ok(n)
            }
            other => Err(self.err(format!("expected %value, found {other:?}"))),
        }
    }

    fn symbol_name(&mut self) -> Result<&'a str> {
        match self.tok {
            Tok::Symbol(n) => {
                self.advance()?;
                Ok(n)
            }
            other => Err(self.err(format!("expected @symbol, found {other:?}"))),
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
        self.lookup(n)
    }

    // ---------------------------------------------------------------- types

    fn parse_type(&mut self) -> Result<Type> {
        match self.tok {
            Tok::Ident(id) => {
                self.advance()?;
                scalar_type(id).ok_or_else(|| self.err(format!("unknown type '{id}'")))
            }
            Tok::Bang(full) => {
                self.advance()?;
                match full {
                    "hir.time" => Ok(time_type()),
                    "hir.const" => Ok(const_type()),
                    "hir.memref" => self.parse_memref_params(),
                    other => Err(self.err(format!("unknown dialect type !{other}"))),
                }
            }
            other => Err(self.err(format!("expected type, found {other:?}"))),
        }
    }

    /// `<16*16*i32, r, bram>` or with `[2]*` distributed dims.
    fn parse_memref_params(&mut self) -> Result<Type> {
        self.expect(&Tok::Lt)?;
        let mut dims = Vec::new();
        let elem;
        loop {
            match self.tok {
                Tok::Int(n) => {
                    self.advance()?;
                    self.expect(&Tok::Star)?;
                    if n <= 0 {
                        return Err(self.err("memref dims must be positive"));
                    }
                    dims.push(Dim::Packed(n as u64));
                }
                Tok::LBracket => {
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
                    elem = scalar_type(id)
                        .ok_or_else(|| self.err(format!("unknown element type '{id}'")))?;
                    break;
                }
                other => {
                    return Err(self.err(format!(
                        "expected memref dimension (e.g. `16*`) or element type, found {other:?}"
                    )));
                }
            }
        }
        self.expect(&Tok::Comma)?;
        let port = match self.tok {
            Tok::Ident(s) => Port::from_mnemonic(s)
                .ok_or_else(|| self.err(format!("unknown port kind '{s}'")))?,
            other => return Err(self.err(format!("expected port kind, found {other:?}"))),
        };
        self.advance()?;
        self.expect(&Tok::Comma)?;
        let kind = match self.tok {
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
        // (%name, label, type)
        let args: Vec<(&str, &str, Type)> = self.list(Some(Tok::RParen), |p| {
            let vname = p.value_name()?;
            // A `/*label*/` comment right after the value names the port;
            // default to the SSA name.
            let label = p.lexer.last_comment.take().unwrap_or(vname);
            p.expect(&Tok::Colon)?;
            Ok((vname, label, p.parse_type()?))
        })?;
        self.expect(&Tok::RParen)?;
        // Optional result signature `-> (ty delay d, ...)`.
        let mut signature = None;
        if self.eat(&Tok::Arrow)? {
            self.expect(&Tok::LParen)?;
            let at = (self.line, self.col);
            let results = self.list(None, Self::result_with_delay)?;
            signature = Some((results, at));
            self.expect(&Tok::RParen)?;
        }

        let named: Vec<(&str, Type)> = args.iter().map(|(_, l, t)| (*l, t.clone())).collect();
        let result_delays: Vec<i64> = signature.iter().flat_map(|(r, _)| r).map(|r| r.1).collect();
        let f = hb.func(name, &named, &result_delays);
        if let Some((results, (line, col))) = signature {
            self.written.push(WrittenTypes {
                of: Typed::Func(f),
                types: results.into_iter().map(|(ty, _)| ty).collect(),
                line,
                col,
            });
        }
        let formal = f.args(hb.module());
        for ((vname, _, _), v) in args.iter().zip(formal) {
            self.values.insert(vname, v);
        }
        self.values.insert(time_name, f.time_var(hb.module()));
        self.parse_body(hb, f.body(hb.module()))
    }

    fn parse_extern(&mut self, hb: &mut HirBuilder) -> Result<()> {
        let name = self.symbol_name()?;
        self.expect(&Tok::LParen)?;
        let arg_types = self.list(Some(Tok::RParen), Self::parse_type)?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        self.expect(&Tok::LParen)?;
        let results = self.list(Some(Tok::RParen), Self::result_with_delay)?;
        let (result_types, delays): (Vec<Type>, Vec<i64>) = results.into_iter().unzip();
        self.expect(&Tok::RParen)?;
        hb.extern_func(name, &arg_types, &result_types, &delays);
        Ok(())
    }

    /// `type delay d` in a function's result signature.
    fn result_with_delay(&mut self) -> Result<(Type, i64)> {
        let ty = self.parse_type()?;
        self.keyword("delay")?;
        Ok((ty, self.int()?))
    }

    /// `item, item, ...`, empty if the next token is `close` (which is left
    /// in place); with no `close` there is at least one item.
    fn list<T>(
        &mut self,
        close: Option<Tok>,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = Vec::new();
        if close.is_some_and(|c| self.tok == c) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if !self.eat(&Tok::Comma)? {
                return Ok(items);
            }
        }
    }

    // ------------------------------------------------------------------ ops

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
        let mut results: Vec<&'a str> = Vec::new();
        let (line, col) = (self.line, self.col);
        if let Tok::Value(_) = self.tok {
            results.push(self.value_name()?);
            while self.eat(&Tok::Comma)? {
                results.push(self.value_name()?);
            }
            self.expect(&Tok::Eq)?;
        }
        let opword = match self.tok {
            Tok::Ident(s) => s,
            other => return Err(self.err(format!("expected operation, found {other:?}"))),
        };
        self.advance()?;
        let decl = decl::lookup(opword);
        if let (Some(d), Some(name)) = (decl, results.first()) {
            if d.results.is_empty() && d.variadic_results.is_none() {
                let message = format!("{opword} has no results to bind to %{name}");
                return Err(PrettyParseError { line, col, message });
            }
        }
        match decl.and_then(|d| Some((d, d.syntax?))) {
            Some((d, syntax)) => self.parse_syntax(hb, d, syntax, results),
            None if opword.starts_with("hir.") => self.parse_generic(hb, opword, decl, results),
            None => Err(self.err(format!("unknown operation '{opword}'"))),
        }
    }

    fn bind(&mut self, name: &'a str, v: ValueId) -> Result<()> {
        match self.values.entry(name) {
            Entry::Vacant(e) => {
                e.insert(v);
                Ok(())
            }
            Entry::Occupied(e) => Err(PrettyParseError {
                line: self.line,
                col: self.col,
                message: format!("redefinition of %{}", e.key()),
            }),
        }
    }

    fn one_result(&self, results: &[&'a str], what: &str) -> Result<&'a str> {
        if results.len() != 1 {
            return Err(self.err(format!("{what} defines exactly one result")));
        }
        Ok(results[0])
    }

    /// Expect one syntax token: a keyword or a punctuation mark.
    fn expect_token(&mut self, tok: &str) -> Result<()> {
        match syntax_punct(tok) {
            Some(t) => self.expect(&t),
            None => self.keyword(tok),
        }
    }

    /// Comma-separated values. A group followed by a closing bracket may be
    /// empty; otherwise it runs while values follow.
    fn parse_values(&mut self, close: Option<Tok>, vals: &mut Vec<ValueId>) -> Result<()> {
        if close.as_ref().is_some_and(|c| self.tok == *c) {
            return Ok(());
        }
        while close.is_some() || matches!(self.tok, Tok::Value(_)) {
            vals.push(self.use_value()?);
            if !self.eat(&Tok::Comma)? {
                break;
            }
        }
        Ok(())
    }

    /// `{ ops }` into `block`.
    fn parse_body(&mut self, hb: &mut HirBuilder, block: BlockId) -> Result<()> {
        self.expect(&Tok::LBrace)?;
        hb.push_block(block);
        while self.tok != Tok::RBrace {
            self.parse_op(hb)?;
        }
        hb.pop_block();
        self.expect(&Tok::RBrace)
    }

    /// The pieces of `d`'s pretty syntax after its name. The op is built at
    /// its first region (whose body refers to its arguments and results) or
    /// after the last piece.
    fn parse_syntax(
        &mut self,
        hb: &mut HirBuilder,
        d: &OpDecl,
        syntax: &[Piece],
        results: Vec<&'a str>,
    ) -> Result<()> {
        if d.single_result() {
            self.one_result(&results, d.name)?;
        }
        let mut parts = Parts {
            results,
            at: (self.line, self.col),
            ..Parts::default()
        };
        let mut op = None;
        for (i, piece) in syntax.iter().enumerate() {
            match *piece {
                Piece::Sp(tok) | Piece::Tight(tok) => self.expect_token(tok)?,
                Piece::Operand(_) => parts.operands.push(self.use_value()?),
                Piece::Operands(_) => {
                    let close = match syntax.get(i + 1) {
                        Some(Piece::Tight(tok)) => syntax_punct(tok),
                        _ => None,
                    };
                    self.parse_values(close, &mut parts.operands)?;
                }
                Piece::Offset => {
                    let mut offset = 0;
                    if self.is_keyword("offset") {
                        self.advance()?;
                        offset = self.parse_offset_amount()?;
                    }
                    parts.int(attrkey::OFFSET, offset);
                }
                Piece::Int(key) => {
                    let v = self.int()?;
                    parts.int(key, v);
                }
                Piece::Amount(key) => {
                    let v = self.parse_offset_amount()?;
                    parts.int(key, v);
                }
                Piece::Symbol(key) => {
                    let callee = self.symbol_name()?;
                    parts.attrs.insert(key.into(), Attribute::symbol(callee));
                }
                Piece::Literal(key) => {
                    let v = self.int()?;
                    self.expect(&Tok::Colon)?;
                    parts.written.push(self.parse_type()?);
                    parts.literal = Some((key, v));
                }
                Piece::Arg(_) => parts.args.push(self.value_name()?),
                Piece::ArgType => parts.written.push(self.parse_type()?),
                Piece::ResultType => {
                    // The result type follows from the operands; a written
                    // one must agree with it.
                    if self.eat(&Tok::Colon)? {
                        let at = (self.line, self.col);
                        parts.result_type = Some((self.parse_type()?, at));
                    }
                }
                Piece::ResultTypes => {
                    if self.eat(&Tok::LParen)? {
                        parts.written = self.list(None, Self::parse_type)?;
                        self.expect(&Tok::RParen)?;
                    } else {
                        parts.written.push(self.parse_type()?);
                    }
                }
                Piece::Region => {
                    let op = match op {
                        Some(op) => op,
                        None => *op.insert(self.build(hb, d, &mut parts)?),
                    };
                    let region = hb.module().op(op).regions()[0];
                    let block = hb.module().region(region).blocks()[0];
                    self.parse_body(hb, block)?;
                }
                Piece::OptRegion(kw) => {
                    if let (Some(op), true) = (op, self.is_keyword(kw)) {
                        self.advance()?;
                        let block = hb.add_region_block(op);
                        self.parse_body(hb, block)?;
                    }
                }
            }
        }
        if op.is_none() {
            self.build(hb, d, &mut parts)?;
        }
        Ok(())
    }

    /// Build `d`'s op from its parsed parts, then bind the body arguments
    /// and the results to their names.
    fn build(&mut self, hb: &mut HirBuilder, d: &OpDecl, parts: &mut Parts<'a>) -> Result<OpId> {
        let results = take(&mut parts.results);
        if let Some((_, _, Ty::Ports)) = d.variadic_results {
            if parts.written.len() != results.len() {
                return Err(self.err(format!(
                    "{} binds {} results but lists {} port types",
                    d.name,
                    results.len(),
                    parts.written.len()
                )));
            }
        }
        // Index and `!hir.const` constants are pooled by the builder.
        let pooled = d.traits & traits::CONSTANT_LIKE != 0
            && parts
                .written
                .first()
                .is_some_and(|t| is_const(t) || t.is_index());
        // A call takes its callee's result types; a call to a function
        // defined later takes placeholders until the module is read.
        let mut forward = false;
        if let Some((_, _, Ty::Callee)) = d.variadic_results {
            let callee = parts.attrs[attrkey::CALLEE]
                .as_symbol()
                .expect("parsed callee");
            parts.written = match FuncOp::find(hb.module(), callee) {
                Some(f) => f.result_types(hb.module()),
                None => {
                    forward = true;
                    vec![Type::none(); results.len()]
                }
            };
        }
        let op = if let (true, Some((_, v))) = (pooled, parts.literal) {
            let c = hb.const_val(v);
            hb.module().defining_op(c).expect("constant op")
        } else {
            if let (Some((key, v)), Some(ty)) = (parts.literal, parts.written.first()) {
                let value = Attribute::Int(v as i128, ty.clone());
                parts.attrs.insert(key.into(), value);
            }
            let (operands, attrs) = (take(&mut parts.operands), take(&mut parts.attrs));
            hb.create(d, operands, attrs, take(&mut parts.written))
                .map_err(|e| self.err(e))?
        };
        let m = hb.module();
        let args = match m.op(op).regions().first() {
            Some(&r) => m.block(m.region(r).blocks()[0]).args(),
            None => &[],
        };
        let vals = m.op(op).results();
        if forward {
            self.forward.push((op, parts.at.0, parts.at.1));
        } else if let Some((_, _, Ty::Callee)) = d.variadic_results {
            if vals.len() != results.len() {
                let callee = m.op(op).attr(attrkey::CALLEE).expect("parsed callee");
                return Err(self.err(format!(
                    "{callee} returns {} values but {} results are bound",
                    vals.len(),
                    results.len()
                )));
            }
        }
        for (name, &v) in take(&mut parts.args).into_iter().zip(args) {
            self.bind(name, v)?;
        }
        for (name, &v) in results.into_iter().zip(vals) {
            self.bind(name, v)?;
        }
        if let Some((ty, (line, col))) = parts.result_type.take() {
            self.written.push(WrittenTypes {
                of: Typed::Op(op),
                types: vec![ty],
                line,
                col,
            });
        }
        Ok(op)
    }

    /// Once the module is read, type the results of calls to functions
    /// defined after them as the callee's results, and retype what follows
    /// from those types (other calls, and results typed by their first
    /// operand) until nothing changes. Returns the calls whose callee is
    /// missing or returns a different number of values.
    fn resolve_forward_calls(&self, m: &mut Module) -> Vec<PrettyParseError> {
        if self.forward.is_empty() {
            return Vec::new();
        }
        let table = SymbolTable::build(m);
        let callee_types = |m: &Module, op: OpId| {
            let f = table.lookup(&CallOp(op).callee(m))?;
            let types = FuncOp(f).result_types(m);
            (types.len() == m.op(op).results().len()).then_some(types)
        };
        let mut errors = Vec::new();
        for &(op, line, col) in &self.forward {
            let callee = CallOp(op).callee(m);
            let message = match table.lookup(&callee) {
                None => format!("call to undefined function '@{callee}'"),
                Some(f) => {
                    let (n, bound) = (FuncOp(f).result_types(m).len(), m.op(op).results().len());
                    if n == bound {
                        continue;
                    }
                    format!("@{callee} returns {n} values but {bound} results are bound")
                }
            };
            errors.push(PrettyParseError { line, col, message });
        }
        let ops = m.collect_all_ops();
        for _ in 0..=table.len() {
            let mut changed = false;
            for &op in &ops {
                let d = decl::lookup(m.op(op).name().as_str());
                let variadic = d.and_then(|d| d.variadic_results.map(|(_, _, ty)| ty));
                let types = match variadic.or(d.and_then(|d| Some(d.results.first()?.1))) {
                    Some(Ty::Callee) => callee_types(m, op),
                    Some(Ty::OfFirstOperand) => Some(vec![m.value_type(m.op(op).operands()[0])]),
                    _ => None,
                };
                let results = m.op(op).results().to_vec();
                for (r, ty) in results.into_iter().zip(types.unwrap_or_default()) {
                    if m.value_type(r) != ty {
                        m.set_value_type(r, ty);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        errors
    }

    /// Every written type that disagrees with the type the module derived.
    /// Types still unresolved (calls to undefined functions, reported by
    /// [`Self::resolve_forward_calls`]) are not compared.
    fn check_written_types(&self, m: &Module) -> Vec<PrettyParseError> {
        let list = |types: &[Type]| {
            let types: Vec<String> = types.iter().map(Type::to_string).collect();
            format!("({})", types.join(", "))
        };
        let mut errors = Vec::new();
        for w in &self.written {
            let actual: Vec<Type> = match w.of {
                Typed::Func(f) => f.result_types(m),
                Typed::Op(op) => m
                    .op(op)
                    .results()
                    .iter()
                    .map(|&r| m.value_type(r))
                    .collect(),
            };
            if actual == w.types || actual.contains(&Type::none()) {
                continue;
            }
            let message = match w.of {
                Typed::Func(f) => format!(
                    "@{} declares results {} but returns {}",
                    f.name(m),
                    list(&w.types),
                    list(&actual)
                ),
                Typed::Op(op) => format!(
                    "{} result is {}, not the written {}",
                    m.op(op).name(),
                    actual[0],
                    w.types[0]
                ),
            };
            errors.push(PrettyParseError {
                line: w.line,
                col: w.col,
                message,
            });
        }
        errors
    }

    /// The generic form of ops without a pretty syntax:
    /// `%r = hir.add (%a, %b) : (i32, i32) -> (i32)`, with a `{pred}` or
    /// `{hi:lo}` trailer for the ops that require those attributes.
    fn parse_generic(
        &mut self,
        hb: &mut HirBuilder,
        opword: &str,
        d: Option<&OpDecl>,
        results: Vec<&'a str>,
    ) -> Result<()> {
        let name = self.one_result(&results, opword)?;
        self.expect(&Tok::LParen)?;
        let mut operands = Vec::new();
        self.parse_values(Some(Tok::RParen), &mut operands)?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Colon)?;
        self.expect(&Tok::LParen)?;
        self.list(Some(Tok::RParen), Self::parse_type)?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        self.expect(&Tok::LParen)?;
        let out_ty = self.parse_type()?;
        self.expect(&Tok::RParen)?;

        // Optional `{eq}` / `{7:4}` trailer.
        let mut attrs = AttrMap::new();
        if self.eat(&Tok::LBrace)? {
            match self.tok {
                Tok::Ident(p) => {
                    self.advance()?;
                    let pred = CmpPredicate::from_mnemonic(p)
                        .ok_or_else(|| self.err(format!("unknown predicate '{p}'")))?;
                    attrs.insert(
                        attrkey::PREDICATE.into(),
                        Attribute::string(pred.mnemonic()),
                    );
                }
                Tok::Int(hi) => {
                    self.advance()?;
                    self.expect(&Tok::Colon)?;
                    let lo = self.int()?;
                    attrs.insert(attrkey::HI.into(), Attribute::index(hi as i128));
                    attrs.insert(attrkey::LO.into(), Attribute::index(lo as i128));
                }
                _ => return Err(self.err("expected predicate or slice bounds")),
            }
            self.expect(&Tok::RBrace)?;
        }
        let requires = |key: &str| d.is_some_and(|d| d.requires(key)) && !attrs.contains_key(key);
        if requires(attrkey::PREDICATE) {
            return Err(self.err(format!("{opword} requires a {{predicate}}")));
        }
        if requires(attrkey::HI) {
            return Err(self.err(format!("{opword} requires {{hi:lo}} bounds")));
        }
        let v = hb.raw_op(opword, operands, vec![out_ty], attrs);
        self.bind(name, v)
    }
}

/// What [`Parser::parse_syntax`] collects for the builder.
#[derive(Default)]
struct Parts<'a> {
    operands: Vec<ValueId>,
    attrs: AttrMap,
    /// Types written in the source, in order.
    written: Vec<Type>,
    /// Names of the first region's entry-block arguments.
    args: Vec<&'a str>,
    /// Names bound to the results.
    results: Vec<&'a str>,
    /// Position of the first piece.
    at: (u32, u32),
    /// A typed constant's attribute and value (its type is written).
    literal: Option<(&'static str, i64)>,
    /// The written `: type` of a [`Piece::ResultType`], with its position.
    result_type: Option<(Type, (u32, u32))>,
}

impl Parts<'_> {
    fn int(&mut self, key: &str, v: i64) {
        self.attrs.insert(key.into(), Attribute::index(v as i128));
    }
}

/// The token of a one-character punctuation mark.
fn punct(c: u8) -> Option<Tok<'static>> {
    Some(match c {
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b'[' => Tok::LBracket,
        b']' => Tok::RBracket,
        b'<' => Tok::Lt,
        b'>' => Tok::Gt,
        b':' => Tok::Colon,
        b',' => Tok::Comma,
        b'=' => Tok::Eq,
        b'*' => Tok::Star,
        _ => return None,
    })
}

/// The token of an op syntax's punctuation mark (`None` for keywords).
fn syntax_punct(tok: &str) -> Option<Tok<'static>> {
    match tok.as_bytes() {
        &[c] => punct(c),
        _ => None,
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
        // A negative constant's name must parse back too.
        let minus_one = hb.typed_const(-1, Type::int(32));
        let s = hb.add(d, minus_one);
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
    fn written_types_that_disagree_are_positioned_errors() {
        let cases = [
            (
                "hir.func @f at %t(%x : i32) -> (i8 delay 0) {\n  hir.return %x\n}",
                (1, 33),
                "@f declares results (i8) but returns (i32)",
            ),
            (
                "hir.func @f at %t(%A : !hir.memref<4*i32, r, reg>) {\n  \
                 %c0 = hir.constant 0 : index\n  \
                 %v = hir.mem_read %A[%c0] at %t offset 0 : i8\n  hir.return\n}",
                (3, 46),
                "hir.mem_read result is i32, not the written i8",
            ),
            (
                "hir.func @f at %t(%x : i32) {\n  \
                 %d = hir.delay %x by 1 at %t offset 0 : i8\n  hir.return\n}",
                (2, 43),
                "hir.delay result is i32, not the written i8",
            ),
            (
                "hir.func @f at %t() {\n  %x = hir.yield at %t offset 1\n}",
                (2, 3),
                "hir.yield has no results to bind to %x",
            ),
        ];
        for (src, at, message) in cases {
            let err = parse_pretty(src).unwrap_err();
            assert_eq!((err.line, err.col), at, "{err}");
            assert_eq!(err.message, message);
            let r = parse_pretty_recover(src, 0);
            assert_eq!(r.errors, vec![err]);
        }
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
    fn undefined_callee_is_a_positioned_error() {
        let src = "hir.func @f at %t(%a : i32) {\n  %r = hir.call @nope(%a) at %t offset 0\n  hir.return\n}\n";
        let err = parse_pretty(src).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.message.as_str()),
            (2, 17, "call to undefined function '@nope'")
        );
        let r = parse_pretty_recover(src, 0);
        assert_eq!(r.errors, vec![err]);
    }

    #[test]
    fn mem_read_of_a_non_memref_is_a_positioned_error() {
        let src = "hir.func @f at %t(%a : i32) {\n  %v = hir.mem_read %a[] at %t offset 0 : i32\n  hir.return\n}\n";
        let err = parse_pretty(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(
            err.message,
            "hir.mem_read memory operand must be a memref, got i32"
        );
    }

    #[test]
    fn forward_calls_take_the_callees_result_types() {
        // The callee follows its caller, and a delay carries the call's
        // result: both are typed once the module is read.
        let src = r#"
hir.func @caller at %t(%a : i32) -> (i8 delay 2) {
  %m = hir.call @narrow(%a) at %t offset 0
  %d = hir.delay %m by 1 at %t offset 1 : i8
  hir.return %d
}
hir.func @narrow at %t(%x : i32) -> (i8 delay 1) {
  %y = hir.trunc (%x) : (i32) -> (i8)
  %z = hir.delay %y by 1 at %t offset 0 : i8
  hir.return %z
}
"#;
        let m = parse_pretty(src).unwrap_or_else(|e| panic!("{e}"));
        let mut diags = ir::DiagnosticEngine::new();
        ir::verify_module(&m, &crate::hir_registry(), &mut diags)
            .unwrap_or_else(|_| panic!("{}", diags.render()));
        let caller = crate::ops::FuncOp(m.top_ops()[0]);
        assert_eq!(caller.result_types(&m), vec![Type::int(8)]);
        let text = pretty_module(&m);
        assert_eq!(text, pretty_module(&parse_pretty(&text).unwrap()));

        let err = parse_pretty(&src.replace("%m = hir.call", "%m, %n = hir.call")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (3, "@narrow returns 1 values but 2 results are bound")
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
