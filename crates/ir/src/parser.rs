//! Parser for the generic textual form produced by [`crate::printer`].
//!
//! The IR is round-trippable: `parse_module(print_module(m))` reconstructs an
//! isomorphic module. Errors carry line/column positions.
//!
//! One recursive-descent pass over one token stream builds straight into the
//! [`Module`]. An op is created as soon as its operands are read, with
//! placeholder result types that its trailing signature overwrites, so its
//! regions parse directly into it and every op is created after its parent,
//! in source order. Tokens borrow from the source.

use crate::attributes::{AttrMap, Attribute};
use crate::location::Location;
use crate::module::{Module, OpId, RegionId, ValueId};
use crate::types::Type;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

// --------------------------------------------------------------------- lexer

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Percent(usize),     // %12
    Str(&'a str),       // "hir.for", escapes still in (see `unescape`)
    Int(i128),          // 42, -3
    Float(f64),         // 2.0
    Ident(&'a str),     // value, i32, unit, bb
    BangIdent(&'a str), // !hir.memref  (stored as "hir.memref")
    AtIdent(&'a str),   // @main
    Caret,              // ^
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
    Arrow, // ->
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                // Line comments: `//` to end of line.
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek_byte() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_ident(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek_byte() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                self.bump();
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    fn next(&mut self) -> Result<(Tok<'a>, u32, u32)> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match b {
            b'%' => {
                self.bump();
                let id = self.lex_ident();
                let n = id
                    .parse::<usize>()
                    .map_err(|_| self.err(format!("invalid value id %{id}")))?;
                Tok::Percent(n)
            }
            b'@' => {
                self.bump();
                Tok::AtIdent(self.lex_ident())
            }
            b'!' => {
                self.bump();
                Tok::BangIdent(self.lex_ident())
            }
            b'^' => {
                self.bump();
                self.lex_ident(); // consume the block label, unused
                Tok::Caret
            }
            b'"' => {
                self.bump();
                let start = self.pos;
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        // Skip the escaped byte; at EOF the next bump fails.
                        Some(b'\\') => {
                            self.bump();
                        }
                        Some(_) => {}
                        None => return Err(self.err("unterminated string")),
                    }
                }
                // Both quotes are ASCII, so the slice is whole characters.
                Tok::Str(&self.src[start..self.pos - 1])
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
            b'-' => {
                self.bump();
                if self.peek_byte() == Some(b'>') {
                    self.bump();
                    Tok::Arrow
                } else {
                    return self.lex_number(true).map(|t| (t, line, col));
                }
            }
            b'0'..=b'9' => return self.lex_number(false).map(|t| (t, line, col)),
            _ if b.is_ascii_alphabetic() || b == b'_' => Tok::Ident(self.lex_ident()),
            other => return Err(self.err(format!("unexpected character '{}'", other as char))),
        };
        Ok((tok, line, col))
    }

    fn lex_number(&mut self, negative: bool) -> Result<Tok<'a>> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek_byte() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !is_float
                    && matches!(self.src.as_bytes().get(self.pos + 1), Some(c) if c.is_ascii_digit()) =>
                {
                    is_float = true;
                    self.bump();
                }
                b'e' | b'E' if is_float => {
                    self.bump();
                    if matches!(self.peek_byte(), Some(b'-' | b'+')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() {
            return Err(self.err("expected number"));
        }
        if is_float {
            let v: f64 = text.parse().map_err(|_| self.err("invalid float"))?;
            Ok(Tok::Float(if negative { -v } else { v }))
        } else {
            let v: i128 = text.parse().map_err(|_| self.err("invalid integer"))?;
            Ok(Tok::Int(if negative { -v } else { v }))
        }
    }
}

/// The text of a string token with its `\n`, `\t` and `\<char>` escapes
/// resolved; borrowed when it has none.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(e) => e,
                // The lexer never ends a string on an unpaired backslash.
                None => break,
            },
            c => c,
        });
    }
    Cow::Owned(out)
}

// -------------------------------------------------------------------- parser

/// Parse a module from its generic textual form.
///
/// # Errors
/// Returns a [`ParseError`] with position info on malformed input.
pub fn parse_module(src: &str) -> Result<Module> {
    let mut p = Parser::new(src);
    p.advance()?;
    while p.tok != Tok::Eof {
        let op = p.parse_top_op()?;
        p.module.push_top(op);
    }
    Ok(p.module)
}

/// Default cap on recorded errors in recovery mode (MLIR uses a similar
/// bound to keep cascades readable).
pub const DEFAULT_ERROR_LIMIT: usize = 20;

/// Outcome of [`parse_module_recover`]: whatever parsed plus every error.
#[derive(Debug)]
pub struct RecoveredParse {
    /// Ops that parsed cleanly. Only meaningful when `errors` is empty —
    /// with errors present it is a best-effort partial module.
    pub module: Module,
    /// All parse errors, in source order.
    pub errors: Vec<ParseError>,
    /// Recovery stopped early because `error_limit` was reached.
    pub hit_error_limit: bool,
}

/// Parse with error recovery: on a parse failure, record the error,
/// synchronize to the next top-level operation boundary, and continue, so
/// one run reports every error in the file instead of bailing at the first.
///
/// `error_limit` caps the number of recorded errors (0 means
/// [`DEFAULT_ERROR_LIMIT`]).
pub fn parse_module_recover(src: &str, error_limit: usize) -> RecoveredParse {
    let limit = if error_limit == 0 {
        DEFAULT_ERROR_LIMIT
    } else {
        error_limit
    };
    let mut errors = Vec::new();
    let mut p = Parser::new(src);
    p.advance_lenient(&mut errors);
    let mut hit_error_limit = false;
    while p.tok != Tok::Eof {
        if errors.len() >= limit {
            hit_error_limit = true;
            break;
        }
        let op_start_line = p.line;
        match p.parse_top_op() {
            Ok(op) => p.module.push_top(op),
            Err(e) => {
                errors.push(e);
                p.synchronize(op_start_line, &mut errors);
            }
        }
    }
    errors.truncate(limit);
    if errors.len() >= limit && p.tok != Tok::Eof {
        hit_error_limit = true;
    }
    RecoveredParse {
        module: p.module,
        errors,
        hit_error_limit,
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok<'a>,
    line: u32,
    col: u32,
    module: Module,
    /// Value names in scope.
    values: HashMap<usize, ValueId>,
    /// Every binding of `values` with the one it shadowed, so a region's
    /// names go out of scope when it closes.
    shadowed: Vec<(usize, Option<ValueId>)>,
    /// `{` consumed and not yet closed since the current top-level op began.
    open_braces: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned before the first token: call
    /// [`Parser::advance`] or [`Parser::advance_lenient`] to read it.
    fn new(src: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(src),
            tok: Tok::Eof,
            line: 1,
            col: 1,
            module: Module::new(),
            values: HashMap::new(),
            shadowed: Vec::new(),
            open_braces: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn step(&mut self, (tok, line, col): (Tok<'a>, u32, u32)) {
        match self.tok {
            Tok::LBrace => self.open_braces += 1,
            Tok::RBrace => self.open_braces = self.open_braces.saturating_sub(1),
            _ => {}
        }
        self.tok = tok;
        self.line = line;
        self.col = col;
    }

    fn advance(&mut self) -> Result<()> {
        let next = self.lexer.next()?;
        self.step(next);
        Ok(())
    }

    /// Advance, recording (rather than returning) lexer errors and skipping
    /// the offending bytes. Used during error recovery, where the parser
    /// must always make progress.
    fn advance_lenient(&mut self, errors: &mut Vec<ParseError>) {
        loop {
            match self.lexer.next() {
                Ok(next) => return self.step(next),
                Err(e) => {
                    errors.push(e);
                    self.lexer.bump();
                }
            }
        }
    }

    /// Skip to a plausible start of the next top-level operation: a `%N` or
    /// quoted op name outside any delimiter nesting, on a line after
    /// `from_line` (the line the failed op started on). Closers beyond the
    /// error's nesting are consumed on the way. An error inside braces (a
    /// region or an attribute dictionary) first skips to the brace that
    /// closes them, and lines count from there, so recovery resumes after
    /// the enclosing top-level op rather than inside it.
    fn synchronize(&mut self, mut from_line: u32, errors: &mut Vec<ParseError>) {
        let mut braces = self.open_braces;
        let mut depth: i64 = 0;
        loop {
            match self.tok {
                Tok::Eof => return,
                Tok::LBrace if braces > 0 => braces += 1,
                Tok::RBrace if braces > 0 => {
                    braces -= 1;
                    from_line = self.line;
                }
                _ if braces > 0 => {}
                Tok::LParen | Tok::LBrace | Tok::LBracket => depth += 1,
                Tok::RParen | Tok::RBrace | Tok::RBracket => depth -= 1,
                Tok::Percent(_) | Tok::Str(_) if depth <= 0 && self.line > from_line => return,
                _ => {}
            }
            self.advance_lenient(errors);
        }
    }

    fn expect(&mut self, want: Tok<'a>) -> Result<()> {
        if self.tok == want {
            self.advance()
        } else {
            Err(self.err(format!("expected {want:?}, found {:?}", self.tok)))
        }
    }

    fn eat(&mut self, want: Tok<'a>) -> Result<bool> {
        let found = self.tok == want;
        if found {
            self.advance()?;
        }
        Ok(found)
    }

    /// `item (, item)*` up to and including `close`; empty when `close`
    /// comes first.
    fn parse_list<T>(
        &mut self,
        close: Tok<'a>,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = Vec::new();
        if self.tok != close {
            loop {
                items.push(item(self)?);
                if !self.eat(Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(close)?;
        Ok(items)
    }

    fn bind(&mut self, name: usize, v: ValueId) {
        let old = self.values.insert(name, v);
        self.shadowed.push((name, old));
    }

    /// Undo every binding made since `shadowed` had length `mark`.
    fn unbind_to(&mut self, mark: usize) {
        for (name, old) in self.shadowed.drain(mark..).rev() {
            match old {
                Some(v) => self.values.insert(name, v),
                None => self.values.remove(&name),
            };
        }
    }

    /// A top-level op; if it fails, the names it bound go out of scope.
    fn parse_top_op(&mut self) -> Result<OpId> {
        self.open_braces = 0;
        let mark = self.shadowed.len();
        let op = self.parse_op();
        if op.is_err() {
            self.unbind_to(mark);
        }
        op
    }

    /// op := (%N (, %N)* `=`)? "name" `(` uses `)` regions? attrs? `:` functype loc?
    fn parse_op(&mut self) -> Result<OpId> {
        // Anchor for undefined operands, reported at the op they break.
        let (op_line, op_col) = (self.line, self.col);
        let mut result_ids = Vec::new();
        if let Tok::Percent(n) = self.tok {
            result_ids.push(n);
            self.advance()?;
            while self.eat(Tok::Comma)? {
                let Tok::Percent(n) = self.tok else {
                    return Err(self.err("expected result value after ','"));
                };
                result_ids.push(n);
                self.advance()?;
            }
            self.expect(Tok::Eq)?;
        }
        let Tok::Str(name) = self.tok else {
            return Err(self.err("expected quoted op name"));
        };
        let name = unescape(name);
        self.advance()?;

        self.expect(Tok::LParen)?;
        let operand_ids = self.parse_list(Tok::RParen, |p| match p.tok {
            Tok::Percent(n) => p.advance().map(|()| n),
            _ => Err(p.err("expected operand value")),
        })?;
        let operands = operand_ids
            .iter()
            .map(|n| {
                self.values.get(n).copied().ok_or_else(|| ParseError {
                    line: op_line,
                    col: op_col,
                    message: format!("use of undefined value %{n} in op '{name}'"),
                })
            })
            .collect::<Result<_>>()?;

        // Create the op now so its regions can be built into it; the result
        // types are read from the signature after them.
        let placeholders = vec![Type::none(); result_ids.len()];
        let op = self.module.create_op(
            name.as_ref(),
            operands,
            placeholders,
            AttrMap::new(),
            Location::unknown(),
        );
        let results = self.module.op(op).results().to_vec();
        for (&n, &v) in result_ids.iter().zip(&results) {
            self.bind(n, v);
        }

        if self.eat(Tok::LParen)? {
            loop {
                self.parse_region(op)?;
                if !self.eat(Tok::Comma)? {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }

        if self.eat(Tok::LBrace)? {
            self.parse_list(Tok::RBrace, |p| {
                let Tok::Ident(key) = p.tok else {
                    return Err(p.err("expected attribute name"));
                };
                p.advance()?;
                p.expect(Tok::Eq)?;
                let val = p.parse_attr()?;
                p.module.set_attr(op, key, val);
                Ok(())
            })?;
        }

        self.expect(Tok::Colon)?;
        let (operand_types, result_types) = self.parse_signature()?;

        if self.tok == Tok::Ident("loc") {
            self.advance()?;
            self.expect(Tok::LParen)?;
            let Tok::Str(file) = self.tok else {
                return Err(self.err("expected file string in loc"));
            };
            self.advance()?;
            self.expect(Tok::Colon)?;
            let line = self.parse_u32()?;
            self.expect(Tok::Colon)?;
            let col = self.parse_u32()?;
            self.expect(Tok::RParen)?;
            let loc = Location::file_line_col(unescape(file), line, col);
            self.module.set_loc(op, loc);
        }

        if operand_ids.len() != operand_types.len() {
            return Err(self.err(format!(
                "op '{name}' has {} operands but {} operand types",
                operand_ids.len(),
                operand_types.len()
            )));
        }
        if result_ids.len() != result_types.len() {
            return Err(self.err(format!(
                "op '{name}' binds {} results but lists {} result types",
                result_ids.len(),
                result_types.len()
            )));
        }
        for (v, ty) in results.into_iter().zip(result_types) {
            self.module.set_value_type(v, ty);
        }
        Ok(op)
    }

    /// region := `{` block* `}` with block := (`^label(` args `):`)? op*,
    /// built into a new region of `op`. Names bound inside go out of scope
    /// at its end, whether or not it parsed.
    fn parse_region(&mut self, op: OpId) -> Result<()> {
        self.expect(Tok::LBrace)?;
        let region = self.module.add_region(op);
        let mark = self.shadowed.len();
        let blocks = self.parse_blocks(region);
        self.unbind_to(mark);
        blocks
    }

    fn parse_blocks(&mut self, region: RegionId) -> Result<()> {
        let mut block = None;
        loop {
            match self.tok {
                Tok::RBrace => return self.advance(),
                Tok::Caret => {
                    self.advance()?;
                    self.expect(Tok::LParen)?;
                    let args = self.parse_list(Tok::RParen, |p| {
                        let Tok::Percent(n) = p.tok else {
                            return Err(p.err("expected block argument"));
                        };
                        p.advance()?;
                        p.expect(Tok::Colon)?;
                        Ok((n, p.parse_type()?))
                    })?;
                    self.expect(Tok::Colon)?;
                    let (names, types): (Vec<usize>, Vec<Type>) = args.into_iter().unzip();
                    let b = self.module.add_block(region, types);
                    for (i, n) in names.into_iter().enumerate() {
                        let v = self.module.block(b).args()[i];
                        self.bind(n, v);
                    }
                    block = Some(b);
                }
                Tok::Eof => return Err(self.err("unterminated region")),
                _ => {
                    // Ops before any `^label` form an argument-less block.
                    let b = match block {
                        Some(b) => b,
                        None => *block.insert(self.module.add_block(region, Vec::new())),
                    };
                    let op = self.parse_op()?;
                    self.module.append_op(b, op);
                }
            }
        }
    }

    fn parse_u32(&mut self) -> Result<u32> {
        match self.tok {
            Tok::Int(v) if v >= 0 && v <= u32::MAX as i128 => {
                self.advance()?;
                Ok(v as u32)
            }
            _ => Err(self.err("expected integer")),
        }
    }

    /// `(` types `)` `->` `(` types `)`: an op signature or function type.
    fn parse_signature(&mut self) -> Result<(Vec<Type>, Vec<Type>)> {
        self.expect(Tok::LParen)?;
        let inputs = self.parse_list(Tok::RParen, Self::parse_type)?;
        self.expect(Tok::Arrow)?;
        self.expect(Tok::LParen)?;
        let results = self.parse_list(Tok::RParen, Self::parse_type)?;
        Ok((inputs, results))
    }

    fn parse_attr(&mut self) -> Result<Attribute> {
        let attr = match self.tok {
            Tok::Ident("unit") => Attribute::Unit,
            Tok::Ident("true") => Attribute::Bool(true),
            Tok::Ident("false") => Attribute::Bool(false),
            Tok::Int(v) => {
                self.advance()?;
                self.expect(Tok::Colon)?;
                return Ok(Attribute::Int(v, self.parse_type()?));
            }
            Tok::Float(v) => {
                self.advance()?;
                self.expect(Tok::Colon)?;
                return Ok(Attribute::Float(v, self.parse_type()?));
            }
            Tok::Str(s) => Attribute::String(unescape(s).into_owned()),
            Tok::AtIdent(s) => Attribute::SymbolRef(s.to_string()),
            Tok::LBracket => {
                self.advance()?;
                return Ok(Attribute::Array(
                    self.parse_list(Tok::RBracket, Self::parse_attr)?,
                ));
            }
            Tok::LBrace => {
                self.advance()?;
                let mut dict = BTreeMap::new();
                self.parse_list(Tok::RBrace, |p| {
                    let Tok::Ident(key) = p.tok else {
                        return Err(p.err("expected dict key"));
                    };
                    p.advance()?;
                    p.expect(Tok::Eq)?;
                    dict.insert(key.to_string(), p.parse_attr()?);
                    Ok(())
                })?;
                return Ok(Attribute::Dict(dict));
            }
            _ => return self.parse_type().map(Attribute::Type),
        };
        self.advance()?;
        Ok(attr)
    }

    fn parse_type(&mut self) -> Result<Type> {
        match self.tok {
            Tok::Ident(id) => {
                self.advance()?;
                if id == "tuple" {
                    self.expect(Tok::Lt)?;
                    return Ok(Type::tuple(self.parse_list(Tok::Gt, Self::parse_type)?));
                }
                scalar_type(id).ok_or_else(|| self.err(format!("unknown type '{id}'")))
            }
            Tok::BangIdent(full) => {
                self.advance()?;
                let (dialect, mnemonic) = full
                    .split_once('.')
                    .ok_or_else(|| self.err(format!("malformed dialect type !{full}")))?;
                let params = if self.eat(Tok::Lt)? {
                    self.parse_list(Tok::Gt, Self::parse_attr)?
                } else {
                    Vec::new()
                };
                Ok(Type::dialect(dialect, mnemonic, params))
            }
            Tok::LParen => {
                let (inputs, results) = self.parse_signature()?;
                Ok(Type::function(inputs, results))
            }
            _ => Err(self.err(format!("expected type, found {:?}", self.tok))),
        }
    }
}

fn scalar_type(id: &str) -> Option<Type> {
    match id {
        "index" => return Some(Type::index()),
        "none" => return Some(Type::none()),
        "f32" => return Some(Type::f32()),
        "f64" => return Some(Type::f64()),
        _ => {}
    }
    for (prefix, mk) in [
        ("si", Type::signed_int as fn(u32) -> Type),
        ("ui", Type::unsigned_int as fn(u32) -> Type),
        ("i", Type::int as fn(u32) -> Type),
    ] {
        if let Some(rest) = id.strip_prefix(prefix) {
            if let Ok(width) = rest.parse::<u32>() {
                if width > 0 {
                    return Some(mk(width));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    #[test]
    fn parse_flat_op() {
        let m = parse_module("%0 = \"hir.constant\"() {value = 16 : index} : () -> (index)\n")
            .expect("parse");
        assert_eq!(m.top_ops().len(), 1);
        let op = m.top_ops()[0];
        assert_eq!(m.op(op).name().as_str(), "hir.constant");
        assert_eq!(m.op(op).attr("value"), Some(&Attribute::index(16)));
    }

    #[test]
    fn roundtrip_nested() {
        let src = r#"
%0 = "hir.constant"() {value = 0 : index} : () -> (index)
"t.func"(%0) ({
^bb(%1: i32, %2: !hir.time):
  %3 = "t.add"(%1, %1) : (i32, i32) -> (i32)
  "t.yield"(%2) : (!hir.time) -> ()
}) {sym_name = "main"} : (index) -> ()
"#;
        let m = parse_module(src).expect("parse");
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("reparse");
        assert_eq!(printed, print_module(&m2), "round-trip must be a fixpoint");
        assert!(printed.contains("!hir.time"));
    }

    #[test]
    fn parse_dialect_type_params() {
        let src = r#"%0 = "x.a"() : () -> (!hir.memref<[16 : index, 16 : index], i32, "r">)"#;
        let m = parse_module(src).expect("parse");
        let v = m.op(m.top_ops()[0]).results()[0];
        let t = m.value_type(v);
        assert!(t.is_dialect("hir", "memref"));
        assert_eq!(t.dialect_params().unwrap().len(), 3);
    }

    #[test]
    fn undefined_value_is_error() {
        let err = parse_module("\"x.a\"(%7) : (i32) -> ()").unwrap_err();
        assert!(err.message.contains("undefined value %7"), "{err}");
    }

    #[test]
    fn utf8_strings_round_trip() {
        let src = "\"x.c\"() {note = \"café\"} : () -> ()\n";
        let m = parse_module(src).expect("parse");
        assert_eq!(
            m.op(m.top_ops()[0]).attr("note"),
            Some(&Attribute::String("café".into()))
        );
        let printed = print_module(&m);
        assert!(printed.contains(r#"note = "café""#), "{printed}");
        assert_eq!(printed, print_module(&parse_module(&printed).unwrap()));
    }

    #[test]
    fn region_names_go_out_of_scope_at_its_end() {
        // `%2` is defined in @f's body; @g must not see it.
        let src = r#""hir.func"() ({
^bb(%0: i32, %1: !hir.time):
  %2 = "hir.add"(%0, %0) : (i32, i32) -> (i32)
  "hir.return"(%2) : (i32) -> ()
}) {sym_name = "f"} : () -> ()
"hir.func"() ({
^bb(%3: !hir.time):
  "hir.return"(%2) : (i32) -> ()
}) {sym_name = "g"} : () -> ()
"#;
        let err = parse_module(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            "8:3: use of undefined value %2 in op 'hir.return'"
        );
    }

    #[test]
    fn comments_and_whitespace_skipped() {
        let src = "// header comment\n%0 = \"x.c\"() : () -> (i1) // trailing\n";
        let m = parse_module(src).expect("parse");
        assert_eq!(m.top_ops().len(), 1);
    }

    #[test]
    fn parse_location() {
        let src = "\"x.c\"() : () -> () loc(\"k.mlir\":3:9)";
        let m = parse_module(src).expect("parse");
        assert_eq!(
            m.op(m.top_ops()[0]).loc().file_line(),
            Some(("k.mlir", 3, 9))
        );
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_module("\n  $bad").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
    }

    #[test]
    fn recovery_reports_every_error() {
        // Three distinct broken ops plus one good one.
        let src = r#"%0 = "x.c"() : () -> (i32)
%1 = bad_unquoted_name() : () -> (i32)
"x.u"(%9) : (i32) -> ()
%2 = "x.c"() : () -> (badtype)
"x.d"(%0) : (i32) -> ()
"#;
        let r = parse_module_recover(src, 0);
        assert_eq!(r.errors.len(), 3, "{:?}", r.errors);
        assert!(!r.hit_error_limit);
        // Errors arrive in source order with positions on the right lines.
        assert_eq!(r.errors[0].line, 2);
        assert!(r.errors[0].message.contains("expected quoted op name"));
        assert_eq!(r.errors[1].line, 3);
        assert!(r.errors[1].message.contains("undefined value %9"));
        assert_eq!(r.errors[2].line, 4);
        // The good ops still parsed.
        assert_eq!(r.module.top_ops().len(), 2);
    }

    #[test]
    fn recovery_strict_agreement_on_valid_input() {
        let src = "%0 = \"x.c\"() : () -> (i1)\n\"x.u\"(%0) : (i1) -> ()\n";
        let r = parse_module_recover(src, 0);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(
            print_module(&r.module),
            print_module(&parse_module(src).unwrap())
        );
    }

    #[test]
    fn recovery_honors_error_limit() {
        let mut src = String::new();
        for _ in 0..10 {
            src.push_str("%0 = broken() : () -> (i32)\n");
        }
        let r = parse_module_recover(&src, 3);
        assert_eq!(r.errors.len(), 3);
        assert!(r.hit_error_limit);
    }

    #[test]
    fn recovery_survives_lexer_garbage() {
        let src = "$$$ ### ???\n%0 = \"x.c\"() : () -> (i1)\n";
        let r = parse_module_recover(src, 0);
        assert!(!r.errors.is_empty());
        assert_eq!(r.module.top_ops().len(), 1, "{:?}", r.errors);
    }

    #[test]
    fn recovery_skips_broken_nested_region_as_one_unit() {
        // The error is inside a region: recovery resumes at the next
        // top-level op, not inside the broken one.
        let src = r#""t.func"() ({
  %1 = "t.add"(%77, %77) : (i32, i32) -> (i32)
}) : () -> ()
%5 = "x.c"() : () -> (i1)
"#;
        let r = parse_module_recover(src, 0);
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert!(r.errors[0].message.contains("undefined value %77"));
        assert_eq!(r.module.top_ops().len(), 1);
    }
}
