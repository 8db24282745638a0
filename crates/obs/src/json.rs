//! Minimal JSON support without external dependencies: a value model, a
//! strict recursive-descent parser, and the one [`Writer`] that every report
//! is serialized through. A report implements [`Json`] as a list of its
//! fields ([`json_object!`](crate::json_object)); embedded reports write
//! into their parent's writer.

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Member access: `v.get("traceEvents")`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}
impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
/// Returns the first syntax error with its byte offset.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Escape a string for embedding in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Streams one compact JSON document into a string: the only code that
/// writes `{ } [ ] , :` and quotes.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The open container already has a member: the next needs a comma.
    comma: bool,
    /// Per open container: its closing bracket and whether its members go
    /// one per line.
    open: Vec<(char, bool)>,
}

impl Writer {
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts the next value, after the previous member's separator.
    fn start_value(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
            if let Some((_, true)) = self.open.last() {
                self.out.push('\n');
            }
        }
        &mut self.out
    }

    fn begin(&mut self, open: char, close: char, per_line: bool) {
        self.start_value().push(open);
        if per_line {
            self.out.push('\n');
        }
        self.open.push((close, per_line));
        self.comma = false;
    }

    pub fn begin_object(&mut self) {
        self.begin('{', '}', false);
    }

    pub fn begin_array(&mut self) {
        self.begin('[', ']', false);
    }

    /// An array with a line break after `[`, after each comma and before
    /// `]`: the Chrome trace layout of one event per line.
    pub fn begin_array_per_line(&mut self) {
        self.begin('[', ']', true);
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) {
        let (close, per_line) = self.open.pop().expect("no open container");
        if per_line {
            self.out.push('\n');
        }
        self.out.push(close);
        self.comma = true;
    }

    /// The key of the next object member; its value follows.
    pub fn key(&mut self, key: impl AsRef<str>) {
        self.string(key.as_ref());
        self.out.push(':');
        self.comma = false;
    }

    pub fn string(&mut self, s: &str) {
        let out = self.start_value();
        out.push('"');
        escape_into(out, s);
        out.push('"');
    }

    /// A number, or any other bare token, as its `Display` form.
    pub fn number(&mut self, n: impl Display) {
        let _ = write!(self.start_value(), "{n}");
    }
}

/// A value that serializes itself through a [`Writer`].
pub trait Json {
    fn write_json(&self, w: &mut Writer);
}

/// `value` as one compact JSON document.
pub fn to_string<T: Json + ?Sized>(value: &T) -> String {
    let mut w = Writer::default();
    value.write_json(&mut w);
    w.finish()
}

/// [`to_string`] plus a trailing newline: the layout of every report file.
pub fn document<T: Json + ?Sized>(value: &T) -> String {
    to_string(value) + "\n"
}

macro_rules! impl_json {
    ($($t:ty),* => |$v:ident, $w:ident| $body:expr) => {$(
        impl Json for $t {
            fn write_json(&self, $w: &mut Writer) {
                let $v = self;
                $body;
            }
        }
    )*};
}
impl_json!(u32, u64, usize, i32, i64, i128 => |v, w| w.number(v));
impl_json!(str, String => |v, w| w.string(v));

/// A float written with exactly `DIGITS` decimals (`{:.DIGITS$}`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fixed<const DIGITS: usize>(pub f64);

impl<const DIGITS: usize> Json for Fixed<DIGITS> {
    fn write_json(&self, w: &mut Writer) {
        w.number(format_args!("{:.*}", DIGITS, self.0));
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.number("null"),
        }
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end();
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

/// Writes one JSON object, given as a list of fields, into a [`Writer`]
/// (without one, returns it as a `String`). A key is a literal, a variable
/// or a parenthesized expression; a value is a [`Json`] expression, a
/// nested `{ fields }`, or a comprehension:
///
/// ```
/// let text = obs::json_object!({"k": 2, "phase": {"solve": None::<u64>},
///     "frames": [for f in [3, 4] => {"cycle": f}], "share": {for k in ["a"] => k: 1}});
/// let want = r#"{"k":2,"phase":{"solve":null},"frames":[{"cycle":3},{"cycle":4}],"share":{"a":1}}"#;
/// assert_eq!(text, want);
/// ```
#[macro_export]
macro_rules! json_object {
    ({ $($fields:tt)* }) => {{
        let mut w = $crate::json::Writer::default();
        $crate::json_object!(&mut w, { $($fields)* });
        w.finish()
    }};
    ($w:expr, { $($fields:tt)* }) => {{
        let w: &mut $crate::json::Writer = $w;
        w.begin_object();
        $crate::json_object!(@fields w; $($fields)*);
        w.end();
    }};
    (@fields $w:ident;) => {};
    (@fields $w:ident; $key:tt : $value:tt $(, $($rest:tt)*)?) => {
        $w.key($key);
        $crate::json_object!(@value $w; $value);
        $crate::json_object!(@fields $w; $($($rest)*)?);
    };
    (@fields $w:ident; $key:tt : $value:expr $(, $($rest:tt)*)?) => {
        $w.key($key);
        $crate::json::Json::write_json(&$value, $w);
        $crate::json_object!(@fields $w; $($($rest)*)?);
    };
    (@value $w:ident; [for $x:pat in $items:expr => $($item:tt)+]) => {
        $w.begin_array();
        for $x in $items {
            $crate::json_object!(@value $w; $($item)+);
        }
        $w.end();
    };
    (@value $w:ident; {for $x:pat in $items:expr => $key:tt : $($value:tt)+}) => {
        $w.begin_object();
        for $x in $items {
            $w.key($key);
            $crate::json_object!(@value $w; $($value)+);
        }
        $w.end();
    };
    (@value $w:ident; { $($fields:tt)* }) => {
        $crate::json_object!(&mut *$w, { $($fields)* })
    };
    (@value $w:ident; $value:expr) => {
        $crate::json::Json::write_json(&$value, $w)
    };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not recombined (the emitter
                            // never produces them).
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"y"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn writer_places_separators_quotes_and_escapes() {
        let rows: Vec<Vec<i64>> = vec![vec![], vec![-1, 2]];
        let text = crate::json_object!({
            "a\"b": "x\ny", (String::from("n")): None::<u32>, "f": Fixed::<3>(1.0 / 3.0),
            "rows": rows, "m": {for k in ["p", "q"] => k: {"k": k}},
        });
        assert_eq!(
            text,
            r#"{"a\"b":"x\ny","n":null,"f":0.333,"rows":[[],[-1,2]],"m":{"p":{"k":"p"},"q":{"k":"q"}}}"#
        );
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn per_line_arrays_break_after_each_comma() {
        let mut w = Writer::default();
        w.begin_array_per_line();
        w.end();
        w.begin_array_per_line();
        for i in 0..3 {
            crate::json_object!(&mut w, {"i": i, "v": vec![i, i]});
        }
        w.end();
        assert_eq!(
            w.finish(),
            "[\n\n],[\n{\"i\":0,\"v\":[0,0]},\n{\"i\":1,\"v\":[1,1]},\n{\"i\":2,\"v\":[2,2]}\n]"
        );
    }
}
