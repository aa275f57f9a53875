//! `zc-json` — the workspace's one JSON codec.
//!
//! The build is air-gapped (no serde), and every document the workspace
//! emits or reads — telemetry JSON lines, bench reports, the `zc-top` live
//! and `--spool` summaries, the `zc-audit` report and its ratchet baseline —
//! is small and flat. Three pieces cover all of them:
//!
//! * [`escape`] — the only string-escaping routine;
//! * [`Writer`] — a streaming object/array writer that owns separators,
//!   quoting and indentation, so emitters never spell `{`, `,` or `"`;
//! * [`parse`] — a recursive-descent reader into [`Value`], nesting capped
//!   at [`MAX_DEPTH`] because `zc-top` feeds it bytes from a remote server.

use std::fmt::{self, Display, Write as _};

/// Append `s` to `out` with JSON string escaping applied (no surrounding
/// quotes): quote, backslash and every control character below U+0020.
pub fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// How one object or array lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":2}` — machine lines.
    Compact,
    /// `{"a": 1, "b": 2}` — one readable row.
    Spaced,
    /// One member per line, indented two spaces per `Pretty` level. Inline
    /// (`Compact`/`Spaced`) containers nest inside `Pretty` ones, not the
    /// other way round.
    Pretty,
}

struct Frame {
    layout: Layout,
    close: char,
    indent: usize,
    empty: bool,
}

/// Streaming JSON writer. Containers are opened with a [`Layout`] and
/// closed with [`Writer::end`]; the writer inserts separators, quotes and
/// escapes keys and strings, and indents `Pretty` containers.
#[derive(Default)]
pub struct Writer {
    out: String,
    stack: Vec<Frame>,
    after_key: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Open an object (as the root, an array element, or a key's value).
    pub fn begin_object(&mut self, layout: Layout) -> &mut Writer {
        self.open('{', '}', layout)
    }

    /// Open an array.
    pub fn begin_array(&mut self, layout: Layout) -> &mut Writer {
        self.open('[', ']', layout)
    }

    /// Close the innermost open container.
    pub fn end(&mut self) -> &mut Writer {
        let f = self.stack.pop().expect("end() without an open container");
        if f.layout == Layout::Pretty && !f.empty {
            self.newline(f.indent - 2);
        }
        self.out.push(f.close);
        self
    }

    /// Write a member key; the next call supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        self.separate();
        self.quoted(k);
        let compact = self.stack.last().map(|f| f.layout) == Some(Layout::Compact);
        self.out.push_str(if compact { ":" } else { ": " });
        self.after_key = true;
        self
    }

    /// Write a bare scalar through its `Display` form: an integer, a
    /// `bool`, or a float formatted by the caller
    /// (`format_args!("{:.3}", x)`), which is how emitters fix precision.
    pub fn value(&mut self, v: impl Display) -> &mut Writer {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write a quoted, escaped string value.
    pub fn string(&mut self, s: &str) -> &mut Writer {
        self.separate();
        self.quoted(s);
        self
    }

    /// `key(k)` then `value(v)`.
    pub fn field(&mut self, k: &str, v: impl Display) -> &mut Writer {
        self.key(k).value(v)
    }

    /// `key(k)` then `string(s)`.
    pub fn field_str(&mut self, k: &str, s: &str) -> &mut Writer {
        self.key(k).string(s)
    }

    /// The finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "finish() with an open container");
        self.out
    }

    fn open(&mut self, open: char, close: char, layout: Layout) -> &mut Writer {
        self.separate();
        let parent = self.stack.last().map_or(0, |f| f.indent);
        self.stack.push(Frame {
            layout,
            close,
            indent: parent + if layout == Layout::Pretty { 2 } else { 0 },
            empty: true,
        });
        self.out.push(open);
        self
    }

    /// Emit whatever must precede the next key or value.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(f) = self.stack.last_mut() else {
            return;
        };
        let first = std::mem::take(&mut f.empty);
        let (layout, indent) = (f.layout, f.indent);
        if !first {
            self.out.push(',');
        }
        match layout {
            Layout::Compact => {}
            Layout::Spaced if first => {}
            Layout::Spaced => self.out.push(' '),
            Layout::Pretty => self.newline(indent),
        }
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape(s, &mut self.out);
        self.out.push('"');
    }
}

/// Containers may nest this deep; [`parse`] errors past it instead of
/// recursing until the stack overflows.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers are `f64`; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.members()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's members in document order, if it is an object.
    pub fn members(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Why and where [`parse`] gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document. Lenient where that is harmless (raw control
/// characters inside strings, `+1`/`.5` numbers); strict about structure,
/// trailing data and nesting depth.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a `char` boundary while parsing continues.
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &'static str) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            what,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, ch: u8) -> bool {
        let hit = self.peek() == Some(ch);
        self.pos += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.err("nesting deeper than MAX_DEPTH"),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if !self.text[self.pos..].starts_with(lit) {
            return self.err("bad literal");
        }
        self.pos += lit.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => {
                self.pos = start;
                self.err("bad number")
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return self.err("expected '\"'");
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(n) = rest.find(['"', '\\']) else {
                self.pos = self.text.len();
                return self.err("unterminated string");
            };
            out.push_str(&rest[..n]);
            self.pos += n + 1;
            if rest.as_bytes()[n] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => {
                    self.pos -= 1;
                    return self.err("bad escape");
                }
            });
        }
    }

    /// The `XXXX` of a `\uXXXX` escape.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        match hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) {
            Some(h) => {
                self.pos += 4;
                Ok(u32::from_str_radix(h, 16).expect("four hex digits"))
            }
            None => self.err("bad \\u escape"),
        }
    }

    /// One `\u` escape, or a surrogate pair of them; a lone surrogate
    /// decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
            let rewind = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or(char::REPLACEMENT_CHARACTER));
            }
            self.pos = rewind;
        }
        Ok(char::from_u32(hi).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return self.err("expected ',' or ']'");
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.err("expected ':'");
            }
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return self.err("expected ',' or '}'");
            }
        }
    }
}
