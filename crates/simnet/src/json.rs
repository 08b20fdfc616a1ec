//! The workspace's one JSON codec (dependency-free by design): the value
//! type and parser the readers use, typed field access on it, the one string
//! escaper, and the one streaming writer behind every sidecar.
//!
//! **Writing.** A schema's `write_json(&self, w: &mut JsonWriter)` pushes its
//! keys and values and opens each container in one of three [`Style`]s; the
//! writer owns every comma, space, newline and indent, so no schema knows
//! the depth it is embedded at and nested sections compose by passing the
//! writer down. Nothing builds a tree: a 26 MB trace streams straight into
//! its output string.
//!
//! **Reading.** [`parse_json`] builds a [`JsonValue`]; each schema's reader
//! pulls what it needs with [`JsonValue::u64_field`] and friends, which
//! return `Err` naming the key that is missing or mistyped.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Objects keep source order so that rendering a
/// summary walks categories in the writer's (deterministic) order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() <= 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// Serialize back to compact JSON text. Deterministic: objects keep
    /// their stored order; integral numbers render without a fraction, the
    /// rest use Rust's shortest round-tripping `f64` form. Together with
    /// [`parse_json`] this gives `parse(render(v)) == v` for any value this
    /// module can produce (see the round-trip property tests).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self, Style::Compact);
        w.finish()
    }

    /// Member `key` of an object; the error names the key.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing \"{key}\""))
    }

    fn typed_field<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        cast: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        cast(self.field(key)?).ok_or_else(|| format!("\"{key}\" is not {want}"))
    }

    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed_field(key, "a non-negative integer", JsonValue::as_u64)
    }

    pub fn i64_field(&self, key: &str) -> Result<i64, String> {
        self.typed_field(key, "an integer", JsonValue::as_i64)
    }

    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed_field(key, "a string", JsonValue::as_str)
    }

    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed_field(key, "a boolean", JsonValue::as_bool)
    }

    pub fn arr_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.typed_field(key, "an array", JsonValue::as_arr)
    }

    /// Member `key` as an object of counts, `(name, n)` in source order.
    pub fn counts_field(&self, key: &str) -> Result<Vec<(String, u64)>, String> {
        let JsonValue::Obj(pairs) = self.field(key)? else {
            return Err(format!("\"{key}\" is not an object"));
        };
        pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("\"{key}\".\"{k}\" is not a count"))
            })
            .collect()
    }
}

/// A string as JSON text, quoted and escaped — the tree's one escaper. A
/// `Display` type, so it drops into the writer and into `format!` templates
/// without a temporary `String`.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        // Everything escaped is one ASCII byte, so unescaped runs (multi-byte
        // characters included) are copied whole.
        let mut run = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            f.write_str(&self.0[run..i])?;
            run = i + 1;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\t' => f.write_str("\\t")?,
                b'\r' => f.write_str("\\r")?,
                0x08 => f.write_str("\\b")?,
                0x0c => f.write_str("\\f")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
        }
        f.write_str(&self.0[run..])?;
        f.write_char('"')
    }
}

/// How one container lays out its children. Chosen per container by the
/// code that writes a schema, never by a user.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Style {
    /// One child per line.
    Block,
    /// On one line: `, ` between children, `: ` after a key.
    Inline,
    /// On one line, no spaces: `,` and `:`.
    Compact,
}

/// The push-style writer every sidecar streams through.
///
/// Indent rule: a `Block` child starts its line with two spaces per open
/// `Block` container — `Inline` and `Compact` containers add none, so a
/// `Block` array inside an `Inline` object inside a `Block` array of a
/// `Block` document sits at indent 6. An empty container is `{}` / `[]` in
/// every style.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// Open containers, innermost last: style, closing bracket, and whether
    /// a child has been written.
    open: Vec<(Style, char, bool)>,
    /// Two per open `Block` container.
    indent: usize,
    /// The last token was a key: its value follows with no separator.
    after_key: bool,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Write onto the end of `out` (an envelope in someone else's format,
    /// like the Chrome trace's); [`finish`](Self::finish) hands it back.
    pub fn appending(out: String) -> JsonWriter {
        JsonWriter {
            out,
            ..JsonWriter::default()
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push(' ');
        }
    }

    /// Place the next child — a key, or a value that has none. Runs once per
    /// integer of a DAG event row, hence the inline hints on that path.
    #[inline]
    fn child(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some((style, _, any)) = self.open.last_mut() else {
            return;
        };
        let style = *style;
        if std::mem::replace(any, true) {
            self.out
                .push_str(if style == Style::Inline { ", " } else { "," });
        }
        if style == Style::Block {
            self.newline();
        }
    }

    #[inline]
    fn open(&mut self, style: Style, open: char, close: char) -> &mut Self {
        self.child();
        self.out.push(open);
        self.open.push((style, close, false));
        if style == Style::Block {
            self.indent += 2;
        }
        self
    }

    pub fn obj(&mut self, style: Style) -> &mut Self {
        self.open(style, '{', '}')
    }

    pub fn arr(&mut self, style: Style) -> &mut Self {
        self.open(style, '[', ']')
    }

    /// Close the innermost open container.
    #[inline]
    pub fn end(&mut self) -> &mut Self {
        debug_assert!(!self.open.is_empty(), "end() with no open container");
        if let Some((style, close, any)) = self.open.pop() {
            if style == Style::Block {
                self.indent -= 2;
                if any {
                    self.newline();
                }
            }
            self.out.push(close);
        }
        self
    }

    /// An object member's key; exactly one value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.child();
        let compact = matches!(self.open.last(), Some((Style::Compact, ..)));
        let _ = write!(self.out, "{}:", Quoted(key));
        if !compact {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// A value that is already JSON text: a number, `true`, or a document
    /// rendered elsewhere.
    #[inline]
    pub fn raw(&mut self, v: impl fmt::Display) -> &mut Self {
        self.child();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.raw(Quoted(s))
    }

    /// An object of counts, one member per `(name, n)` — the writing side of
    /// [`JsonValue::counts_field`].
    pub fn counts<K: AsRef<str>, V: fmt::Display>(
        &mut self,
        style: Style,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Self {
        self.obj(style);
        for (k, v) in entries {
            self.key(k.as_ref()).raw(v);
        }
        self.end()
    }

    /// A whole tree, every container in `style`.
    pub fn value(&mut self, v: &JsonValue, style: Style) -> &mut Self {
        match v {
            JsonValue::Null => self.raw("null"),
            JsonValue::Bool(b) => self.raw(b),
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() <= 9.0e15 => self.raw(*n as i64),
            JsonValue::Num(n) => self.raw(n),
            JsonValue::Str(s) => self.str(s),
            JsonValue::Arr(items) => {
                self.arr(style);
                for item in items {
                    self.value(item, style);
                }
                self.end()
            }
            JsonValue::Obj(pairs) => {
                self.obj(style);
                for (k, v) in pairs {
                    self.key(k).value(v, style);
                }
                self.end()
            }
        }
    }

    /// The text written so far; every container must be closed.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty() && !self.after_key);
        self.out
    }

    /// [`finish`](Self::finish) for a document that is a file of its own:
    /// ends with a newline.
    pub fn finish_line(mut self) -> String {
        self.out.push('\n');
        self.finish()
    }
}

/// Parse error with a byte offset into the input.
#[derive(Debug)]
pub struct ParseError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document; trailing garbage is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, ParseError> {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to U+FFFD rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash in
                    // one go, so each byte is validated once. Both delimiters
                    // are ASCII and the input came from a &str, so the run
                    // starts and ends on character boundaries.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null, "x\nA"], "b": {}}"#).unwrap();
        let arr = v.arr_field("a").unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], JsonValue::Num(-2.5));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3], JsonValue::Null);
        assert_eq!(arr[4].as_str(), Some("x\nA"));
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
        // Typed access names the key it could not deliver.
        assert!(v.u64_field("a").unwrap_err().contains("\"a\""));
        assert!(v.str_field("zz").unwrap_err().contains("\"zz\""));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("tru").is_err());
    }

    #[test]
    fn json_escapes_specials() {
        let q = |s: &str| Quoted(s).to_string();
        assert_eq!(q("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(q("é\t日\u{8}\u{c}\u{1}🦀"), "\"é\\t日\\b\\f\\u0001🦀\"");
    }

    /// The indent rule, pinned outside any sidecar: a `Block` object holding
    /// an `Inline` object holding a `Block` array and a `Compact` array, and
    /// an empty container in each style.
    #[test]
    fn writer_layout_is_literal() {
        let mut w = JsonWriter::new();
        w.obj(Style::Block);
        w.key("n").raw(1);
        w.key("row").obj(Style::Inline);
        w.key("op").str("pull");
        w.key("slow").arr(Style::Block);
        w.obj(Style::Inline).key("id").raw(7).end();
        w.raw(-2);
        w.end();
        w.key("ev").arr(Style::Compact);
        w.arr(Style::Compact).raw(0).raw(5).end();
        w.obj(Style::Compact)
            .key("k")
            .raw(true)
            .key("l")
            .raw(2)
            .end();
        w.end();
        w.end();
        w.key("b").obj(Style::Block).end();
        w.key("i").arr(Style::Inline).end();
        w.key("c").arr(Style::Compact).end();
        w.end();
        let text = w.finish_line();
        let want = r#"{
  "n": 1,
  "row": {"op": "pull", "slow": [
    {"id": 7},
    -2
  ], "ev": [[0,5],{"k":true,"l":2}]},
  "b": {},
  "i": [],
  "c": []
}
"#;
        assert_eq!(text, want);
        assert!(parse_json(&text).is_ok());
    }
}
