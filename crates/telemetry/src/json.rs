//! A small ordered JSON value type with one writer and one parser.
//!
//! Every JSON file the workspace writes — experiment reports, telemetry
//! dumps, Chrome traces, lint reports — is built as a [`Json`] value and
//! rendered by [`Json::render`] in one of three [`Layout`]s; the harness
//! also reads its own reports back with [`parse`]. Objects keep insertion
//! order, so output is deterministic without a serde dependency
//! (unavailable in offline builds).

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so output is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a fractional part. Counters (cycle and
    /// tick counts, thread counts) use this so `"ticks": 3884796` does not
    /// come out as the float-flavoured `3884796.0`. Wide enough for every
    /// `u64` and `i64`.
    Int(i128),
    /// A non-integer JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as i128)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

/// How [`Json::render`] lays a document out: the three layouts the
/// committed files use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// serde_json's pretty layout: every container broken over lines,
    /// two-space indent, `"key": value` (`results/*.json`).
    Pretty,
    /// The top two levels broken over lines, everything deeper inline
    /// with `", "` and `": "` (`results/telemetry/*.json`: one counter,
    /// histogram or instant per line).
    Outline,
    /// No whitespace at all (`results/lint_gate.json`, `detlint.json`).
    Compact,
}

impl Layout {
    /// Containers nested shallower than this put each entry on its own
    /// line, indented two spaces per level; deeper ones stay on one line.
    fn multiline_depth(self) -> usize {
        match self {
            Layout::Pretty => usize::MAX,
            Layout::Outline => 2,
            Layout::Compact => 0,
        }
    }

    /// Whether the separators carry a space: `", "` and `": "`.
    fn spaced(self) -> bool {
        self != Layout::Compact
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items` converted to values.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (integer or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload, if it fits `i64`. Floats qualify only when
    /// they are exactly integral, so counters survive a trip through older
    /// float-formatted files.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            Json::Num(n) if *n == n.trunc() && n.abs() < 9e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The integer payload as `u64`; `None` for negatives.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => self.as_i64().and_then(|n| u64::try_from(n).ok()),
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders in [`Layout::Pretty`].
    pub fn pretty(&self) -> String {
        self.render(Layout::Pretty)
    }

    /// Renders in `layout`, without a trailing newline.
    pub fn render(&self, layout: Layout) -> String {
        let mut out = String::new();
        self.write(&mut out, layout, 0);
        out
    }

    fn write(&self, out: &mut String, layout: Layout, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_entries(out, layout, depth, "[]", items.iter().map(|v| (None, v)));
            }
            Json::Obj(fields) => write_entries(
                out,
                layout,
                depth,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container's entries (keyed for objects) between the two
/// characters of `brackets`; an empty container renders as `[]` or `{}`.
fn write_entries<'a>(
    out: &mut String,
    layout: Layout,
    depth: usize,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    let multiline = entries.len() > 0 && depth < layout.multiline_depth();
    out.push_str(open);
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
            if layout.spaced() && !multiline {
                out.push(' ');
            }
        }
        if multiline {
            out.push('\n');
            indent(out, depth + 1);
        }
        if let Some(key) = key {
            write_escaped(out, key);
            out.push_str(if layout.spaced() { ": " } else { ":" });
        }
        value.write(out, layout, depth + 1);
    }
    if multiline {
        out.push('\n');
        indent(out, depth);
    }
    out.push_str(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is serde_json's lossy stance too.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        // Integral values print without an exponent and with the `.0`
        // serde_json uses for f64 fields.
        let _ = write!(out, "{n:.1}");
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected content at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are absent from our own output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        // A token with no fraction or exponent is an integer when it fits
        // i128; everything else falls back to f64.
        if !token.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(n) = token.parse::<i128>() {
                return Ok(Json::Int(n));
            }
        }
        token
            .parse::<f64>()
            .map(Json::Num)
            .ok()
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_reports_shape() {
        let doc = Json::Obj(vec![
            ("id".to_owned(), Json::Str("Fig. 6a".to_owned())),
            (
                "rows".to_owned(),
                Json::Arr(vec![Json::Obj(vec![
                    ("label".to_owned(), Json::Str("256".to_owned())),
                    (
                        "values".to_owned(),
                        Json::Arr(vec![Json::Arr(vec![
                            Json::Str("perf_pct".to_owned()),
                            Json::Num(0.7),
                        ])]),
                    ),
                ])]),
            ),
            ("notes".to_owned(), Json::Arr(vec![])),
        ]);
        let text = doc.pretty();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn pretty_matches_serde_layout() {
        let doc = Json::Obj(vec![
            ("id".to_owned(), Json::Str("X".to_owned())),
            ("n".to_owned(), Json::Num(42.0)),
            ("x".to_owned(), Json::Num(1.5)),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\"id\": \"X\""), "{text}");
        assert!(text.contains("\"n\": 42.0"), "{text}");
        assert!(text.contains("\"x\": 1.5"), "{text}");
        assert!(text.starts_with("{\n  "), "{text}");
    }

    #[test]
    fn integer_counters_roundtrip_without_float_suffix() {
        // Regression: counters such as `"ticks_executed": 3884796` used to be
        // emitted as `3884796.0` because every number was an f64.
        let doc = Json::Obj(vec![
            ("ticks_executed".to_owned(), Json::Int(3_884_796)),
            ("threads".to_owned(), Json::Int(1)),
            ("cycles_skipped".to_owned(), Json::Int(0)),
            ("big".to_owned(), Json::Int(9_007_199_254_740_993)),
            ("rate".to_owned(), Json::Num(1.5)),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\"ticks_executed\": 3884796"), "{text}");
        assert!(!text.contains("3884796.0"), "{text}");
        assert!(text.contains("\"threads\": 1,"), "{text}");
        // Beyond f64's exact-integer range, so a float detour would corrupt it.
        assert!(text.contains("\"big\": 9007199254740993"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("big").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(back.get("threads").unwrap().as_i64(), Some(1));
        assert_eq!(back.get("threads").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn integral_floats_still_read_as_counters() {
        // Older result files carry `42.0`; as_i64/as_u64 accept those too.
        let v = parse("{\"n\": 42.0}").unwrap();
        assert_eq!(v.get("n"), Some(&Json::Num(42.0)));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(42));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn layouts_pin_the_committed_shapes() {
        let doc = Json::obj([
            ("a", Json::Int(1)),
            (
                "b",
                Json::obj([("c", Json::arr([1u64, 2])), ("d", Json::Obj(vec![]))]),
            ),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render(Layout::Pretty),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [\n      1,\n      2\n    ],\n    \
             \"d\": {}\n  },\n  \"e\": []\n}"
        );
        assert_eq!(
            doc.render(Layout::Outline),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [1, 2],\n    \"d\": {}\n  },\n  \"e\": []\n}"
        );
        assert_eq!(
            doc.render(Layout::Compact),
            "{\"a\":1,\"b\":{\"c\":[1,2],\"d\":{}},\"e\":[]}"
        );
        assert_eq!(doc.pretty(), doc.render(Layout::Pretty));
    }

    #[test]
    fn escapes_roundtrip() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}".to_owned());
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let text = r#" { "a" : [ 1 , -2.5e2 , true , false , null ] , "b" : { } } "#;
        let v = parse(text).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(5)
        );
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(-250.0));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
