//! The workspace's one JSON path: a minimal value, its renderer, a
//! parser and the string escaper.
//!
//! The workspace carries no serialization dependency. Every producer
//! (`Counters::to_json`, `SimStats::to_json`, the serve protocol and
//! journal, the Chrome trace exporter, the fault-campaign report) builds
//! a [`Json`] value from the `From` conversions and [`Json::obj`], and
//! the caller renders it once with [`Json::render`]; every consumer
//! parses with [`parse`]. Rendering is canonical and compact: numbers
//! keep their text, so integer consumers ([`Json::as_u64`]) never
//! round-trip through `f64`; objects keep their field order; strings go
//! through [`escape_into`]. A parsed document therefore re-renders
//! byte-identically, which the serve cache relies on. Non-finite floats
//! render as `null`, so every rendered document is valid JSON.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (see [`Json::as_u64`] /
    /// [`Json::as_f64`]).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of object field `key`, if this is an object holding it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, in order.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A float with exactly `decimals` fractional digits (`null` when
    /// not finite), for report fields whose text is fixed-width.
    #[must_use]
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Num(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (k, v) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, v)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n.to_string())
    }
}

/// Rust's shortest round-trip text; `null` when not finite (JSON has no
/// infinity or NaN).
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x.to_string())
        } else {
            Json::Null
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Appends `s` to `out` with JSON string escaping (`"`, `\`, control
/// characters).
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A description of the first malformed construct, with its byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'0'..=b'9' | b'-' => self.number(),
            c => Err(self.err(&format!("unexpected `{}`", c as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.pos < p.bytes.len() && p.bytes[p.pos].is_ascii_digit() {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("bad number"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("bad number fraction"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("bad number exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                }
                _ if b < 0x80 => out.push(b as char),
                _ => {
                    // Decode one multi-byte UTF-8 character from a bounded
                    // window (validating the whole tail here would make
                    // parsing quadratic).
                    let start = self.pos - 1;
                    let rest = &self.bytes[start..self.bytes.len().min(start + 4)];
                    let valid = match std::str::from_utf8(rest) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&rest[..e.valid_up_to()]).expect("validated prefix")
                        }
                        Err(_) => return Err(self.err("bad utf-8")),
                    };
                    let ch = valid.chars().next().expect("nonempty");
                    out.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-3.5e2").unwrap().as_f64(), Some(-350.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_precision_survives() {
        // A value above 2^53 would be destroyed by an f64 round-trip;
        // keeping the source text preserves it exactly.
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn objects_preserve_order_and_render_round_trips() {
        let doc = r#"{"b":1,"a":[true,null,"xy"],"c":{"n":2.5}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn rejects_garbage_and_trailers() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("weird \"s\" \\ tab\t μ 半".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
        for (raw, escaped) in [
            ("a\"b", r#""a\"b""#),
            ("a\\b", r#""a\\b""#),
            ("a\nb", r#""a\u000ab""#),
            ("\u{1}", r#""\u0001""#),
            ("a\rb", r#""a\u000db""#),
            ("a\tb", r#""a\u0009b""#),
            ("μ", "\"μ\""),
        ] {
            let v = Json::from(raw);
            assert_eq!(v.render(), escaped, "{raw:?}");
            assert_eq!(parse(escaped).unwrap(), v, "{raw:?}");
        }
    }

    #[test]
    fn constructors_render_canonically() {
        let v = Json::obj(vec![
            ("n", Json::from(u64::MAX)),
            ("len", Json::from(3usize)),
            ("ipc", Json::from(1.5)),
            ("whole", Json::from(2.0)),
            ("inf", Json::from(f64::INFINITY)),
            ("nan", Json::from(f64::NAN)),
            ("mean", Json::fixed(0.5, 4)),
            ("bad", Json::fixed(f64::NEG_INFINITY, 4)),
            ("ok", Json::from(true)),
            ("s", Json::from(String::from("x"))),
        ]);
        assert_eq!(
            v.render(),
            r#"{"n":18446744073709551615,"len":3,"ipc":1.5,"whole":2,"inf":null,"nan":null,"mean":0.5000,"bad":null,"ok":true,"s":"x"}"#
        );
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
