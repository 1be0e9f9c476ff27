//! A minimal JSON reader with one tokenizer and two users:
//!
//! * [`parse_json`] — full nested values ([`Json`]), used by the analyzer
//!   to read `BENCH.json` perf baselines.
//! * [`crate::Event::from_jsonl`] — the event-line decoder, which walks
//!   one flat object with the same cursor and borrows every string and
//!   integer token from the line instead of building a value tree.

use std::collections::BTreeMap;

/// A full JSON value, containers included (used for `BENCH.json`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a float (`null` reads as NaN, like the event decoder).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// One scalar token, borrowed from the input.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scalar<'a> {
    /// A number written as plain decimal digits, kept as text so an
    /// integer field can read the whole `u64` range exactly.
    Digits(&'a str),
    /// Any other number, parsed as `f64`.
    Num(f64),
    /// A string's raw text between its quotes, escapes left as written
    /// (each one already checked).
    Str(&'a str),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A byte cursor over one JSON text.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// Reads a string literal and returns its raw text between the quotes.
    fn raw_string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.text[start..self.pos - 1]);
                }
                Some(b'\\') => {
                    let esc = *bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    if !matches!(esc, b'"' | b'\\' | b'/' | b'n' | b't' | b'r') {
                        return Err(format!("unsupported escape \\{}", esc as char));
                    }
                    self.pos += 2;
                }
                // Multi-byte UTF-8 never contains `"` or `\`, so stepping
                // byte by byte stays on the string's own characters.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Reads one scalar value (leading whitespace skipped). Containers are
    /// an error: event lines are flat.
    pub(crate) fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.raw_string()?)),
            Some(b't' | b'f' | b'n') => {
                let rest = &self.text[self.pos..];
                for (lit, val) in [
                    ("true", Scalar::Bool(true)),
                    ("false", Scalar::Bool(false)),
                    ("null", Scalar::Null),
                ] {
                    if rest.starts_with(lit) {
                        self.pos += lit.len();
                        return Ok(val);
                    }
                }
                Err(format!("bad literal at byte {}", self.pos))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.text[start..self.pos];
                if text.bytes().all(|b| b.is_ascii_digit()) {
                    Ok(Scalar::Digits(text))
                } else {
                    parse_f64(text).map(Scalar::Num)
                }
            }
            Some(b'{' | b'[') => Err("nested containers are not supported".into()),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Reads an object, calling `member` with each raw key to read its
    /// value (and to reject duplicate keys); separators are checked here.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.raw_string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    /// Checks that only whitespace remains.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > 64 {
            return Err("JSON nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut out = BTreeMap::new();
                self.object(|cur, raw| {
                    let key = unescape(raw);
                    let value = cur.value(depth + 1)?;
                    if out.contains_key(&key) {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    out.insert(key, value);
                    Ok(())
                })?;
                Ok(Json::Obj(out))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut out = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                loop {
                    out.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(out));
                        }
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            _ => Ok(match self.scalar()? {
                Scalar::Digits(text) => Json::Num(parse_f64(text)?),
                Scalar::Num(v) => Json::Num(v),
                Scalar::Str(raw) => Json::Str(unescape(raw)),
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Null => Json::Null,
            }),
        }
    }
}

/// Parses a number token as `f64`.
pub(crate) fn parse_f64(text: &str) -> Result<f64, String> {
    text.parse::<f64>()
        .map_err(|_| format!("bad number {text:?}"))
}

/// Decodes the escapes of a raw string already checked by the cursor.
pub(crate) fn unescape(raw: &str) -> String {
    if !raw.contains('\\') {
        return raw.to_string();
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some(other) => other, // `"`, `\` and `/` stand for themselves
            None => break,
        });
    }
    out
}

/// Parses one complete JSON value of any shape (nested objects/arrays
/// allowed). Trailing garbage is an error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut cur = Cursor::new(text);
    let value = cur.value(0)?;
    cur.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_json() {
        let j = parse_json(r#"{"a":[1,2,{"b":"x"}],"c":{"d":null},"e":true}"#).unwrap();
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert!(j
            .get("c")
            .unwrap()
            .get("d")
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(j.get("missing"), None);
        assert_eq!(parse_json("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse_json(" 3.5 ").unwrap(), Json::Num(3.5));
    }

    #[test]
    fn nested_parser_rejects_malformed_input() {
        assert!(parse_json("").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json(r#"{"a":1} x"#).is_err());
        assert!(parse_json(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse_json(r#"{"a\/b":1,"a/b":2}"#).is_err()); // same key unescaped
        assert!(parse_json(r#"{"a":tru}"#).is_err());
        assert!(parse_json(r#"{"a":"\u0041"}"#).is_err()); // unsupported escape
        assert!(parse_json(&("[".repeat(100) + &"]".repeat(100))).is_err()); // too deep
    }

    #[test]
    fn parses_flat_object() {
        let j = parse_json(r#"{"v":1,"t":12.5,"type":"bank","ok":true,"x":null}"#).unwrap();
        assert_eq!(j.get("v").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.get("t").unwrap().as_f64(), Some(12.5));
        assert_eq!(j.get("type").unwrap().as_str(), Some("bank"));
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert!(j.get("x").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn parses_empty_and_escapes() {
        assert_eq!(parse_json("{}").unwrap(), Json::Obj(BTreeMap::new()));
        let j = parse_json(r#"{"s":"a\"b\\c\nd\/"}"#).unwrap();
        assert_eq!(j.get("s").unwrap().as_str(), Some("a\"b\\c\nd/"));
        assert_eq!(unescape(r#"t\tr\r"#), "t\tr\r");
    }

    #[test]
    fn parses_negative_and_exponent_numbers() {
        let j = parse_json(r#"{"a":-2.5,"b":1e-3,"c":1234567890}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_f64(), Some(-2.5));
        assert_eq!(j.get("b").unwrap().as_f64(), Some(1e-3));
        assert_eq!(j.get("c").unwrap().as_f64(), Some(1_234_567_890.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{",
            r#"{"a":1"#,
            r#"{"a":1} extra"#,
            r#"{"a":tru}"#,
            "not json",
        ] {
            assert!(parse_json(text).is_err(), "{text:?}");
        }
        // Event lines are flat: the decoder sharing this tokenizer rejects
        // containers that `parse_json` accepts.
        for line in [r#"{"a":{"nested":1}}"#, r#"{"a":[1,2]}"#] {
            assert!(parse_json(line).is_ok());
            let err = crate::Event::from_jsonl(line).unwrap_err();
            assert!(err.contains("nested containers"), "{err}");
        }
    }

    #[test]
    fn round_trips_emitted_events() {
        use crate::event::{Event, EventKind};
        let e = Event {
            time: 435.8123456789,
            kind: EventKind::Dispatch {
                ws: 2,
                tasks: 17,
                work: 17.0,
            },
        };
        let line = e.to_jsonl();
        let back = Event::from_jsonl(&line).unwrap();
        assert_eq!(back.time.to_bits(), e.time.to_bits());
        assert_eq!(back, e);
    }
}
