//! Dependency-free JSON value model, parser and writer.
//!
//! The `sd-e2e` result line and span records need JSON, and the
//! workspace is offline-only (no serde). This is a small recursive-descent
//! parser over the full JSON grammar plus a writer, with one deliberate
//! deviation from typical value models: objects are ordered
//! `Vec<(String, Value)>`, not maps. A result line keeps its metrics in
//! the order they were written, so insertion order is part of the data.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a bound a line of 200k `[`
/// overflows the stack. Every document this repo writes nests at most
/// three deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order; duplicate keys are
/// preserved by the parser (last `get` wins is *not* implemented — `get`
/// returns the first, matching how every writer here emits unique keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers are f64, like the Python tooling this replaces.
    /// Integral metrics stay exact: f64 holds integers up to 2^53 and
    /// `Display` round-trips them without a fractional part.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// First value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a complete JSON document; trailing non-whitespace, and
    /// nesting deeper than [`MAX_DEPTH`], are errors.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Compact single-line rendering (`{"k":1,"s":"x"}`) — the result
    /// line's format.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write an f64 as JSON. `Display` for f64 prints the shortest decimal
/// string that round-trips, never exponent notation for the magnitudes the
/// benchmark writes; non-finite values have no JSON spelling and become
/// null.
fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Write a JSON string literal with the mandatory escapes.
pub fn write_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair handling for escaped non-BMP chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let cp = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("bad \\u digits at byte {}", self.pos))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -12.5e2 ").unwrap(), Value::Num(-1250.0));
        assert_eq!(
            Value::parse("\"a\\nb\\u00e9\"").unwrap(),
            Value::Str("a\nbé".to_string())
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::parse(r#"{"z": 1, "a": 2, "m": {"y": [1, 2, null]}}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2,"m":{"y":[1,2,null]}}"#);
    }

    #[test]
    fn compact_round_trips() {
        let src = r#"{"s":"quote \" backslash \\ tab \t","n":3.25,"big":9007199254740991,"arr":[true,false]}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
        assert_eq!(v.to_compact(), src);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v, Value::Str("😀".to_string()));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_without_a_crash() {
        for unit in ["[", "{\"a\":"] {
            let err = Value::parse(&unit.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{unit}: {err}");
        }
        // Exactly at the bound still parses; one level more does not.
        let at = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&at(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&at(MAX_DEPTH + 1)).is_err());
        // The deepest document the repo reads (depth 3) is well inside it.
        let benchmark = Value::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        assert!(benchmark
            .get("end_to_end")
            .and_then(Value::as_arr)
            .is_some());
    }

    /// Numerical Recipes LCG: quality is irrelevant, determinism isn't.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn string(&mut self) -> String {
            const PIECES: [&str; 10] = [
                "benign",
                "scan/adversarial",
                "with \"quotes\"",
                "back\\slash",
                "tab\there",
                "new\nline",
                "unicode-é😀",
                "",
                "ctrl-\u{1}",
                "pps mice-churn",
            ];
            let mut s = String::new();
            for _ in 0..(self.next() % 3 + 1) {
                s.push_str(PIECES[(self.next() as usize) % PIECES.len()]);
            }
            s
        }

        fn number(&mut self) -> f64 {
            match self.next() % 5 {
                0 => self.next() as f64,                   // large integer
                1 => (self.next() % 1_000) as f64 / 64.0,  // small dyadic fraction
                2 => -((self.next() % 1_000_000) as f64),  // negative integer
                3 => (self.next() % 97) as f64 * 0.001625, // decimal-ish
                _ => 0.0,
            }
        }

        /// A value nested at most `depth` levels; object keys come out in
        /// draw order, not sorted.
        fn value(&mut self, depth: u32) -> Value {
            let kinds = if depth == 0 { 4 } else { 6 };
            match self.next() % kinds {
                0 => Value::Null,
                1 => Value::Bool(self.next() % 2 == 0),
                2 => Value::Num(self.number()),
                3 => Value::Str(self.string()),
                4 => Value::Arr(
                    (0..self.next() % 4)
                        .map(|_| self.value(depth - 1))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..self.next() % 5)
                        .map(|i| {
                            (
                                format!("{}_{}", 9 - i, self.string()),
                                self.value(depth - 1),
                            )
                        })
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn generated_values_round_trip() {
        for seed in 0..512 {
            let v = Lcg(seed).value(3);
            let text = v.to_compact();
            let back = Value::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(back, v, "seed {seed}");
            // And the line itself is stable: re-serializing is a no-op.
            assert_eq!(back.to_compact(), text, "seed {seed}");
        }
    }
}
