//! The one JSON writer and reader. Every document `oat` emits is built
//! as a [`Json`] value and rendered by [`Json::to_line`] (JSONL, the
//! Chrome trace, `oat-mlap-v1`) or [`Json::to_pretty`] (`stats`, node
//! metrics, `oat-query-v1`); tests read them back with [`Json::parse`].
//! Objects keep insertion order, so field order is part of a schema.

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, exact over the whole `i64` and `u64` ranges.
    Int(i128),
    /// A float, written in the shortest form that reads back the same
    /// `f64`; NaN and infinities render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Sets `key` on an object, replacing an existing entry. Panics on a
    /// non-object, which is a bug in the caller.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Follows `path` through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The entries of an object (none for anything else).
    pub fn entries(&self) -> &[(String, Json)] {
        if let Json::Obj(entries) = self {
            entries
        } else {
            &[]
        }
    }

    /// The elements of an array (none for anything else).
    pub fn items(&self) -> &[Json] {
        if let Json::Arr(items) = self {
            items
        } else {
            &[]
        }
    }

    /// The number, integer or float, as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer, if this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        if let Json::Int(n) = self {
            u64::try_from(*n).ok()
        } else {
            None
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        if let Json::Bool(b) = self {
            Some(*b)
        } else {
            None
        }
    }

    /// One line, no whitespace: a JSONL record.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented two spaces per level, with no trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `depth` is the indent level when pretty-printing, `None` for one line.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let (items, close) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => return out.push_str(&n.to_string()),
            // `{:?}` keeps a `.0` or an exponent, so a float reads back
            // as a float, in the shortest round-tripping digits.
            Json::Num(x) if x.is_finite() => return out.push_str(&format!("{x:?}")),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => (items.iter().map(|v| (None, v)).collect::<Vec<_>>(), ']'),
            Json::Obj(entries) => (entries.iter().map(|(k, v)| (Some(k), v)).collect(), '}'),
        };
        out.push(if close == ']' { '[' } else { '{' });
        for (i, (key, v)) in items.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            if let Some(d) = depth {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', 2 * d + 2));
            }
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            v.write(out, depth.map(|d| d + 1));
        }
        if let (Some(d), false) = (depth, items.is_empty()) {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * d));
        }
        out.push(close);
    }

    /// Parses exactly one JSON document: surrounding whitespace is
    /// allowed, anything else after the value is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at < p.bytes.len() {
            return p.err("trailing data");
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty: $v:ident => $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
from! {
    u32: v => Json::Int(v.into());
    u64: v => Json::Int(v.into());
    i64: v => Json::Int(v.into());
    usize: v => Json::Int(v as i128);
    f64: v => Json::Num(v);
    bool: v => Json::Bool(v);
    &str: v => Json::Str(v.to_string());
    String: v => Json::Str(v);
    Vec<Json>: v => Json::Arr(v);
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.at))
    }

    /// Consumes the next byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.bytes.get(self.at).is_some_and(|b| set.contains(b));
        self.at += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.eat(b" \t\n\r") {}
    }

    fn digits(&mut self) -> usize {
        let from = self.at;
        while self.eat(b"0123456789") {}
        self.at - from
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if !self.bytes[self.at..].starts_with(lit.as_bytes()) {
            return self.err(&format!("expected `{lit}`"));
        }
        self.at += lit.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.seq(b"]", Self::value).map(Json::Arr),
            Some(b'{') => self.seq(b"}", Self::member).map(Json::Obj),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn member(&mut self) -> Result<(String, Json), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(":")?;
        Ok((key, self.value()?))
    }

    /// The comma-separated elements after an opening bracket, through
    /// the `close` one.
    fn seq<T>(
        &mut self,
        close: &[u8],
        elem: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        self.skip_ws();
        let mut out = Vec::new();
        if !self.eat(close) {
            loop {
                out.push(elem(self)?);
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b",") {
                    return self.err("expected `,` or a closing bracket");
                }
            }
        }
        Ok(out)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat(b"-");
        let zero = self.bytes.get(self.at) == Some(&b'0');
        let int = self.digits();
        let frac = self.eat(b".").then(|| self.digits());
        let exp = self.eat(b"eE").then(|| {
            self.eat(b"+-");
            self.digits()
        });
        if int == 0 || (zero && int > 1) || frac == Some(0) || exp == Some(0) {
            return self.err("bad number");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII");
        match (frac, exp, text.parse()) {
            (None, None, Ok(n)) => Ok(Json::Int(n)),
            _ => text
                .parse()
                .map(Json::Num)
                .or_else(|_| self.err("bad number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return self.err("unterminated string");
            };
            self.at += 1;
            let c = match b {
                b'"' => return String::from_utf8(out).or_else(|_| self.err("bad UTF-8")),
                b'\\' => self.escape()?,
                0..=0x1f => return self.err("control character in string"),
                b => {
                    out.push(b);
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }

    /// The character after a `\`; `\u` takes four hex digits, or two
    /// escapes spelling a surrogate pair.
    fn escape(&mut self) -> Result<char, String> {
        let b = self.bytes.get(self.at).copied();
        self.at += 1;
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| Some(e) == b) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if b != Some(b'u') {
            return self.err("bad escape");
        }
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            self.expect("\\u")?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return self.err("unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|h| std::str::from_utf8(h).ok());
        match hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) {
            Some(h) => {
                self.at += 4;
                Ok(u32::from_str_radix(h, 16).expect("hex digits"))
            }
            None => self.err("bad \\u escape"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj()
            .with("name", "seq-uniform")
            .with("ok", true)
            .with("ratio", 7.203125)
            .with("whole", 2.0)
            .with("max", u64::MAX)
            .with("min", i64::MIN)
            .with("none", None::<u64>)
            .with(
                "list",
                vec![
                    Json::from(1u32),
                    Json::from("a\"b\\c\n\u{1}é😀"),
                    Json::obj(),
                    Json::Arr(vec![]),
                ],
            )
    }

    #[test]
    fn both_renderings_round_trip_exactly() {
        let doc = sample();
        for text in [doc.to_line(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
        assert_eq!(doc.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("min"), Some(&Json::Int(i64::MIN.into())));
        assert_eq!(doc.get("whole"), Some(&Json::Num(2.0)));
        assert_eq!(doc.at(&["ratio"]).and_then(Json::as_f64), Some(7.203125));
        assert_eq!(doc.get("list").map(|l| l.items().len()), Some(4));
    }

    #[test]
    fn renderings_are_pinned() {
        let doc = Json::obj()
            .with("a", 1u64)
            .with("b", vec![Json::from(0.5), Json::Null])
            .with("c", Json::obj())
            .with("d", Json::obj().with("e", "x"));
        assert_eq!(
            doc.to_line(),
            r#"{"a":1,"b":[0.5,null],"c":{},"d":{"e":"x"}}"#
        );
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    0.5,\n    null\n  ],\n  \"c\": {},\n  \"d\": {\n    \"e\": \"x\"\n  }\n}"
        );
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert_eq!(Json::Num(1e-7).to_line(), "1e-7");
    }

    #[test]
    fn floats_keep_every_digit() {
        for x in [97_123.456_789_012_34, 0.1 + 0.2, -0.0, 1e300, 999_999.999] {
            assert_eq!(Json::parse(&Json::Num(x).to_line()), Ok(Json::Num(x)));
        }
    }

    #[test]
    fn parse_is_strict() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "\"open",
            "{\"a\":1} x",
            "1 2",
            "nul",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"\t\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "NaN",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(
            Json::parse(" {\"k\" : [ -1.5e2 , \"\\ud83d\\ude00\\u00e9\" ] }\n"),
            Ok(Json::obj().with("k", vec![Json::Num(-150.0), Json::from("😀é")]))
        );
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut o = Json::obj().with("a", 1u64).with("b", 2u64);
        o.set("a", 3u64);
        assert_eq!(o.to_line(), r#"{"a":3,"b":2}"#);
    }
}
