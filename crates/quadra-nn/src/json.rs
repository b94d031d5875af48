//! The workspace's one JSON reader and writer, for the two formats it persists:
//! model configurations (`quadra_core::ModelConfig`) and checkpoints
//! ([`StateDict`](crate::StateDict)). A number keeps its source text, and a
//! reader converts it with the target type's own `str::parse`: integers are
//! exact and range-checked, and `f32` values never pass through `f64`.

/// Deepest nesting the parser accepts; deeper input is an error, not a stack
/// overflow.
const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, its entries in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// `x` in the shortest text that parses back to the same bits, or `None`
    /// for NaN and the infinities, which JSON cannot hold.
    pub fn f32(x: f32) -> Option<Value> {
        x.is_finite().then(|| Value::Num(x.to_string()))
    }

    /// An object with the given entries, in order.
    pub fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
        Value::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn expected(&self, what: &str) -> String {
        let found = match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(text) => return format!("expected {what}, found `{text}`"),
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        };
        format!("expected {what}, found {found}")
    }

    /// The entry `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().ok()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Convert the required entry `key` of an object; an error names the key.
    pub fn read<'a, T>(
        &'a self,
        key: &str,
        convert: impl FnOnce(&'a Value) -> Result<T, String>,
    ) -> Result<T, String> {
        self.as_obj()?;
        let value = self.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
        convert(value).map_err(|e| format!("`{key}`: {e}"))
    }

    /// The entries of an object.
    pub fn as_obj(&self) -> Result<&[(String, Value)], String> {
        let Value::Obj(entries) = self else { return Err(self.expected("object")) };
        Ok(entries)
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Result<&[Value], String> {
        let Value::Arr(items) = self else { return Err(self.expected("array")) };
        Ok(items)
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, String> {
        let Value::Str(s) = self else { return Err(self.expected("string")) };
        Ok(s)
    }

    /// A boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        let Value::Bool(b) = self else { return Err(self.expected("bool")) };
        Ok(*b)
    }

    /// A number written as an integer (no fraction, no exponent) that fits
    /// `usize`.
    pub fn as_usize(&self) -> Result<usize, String> {
        self.parse_num().ok_or_else(|| self.expected("an unsigned integer"))
    }

    /// A number within `f32` range, rounded once from its text.
    pub fn as_f32(&self) -> Result<f32, String> {
        self.parse_num()
            .filter(|x: &f32| x.is_finite())
            .ok_or_else(|| self.expected("a number within f32 range"))
    }

    fn parse_num<T: std::str::FromStr>(&self) -> Option<T> {
        let Value::Num(text) = self else { return None };
        text.parse().ok()
    }

    /// The document as text: on one line, or `pretty` with one entry per line
    /// and two-space indentation.
    pub fn to_text(&self, pretty: bool) -> String {
        let mut out = String::new();
        self.write(&mut out, pretty.then_some(0));
        out
    }

    /// `indent` is the nesting depth of a pretty layout, `None` when compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let ([open, close], entries): (_, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(text) => return out.push_str(text),
            Value::Str(s) => return write_str(s, out),
            Value::Arr(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Value::Obj(entries) => (['{', '}'], entries.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        };
        let newline = |out: &mut String, depth: Option<usize>| {
            if let Some(depth) = depth {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        let inner = indent.map(|depth| depth + 1);
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            newline(out, inner);
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
            }
            value.write(out, inner);
        }
        if !entries.is_empty() {
            newline(out, indent);
        }
        out.push(close);
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < text.len() {
        return Err(parser.error("trailing input"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at offset {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    /// Consume bytes while `keep` holds them; returns how many.
    fn skip(&mut self, keep: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn skip_ws(&mut self) {
        self.skip(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let rest = &self.text[self.pos..];
                for (word, value) in
                    [("null", Value::Null), ("true", Value::Bool(true)), ("false", Value::Bool(false))]
                {
                    if rest.starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// Comma-separated items from the opening bracket (next) to `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as its text.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.skip(|c| c.is_ascii_digit());
        let mut valid = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.eat(b'.') {
            valid &= self.skip(|c| c.is_ascii_digit()) > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            valid &= self.skip(|c| c.is_ascii_digit()) > 0;
        }
        let text = &self.text[start..self.pos];
        if valid {
            Ok(Value::Num(text.to_string()))
        } else {
            Err(format!("invalid number `{text}` at offset {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run stops only at ASCII bytes, so on a character boundary.
            let run = self.pos;
            self.skip(|c| c != b'"' && c != b'\\' && c >= 0x20);
            out.push_str(&self.text[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("unterminated string or control character"));
            }
            let simple = self.peek().and_then(|e| b"\"\\/bfnrt".iter().position(|&c| c == e));
            match simple {
                Some(i) => {
                    self.pos += 1;
                    out.push(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
                }
                None if self.eat(b'u') => out.push(self.unicode_escape()?),
                None => return Err(self.error("invalid escape")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (its `\u` consumed), joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut units = vec![self.hex4()?];
        if (0xD800..0xDC00).contains(&units[0]) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            units.push(self.hex4()?);
        }
        let mut chars = char::decode_utf16(units);
        match (chars.next(), chars.next()) {
            (Some(Ok(c)), None) => Ok(c),
            _ => Err(self.error("invalid \\u escape")),
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let digits =
            self.text.get(self.pos..self.pos + 4).filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()));
        let unit = digits
            .and_then(|d| u16::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_via_text() {
        let items = vec![Value::Num("1".into()), Value::f32(2.5).unwrap(), Value::Arr(vec![])];
        let v = Value::object([("name", Value::Str("vgg\"7\"\n".into())), ("sizes", Value::Arr(items))]);
        let v = Value::object([
            ("model", v),
            ("deep", Value::Bool(true)),
            ("none", Value::Null),
            ("empty", Value::object([])),
        ]);
        let compact = v.to_text(false);
        assert_eq!(
            compact,
            r#"{"model":{"name":"vgg\"7\"\u000a","sizes":[1,2.5,[]]},"deep":true,"none":null,"empty":{}}"#
        );
        let pretty = v.to_text(true);
        assert!(pretty.contains("{\n  \"model\": {\n    \"name\": \"vgg"), "{pretty}");
        assert!(pretty.contains("\"sizes\": [\n      1,\n      2.5,\n      []\n    ]\n  },"), "{pretty}");
        assert_eq!(parse(&compact), Ok(v.clone()));
        assert_eq!(parse(&pretty), Ok(v));
    }

    #[test]
    fn numbers_keep_their_text() {
        assert_eq!(parse(" -0.5e-3 "), Ok(Value::Num("-0.5e-3".into())));
        assert_eq!(
            [Value::f32(1024.0), Value::f32(0.1)],
            [Some(Value::Num("1024".into())), Some(Value::Num("0.1".into()))]
        );
        assert_eq!([Value::f32(f32::NAN), Value::f32(f32::NEG_INFINITY)], [None, None]);
        assert_eq!(parse("18446744073709551615").unwrap().as_usize(), Ok(usize::MAX));
        for bad in ["-3", "2.9", "1e2", "18446744073709551616"] {
            assert!(parse(bad).unwrap().as_usize().unwrap_err().contains(bad));
        }
        assert_eq!(parse("0.1").unwrap().as_f32(), Ok(0.1f32));
        assert!(parse("1e39").unwrap().as_f32().is_err());
    }

    #[test]
    fn malformed_input_is_rejected() {
        let bad = [
            "",
            "{bad",
            "true x",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "nul",
        ];
        let bad_strings =
            ["\"open", "\"tab\t\"", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"", "\"\\udc00\\u0041\""];
        for text in bad.into_iter().chain(bad_strings) {
            assert!(parse(text).is_err(), "{text:?} must be rejected");
        }
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert!(parse(&"[".repeat(MAX_DEPTH + 2)).unwrap_err().contains("nesting too deep"));
        let v = parse(r#"{"n": -1}"#).unwrap();
        assert_eq!(v.read("n", Value::as_usize), Err("`n`: expected an unsigned integer, found `-1`".into()));
        assert_eq!(v.read("m", Value::as_usize), Err("missing field `m`".into()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse("\"a\\u00e9b\\ud83d\\ude00c\\/é\\n\""), Ok(Value::Str("aéb😀c/é\n".into())));
    }
}
