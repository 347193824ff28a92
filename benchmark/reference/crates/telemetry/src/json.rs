//! Minimal hand-rolled JSON writing.
//!
//! The workspace has no serde_json (offline build), and everything we
//! export is flat records of numbers and short strings, so a tiny
//! escape-and-format layer is all that's needed.

/// Escapes `s` into a JSON string literal (with surrounding quotes).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure some decimal/exponent marker so integers round-trip as floats.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Incremental `{...}` builder producing one compact JSON object.
#[derive(Default)]
pub struct Object {
    body: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&string(key));
        self.body.push(':');
    }

    /// Adds a string field.
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.push_key(key);
        self.body.push_str(&string(value));
        self
    }

    /// Adds an integer field.
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        self.body.push_str(&value.to_string());
        self
    }

    /// Adds a float field.
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.push_key(key);
        self.body.push_str(&number(value));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.push_key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON fragment (object, array, literal).
    pub fn field_raw(mut self, key: &str, json: &str) -> Self {
        self.push_key(key);
        self.body.push_str(json);
        self
    }

    /// Finishes into `{...}`.
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Renders an iterator of pre-rendered JSON fragments as `[...]`.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Renders a slice of `u64` as a JSON array.
pub fn array_u64(items: &[u64]) -> String {
    array(items.iter().map(|v| v.to_string()))
}

/// A parsed JSON value (numbers are kept as `f64`; object key order is
/// preserved). Exists so the trace checker and the correctness tests can
/// round-trip what the exporter writes without external dependencies.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup (first match) on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", char::from(c), self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.arr(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.num(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            members.push((k, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn arr(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn num(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at offset {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_render() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_composes() {
        let o = Object::new()
            .field_str("name", "run")
            .field_u64("iters", 10)
            .field_f64("is", 2.25)
            .field_raw("tags", &array(vec![string("a"), string("b")]))
            .build();
        assert_eq!(o, r#"{"name":"run","iters":10,"is":2.25,"tags":["a","b"]}"#);
    }

    #[test]
    fn u64_array_renders() {
        assert_eq!(array_u64(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(array_u64(&[]), "[]");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let doc = Object::new()
            .field_str("name", "a\"b\n")
            .field_u64("n", 42)
            .field_f64("x", -1.5)
            .field_bool("ok", true)
            .field_raw("xs", &array_u64(&[1, 2]))
            .field_raw("none", "null")
            .build();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\n"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-1.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_nested_structures_and_whitespace() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : \"\\u0041\" } , [] ] } \n").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("A"));
        assert_eq!(a[2], Value::Arr(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_scientific_numbers() {
        assert_eq!(parse("1.5e3").unwrap().as_f64(), Some(1500.0));
        assert_eq!(parse("-2E-2").unwrap().as_f64(), Some(-0.02));
    }
}
