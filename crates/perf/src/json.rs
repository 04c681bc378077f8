//! JSON reading for result sets. Writing goes through the workspace's
//! one JSON writer, [`citymesh_bench::text::json::Value`]; this module
//! adds the parser `agree` needs to read result files back, into the
//! same `Value`, so a value written and re-read compares equal.

pub use citymesh_bench::text::json::Value;

/// A parse failure: what was expected, and the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser was looking for.
    pub expected: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON: expected {} at byte {}", self.expected, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth beyond which input is rejected instead of recursing
/// further (result files nest four deep).
const MAX_DEPTH: usize = 64;

/// Parses one JSON document. Numbers without a fraction or exponent
/// that fit an `i64` become [`Value::Int`], all others [`Value::Num`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError {
            expected,
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.src.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(word))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("shallower nesting"));
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "':'")?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("',' or ']'")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a value")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.src.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII by construction");
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("a number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // The input is a `&str` and the run stops only at ASCII
            // bytes, so it is itself valid UTF-8.
            out.push_str(std::str::from_utf8(&self.src[start..self.pos]).expect("UTF-8 input"));
            match self.src.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.src.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("four hex digits of a scalar value"))?;
                            self.pos += 4;
                            hex
                        }
                        _ => return Err(self.err("an escape")),
                    };
                    self.pos += 1;
                    out.push(c);
                }
                _ => return Err(self.err("'\"'")),
            }
        }
    }
}

/// Field lookup on an object (`None` on a missing key or a
/// non-object).
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number, integer or not, as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// A string's contents.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// An array's items.
pub fn as_arr(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_round_trips() {
        let v = Value::Obj(vec![
            (
                "workload".into(),
                Value::Str("fleet-hot \"q\" \\ \n\t\u{1}é".into()),
            ),
            ("seed".into(), Value::Int(-42)),
            ("big".into(), Value::Int(i64::MAX)),
            ("correct".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
            (
                "values".into(),
                Value::Arr(vec![
                    Value::Num(0.1 + 0.2),
                    Value::Num(26_123.456_789_012_345),
                    Value::Num(1e-7),
                    Value::Num(1.5e300),
                    Value::Num(-3.0),
                    Value::Arr(vec![]),
                    Value::Obj(vec![]),
                ]),
            ),
        ]);
        let text = v.render();
        let back = parse(&text).expect("writer output parses");
        // `Num(-3.0)` renders as `-3.0`, which keeps its fraction and
        // so stays a `Num`: the round trip is exact.
        assert_eq!(back, v);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn floats_survive_bit_for_bit() {
        for x in [
            0.951_513_333_333_333_3_f64,
            18.357_421_875,
            2.0_f64.powi(-40),
            1e21,
        ] {
            let back = parse(&Value::Num(x).render()).expect("parses");
            assert_eq!(as_f64(&back).map(f64::to_bits), Some(x.to_bits()));
        }
    }

    #[test]
    fn reads_plain_json_with_whitespace() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] ,\n \"b\" : { } } ").expect("parses");
        let a = as_arr(get(&v, "a").expect("a")).expect("array");
        assert_eq!(a[0], Value::Int(1));
        assert_eq!(as_f64(&a[1]), Some(2.5));
        assert_eq!(as_str(&a[2]), Some("xA"));
        assert_eq!(get(&v, "missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\"}", "tru", "1 2", "\"open", "[1e999]", "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep).unwrap_err().expected, "shallower nesting");
    }
}
