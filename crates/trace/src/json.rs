//! A dependency-free JSON model for machine-readable reports.
//!
//! Two kinds of objects are distinguished so schemas can be pinned:
//! [`Json::Obj`] has a *fixed* field set (part of the schema), while
//! [`Json::Map`] holds *dynamic* keys (rule names, opcode names) whose
//! value type, not key set, is schema.  [`schema`] renders a canonical
//! type signature; golden tests compare signatures so field renames or
//! type changes are caught while measured values stay free to vary.

use std::fmt;

/// A JSON value with ordered object keys.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (serialized with `.` or exponent; NaN/inf become null).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with a fixed, schema-relevant field set.
    Obj(Vec<(String, Json)>),
    /// An object with dynamic keys (histograms: rule → count, …).
    Map(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an unsigned counter.
    pub fn uint(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// A fixed-field object ([`Json::Obj`]), keys in the given order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of strings; [`Json::get_strs`] reads it back.
    pub fn strs(items: &[String]) -> Json {
        Json::Arr(items.iter().map(Json::str).collect())
    }

    /// A count map (a [`Json::Map`] of unsigned counters, in order);
    /// [`Json::get_counts`] reads it back.
    pub fn counts(pairs: &[(String, u64)]) -> Json {
        Json::Map(
            pairs
                .iter()
                .map(|(k, n)| (k.clone(), Json::uint(*n)))
                .collect(),
        )
    }

    /// A 64-bit fingerprint as a 16-digit hex string (JSON integers
    /// here are `i64`; a fingerprint is a full `u64`);
    /// [`Json::get_fingerprint`] reads it back.
    pub fn fingerprint(fp: u64) -> Json {
        Json::Str(format!("{fp:016x}"))
    }

    /// The value of a field, for [`Json::Obj`] and [`Json::Map`]
    /// (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) | Json::Map(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string inside a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside a [`Json::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The flag inside a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items inside a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs of a [`Json::Obj`] or [`Json::Map`], in
    /// serialization order.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) | Json::Map(fields) => Some(fields),
            _ => None,
        }
    }

    /// The integer inside a [`Json::Int`], when it is not negative.
    pub fn as_u64(&self) -> Option<u64> {
        u64::try_from(self.as_int()?).ok()
    }

    // Typed field readers for decoders: each is `None` when the field
    // is missing or has the wrong type, so a decoder can `?` through a
    // record and reject any damaged one whole.

    /// Field `key` as a `u64` (an integer that is not negative).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Field `key` as an owned string.
    pub fn get_str(&self, key: &str) -> Option<String> {
        Some(self.get(key)?.as_str()?.to_string())
    }

    /// Field `key` as an array of strings ([`Json::strs`]).
    pub fn get_strs(&self, key: &str) -> Option<Vec<String>> {
        self.get(key)?
            .as_arr()?
            .iter()
            .map(|v| Some(v.as_str()?.to_string()))
            .collect()
    }

    /// Field `key` as a count map ([`Json::counts`]; a parsed object
    /// reads the same).
    pub fn get_counts(&self, key: &str) -> Option<Vec<(String, u64)>> {
        self.get(key)?
            .entries()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect()
    }

    /// Field `key` as a hex fingerprint ([`Json::fingerprint`]).
    pub fn get_fingerprint(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.get(key)?.as_str()?, 16).ok()
    }
}

fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => escape(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) | Json::Map(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Renders the canonical type signature of a JSON value.
///
/// * scalars → `null` / `bool` / `int` / `float` / `str`
/// * arrays → `[T]` with `T` the signature of the first element
///   (`[]` when empty); heterogeneous arrays render every distinct
///   signature, comma-separated, in first-occurrence order
/// * fixed objects → `{key:T,…}` with keys in serialization order
/// * dynamic maps → `map<T>` (`map<>` when empty)
pub fn schema(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(_) => "bool".into(),
        Json::Int(_) => "int".into(),
        Json::Float(_) => "float".into(),
        Json::Str(_) => "str".into(),
        Json::Arr(items) => {
            let mut sigs: Vec<String> = Vec::new();
            for item in items {
                let s = schema(item);
                if !sigs.contains(&s) {
                    sigs.push(s);
                }
            }
            format!("[{}]", sigs.join(","))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", schema(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Json::Map(fields) => match fields.first() {
            Some((_, v)) => format!("map<{}>", schema(v)),
            None => "map<>".into(),
        },
    }
}

/// A minimal validating parser (objects parse as [`Json::Obj`]); used by
/// tests to confirm emitted text is well-formed JSON.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.ws();
                    let v = self.value()?;
                    fields.push((k, v));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
            None => Err("unexpected end".into()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self.b.get(self.i + 1..self.i + 5).ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    let start = self.i;
                    while self.b.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "invalid utf8")?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|&c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number {text:?} at {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_round_trips() {
        let v = Json::obj(vec![
            ("id", Json::str("e1")),
            ("n", Json::Int(42)),
            ("x", Json::Float(1.5)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("note", Json::str("a \"quoted\" line\nnext")),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Int(2).to_string(), "2");
    }

    #[test]
    fn schema_distinguishes_fixed_and_dynamic_objects() {
        let v = Json::obj(vec![
            (
                "phases",
                Json::Arr(vec![Json::obj(vec![
                    ("phase", Json::str("Preliminary")),
                    ("wall_ns", Json::Int(12)),
                ])]),
            ),
            (
                "rules",
                Json::Map(vec![("META-SUBSTITUTE".into(), Json::Int(3))]),
            ),
        ]);
        assert_eq!(
            schema(&v),
            "{phases:[{phase:str,wall_ns:int}],rules:map<int>}"
        );
        // Different dynamic keys, same schema.
        let v2 = Json::obj(vec![
            (
                "phases",
                Json::Arr(vec![Json::obj(vec![
                    ("phase", Json::str("Code generation")),
                    ("wall_ns", Json::Int(99)),
                ])]),
            ),
            (
                "rules",
                Json::Map(vec![
                    ("META-CALL-LAMBDA".into(), Json::Int(1)),
                    ("META-IF-DISTRIBUTE".into(), Json::Int(2)),
                ]),
            ),
        ]);
        assert_eq!(schema(&v), schema(&v2));
    }

    #[test]
    fn accessors_navigate_parsed_values() {
        let v = parse(r#"{"name":"f","n":3,"ok":true,"xs":[1,2],"sub":{"k":9}}"#).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("f"));
        assert_eq!(v.get("n").and_then(Json::as_int), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let sub = v.get("sub").unwrap();
        assert_eq!(sub.get("k").and_then(Json::as_int), Some(9));
        assert_eq!(sub.entries().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Int(1).get("k").is_none());
        assert!(Json::Str("s".into()).as_int().is_none());
    }

    #[test]
    fn typed_readers_reject_missing_and_mistyped_fields() {
        let v = parse(
            r#"{"n":3,"neg":-1,"s":"x","xs":["a","b"],"mixed":["a",1],
                "m":{"k":2},"badm":{"k":-2},"fp":"00000000000000ff"}"#,
        )
        .unwrap();
        assert_eq!(v.get_u64("n"), Some(3));
        assert_eq!(v.get_u64("neg"), None);
        assert_eq!(v.get_u64("s"), None);
        assert_eq!(v.get_str("s").as_deref(), Some("x"));
        assert_eq!(v.get_str("n"), None);
        assert_eq!(v.get_strs("xs"), Some(vec!["a".into(), "b".into()]));
        assert_eq!(v.get_strs("mixed"), None);
        assert_eq!(v.get_counts("m"), Some(vec![("k".into(), 2)]));
        assert_eq!(v.get_counts("badm"), None);
        assert_eq!(v.get_fingerprint("fp"), Some(0xff));
        assert_eq!(v.get_fingerprint("s"), None);
        assert_eq!(v.get_fingerprint("missing"), None);
        // The writers and readers are inverses.
        let w = Json::obj(vec![
            ("fp", Json::fingerprint(u64::MAX)),
            ("m", Json::counts(&[("k".into(), 2)])),
            ("xs", Json::strs(&["a".into()])),
        ]);
        assert_eq!(
            w.to_string(),
            r#"{"fp":"ffffffffffffffff","m":{"k":2},"xs":["a"]}"#
        );
        assert_eq!(w.get_fingerprint("fp"), Some(u64::MAX));
        assert_eq!(w.get_counts("m"), Some(vec![("k".into(), 2)]));
        assert_eq!(w.get_strs("xs"), Some(vec!["a".into()]));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nulls").is_err());
        assert!(parse("\"abc").is_err());
    }
}
