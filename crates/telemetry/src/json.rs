//! Hand-rolled JSON codec: writer, [`Json`] tree serializer, and parser.
//!
//! The workspace has no serde; records are serialized with a small escaping
//! writer, and the parser here exists so tests (and downstream tooling) can
//! round-trip JSONL traces without external crates. The parser handles the
//! subset the writer produces — objects, arrays, strings, numbers, booleans,
//! and null — which is also enough for general well-formed JSON without
//! unicode escapes beyond `\uXXXX`.
//!
//! [`Json`] also serializes (via [`std::fmt::Display`]), so other crates —
//! the run store's journal and cache files in particular — share one codec
//! with the telemetry traces. The encode side is round-trip exact for
//! finite numbers: `f64` values are written with Rust's shortest-round-trip
//! formatting, so `parse(v.to_string()) == v` holds for every tree without
//! NaN/infinity (non-finite numbers are encoded as `null`, as in the record
//! writer).

use crate::{Record, Value};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for an array of numbers.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }
}

impl std::fmt::Display for Json {
    /// Serializes the tree as compact JSON (no whitespace). Non-finite
    /// numbers become `null` — JSON has no NaN/inf — so serialization is
    /// lossy exactly there and round-trip exact everywhere else.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape_to(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_to(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` to `out` with JSON string escaping (quotes included).
fn escape_to<W: std::fmt::Write>(out: &mut W, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Appends `s` to `out` with JSON string escaping.
fn escape_into(out: &mut String, s: &str) {
    let _ = escape_to(out, s);
}

fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Value::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Value::F64(f) => {
            // JSON has no NaN/Inf; encode them as null so every line stays
            // machine-parseable.
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => escape_into(out, s),
    }
}

/// Serializes one record as a single JSON object (no trailing newline).
///
/// Schema: `{"t_us":…,"wall_us":…,"level":"info","kind":"event","name":…,
/// "depth":…,"fields":{…}}`. `t_us` is monotonic (durations are computed
/// from it); `wall_us` is a derived wall-clock annotation
/// ([`crate::wall_epoch_us`]` + t_us`) that readers may ignore — existing
/// consumers written against the version-1 schema keep working because the
/// JSONL contract is "ignore keys you do not know".
pub fn record_to_json(rec: &Record) -> String {
    let mut out = String::with_capacity(112);
    let _ = write!(
        out,
        "{{\"t_us\":{},\"wall_us\":{},\"level\":\"{}\",\"kind\":\"{}\",\"name\":",
        rec.t_us,
        crate::wall_epoch_us().saturating_add(rec.t_us),
        rec.level.as_str(),
        rec.kind.as_str()
    );
    escape_into(&mut out, rec.name);
    let _ = write!(out, ",\"depth\":{},\"fields\":{{", rec.depth);
    for (i, (k, v)) in rec.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, k);
        out.push(':');
        value_into(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (may be multi-byte).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().expect("non-empty rest");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
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
                other => return Err(format!("expected ',' or ']', found {other:?}")),
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
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kind, Level};

    fn sample_record() -> Record {
        Record {
            t_us: 1234,
            level: Level::Info,
            kind: Kind::Event,
            name: "fidelity_decision",
            depth: 1,
            fields: vec![
                ("iteration", Value::U64(7)),
                ("max_low_variance", Value::F64(0.0125)),
                ("chose_high", Value::Bool(false)),
                ("note", Value::Str("a \"quoted\"\nline".to_string())),
            ],
        }
    }

    #[test]
    fn record_round_trips_through_parser() {
        let line = record_to_json(&sample_record());
        let json = parse(&line).expect("valid json");
        assert_eq!(json.get("t_us").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(json.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("event"));
        assert_eq!(
            json.get("name").and_then(Json::as_str),
            Some("fidelity_decision")
        );
        let fields = json.get("fields").expect("fields object");
        assert_eq!(fields.get("iteration").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            fields.get("max_low_variance").and_then(Json::as_f64),
            Some(0.0125)
        );
        assert_eq!(
            fields.get("chose_high").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            fields.get("note").and_then(Json::as_str),
            Some("a \"quoted\"\nline")
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let rec = Record {
            fields: vec![("bad", Value::F64(f64::NAN))],
            ..sample_record()
        };
        let line = record_to_json(&rec);
        let json = parse(&line).expect("valid json");
        assert_eq!(json.get("fields").unwrap().get("bad"), Some(&Json::Null));
    }

    #[test]
    fn parser_handles_arrays_nesting_and_ws() {
        let json = parse(" { \"a\" : [ 1 , -2.5e1 , true , null ] , \"b\" : { } } ").unwrap();
        let arr = match json.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(json.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("true false").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn json_display_serializes_nested_trees() {
        let v = Json::obj([
            ("s", Json::Str("a \"b\"\n\t\u{1}é".into())),
            ("n", Json::Num(-2.5e-3)),
            ("arr", Json::nums([1.0, 2.0])),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
            ("nothing", Json::Null),
        ]);
        let s = v.to_string();
        assert_eq!(
            s,
            "{\"s\":\"a \\\"b\\\"\\n\\t\\u0001é\",\"n\":-0.0025,\
             \"arr\":[1,2],\"nested\":{\"ok\":true},\"nothing\":null}"
        );
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn json_display_encodes_non_finite_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::nums([f64::INFINITY]).to_string(), "[null]");
    }
}

#[cfg(test)]
mod roundtrip_props {
    //! Property coverage for the shared codec: any tree of finite numbers,
    //! strings (including escapes and control characters), booleans, nulls,
    //! arrays, and objects must survive `parse(encode(v)) == v` bit-exactly.

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn arbitrary_string(rng: &mut StdRng) -> String {
        let alphabet: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '≤', '🦀',
            '{', '}', '[', ']', ':', ',',
        ];
        let len = rng.gen_range(0usize..12);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
            .collect()
    }

    fn arbitrary_number(rng: &mut StdRng) -> f64 {
        // Mix magnitudes: integers, subnormal-ish tiny values, and huge ones
        // all stress the shortest-round-trip formatter differently.
        let mantissa: f64 = rng.gen_range(-1.0f64..1.0);
        let exp = rng.gen_range(-300i32..300);
        let v = mantissa * 10f64.powi(exp);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    fn arbitrary_json(rng: &mut StdRng, depth: usize) -> Json {
        let pick = if depth >= 3 {
            rng.gen_range(0usize..4) // leaves only once deep
        } else {
            rng.gen_range(0usize..6)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::Num(arbitrary_number(rng)),
            3 => Json::Str(arbitrary_string(rng)),
            4 => {
                let n = rng.gen_range(0usize..4);
                Json::Arr((0..n).map(|_| arbitrary_json(rng, depth + 1)).collect())
            }
            _ => {
                let n = rng.gen_range(0usize..4);
                Json::Obj(
                    (0..n)
                        .map(|_| (arbitrary_string(rng), arbitrary_json(rng, depth + 1)))
                        .collect(),
                )
            }
        }
    }

    /// Strategy producing arbitrary (finite-number) JSON trees.
    struct JsonTree;

    impl proptest::strategy::Strategy for JsonTree {
        type Value = Json;

        fn generate(&self, rng: &mut StdRng) -> Json {
            arbitrary_json(rng, 0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn encode_parse_round_trip(v in JsonTree) {
            let encoded = v.to_string();
            let parsed = parse(&encoded);
            prop_assert!(parsed.is_ok(), "unparseable: {encoded}");
            prop_assert_eq!(parsed.unwrap(), v);
        }

        #[test]
        fn numbers_round_trip_bit_exactly(m in -1.0f64..1.0, e in -300i32..300) {
            let v = m * 10f64.powi(e);
            prop_assume!(v.is_finite());
            let s = Json::Num(v).to_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
