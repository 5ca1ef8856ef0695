//! A minimal JSON reader and the one JSON writer of the observability
//! plane.
//!
//! The build environment is offline and the workspace is dependency-free
//! by policy, so every piece of the repo that *emits* JSON — log records,
//! heartbeats, `status.json`, Chrome `trace_event` documents —
//! goes through [`JsonWriter`], and the pieces that *consume* it — the
//! repo benchmark reading its own result files, the trace round-trip
//! test, the status-endpoint smoke, the coordinator reading heartbeats —
//! share this hand-rolled recursive-descent parser instead of pulling in
//! serde. It accepts strict JSON (RFC 8259) minus two deliberate
//! simplifications:
//!
//! * numbers are surfaced as `f64` (every producer in this repo stays
//!   well inside the exact-integer range of a double), and
//! * `\uXXXX` escapes outside the basic multilingual plane must come as
//!   valid surrogate pairs, as real encoders emit them.
//!
//! Object member order is preserved ([`Json::Obj`] is a `Vec`, not a
//! map): the writers in this repo emit stable key orders and the tests
//! assert on them.

use std::fmt::{self, Write as _};

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, with its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Path lookup through nested objects: `j.at(&["profile", "core_ns"])`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The number behind this value, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number behind this value as an unsigned integer of type `T`:
    /// `None` for a negative, fractional or out-of-range number, never a
    /// rounded or saturated one.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Option<T> {
        let n = self.as_f64()?;
        // 2^64 is the first double past `u64::MAX`; below it the cast is exact.
        if n < 0.0 || n.fract() != 0.0 || n >= 18_446_744_073_709_551_616.0 {
            return None;
        }
        T::try_from(n as u64).ok()
    }

    /// The string behind this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean behind this value, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements behind this value, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members behind this value, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes `s` as the *body* of a JSON string literal (no surrounding
/// quotes) — the one escaping routine, which [`JsonWriter`] applies to
/// every key and string it writes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// The one JSON writer: a compact (no whitespace) streaming emitter that
/// places the commas, escapes every key and string, and writes a
/// non-finite number as `null`. Calls chain; the caller keeps
/// `begin_*`/`end_*` balanced and gives every object value a [`key`].
///
/// [`key`]: JsonWriter::key
///
/// ```
/// use gcache_core::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_obj().key("ev\"ent").str("a\nb").key("ms").fixed(1.0 / 3.0, 3);
/// w.key("rows").begin_arr().num(7).num(0.5).num(f64::NAN).end_arr();
/// w.key("next").opt_num(None::<u64>).end_obj();
/// assert_eq!(
///     w.finish(),
///     r#"{"ev\"ent":"a\nb","ms":0.333,"rows":[7,0.5,null],"next":null}"#
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value or key follows a sibling.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn value(&mut self, write: impl FnOnce(&mut String)) -> &mut Self {
        if self.comma {
            self.out.push(',');
        }
        write(&mut self.out);
        self.comma = true;
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value(|out| out.push(bracket)).comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes a member key; the member's value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.value(|out| {
            out.push('"');
            escape_into(out, value);
            out.push('"');
        })
    }

    /// Writes a number as it displays: an integer of any width, or a
    /// float in its shortest round-trip form.
    pub fn num(&mut self, value: impl fmt::Display) -> &mut Self {
        self.value(|out| {
            let start = out.len();
            let _ = write!(out, "{value}");
            // A float that is not finite displays as `NaN` or `inf`.
            if out[start..].contains(['N', 'i']) {
                out.replace_range(start.., "null");
            }
        })
    }

    /// Writes [`num`](JsonWriter::num), or `null` for `None`.
    pub fn opt_num(&mut self, value: Option<impl fmt::Display>) -> &mut Self {
        match value {
            Some(v) => self.num(v),
            None => self.null(),
        }
    }

    /// Writes a float with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, value: f64, decimals: usize) -> &mut Self {
        if !value.is_finite() {
            return self.null();
        }
        self.value(|out| {
            let _ = write!(out, "{value:.decimals$}");
        })
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.raw(if value { "true" } else { "false" })
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Splices in a value another [`JsonWriter`] rendered.
    pub fn raw(&mut self, rendered: &str) -> &mut Self {
        self.value(|out| out.push_str(rendered))
    }

    /// Lays out the document: whitespace between two tokens.
    pub fn space(&mut self, whitespace: &str) -> &mut Self {
        self.out.push_str(whitespace);
        self
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(b),
            pos = *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: a `\uXXXX` low surrogate
                            // must follow.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(format!("lone surrogate at byte {pos}", pos = *pos));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid surrogate pair".into());
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(hi).ok_or_else(|| {
                                format!("lone surrogate at byte {pos}", pos = *pos)
                            })?
                        };
                        out.push(c);
                    }
                    other => {
                        return Err(format!("invalid escape '\\{}'", char::from(other)));
                    }
                }
            }
            Some(&b) if b < 0x20 => return Err("raw control character in string".into()),
            Some(_) => {
                // Copy one UTF-8 scalar (the input is a &str, so the
                // encoding is already valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8 input"));
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let s = std::str::from_utf8(chunk).map_err(|_| "malformed \\u escape".to_string())?;
    let v = u32::from_str_radix(s, 16).map_err(|_| "malformed \\u escape".to_string())?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number span");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn uints_read_as_their_own_type() {
        let uint = |text: &str| Json::parse(text).unwrap().as_uint::<u32>();
        assert_eq!(uint("0"), Some(0));
        assert_eq!(uint("4294967295"), Some(u32::MAX));
        for bad in ["-1", "1.5", "4294967296", "1e99", "\"7\"", "null"] {
            assert_eq!(uint(bad), None, "{bad}");
        }
        let big = Json::parse("18446744073709549568").unwrap();
        assert_eq!(big.as_uint::<u64>(), Some(u64::MAX - 2047));
        assert_eq!(
            Json::Num(18_446_744_073_709_551_616.0).as_uint::<u64>(),
            None
        );
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let doc = r#"{"b": [1, {"x": null}, "s"], "a": 2}"#;
        let j = Json::parse(doc).unwrap();
        let members = j.as_obj().unwrap();
        assert_eq!(members[0].0, "b", "member order preserved");
        assert_eq!(members[1].0, "a");
        assert_eq!(j.at(&["b"]).unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_f64(), Some(2.0));
        assert_eq!(j.at(&["b", "x"]), None, "arrays are not objects");
    }

    #[test]
    fn unescapes_strings() {
        let j = Json::parse(r#""a\n\t\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(j.as_str(), Some("a\n\t\"\\Aé"));
        let j = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\nwith \"quotes\", back\\slash, tab\t, ctrl\u{1}, unicode é😀";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "[1,]",
            "\"\\q\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parses_own_bench_sweep_shape() {
        let doc = r#"{
  "grid_runs": 102,
  "serial_ms": 2262.0,
  "l1_microbench": [
    { "policy": "lru", "ns_per_access": 53.2 }
  ],
  "deterministic": true
}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("serial_ms").unwrap().as_f64(), Some(2262.0));
        let l1 = j.get("l1_microbench").unwrap().as_arr().unwrap();
        assert_eq!(l1[0].get("policy").unwrap().as_str(), Some("lru"));
        assert_eq!(j.get("deterministic").unwrap().as_bool(), Some(true));
    }
}
