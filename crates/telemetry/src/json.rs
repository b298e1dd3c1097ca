//! A minimal RFC 8259 JSON value parser: the workspace's one JSON reader.
//!
//! [`crate::export::JsonWriter`] is the *writer* side; this module is
//! the *reader* side. The serve daemon decodes request lines with it
//! (re-exported as `powerchop_serve::json`), and
//! [`crate::export::validate_json`] checks exported documents by parsing
//! them and discarding the tree. It builds a [`Json`] tree from a `&str`,
//! enforcing the RFC strictly: no trailing garbage, no control
//! characters inside strings, no non-finite number tokens (`NaN`,
//! `Infinity` and friends are not JSON), surrogate pairs decoded, and a
//! hard nesting depth cap so a hostile request cannot blow the stack.
//!
//! Hand-rolled on purpose — the workspace is dependency-free by policy.

/// Maximum nesting depth a request may use. Deep enough for any real
/// request (they are flat objects), shallow enough that recursion can
/// never approach stack exhaustion.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. JSON does not distinguish integers from floats; use
    /// [`Json::as_u64`] to read integral values safely.
    Num(f64),
    /// A string, with all escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order. Duplicate keys are kept as-is;
    /// [`Json::get`] returns the first.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: where it happened and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn fail(offset: usize, message: &'static str) -> JsonError {
    JsonError { offset, message }
}

impl Json {
    /// Parses `text` as exactly one JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset for any RFC 8259
    /// violation: truncation, trailing bytes, bad escapes, unpaired
    /// surrogates, non-finite number tokens, or nesting past
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let b = text.as_bytes();
        let mut pos = 0;
        skip_ws(b, &mut pos);
        let value = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(fail(pos, "trailing bytes after the JSON value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    ///
    /// JSON numbers are doubles, so only integers up to 2^53 survive
    /// the trip losslessly; anything fractional, negative or larger
    /// returns `None` rather than a silently rounded value.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    match b.get(*pos) {
        None => Err(fail(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, b"null", Json::Null),
        // Name the usual float-formatter leaks specifically: `NaN`,
        // `Infinity`, `inf` and friends are how broken emitters spell
        // non-finite doubles, and "unexpected character" would bury the
        // actual bug.
        Some(b'N' | b'I' | b'i') | Some(b'-')
            if matches!(b.get(*pos), Some(b'-'))
                && matches!(b.get(*pos + 1), Some(b'N' | b'n' | b'I' | b'i'))
                || matches!(b.get(*pos), Some(b'N' | b'I' | b'i')) =>
        {
            Err(fail(
                *pos,
                "non-finite number token (NaN/Infinity) is not valid JSON",
            ))
        }
        Some(b'-' | b'0'..=b'9') => parse_number(b, pos),
        Some(_) => Err(fail(*pos, "unexpected character")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, word: &[u8], value: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(fail(*pos, "invalid literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: one zero, or a nonzero digit followed by digits.
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(fail(start, "invalid number")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return Err(fail(start, "invalid number"));
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return Err(fail(start, "invalid number"));
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| fail(start, "invalid number"))?;
    let n: f64 = text.parse().map_err(|_| fail(start, "invalid number"))?;
    // A huge exponent like 1e999 overflows to infinity; refuse it here
    // so no caller ever sees a non-finite value out of a JSON document.
    if !n.is_finite() {
        return Err(fail(start, "number overflows the double range"));
    }
    Ok(Json::Num(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        // Copy the longest run of plain bytes in one push. Breaking on
        // ASCII bytes is safe inside multi-byte UTF-8 sequences because
        // continuation bytes are all >= 0x80.
        let run = *pos;
        while matches!(b.get(*pos), Some(&c) if c != b'"' && c != b'\\' && c >= 0x20) {
            *pos += 1;
        }
        if *pos > run {
            let s = std::str::from_utf8(&b[run..*pos]).map_err(|_| fail(run, "invalid UTF-8"))?;
            out.push_str(s);
        }
        match b.get(*pos) {
            None => return Err(fail(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                parse_escape(b, pos, &mut out)?;
            }
            Some(_) => return Err(fail(*pos, "control character in string")),
        }
    }
}

fn parse_escape(b: &[u8], pos: &mut usize, out: &mut String) -> Result<(), JsonError> {
    let at = *pos;
    match b.get(*pos) {
        Some(b'"') => out.push('"'),
        Some(b'\\') => out.push('\\'),
        Some(b'/') => out.push('/'),
        Some(b'b') => out.push('\u{0008}'),
        Some(b'f') => out.push('\u{000C}'),
        Some(b'n') => out.push('\n'),
        Some(b'r') => out.push('\r'),
        Some(b't') => out.push('\t'),
        Some(b'u') => {
            *pos += 1;
            let hi = parse_hex4(b, pos)?;
            let ch = if (0xD800..0xDC00).contains(&hi) {
                // High surrogate: a \uXXXX low surrogate must follow.
                if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                    return Err(fail(at, "unpaired surrogate in \\u escape"));
                }
                *pos += 2;
                let lo = parse_hex4(b, pos)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(fail(at, "unpaired surrogate in \\u escape"));
                }
                let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(scalar).ok_or(fail(at, "invalid \\u escape"))?
            } else if (0xDC00..0xE000).contains(&hi) {
                return Err(fail(at, "unpaired surrogate in \\u escape"));
            } else {
                char::from_u32(hi).ok_or(fail(at, "invalid \\u escape"))?
            };
            out.push(ch);
            return Ok(());
        }
        _ => return Err(fail(at, "invalid escape sequence")),
    }
    *pos += 1;
    Ok(())
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut value = 0u32;
    for _ in 0..4 {
        let digit = match b.get(*pos) {
            Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
            Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
            Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
            _ => return Err(fail(*pos, "invalid \\u escape")),
        };
        value = (value << 4) | digit;
        *pos += 1;
    }
    Ok(value)
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth >= MAX_DEPTH {
        return Err(fail(*pos, "nesting exceeds the depth limit"));
    }
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(fail(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth >= MAX_DEPTH {
        return Err(fail(*pos, "nesting exceeds the depth limit"));
    }
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(fail(*pos, "expected a string object key"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(fail(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = parse_value(b, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(fail(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_containers_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_owned())
        );
        let v = Json::parse(r#"{"op":"run","n":3,"flags":[true,null]}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("run"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("flags"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Null]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "1e",
            "+1",
            "'x'",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = Json::parse("[1, 2] junk").unwrap_err();
        assert_eq!(err.message, "trailing bytes after the JSON value");
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn non_finite_tokens_and_overflow_are_rejected() {
        for bad in ["NaN", "-NaN", "Infinity", "-Infinity", "inf", "-inf"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                err.message.contains("non-finite"),
                "{bad}: got {}",
                err.message
            );
        }
        let err = Json::parse("1e999").unwrap_err();
        assert!(err.message.contains("overflows"));
    }

    #[test]
    fn string_escapes_decode_including_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""\"\\\/\b\f\n\r\t""#).unwrap(),
            Json::Str("\"\\/\u{8}\u{c}\n\r\t".to_owned())
        );
        assert_eq!(
            Json::parse(r#""Aé☃""#).unwrap(),
            Json::Str("Aé☃".to_owned())
        );
        // U+1F600 as a surrogate pair.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_owned()));
        for bad in [r#""\ud83d""#, r#""\ude00""#, r#""\ud83dA""#, r#""\x""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
        // Raw control characters must be escaped per the RFC.
        assert!(Json::parse("\"a\nb\"").is_err());
    }

    #[test]
    fn depth_limit_holds() {
        let deep_ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn as_u64_refuses_lossy_values() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(
            Json::parse("9007199254740992").unwrap().as_u64(),
            Some(1 << 53)
        );
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    }
}
