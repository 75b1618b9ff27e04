//! A minimal hand-rolled JSON reader/writer for the serving wire formats.
//!
//! The build environment is offline (no serde), so every JSON document the
//! platform reads or writes — the HTTP front-end's request/response bodies
//! and SPARQL-JSON results in `kgqan-server` — goes through this small
//! recursive-descent parser and these writer helpers.
//! It supports the full JSON value grammar — objects, arrays, strings (with
//! every escape form, including `\uXXXX` surrogate pairs and raw UTF-8),
//! numbers, booleans and `null` — which is deliberately more than the
//! emitters produce, so a round-trip test can exercise the schema end to
//! end.  Arrays and objects nest at most 128 deep: request bodies come from
//! the network, and the parser recurses once per level.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.  A deeper
/// document is an ordinary parse error instead of a stack overflow, which
/// no `catch_unwind` contains.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their key order (the emitters write a
/// stable field order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as an `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Looks a key up in an object; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value rounded to `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(n.round() as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string. Non-ASCII
/// characters pass through as raw UTF-8 (legal JSON, and human-readable).
///
/// Each run up to the next byte that needs escaping (`"`, `\`, a control
/// character) is copied in one go: those bytes are ASCII, which never
/// occurs inside a multi-byte UTF-8 sequence, so every run ends on a char
/// boundary.
pub fn write_json_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !(byte == b'"' || byte == b'\\' || byte < 0x20) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a finite `f64` to `out` using Rust's shortest-round-trip
/// `Display` (never scientific notation), so parsing the text recovers the
/// exact value. Non-finite inputs (which the emitters never produce) are
/// written as `0`.
pub fn write_json_number(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push('0');
    }
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes; `pos` indexes both.
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs `parse` (an array or object body) one level deeper.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go: both
            // are ASCII, so the run ends on a char boundary, and the input is
            // already valid UTF-8.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.text[self.pos..]
                .chars()
                .next()
                .ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += esc.len_utf8();
            match esc {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => out.push(self.unicode_escape()?),
                other => return Err(format!("invalid escape '\\{other}'")),
            }
        }
    }

    /// Parses the four hex digits after `\u`, combining UTF-16 surrogate
    /// pairs (e.g. `\ud83d\ude00` → 😀).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&high) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err("invalid low surrogate".to_string());
                }
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(code).ok_or_else(|| "invalid code point".to_string());
            }
            return Err("lone high surrogate".to_string());
        }
        char::from_u32(high).ok_or_else(|| "invalid code point".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-UTF-8 \\u escape".to_string())?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape '{text}'"))?;
        self.pos = end;
        Ok(code)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The string writer as it was before it copied runs, one `char` at a
    /// time: the reference for the bytes [`write_json_string`] must emit.
    fn write_json_string_per_char(out: &mut String, s: &str) {
        out.push('"');
        for ch in s.chars() {
            match ch {
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

    /// Besides the 32 control characters: the two escaped printable
    /// characters, DEL (passed through), ASCII, and characters of two,
    /// three and four UTF-8 bytes, a combining mark and U+2028 among them.
    const NOT_CONTROL: [char; 10] = [
        '"', '\\', '\u{7f}', ' ', 'a', 'é', '\u{301}', '\u{2028}', '日', '😀',
    ];

    proptest! {
        #[test]
        fn string_writer_matches_the_per_char_writer(
            picks in prop::collection::vec(0..32 + NOT_CONTROL.len(), 0..48),
        ) {
            let s: String = picks
                .iter()
                .map(|&pick| match pick {
                    0..=31 => char::from(pick as u8),
                    _ => NOT_CONTROL[pick - 32],
                })
                .collect();
            let (mut runs, mut per_char) = (String::from("[1,"), String::from("[1,"));
            write_json_string(&mut runs, &s);
            write_json_string_per_char(&mut per_char, &s);
            prop_assert_eq!(runs, per_char);
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": null}], "c": {"d": false}}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(
            parsed.get("a").and_then(|a| a.as_array()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("c")
                .and_then(|c| c.get("d"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn parses_every_escape_form_and_raw_utf8() {
        let doc = r#""q\" b\\ s\/ \b \f \n \r \t ué s😀 ö""#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(
            parsed.as_str().unwrap(),
            "q\" b\\ s/ \u{8} \u{c} \n \r \t ué s😀 ö"
        );
    }

    #[test]
    fn string_writer_round_trips() {
        let tricky = "quote\" slash\\ tab\t newline\n control\u{1} ünïcode 日本語";
        let mut out = String::new();
        write_json_string(&mut out, tricky);
        assert_eq!(Json::parse(&out).unwrap().as_str().unwrap(), tricky);
    }

    #[test]
    fn long_strings_round_trip_with_escapes_at_run_boundaries() {
        // Raw multi-byte characters (é precomposed and as e + U+0301, 😀)
        // on both sides of every escape the writer emits.
        let pieces = [
            "ascii ", "é", "😀", "\n", "e\u{301}", "\"", "\\", "\u{1}", "é\n😀",
        ];
        let (mut text, mut chars) = (String::new(), 0);
        for i in 0.. {
            if chars >= 400_000 {
                break;
            }
            let piece = pieces[(i * 7) % pieces.len()];
            text.push_str(piece);
            chars += piece.chars().count();
        }
        let mut doc = String::new();
        write_json_string(&mut doc, &text);
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(text.as_str()));

        // `\u` escapes, surrogate pairs included, between raw characters.
        let doc = r#""é\u00e9😀\ud83d\ude00e\u0301\né""#;
        assert_eq!(
            Json::parse(doc).unwrap().as_str(),
            Some("éé😀😀e\u{301}\né")
        );
        for bad in [r#""é\"#, r#""😀\x""#, "\"é\\é\"", r#""\u00"#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn number_writer_round_trips_exactly() {
        for x in [0.0, 439.257, 1.0 / 3.0, 98765432.1, -2.5e-4] {
            let mut out = String::new();
            write_json_number(&mut out, x);
            assert_eq!(Json::parse(&out).unwrap().as_f64().unwrap(), x);
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        fn arrays(depth: usize) -> String {
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        }
        fn objects(depth: usize) -> String {
            format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth))
        }
        for nested in [arrays, objects] {
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("129 levels");
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // What a hostile client sends: far past the cap, never closed.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        // Depth is what is open, not what was seen: siblings do not count.
        assert!(Json::parse(&format!("[{}[]]", "[],".repeat(1_000))).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
