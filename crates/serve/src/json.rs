//! The protocol's JSON lexer, the tree parser built on it, and the
//! string escaper the protocol's writer uses.
//!
//! The workspace carries no serde, so this module implements just
//! enough JSON for the serve protocol: the full value grammar and
//! `\uXXXX` escapes including surrogate pairs. No comments, no
//! trailing commas, no NaN/Infinity — by design, since none of those
//! survive a round trip through other tooling. Arrays and objects may
//! nest at most [`MAX_DEPTH`] deep, so a hostile line cannot exhaust
//! the parsing thread's stack.
//!
//! The protocol decodes lines with the pull lexer (`Reader`) alone:
//! it reads each value in place, once, straight into the typed field it
//! belongs to, with no tree in between. [`Json`] is the same lexer
//! building a tree, for tools that inspect JSON files (Chrome traces,
//! flight dumps). Encoding never builds a tree either: the protocol's
//! field tables write straight into the line buffer.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting the lexer accepts. The deepest
/// protocol shape (a `metrics_history` reply) nests 5 levels; the bound
/// keeps the recursive readers' stack use small and fixed.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys keep the last.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: a message plus the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage not).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let value = r.tree()?;
        r.end()?;
        Ok(value)
    }

    /// The value of `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            // rev(): duplicate keys keep the last occurrence.
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer (rejects
    /// fractions, negatives and anything above 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `n` as an exact non-negative integer: no fraction, no sign, at most
/// 2^53 (above it, distinct integers share one `f64`).
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
}

/// Writes `s` JSON-escaped, with surrounding quotes.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// A place in a [`Reader`]'s text to come back to: offset, depth, and
/// whether it is just inside a container.
pub(crate) type Mark = (usize, usize, bool);

/// A pull lexer over one JSON text. Callers walk the document in order
/// — open a container, take its keys or items, read scalars in place —
/// and [`Reader::skip`] passes over (while still validating) any value
/// they do not want. Keys and strings borrow from the text unless they
/// hold escapes.
#[derive(Default)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    at: usize,
    /// Arrays/objects currently open around `at`.
    depth: usize,
    /// Just inside a `{` or `[`: no key or item read yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            ..Reader::default()
        }
    }

    /// Where the reader stands.
    pub(crate) fn mark(&self) -> Mark {
        (self.at, self.depth, self.fresh)
    }

    /// Returns to `mark`.
    pub(crate) fn reset(&mut self, mark: Mark) {
        (self.at, self.depth, self.fresh) = mark;
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.at,
        }
    }

    /// The length of the run of bytes from `at` that `keep` accepts.
    fn run(&self, keep: impl Fn(u8) -> bool) -> usize {
        let rest = &self.text.as_bytes()[self.at..];
        rest.iter().position(|&c| !keep(c)).unwrap_or(rest.len())
    }

    /// The first byte of the next value (whitespace skipped), which
    /// tells its kind: `{`, `[`, `"`, `t`/`f`, `n`, or a number's.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.at += self.run(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
        self.text.as_bytes().get(self.at).copied()
    }

    /// Consumes `b`, the next byte past whitespace.
    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected '{}'", b as char)));
        }
        self.at += 1;
        Ok(())
    }

    /// Consumes `lit` if the text continues with it.
    fn literal(&mut self, lit: &str) -> bool {
        let found = self.text[self.at..].starts_with(lit);
        self.at += if found { lit.len() } else { 0 };
        found
    }

    /// Checks that only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        if self.peek().is_some() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(())
    }

    /// Opens the object or array (`open` is `{` or `[`) the next value
    /// must be, refusing to nest past [`MAX_DEPTH`].
    pub(crate) fn open(&mut self, open: u8) -> Result<(), JsonError> {
        self.eat(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        (self.depth, self.fresh) = (self.depth + 1, true);
        Ok(())
    }

    /// Whether the open container (closed by `close`) has another
    /// entry (an array item is read next); consumes the separating `,`
    /// or the closing byte.
    #[inline]
    pub(crate) fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        let next = self.peek();
        if next == Some(close) {
            (self.at, self.depth) = (self.at + 1, self.depth - 1);
            Ok(false)
        } else if fresh || next == Some(b',') {
            self.at += usize::from(!fresh);
            Ok(true)
        } else {
            Err(self.err(&format!("expected ',' or '{}'", close as char)))
        }
    }

    /// The open object's next key (its `:` consumed, the value next),
    /// or `None` past its closing `}`.
    #[inline]
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Reads a number: the run of number bytes after a `-` or a digit,
    /// which must parse as a whole (so `1.2.3` and `1-2` are errors, not
    /// a number and junk).
    #[inline]
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected a number"));
        }
        let start = self.at;
        self.at += self.run(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        self.text[start..self.at]
            .parse()
            .map_err(|_| self.err("bad number"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.text.get(self.at..self.at + 4).unwrap_or("?");
        let code = u16::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(u32::from(code))
    }

    /// Reads a string: borrowed from the text unless it holds escapes.
    #[inline]
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let (text, start) = (self.text, self.at);
        let mut out: Option<String> = None;
        loop {
            // A run of plain bytes; `"`, `\` and controls end it, so
            // `at` only ever stops on ASCII — a char boundary.
            let run = self.at;
            self.at += self.run(|c| c >= 0x20 && c != b'"' && c != b'\\');
            let plain = &text[run..self.at];
            match text.as_bytes().get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(&text[start..self.at - 1]),
                        Some(s) => Cow::Owned(s + plain),
                    });
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = self.escape()?;
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(plain);
                    s.push(c);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape (after its `\`) stands for.
    fn escape(&mut self) -> Result<char, JsonError> {
        self.at += 1;
        Ok(match self.text.as_bytes().get(self.at - 1) {
            Some(c @ (b'"' | b'\\' | b'/')) => char::from(*c),
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                let code = match hi {
                    // Surrogate pair: a second \uXXXX must follow.
                    0xd800..=0xdbff if self.literal("\\u") => match self.hex4()? {
                        lo @ 0xdc00..=0xdfff => 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00),
                        _ => return Err(self.err("unpaired surrogate")),
                    },
                    0xd800..=0xdfff => return Err(self.err("unpaired surrogate")),
                    _ => hi,
                };
                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
            }
            _ => {
                self.at -= 1;
                return Err(self.err("bad escape"));
            }
        })
    }

    /// Reads the next value, whatever it is, as a tree.
    pub(crate) fn tree(&mut self) -> Result<Json, JsonError> {
        Ok(match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.tree()?));
                }
                Json::Obj(fields)
            }
            Some(b'[') => {
                self.open(b'[')?;
                let mut items = Vec::new();
                while self.more(b']')? {
                    items.push(self.tree()?);
                }
                Json::Arr(items)
            }
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            Some(b't') if self.literal("true") => Json::Bool(true),
            Some(b'f') if self.literal("false") => Json::Bool(false),
            Some(b'n') if self.literal("null") => Json::Null,
            Some(b'-' | b'0'..=b'9') => Json::Num(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        })
    }

    /// Passes over the next value, validating it like any other, and
    /// returns its text. Scalars are read in place; only a skipped
    /// container is built as a tree.
    pub(crate) fn skip(&mut self) -> Result<&'a str, JsonError> {
        let start = self.at + self.run(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
        match self.peek() {
            Some(b'"') => drop(self.string()?),
            Some(b'-' | b'0'..=b'9') => drop(self.number()?),
            _ => drop(self.tree()?),
        }
        Ok(&self.text[start..self.at])
    }
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
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": "x"}], "c": null, "d": {"e": true}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d").unwrap().get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn escaped_forms_parse() {
        let v = Json::parse(r#""\u0041\u00e9\ud83e\udd80\/""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé🦀/"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested =
            |depth: usize, open: &str, close: &str| open.repeat(depth) + &close.repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
        for bad in [
            nested(MAX_DEPTH + 1, "[", "]"),
            nested(MAX_DEPTH + 1, "{\"a\":", "}").replace(":}", ":1}"),
            "[".repeat(100_000),
            nested(100_000, "[", "]"),
        ] {
            let err = Json::parse(&bad).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Depth is nesting, not count: many siblings at depth 1 are fine.
        assert!(Json::parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{'a':1}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "\"\u{0009}\"",
            "[1] []",
            "nan",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn as_u64_is_strict() {
        assert_eq!(Json::parse("576").unwrap().as_u64(), Some(576));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }
}
