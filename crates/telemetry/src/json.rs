//! The workspace's one JSON module: the string [`escape`] every writer
//! uses, and a strict reader ([`parse`]) for the documents the workspace
//! writes back (`BENCH_results.json` and Chrome traces).
//!
//! The workspace is offline (no serde), and its formats contain only
//! objects, arrays, strings and numbers, so that is all the reader
//! accepts: `true`, `false` and `null` are errors. Objects keep their
//! keys in document order and numbers keep their lexeme; each format's
//! schema code maps the [`Value`] tree, taking an object's keys in the
//! order its emitter writes them ([`Value::with_members`]). Every
//! failure, lexical or schema, is one [`Error`] with a byte offset: the
//! accessors fail at the value when it is of another kind. The tree
//! borrows from the input; only strings with escapes are copied. A
//! document that is one long array, such as a trace, is read with
//! [`parse_array_member`], which hands over one element's tree at a
//! time instead of holding them all.

use std::borrow::Cow;

/// Nesting deeper than this is an error rather than a stack overflow
/// (the deepest document the workspace writes nests four levels).
const MAX_DEPTH: usize = 64;

/// Escapes a string for JSON embedding: the workspace's one JSON string
/// escape, shared by the trace, metrics and result-file writers. `"`,
/// `\` and `\n` get their short escapes and every other control
/// character becomes `\uXXXX`, so the output is valid inside a JSON
/// string and [`parse`] reads it back unchanged.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A read failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the reader or the schema expected or found there.
    pub message: String,
}

impl Error {
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> Self {
        let message = message.into();
        Self { offset, message }
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// One parsed value and the byte offset it starts at.
#[derive(Debug)]
pub struct Value<'a> {
    /// Byte offset of the value's first character.
    at: usize,
    kind: Kind<'a>,
}

/// The value kinds the workspace's documents contain.
#[derive(Debug)]
enum Kind<'a> {
    /// An object's members, keys in document order.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
    /// An array's elements.
    Array(Vec<Value<'a>>),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// A number, as its lexeme (valid JSON number syntax).
    Num(&'a str),
}

impl<'a> Value<'a> {
    /// An error located at this value.
    pub(crate) fn error(&self, message: impl Into<String>) -> Error {
        Error::new(self.at, message)
    }

    /// The members of an object, in document order.
    pub(crate) fn object(&self) -> Result<&[(Cow<'a, str>, Value<'a>)], Error> {
        match &self.kind {
            Kind::Object(members) => Ok(members),
            _ => Err(self.error("expected an object")),
        }
    }

    /// Maps an object with `f`, which takes its members in document
    /// order; a member `f` leaves untaken is an error.
    pub fn with_members<'v, T>(
        &'v self,
        f: impl FnOnce(&mut Members<'v>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut members = Members {
            at: self.at,
            rest: self.object()?,
        };
        let mapped = f(&mut members)?;
        match members.rest.first() {
            Some((k, v)) => Err(v.error(format!("unexpected key {k:?}"))),
            None => Ok(mapped),
        }
    }

    /// The elements of an array.
    pub fn array(&self) -> Result<&[Value<'a>], Error> {
        match &self.kind {
            Kind::Array(items) => Ok(items),
            _ => Err(self.error("expected an array")),
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match &self.kind {
            Kind::Str(s) => Ok(s),
            _ => Err(self.error("expected a string")),
        }
    }

    /// A number that is an unsigned 64-bit integer (no sign, fraction or
    /// exponent).
    pub fn u64(&self) -> Result<u64, Error> {
        self.number("an unsigned integer")
    }

    /// A number, as the nearest `f64`.
    pub fn f64(&self) -> Result<f64, Error> {
        self.number("a number")
    }

    fn number<T: std::str::FromStr>(&self, what: &str) -> Result<T, Error> {
        let lexeme = match self.kind {
            Kind::Num(lexeme) => lexeme,
            _ => "",
        };
        lexeme
            .parse()
            .map_err(|_| self.error(format!("expected {what}")))
    }
}

/// An object's members not yet taken (see [`Value::with_members`]).
#[derive(Debug)]
pub struct Members<'v> {
    at: usize,
    rest: &'v [(Cow<'v, str>, Value<'v>)],
}

impl<'v> Members<'v> {
    /// Takes the next member, which must have key `key`.
    pub fn take(&mut self, key: &str) -> Result<&'v Value<'v>, Error> {
        self.take_opt(key).ok_or_else(|| match self.rest.first() {
            Some((k, v)) => v.error(format!("expected key {key:?}, got {k:?}")),
            None => Error::new(self.at, format!("object lacks key {key:?}")),
        })
    }

    /// Takes the next member if its key is `key`.
    pub fn take_opt(&mut self, key: &str) -> Option<&'v Value<'v>> {
        let ((k, value), rest) = self.rest.split_first()?;
        if k != key {
            return None;
        }
        self.rest = rest;
        Some(value)
    }
}

/// Reads one JSON document: a single value, with whitespace allowed
/// between tokens and around the value, and nothing after it.
///
/// # Errors
///
/// At the first byte that is not valid JSON, or is a literal (`true`,
/// `false`, `null`) no workspace format contains.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.end()?;
    Ok(value)
}

/// Reads a document that is an object whose one member, `key`, is an
/// array, handing each element to `f` as it is read rather than building
/// the array, so only one element's tree is held at a time. Errors come
/// in document order, schema errors included: the first bad byte wins.
///
/// # Errors
///
/// As [`parse`], and where the document is not such an object, or `f`
/// fails on an element.
pub fn parse_array_member<'a>(
    text: &'a str,
    key: &str,
    mut f: impl FnMut(Value<'a>) -> Result<(), Error>,
) -> Result<(), Error> {
    let mut p = Parser { text, pos: 0 };
    p.expect(b'{')?;
    let found = p.string()?;
    p.expect(b':')?;
    p.skip_ws();
    if found != key || p.peek() != Some(b'[') {
        return Err(p.err(format!("expected key {key:?} holding an array")));
    }
    // A `Vec<()>` of the results never allocates.
    p.items(b']', |p| f(p.value(2)?))?;
    p.expect(b'}')?;
    p.end()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::new(self.pos, message)
    }

    /// Fails unless only whitespace is left.
    fn end(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos < self.text.len() {
            return Err(self.err("trailing content after the document"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let rest = self.text[self.pos..].trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos = self.text.len() - rest.len();
    }

    /// Consumes `token` if it comes next (after whitespace).
    fn eat(&mut self, token: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(token);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, token: u8) -> Result<(), Error> {
        if self.eat(token) {
            return Ok(());
        }
        Err(self.err(format!("expected {:?}", char::from(token))))
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let at = self.pos;
        let kind = match self.peek() {
            Some(b'{') => Kind::Object(self.items(b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                Ok((key, p.value(depth + 1)?))
            })?),
            Some(b'[') => Kind::Array(self.items(b']', |p| p.value(depth + 1))?),
            Some(b'"') => Kind::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Kind::Num(self.number()?),
            _ => return Err(self.err("expected a value")),
        };
        Ok(Value { at, kind })
    }

    /// The comma-separated items of an object or array, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.pos += 1;
        if self.eat(close) {
            return Ok(Vec::new());
        }
        // A trace event has at most eight keys: one allocation.
        let mut items = Vec::with_capacity(8);
        loop {
            items.push(item(self)?);
            if !self.eat(b',') {
                self.expect(close)?;
                return Ok(items);
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < b' ')
                .unwrap_or(rest.len());
            if out.is_empty() {
                out = Cow::Borrowed(&rest[..run]);
            } else {
                out.to_mut().push_str(&rest[..run]);
            }
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.to_mut().push(self.escape_sequence()?),
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence, from its backslash.
    fn escape_sequence(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let esc = self.text.as_bytes().get(at + 1).copied();
        self.pos += 2;
        Ok(match esc {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                char::from_u32(code).ok_or(Error::new(at, "unpaired surrogate in \\u escape"))?
            }
            _ => return Err(Error::new(at, "unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<&'a str, Error> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int] == b'0') {
            return Err(Error::new(int, "malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// Consumes ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome;
    use proptest::prelude::*;

    fn read_str(text: &str) -> Result<String, Error> {
        Ok(parse(text)?.as_str()?.to_owned())
    }

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn reads_every_value_kind_with_offsets() {
        let v = parse(" {\"a\": [1, -2.5e+3, \"x\"], \"b\": {}}").unwrap();
        assert_eq!(v.at, 1);
        v.with_members(|m| {
            let a = m.take("a")?.array()?;
            assert_eq!((a[0].at, a[0].u64()?), (8, 1));
            assert!((a[1].f64()? + 2500.0).abs() < 1e-9);
            assert_eq!(a[1].u64().unwrap_err().offset, 11);
            assert_eq!(a[2].as_str()?, "x");
            assert!(m.take("b")?.object()?.is_empty());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn reads_every_escape() {
        assert_eq!(
            read_str(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00""#).unwrap(),
            "\"\\/\u{8}\u{c}\n\r\tAé😀"
        );
    }

    #[test]
    fn members_are_taken_in_order() {
        let v = parse("{\"a\": 1, \"b\": 2}").unwrap();
        let err = v.with_members(|m| m.take("b")).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (6, "expected key \"b\", got \"a\"")
        );
        let err = v.with_members(|m| m.take("a")).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (14, "unexpected key \"b\"")
        );
        let err = v
            .with_members(|m| {
                assert!(m.take_opt("b").is_none());
                m.take("a")?;
                m.take("b")?;
                m.take("c")
            })
            .unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (0, "object lacks key \"c\"")
        );
    }

    #[test]
    fn array_member_hands_each_element_over_as_it_is_read() {
        let mut seen = Vec::new();
        let err = parse_array_member(r#"{"k": [{"a": 1}, 2, [}"#, "k", |v| {
            seen.push(v.at);
            Ok(())
        })
        .unwrap_err();
        // Both elements reached `f` before the reader found the bad byte.
        assert_eq!((seen, err.offset), (vec![7, 17], 21));
        let err = parse_array_member(r#"{"k": [1, 2]}"#, "k", |v| match v.u64()? {
            1 => Ok(()),
            _ => Err(v.error("not one")),
        })
        .unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (10, "not one"));
        for (doc, at) in [
            (r#"{"k": {}}"#, 6),
            (r#"{"j": []}"#, 6),
            (r#"{"k": [], "j": 1}"#, 8),
        ] {
            let err = parse_array_member(doc, "k", |_| Ok(())).unwrap_err();
            assert_eq!(err.offset, at, "{doc}: {err}");
        }
        assert_eq!(
            parse_array_member(" {\"k\": [ ] } ", "k", |_| Ok(())),
            Ok(())
        );
    }

    /// Every input the two formats' old parsers rejected, and more: each
    /// is still rejected, at the byte given. The first group is
    /// `BenchDoc`'s malformed documents, the second the non-canonical
    /// Chrome traces; `chrome::parse` rejects all of them, at the first
    /// bad byte for its schema.
    #[test]
    fn malformed_inputs_are_rejected_at_an_offset() {
        let cases: &[(&str, Option<usize>, usize)] = &[
            // (input, reader error offset, chrome::parse error offset)
            ("", Some(0), 0),
            ("{", Some(1), 1),
            ("{\"schema_version\": 1}", None, 19),
            (
                "{\"schema_version\": \"x\", \"tier\": \"t\", \"scenarios\": []}",
                None,
                19,
            ),
            (
                "{\"schema_version\": 1, \"tier\": \"t\", \"scenarios\": []} trailing",
                Some(52),
                19,
            ),
            ("{}", None, 1),
            ("{\"traceEvents\": [\n]}", None, 20),
            ("{\"traceEvents\": [\nnope\n]}\n", Some(18), 18),
            ("{\"traceEvents\": [\n]} x", Some(21), 21),
            ("[1,]", Some(3), 0),
            ("[01]", Some(1), 0),
            ("[1.]", Some(3), 0),
            ("-", Some(1), 0),
            ("null", Some(0), 0),
            ("\"\\x\"", Some(1), 0),
            ("\"\\u12\"", Some(3), 0),
            ("\"\\udc00\"", Some(1), 0),
            ("\"a\nb\"", Some(2), 0),
            ("\"abc", Some(4), 0),
            ("{\"a\" 1}", Some(5), 5),
            ("{1: 2}", Some(1), 1),
        ];
        let head = "{\"traceEvents\": [\n";
        for &(input, reader, chrome_at) in cases {
            assert_eq!(parse(input).err().map(|e| e.offset), reader, "{input:?}");
            let err = chrome::parse(input).unwrap_err();
            assert_eq!(err.offset, chrome_at, "{input:?}: {err}");
            assert!(err.to_string().ends_with(&format!("at byte {chrome_at}")));
            // As a trace event, a lexical error is found at its own byte.
            if let (Some(at), false) = (reader, input.starts_with('{')) {
                let doc = format!("{head}{input}\n]}}\n");
                let err = chrome::parse(&doc).unwrap_err();
                assert_eq!(err.offset, head.len() + at, "{doc:?}: {err}");
            }
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep).unwrap_err().offset, MAX_DEPTH + 1);
        // A streamed event starts two levels down.
        let err = chrome::parse(&format!("{head}{deep}")).unwrap_err();
        assert_eq!(err.offset, head.len() + MAX_DEPTH - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escaped_strings_read_back(
            codes in proptest::collection::vec(
                prop_oneof![0u32..0x80, 0x80u32..0x10_f800],
                0..24,
            ),
        ) {
            // Skip the surrogate block, which holds no `char`s.
            let s: String = codes
                .iter()
                .filter_map(|&c| char::from_u32(if c < 0xd800 { c } else { c + 0x800 }))
                .collect();
            prop_assert_eq!(read_str(&format!("\"{}\"", escape(&s))), Ok(s));
        }
    }
}
