//! Chrome trace-event JSON: the export format Perfetto (ui.perfetto.dev)
//! and `chrome://tracing` open directly.
//!
//! Only the subset the simulator emits is modelled: metadata events
//! (`"ph":"M"`, process/thread names), complete events (`"ph":"X"`, the
//! walk spans) and thread-scoped instants (`"ph":"i"`). One simulated
//! cycle maps to one microsecond of trace time.
//!
//! The emitter has a single canonical layout (one event per line, fixed
//! key order) and [`parse`] accepts exactly that layout — which is what
//! makes the CI round-trip gate (`asap trace-check`) a byte-identity
//! check rather than a semantic diff.

use crate::metrics::escape;
use crate::trace::TraceEvent;
use crate::trace::TraceEventKind;

/// The event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ph {
    /// Metadata (`"M"`): process/thread names.
    Meta,
    /// Complete (`"X"`): a span with `ts` + `dur`.
    Complete,
    /// Instant (`"i"`), thread-scoped.
    Instant,
}

/// An argument value (the `args` map).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// A string argument.
    Str(String),
    /// An integer argument.
    Num(u64),
}

/// One trace event, in emission-ready form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Phase.
    pub ph: Ph,
    /// Process id (one per run in a scenario fan-out).
    pub pid: u32,
    /// Thread id (one per simulated core; 0 is the scheduler track).
    pub tid: u32,
    /// Timestamp in µs (simulated cycles); `None` for metadata.
    pub ts: Option<u64>,
    /// Duration in µs; `Some` only for complete events.
    pub dur: Option<u64>,
    /// Event name.
    pub name: String,
    /// Ordered argument list.
    pub args: Vec<(String, ArgValue)>,
}

impl ChromeEvent {
    /// A `process_name` metadata event.
    #[must_use]
    pub fn process_name(pid: u32, name: &str) -> Self {
        Self {
            ph: Ph::Meta,
            pid,
            tid: 0,
            ts: None,
            dur: None,
            name: "process_name".into(),
            args: vec![("name".into(), ArgValue::Str(name.into()))],
        }
    }

    /// A `thread_name` metadata event.
    #[must_use]
    pub fn thread_name(pid: u32, tid: u32, name: &str) -> Self {
        Self {
            ph: Ph::Meta,
            pid,
            tid,
            ts: None,
            dur: None,
            name: "thread_name".into(),
            args: vec![("name".into(), ArgValue::Str(name.into()))],
        }
    }

    /// Converts a recorded [`TraceEvent`] into its Chrome form: walks
    /// become complete events spanning their latency, everything else a
    /// thread-scoped instant.
    #[must_use]
    pub fn from_trace(pid: u32, tid: u32, event: &TraceEvent) -> Self {
        let (dur, args) = match event.kind {
            TraceEventKind::Walk { latency } => (
                Some(latency),
                vec![("latency_cycles".into(), ArgValue::Num(latency))],
            ),
            TraceEventKind::TlbHit { level } => (
                None,
                vec![("level".into(), ArgValue::Num(u64::from(level)))],
            ),
            _ => (None, Vec::new()),
        };
        Self {
            ph: if dur.is_some() {
                Ph::Complete
            } else {
                Ph::Instant
            },
            pid,
            tid,
            ts: Some(event.ts),
            dur,
            name: event.kind.name().into(),
            args,
        }
    }

    fn emit(&self, out: &mut String) {
        use std::fmt::Write as _;
        let ph = match self.ph {
            Ph::Meta => "M",
            Ph::Complete => "X",
            Ph::Instant => "i",
        };
        let _ = write!(
            out,
            "{{\"ph\":\"{ph}\",\"pid\":{},\"tid\":{}",
            self.pid, self.tid
        );
        if let Some(ts) = self.ts {
            let _ = write!(out, ",\"ts\":{ts}");
        }
        if let Some(dur) = self.dur {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        if self.ph == Ph::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"name\":\"{}\",\"args\":{{", escape(&self.name));
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(k));
            match v {
                ArgValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape(s));
                }
                ArgValue::Num(n) => {
                    let _ = write!(out, "{n}");
                }
            }
        }
        out.push_str("}}");
    }
}

/// Emits the canonical Chrome trace document: `{"traceEvents": [...]}`
/// with one event per line.
#[must_use]
pub fn to_json(events: &[ChromeEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        e.emit(&mut out);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser gave up at.
    pub at: usize,
    /// What it expected there.
    pub expected: &'static str,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "byte {}: expected {}", self.at, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// Parses a document emitted by [`to_json`]. Strict by design: the
/// grammar is exactly the emitter's canonical layout, so
/// `to_json(&parse(doc)?) == doc` for every accepted `doc`.
///
/// # Errors
///
/// Returns [`ParseError`] on the first byte deviating from the canonical
/// layout.
pub fn parse(text: &str) -> Result<Vec<ChromeEvent>, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.expect_str("{\"traceEvents\": [\n")?;
    let mut events = Vec::new();
    if !p.peek("]}") {
        loop {
            events.push(p.event()?);
            if p.eat(",\n") {
                continue;
            }
            p.expect_str("\n")?;
            break;
        }
    }
    p.expect_str("]}\n")?;
    if p.pos != p.bytes.len() {
        return Err(p.err("end of document"));
    }
    Ok(events)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            expected,
        }
    }

    fn peek(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.peek(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, s: &'static str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(s))
        }
    }

    fn num(&mut self) -> Result<u64, ParseError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("digit"));
        }
        core::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("u64"))
    }

    /// A quoted string, unescaping what [`escape`] produces.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_str("\"")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("closing quote")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("\\uXXXX escape"))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("escape character")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s = core::str::from_utf8(
                        self.bytes
                            .get(self.pos..self.pos + len)
                            .ok_or_else(|| self.err("utf-8 sequence"))?,
                    )
                    .map_err(|_| self.err("utf-8 sequence"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn event(&mut self) -> Result<ChromeEvent, ParseError> {
        self.expect_str("{\"ph\":\"")?;
        let ph = if self.eat("M") {
            Ph::Meta
        } else if self.eat("X") {
            Ph::Complete
        } else if self.eat("i") {
            Ph::Instant
        } else {
            return Err(self.err("phase M, X or i"));
        };
        self.expect_str("\",\"pid\":")?;
        let pid = self.num()? as u32;
        self.expect_str(",\"tid\":")?;
        let tid = self.num()? as u32;
        let mut ts = None;
        let mut dur = None;
        match ph {
            Ph::Meta => {}
            Ph::Complete => {
                self.expect_str(",\"ts\":")?;
                ts = Some(self.num()?);
                self.expect_str(",\"dur\":")?;
                dur = Some(self.num()?);
            }
            Ph::Instant => {
                self.expect_str(",\"ts\":")?;
                ts = Some(self.num()?);
                self.expect_str(",\"s\":\"t\"")?;
            }
        }
        self.expect_str(",\"name\":")?;
        let name = self.string()?;
        self.expect_str(",\"args\":{")?;
        let mut args = Vec::new();
        if !self.eat("}") {
            loop {
                let key = self.string()?;
                self.expect_str(":")?;
                let value = if self.peek("\"") {
                    ArgValue::Str(self.string()?)
                } else {
                    ArgValue::Num(self.num()?)
                };
                args.push((key, value));
                if self.eat(",") {
                    continue;
                }
                self.expect_str("}")?;
                break;
            }
        }
        self.expect_str("}")?;
        Ok(ChromeEvent {
            ph,
            pid,
            tid,
            ts,
            dur,
            name,
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ChromeEvent> {
        vec![
            ChromeEvent::process_name(1, "fig10/mc80/Baseline"),
            ChromeEvent::thread_name(1, 1, "mc80@core0"),
            ChromeEvent::from_trace(
                1,
                1,
                &TraceEvent {
                    ts: 10,
                    core: 0,
                    kind: TraceEventKind::Walk { latency: 191 },
                },
            ),
            ChromeEvent::from_trace(
                1,
                1,
                &TraceEvent {
                    ts: 220,
                    core: 0,
                    kind: TraceEventKind::TlbHit { level: 2 },
                },
            ),
            ChromeEvent::from_trace(
                1,
                1,
                &TraceEvent {
                    ts: 230,
                    core: 0,
                    kind: TraceEventKind::PrefetchIssue,
                },
            ),
        ]
    }

    #[test]
    fn emits_canonical_lines() {
        let json = to_json(&sample());
        assert!(json.starts_with("{\"traceEvents\": [\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"fig10/mc80/Baseline\"}}"
        ));
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":191,\
             \"name\":\"walk\",\"args\":{\"latency_cycles\":191}}"
        ));
        assert!(json.contains(
            "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":220,\"s\":\"t\",\
             \"name\":\"tlb_hit_l2\",\"args\":{\"level\":2}}"
        ));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let json = to_json(&sample());
        let parsed = parse(&json).expect("parses");
        assert_eq!(parsed, sample());
        assert_eq!(to_json(&parsed), json);
    }

    #[test]
    fn empty_document_round_trips() {
        let json = to_json(&[]);
        assert_eq!(json, "{\"traceEvents\": [\n]}\n");
        assert_eq!(parse(&json).unwrap(), Vec::new());
    }

    #[test]
    fn escaped_names_round_trip() {
        let events = vec![ChromeEvent::process_name(2, "a\"b\\c")];
        let json = to_json(&events);
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed[0].args[0].1, ArgValue::Str("a\"b\\c".into()));
        assert_eq!(to_json(&parsed), json);
    }

    #[test]
    fn rejects_non_canonical_input() {
        assert!(parse("{}").is_err());
        assert!(parse("{\"traceEvents\": [\n]}").is_err(), "missing newline");
        let err = parse("{\"traceEvents\": [\nnope\n]}\n").unwrap_err();
        assert_eq!(err.expected, "{\"ph\":\"");
        assert!(!err.to_string().is_empty());
    }
}
