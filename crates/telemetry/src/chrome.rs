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

use crate::json::{self, escape, Value};
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

/// Parses a document emitted by [`to_json`]. Strict by design: the
/// document must be exactly the emitter's canonical layout, so
/// `to_json(&parse(doc)?) == doc` for every accepted `doc`. Each event is
/// mapped as [`json::parse_array_member`] reads it; the events are then
/// re-emitted and compared.
///
/// # Errors
///
/// [`json::Error`] at the first byte that is not JSON, does not fit the
/// event schema, or differs from the canonical layout.
pub fn parse(text: &str) -> Result<Vec<ChromeEvent>, json::Error> {
    let mut events = Vec::new();
    json::parse_array_member(text, "traceEvents", |v| {
        events.push(event(&v)?);
        Ok(())
    })?;
    let canonical = to_json(&events);
    if canonical != text {
        let same = canonical.bytes().zip(text.bytes());
        let at = same.take_while(|(a, b)| a == b).count();
        return Err(json::Error::new(at, "differs from the canonical layout"));
    }
    Ok(events)
}

/// Maps one event object, taking its keys in emission order: a phase's
/// keys are exactly those [`ChromeEvent::emit`] writes for it.
fn event(v: &Value<'_>) -> Result<ChromeEvent, json::Error> {
    v.with_members(|m| {
        let ph_value = m.take("ph")?;
        let ph = match ph_value.as_str()? {
            "M" => Ph::Meta,
            "X" => Ph::Complete,
            "i" => Ph::Instant,
            _ => return Err(ph_value.error("expected phase M, X or i")),
        };
        let pid = id(m.take("pid")?)?;
        let tid = id(m.take("tid")?)?;
        let ts = (ph != Ph::Meta).then(|| m.take("ts")?.u64()).transpose()?;
        let dur = (ph == Ph::Complete)
            .then(|| m.take("dur")?.u64())
            .transpose()?;
        if ph == Ph::Instant {
            m.take("s")?; // the scope, "t": the re-emit checks it
        }
        let name = m.take("name")?.as_str()?.to_owned();
        let args = m.take("args")?.object()?.iter().map(|(k, v)| {
            let value = match v.as_str() {
                Ok(s) => ArgValue::Str(s.to_owned()),
                Err(_) => ArgValue::Num(v.u64()?),
            };
            Ok((k.as_ref().to_owned(), value))
        });
        let args = args.collect::<Result<_, json::Error>>()?;
        Ok(ChromeEvent {
            ph,
            pid,
            tid,
            ts,
            dur,
            name,
            args,
        })
    })
}

/// A pid or tid: an unsigned integer that fits in `u32`.
fn id(v: &Value<'_>) -> Result<u32, json::Error> {
    u32::try_from(v.u64()?).map_err(|_| v.error("expected an id of at most u32::MAX"))
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
        assert_eq!(err.offset, 18, "at the first byte of the bad event");
        assert!(!err.to_string().is_empty());
        // A pid or tid above u32::MAX is an error, not a wrapped id.
        for (id, at) in [
            ("\"pid\":4294967297,\"tid\":0", 34),
            ("\"pid\":1,\"tid\":4294967296", 42),
        ] {
            let doc = format!(
                "{{\"traceEvents\": [\n{{\"ph\":\"M\",{id},\"name\":\"process_name\",\"args\":{{}}}}\n]}}\n"
            );
            let err = parse(&doc).unwrap_err();
            assert_eq!(err.offset, at, "{doc}");
            assert!(err.message.contains("u32::MAX"), "{err}");
        }
        // Each phase carries exactly its own keys, in emission order.
        for (event, at, key) in [
            (
                r#"{"ph":"M","pid":1,"tid":0,"ts":5,"name":"n","args":{}}"#,
                49,
                "\"ts\"",
            ),
            (
                r#"{"ph":"X","pid":1,"tid":1,"ts":5,"name":"n","args":{}}"#,
                58,
                "\"dur\"",
            ),
            (
                r#"{"ph":"i","pid":1,"tid":1,"ts":5,"dur":1,"s":"t","name":"n","args":{}}"#,
                57,
                "\"dur\"",
            ),
            (
                r#"{"ph":"i","pid":1,"tid":1,"ts":5,"s":"p","name":"n","args":{}}"#,
                56,
                "canonical",
            ),
        ] {
            let doc = format!("{{\"traceEvents\": [\n{event}\n]}}\n");
            let err = parse(&doc).unwrap_err();
            assert_eq!(err.offset, at, "{doc}: {err}");
            assert!(err.message.contains(key), "{err}");
        }
        // A non-canonical layout is rejected at its first differing byte.
        let mut json = to_json(&sample());
        json.insert(19, ' ');
        assert_eq!(parse(&json).unwrap_err().offset, 19);
    }
}
