//! Trace events and their JSONL encoding.
//!
//! An event's *identity* is its `(kind, name)` pair plus the field keys —
//! never a timestamp. Wall-clock durations and metric values live in the
//! payload only, so two runs of the same deterministic program produce
//! event streams that are identical up to payload values, and tests can
//! assert exact event counts.

use std::fmt::Write as _;

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `value` is the elapsed wall-clock microseconds.
    Span,
    /// A monotonic counter's current total: `value` is the total.
    Counter,
    /// A histogram summary: `value` is the observation count; the
    /// `p50`/`p95`/`max`/`sum` summary statistics ride in `fields`.
    Hist,
    /// An out-of-band warning (e.g. a sink degrading to no-op).
    Warn,
}

impl EventKind {
    /// Wire name used in the JSONL `"ev"` key.
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Hist => "hist",
            EventKind::Warn => "warn",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload.
    U64(u64),
    /// Signed integer payload.
    I64(i64),
    /// Floating-point payload (non-finite values encode as `null`).
    F64(f64),
    /// String payload.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One trace event. See the module docs for the identity/payload split.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Event class.
    pub kind: EventKind,
    /// Stable dotted name (`pretrain.epoch`, `nn.matmul.calls`, …).
    pub name: &'static str,
    /// Primary payload value; meaning depends on `kind`.
    pub value: f64,
    /// Additional payload fields in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Convenience constructor without fields.
    pub fn new(kind: EventKind, name: &'static str, value: f64) -> Self {
        Event { kind, name, value, fields: Vec::new() }
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Encodes the event as one JSONL line (schema v1, no trailing
    /// newline). The key for `value` depends on the kind: `us` for spans,
    /// `value` for counters/warns, `count` for histogram summaries.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"v\":1,\"ev\":\"");
        s.push_str(self.kind.wire_name());
        s.push_str("\",\"name\":");
        write_json_str(&mut s, self.name);
        let value_key = match self.kind {
            EventKind::Span => "us",
            EventKind::Hist => "count",
            EventKind::Counter | EventKind::Warn => "value",
        };
        s.push_str(",\"");
        s.push_str(value_key);
        s.push_str("\":");
        write_json_num(&mut s, self.value);
        if !self.fields.is_empty() {
            s.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                write_json_str(&mut s, k);
                s.push(':');
                match v {
                    FieldValue::U64(x) => {
                        let _ = write!(s, "{x}");
                    }
                    FieldValue::I64(x) => {
                        let _ = write!(s, "{x}");
                    }
                    FieldValue::F64(x) => write_json_num(&mut s, *x),
                    FieldValue::Str(x) => write_json_str(&mut s, x),
                }
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// Writes a JSON string literal (quotes + escapes) into `out`.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Writes a JSON number; non-finite floats become `null` (JSON has no
/// NaN/Inf) so a bad value can never corrupt the stream.
fn write_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_encodes_with_us_key() {
        let mut e = Event::new(EventKind::Span, "pretrain.epoch", 1234.5);
        e.fields.push(("epoch", FieldValue::U64(0)));
        e.fields.push(("loss", FieldValue::F64(5.25)));
        assert_eq!(
            e.to_jsonl(),
            r#"{"v":1,"ev":"span","name":"pretrain.epoch","us":1234.5,"fields":{"epoch":0,"loss":5.25}}"#
        );
    }

    #[test]
    fn counter_event_encodes_with_value_key() {
        let e = Event::new(EventKind::Counter, "engine.queries", 42.0);
        assert_eq!(e.to_jsonl(), r#"{"v":1,"ev":"counter","name":"engine.queries","value":42}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let mut e = Event::new(EventKind::Warn, "obs.sink.degraded", 1.0);
        e.fields.push(("error", FieldValue::Str("broken \"pipe\"\n".into())));
        assert!(e.to_jsonl().contains(r#""error":"broken \"pipe\"\n""#));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let e = Event::new(EventKind::Counter, "x", f64::NAN);
        assert_eq!(e.to_jsonl(), r#"{"v":1,"ev":"counter","name":"x","value":null}"#);
    }
}
