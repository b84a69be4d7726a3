//! Chrome trace-event export.
//!
//! Renders a set of [`SpanRecord`]s as the Chrome trace-event JSON format
//! (`{"traceEvents":[...]}`), loadable in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`. Each span becomes one complete (`"ph":"X"`) event;
//! composite detections additionally emit flow events (`"ph":"s"`/`"f"`)
//! from each constituent span so the causal links render as arrows.
//!
//! Layout: `pid` is the trace id (Perfetto groups each causal chain into
//! its own process track) and `tid` is the cascade depth, so a cascade
//! reads top-to-bottom as it deepens. Span/parent/link ids and all typed
//! fields ride along in `args`.

use crate::json::Value;
use crate::span::SpanRecord;

/// Converts nanoseconds-since-epoch to the microsecond float timestamps
/// the trace-event format wants, keeping sub-microsecond precision.
fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1_000.0)
}

fn event_args(span: &SpanRecord) -> Value {
    let mut pairs = vec![
        ("trace".to_string(), Value::UInt(span.trace.0)),
        ("span".to_string(), Value::UInt(span.span.0)),
        ("parent".to_string(), span.parent.map_or(Value::Null, |p| Value::UInt(p.0))),
        ("kind".to_string(), Value::str(span.kind)),
        ("depth".to_string(), Value::UInt(u64::from(span.depth))),
    ];
    if !span.links.is_empty() {
        pairs.push((
            "links".to_string(),
            Value::Arr(span.links.iter().map(|l| Value::UInt(l.span.0)).collect()),
        ));
    }
    for (k, v) in &span.fields {
        pairs.push((k.to_string(), v.to_json()));
    }
    Value::Obj(pairs)
}

/// One complete ("X") event for a span.
fn complete_event(span: &SpanRecord) -> Value {
    Value::obj([
        ("name", Value::str(format!("{}:{}", span.kind, span.name))),
        ("cat", Value::str(span.kind)),
        ("ph", Value::str("X")),
        ("ts", us(span.start_ns)),
        // Zero-duration slices are invisible in Perfetto; clamp up to 1ns.
        ("dur", us(span.duration_ns().max(1))),
        ("pid", Value::UInt(span.trace.0)),
        ("tid", Value::UInt(u64::from(span.depth))),
        ("args", event_args(span)),
    ])
}

/// A flow step ("s" start at the link source, "f" finish at `span`) so the
/// constituent → composite links draw as arrows.
fn flow_events(span: &SpanRecord, out: &mut Vec<Value>) {
    for link in &span.links {
        let id = link.span.0;
        out.push(Value::obj([
            ("name", Value::str("constituent")),
            ("cat", Value::str("link")),
            ("ph", Value::str("s")),
            ("ts", us(span.start_ns)),
            ("pid", Value::UInt(link.trace.0)),
            ("tid", Value::UInt(0)),
            ("id", Value::UInt(id)),
        ]));
        out.push(Value::obj([
            ("name", Value::str("constituent")),
            ("cat", Value::str("link")),
            ("ph", Value::str("f")),
            ("bp", Value::str("e")),
            ("ts", us(span.end_ns.max(span.start_ns + 1))),
            ("pid", Value::UInt(span.trace.0)),
            ("tid", Value::UInt(u64::from(span.depth))),
            ("id", Value::UInt(id)),
        ]));
    }
}

/// Renders `spans` as a Chrome trace-event document
/// (`{"traceEvents":[...],"displayTimeUnit":"ns"}`).
pub fn to_chrome_trace(spans: &[SpanRecord]) -> Value {
    let mut events = Vec::with_capacity(spans.len());
    for span in spans {
        events.push(complete_event(span));
        flow_events(span, &mut events);
    }
    Value::obj([("traceEvents", Value::Arr(events)), ("displayTimeUnit", Value::str("ns"))])
}

/// Renders `spans` as Chrome trace-event JSON text.
pub fn to_chrome_trace_json(spans: &[SpanRecord]) -> String {
    to_chrome_trace(spans).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Field, SpanContext, SpanId, TraceId};
    use std::sync::Arc;

    fn span(trace: u64, id: u64, parent: Option<u64>, links: &[u64]) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span: SpanId(id),
            parent: parent.map(SpanId),
            links: links
                .iter()
                .map(|&s| SpanContext { trace: TraceId(trace), span: SpanId(s) })
                .collect(),
            kind: "detect",
            name: Arc::from("seq"),
            start_ns: 1_500,
            end_ns: 4_000,
            depth: 1,
            fields: vec![("context", Field::from("recent"))],
        }
    }

    #[test]
    fn export_parses_and_carries_span_identity() {
        let doc = to_chrome_trace(&[span(7, 3, Some(2), &[1, 2])]);
        let parsed = Value::parse(&doc.to_string()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 complete event + 2 links × 2 flow halves.
        assert_eq!(events.len(), 5);
        let x = &events[0];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("name").unwrap().as_str(), Some("detect:seq"));
        assert_eq!(x.get("pid").unwrap().as_u64(), Some(7));
        let args = x.get("args").unwrap();
        assert_eq!(args.get("span").unwrap().as_u64(), Some(3));
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(2));
        assert_eq!(args.get("context").unwrap().as_str(), Some("recent"));
        assert_eq!(args.get("links").unwrap().as_arr().unwrap().len(), 2);
        // Flow halves pair up by id.
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(events[2].get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(events[1].get("id").unwrap(), events[2].get("id").unwrap());
    }

    #[test]
    fn timestamps_are_microseconds() {
        let doc = to_chrome_trace(&[span(1, 1, None, &[])]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("ts").unwrap(), &Value::Float(1.5));
        assert_eq!(events[0].get("dur").unwrap(), &Value::Float(2.5));
    }
}
