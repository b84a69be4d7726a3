//! Spans recorded by the benchmark's own code around calls into each
//! layer, kept in memory and written as Chrome trace-event JSON at exit.
//!
//! A ladder replays the same operations through successive rungs, each a
//! public call one layer deeper. Operation `op_id` therefore has one span
//! per rung; a span's parent is the span with the same `op_id` on the
//! rung above, and a layer's self time is its rung minus the rung below.

use std::path::Path;
use std::time::Instant;

use sentinel_core::obs::json::Value;

use crate::params::SPAN_SAMPLING;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink. A disabled recorder drops everything, so rungs
/// are written once and run traced or untraced.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Whether operation `op_id` keeps its span (1 in [`SPAN_SAMPLING`]).
    pub fn samples(&self, op_id: usize) -> bool {
        self.enabled && op_id.is_multiple_of(SPAN_SAMPLING)
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op_id: usize,
        start: Instant,
        end: Instant,
    ) {
        if !self.samples(op_id) {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op_id: op_id as u64,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// one complete (`X`) event per span, rungs as threads.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut rungs: Vec<&'static str> = Vec::new();
        let events = self
            .spans
            .iter()
            .map(|s| {
                let tid = match rungs.iter().position(|r| *r == s.name) {
                    Some(i) => i,
                    None => {
                        rungs.push(s.name);
                        rungs.len() - 1
                    }
                };
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("ph", Value::str("X")),
                    ("pid", Value::UInt(1)),
                    ("tid", Value::UInt(tid as u64)),
                    ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Value::obj([
                            ("op_id", Value::UInt(s.op_id)),
                            ("parent", s.parent.map_or(Value::Null, Value::str)),
                            ("start_ns", Value::UInt(s.start_ns)),
                            ("end_ns", Value::UInt(s.end_ns)),
                        ]),
                    ),
                ])
            })
            .collect();
        std::fs::write(path, format!("{}\n", Value::obj([("traceEvents", Value::Arr(events))])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_one_span_in_sixty_four_and_links_parents() {
        let mut rec = Recorder::new(true);
        let t = Instant::now();
        for op in 0..200 {
            rec.record("core.raise", None, op, t, t);
            rec.record("detector.notify", Some("core.raise"), op, t, t);
        }
        assert_eq!(rec.spans.len(), 2 * 4);
        assert!(rec.spans.iter().all(|s| s.op_id % 64 == 0));
        assert_eq!(rec.spans[1].parent, Some("core.raise"));

        let mut off = Recorder::new(false);
        off.record("x", None, 0, t, t);
        assert!(off.spans.is_empty());
    }
}
