//! Rule debugger: traces and visualizes event/rule interaction.
//!
//! The paper's Sentinel includes "a rule debugger for visualizing the
//! interaction among rules, among events and rules, and among rules and
//! database objects" (Z. Tamizuddin's thesis, reference [12]). This module
//! records a structured trace of every triggering, condition evaluation and
//! action execution (with nesting depth), and renders it as an indented
//! text tree.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use sentinel_detector::clock::Timestamp;
use sentinel_obs::TraceRecord;
use sentinel_snoop::ParamContext;

use crate::rule::RuleId;

/// One trace entry.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A rule was triggered by an event detection.
    Triggered {
        /// The rule.
        rule: RuleId,
        /// Rule name.
        rule_name: Arc<str>,
        /// Detected event name.
        event: Arc<str>,
        /// Detection context.
        context: ParamContext,
        /// Occurrence time.
        at: Timestamp,
        /// Nesting depth.
        depth: u32,
    },
    /// The condition was evaluated.
    Condition {
        /// The rule.
        rule: RuleId,
        /// Outcome.
        satisfied: bool,
        /// Nesting depth.
        depth: u32,
    },
    /// The action ran to completion.
    Action {
        /// The rule.
        rule: RuleId,
        /// Nesting depth.
        depth: u32,
    },
    /// A rule was notified but skipped (disabled, or trigger-mode filter).
    Skipped {
        /// The rule.
        rule: RuleId,
        /// Why it was skipped.
        reason: &'static str,
        /// Nesting depth.
        depth: u32,
    },
}

impl TraceEvent {
    fn depth(&self) -> u32 {
        match self {
            TraceEvent::Triggered { depth, .. }
            | TraceEvent::Condition { depth, .. }
            | TraceEvent::Action { depth, .. }
            | TraceEvent::Skipped { depth, .. } => *depth,
        }
    }
}

/// Collects and renders rule-execution traces.
#[derive(Debug, Default)]
pub struct RuleDebugger {
    trace: Mutex<Vec<TraceEvent>>,
    enabled: AtomicBool,
    /// Structured trace stream attached via [`Self::attach_stream`]
    /// (subscription to a `sentinel_obs::TraceBus`).
    stream: Mutex<Option<Receiver<Arc<TraceRecord>>>>,
    /// Records already drained from the stream, retained (up to
    /// [`Self::RETAINED_RECORDS`]) so [`Self::follow`] can filter a causal
    /// chain interactively after the fact.
    seen: Mutex<Vec<Arc<TraceRecord>>>,
}

impl RuleDebugger {
    /// A debugger (disabled until [`Self::set_enabled`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns tracing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one entry (no-op while disabled).
    pub fn record(&self, ev: TraceEvent) {
        if self.enabled() {
            self.trace.lock().push(ev);
        }
    }

    /// Takes the trace, clearing the buffer.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace.lock())
    }

    /// Snapshot without clearing.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.trace.lock().clone()
    }

    /// Renders the trace as an indented tree, one line per entry:
    ///
    /// ```text
    /// ▶ R1 «e4» [CUMULATIVE] @17
    ///   ? R1 condition = true
    ///   ! R1 action done
    ///     ▶ R2 «price_drop» [RECENT] @18      (nested)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in self.trace.lock().iter() {
            let indent = "  ".repeat(ev.depth() as usize);
            match ev {
                TraceEvent::Triggered { rule, rule_name, event, context, at, .. } => {
                    let _ =
                        writeln!(out, "{indent}▶ {rule} {rule_name} «{event}» [{context}] @{at}");
                }
                TraceEvent::Condition { rule, satisfied, .. } => {
                    let _ = writeln!(out, "{indent}  ? {rule} condition = {satisfied}");
                }
                TraceEvent::Action { rule, .. } => {
                    let _ = writeln!(out, "{indent}  ! {rule} action done");
                }
                TraceEvent::Skipped { rule, reason, .. } => {
                    let _ = writeln!(out, "{indent}  ~ {rule} skipped ({reason})");
                }
            }
        }
        out
    }

    /// Renders the *dynamic* event→rule interaction graph of the recorded
    /// trace as Graphviz DOT: events (ellipses) point at the rules they
    /// triggered (boxes), edges weighted by firing count; rule→rule edges
    /// (dashed) connect a rule to rules triggered at the next nesting depth
    /// while it ran — the "interaction among rules" view of the Sentinel
    /// rule debugger.
    pub fn interaction_dot(&self) -> String {
        use std::collections::HashMap;
        let trace = self.trace.lock();
        let mut event_edges: HashMap<(Arc<str>, Arc<str>), usize> = HashMap::new();
        let mut nest_edges: HashMap<(Arc<str>, Arc<str>), usize> = HashMap::new();
        // Track the most recent rule seen at each depth to attribute
        // nesting: a Triggered at depth d+1 was caused by the rule whose
        // frame is open at depth d.
        let mut open: Vec<Arc<str>> = Vec::new();
        for ev in trace.iter() {
            if let TraceEvent::Triggered { rule_name, event, depth, .. } = ev {
                let depth = *depth as usize;
                open.truncate(depth);
                if depth > 0 {
                    if let Some(parent) = open.get(depth - 1) {
                        *nest_edges.entry((parent.clone(), rule_name.clone())).or_default() += 1;
                    }
                }
                *event_edges.entry((event.clone(), rule_name.clone())).or_default() += 1;
                if open.len() == depth {
                    open.push(rule_name.clone());
                } else {
                    open[depth] = rule_name.clone();
                }
            }
        }
        let mut out = String::from("digraph rule_interaction {\n  rankdir=LR;\n");
        let mut events: Vec<&Arc<str>> = event_edges.keys().map(|(e, _)| e).collect();
        events.sort();
        events.dedup();
        for e in events {
            let _ = writeln!(out, "  \"ev:{e}\" [shape=ellipse, label=\"{e}\"];");
        }
        let mut rules: Vec<&Arc<str>> = event_edges.keys().map(|(_, r)| r).collect();
        rules.extend(nest_edges.keys().map(|(_, r)| r));
        rules.sort();
        rules.dedup();
        for r in rules {
            let _ = writeln!(out, "  \"rule:{r}\" [shape=box, label=\"{r}\"];");
        }
        let mut edges: Vec<_> = event_edges.into_iter().collect();
        edges.sort();
        for ((e, r), n) in edges {
            let _ = writeln!(out, "  \"ev:{e}\" -> \"rule:{r}\" [label=\"{n}\"];");
        }
        let mut edges: Vec<_> = nest_edges.into_iter().collect();
        edges.sort();
        for ((p, r), n) in edges {
            let _ = writeln!(out, "  \"rule:{p}\" -> \"rule:{r}\" [style=dashed, label=\"{n}\"];");
        }
        out.push_str("}\n");
        out
    }

    /// Attaches a structured trace stream (a subscription obtained from
    /// `sentinel_obs::TraceBus::subscribe`). The debugger then consumes
    /// records from every instrumented subsystem — detector detections and
    /// flushes as well as scheduler firings — not just its own scheduler
    /// callbacks.
    pub fn attach_stream(&self, rx: Receiver<Arc<TraceRecord>>) {
        *self.stream.lock() = Some(rx);
    }

    /// Most stream records retained for [`Self::follow`].
    const RETAINED_RECORDS: usize = 16_384;

    /// Drains all records currently buffered on the attached stream
    /// (empty when no stream is attached). Drained records are also
    /// retained internally so [`Self::follow`] can revisit them.
    pub fn drain_stream(&self) -> Vec<Arc<TraceRecord>> {
        let drained: Vec<Arc<TraceRecord>> = match self.stream.lock().as_ref() {
            Some(rx) => rx.try_iter().collect(),
            None => Vec::new(),
        };
        if !drained.is_empty() {
            let mut seen = self.seen.lock();
            seen.extend(drained.iter().cloned());
            let len = seen.len();
            if len > Self::RETAINED_RECORDS {
                seen.drain(..len - Self::RETAINED_RECORDS);
            }
        }
        drained
    }

    /// All retained records belonging to causal chain `trace_id` (the
    /// `trace` field the scheduler stamps on triggered/condition/action
    /// records when provenance tracing is on), in emission order. Drains
    /// the stream first, so a chain can be followed interactively while
    /// rules are firing.
    pub fn follow(&self, trace_id: u64) -> Vec<Arc<TraceRecord>> {
        let _ = self.drain_stream();
        self.seen
            .lock()
            .iter()
            .filter(
                |r| matches!(r.field("trace"), Some(sentinel_obs::Field::U64(t)) if *t == trace_id),
            )
            .cloned()
            .collect()
    }

    /// Renders [`Self::follow`] output, one line per record, indented by
    /// cascade depth.
    pub fn render_follow(&self, trace_id: u64) -> String {
        let mut out = String::new();
        for rec in self.follow(trace_id) {
            let depth = rec
                .field("depth")
                .and_then(|f| match f {
                    sentinel_obs::Field::U64(d) => Some(*d as usize),
                    _ => None,
                })
                .unwrap_or(0);
            let _ = writeln!(out, "{}{rec}", "  ".repeat(depth));
        }
        out
    }

    /// Drains the attached stream and renders one line per record,
    /// indented by the record's `depth` field where present.
    pub fn render_stream(&self) -> String {
        let mut out = String::new();
        for rec in self.drain_stream() {
            let depth = rec
                .field("depth")
                .and_then(|f| match f {
                    sentinel_obs::Field::U64(d) => Some(*d as usize),
                    _ => None,
                })
                .unwrap_or(0);
            let _ = writeln!(out, "{}{rec}", "  ".repeat(depth));
        }
        out
    }

    /// Simple statistics: `(triggered, conditions_true, actions, skipped)`.
    pub fn stats(&self) -> (usize, usize, usize, usize) {
        let trace = self.trace.lock();
        let triggered = trace.iter().filter(|e| matches!(e, TraceEvent::Triggered { .. })).count();
        let sat = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Condition { satisfied: true, .. }))
            .count();
        let actions = trace.iter().filter(|e| matches!(e, TraceEvent::Action { .. })).count();
        let skipped = trace.iter().filter(|e| matches!(e, TraceEvent::Skipped { .. })).count();
        (triggered, sat, actions, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triggered(depth: u32) -> TraceEvent {
        TraceEvent::Triggered {
            rule: RuleId(1),
            rule_name: Arc::from("R1"),
            event: Arc::from("e4"),
            context: ParamContext::Cumulative,
            at: 17,
            depth,
        }
    }

    #[test]
    fn disabled_debugger_records_nothing() {
        let d = RuleDebugger::new();
        d.record(triggered(0));
        assert!(d.snapshot().is_empty());
    }

    #[test]
    fn records_and_renders() {
        let d = RuleDebugger::new();
        d.set_enabled(true);
        d.record(triggered(0));
        d.record(TraceEvent::Condition { rule: RuleId(1), satisfied: true, depth: 0 });
        d.record(TraceEvent::Action { rule: RuleId(1), depth: 0 });
        d.record(triggered(1));
        d.record(TraceEvent::Skipped { rule: RuleId(2), reason: "disabled", depth: 1 });
        let render = d.render();
        assert!(render.contains("R1 «e4» [CUMULATIVE] @17"));
        assert!(render.contains("condition = true"));
        assert!(render.contains("skipped (disabled)"));
        // Nested line is indented deeper.
        let lines: Vec<&str> = render.lines().collect();
        assert!(lines[3].starts_with("  ▶"));
        assert_eq!(d.stats(), (2, 1, 1, 1));
    }

    #[test]
    fn interaction_dot_shows_event_and_nesting_edges() {
        let d = RuleDebugger::new();
        d.set_enabled(true);
        // R1 triggered by e4 at depth 0, which triggers R2 (e5) at depth 1,
        // then R1 fires again on another e4.
        d.record(TraceEvent::Triggered {
            rule: RuleId(1),
            rule_name: Arc::from("R1"),
            event: Arc::from("e4"),
            context: ParamContext::Recent,
            at: 1,
            depth: 0,
        });
        d.record(TraceEvent::Triggered {
            rule: RuleId(2),
            rule_name: Arc::from("R2"),
            event: Arc::from("e5"),
            context: ParamContext::Recent,
            at: 2,
            depth: 1,
        });
        d.record(TraceEvent::Triggered {
            rule: RuleId(1),
            rule_name: Arc::from("R1"),
            event: Arc::from("e4"),
            context: ParamContext::Recent,
            at: 3,
            depth: 0,
        });
        let dot = d.interaction_dot();
        assert!(dot.contains("\"ev:e4\" -> \"rule:R1\" [label=\"2\"]"));
        assert!(dot.contains("\"ev:e5\" -> \"rule:R2\" [label=\"1\"]"));
        assert!(dot.contains("\"rule:R1\" -> \"rule:R2\" [style=dashed, label=\"1\"]"));
    }

    #[test]
    fn stream_attach_drain_and_render() {
        use sentinel_obs::{Field, TraceBus};
        let bus = TraceBus::new();
        let d = RuleDebugger::new();
        assert!(d.drain_stream().is_empty(), "no stream attached");
        d.attach_stream(bus.subscribe());
        bus.emit(
            "scheduler",
            "triggered",
            vec![("rule", Field::from("R1")), ("depth", Field::U64(1))],
        );
        bus.emit("detector", "flush_txn", vec![("txn", Field::U64(7))]);
        let rendered = d.render_stream();
        assert!(rendered.contains("scheduler/triggered rule=R1 depth=1"));
        assert!(rendered.contains("detector/flush_txn txn=7"));
        assert!(rendered.starts_with("  ["), "depth=1 record is indented");
        assert!(d.drain_stream().is_empty(), "render drained the stream");
    }

    #[test]
    fn follow_filters_one_causal_chain_across_drains() {
        use sentinel_obs::{Field, TraceBus};
        let bus = TraceBus::new();
        let d = RuleDebugger::new();
        d.attach_stream(bus.subscribe());
        bus.emit(
            "scheduler",
            "triggered",
            vec![("rule", Field::from("R1")), ("trace", 3u64.into())],
        );
        bus.emit(
            "scheduler",
            "condition",
            vec![("rule", Field::from("R2")), ("trace", 4u64.into())],
        );
        // First chunk drained (and retained) before the chain continues.
        assert_eq!(d.drain_stream().len(), 2);
        bus.emit(
            "scheduler",
            "action",
            vec![("rule", Field::from("R1")), ("depth", Field::U64(1)), ("trace", 3u64.into())],
        );
        let chain = d.follow(3);
        assert_eq!(chain.len(), 2, "both T3 records, old and new");
        assert!(chain.iter().all(|r| r.field("trace") == Some(&Field::U64(3))));
        let rendered = d.render_follow(3);
        assert!(rendered.contains("scheduler/triggered rule=R1"));
        assert!(rendered.contains("  [") && rendered.contains("action"), "depth-1 indent");
        assert!(d.follow(99).is_empty());
    }

    #[test]
    fn take_clears() {
        let d = RuleDebugger::new();
        d.set_enabled(true);
        d.record(triggered(0));
        assert_eq!(d.take().len(), 1);
        assert!(d.snapshot().is_empty());
    }
}
