//! Causal provenance spans: the trace model that links a rule action back
//! to the primitive method invocations that caused it.
//!
//! The paper's central data structure is the *linked parameter list*: a
//! composite occurrence "contains the parameters of each primitive event
//! that participates in the detection" (§2.3), and cascaded rule firings
//! extend the chain. This module makes that causality a first-class,
//! queryable artifact:
//!
//! * every primitive `Notify` allocates a [`TraceId`] and a root
//!   [`SpanId`] (or joins the trace of the rule action that raised it —
//!   the cascade link);
//! * composite detections record **links** to the spans of every
//!   constituent occurrence, per parameter context;
//! * condition/action spans parent on the triggering occurrence's span
//!   and stamp the cascade depth;
//! * storage tags WAL forces and page I/O with the span they ran inside.
//!
//! Completed spans land in a fixed-capacity ring buffer ([`TraceStore`])
//! with query helpers (by trace, by rule, by event, slowest-N) and a
//! Chrome trace-event exporter ([`crate::export`]) loadable in Perfetto.
//!
//! The ambient span is a thread-local stack ([`push_current`]): the
//! scheduler pushes the action span while an action runs, so events the
//! action raises — and I/O the storage engine performs — attach to it
//! without any parameter plumbing.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Value;
use crate::Counter;

/// A typed field value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    U64(u64),
    I64(i64),
    Str(Arc<str>),
    Bool(bool),
}

impl Field {
    /// Renders as a JSON value.
    pub fn to_json(&self) -> Value {
        match self {
            Field::U64(n) => Value::UInt(*n),
            Field::I64(n) => Value::Int(*n),
            Field::Str(s) => Value::str(s.as_ref()),
            Field::Bool(b) => Value::Bool(*b),
        }
    }
}

impl From<u64> for Field {
    fn from(n: u64) -> Self {
        Field::U64(n)
    }
}

impl From<i64> for Field {
    fn from(n: i64) -> Self {
        Field::I64(n)
    }
}

impl From<bool> for Field {
    fn from(b: bool) -> Self {
        Field::Bool(b)
    }
}

impl From<&str> for Field {
    fn from(s: &str) -> Self {
        Field::Str(Arc::from(s))
    }
}

impl From<Arc<str>> for Field {
    fn from(s: Arc<str>) -> Self {
        Field::Str(s)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::U64(n) => write!(f, "{n}"),
            Field::I64(n) => write!(f, "{n}"),
            Field::Str(s) => write!(f, "{s}"),
            Field::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Identifies one end-to-end causal chain (1-based; 0 is never issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies one span within a store (1-based; 0 is never issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The propagated context: which trace an occurrence belongs to and which
/// span represents it. Small and `Copy` so occurrences carry it for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The causal chain.
    pub trace: TraceId,
    /// The span representing this occurrence/operation.
    pub span: SpanId,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The causal chain this span belongs to.
    pub trace: TraceId,
    /// This span.
    pub span: SpanId,
    /// Parent span within the same trace (None for roots).
    pub parent: Option<SpanId>,
    /// Causal links to spans *other than* the parent — a composite
    /// detection links every constituent occurrence's span here (the
    /// linked parameter list, lifted into the trace model).
    pub links: Vec<SpanContext>,
    /// Span kind: `"signal"`, `"primitive"`, `"detect"`, `"condition"`,
    /// `"action"`, `"flush"`, `"wal_force"`, `"page_read"`, `"page_write"`,
    /// `"net_signal"` (server-side root of a client-initiated trace).
    pub kind: &'static str,
    /// Display name (event name, rule name, …).
    pub name: Arc<str>,
    /// Start, nanoseconds since the store's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the store's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Cascade depth (0 = triggered from the application) where known.
    pub depth: u32,
    /// Extra typed fields (parameter context, rule outcome, txn, …).
    pub fields: Vec<(&'static str, Field)>,
}

impl SpanRecord {
    /// Wall-clock duration of the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of a named field, if present.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Renders as a JSON object (the `sentinel-trace` CLI's dump format).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("trace".to_string(), Value::UInt(self.trace.0)),
            ("span".to_string(), Value::UInt(self.span.0)),
            ("parent".to_string(), self.parent.map_or(Value::Null, |p| Value::UInt(p.0))),
            (
                "links".to_string(),
                Value::Arr(self.links.iter().map(|l| Value::UInt(l.span.0)).collect()),
            ),
            ("kind".to_string(), Value::str(self.kind)),
            ("name".to_string(), Value::str(self.name.as_ref())),
            ("start_ns".to_string(), Value::UInt(self.start_ns)),
            ("dur_ns".to_string(), Value::UInt(self.duration_ns())),
            ("depth".to_string(), Value::UInt(u64::from(self.depth))),
        ];
        for (k, v) in &self.fields {
            pairs.push((k.to_string(), v.to_json()));
        }
        Value::Obj(pairs)
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}:{} +{}ns dur={}ns",
            self.trace,
            self.span,
            self.kind,
            self.name,
            self.start_ns,
            self.duration_ns()
        )?;
        if let Some(p) = self.parent {
            write!(f, " parent={p}")?;
        }
        if !self.links.is_empty() {
            write!(f, " links=[")?;
            for (i, l) in self.links.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", l.span)?;
            }
            write!(f, "]")?;
        }
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// An open span: created by [`TraceStore::start`], completed (and recorded)
/// by [`TraceStore::finish`]. Not `Drop`-guarded: losing a handle simply
/// never records the span, which is the right failure mode for tracing.
#[derive(Debug)]
pub struct SpanHandle {
    /// The context child work should propagate.
    pub ctx: SpanContext,
    parent: Option<SpanId>,
    kind: &'static str,
    name: Arc<str>,
    start_ns: u64,
}

/// Per-trace roll-up returned by [`TraceStore::trace_summaries`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The trace.
    pub trace: TraceId,
    /// Spans recorded for it (ring-buffer resident only).
    pub spans: usize,
    /// Name of the earliest span (the root signal, normally).
    pub root: Arc<str>,
    /// Span of wall-clock covered: max(end) - min(start), ns.
    pub wall_ns: u64,
}

/// Fixed-capacity ring buffer of completed [`SpanRecord`]s plus the id
/// allocators. Disabled by default: every entry point checks one relaxed
/// atomic load, so an idle store costs nothing on the hot path.
#[derive(Debug)]
pub struct TraceStore {
    enabled: AtomicBool,
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    /// Spans evicted from the ring by newer ones.
    evicted: Counter,
}

/// Default ring capacity (spans retained).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// High bit marking trace ids adopted from a remote client
/// ([`TraceStore::adopt_remote`]); locally allocated ids count up from 1
/// and never reach it.
pub const REMOTE_TRACE_BIT: u64 = 1 << 63;

impl Default for TraceStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl TraceStore {
    /// A disabled store with the default ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disabled store retaining at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceStore {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            evicted: Counter::new(),
        }
    }

    /// Turns recording on or off. Spans already recorded are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded (one relaxed load).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this store's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Allocates a fresh trace id.
    pub fn new_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Adopts a trace id propagated from a remote client (the optional
    /// trace field of a `sentinel-net` signal frame). The returned id has
    /// [`REMOTE_TRACE_BIT`] set so it can never collide with the locally
    /// allocated sequence, letting server-side spans stitch into a trace
    /// the client initiated. A zero raw id (clients never send one) is
    /// clamped to 1.
    pub fn adopt_remote(&self, raw: u64) -> TraceId {
        TraceId(raw.max(1) | REMOTE_TRACE_BIT)
    }

    /// Opens a span. `parent` is its causal parent within `trace`.
    pub fn start(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: &'static str,
        name: Arc<str>,
    ) -> SpanHandle {
        let span = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1);
        SpanHandle { ctx: SpanContext { trace, span }, parent, kind, name, start_ns: self.now_ns() }
    }

    /// Completes `handle`, recording its span.
    pub fn finish(&self, handle: SpanHandle, depth: u32, fields: Vec<(&'static str, Field)>) {
        self.finish_linked(handle, depth, Vec::new(), fields)
    }

    /// Completes `handle` with causal `links` (constituent spans).
    pub fn finish_linked(
        &self,
        handle: SpanHandle,
        depth: u32,
        links: Vec<SpanContext>,
        fields: Vec<(&'static str, Field)>,
    ) {
        let record = SpanRecord {
            trace: handle.ctx.trace,
            span: handle.ctx.span,
            parent: handle.parent,
            links,
            kind: handle.kind,
            name: handle.name,
            start_ns: handle.start_ns,
            end_ns: self.now_ns(),
            depth,
            fields,
        };
        self.record(record);
    }

    /// Records a pre-built span (storage I/O taggers build these directly).
    pub fn record(&self, record: SpanRecord) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.inc();
        }
        ring.push_back(record);
    }

    /// Spans evicted from the ring by capacity pressure.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Drops every retained span (the id allocators keep counting).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }

    // --- queries -----------------------------------------------------

    /// Every retained span, in recording order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Spans of one trace, in recording order.
    pub fn trace(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.ring.lock().iter().filter(|s| s.trace == trace).cloned().collect()
    }

    /// Spans whose `rule` field or name matches (condition/action spans of
    /// the rule), in recording order.
    pub fn by_rule(&self, rule: &str) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .iter()
            .filter(|s| {
                matches!(s.kind, "condition" | "action") && s.name.as_ref() == rule
                    || matches!(s.field("rule"), Some(Field::Str(r)) if r.as_ref() == rule)
            })
            .cloned()
            .collect()
    }

    /// Signal/primitive/detect spans of the named event, in recording order.
    pub fn by_event(&self, event: &str) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .iter()
            .filter(|s| {
                matches!(s.kind, "signal" | "primitive" | "detect") && s.name.as_ref() == event
            })
            .cloned()
            .collect()
    }

    /// The `n` longest spans, descending by duration.
    pub fn slowest(&self, n: usize) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self.ring.lock().iter().cloned().collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.duration_ns()));
        spans.truncate(n);
        spans
    }

    /// Per-trace roll-ups, ascending by trace id.
    pub fn trace_summaries(&self) -> Vec<TraceSummary> {
        use std::collections::BTreeMap;
        let ring = self.ring.lock();
        let mut acc: BTreeMap<TraceId, (usize, Arc<str>, u64, u64)> = BTreeMap::new();
        for s in ring.iter() {
            let e = acc.entry(s.trace).or_insert_with(|| (0, s.name.clone(), s.start_ns, s.end_ns));
            e.0 += 1;
            if s.start_ns < e.2 {
                e.1 = s.name.clone();
                e.2 = s.start_ns;
            }
            e.3 = e.3.max(s.end_ns);
        }
        acc.into_iter()
            .map(|(trace, (spans, root, start, end))| TraceSummary {
                trace,
                spans,
                root,
                wall_ns: end.saturating_sub(start),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Ambient span (thread-local)
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of span contexts active on this thread. The top is the span
    /// new work should parent on (the scheduler pushes the action span
    /// while the action runs; the detector pushes the signal span while
    /// propagation runs).
    static CURRENT: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost span active on this thread, if any.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.borrow().last().copied())
}

/// Pushes `ctx` as the thread's current span until the guard drops.
#[must_use = "the span pops when the guard drops"]
pub fn push_current(ctx: SpanContext) -> CurrentGuard {
    CURRENT.with(|c| c.borrow_mut().push(ctx));
    CurrentGuard { _priv: () }
}

/// Pops the span pushed by the matching [`push_current`] on drop.
pub struct CurrentGuard {
    _priv: (),
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(t: u64, s: u64) -> SpanContext {
        SpanContext { trace: TraceId(t), span: SpanId(s) }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let store = TraceStore::new();
        let t1 = store.new_trace();
        let t2 = store.new_trace();
        assert_ne!(t1, t2);
        assert!(t1.0 > 0);
        let a = store.start(t1, None, "signal", Arc::from("e"));
        let b = store.start(t1, Some(a.ctx.span), "detect", Arc::from("c"));
        assert_ne!(a.ctx.span, b.ctx.span);
    }

    #[test]
    fn finish_records_parent_links_and_duration() {
        let store = TraceStore::new();
        let t = store.new_trace();
        let root = store.start(t, None, "signal", Arc::from("e1"));
        let root_ctx = root.ctx;
        store.finish(root, 0, vec![("txn", Field::U64(7))]);
        let child = store.start(t, Some(root_ctx.span), "detect", Arc::from("seq"));
        store.finish_linked(child, 0, vec![root_ctx], vec![]);
        let spans = store.trace(t);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].field("txn"), Some(&Field::U64(7)));
        assert_eq!(spans[1].parent, Some(root_ctx.span));
        assert_eq!(spans[1].links, vec![root_ctx]);
        assert!(spans[1].end_ns >= spans[1].start_ns);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let store = TraceStore::with_capacity(2);
        let t = store.new_trace();
        for name in ["a", "b", "c"] {
            let h = store.start(t, None, "signal", Arc::from(name));
            store.finish(h, 0, vec![]);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 1);
        let names: Vec<_> = store.snapshot().iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn queries_filter_by_trace_rule_event_and_duration() {
        let store = TraceStore::new();
        let t1 = store.new_trace();
        let t2 = store.new_trace();
        let h = store.start(t1, None, "signal", Arc::from("e1"));
        store.finish(h, 0, vec![]);
        let h = store.start(t2, None, "condition", Arc::from("R1"));
        std::thread::sleep(std::time::Duration::from_millis(2));
        store.finish(h, 1, vec![]);
        let h = store.start(t2, None, "action", Arc::from("R1"));
        store.finish(h, 1, vec![]);

        assert_eq!(store.trace(t1).len(), 1);
        assert_eq!(store.by_rule("R1").len(), 2);
        assert_eq!(store.by_event("e1").len(), 1);
        assert!(store.by_event("R1").is_empty(), "rule spans are not event spans");
        let slowest = store.slowest(1);
        assert_eq!(slowest.len(), 1);
        assert_eq!((slowest[0].kind, slowest[0].name.as_ref()), ("condition", "R1"));
        let summaries = store.trace_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].trace, t1);
        assert_eq!(summaries[1].spans, 2);
    }

    #[test]
    fn ambient_span_nests_and_unwinds() {
        assert_eq!(current(), None);
        let g1 = push_current(ctx(1, 1));
        assert_eq!(current(), Some(ctx(1, 1)));
        {
            let _g2 = push_current(ctx(1, 2));
            assert_eq!(current(), Some(ctx(1, 2)));
        }
        assert_eq!(current(), Some(ctx(1, 1)));
        drop(g1);
        assert_eq!(current(), None);
    }

    #[test]
    fn remote_traces_never_collide_with_local_ones() {
        let store = TraceStore::new();
        let remote = store.adopt_remote(7);
        assert_eq!(remote, TraceId(7 | REMOTE_TRACE_BIT));
        assert_eq!(store.adopt_remote(7), remote, "adoption is deterministic");
        assert_eq!(store.adopt_remote(0), TraceId(1 | REMOTE_TRACE_BIT), "zero clamped");
        let local = store.new_trace();
        assert_ne!(local, remote);
        assert_eq!(local.0 & REMOTE_TRACE_BIT, 0);
        // Spans recorded under the adopted trace are queryable by it.
        let h = store.start(remote, None, "net_signal", Arc::from("load_a"));
        store.finish(h, 0, vec![]);
        assert_eq!(store.trace(remote).len(), 1);
    }

    #[test]
    fn span_record_renders_text_and_json() {
        let r = SpanRecord {
            trace: TraceId(3),
            span: SpanId(9),
            parent: Some(SpanId(4)),
            links: vec![ctx(3, 1), ctx(3, 2)],
            kind: "detect",
            name: Arc::from("seq"),
            start_ns: 10,
            end_ns: 25,
            depth: 1,
            fields: vec![("context", Field::from("chronicle"))],
        };
        let text = r.to_string();
        assert!(text.contains("T3 S9 detect:seq"));
        assert!(text.contains("links=[S1,S2]"));
        let json = r.to_json().to_string();
        assert!(json.contains(r#""trace":3"#));
        assert!(json.contains(r#""links":[1,2]"#));
        assert!(json.contains(r#""context":"chronicle""#));
    }
}
