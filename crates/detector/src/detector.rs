//! The local composite event detector.
//!
//! One instance exists per application ("the event detector is implemented
//! as a class and hence we have a single instance of this class per
//! application", §3.2). Primitive events are signalled by the wrapper
//! methods via [`LocalEventDetector::notify_method`] (the generated
//! `Notify(this, "STOCK", "void set_price(float price)", "begin", list)`
//! call of §3.2.1) or by [`LocalEventDetector::signal_explicit`] for
//! transaction/abstract events. Detection propagates through the event
//! graph demand-driven and returns [`Detection`]s for every `(event,
//! context)` with rule subscribers; rule execution itself lives in
//! `sentinel-rules`.
//!
//! # Sharded detection
//!
//! The event graph is partitioned into *shards*: the connected components
//! of the operator DAG (see [`EventGraph`]). Events in different shards
//! can never contribute to the same composite, so signals addressed to
//! different shards propagate concurrently. Two locks guard everything:
//! one `RwLock` over the graph topology and the shard table (signals
//! read, DDL writes), and one mutex per shard over that shard's detection
//! state (`shard.rs`). A signal takes the read lock and its shard's
//! mutex, nothing else. Timestamps still come from the single atomic
//! [`LogicalClock`], and the shard mutex is held across the tick *and*
//! the propagation, so within a shard occurrences are processed in
//! strictly increasing timestamp order — the invariant the paper's
//! order-sensitive operators (SEQ's strict `initiator.at <
//! terminator.at`, NOT, A*, P*) depend on. Cross-shard timestamp order
//! needs no serialization because no operator ever compares occurrences
//! from two shards.
//!
//! Whole-graph operations (snapshots, flushes, `advance_time`, stats)
//! *quiesce*: they take the read lock and every shard's mutex (in
//! ascending shard order, so two quiescers cannot deadlock) and then
//! observe or mutate a globally consistent state. An attached
//! [`EventSink`] (the durable journal) observes each signal under only
//! its shard's mutex — durability composes with parallel detection. The
//! sink learns the shard label with every record, and every whole-graph
//! operation cuts a [`FenceKind`] fence through the sink under the
//! quiesce, so a sharded journal can reconstruct a replay order
//! equivalent to the live happened-before order (timestamps are the
//! tiebreaker between fences).
//! Batch recording is such a sink too ([`crate::log::EventRecorder`]), so
//! a recorded run detects exactly what an unrecorded run and its replay
//! detect.
//!
//! # Method routes
//!
//! The post-processor inserts `Notify` only into the wrapper edges the
//! class's event interface declares (§3.2.1). The runtime counterpart is
//! the *route*: a class-edge is a primitive event iff the class has a
//! leaf on the method's signature whose modifier matches the edge
//! ([`LocalEventDetector::method_route`]). Every method signal goes
//! through that test first; a class-edge it rejects is no event at all —
//! not stamped, journalled, flight-recorded or counted, and it fires no
//! alarms. Wrappers cache their route and re-resolve it when
//! [`LocalEventDetector::route_generation`] moves.
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use sentinel_obs::span::{self, SpanContext, SpanHandle, TraceStore};
use sentinel_obs::{json, Counter, Field};
use sentinel_snoop::ast::{EventExpr, EventModifier};
use sentinel_snoop::ParamContext;

use crate::clock::{LogicalClock, Timestamp};
use crate::graph::{EventGraph, EventId, GraphError, Layout, NodeKind, PrimTarget};
use crate::log::LoggedEvent;
use crate::nodes::CtxState;
use crate::occurrence::{Occurrence, Value};
use crate::shard::{NodeState, Output, Shard};
use crate::snapshot::{GraphSnapshot, NodeSnapshot, RestoreError};

/// Opaque id of a rule (or other consumer) subscribed to an event; the
/// detector never interprets it.
pub type SubscriberId = u64;

thread_local! {
    /// Per-thread signalling suppression (see
    /// [`LocalEventDetector::set_signaling`]): true while a rule
    /// condition is evaluating on this thread.
    static SIGNALING_SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

/// A whole-graph ordering point cut through an [`EventSink`]: everything
/// recorded before the fence happened-before everything recorded after
/// it, across all shards. Cut by transaction flushes, time advances,
/// shard-topology DDL and checkpoint pauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceKind {
    /// `flush_txn(txn)` ran: the named transaction's buffered occurrences
    /// were dropped graph-wide.
    FlushTxn(u64),
    /// `advance_time(to)` ran: temporal alarms up to `to` fired.
    AdvanceTime(Timestamp),
    /// Any other whole-graph barrier (flush-all, DDL that changed the
    /// shard topology, a checkpoint pause). Carries no replay action of
    /// its own — it only orders the streams around it.
    Barrier,
}

/// Observer of every primitive event the detector accepts, invoked
/// synchronously on the signalling thread right after the event is
/// timestamped and before it propagates through the graph. The durable
/// event journal hooks in here.
///
/// `record` runs under only the signalling shard's mutex, so sinks on
/// disjoint shards are invoked concurrently. `fence` runs with every
/// shard quiesced, or under the DDL write lock. A sink may block (e.g.
/// waiting for a group commit) but must **not** re-enter the detector
/// from either: the calling thread already holds the locks a re-entrant
/// call would take.
pub trait EventSink: Send + Sync {
    /// One primitive event was signalled on shard `shard`.
    fn record(&self, detector: &LocalEventDetector, shard: u32, ev: &LoggedEvent);

    /// A whole-graph ordering point. `ts` is the clock reading at the
    /// fence: every record before it has `ev.ts() <= ts`, every record
    /// after it (in happened-before order) ticks past it.
    fn fence(&self, _kind: FenceKind, _ts: Timestamp) {}
}

/// One detected `(event, context)` occurrence, with the subscribers to
/// notify. The rule scheduler turns these into condition/action threads.
#[derive(Debug)]
pub struct Detection {
    /// The detected event.
    pub event: EventId,
    /// Context it was detected in.
    pub context: ParamContext,
    /// The occurrence (with its linked parameter list).
    pub occurrence: Arc<Occurrence>,
    /// Rule subscribers registered for `(event, context)`.
    pub subscribers: Vec<SubscriberId>,
}

/// The `Notify` calls of one wrapper: for each edge, the classes of its
/// inheritance chain that have a primitive event on its signature (chain
/// order). An edge with no class is not signalled at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodRoute {
    /// The [`LocalEventDetector::route_generation`] it was resolved at.
    pub generation: u64,
    /// Classes with a leaf matching the begin edge.
    pub begin: Vec<Arc<str>>,
    /// Classes with a leaf matching the end edge.
    pub end: Vec<Arc<str>>,
}

impl MethodRoute {
    /// The classes `edge` signals.
    pub fn classes(&self, edge: EventModifier) -> &[Arc<str>] {
        if edge == EventModifier::Begin {
            &self.begin
        } else {
            &self.end
        }
    }
}

/// Whether a class's `leaves` include one on `sig` whose modifier matches
/// `edge` — the one definition of a method signal. Instance-targeted
/// leaves count; the oid filter runs at propagation.
fn routes(graph: &EventGraph, leaves: &[EventId], sig: &str, edge: EventModifier) -> bool {
    leaves.iter().any(|&leaf| {
        matches!(&graph.node(leaf).kind, NodeKind::Primitive {
            modifier, sig: Some(s), ..
        } if &**s == sig && modifier.matches(edge))
    })
}

/// What one signal addresses: a method of a class (routed to the shard
/// holding the class's leaves) or an explicit event by name (routed to its
/// leaf's shard).
#[derive(Debug, Clone, Copy)]
enum Signal<'a> {
    Method { class: &'a str, sig: &'a str, edge: EventModifier, oid: u64 },
    Explicit { name: &'a str },
}

/// One shard: its state behind the mutex that orders its signals, and
/// the gauges written without that mutex. Indexed by shard label; labels
/// merged away by DDL leave an empty shard behind (labels are never
/// recycled).
#[derive(Debug, Default)]
struct ShardCell {
    /// The shard's detection state. Held across a signal's timestamp draw
    /// and its propagation: without that, two concurrent signals can tick
    /// `t1 < t2` but propagate in the opposite order, and order-sensitive
    /// operators (SEQ's strict `initiator.at < terminator.at`) silently
    /// drop pairs.
    state: Mutex<Shard>,
    /// Times a signal found `state` already locked.
    contention: AtomicU64,
    /// Signals queued for this shard in a `DetectorPool` and not yet
    /// processed. A pooled signal holds this gauge from submission until
    /// a worker takes it, so both moves happen without the topology lock.
    queue_depth: QueueGauge,
    /// The gauges of shards merged into this one that queued signals
    /// still hold; they count towards this shard's depth.
    absorbed_queues: Vec<QueueGauge>,
}

/// A shard's queued-signal gauge (see [`LocalEventDetector::route_class`]).
pub(crate) type QueueGauge = Arc<AtomicI64>;

impl ShardCell {
    /// Locks the shard, counting contended acquisitions.
    fn lock(&self) -> MutexGuard<'_, Shard> {
        if let Some(g) = self.state.try_lock() {
            return g;
        }
        self.contention.fetch_add(1, Ordering::Relaxed);
        self.state.lock()
    }
}

/// Everything a signal reads and DDL writes, under the detector's one
/// `RwLock`.
struct Topology {
    graph: EventGraph,
    /// Per-shard state, indexed by shard label.
    shards: Vec<ShardCell>,
    /// Optional synchronous observer of accepted primitive events (the
    /// durable event journal, a batch-recording [`crate::log::EventRecorder`]).
    sink: Option<Arc<dyn EventSink>>,
    /// Optional provenance span store (spans are recorded while the store
    /// is attached and enabled).
    spans: Option<Arc<TraceStore>>,
}

impl Topology {
    /// The attached span store, when it is enabled.
    fn tracer(&self) -> Option<&TraceStore> {
        self.spans.as_deref().filter(|s| s.is_enabled())
    }

    /// The queue gauge of shard `label` (a gauge of no shard when the
    /// label has none yet).
    fn queue_gauge(&self, label: u32) -> QueueGauge {
        self.shards.get(label as usize).map(|c| c.queue_depth.clone()).unwrap_or_default()
    }

    /// Replays the graph's pending layout steps onto the shard table.
    /// Returns whether any shards merged.
    fn apply_layout(&mut self) -> bool {
        let mut merged = false;
        for step in self.graph.take_layout() {
            match step {
                Layout::Push(label) => {
                    let label = label as usize;
                    if label >= self.shards.len() {
                        self.shards.resize_with(label + 1, ShardCell::default);
                    }
                    self.shards[label].state.get_mut().states.push(NodeState::default());
                }
                Layout::Merge { winner, loser } => {
                    merged = true;
                    let loser = &mut self.shards[loser as usize];
                    let moved = std::mem::take(loser.state.get_mut());
                    let contention = std::mem::take(loser.contention.get_mut());
                    let mut queues = std::mem::take(&mut loser.absorbed_queues);
                    queues.push(std::mem::take(&mut loser.queue_depth));
                    let winner = &mut self.shards[winner as usize];
                    winner.state.get_mut().absorb(moved);
                    *winner.contention.get_mut() += contention;
                    // A gauge no queued signal holds any more reads 0.
                    winner.absorbed_queues.extend(queues);
                    winner.absorbed_queues.retain(|q| Arc::strong_count(q) > 1);
                }
            }
        }
        merged
    }
}

/// The detector with signalling paused, as a
/// [`LocalEventDetector::with_signals_paused`] closure sees it: it reads
/// under the locks the pause already holds.
pub struct Paused<'a> {
    detector: &'a LocalEventDetector,
    graph: &'a EventGraph,
    shards: &'a [MutexGuard<'a, Shard>],
}

impl Paused<'_> {
    /// [`LocalEventDetector::snapshot_state`] at the paused cut.
    pub fn snapshot_state(&self) -> GraphSnapshot {
        self.detector.snapshot(self.graph, self.shards)
    }
}

/// The local composite event detector (one per application).
pub struct LocalEventDetector {
    /// The graph, the shard table, the sink and the span store. Signals
    /// and whole-graph operations hold the read lock; DDL and sink or
    /// span-store changes take the write lock.
    topo: RwLock<Topology>,
    clock: Arc<LogicalClock>,
    app: u32,
    /// Moves whenever a method route may have changed. Only
    /// [`Self::declare_primitive`] adds a method leaf, and nothing replaces
    /// the graph (recovery and replica bootstrap declare through it too),
    /// so it is bumped there, with `Release` after the leaf is in, under
    /// the graph write lock; read with `Acquire`.
    route_generation: AtomicU64,
    /// Transaction flushes performed ([`Self::flush_txn`] calls).
    flush_calls: Counter,
    /// Buffered occurrences dropped by transaction flushes.
    flushed: Counter,
}

/// Per-node emission/consumption counters, one entry per parameter
/// context in `ParamContext::ALL` order (Recent, Chronicle, Continuous,
/// Cumulative).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Node display name.
    pub name: Arc<str>,
    /// Occurrences emitted by this node, per context.
    pub emitted: [u64; 4],
    /// Child occurrences consumed by this node, per context.
    pub consumed: [u64; 4],
}

impl NodeStats {
    /// Total emissions across contexts.
    pub fn total_emitted(&self) -> u64 {
        self.emitted.iter().sum()
    }

    /// Total consumptions across contexts.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.iter().sum()
    }
}

/// Counters for one live shard (a connected component of the operator
/// DAG that still owns nodes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard label.
    pub shard: u32,
    /// Nodes currently labelled with this shard.
    pub nodes: u64,
    /// Primitive signals processed by this shard.
    pub signals: u64,
    /// Times a signal found the shard's mutex already held.
    pub contention: u64,
    /// Signals queued for this shard in a `DetectorPool` and not yet
    /// processed.
    pub queue_depth: u64,
}

/// Detector statistics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Total primitive-event signals processed (method + explicit).
    pub signals: u64,
    /// Per-event occurrence counts, `(name, count)`, sorted by descending
    /// count then name.
    pub per_event: Vec<(Arc<str>, u64)>,
    /// Per-node emission/consumption counters for operator nodes that saw
    /// any traffic, sorted by name.
    pub nodes: Vec<NodeStats>,
    /// Per-shard counters for shards that own at least one node, sorted
    /// by shard label.
    pub shards: Vec<ShardStats>,
    /// Transaction flushes performed.
    pub flush_calls: u64,
    /// Buffered occurrences dropped by transaction flushes.
    pub flushed_occurrences: u64,
}

impl DetectorStats {
    /// Renders as a JSON object (see [`sentinel_obs::json`]).
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            ("signals", json::Value::UInt(self.signals)),
            (
                "per_event",
                json::Value::obj(
                    self.per_event
                        .iter()
                        .map(|(name, count)| (name.to_string(), json::Value::UInt(*count))),
                ),
            ),
            (
                "nodes",
                json::Value::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            json::Value::obj([
                                ("name", json::Value::str(n.name.as_ref())),
                                (
                                    "emitted",
                                    json::Value::Arr(
                                        n.emitted.iter().map(|&v| json::Value::UInt(v)).collect(),
                                    ),
                                ),
                                (
                                    "consumed",
                                    json::Value::Arr(
                                        n.consumed.iter().map(|&v| json::Value::UInt(v)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shards",
                json::Value::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            json::Value::obj([
                                ("label", json::Value::UInt(s.shard as u64)),
                                ("nodes", json::Value::UInt(s.nodes)),
                                ("signals", json::Value::UInt(s.signals)),
                                ("contention", json::Value::UInt(s.contention)),
                                ("queue_depth", json::Value::UInt(s.queue_depth)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("flush_calls", json::Value::UInt(self.flush_calls)),
            ("flushed_occurrences", json::Value::UInt(self.flushed_occurrences)),
        ])
    }
}

impl LocalEventDetector {
    /// A detector for application `app` with its own clock.
    pub fn new(app: u32) -> Self {
        Self::with_clock(app, Arc::new(LogicalClock::new()))
    }

    /// A detector sharing an external logical clock (the engine clock).
    ///
    /// The four transaction events are pre-declared, mirroring Sentinel's
    /// reactive system class whose event interface makes `beginTransaction`
    /// / `commitTransaction` generate events (§3.2).
    pub fn with_clock(app: u32, clock: Arc<LogicalClock>) -> Self {
        let mut graph = EventGraph::new();
        for name in [
            "begin-transaction",
            "pre-commit-transaction",
            "commit-transaction",
            "abort-transaction",
        ] {
            graph.declare_explicit(name);
        }
        let mut topo = Topology { graph, shards: Vec::new(), sink: None, spans: None };
        topo.apply_layout();
        LocalEventDetector {
            topo: RwLock::new(topo),
            clock,
            app,
            route_generation: AtomicU64::new(0),
            flush_calls: Counter::new(),
            flushed: Counter::new(),
        }
    }

    /// Attaches a provenance span store; signals, primitive occurrences
    /// and composite detections record spans while it is enabled.
    pub fn set_trace_store(&self, store: Arc<TraceStore>) {
        self.topo.write().spans = Some(store);
    }

    /// Opens the root "signal" span for one primitive signal. A signal
    /// raised while a span is current on this thread (a rule action
    /// re-signalling, a queued service request) joins that trace —
    /// the cascade link; otherwise it starts a fresh trace.
    fn open_signal_span(store: &TraceStore, name: Arc<str>) -> SpanHandle {
        let (trace, parent) = match span::current() {
            Some(cur) => (cur.trace, Some(cur.span)),
            None => (store.new_trace(), None),
        };
        store.start(trace, parent, "signal", name)
    }

    /// The application this detector serves.
    pub fn app(&self) -> u32 {
        self.app
    }

    /// The shared logical clock.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    // --- shard plumbing ------------------------------------------------

    /// Draws the timestamp for one signal: pre-assigned (replay, pool
    /// delivery) timestamps advance the shared clock, live signals tick it.
    fn stamp(&self, at: Option<Timestamp>) -> Timestamp {
        match at {
            Some(ts) => {
                self.clock.advance_to(ts);
                ts
            }
            None => self.clock.tick(),
        }
    }

    /// Runs one DDL step under the write lock, then replays the layout
    /// steps it took onto the shard table — also when it failed half-way
    /// after interning part of an expression. The write lock excludes
    /// every signal, so a merge needs no further lock; a merge cuts a
    /// fence so a sharded journal orders records across the relabelling.
    fn ddl<R>(&self, f: impl FnOnce(&mut EventGraph) -> R) -> R {
        let mut topo = self.topo.write();
        let out = f(&mut topo.graph);
        if topo.apply_layout() {
            self.cut_fence(&topo, FenceKind::Barrier);
        }
        out
    }

    /// Runs `f` with every shard quiesced: the read lock and **all** shard
    /// mutexes (ascending, so concurrent quiescers cannot deadlock) are
    /// held, so no signal can be timestamped or propagated concurrently
    /// and `f` observes a consistent global cut. Not re-entrant: code
    /// running inside `f` reads through what `f` is given.
    fn quiesce<R>(&self, f: impl FnOnce(&Topology, &mut [MutexGuard<'_, Shard>]) -> R) -> R {
        let topo = self.topo.read();
        let mut shards: Vec<_> = topo.shards.iter().map(ShardCell::lock).collect();
        f(&topo, &mut shards)
    }

    /// Forwards a whole-graph ordering point to the attached sink, if
    /// any. Callers hold a full quiesce or the write lock, which equally
    /// exclude every signal.
    fn cut_fence(&self, topo: &Topology, kind: FenceKind) {
        let (label, arg) = match kind {
            FenceKind::Barrier => ("barrier", 0),
            FenceKind::FlushTxn(txn) => ("flush_txn", txn),
            FenceKind::AdvanceTime(to) => ("advance_time", to),
        };
        sentinel_obs::flight::global().record_static(
            sentinel_obs::flight::FlightKind::Fence,
            label,
            self.clock.peek(),
            arg,
        );
        if let Some(sink) = &topo.sink {
            sink.fence(kind, self.clock.peek());
        }
    }

    /// The shard an event belongs to. Unknown names are declared as
    /// explicit events on the fly so routing decisions made before the
    /// first signal stay stable.
    pub fn shard_of_event(&self, name: &str) -> u32 {
        {
            let topo = self.topo.read();
            if let Some(id) = topo.graph.lookup(name) {
                return topo.graph.shard_of(id);
            }
        }
        self.ddl(|graph| {
            let id = graph.declare_explicit(name);
            graph.shard_of(id)
        })
    }

    /// The shard all method events of `class` belong to (all leaves of a
    /// class are kept in one shard so a method signal addresses exactly
    /// one shard), or `None` if the class has no events.
    pub fn shard_of_class(&self, class: &str) -> Option<u32> {
        let topo = self.topo.read();
        topo.graph.class_events(class).first().map(|&id| topo.graph.shard_of(id))
    }

    /// Number of shard labels ever allocated (merged-away labels stay
    /// idle; see [`ShardStats`] for live shards).
    pub fn shard_count(&self) -> u32 {
        self.topo.read().graph.shard_count()
    }

    /// The shard a `DetectorPool` routes a method signal of `class` by
    /// (0 when the class has no events) and that shard's queue gauge,
    /// read under one topology read lock.
    pub(crate) fn route_class(&self, class: &str) -> (u32, QueueGauge) {
        let topo = self.topo.read();
        let label = topo.graph.class_events(class).first().map_or(0, |&id| topo.graph.shard_of(id));
        (label, topo.queue_gauge(label))
    }

    /// [`Self::route_class`] for an explicit event, declaring it when it
    /// is unknown (as [`Self::shard_of_event`] does).
    pub(crate) fn route_event(&self, name: &str) -> (u32, QueueGauge) {
        {
            let topo = self.topo.read();
            if let Some(id) = topo.graph.lookup(name) {
                let label = topo.graph.shard_of(id);
                return (label, topo.queue_gauge(label));
            }
        }
        self.ddl(|graph| graph.declare_explicit(name));
        self.route_event(name)
    }

    // --- event definition ---------------------------------------------

    /// Declares a method-event primitive.
    pub fn declare_primitive(
        &self,
        name: &str,
        class: &str,
        modifier: EventModifier,
        sig: &str,
        target: PrimTarget,
    ) -> Result<EventId, GraphError> {
        self.ddl(|graph| {
            let id = graph.declare_primitive(name, class, modifier, sig, target)?;
            self.route_generation.fetch_add(1, Ordering::Release);
            Ok(id)
        })
    }

    /// Resolves the route of a wrapper for `sig` on a receiver whose
    /// class chain (concrete class first) is `chain`: which classes have
    /// a primitive event the begin and the end edge signal.
    pub fn method_route(&self, chain: &[Arc<str>], sig: &str) -> MethodRoute {
        let topo = self.topo.read();
        let graph = &topo.graph;
        let mut route =
            MethodRoute { generation: self.route_generation(), ..MethodRoute::default() };
        for class in chain {
            let leaves = graph.class_events(class);
            if routes(graph, leaves, sig, EventModifier::Begin) {
                route.begin.push(class.clone());
            }
            if routes(graph, leaves, sig, EventModifier::End) {
                route.end.push(class.clone());
            }
        }
        route
    }

    /// The generation a cached [`MethodRoute`] must carry to be current.
    pub fn route_generation(&self) -> u64 {
        self.route_generation.load(Ordering::Acquire)
    }

    /// Declares an explicit (name-matched) event.
    pub fn declare_explicit(&self, name: &str) -> EventId {
        self.ddl(|graph| graph.declare_explicit(name))
    }

    /// Defines a named composite event from an expression.
    pub fn define_named(&self, name: &str, expr: &EventExpr) -> Result<EventId, GraphError> {
        self.ddl(|graph| graph.define_named(name, expr, false))
    }

    /// Builds an anonymous composite event.
    pub fn define_expr(&self, expr: &EventExpr) -> Result<EventId, GraphError> {
        self.ddl(|graph| graph.build_expr(expr, false))
    }

    /// The deferred-coupling rewrite of §3.1: wraps `event` into
    /// `A*(begin-transaction, event, pre-commit-transaction)`, so a deferred
    /// rule becomes an immediate rule that fires exactly once per
    /// transaction at pre-commit, with the cumulative (net-effect)
    /// parameters of all triggerings.
    pub fn define_deferred(&self, event: EventId) -> EventId {
        self.ddl(|graph| {
            let begin = graph.declare_explicit("begin-transaction");
            let pre_commit = graph.declare_explicit("pre-commit-transaction");
            let inner_name = graph.name_of(event);
            let name = format!("A*(begin-transaction, {inner_name}, pre-commit-transaction)");
            let kind = NodeKind::AperiodicStar { start: begin, mid: event, end: pre_commit };
            graph.compose(&name, kind)
        })
    }

    /// Looks up a named event.
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.topo.read().graph.lookup(name)
    }

    /// Adds an alias name for an existing event.
    pub fn alias(&self, name: &str, id: EventId) -> Result<(), GraphError> {
        self.topo.write().graph.alias(name, id)
    }

    /// Name of an event.
    pub fn name_of(&self, id: EventId) -> Arc<str> {
        self.topo.read().graph.name_of(id)
    }

    /// Number of graph nodes (ablation metric).
    pub fn graph_size(&self) -> usize {
        self.topo.read().graph.len()
    }

    /// Renders the event graph as Graphviz DOT (see [`crate::viz`]).
    pub fn to_dot(&self) -> String {
        self.quiesce(|topo, shards| {
            crate::viz::to_dot(&topo.graph, |n| {
                let st = shards[n.shard as usize].state(n);
                (st.total_emitted(), st.total_consumed())
            })
        })
    }

    /// Snapshot of detector statistics (signals processed, occurrences per
    /// event, per-shard counters).
    pub fn stats(&self) -> DetectorStats {
        self.quiesce(|topo, shards| {
            let (mut per_event, mut nodes) = (Vec::new(), Vec::new());
            for n in topo.graph.nodes() {
                let st = shards[n.shard as usize].state(n);
                if st.count > 0 {
                    per_event.push((n.name.clone(), st.count));
                }
                if st.total_emitted() + st.total_consumed() > 0 {
                    let (emitted, consumed) = (st.emitted, st.consumed);
                    nodes.push(NodeStats { name: n.name.clone(), emitted, consumed });
                }
            }
            per_event.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            nodes.sort_by(|a, b| a.name.cmp(&b.name));
            let shard_stats: Vec<ShardStats> = shards
                .iter()
                .zip(&topo.shards)
                .enumerate()
                .filter(|(_, (s, _))| !s.states.is_empty())
                .map(|(label, (s, cell))| ShardStats {
                    shard: label as u32,
                    nodes: s.states.len() as u64,
                    signals: s.signals,
                    contention: cell.contention.load(Ordering::Relaxed),
                    queue_depth: std::iter::once(&cell.queue_depth)
                        .chain(&cell.absorbed_queues)
                        .map(|q| q.load(Ordering::Relaxed))
                        .sum::<i64>()
                        .max(0) as u64,
                })
                .collect();
            DetectorStats {
                signals: shards.iter().map(|s| s.signals).sum(),
                per_event,
                nodes,
                shards: shard_stats,
                flush_calls: self.flush_calls.get(),
                flushed_occurrences: self.flushed.get(),
            }
        })
    }

    // --- subscriptions ---------------------------------------------------

    /// Subscribes `sub` to `(event, ctx)`; detection in `ctx` starts on the
    /// counter's 0→1 transition.
    pub fn subscribe(
        &self,
        event: EventId,
        ctx: ParamContext,
        sub: SubscriberId,
    ) -> Result<(), GraphError> {
        self.topo.write().graph.subscribe(event, ctx, sub)
    }

    /// Removes a subscription; state for `ctx` is dropped when the counter
    /// returns to zero.
    pub fn unsubscribe(
        &self,
        event: EventId,
        ctx: ParamContext,
        sub: SubscriberId,
    ) -> Result<(), GraphError> {
        let topo = &mut *self.topo.write();
        for id in topo.graph.unsubscribe(event, ctx, sub)? {
            let node = topo.graph.node(id);
            let shard = topo.shards[node.shard as usize].state.get_mut();
            shard.state_mut(node).ctx[ctx.index()] = CtxState::default();
        }
        Ok(())
    }

    // --- signalling -------------------------------------------------------

    /// Enables/disables primitive-event signalling *on the calling
    /// thread* (disabled while a rule condition runs, since conditions
    /// must be side-effect free, §3.2.1).
    ///
    /// The paper's flag is global because its detector is single-threaded
    /// per application. Here many server threads signal one shared
    /// detector concurrently, and a condition only ever runs on the
    /// thread whose signal fired the rule — so the suppression is scoped
    /// to that thread. A process-wide flag would silently drop *other*
    /// connections' unrelated signals that happen to arrive while any
    /// condition is evaluating (whole batches vanish under load).
    pub fn set_signaling(&self, on: bool) {
        SIGNALING_SUPPRESSED.with(|s| s.set(!on));
    }

    /// Whether signalling is currently enabled on the calling thread.
    pub fn signaling(&self) -> bool {
        !SIGNALING_SUPPRESSED.with(Cell::get)
    }

    /// Wrapper-method notification: a method of `class` on object `oid` was
    /// invoked; `edge` says whether this is the before- or after-call.
    /// Returns all detections this signal completed. A class-edge no leaf
    /// routes (see [`Self::method_route`]) is no event and does nothing.
    /// `params` is borrowed: each matching leaf's occurrence clones it.
    pub fn notify_method(
        &self,
        class: &str,
        sig: &str,
        edge: EventModifier,
        oid: u64,
        params: impl AsRef<[(Arc<str>, Value)]>,
        txn: Option<u64>,
    ) -> Vec<Detection> {
        if !self.signaling() {
            return Vec::new();
        }
        let target = Signal::Method { class, sig, edge, oid };
        self.signal(target, Cow::Borrowed(params.as_ref()), txn, None, true)
    }

    /// Method signal with a pre-assigned timestamp. `live` for pool
    /// delivery (the timestamp was drawn at submission so queue order
    /// equals timestamp order; forwarded to the sink like
    /// [`Self::notify_method`]); not `live` for batch replay (not
    /// forwarded — replaying a journal must not re-append to it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn notify_method_at(
        &self,
        class: &str,
        sig: &str,
        edge: EventModifier,
        oid: u64,
        params: &[(Arc<str>, Value)],
        txn: Option<u64>,
        ts: Timestamp,
        live: bool,
    ) -> Vec<Detection> {
        if live && !self.signaling() {
            return Vec::new();
        }
        let target = Signal::Method { class, sig, edge, oid };
        self.signal(target, Cow::Borrowed(params), txn, Some(ts), live)
    }

    /// Signals an explicit/abstract event by name (transaction events,
    /// user-raised events, forwarded global events). Unknown names are
    /// declared on the fly.
    pub fn signal_explicit(
        &self,
        name: &str,
        params: Vec<(Arc<str>, Value)>,
        txn: Option<u64>,
    ) -> Vec<Detection> {
        if !self.signaling() {
            return Vec::new();
        }
        self.signal(Signal::Explicit { name }, Cow::Owned(params), txn, None, true)
    }

    /// Explicit signal with a pre-assigned timestamp: `live` for pool
    /// delivery, not `live` for batch replay (see
    /// [`Self::notify_method_at`]).
    pub(crate) fn signal_explicit_at(
        &self,
        name: &str,
        params: Vec<(Arc<str>, Value)>,
        txn: Option<u64>,
        ts: Timestamp,
        live: bool,
    ) -> Vec<Detection> {
        if live && !self.signaling() {
            return Vec::new();
        }
        self.signal(Signal::Explicit { name }, Cow::Owned(params), txn, Some(ts), live)
    }

    /// The one routing step of every signal, live or replayed: drop a
    /// method class-edge no leaf routes, resolve an explicit event's leaf
    /// (declaring it and its shard first if new), route to the signal's
    /// shard, lock that shard, draw the timestamp, record the signal (live
    /// signals only) and propagate it on that shard alone — all under one
    /// read lock.
    fn signal(
        &self,
        target: Signal<'_>,
        params: Cow<'_, [(Arc<str>, Value)]>,
        txn: Option<u64>,
        at: Option<Timestamp>,
        live: bool,
    ) -> Vec<Detection> {
        let topo = self.topo.read();
        let graph = &topo.graph;
        let explicit_leaf;
        // `name` is the graph's interned class or leaf name (the flight
        // label); `leaves` the class's primitive leaves, or the explicit
        // event's leaf.
        let (label, name, leaves) = match target {
            Signal::Method { class, sig, edge, .. } => {
                let Some((name, leaves)) = graph.class_entry(class) else { return Vec::new() };
                if !routes(graph, leaves, sig, edge) {
                    return Vec::new();
                }
                (graph.shard_of(leaves[0]), name.clone(), leaves)
            }
            Signal::Explicit { name } => {
                let Some(leaf) = graph.lookup(name) else {
                    drop(topo);
                    self.declare_explicit(name);
                    return self.signal(target, params, txn, at, live);
                };
                explicit_leaf = leaf;
                (graph.shard_of(leaf), graph.name_of(leaf), std::slice::from_ref(&explicit_leaf))
            }
        };
        let mut guard = topo.shards[label as usize].lock();
        let shard = &mut *guard;
        let ts = self.stamp(at);
        if live {
            self.record(topo.sink.as_deref(), label, target, name.clone(), &params, txn, ts);
        }
        shard.signals += 1;
        let mut out = Output { app: self.app, tracer: topo.tracer(), detections: Vec::new() };
        match target {
            Signal::Method { class, sig, edge, oid } => self.method_core(
                shard, graph, &mut out, leaves, class, sig, edge, oid, &params, txn, ts,
            ),
            Signal::Explicit { .. } => {
                let params = params.into_owned();
                self.explicit_core(shard, graph, &mut out, leaves[0], name, params, txn, ts)
            }
        }
        out.detections
    }

    /// Propagates one timestamped method signal to the class's `leaves`
    /// that match it, on the class's `shard`, which the caller holds
    /// locked together with the read lock. `params` is cloned once per
    /// matching leaf that has a consumer.
    #[allow(clippy::too_many_arguments)]
    fn method_core(
        &self,
        shard: &mut Shard,
        graph: &EventGraph,
        out: &mut Output<'_>,
        leaves: &[EventId],
        class: &str,
        sig: &str,
        edge: EventModifier,
        oid: u64,
        params: &[(Arc<str>, Value)],
        txn: Option<u64>,
        ts: Timestamp,
    ) {
        let tracer = out.tracer;
        let signal_span =
            tracer.map(|s| Self::open_signal_span(s, Arc::from(format!("{class}::{sig}"))));
        let signal_ctx = signal_span.as_ref().map(|h| h.ctx);
        shard.fire_due_alarms(graph, out, ts);
        // "When the local event detector is notified of a method invocation
        // for a class, the invocation is propagated only to the primitive
        // events defined for that class" (§3.2).
        for &leaf in leaves {
            let node = graph.node(leaf);
            let NodeKind::Primitive { modifier, sig: node_sig, target, .. } = &node.kind else {
                continue;
            };
            // Signature check, then begin/end variant, then instance filter.
            if node_sig.as_deref() != Some(sig) || !modifier.matches(edge) {
                continue;
            }
            if matches!(target, PrimTarget::Instance(want) if *want != oid) {
                continue;
            }
            let prim_ctx = match (tracer, signal_ctx) {
                (Some(s), Some(sig_ctx)) => Some(Self::record_primitive_span(
                    s,
                    sig_ctx,
                    node.name.clone(),
                    ts,
                    txn,
                    Some(oid),
                )),
                _ => None,
            };
            shard.deliver_leaf(graph, out, node, || {
                let name = node.name.clone();
                let params = params.to_vec();
                Occurrence::primitive_spanned(
                    leaf,
                    name,
                    ts,
                    txn,
                    self.app,
                    Some(oid),
                    params,
                    prim_ctx,
                )
            });
        }
        if let (Some(s), Some(h)) = (tracer, signal_span) {
            s.finish(h, 0, vec![("detections", Field::U64(out.detections.len() as u64))]);
        }
    }

    /// Records the (point) span of one primitive occurrence, parented on
    /// the signal span, and returns its context for the occurrence.
    fn record_primitive_span(
        store: &TraceStore,
        signal: SpanContext,
        name: Arc<str>,
        ts: Timestamp,
        txn: Option<u64>,
        oid: Option<u64>,
    ) -> SpanContext {
        let h = store.start(signal.trace, Some(signal.span), "primitive", name);
        let ctx = h.ctx;
        let mut fields = vec![("at", Field::U64(ts))];
        if let Some(t) = txn {
            fields.push(("txn", Field::U64(t)));
        }
        if let Some(o) = oid {
            fields.push(("oid", Field::U64(o)));
        }
        store.finish(h, 0, fields);
        ctx
    }

    /// Propagates one timestamped explicit signal on the leaf's `shard`,
    /// which the caller holds locked together with the read lock.
    #[allow(clippy::too_many_arguments)]
    fn explicit_core(
        &self,
        shard: &mut Shard,
        graph: &EventGraph,
        out: &mut Output<'_>,
        leaf: EventId,
        leaf_name: Arc<str>,
        params: Vec<(Arc<str>, Value)>,
        txn: Option<u64>,
        ts: Timestamp,
    ) {
        shard.fire_due_alarms(graph, out, ts);
        let tracer = out.tracer;
        let signal_span = tracer.map(|s| Self::open_signal_span(s, leaf_name.clone()));
        let prim_ctx = match (tracer, signal_span.as_ref()) {
            (Some(s), Some(h)) => {
                Some(Self::record_primitive_span(s, h.ctx, leaf_name.clone(), ts, txn, None))
            }
            _ => None,
        };
        shard.deliver_leaf(graph, out, graph.node(leaf), || {
            Occurrence::primitive_spanned(
                leaf, leaf_name, ts, txn, self.app, None, params, prim_ctx,
            )
        });
        if let (Some(s), Some(h)) = (tracer, signal_span) {
            s.finish(h, 0, vec![("detections", Field::U64(out.detections.len() as u64))]);
        }
    }

    /// Advances logical time (firing due temporal alarms in every shard)
    /// without signalling any event.
    pub fn advance_time(&self, to: Timestamp) -> Vec<Detection> {
        self.clock.advance_to(to);
        self.quiesce(|topo, shards| {
            let mut out = Output { app: self.app, tracer: topo.tracer(), detections: Vec::new() };
            for shard in shards.iter_mut() {
                shard.fire_due_alarms(&topo.graph, &mut out, to);
            }
            self.cut_fence(topo, FenceKind::AdvanceTime(to));
            out.detections
        })
    }

    // --- transaction hygiene -------------------------------------------

    /// Flushes every buffered occurrence belonging to `txn` from the whole
    /// graph (invoked on commit/abort so "events are not carried over across
    /// transaction boundaries", §3.2 item 3). Quiesces all shards.
    pub fn flush_txn(&self, txn: u64) {
        self.quiesce(|topo, shards| {
            let removed: u64 = shards.iter_mut().map(|s| s.flush_txn(txn)).sum();
            self.flush_calls.inc();
            self.flushed.add(removed);
            // A flush performed inside a traced span (commit/abort
            // processing within a rule action) shows up as a child of that
            // span.
            if let (Some(s), Some(cur)) = (topo.tracer(), span::current()) {
                let h = s.start(cur.trace, Some(cur.span), "flush", Arc::from("flush_txn"));
                s.finish(h, 0, vec![("txn", Field::U64(txn)), ("removed", Field::U64(removed))]);
            }
            self.cut_fence(topo, FenceKind::FlushTxn(txn));
        })
    }

    /// Flushes the state of one event's sub-graph (the paper's selective
    /// flush for an event expression). Errors on an id that names no node
    /// of this detector's graph.
    pub fn flush_event(&self, event: EventId) -> Result<(), GraphError> {
        self.quiesce(|topo, shards| {
            topo.graph.check(event)?;
            let shard = topo.graph.shard_of(event) as usize;
            shards[shard].flush_event(&topo.graph, event);
            self.cut_fence(topo, FenceKind::Barrier);
            Ok(())
        })
    }

    /// Flushes the entire event graph.
    pub fn flush_all(&self) {
        self.quiesce(|topo, shards| {
            for shard in shards.iter_mut() {
                shard.flush_all();
            }
            self.cut_fence(topo, FenceKind::Barrier);
        })
    }

    // --- sinks and batch (event-log) detection -----------------------------

    /// Attaches an event sink; every subsequently accepted primitive event
    /// is forwarded to it synchronously (see [`EventSink`]). Signals keep
    /// running in parallel — the sink observes each shard's stream under
    /// that shard's mutex, with fences at whole-graph operations. The
    /// write lock waits out every signal in flight: attach is a clean cut.
    pub fn set_event_sink(&self, sink: Arc<dyn EventSink>) {
        self.topo.write().sink = Some(sink);
    }

    /// Detaches the event sink, if any. The write lock waits out every
    /// in-flight signal, so after return the sink is guaranteed to
    /// receive no further records.
    pub fn clear_event_sink(&self) {
        self.topo.write().sink = None;
    }

    /// Records one accepted signal on `shard`, which the caller holds
    /// locked: flight-recorded always, materialized into a [`LoggedEvent`]
    /// only when a sink is attached. An in-memory system thus pays no
    /// per-signal string/param clones on the hot path. `label` is the
    /// graph's interned class (method) or leaf (explicit) name.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        sink: Option<&dyn EventSink>,
        shard: u32,
        target: Signal<'_>,
        label: Arc<str>,
        params: &[(Arc<str>, Value)],
        txn: Option<u64>,
        ts: Timestamp,
    ) {
        // Flight-record the accepted signal before the sink call: a sink
        // may block on a group commit, and the committer's dump should
        // already see this entry.
        sentinel_obs::flight::global().record(
            sentinel_obs::flight::FlightKind::Signal,
            label,
            ts,
            txn.unwrap_or(0),
        );
        let Some(sink) = sink else { return };
        let params = params.to_vec();
        let ev = match target {
            Signal::Method { class, sig, edge, oid } => LoggedEvent::Method {
                class: class.to_string(),
                sig: sig.to_string(),
                edge,
                oid,
                params,
                txn,
                ts,
            },
            Signal::Explicit { name, .. } => {
                LoggedEvent::Explicit { name: name.to_string(), params, txn, ts }
            }
        };
        sink.record(self, shard, &ev);
    }

    /// Runs `f` with signalling quiesced: the read lock and every shard's
    /// mutex are held, so no primitive event can be timestamped or
    /// propagated concurrently in any shard. Used for externally-triggered
    /// checkpoints: `f` reads the paused detector through [`Paused`] and
    /// must not call the detector itself, whose locks this thread holds.
    /// Cuts a [`FenceKind::Barrier`] fence through the sink, so a
    /// count-based checkpoint tag taken inside `f` names an exact prefix
    /// of the journal's merged replay order.
    pub fn with_signals_paused<R>(&self, f: impl FnOnce(&Paused<'_>) -> R) -> R {
        self.quiesce(|topo, shards| {
            self.cut_fence(topo, FenceKind::Barrier);
            f(&Paused { detector: self, graph: &topo.graph, shards })
        })
    }

    // --- checkpointable state ------------------------------------------

    /// Captures all detection state (buffered occurrences, open windows,
    /// pending temporal alarms, the clock) as a [`GraphSnapshot`].
    /// Quiesces all shards; inside [`Self::with_signals_paused`] use
    /// [`Paused::snapshot_state`] instead.
    pub fn snapshot_state(&self) -> GraphSnapshot {
        self.quiesce(|topo, shards| self.snapshot(&topo.graph, shards))
    }

    /// The snapshot of `graph`'s state in `shards`, nodes in id order.
    fn snapshot(&self, graph: &EventGraph, shards: &[MutexGuard<'_, Shard>]) -> GraphSnapshot {
        let nodes = graph
            .nodes()
            .iter()
            .filter_map(|n| {
                let st = shards[n.shard as usize].state(n);
                st.ctx.iter().any(|s| !s.is_empty()).then(|| NodeSnapshot {
                    id: n.id,
                    name: n.name.clone(),
                    shard: n.shard,
                    state: st.ctx.clone(),
                })
            })
            .collect();
        GraphSnapshot { clock: self.clock.peek(), nodes }
    }

    /// Restores a previously captured [`GraphSnapshot`] into this
    /// detector's graph. The graph must have been rebuilt with the same
    /// definitions (every snapshot node id must exist and carry the same
    /// name); the snapshot is validated in full before any state is
    /// applied, so a failed restore leaves the detector untouched. On
    /// success the clock is advanced to the snapshot's clock and temporal
    /// alarms are rebuilt, on their current shards, from the restored
    /// windows — snapshot shard labels are ignored, so a snapshot cut
    /// before a component merge restores cleanly into the current
    /// sharding.
    pub fn restore_snapshot(&self, snap: &GraphSnapshot) -> Result<(), RestoreError> {
        self.quiesce(|topo, shards| {
            let graph = &topo.graph;
            for ns in &snap.nodes {
                if graph.check(ns.id).is_err() {
                    return Err(RestoreError::UnknownNode(ns.id));
                }
                let found = graph.node(ns.id).name.clone();
                if found != ns.name {
                    return Err(RestoreError::NameMismatch {
                        id: ns.id,
                        expected: ns.name.clone(),
                        found,
                    });
                }
            }
            for shard in shards.iter_mut() {
                shard.flush_all();
            }
            for ns in &snap.nodes {
                let n = graph.node(ns.id);
                shards[n.shard as usize].state_mut(n).ctx = ns.state.clone();
            }
            self.clock.advance_to(snap.clock);
            for id in graph.temporal_nodes() {
                let shard = &mut shards[graph.shard_of(id) as usize];
                if let Some(due) = shard.state(graph.node(id)).earliest_due() {
                    shard.schedule(id, due);
                }
            }
            Ok(())
        })
    }

    /// Replays a primitive-event log through this detector's graph (batch /
    /// after-the-fact detection, §2.1). Timestamps from the log are
    /// preserved, so batch detection yields exactly the online detections.
    ///
    /// After the replay the clock is resynchronized past the highest
    /// replayed timestamp (not merely the last record's: a journal
    /// recovered from a crash can carry an unsorted tail), so fresh
    /// signals can never tick behind recovered history — order-sensitive
    /// operators like chronicle `SEQ` would silently misorder otherwise.
    pub fn replay(&self, log: &[LoggedEvent]) -> Vec<Detection> {
        let mut out = Vec::new();
        let mut max_ts = 0;
        for ev in log {
            max_ts = max_ts.max(ev.ts());
            match ev {
                LoggedEvent::Method { class, sig, edge, oid, params, txn, ts } => {
                    out.extend(
                        self.notify_method_at(class, sig, *edge, *oid, params, *txn, *ts, false),
                    );
                }
                LoggedEvent::Explicit { name, params, txn, ts } => {
                    out.extend(self.signal_explicit_at(name, params.clone(), *txn, *ts, false));
                }
            }
        }
        self.clock.advance_to(max_ts);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventRecorder;
    use sentinel_snoop::parse_event_expr;

    const SIG_SELL: &str = "int sell_stock(int qty)";
    const SIG_SET: &str = "void set_price(float price)";

    fn detector() -> LocalEventDetector {
        let d = LocalEventDetector::new(0);
        d.declare_primitive("e1", "STOCK", EventModifier::End, SIG_SELL, PrimTarget::AnyInstance)
            .unwrap();
        d.declare_primitive("e2", "STOCK", EventModifier::Begin, SIG_SET, PrimTarget::AnyInstance)
            .unwrap();
        d.declare_primitive("e3", "STOCK", EventModifier::End, SIG_SET, PrimTarget::AnyInstance)
            .unwrap();
        d
    }

    fn sell(d: &LocalEventDetector, oid: u64, qty: i64, txn: u64) -> Vec<Detection> {
        d.notify_method(
            "STOCK",
            SIG_SELL,
            EventModifier::End,
            oid,
            vec![(Arc::from("qty"), Value::Int(qty))],
            Some(txn),
        )
    }

    fn set_price(d: &LocalEventDetector, oid: u64, price: f64, txn: u64) -> Vec<Detection> {
        let mut out = d.notify_method(
            "STOCK",
            SIG_SET,
            EventModifier::Begin,
            oid,
            vec![(Arc::from("price"), Value::Float(price))],
            Some(txn),
        );
        out.extend(d.notify_method(
            "STOCK",
            SIG_SET,
            EventModifier::End,
            oid,
            vec![(Arc::from("price"), Value::Float(price))],
            Some(txn),
        ));
        out
    }

    #[test]
    fn primitive_rule_subscription_fires() {
        let d = detector();
        let e1 = d.lookup("e1").unwrap();
        d.subscribe(e1, ParamContext::Recent, 42).unwrap();
        let dets = sell(&d, 7, 100, 1);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].subscribers, vec![42]);
        assert_eq!(dets[0].occurrence.param("qty"), Some(&Value::Int(100)));
        assert_eq!(dets[0].occurrence.source, Some(7));
    }

    #[test]
    fn begin_and_end_variants_are_distinct() {
        let d = detector();
        let e2 = d.lookup("e2").unwrap(); // begin(set_price)
        let e3 = d.lookup("e3").unwrap(); // end(set_price)
        d.subscribe(e2, ParamContext::Recent, 2).unwrap();
        d.subscribe(e3, ParamContext::Recent, 3).unwrap();
        let dets = set_price(&d, 1, 55.5, 1);
        assert_eq!(dets.len(), 2);
        assert_eq!(dets[0].event, e2);
        assert_eq!(dets[1].event, e3);
        assert!(dets[0].occurrence.at < dets[1].occurrence.at);
    }

    #[test]
    fn composite_and_detects_the_paper_e4() {
        let d = detector();
        let expr = parse_event_expr("e1 ^ e2").unwrap();
        let e4 = d.define_named("e4", &expr).unwrap();
        d.subscribe(e4, ParamContext::Cumulative, 9).unwrap();
        assert!(sell(&d, 1, 10, 1).is_empty());
        let dets = set_price(&d, 1, 2.0, 1);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].event, e4);
        assert_eq!(dets[0].context, ParamContext::Cumulative);
        let prims = dets[0].occurrence.param_list().len();
        assert_eq!(prims, 2);
    }

    #[test]
    fn same_event_detected_in_two_contexts_simultaneously() {
        let d = detector();
        let expr = parse_event_expr("e1 ^ e2").unwrap();
        let e4 = d.define_named("e4", &expr).unwrap();
        d.subscribe(e4, ParamContext::Recent, 1).unwrap();
        d.subscribe(e4, ParamContext::Chronicle, 2).unwrap();
        sell(&d, 1, 10, 1);
        let dets = set_price(&d, 1, 2.0, 1);
        let mut ctxs: Vec<_> = dets.iter().map(|d| d.context).collect();
        ctxs.sort();
        assert_eq!(ctxs, vec![ParamContext::Recent, ParamContext::Chronicle]);
    }

    #[test]
    fn instance_level_event_filters_by_oid() {
        let d = detector();
        d.declare_primitive(
            "ibm_sell",
            "STOCK",
            EventModifier::End,
            SIG_SELL,
            PrimTarget::Instance(77),
        )
        .unwrap();
        let ev = d.lookup("ibm_sell").unwrap();
        d.subscribe(ev, ParamContext::Recent, 5).unwrap();
        assert!(sell(&d, 1, 10, 1).is_empty(), "other instance ignored");
        let dets = sell(&d, 77, 10, 1);
        assert_eq!(dets.len(), 1);
    }

    #[test]
    fn class_and_instance_rules_fire_together() {
        // The paper's any_stk_price (class) + set_IBM_price (instance).
        let d = detector();
        d.declare_primitive(
            "any_sell",
            "STOCK",
            EventModifier::End,
            SIG_SELL,
            PrimTarget::AnyInstance,
        )
        .unwrap();
        d.declare_primitive(
            "ibm_sell",
            "STOCK",
            EventModifier::End,
            SIG_SELL,
            PrimTarget::Instance(77),
        )
        .unwrap();
        d.subscribe(d.lookup("any_sell").unwrap(), ParamContext::Recent, 1).unwrap();
        d.subscribe(d.lookup("ibm_sell").unwrap(), ParamContext::Recent, 2).unwrap();
        // e1 also matches the same method but has no subscribers.
        let dets = sell(&d, 77, 10, 1);
        let mut subs: Vec<_> = dets.iter().flat_map(|d| d.subscribers.clone()).collect();
        subs.sort();
        assert_eq!(subs, vec![1, 2]);
    }

    #[test]
    fn signaling_disabled_suppresses_events() {
        let d = detector();
        let e1 = d.lookup("e1").unwrap();
        d.subscribe(e1, ParamContext::Recent, 1).unwrap();
        d.set_signaling(false);
        assert!(sell(&d, 1, 10, 1).is_empty());
        d.set_signaling(true);
        assert_eq!(sell(&d, 1, 10, 1).len(), 1);
    }

    #[test]
    fn flush_txn_prevents_cross_transaction_composites() {
        let d = detector();
        let expr = parse_event_expr("e1 ; e3").unwrap();
        let seq = d.define_named("seq13", &expr).unwrap();
        d.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        // T1 raises the initiator, then aborts -> flush.
        sell(&d, 1, 10, 1);
        d.flush_txn(1);
        // T2's terminator must NOT pair with T1's initiator.
        let dets = set_price(&d, 1, 2.0, 2);
        assert!(dets.is_empty(), "event crossed a transaction boundary");
        // Within T2 alone the sequence completes.
        sell(&d, 1, 10, 2);
        let dets = set_price(&d, 1, 2.0, 2);
        assert_eq!(dets.len(), 1);
    }

    #[test]
    fn deferred_rewrite_shape_a_star_over_txn_events() {
        // A*(begin-transaction, e1, pre-commit-transaction): the deferred
        // coupling rewrite of §3.1 — fires exactly once per transaction.
        let d = detector();
        let expr = parse_event_expr("A*(begin-transaction, e1, pre-commit-transaction)").unwrap();
        let ev = d.define_named("def_rule_event", &expr).unwrap();
        d.subscribe(ev, ParamContext::Recent, 1).unwrap();

        d.signal_explicit("begin-transaction", Vec::new(), Some(1));
        sell(&d, 1, 10, 1);
        sell(&d, 1, 20, 1);
        sell(&d, 1, 30, 1);
        let dets = d.signal_explicit("pre-commit-transaction", Vec::new(), Some(1));
        assert_eq!(dets.len(), 1, "deferred rule executes exactly once");
        // All three triggerings are in the parameter list (net effect).
        let prims = dets[0].occurrence.param_list();
        let sells = prims.iter().filter(|p| &*p.event_name == "e1").count();
        assert_eq!(sells, 3);

        // Second transaction with no e1: no firing at pre-commit.
        d.signal_explicit("begin-transaction", Vec::new(), Some(2));
        let dets = d.signal_explicit("pre-commit-transaction", Vec::new(), Some(2));
        assert!(dets.is_empty());
    }

    #[test]
    fn temporal_plus_fires_via_clock_advance() {
        let d = detector();
        let expr = parse_event_expr("PLUS(e1, 100)").unwrap();
        let ev = d.define_named("late", &expr).unwrap();
        d.subscribe(ev, ParamContext::Recent, 1).unwrap();
        sell(&d, 1, 10, 1); // ts = 1, due = 101
        assert!(d.advance_time(100).is_empty());
        let dets = d.advance_time(101);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].occurrence.at, 101);
    }

    #[test]
    fn periodic_fires_between_start_and_end_events() {
        let d = detector();
        let expr = parse_event_expr("P(e1, 10, e3)").unwrap();
        let ev = d.define_named("tick", &expr).unwrap();
        d.subscribe(ev, ParamContext::Recent, 1).unwrap();
        sell(&d, 1, 10, 1); // ts=1 -> ticks at 11, 21, …
        let dets = d.advance_time(25);
        assert_eq!(dets.len(), 2);
        assert_eq!(dets[0].occurrence.at, 11);
        assert_eq!(dets[1].occurrence.at, 21);
        set_price(&d, 1, 1.0, 1); // end closes the window
        assert!(d.advance_time(100).is_empty());
    }

    #[test]
    fn batch_replay_reproduces_online_detections() {
        // Online run with recording.
        let online = detector();
        let expr = parse_event_expr("e1 ^ e2").unwrap();
        let e4 = online.define_named("e4", &expr).unwrap();
        online.subscribe(e4, ParamContext::Chronicle, 1).unwrap();
        let recorder = Arc::new(EventRecorder::default());
        online.set_event_sink(recorder.clone());
        sell(&online, 1, 10, 1);
        let online_dets = set_price(&online, 1, 2.0, 1);
        online.clear_event_sink();
        let log = recorder.take();
        assert_eq!(log.len(), 3);

        // Batch run over the stored log with the same graph shape.
        let batch = detector();
        let e4b = batch.define_named("e4", &expr).unwrap();
        batch.subscribe(e4b, ParamContext::Chronicle, 1).unwrap();
        let batch_dets = batch.replay(&log);
        assert_eq!(batch_dets.len(), online_dets.len());
        assert_eq!(
            batch_dets[0].occurrence.param_list().len(),
            online_dets[0].occurrence.param_list().len()
        );
        assert_eq!(batch_dets[0].occurrence.at, online_dets[0].occurrence.at);
    }

    #[test]
    fn unsubscribe_stops_detection_when_counter_zero() {
        let d = detector();
        let expr = parse_event_expr("e1 ^ e2").unwrap();
        let e4 = d.define_named("e4", &expr).unwrap();
        d.subscribe(e4, ParamContext::Recent, 1).unwrap();
        sell(&d, 1, 10, 1);
        d.unsubscribe(e4, ParamContext::Recent, 1).unwrap();
        // Buffered state dropped; re-subscribing starts fresh (NOW-like).
        d.subscribe(e4, ParamContext::Recent, 1).unwrap();
        let dets = set_price(&d, 1, 2.0, 1);
        assert!(dets.is_empty(), "old initiator must be gone");
    }

    #[test]
    fn stats_count_signals_and_per_event_occurrences() {
        let d = detector();
        let expr = parse_event_expr("e1 ^ e2").unwrap();
        let e4 = d.define_named("e4", &expr).unwrap();
        d.subscribe(e4, ParamContext::Recent, 1).unwrap();
        sell(&d, 1, 10, 1); // e1
        sell(&d, 1, 20, 1); // e1
        set_price(&d, 1, 2.0, 1); // e2 + e3 (two signals) -> e4 detected
        let stats = d.stats();
        assert_eq!(stats.signals, 4);
        let count = |name: &str| {
            stats.per_event.iter().find(|(n, _)| &**n == name).map(|(_, c)| *c).unwrap_or(0)
        };
        assert_eq!(count("e1"), 2);
        assert_eq!(count("e2"), 1);
        assert_eq!(count("e4"), 1, "composite detections counted too");
    }

    #[test]
    fn nested_composites_flow_upward() {
        let d = detector();
        let expr = parse_event_expr("(e1 ^ e2) ; e3").unwrap();
        let ev = d.define_named("nested", &expr).unwrap();
        d.subscribe(ev, ParamContext::Chronicle, 1).unwrap();
        sell(&d, 1, 10, 1); // e1
                            // set_price raises begin(e2) at t2 and end(e3) at t3:
                            // (e1 ^ e2) completes at t2, then e3 at t3 completes the SEQ.
        let dets = set_price(&d, 1, 2.0, 1);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].occurrence.param_list().len(), 3);
    }

    #[test]
    fn shard_stats_track_disjoint_components() {
        let d = LocalEventDetector::new(0);
        let a = d.declare_explicit("a");
        let b = d.declare_explicit("b");
        d.subscribe(a, ParamContext::Recent, 1).unwrap();
        d.subscribe(b, ParamContext::Recent, 2).unwrap();
        let sa = d.shard_of_event("a");
        let sb = d.shard_of_event("b");
        assert_ne!(sa, sb, "disjoint events live in disjoint shards");
        d.signal_explicit("a", Vec::new(), None);
        d.signal_explicit("a", Vec::new(), None);
        d.signal_explicit("b", Vec::new(), None);
        let stats = d.stats();
        let shard = |label: u32| stats.shards.iter().find(|s| s.shard == label).unwrap().clone();
        assert_eq!(shard(sa).signals, 2);
        assert_eq!(shard(sb).signals, 1);
    }

    #[test]
    fn event_sink_sees_each_record_and_fence() {
        // A sink sees every signal through `record` (per shard) and every
        // whole-graph ordering point through `fence`.
        struct SnapSink {
            records: Mutex<Vec<(u32, Timestamp)>>,
            fences: Mutex<Vec<FenceKind>>,
        }
        impl EventSink for SnapSink {
            fn record(&self, _detector: &LocalEventDetector, shard: u32, ev: &LoggedEvent) {
                self.records.lock().push((shard, ev.ts()));
            }
            fn fence(&self, kind: FenceKind, _ts: Timestamp) {
                self.fences.lock().push(kind);
            }
        }
        let d = detector();
        let expr = parse_event_expr("e1 ; e3").unwrap();
        let seq = d.define_named("seq13", &expr).unwrap();
        d.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        let sink =
            Arc::new(SnapSink { records: Mutex::new(Vec::new()), fences: Mutex::new(Vec::new()) });
        d.set_event_sink(sink.clone());
        sell(&d, 1, 10, 1);
        set_price(&d, 1, 2.0, 1);
        d.flush_txn(1);
        d.with_signals_paused(|_| {});
        d.clear_event_sink();
        // After detach nothing further reaches the sink.
        sell(&d, 1, 10, 2);
        let records = sink.records.lock().clone();
        assert_eq!(records.len(), 3, "sink saw every signal while attached");
        assert!(records.windows(2).all(|w| w[0].1 < w[1].1), "one shard: timestamp order");
        let fences = sink.fences.lock().clone();
        assert_eq!(fences, [FenceKind::FlushTxn(1), FenceKind::Barrier]);
    }

    #[test]
    fn recording_attach_detach_survives_concurrent_signal_bursts() {
        // Attaching and detaching a recorder drains in-flight signals, and
        // every record runs under its shard's mutex: whatever the
        // bursts on two shards do, each shard's stream in the log is in
        // timestamp order.
        use std::sync::atomic::AtomicBool;
        let d = Arc::new(LocalEventDetector::new(0));
        d.declare_explicit("a");
        d.declare_explicit("b");
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = ["a", "b"]
            .iter()
            .map(|&name| {
                let d = d.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        d.signal_explicit(name, Vec::new(), None);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            let recorder = Arc::new(EventRecorder::default());
            d.set_event_sink(recorder.clone());
            std::thread::yield_now();
            d.clear_event_sink();
            let log = recorder.take();
            for name in ["a", "b"] {
                let ts: Vec<Timestamp> = log
                    .iter()
                    .filter(|ev| matches!(ev, LoggedEvent::Explicit { name: n, .. } if n == name))
                    .map(LoggedEvent::ts)
                    .collect();
                assert!(ts.windows(2).all(|w| w[0] < w[1]), "shard stream out of order");
            }
        }
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn with_signals_paused_view_snapshots_one_cut() {
        let d = detector();
        let expr = parse_event_expr("e1 ; e3").unwrap();
        let seq = d.define_named("seq13", &expr).unwrap();
        d.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        sell(&d, 1, 10, 1);
        // Both reads happen inside one pause and must observe one cut.
        let (a, b) = d.with_signals_paused(|p| (p.snapshot_state(), p.snapshot_state()));
        assert_eq!(a.encode(), b.encode());
        assert!(!a.nodes.is_empty(), "buffered initiator state captured");
        d.restore_snapshot(&a).unwrap();
        let dets = set_price(&d, 1, 2.0, 1);
        assert_eq!(dets.len(), 1, "restored initiator still pairs");
    }

    /// No `(due, node)` is queued twice, and every temporal node's earliest
    /// alarm is covered by a queued entry for it that is due no later.
    fn check_alarm_queues(d: &LocalEventDetector) {
        d.quiesce(|topo, shards| {
            let graph = &topo.graph;
            let queued: Vec<(Timestamp, EventId)> =
                shards.iter().flat_map(|s| s.alarms.iter().copied()).collect();
            let mut distinct = queued.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), queued.len(), "an alarm is queued twice: {queued:?}");
            for id in graph.temporal_nodes() {
                let n = graph.node(id);
                if let Some(due) = shards[n.shard as usize].state(n).earliest_due() {
                    assert!(queued.iter().any(|&(q, n)| n == id && q <= due), "{id:?} due {due}");
                }
            }
        });
    }

    #[test]
    fn alarms_are_queued_once_and_a_restored_queue_detects_the_same() {
        // P, P* and PLUS over one start leaf in all four contexts; `u`
        // shares their shard through `s | u` but feeds no temporal node.
        let build = || {
            let d = LocalEventDetector::new(0);
            for leaf in ["s", "t", "u"] {
                d.declare_explicit(leaf);
            }
            for (i, expr) in ["P(s, 3, t)", "P*(s, 5, t)", "PLUS(s, 4)", "s | u"].iter().enumerate()
            {
                let id =
                    d.define_named(&format!("r{i}"), &parse_event_expr(expr).unwrap()).unwrap();
                for ctx in ParamContext::ALL {
                    d.subscribe(id, ctx, i as u64).unwrap();
                }
            }
            d
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let script: Vec<u64> = (0..600)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 8
            })
            .collect();
        // Each step's detections, order-free: a stale queue entry may fire
        // a node's due alarms ahead of another node's earlier ones.
        let run = |restore_at: usize| -> Vec<Vec<String>> {
            let d = build();
            let mut steps = Vec::new();
            for (i, &r) in script.iter().enumerate() {
                if i == restore_at {
                    let snap = d.snapshot_state();
                    d.restore_snapshot(&snap).unwrap();
                }
                let dets = match r {
                    0..=2 => d.signal_explicit("s", Vec::new(), None),
                    3 | 4 => d.signal_explicit("t", Vec::new(), None),
                    5 | 6 => d.signal_explicit("u", Vec::new(), None),
                    _ => d.advance_time(d.clock().peek() + 3),
                };
                check_alarm_queues(&d);
                let mut step: Vec<String> = dets
                    .iter()
                    .map(|d| {
                        let o = &d.occurrence;
                        let cons: Vec<Timestamp> = o.constituents.iter().map(|c| c.at).collect();
                        format!("{:?} {} {} {cons:?} {:?}", d.event, d.context, o.at, o.params)
                    })
                    .collect();
                step.sort();
                steps.push(step);
            }
            steps
        };
        let live = run(usize::MAX);
        let or_root = format!("{:?} ", build().lookup("r3").unwrap());
        let temporal = live.iter().flatten().filter(|f| !f.starts_with(&or_root)).count();
        assert!(temporal > 100, "the script must fire temporal operators, fired {temporal}");
        assert_eq!(live, run(script.len() / 2));
    }
}
