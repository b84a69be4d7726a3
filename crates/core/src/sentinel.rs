//! The Sentinel facade: an active OODBMS.
//!
//! Construction assembles Figure 1: a passive object database over the
//! Exodus-analogue storage engine, a local composite event detector, a rule
//! manager + scheduler, the invocation/transaction bridges, and the two
//! deactivatable system rules that flush the event graph at transaction
//! boundaries ("we provide a flush operation … invoked as an action of a
//! rule on abort and commit events. However, these can be easily modified
//! by deactivating these rules if events across transaction boundaries need
//! to be detected", §3.2.2 item 3).

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sentinel_detector::graph::{GraphError, PrimTarget};
use sentinel_detector::service::ServiceMetrics;
use sentinel_detector::{Detection, DetectorStats, EventId, LocalEventDetector, Value};
use sentinel_durable::{CatalogOp, DurableEngine, DurableError};
use sentinel_obs::span::{self, Field, TraceStore};
use sentinel_obs::{export, json};
use sentinel_obs::{FollowerLag, NetMetrics, ReplicationStats};
use sentinel_oodb::invoke::{Database, DbError};
use sentinel_oodb::{AttrValue, ObjectState, Oid};
use sentinel_rules::debugger::RuleDebugger;
use sentinel_rules::manager::RuleOptions;
use sentinel_rules::scheduler::DetachedRequest;
use sentinel_rules::{
    ActionFn, CondFn, ExecutionMode, RuleError, RuleId, RuleInvocation, RuleManager, RuleScheduler,
    SchedulerStats,
};
use sentinel_snoop::ast::EventModifier;
use sentinel_snoop::{parse_event_expr, ParseError, TriggerMode};
use sentinel_storage::{StorageEngine, StorageError, StorageStats, TxnId};

use crate::bridge::{EventBridge, TxnBridge};

/// Name of the deactivatable flush-on-commit system rule.
pub const FLUSH_ON_COMMIT_RULE: &str = "__flush_on_commit";
/// Name of the deactivatable flush-on-abort system rule.
pub const FLUSH_ON_ABORT_RULE: &str = "__flush_on_abort";

/// Errors surfaced by the Sentinel facade.
#[derive(Debug)]
pub enum SentinelError {
    /// Passive-database error.
    Db(DbError),
    /// Storage-engine error.
    Storage(StorageError),
    /// Event-graph error.
    Graph(GraphError),
    /// Rule-management error.
    Rule(RuleError),
    /// Event/rule specification parse error.
    Parse(ParseError),
    /// Name resolution failure.
    Unknown(String),
    /// Malformed declarative spec (wire-protocol class/rule JSON).
    Spec(String),
    /// Durability-layer failure (journal, catalog, or checkpoint I/O).
    Durable(DurableError),
}

impl fmt::Display for SentinelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelError::Db(e) => write!(f, "{e}"),
            SentinelError::Storage(e) => write!(f, "{e}"),
            SentinelError::Graph(e) => write!(f, "{e}"),
            SentinelError::Rule(e) => write!(f, "{e}"),
            SentinelError::Parse(e) => write!(f, "{e}"),
            SentinelError::Unknown(n) => write!(f, "unknown name `{n}`"),
            SentinelError::Spec(msg) => write!(f, "{msg}"),
            SentinelError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SentinelError {}

impl From<DurableError> for SentinelError {
    fn from(e: DurableError) -> Self {
        SentinelError::Durable(e)
    }
}

impl From<DbError> for SentinelError {
    fn from(e: DbError) -> Self {
        SentinelError::Db(e)
    }
}
impl From<StorageError> for SentinelError {
    fn from(e: StorageError) -> Self {
        SentinelError::Storage(e)
    }
}
impl From<GraphError> for SentinelError {
    fn from(e: GraphError) -> Self {
        SentinelError::Graph(e)
    }
}
impl From<RuleError> for SentinelError {
    fn from(e: RuleError) -> Self {
        SentinelError::Rule(e)
    }
}
impl From<ParseError> for SentinelError {
    fn from(e: ParseError) -> Self {
        SentinelError::Parse(e)
    }
}

/// Result alias.
pub type SentinelResult<T> = Result<T, SentinelError>;

/// Construction options.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Application id (distinguishes clients at the global detector).
    pub app_id: u32,
    /// Rule execution mode. `Inline` is deterministic (tests, batch);
    /// `Threaded` is the paper's lightweight-process model.
    pub mode: ExecutionMode,
    /// Start the detached-rule executor thread.
    pub detached_executor: bool,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig { app_id: 0, mode: ExecutionMode::Inline, detached_executor: true }
    }
}

/// Combined observability snapshot across every Sentinel subsystem: the
/// event detector, the rule scheduler and the storage engine. Obtained from
/// [`Sentinel::stats`]; serialize with [`SentinelStats::to_json`] or
/// `Display` (which prints the same compact JSON).
#[derive(Debug, Clone, Default)]
pub struct SentinelStats {
    /// Event-detector counters (signals, per-node emission/consumption,
    /// flush activity).
    pub detector: DetectorStats,
    /// Rule-scheduler counters (fired per coupling mode, priority classes,
    /// condition/action wall-time, panics).
    pub scheduler: SchedulerStats,
    /// Storage counters (WAL appends/forces, buffer hit ratio, page I/O).
    pub storage: StorageStats,
    /// Durability counters (journal/catalog/checkpoint activity), as
    /// rendered by `DurabilityMetrics::to_json`; `None` when the system
    /// was not opened durably.
    pub durability: Option<json::Value>,
    /// Replication state (log tip, follower lag, or a replica's apply
    /// watermark); `None` when this node neither ships nor follows.
    pub replication: Option<ReplicationStats>,
    /// Network-server counters (`NetMetrics::to_json`, with the serving
    /// pid); `None` unless a server is running.
    pub net: Option<json::Value>,
    /// The server's detector-pool queue (`ServiceMetrics::to_json`);
    /// `None` unless a server is running.
    pub service: Option<json::Value>,
    /// Fire counts of catalog (`{"action": "count"}`) rules, by rule name.
    pub rule_hits: BTreeMap<String, u64>,
    /// Rendered parameters of each catalog rule's most recent firing.
    pub rule_last: BTreeMap<String, String>,
}

impl SentinelStats {
    /// Serializes the snapshot as a JSON value.
    pub fn to_json(&self) -> json::Value {
        let mut pairs = vec![
            ("detector".to_string(), self.detector.to_json()),
            ("scheduler".to_string(), self.scheduler.to_json()),
            ("storage".to_string(), self.storage.to_json()),
            (
                "rule_hits".to_string(),
                json::Value::Obj(
                    self.rule_hits
                        .iter()
                        .map(|(k, v)| (k.clone(), json::Value::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "rule_last".to_string(),
                json::Value::Obj(
                    self.rule_last.iter().map(|(k, v)| (k.clone(), json::Value::str(v))).collect(),
                ),
            ),
        ];
        if let Some(d) = &self.durability {
            pairs.push(("durability".to_string(), d.clone()));
        }
        if let Some(r) = &self.replication {
            pairs.push(("replication".to_string(), r.to_json()));
        }
        for (key, section) in [("net", &self.net), ("service", &self.service)] {
            if let Some(v) = section {
                pairs.push((key.to_string(), v.clone()));
            }
        }
        json::Value::Obj(pairs)
    }
}

impl fmt::Display for SentinelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// An active object-oriented database (one application/client).
pub struct Sentinel {
    db: Arc<Database>,
    detector: Arc<LocalEventDetector>,
    scheduler: Arc<RuleScheduler>,
    spans: Arc<TraceStore>,
    config: SentinelConfig,
    detached_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The durability engine, present only for systems opened with
    /// [`Sentinel::open_durable`]. Installed *after* recovery replay so
    /// replayed DDL and events are never re-journaled.
    pub(crate) durable: Mutex<Option<Arc<DurableEngine>>>,
    /// Fire counts of catalog (`{"action": "count"}`) rules.
    pub(crate) rule_hits: Arc<Mutex<BTreeMap<String, u64>>>,
    /// Rendered parameters of each catalog rule's most recent firing.
    pub(crate) rule_last: Arc<Mutex<BTreeMap<String, String>>>,
    /// Live time-series registry plus its sampler thread, when
    /// [`Sentinel::start_telemetry`] is on.
    pub(crate) telemetry: Mutex<crate::telemetry::TelemetrySlot>,
    /// `true` while this node is a read-only follower; cleared by
    /// [`Sentinel::promote`].
    pub(crate) replica: AtomicBool,
    /// While set, [`journal_op`](Sentinel::define_rule_spec) suppression:
    /// catalog ops applied from a shipped replication stream must not be
    /// re-journaled through the DDL wrappers (the apply path journals them
    /// explicitly, preserving the primary's `at_index` interleaving).
    pub(crate) suppress_journal: AtomicBool,
    /// Replica-side replication status, kept fresh by the follower apply
    /// loop (`sentinel-cluster`); `None` on a primary.
    pub(crate) repl_status: Mutex<Option<ReplicationStats>>,
    /// The actually-bound listen address, set by the network server once
    /// its listener exists — the resolved port even when asked for port 0.
    pub(crate) bound_addr: Mutex<Option<SocketAddr>>,
    /// The running network server's counters and its detector pool's
    /// queue counters, rendered into [`Sentinel::stats`].
    server_metrics: Mutex<Option<ServerMetrics>>,
}

/// What a running network server hands its system for [`Sentinel::stats`].
type ServerMetrics = (Arc<NetMetrics>, Arc<ServiceMetrics>);

impl Sentinel {
    /// An in-memory Sentinel with default configuration.
    pub fn in_memory() -> Arc<Self> {
        Self::open(Arc::new(StorageEngine::in_memory()), SentinelConfig::default())
            .expect("in-memory sentinel")
    }

    /// An in-memory Sentinel with an explicit configuration.
    pub fn in_memory_with(config: SentinelConfig) -> Arc<Self> {
        Self::open(Arc::new(StorageEngine::in_memory()), config).expect("in-memory sentinel")
    }

    /// Opens Sentinel over a storage engine.
    pub fn open(engine: Arc<StorageEngine>, config: SentinelConfig) -> SentinelResult<Arc<Self>> {
        let db = Arc::new(Database::open(engine.clone())?);
        // The global REACTIVE base class of §3.2.
        db.register_class(sentinel_oodb::ClassDef::new("REACTIVE"))?;

        let detector = Arc::new(LocalEventDetector::new(config.app_id));
        let manager = Arc::new(RuleManager::new(detector.clone()));
        let scheduler = RuleScheduler::new(manager.clone(), config.mode);

        // One span store spans the whole causal chain — primitive signal,
        // composite detection, condition/action, WAL force, page I/O. It is
        // disabled until [`Sentinel::set_tracing`] turns it on.
        let spans = Arc::new(TraceStore::new());
        detector.set_trace_store(spans.clone());
        scheduler.set_trace_store(spans.clone());
        engine.set_trace_store(spans.clone());

        // Post-processor seam: wrapper methods notify the detector.
        db.add_hooks(Arc::new(EventBridge::new(detector.clone(), scheduler.clone())));
        // Reactive system class: transaction events.
        engine.add_txn_observer(Arc::new(TxnBridge::new(detector.clone(), scheduler.clone())));
        // Subtransaction-level recovery (the paper's §4 extension): a
        // failing rule body rolls its own writes back to the savepoint
        // taken when it started, leaving the rest of the transaction intact.
        // The hooks hold the engine weakly: the engine owns the scheduler
        // (through its `TxnBridge` observer), so a strong reference back
        // would keep a dropped system alive for ever.
        {
            let mark_engine = Arc::downgrade(&engine);
            let rollback_engine = Arc::downgrade(&engine);
            scheduler.set_savepoint_hooks(sentinel_rules::SavepointHooks {
                mark: Box::new(move |txn| mark_engine.upgrade()?.savepoint(TxnId(txn)).ok()),
                rollback: Box::new(move |txn, mark| {
                    if let Some(engine) = rollback_engine.upgrade() {
                        let _ = engine.rollback_to(TxnId(txn), mark);
                    }
                }),
            });
        }

        // Deactivatable flush rules (priority class 0 = after user rules).
        let commit_ev = detector.lookup("commit-transaction").expect("predeclared");
        let abort_ev = detector.lookup("abort-transaction").expect("predeclared");
        for (rule_name, event) in
            [(FLUSH_ON_COMMIT_RULE, commit_ev), (FLUSH_ON_ABORT_RULE, abort_ev)]
        {
            let det = detector.clone();
            manager.define_rule(
                rule_name,
                event,
                Arc::new(|_| true),
                Arc::new(move |inv: &RuleInvocation| {
                    if let Some(txn) = inv.occurrence.txn {
                        det.flush_txn(txn);
                    }
                }),
                RuleOptions::default().priority(0).trigger(TriggerMode::Previous),
            )?;
        }

        let sentinel = Arc::new(Sentinel {
            db,
            detector,
            scheduler,
            spans,
            config: config.clone(),
            detached_thread: Mutex::new(None),
            durable: Mutex::new(None),
            rule_hits: Arc::new(Mutex::new(BTreeMap::new())),
            rule_last: Arc::new(Mutex::new(BTreeMap::new())),
            telemetry: Mutex::new(None),
            replica: AtomicBool::new(false),
            suppress_journal: AtomicBool::new(false),
            repl_status: Mutex::new(None),
            bound_addr: Mutex::new(None),
            server_metrics: Mutex::new(None),
        });
        if config.detached_executor {
            sentinel.spawn_detached_executor();
        }
        Ok(sentinel)
    }

    /// Starts the detached-rule executor: detached rules run here in their
    /// own top-level transactions, decoupled from the triggering one.
    fn spawn_detached_executor(self: &Arc<Self>) {
        let rx = self.scheduler.detached_requests();
        let weak = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name(format!("sentinel-detached-{}", self.config.app_id))
            .spawn(move || {
                while let Ok(DetachedRequest { rule, occurrence }) = rx.recv() {
                    let Some(s) = weak.upgrade() else { break };
                    let Ok(txn) = s.db.begin() else { continue };
                    let body = s.scheduler.manager().with_rule(rule, |r| {
                        (r.name.clone(), r.condition.clone(), r.action.clone())
                    });
                    let Ok((name, cond, action)) = body else {
                        let _ = s.db.abort(txn);
                        continue;
                    };
                    let inv = RuleInvocation {
                        rule,
                        rule_name: name,
                        occurrence,
                        depth: 0,
                        txn: Some(txn.0),
                        subtxn: None,
                    };
                    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if (cond)(&inv) {
                            (action)(&inv);
                        }
                    }))
                    .is_ok();
                    if ok {
                        let _ = s.db.commit(txn);
                    } else {
                        let _ = s.db.abort(txn);
                    }
                }
            })
            .expect("spawn detached executor");
        *self.detached_thread.lock() = Some(handle);
    }

    // --- accessors ---------------------------------------------------

    /// The passive object database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The local composite event detector.
    pub fn detector(&self) -> &Arc<LocalEventDetector> {
        &self.detector
    }

    /// The rule scheduler.
    pub fn scheduler(&self) -> &Arc<RuleScheduler> {
        &self.scheduler
    }

    /// The rule manager.
    pub fn rules(&self) -> &Arc<RuleManager> {
        self.scheduler.manager()
    }

    /// The rule debugger.
    pub fn debugger(&self) -> &Arc<RuleDebugger> {
        self.scheduler.debugger()
    }

    /// This application's id.
    pub fn app_id(&self) -> u32 {
        self.config.app_id
    }

    /// The provenance span store. Query it (by trace, by rule, by event,
    /// slowest-N) after enabling tracing with [`Sentinel::set_tracing`].
    pub fn trace_store(&self) -> &Arc<TraceStore> {
        &self.spans
    }

    /// Turns causal provenance tracing on or off. Off (the default) every
    /// instrumentation site short-circuits on one relaxed atomic load.
    pub fn set_tracing(&self, on: bool) {
        self.spans.set_enabled(on);
    }

    /// Renders every recorded span as Chrome trace-event JSON — load the
    /// string into Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn export_chrome_trace(&self) -> String {
        export::to_chrome_trace_json(&self.spans.snapshot())
    }

    /// Snapshot of the observability counters across all subsystems.
    pub fn stats(&self) -> SentinelStats {
        // Taken before the struct literal: a guard temporary inside it
        // would live across the `replication_stats` call below, which
        // locks `self.durable` again.
        let durability = self.durable.lock().as_ref().map(|e| e.metrics().to_json());
        let server = self.server_metrics.lock().clone();
        SentinelStats {
            detector: self.detector.stats(),
            scheduler: self.scheduler.stats(),
            storage: self.db.engine().stats(),
            durability,
            replication: self.replication_stats(),
            rule_hits: self.rule_hits.lock().clone(),
            rule_last: self.rule_last.lock().clone(),
            net: server.as_ref().map(|(net, _)| net.to_json()),
            service: server.as_ref().map(|(_, service)| service.to_json()),
        }
    }

    /// This node's replication state: the apply-loop snapshot on a replica,
    /// tip + follower lag on a primary with subscribers, `None` for a
    /// plain single-node system.
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        if let Some(status) = self.repl_status.lock().clone() {
            return Some(status);
        }
        let durable = self.durable.lock();
        let engine = durable.as_ref()?;
        let repl = engine.replication();
        let followers = repl.followers();
        if followers.is_empty() {
            return None;
        }
        let tip = repl.tip();
        Some(ReplicationStats {
            role: "primary".into(),
            tip,
            followers: followers
                .into_iter()
                .map(|f| FollowerLag {
                    lag: tip.saturating_sub(f.applied),
                    name: f.name,
                    applied: f.applied,
                    age_ms: f.age_ms,
                })
                .collect(),
            ..ReplicationStats::default()
        })
    }

    /// `true` while this node is a read-only follower (writes are refused
    /// over the wire; the apply loop is the only mutator).
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::SeqCst)
    }

    /// The address the network server actually bound (resolved even when
    /// the listen address requested port 0), once a server is running.
    pub fn bound_addr(&self) -> Option<SocketAddr> {
        *self.bound_addr.lock()
    }

    /// Records the server's actually-bound listen address. Called by the
    /// network layer right after `bind()` succeeds.
    pub fn set_bound_addr(&self, addr: SocketAddr) {
        *self.bound_addr.lock() = Some(addr);
    }

    /// Installs (or, with `None`, removes) the running network server's
    /// counters and its detector pool's queue counters, so
    /// [`Sentinel::stats`] — and with it the `Stats` opcode, `/metrics`
    /// and the telemetry sampler — carries the `net` and `service`
    /// sections. Called by the network layer at start and shutdown.
    pub fn set_server_metrics(&self, metrics: Option<ServerMetrics>) {
        *self.server_metrics.lock() = metrics;
    }

    // --- transactions ------------------------------------------------

    /// Begins a top-level transaction (fires `begin-transaction`).
    pub fn begin(&self) -> SentinelResult<TxnId> {
        Ok(self.db.begin()?)
    }

    /// Commits (fires `pre-commit-transaction`, deferred rules run, then
    /// `commit-transaction` and the flush rule).
    pub fn commit(&self, txn: TxnId) -> SentinelResult<()> {
        Ok(self.db.commit(txn)?)
    }

    /// Aborts (fires `abort-transaction` and the flush rule).
    pub fn abort(&self, txn: TxnId) -> SentinelResult<()> {
        Ok(self.db.abort(txn)?)
    }

    // --- objects -------------------------------------------------------

    /// Creates an object.
    pub fn create_object(&self, txn: TxnId, state: &ObjectState) -> SentinelResult<Oid> {
        Ok(self.db.create_object(txn, state)?)
    }

    /// Reads an object.
    pub fn get_object(&self, txn: TxnId, oid: Oid) -> SentinelResult<ObjectState> {
        Ok(self.db.get_object(txn, oid)?)
    }

    /// Invokes a method through the active wrapper: primitive events are
    /// signalled before/after the body and immediate rules execute before
    /// this returns.
    pub fn invoke(
        &self,
        txn: TxnId,
        oid: Oid,
        sig: &str,
        args: Vec<(String, AttrValue)>,
    ) -> SentinelResult<AttrValue> {
        Ok(self.db.invoke(txn, oid, sig, args)?)
    }

    // --- events -----------------------------------------------------

    /// Declares a method-event primitive (class- or instance-level).
    pub fn declare_event(
        &self,
        name: &str,
        class: &str,
        modifier: EventModifier,
        sig: &str,
        target: PrimTarget,
    ) -> SentinelResult<EventId> {
        let id = self.detector.declare_primitive(name, class, modifier, sig, target)?;
        self.journal_op(&CatalogOp::DeclarePrimitive {
            name: name.to_string(),
            class: class.to_string(),
            edge: crate::durable::edge_name(modifier).to_string(),
            sig: sig.to_string(),
            oid: match target {
                PrimTarget::AnyInstance => None,
                PrimTarget::Instance(o) => Some(o),
            },
        })?;
        Ok(id)
    }

    /// Declares a name-matched explicit (abstract) event.
    pub fn declare_explicit(&self, name: &str) -> SentinelResult<EventId> {
        let id = self.detector.declare_explicit(name);
        self.journal_op(&CatalogOp::DeclareExplicit { name: name.to_string() })?;
        Ok(id)
    }

    /// Defines a named composite event from Snoop source text
    /// (`"e1 ^ e2"`, `"A*(begin-transaction, e, pre-commit-transaction)"`…).
    pub fn define_event(&self, name: &str, expr_src: &str) -> SentinelResult<EventId> {
        let expr = parse_event_expr(expr_src)?;
        let id = self.detector.define_named(name, &expr)?;
        self.journal_op(&CatalogOp::DefineEvent {
            name: name.to_string(),
            expr: expr_src.to_string(),
        })?;
        Ok(id)
    }

    /// Looks up a named event.
    pub fn event(&self, name: &str) -> SentinelResult<EventId> {
        self.detector.lookup(name).ok_or_else(|| SentinelError::Unknown(name.to_string()))
    }

    /// Raises an explicit (abstract) event from application code; immediate
    /// rules execute before this returns.
    pub fn raise(
        &self,
        txn: Option<TxnId>,
        name: &str,
        params: Vec<(Arc<str>, Value)>,
    ) -> SentinelResult<()> {
        let dets = self.detector.signal_explicit(name, params, txn.map(|t| t.0));
        self.scheduler.dispatch(dets);
        Ok(())
    }

    // --- rules -----------------------------------------------------------

    /// Defines a rule on a named event.
    pub fn define_rule(
        &self,
        name: &str,
        event: &str,
        condition: CondFn,
        action: ActionFn,
        opts: RuleOptions,
    ) -> SentinelResult<RuleId> {
        let ev = self.event(event)?;
        Ok(self.rules().define_rule(name, ev, condition, action, opts)?)
    }

    /// Parses and applies a §3.1 specification (classes, events, rules)
    /// against this system — convenience wrapper over
    /// [`crate::preprocessor::Preprocessor`].
    pub fn load_spec(
        &self,
        txn: TxnId,
        src: &str,
        table: &crate::preprocessor::FunctionTable,
    ) -> SentinelResult<crate::preprocessor::AppliedSpec> {
        crate::preprocessor::Preprocessor::new(self).apply(txn, src, table)
    }

    /// Enables a rule by name.
    pub fn enable_rule(&self, name: &str) -> SentinelResult<()> {
        let id =
            self.rules().lookup(name).ok_or_else(|| SentinelError::Unknown(name.to_string()))?;
        self.rules().enable(id)?;
        let defined_at = self.rules().with_rule(id, |r| r.defined_at)?;
        self.journal_op(&CatalogOp::EnableRule { name: name.to_string(), defined_at })?;
        Ok(())
    }

    /// Disables a rule by name (e.g. the flush rules, to let events cross
    /// transaction boundaries).
    pub fn disable_rule(&self, name: &str) -> SentinelResult<()> {
        let id =
            self.rules().lookup(name).ok_or_else(|| SentinelError::Unknown(name.to_string()))?;
        self.rules().disable(id)?;
        self.journal_op(&CatalogOp::DisableRule { name: name.to_string() })?;
        Ok(())
    }

    /// Drops (deletes) a rule by name.
    pub fn drop_rule(&self, name: &str) -> SentinelResult<()> {
        let id =
            self.rules().lookup(name).ok_or_else(|| SentinelError::Unknown(name.to_string()))?;
        self.rules().delete(id)?;
        self.journal_op(&CatalogOp::DropRule { name: name.to_string() })?;
        Ok(())
    }

    // --- serving ------------------------------------------------------

    /// A cheaply clonable handle for exposing this system over a network
    /// boundary (the `sentinel-net` server). Connection threads clone it
    /// freely; every method is safe to call concurrently.
    pub fn serve_handle(self: &Arc<Self>) -> ServeHandle {
        ServeHandle { inner: self.clone() }
    }
}

/// Serving facade over a shared [`Sentinel`]: the slice of the API a
/// network server needs, in server-shaped signatures (detection counts
/// instead of `()`, JSON snapshots instead of structs, remote trace-id
/// adoption). Obtained from [`Sentinel::serve_handle`]; `Clone` is one
/// `Arc` bump.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Sentinel>,
}

impl ServeHandle {
    /// The wrapped system, for definition-time calls (classes, events,
    /// rules) that have no server-specific shape.
    pub fn sentinel(&self) -> &Arc<Sentinel> {
        &self.inner
    }

    /// Raises the explicit event `name` and runs immediate rules before
    /// returning (like [`Sentinel::raise`]), reporting how many event
    /// detections the signal produced — the number a client needs to
    /// account for fired rules.
    pub fn signal(&self, name: &str, params: Vec<(Arc<str>, Value)>, txn: Option<u64>) -> usize {
        let dets = self.inner.detector.signal_explicit(name, params, txn);
        let n = dets.len();
        self.inner.scheduler.dispatch(dets);
        n
    }

    /// Like [`ServeHandle::signal`], but stitches server-side spans into a
    /// trace the *client* initiated: with `remote_trace` set and tracing
    /// enabled, the raw id is adopted via
    /// [`TraceStore::adopt_remote`] and a `net_signal` span under it is
    /// installed as the thread's ambient span, so the detector's signal
    /// span (and everything below it) joins the client's trace.
    pub fn signal_traced(
        &self,
        name: &str,
        params: Vec<(Arc<str>, Value)>,
        txn: Option<u64>,
        remote_trace: Option<u64>,
    ) -> usize {
        let spans = &self.inner.spans;
        let Some(raw) = remote_trace.filter(|_| spans.is_enabled()) else {
            return self.signal(name, params, txn);
        };
        let trace = spans.adopt_remote(raw);
        let handle = spans.start(trace, None, "net_signal", Arc::from(name));
        let n = {
            let _guard = span::push_current(handle.ctx);
            self.signal(name, params, txn)
        };
        let mut fields = vec![("remote_trace", Field::U64(raw))];
        if let Some(t) = txn {
            fields.push(("txn", Field::U64(t)));
        }
        spans.finish(handle, 0, fields);
        n
    }

    /// Dispatches externally produced detections (e.g. drained from a
    /// [`sentinel_detector::DetectorPool`]) to the rule scheduler.
    pub fn dispatch(&self, detections: Vec<Detection>) {
        self.inner.scheduler.dispatch(detections);
    }

    /// [`Sentinel::stats`] rendered as JSON, ready to frame.
    pub fn stats_json(&self) -> json::Value {
        self.inner.stats().to_json()
    }

    /// The `MetricsScrape` payload: the Prometheus exposition text plus
    /// the time-series ring snapshot (`Null` when telemetry is off).
    pub fn metrics_json(&self) -> json::Value {
        json::Value::obj([
            ("prom", json::Value::str(self.inner.prom_text())),
            ("telemetry", self.inner.telemetry_json()),
        ])
    }

    /// The Prometheus exposition text alone (the HTTP `/metrics` body).
    pub fn prom_text(&self) -> String {
        self.inner.prom_text()
    }

    /// Per-trace roll-ups ([`TraceStore::trace_summaries`]) as a JSON
    /// array of `{trace, spans, root, wall_ns}` objects.
    pub fn trace_summaries_json(&self) -> json::Value {
        json::Value::Arr(
            self.inner
                .spans
                .trace_summaries()
                .into_iter()
                .map(|s| {
                    json::Value::obj([
                        ("trace", json::Value::UInt(s.trace.0)),
                        ("spans", json::Value::UInt(s.spans as u64)),
                        ("root", json::Value::str(s.root.as_ref())),
                        ("wall_ns", json::Value::UInt(s.wall_ns)),
                    ])
                })
                .collect(),
        )
    }

    /// Chrome trace-event JSON of every recorded span
    /// ([`Sentinel::export_chrome_trace`]).
    pub fn export_chrome_trace(&self) -> String {
        self.inner.export_chrome_trace()
    }
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        // The detached thread exits when the scheduler's sender drops; we
        // cannot join here (it holds a Weak to us), just detach.
        let _ = self.detached_thread.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_oodb::schema::{AttrType, ClassDef};
    use sentinel_snoop::CouplingMode;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SET_PRICE: &str = "void set_price(float price)";
    const SELL: &str = "int sell_stock(int qty)";

    /// Builds the paper's STOCK class with real method bodies.
    fn stock_sentinel() -> Arc<Sentinel> {
        let s = Sentinel::in_memory();
        s.db()
            .register_class(
                ClassDef::new("STOCK")
                    .extends("REACTIVE")
                    .attr("symbol", AttrType::Str)
                    .attr("price", AttrType::Float)
                    .attr("holdings", AttrType::Int)
                    .method(SET_PRICE)
                    .method(SELL),
            )
            .unwrap();
        s.db().register_method(
            "STOCK",
            SET_PRICE,
            Arc::new(|ctx| {
                let p = ctx.arg("price").and_then(AttrValue::as_float).unwrap_or(0.0);
                ctx.set_attr("price", p)?;
                Ok(AttrValue::Null)
            }),
        );
        s.db().register_method(
            "STOCK",
            SELL,
            Arc::new(|ctx| {
                let qty = ctx.arg("qty").and_then(|v| v.as_int()).unwrap_or(0);
                let held = ctx.get_attr("holdings")?.as_int().unwrap_or(0);
                ctx.set_attr("holdings", held - qty)?;
                Ok(AttrValue::Int(held - qty))
            }),
        );
        // Event interface: end(e1) sell_stock, begin(e2) && end(e3) set_price.
        s.declare_event("e1", "STOCK", EventModifier::End, SELL, PrimTarget::AnyInstance).unwrap();
        s.declare_event("e2", "STOCK", EventModifier::Begin, SET_PRICE, PrimTarget::AnyInstance)
            .unwrap();
        s.declare_event("e3", "STOCK", EventModifier::End, SET_PRICE, PrimTarget::AnyInstance)
            .unwrap();
        s.define_event("e4", "e1 ^ e2").unwrap();
        s
    }

    fn ibm(s: &Sentinel, txn: TxnId) -> Oid {
        s.create_object(
            txn,
            &ObjectState::new("STOCK")
                .with("symbol", "IBM")
                .with("price", 100.0)
                .with("holdings", 1000),
        )
        .unwrap()
    }

    #[test]
    fn a_dropped_system_frees_its_engine() {
        let engine = Arc::new(StorageEngine::in_memory());
        let weak = Arc::downgrade(&engine);
        let s = Sentinel::open(engine, SentinelConfig::default()).unwrap();
        let t = s.begin().unwrap();
        s.commit(t).unwrap();
        drop(s);
        assert!(weak.upgrade().is_none(), "engine -> scheduler -> savepoint hooks -> engine");
    }

    #[test]
    fn immediate_rule_runs_during_invoke() {
        let s = stock_sentinel();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        s.define_rule(
            "R_e3",
            "e3",
            Arc::new(|_| true),
            Arc::new(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
            RuleOptions::default(),
        )
        .unwrap();
        let t = s.begin().unwrap();
        let oid = ibm(&s, t);
        s.invoke(t, oid, SET_PRICE, vec![("price".into(), 120.0.into())]).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "rule ran before invoke returned");
        s.commit(t).unwrap();
    }

    #[test]
    fn rule_action_can_write_the_database() {
        let s = stock_sentinel();
        let s2 = s.clone();
        // When any stock price is set, stamp holdings to 7 via the DB.
        s.define_rule(
            "writer",
            "e3",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                let txn = TxnId(inv.txn.expect("in txn"));
                let oid = Oid(inv.occurrence.param_list()[0].source.expect("source"));
                let mut state = s2.get_object(txn, oid).unwrap();
                state.set("holdings", 7);
                s2.db().store().update(txn, oid, &state).unwrap();
            }),
            RuleOptions::default(),
        )
        .unwrap();
        let t = s.begin().unwrap();
        let oid = ibm(&s, t);
        s.invoke(t, oid, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap();
        assert_eq!(s.get_object(t, oid).unwrap().get("holdings").unwrap().as_int(), Some(7));
        s.commit(t).unwrap();
    }

    #[test]
    fn paper_e4_and_rule_fires_with_cumulative_params() {
        let s = stock_sentinel();
        let seen = Arc::new(AtomicUsize::new(0));
        let c = seen.clone();
        s.define_rule(
            "R1",
            "e4",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                c.store(inv.occurrence.param_list().len(), Ordering::SeqCst);
            }),
            RuleOptions::default().context(sentinel_snoop::ParamContext::Cumulative),
        )
        .unwrap();
        let t = s.begin().unwrap();
        let oid = ibm(&s, t);
        s.invoke(t, oid, SELL, vec![("qty".into(), 5.into())]).unwrap(); // e1
        s.invoke(t, oid, SET_PRICE, vec![("price".into(), 9.0.into())]).unwrap(); // e2 -> e4
        assert_eq!(seen.load(Ordering::SeqCst), 2);
        s.commit(t).unwrap();
    }

    #[test]
    fn deferred_rule_runs_once_at_pre_commit_inside_txn() {
        let s = stock_sentinel();
        let runs = Arc::new(AtomicUsize::new(0));
        let prices_seen = Arc::new(AtomicUsize::new(0));
        let (r, p) = (runs.clone(), prices_seen.clone());
        s.define_rule(
            "RD",
            "e3",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                r.fetch_add(1, Ordering::SeqCst);
                let n =
                    inv.occurrence.param_list().iter().filter(|o| &*o.event_name == "e3").count();
                p.store(n, Ordering::SeqCst);
            }),
            RuleOptions::default().coupling(CouplingMode::Deferred),
        )
        .unwrap();
        let t = s.begin().unwrap();
        let oid = ibm(&s, t);
        for i in 0..3 {
            s.invoke(t, oid, SET_PRICE, vec![("price".into(), f64::from(i).into())]).unwrap();
        }
        assert_eq!(runs.load(Ordering::SeqCst), 0, "not yet: deferred");
        s.commit(t).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly once at pre-commit");
        assert_eq!(prices_seen.load(Ordering::SeqCst), 3, "net effect of all triggerings");
        // A transaction without set_price does not fire it.
        let t2 = s.begin().unwrap();
        s.commit(t2).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn events_do_not_cross_transactions_by_default_but_do_when_flush_disabled() {
        let s = stock_sentinel();
        s.define_event("seq13", "(e1 ; e3)").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        s.define_rule(
            "RS",
            "seq13",
            Arc::new(|_| true),
            Arc::new(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
            RuleOptions::default().context(sentinel_snoop::ParamContext::Chronicle),
        )
        .unwrap();

        // Initiator in T1, terminator in T2: flushed at commit, no firing.
        let t1 = s.begin().unwrap();
        let oid = ibm(&s, t1);
        s.invoke(t1, oid, SELL, vec![("qty".into(), 1.into())]).unwrap();
        s.commit(t1).unwrap();
        let t2 = s.begin().unwrap();
        s.invoke(t2, oid, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "flush prevented cross-txn pairing");

        // Deactivate the flush rule (the paper's escape hatch) and repeat.
        s.disable_rule(FLUSH_ON_COMMIT_RULE).unwrap();
        let t3 = s.begin().unwrap();
        s.invoke(t3, oid, SELL, vec![("qty".into(), 1.into())]).unwrap();
        s.commit(t3).unwrap();
        let t4 = s.begin().unwrap();
        s.invoke(t4, oid, SET_PRICE, vec![("price".into(), 2.0.into())]).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "events crossed txn boundary");
        s.commit(t4).unwrap();
    }

    #[test]
    fn abort_flushes_partial_composites() {
        let s = stock_sentinel();
        s.define_event("seq13b", "(e1 ; e3)").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        s.define_rule(
            "RA",
            "seq13b",
            Arc::new(|_| true),
            Arc::new(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
            RuleOptions::default(),
        )
        .unwrap();
        let t0 = s.begin().unwrap();
        let oid = ibm(&s, t0);
        s.commit(t0).unwrap();
        let t1 = s.begin().unwrap();
        s.invoke(t1, oid, SELL, vec![("qty".into(), 1.into())]).unwrap();
        s.abort(t1).unwrap();
        let t2 = s.begin().unwrap();
        s.invoke(t2, oid, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "aborted transaction's initiator must not participate"
        );
    }

    #[test]
    fn detached_rule_runs_in_its_own_transaction() {
        let s = stock_sentinel();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let s2 = s.clone();
        s.define_rule(
            "R_detached",
            "e3",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                // Runs on the detached executor in a fresh transaction.
                let txn = TxnId(inv.txn.expect("detached txn"));
                let log = s2.create_object(txn, &ObjectState::new("REACTIVE")).unwrap();
                let _ = tx.send((inv.txn, log));
            }),
            RuleOptions::default().coupling(CouplingMode::Detached),
        )
        .unwrap();
        let t = s.begin().unwrap();
        let oid = ibm(&s, t);
        s.invoke(t, oid, SET_PRICE, vec![("price".into(), 3.0.into())]).unwrap();
        s.commit(t).unwrap();
        let (det_txn, logged) = rx.recv_timeout(std::time::Duration::from_secs(3)).unwrap();
        assert_ne!(det_txn, Some(t.0), "detached rule uses a different transaction");
        // Its write committed independently.
        let t2 = s.begin().unwrap();
        assert!(s.get_object(t2, logged).is_ok());
        s.commit(t2).unwrap();
    }

    #[test]
    fn explicit_events_via_raise() {
        let s = stock_sentinel();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        s.detector().declare_explicit("alarm");
        s.define_rule(
            "R_alarm",
            "alarm",
            Arc::new(|inv| inv.occurrence.param("level").and_then(|v| v.as_i64()) > Some(2)),
            Arc::new(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
            RuleOptions::default(),
        )
        .unwrap();
        let t = s.begin().unwrap();
        s.raise(Some(t), "alarm", vec![(Arc::from("level"), Value::Int(1))]).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "condition false");
        s.raise(Some(t), "alarm", vec![(Arc::from("level"), Value::Int(5))]).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        s.commit(t).unwrap();
    }

    #[test]
    fn nested_rules_through_database_methods() {
        // R1 on e3 (set_price end) sells stock in its action; R2 on e1
        // (sell end) observes the nested depth.
        let s = stock_sentinel();
        let s2 = s.clone();
        let depth_seen = Arc::new(AtomicUsize::new(999));
        s.define_rule(
            "R1",
            "e3",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                let txn = TxnId(inv.txn.unwrap());
                let oid = Oid(inv.occurrence.param_list()[0].source.unwrap());
                s2.invoke(txn, oid, SELL, vec![("qty".into(), 1.into())]).unwrap();
            }),
            RuleOptions::default(),
        )
        .unwrap();
        let d = depth_seen.clone();
        s.define_rule(
            "R2",
            "e1",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                d.store(inv.depth as usize, Ordering::SeqCst);
            }),
            RuleOptions::default(),
        )
        .unwrap();
        let t = s.begin().unwrap();
        let oid = ibm(&s, t);
        s.invoke(t, oid, SET_PRICE, vec![("price".into(), 10.0.into())]).unwrap();
        s.commit(t).unwrap();
        assert_eq!(depth_seen.load(Ordering::SeqCst), 1, "nested rule at depth 1");
    }
}
