//! Durable Sentinel: crash-recoverable catalog, event journal, and
//! event-graph state, built on `sentinel-durable`.
//!
//! [`Sentinel::open_durable`] opens a data directory and replays what it
//! finds, in three layers:
//!
//! 1. **Catalog** — DDL operations (class registrations, event
//!    declarations/definitions, rule define/enable/disable/drop) are
//!    re-applied in their original order, *interleaved* with journal
//!    records by the journal position each op recorded at definition
//!    time, and with every rule's `defined_at` tick pinned — so the
//!    rebuilt schema, Snoop event graph, and rule set match the
//!    pre-crash system byte-for-byte.
//! 2. **Checkpoint** — the newest checkpoint that passes its checksum
//!    *and* validates against the rebuilt graph is restored (per-node,
//!    per-context operator state plus the logical clock). A rejected
//!    checkpoint falls back to the previous one — a longer replay, never
//!    a panic.
//! 3. **Journal suffix** — every event after the restored checkpoint is
//!    replayed through the detector, reproducing half-detected
//!    composites exactly; detections produced by replay are dropped
//!    (their rules already fired before the crash) and transaction
//!    flushes and time advances are re-applied from the epoch fences at
//!    the positions they were cut.
//!
//! Only after replay does the system go live: an [`EventSink`] is
//! installed so every signalled primitive appends to its shard's journal
//! stream and every whole-graph ordering point (transaction flush, time
//! advance, DDL barrier, checkpoint pause) cuts an epoch fence, and the
//! DDL wrappers on [`Sentinel`] start appending catalog ops. Replayed
//! history is therefore never re-journaled. Automatic checkpoints run on
//! the engine's checkpointer thread (installed here as a hook) so the
//! signalling threads never quiesce the graph themselves.
//!
//! Dropping a durable [`Sentinel`] deliberately does *not* flush — a
//! drop is indistinguishable from a crash, which is what the recovery
//! tests rely on. Graceful shutdown (e.g. `sentinel-net`'s server) calls
//! [`Sentinel::flush_journal`] and [`Sentinel::checkpoint_now`]
//! explicitly.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sentinel_detector::clock::Timestamp;
use sentinel_detector::graph::PrimTarget;
use sentinel_detector::log::LoggedEvent;
use sentinel_detector::{
    EventSink, FenceKind, LocalEventDetector, Occurrence, Value as EventValue,
};
use sentinel_durable::{CatalogOp, DurableEngine, DurableOptions, Recovery};
use sentinel_obs::flight::{self, FlightKind};
use sentinel_obs::{json, RecoveryReport};
use sentinel_oodb::schema::{AttrType, ClassDef};
use sentinel_rules::manager::RuleOptions;
use sentinel_rules::{ActionFn, RuleId, RuleScheduler};
use sentinel_snoop::ast::EventModifier;
use sentinel_snoop::{CouplingMode, ParamContext};
use sentinel_storage::StorageEngine;

use crate::sentinel::{Sentinel, SentinelConfig, SentinelError, SentinelResult};

// ---------------------------------------------------------------------------
// Event-parameter (de)serialization — shared by the wire protocol
// (`sentinel-net` re-exports these) and the catalog's rule specs.
// ---------------------------------------------------------------------------

/// Renders one occurrence [`EventValue`] as tagged JSON
/// (`{"int": 5}`, `{"str": "x"}`, … `null` for `Null`).
pub fn value_to_json(v: &EventValue) -> json::Value {
    match v {
        EventValue::Int(i) => json::Value::obj([("int", json::Value::Int(*i))]),
        EventValue::Float(x) => json::Value::obj([("float", json::Value::Float(*x))]),
        EventValue::Bool(b) => json::Value::obj([("bool", json::Value::Bool(*b))]),
        EventValue::Str(s) => json::Value::obj([("str", json::Value::str(s.as_ref()))]),
        EventValue::Oid(o) => json::Value::obj([("oid", json::Value::UInt(*o))]),
        EventValue::Null => json::Value::Null,
    }
}

/// Inverse of [`value_to_json`]; `None` for shapes it never produces.
pub fn value_from_json(v: &json::Value) -> Option<EventValue> {
    let json::Value::Obj(pairs) = v else {
        return matches!(v, json::Value::Null).then_some(EventValue::Null);
    };
    let [(tag, inner)] = pairs.as_slice() else { return None };
    match (tag.as_str(), inner) {
        ("int", json::Value::Int(i)) => Some(EventValue::Int(*i)),
        ("int", json::Value::UInt(u)) => i64::try_from(*u).ok().map(EventValue::Int),
        ("float", json::Value::Float(x)) => Some(EventValue::Float(*x)),
        ("float", json::Value::Int(i)) => Some(EventValue::Float(*i as f64)),
        ("float", json::Value::UInt(u)) => Some(EventValue::Float(*u as f64)),
        ("bool", json::Value::Bool(b)) => Some(EventValue::Bool(*b)),
        ("str", json::Value::Str(s)) => Some(EventValue::Str(Arc::from(s.as_str()))),
        ("oid", json::Value::UInt(o)) => Some(EventValue::Oid(*o)),
        ("oid", json::Value::Int(i)) => u64::try_from(*i).ok().map(EventValue::Oid),
        _ => None,
    }
}

/// Renders an event parameter list as a JSON object (order preserved).
pub fn params_to_json(params: &[(Arc<str>, EventValue)]) -> json::Value {
    json::Value::Obj(params.iter().map(|(k, v)| (k.to_string(), value_to_json(v))).collect())
}

/// Inverse of [`params_to_json`]. `Null` (an absent `params` field) is an
/// empty list; anything but an object of tagged values is `None`.
pub fn params_from_json(v: &json::Value) -> Option<Vec<(Arc<str>, EventValue)>> {
    match v {
        json::Value::Null => Some(Vec::new()),
        json::Value::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| value_from_json(v).map(|val| (Arc::from(k.as_str()), val)))
            .collect(),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Catalog-spec helpers
// ---------------------------------------------------------------------------

/// Catalog string for an invocation edge.
pub(crate) fn edge_name(m: EventModifier) -> &'static str {
    match m {
        EventModifier::Begin => "begin",
        EventModifier::End => "end",
        EventModifier::Both => "both",
    }
}

fn edge_from(s: &str) -> SentinelResult<EventModifier> {
    match s {
        "begin" => Ok(EventModifier::Begin),
        "end" => Ok(EventModifier::End),
        "both" => Ok(EventModifier::Both),
        other => Err(SentinelError::Spec(format!("unknown event edge `{other}`"))),
    }
}

fn attr_type(name: &str) -> SentinelResult<AttrType> {
    match name {
        "int" => Ok(AttrType::Int),
        "float" => Ok(AttrType::Float),
        "bool" => Ok(AttrType::Bool),
        "str" => Ok(AttrType::Str),
        "ref" => Ok(AttrType::Ref),
        other => Err(SentinelError::Spec(format!("unknown attribute type `{other}`"))),
    }
}

fn require_str<'a>(v: &'a json::Value, key: &str) -> SentinelResult<&'a str> {
    v.get(key)
        .and_then(json::Value::as_str)
        .ok_or_else(|| SentinelError::Spec(format!("missing `{key}`")))
}

/// Renders an occurrence's flattened constituent parameters —
/// `e1(qty=5); e2(price=9)` — the `rule_last` stats entry, which lets a
/// client (or a crash-restart test) see *which* constituents a composite
/// fired with.
fn render_params(occ: &Occurrence) -> String {
    let mut out = String::new();
    for (i, p) in occ.param_list().iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        out.push_str(&p.event_name);
        out.push('(');
        for (j, (k, v)) in p.params.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{k}={v}"));
        }
        out.push(')');
    }
    out
}

/// The live journal hook: installed as the detector's [`EventSink`] once
/// recovery completes. `record` runs under only the signalling shard's
/// mutex — disjoint shards append to their streams concurrently —
/// so it must never re-enter the detector; under
/// [`sentinel_durable::FsyncPolicy::Always`] it blocks until the
/// engine's next group commit covers the record. `fence` runs at every
/// whole-graph ordering point and appends (always fsynced) to the epoch
/// fence log, which is what lets recovery merge the per-shard streams
/// back into happened-before order.
pub struct JournalSink {
    engine: Arc<DurableEngine>,
}

impl JournalSink {
    /// A sink journaling into `engine`.
    pub fn new(engine: Arc<DurableEngine>) -> Self {
        JournalSink { engine }
    }
}

impl EventSink for JournalSink {
    fn record(&self, _detector: &LocalEventDetector, shard: u32, ev: &LoggedEvent) {
        let _ = self.engine.append_event(shard, ev);
    }

    fn fence(&self, kind: FenceKind, ts: Timestamp) {
        let _ = self.engine.append_fence(kind, ts);
    }
}

impl Sentinel {
    /// Opens a durable Sentinel over the data directory `dir`, recovering
    /// whatever a previous incarnation persisted there: the DDL catalog is
    /// replayed (interleaved with the event journal at the positions the
    /// ops originally executed), the newest valid checkpoint is restored,
    /// and the journal suffix is replayed so half-detected composites
    /// resume exactly where the crash left them.
    ///
    /// Returns the recovered system plus a [`RecoveryReport`] describing
    /// what was found (also written to `recovery-report.json` in `dir`).
    pub fn open_durable(
        dir: &Path,
        config: SentinelConfig,
        opts: DurableOptions,
    ) -> SentinelResult<(Arc<Sentinel>, RecoveryReport)> {
        Self::open_durable_inner(dir, config, opts, true)
    }

    /// [`Sentinel::open_durable`] body, with the live-journal sink made
    /// optional: a **replica** ([`Sentinel::open_replica`]) recovers
    /// identically but must not install the sink — its graph mutations
    /// come from the shipped replication stream, and the apply loop
    /// journals each entry explicitly (installing the sink too would
    /// double-journal every applied event). Promotion installs the sink
    /// at that point ([`Sentinel::promote`]).
    pub(crate) fn open_durable_inner(
        dir: &Path,
        config: SentinelConfig,
        opts: DurableOptions,
        install_sink: bool,
    ) -> SentinelResult<(Arc<Sentinel>, RecoveryReport)> {
        let t_total = Instant::now();
        // Capture the previous incarnation's flight-recorder dump *before*
        // anything in this process can overwrite it: merged into the
        // recovery report, it is the post-mortem of the crash's final
        // seconds (what the ring held when the committer last refreshed
        // the dump).
        let prior_flight = std::fs::read_to_string(dir.join(flight::FLIGHT_RECORDER_FILE))
            .ok()
            .and_then(|s| json::Value::parse(&s).ok());
        let (engine, recovery) = DurableEngine::open(dir, opts)?;
        let Recovery { catalog_ops, checkpoints, events, fences, mut report } = recovery;
        report.flight_recorder = prior_flight;

        // Pick the newest checkpoint that (a) is covered by the surviving
        // journal, (b) whose catalog prefix applies cleanly, and (c) that
        // validates against the rebuilt graph. Each failure falls back to
        // the next older checkpoint — a longer replay, never a panic.
        let t_restore = Instant::now();
        let mut restored: Option<(Arc<Sentinel>, u64, usize)> = None;
        for (tag, snap) in &checkpoints {
            if *tag > events.len() as u64 {
                // The journal lost records this checkpoint claims to cover;
                // restoring it would desynchronize indices.
                report.checkpoints_rejected += 1;
                continue;
            }
            let s = Sentinel::open(Arc::new(StorageEngine::in_memory()), config.clone())?;
            let mut cursor = 0;
            let mut ok = true;
            while cursor < catalog_ops.len() && catalog_ops[cursor].0 <= *tag {
                if s.apply_catalog_op(&catalog_ops[cursor].1).is_err() {
                    ok = false;
                    break;
                }
                cursor += 1;
            }
            if ok && s.detector().restore_snapshot(snap).is_ok() {
                report.checkpoint_tag = Some(*tag);
                restored = Some((s, *tag, cursor));
                break;
            }
            report.checkpoints_rejected += 1;
        }
        let (sentinel, start, mut cursor) = match restored {
            Some(r) => r,
            None => (Sentinel::open(Arc::new(StorageEngine::in_memory()), config.clone())?, 0, 0),
        };
        report.phases.snapshot_restore_us = t_restore.elapsed().as_micros() as u64;

        // Replay the suffix, interleaving catalog ops and fences at their
        // recorded positions: an op stamped `at_index = i` (or a fence at
        // position `i`) executed before journal record `i` did. Fences at
        // exactly the checkpoint position are re-applied — their actions
        // (flush a txn with no occurrences buffered after the snapshot,
        // advance an already-advanced clock) are idempotent, and skipping
        // one that ran *after* the snapshot would diverge.
        let t_replay = Instant::now();
        let mut catalog_us = 0u64;
        let mut fcursor = 0usize;
        while fcursor < fences.len() && fences[fcursor].0 < start {
            fcursor += 1;
        }
        for (i, ev) in events.iter().enumerate().skip(start as usize) {
            while cursor < catalog_ops.len() && catalog_ops[cursor].0 <= i as u64 {
                let t_op = Instant::now();
                sentinel.apply_catalog_op(&catalog_ops[cursor].1)?;
                catalog_us += t_op.elapsed().as_micros() as u64;
                cursor += 1;
            }
            while fcursor < fences.len() && fences[fcursor].0 <= i as u64 {
                sentinel.apply_fence(fences[fcursor].1);
                fcursor += 1;
            }
            // Detections are dropped: the rules they notified already ran
            // before the crash (or were lost with the crash — either way
            // re-firing actions on restart would double their effects).
            let _ = sentinel.detector().replay(std::slice::from_ref(ev));
            report.replayed_records += 1;
        }
        while cursor < catalog_ops.len() {
            let t_op = Instant::now();
            sentinel.apply_catalog_op(&catalog_ops[cursor].1)?;
            catalog_us += t_op.elapsed().as_micros() as u64;
            cursor += 1;
        }
        while fcursor < fences.len() {
            sentinel.apply_fence(fences[fcursor].1);
            fcursor += 1;
        }
        report.phases.catalog_interleave_us = catalog_us;
        report.phases.replay_us =
            (t_replay.elapsed().as_micros() as u64).saturating_sub(catalog_us);

        // Resync the logical clock past every tick the pre-crash system
        // issued. Replay advances it past replayed event timestamps, but
        // pinned rule definitions do not tick — so with a short (or empty)
        // journal suffix the clock would lag behind the recovered rules'
        // `defined_at` cutoffs and fresh events would look *older* than
        // the rules watching for them.
        let max_tick = catalog_ops
            .iter()
            .filter_map(|(_, op)| match op {
                CatalogOp::DefineRule { defined_at, .. }
                | CatalogOp::EnableRule { defined_at, .. } => Some(*defined_at),
                _ => None,
            })
            .chain(events.iter().map(LoggedEvent::ts))
            .chain(fences.iter().filter_map(|(_, kind)| match kind {
                FenceKind::AdvanceTime(to) => Some(*to),
                _ => None,
            }))
            .max();
        if let Some(t) = max_tick {
            sentinel.detector().clock().advance_to(t);
        }

        // Go live: from here on, signalled events journal through the
        // sink (per shard, fences at ordering points) and the DDL
        // wrappers append catalog ops. Automatic checkpoints run on the
        // engine's checkpointer thread; the hook holds only weak
        // references so the cycle engine → hook → sentinel never forms.
        if install_sink {
            sentinel.detector().set_event_sink(Arc::new(JournalSink::new(engine.clone())));
        }
        let det_weak = Arc::downgrade(sentinel.detector());
        let eng_weak = Arc::downgrade(&engine);
        engine.set_checkpoint_hook(Arc::new(move || {
            if let (Some(det), Some(eng)) = (det_weak.upgrade(), eng_weak.upgrade()) {
                det.with_signals_paused(|p| {
                    let tag = eng.next_index();
                    let snap = p.snapshot_state();
                    let _ = eng.write_checkpoint(tag, &snap);
                });
            }
        }));
        *sentinel.durable.lock() = Some(engine.clone());
        report.phases.total_us = t_total.elapsed().as_micros() as u64;
        flight::global().record_static(
            FlightKind::Recovery,
            "open_durable",
            report.replayed_records,
            report.checkpoint_tag.unwrap_or(0),
        );
        let _ = engine.write_report(&report);
        Ok((sentinel, report))
    }

    /// Re-applies one recovered fence's graph action. Barriers order, but
    /// carry no action; flush/advance re-run their (idempotent) effects.
    /// Also the replica apply path for shipped [`FenceKind`] entries.
    pub(crate) fn apply_fence(&self, kind: FenceKind) {
        match kind {
            FenceKind::FlushTxn(txn) => self.detector().flush_txn(txn),
            FenceKind::AdvanceTime(to) => {
                let _ = self.detector().advance_time(to);
            }
            FenceKind::Barrier => {}
        }
    }

    /// Re-applies one recovered catalog operation. Rule `defined_at`
    /// ticks are pinned to their recorded values so `NOW` cutoffs land
    /// exactly where they did in the live run. Also the replica apply
    /// path for shipped DDL (under journal suppression — see
    /// [`Sentinel::journal_op`]).
    pub(crate) fn apply_catalog_op(&self, op: &CatalogOp) -> SentinelResult<()> {
        match op {
            CatalogOp::DefineClass { name, parent, attrs, methods } => {
                let mut def = ClassDef::new(name).extends(parent);
                for (an, at) in attrs {
                    def = def.attr(an, attr_type(at)?);
                }
                for m in methods {
                    def = def.method(m);
                }
                self.db().register_class(def)?;
            }
            CatalogOp::DeclareExplicit { name } => {
                self.detector().declare_explicit(name);
            }
            CatalogOp::DeclarePrimitive { name, class, edge, sig, oid } => {
                let target = oid.map_or(PrimTarget::AnyInstance, PrimTarget::Instance);
                self.detector().declare_primitive(name, class, edge_from(edge)?, sig, target)?;
            }
            CatalogOp::DefineEvent { name, expr } => {
                let parsed = sentinel_snoop::parse_event_expr(expr)?;
                self.detector().define_named(name, &parsed)?;
            }
            CatalogOp::DefineRule { spec, defined_at } => {
                self.define_rule_spec_at(spec, Some(*defined_at))?;
            }
            CatalogOp::EnableRule { name, defined_at } => {
                let id = self
                    .rules()
                    .lookup(name)
                    .ok_or_else(|| SentinelError::Unknown(name.to_string()))?;
                self.rules().enable_at(id, Some(*defined_at))?;
            }
            CatalogOp::DisableRule { name } => {
                let id = self
                    .rules()
                    .lookup(name)
                    .ok_or_else(|| SentinelError::Unknown(name.to_string()))?;
                self.rules().disable(id)?;
            }
            CatalogOp::DropRule { name } => {
                let id = self
                    .rules()
                    .lookup(name)
                    .ok_or_else(|| SentinelError::Unknown(name.to_string()))?;
                self.rules().delete(id)?;
            }
        }
        Ok(())
    }

    /// Appends a catalog op if this system is durable; a no-op otherwise.
    /// Called by the DDL wrappers *after* the operation succeeded, and
    /// quiescent during recovery (the engine is installed post-replay).
    /// Also suppressed while a replica applies shipped catalog entries:
    /// the apply loop appends each op explicitly so the local catalog
    /// records the primary's interleaving, not a second copy per op.
    pub(crate) fn journal_op(&self, op: &CatalogOp) -> SentinelResult<()> {
        if self.suppress_journal.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(());
        }
        let engine = self.durable.lock().clone();
        if let Some(engine) = engine {
            engine.append_catalog(op)?;
        }
        Ok(())
    }

    /// The durability engine, when opened via [`Sentinel::open_durable`].
    pub fn durable_engine(&self) -> Option<Arc<DurableEngine>> {
        self.durable.lock().clone()
    }

    /// Forces the event journal's tail to disk. A no-op for non-durable
    /// systems.
    pub fn flush_journal(&self) -> SentinelResult<()> {
        if let Some(engine) = self.durable.lock().clone() {
            engine.flush()?;
        }
        Ok(())
    }

    /// Takes a checkpoint of the event graph right now, with signalling
    /// paused so the snapshot and its journal tag agree. A no-op for
    /// non-durable systems.
    pub fn checkpoint_now(&self) -> SentinelResult<()> {
        let Some(engine) = self.durable.lock().clone() else { return Ok(()) };
        self.detector().with_signals_paused(|p| {
            let tag = engine.next_index();
            let snap = p.snapshot_state();
            engine.write_checkpoint(tag, &snap)
        })?;
        Ok(())
    }

    /// Registers a reactive class from its declarative (wire-protocol)
    /// form: attribute `(name, type)` pairs — types `int`, `float`,
    /// `bool`, `str`, `ref` — plus method signatures. The class extends
    /// `REACTIVE`. Method *bodies* cannot be persisted; re-register them
    /// with [`sentinel_oodb::invoke::Database::register_method`] after a
    /// durable reopen if the class is invoked locally.
    pub fn register_class_spec(
        &self,
        name: &str,
        attrs: &[(String, String)],
        methods: &[String],
    ) -> SentinelResult<()> {
        let mut def = ClassDef::new(name).extends("REACTIVE");
        for (an, at) in attrs {
            def = def.attr(an, attr_type(at)?);
        }
        for m in methods {
            def = def.method(m);
        }
        self.db().register_class(def)?;
        self.journal_op(&CatalogOp::DefineClass {
            name: name.to_string(),
            parent: "REACTIVE".to_string(),
            attrs: attrs.to_vec(),
            methods: methods.to_vec(),
        })?;
        Ok(())
    }

    /// Defines a rule from its declarative (wire-protocol) JSON spec:
    /// `name`, `event`, optional `context` / `coupling` / `priority`, and
    /// an `action` from the fixed catalog (conditions and actions are
    /// code, not data — a remote client cannot ship a closure):
    ///
    /// * `{"action": "count"}` — bump the rule's `rule_hits` counter and
    ///   record its parameters in `rule_last` (both visible in stats);
    /// * `{"action": "raise", "event": E, "params"?: {...}}` — raise the
    ///   explicit event `E`, cascading inside the same transaction.
    pub fn define_rule_spec(&self, spec: &json::Value) -> SentinelResult<RuleId> {
        self.define_rule_spec_at(spec, None)
    }

    fn define_rule_spec_at(
        &self,
        spec: &json::Value,
        pinned: Option<u64>,
    ) -> SentinelResult<RuleId> {
        let name = require_str(spec, "name")?.to_string();
        let event = require_str(spec, "event")?;
        let action_spec =
            spec.get("action").ok_or_else(|| SentinelError::Spec("missing action".to_string()))?;
        let action = self.build_catalog_action(&name, action_spec)?;

        let mut opts = RuleOptions::default();
        if let Some(ctx) = spec.get("context").and_then(json::Value::as_str) {
            opts = opts.context(match ctx {
                "recent" => ParamContext::Recent,
                "chronicle" => ParamContext::Chronicle,
                "continuous" => ParamContext::Continuous,
                "cumulative" => ParamContext::Cumulative,
                other => return Err(SentinelError::Spec(format!("unknown context `{other}`"))),
            });
        }
        if let Some(c) = spec.get("coupling").and_then(json::Value::as_str) {
            opts = opts.coupling(match c {
                "immediate" => CouplingMode::Immediate,
                "deferred" => CouplingMode::Deferred,
                "detached" => CouplingMode::Detached,
                other => return Err(SentinelError::Spec(format!("unknown coupling `{other}`"))),
            });
        }
        if let Some(p) = spec.get("priority").and_then(json::Value::as_u64) {
            opts = opts.priority(
                u32::try_from(p)
                    .map_err(|_| SentinelError::Spec("priority out of range".to_string()))?,
            );
        }
        if let Some(ts) = pinned {
            opts = opts.defined_at(ts);
        }

        let ev = self.event(event)?;
        let id = self.rules().define_rule(&name, ev, Arc::new(|_| true), action, opts)?;
        let defined_at = self.rules().with_rule(id, |r| r.defined_at)?;
        self.journal_op(&CatalogOp::DefineRule { spec: spec.clone(), defined_at })?;
        Ok(id)
    }

    /// Builds an action from the fixed catalog (see
    /// [`Sentinel::define_rule_spec`]).
    fn build_catalog_action(
        &self,
        rule_name: &str,
        spec: &json::Value,
    ) -> SentinelResult<ActionFn> {
        match spec.get("action").and_then(json::Value::as_str) {
            Some("count") => {
                let hits = self.rule_hits.clone();
                let last = self.rule_last.clone();
                let key = rule_name.to_string();
                Ok(Arc::new(move |inv| {
                    *hits.lock().entry(key.clone()).or_insert(0) += 1;
                    last.lock().insert(key.clone(), render_params(&inv.occurrence));
                }))
            }
            Some("raise") => {
                let event = require_str(spec, "event")?.to_string();
                let params = match spec.get("params") {
                    Some(p) => params_from_json(p)
                        .ok_or_else(|| SentinelError::Spec("malformed raise params".to_string()))?,
                    None => Vec::new(),
                };
                // Capture the detector plus a weak scheduler: the action is
                // stored inside the rule manager, which the scheduler owns,
                // so a strong reference would leak the whole system.
                let detector = self.detector().clone();
                let scheduler = Arc::downgrade(self.scheduler());
                Ok(Arc::new(move |inv| {
                    if let Some(sched) = scheduler.upgrade() {
                        let dets = detector.signal_explicit(&event, params.clone(), inv.txn);
                        RuleScheduler::dispatch(&sched, dets);
                    }
                }))
            }
            _ => Err(SentinelError::Spec("action must be one of: count, raise".to_string())),
        }
    }
}
