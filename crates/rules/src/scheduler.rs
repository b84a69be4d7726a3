//! Rule scheduler: packages triggered rules into nested subtransactions and
//! executes them on prioritized threads (Figure 3).
//!
//! Execution model reproduced from the paper:
//!
//! * every fired rule's condition+action pair runs as a **subtransaction**
//!   of the triggering transaction (`begin_subtransaction(current)` …
//!   `end_subtransaction` in Figure 3);
//! * rules in a *higher priority class* run strictly before rules in a
//!   lower one ("prioritized serial execution"), while rules *within* one
//!   class run concurrently on the thread pool;
//! * the triggering application is **suspended** until all immediate rules
//!   (including nested ones) have executed, then resumes;
//! * **nested triggering**: events raised by an action trigger rules whose
//!   threads get a priority derived from the nesting level and the
//!   triggering rule's class, yielding depth-first execution;
//! * primitive-event signalling is disabled while a condition runs
//!   (conditions are side-effect free, §3.2.1);
//! * **detached** rules are not executed in-line: they are queued for a
//!   separate application (fed through the global event detector in
//!   `sentinel-core`).
//!
//! Two execution modes: [`ExecutionMode::Threaded`] (the paper's model) and
//! [`ExecutionMode::Inline`] (same semantics on the calling thread, fully
//! deterministic — used by tests and batch replays).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use sentinel_detector::{Detection, Occurrence};
use sentinel_obs::flight::FlightKind;
use sentinel_obs::span::{self, SpanContext, SpanId, TraceId, TraceStore};
use sentinel_obs::{json, Counter, Field, Histogram, HistogramSnapshot};
use sentinel_snoop::CouplingMode;
use sentinel_txn::{NestedTxnManager, PriorityPool, SubTxnId};

use crate::debugger::{RuleDebugger, TraceEvent};
use crate::manager::RuleManager;
use crate::rule::{ActionFn, CondFn, RuleId, RuleInvocation};

/// Pseudo-transaction id used to anchor rules fired outside any
/// transaction (e.g. pure temporal events).
const NO_TXN: u64 = u64::MAX;

/// Deepest nested triggering a dispatch still executes. A rule whose
/// action re-raises its own event would otherwise recurse until the stack
/// overflows; firings past this depth are skipped (counted in
/// `skipped`, traced as `Skipped { reason: "cascade depth limit" }`).
pub const MAX_CASCADE_DEPTH: u32 = 64;

/// Trace/parent for a rule-body span: the triggering occurrence's
/// detection span when it has one, else a fresh trace (tracing was
/// enabled after the occurrence was composed).
fn span_anchor(store: &TraceStore, occ: Option<SpanContext>) -> (TraceId, Option<SpanId>) {
    match occ {
        Some(c) => (c.trace, Some(c.span)),
        None => (store.new_trace(), None),
    }
}

/// How rule bodies are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// On the calling thread, strictly priority-ordered, depth-first.
    Inline,
    /// On a priority thread pool with this many workers (the paper's
    /// light-weight-process model).
    Threaded {
        /// Worker thread count (≥ 1).
        workers: usize,
    },
}

/// A detached-rule execution request, to be run in a separate top-level
/// transaction by a detached executor.
#[derive(Debug)]
pub struct DetachedRequest {
    /// The rule to run.
    pub rule: RuleId,
    /// The triggering occurrence.
    pub occurrence: Arc<Occurrence>,
}

struct Frame {
    sub: SubTxnId,
    depth: u32,
}

/// One rule firing on a dispatch's agenda, with everything it runs read
/// from the rule table in the dispatch's one lookup.
#[derive(Clone)]
struct Firing {
    rule: RuleId,
    name: Arc<str>,
    priority: u32,
    condition: CondFn,
    action: ActionFn,
    occurrence: Arc<Occurrence>,
}

/// What every firing of one dispatch shares, read once per dispatch.
#[derive(Clone, Copy)]
struct DispatchCtx {
    /// Nesting depth of the firings.
    depth: u32,
    /// The rule manager's deletion count before the rule table was read:
    /// a firing re-checks its rule only if it has moved since.
    deletions: u64,
    /// Whether the span store is attached and enabled.
    tracing: bool,
    /// Whether the rule debugger records.
    debug: bool,
}

thread_local! {
    /// The rule frame of the rule body currently executing on this thread
    /// (None when application code is running).
    static FRAME: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Empty agenda buffers of this thread's finished dispatches. A
    /// dispatch takes one and gives it back, so a dispatch nested inside
    /// a rule action takes another and a steady state allocates none.
    static AGENDAS: RefCell<Vec<Vec<Firing>>> = const { RefCell::new(Vec::new()) };
}

/// Savepoint hooks for subtransaction-level recovery: `mark(txn)` records
/// a savepoint before a rule body runs; `rollback(txn, mark)` undoes the
/// body's writes when it fails. Installed by `sentinel-core` over the
/// storage engine (the scheduler itself stays storage-agnostic).
pub struct SavepointHooks {
    /// Takes a savepoint for the transaction.
    pub mark: Box<dyn Fn(u64) -> Option<u64> + Send + Sync>,
    /// Rolls the transaction back to the savepoint.
    pub rollback: Box<dyn Fn(u64, u64) + Send + Sync>,
}

/// Live counters for rule execution (see [`SchedulerStats`] for the
/// snapshot form).
#[derive(Debug, Default)]
pub struct SchedulerMetrics {
    /// Immediate-coupling rules dispatched for execution.
    fired_immediate: Counter,
    /// Deferred-coupling rules dispatched (they execute at pre-commit via
    /// the A* rewrite, but keep their own count).
    fired_deferred: Counter,
    /// Detached-coupling rules queued for the detached executor.
    queued_detached: Counter,
    /// Rules dispatched per priority class, added once per dispatch.
    per_priority: Mutex<BTreeMap<u32, u64>>,
    /// Condition wall-time, ns.
    condition_ns: Histogram,
    /// Action wall-time, ns.
    action_ns: Histogram,
    /// Rule bodies that panicked (subtransaction aborted, execution
    /// recovered).
    panics: Counter,
    /// Detections skipped (rule disabled, NOW-filtered, or its parent
    /// transaction already finished).
    skipped: Counter,
}

/// Plain-data snapshot of [`SchedulerMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Immediate-coupling rules dispatched.
    pub fired_immediate: u64,
    /// Deferred-coupling rules dispatched.
    pub fired_deferred: u64,
    /// Detached-coupling rules queued.
    pub queued_detached: u64,
    /// `(priority class, rules dispatched)`, ascending by class.
    pub per_priority: Vec<(u32, u64)>,
    /// `(rule name, rules dispatched)`, ascending by name.
    pub per_rule: Vec<(Arc<str>, u64)>,
    /// Condition wall-time histogram.
    pub condition: HistogramSnapshot,
    /// Action wall-time histogram.
    pub action: HistogramSnapshot,
    /// Rule bodies that panicked.
    pub panics: u64,
    /// Detections skipped.
    pub skipped: u64,
}

impl SchedulerStats {
    /// Renders as a JSON object.
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            (
                "fired",
                json::Value::obj([
                    ("immediate", json::Value::UInt(self.fired_immediate)),
                    ("deferred", json::Value::UInt(self.fired_deferred)),
                    ("detached_queued", json::Value::UInt(self.queued_detached)),
                ]),
            ),
            (
                "per_priority",
                json::Value::obj(
                    self.per_priority.iter().map(|(p, n)| (p.to_string(), json::Value::UInt(*n))),
                ),
            ),
            (
                "per_rule",
                json::Value::obj(
                    self.per_rule.iter().map(|(r, n)| (r.to_string(), json::Value::UInt(*n))),
                ),
            ),
            ("condition", self.condition.to_json()),
            ("action", self.action.to_json()),
            ("panics", json::Value::UInt(self.panics)),
            ("skipped", json::Value::UInt(self.skipped)),
        ])
    }
}

/// The rule scheduler.
pub struct RuleScheduler {
    manager: Arc<RuleManager>,
    nested: Arc<NestedTxnManager>,
    debugger: Arc<RuleDebugger>,
    pool: Option<PriorityPool>,
    /// Root subtransaction per top-level transaction.
    roots: Mutex<HashMap<u64, SubTxnId>>,
    detached_tx: Sender<DetachedRequest>,
    detached_rx: Receiver<DetachedRequest>,
    /// Set once, at construction of the system.
    savepoints: OnceLock<SavepointHooks>,
    metrics: SchedulerMetrics,
    /// Optional provenance span store (condition/action spans), set once.
    span_store: OnceLock<Arc<TraceStore>>,
}

impl RuleScheduler {
    /// A scheduler over `manager` in the given execution mode.
    pub fn new(manager: Arc<RuleManager>, mode: ExecutionMode) -> Arc<Self> {
        let pool = match mode {
            ExecutionMode::Inline => None,
            ExecutionMode::Threaded { workers } => Some(PriorityPool::new(workers)),
        };
        let (detached_tx, detached_rx) = unbounded();
        Arc::new(RuleScheduler {
            manager,
            nested: Arc::new(NestedTxnManager::new()),
            debugger: Arc::new(RuleDebugger::new()),
            pool,
            roots: Mutex::new(HashMap::new()),
            detached_tx,
            detached_rx,
            savepoints: OnceLock::new(),
            metrics: SchedulerMetrics::default(),
            span_store: OnceLock::new(),
        })
    }

    /// Attaches a provenance span store; condition/action spans (parented
    /// on the triggering occurrence's detection span) are recorded while
    /// it is enabled. The first store attached stays: later calls are
    /// ignored.
    pub fn set_trace_store(&self, store: Arc<TraceStore>) {
        let _ = self.span_store.set(store);
    }

    /// The span store, when it is attached and enabled.
    fn tracer(&self) -> Option<&TraceStore> {
        self.span_store.get().map(|s| &**s).filter(|s| s.is_enabled())
    }

    /// Reads the tracing and debugging switches and the deletion count for
    /// one dispatch at `depth`.
    fn dispatch_ctx(&self, depth: u32) -> DispatchCtx {
        DispatchCtx {
            depth,
            deletions: self.manager.deletions(),
            tracing: self.tracer().is_some(),
            debug: self.debugger.enabled(),
        }
    }

    /// Counts a skipped firing and tells the debugger why.
    fn skip(&self, ctx: &DispatchCtx, rule: RuleId, reason: &'static str) {
        self.metrics.skipped.inc();
        if ctx.debug {
            self.debugger.record(TraceEvent::Skipped { rule, reason, depth: ctx.depth });
        }
    }

    /// Snapshot of scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            fired_immediate: self.metrics.fired_immediate.get(),
            fired_deferred: self.metrics.fired_deferred.get(),
            queued_detached: self.metrics.queued_detached.get(),
            per_priority: self.metrics.per_priority.lock().iter().map(|(p, n)| (*p, *n)).collect(),
            per_rule: self.manager.hit_counts(),
            condition: self.metrics.condition_ns.snapshot(),
            action: self.metrics.action_ns.snapshot(),
            panics: self.metrics.panics.get(),
            skipped: self.metrics.skipped.get(),
        }
    }

    /// Installs savepoint hooks (subtransaction-level recovery): a failing
    /// rule body then rolls back its own database writes instead of leaving
    /// them in the triggering transaction. The first hooks installed stay:
    /// later calls are ignored.
    pub fn set_savepoint_hooks(&self, hooks: SavepointHooks) {
        let _ = self.savepoints.set(hooks);
    }

    /// The rule manager.
    pub fn manager(&self) -> &Arc<RuleManager> {
        &self.manager
    }

    /// The nested transaction manager rule bodies run under.
    pub fn nested(&self) -> &Arc<NestedTxnManager> {
        &self.nested
    }

    /// The rule debugger.
    pub fn debugger(&self) -> &Arc<RuleDebugger> {
        &self.debugger
    }

    /// Receiver for detached-rule requests (consumed by the detached
    /// executor in `sentinel-core`).
    pub fn detached_requests(&self) -> Receiver<DetachedRequest> {
        self.detached_rx.clone()
    }

    /// Dispatches a batch of detections.
    ///
    /// Called from application code (top level) or re-entrantly from inside
    /// a rule action (nested triggering — "the nested triggering of rules by
    /// the execution of action function is … readily accomplished"). Blocks
    /// until every immediate rule triggered by this batch — including rules
    /// they trigger in turn — has finished.
    pub fn dispatch(self: &Arc<Self>, detections: Vec<Detection>) {
        if detections.is_empty() {
            return;
        }
        let frame = FRAME.with(|f| f.borrow().last().map(|fr| (fr.sub, fr.depth)));
        let ctx = self.dispatch_ctx(frame.map_or(0, |(_, d)| d + 1));
        let mut agenda = AGENDAS.with(|a| a.borrow_mut().pop()).unwrap_or_default();
        self.fill_agenda(&ctx, detections, &mut agenda);
        if !agenda.is_empty() {
            self.run_agenda(ctx, frame.map(|(sub, _)| sub), &mut agenda);
        }
        agenda.clear();
        AGENDAS.with(|a| a.borrow_mut().push(agenda));
    }

    /// Resolves every subscriber of `detections` under one read of the
    /// rule table: filters it, counts and records the firing, queues a
    /// detached rule and puts the others on `agenda`, in detection order.
    /// The flight records of one dispatch share one wall-clock read.
    fn fill_agenda(&self, ctx: &DispatchCtx, detections: Vec<Detection>, agenda: &mut Vec<Firing>) {
        let flight = sentinel_obs::flight::global();
        let mut stamp = None;
        // Firings per coupling mode, added to the counters once.
        let mut fired = [0u64; 3];
        let table = self.manager.table();
        for Detection { context, occurrence, subscribers, .. } in detections {
            // The last subscriber takes the detection's occurrence; the
            // others share it.
            let last = subscribers.len().saturating_sub(1);
            let mut occurrence = Some(occurrence);
            for (i, sub) in subscribers.into_iter().enumerate() {
                let rule_id = RuleId(sub);
                if ctx.depth > MAX_CASCADE_DEPTH {
                    self.skip(ctx, rule_id, "cascade depth limit");
                    continue;
                }
                let Some(r) = table.get(rule_id) else {
                    continue; // rule deleted concurrently
                };
                let occ = occurrence.as_ref().expect("only the last subscriber takes it");
                if !r.enabled {
                    self.skip(ctx, rule_id, "disabled");
                    continue;
                }
                if !r.accepts(occ) {
                    self.skip(ctx, rule_id, "trigger mode NOW: pre-definition constituents");
                    continue;
                }
                r.hits.fetch_add(1, Ordering::Relaxed);
                let coupling = match r.coupling {
                    CouplingMode::Immediate => 0,
                    CouplingMode::Deferred => 1,
                    CouplingMode::Detached => 2,
                };
                fired[coupling] += 1;
                let unix_us = *stamp.get_or_insert_with(sentinel_obs::flight::unix_us);
                flight.record_at(
                    unix_us,
                    FlightKind::RuleFired,
                    r.name.clone().into(),
                    u64::from(r.priority),
                    coupling as u64,
                );
                if ctx.debug && r.coupling != CouplingMode::Detached {
                    self.debugger.record(TraceEvent::Triggered {
                        rule: rule_id,
                        rule_name: r.name.clone(),
                        event: occ.event_name.clone(),
                        context,
                        at: occ.at,
                        depth: ctx.depth,
                    });
                }
                let occ = if i == last { occurrence.take() } else { occurrence.clone() };
                let occurrence = occ.expect("only the last subscriber takes it");
                if r.coupling == CouplingMode::Detached {
                    // Queue for the detached executor; runs in its own
                    // top-level transaction.
                    let _ = self.detached_tx.send(DetachedRequest { rule: rule_id, occurrence });
                    continue;
                }
                agenda.push(Firing {
                    rule: rule_id,
                    name: r.name.clone(),
                    priority: r.priority,
                    condition: r.condition.clone(),
                    action: r.action.clone(),
                    occurrence,
                });
            }
        }
        let m = &self.metrics;
        for (counter, n) in
            [&m.fired_immediate, &m.fired_deferred, &m.queued_detached].iter().zip(fired)
        {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Executes a non-empty agenda by priority class, highest first, each
    /// firing as a subtransaction of the caller's subtransaction (nested
    /// triggering) or of the root of the occurrence's top-level
    /// transaction. Leaves `agenda` empty on the inline path.
    fn run_agenda(
        self: &Arc<Self>,
        ctx: DispatchCtx,
        caller: Option<SubTxnId>,
        agenda: &mut Vec<Firing>,
    ) {
        // A stable sort keeps detection order within a class; an agenda
        // already in order (one class, the common case) is left alone.
        if !agenda.windows(2).all(|w| w[0].priority >= w[1].priority) {
            agenda.sort_by_key(|f| std::cmp::Reverse(f.priority));
        }
        {
            let mut per_priority = self.metrics.per_priority.lock();
            for class in agenda.chunk_by(|a, b| a.priority == b.priority) {
                *per_priority.entry(class[0].priority).or_default() += class.len() as u64;
            }
        }
        let parent = caller.unwrap_or_else(|| {
            self.root_for(agenda.iter().find_map(|f| f.occurrence.txn).unwrap_or(NO_TXN))
        });

        // Priority classes execute serially (highest first); rules within a
        // class execute concurrently (threaded) or in order (inline).
        //
        // Nested triggering (a caller subtransaction) always executes
        // *inline on the current rule thread*: this is the paper's
        // depth-first execution — the nested rule completes before its
        // triggering action returns, under the still-active parent
        // subtransaction. (A pool worker must also never quiesce the pool
        // it runs on.)
        let pool = self.pool.as_ref().filter(|_| caller.is_none());
        let Some(pool) = pool else {
            for firing in agenda.drain(..) {
                self.execute_rule(firing, parent, &ctx);
            }
            return;
        };
        for class in agenda.chunk_by(|a, b| a.priority == b.priority) {
            for firing in class {
                let (sched, firing) = (self.clone(), firing.clone());
                pool.submit(i64::from(firing.priority), move || {
                    sched.execute_rule(firing, parent, &ctx);
                });
            }
            // Suspend the application until this class (and every rule
            // it transitively triggered) is done, then start the next
            // class (Figure 3's suspension point).
            pool.quiesce();
        }
    }

    /// Runs one rule body as a subtransaction of `parent`. The
    /// subtransaction leaves the tree as it commits or aborts, so a tree
    /// holds its root and the firings still running, one per nesting
    /// level.
    fn execute_rule(&self, firing: Firing, parent: SubTxnId, ctx: &DispatchCtx) {
        let Firing { rule: rule_id, name, condition, action, occurrence, .. } = firing;
        let depth = ctx.depth;
        let Ok(sub) = self.nested.begin_sub(parent) else {
            // Parent already resolved (e.g. transaction ended while queued).
            self.skip(ctx, rule_id, "parent transaction finished");
            return;
        };
        // A rule deleted since the dispatch read it (e.g. by the action of
        // a higher-priority rule) does not run.
        if self.manager.deletions() != ctx.deletions
            && self.manager.with_rule(rule_id, |_| ()).is_err()
        {
            let _ = self.nested.finish_sub(sub, false);
            return;
        }
        let txn = occurrence.txn;
        let invocation = RuleInvocation {
            rule: rule_id,
            rule_name: name,
            occurrence,
            depth,
            txn,
            subtxn: Some(sub),
        };
        FRAME.with(|f| f.borrow_mut().push(Frame { sub, depth }));
        let detector = self.manager.detector();
        let hooks = self.savepoints.get();
        let savepoint = hooks.zip(txn).and_then(|(h, txn)| (h.mark)(txn).map(|m| (txn, m)));
        let tracer = if ctx.tracing { self.tracer() } else { None };
        let span = |s: &TraceStore, kind| {
            let (trace, parent) = span_anchor(s, invocation.occurrence.span);
            s.start(trace, parent, kind, invocation.rule_name.clone())
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Conditions are side-effect free: suppress event signalling
            // while the condition runs (the paper's global flag).
            detector.set_signaling(false);
            let cond_handle = tracer.map(|s| span(s, "condition"));
            // Three clock reads: the condition's end is the action's start.
            let started = Instant::now();
            let satisfied = {
                // Storage I/O the condition performs tags this span.
                let _guard = cond_handle.as_ref().map(|h| span::push_current(h.ctx));
                (condition)(&invocation)
            };
            let evaluated = Instant::now();
            self.metrics.condition_ns.record_duration(evaluated - started);
            detector.set_signaling(true);
            if let (Some(s), Some(h)) = (tracer, cond_handle) {
                s.finish(h, depth, vec![("satisfied", Field::Bool(satisfied))]);
            }
            if ctx.debug {
                self.debugger.record(TraceEvent::Condition { rule: rule_id, satisfied, depth });
            }
            if satisfied {
                let action_handle = tracer.map(|s| span(s, "action"));
                {
                    // Events the action raises (cascades) and I/O it
                    // performs attach to this span via the ambient stack.
                    let _guard = action_handle.as_ref().map(|h| span::push_current(h.ctx));
                    (action)(&invocation);
                }
                self.metrics.action_ns.record_duration(evaluated.elapsed());
                if let (Some(s), Some(h)) = (tracer, action_handle) {
                    s.finish(h, depth, Vec::new());
                }
                if ctx.debug {
                    self.debugger.record(TraceEvent::Action { rule: rule_id, depth });
                }
            }
        }));
        FRAME.with(|f| {
            f.borrow_mut().pop();
        });
        let committed = result.is_ok();
        if !committed {
            self.metrics.panics.inc();
            detector.set_signaling(true);
        }
        let _ = self.nested.finish_sub(sub, committed);
        if !committed {
            // Subtransaction-level recovery: undo the body's writes.
            if let (Some(h), Some((txn, mark))) = (hooks, savepoint) {
                (h.rollback)(txn, mark);
            }
            if ctx.debug {
                self.debugger.record(TraceEvent::Skipped {
                    rule: rule_id,
                    reason: "rule body panicked; subtransaction aborted",
                    depth,
                });
            }
        }
    }

    fn root_for(&self, txn: u64) -> SubTxnId {
        *self.roots.lock().entry(txn).or_insert_with(|| self.nested.begin_top(txn))
    }

    /// Finishes the rule-subtransaction tree of a top-level transaction
    /// (called on commit with `committed = true`, on abort with `false`).
    pub fn on_txn_end(&self, txn: u64, committed: bool) {
        if let Some(root) = self.roots.lock().remove(&txn) {
            if committed {
                let _ = self.nested.commit_sub(root);
            } else {
                let _ = self.nested.abort_sub(root);
            }
            self.nested.forget_tree(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::RuleOptions;
    use sentinel_detector::graph::PrimTarget;
    use sentinel_detector::LocalEventDetector;
    use sentinel_snoop::ast::EventModifier;
    use sentinel_snoop::TriggerMode;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    struct Fixture {
        det: Arc<LocalEventDetector>,
        sched: Arc<RuleScheduler>,
    }

    fn fixture(mode: ExecutionMode) -> Fixture {
        let det = Arc::new(LocalEventDetector::new(0));
        let events =
            [("ev", "void f()"), ("ev2", "void g()"), ("ev3", "void h()"), ("ev4", "void k()")];
        for (name, sig) in events {
            det.declare_primitive(name, "C", EventModifier::End, sig, PrimTarget::AnyInstance)
                .unwrap();
        }
        let mgr = Arc::new(RuleManager::new(det.clone()));
        let sched = RuleScheduler::new(mgr, mode);
        Fixture { det, sched }
    }

    impl Fixture {
        fn signal(&self, sig: &str) {
            let dets = self.det.notify_method("C", sig, EventModifier::End, 1, [], Some(1));
            self.sched.dispatch(dets);
        }

        /// Defines a rule with a true condition on the named event.
        fn rule(&self, name: &str, ev: &str, action: ActionFn, opts: RuleOptions) -> RuleId {
            self.rule_if(name, ev, Arc::new(|_| true), action, opts)
        }

        /// Defines a rule on the named event.
        fn rule_if(
            &self,
            name: &str,
            ev: &str,
            cond: CondFn,
            action: ActionFn,
            opts: RuleOptions,
        ) -> RuleId {
            let ev = self.det.lookup(ev).unwrap();
            self.sched.manager().define_rule(name, ev, cond, action, opts).unwrap()
        }

        /// An action that signals `C::sig` and dispatches what it detects.
        fn raise(&self, sig: &'static str) -> ActionFn {
            let (det, sched) = (self.det.clone(), self.sched.clone());
            Arc::new(move |_| {
                sched.dispatch(det.notify_method("C", sig, EventModifier::End, 1, [], Some(1)))
            })
        }
    }

    /// A run counter and an action that bumps it.
    fn counter() -> (Arc<AtomicUsize>, ActionFn) {
        let n = Arc::new(AtomicUsize::new(0));
        let c = n.clone();
        let action: ActionFn = Arc::new(move |_| {
            c.fetch_add(1, SeqCst);
        });
        (n, action)
    }

    /// An order log and an action that appends `name` to it.
    fn logger(order: &Arc<Mutex<Vec<&'static str>>>, name: &'static str) -> ActionFn {
        let o = order.clone();
        Arc::new(move |_| o.lock().push(name))
    }

    fn prio(p: u32) -> RuleOptions {
        RuleOptions::default().priority(p)
    }

    #[test]
    fn rule_fires_condition_then_action() {
        let fx = fixture(ExecutionMode::Inline);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        let cond: CondFn = Arc::new(move |_| {
            o.lock().push("cond");
            true
        });
        fx.rule_if("R1", "ev", cond, logger(&order, "action"), RuleOptions::default());
        fx.signal("void f()");
        assert_eq!(*order.lock(), vec!["cond", "action"]);
    }

    #[test]
    fn false_condition_suppresses_action() {
        let fx = fixture(ExecutionMode::Inline);
        let (ran, count) = counter();
        fx.rule_if("R1", "ev", Arc::new(|_| false), count, RuleOptions::default());
        fx.signal("void f()");
        assert_eq!(ran.load(SeqCst), 0);
    }

    #[test]
    fn priority_classes_execute_high_to_low() {
        for mode in [ExecutionMode::Inline, ExecutionMode::Threaded { workers: 4 }] {
            let fx = fixture(mode);
            let order = Arc::new(Mutex::new(Vec::new()));
            for (name, p) in [("low", 1u32), ("high", 9), ("mid", 5)] {
                fx.rule(name, "ev", logger(&order, name), prio(p));
            }
            fx.signal("void f()");
            assert_eq!(*order.lock(), vec!["high", "mid", "low"], "mode {mode:?}");
        }
    }

    #[test]
    fn multiple_rules_on_one_event_all_fire() {
        let fx = fixture(ExecutionMode::Threaded { workers: 4 });
        let (count, action) = counter();
        for i in 0..10 {
            fx.rule(&format!("R{i}"), "ev", action.clone(), RuleOptions::default());
        }
        fx.signal("void f()");
        assert_eq!(count.load(SeqCst), 10);
    }

    #[test]
    fn nested_triggering_depth_first() {
        // R1 on ev raises ev2 in its action; R2 on ev2 records its depth.
        let fx = fixture(ExecutionMode::Inline);
        let depths = Arc::new(Mutex::new(Vec::new()));
        fx.rule("R1", "ev", fx.raise("void g()"), RuleOptions::default());
        let d2 = depths.clone();
        fx.rule(
            "R2",
            "ev2",
            Arc::new(move |inv| d2.lock().push(inv.depth)),
            RuleOptions::default(),
        );
        fx.signal("void f()");
        assert_eq!(*depths.lock(), vec![1], "nested rule sees depth 1");
        let (triggered, _, actions, _) = fx.sched.debugger().stats();
        // Debugger off by default.
        assert_eq!((triggered, actions), (0, 0));
    }

    #[test]
    fn self_triggering_rule_stops_at_the_cascade_depth_limit() {
        // R's action re-raises R's own event: without the bound the
        // cascade recurses until the stack overflows.
        for mode in [ExecutionMode::Inline, ExecutionMode::Threaded { workers: 2 }] {
            let fx = fixture(mode);
            let (runs, count) = counter();
            let raise = fx.raise("void f()");
            let action: ActionFn = Arc::new(move |inv| {
                count(inv);
                raise(inv);
            });
            fx.rule("again", "ev", action, RuleOptions::default());
            fx.signal("void f()");
            assert_eq!(runs.load(SeqCst), MAX_CASCADE_DEPTH as usize + 1, "{mode:?}");
            assert!(fx.sched.stats().skipped >= 1, "{mode:?}");
        }
    }

    #[test]
    fn nested_rules_run_before_lower_priority_siblings_threaded() {
        // high (prio 9) triggers nested; low (prio 1) must run after the
        // nested rule despite being queued at dispatch time.
        let fx = fixture(ExecutionMode::Threaded { workers: 1 });
        let order = Arc::new(Mutex::new(Vec::new()));
        let (log, raise) = (logger(&order, "high"), fx.raise("void g()"));
        let high: ActionFn = Arc::new(move |inv| {
            log(inv);
            raise(inv);
        });
        fx.rule("high", "ev", high, prio(9));
        fx.rule("low", "ev", logger(&order, "low"), prio(1));
        fx.rule("nested", "ev2", logger(&order, "nested"), prio(0));
        fx.signal("void f()");
        assert_eq!(*order.lock(), vec!["high", "nested", "low"], "depth-first");
    }

    #[test]
    fn condition_cannot_raise_events() {
        // The condition invokes a method that is an event generator; the
        // signalling suppression must prevent R2 from firing.
        let fx = fixture(ExecutionMode::Inline);
        let (fired, count) = counter();
        // Side-effecting call from a condition (forbidden):
        let raise = fx.raise("void g()");
        let cond: CondFn = Arc::new(move |inv| {
            raise(inv);
            true
        });
        fx.rule_if("R1", "ev", cond, Arc::new(|_| {}), RuleOptions::default());
        fx.rule("R2", "ev2", count, RuleOptions::default());
        fx.signal("void f()");
        assert_eq!(fired.load(SeqCst), 0, "condition-raised event detected");
    }

    #[test]
    fn detached_rules_are_queued_not_executed() {
        let fx = fixture(ExecutionMode::Inline);
        let (ran, count) = counter();
        let id =
            fx.rule("RD", "ev", count, RuleOptions::default().coupling(CouplingMode::Detached));
        let rx = fx.sched.detached_requests();
        fx.signal("void f()");
        assert_eq!(ran.load(SeqCst), 0, "not executed inline");
        let req = rx.try_recv().expect("queued detached request");
        assert_eq!(req.rule, id);
    }

    #[test]
    fn panicking_rule_aborts_its_subtransaction_only() {
        let fx = fixture(ExecutionMode::Inline);
        fx.rule("bad", "ev", Arc::new(|_| panic!("rule exploded")), prio(5));
        let (ran, count) = counter();
        fx.rule("good", "ev", count, prio(1));
        fx.signal("void f()");
        assert_eq!(ran.load(SeqCst), 1, "other rules still run");
        assert!(fx.det.signaling(), "signalling restored after panic");
    }

    #[test]
    fn now_trigger_mode_skips_old_constituents() {
        let fx = fixture(ExecutionMode::Inline);
        // Build a sequence and let its initiator happen BEFORE the rule is
        // defined (keeping the context alive via a pre-existing rule).
        let expr = sentinel_snoop::parse_event_expr("ev ; ev2").unwrap();
        fx.det.define_named("seq", &expr).unwrap();
        let (early, count) = counter();
        fx.rule("keeper", "seq", count, RuleOptions::default().trigger(TriggerMode::Previous));
        fx.signal("void f()"); // initiator (ev) buffered now
        let (now_fired, count) = counter();
        fx.rule("nowrule", "seq", count, RuleOptions::default().trigger(TriggerMode::Now));
        fx.signal("void g()"); // terminator
        assert_eq!(early.load(SeqCst), 1, "PREVIOUS rule fires");
        assert_eq!(now_fired.load(SeqCst), 0, "NOW rule filtered");
    }

    #[test]
    fn txn_end_cleans_up_subtransaction_tree() {
        let fx = fixture(ExecutionMode::Inline);
        fx.rule("R1", "ev", Arc::new(|_| {}), RuleOptions::default());
        fx.signal("void f()");
        assert!(fx.sched.nested().live_count() > 0);
        fx.sched.on_txn_end(1, true);
        assert_eq!(fx.sched.nested().live_count(), 0);
    }

    #[test]
    fn a_firing_leaves_the_tree_when_it_resolves() {
        // 64 signals x 4 rules in one transaction: the tree holds the root
        // and the running firing, never one node per firing.
        let fx = fixture(ExecutionMode::Inline);
        let most = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let (nested, most) = (fx.sched.nested().clone(), most.clone());
            let watch: ActionFn = Arc::new(move |_| {
                most.fetch_max(nested.live_count(), SeqCst);
            });
            fx.rule(&format!("R{i}"), "ev", watch, RuleOptions::default());
        }
        for _ in 0..64 {
            fx.signal("void f()");
            assert!(fx.sched.nested().live_count() <= 2);
        }
        assert_eq!(most.load(SeqCst), 2, "the root and the running firing");
        assert_eq!(fx.sched.stats().fired_immediate, 256);
        fx.sched.on_txn_end(1, true);
        assert_eq!(fx.sched.nested().live_count(), 0);
    }

    #[test]
    fn a_cascade_holds_one_node_per_level() {
        // Level i's rule raises level i + 1; inside the deepest action the
        // tree is the root plus five running subtransactions.
        let fx = fixture(ExecutionMode::Inline);
        for level in 0..=5 {
            fx.det.declare_explicit(&format!("level{level}"));
        }
        let deepest = Arc::new(Mutex::new(None));
        for level in 0..5 {
            let action: ActionFn = if level < 4 {
                let (det, sched) = (fx.det.clone(), fx.sched.clone());
                let next = format!("level{}", level + 1);
                Arc::new(move |_| sched.dispatch(det.signal_explicit(&next, vec![], Some(1))))
            } else {
                let (nested, deepest) = (fx.sched.nested().clone(), deepest.clone());
                Arc::new(move |inv| *deepest.lock() = Some((inv.depth, nested.live_count())))
            };
            fx.rule(&format!("cascade{level}"), &format!("level{level}"), action, prio(1));
        }
        fx.sched.dispatch(fx.det.signal_explicit("level0", vec![], Some(1)));
        assert_eq!(*deepest.lock(), Some((4, 6)), "depth 4 is the fifth level");
        assert_eq!(fx.sched.nested().live_count(), 1, "only the root is left");
        fx.sched.on_txn_end(1, false);
        assert_eq!(fx.sched.nested().live_count(), 0);
    }

    #[test]
    fn debugger_traces_when_enabled() {
        let fx = fixture(ExecutionMode::Inline);
        fx.sched.debugger().set_enabled(true);
        fx.rule("R1", "ev", Arc::new(|_| {}), RuleOptions::default());
        fx.signal("void f()");
        let (triggered, sat, actions, _) = fx.sched.debugger().stats();
        assert_eq!((triggered, sat, actions), (1, 1, 1));
        assert!(fx.sched.debugger().render().contains("R1"));
    }

    #[test]
    fn a_rule_dropped_by_a_higher_priority_action_does_not_run() {
        for mode in [ExecutionMode::Inline, ExecutionMode::Threaded { workers: 2 }] {
            let fx = fixture(mode);
            let (runs, count) = counter();
            let low = fx.rule("low", "ev", count, prio(1));
            let mgr = fx.sched.manager().clone();
            fx.rule("high", "ev", Arc::new(move |_| mgr.delete(low).unwrap()), prio(9));
            fx.signal("void f()");
            assert_eq!(runs.load(SeqCst), 0, "{mode:?}");
        }
    }

    #[test]
    fn debugger_and_tracing_switched_on_between_dispatches_apply_to_the_second() {
        let fx = fixture(ExecutionMode::Inline);
        fx.rule("R1", "ev", Arc::new(|_| {}), RuleOptions::default());
        let spans = Arc::new(TraceStore::new());
        fx.sched.set_trace_store(spans.clone());
        fx.signal("void f()");
        assert!(fx.sched.debugger().snapshot().is_empty() && spans.is_empty());

        fx.sched.debugger().set_enabled(true);
        spans.set_enabled(true);
        fx.signal("void f()");
        assert_eq!(fx.sched.debugger().stats(), (1, 1, 1, 0));
        let kinds: Vec<&str> = spans.snapshot().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["condition", "action"]);
    }

    #[test]
    fn stats_of_a_fixed_script_are_those_of_the_per_execution_lookup() {
        // Expected values measured on the scheduler that read each rule again
        // at execution and grouped its agenda by priority class in a map.
        for mode in [ExecutionMode::Inline, ExecutionMode::Threaded { workers: 2 }] {
            let fx = fixture(mode);
            let noop = || -> ActionFn { Arc::new(|_| {}) };
            let opts = RuleOptions::default;
            let seq = sentinel_snoop::parse_event_expr("ev ; ev3").unwrap();
            fx.det.define_named("seq", &seq).unwrap();
            // `a` raises ev2: `b` runs nested, `d` is queued detached.
            fx.rule("a", "ev", fx.raise("void g()"), prio(5));
            fx.rule("b", "ev2", noop(), prio(7));
            fx.rule("d", "ev2", noop(), opts().coupling(CouplingMode::Detached));
            fx.rule("def", "ev3", noop(), opts().coupling(CouplingMode::Deferred));
            fx.rule("keeper", "seq", noop(), prio(2).trigger(TriggerMode::Previous));
            // `again` re-raises its own event until the cascade bound.
            fx.rule("again", "ev4", fx.raise("void k()"), prio(3));

            let txn_event = |name| fx.sched.dispatch(fx.det.signal_explicit(name, vec![], Some(1)));
            txn_event("begin-transaction");
            fx.signal("void f()");
            fx.rule("late", "seq", noop(), prio(2)); // NOW: misses the first `ev`
            fx.signal("void h()");
            fx.signal("void k()");
            fx.signal("void f()");
            txn_event("pre-commit-transaction");

            let st = fx.sched.stats();
            let per_rule: Vec<(&str, u64)> = st.per_rule.iter().map(|(n, c)| (&**n, *c)).collect();
            let want = [("a", 2), ("again", 65), ("b", 2), ("d", 2), ("def", 1), ("keeper", 1)];
            assert_eq!(per_rule, want, "{mode:?}");
            assert_eq!(st.per_priority, [(2, 1), (3, 65), (5, 2), (7, 2), (10, 1)], "{mode:?}");
            // `late`, and the firing past the cascade bound.
            assert_eq!(st.skipped, 2, "{mode:?}");
            let fired = (st.fired_immediate, st.fired_deferred, st.queued_detached);
            assert_eq!(fired, (70, 1, 2), "{mode:?}");
        }
    }

    #[test]
    fn per_rule_counts_a_name_across_delete_and_redefine() {
        let fx = fixture(ExecutionMode::Inline);
        let first = fx.rule("R", "ev", Arc::new(|_| {}), RuleOptions::default());
        fx.rule("idle", "ev2", Arc::new(|_| {}), RuleOptions::default());
        fx.signal("void f()");
        fx.sched.manager().delete(first).unwrap();
        fx.signal("void f()"); // no rule named R
        fx.rule("R", "ev", Arc::new(|_| {}), RuleOptions::default());
        fx.signal("void f()");
        fx.signal("void f()");
        let st = fx.sched.stats();
        let per_rule: Vec<(&str, u64)> = st.per_rule.iter().map(|(n, c)| (&**n, *c)).collect();
        assert_eq!(per_rule, [("R", 3)], "one count for R; `idle` never fired");
    }
}
