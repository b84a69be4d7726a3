//! Rule manager: definition, activation/deactivation, deletion, and the
//! deferred-coupling rewrite.
//!
//! The manager owns the rule registry and talks to the local composite
//! event detector for subscriptions. Defining a rule subscribes it to its
//! event in its parameter context ("whenever a rule is defined, its context
//! is propagated to all the nodes in its event graph"); disabling or
//! deleting a rule unsubscribes, decrementing the context counters so
//! detection stops when no rule needs it (§3.2 item 1).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use sentinel_detector::{EventId, LocalEventDetector};
use sentinel_snoop::{CouplingMode, ParamContext, TriggerMode};

use crate::rule::{ActionFn, CondFn, Rule, RuleError, RuleId};

/// Default priority class for user rules. System rules (e.g. the
/// deactivatable flush-on-commit/abort rules installed by `sentinel-core`)
/// use class 0 so they run after user rules of the same dispatch.
pub const DEFAULT_PRIORITY: u32 = 10;

/// Builder-style options for rule definition, mirroring the optional tail
/// of the paper's rule grammar
/// `rule R1(e4, cond1, action1 [, context][, coupling][, priority][, trigger])`.
#[derive(Debug, Clone, Default)]
pub struct RuleOptions {
    /// Parameter context (default RECENT).
    pub context: Option<ParamContext>,
    /// Coupling mode (default IMMEDIATE).
    pub coupling: Option<CouplingMode>,
    /// Priority class by number (default [`DEFAULT_PRIORITY`]).
    pub priority: Option<u32>,
    /// Priority class by name, resolved in the manager's class registry
    /// ("a rule is assigned to a priority class by indicating its number or
    /// the name of the class", §3.1). Ignored when `priority` is set.
    pub priority_class: Option<String>,
    /// Trigger mode (default NOW).
    pub trigger: Option<TriggerMode>,
    /// Explicit `defined_at` timestamp. Normally the manager draws a fresh
    /// clock tick so the `NOW` cutoff excludes everything already
    /// signalled; catalog replay (`crates/durable`) passes the originally
    /// recorded tick so a recovered rule keeps its exact cutoff.
    pub defined_at: Option<u64>,
}

impl RuleOptions {
    /// Sets the parameter context.
    pub fn context(mut self, c: ParamContext) -> Self {
        self.context = Some(c);
        self
    }

    /// Sets the coupling mode.
    pub fn coupling(mut self, c: CouplingMode) -> Self {
        self.coupling = Some(c);
        self
    }

    /// Sets the priority class by number.
    pub fn priority(mut self, p: u32) -> Self {
        self.priority = Some(p);
        self
    }

    /// Sets the priority class by name (must be defined via
    /// [`RuleManager::define_priority_class`] before the rule is defined).
    pub fn priority_class(mut self, name: &str) -> Self {
        self.priority_class = Some(name.to_string());
        self
    }

    /// Sets the trigger mode.
    pub fn trigger(mut self, t: TriggerMode) -> Self {
        self.trigger = Some(t);
        self
    }

    /// Pins the rule's `defined_at` timestamp (catalog replay).
    pub fn defined_at(mut self, ts: u64) -> Self {
        self.defined_at = Some(ts);
        self
    }
}

/// The rule manager (one per application, next to its local detector).
pub struct RuleManager {
    detector: Arc<LocalEventDetector>,
    next: AtomicU64,
    /// Rules deleted so far (see [`Self::deletions`]): bumped with
    /// `Release` after the removal, read with `Acquire`, so a reader that
    /// sees the bump sees the rule gone.
    deletions: AtomicU64,
    rules: RwLock<HashMap<RuleId, Rule>>,
    by_name: RwLock<HashMap<Arc<str>, RuleId>>,
    /// Named, totally ordered priority classes (name -> level).
    priority_classes: RwLock<HashMap<String, u32>>,
    /// Firing counter per rule name, kept across delete and redefine;
    /// each rule holds its name's counter ([`Rule::hits`]).
    hits: Mutex<BTreeMap<Arc<str>, Arc<AtomicU64>>>,
}

impl RuleManager {
    /// A manager bound to `detector`.
    pub fn new(detector: Arc<LocalEventDetector>) -> Self {
        RuleManager {
            detector,
            next: AtomicU64::new(1),
            deletions: AtomicU64::new(0),
            rules: RwLock::new(HashMap::new()),
            by_name: RwLock::new(HashMap::new()),
            priority_classes: RwLock::new(HashMap::new()),
            hits: Mutex::default(),
        }
    }

    /// Defines (or redefines) a named priority class at `level`. Classes
    /// are totally ordered by their level; rules may then be assigned by
    /// name ([`RuleOptions::priority_class`]).
    pub fn define_priority_class(&self, name: &str, level: u32) {
        self.priority_classes.write().insert(name.to_string(), level);
    }

    /// Resolves a named priority class.
    pub fn priority_class_level(&self, name: &str) -> Option<u32> {
        self.priority_classes.read().get(name).copied()
    }

    /// The bound detector.
    pub fn detector(&self) -> &Arc<LocalEventDetector> {
        &self.detector
    }

    /// Defines (and enables) a rule on `event`.
    ///
    /// Deferred rules are rewritten at definition time: the subscription
    /// goes to `A*(begin-transaction, event, pre-commit-transaction)` and
    /// the rule executes as an immediate rule at pre-commit, exactly once
    /// per transaction (§3.1).
    pub fn define_rule(
        &self,
        name: &str,
        event: EventId,
        condition: CondFn,
        action: ActionFn,
        opts: RuleOptions,
    ) -> Result<RuleId, RuleError> {
        if self.by_name.read().contains_key(name) {
            return Err(RuleError::Duplicate(name.to_string()));
        }
        let id = RuleId(self.next.fetch_add(1, Ordering::Relaxed));
        let coupling = opts.coupling.unwrap_or_default();
        let context = opts.context.unwrap_or_default();
        let priority = match (&opts.priority, &opts.priority_class) {
            (Some(p), _) => *p,
            (None, Some(class)) => self
                .priority_class_level(class)
                .ok_or_else(|| RuleError::UnknownPriorityClass(class.clone()))?,
            (None, None) => DEFAULT_PRIORITY,
        };
        let subscribed_event = match coupling {
            CouplingMode::Deferred => self.detector.define_deferred(event),
            _ => event,
        };
        let name: Arc<str> = Arc::from(name);
        let hits = self.hits.lock().entry(name.clone()).or_default().clone();
        let rule = Rule {
            id,
            name,
            event,
            subscribed_event,
            context,
            coupling,
            priority,
            trigger: opts.trigger.unwrap_or_default(),
            // A fresh tick: strictly later than every already-signalled
            // occurrence, so NOW excludes them all. Replay pins the
            // original tick instead.
            defined_at: opts.defined_at.unwrap_or_else(|| self.detector.clock().tick()),
            enabled: true,
            condition,
            action,
            hits,
        };
        self.detector.subscribe(subscribed_event, context, id.0)?;
        self.by_name.write().insert(rule.name.clone(), id);
        self.rules.write().insert(id, rule);
        Ok(id)
    }

    /// Looks a rule up by name.
    pub fn lookup(&self, name: &str) -> Option<RuleId> {
        self.by_name.read().get(name).copied()
    }

    /// Runs `f` over the rule (read access).
    pub fn with_rule<T>(&self, id: RuleId, f: impl FnOnce(&Rule) -> T) -> Result<T, RuleError> {
        let rules = self.rules.read();
        rules.get(&id).map(f).ok_or(RuleError::Unknown(id))
    }

    /// Disables a rule: unsubscribes (the context counter drops; detection
    /// in that context stops if this was the last subscriber).
    pub fn disable(&self, id: RuleId) -> Result<(), RuleError> {
        let mut rules = self.rules.write();
        let rule = rules.get_mut(&id).ok_or(RuleError::Unknown(id))?;
        if rule.enabled {
            rule.enabled = false;
            self.detector.unsubscribe(rule.subscribed_event, rule.context, id.0)?;
        }
        Ok(())
    }

    /// Re-enables a disabled rule. The `NOW` cutoff moves to re-enable time
    /// (a fresh subscription starts detecting from scratch).
    pub fn enable(&self, id: RuleId) -> Result<(), RuleError> {
        self.enable_at(id, None)
    }

    /// Re-enables a disabled rule, optionally pinning the `defined_at`
    /// timestamp instead of drawing a fresh tick (catalog replay restores
    /// the originally recorded re-enable cutoff).
    pub fn enable_at(&self, id: RuleId, defined_at: Option<u64>) -> Result<(), RuleError> {
        let mut rules = self.rules.write();
        let rule = rules.get_mut(&id).ok_or(RuleError::Unknown(id))?;
        if !rule.enabled {
            rule.enabled = true;
            rule.defined_at = defined_at.unwrap_or_else(|| self.detector.clock().tick());
            self.detector.subscribe(rule.subscribed_event, rule.context, id.0)?;
        }
        Ok(())
    }

    /// Deletes a rule entirely.
    pub fn delete(&self, id: RuleId) -> Result<(), RuleError> {
        let mut rules = self.rules.write();
        let rule = rules.remove(&id).ok_or(RuleError::Unknown(id))?;
        self.deletions.fetch_add(1, Ordering::Release);
        if rule.enabled {
            self.detector.unsubscribe(rule.subscribed_event, rule.context, id.0)?;
        }
        self.by_name.write().remove(&rule.name);
        Ok(())
    }

    /// How many rules have been deleted: a caller holding what it read of
    /// a rule knows the rule still exists while this has not moved.
    pub(crate) fn deletions(&self) -> u64 {
        self.deletions.load(Ordering::Acquire)
    }

    /// Changes a rule's priority class at run time ("this approach allows
    /// us to change rule priority categories based on the context").
    pub fn set_priority(&self, id: RuleId, priority: u32) -> Result<(), RuleError> {
        let mut rules = self.rules.write();
        let rule = rules.get_mut(&id).ok_or(RuleError::Unknown(id))?;
        rule.priority = priority;
        Ok(())
    }

    /// Whether a rule is currently enabled.
    pub fn is_enabled(&self, id: RuleId) -> bool {
        self.rules.read().get(&id).is_some_and(|r| r.enabled)
    }

    /// Number of defined rules.
    pub fn len(&self) -> usize {
        self.rules.read().len()
    }

    /// True when no rules are defined.
    pub fn is_empty(&self) -> bool {
        self.rules.read().is_empty()
    }

    /// `(rule name, firings)` for every name that fired, ascending by name.
    pub fn hit_counts(&self) -> Vec<(Arc<str>, u64)> {
        let hits = self.hits.lock();
        let counts = hits.iter().map(|(name, n)| (name.clone(), n.load(Ordering::Relaxed)));
        counts.filter(|&(_, n)| n > 0).collect()
    }

    /// Snapshot of `(id, name, enabled)` for tooling.
    pub fn list(&self) -> Vec<(RuleId, Arc<str>, bool)> {
        let mut out: Vec<_> =
            self.rules.read().values().map(|r| (r.id, r.name.clone(), r.enabled)).collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_detector::graph::PrimTarget;
    use sentinel_snoop::ast::EventModifier;
    use sentinel_snoop::parse_event_expr;
    use std::sync::atomic::AtomicUsize;

    fn setup() -> (Arc<LocalEventDetector>, RuleManager) {
        let det = Arc::new(LocalEventDetector::new(0));
        det.declare_primitive("ev", "C", EventModifier::End, "void f()", PrimTarget::AnyInstance)
            .unwrap();
        let mgr = RuleManager::new(det.clone());
        (det, mgr)
    }

    fn noop_rule(mgr: &RuleManager, name: &str, ev: EventId, opts: RuleOptions) -> RuleId {
        mgr.define_rule(name, ev, Arc::new(|_| true), Arc::new(|_| {}), opts).unwrap()
    }

    #[test]
    fn define_subscribes_in_context() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        let id = noop_rule(&mgr, "R1", ev, RuleOptions::default().context(ParamContext::Chronicle));
        let dets = det.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1));
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].subscribers, vec![id.0]);
        assert_eq!(dets[0].context, ParamContext::Chronicle);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        noop_rule(&mgr, "R1", ev, RuleOptions::default());
        assert!(matches!(
            mgr.define_rule("R1", ev, Arc::new(|_| true), Arc::new(|_| {}), RuleOptions::default()),
            Err(RuleError::Duplicate(_))
        ));
    }

    #[test]
    fn disable_enable_round_trip() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        let id = noop_rule(&mgr, "R1", ev, RuleOptions::default());
        mgr.disable(id).unwrap();
        assert!(!mgr.is_enabled(id));
        let dets = det.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1));
        assert!(dets.is_empty(), "disabled rule must not be notified");
        mgr.enable(id).unwrap();
        let dets = det.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1));
        assert_eq!(dets.len(), 1);
        // Idempotent disable/enable.
        mgr.enable(id).unwrap();
        mgr.disable(id).unwrap();
        mgr.disable(id).unwrap();
    }

    #[test]
    fn delete_removes_rule_and_subscription() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        let id = noop_rule(&mgr, "R1", ev, RuleOptions::default());
        mgr.delete(id).unwrap();
        assert_eq!(mgr.len(), 0);
        assert!(mgr.lookup("R1").is_none());
        assert!(det
            .notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1))
            .is_empty());
        assert!(matches!(mgr.delete(id), Err(RuleError::Unknown(_))));
    }

    #[test]
    fn deferred_rule_subscribes_to_a_star_rewrite() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        let id = mgr
            .define_rule(
                "RD",
                ev,
                Arc::new(|_| true),
                Arc::new(move |_| {
                    f2.fetch_add(1, Ordering::SeqCst);
                }),
                RuleOptions::default().coupling(CouplingMode::Deferred),
            )
            .unwrap();
        mgr.with_rule(id, |r| {
            assert_ne!(r.event, r.subscribed_event, "rewrite must wrap the event");
            assert_eq!(r.coupling, CouplingMode::Deferred);
        })
        .unwrap();

        // Triggering events mid-transaction do not notify the rule…
        det.signal_explicit("begin-transaction", Vec::new(), Some(1));
        let dets = det.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1));
        assert!(dets.is_empty());
        det.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1));
        // …but pre-commit does, exactly once.
        let dets = det.signal_explicit("pre-commit-transaction", Vec::new(), Some(1));
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].subscribers, vec![id.0]);
        assert_eq!(
            dets[0].occurrence.param_list().iter().filter(|p| &*p.event_name == "ev").count(),
            2,
            "net-effect parameters of both triggerings"
        );
    }

    #[test]
    fn composite_event_rule_via_expression() {
        let (det, mgr) = setup();
        det.declare_primitive("ev2", "C", EventModifier::End, "void g()", PrimTarget::AnyInstance)
            .unwrap();
        let expr = parse_event_expr("ev ^ ev2").unwrap();
        let and = det.define_named("both", &expr).unwrap();
        let id =
            noop_rule(&mgr, "R1", and, RuleOptions::default().context(ParamContext::Cumulative));
        det.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(1));
        let dets = det.notify_method("C", "void g()", EventModifier::End, 1, Vec::new(), Some(1));
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].subscribers, vec![id.0]);
    }

    #[test]
    fn named_priority_classes_resolve_and_unknown_errors() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        mgr.define_priority_class("URGENT", 99);
        let id = mgr
            .define_rule(
                "R1",
                ev,
                Arc::new(|_| true),
                Arc::new(|_| {}),
                RuleOptions::default().priority_class("URGENT"),
            )
            .unwrap();
        mgr.with_rule(id, |r| assert_eq!(r.priority, 99)).unwrap();
        assert!(matches!(
            mgr.define_rule(
                "R2",
                ev,
                Arc::new(|_| true),
                Arc::new(|_| {}),
                RuleOptions::default().priority_class("GHOST"),
            ),
            Err(RuleError::UnknownPriorityClass(_))
        ));
        // Numeric priority wins over a named class when both are given.
        let id = mgr
            .define_rule(
                "R3",
                ev,
                Arc::new(|_| true),
                Arc::new(|_| {}),
                RuleOptions::default().priority(5).priority_class("URGENT"),
            )
            .unwrap();
        mgr.with_rule(id, |r| assert_eq!(r.priority, 5)).unwrap();
    }

    #[test]
    fn runtime_priority_change() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        let id = noop_rule(&mgr, "R1", ev, RuleOptions::default().priority(1));
        mgr.set_priority(id, 42).unwrap();
        mgr.with_rule(id, |r| assert_eq!(r.priority, 42)).unwrap();
        assert!(mgr.set_priority(RuleId(999), 1).is_err());
    }

    #[test]
    fn list_is_sorted_and_complete() {
        let (det, mgr) = setup();
        let ev = det.lookup("ev").unwrap();
        noop_rule(&mgr, "B", ev, RuleOptions::default());
        noop_rule(&mgr, "A", ev, RuleOptions::default());
        let listed = mgr.list();
        assert_eq!(listed.len(), 2);
        assert!(listed[0].0 < listed[1].0);
    }
}
