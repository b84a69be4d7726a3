//! Shared workload builders for the BEAST-style benchmarks and ablations.
//!
//! BEAST (Geppert et al., the active-DBMS benchmark contemporary with
//! Sentinel) structures its measurements as: event detection overhead
//! (primitive, composite per operator, per context) and rule management /
//! execution overhead (firing, multiple rules, nested cascades). The
//! builders here assemble Sentinel systems and detectors for each of those
//! measurement classes for the `beast` binary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::LocalEventDetector;
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::sentinel::SentinelConfig;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, ParamContext};
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

/// Method signature used by every benchmark class.
pub const SIG: &str = "void poke(int v)";

/// A Sentinel system with one reactive class `BEAST` and a `poke` method.
pub fn beast_system(mode: ExecutionMode) -> Arc<Sentinel> {
    let s = Sentinel::in_memory_with(SentinelConfig { mode, ..SentinelConfig::default() });
    s.db()
        .register_class(
            ClassDef::new("BEAST").extends("REACTIVE").attr("v", AttrType::Int).method(SIG),
        )
        .expect("class");
    s.db().register_method(
        "BEAST",
        SIG,
        Arc::new(|ctx| {
            let v = ctx.arg("v").and_then(|x| x.as_int()).unwrap_or(0);
            ctx.set_attr("v", v)?;
            Ok(AttrValue::Null)
        }),
    );
    s.declare_event("poke", "BEAST", EventModifier::End, SIG, PrimTarget::AnyInstance)
        .expect("event");
    s
}

/// Creates `n` BEAST objects inside `txn`.
pub fn objects(s: &Sentinel, txn: TxnId, n: usize) -> Vec<Oid> {
    (0..n)
        .map(|i| {
            s.create_object(txn, &ObjectState::new("BEAST").with("v", i as i64)).expect("object")
        })
        .collect()
}

/// Invokes `poke` once.
pub fn poke(s: &Sentinel, txn: TxnId, oid: Oid, v: i64) {
    s.invoke(txn, oid, SIG, vec![("v".into(), v.into())]).expect("poke");
}

/// A standalone detector with `n` independent primitive leaves
/// `e0 … e(n-1)`, each on its own class `C<i>`.
pub fn detector_with_leaves(n: usize) -> LocalEventDetector {
    let d = LocalEventDetector::new(0);
    for i in 0..n {
        d.declare_primitive(
            &format!("e{i}"),
            &format!("C{i}"),
            EventModifier::End,
            SIG,
            PrimTarget::AnyInstance,
        )
        .expect("leaf");
    }
    d
}

/// Fires leaf `i` of a [`detector_with_leaves`] detector.
pub fn fire_leaf(d: &LocalEventDetector, i: usize, txn: u64) -> usize {
    d.notify_method(&format!("C{i}"), SIG, EventModifier::End, 1, Vec::new(), Some(txn)).len()
}

/// Builds a left-deep operator chain of the given depth, e.g. for `^`:
/// `((e0 ^ e1) ^ e2) ^ e3 …`, subscribes in `ctx`, returns the detector.
pub fn chain_detector(op: &str, depth: usize, ctx: ParamContext) -> LocalEventDetector {
    let d = detector_with_leaves(depth + 1);
    let mut expr = "e0".to_string();
    for i in 1..=depth {
        expr = format!("({expr} {op} e{i})");
    }
    let id = d.define_named("chain", &parse_event_expr(&expr).unwrap()).expect("chain");
    d.subscribe(id, ctx, 1).expect("subscribe");
    d
}

/// Counts rule firings via a shared counter.
pub struct FiringCounter(pub Arc<AtomicUsize>);

impl FiringCounter {
    /// New zeroed counter.
    pub fn new() -> Self {
        FiringCounter(Arc::new(AtomicUsize::new(0)))
    }

    /// Current count.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

impl Default for FiringCounter {
    fn default() -> Self {
        Self::new()
    }
}

/// Defines `n` counting rules on event `event` with priority class `prio`.
pub fn counting_rules(s: &Sentinel, event: &str, n: usize, prio: u32) -> FiringCounter {
    let counter = FiringCounter::new();
    for i in 0..n {
        let c = counter.0.clone();
        s.define_rule(
            &format!("count_{event}_{prio}_{i}"),
            event,
            Arc::new(|_| true),
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
            RuleOptions::default().priority(prio),
        )
        .expect("rule");
    }
    counter
}

/// Defines a chain of `depth` rules where rule `i` raises the explicit
/// event that triggers rule `i+1` (nested cascade). Returns the counter
/// incremented by the deepest rule.
pub fn nested_cascade(s: &Arc<Sentinel>, depth: usize) -> FiringCounter {
    let counter = FiringCounter::new();
    for i in 0..depth {
        s.detector().declare_explicit(&format!("cascade{i}"));
    }
    for i in 0..depth {
        let s2 = s.clone();
        let c = counter.0.clone();
        let last = i + 1 == depth;
        let next = format!("cascade{}", i + 1);
        s.define_rule(
            &format!("cascade_rule{i}"),
            &format!("cascade{i}"),
            Arc::new(|_| true),
            Arc::new(move |inv| {
                if last {
                    c.fetch_add(1, Ordering::SeqCst);
                } else {
                    s2.raise(inv.txn.map(TxnId), &next, Vec::new()).expect("raise");
                }
            }),
            RuleOptions::default(),
        )
        .expect("cascade rule");
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beast_system_pokes() {
        let s = beast_system(ExecutionMode::Inline);
        let c = counting_rules(&s, "poke", 3, 10);
        let t = s.begin().unwrap();
        let objs = objects(&s, t, 2);
        poke(&s, t, objs[0], 1);
        s.commit(t).unwrap();
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn chain_detector_detects_at_full_depth() {
        let d = chain_detector("^", 3, ParamContext::Cumulative);
        let mut total = 0;
        for i in 0..4 {
            total += fire_leaf(&d, i, 1);
        }
        assert_eq!(total, 1, "AND chain completes once all leaves fired");
    }

    #[test]
    fn cascade_reaches_bottom() {
        let s = beast_system(ExecutionMode::Inline);
        let c = nested_cascade(&s, 5);
        let t = s.begin().unwrap();
        s.raise(Some(t), "cascade0", Vec::new()).unwrap();
        s.commit(t).unwrap();
        assert_eq!(c.get(), 1);
    }
}
