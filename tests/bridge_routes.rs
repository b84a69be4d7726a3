//! Which wrapper edges are primitive events.
//!
//! The post-processor inserts `Notify` only into the wrapper edges the
//! class's event interface declares (§3.2.1). At run time a wrapper signals,
//! per edge, the classes of its chain its cached route names: an edge with
//! none is no event — not counted, not recorded — and an event declared
//! after the route was cached is signalled by the very next invocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::EventRecorder;
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

const SET: &str = "void set(int v)";
const PEEK: &str = "int peek()";

/// An `ITEM` (a `REACTIVE` subclass) with `set` and `peek`, one object of
/// it, and an open transaction.
fn item() -> (Arc<Sentinel>, Oid, TxnId) {
    let s = Sentinel::in_memory();
    let db = s.db();
    let def = ClassDef::new("ITEM").extends("REACTIVE").attr("v", AttrType::Int);
    db.register_class(def.method(SET).method(PEEK)).unwrap();
    db.register_method(
        "ITEM",
        SET,
        Arc::new(|ctx| {
            ctx.set_attr("v", ctx.arg("v").cloned().unwrap_or(AttrValue::Null))?;
            Ok(AttrValue::Null)
        }),
    );
    db.register_method("ITEM", PEEK, Arc::new(|ctx| ctx.get_attr("v")));
    let txn = s.begin().unwrap();
    let oid = s.create_object(txn, &ObjectState::new("ITEM").with("v", 0i64)).unwrap();
    (s, oid, txn)
}

fn set(s: &Sentinel, txn: TxnId, oid: Oid, v: i64) {
    s.invoke(txn, oid, SET, vec![("v".into(), v.into())]).unwrap();
}

fn signals(s: &Sentinel) -> u64 {
    s.detector().stats().signals
}

/// Defines a rule on `event` that counts its firings.
fn counting_rule(s: &Sentinel, name: &str, event: &str) -> Arc<AtomicU64> {
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    s.define_rule(
        name,
        event,
        Arc::new(|_| true),
        Arc::new(move |_| {
            f.fetch_add(1, Ordering::Relaxed);
        }),
        RuleOptions::default(),
    )
    .unwrap();
    fired
}

#[test]
fn an_edge_no_class_declares_an_event_on_is_no_signal() {
    let (s, oid, txn) = item();
    s.declare_event("set_end", "ITEM", EventModifier::End, SET, PrimTarget::AnyInstance).unwrap();
    let recorder = Arc::new(EventRecorder::default());
    s.detector().set_event_sink(recorder.clone());
    s.invoke(txn, oid, PEEK, Vec::new()).unwrap(); // the wrapper and its route are cached

    let before = signals(&s);
    for _ in 0..3 {
        s.invoke(txn, oid, PEEK, Vec::new()).unwrap();
    }
    assert_eq!(signals(&s), before, "peek has no event on ITEM or REACTIVE");
    assert!(recorder.take().is_empty(), "nothing journalled for peek");

    // A direct notification of a class with no events at all, both edges.
    for edge in [EventModifier::Begin, EventModifier::End] {
        let dets = s.detector().notify_method("LOOSE", PEEK, edge, oid.0, &[], Some(txn.0));
        assert!(dets.is_empty());
    }
    assert_eq!(signals(&s), before);
    assert!(recorder.take().is_empty());

    // The declared edge of `set` is the one signal of its invocation.
    set(&s, txn, oid, 1);
    assert_eq!(signals(&s), before + 1);
    assert_eq!(recorder.take().len(), 1);
    s.commit(txn).unwrap();
}

#[test]
fn an_event_declared_after_the_route_is_cached_is_signalled_by_the_next_invoke() {
    // (class, modifier, instance-targeted, signals and firings of one invoke)
    let cases = [
        ("ITEM", EventModifier::Begin, false, 1),
        ("ITEM", EventModifier::Both, false, 2),
        ("REACTIVE", EventModifier::Begin, false, 1),
        ("REACTIVE", EventModifier::Both, false, 2),
        ("ITEM", EventModifier::End, true, 1),
    ];
    for (class, modifier, instance, want) in cases {
        let (s, oid, txn) = item();
        set(&s, txn, oid, 1); // cached: a route with no class on either edge
        let target = if instance { PrimTarget::Instance(oid.0) } else { PrimTarget::AnyInstance };
        s.declare_event("late", class, modifier, SET, target).unwrap();
        let fired = counting_rule(&s, "on_late", "late");
        let before = signals(&s);
        set(&s, txn, oid, 2);
        let case = format!("{class} {modifier:?} instance={instance}");
        assert_eq!(signals(&s) - before, want, "{case}");
        assert_eq!(fired.load(Ordering::Relaxed), want, "{case}");
        s.commit(txn).unwrap();
    }
}

#[test]
fn a_method_invoked_from_a_condition_signals_nothing() {
    // §3.2.1: conditions are side-effect free, so signalling is off while
    // one runs — also for a wrapper edge the route names.
    let (s, oid, txn) = item();
    let other = s.create_object(txn, &ObjectState::new("ITEM").with("v", 0i64)).unwrap();
    s.declare_event("set_end", "ITEM", EventModifier::End, SET, PrimTarget::AnyInstance).unwrap();
    let fired = counting_rule(&s, "count", "set_end");
    let s2 = Arc::downgrade(&s);
    s.define_rule(
        "invoking_condition",
        "set_end",
        Arc::new(move |inv| {
            let s = s2.upgrade().unwrap();
            s.invoke(TxnId(inv.txn.unwrap()), other, SET, vec![("v".into(), 7i64.into())]).unwrap();
            true
        }),
        Arc::new(|_| {}),
        RuleOptions::default(),
    )
    .unwrap();
    let before = signals(&s);
    set(&s, txn, oid, 1);
    assert_eq!(signals(&s) - before, 1, "only the application's own invocation");
    assert_eq!(fired.load(Ordering::Relaxed), 1);
    s.commit(txn).unwrap();
}
