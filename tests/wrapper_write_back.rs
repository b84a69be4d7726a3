//! The wrapper's write-back, seen from rules.
//!
//! `Database::invoke` lets a method body work on one decoded copy of the
//! receiver and stores it once when the body returns. Rules run before and
//! after the body, in the same transaction, through the store — these tests
//! pin what each side sees of the other.

use std::sync::Arc;

use parking_lot::Mutex;
use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

const BUMP: &str = "int bump(int by)";

/// A `COUNTER` whose `bump` adds `by` to `n` and returns the new value.
fn counters() -> Arc<Sentinel> {
    let s = Sentinel::in_memory();
    s.db()
        .register_class(
            ClassDef::new("COUNTER").extends("REACTIVE").attr("n", AttrType::Int).method(BUMP),
        )
        .unwrap();
    s.db().register_method(
        "COUNTER",
        BUMP,
        Arc::new(|ctx| {
            let by = ctx.arg("by").and_then(AttrValue::as_int).unwrap_or(0);
            let n = ctx.get_attr("n")?.as_int().unwrap_or(0);
            ctx.set_attr("n", n + by)?;
            Ok(AttrValue::Int(n + by))
        }),
    );
    s.declare_event("bump_begin", "COUNTER", EventModifier::Begin, BUMP, PrimTarget::AnyInstance)
        .unwrap();
    s.declare_event("bump_end", "COUNTER", EventModifier::End, BUMP, PrimTarget::AnyInstance)
        .unwrap();
    s
}

fn counter(s: &Sentinel, txn: TxnId, n: i64) -> Oid {
    s.create_object(txn, &ObjectState::new("COUNTER").with("n", n)).unwrap()
}

fn n_of(s: &Sentinel, txn: TxnId, oid: Oid) -> i64 {
    s.get_object(txn, oid).unwrap().get("n").and_then(AttrValue::as_int).unwrap()
}

fn by(n: i64) -> Vec<(String, AttrValue)> {
    vec![("by".into(), n.into())]
}

#[test]
fn a_rule_on_the_end_edge_sees_the_written_state() {
    let s = counters();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (s2, log) = (s.clone(), seen.clone());
    s.define_rule(
        "read_back",
        "bump_end",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let oid = Oid(inv.occurrence.source.unwrap());
            log.lock().push(n_of(&s2, TxnId(inv.txn.unwrap()), oid));
        }),
        RuleOptions::default(),
    )
    .unwrap();
    let t = s.begin().unwrap();
    let c = counter(&s, t, 10);
    s.invoke(t, c, BUMP, by(5)).unwrap();
    assert_eq!(*seen.lock(), vec![15]);
    s.commit(t).unwrap();
}

#[test]
fn a_body_sees_what_a_rule_on_the_begin_edge_wrote_to_its_receiver() {
    let s = counters();
    let s2 = s.clone();
    s.define_rule(
        "reset_first",
        "bump_begin",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let (txn, oid) = (TxnId(inv.txn.unwrap()), Oid(inv.occurrence.source.unwrap()));
            let mut state = s2.get_object(txn, oid).unwrap();
            state.set("n", 100);
            s2.db().store().update(txn, oid, &state).unwrap();
        }),
        RuleOptions::default(),
    )
    .unwrap();
    let t = s.begin().unwrap();
    let c = counter(&s, t, 10);
    let after = s.invoke(t, c, BUMP, by(5)).unwrap();
    assert_eq!(after.as_int(), Some(105), "the body read the rule's write, not its stale copy");
    assert_eq!(n_of(&s, t, c), 105);
    s.commit(t).unwrap();
}

#[test]
fn a_panicking_rule_bodys_writes_are_rolled_back_after_write_back() {
    let s = counters();
    let t0 = s.begin().unwrap();
    let other = counter(&s, t0, 1);
    s.commit(t0).unwrap();
    let s2 = s.clone();
    s.define_rule(
        "bump_other_then_fail",
        "bump_end",
        Arc::new(move |inv| inv.occurrence.source != Some(other.0)),
        Arc::new(move |inv| {
            // The nested invocation stores `other` when its body returns;
            // the panic comes after that write-back.
            s2.invoke(TxnId(inv.txn.unwrap()), other, BUMP, by(41)).unwrap();
            panic!("rule body fails after its write");
        }),
        RuleOptions::default(),
    )
    .unwrap();
    let t = s.begin().unwrap();
    let c = counter(&s, t, 10);
    s.invoke(t, c, BUMP, by(5)).unwrap();
    assert_eq!(n_of(&s, t, other), 1, "the failed rule's write was undone to its savepoint");
    assert_eq!(n_of(&s, t, c), 15, "the triggering invocation's own write stays");
    s.commit(t).unwrap();
    let t2 = s.begin().unwrap();
    assert_eq!((n_of(&s, t2, other), n_of(&s, t2, c)), (1, 15));
    s.commit(t2).unwrap();
}
