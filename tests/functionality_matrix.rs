//! SEC-2.3: the paper's functionality matrix.
//!
//! "The architecture shown in Figure 1 supports the following features:
//!   i)   detection of primitive events,
//!   ii)  detection of local composite events,
//!   iii) parameter computation of composite events,
//!   iv)  separation of composite event detection from application execution,
//!   v)   execution of rules in immediate and deferred coupling modes,
//!   vi)  prioritized and concurrent rule execution."
//!
//! One test per feature, each driving the full integrated stack.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{DetectorPool, LocalEventDetector};
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::sentinel::SentinelConfig;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{CouplingMode, ParamContext};
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

const SET_PRICE: &str = "void set_price(float price)";
const SELL: &str = "int sell_stock(int qty)";

fn stock_system(mode: ExecutionMode) -> Arc<Sentinel> {
    let s = Sentinel::in_memory_with(SentinelConfig { mode, ..SentinelConfig::default() });
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
            let q = ctx.arg("qty").and_then(|v| v.as_int()).unwrap_or(0);
            let h = ctx.get_attr("holdings")?.as_int().unwrap_or(0);
            ctx.set_attr("holdings", h - q)?;
            Ok(AttrValue::Int(h - q))
        }),
    );
    s.declare_event("e1", "STOCK", EventModifier::End, SELL, PrimTarget::AnyInstance).unwrap();
    s.declare_event("e2", "STOCK", EventModifier::Begin, SET_PRICE, PrimTarget::AnyInstance)
        .unwrap();
    s.declare_event("e3", "STOCK", EventModifier::End, SET_PRICE, PrimTarget::AnyInstance).unwrap();
    s
}

fn new_stock(s: &Sentinel, txn: TxnId, symbol: &str) -> Oid {
    s.create_object(
        txn,
        &ObjectState::new("STOCK")
            .with("symbol", symbol)
            .with("price", 100.0)
            .with("holdings", 100),
    )
    .unwrap()
}

/// (i) Detection of primitive events: begin- and end-variants, class- and
/// instance-level.
#[test]
fn i_primitive_event_detection() {
    let s = stock_system(ExecutionMode::Inline);
    let begin_count = Arc::new(AtomicUsize::new(0));
    let end_count = Arc::new(AtomicUsize::new(0));
    let (b, e) = (begin_count.clone(), end_count.clone());
    s.define_rule(
        "on_begin",
        "e2",
        Arc::new(|_| true),
        Arc::new(move |_| {
            b.fetch_add(1, Ordering::SeqCst);
        }),
        RuleOptions::default(),
    )
    .unwrap();
    s.define_rule(
        "on_end",
        "e3",
        Arc::new(|_| true),
        Arc::new(move |_| {
            e.fetch_add(1, Ordering::SeqCst);
        }),
        RuleOptions::default(),
    )
    .unwrap();
    let t = s.begin().unwrap();
    let ibm = new_stock(&s, t, "IBM");
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap();
    s.commit(t).unwrap();
    assert_eq!(begin_count.load(Ordering::SeqCst), 1);
    assert_eq!(end_count.load(Ordering::SeqCst), 1);

    // Instance-level.
    let t = s.begin().unwrap();
    let dec = new_stock(&s, t, "DEC");
    let inst = Arc::new(AtomicUsize::new(0));
    let i2 = inst.clone();
    s.declare_event(
        "dec_only",
        "STOCK",
        EventModifier::End,
        SET_PRICE,
        PrimTarget::Instance(dec.0),
    )
    .unwrap();
    s.define_rule(
        "dec_rule",
        "dec_only",
        Arc::new(|_| true),
        Arc::new(move |_| {
            i2.fetch_add(1, Ordering::SeqCst);
        }),
        RuleOptions::default(),
    )
    .unwrap();
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 2.0.into())]).unwrap();
    assert_eq!(inst.load(Ordering::SeqCst), 0, "IBM must not fire DEC's instance event");
    s.invoke(t, dec, SET_PRICE, vec![("price".into(), 2.0.into())]).unwrap();
    assert_eq!(inst.load(Ordering::SeqCst), 1);
    s.commit(t).unwrap();
}

/// (ii) Detection of local composite events: every Snoop operator detects
/// through the integrated stack.
#[test]
fn ii_composite_event_detection() {
    let s = stock_system(ExecutionMode::Inline);
    let fired = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    for (rule, event_name, expr) in [
        ("r_and", "x_and", "e1 ^ e3"),
        ("r_or", "x_or", "e1 | e3"),
        ("r_seq", "x_seq", "(e1 ; e3)"),
        ("r_any", "x_any", "ANY(2, e1, e2, e3)"),
        ("r_astar", "x_astar", "A*(e2, e1, e3)"),
    ] {
        s.define_event(event_name, expr).unwrap();
        let f = fired.clone();
        s.define_rule(
            rule,
            event_name,
            Arc::new(|_| true),
            Arc::new(move |_| f.lock().push(rule)),
            RuleOptions::default(),
        )
        .unwrap();
    }
    let t = s.begin().unwrap();
    let ibm = new_stock(&s, t, "IBM");
    s.invoke(t, ibm, SELL, vec![("qty".into(), 1.into())]).unwrap(); // e1
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap(); // e2, e3
    s.commit(t).unwrap();
    let fired = fired.lock().clone();
    for expected in ["r_and", "r_or", "r_seq", "r_any"] {
        assert!(fired.contains(&expected), "{expected} missing from {fired:?}");
    }
    // A*(e2, e1, e3): e2 opens the window but no e1 occurs inside it
    // (the e1 happened before e2), so it must NOT fire.
    assert!(!fired.contains(&"r_astar"));
}

/// (iii) Parameter computation: the rule receives the linked parameter
/// list of constituent primitive events with oid + atomic values.
#[test]
fn iii_parameter_computation() {
    let s = stock_system(ExecutionMode::Inline);
    s.define_event("pair", "(e1 ; e3)").unwrap();
    let captured = Arc::new(Mutex::new(Vec::new()));
    let c = captured.clone();
    s.define_rule(
        "capture",
        "pair",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            for prim in inv.occurrence.param_list() {
                c.lock().push((prim.event_name.to_string(), prim.source, prim.params.clone()));
            }
        }),
        RuleOptions::default().context(ParamContext::Chronicle),
    )
    .unwrap();
    let t = s.begin().unwrap();
    let ibm = new_stock(&s, t, "IBM");
    s.invoke(t, ibm, SELL, vec![("qty".into(), 42.into())]).unwrap();
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 77.5.into())]).unwrap();
    s.commit(t).unwrap();

    let captured = captured.lock();
    assert_eq!(captured.len(), 2, "both constituents in chronological order");
    assert_eq!(captured[0].0, "e1");
    assert_eq!(captured[0].1, Some(ibm.0), "oid is part of the parameters");
    assert_eq!(captured[0].2[0].1.as_i64(), Some(42));
    assert_eq!(captured[1].0, "e3");
    assert_eq!(captured[1].2[0].1.as_f64(), Some(77.5));
}

/// (iv) Separation of composite event detection from application
/// execution: the detector runs on its own thread behind a channel and
/// produces identical detections.
#[test]
fn iv_detector_separated_from_application() {
    let det = Arc::new(LocalEventDetector::new(7));
    det.declare_primitive("ev", "C", EventModifier::End, "void f()", PrimTarget::AnyInstance)
        .unwrap();
    let seq = det
        .define_named("evseq", &sentinel_core::snoop::parse_event_expr("(ev ; ev)").unwrap())
        .unwrap();
    det.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
    let svc = DetectorPool::spawn(det, 1);
    let sig = || Signal::Method {
        class: "C".into(),
        sig: "void f()".into(),
        edge: EventModifier::End,
        oid: 1,
        params: Vec::new(),
        txn: Some(1),
    };
    // Immediate-mode protocol: the application blocks on the reply.
    assert!(svc.signal_sync(sig()).is_empty());
    let dets = svc.signal_sync(sig());
    assert_eq!(dets.len(), 1);
    assert_eq!(dets[0].occurrence.param_list().len(), 2);
}

/// (v) Immediate and deferred coupling modes.
#[test]
fn v_immediate_and_deferred_coupling() {
    let s = stock_system(ExecutionMode::Inline);
    let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let (l1, l2) = (log.clone(), log.clone());
    s.define_rule(
        "imm",
        "e3",
        Arc::new(|_| true),
        Arc::new(move |_| l1.lock().push("immediate")),
        RuleOptions::default(),
    )
    .unwrap();
    s.define_rule(
        "def",
        "e3",
        Arc::new(|_| true),
        Arc::new(move |_| l2.lock().push("deferred")),
        RuleOptions::default().coupling(CouplingMode::Deferred),
    )
    .unwrap();
    let t = s.begin().unwrap();
    let ibm = new_stock(&s, t, "IBM");
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap();
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 2.0.into())]).unwrap();
    assert_eq!(*log.lock(), vec!["immediate", "immediate"], "deferred not yet");
    s.commit(t).unwrap();
    assert_eq!(
        *log.lock(),
        vec!["immediate", "immediate", "deferred"],
        "deferred exactly once at commit"
    );
}

/// (vi) Prioritized serial + concurrent rule execution.
#[test]
fn vi_prioritized_and_concurrent_execution() {
    let s = stock_system(ExecutionMode::Threaded { workers: 4 });
    let order = Arc::new(Mutex::new(Vec::<u32>::new()));
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    for (name, prio) in [("p30a", 30u32), ("p30b", 30), ("p20", 20), ("p10", 10)] {
        let o = order.clone();
        let (lv, pk) = (live.clone(), peak.clone());
        let prio_copy = prio;
        s.define_rule(
            name,
            "e3",
            Arc::new(|_| true),
            Arc::new(move |_| {
                let now = lv.fetch_add(1, Ordering::SeqCst) + 1;
                pk.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(25));
                o.lock().push(prio_copy);
                lv.fetch_sub(1, Ordering::SeqCst);
            }),
            RuleOptions::default().priority(prio),
        )
        .unwrap();
    }
    let t = s.begin().unwrap();
    let ibm = new_stock(&s, t, "IBM");
    s.invoke(t, ibm, SET_PRICE, vec![("price".into(), 1.0.into())]).unwrap();
    s.commit(t).unwrap();
    let order = order.lock().clone();
    assert_eq!(order.len(), 4);
    let mut sorted = order.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(order, sorted, "classes executed high→low: {order:?}");
    assert!(peak.load(Ordering::SeqCst) >= 2, "the two class-30 rules should have overlapped");
}
