//! End-to-end causal provenance: span links from primitive signal through
//! composite detection to rule condition/action and storage I/O, across
//! the threaded detector queue, in every parameter context — plus the
//! Chrome trace-event export contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{DetectorPool, LocalEventDetector};
use sentinel_core::obs::json::Value;
use sentinel_core::obs::span::{self, SpanRecord, TraceStore};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, ParamContext};
use sentinel_core::Sentinel;

const SIG: &str = "void f()";

fn traced_detector(app: u32) -> (Arc<LocalEventDetector>, Arc<TraceStore>) {
    let det = Arc::new(LocalEventDetector::new(app));
    let store = Arc::new(TraceStore::new());
    store.set_enabled(true);
    det.set_trace_store(store.clone());
    (det, store)
}

fn find_span(spans: &[SpanRecord], ctx: span::SpanContext) -> &SpanRecord {
    spans.iter().find(|s| s.trace == ctx.trace && s.span == ctx.span).expect("span recorded")
}

/// The ISSUE acceptance test: a rule on a SEQ composite. The detection
/// span must link to every constituent primitive's span, the condition
/// and action spans must parent on the occurrence's span, and the Chrome
/// export must parse as JSON containing all of them.
#[test]
fn seq_rule_fires_with_full_provenance_chain() {
    let s = Sentinel::in_memory();
    s.set_tracing(true);
    s.detector().declare_explicit("x");
    s.detector().declare_explicit("y");
    s.define_event("xy", "x ; y").unwrap();

    let action_trace = Arc::new(AtomicU64::new(0));
    let at = action_trace.clone();
    s.define_rule(
        "watch_xy",
        "xy",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            at.store(inv.occurrence.span.expect("traced occurrence").trace.0, Ordering::SeqCst);
        }),
        RuleOptions::default().context(ParamContext::Chronicle),
    )
    .unwrap();

    let t = s.begin().unwrap();
    s.raise(Some(t), "x", Vec::new()).unwrap();
    s.raise(Some(t), "y", Vec::new()).unwrap();
    s.commit(t).unwrap();

    let store = s.trace_store();
    let all = store.snapshot();

    // Exactly one detection of the composite.
    let detects: Vec<_> = all.iter().filter(|s| s.kind == "detect" && &*s.name == "xy").collect();
    assert_eq!(detects.len(), 1);
    let detect = detects[0];

    // It links to every constituent primitive: one `x`, one `y`.
    assert_eq!(detect.links.len(), 2, "one link per constituent");
    let linked: Vec<&SpanRecord> = detect.links.iter().map(|l| find_span(&all, *l)).collect();
    let mut linked_names: Vec<&str> = linked.iter().map(|s| &*s.name).collect();
    linked_names.sort_unstable();
    assert_eq!(linked_names, ["x", "y"]);
    assert!(linked.iter().all(|s| s.kind == "primitive"));

    // The terminator (`y`) anchors the detect span's trace and parent.
    let y_span = linked.iter().find(|s| &*s.name == "y").unwrap();
    assert_eq!(detect.trace, y_span.trace);
    assert_eq!(detect.parent, Some(y_span.span));

    // Condition and action parent on the detection span, same trace — and
    // the trace id the action observed matches.
    let cond = all
        .iter()
        .find(|s| s.kind == "condition" && &*s.name == "watch_xy")
        .expect("condition span");
    let act =
        all.iter().find(|s| s.kind == "action" && &*s.name == "watch_xy").expect("action span");
    for rule_span in [cond, act] {
        assert_eq!(rule_span.trace, detect.trace);
        assert_eq!(rule_span.parent, Some(detect.span));
    }
    assert_eq!(action_trace.load(Ordering::SeqCst), detect.trace.0);

    // The Chrome export is valid JSON and carries those spans.
    let export = s.export_chrome_trace();
    let parsed = Value::parse(&export).expect("export parses");
    let events = parsed.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
    for expected in ["detect:xy", "condition:watch_xy", "action:watch_xy", "primitive:x"] {
        assert!(names.contains(&expected), "export missing {expected}");
    }
    // Constituent links surface as flow-event pairs.
    assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("s")));
    assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("f")));
}

/// A trace started on the application thread must survive the detector
/// pool's queue hop: detections coming back over the async channel
/// carry the enqueuing thread's trace id.
#[test]
fn trace_id_survives_threaded_detector_queue() {
    let (det, store) = traced_detector(11);
    det.declare_primitive("ev", "C", EventModifier::End, SIG, PrimTarget::AnyInstance).unwrap();
    let seq = det.define_named("evev", &parse_event_expr("ev ; ev").unwrap()).unwrap();
    det.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
    let svc = DetectorPool::spawn(det, 1);

    // Ambient span on the caller thread, as a rule action would have.
    let trace = store.new_trace();
    let root = store.start(trace, None, "action", Arc::from("caller"));
    let root_ctx = root.ctx;
    {
        let _guard = span::push_current(root_ctx);
        for _ in 0..2 {
            svc.signal_async(Signal::Method {
                class: "C".into(),
                sig: SIG.into(),
                edge: EventModifier::End,
                oid: 1,
                params: Vec::new(),
                txn: Some(1),
            });
        }
    }
    store.finish(root, 0, Vec::new());

    let d = svc
        .detections()
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("composite detection");
    let occ_span = d.occurrence.span.expect("occurrence traced");
    assert_eq!(occ_span.trace, trace, "trace id crossed the pool queue");

    // Both signal spans processed on the worker thread are children of the
    // caller's root span.
    let signals: Vec<SpanRecord> =
        store.trace(trace).into_iter().filter(|s| s.kind == "signal").collect();
    assert_eq!(signals.len(), 2);
    assert!(signals.iter().all(|s| s.parent == Some(root_ctx.span)));
}

/// Constituent links must be recorded in all four parameter contexts; the
/// detect span's links always equal its occurrence's parameter list.
#[test]
fn constituent_links_in_all_four_contexts() {
    for (ctx, expected_min) in [
        (ParamContext::Recent, 2),
        (ParamContext::Chronicle, 2),
        (ParamContext::Continuous, 2),
        (ParamContext::Cumulative, 2),
    ] {
        let (det, store) = traced_detector(7);
        det.declare_primitive("a", "A", EventModifier::End, SIG, PrimTarget::AnyInstance).unwrap();
        det.declare_primitive("b", "B", EventModifier::End, SIG, PrimTarget::AnyInstance).unwrap();
        let and = det.define_named("ab", &parse_event_expr("a ^ b").unwrap()).unwrap();
        det.subscribe(and, ctx, 1).unwrap();

        let fire =
            |class: &str| det.notify_method(class, SIG, EventModifier::End, 1, Vec::new(), Some(1));
        let mut dets = fire("A");
        dets.extend(fire("A")); // second `a`: Cumulative folds both in
        dets.extend(fire("B"));
        assert!(!dets.is_empty(), "{ctx:?}: composite detected");

        let all = store.snapshot();
        for d in &dets {
            let occ = &d.occurrence;
            let occ_span = occ.span.unwrap_or_else(|| panic!("{ctx:?}: occurrence has a span"));
            let detect = find_span(&all, occ_span);
            assert_eq!(detect.kind, "detect");
            assert!(
                detect.links.len() >= expected_min,
                "{ctx:?}: wanted >= {expected_min} links, got {}",
                detect.links.len()
            );
            // Every constituent occurrence's span is among the links, and
            // the recorded context tag matches.
            for c in occ.param_list() {
                let c_span = c.span.unwrap_or_else(|| panic!("{ctx:?}: constituent has a span"));
                assert!(detect.links.contains(&c_span), "{ctx:?}: constituent span linked");
            }
            match detect.field("context") {
                Some(sentinel_core::obs::Field::Str(s)) => {
                    assert_eq!(&**s, format!("{ctx:?}").to_lowercase())
                }
                other => panic!("{ctx:?}: context field missing: {other:?}"),
            }
        }
    }
}

/// A cascading rule action (re-raising an event) extends the same trace,
/// and the cascaded rule's spans carry the incremented depth.
#[test]
fn cascaded_firing_extends_trace_with_depth() {
    let s = Sentinel::in_memory();
    s.set_tracing(true);
    s.detector().declare_explicit("first");
    s.detector().declare_explicit("second");
    let s2 = s.clone();
    s.define_rule(
        "r_first",
        "first",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            s2.raise(inv.txn.map(sentinel_core::storage::TxnId), "second", Vec::new()).unwrap();
        }),
        RuleOptions::default(),
    )
    .unwrap();
    s.define_rule(
        "r_second",
        "second",
        Arc::new(|_| true),
        Arc::new(|_| {}),
        RuleOptions::default(),
    )
    .unwrap();

    let t = s.begin().unwrap();
    s.raise(Some(t), "first", Vec::new()).unwrap();
    s.commit(t).unwrap();

    let all = s.trace_store().snapshot();
    let a1 = all.iter().find(|s| s.kind == "action" && &*s.name == "r_first").unwrap();
    let a2 = all.iter().find(|s| s.kind == "action" && &*s.name == "r_second").unwrap();
    assert_eq!(a1.trace, a2.trace, "cascade stays in one trace");
    assert_eq!(a1.depth, 0);
    assert_eq!(a2.depth, 1, "cascaded rule runs at depth 1");
    // The cascaded signal is a child of the first action's span.
    let sig2 = all.iter().find(|s| s.kind == "signal" && &*s.name == "second").unwrap();
    assert_eq!(sig2.parent, Some(a1.span));
}

/// One causal chain out of two interleaved ones: two transactions on two
/// threads each run a four-rule cascade `c0 → c1 → c2 → c3`, and
/// `TraceStore::trace` of the first returns only its own condition and
/// action spans, in recording order (conditions on the way down, actions
/// as each body returns), at depths 0..3.
#[test]
fn trace_query_follows_one_cascade_among_interleaved_ones() {
    const DEPTH: usize = 4;
    let s = Sentinel::in_memory();
    s.set_tracing(true);
    for i in 0..DEPTH {
        s.detector().declare_explicit(&format!("c{i}"));
    }
    let traces = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..DEPTH {
        let (s2, traces) = (s.clone(), traces.clone());
        s.define_rule(
            &format!("r{i}"),
            &format!("c{i}"),
            Arc::new(|_| true),
            Arc::new(move |inv| {
                let txn = inv.txn.map(sentinel_core::storage::TxnId);
                if i == 0 {
                    traces.lock().push((txn, inv.occurrence.span.expect("traced").trace));
                }
                if i + 1 < DEPTH {
                    s2.raise(txn, &format!("c{}", i + 1), Vec::new()).unwrap();
                }
            }),
            RuleOptions::default(),
        )
        .unwrap();
    }

    let start = Arc::new(std::sync::Barrier::new(2));
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let (s, start) = (s.clone(), start.clone());
            std::thread::spawn(move || {
                let t = s.begin().unwrap();
                start.wait();
                s.raise(Some(t), "c0", Vec::new()).unwrap();
                s.commit(t).unwrap();
                t
            })
        })
        .collect();
    let txns: Vec<_> = runs.into_iter().map(|h| h.join().unwrap()).collect();
    let first = txns[0];
    let traces = traces.lock().clone();
    assert_eq!(traces.len(), 2);
    assert_ne!(traces[0].1, traces[1].1, "one trace per transaction");
    let a = traces.iter().find(|(txn, _)| *txn == Some(first)).unwrap().1;

    let chain: Vec<(&str, String, u32)> = s
        .trace_store()
        .trace(a)
        .iter()
        .filter(|sp| matches!(sp.kind, "condition" | "action"))
        .map(|sp| (sp.kind, sp.name.to_string(), sp.depth))
        .collect();
    let want: Vec<(&str, String, u32)> = (0..DEPTH as u32)
        .map(|d| ("condition", format!("r{d}"), d))
        .chain((0..DEPTH as u32).rev().map(|d| ("action", format!("r{d}"), d)))
        .collect();
    assert_eq!(chain, want);
}

/// WAL forces and page writes performed inside a rule action are tagged
/// as children of the action span.
#[test]
fn storage_io_inside_action_is_tagged() {
    let s = Sentinel::in_memory();
    s.set_tracing(true);
    s.detector().declare_explicit("persist");
    let s2 = s.clone();
    s.define_rule(
        "r_persist",
        "persist",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            if let Some(txn) = inv.txn {
                let state = sentinel_core::oodb::ObjectState::new("REACTIVE");
                s2.create_object(sentinel_core::storage::TxnId(txn), &state).unwrap();
            }
            s2.db().engine().checkpoint().unwrap();
        }),
        RuleOptions::default(),
    )
    .unwrap();

    let t = s.begin().unwrap();
    s.raise(Some(t), "persist", Vec::new()).unwrap();
    s.commit(t).unwrap();

    let all = s.trace_store().snapshot();
    let act = all.iter().find(|s| s.kind == "action" && &*s.name == "r_persist").unwrap();
    let force = all.iter().find(|s| s.kind == "wal_force").expect("wal_force span");
    let write = all.iter().find(|s| s.kind == "page_write").expect("page_write span");
    for io in [force, write] {
        assert_eq!(io.trace, act.trace, "storage I/O joins the action's trace");
        assert_eq!(io.parent, Some(act.span));
    }
}

/// With tracing off (the default), nothing is recorded and occurrences
/// carry no span context.
#[test]
fn tracing_disabled_records_nothing() {
    let s = Sentinel::in_memory();
    s.detector().declare_explicit("quiet");
    s.define_rule("r", "quiet", Arc::new(|_| true), Arc::new(|_| {}), RuleOptions::default())
        .unwrap();
    let t = s.begin().unwrap();
    s.raise(Some(t), "quiet", Vec::new()).unwrap();
    s.commit(t).unwrap();
    assert!(s.trace_store().is_empty());
}
