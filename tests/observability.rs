//! The sentinel-obs layer end-to-end: counter accuracy under threaded rule
//! execution, signal-queue depth under async bursts, and the shape of the
//! combined `Sentinel::stats()` snapshot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{DetectorPool, LocalEventDetector};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::sentinel::SentinelConfig;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::Sentinel;

/// Scheduler counters must be exact — not approximate — when rule bodies
/// run on the priority thread pool.
#[test]
fn threaded_mode_counts_every_firing() {
    const RULES: usize = 4;
    const SIGNALS: usize = 25;

    let s = Sentinel::in_memory_with(SentinelConfig {
        mode: ExecutionMode::Threaded { workers: 4 },
        ..SentinelConfig::default()
    });
    s.detector().declare_explicit("tick");
    let ran = Arc::new(AtomicUsize::new(0));
    for i in 0..RULES {
        let r = ran.clone();
        s.define_rule(
            &format!("R{i}"),
            "tick",
            Arc::new(|_| true),
            Arc::new(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            }),
            RuleOptions::default(),
        )
        .unwrap();
    }

    let t = s.begin().unwrap();
    for _ in 0..SIGNALS {
        s.raise(Some(t), "tick", Vec::new()).unwrap();
    }
    let stats = s.stats().scheduler;
    assert_eq!(ran.load(Ordering::SeqCst), RULES * SIGNALS);
    assert_eq!(stats.fired_immediate, (RULES * SIGNALS) as u64);
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.condition.count, stats.fired_immediate, "one condition evaluation per firing");
    s.commit(t).unwrap();
}

/// `signal_async` bursts must register on the queue-depth gauge and every
/// request must be accounted for in the drain-latency histogram.
#[test]
fn async_burst_registers_queue_depth_and_latency() {
    const BURST: u64 = 400;

    let det = Arc::new(LocalEventDetector::new(3));
    det.declare_primitive(
        "ev",
        "C",
        EventModifier::End,
        "void f()",
        sentinel_core::detector::graph::PrimTarget::AnyInstance,
    )
    .unwrap();
    let svc = DetectorPool::spawn(det, 1);
    let signal = || Signal::Method {
        class: "C".into(),
        sig: "void f()".into(),
        edge: EventModifier::End,
        oid: 1,
        params: Vec::new(),
        txn: Some(1),
    };
    for _ in 0..BURST {
        svc.signal_async(signal());
    }
    // Sync rendezvous: the reply arrives after every queued async signal
    // was handled, but the final counter bump races the reply — wait it out.
    svc.signal_sync(signal());
    let m = svc.metrics();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while m.processed.get() < BURST + 1 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(m.processed.get(), BURST + 1);
    assert!(m.queue_depth.high_watermark() >= 1, "burst never showed up in the gauge");
    let lat = m.drain_latency_ns.snapshot();
    assert_eq!(lat.count, BURST + 1);
    assert!(lat.max > 0);
}

/// Golden test for the snapshot shape the `beast` bench and external
/// consumers parse: key order and nesting are part of the contract.
#[test]
fn stats_snapshot_shape_is_stable() {
    let s = Sentinel::in_memory();
    s.detector().declare_explicit("go");
    let ran = Arc::new(AtomicUsize::new(0));
    let r = ran.clone();
    s.define_rule(
        "shape",
        "go",
        Arc::new(|_| true),
        Arc::new(move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        }),
        RuleOptions::default(),
    )
    .unwrap();
    let t = s.begin().unwrap();
    // An object write drives the heap → buffer pool → WAL paths.
    s.create_object(t, &sentinel_core::oodb::ObjectState::new("REACTIVE")).unwrap();
    s.raise(Some(t), "go", Vec::new()).unwrap();
    s.commit(t).unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);

    let stats = s.stats();
    let json = stats.to_json();
    // Non-zero activity in every subsystem (the ISSUE acceptance check).
    assert!(json.get("detector").and_then(|d| d.get("signals")).and_then(|v| v.as_u64()) > Some(0));
    assert!(stats.scheduler.fired_immediate > 0);
    assert!(stats.storage.wal.appends > 0);
    assert!(stats.storage.buffer.hits + stats.storage.buffer.misses > 0);

    // Shape: fixed top-level ordering and the nested section keys.
    let text = json.to_string();
    assert!(text.starts_with(r#"{"detector":{"signals":"#), "got: {text}");
    let det_pos = text.find(r#""detector""#).unwrap();
    let sched_pos = text.find(r#""scheduler""#).unwrap();
    let storage_pos = text.find(r#""storage""#).unwrap();
    let bus_pos = text.find(r#""trace_bus""#).unwrap();
    assert!(det_pos < sched_pos && sched_pos < storage_pos && storage_pos < bus_pos);
    for key in [
        r#""per_event""#,
        r#""nodes""#,
        r#""flush_calls""#,
        r#""fired""#,
        r#""per_priority""#,
        r#""condition""#,
        r#""action""#,
        r#""panics""#,
        r#""p50_ns""#,
        r#""p95_ns""#,
        r#""p99_ns""#,
        r#""wal""#,
        r#""appends""#,
        r#""buffer""#,
        r#""hit_ratio""#,
        r#""emitted""#,
        r#""dropped""#,
        r#""subscribers""#,
    ] {
        assert!(text.contains(key), "snapshot lost key {key}: {text}");
    }
    // Display renders the same JSON.
    assert_eq!(stats.to_string(), text);
}
