//! The sentinel-obs layer end-to-end: counter accuracy under threaded rule
//! execution, signal-queue depth under async bursts, the shape of the
//! combined `Sentinel::stats()` snapshot, and the pinned names of every
//! exported series and Prometheus family.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{DetectorPool, LocalEventDetector};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::sentinel::SentinelConfig;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::Sentinel;
use sentinel_net::{NetServer, RuleSpec, SentinelClient, ServerConfig};

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

/// Golden test for the snapshot shape external consumers parse: key order and nesting are part of the contract.
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
    assert!(det_pos < sched_pos && sched_pos < storage_pos);
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
        r#""locks""#,
        r#""waits""#,
        r#""deadlocks""#,
    ] {
        assert!(text.contains(key), "snapshot lost key {key}: {text}");
    }
    // Display renders the same JSON.
    assert_eq!(stats.to_string(), text);
}

/// Runs the fixed naming script against `sentinel`: a server with one
/// count rule, one signal, one telemetry tick. Returns the sorted series
/// names and the sorted `# TYPE` lines of `/metrics`.
fn exported_names(sentinel: &Arc<Sentinel>) -> (Vec<String>, Vec<String>) {
    let server = NetServer::start(sentinel.serve_handle(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let client = SentinelClient::connect(&addr, "names").unwrap();
    client.define_event("tick", None).unwrap();
    client.define_rule(&RuleSpec::count("tick_count", "tick")).unwrap();
    client.signal_sync("tick", &[], None).unwrap();

    let registry = sentinel.start_telemetry(Duration::from_secs(3600), 4);
    registry.sample_at(100);
    let ring = registry.to_json();
    let Some(sentinel_core::obs::json::Value::Obj(series)) = ring.get("series") else {
        panic!("no series map: {ring}");
    };
    let mut names: Vec<String> = series.iter().map(|(name, _)| name.clone()).collect();
    names.sort();

    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    let mut types: Vec<String> =
        body.lines().filter(|l| l.starts_with("# TYPE ")).map(str::to_string).collect();
    types.sort();
    (names, types)
}

const SERIES_IN_MEMORY: &[&str] = &[
    "detector.shards.0.contention",
    "detector.shards.0.queue_depth",
    "detector.shards.0.signals",
    "detector.shards.1.contention",
    "detector.shards.1.queue_depth",
    "detector.shards.1.signals",
    "detector.shards.2.contention",
    "detector.shards.2.queue_depth",
    "detector.shards.2.signals",
    "detector.shards.3.contention",
    "detector.shards.3.queue_depth",
    "detector.shards.3.signals",
    "detector.shards.4.contention",
    "detector.shards.4.queue_depth",
    "detector.shards.4.signals",
    "detector.signals",
    "net.busy_rejections",
    "net.bytes_in",
    "net.bytes_out",
    "net.connections_active",
    "net.epoll_wakeups",
    "net.event_loops",
    "net.frames_in",
    "net.frames_out",
    "net.overflow_evictions",
    "net.partial_writes",
    "net.stall_evictions",
    "net.write_calls",
    "scheduler.action.p99_ns",
    "scheduler.condition.p99_ns",
    "scheduler.fired.deferred",
    "scheduler.fired.detached_queued",
    "scheduler.fired.immediate",
    "scheduler.per_rule.tick_count",
    "service.drain_latency.p99_ns",
    "service.processed",
    "service.queue_depth",
    "storage.locks.deadlocks",
    "storage.locks.waits",
];
const TYPES_IN_MEMORY: &[&str] = &[
    "# TYPE sentinel_detector_shards_contention_total counter",
    "# TYPE sentinel_detector_shards_queue_depth gauge",
    "# TYPE sentinel_detector_shards_signals_total counter",
    "# TYPE sentinel_detector_signals_total counter",
    "# TYPE sentinel_net_busy_rejections_total counter",
    "# TYPE sentinel_net_bytes_in_total counter",
    "# TYPE sentinel_net_bytes_out_total counter",
    "# TYPE sentinel_net_connections_active gauge",
    "# TYPE sentinel_net_epoll_wakeups_total counter",
    "# TYPE sentinel_net_event_loops gauge",
    "# TYPE sentinel_net_frames_in_total counter",
    "# TYPE sentinel_net_frames_out_total counter",
    "# TYPE sentinel_net_overflow_evictions_total counter",
    "# TYPE sentinel_net_partial_writes_total counter",
    "# TYPE sentinel_net_stall_evictions_total counter",
    "# TYPE sentinel_net_write_calls_total counter",
    "# TYPE sentinel_scheduler_action histogram",
    "# TYPE sentinel_scheduler_condition histogram",
    "# TYPE sentinel_scheduler_fired_total counter",
    "# TYPE sentinel_scheduler_per_rule_total counter",
    "# TYPE sentinel_service_drain_latency histogram",
    "# TYPE sentinel_service_processed_total counter",
    "# TYPE sentinel_service_queue_depth gauge",
    "# TYPE sentinel_storage_locks_deadlocks_total counter",
    "# TYPE sentinel_storage_locks_waits_total counter",
];
/// What a durable system exports on top of [`SERIES_IN_MEMORY`].
const SERIES_DURABLE_ONLY: &[&str] = &[
    "durability.checkpoint_duration.p99_ns",
    "durability.checkpoints",
    "durability.group_commit_flush.p99_ns",
    "durability.group_commits",
    "durability.journal_appends",
    "durability.journal_fsyncs",
];
const TYPES_DURABLE_ONLY: &[&str] = &[
    "# TYPE sentinel_durability_checkpoint_duration histogram",
    "# TYPE sentinel_durability_checkpoints_total counter",
    "# TYPE sentinel_durability_group_commit_flush histogram",
    "# TYPE sentinel_durability_group_commits_total counter",
    "# TYPE sentinel_durability_journal_appends_total counter",
    "# TYPE sentinel_durability_journal_fsyncs_total counter",
];

/// Every exported series and family name, pinned: a rename or a lost row
/// shows up here as a diff against the checked-in lists.
#[test]
fn exported_series_and_families_are_pinned() {
    let (names, types) = exported_names(&Sentinel::in_memory());
    assert_eq!(names, SERIES_IN_MEMORY);
    assert_eq!(types, TYPES_IN_MEMORY);

    let dir = std::env::temp_dir().join(format!("sentinel-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) =
        Sentinel::open_durable(&dir, SentinelConfig::default(), Default::default()).unwrap();
    let (names, types) = exported_names(&durable);
    let mut want: Vec<&str> = [SERIES_IN_MEMORY, SERIES_DURABLE_ONLY].concat();
    want.sort_unstable();
    assert_eq!(names, want);
    let mut want: Vec<&str> = [TYPES_IN_MEMORY, TYPES_DURABLE_ONLY].concat();
    want.sort_unstable();
    assert_eq!(types, want);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
