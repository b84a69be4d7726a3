//! Shard-merge DDL under concurrent load, and checkpoint cuts under async
//! bursts.
//!
//! Two disjoint composite events are signalled concurrently through a
//! [`DetectorPool`]; mid-stream, DDL defines a SEQ bridging both
//! components — an incremental shard merge executed at a pool barrier. No
//! occurrence may be lost or doubled in any of the four parameter
//! contexts, and after the merge the bridge must detect across the (now
//! single) shard. A second test cuts snapshots with
//! [`DetectorPool::with_paused`] while feeders blast signals, proving the
//! pause quiesces every shard *and* drains every worker queue first. A
//! third feeds many disjoint components from concurrent threads at every
//! worker count, with and without a journal, against an exact-count
//! oracle.

use std::sync::Arc;

use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{
    Detection, DetectorPool, EventId, GraphError, GraphSnapshot, LocalEventDetector,
};
use sentinel_core::durable_store::{DurableEngine, DurableOptions, FsyncPolicy};
use sentinel_core::snoop::{parse_event_expr, ParamContext};
use sentinel_core::JournalSink;

fn explicit(name: &str) -> Signal {
    Signal::Explicit { name: name.into(), params: Vec::new(), txn: None }
}

/// Detector with two disjoint components `sx = xa ; xb` and
/// `sy = ya ; yb`, each subscribed in all four contexts.
fn two_components() -> (Arc<LocalEventDetector>, EventId, EventId) {
    let det = Arc::new(LocalEventDetector::new(1));
    for name in ["xa", "xb", "ya", "yb"] {
        det.declare_explicit(name);
    }
    let sx = det.define_named("sx", &parse_event_expr("xa ; xb").unwrap()).unwrap();
    let sy = det.define_named("sy", &parse_event_expr("ya ; yb").unwrap()).unwrap();
    for (xi, &ctx) in ParamContext::ALL.iter().enumerate() {
        det.subscribe(sx, ctx, (10 + xi) as u64).unwrap();
        det.subscribe(sy, ctx, (20 + xi) as u64).unwrap();
    }
    (det, sx, sy)
}

/// Strictly alternating `a ; b` pairs detect exactly once per pair in
/// every context, so `PAIRS` detections per context is the loss/double
/// oracle.
const PAIRS: usize = 120;

#[test]
fn per_event_counts_signalled_before_a_merge_survive_it() {
    let (det, _, _) = two_components();
    let signal_pairs = || {
        for _ in 0..PAIRS {
            for name in ["xa", "xb", "ya", "yb"] {
                det.signal_explicit(name, Vec::new(), None);
            }
        }
    };
    // `n` pairs per component: one occurrence per leaf signal, and one
    // detection per pair in each of the four contexts.
    let want = |n: u64| {
        let counts = [("sx", 4 * n), ("sy", 4 * n), ("xa", n), ("xb", n), ("ya", n), ("yb", n)];
        counts.map(|(name, c)| (name.to_string(), c)).to_vec()
    };
    let per_event = || -> Vec<(String, u64)> {
        det.stats().per_event.iter().map(|(name, c)| (name.to_string(), *c)).collect()
    };
    signal_pairs();
    assert_ne!(det.shard_of_event("xa"), det.shard_of_event("ya"));
    det.define_named("bridge", &parse_event_expr("sx ; sy").unwrap()).unwrap();
    assert_eq!(det.shard_of_event("xa"), det.shard_of_event("ya"), "the bridge merged them");
    assert_eq!(per_event(), want(PAIRS as u64), "counts of the merged-away shard are kept");
    signal_pairs();
    assert_eq!(per_event(), want(2 * PAIRS as u64));
}

/// One definition that bridges three components lays them out in the
/// order merge, push, merge, push (`sx ^ sy` joins x and y, then `^ sz`
/// joins z). Buffered state, signal counts and a queued alarm must all
/// follow their nodes into the surviving shard.
#[test]
fn a_three_way_bridge_in_one_definition_keeps_every_shards_state() {
    let (det, sx, sy) = two_components();
    det.declare_explicit("za");
    let sz = det.define_named("sz", &parse_event_expr("PLUS(za, 5)").unwrap()).unwrap();
    for (i, &ctx) in ParamContext::ALL.iter().enumerate() {
        det.subscribe(sz, ctx, (30 + i) as u64).unwrap();
    }
    for name in ["xa", "ya", "za"] {
        det.signal_explicit(name, Vec::new(), None);
    }
    let states = |snap: GraphSnapshot| -> Vec<(String, String)> {
        snap.nodes.iter().map(|n| (n.name.to_string(), format!("{:?}", n.state))).collect()
    };
    let before = states(det.snapshot_state());
    let live_before = det.stats().shards.len();
    assert_ne!(det.shard_of_event("xa"), det.shard_of_event("za"));

    let all3 = det.define_named("all3", &parse_event_expr("sx ^ sy ^ sz").unwrap()).unwrap();
    assert_eq!(states(det.snapshot_state()), before, "node states moved with their nodes");
    let stats = det.stats();
    assert_eq!(stats.shards.len(), live_before - 2, "two shards merged away");
    let busy: Vec<_> = stats.shards.iter().filter(|s| s.signals > 0).collect();
    assert_eq!(busy.len(), 1, "one shard holds x, y and z: {:?}", stats.shards);
    assert_eq!(busy[0].shard, det.shard_of_event("za"));
    assert_eq!((busy[0].signals, stats.signals), (3, 3), "signal counts carried over");
    assert_eq!(busy[0].nodes, 10, "xa xb sx ya yb sy za sz, sx ^ sy and all3");

    for (i, &ctx) in ParamContext::ALL.iter().enumerate() {
        det.subscribe(all3, ctx, (40 + i) as u64).unwrap();
    }
    // `za` ticked at 3, so PLUS(za, 5) is due at 8.
    assert!(det.advance_time(7).is_empty());
    let fired = det.advance_time(8);
    assert_eq!(fired.len(), 4, "the alarm queued before the merge fires after it");
    assert!(fired.iter().all(|d| d.event == sz));

    let mut dets = det.signal_explicit("xb", Vec::new(), None);
    dets.extend(det.signal_explicit("yb", Vec::new(), None));
    for ctx in ParamContext::ALL {
        let n = |ev: EventId| dets.iter().filter(|d| d.event == ev && d.context == ctx).count();
        assert_eq!((n(sx), n(sy), n(all3)), (1, 1, 1), "in {ctx:?}");
    }
}

/// `(a ^ b)` is built, and bridges a and b, before `nope` fails the
/// definition. The shard layout must follow at once: the next signal
/// (no DDL in between) feeds `a ^ b`, whose state must exist.
#[test]
fn a_failed_definition_still_lays_out_what_it_built() {
    let d = LocalEventDetector::new(0);
    let a = d.declare_explicit("a");
    d.declare_explicit("b");
    let bad = parse_event_expr("(a ^ b) ; nope").unwrap();
    assert!(matches!(d.define_named("bad", &bad), Err(GraphError::UnknownEvent(_))));
    d.subscribe(a, ParamContext::Recent, 1).unwrap();
    assert_eq!(d.signal_explicit("a", Vec::new(), None).len(), 1);
    assert!(d.signal_explicit("b", Vec::new(), None).is_empty());
    let shards = d.stats().shards;
    let ab = shards.iter().find(|s| s.shard == d.shard_of_event("b")).unwrap();
    assert_eq!((ab.nodes, ab.signals), (3, 2), "a, b and a ^ b; one signal each");
}

#[test]
fn mid_stream_bridge_merges_shards_without_losing_occurrences() {
    let (det, sx, sy) = two_components();
    let pool = DetectorPool::spawn(det.clone(), 4);
    assert_ne!(
        det.shard_of_event("xa"),
        det.shard_of_event("ya"),
        "components must start in distinct shards"
    );

    let bridge = std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..PAIRS {
                pool.signal_async(explicit("xa"));
                pool.signal_async(explicit("xb"));
            }
        });
        s.spawn(|| {
            for _ in 0..PAIRS {
                pool.signal_async(explicit("ya"));
                pool.signal_async(explicit("yb"));
            }
        });
        // Merge the two components while both feeders are (likely) still
        // running: the barrier drains every queue, the DDL unions the
        // shards, and the feeders resume against the merged shard.
        std::thread::sleep(std::time::Duration::from_millis(2));
        pool.barrier(|d| {
            let id = d.define_named("bridge", &parse_event_expr("sx ; sy").unwrap()).unwrap();
            for (xi, &ctx) in ParamContext::ALL.iter().enumerate() {
                d.subscribe(id, ctx, (30 + xi) as u64).unwrap();
            }
            id
        })
    });

    assert_eq!(
        det.shard_of_event("xa"),
        det.shard_of_event("ya"),
        "bridge DDL must merge the components into one shard"
    );

    // Fence, then audit: every pair detected exactly once per context on
    // both composites, regardless of where the merge cut the stream.
    pool.barrier(|_| {});
    let dets: Vec<Detection> = pool.detections().try_iter().collect();
    for &ctx in &ParamContext::ALL {
        let n = |ev: EventId| dets.iter().filter(|d| d.event == ev && d.context == ctx).count();
        assert_eq!(n(sx), PAIRS, "sx lost/doubled an occurrence in {ctx:?}");
        assert_eq!(n(sy), PAIRS, "sy lost/doubled an occurrence in {ctx:?}");
    }

    // Post-merge, the bridge detects across the formerly disjoint
    // components in all four contexts.
    pool.signal_sync(explicit("xa"));
    pool.signal_sync(explicit("xb"));
    pool.signal_sync(explicit("ya"));
    let tail = pool.signal_sync(explicit("yb"));
    for &ctx in &ParamContext::ALL {
        assert!(
            tail.iter().any(|d| d.event == bridge && d.context == ctx),
            "bridge silent in {ctx:?} after the merge"
        );
    }

    // Per-shard observability: every signal is accounted to some shard.
    let stats = det.stats();
    let shard_signals: u64 = stats.shards.iter().map(|s| s.signals).sum();
    assert_eq!(shard_signals, stats.signals, "per-shard signal counters must sum to the total");
}

/// `with_paused` is the checkpoint-cut primitive: under a concurrent
/// async burst, every cut sees a drained pool and fully quiesced shards —
/// two snapshots inside one pause are byte-identical, and each restores
/// into a fresh twin detector.
#[test]
fn checkpoint_cuts_are_clean_under_async_burst() {
    let (det, sx, sy) = two_components();
    let pool = DetectorPool::spawn(det.clone(), 4);

    let cuts = std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..PAIRS {
                pool.signal_async(explicit("xa"));
                pool.signal_async(explicit("xb"));
            }
        });
        s.spawn(|| {
            for _ in 0..PAIRS {
                pool.signal_async(explicit("ya"));
                pool.signal_async(explicit("yb"));
            }
        });
        let mut cuts = Vec::new();
        for _ in 0..8 {
            let (a, b) = pool.with_paused(|p| (p.snapshot_state(), p.snapshot_state()));
            assert_eq!(a.encode(), b.encode(), "a signal raced the paused closure");
            cuts.push(a);
        }
        cuts
    });

    // Every mid-burst cut is a consistent image: it restores into a twin
    // detector without error.
    for snap in &cuts {
        let (twin, _, _) = two_components();
        twin.restore_snapshot(snap).expect("mid-burst snapshot restores cleanly");
    }

    // The pause never dropped or duplicated work: final counts are exact.
    pool.barrier(|_| {});
    let dets: Vec<Detection> = pool.detections().try_iter().collect();
    for &ctx in &ParamContext::ALL {
        let n = |ev: EventId| dets.iter().filter(|d| d.event == ev && d.context == ctx).count();
        assert_eq!(n(sx), PAIRS, "sx count wrong in {ctx:?} after paused cuts");
        assert_eq!(n(sy), PAIRS, "sy count wrong in {ctx:?} after paused cuts");
    }
}

/// Disjoint components, each with `seq{i} = a{i} ; b{i}` and
/// `or{i} = a{i} | b{i}` subscribed in all four contexts.
fn disjoint_components(components: usize) -> Arc<LocalEventDetector> {
    let det = Arc::new(LocalEventDetector::new(1));
    for i in 0..components {
        let (a, b) = (format!("a{i}"), format!("b{i}"));
        det.declare_explicit(&a);
        det.declare_explicit(&b);
        let define = |name: String, expr: String| {
            det.define_named(&name, &parse_event_expr(&expr).unwrap()).unwrap()
        };
        let seq = define(format!("seq{i}"), format!("{a} ; {b}"));
        let or = define(format!("or{i}"), format!("{a} | {b}"));
        for (xi, &ctx) in ParamContext::ALL.iter().enumerate() {
            det.subscribe(seq, ctx, (1000 + i * 8 + xi) as u64).unwrap();
            det.subscribe(or, ctx, (1000 + i * 8 + 4 + xi) as u64).unwrap();
        }
    }
    det
}

/// Concurrent feeders into a pool, plain and journaled. Feeder `f` owns
/// the components `i ≡ f (mod FEEDERS)` and strictly alternates `a{i}`,
/// `b{i}`, so every pair closes `seq{i}` once per context (4 detections)
/// and `or{i}` once per constituent per context (8 more): exactly
/// `components × pairs × 12` detections at every worker count. Journaled
/// through a durable engine (`fsync = always`, a group-commit window), the
/// directory must reopen to exactly one record per signal.
#[test]
fn concurrent_feeders_detect_exactly_at_every_worker_count() {
    const COMPONENTS: usize = 16;
    const PAIRS: usize = 50;
    const FEEDERS: usize = 4;
    let opts = DurableOptions {
        fsync: FsyncPolicy::Always,
        group_window_us: 100,
        checkpoint_every: 0,
        ..DurableOptions::default()
    };
    for workers in [1, 2, 4, 8] {
        for journaled in [false, true] {
            let det = disjoint_components(COMPONENTS);
            let dir = std::env::temp_dir()
                .join(format!("sentinel-feeders-w{workers}-{}", std::process::id()));
            if journaled {
                let _ = std::fs::remove_dir_all(&dir);
                let (engine, _) = DurableEngine::open(&dir, opts).expect("open durable engine");
                det.set_event_sink(Arc::new(JournalSink::new(engine)));
            }
            let pool = DetectorPool::spawn(det, workers);
            std::thread::scope(|s| {
                for f in 0..FEEDERS {
                    let pool = &pool;
                    s.spawn(move || {
                        for _ in 0..PAIRS {
                            for i in (f..COMPONENTS).step_by(FEEDERS) {
                                pool.signal_async(explicit(&format!("a{i}")));
                                pool.signal_async(explicit(&format!("b{i}")));
                            }
                        }
                    });
                }
            });
            pool.barrier(|_| {});
            let detections = pool.detections().try_iter().count();
            assert_eq!(
                detections,
                COMPONENTS * PAIRS * 12,
                "{workers} workers, journaled={journaled}: lost or doubled detections"
            );
            // Dropping the pool drops the detector, its sink and the engine.
            drop(pool);
            if journaled {
                let (_engine, rec) =
                    DurableEngine::open(&dir, opts).expect("reopen durable engine");
                assert_eq!(
                    rec.events.len(),
                    COMPONENTS * PAIRS * 2,
                    "{workers} workers: journal must recover one record per signal"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
