//! Differential conformance harness for sharded parallel detection.
//!
//! A seeded workload generator produces one randomized stream of primitive
//! signals (explicit and method events, with parameters and transactions),
//! transaction flushes, logical-time advances, subscription flips, and
//! mid-stream DDL that bridges previously disjoint event-graph components.
//! The identical stream is driven through
//!
//! * a **serial reference**: one `LocalEventDetector` called inline from a
//!   single thread (timestamps drawn live from the logical clock), and
//! * the **sharded candidate**: the same detector behind a
//!   [`DetectorPool`] of N workers, signals carrying the pre-computed
//!   timestamps the serial run is known to draw (`signal_async_at`).
//!
//! The harness then asserts that the two executions are *indistinguishable*:
//! the multisets of detected occurrences — event, parameter context,
//! subscribers, logical timestamps, transaction ids, parameters, and the
//! full recursive constituent trees — are identical, and the final
//! event-graph snapshots are byte-for-byte equal. Divergence in any
//! context (Recent, Chronicle, Continuous, Cumulative), any flush window,
//! or any operator's buffered state fails the run.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::prelude::*;
use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::log::LoggedEvent;
use sentinel_core::detector::service::Signal;
use sentinel_core::detector::{
    Detection, DetectorPool, DetectorStats, EventId, FenceKind, LocalEventDetector, Occurrence,
    SubscriberId, Value,
};
use sentinel_core::durable_store::{DurableEngine, DurableOptions, FsyncPolicy};
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, ParamContext};
use sentinel_core::JournalSink;

/// Disjoint explicit-event components in the generated graph.
const COMPONENTS: usize = 5;
/// Snoop operators instantiated per component (see [`component_exprs`]).
const KINDS: usize = 6;
/// Composites in subscription order: `COMPONENTS * KINDS` plus the
/// method-class sequence.
const NCOMP: usize = COMPONENTS * KINDS + 1;
/// Workload length before the closing time advance.
const OPS: usize = 360;

const METHOD_SIG: &str = "void m()";

fn leaf_names() -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..COMPONENTS {
        for stem in ["a", "b", "c"] {
            names.push(format!("{stem}{i}"));
        }
    }
    names
}

/// The operator zoo of component `i`, all over its three explicit leaves.
fn component_exprs(i: usize) -> Vec<(String, String)> {
    vec![
        (format!("seq{i}"), format!("a{i} ; b{i}")),
        (format!("and{i}"), format!("a{i} ^ c{i}")),
        (format!("or{i}"), format!("b{i} | c{i}")),
        (format!("any{i}"), format!("ANY(2, a{i}, b{i}, c{i})")),
        (format!("plus{i}"), format!("PLUS(a{i}, 5)")),
        (format!("not{i}"), format!("NOT(c{i})[a{i}, b{i}]")),
    ]
}

fn base_sub(comp: usize, ctx: usize) -> SubscriberId {
    (1000 + comp * 4 + ctx) as SubscriberId
}

fn flip_sub(comp: usize, ctx: usize) -> SubscriberId {
    (5000 + comp * 4 + ctx) as SubscriberId
}

fn bridge_sub(idx: usize, ctx: usize) -> SubscriberId {
    (9000 + idx * 4 + ctx) as SubscriberId
}

/// Identical DDL program for reference and candidate: declares every leaf,
/// defines every composite, and subscribes each in all four contexts.
/// Returns the composites in [`Op::Flip`] target order.
fn build(det: &LocalEventDetector) -> Vec<EventId> {
    for name in leaf_names() {
        det.declare_explicit(&name);
    }
    det.declare_primitive("m", "M", EventModifier::End, METHOD_SIG, PrimTarget::AnyInstance)
        .unwrap();
    let mut comps = Vec::new();
    for i in 0..COMPONENTS {
        for (name, expr) in component_exprs(i) {
            comps.push(det.define_named(&name, &parse_event_expr(&expr).unwrap()).unwrap());
        }
    }
    comps.push(det.define_named("mseq", &parse_event_expr("m ; m").unwrap()).unwrap());
    assert_eq!(comps.len(), NCOMP);
    for (ci, &id) in comps.iter().enumerate() {
        for (xi, &ctx) in ParamContext::ALL.iter().enumerate() {
            det.subscribe(id, ctx, base_sub(ci, xi)).unwrap();
        }
    }
    comps
}

/// One step of the generated workload. Signals carry the timestamp the
/// serial reference will draw from its live clock at that point, so the
/// pooled run can pre-assign it.
#[derive(Debug, Clone)]
enum Op {
    Explicit {
        name: String,
        params: Vec<(Arc<str>, Value)>,
        txn: Option<u64>,
        ts: u64,
    },
    Method {
        oid: u64,
        txn: Option<u64>,
        ts: u64,
    },
    Flush(u64),
    Advance(u64),
    /// Toggle the flip subscriber of composite `comp` in context `ctx`.
    Flip {
        comp: usize,
        ctx: usize,
        on: bool,
    },
    /// Define `bridge{idx} = seq{left} ; seq{right}` mid-stream (a shard
    /// merge) and subscribe it in all four contexts.
    Bridge {
        idx: usize,
        left: usize,
        right: usize,
    },
}

fn generate(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let leaves = leaf_names();
    let mut cur: u64 = 0; // mirrors the serial reference's logical clock
    let mut flip_on = [false; NCOMP * 4];
    let mut bridges = 0usize;
    let mut ops = Vec::with_capacity(OPS + 1);
    let txn_of = |rng: &mut StdRng| {
        if rng.gen_bool(0.6) {
            Some(rng.gen_range(0u64..3))
        } else {
            None
        }
    };
    for step in 0..OPS {
        let roll = rng.gen_range(0u32..100);
        if roll < 74 {
            cur += 1;
            if rng.gen_bool(0.12) {
                ops.push(Op::Method {
                    oid: rng.gen_range(1u64..4),
                    txn: txn_of(&mut rng),
                    ts: cur,
                });
            } else {
                let name = leaves[rng.gen_range(0..leaves.len())].clone();
                let params = if rng.gen_bool(0.3) {
                    vec![(Arc::from("v"), Value::Int(rng.gen_range(0i64..100)))]
                } else {
                    Vec::new()
                };
                ops.push(Op::Explicit { name, params, txn: txn_of(&mut rng), ts: cur });
            }
        } else if roll < 82 {
            ops.push(Op::Flush(rng.gen_range(0u64..3)));
        } else if roll < 90 {
            cur += rng.gen_range(1u64..8);
            ops.push(Op::Advance(cur));
        } else if roll < 96 || bridges >= 2 || step <= OPS / 3 {
            let comp = rng.gen_range(0..NCOMP);
            let ctx = rng.gen_range(0..4usize);
            let on = !flip_on[comp * 4 + ctx];
            flip_on[comp * 4 + ctx] = on;
            ops.push(Op::Flip { comp, ctx, on });
        } else {
            let left = rng.gen_range(0..COMPONENTS);
            let right = (left + rng.gen_range(1..COMPONENTS)) % COMPONENTS;
            ops.push(Op::Bridge { idx: bridges, left, right });
            bridges += 1;
        }
    }
    // Close every pending temporal window so alarm state converges.
    cur += 20;
    ops.push(Op::Advance(cur));
    ops
}

/// Canonical text form of an occurrence tree: event, timestamp,
/// transaction, parameters, and constituents, recursively.
fn canon_occ(o: &Occurrence) -> String {
    let params: Vec<String> = o.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let kids: Vec<String> = o.constituents.iter().map(|c| canon_occ(c)).collect();
    format!("{:?}@{}~{:?}[{}]({})", o.event, o.at, o.txn, params.join(","), kids.join(","))
}

/// Canonical text form of one detection (subscribers sorted).
fn canon_det(d: &Detection) -> String {
    let mut subs = d.subscribers.clone();
    subs.sort_unstable();
    format!("{:?}/{:?}/{:?}/{}", d.event, d.context, subs, canon_occ(&d.occurrence))
}

fn canon_all(dets: &[Detection]) -> Vec<String> {
    let mut out: Vec<String> = dets.iter().map(canon_det).collect();
    out.sort();
    out
}

fn apply_ddl(det: &LocalEventDetector, comps: &[EventId], op: &Op) {
    match op {
        Op::Flip { comp, ctx, on } => {
            let c = ParamContext::ALL[*ctx];
            if *on {
                det.subscribe(comps[*comp], c, flip_sub(*comp, *ctx)).unwrap();
            } else {
                det.unsubscribe(comps[*comp], c, flip_sub(*comp, *ctx)).unwrap();
            }
        }
        Op::Bridge { idx, left, right } => {
            let expr = parse_event_expr(&format!("seq{left} ; seq{right}")).unwrap();
            let id = det.define_named(&format!("bridge{idx}"), &expr).unwrap();
            for (xi, &ctx) in ParamContext::ALL.iter().enumerate() {
                det.subscribe(id, ctx, bridge_sub(*idx, xi)).unwrap();
            }
        }
        _ => unreachable!("not a DDL op"),
    }
}

/// Durable-engine options for the journaled matrix: tiny segments so the
/// runs rotate, a real accumulation window so group commit batches, and
/// no checkpoints (recovery must come purely from the merged streams).
fn dopts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        segment_bytes: 1024,
        checkpoint_every: 0,
        group_window_us: 50,
        ..DurableOptions::default()
    }
}

/// Opens a fresh durable engine over `dir` and attaches its journal sink.
fn attach_journal(det: &LocalEventDetector, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let (engine, _) = DurableEngine::open(dir, dopts()).expect("open durable engine");
    det.set_event_sink(Arc::new(JournalSink::new(engine)));
}

/// Drives the workload inline on one thread, timestamps drawn live. The
/// mirrored-clock invariant (generator `ts` == the clock's actual draw) is
/// asserted at every signal — it is what licenses pre-assigning the same
/// timestamps to the pooled run. With `durable`, every signal is also
/// journaled through the sharded engine.
fn run_serial(ops: &[Op], durable: Option<&Path>) -> (Vec<String>, Vec<u8>, DetectorStats) {
    let det = LocalEventDetector::new(1);
    let comps = build(&det);
    if let Some(dir) = durable {
        attach_journal(&det, dir);
    }
    assert!(det.shard_count() >= COMPONENTS as u32, "components must start disjoint");
    let mut dets = Vec::new();
    for op in ops {
        match op {
            Op::Explicit { name, params, txn, ts } => {
                dets.extend(det.signal_explicit(name, params.clone(), *txn));
                assert_eq!(det.clock().peek(), *ts, "mirrored clock diverged");
            }
            Op::Method { oid, txn, ts } => {
                dets.extend(det.notify_method(
                    "M",
                    METHOD_SIG,
                    EventModifier::End,
                    *oid,
                    Vec::new(),
                    *txn,
                ));
                assert_eq!(det.clock().peek(), *ts, "mirrored clock diverged");
            }
            Op::Flush(txn) => det.flush_txn(*txn),
            Op::Advance(to) => dets.extend(det.advance_time(*to)),
            ddl => apply_ddl(&det, &comps, ddl),
        }
    }
    let stats = det.stats();
    (canon_all(&dets), det.snapshot_state().encode().to_vec(), stats)
}

/// Drives the identical workload through a [`DetectorPool`] of `workers`
/// threads, pre-assigning the serial run's timestamps. Flushes and time
/// advances are global fences (the pool routes them to a rendezvous
/// barrier); DDL and subscription flips run at explicit barriers so they
/// cut the stream at the same point as in the serial run.
fn run_pool(
    ops: &[Op],
    workers: usize,
    durable: Option<&Path>,
) -> (Vec<String>, Vec<u8>, DetectorStats) {
    let det = Arc::new(LocalEventDetector::new(1));
    let comps = build(&det);
    if let Some(dir) = durable {
        attach_journal(&det, dir);
    }
    let mut pool = DetectorPool::spawn(det.clone(), workers);
    for op in ops {
        match op {
            Op::Explicit { name, params, txn, ts } => pool.signal_async_at(
                Signal::Explicit { name: name.clone(), params: params.clone(), txn: *txn },
                *ts,
            ),
            Op::Method { oid, txn, ts } => pool.signal_async_at(
                Signal::Method {
                    class: "M".into(),
                    sig: METHOD_SIG.into(),
                    edge: EventModifier::End,
                    oid: *oid,
                    params: Vec::new(),
                    txn: *txn,
                },
                *ts,
            ),
            Op::Flush(txn) => pool.signal_async(Signal::FlushTxn(*txn)),
            Op::Advance(to) => pool.signal_async(Signal::AdvanceTime(*to)),
            ddl => pool.barrier(|d| apply_ddl(d, &comps, ddl)),
        }
    }
    pool.shutdown();
    let dets: Vec<Detection> = pool.detections().try_iter().collect();
    let stats = det.stats();
    (canon_all(&dets), det.snapshot_state().encode().to_vec(), stats)
}

/// Telemetry conformance: the pooled run's per-shard signal counters must
/// sum to exactly the serial run's total (every signal is counted once, on
/// exactly one shard), and after shutdown no shard may report residual
/// queue depth. This pins the per-shard health counters the scrape
/// endpoint exports to the same oracle the detection streams obey.
fn assert_shard_counters(serial: &DetectorStats, pooled: &DetectorStats, tag: &str) {
    let serial_shard_sum: u64 = serial.shards.iter().map(|s| s.signals).sum();
    let pooled_shard_sum: u64 = pooled.shards.iter().map(|s| s.signals).sum();
    assert_eq!(serial_shard_sum, serial.signals, "{tag}: serial shard counters miss signals");
    assert_eq!(pooled_shard_sum, pooled.signals, "{tag}: pooled shard counters miss signals");
    assert_eq!(pooled.signals, serial.signals, "{tag}: pooled signal total diverged from serial");
    for s in &pooled.shards {
        assert_eq!(s.queue_depth, 0, "{tag}: shard {} reports queue depth after shutdown", s.shard);
    }
}

fn conformance(seed: u64, workers: usize) {
    let ops = generate(seed);
    let (serial_dets, serial_snap, serial_stats) = run_serial(&ops, None);
    let (pool_dets, pool_snap, pool_stats) = run_pool(&ops, workers, None);
    assert_shard_counters(&serial_stats, &pool_stats, &format!("seed {seed}, {workers} workers"));
    assert_eq!(
        serial_dets.len(),
        pool_dets.len(),
        "seed {seed}, {workers} workers: occurrence count diverged"
    );
    for (s, p) in serial_dets.iter().zip(&pool_dets) {
        assert_eq!(s, p, "seed {seed}, {workers} workers: occurrence diverged");
    }
    assert_eq!(
        serial_snap, pool_snap,
        "seed {seed}, {workers} workers: final graph state diverged"
    );
    // The run must be non-trivial: detections in every parameter context.
    for ctx in ParamContext::ALL {
        let tag = format!("/{ctx:?}/");
        assert!(
            serial_dets.iter().any(|d| d.contains(&tag)),
            "seed {seed}: no detection in {ctx:?} — workload too weak to prove equivalence"
        );
    }
    assert!(serial_dets.len() >= 50, "seed {seed}: only {} detections", serial_dets.len());
}

/// Headline: the sharded pool at 4 and 8 workers is observationally
/// equivalent to the serial detector on randomized workloads covering
/// every operator, all four contexts, flushes, alarms, subscription
/// flips, and mid-stream shard merges.
#[test]
fn sharded_pool_matches_serial_reference_across_seeds() {
    for seed in [3, 17, 93] {
        for workers in [4, 8] {
            conformance(seed, workers);
        }
    }
}

/// Degenerate pool (one worker) must conform too — catches bugs hidden by
/// routing everything to one queue.
#[test]
fn single_worker_pool_matches_serial_reference() {
    conformance(42, 1);
}

/// The generator's clock mirror is exact: replaying the op list against a
/// fresh serial detector draws exactly the embedded timestamps (asserted
/// inside `run_serial`), and two generations from one seed are identical.
#[test]
fn generator_is_deterministic() {
    let a = generate(7);
    let b = generate(7);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }
    run_serial(&a, None);
}

// --- durable matrix ----------------------------------------------------

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sentinel-diffdur-{tag}-{}", std::process::id()))
}

/// Reopens a journaled run's data directory and returns what recovery
/// merged: every surviving record in replay order plus the fence stream.
fn recovered(dir: &Path) -> (Vec<LoggedEvent>, Vec<(u64, FenceKind)>) {
    let (_engine, rec) = DurableEngine::open(dir, dopts()).expect("reopen durable engine");
    assert_eq!(rec.report.truncated_bytes, 0, "fsync=always run left no torn bytes");
    (rec.events, rec.fences)
}

/// The durable tentpole, end to end: journaling through the sharded
/// engine must not change detection (serial *and* pooled runs with a sink
/// stay observationally equivalent), and the journals the runs leave
/// behind must recover to the *identical* merged record/fence sequence —
/// per-shard streams + epoch fences reconstruct the serial happened-before
/// order no matter how many workers raced on the appends.
#[test]
fn durable_pool_recovery_matches_durable_serial() {
    let seed = 11u64;
    let ops = generate(seed);
    let sdir = tmp("serial");
    let (serial_dets, serial_snap, serial_stats) = run_serial(&ops, Some(&sdir));
    let (serial_events, serial_fences) = recovered(&sdir);
    assert!(serial_events.len() >= 100, "workload journals enough to be meaningful");
    assert!(serial_fences.len() >= 10, "workload cuts flush/advance/DDL fences");

    for workers in [4, 8] {
        let pdir = tmp(&format!("pool{workers}"));
        let (pool_dets, pool_snap, pool_stats) = run_pool(&ops, workers, Some(&pdir));
        assert_eq!(serial_dets, pool_dets, "{workers} workers: journaled detection diverged");
        assert_eq!(serial_snap, pool_snap, "{workers} workers: journaled graph state diverged");
        assert_shard_counters(&serial_stats, &pool_stats, &format!("durable, {workers} workers"));

        let (pool_events, pool_fences) = recovered(&pdir);
        assert_eq!(
            serial_events, pool_events,
            "{workers} workers: recovered replay order diverged from serial-durable"
        );
        assert_eq!(
            serial_fences, pool_fences,
            "{workers} workers: recovered fence stream diverged from serial-durable"
        );
        let _ = std::fs::remove_dir_all(&pdir);
    }
    let _ = std::fs::remove_dir_all(&sdir);
}
