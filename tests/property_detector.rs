//! Property-based tests on the composite event detector: context
//! consumption invariants, online/batch equivalence, and flush soundness,
//! under arbitrary interleavings of primitive events.

use std::sync::Arc;

use proptest::prelude::*;
use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::snapshot::GraphSnapshot;
use sentinel_core::detector::{Detection, EventRecorder, LocalEventDetector};
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, ParamContext};

const SIG_A: &str = "void a()";
const SIG_B: &str = "void b()";
const SIG_C: &str = "void c()";
const SIG_D: &str = "void d()";

/// A detector with independent leaves `a` (class CA) and `b` (class CB)
/// and the event `x = expr` subscribed in `ctx`.
fn detector(expr: &str, ctx: ParamContext) -> LocalEventDetector {
    detector_with(expr, None, ctx)
}

/// [`detector`] plus leaves `c` and `d` (class CC) and, when `temporal`
/// is given, the event `y = temporal` over them, also subscribed in
/// `ctx`. `y` lives in a shard of its own, apart from `x`'s.
fn detector_with(expr: &str, temporal: Option<&str>, ctx: ParamContext) -> LocalEventDetector {
    let d = LocalEventDetector::new(0);
    d.declare_primitive("a", "CA", EventModifier::End, SIG_A, PrimTarget::AnyInstance).unwrap();
    d.declare_primitive("b", "CB", EventModifier::End, SIG_B, PrimTarget::AnyInstance).unwrap();
    d.declare_primitive("c", "CC", EventModifier::End, SIG_C, PrimTarget::AnyInstance).unwrap();
    d.declare_primitive("d", "CC", EventModifier::End, SIG_D, PrimTarget::AnyInstance).unwrap();
    let id = d.define_named("x", &parse_event_expr(expr).unwrap()).unwrap();
    d.subscribe(id, ctx, 1).unwrap();
    if let Some(temporal) = temporal {
        let id = d.define_named("y", &parse_event_expr(temporal).unwrap()).unwrap();
        d.subscribe(id, ctx, 2).unwrap();
    }
    d
}

/// One step of a workload: which leaf fires, in which transaction.
#[derive(Debug, Clone, Copy)]
enum Step {
    A(u8),
    B(u8),
    C(u8),
    D(u8),
    FlushTxn(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..3).prop_map(Step::A),
        (0u8..3).prop_map(Step::B),
        (0u8..3).prop_map(Step::FlushTxn),
    ]
}

/// Steps over all four leaves and no flushes: the alarms of `y`'s shard
/// come due while `x`'s shard is being signalled.
fn leaf_step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..3).prop_map(Step::A),
        (0u8..3).prop_map(Step::B),
        (0u8..3).prop_map(Step::C),
        (0u8..3).prop_map(Step::D),
    ]
}

fn run(d: &LocalEventDetector, steps: &[Step]) -> Vec<Detection> {
    let mut out = Vec::new();
    for s in steps {
        let (class, sig, t) = match *s {
            Step::A(t) => ("CA", SIG_A, t),
            Step::B(t) => ("CB", SIG_B, t),
            Step::C(t) => ("CC", SIG_C, t),
            Step::D(t) => ("CC", SIG_D, t),
            Step::FlushTxn(t) => {
                d.flush_txn(u64::from(t));
                continue;
            }
        };
        out.extend(d.notify_method(
            class,
            sig,
            EventModifier::End,
            1,
            Vec::new(),
            Some(u64::from(t)),
        ));
    }
    out
}

/// Two detection lists are identical: same count, and pairwise the same
/// event, context, occurrence time and constituent timestamps.
fn same_detections(left: &[Detection], right: &[Detection]) -> Result<(), TestCaseError> {
    prop_assert_eq!(left.len(), right.len());
    for (l, r) in left.iter().zip(right) {
        prop_assert_eq!(l.event, r.event);
        prop_assert_eq!(l.context, r.context);
        prop_assert_eq!(l.occurrence.at, r.occurrence.at);
        let lts: Vec<_> = l.occurrence.param_list().iter().map(|p| p.at).collect();
        let rts: Vec<_> = r.occurrence.param_list().iter().map(|p| p.at).collect();
        prop_assert_eq!(lts, rts);
    }
    Ok(())
}

fn count(steps: &[Step], f: impl Fn(&Step) -> bool) -> usize {
    steps.iter().filter(|s| f(s)).count()
}

proptest! {
    /// Chronicle AND pairs a's and b's 1:1 (without flushes the number of
    /// detections is exactly min(#a, #b)), and every occurrence is consumed
    /// exactly once.
    #[test]
    fn chronicle_and_pairs_min(steps in prop::collection::vec(step_strategy(), 0..40)) {
        let steps: Vec<Step> =
            steps.into_iter().filter(|s| !matches!(s, Step::FlushTxn(_))).collect();
        let d = detector("a ^ b", ParamContext::Chronicle);
        let dets = run(&d, &steps);
        let na = count(&steps, |s| matches!(s, Step::A(_)));
        let nb = count(&steps, |s| matches!(s, Step::B(_)));
        prop_assert_eq!(dets.len(), na.min(nb));
        // Consumption: all constituent timestamps distinct across detections.
        let mut seen = std::collections::HashSet::new();
        for det in &dets {
            for c in det.occurrence.param_list() {
                prop_assert!(seen.insert(c.at), "occurrence reused in chronicle context");
            }
        }
    }

    /// Cumulative AND consumes everything buffered: across all detections
    /// plus the residual buffers, each occurrence appears exactly once, and
    /// each detection contains at least one a and exactly one b... at least
    /// one of each.
    #[test]
    fn cumulative_and_drains(steps in prop::collection::vec(step_strategy(), 0..40)) {
        let steps: Vec<Step> =
            steps.into_iter().filter(|s| !matches!(s, Step::FlushTxn(_))).collect();
        let d = detector("a ^ b", ParamContext::Cumulative);
        let dets = run(&d, &steps);
        let mut seen = std::collections::HashSet::new();
        for det in &dets {
            let prims = det.occurrence.param_list();
            let a_count = prims.iter().filter(|p| &*p.event_name == "a").count();
            let b_count = prims.iter().filter(|p| &*p.event_name == "b").count();
            prop_assert!(a_count >= 1 && b_count >= 1);
            for c in prims {
                prop_assert!(seen.insert(c.at), "occurrence reused in cumulative context");
            }
        }
    }

    /// OR fires exactly once per constituent occurrence in every context.
    #[test]
    fn or_counts_every_occurrence(
        steps in prop::collection::vec(step_strategy(), 0..40),
        ctx in prop::sample::select(&ParamContext::ALL[..]),
    ) {
        let steps: Vec<Step> =
            steps.into_iter().filter(|s| !matches!(s, Step::FlushTxn(_))).collect();
        let d = detector("a | b", ctx);
        let dets = run(&d, &steps);
        prop_assert_eq!(dets.len(), steps.len());
    }

    /// SEQ never emits an occurrence whose parts are out of order, in any
    /// context, even with transaction flushes interleaved.
    #[test]
    fn seq_is_always_ordered(
        steps in prop::collection::vec(step_strategy(), 0..50),
        ctx in prop::sample::select(&ParamContext::ALL[..]),
    ) {
        let d = detector("(a ; b)", ctx);
        let dets = run(&d, &steps);
        for det in dets {
            let prims = det.occurrence.param_list();
            for w in prims.windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
            // terminator is a `b`, initiators are `a`s
            prop_assert_eq!(&*prims.last().unwrap().event_name, "b");
            prop_assert!(prims[..prims.len() - 1].iter().all(|p| &*p.event_name == "a"));
        }
    }

    /// Flushing a transaction removes its occurrences: no detection after
    /// the flush may involve that transaction's earlier events.
    #[test]
    fn flush_is_sound(steps in prop::collection::vec(step_strategy(), 0..50)) {
        let d = detector("a ^ b", ParamContext::Chronicle);
        let mut flushed_t: Vec<(u64, u64)> = Vec::new(); // (txn, flush time)
        for s in &steps {
            let dets = run(&d, std::slice::from_ref(s));
            if let Step::FlushTxn(t) = s {
                flushed_t.push((u64::from(*t), d.clock().peek()));
            }
            for det in dets {
                check_no_flushed(&det, &flushed_t)?;
            }
        }
    }

    /// Online and batch detection agree exactly (same composites, same
    /// occurrence times) for arbitrary workloads and contexts: the
    /// unrecorded online run, the same run recorded through an
    /// [`EventRecorder`], and the replay of that recording. The second
    /// graph input adds a temporal operator (`PLUS` or `P`) in a shard of
    /// its own, whose alarms come due while the `a ^ b` shard is
    /// signalled — recording must not change which alarms a signal fires.
    #[test]
    fn online_equals_batch(
        steps in prop::collection::vec(leaf_step_strategy(), 0..40),
        ctx in prop::sample::select(&ParamContext::ALL[..]),
        temporal in prop::sample::select(&[None, Some("PLUS(c, 3)"), Some("P(c, 2, d)")][..]),
    ) {
        let plain = detector_with("a ^ b", temporal, ctx);
        prop_assert_ne!(plain.shard_of_class("CA"), plain.shard_of_class("CC"));
        let plain_dets = run(&plain, &steps);

        let online = detector_with("a ^ b", temporal, ctx);
        let recorder = Arc::new(EventRecorder::default());
        online.set_event_sink(recorder.clone());
        let online_dets = run(&online, &steps);
        online.clear_event_sink();
        let log = recorder.take();
        prop_assert_eq!(log.len(), steps.len());

        let batch = detector_with("a ^ b", temporal, ctx);
        let batch_dets = batch.replay(&log);
        same_detections(&plain_dets, &online_dets)?;
        same_detections(&online_dets, &batch_dets)?;
    }
}

/// A detector whose graph has (at least) two disjoint shards: the method
/// component `x = a ; b` and the explicit component `y = p ^ q`.
fn sharded_detector(ctx: ParamContext) -> LocalEventDetector {
    let d = LocalEventDetector::new(0);
    d.declare_primitive("a", "CA", EventModifier::End, SIG_A, PrimTarget::AnyInstance).unwrap();
    d.declare_primitive("b", "CB", EventModifier::End, SIG_B, PrimTarget::AnyInstance).unwrap();
    d.declare_explicit("p");
    d.declare_explicit("q");
    let x = d.define_named("x", &parse_event_expr("a ; b").unwrap()).unwrap();
    let y = d.define_named("y", &parse_event_expr("p ^ q").unwrap()).unwrap();
    d.subscribe(x, ctx, 1).unwrap();
    d.subscribe(y, ctx, 2).unwrap();
    d
}

/// One step of a two-shard workload.
#[derive(Debug, Clone, Copy)]
enum SStep {
    A(u8),
    B(u8),
    P,
    Q,
    Flush(u8),
}

fn sstep_strategy() -> impl Strategy<Value = SStep> {
    prop_oneof![
        (0u8..3).prop_map(SStep::A),
        (0u8..3).prop_map(SStep::B),
        Just(SStep::P),
        Just(SStep::Q),
        (0u8..3).prop_map(SStep::Flush),
    ]
}

fn srun(d: &LocalEventDetector, steps: &[SStep]) -> Vec<Detection> {
    let mut out = Vec::new();
    for s in steps {
        match s {
            SStep::A(t) => out.extend(d.notify_method(
                "CA",
                SIG_A,
                EventModifier::End,
                1,
                Vec::new(),
                Some(u64::from(*t)),
            )),
            SStep::B(t) => out.extend(d.notify_method(
                "CB",
                SIG_B,
                EventModifier::End,
                1,
                Vec::new(),
                Some(u64::from(*t)),
            )),
            SStep::P => out.extend(d.signal_explicit("p", Vec::new(), None)),
            SStep::Q => out.extend(d.signal_explicit("q", Vec::new(), None)),
            SStep::Flush(t) => d.flush_txn(u64::from(*t)),
        }
    }
    out
}

proptest! {
    /// A snapshot of a sharded graph survives encode → decode → restore
    /// into a twin detector with identical definitions: the twin's own
    /// snapshot is byte-for-byte the original, the clock is preserved, and
    /// detection *continues identically* — the restored twin and the
    /// original produce the same detections for any suffix workload.
    #[test]
    fn snapshot_roundtrips_on_sharded_graph(
        steps in prop::collection::vec(sstep_strategy(), 0..60),
        suffix in prop::collection::vec(sstep_strategy(), 0..20),
        ctx in prop::sample::select(&ParamContext::ALL[..]),
    ) {
        let d = sharded_detector(ctx);
        prop_assert!(d.shard_count() >= 2, "workload must span disjoint shards");
        srun(&d, &steps);
        let snap = d.snapshot_state();
        let decoded = GraphSnapshot::decode(snap.encode()).expect("snapshot decodes");
        let twin = sharded_detector(ctx);
        twin.restore_snapshot(&decoded).unwrap();
        prop_assert_eq!(twin.snapshot_state().encode(), d.snapshot_state().encode());
        prop_assert_eq!(twin.clock().peek(), d.clock().peek(), "restore preserves the clock");

        let d_dets = srun(&d, &suffix);
        let t_dets = srun(&twin, &suffix);
        prop_assert_eq!(d_dets.len(), t_dets.len());
        for (a, b) in d_dets.iter().zip(&t_dets) {
            prop_assert_eq!(a.event, b.event);
            prop_assert_eq!(a.context, b.context);
            prop_assert_eq!(a.occurrence.at, b.occurrence.at);
            let ats: Vec<_> = a.occurrence.param_list().iter().map(|o| o.at).collect();
            let bts: Vec<_> = b.occurrence.param_list().iter().map(|o| o.at).collect();
            prop_assert_eq!(ats, bts);
        }
    }
}

fn check_no_flushed(det: &Detection, flushed: &[(u64, u64)]) -> Result<(), TestCaseError> {
    for prim in det.occurrence.param_list() {
        if let Some(txn) = prim.txn {
            for (ft, at) in flushed {
                prop_assert!(
                    !(txn == *ft && prim.at <= *at),
                    "constituent from txn {} at t={} survived a flush at t={}",
                    txn,
                    prim.at,
                    at
                );
            }
        }
    }
    Ok(())
}
