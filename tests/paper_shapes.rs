//! The shapes the paper argues from, pinned as counts.
//!
//! Each test reads node counts (`graph_size`), per-node traffic
//! (`stats().nodes`), buffered occurrences (`snapshot_state`) or thread
//! identities — never a clock — so a result is the same on any host and
//! under any schedule:
//!
//! * ABL-1 — one shared event graph: common sub-expressions are
//!   represented once, so more rules over one expression add subscribers,
//!   not nodes (§3.1).
//! * ABL-2 — demand-driven propagation: a leaf occurrence reaches only the
//!   operator nodes some rule subscribes to ("does not propagate
//!   parameters to irrelevant nodes").
//! * R1 — deferred coupling: a rule triggered n times in a transaction
//!   runs once, at commit (§2.3 item v).
//! * E3 — parameter contexts: what each context buffers for a backlog of
//!   initiators, and what it keeps after one terminator (§3.2.2).
//! * ABL-3 — the rule thread pool: a burst of rule bodies runs on the
//!   pool's fixed workers, not on a thread per body (Figure 3).
//!
//! The timings of the same workloads are rungs of the benchmark's ladder
//! (`benchmark/`), not assertions here.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::LocalEventDetector;
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, CouplingMode, ParamContext};
use sentinel_core::txn::PriorityPool;
use sentinel_core::Sentinel;

const SIG: &str = "void poke(int v)";

/// A detector with `n` independent primitive leaves `e0 … e(n-1)`, leaf
/// `i` on its own class `C<i>`.
fn leaves(n: usize) -> LocalEventDetector {
    let d = LocalEventDetector::new(0);
    for i in 0..n {
        let (name, class) = (format!("e{i}"), format!("C{i}"));
        d.declare_primitive(&name, &class, EventModifier::End, SIG, PrimTarget::AnyInstance)
            .unwrap();
    }
    d
}

/// Signals leaf `i` once inside transaction `txn`.
fn fire(d: &LocalEventDetector, i: usize, txn: u64) {
    d.notify_method(&format!("C{i}"), SIG, EventModifier::End, 1, Vec::new(), Some(txn));
}

fn define(d: &LocalEventDetector, name: &str, expr: &str) -> sentinel_core::detector::EventId {
    d.define_named(name, &parse_event_expr(expr).unwrap()).unwrap()
}

/// `(emitted, consumed)` summed over contexts for every operator node
/// whose name satisfies `pick`.
fn traffic(d: &LocalEventDetector, pick: impl Fn(&str) -> bool) -> (u64, u64) {
    d.stats()
        .nodes
        .iter()
        .filter(|n| pick(&n.name))
        .fold((0, 0), |(e, c), n| (e + n.total_emitted(), c + n.total_consumed()))
}

/// ABL-1: `k` rules that each define `x<i> = e0 ^ e1` share the
/// expression's one node (the graph keeps its 7 nodes and one round emits
/// one occurrence), where a graph per rule — `e0 ^ (e1 | e<i>)` each —
/// grows by three nodes and two emissions per rule.
#[test]
fn abl1_rules_over_one_expression_share_its_nodes() {
    for (k, per_rule_nodes) in [(4u64, 18usize), (32, 102), (128, 390)] {
        let shared = leaves(2);
        for sub in 0..k {
            let id = define(&shared, &format!("x{sub}"), "e0 ^ e1");
            shared.subscribe(id, ParamContext::Recent, sub).unwrap();
        }
        assert_eq!(shared.graph_size(), 7, "{k} rules");
        fire(&shared, 0, 1);
        fire(&shared, 1, 1);
        assert_eq!(traffic(&shared, |_| true).0, 1, "{k} rules: one emission");

        let per_rule = leaves(2 + k as usize);
        for sub in 0..k {
            let id = define(&per_rule, &format!("x{sub}"), &format!("e0 ^ (e1 | e{})", 2 + sub));
            per_rule.subscribe(id, ParamContext::Recent, sub).unwrap();
        }
        assert_eq!(per_rule.graph_size(), per_rule_nodes, "{k} rules");
        fire(&per_rule, 0, 1);
        fire(&per_rule, 1, 1);
        assert_eq!(traffic(&per_rule, |_| true).0, 2 * k, "{k} rules: an AND and an OR each");
    }
}

/// ABL-2 on a graph `w<i> = e0 ^ e<i+1>` of `width` operator nodes with
/// the first `active` subscribed: the `e0` occurrences the `w` nodes
/// consume after `occurrences` signals of `e0`.
fn consumed_by_w(width: usize, active: usize, occurrences: u64) -> u64 {
    let d = leaves(width + 1);
    for i in 0..width {
        let id = define(&d, &format!("w{i}"), &format!("e0 ^ e{}", i + 1));
        if i < active {
            d.subscribe(id, ParamContext::Recent, i as u64).unwrap();
        }
    }
    for txn in 1..=occurrences {
        fire(&d, 0, txn);
    }
    traffic(&d, |n| n.starts_with('w')).1
}

/// ABL-2: an `e0` occurrence is consumed once per *active* subscription
/// (0, 8, 64), whatever the graph's width.
#[test]
fn abl2_leaf_occurrences_reach_only_subscribed_nodes() {
    const OCCURRENCES: u64 = 5;
    for active in [0u64, 8, 64] {
        assert_eq!(consumed_by_w(64, active as usize, OCCURRENCES), active * OCCURRENCES);
    }
    assert_eq!(consumed_by_w(128, 8, OCCURRENCES), 8 * OCCURRENCES, "twice as wide");
}

/// R1: a deferred rule runs exactly once per transaction at 1, 10 and 50
/// triggerings, at commit; an immediate rule on the same event runs at
/// every triggering.
#[test]
fn r1_deferred_rule_runs_once_per_transaction() {
    for triggerings in [1usize, 10, 50] {
        let s = Sentinel::in_memory();
        s.detector().declare_explicit("tick");
        let (immediate, deferred) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for (name, runs, coupling) in [
            ("imm", &immediate, CouplingMode::Immediate),
            ("def", &deferred, CouplingMode::Deferred),
        ] {
            let runs = runs.clone();
            s.define_rule(
                name,
                "tick",
                Arc::new(|_| true),
                Arc::new(move |_| {
                    runs.fetch_add(1, Ordering::SeqCst);
                }),
                RuleOptions::default().coupling(coupling),
            )
            .unwrap();
        }
        for txn in 1..=2 {
            let t = s.begin().unwrap();
            for _ in 0..triggerings {
                s.raise(Some(t), "tick", Vec::new()).unwrap();
            }
            assert_eq!(deferred.load(Ordering::SeqCst), txn - 1, "not before commit");
            s.commit(t).unwrap();
            assert_eq!(deferred.load(Ordering::SeqCst), txn, "{triggerings} triggerings");
            assert_eq!(immediate.load(Ordering::SeqCst), txn * triggerings);
        }
    }
}

/// Occurrences buffered by node `name`, per context in
/// `ParamContext::ALL` order.
fn buffered(d: &LocalEventDetector, name: &str) -> [usize; 4] {
    let snap = d.snapshot_state();
    let node = snap.nodes.iter().find(|n| &*n.name == name).unwrap();
    node.state.each_ref().map(|st| st.bufs.iter().map(|b| b.len()).sum())
}

/// E3: `e0 ; e1` detected in all four contexts at once. A backlog of 256
/// initiators is one buffered occurrence in recent (the newest replaces
/// the rest) and 256 in the other three. One terminator then leaves what
/// each context's consumption rule says: recent keeps its initiator,
/// chronicle consumes the oldest, continuous every one it paired, and
/// cumulative everything.
#[test]
fn e3_each_context_buffers_and_consumes_as_the_paper_defines() {
    const BACKLOG: usize = 256;
    let d = leaves(2);
    let seq = define(&d, "seq", "e0 ; e1");
    for (sub, ctx) in ParamContext::ALL.into_iter().enumerate() {
        d.subscribe(seq, ctx, sub as u64).unwrap();
    }
    for _ in 0..BACKLOG {
        fire(&d, 0, 1);
    }
    assert_eq!(buffered(&d, "seq"), [1, BACKLOG, BACKLOG, BACKLOG]);
    fire(&d, 1, 1);
    assert_eq!(buffered(&d, "seq"), [1, BACKLOG - 1, 0, 0]);
}

/// ABL-3: a 1 000-body burst on `PriorityPool::new(4)` runs every body on
/// at most the pool's 4 worker threads, none of them the submitter.
#[test]
fn abl3_a_burst_runs_on_the_pools_fixed_workers() {
    const BURST: usize = 1_000;
    let pool = PriorityPool::new(4);
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..BURST {
        let (threads, ran) = (threads.clone(), ran.clone());
        pool.submit(0, move || {
            threads.lock().insert(std::thread::current().id());
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    pool.quiesce();
    assert_eq!(ran.load(Ordering::SeqCst), BURST);
    assert_eq!(pool.workers(), 4);
    let threads = threads.lock();
    assert!((1..=pool.workers()).contains(&threads.len()), "{} threads", threads.len());
    assert!(!threads.contains(&std::thread::current().id()));
}
