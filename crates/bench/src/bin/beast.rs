//! The BEAST harness binary: regenerates every quantitative table of
//! EXPERIMENTS.md in one run.
//!
//! It prints compact tables for the whole evaluation — the rows recorded
//! in EXPERIMENTS.md (E1–E3, R1–R2, ABL-1..3). Per-layer costs with
//! repeat statistics come from the benchmark's ladder in `benchmark/`.
//! Run with:
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin beast
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sentinel_bench::workload::{
    beast_system, chain_detector, counting_rules, detector_with_leaves, fire_leaf, nested_cascade,
    objects, poke,
};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::ExecutionMode;
use sentinel_core::snoop::{parse_event_expr, CouplingMode, ParamContext};
use sentinel_core::txn::PriorityPool;

/// Measures `f` over `iters` iterations, returning ns/iter.
fn measure(iters: usize, mut f: impl FnMut()) -> f64 {
    // Warmup.
    for _ in 0..iters.min(100) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:8.0} ns")
    }
}

fn header(title: &str) {
    println!("\n## {title}\n");
}

/// Prints the section's observability snapshot (compact JSON, one line).
fn stats_line(label: &str, json: sentinel_core::obs::json::Value) {
    println!("\nstats[{label}]: {json}");
}

fn beast_e1() {
    header("BEAST-E1: primitive event detection overhead (per poke())");
    println!("| objects | passive-ish (unsubscribed event) | active (1 rule) | overhead |");
    println!("|---|---|---|---|");
    let mut last = None;
    for nobjs in [1usize, 16, 256] {
        let s = beast_system(ExecutionMode::Inline);
        let t = s.begin().unwrap();
        let objs = objects(&s, t, nobjs);
        let mut i = 0i64;
        let base = measure(3000, || {
            i += 1;
            poke(&s, t, objs[(i as usize) % objs.len()], i);
        });
        s.commit(t).unwrap();

        let s = beast_system(ExecutionMode::Inline);
        let _c = counting_rules(&s, "poke", 1, 10);
        let t = s.begin().unwrap();
        let objs = objects(&s, t, nobjs);
        let mut i = 0i64;
        let active = measure(3000, || {
            i += 1;
            poke(&s, t, objs[(i as usize) % objs.len()], i);
        });
        s.commit(t).unwrap();
        println!("| {nobjs} | {} | {} | {:.2}x |", fmt_ns(base), fmt_ns(active), active / base);
        last = Some(s.stats());
    }
    if let Some(stats) = last {
        stats_line("e1", stats.to_json());
    }
}

fn beast_e2() {
    header("BEAST-E2: composite detection per operator chain (per full round)");
    println!("| operator | depth 1 | depth 4 | depth 8 |");
    println!("|---|---|---|---|");
    let mut last = None;
    for (label, op) in [("AND", "^"), ("OR", "|"), ("SEQ", ";")] {
        let mut cells = Vec::new();
        for depth in [1usize, 4, 8] {
            let d = chain_detector(op, depth, ParamContext::Chronicle);
            let mut txn = 0u64;
            let ns = measure(2000, || {
                txn += 1;
                for i in 0..=depth {
                    fire_leaf(&d, i, txn);
                }
            });
            cells.push(fmt_ns(ns));
            last = Some(d.stats());
        }
        println!("| {label} | {} | {} | {} |", cells[0], cells[1], cells[2]);
    }
    if let Some(stats) = last {
        stats_line("e2", stats.to_json());
    }
}

fn beast_e3() {
    header("BEAST-E3: context cost (backlog initiators + 1 terminator)");
    println!("| context | backlog 1 | backlog 32 | backlog 256 |");
    println!("|---|---|---|---|");
    let mut last = None;
    for ctx in ParamContext::ALL {
        let mut cells = Vec::new();
        for backlog in [1usize, 32, 256] {
            let d = detector_with_leaves(2);
            let id = d.define_named("x", &parse_event_expr("e0 ^ e1").unwrap()).unwrap();
            d.subscribe(id, ctx, 1).unwrap();
            let mut txn = 0u64;
            let ns = measure(300, || {
                txn += 1;
                for _ in 0..backlog {
                    fire_leaf(&d, 0, txn);
                }
                fire_leaf(&d, 1, txn);
                d.flush_txn(txn);
            });
            cells.push(fmt_ns(ns));
            last = Some(d.stats());
        }
        println!("| {} | {} | {} | {} |", ctx.keyword(), cells[0], cells[1], cells[2]);
    }
    if let Some(stats) = last {
        stats_line("e3", stats.to_json());
    }
}

fn beast_r1() {
    header("BEAST-R1: rule firing overhead");
    println!("| rules on one event | ns per triggering event |");
    println!("|---|---|");
    for nrules in [1usize, 10, 100, 1000] {
        let s = beast_system(ExecutionMode::Inline);
        let _c = counting_rules(&s, "poke", nrules, 10);
        let t = s.begin().unwrap();
        let objs = objects(&s, t, 1);
        let mut i = 0i64;
        let ns = measure(if nrules >= 100 { 200 } else { 2000 }, || {
            i += 1;
            poke(&s, t, objs[0], i);
        });
        s.commit(t).unwrap();
        println!("| {nrules} | {} |", fmt_ns(ns));
    }

    println!("\n| coupling | triggerings/txn | per-transaction cost | rule executions |");
    println!("|---|---|---|---|");
    let mut last = None;
    for coupling in [CouplingMode::Immediate, CouplingMode::Deferred] {
        for k in [1usize, 10, 50] {
            let s = beast_system(ExecutionMode::Inline);
            let fired = Arc::new(AtomicUsize::new(0));
            let f = fired.clone();
            s.define_rule(
                "r",
                "poke",
                Arc::new(|_| true),
                Arc::new(move |_| {
                    f.fetch_add(1, Ordering::Relaxed);
                }),
                RuleOptions::default().coupling(coupling),
            )
            .unwrap();
            let setup = s.begin().unwrap();
            let objs = objects(&s, setup, 1);
            s.commit(setup).unwrap();
            fired.store(0, Ordering::Relaxed);
            let mut i = 0i64;
            let iters = 300;
            let ns = measure(iters, || {
                let t = s.begin().unwrap();
                for _ in 0..k {
                    i += 1;
                    poke(&s, t, objs[0], i);
                }
                s.commit(t).unwrap();
            });
            let execs =
                fired.load(Ordering::Relaxed) as f64 / (iters as f64 + iters.min(100) as f64);
            println!("| {coupling} | {k} | {} | {execs:.1} per txn |", fmt_ns(ns));
            last = Some(s.stats());
        }
    }
    if let Some(stats) = last {
        stats_line("r1", stats.to_json());
    }
}

fn beast_r2() {
    header("BEAST-R2: nested rule cascade (per transaction)");
    println!("| depth | inline | threaded(4) |");
    println!("|---|---|---|");
    let mut last = None;
    for depth in [1usize, 4, 8, 16] {
        let mut cells = Vec::new();
        for mode in [ExecutionMode::Inline, ExecutionMode::Threaded { workers: 4 }] {
            let s = beast_system(mode);
            let _c = nested_cascade(&s, depth);
            let ns = measure(200, || {
                let t = s.begin().unwrap();
                s.raise(Some(t), "cascade0", Vec::new()).unwrap();
                s.commit(t).unwrap();
            });
            cells.push(fmt_ns(ns));
            last = Some(s.stats());
        }
        println!("| {depth} | {} | {} |", cells[0], cells[1]);
    }
    if let Some(stats) = last {
        stats_line("r2", stats.to_json());
    }

    // Trace-stream consumption: the debugger subscribes to the shared bus
    // and drains structured records for one traced transaction.
    let s = beast_system(ExecutionMode::Inline);
    let _c = nested_cascade(&s, 4);
    s.debugger().attach_stream(s.trace().subscribe());
    let t = s.begin().unwrap();
    s.raise(Some(t), "cascade0", Vec::new()).unwrap();
    s.commit(t).unwrap();
    let records = s.debugger().drain_stream();
    println!("\ntrace[r2]: {} records consumed for one depth-4 cascade txn", records.len());
}

fn abl1() {
    header("ABL-1: shared event graph vs per-rule graphs");
    println!("| rules | shared graph (nodes / round) | per-rule graphs (nodes / round) |");
    println!("|---|---|---|");
    let mut last = None;
    for k in [4usize, 32, 128] {
        let shared = detector_with_leaves(2);
        let id = shared.define_named("x", &parse_event_expr("e0 ^ e1").unwrap()).unwrap();
        for sub in 0..k {
            shared.subscribe(id, ParamContext::Recent, sub as u64).unwrap();
        }
        let mut txn = 0u64;
        let shared_ns = measure(2000, || {
            txn += 1;
            fire_leaf(&shared, 0, txn);
            fire_leaf(&shared, 1, txn);
        });
        let shared_nodes = shared.graph_size();

        let per_rule = detector_with_leaves(2 + k);
        for sub in 0..k {
            let expr = format!("e0 ^ (e1 | e{})", 2 + sub);
            let nid = per_rule
                .define_named(&format!("x{sub}"), &parse_event_expr(&expr).unwrap())
                .unwrap();
            per_rule.subscribe(nid, ParamContext::Recent, sub as u64).unwrap();
        }
        let mut txn = 0u64;
        let per_ns = measure(2000, || {
            txn += 1;
            fire_leaf(&per_rule, 0, txn);
            fire_leaf(&per_rule, 1, txn);
        });
        println!(
            "| {k} | {} ({} nodes) | {} ({} nodes) |",
            fmt_ns(shared_ns),
            shared_nodes,
            fmt_ns(per_ns),
            per_rule.graph_size()
        );
        last = Some(shared.stats());
    }
    if let Some(stats) = last {
        stats_line("abl1", stats.to_json());
    }
}

fn abl2() {
    header("ABL-2: demand-driven propagation (64-wide graph)");
    println!("| active subscriptions | ns per leaf occurrence |");
    println!("|---|---|");
    let mut last = None;
    for active_n in [0usize, 8, 64] {
        let d = detector_with_leaves(65);
        let mut ids = Vec::new();
        for i in 0..64 {
            let expr = format!("e0 ^ e{}", i + 1);
            ids.push(d.define_named(&format!("w{i}"), &parse_event_expr(&expr).unwrap()).unwrap());
        }
        for (i, id) in ids.iter().take(active_n).enumerate() {
            d.subscribe(*id, ParamContext::Recent, i as u64).unwrap();
        }
        let mut txn = 0u64;
        let ns = measure(3000, || {
            txn += 1;
            fire_leaf(&d, 0, txn);
        });
        println!("| {active_n} | {} |", fmt_ns(ns));
        last = Some(d.stats());
    }
    if let Some(stats) = last {
        stats_line("abl2", stats.to_json());
    }
}

fn abl3() {
    header("ABL-3: thread pool vs spawn-per-rule (burst of no-op rule bodies)");
    println!("| burst | pool(4) | spawn per rule |");
    println!("|---|---|---|");
    let submitted = sentinel_core::obs::Counter::new();
    let bursts = sentinel_core::obs::Counter::new();
    for burst in [10usize, 100, 1000] {
        let pool = PriorityPool::new(4);
        let pool_ns = measure(50, || {
            let counter = Arc::new(AtomicUsize::new(0));
            for _ in 0..burst {
                let c = counter.clone();
                pool.submit(0, move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.quiesce();
            submitted.add(burst as u64);
            bursts.inc();
        });
        let spawn_ns = measure(10, || {
            let counter = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..burst)
                .map(|_| {
                    let c = counter.clone();
                    std::thread::spawn(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        println!("| {burst} | {} | {} |", fmt_ns(pool_ns), fmt_ns(spawn_ns));
    }
    stats_line(
        "abl3",
        sentinel_core::obs::json::Value::obj([
            ("pool_bursts", bursts.get().into()),
            ("pool_bodies_submitted", submitted.get().into()),
        ]),
    );
}

fn main() {
    println!("# BEAST harness results");
    println!("(logical-clock simulator substrate; shapes, not absolute numbers, are the result)");
    beast_e1();
    beast_e2();
    beast_e3();
    beast_r1();
    beast_r2();
    abl1();
    abl2();
    abl3();
    println!("\ndone.");
}
