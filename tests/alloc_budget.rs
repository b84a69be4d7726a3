//! Heap allocations of the object write path, kept under a budget.
//!
//! A counting global allocator counts the allocations the test thread makes
//! (rules run inline, so all of a transaction's work is on it) for one
//! passive `invoke` and for one scripted STOCK/PORTFOLIO transaction of the
//! shape the benchmark's `embedded_txn` workload runs: eight `set_price`
//! invocations, a quarter of which fire an immediate rule that revalues a
//! portfolio, which fires a rule that sells stock; a deferred audit rule at
//! pre-commit; a chronicle composite. Measured here at commit 4427bb8,
//! before the wrapper decoded the receiver once and wrote it back once: 73
//! and 1 280; after: 25 and 524. Once wrappers notified only the edges
//! their route names and the scheduler read each rule once: 13 and 380.
//! Once propagation reused its buffers, built no occurrence nothing
//! consumes and counted rule firings without a map: 13 and 299. The budgets
//! keep the 1.6× and 1.72× headroom of the first ones.
//!
//! A passive invoke has a budget of its own: it allocates exactly what the
//! same invoke on a `Database` with no hooks does — the bridge adds nothing.
//!
//! `Sentinel::raise` into a graph of every Snoop operator, subscribed in all
//! four contexts by rules that only count, is the `embedded_detect` shape:
//! 64 allocations per raise before that propagation change, 35 after; its
//! budget keeps the 1.6× headroom. An explicit signal to a leaf no parent or
//! rule consumes allocates nothing at all.
//!
//! The allocator also counts the bytes requested, which bounds what a
//! decoder reserves for a count it has read but not yet backed by input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::log::decode_log;
use sentinel_core::detector::{GraphSnapshot, LocalEventDetector, Value};
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, Database, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::RuleInvocation;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{CouplingMode, ParamContext};
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-local `Cell`s, which neither
// allocate nor run a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// What `f` returns, and the bytes this thread requested while it ran.
fn requested_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const SET_PRICE: &str = "void set_price(float price)";
const SET_PRICE_QUIET: &str = "void set_price_quiet(float price)";
const SELL_STOCK: &str = "int sell_stock(int qty)";
const REVALUE: &str = "void revalue(float delta, int stock)";
const RECORD: &str = "void record(int n)";

fn float_arg(inv: &RuleInvocation, name: &str) -> f64 {
    let v = inv.occurrence.params.iter().find(|(n, _)| &**n == name).map(|(_, v)| v);
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

struct Market {
    sentinel: Arc<Sentinel>,
    stocks: Vec<Oid>,
}

/// Registers the STOCK/PORTFOLIO/AUDIT schema and method bodies.
fn schema(db: &Database) {
    db.register_class(
        ClassDef::new("STOCK")
            .extends("REACTIVE")
            .attr("symbol", AttrType::Str)
            .attr("price", AttrType::Float)
            .attr("holdings", AttrType::Int)
            .attr("notes", AttrType::Str)
            .method(SET_PRICE)
            .method(SET_PRICE_QUIET)
            .method(SELL_STOCK),
    )
    .unwrap();
    db.register_class(
        ClassDef::new("PORTFOLIO")
            .extends("REACTIVE")
            .attr("value", AttrType::Float)
            .attr("trades", AttrType::Int)
            .method(REVALUE),
    )
    .unwrap();
    db.register_class(
        ClassDef::new("AUDIT")
            .extends("REACTIVE")
            .attr("txns", AttrType::Int)
            .attr("price_changes", AttrType::Int)
            .method(RECORD),
    )
    .unwrap();
    for sig in [SET_PRICE, SET_PRICE_QUIET] {
        db.register_method(
            "STOCK",
            sig,
            Arc::new(|ctx| {
                let p = ctx.arg("price").and_then(AttrValue::as_float).unwrap_or(0.0);
                ctx.set_attr("price", p)?;
                Ok(AttrValue::Null)
            }),
        );
    }
    db.register_method(
        "STOCK",
        SELL_STOCK,
        Arc::new(|ctx| {
            let q = ctx.arg("qty").and_then(AttrValue::as_int).unwrap_or(0);
            let h = ctx.get_attr("holdings")?.as_int().unwrap_or(0);
            ctx.set_attr("holdings", h - q)?;
            Ok(AttrValue::Int(h - q))
        }),
    );
    db.register_method(
        "PORTFOLIO",
        REVALUE,
        Arc::new(|ctx| {
            let d = ctx.arg("delta").and_then(AttrValue::as_float).unwrap_or(0.0);
            let v = ctx.get_attr("value")?.as_float().unwrap_or(0.0);
            let t = ctx.get_attr("trades")?.as_int().unwrap_or(0);
            ctx.set_attr("value", v + d)?;
            ctx.set_attr("trades", t + 1)?;
            Ok(AttrValue::Null)
        }),
    );
    db.register_method(
        "AUDIT",
        RECORD,
        Arc::new(|ctx| {
            let n = ctx.arg("n").and_then(AttrValue::as_int).unwrap_or(0);
            let t = ctx.get_attr("txns")?.as_int().unwrap_or(0);
            let c = ctx.get_attr("price_changes")?.as_int().unwrap_or(0);
            ctx.set_attr("txns", t + 1)?;
            ctx.set_attr("price_changes", c + n)?;
            Ok(AttrValue::Null)
        }),
    );
}

/// One stock, as the market creates them.
fn stock(i: usize) -> ObjectState {
    ObjectState::new("STOCK")
        .with("symbol", AttrValue::Str(format!("S{i:05}")))
        .with("price", 100.0)
        .with("holdings", 1i64 << 40)
        .with("notes", "x".repeat(160).as_str())
}

fn market() -> Market {
    let s = Sentinel::in_memory();
    schema(s.db());
    for (name, class, sig) in [
        ("set_price_ev", "STOCK", SET_PRICE),
        ("sell_ev", "STOCK", SELL_STOCK),
        ("revalue_ev", "PORTFOLIO", REVALUE),
    ] {
        s.declare_event(name, class, EventModifier::End, sig, PrimTarget::AnyInstance).unwrap();
    }
    s.define_event("trade_seq", "set_price_ev ; sell_ev").unwrap();

    let txn = s.begin().unwrap();
    let stocks: Vec<Oid> = (0..64).map(|i| s.create_object(txn, &stock(i)).unwrap()).collect();
    let portfolio = s
        .create_object(txn, &ObjectState::new("PORTFOLIO").with("value", 0.0).with("trades", 0i64))
        .unwrap();
    let audit = s
        .create_object(
            txn,
            &ObjectState::new("AUDIT").with("txns", 0i64).with("price_changes", 0i64),
        )
        .unwrap();
    s.commit(txn).unwrap();

    let weak: Weak<Sentinel> = Arc::downgrade(&s);
    let w = weak.clone();
    s.define_rule(
        "revalue_on_price",
        "set_price_ev",
        Arc::new(|inv| (float_arg(inv, "price") * 100.0).round() as i64 % 4 == 0),
        Arc::new(move |inv| {
            let (Some(s), Some(txn), Some(stock)) = (w.upgrade(), inv.txn, inv.occurrence.source)
            else {
                return;
            };
            let args = vec![
                ("delta".into(), AttrValue::Float(float_arg(inv, "price") * 100.0)),
                ("stock".into(), AttrValue::Int(stock as i64)),
            ];
            s.invoke(TxnId(txn), portfolio, REVALUE, args).unwrap();
        }),
        RuleOptions::default().priority(10),
    )
    .unwrap();
    let w = weak.clone();
    s.define_rule(
        "sell_on_revalue",
        "revalue_ev",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let (Some(s), Some(txn)) = (w.upgrade(), inv.txn) else { return };
            let stock = inv.occurrence.params.iter().find(|(n, _)| &**n == "stock");
            let Some(stock) = stock.and_then(|(_, v)| v.as_i64()) else { return };
            s.invoke(TxnId(txn), Oid(stock as u64), SELL_STOCK, vec![("qty".into(), 1i64.into())])
                .unwrap();
        }),
        RuleOptions::default().priority(20),
    )
    .unwrap();
    let w = weak;
    s.define_rule(
        "audit_at_commit",
        "set_price_ev",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            let (Some(s), Some(txn)) = (w.upgrade(), inv.txn) else { return };
            let changes = inv
                .occurrence
                .param_list()
                .iter()
                .filter(|p| &*p.event_name == "set_price_ev")
                .count();
            s.invoke(TxnId(txn), audit, RECORD, vec![("n".into(), (changes as i64).into())])
                .unwrap();
        }),
        RuleOptions::default().coupling(CouplingMode::Deferred).context(ParamContext::Cumulative),
    )
    .unwrap();
    s.define_rule(
        "count_trade_seq",
        "trade_seq",
        Arc::new(|_| true),
        Arc::new(|_| {}),
        RuleOptions::default().context(ParamContext::Chronicle),
    )
    .unwrap();
    Market { sentinel: s, stocks }
}

/// Eight `set_price` invocations, the third and the seventh at a price
/// that fires the immediate rule, then commit.
fn scripted_txn(sys: &Market, round: usize) {
    let s = &sys.sentinel;
    let txn = s.begin().unwrap();
    for i in 0..8 {
        let stock = sys.stocks[(round * 8 + i) % sys.stocks.len()];
        let cents = if i % 4 == 2 { 10_400 } else { 10_401 + i as u32 * 4 };
        let price = f64::from(cents) / 100.0;
        s.invoke(txn, stock, SET_PRICE, vec![("price".into(), price.into())]).unwrap();
    }
    s.commit(txn).unwrap();
}

#[test]
fn the_write_path_stays_within_its_allocation_budget() {
    let sys = market();
    let s = &sys.sentinel;
    // Warm-up: caches filled, vectors and maps grown.
    for round in 0..8 {
        scripted_txn(&sys, round);
    }

    let txn = s.begin().unwrap();
    let rounds = 32u64;
    let passive = allocations(|| {
        for i in 0..rounds {
            let stock = sys.stocks[i as usize % sys.stocks.len()];
            s.invoke(txn, stock, SET_PRICE_QUIET, vec![("price".into(), 101.5.into())]).unwrap();
        }
    }) / rounds;
    s.commit(txn).unwrap();
    assert!(passive <= 21, "{passive} allocations per passive invoke, budget 21");

    let per_txn = allocations(|| {
        for round in 8..8 + rounds {
            scripted_txn(&sys, round as usize);
        }
    }) / rounds;
    assert!(per_txn <= 514, "{per_txn} allocations per scripted transaction, budget 514");
    println!("allocations: {passive} per passive invoke, {per_txn} per scripted transaction");
}

#[test]
fn a_passive_invoke_allocates_what_it_does_without_hooks() {
    // The same schema, objects and warm-up on a bare database and on the
    // market, whose STOCK has events (on other methods) and rules.
    let bare = Database::in_memory();
    bare.register_class(ClassDef::new("REACTIVE")).unwrap();
    schema(&bare);
    let txn = bare.begin().unwrap();
    let bare_stocks: Vec<Oid> =
        (0..64).map(|i| bare.create_object(txn, &stock(i)).unwrap()).collect();
    bare.commit(txn).unwrap();
    let sys = market();
    for round in 0..8 {
        scripted_txn(&sys, round);
    }

    let price = || vec![("price".into(), AttrValue::Float(101.5))];
    let rounds = 32;
    let per_invoke = |invoke: &dyn Fn(usize)| {
        invoke(0); // warm-up: caches filled
        allocations(|| (0..rounds).for_each(invoke))
    };
    let txn = bare.begin().unwrap();
    let without = per_invoke(&|i| {
        bare.invoke(txn, bare_stocks[i % 64], SET_PRICE_QUIET, price()).unwrap();
    });
    bare.commit(txn).unwrap();
    let s = &sys.sentinel;
    let txn = s.begin().unwrap();
    let with = per_invoke(&|i| {
        s.invoke(txn, sys.stocks[i % 64], SET_PRICE_QUIET, price()).unwrap();
    });
    s.commit(txn).unwrap();
    assert_eq!(with, without, "allocations of {rounds} passive invokes with and without hooks");
}

/// Explicit leaves of the every-operator graph.
const LEAVES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// A Sentinel whose event graph holds every Snoop operator over
/// [`LEAVES`], each root subscribed in all four contexts by a rule that
/// only counts.
fn every_operator() -> Arc<Sentinel> {
    let s = Sentinel::in_memory();
    for leaf in LEAVES {
        s.declare_explicit(leaf).unwrap();
    }
    let roots = [
        ("r_and", "a ^ b"),
        ("r_or", "c | d"),
        ("r_seq", "a ; b"),
        ("r_any", "ANY(2, a, c, e)"),
        ("r_not", "NOT(f)[a, b]"),
        ("r_a", "A(a, c, b)"),
        ("r_a_star", "A*(a, d, b)"),
        ("r_p", "P(a, 3, b)"),
        ("r_p_star", "P*(c, 5, d)"),
        ("r_plus", "PLUS(e, 4)"),
    ];
    let fired = Arc::new(AtomicU64::new(0));
    for (root, expr) in roots {
        s.define_event(root, expr).unwrap();
        for ctx in ParamContext::ALL {
            let fired = fired.clone();
            let count = Arc::new(move |_: &RuleInvocation| {
                fired.fetch_add(1, Ordering::Relaxed);
            });
            let opts = RuleOptions::default().context(ctx);
            s.define_rule(&format!("{root}_{ctx}"), root, Arc::new(|_| true), count, opts).unwrap();
        }
    }
    s
}

/// Raises one chunk of 64 signals as transaction `chunk` and returns the
/// allocations of the raises; then, uncounted, ends the chunk as the
/// benchmark's `embedded_detect` does: flush, advance time, forget the
/// transaction.
fn raise_chunk(s: &Sentinel, chunk: u64) -> u64 {
    let v: Arc<str> = Arc::from("v");
    let signals: Vec<_> = (0..64u64)
        .map(|i| {
            let params = vec![(v.clone(), Value::Int(i as i64))];
            (LEAVES[((i * 5 + i / 3 + chunk) % 6) as usize], params)
        })
        .collect();
    let n = allocations(|| {
        for (leaf, params) in signals {
            s.raise(Some(TxnId(chunk)), leaf, params).unwrap();
        }
    });
    let det = s.detector();
    det.flush_txn(chunk);
    s.scheduler().dispatch(det.advance_time(det.clock().peek() + 4));
    s.scheduler().on_txn_end(chunk, true);
    n
}

#[test]
fn raising_into_every_operator_stays_within_its_allocation_budget() {
    let s = every_operator();
    for chunk in 1..=8 {
        raise_chunk(&s, chunk);
    }
    let chunks = 32;
    let total: u64 = (9..9 + chunks).map(|chunk| raise_chunk(&s, chunk)).sum();
    let per_raise = total / (chunks * 64);
    let fired = s.scheduler().stats().fired_immediate;
    assert!(fired > 1000, "the script fires the rules: {fired}");
    assert!(per_raise <= 56, "{per_raise} allocations per raise, budget 56");
    println!("allocations: {per_raise} per raise");
}

#[test]
fn an_explicit_signal_nothing_consumes_allocates_nothing() {
    let det = LocalEventDetector::new(0);
    det.declare_explicit("lonely");
    let params = || vec![(Arc::<str>::from("v"), Value::Int(1))];
    det.signal_explicit("lonely", params(), None); // warm-up: the flight recorder
    let (det, p) = (&det, params());
    let n = allocations(move || {
        det.signal_explicit("lonely", p, None);
    });
    assert_eq!(n, 0, "allocations of a signal no parent or rule consumes");
    let stats = det.stats();
    assert_eq!(stats.per_event, [(Arc::from("lonely"), 2)], "the signal still counts");
}

#[test]
fn a_warmed_up_dispatch_of_counting_rules_allocates_nothing() {
    // Four immediate rules that only count, on one explicit event, fired
    // inside one transaction. Detection runs outside the count; the
    // dispatch itself (rule lookup, agenda, subtransactions, savepoints,
    // flight records, histograms) allocates nothing once warmed up.
    let s = Sentinel::in_memory();
    s.declare_explicit("tick").unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    for i in 0..4 {
        let fired = fired.clone();
        let count = Arc::new(move |_: &RuleInvocation| {
            fired.fetch_add(1, Ordering::Relaxed);
        });
        s.define_rule(&format!("count{i}"), "tick", Arc::new(|_| true), count, Default::default())
            .unwrap();
    }
    let txn = s.begin().unwrap();
    let detect = || s.detector().signal_explicit("tick", Vec::new(), Some(txn.0));
    for _ in 0..8 {
        s.scheduler().dispatch(detect());
    }
    let rounds = 32;
    let mut n = 0;
    for _ in 0..rounds {
        let dets = detect();
        assert_eq!(dets.iter().map(|d| d.subscribers.len()).sum::<usize>(), 4);
        n += allocations(|| s.scheduler().dispatch(dets));
    }
    assert_eq!(fired.load(Ordering::Relaxed), 4 * (8 + rounds));
    assert_eq!(n, 0, "allocations of {rounds} dispatches of four firings");
    assert!(s.scheduler().nested().live_count() <= 1, "only the transaction's root is left");
    s.commit(txn).unwrap();
}

#[test]
fn decoders_reserve_no_more_than_their_input_could_encode() {
    // A 20-byte checkpoint or replication snapshot: magic, version 2, a
    // clock, and a node count of u32::MAX with no node behind it.
    let mut snapshot = b"SSNP".to_vec();
    snapshot.extend_from_slice(&2u32.to_le_bytes());
    snapshot.extend_from_slice(&0u64.to_le_bytes());
    snapshot.extend_from_slice(&u32::MAX.to_le_bytes());
    // A 16-byte stored event log: magic, version 1, and an event count of
    // u64::MAX with no event behind it.
    let mut log = b"SLOG".to_vec();
    log.extend_from_slice(&1u32.to_le_bytes());
    log.extend_from_slice(&u64::MAX.to_le_bytes());
    let (snapshot, log) = (Bytes::from(snapshot), Bytes::from(log));

    let (decoded, bytes) = requested_bytes(|| GraphSnapshot::decode(snapshot));
    assert!(decoded.is_none());
    assert!(bytes < 64 * 1024, "a 20-byte snapshot requested {bytes} bytes");
    let (decoded, bytes) = requested_bytes(|| decode_log(log));
    assert!(decoded.is_none());
    assert!(bytes < 64 * 1024, "a 16-byte event log requested {bytes} bytes");
}
