//! `embedded_txn`: the linked-application deployment the paper describes.
//! One application thread runs transactions over the STOCK/PORTFOLIO
//! schema through the active wrapper: each `set_price` may fire an
//! immediate rule that revalues a portfolio, which fires a second rule in
//! a higher priority class that sells stock (cascade depth 2); a deferred
//! rule audits every committed transaction at pre-commit; a chronicle
//! composite `set_price ; sell_stock` is counted; one transaction in
//! twenty aborts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::Value;
use sentinel_core::obs::json;
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::rules::{ExecutionMode, RuleInvocation};
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{CouplingMode, ParamContext};
use sentinel_core::storage::disk::MemDisk;
use sentinel_core::storage::wal::LogStore;
use sentinel_core::storage::{StorageEngine, StorageResult, TxnId};
use sentinel_core::{Sentinel, SentinelConfig, SentinelStats};

use crate::child::peak_rss_mb;
use crate::gen::{txn_scripts, TxnScript, INVOKES_PER_TXN};
use crate::params::*;
use crate::report::Outcome;
use crate::stats::{self, median, ns_u32, Window};

pub const SET_PRICE: &str = "void set_price(float price)";
pub const SELL_STOCK: &str = "int sell_stock(int qty)";
/// `set_price` under a name no event is declared on: the passive twin the
/// ladder compares the reactive method with.
pub const SET_PRICE_QUIET: &str = "void set_price_quiet(float price)";
pub const REVALUE: &str = "void revalue(float delta, int stock)";
pub const RECORD: &str = "void record(int n)";
const INITIAL_HOLDINGS: i64 = 1 << 40;

/// The WAL's device: a fixed ring the log is copied into and never read
/// back. WAL code (framing, checksums, forces) runs and the copy is paid,
/// but the log does not grow with the run, so memory is not a function of
/// how many transactions fit into the measured seconds. (Undo is kept in
/// memory by the engine; the log is only read by restart recovery, which
/// this workload never runs.)
pub struct RingLog {
    ring: Mutex<Ring>,
}

struct Ring {
    buf: Box<[u8]>,
    len: u64,
}

impl RingLog {
    pub fn new() -> RingLog {
        RingLog { ring: Mutex::new(Ring { buf: vec![0; 1 << 20].into(), len: 0 }) }
    }
}

impl LogStore for RingLog {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let mut r = self.ring.lock().expect("ring log lock");
        let off = r.len;
        let cap = r.buf.len();
        // Of a record longer than the ring only the tail can survive.
        let tail = &data[data.len().saturating_sub(cap)..];
        let at = ((off + (data.len() - tail.len()) as u64) % cap as u64) as usize;
        let first = tail.len().min(cap - at);
        r.buf[at..at + first].copy_from_slice(&tail[..first]);
        r.buf[..tail.len() - first].copy_from_slice(&tail[first..]);
        r.len += data.len() as u64;
        Ok(off)
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        Ok(Vec::new())
    }
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
    fn len(&self) -> StorageResult<u64> {
        Ok(self.ring.lock().expect("ring log lock").len)
    }
    fn truncate(&self, _len: u64) -> StorageResult<()> {
        Ok(())
    }
}

/// What the rules count, for the oracle.
#[derive(Default)]
pub struct Fired {
    pub immediate: AtomicU64,
    pub cascade: AtomicU64,
    pub deferred: AtomicU64,
    pub trade_seq: AtomicU64,
}

/// Which rules a system is built with (the ladder's `oodb` rungs want
/// events without rules).
#[derive(Clone, Copy, PartialEq)]
pub enum Rules {
    None,
    All,
}

pub struct System {
    pub sentinel: Arc<Sentinel>,
    pub fired: Arc<Fired>,
    pub stocks: Arc<Vec<Oid>>,
    pub portfolios: Arc<Vec<Oid>>,
    pub audits: Arc<Vec<Oid>>,
}

fn float_arg(inv: &RuleInvocation, name: &str) -> f64 {
    let v = inv.occurrence.params.iter().find(|(n, _)| &**n == name).map(|(_, v)| v);
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

/// The immediate rule's condition: the new price, in cents, is a multiple
/// of four (a quarter of the generated prices).
fn price_triggers(price: f64) -> bool {
    (price * 100.0).round() as i64 % 4 == 0
}

impl System {
    /// Builds the engine, schema, events and rules, and populates the
    /// objects (`stocks` of them).
    pub fn build(mode: ExecutionMode, rules: Rules, stocks: usize) -> System {
        let engine = StorageEngine::open_with_capacity(
            Arc::new(MemDisk::new()),
            Arc::new(RingLog::new()),
            TXN_POOL_FRAMES,
        )
        .expect("open engine");
        let s =
            Sentinel::open(Arc::new(engine), SentinelConfig { mode, ..SentinelConfig::default() })
                .expect("open sentinel");
        Self::schema(&s);
        s.declare_event(
            "set_price_ev",
            "STOCK",
            EventModifier::End,
            SET_PRICE,
            PrimTarget::AnyInstance,
        )
        .expect("set_price_ev");
        s.declare_event(
            "sell_ev",
            "STOCK",
            EventModifier::End,
            SELL_STOCK,
            PrimTarget::AnyInstance,
        )
        .expect("sell_ev");
        s.declare_event(
            "revalue_ev",
            "PORTFOLIO",
            EventModifier::End,
            REVALUE,
            PrimTarget::AnyInstance,
        )
        .expect("revalue_ev");
        s.define_event("trade_seq", "set_price_ev ; sell_ev").expect("trade_seq");

        let mut sys = System {
            sentinel: s,
            fired: Arc::new(Fired::default()),
            stocks: Arc::new(Vec::new()),
            portfolios: Arc::new(Vec::new()),
            audits: Arc::new(Vec::new()),
        };
        sys.populate(stocks);
        if rules == Rules::All {
            sys.rules();
        }
        sys
    }

    fn schema(s: &Sentinel) {
        let db = s.db();
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
        .expect("STOCK");
        db.register_class(
            ClassDef::new("PORTFOLIO")
                .extends("REACTIVE")
                .attr("owner", AttrType::Str)
                .attr("value", AttrType::Float)
                .attr("trades", AttrType::Int)
                .method(REVALUE),
        )
        .expect("PORTFOLIO");
        db.register_class(
            ClassDef::new("AUDIT")
                .extends("REACTIVE")
                .attr("txns", AttrType::Int)
                .attr("price_changes", AttrType::Int)
                .method(RECORD),
        )
        .expect("AUDIT");
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

    fn populate(&mut self, stocks: usize) {
        let s = &self.sentinel;
        let pad = "x".repeat(TXN_PAD_BYTES);
        let create = |n: usize, make: &dyn Fn(usize) -> ObjectState| -> Vec<Oid> {
            let mut oids = Vec::with_capacity(n);
            // 1024 creations per transaction bound the undo chain and the
            // lock table.
            for base in (0..n).step_by(1024) {
                let txn = s.begin().expect("begin");
                for i in base..(base + 1024).min(n) {
                    oids.push(s.create_object(txn, &make(i)).expect("create"));
                }
                s.commit(txn).expect("commit");
            }
            oids
        };
        self.stocks = Arc::new(create(stocks, &|i| {
            ObjectState::new("STOCK")
                .with("symbol", AttrValue::Str(format!("S{i:05}")))
                .with("price", 100.0)
                .with("holdings", INITIAL_HOLDINGS)
                .with("notes", pad.as_str())
        }));
        self.portfolios = Arc::new(create(TXN_PORTFOLIOS, &|i| {
            ObjectState::new("PORTFOLIO")
                .with("owner", AttrValue::Str(format!("P{i:02}")))
                .with("value", 0.0)
                .with("trades", 0i64)
        }));
        self.audits = Arc::new(create(TXN_PORTFOLIOS, &|_| {
            ObjectState::new("AUDIT").with("txns", 0i64).with("price_changes", 0i64)
        }));
    }

    fn rules(&self) {
        let s = &self.sentinel;
        // Rule bodies reach the system through a weak reference: the rule
        // manager is owned by the system, so a strong one would leak it.
        let weak: Weak<Sentinel> = Arc::downgrade(s);

        // Immediate, priority 10: a triggering price revalues a portfolio.
        let (w, fired, portfolios) = (weak.clone(), self.fired.clone(), self.portfolios.clone());
        s.define_rule(
            "revalue_on_price",
            "set_price_ev",
            Arc::new(|inv| price_triggers(float_arg(inv, "price"))),
            Arc::new(move |inv| {
                fired.immediate.fetch_add(1, Ordering::Relaxed);
                let (Some(s), Some(txn), Some(stock)) =
                    (w.upgrade(), inv.txn, inv.occurrence.source)
                else {
                    return;
                };
                let cents = (float_arg(inv, "price") * 100.0).round();
                let portfolio = portfolios[(stock % portfolios.len() as u64) as usize];
                s.invoke(
                    TxnId(txn),
                    portfolio,
                    REVALUE,
                    vec![
                        ("delta".into(), AttrValue::Float(cents)),
                        ("stock".into(), AttrValue::Int(stock as i64)),
                    ],
                )
                .expect("revalue");
            }),
            RuleOptions::default().priority(10),
        )
        .expect("revalue_on_price");

        // Immediate, higher priority class: every revalue sells one share
        // of the stock that caused it (cascade depth 2).
        let (w, fired) = (weak.clone(), self.fired.clone());
        s.define_rule(
            "sell_on_revalue",
            "revalue_ev",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                fired.cascade.fetch_add(1, Ordering::Relaxed);
                let (Some(s), Some(txn)) = (w.upgrade(), inv.txn) else { return };
                let stock = inv.occurrence.params.iter().find(|(n, _)| &**n == "stock");
                let Some(stock) = stock.and_then(|(_, v)| v.as_i64()) else { return };
                s.invoke(
                    TxnId(txn),
                    Oid(stock as u64),
                    SELL_STOCK,
                    vec![("qty".into(), 1i64.into())],
                )
                .expect("sell_stock");
            }),
            RuleOptions::default().priority(20),
        )
        .expect("sell_on_revalue");

        // Deferred (the A* rewrite): once per transaction, at pre-commit,
        // with every price change of the transaction as parameters.
        let (w, fired, audits) = (weak, self.fired.clone(), self.audits.clone());
        s.define_rule(
            "audit_at_commit",
            "set_price_ev",
            Arc::new(|_| true),
            Arc::new(move |inv| {
                fired.deferred.fetch_add(1, Ordering::Relaxed);
                let (Some(s), Some(txn)) = (w.upgrade(), inv.txn) else { return };
                let changes = inv
                    .occurrence
                    .param_list()
                    .iter()
                    .filter(|p| &*p.event_name == "set_price_ev")
                    .count();
                let audit = audits[(txn % audits.len() as u64) as usize];
                s.invoke(TxnId(txn), audit, RECORD, vec![("n".into(), (changes as i64).into())])
                    .expect("record");
            }),
            RuleOptions::default()
                .coupling(CouplingMode::Deferred)
                .context(ParamContext::Cumulative),
        )
        .expect("audit_at_commit");

        // Count-only rule on the chronicle composite.
        let fired = self.fired.clone();
        s.define_rule(
            "count_trade_seq",
            "trade_seq",
            Arc::new(|_| true),
            Arc::new(move |_| {
                fired.trade_seq.fetch_add(1, Ordering::Relaxed);
            }),
            RuleOptions::default().context(ParamContext::Chronicle),
        )
        .expect("count_trade_seq");
    }

    /// Runs one scripted transaction. Returns whether it committed.
    pub fn run_txn(&self, script: &TxnScript) -> bool {
        let s = &self.sentinel;
        let txn = s.begin().expect("begin");
        for &(stock, cents) in &script.invokes {
            let oid = self.stocks[stock as usize % self.stocks.len()];
            s.invoke(
                txn,
                oid,
                SET_PRICE,
                vec![("price".into(), (f64::from(cents) / 100.0).into())],
            )
            .expect("set_price");
        }
        if script.abort {
            s.abort(txn).expect("abort");
        } else {
            s.commit(txn).expect("commit");
        }
        !script.abort
    }
}

/// What the scripts that ran should have caused.
#[derive(Default, Debug, PartialEq)]
pub struct Expected {
    pub txns: u64,
    pub committed: u64,
    /// Invocations whose price triggers the immediate rule, all
    /// transactions / committed ones only.
    pub triggers: u64,
    pub committed_triggers: u64,
    /// Sum of the triggering prices (cents) of committed transactions.
    pub committed_cents: u64,
}

impl Expected {
    pub fn add(&mut self, script: &TxnScript) {
        self.txns += 1;
        let trig: Vec<u32> = script
            .invokes
            .iter()
            .map(|&(_, c)| c)
            .filter(|&c| price_triggers(f64::from(c) / 100.0))
            .collect();
        self.triggers += trig.len() as u64;
        if !script.abort {
            self.committed += 1;
            self.committed_triggers += trig.len() as u64;
            self.committed_cents += trig.iter().map(|&c| u64::from(c)).sum::<u64>();
        }
    }
}

/// What the database holds after the run.
#[derive(Debug)]
pub struct Observed {
    pub portfolio_value: f64,
    pub portfolio_trades: i64,
    pub shares_sold: i64,
    pub audit_txns: i64,
    pub audit_price_changes: i64,
}

impl System {
    pub fn observe(&self) -> Observed {
        let s = &self.sentinel;
        let txn = s.begin().expect("begin");
        let int = |o: &ObjectState, a: &str| o.get(a).and_then(AttrValue::as_int).unwrap_or(0);
        let mut obs = Observed {
            portfolio_value: 0.0,
            portfolio_trades: 0,
            shares_sold: 0,
            audit_txns: 0,
            audit_price_changes: 0,
        };
        for &p in self.portfolios.iter() {
            let o = s.get_object(txn, p).expect("portfolio");
            obs.portfolio_value += o.get("value").and_then(AttrValue::as_float).unwrap_or(0.0);
            obs.portfolio_trades += int(&o, "trades");
        }
        for &a in self.audits.iter() {
            let o = s.get_object(txn, a).expect("audit");
            obs.audit_txns += int(&o, "txns");
            obs.audit_price_changes += int(&o, "price_changes");
        }
        for &st in self.stocks.iter() {
            obs.shares_sold +=
                INITIAL_HOLDINGS - int(&s.get_object(txn, st).expect("stock"), "holdings");
        }
        s.commit(txn).expect("commit");
        obs
    }

    /// Adds the oracle's checks to `out`; returns the operations it found
    /// wrong.
    pub fn check(&self, want: &Expected, out: &mut Outcome) -> u64 {
        let f = &self.fired;
        let got = self.observe();
        let (imm, casc, def, seq) = (
            f.immediate.load(Ordering::Relaxed),
            f.cascade.load(Ordering::Relaxed),
            f.deferred.load(Ordering::Relaxed),
            f.trade_seq.load(Ordering::Relaxed),
        );
        out.check(
            "immediate firings equal true-condition triggerings",
            imm == want.triggers && casc == want.triggers && seq == want.triggers,
            format!("immediate {imm}, cascade {casc}, trade_seq {seq}, want {}", want.triggers),
        );
        out.check(
            "deferred firings equal committed transactions",
            def == want.committed && got.audit_txns as u64 == want.committed,
            format!("deferred {def}, audited {}, committed {}", got.audit_txns, want.committed),
        );
        out.check(
            "portfolio value equals the sum of applied revalues",
            got.portfolio_value == want.committed_cents as f64
                && got.portfolio_trades as u64 == want.committed_triggers
                && got.shares_sold as u64 == want.committed_triggers,
            format!("{got:?} vs {want:?}"),
        );
        out.check(
            "aborted transactions left no audit write",
            got.audit_price_changes as u64 == want.committed * INVOKES_PER_TXN as u64,
            format!(
                "{} price changes audited for {} commits",
                got.audit_price_changes, want.committed
            ),
        );
        imm.abs_diff(want.triggers)
            + casc.abs_diff(want.triggers)
            + seq.abs_diff(want.triggers)
            + def.abs_diff(want.committed)
            + (got.audit_txns as u64).abs_diff(want.committed)
            + (got.portfolio_trades as u64).abs_diff(want.committed_triggers)
            + (got.shares_sold as u64).abs_diff(want.committed_triggers)
            + u64::from(got.portfolio_value != want.committed_cents as f64)
    }
}

/// Counter deltas of a stretch of transactions, per transaction.
pub struct PerTxn {
    pub wal_bytes: f64,
    pub wal_forces: f64,
    pub page_reads: f64,
    pub buffer_hit_ratio: f64,
    pub firings: f64,
}

pub fn per_txn(before: &SentinelStats, after: &SentinelStats, txns: u64) -> PerTxn {
    let n = txns.max(1) as f64;
    let (b0, b1) = (&before.storage.buffer, &after.storage.buffer);
    let (hits, misses) = (b1.hits - b0.hits, b1.misses - b0.misses);
    let fired = |s: &SentinelStats| s.scheduler.fired_immediate + s.scheduler.fired_deferred;
    PerTxn {
        wal_bytes: (after.storage.wal.bytes - before.storage.wal.bytes) as f64 / n,
        wal_forces: (after.storage.wal.forces - before.storage.wal.forces) as f64 / n,
        page_reads: (b1.page_reads - b0.page_reads) as f64 / n,
        buffer_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        firings: (fired(after) - fired(before)) as f64 / n,
    }
}

/// Timed loop over `scripts` (looping) for `seconds`, cut into windows.
pub fn timed_loop(
    sys: &System,
    scripts: &[TxnScript],
    seconds: f64,
    want: &mut Expected,
) -> Vec<Window> {
    let window_len = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut next = want.txns as usize;
    let mut lat_ns = Vec::new();
    for _ in 0..WINDOWS {
        lat_ns.clear();
        let start = Instant::now();
        let mut now = start;
        while now - start < window_len {
            let script = &scripts[next % scripts.len()];
            next += 1;
            let t0 = now;
            sys.run_txn(script);
            now = Instant::now();
            lat_ns.push(ns_u32(now - t0));
            want.add(script);
        }
        windows.extend(Window::reduce(now - start, &mut lat_ns));
    }
    windows
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Set-up: engine, schema, rules, 16 k stocks, warm-up transactions.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let scripts = txn_scripts(seed, TXN_STOCKS, TXN_SCRIPTS);
        let sys = System::build(ExecutionMode::Inline, Rules::All, TXN_STOCKS);
        let mut want = Expected::default();
        for script in &scripts[..TXN_WARMUP] {
            sys.run_txn(script);
            want.add(script);
        }
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((scripts, sys, want));
    }
    let (scripts, sys, mut want) = built.expect("SETUP_REPEATS > 0");

    let stats0 = sys.sentinel.stats();
    let txns0 = want.txns;
    let windows = timed_loop(&sys, &scripts, seconds, &mut want);
    let summary = stats::summarize(&windows);
    let stats1 = sys.sentinel.stats();
    let per = per_txn(&stats0, &stats1, want.txns - txns0);

    let mut out = Outcome::new("embedded_txn");
    let wrong = sys.check(&want, &mut out);
    out.attempted = want.txns;
    out.failed = wrong;
    out.metric("setup_s", median(&setups), SETUP_REPEATS as u64);
    out.metric("throughput_per_s", summary.throughput_per_s, summary.samples);
    out.metric("latency_p50_us", summary.p50_us, summary.samples);
    out.metric("latency_p99_us", summary.p99_us, summary.samples);
    out.metric("peak_rss_mb", peak_rss_mb("self").ok_or("no VmHWM")?, 1);
    out.detail = json::Value::obj([
        ("txns", json::Value::UInt(want.txns)),
        ("committed", json::Value::UInt(want.committed)),
        ("true_condition_triggerings", json::Value::UInt(want.triggers)),
        ("beyond_p99_min", json::Value::UInt(summary.beyond_p99_min)),
        ("window_throughput_per_s", stats::window_throughputs(&windows)),
        ("wal_bytes_per_txn", json::Value::Float(per.wal_bytes)),
        ("buffer_hit_ratio", json::Value::Float(per.buffer_hit_ratio)),
        ("page_reads_per_txn", json::Value::Float(per.page_reads)),
        ("firings_per_txn", json::Value::Float(per.firings)),
        (
            "heap_pages",
            json::Value::UInt(u64::from(sys.sentinel.db().engine().pool().disk().num_pages())),
        ),
    ]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_log_counts_every_byte_and_wraps() {
        let log = RingLog::new();
        assert_eq!(log.append(&[1; 700_000]).unwrap(), 0);
        assert_eq!(log.append(&[2; 700_000]).unwrap(), 700_000);
        assert_eq!(log.len().unwrap(), 1_400_000);
        assert!(log.read_all().unwrap().is_empty());
    }

    #[test]
    fn small_run_passes_its_own_oracle() {
        let scripts = txn_scripts(5, 256, 400);
        let sys = System::build(ExecutionMode::Inline, Rules::All, 256);
        let mut want = Expected::default();
        for s in &scripts {
            sys.run_txn(s);
            want.add(s);
        }
        let mut out = Outcome::new("embedded_txn");
        assert_eq!(
            sys.check(&want, &mut out),
            0,
            "{:?}",
            out.checks.iter().map(|c| &c.detail).collect::<Vec<_>>()
        );
        assert!(want.triggers > 0 && want.committed < want.txns);
    }
}
