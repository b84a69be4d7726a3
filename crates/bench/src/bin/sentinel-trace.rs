//! Trace-query CLI: runs a provenance-traced workload against a fresh
//! Sentinel instance, then answers queries over the recorded spans.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin sentinel-trace -- [FLAGS]
//!
//!   --pokes <N>      workload size: poke() invocations (default 64)
//!   --export <path>  write Chrome trace-event JSON — load the file into
//!                    Perfetto (https://ui.perfetto.dev) or chrome://tracing
//!   --slowest <N>    print the N longest spans (default 10)
//!   --trace <id>     print every span of trace T<id>
//!   --rule <name>    print condition/action spans of one rule
//!   --event <name>   print signal/primitive/detect spans of one event
//! ```
//!
//! The workload exercises the whole causal chain: primitive `poke`
//! signals, a SEQ composite (`poke ; poke`), a rule on the composite whose
//! action raises a cascade event, a rule on the cascade, and a commit (WAL
//! force) — so the export shows signal → detect → condition → action →
//! cascaded signal → wal_force spans linked end to end.

use std::sync::Arc;

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::obs::span::{SpanRecord, TraceId};
use sentinel_core::oodb::schema::{AttrType, ClassDef};
use sentinel_core::oodb::{AttrValue, ObjectState, Oid};
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::ParamContext;
use sentinel_core::storage::TxnId;
use sentinel_core::Sentinel;

/// The signature of the one reactive method the workload invokes.
const SIG: &str = "void poke(int v)";

struct Args {
    pokes: usize,
    export: Option<String>,
    slowest: usize,
    trace: Option<u64>,
    rule: Option<String>,
    event: Option<String>,
}

fn parse_args() -> Args {
    let mut args =
        Args { pokes: 64, export: None, slowest: 10, trace: None, rule: None, event: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--pokes" => args.pokes = value("--pokes").parse().expect("--pokes <N>"),
            "--export" => args.export = Some(value("--export")),
            "--slowest" => args.slowest = value("--slowest").parse().expect("--slowest <N>"),
            "--trace" => args.trace = Some(value("--trace").parse().expect("--trace <id>")),
            "--rule" => args.rule = Some(value("--rule")),
            "--event" => args.event = Some(value("--event")),
            "--help" | "-h" => {
                println!(
                    "sentinel-trace [--pokes N] [--export PATH] [--slowest N] \
                     [--trace ID] [--rule NAME] [--event NAME]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// A Sentinel system with one reactive class `PROBE` whose `poke` method
/// stores its argument and signals the primitive event `poke`.
fn poke_system() -> Arc<Sentinel> {
    let s = Sentinel::in_memory();
    s.db()
        .register_class(
            ClassDef::new("PROBE").extends("REACTIVE").attr("v", AttrType::Int).method(SIG),
        )
        .expect("class");
    s.db().register_method(
        "PROBE",
        SIG,
        Arc::new(|ctx| {
            let v = ctx.arg("v").and_then(|x| x.as_int()).unwrap_or(0);
            ctx.set_attr("v", v)?;
            Ok(AttrValue::Null)
        }),
    );
    s.declare_event("poke", "PROBE", EventModifier::End, SIG, PrimTarget::AnyInstance)
        .expect("event");
    s
}

/// Creates `n` PROBE objects inside `txn`.
fn objects(s: &Sentinel, txn: TxnId, n: usize) -> Vec<Oid> {
    (0..n)
        .map(|i| {
            s.create_object(txn, &ObjectState::new("PROBE").with("v", i as i64)).expect("object")
        })
        .collect()
}

/// Invokes `poke` once.
fn poke(s: &Sentinel, txn: TxnId, oid: Oid, v: i64) {
    s.invoke(txn, oid, SIG, vec![("v".into(), v.into())]).expect("poke");
}

/// The traced workload: SEQ composite + cascading rules over `pokes` calls.
fn run_workload(pokes: usize) -> Arc<Sentinel> {
    let s = poke_system();
    s.set_tracing(true);

    s.define_event("pokepair", "poke ; poke").expect("composite");
    s.detector().declare_explicit("audit");
    let s2 = s.clone();
    s.define_rule(
        "pair_watch",
        "pokepair",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            // Cascade: the action re-signals, extending the same trace.
            s2.raise(inv.txn.map(TxnId), "audit", Vec::new()).expect("raise");
        }),
        RuleOptions::default().context(ParamContext::Chronicle),
    )
    .expect("rule");
    let s3 = s.clone();
    s.define_rule(
        "audit_log",
        "audit",
        Arc::new(|_| true),
        Arc::new(move |inv| {
            // Persist an audit record and force it durable: the insert's
            // page traffic and the WAL force are tagged inside this
            // action's span (page_read / page_write / wal_force).
            if let Some(txn) = inv.txn {
                let state = sentinel_core::oodb::ObjectState::new("REACTIVE");
                let _ = s3.create_object(TxnId(txn), &state);
            }
            let _ = s3.db().engine().checkpoint();
        }),
        RuleOptions::default(),
    )
    .expect("rule");

    let t = s.begin().expect("begin");
    let objs = objects(&s, t, 8);
    for i in 0..pokes {
        poke(&s, t, objs[i % objs.len()], i as i64);
    }
    s.commit(t).expect("commit");
    s
}

fn print_spans(title: &str, spans: &[SpanRecord]) {
    println!("\n{title} ({} spans)", spans.len());
    for sp in spans {
        println!("  {sp}");
    }
}

fn main() {
    let args = parse_args();
    let s = run_workload(args.pokes);
    let store = s.trace_store();

    println!(
        "workload done: {} pokes, {} spans retained, {} evicted",
        args.pokes,
        store.len(),
        store.evicted()
    );

    let summaries = store.trace_summaries();
    println!("\ntraces ({}):", summaries.len());
    for ts in summaries.iter().take(20) {
        println!("  {} root={} spans={} wall={}ns", ts.trace, ts.root, ts.spans, ts.wall_ns);
    }
    if summaries.len() > 20 {
        println!("  … {} more (query with --trace <id>)", summaries.len() - 20);
    }

    if let Some(id) = args.trace {
        print_spans(&format!("trace T{id}"), &store.trace(TraceId(id)));
    }
    if let Some(rule) = &args.rule {
        print_spans(&format!("rule {rule}"), &store.by_rule(rule));
    }
    if let Some(event) = &args.event {
        print_spans(&format!("event {event}"), &store.by_event(event));
    }
    print_spans(&format!("slowest {}", args.slowest), &store.slowest(args.slowest));

    if let Some(path) = &args.export {
        let json = s.export_chrome_trace();
        std::fs::write(path, &json).expect("write export");
        println!("\nwrote {} bytes of Chrome trace-event JSON to {path}", json.len());
        println!("open in https://ui.perfetto.dev or chrome://tracing");
    }
}
