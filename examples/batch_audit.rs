//! Batch (after-the-fact) event detection over a stored event log — the
//! §2.1 requirement that the detector support "detection of events as they
//! happen (online) … or over a stored event-log (in batch mode)".
//!
//! An online session records its primitive-event log through an
//! `EventRecorder` sink while detecting composites live; an auditor later replays the log through a fresh
//! detector with *different* rules (a fraud pattern that was not being
//! monitored at the time) and finds matches retroactively — with byte-equal
//! timestamps and parameters.
//!
//! Run with: `cargo run --example batch_audit`

use std::sync::Arc;

use sentinel_core::detector::graph::PrimTarget;
use sentinel_core::detector::{EventRecorder, LocalEventDetector, Value};
use sentinel_core::snoop::ast::EventModifier;
use sentinel_core::snoop::{parse_event_expr, ParamContext};

const WITHDRAW: &str = "void withdraw(float amt)";
const LOGIN: &str = "void login()";

fn declare(det: &LocalEventDetector) {
    det.declare_primitive("login", "ACCT", EventModifier::End, LOGIN, PrimTarget::AnyInstance)
        .unwrap();
    det.declare_primitive(
        "withdraw",
        "ACCT",
        EventModifier::End,
        WITHDRAW,
        PrimTarget::AnyInstance,
    )
    .unwrap();
}

fn main() {
    println!("=== Batch detection over a stored event log ===\n");

    // --- online phase -----------------------------------------------
    let online = LocalEventDetector::new(1);
    declare(&online);
    // Live monitoring: large single withdrawal.
    let big =
        online.define_named("big_withdrawal", &parse_event_expr("withdraw").unwrap()).unwrap();
    online.subscribe(big, ParamContext::Recent, 1).unwrap();
    let recorder = Arc::new(EventRecorder::default());
    online.set_event_sink(recorder.clone());

    println!("[online] running the day's workload (recording the event log)…");
    let mut live_alerts = 0;
    let day = [
        (7u64, LOGIN, 0.0),
        (7, WITHDRAW, 50.0),
        (7, WITHDRAW, 60.0),
        (7, WITHDRAW, 70.0),
        (9, LOGIN, 0.0),
        (9, WITHDRAW, 5000.0),
    ];
    for (acct, sig, amt) in day {
        let params =
            if sig == WITHDRAW { vec![(Arc::from("amt"), Value::Float(amt))] } else { Vec::new() };
        let dets = online.notify_method("ACCT", sig, EventModifier::End, acct, params, Some(1));
        for d in dets {
            if d.occurrence.param("amt").and_then(|v| v.as_f64()).unwrap_or(0.0) > 1000.0 {
                live_alerts += 1;
                println!("[online]   ALERT big withdrawal: {}", d.occurrence);
            }
        }
    }
    online.clear_event_sink();
    let log = recorder.take();
    println!("[online] recorded {} primitive events, {} live alerts", log.len(), live_alerts);

    // Persist the stored event log to disk (the paper's "stored event-log")
    // and read it back — the audit could run days later, elsewhere.
    let log_path = std::env::temp_dir().join(format!("sentinel-audit-{}.elog", std::process::id()));
    std::fs::write(&log_path, sentinel_core::detector::log::encode_log(&log)).expect("write log");
    let stored = std::fs::read(&log_path).expect("read log");
    let log = sentinel_core::detector::log::decode_log(stored.into()).expect("decode log");
    println!(
        "[online] event log persisted to {} ({} bytes)\n",
        log_path.display(),
        std::fs::metadata(&log_path).map(|m| m.len()).unwrap_or(0)
    );
    let _ = std::fs::remove_file(&log_path);

    // --- batch phase ------------------------------------------------
    // The auditor suspects "salami slicing": three withdrawals in a row by
    // the same account after a single login. This pattern was NOT monitored
    // online — batch detection finds it retroactively.
    let audit = LocalEventDetector::new(2);
    declare(&audit);
    let pattern = audit
        .define_named(
            "salami",
            &parse_event_expr("((login ; withdraw) ; withdraw) ; withdraw").unwrap(),
        )
        .unwrap();
    audit.subscribe(pattern, ParamContext::Chronicle, 1).unwrap();

    println!("[audit] replaying the stored log against the fraud pattern…");
    let matches = audit.replay(&log);
    for m in &matches {
        let total: f64 = m
            .occurrence
            .param_list()
            .iter()
            .filter_map(|p| p.param("amt").and_then(|v| v.as_f64()))
            .sum();
        println!(
            "[audit]   MATCH at t={}: account {} drained {:.2} in {} slices",
            m.occurrence.at,
            m.occurrence.param_list()[0].source.unwrap_or(0),
            total,
            m.occurrence.param_list().len() - 1
        );
    }
    assert_eq!(matches.len(), 1, "exactly one salami pattern in the log");
    assert_eq!(matches[0].occurrence.param_list().len(), 4, "login + three withdrawals");

    // --- determinism check: replay == replay ----------------------------
    let audit2 = LocalEventDetector::new(3);
    declare(&audit2);
    let p2 = audit2
        .define_named(
            "salami",
            &parse_event_expr("((login ; withdraw) ; withdraw) ; withdraw").unwrap(),
        )
        .unwrap();
    audit2.subscribe(p2, ParamContext::Chronicle, 1).unwrap();
    let matches2 = audit2.replay(&log);
    assert_eq!(matches.len(), matches2.len());
    assert_eq!(matches[0].occurrence.at, matches2[0].occurrence.at);
    println!("\nOK: batch replay found the unmonitored pattern; replays are deterministic.");
}
