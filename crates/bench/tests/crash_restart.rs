//! End-to-end crash/restart over the wire: a real `sentinel-server`
//! process is killed with SIGKILL mid-composite and restarted from the
//! same `--data-dir`; a reconnecting client completes the composite and
//! the rule fires with the *pre-crash* constituent's parameters.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use sentinel_core::obs::json;
use sentinel_net::client::{RuleSpec, SentinelClient};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinel-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns `sentinel-server --data-dir <dir>` on an OS-picked port with
/// `extra` flags and waits for its readiness line; returns the child and
/// the bound address.
fn spawn_server_with(dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentinel-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "3",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sentinel-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("server exited before readiness").expect("read stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

fn spawn_server(dir: &Path) -> (Child, String) {
    spawn_server_with(dir, &[])
}

fn connect(addr: &str, name: &str) -> SentinelClient {
    SentinelClient::connect_with_backoff(addr, name, 20, Duration::from_millis(25))
        .expect("connect to server")
}

#[test]
fn sigkill_mid_composite_then_restart_completes_it() {
    let dir = tmp("mid");

    // Incarnation 1: define the schema over TCP and signal *half* of the
    // composite, then die without any chance to clean up.
    let (mut server, addr) = spawn_server(&dir);
    {
        let admin = connect(&addr, "admin");
        admin.define_event("order", None).unwrap();
        admin.define_event("ship", None).unwrap();
        admin.define_event("fulfilled", Some("(order ; ship)")).unwrap();
        admin.define_rule(&RuleSpec::count("pair", "fulfilled").context("recent")).unwrap();
        let dets = admin.signal_sync("order", &[(Arc::from("sku"), 41i64.into())], None).unwrap();
        assert_eq!(dets, 0, "half a composite detects nothing yet");
    }
    server.kill().expect("SIGKILL server");
    let _ = server.wait();

    // Incarnation 2: same data directory, fresh port. Recovery rebuilds
    // the catalog and the half-detected composite from disk.
    let (mut server, addr) = spawn_server(&dir);
    let client = connect(&addr, "survivor");
    let dets = client.signal_sync("ship", &[(Arc::from("sku"), 42i64.into())], None).unwrap();
    assert_eq!(dets, 1, "pre-crash half completes the composite after restart");

    let stats = client.stats().unwrap();
    let hits = stats.get("rule_hits").and_then(|h| h.get("pair")).and_then(json::Value::as_u64);
    assert_eq!(hits, Some(1), "rule fired once: {stats}");
    let last = stats
        .get("rule_last")
        .and_then(|l| l.get("pair"))
        .and_then(json::Value::as_str)
        .expect("rule_last records the firing");
    assert!(
        last.contains("sku=41") && last.contains("sku=42"),
        "firing carries the pre-crash constituent's parameters: {last}"
    );

    // The restart wrote a recovery report describing what came back.
    let report = std::fs::read_to_string(dir.join("recovery-report.json")).unwrap();
    let report = json::Value::parse(&report).expect("well-formed report");
    assert_eq!(report.get("journal_records").and_then(json::Value::as_u64), Some(1));
    assert!(report.get("catalog_ops").and_then(json::Value::as_u64).unwrap_or(0) >= 4);

    client.shutdown_server().unwrap();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability and parallel detection compose end to end: a server running
/// 8 detector workers over a durable data directory (sharded journal,
/// group commit) is SIGKILLed with eight half-detected composites in
/// eight disjoint shards, and the restarted server — same flags —
/// completes every one of them from the recovered per-shard streams.
#[test]
fn sigkill_parallel_durable_server_recovers_every_shard() {
    let dir = tmp("parallel");
    let flags = ["--detector-threads", "8", "--group-window-us", "100"];
    const COMPONENTS: usize = 8;

    let (mut server, addr) = spawn_server_with(&dir, &flags);
    {
        let admin = connect(&addr, "admin");
        for i in 0..COMPONENTS {
            admin.define_event(&format!("a{i}"), None).unwrap();
            admin.define_event(&format!("b{i}"), None).unwrap();
            admin.define_event(&format!("pair{i}"), Some(&format!("(a{i} ; b{i})"))).unwrap();
            admin.define_rule(&RuleSpec::count(&format!("r{i}"), &format!("pair{i}"))).unwrap();
        }
        // Half of every composite, one per shard, then die.
        for i in 0..COMPONENTS {
            let dets = admin
                .signal_sync(&format!("a{i}"), &[(Arc::from("sku"), (i as i64).into())], None)
                .unwrap();
            assert_eq!(dets, 0, "half a composite detects nothing yet");
        }
    }
    server.kill().expect("SIGKILL server");
    let _ = server.wait();

    let (mut server, addr) = spawn_server_with(&dir, &flags);
    let client = connect(&addr, "survivor");
    let report = std::fs::read_to_string(dir.join("recovery-report.json")).unwrap();
    let report = json::Value::parse(&report).expect("well-formed report");
    assert_eq!(
        report.get("journal_records").and_then(json::Value::as_u64),
        Some(COMPONENTS as u64),
        "every shard's stream recovered: {report}"
    );

    // The committer kept `flight-recorder.json` fresh while incarnation 1
    // ran, so the SIGKILLed process left its final seconds on disk and
    // recovery folded them into the report: signal entries labelled with
    // the pre-crash workload's event names.
    let flight = report.get("flight_recorder").expect("report carries the flight recorder");
    assert_ne!(*flight, json::Value::Null, "flight-recorder section survived the SIGKILL");
    let events = flight.get("events").and_then(json::Value::as_arr).expect("events array");
    assert!(!events.is_empty(), "flight recorder captured pre-crash events");
    let signal_labels: Vec<&str> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) == Some("signal"))
        .filter_map(|e| e.get("label").and_then(json::Value::as_str))
        .collect();
    assert!(!signal_labels.is_empty(), "flight recorder captured pre-crash signals: {flight}");
    let expected: Vec<String> = (0..COMPONENTS).map(|i| format!("a{i}")).collect();
    for label in &signal_labels {
        assert!(
            expected.iter().any(|e| e == label),
            "flight signal {label} matches the pre-crash workload"
        );
    }
    for i in 0..COMPONENTS {
        let dets = client
            .signal_sync(&format!("b{i}"), &[(Arc::from("sku"), (100 + i as i64).into())], None)
            .unwrap();
        assert_eq!(dets, 1, "pre-crash half of pair{i} completes after restart");
    }

    client.shutdown_server().unwrap();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_then_restart_replays_nothing() {
    let dir = tmp("graceful");

    let (mut server, addr) = spawn_server(&dir);
    {
        let admin = connect(&addr, "admin");
        admin.define_event("tick", None).unwrap();
        admin.define_event("double", Some("(tick ; tick)")).unwrap();
        admin.define_rule(&RuleSpec::count("dbl", "double")).unwrap();
        for i in 0..5 {
            admin.signal_sync("tick", &[(Arc::from("i"), i64::from(i).into())], None).unwrap();
        }
        // Client-driven graceful shutdown: the server drains, flushes the
        // journal, and cuts a final checkpoint before exiting.
        admin.shutdown_server().unwrap();
    }
    let _ = server.wait();

    let (mut server, addr) = spawn_server(&dir);
    let client = connect(&addr, "again");
    let report = std::fs::read_to_string(dir.join("recovery-report.json")).unwrap();
    let report = json::Value::parse(&report).expect("well-formed report");
    assert_eq!(
        report.get("replayed_records").and_then(json::Value::as_u64),
        Some(0),
        "final checkpoint covers the whole journal: {report}"
    );
    assert_eq!(report.get("checkpoint_tag").and_then(json::Value::as_u64), Some(5));
    // And the graph state is live: one more tick completes a `double`.
    let dets = client.signal_sync("tick", &[(Arc::from("i"), 99i64.into())], None).unwrap();
    assert_eq!(dets, 1, "odd pre-shutdown tick pairs with the new one");

    client.shutdown_server().unwrap();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
