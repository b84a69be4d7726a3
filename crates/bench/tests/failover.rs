//! End-to-end failover over the wire: a real primary `sentinel-server`
//! process ships its journal to a real replica process, is killed with
//! SIGKILL mid-composite, and the promoted replica completes the
//! composite with the pre-crash constituent's parameters — zero loss.
//! Covers both explicit promotion (`Promote` opcode) and lease-based
//! auto-promotion, plus the replication entries in the flight recorder
//! surfacing in a post-SIGKILL recovery report.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::obs::json;
use sentinel_net::client::{ClientError, RuleSpec, SentinelClient};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinel-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns `sentinel-server --data-dir <dir>` on an OS-picked port with
/// `extra` flags and waits for its readiness line.
fn spawn_server_with(dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentinel-server"))
        .args(["--addr", "127.0.0.1:0", "--data-dir", dir.to_str().unwrap()])
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
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

fn connect(addr: &str, name: &str) -> SentinelClient {
    SentinelClient::connect_with_backoff(addr, name, 40, Duration::from_millis(25))
        .expect("connect to server")
}

/// Polls the primary's stats until its only follower has acked the full
/// replication log (lag 0 with a non-empty log).
fn wait_follower_caught_up(admin: &SentinelClient) {
    let t0 = Instant::now();
    loop {
        let stats = admin.stats().expect("primary stats");
        let caught_up = stats
            .get("replication")
            .and_then(|r| r.get("followers"))
            .and_then(json::Value::as_arr)
            .and_then(|fs| fs.first().cloned())
            .is_some_and(|f| {
                f.get("lag").and_then(json::Value::as_u64) == Some(0)
                    && f.get("applied").and_then(json::Value::as_u64).unwrap_or(0) > 0
            });
        if caught_up {
            return;
        }
        assert!(t0.elapsed() < Duration::from_secs(15), "follower never caught up: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// SIGKILL the primary mid-composite; explicitly promote the caught-up
/// replica; the composite completes there with the shipped constituent's
/// parameters. Then SIGKILL the promoted node too: its recovery report
/// carries the replication story (catch-up, promote) in the flight
/// recorder, and the completed composite survives on disk.
#[test]
fn sigkill_primary_explicit_promote_completes_composite() {
    let pdir = tmp("explicit-p");
    let rdir = tmp("explicit-r");

    let (mut primary, paddr) = spawn_server_with(&pdir, &["--checkpoint-every", "3"]);
    let admin = connect(&paddr, "admin");
    admin.define_event("order", None).unwrap();
    admin.define_event("ship", None).unwrap();
    admin.define_event("fulfilled", Some("(order ; ship)")).unwrap();
    admin.define_rule(&RuleSpec::count("pair", "fulfilled").context("recent")).unwrap();
    let dets = admin.signal_sync("order", &[(Arc::from("sku"), 41i64.into())], None).unwrap();
    assert_eq!(dets, 0, "half a composite detects nothing yet");

    let (mut replica, raddr) = spawn_server_with(
        &rdir,
        &["--replica-of", &paddr, "--lease-ms", "0", "--follower-name", "f1"],
    );
    wait_follower_caught_up(&admin);

    // The replica refuses writes while the primary lives.
    let rclient = connect(&raddr, "survivor");
    match rclient.signal_sync("ship", &[], None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "read-only"),
        other => panic!("replica must refuse writes before promotion, got {other:?}"),
    }

    drop(admin);
    primary.kill().expect("SIGKILL primary");
    let _ = primary.wait();

    assert!(rclient.promote().unwrap(), "explicit promotion of the caught-up replica");
    let dets = rclient.signal_sync("ship", &[(Arc::from("sku"), 42i64.into())], None).unwrap();
    assert_eq!(dets, 1, "pre-crash half completes on the promoted node");
    let stats = rclient.stats().unwrap();
    assert_eq!(
        stats.get("rule_hits").and_then(|h| h.get("pair")).and_then(json::Value::as_u64),
        Some(1),
        "zero loss across failover: {stats}"
    );
    let last = stats
        .get("rule_last")
        .and_then(|l| l.get("pair"))
        .and_then(json::Value::as_str)
        .expect("rule_last records the firing");
    assert!(
        last.contains("sku=41") && last.contains("sku=42"),
        "firing pairs the shipped pre-crash constituent with the new one: {last}"
    );

    // One more journaled half-composite after the dump throttle window,
    // so the committer's flight-recorder dump is guaranteed to include
    // the promote entry before we kill the process.
    std::thread::sleep(Duration::from_millis(60));
    rclient.signal_sync("order", &[(Arc::from("sku"), 43i64.into())], None).unwrap();

    // Now SIGKILL the promoted node and restart it: recovery folds the
    // flight recorder into the report, replication events included.
    replica.kill().expect("SIGKILL promoted node");
    let _ = replica.wait();
    let (mut restarted, raddr2) = spawn_server_with(&rdir, &[]);
    let back = connect(&raddr2, "post-mortem");
    let report = std::fs::read_to_string(rdir.join("recovery-report.json")).unwrap();
    let report = json::Value::parse(&report).expect("well-formed report");
    let flight = report.get("flight_recorder").expect("report carries the flight recorder");
    let kinds: Vec<&str> = flight
        .get("events")
        .and_then(json::Value::as_arr)
        .expect("events array")
        .iter()
        .filter_map(|e| e.get("kind").and_then(json::Value::as_str))
        .collect();
    for want in ["catch_up", "promote"] {
        assert!(kinds.contains(&want), "flight recorder lost the {want} entry: {kinds:?}");
    }
    // And the post-failover journal recovered: the half-composite
    // signalled on the *promoted* node completes across its own crash.
    let dets = back.signal_sync("ship", &[(Arc::from("sku"), 44i64.into())], None).unwrap();
    assert_eq!(dets, 1, "the promoted node's own journal survived its crash");

    back.shutdown_server().unwrap();
    let _ = restarted.wait();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// With a lease configured, the follower needs no operator: once the
/// SIGKILLed primary stays unreachable past the lease, the apply loop
/// promotes itself and the node starts accepting writes.
#[test]
fn sigkill_primary_lease_auto_promotes_follower() {
    let pdir = tmp("lease-p");
    let rdir = tmp("lease-r");

    let (mut primary, paddr) = spawn_server_with(&pdir, &[]);
    let admin = connect(&paddr, "admin");
    admin.define_event("a", None).unwrap();
    admin.define_event("b", None).unwrap();
    admin.define_event("ab", Some("(a ; b)")).unwrap();
    admin.define_rule(&RuleSpec::count("r", "ab")).unwrap();
    admin.signal_sync("a", &[(Arc::from("x"), 7i64.into())], None).unwrap();

    let (mut replica, raddr) = spawn_server_with(
        &rdir,
        &["--replica-of", &paddr, "--lease-ms", "400", "--follower-name", "auto"],
    );
    wait_follower_caught_up(&admin);
    drop(admin);
    primary.kill().expect("SIGKILL primary");
    let _ = primary.wait();

    // No Promote frame: the follower notices the dead primary on its own.
    let rclient = connect(&raddr, "survivor");
    let t0 = Instant::now();
    let dets = loop {
        match rclient.signal_sync("b", &[(Arc::from("x"), 8i64.into())], None) {
            Ok(d) => break d,
            Err(ClientError::Server { code, .. }) if code == "read-only" => {
                assert!(
                    t0.elapsed() < Duration::from_secs(15),
                    "lease expired but the follower never promoted itself"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("unexpected error while waiting for auto-promotion: {e}"),
        }
    };
    assert_eq!(dets, 1, "pre-crash half completes after auto-promotion");
    let stats = rclient.stats().unwrap();
    assert_eq!(
        stats.get("replication").and_then(|r| r.get("role")).and_then(json::Value::as_str),
        None,
        "a promoted node with no followers reports no replication section: {stats}"
    );

    rclient.shutdown_server().unwrap();
    let _ = replica.wait();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
