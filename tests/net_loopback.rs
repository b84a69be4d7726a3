//! End-to-end tests of the sentinel-net client/server subsystem over real
//! loopback sockets: concurrent clients with exact signal accounting,
//! pipelining, malformed-input robustness, backpressure, the async signal
//! path, graceful shutdown draining, and cross-process trace stitching.
//! Every case runs on a reactor with two event loops.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::Sentinel;
use sentinel_net::protocol::{self, Frame, Opcode};
use sentinel_net::{ClientError, NetServer, RuleSpec, SentinelClient, ServerConfig};
use sentinel_obs::json;
use sentinel_obs::span::REMOTE_TRACE_BIT;

fn start_server(configure: impl FnOnce(&mut ServerConfig)) -> (Arc<Sentinel>, NetServer, String) {
    let sentinel = Sentinel::in_memory();
    let mut cfg = ServerConfig { event_loops: 2, ..ServerConfig::default() };
    configure(&mut cfg);
    let server = NetServer::start(sentinel.serve_handle(), cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (sentinel, server, addr)
}

fn stat_u64(stats: &json::Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    v.as_u64().unwrap_or(0)
}

/// Installs the SEQ + cascade workload used by the load generator:
/// `pair = seq_a ; seq_b`, a rule raising `cascade` per pair, and a rule
/// counting the cascades server-side.
fn define_pair_workload(admin: &SentinelClient) {
    admin.define_event("seq_a", None).unwrap();
    admin.define_event("seq_b", None).unwrap();
    admin.define_event("cascade", None).unwrap();
    admin.define_event("pair", Some("seq_a ; seq_b")).unwrap();
    admin
        .define_rule(&RuleSpec::raise("pair_watch", "pair", "cascade").context("chronicle"))
        .unwrap();
    admin.define_rule(&RuleSpec::count("cascade_count", "cascade")).unwrap();
}

/// The headline guarantee: eight concurrent clients hammer the server and
/// not one signal is lost — the server-side fired-rule count equals
/// exactly what the clients sent.
#[test]
fn eight_concurrent_clients_lose_no_signals() {
    const CLIENTS: usize = 8;
    const ITERS: usize = 40;
    let (_sentinel, server, addr) = start_server(|_| {});
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    define_pair_workload(&admin);

    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client =
                    SentinelClient::connect(&addr, &format!("worker-{i}")).expect("connect");
                let mut pairs = 0u64;
                for _ in 0..ITERS {
                    // `a` opens a pair, `b` closes it; only `b` detects.
                    assert_eq!(client.signal_sync("seq_a", &[], None).unwrap(), 0);
                    pairs += client.signal_sync("seq_b", &[], None).unwrap();
                }
                pairs
            })
        })
        .collect();
    let pairs_observed: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();

    let expected = (CLIENTS * ITERS) as u64;
    assert_eq!(pairs_observed, expected, "every seq_b must close exactly one pair");
    let stats = admin.stats().unwrap();
    // pair_watch + cascade_count both fire once per pair.
    assert_eq!(stat_u64(&stats, &["scheduler", "fired", "immediate"]), 2 * expected);
    assert_eq!(stat_u64(&stats, &["rule_hits", "cascade_count"]), expected);
    assert_eq!(stat_u64(&stats, &["net", "decode_errors"]), 0);
    assert_eq!(stat_u64(&stats, &["net", "sessions"]), (CLIENTS + 1) as u64);
    drop(admin);
    server.shutdown();
}

/// One connection, many outstanding requests: responses are matched back
/// by request id no matter the order `wait` is called in.
#[test]
fn pipelined_requests_resolve_by_id() {
    let (_sentinel, _server, addr) = start_server(|_| {});
    let client = SentinelClient::connect(&addr, "pipeliner").unwrap();
    let pendings: Vec<_> = (0..16u64)
        .map(|i| {
            let payload = json::Value::obj([("n", json::Value::UInt(i))]);
            (i, client.send(Opcode::Ping, payload).unwrap())
        })
        .collect();
    // Wait newest-first to prove matching is by id, not arrival order.
    for (i, pending) in pendings.into_iter().rev() {
        let reply = pending.wait().unwrap();
        assert_eq!(reply.get("n").and_then(json::Value::as_u64), Some(i));
    }
}

/// Garbage on the socket gets a typed error frame and a hangup — the
/// server neither panics nor stalls, and keeps serving other clients.
#[test]
fn malformed_frames_get_error_and_hangup() {
    let (_sentinel, server, addr) = start_server(|_| {});

    // Corrupt magic.
    let mut raw = TcpStream::connect(&addr).unwrap();
    std::io::Write::write_all(&mut raw, b"XXXXXXXXXXXXXXXXXXXX").unwrap();
    let (frame, _) = protocol::read_frame(&mut raw).expect("error frame before hangup");
    assert_eq!(frame.opcode, Opcode::Err);
    assert_eq!(frame.payload.get("code").and_then(json::Value::as_str), Some("decode"));

    // Valid header, absurd payload length.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&protocol::MAGIC);
    bytes.push(protocol::VERSION);
    bytes.push(Opcode::Ping as u8);
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    std::io::Write::write_all(&mut raw, &bytes).unwrap();
    let (frame, _) = protocol::read_frame(&mut raw).expect("error frame before hangup");
    assert_eq!(frame.opcode, Opcode::Err);

    // Commands before Hello are rejected without closing the connection.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let stats = Frame::new(Opcode::Stats, 1, json::Value::Null);
    protocol::write_frame(&mut raw, &stats).unwrap();
    let (frame, _) = protocol::read_frame(&mut raw).unwrap();
    assert_eq!(frame.opcode, Opcode::Err);
    assert_eq!(frame.payload.get("code").and_then(json::Value::as_str), Some("unauthenticated"));

    // The server is still healthy for well-behaved clients.
    let client = SentinelClient::connect(&addr, "survivor").unwrap();
    client.ping(json::Value::Null).unwrap();
    assert!(server.metrics().decode_errors.get() >= 2);
}

/// Backpressure is explicit: a zero-length session queue answers every
/// async signal with `Busy {"scope": "session"}`, and the connection cap
/// refuses extra clients outright.
#[test]
fn backpressure_and_connection_limits() {
    let (_sentinel, server, addr) = start_server(|cfg| {
        cfg.max_inflight_per_session = 0;
        cfg.max_connections = 2;
    });
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    admin.define_event("tick", None).unwrap();

    match admin.signal_async("tick", &[], None) {
        Err(ClientError::Busy { scope }) => assert_eq!(scope, "session"),
        other => panic!("expected session Busy, got {other:?}"),
    }
    // Sync signals bypass the session queue entirely.
    admin.signal_sync("tick", &[], None).unwrap();

    let _second = SentinelClient::connect(&addr, "second").unwrap();
    let third = SentinelClient::connect(&addr, "third");
    assert!(third.is_err(), "connection over the cap must be refused");
    assert!(server.metrics().connections_refused.get() >= 1);
}

/// The async path delivers every accepted signal through the detector
/// pool pump — eventually, but exactly once.
#[test]
fn async_signals_all_reach_rules() {
    const PER_CLIENT: usize = 50;
    let (_sentinel, _server, addr) = start_server(|_| {});
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    admin.define_event("tick", None).unwrap();
    admin.define_rule(&RuleSpec::count("tick_count", "tick")).unwrap();

    let threads: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client =
                    SentinelClient::connect(&addr, &format!("async-{i}")).expect("connect");
                for _ in 0..PER_CLIENT {
                    loop {
                        match client.signal_async("tick", &[], None) {
                            Ok(()) => break,
                            Err(ClientError::Busy { .. }) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("async signal failed: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let expected = (2 * PER_CLIENT) as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let hits = stat_u64(&admin.stats().unwrap(), &["rule_hits", "tick_count"]);
        if hits == expected {
            break;
        }
        assert!(hits < expected, "over-delivery: {hits} > {expected}");
        assert!(Instant::now() < deadline, "async pump stalled at {hits}/{expected}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A client-requested shutdown drains everything already accepted: queued
/// async signals are processed before the server's threads join.
#[test]
fn graceful_shutdown_drains_accepted_signals() {
    const QUEUED: usize = 64;
    let (sentinel, server, addr) = start_server(|_| {});
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    admin.define_event("tick", None).unwrap();
    admin.define_rule(&RuleSpec::count("tick_count", "tick")).unwrap();
    for _ in 0..QUEUED {
        admin.signal_async("tick", &[], None).unwrap();
    }
    admin.shutdown_server().unwrap();
    server.wait_for_shutdown();

    // All accepted signals went through the rule scheduler before join.
    let stats = sentinel.serve_handle().stats_json();
    assert_eq!(stat_u64(&stats, &["scheduler", "fired", "immediate"]), QUEUED as u64);
}

/// A trace id stamped on a signal frame shows up server-side as a remote
/// trace (high bit set) whose spans cover the detector work.
#[test]
fn remote_trace_ids_stitch_into_server_traces() {
    let (sentinel, _server, addr) = start_server(|_| {});
    sentinel.set_tracing(true);
    let client = SentinelClient::connect(&addr, "tracer").unwrap();
    client.define_event("tick", None).unwrap();
    client.signal_sync_traced("tick", &[], None, 42).unwrap();

    let reply = client.trace_summaries().unwrap();
    let traces = reply.get("traces").and_then(json::Value::as_arr).expect("traces array");
    let stitched = traces
        .iter()
        .find(|t| t.get("trace").and_then(json::Value::as_u64) == Some(42 | REMOTE_TRACE_BIT))
        .expect("remote trace adopted server-side");
    assert!(stat_u64(stitched, &["spans"]) >= 1);
    // The Chrome export carries the same spans for offline viewing.
    let chrome = client.export_chrome_trace().unwrap();
    assert!(chrome.contains("net_signal"));
}

/// The telemetry scrape works over two protocols on one port: the
/// `MetricsScrape` opcode returns `{prom, telemetry}`, and a plain HTTP
/// `GET /metrics` (sniffed before frame decoding) serves the same
/// exposition text for `curl`/Prometheus.
#[test]
fn metrics_scrape_over_opcode_and_http() {
    use std::io::{Read as _, Write as _};

    let sentinel = Sentinel::in_memory();
    let registry = sentinel.start_telemetry(Duration::from_secs(3600), 64);
    let cfg = ServerConfig { event_loops: 2, ..ServerConfig::default() };
    let server = NetServer::start(sentinel.serve_handle(), cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    define_pair_workload(&admin);
    admin.signal_sync("seq_a", &[], None).unwrap();
    admin.signal_sync("seq_b", &[], None).unwrap();
    registry.sample_at(100);

    let scrape = admin.metrics_scrape().unwrap();
    let prom = scrape.get("prom").and_then(json::Value::as_str).expect("prom text");
    assert!(prom.contains("# TYPE sentinel_detector_signals_total counter"));
    assert!(prom.contains("sentinel_net_frames_in_total"));
    assert!(prom.contains("sentinel_net_event_loops"));
    assert!(prom.contains("sentinel_service_queue_depth"));
    let telemetry = scrape.get("telemetry").expect("telemetry snapshot");
    let series = telemetry.get("series").expect("series map");
    assert!(series.get("detector.signals").is_some());
    assert!(series.get("net.frames_in").is_some(), "net source feeds the shared registry");

    // A scraper's plain HTTP GET on the same port.
    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {}", &body[..body.len().min(80)]);
    assert!(body.contains("Connection: close"));
    assert!(body.contains("sentinel_detector_signals_total"));

    // The JSON ring snapshot, and a 404 for anything else.
    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics.json HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"));
    let json_body = body.split("\r\n\r\n").nth(1).expect("body");
    let parsed = json::Value::parse(json_body).expect("valid scrape JSON");
    assert!(parsed.get("series").is_some());

    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 404"));
}

/// Start order does not matter: telemetry started *after* the server
/// still samples and scrapes the server's `net` and `service` sections,
/// because they are part of the system's one stats snapshot.
#[test]
fn telemetry_started_after_the_server_sees_net_and_service() {
    let (sentinel, _server, addr) = start_server(|_| {});
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    admin.ping(json::Value::Null).unwrap();
    let registry = sentinel.start_telemetry(Duration::from_secs(3600), 8);
    registry.sample_at(100);
    assert!(!registry.series_points("net.frames_in").is_empty(), "net section sampled");
    assert!(!registry.series_points("service.queue_depth").is_empty(), "service section sampled");

    let mut http = TcpStream::connect(&addr).unwrap();
    std::io::Write::write_all(&mut http, b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    std::io::Read::read_to_string(&mut http, &mut body).unwrap();
    assert!(body.contains("\nsentinel_service_queue_depth "), "got: {body}");
}

/// Opens a raw session the way the client does — `Hello` in v1 JSON
/// asking for v2 — and returns the socket, ready for v2 frames.
fn raw_v2_session(addr: &str) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = json::Value::obj([
        ("client", json::Value::str("raw")),
        ("max_version", json::Value::UInt(u64::from(protocol::VERSION_BINARY))),
    ]);
    protocol::write_frame(&mut raw, &Frame::new(Opcode::Hello, 0, hello)).unwrap();
    let (reply, _) = protocol::read_frame(&mut raw).unwrap();
    assert_eq!(reply.opcode, Opcode::Ok);
    raw
}

/// `n` `SignalSync` frames of `event` in v2, request ids `1..=n`, in one
/// buffer.
fn signal_burst(event: &str, n: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in 1..=n {
        let payload = json::Value::obj([("event", json::Value::str(event))]);
        let frame = Frame::new(Opcode::SignalSync, id, payload);
        protocol::encode_into(&frame, protocol::VERSION_BINARY, &mut bytes).unwrap();
    }
    bytes
}

/// A burst of pipelined requests that arrives in one read is answered
/// with (about) one write, not one write per reply.
#[test]
fn pipelined_burst_is_answered_in_few_writes() {
    let (_sentinel, _server, addr) = start_server(|_| {});
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    admin.define_event("tick", None).unwrap();
    let mut raw = raw_v2_session(&addr);
    // Stats on the raw session itself: the snapshot is taken on the loop
    // that did the writes, so every counter bump is already visible.
    let net_stats = |raw: &mut TcpStream| {
        let stats = Frame::new(Opcode::Stats, 0, json::Value::Null);
        protocol::write_frame_with(raw, &stats, protocol::VERSION_BINARY).unwrap();
        let (reply, _) = protocol::read_frame(raw).unwrap();
        let net = |k: &str| stat_u64(&reply.payload, &["net", k]);
        (net("frames_out"), net("write_calls"))
    };

    let (frames0, writes0) = net_stats(&mut raw);
    std::io::Write::write_all(&mut raw, &signal_burst("tick", 64)).unwrap();
    for id in 1..=64 {
        let (reply, _) = protocol::read_frame(&mut raw).unwrap();
        assert_eq!((reply.opcode, reply.request_id), (Opcode::Ok, id));
    }
    let (frames1, writes1) = net_stats(&mut raw);
    // Both deltas include the first Stats reply: one frame, one write.
    assert_eq!(frames1 - frames0, 1 + 64);
    let burst_writes = writes1 - writes0 - 1;
    assert!((1..=4).contains(&burst_writes), "64 replies took {burst_writes} writes");
}

/// A peer that half-closes after pipelining still gets every reply: the
/// server flushes what the last read earned before it closes on EOF.
#[test]
fn half_closed_peer_gets_every_reply_before_close() {
    let (_sentinel, _server, addr) = start_server(|_| {});
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    admin.define_event("tick", None).unwrap();
    let mut raw = raw_v2_session(&addr);

    std::io::Write::write_all(&mut raw, &signal_burst("tick", 16)).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    for id in 1..=16 {
        let (reply, _) = protocol::read_frame(&mut raw).expect("reply before close");
        assert_eq!((reply.opcode, reply.request_id), (Opcode::Ok, id));
    }
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut raw, &mut rest).expect("clean close");
    assert!(rest.is_empty(), "{} stray bytes after the last reply", rest.len());
}
