//! Torture tests for the epoll reactor against pathological peers:
//!
//! * a **dribbler** that stalls mid-frame must be evicted after
//!   `stall_timeout` *without* blocking the event loop — healthy clients
//!   sharing the loop keep completing requests promptly;
//! * a slow-but-progressing dribbler (one byte at a time, under the
//!   stall clock) must still get its reply — partial-read resumption,
//!   not a pace requirement;
//! * an **idle** connection is never evicted — only conns with a partial
//!   inbound frame or queued outbound bytes are on the stall clock
//!   (10k idle keep-alive connections is the point of the reactor);
//! * a peer that sends requests but never reads replies (a SIGSTOP'd or
//!   half-open client) must hit the bounded write queue and be evicted
//!   (`overflow_evictions`) instead of growing server memory without
//!   bound — while a peer that pipelines *and* reads is never evicted,
//!   even under the smallest queue bound.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sentinel_core::Sentinel;
use sentinel_net::protocol::{self, Frame, Opcode};
use sentinel_net::{NetServer, SentinelClient, ServerConfig};
use sentinel_obs::json;

fn start_reactor(configure: impl FnOnce(&mut ServerConfig)) -> (Arc<Sentinel>, NetServer, String) {
    let sentinel = Sentinel::in_memory();
    let mut cfg = ServerConfig { event_loops: 1, ..ServerConfig::default() };
    configure(&mut cfg);
    let server = NetServer::start(sentinel.serve_handle(), cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (sentinel, server, addr)
}

fn net_stat(admin: &SentinelClient, key: &str) -> u64 {
    admin
        .stats()
        .unwrap()
        .get("net")
        .and_then(|n| n.get(key))
        .and_then(json::Value::as_u64)
        .unwrap_or(0)
}

/// Polls a net-section counter until it reaches `want` or the deadline
/// passes; returns the last observed value.
fn wait_for_stat(admin: &SentinelClient, key: &str, want: u64, deadline: Duration) -> u64 {
    let start = Instant::now();
    loop {
        let got = net_stat(admin, key);
        if got >= want || start.elapsed() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn ping_frame_bytes(payload: json::Value) -> Vec<u8> {
    protocol::encode_with(&Frame::new(Opcode::Ping, 7, payload), protocol::VERSION).unwrap()
}

/// A peer that sends half a frame and then goes silent must be evicted
/// on the stall clock — and while it sits there mid-frame, a healthy
/// client on the same event loop keeps getting prompt replies.
#[test]
fn mid_frame_staller_is_evicted_without_blocking_the_loop() {
    let (_sentinel, _server, addr) =
        start_reactor(|cfg| cfg.stall_timeout = Duration::from_millis(250));
    let admin = SentinelClient::connect(&addr, "admin").unwrap();

    let mut staller = TcpStream::connect(&addr).unwrap();
    let frame = ping_frame_bytes(json::Value::obj([("x", json::Value::UInt(1))]));
    staller.write_all(&frame[..frame.len() / 2]).unwrap();
    staller.flush().unwrap();

    // While the staller holds its half-frame, the loop must stay live:
    // every healthy request completes promptly (the loop tick is
    // stall/4, so 250ms of budget per ping is generous — unless the
    // loop were actually blocked on the staller's socket).
    let healthy = SentinelClient::connect(&addr, "healthy").unwrap();
    let hammer_until = Instant::now() + Duration::from_millis(400);
    while Instant::now() < hammer_until {
        let t = Instant::now();
        let echo = json::Value::obj([("t", json::Value::UInt(42))]);
        assert_eq!(healthy.ping(echo.clone()).unwrap(), echo);
        assert!(
            t.elapsed() < Duration::from_millis(250),
            "healthy ping took {:?} while a peer stalled mid-frame",
            t.elapsed()
        );
    }

    let evictions = wait_for_stat(&admin, "stall_evictions", 1, Duration::from_secs(5));
    assert!(evictions >= 1, "mid-frame staller was never evicted");

    // The server actually closed the staller's socket: reads drain to
    // EOF (or a reset, if the kernel already tore the connection down).
    staller.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 256];
    loop {
        match staller.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// One byte every few milliseconds is slow but *progressing* — the stall
/// clock resets on every byte, so the dribbled request completes.
#[test]
fn slow_but_progressing_dribbler_completes() {
    let (_sentinel, _server, addr) =
        start_reactor(|cfg| cfg.stall_timeout = Duration::from_millis(400));
    let admin = SentinelClient::connect(&addr, "admin").unwrap();

    let mut dribbler = TcpStream::connect(&addr).unwrap();
    dribbler.set_nodelay(true).unwrap();
    let frame = ping_frame_bytes(json::Value::obj([("slow", json::Value::Bool(true))]));
    for byte in &frame {
        dribbler.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }

    // The reply comes back whole: resume-across-reads on the way in,
    // a complete frame on the way out.
    dribbler.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let reply = loop {
        let n = dribbler.read(&mut chunk).expect("reply before eviction");
        assert!(n > 0, "server closed on a progressing dribbler");
        buf.extend_from_slice(&chunk[..n]);
        if let Some((frame, _, _)) =
            protocol::decode_with(&buf, protocol::VERSION_MAX).expect("well-formed reply")
        {
            break frame;
        }
    };
    assert_eq!(reply.opcode, Opcode::Ok);
    assert_eq!(reply.request_id, 7);
    assert_eq!(net_stat(&admin, "stall_evictions"), 0, "no eviction for slow-but-alive peers");
}

/// Idleness is not a stall: a connection with no partial frame and no
/// queued replies sits past many stall timeouts and still works. (This
/// is what lets 10k idle keep-alive connections ride on one loop.)
#[test]
fn idle_connections_are_never_evicted() {
    let (_sentinel, _server, addr) =
        start_reactor(|cfg| cfg.stall_timeout = Duration::from_millis(150));
    let admin = SentinelClient::connect(&addr, "admin").unwrap();
    let idle = SentinelClient::connect(&addr, "idle").unwrap();

    std::thread::sleep(Duration::from_millis(600)); // 4× the stall timeout
    let echo = json::Value::obj([("still", json::Value::str("here"))]);
    assert_eq!(idle.ping(echo.clone()).unwrap(), echo, "idle connection must survive");
    assert_eq!(net_stat(&admin, "stall_evictions"), 0);
}

/// A peer that pours requests in and never reads replies (the userspace
/// face of a SIGSTOP'd process or a half-open link) must be evicted when
/// the bounded write queue overflows — server memory stays bounded.
#[test]
fn non_reading_peer_overflows_bounded_write_queue() {
    let (_sentinel, _server, addr) = start_reactor(|cfg| {
        cfg.max_write_queue = 1; // floor: still admits one max-size frame
        cfg.stall_timeout = Duration::from_secs(3600); // isolate the overflow path
    });
    let admin = SentinelClient::connect(&addr, "admin").unwrap();

    // Each ping echoes ~256 KiB back; the effective queue cap is one
    // max-size frame (~1 MiB), so a handful of unread replies overflow
    // it once the kernel's socket buffers are full.
    let big = "x".repeat(256 * 1024);
    let frame = ping_frame_bytes(json::Value::obj([("fill", json::Value::str(big.as_str()))]));
    let mut glutton = TcpStream::connect(&addr).unwrap();
    glutton.set_write_timeout(Some(Duration::from_millis(500))).unwrap();

    let mut evicted = 0;
    for _ in 0..256 {
        if glutton.write_all(&frame).is_err() {
            // Reset by the server: eviction already happened.
            break;
        }
        evicted = net_stat(&admin, "overflow_evictions");
        if evicted >= 1 {
            break;
        }
    }
    let evicted =
        evicted.max(wait_for_stat(&admin, "overflow_evictions", 1, Duration::from_secs(5)));
    assert!(evicted >= 1, "non-reading peer never hit the write-queue bound");

    // The server is unharmed: a healthy client still gets instant echoes.
    let healthy = SentinelClient::connect(&addr, "healthy").unwrap();
    let echo = json::Value::obj([("ok", json::Value::Bool(true))]);
    assert_eq!(healthy.ping(echo.clone()).unwrap(), echo);
    let hwm = net_stat(&admin, "write_queue_hwm");
    assert!(hwm > 0, "write-queue high-watermark should have registered backlog");
}

/// Pipelining is not overflow: a peer that pours 2 MiB of requests in
/// one write while it reads every reply must never trip the write-queue
/// bound, even at the smallest cap (one max-size frame, ~1 MiB). The
/// reactor flushes after every read, so only one read's replies queue
/// between writes.
#[test]
fn pipelining_reader_is_not_an_overflow() {
    let (_sentinel, _server, addr) = start_reactor(|cfg| {
        cfg.max_write_queue = 1;
        cfg.stall_timeout = Duration::from_secs(3600);
    });
    let admin = SentinelClient::connect(&addr, "admin").unwrap();

    let big = "x".repeat(256 * 1024);
    let fill = json::Value::obj([("fill", json::Value::str(big.as_str()))]);
    let burst: Vec<u8> = (0..8).flat_map(|_| ping_frame_bytes(fill.clone())).collect();
    let pipeliner = TcpStream::connect(&addr).unwrap();
    pipeliner.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = pipeliner.try_clone().unwrap();
    let echoes = std::thread::spawn(move || {
        (0..8)
            .map(|_| {
                let (reply, _) = protocol::read_frame(&mut reader).expect("echo");
                assert_eq!(reply.opcode, Opcode::Ok);
                reply.payload.get("fill").and_then(json::Value::as_str).map_or(0, str::len)
            })
            .collect::<Vec<_>>()
    });
    (&pipeliner).write_all(&burst).unwrap();

    assert_eq!(echoes.join().unwrap(), vec![big.len(); 8], "every echo arrives whole");
    assert_eq!(net_stat(&admin, "overflow_evictions"), 0, "a reading pipeliner was evicted");
}
