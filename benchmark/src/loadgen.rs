//! The load generator of `wire_open`: one thread, one non-blocking socket
//! per connection, frames built and parsed with `protocol::{encode_with,
//! decode_with}`.
//!
//! `SentinelClient` answers a request through a reader thread and a
//! channel, so timing replies with it takes five generator threads for two
//! connections, and on the two cores they share with the server the
//! generator, not the server, was first to fall behind (past 33 k/s). Here
//! the generator is one spinning thread that sends what is due and polls
//! both sockets, so the single-threaded server has the other core to
//! itself and can be driven to saturation and beyond.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sentinel_core::obs::json::Value;
use sentinel_net::protocol::{self, params_to_json, Frame};
use sentinel_net::Opcode;

use crate::graphs::wire_params;
use crate::stats::ns_u32;

const EVENTS: [&str; 2] = ["seq_a", "seq_b"];

/// A reply still missing this long after the last send was due ends the
/// drive with an error: the server hangs, which no metric describes.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// One load connection: the session is opened blocking, then the socket is
/// switched to non-blocking.
pub struct Conn {
    stream: TcpStream,
    /// Received bytes not yet parsed into a whole frame.
    rx: Vec<u8>,
    /// Encoded frames the socket has not taken yet.
    tx: Vec<u8>,
    /// Frames issued on this connection in the current drive; it
    /// alternates `seq_a`, `seq_b`, and every drive ends on a `seq_b`.
    issued: usize,
    inflight: usize,
}

impl Conn {
    pub fn connect(addr: &str, name: &str) -> Result<Conn, String> {
        let io = |what: &str, e: std::io::Error| format!("{name}: {what}: {e}");
        let mut stream = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io("nodelay", e))?;
        // `Hello` always travels as version 1 (JSON) and asks for the
        // binary codec.
        let hello = Value::obj([
            ("client", Value::str(name)),
            ("max_version", Value::UInt(u64::from(protocol::VERSION_BINARY))),
        ]);
        protocol::write_frame(&mut stream, &Frame::new(Opcode::Hello, 0, hello))
            .map_err(|e| format!("{name}: hello: {e}"))?;
        let (reply, _) =
            protocol::read_frame(&mut stream).map_err(|e| format!("{name}: hello reply: {e}"))?;
        let version = reply.payload.get("version").and_then(Value::as_u64);
        if reply.opcode != Opcode::Ok || version != Some(u64::from(protocol::VERSION_BINARY)) {
            return Err(format!("{name}: server answered hello with {reply:?}"));
        }
        stream.set_nonblocking(true).map_err(|e| io("nonblocking", e))?;
        Ok(Conn { stream, rx: Vec::new(), tx: Vec::new(), issued: 0, inflight: 0 })
    }
}

/// When the generator sends.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Open loop: signal `k` is due at `start + k / rate` whatever the
    /// server does, and goes to connection `k mod connections`.
    Rate(u64),
    /// Closed loop: every connection keeps this many frames in flight.
    Window(usize),
}

/// When the generator stops issuing (always after a connection's `seq_b`).
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// Frames per connection (even).
    Frames(usize),
}

/// What one drive did.
pub struct Driven {
    pub start: Instant,
    /// `(reply arrived at, ns since the frame was due)` per good reply; in
    /// a closed loop a frame is due when it is sent.
    pub samples: Vec<(Instant, u32)>,
    /// Open loop: how late each frame was issued, ns.
    pub lag_ns: Vec<u32>,
    pub sent: u64,
    /// `Busy` or error replies.
    pub failed: u64,
    /// Detections the `seq_b` replies reported (one per pair when right).
    pub pairs: u64,
    /// Most requests in flight at once.
    pub inflight_max: u64,
}

/// Drives `conns` at `pace` until `stop`, then waits for every reply.
/// Signal `k` carries `values[k % values.len()]`. A transport or framing
/// error ends the drive with `Err`: that is a broken run, not a slow one.
pub fn drive(conns: &mut [Conn], values: &[i64], pace: Pace, stop: Stop) -> Result<Driven, String> {
    let n = conns.len();
    // Far enough ahead that the first sends are not late.
    let start = Instant::now() + Duration::from_millis(2);
    let (dur, frames) = match stop {
        Stop::After(d) => (d, usize::MAX),
        Stop::Frames(f) => (Duration::MAX, f),
    };
    // Open loop over a duration: whole pairs per connection.
    let total = match (pace, stop) {
        (Pace::Rate(rate), Stop::After(d)) => {
            ((d.as_secs_f64() * rate as f64) as usize / (2 * n)).max(1) * 2 * n
        }
        _ => frames.saturating_mul(n),
    };
    // Room for every sample up front: growing a vector of megabytes stalls
    // the loop for longer than a request takes.
    let expect = match (pace, stop) {
        (Pace::Window(_), Stop::After(d)) => (d.as_secs_f64() * 300_000.0) as usize,
        _ => total,
    };
    for conn in conns.iter_mut() {
        conn.issued = 0;
    }
    // Per frame, by request id: when it was due and whether it is a `seq_b`.
    let mut due: Vec<(Instant, bool)> = Vec::with_capacity(expect);
    let mut out = Driven {
        start,
        samples: Vec::with_capacity(expect),
        lag_ns: Vec::with_capacity(if matches!(pace, Pace::Rate(_)) { expect } else { 0 }),
        sent: 0,
        failed: 0,
        pairs: 0,
        inflight_max: 0,
    };
    let mut done = 0usize;
    let mut last_due = start;
    let mut buf = [0u8; 16 * 1024];
    std::thread::sleep(start.saturating_duration_since(Instant::now()));

    let issue = |conn: &mut Conn, due: &mut Vec<(Instant, bool)>, at: Instant| {
        let k = due.len();
        let payload = Value::obj([
            ("event", Value::str(EVENTS[conn.issued % 2])),
            ("params", params_to_json(&wire_params(values[k % values.len()]))),
        ]);
        let frame = Frame::new(Opcode::SignalSync, k as u64, payload);
        let bytes = protocol::encode_with(&frame, protocol::VERSION_BINARY).expect("small frame");
        conn.tx.extend_from_slice(&bytes);
        due.push((at, conn.issued % 2 == 1));
        conn.issued += 1;
        conn.inflight += 1;
    };

    loop {
        let now = Instant::now();
        match pace {
            Pace::Rate(rate) => {
                while due.len() < total {
                    let k = due.len();
                    let at = start + Duration::from_secs_f64(k as f64 / rate as f64);
                    if at > now {
                        break;
                    }
                    out.lag_ns.push(ns_u32(now - at));
                    issue(&mut conns[k % n], &mut due, at);
                    last_due = at;
                }
            }
            Pace::Window(window) => {
                let time_up = now.saturating_duration_since(start) >= dur;
                for conn in conns.iter_mut() {
                    while conn.inflight < window
                        && conn.issued < frames
                        && (!time_up || conn.issued % 2 == 1)
                    {
                        issue(conn, &mut due, now);
                        last_due = now;
                    }
                }
            }
        }
        out.inflight_max = out.inflight_max.max((due.len() - done) as u64);

        for conn in conns.iter_mut() {
            if !conn.tx.is_empty() {
                match conn.stream.write(&conn.tx) {
                    Ok(sent) => drop(conn.tx.drain(..sent)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(format!("load connection: write: {e}")),
                }
            }
            if conn.inflight == 0 {
                continue;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => return Err("load connection: closed by the server".to_string()),
                Ok(got) => conn.rx.extend_from_slice(&buf[..got]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => return Err(format!("load connection: read: {e}")),
            }
            let at = Instant::now();
            let mut used = 0;
            while let Some((reply, _, len)) =
                protocol::decode_with(&conn.rx[used..], protocol::VERSION_MAX)
                    .map_err(|e| format!("load connection: bad reply: {e}"))?
            {
                used += len;
                conn.inflight -= 1;
                done += 1;
                let (was_due, closes_pair) = *due
                    .get(reply.request_id as usize)
                    .ok_or_else(|| format!("reply to unknown request {}", reply.request_id))?;
                match reply.payload.get("detections").and_then(Value::as_u64) {
                    Some(d) if reply.opcode == Opcode::Ok => {
                        out.samples.push((at, ns_u32(at.saturating_duration_since(was_due))));
                        if closes_pair {
                            out.pairs += d;
                        }
                    }
                    // `Busy` or error.
                    _ => out.failed += 1,
                }
            }
            conn.rx.drain(..used);
        }

        let issuing_over = match pace {
            Pace::Rate(_) => due.len() >= total,
            Pace::Window(_) => conns.iter().all(|c| {
                c.issued >= frames
                    || (now.saturating_duration_since(start) >= dur && c.issued % 2 == 0)
            }),
        };
        if issuing_over && done == due.len() && conns.iter().all(|c| c.tx.is_empty()) {
            break;
        }
        if issuing_over && now.saturating_duration_since(last_due) > DRAIN_LIMIT {
            return Err(format!("{} replies missing after {DRAIN_LIMIT:?}", due.len() - done));
        }
        std::hint::spin_loop();
    }
    out.sent = due.len() as u64;
    Ok(out)
}
