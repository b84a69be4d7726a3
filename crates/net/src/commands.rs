//! The server's command layer.
//!
//! [`execute`] maps one decoded request [`Frame`] to an [`Outcome`]
//! without touching a socket: the command set, session rules and
//! backpressure decisions the reactor applies, exercised case by case by
//! the conformance suite in `tests/net_loopback.rs`. The HTTP sniffing
//! helpers for the `/metrics` side door live here too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::TrySendError;
use sentinel_obs::flight::{self, FlightKind};
use sentinel_obs::json;

use crate::protocol::{self, Frame, Opcode};
use crate::server::{AsyncJob, State};

/// An authenticated connection (one `Hello` accepted).
pub(crate) struct Session {
    /// Queued-but-unprocessed async signals owned by this session.
    pub(crate) inflight: Arc<AtomicU64>,
}

/// What a connection should do with the result of one request.
pub(crate) enum Outcome {
    /// Write the response and keep serving.
    Reply(Frame),
    /// Write the response, then close the connection.
    ReplyClose(Frame),
    /// Write the response, *flush it*, then signal server shutdown — the
    /// ordering guarantee a client's `shutdown_server()` call relies on.
    ReplyShutdown(Frame),
}

/// Handles one request frame against the shared server state.
pub(crate) fn execute(state: &Arc<State>, session: &mut Option<Session>, frame: Frame) -> Outcome {
    let id = frame.request_id;
    // A replica is read-only over the wire: the apply loop is its only
    // mutator, so concurrent client writes can never diverge it from the
    // primary's stream. `Promote` (or primary-loss auto-promotion) lifts
    // the restriction.
    let is_write = matches!(
        frame.opcode,
        Opcode::SignalSync
            | Opcode::SignalAsync
            | Opcode::SignalBatch
            | Opcode::DefineClass
            | Opcode::DefineEvent
            | Opcode::DefineRule
            | Opcode::EnableRule
            | Opcode::DisableRule
            | Opcode::DropRule
    );
    if is_write && state.handle.sentinel().is_replica() {
        return Outcome::Reply(err_frame(
            id,
            "read-only",
            "node is a read-only replica (Promote to accept writes)",
        ));
    }
    match frame.opcode {
        Opcode::Ping => Outcome::Reply(Frame::new(Opcode::Ok, id, frame.payload)),
        // Monitoring is read-only and session-free, like Ping: a scraper
        // should not have to speak Hello.
        Opcode::MetricsScrape => {
            Outcome::Reply(Frame::new(Opcode::Ok, id, state.handle.metrics_json()))
        }
        Opcode::Hello => {
            let Some(client) = frame.payload.get("client").and_then(json::Value::as_str) else {
                return Outcome::Reply(err_frame(id, "bad-request", "hello needs client"));
            };
            let Some(negotiated) = negotiate(&frame.payload) else {
                return Outcome::Reply(err_frame(id, "bad-request", "max_version out of range"));
            };
            let sid = state.next_session.fetch_add(1, Ordering::SeqCst) + 1;
            *session = Some(Session { inflight: Arc::new(AtomicU64::new(0)) });
            state.metrics.sessions.inc();
            let reply = json::Value::obj([
                ("session", json::Value::UInt(sid)),
                ("client", json::Value::str(client)),
                ("server", json::Value::str("sentinel")),
                ("version", json::Value::UInt(u64::from(negotiated))),
            ]);
            Outcome::Reply(Frame::new(Opcode::Ok, id, reply))
        }
        Opcode::Ok | Opcode::Err | Opcode::Busy => {
            state.metrics.decode_errors.inc();
            Outcome::ReplyClose(err_frame(id, "bad-request", "response opcode from client"))
        }
        _ if session.is_none() => {
            Outcome::Reply(err_frame(id, "unauthenticated", "send Hello first"))
        }
        Opcode::SignalSync => Outcome::Reply(signal_sync(state, id, &frame.payload)),
        Opcode::SignalBatch => Outcome::Reply(signal_batch(state, id, &frame.payload)),
        Opcode::SignalAsync => {
            let sess = session.as_ref().expect("checked above");
            Outcome::Reply(signal_async(state, sess, id, &frame.payload))
        }
        Opcode::Stats => Outcome::Reply(Frame::new(Opcode::Ok, id, state.handle.stats_json())),
        Opcode::TraceSummaries => {
            let traces = state.handle.trace_summaries_json();
            Outcome::Reply(Frame::new(Opcode::Ok, id, json::Value::obj([("traces", traces)])))
        }
        Opcode::ExportTrace => {
            let chrome = state.handle.export_chrome_trace();
            let reply = json::Value::obj([("chrome", json::Value::Str(chrome))]);
            Outcome::Reply(Frame::new(Opcode::Ok, id, reply))
        }
        Opcode::DefineClass => reply_result(id, define_class(state, &frame.payload)),
        Opcode::DefineEvent => reply_result(id, define_event(state, &frame.payload)),
        Opcode::DefineRule => reply_result(id, define_rule(state, &frame.payload)),
        Opcode::EnableRule => {
            reply_result(id, rule_admin(state, &frame.payload, RuleAdmin::Enable))
        }
        Opcode::DisableRule => {
            reply_result(id, rule_admin(state, &frame.payload, RuleAdmin::Disable))
        }
        Opcode::DropRule => reply_result(id, rule_admin(state, &frame.payload, RuleAdmin::Drop)),
        Opcode::ReplSubscribe => {
            let follower = frame
                .payload
                .get("follower")
                .and_then(json::Value::as_str)
                .unwrap_or("follower")
                .to_string();
            let r = state.handle.sentinel().repl_subscribe_json(&follower);
            reply_result(id, r.map_err(|e| e.to_string()))
        }
        Opcode::ReplSnapshot => {
            let r = state.handle.sentinel().repl_snapshot_json();
            reply_result(id, r.map_err(|e| e.to_string()))
        }
        Opcode::ReplFrames => {
            let from = frame.payload.get("from").and_then(json::Value::as_u64).unwrap_or(0);
            let max = frame.payload.get("max").and_then(json::Value::as_u64).unwrap_or(1024);
            let r = state.handle.sentinel().repl_frames_json(from, max);
            reply_result(id, r.map_err(|e| e.to_string()))
        }
        Opcode::ReplAck => {
            let follower = frame
                .payload
                .get("follower")
                .and_then(json::Value::as_str)
                .unwrap_or("follower")
                .to_string();
            let applied = frame.payload.get("applied").and_then(json::Value::as_u64).unwrap_or(0);
            let r = state.handle.sentinel().repl_ack_json(&follower, applied);
            reply_result(id, r.map_err(|e| e.to_string()))
        }
        Opcode::Promote => {
            let promoted = state.handle.sentinel().promote();
            let reply = json::Value::obj([
                ("role", json::Value::str("primary")),
                ("promoted", json::Value::Bool(promoted)),
            ]);
            Outcome::Reply(Frame::new(Opcode::Ok, id, reply))
        }
        Opcode::Shutdown => Outcome::ReplyShutdown(Frame::new(Opcode::Ok, id, json::Value::Null)),
    }
}

/// The wire version a `Hello` grants: the highest that both the client
/// (`max_version`, absent = 1) and this build speak. The client uses it
/// for every later frame; the server answers each frame in the version it
/// came in either way. `None` when `max_version` does not fit a version
/// byte: it is refused, not truncated into one.
fn negotiate(hello: &json::Value) -> Option<u8> {
    let max = hello.get("max_version").and_then(json::Value::as_u64);
    let max = u8::try_from(max.unwrap_or(u64::from(protocol::VERSION))).ok()?;
    Some(max.clamp(protocol::VERSION, protocol::VERSION_MAX))
}

fn signal_sync(state: &Arc<State>, id: u64, payload: &json::Value) -> Frame {
    let Some((event, params, txn, trace)) = parse_signal(payload) else {
        return err_frame(id, "bad-request", "malformed signal");
    };
    let limit = state.cfg.max_inflight_global as u64;
    let cur = state.inflight_sync.fetch_add(1, Ordering::SeqCst) + 1;
    if cur > limit {
        state.inflight_sync.fetch_sub(1, Ordering::SeqCst);
        state.metrics.busy_rejections.inc();
        flight::global().record_static(FlightKind::Busy, "sync_global", cur, limit);
        return busy_frame(id, "global", cur, limit);
    }
    let n = state.handle.signal_traced(&event, params, txn, trace);
    state.inflight_sync.fetch_sub(1, Ordering::SeqCst);
    Frame::new(Opcode::Ok, id, json::Value::obj([("detections", json::Value::UInt(n as u64))]))
}

/// One `SignalBatch` frame: the signals run inline, in array order, as a
/// single backpressure unit — `Busy` covers the whole batch (nothing was
/// processed), so a retried batch preserves event order.
fn signal_batch(state: &Arc<State>, id: u64, payload: &json::Value) -> Frame {
    let Some(list) = payload.get("signals").and_then(json::Value::as_arr) else {
        return err_frame(id, "bad-request", "batch needs signals array");
    };
    let limit = state.cfg.max_inflight_global as u64;
    let cur = state.inflight_sync.fetch_add(1, Ordering::SeqCst) + 1;
    if cur > limit {
        state.inflight_sync.fetch_sub(1, Ordering::SeqCst);
        state.metrics.busy_rejections.inc();
        flight::global().record_static(FlightKind::Busy, "batch_global", cur, limit);
        return busy_frame(id, "global", cur, limit);
    }
    let mut total = 0u64;
    let mut accepted = 0u64;
    let mut bad = false;
    for item in list {
        let Some((event, params, txn, trace)) = parse_signal(item) else {
            bad = true;
            break;
        };
        total += state.handle.signal_traced(&event, params, txn, trace) as u64;
        accepted += 1;
    }
    state.inflight_sync.fetch_sub(1, Ordering::SeqCst);
    if bad {
        // Signals before the malformed entry already ran; the error
        // reports how many, so an accounting client can reconcile.
        let payload = json::Value::obj([
            ("code", json::Value::str("bad-request")),
            ("message", json::Value::str("malformed signal in batch")),
            ("accepted", json::Value::UInt(accepted)),
        ]);
        return Frame::new(Opcode::Err, id, payload);
    }
    let reply = json::Value::obj([
        ("accepted", json::Value::UInt(accepted)),
        ("detections", json::Value::UInt(total)),
    ]);
    Frame::new(Opcode::Ok, id, reply)
}

fn signal_async(state: &Arc<State>, sess: &Session, id: u64, payload: &json::Value) -> Frame {
    let Some((event, params, txn, trace)) = parse_signal(payload) else {
        return err_frame(id, "bad-request", "malformed signal");
    };
    let limit = state.cfg.max_inflight_per_session as u64;
    let cur = sess.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    if cur > limit {
        sess.inflight.fetch_sub(1, Ordering::SeqCst);
        state.metrics.busy_rejections.inc();
        flight::global().record_static(FlightKind::Busy, "session", cur, limit);
        return busy_frame(id, "session", cur, limit);
    }
    let job = AsyncJob { event, params, txn, trace, session_inflight: sess.inflight.clone() };
    let verdict = match state.async_tx.lock().as_ref() {
        Some(tx) => tx.try_send(job).map_err(|e| matches!(e, TrySendError::Full(_))),
        None => Err(false), // shutting down
    };
    match verdict {
        Ok(()) => {
            Frame::new(Opcode::Ok, id, json::Value::obj([("queued", json::Value::Bool(true))]))
        }
        Err(full) => {
            sess.inflight.fetch_sub(1, Ordering::SeqCst);
            if full {
                state.metrics.busy_rejections.inc();
                let cap = state.cfg.max_inflight_global as u64;
                flight::global().record_static(FlightKind::Busy, "async_global", cap, cap);
                busy_frame(id, "global", cap, cap)
            } else {
                err_frame(id, "shutting-down", "server is draining")
            }
        }
    }
}

/// Pulls `(event, params, txn, trace)` out of a signal payload.
#[allow(clippy::type_complexity)]
fn parse_signal(
    payload: &json::Value,
) -> Option<(String, Vec<(Arc<str>, sentinel_detector::Value)>, Option<u64>, Option<u64>)> {
    let event = payload.get("event")?.as_str()?.to_string();
    let params = match payload.get("params") {
        Some(p) => protocol::params_from_json(p)?,
        None => Vec::new(),
    };
    let txn = payload.get("txn").and_then(json::Value::as_u64);
    let trace = payload.get("trace").and_then(json::Value::as_u64);
    Some((event, params, txn, trace))
}

fn define_class(state: &Arc<State>, payload: &json::Value) -> Result<json::Value, String> {
    let name = require_str(payload, "name")?;
    let mut attrs = Vec::new();
    if let Some(list) = payload.get("attrs").and_then(json::Value::as_arr) {
        for attr in list {
            let pair = attr.as_arr().filter(|p| p.len() == 2).ok_or("attrs: want [name, type]")?;
            let (an, at) = (pair[0].as_str(), pair[1].as_str());
            let (an, at) = an.zip(at).ok_or("attrs: want string pairs")?;
            attrs.push((an.to_string(), at.to_string()));
        }
    }
    state.handle.sentinel().register_class_spec(name, &attrs, &[]).map_err(|e| e.to_string())?;
    Ok(json::Value::obj([("class", json::Value::str(name))]))
}

fn define_event(state: &Arc<State>, payload: &json::Value) -> Result<json::Value, String> {
    let name = require_str(payload, "name")?;
    let sentinel = state.handle.sentinel();
    let id = match payload.get("expr").and_then(json::Value::as_str) {
        Some(expr) => sentinel.define_event(name, expr).map_err(|e| e.to_string())?,
        None => sentinel.declare_explicit(name).map_err(|e| e.to_string())?,
    };
    Ok(json::Value::obj([("event", json::Value::UInt(u64::from(id.0)))]))
}

fn define_rule(state: &Arc<State>, payload: &json::Value) -> Result<json::Value, String> {
    // The whole payload is the rule spec; parsing, the action catalog
    // (`count`, `raise`) and catalog journaling live in
    // `Sentinel::define_rule_spec`, shared with durable recovery.
    let rule = state.handle.sentinel().define_rule_spec(payload).map_err(|e| e.to_string())?;
    Ok(json::Value::obj([("rule", json::Value::UInt(rule.0))]))
}

enum RuleAdmin {
    Enable,
    Disable,
    Drop,
}

fn rule_admin(
    state: &Arc<State>,
    payload: &json::Value,
    op: RuleAdmin,
) -> Result<json::Value, String> {
    let name = require_str(payload, "name")?;
    let sentinel = state.handle.sentinel();
    match op {
        RuleAdmin::Enable => sentinel.enable_rule(name).map_err(|e| e.to_string())?,
        RuleAdmin::Disable => sentinel.disable_rule(name).map_err(|e| e.to_string())?,
        RuleAdmin::Drop => sentinel.drop_rule(name).map_err(|e| e.to_string())?,
    }
    Ok(json::Value::obj([("rule", json::Value::str(name))]))
}

fn require_str<'a>(payload: &'a json::Value, key: &str) -> Result<&'a str, String> {
    payload.get(key).and_then(json::Value::as_str).ok_or_else(|| format!("missing `{key}`"))
}

fn reply_result(id: u64, result: Result<json::Value, String>) -> Outcome {
    match result {
        Ok(body) => Outcome::Reply(Frame::new(Opcode::Ok, id, body)),
        Err(message) => Outcome::Reply(err_frame(id, "rejected", &message)),
    }
}

/// Builds a server-error response frame.
pub(crate) fn err_frame(id: u64, code: &str, message: &str) -> Frame {
    let payload = json::Value::obj([
        ("code", json::Value::str(code)),
        ("message", json::Value::str(message)),
    ]);
    Frame::new(Opcode::Err, id, payload)
}

fn busy_frame(id: u64, scope: &str, inflight: u64, limit: u64) -> Frame {
    let payload = json::Value::obj([
        ("scope", json::Value::str(scope)),
        ("inflight", json::Value::UInt(inflight)),
        ("limit", json::Value::UInt(limit)),
    ]);
    Frame::new(Opcode::Busy, id, payload)
}

// ---------------------------------------------------------------------------
// HTTP side door: GET/HEAD on the frame port serves /metrics for scrapers.
// ---------------------------------------------------------------------------

/// True when `buf` could (still) be the start of an HTTP GET/HEAD
/// request — i.e. it is a prefix of (or starts with) either method token.
/// A method token can never open a valid frame (magic `"SN"`), so the
/// sniff is unambiguous.
pub(crate) fn is_http_prefix(buf: &[u8]) -> bool {
    if buf.is_empty() {
        return false;
    }
    let matches = |verb: &[u8]| {
        let n = buf.len().min(verb.len());
        buf[..n] == verb[..n]
    };
    matches(b"GET ") || matches(b"HEAD ")
}

/// Renders the full HTTP response for one sniffed request (`head` is
/// everything before the header/body separator).
pub(crate) fn http_response(state: &Arc<State>, head: &[u8]) -> Vec<u8> {
    let line = head.split(|&b| b == b'\r').next().unwrap_or(head);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", state.handle.prom_text()),
        "/metrics.json" => {
            ("200 OK", "application/json", state.handle.sentinel().telemetry_json().to_string())
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let mut resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if method != "HEAD" {
        resp.push_str(&body);
    }
    resp.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_negotiates_in_range_and_refuses_what_a_byte_cannot_hold() {
        let hello = |max: Option<u64>| {
            let mut pairs = vec![("client".to_string(), json::Value::str("c"))];
            pairs.extend(max.map(|m| ("max_version".to_string(), json::Value::UInt(m))));
            negotiate(&json::Value::Obj(pairs))
        };
        assert_eq!(hello(None), Some(protocol::VERSION));
        assert_eq!(hello(Some(0)), Some(protocol::VERSION));
        assert_eq!(hello(Some(2)), Some(protocol::VERSION_BINARY));
        assert_eq!(hello(Some(255)), Some(protocol::VERSION_MAX));
        // 256 truncates to 0 and 258 to 2 as a `u8`.
        assert_eq!(hello(Some(256)), None);
        assert_eq!(hello(Some(258)), None);
    }
}
