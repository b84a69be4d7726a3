//! Blocking Sentinel client with request pipelining.
//!
//! [`SentinelClient`] owns one TCP connection. Writes are serialized
//! through a mutex; a dedicated reader thread routes response frames back
//! to callers by request id, so any number of requests may be in flight
//! at once ([`SentinelClient::send`] returns a [`Pending`] handle;
//! the convenience methods send and wait in one call).
//!
//! Errors are typed: [`ClientError::Transport`] is the socket or framing
//! layer failing, [`ClientError::Server`] is the server processing the
//! request and rejecting it, [`ClientError::Busy`] is backpressure —
//! retry later — and [`ClientError::Disconnected`] means the connection
//! died while a response was outstanding.
//!
//! **Wire version.** `Hello` travels as v1 JSON, which every server build
//! decodes, and advertises `max_version` 2; every later frame on the
//! connection uses the v2 binary codec. A server that grants anything
//! else fails the connect.
//!
//! **Request-id spaces are per-connection.** Every connection draws its
//! ids from a distinct 2³² range, so after a reconnect a stale response
//! to an old request id (e.g. one still draining out of a reactor write
//! queue) can never match — and thus never be routed to — a new
//! connection's [`Pending`] handle.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use sentinel_detector::Value as EventValue;
use sentinel_obs::json;

use crate::protocol::{self, Frame, Opcode, WireError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket or the framing layer failed (connection-level).
    Transport(WireError),
    /// The server processed the request and reported an error.
    Server {
        /// Machine-readable error code (e.g. `"unauthenticated"`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server rejected the request under backpressure; retrying later
    /// is expected to succeed.
    Busy {
        /// Which limit was hit: `"session"` or `"global"`.
        scope: String,
    },
    /// The connection closed with the response still outstanding.
    Disconnected,
    /// The server's response was missing an expected field.
    BadResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Busy { scope } => write!(f, "server busy ({scope} limit)"),
            ClientError::Disconnected => write!(f, "connection closed"),
            ClientError::BadResponse(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The payload codec a connection uses after `Hello`: only the binary
/// codec is left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientCodec {
    /// v2 binary bodies; a server that does not grant version 2 fails the
    /// connect with [`ClientError::BadResponse`].
    Binary,
}

/// One signal in a [`SentinelClient::signal_batch`] /
/// [`SentinelClient::send_batch`] frame: `(event, params, txn)`.
pub type BatchSignal<'a> = (&'a str, &'a [(Arc<str>, EventValue)], Option<u64>);

/// Hands each connection a disjoint 2³² request-id range (see the module
/// docs on reconnect safety).
static CONN_EPOCH: AtomicU64 = AtomicU64::new(0);

struct Shared {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Sender<Frame>>>,
    closed: AtomicBool,
}

/// A blocking connection to a Sentinel server.
pub struct SentinelClient {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    reader: Option<JoinHandle<()>>,
    session: u64,
    /// Wire version for frames after `Hello` (1 = JSON, 2 = binary);
    /// fixed at connect time, before the client is ever shared.
    wire: u8,
}

/// An in-flight request; [`Pending::wait`] blocks for its response.
/// Dropping it abandons the response (the reader discards it on arrival).
#[must_use = "wait() retrieves the response"]
pub struct Pending {
    rx: Receiver<Frame>,
    shared: Arc<Shared>,
    id: u64,
}

impl Pending {
    /// Blocks until the response arrives, mapping `Err`/`Busy` frames to
    /// typed errors.
    pub fn wait(self) -> Result<json::Value, ClientError> {
        let frame = self.rx.recv().map_err(|_| ClientError::Disconnected)?;
        match frame.opcode {
            Opcode::Ok => Ok(frame.payload),
            Opcode::Err => {
                let get = |k: &str| {
                    frame.payload.get(k).and_then(json::Value::as_str).unwrap_or("?").to_string()
                };
                Err(ClientError::Server { code: get("code"), message: get("message") })
            }
            Opcode::Busy => {
                let scope = frame
                    .payload
                    .get("scope")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                Err(ClientError::Busy { scope })
            }
            _ => Err(ClientError::BadResponse("non-response opcode")),
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.shared.pending.lock().remove(&self.id);
    }
}

/// Declarative rule definition for [`SentinelClient::define_rule`], naming
/// an action from the server-side catalog.
#[derive(Debug, Clone)]
pub struct RuleSpec {
    name: String,
    event: String,
    action: json::Value,
    context: Option<&'static str>,
    coupling: Option<&'static str>,
    priority: Option<u32>,
}

impl RuleSpec {
    /// A rule whose action bumps the server-side `rule_hits` counter.
    pub fn count(name: &str, event: &str) -> RuleSpec {
        RuleSpec {
            name: name.to_string(),
            event: event.to_string(),
            action: json::Value::obj([("action", json::Value::str("count"))]),
            context: None,
            coupling: None,
            priority: None,
        }
    }

    /// A rule whose action raises the explicit event `target` (cascading).
    pub fn raise(name: &str, event: &str, target: &str) -> RuleSpec {
        RuleSpec {
            name: name.to_string(),
            event: event.to_string(),
            action: json::Value::obj([
                ("action", json::Value::str("raise")),
                ("event", json::Value::str(target)),
            ]),
            context: None,
            coupling: None,
            priority: None,
        }
    }

    /// Sets the parameter context (`"recent"`, `"chronicle"`,
    /// `"continuous"`, `"cumulative"`).
    pub fn context(mut self, ctx: &'static str) -> RuleSpec {
        self.context = Some(ctx);
        self
    }

    /// Sets the coupling mode (`"immediate"`, `"deferred"`, `"detached"`).
    pub fn coupling(mut self, c: &'static str) -> RuleSpec {
        self.coupling = Some(c);
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, p: u32) -> RuleSpec {
        self.priority = Some(p);
        self
    }

    fn to_payload(&self) -> json::Value {
        let mut pairs = vec![
            ("name".to_string(), json::Value::str(self.name.as_str())),
            ("event".to_string(), json::Value::str(self.event.as_str())),
            ("action".to_string(), self.action.clone()),
        ];
        if let Some(c) = self.context {
            pairs.push(("context".to_string(), json::Value::str(c)));
        }
        if let Some(c) = self.coupling {
            pairs.push(("coupling".to_string(), json::Value::str(c)));
        }
        if let Some(p) = self.priority {
            pairs.push(("priority".to_string(), json::Value::UInt(u64::from(p))));
        }
        json::Value::Obj(pairs)
    }
}

impl SentinelClient {
    /// Connects and opens a session named `client` on the binary codec.
    pub fn connect(addr: &str, client: &str) -> Result<SentinelClient, ClientError> {
        Self::connect_with(addr, client, ClientCodec::Binary)
    }

    /// [`SentinelClient::connect`], naming the codec.
    pub fn connect_with(
        addr: &str,
        client: &str,
        _codec: ClientCodec,
    ) -> Result<SentinelClient, ClientError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ClientError::Transport(WireError::Io(e)))?;
        let _ = stream.set_nodelay(true);
        let reader_stream =
            stream.try_clone().map_err(|e| ClientError::Transport(WireError::Io(e)))?;
        let shared = Arc::new(Shared {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
        });
        let reader_shared = shared.clone();
        let reader = std::thread::Builder::new()
            .name("sentinel-client-reader".into())
            .spawn(move || reader_loop(reader_stream, &reader_shared))
            .expect("spawn client reader");
        let epoch = CONN_EPOCH.fetch_add(1, Ordering::SeqCst);
        let mut c = SentinelClient {
            shared,
            next_id: AtomicU64::new(epoch.wrapping_shl(32)),
            reader: Some(reader),
            session: 0,
            wire: protocol::VERSION,
        };
        // Hello itself travels as v1 JSON (`c.wire` is still 1 here).
        let hello = c.request(
            Opcode::Hello,
            json::Value::obj([
                ("client", json::Value::str(client)),
                ("max_version", json::Value::UInt(u64::from(protocol::VERSION_BINARY))),
            ]),
        )?;
        c.session = hello.get("session").and_then(json::Value::as_u64).unwrap_or_default();
        c.wire = granted(&hello)?;
        Ok(c)
    }

    /// [`SentinelClient::connect`] with doubling backoff: up to `attempts`
    /// tries, sleeping `backoff` (then 2×, 4×, …) between failures. Lets a
    /// client outlive a server restart. Each successful attempt is a fresh
    /// connection with a fresh request-id space.
    pub fn connect_with_backoff(
        addr: &str,
        client: &str,
        attempts: u32,
        mut backoff: Duration,
    ) -> Result<SentinelClient, ClientError> {
        let mut last = ClientError::Disconnected;
        for attempt in 0..attempts.max(1) {
            match Self::connect(addr, client) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            if attempt + 1 < attempts {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
        Err(last)
    }

    /// The session id the server assigned at `Hello`.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends a request without waiting — the pipelining primitive. Call
    /// [`Pending::wait`] for the response; further sends may happen in
    /// between.
    pub fn send(&self, opcode: Opcode, payload: json::Value) -> Result<Pending, ClientError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(ClientError::Disconnected);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let (tx, rx) = bounded(1);
        self.shared.pending.lock().insert(id, tx);
        let frame = Frame::new(opcode, id, payload);
        let res = {
            let mut writer = self.shared.writer.lock();
            protocol::write_frame_with(&mut *writer, &frame, self.wire)
        };
        if let Err(e) = res {
            self.shared.pending.lock().remove(&id);
            return Err(ClientError::Transport(e));
        }
        Ok(Pending { rx, shared: self.shared.clone(), id })
    }

    /// Sends a request and blocks for its response.
    pub fn request(
        &self,
        opcode: Opcode,
        payload: json::Value,
    ) -> Result<json::Value, ClientError> {
        self.send(opcode, payload)?.wait()
    }

    // --- typed commands ----------------------------------------------

    /// Registers a reactive class (extends `REACTIVE` server-side);
    /// `attrs` pairs are `(name, type)` with types `int`/`float`/`bool`/
    /// `str`/`ref`.
    pub fn define_class(&self, name: &str, attrs: &[(&str, &str)]) -> Result<(), ClientError> {
        let attrs_json = json::Value::Arr(
            attrs
                .iter()
                .map(|(n, t)| json::Value::Arr(vec![json::Value::str(*n), json::Value::str(*t)]))
                .collect(),
        );
        self.request(
            Opcode::DefineClass,
            json::Value::obj([("name", json::Value::str(name)), ("attrs", attrs_json)]),
        )?;
        Ok(())
    }

    /// Defines an event: with `expr` a named Snoop composite, without it
    /// an explicit (application-raised) event. Returns the event id.
    pub fn define_event(&self, name: &str, expr: Option<&str>) -> Result<u64, ClientError> {
        let mut pairs = vec![("name".to_string(), json::Value::str(name))];
        if let Some(e) = expr {
            pairs.push(("expr".to_string(), json::Value::str(e)));
        }
        let reply = self.request(Opcode::DefineEvent, json::Value::Obj(pairs))?;
        reply
            .get("event")
            .and_then(json::Value::as_u64)
            .ok_or(ClientError::BadResponse("missing event id"))
    }

    /// Defines a rule from a [`RuleSpec`]; returns the rule id.
    pub fn define_rule(&self, spec: &RuleSpec) -> Result<u64, ClientError> {
        let reply = self.request(Opcode::DefineRule, spec.to_payload())?;
        reply
            .get("rule")
            .and_then(json::Value::as_u64)
            .ok_or(ClientError::BadResponse("missing rule id"))
    }

    /// Enables a rule by name.
    pub fn enable_rule(&self, name: &str) -> Result<(), ClientError> {
        self.rule_admin(Opcode::EnableRule, name)
    }

    /// Disables a rule by name.
    pub fn disable_rule(&self, name: &str) -> Result<(), ClientError> {
        self.rule_admin(Opcode::DisableRule, name)
    }

    /// Deletes a rule by name.
    pub fn drop_rule(&self, name: &str) -> Result<(), ClientError> {
        self.rule_admin(Opcode::DropRule, name)
    }

    fn rule_admin(&self, op: Opcode, name: &str) -> Result<(), ClientError> {
        self.request(op, json::Value::obj([("name", json::Value::str(name))]))?;
        Ok(())
    }

    /// Signals an event and waits for immediate rules to finish
    /// server-side; returns the number of detections it produced.
    pub fn signal_sync(
        &self,
        event: &str,
        params: &[(Arc<str>, EventValue)],
        txn: Option<u64>,
    ) -> Result<u64, ClientError> {
        self.signal_sync_inner(event, params, txn, None)
    }

    /// [`SentinelClient::signal_sync`] carrying a client-chosen trace id,
    /// so the server's provenance spans stitch into this client's trace.
    pub fn signal_sync_traced(
        &self,
        event: &str,
        params: &[(Arc<str>, EventValue)],
        txn: Option<u64>,
        trace: u64,
    ) -> Result<u64, ClientError> {
        self.signal_sync_inner(event, params, txn, Some(trace))
    }

    fn signal_sync_inner(
        &self,
        event: &str,
        params: &[(Arc<str>, EventValue)],
        txn: Option<u64>,
        trace: Option<u64>,
    ) -> Result<u64, ClientError> {
        let reply = self.request(Opcode::SignalSync, signal_payload(event, params, txn, trace))?;
        reply
            .get("detections")
            .and_then(json::Value::as_u64)
            .ok_or(ClientError::BadResponse("missing detections"))
    }

    /// Signals many events in one `SignalBatch` frame. The batch runs
    /// inline, in order, as **one** unit against the server's global
    /// inflight cap — a `Busy` covers the whole batch and nothing was
    /// processed, so retrying preserves event order. Returns
    /// `(accepted, detections)` totals.
    pub fn signal_batch(&self, signals: &[BatchSignal<'_>]) -> Result<(u64, u64), ClientError> {
        let reply = self.send_batch(signals)?.wait()?;
        let get = |k| reply.get(k).and_then(json::Value::as_u64);
        match (get("accepted"), get("detections")) {
            (Some(a), Some(d)) => Ok((a, d)),
            _ => Err(ClientError::BadResponse("missing batch totals")),
        }
    }

    /// [`SentinelClient::signal_batch`] without waiting — the pipelining
    /// form (several batches may be in flight at once).
    pub fn send_batch(&self, signals: &[BatchSignal<'_>]) -> Result<Pending, ClientError> {
        let list: Vec<json::Value> = signals
            .iter()
            .map(|(event, params, txn)| signal_payload(event, params, *txn, None))
            .collect();
        self.send(Opcode::SignalBatch, json::Value::obj([("signals", json::Value::Arr(list))]))
    }

    /// Queues a signal on the server and returns as soon as it is
    /// accepted; detections surface through server-side rules.
    pub fn signal_async(
        &self,
        event: &str,
        params: &[(Arc<str>, EventValue)],
        txn: Option<u64>,
    ) -> Result<(), ClientError> {
        self.request(Opcode::SignalAsync, signal_payload(event, params, txn, None))?;
        Ok(())
    }

    /// Fetches the server's combined stats snapshot (including the `net`
    /// section and `rule_hits`).
    pub fn stats(&self) -> Result<json::Value, ClientError> {
        self.request(Opcode::Stats, json::Value::Null)
    }

    /// Fetches the live telemetry scrape: `{"prom": "<exposition
    /// text>", "telemetry": {<time-series ring snapshot>}}`.
    pub fn metrics_scrape(&self) -> Result<json::Value, ClientError> {
        self.request(Opcode::MetricsScrape, json::Value::Null)
    }

    /// Fetches per-trace roll-ups.
    pub fn trace_summaries(&self) -> Result<json::Value, ClientError> {
        self.request(Opcode::TraceSummaries, json::Value::Null)
    }

    /// Fetches the Chrome trace-event export as a JSON string.
    pub fn export_chrome_trace(&self) -> Result<String, ClientError> {
        let reply = self.request(Opcode::ExportTrace, json::Value::Null)?;
        reply
            .get("chrome")
            .and_then(json::Value::as_str)
            .map(str::to_string)
            .ok_or(ClientError::BadResponse("missing chrome export"))
    }

    // --- replication / cluster ---------------------------------------

    /// Subscribes this client as a replication follower named `follower`;
    /// returns the primary's reply (`{"tip": N, "app": A}`).
    pub fn repl_subscribe(&self, follower: &str) -> Result<json::Value, ClientError> {
        self.request(
            Opcode::ReplSubscribe,
            json::Value::obj([("follower", json::Value::str(follower))]),
        )
    }

    /// Fetches a bootstrap package: `{"seq", "catalog", "snapshot",
    /// "clock"}` — the DDL catalog prefix plus a hex-encoded graph
    /// snapshot, consistent at log sequence `seq`.
    pub fn repl_snapshot(&self) -> Result<json::Value, ClientError> {
        self.request(Opcode::ReplSnapshot, json::Value::Null)
    }

    /// Fetches replication log entries `[from, from+max)`:
    /// `{"entries": [...], "tip": N}`.
    pub fn repl_frames(&self, from: u64, max: u64) -> Result<json::Value, ClientError> {
        self.request(
            Opcode::ReplFrames,
            json::Value::obj([("from", json::Value::UInt(from)), ("max", json::Value::UInt(max))]),
        )
    }

    /// Acknowledges that `follower` has applied entries `< applied`;
    /// returns the primary's current tip.
    pub fn repl_ack(&self, follower: &str, applied: u64) -> Result<u64, ClientError> {
        let reply = self.request(
            Opcode::ReplAck,
            json::Value::obj([
                ("follower", json::Value::str(follower)),
                ("applied", json::Value::UInt(applied)),
            ]),
        )?;
        reply
            .get("tip")
            .and_then(json::Value::as_u64)
            .ok_or(ClientError::BadResponse("missing tip"))
    }

    /// Promotes a replica server to primary; `Ok(true)` if this call did
    /// the promotion, `Ok(false)` if the node already was a primary.
    pub fn promote(&self) -> Result<bool, ClientError> {
        let reply = self.request(Opcode::Promote, json::Value::Null)?;
        match reply.get("promoted") {
            Some(json::Value::Bool(b)) => Ok(*b),
            _ => Err(ClientError::BadResponse("missing promoted")),
        }
    }

    /// Round-trips `payload` through the server.
    pub fn ping(&self, payload: json::Value) -> Result<json::Value, ClientError> {
        self.request(Opcode::Ping, payload)
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&self) -> Result<(), ClientError> {
        self.request(Opcode::Shutdown, json::Value::Null)?;
        Ok(())
    }
}

impl Drop for SentinelClient {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        // Shut the socket down to unblock the reader thread.
        let _ = self.shared.writer.lock().shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

/// The wire version a `Hello` reply grants, which must be the binary
/// codec. Compared as a `u64`: a grant that does not fit a version byte is
/// refused, not truncated into one.
fn granted(hello: &json::Value) -> Result<u8, ClientError> {
    match hello.get("version").and_then(json::Value::as_u64) {
        Some(v) if v == u64::from(protocol::VERSION_BINARY) => Ok(protocol::VERSION_BINARY),
        _ => Err(ClientError::BadResponse("server does not grant the binary codec")),
    }
}

fn signal_payload(
    event: &str,
    params: &[(Arc<str>, EventValue)],
    txn: Option<u64>,
    trace: Option<u64>,
) -> json::Value {
    let mut pairs = vec![("event".to_string(), json::Value::str(event))];
    if !params.is_empty() {
        pairs.push(("params".to_string(), protocol::params_to_json(params)));
    }
    if let Some(t) = txn {
        pairs.push(("txn".to_string(), json::Value::UInt(t)));
    }
    if let Some(t) = trace {
        pairs.push(("trace".to_string(), json::Value::UInt(t)));
    }
    json::Value::Obj(pairs)
}

/// Routes response frames to their waiting [`Pending`] handles; on
/// transport failure, wakes every waiter with [`ClientError::Disconnected`].
fn reader_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        match protocol::read_frame(&mut stream) {
            Ok((frame, _)) => {
                let waiter = shared.pending.lock().remove(&frame.request_id);
                if let Some(tx) = waiter {
                    let _ = tx.send(frame);
                }
                // No waiter: response to an abandoned request; drop it.
            }
            Err(_) => {
                shared.closed.store(true, Ordering::SeqCst);
                // Dropping the senders disconnects every waiting receiver,
                // which surfaces as `Disconnected` at the call sites.
                shared.pending.lock().clear();
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_grant_that_does_not_fit_a_version_byte_is_refused() {
        let reply = |v: u64| json::Value::obj([("version", json::Value::UInt(v))]);
        assert_eq!(granted(&reply(2)).ok(), Some(protocol::VERSION_BINARY));
        // 258 truncates to 2 and 256 to 0 as a `u8`.
        for v in [1, 256, 258] {
            assert!(matches!(granted(&reply(v)), Err(ClientError::BadResponse(_))), "{v}");
        }
        assert!(granted(&json::Value::Null).is_err(), "a reply without a grant");
    }
}
