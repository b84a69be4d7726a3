//! Primitive-event log for batch (after-the-fact) detection.
//!
//! The paper requires the composite event detector to "support detection of
//! events as they happen (online) when it is coupled to an application or
//! over a stored event-log (in batch mode)" (§2.1). An attached
//! [`EventRecorder`] records each signalled primitive event as a
//! [`LoggedEvent`]; replaying the log through a detector with the same
//! event graph reproduces the online detections exactly (timestamps are
//! preserved).

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use sentinel_snoop::ast::EventModifier;

use crate::clock::Timestamp;
use crate::detector::{EventSink, LocalEventDetector};
use crate::occurrence::Value;

/// One recorded primitive event.
#[derive(Debug, Clone, PartialEq)]
pub enum LoggedEvent {
    /// A wrapper-method notification.
    Method {
        /// Class of the invoked method.
        class: String,
        /// Canonical method signature.
        sig: String,
        /// Which invocation edge.
        edge: EventModifier,
        /// Receiver object.
        oid: u64,
        /// Collected parameters.
        params: Vec<(Arc<str>, Value)>,
        /// Enclosing transaction.
        txn: Option<u64>,
        /// Logical occurrence time.
        ts: Timestamp,
    },
    /// An explicit (name-matched) event.
    Explicit {
        /// Event name.
        name: String,
        /// Attached parameters.
        params: Vec<(Arc<str>, Value)>,
        /// Enclosing transaction.
        txn: Option<u64>,
        /// Logical occurrence time.
        ts: Timestamp,
    },
}

impl LoggedEvent {
    /// Logical time of the logged event.
    pub fn ts(&self) -> Timestamp {
        match self {
            LoggedEvent::Method { ts, .. } | LoggedEvent::Explicit { ts, .. } => *ts,
        }
    }

    /// Transaction of the logged event.
    pub fn txn(&self) -> Option<u64> {
        match self {
            LoggedEvent::Method { txn, .. } | LoggedEvent::Explicit { txn, .. } => *txn,
        }
    }
}

/// An [`EventSink`] that keeps the primitive-event log in memory:
/// attach it with [`LocalEventDetector::set_event_sink`], detach it with
/// [`LocalEventDetector::clear_event_sink`], then [`Self::take`] the log
/// for [`LocalEventDetector::replay`]. Each record runs under its shard's
/// mutex, so every shard's events are in timestamp order; streams of
/// different shards interleave, which replay tolerates.
#[derive(Debug, Default)]
pub struct EventRecorder {
    log: Mutex<Vec<LoggedEvent>>,
}

impl EventRecorder {
    /// Returns the events recorded so far and empties the log.
    pub fn take(&self) -> Vec<LoggedEvent> {
        std::mem::take(&mut *self.log.lock())
    }
}

impl EventSink for EventRecorder {
    fn record(&self, _detector: &LocalEventDetector, _shard: u32, ev: &LoggedEvent) {
        self.log.lock().push(ev.clone());
    }
}

// --- persistent event logs --------------------------------------------

/// Capacity to reserve for `n` items a count read from `buf` claims, each
/// taking at least `min_bytes` of it: never more than the rest of `buf`
/// could encode, so a corrupt count cannot reserve memory the input does
/// not back.
pub(crate) fn claimed(n: usize, buf: &Bytes, min_bytes: usize) -> usize {
    n.min(buf.remaining() / min_bytes)
}

/// Reads one byte; `None` at the end of the input.
pub(crate) fn take_u8(buf: &mut Bytes) -> Option<u8> {
    buf.has_remaining().then(|| buf.get_u8())
}

/// Reads a little-endian `u32`; `None` when fewer than four bytes remain.
pub(crate) fn take_u32(buf: &mut Bytes) -> Option<u32> {
    (buf.remaining() >= 4).then(|| buf.get_u32_le())
}

/// Reads a little-endian `u64`; `None` when fewer than eight bytes remain.
pub(crate) fn take_u64(buf: &mut Bytes) -> Option<u64> {
    (buf.remaining() >= 8).then(|| buf.get_u64_le())
}

pub(crate) fn put_str(out: &mut BytesMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut Bytes) -> Option<String> {
    let len = take_u32(buf)? as usize;
    if buf.remaining() < len {
        return None;
    }
    String::from_utf8(buf.split_to(len).to_vec()).ok()
}

pub(crate) fn put_value(out: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(i) => {
            out.put_u8(0);
            out.put_i64_le(*i);
        }
        Value::Float(f) => {
            out.put_u8(1);
            out.put_f64_le(*f);
        }
        Value::Bool(b) => {
            out.put_u8(2);
            out.put_u8(u8::from(*b));
        }
        Value::Str(s) => {
            out.put_u8(3);
            put_str(out, s);
        }
        Value::Oid(o) => {
            out.put_u8(4);
            out.put_u64_le(*o);
        }
        Value::Null => out.put_u8(5),
    }
}

pub(crate) fn get_value(buf: &mut Bytes) -> Option<Value> {
    Some(match take_u8(buf)? {
        0 => Value::Int(take_u64(buf)? as i64),
        1 => Value::Float(f64::from_bits(take_u64(buf)?)),
        2 => Value::Bool(take_u8(buf)? != 0),
        3 => Value::Str(Arc::from(get_str(buf)?)),
        4 => Value::Oid(take_u64(buf)?),
        5 => Value::Null,
        _ => return None,
    })
}

pub(crate) fn put_params(out: &mut BytesMut, params: &[(Arc<str>, Value)]) {
    out.put_u32_le(params.len() as u32);
    for (n, v) in params {
        put_str(out, n);
        put_value(out, v);
    }
}

pub(crate) fn get_params(buf: &mut Bytes) -> Option<Vec<(Arc<str>, Value)>> {
    let n = take_u32(buf)? as usize;
    // A parameter is at least a name length and a value tag.
    let mut out = Vec::with_capacity(claimed(n, buf, 4 + 1));
    for _ in 0..n {
        let name = Arc::from(get_str(buf)?);
        let value = get_value(buf)?;
        out.push((name, value));
    }
    Some(out)
}

pub(crate) fn put_opt_u64(out: &mut BytesMut, v: Option<u64>) {
    match v {
        Some(t) => {
            out.put_u8(1);
            out.put_u64_le(t);
        }
        None => out.put_u8(0),
    }
}

pub(crate) fn get_opt_u64(buf: &mut Bytes) -> Option<Option<u64>> {
    match take_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(take_u64(buf)?)),
        _ => None,
    }
}

fn modifier_tag(m: EventModifier) -> u8 {
    match m {
        EventModifier::Begin => 0,
        EventModifier::End => 1,
        EventModifier::Both => 2,
    }
}

fn modifier_from(tag: u8) -> Option<EventModifier> {
    Some(match tag {
        0 => EventModifier::Begin,
        1 => EventModifier::End,
        2 => EventModifier::Both,
        _ => return None,
    })
}

/// Appends the wire encoding of one logged event to `out` (the per-event
/// layout shared by [`encode_log`] and the durable event journal).
pub fn encode_event(out: &mut BytesMut, ev: &LoggedEvent) {
    match ev {
        LoggedEvent::Method { class, sig, edge, oid, params, txn, ts } => {
            out.put_u8(0);
            put_str(out, class);
            put_str(out, sig);
            out.put_u8(modifier_tag(*edge));
            out.put_u64_le(*oid);
            put_params(out, params);
            put_opt_u64(out, *txn);
            out.put_u64_le(*ts);
        }
        LoggedEvent::Explicit { name, params, txn, ts } => {
            out.put_u8(1);
            put_str(out, name);
            put_params(out, params);
            put_opt_u64(out, *txn);
            out.put_u64_le(*ts);
        }
    }
}

/// Decodes one logged event from `buf` (the inverse of [`encode_event`]);
/// `None` on any corruption.
pub fn decode_event(buf: &mut Bytes) -> Option<LoggedEvent> {
    Some(match take_u8(buf)? {
        0 => {
            let class = get_str(buf)?;
            let sig = get_str(buf)?;
            let edge = modifier_from(take_u8(buf)?)?;
            let oid = take_u64(buf)?;
            let params = get_params(buf)?;
            let txn = get_opt_u64(buf)?;
            let ts = take_u64(buf)?;
            LoggedEvent::Method { class, sig, edge, oid, params, txn, ts }
        }
        1 => {
            let name = get_str(buf)?;
            let params = get_params(buf)?;
            let txn = get_opt_u64(buf)?;
            let ts = take_u64(buf)?;
            LoggedEvent::Explicit { name, params, txn, ts }
        }
        _ => return None,
    })
}

/// Serializes an event log into a self-contained byte stream, so stored
/// logs survive process restarts and can be audited elsewhere (the paper's
/// "stored event-log" for batch detection).
pub fn encode_log(log: &[LoggedEvent]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_slice(b"SLOG");
    out.put_u32_le(1); // format version
    out.put_u64_le(log.len() as u64);
    for ev in log {
        encode_event(&mut out, ev);
    }
    out.freeze()
}

/// Deserializes a stored event log; `None` on any corruption.
pub fn decode_log(mut buf: Bytes) -> Option<Vec<LoggedEvent>> {
    if buf.remaining() < 16 || &buf.split_to(4)[..] != b"SLOG" {
        return None;
    }
    if buf.get_u32_le() != 1 {
        return None;
    }
    let n = buf.get_u64_le() as usize;
    // An event is at least an explicit event with no parameters: tag,
    // name length, parameter count, txn tag, timestamp.
    let mut out = Vec::with_capacity(claimed(n, &buf, 1 + 4 + 4 + 1 + 8));
    for _ in 0..n {
        out.push(decode_event(&mut buf)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let ev = LoggedEvent::Explicit {
            name: "begin-transaction".into(),
            params: Vec::new(),
            txn: Some(3),
            ts: 17,
        };
        assert_eq!(ev.ts(), 17);
        assert_eq!(ev.txn(), Some(3));
    }

    fn sample_log() -> Vec<LoggedEvent> {
        vec![
            LoggedEvent::Explicit {
                name: "begin-transaction".into(),
                params: Vec::new(),
                txn: Some(3),
                ts: 1,
            },
            LoggedEvent::Method {
                class: "STOCK".into(),
                sig: "void set_price(float price)".into(),
                edge: EventModifier::Begin,
                oid: 42,
                params: vec![
                    (Arc::from("price"), Value::Float(99.5)),
                    (Arc::from("sym"), Value::str("IBM")),
                    (Arc::from("active"), Value::Bool(true)),
                    (Arc::from("ref"), Value::Oid(7)),
                    (Arc::from("nothing"), Value::Null),
                    (Arc::from("qty"), Value::Int(-3)),
                ],
                txn: None,
                ts: 2,
            },
            LoggedEvent::Method {
                class: "STOCK".into(),
                sig: "int get_price()".into(),
                edge: EventModifier::End,
                oid: 0,
                params: Vec::new(),
                txn: Some(u64::MAX),
                ts: u64::MAX,
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let log = sample_log();
        let bytes = encode_log(&log);
        assert_eq!(decode_log(bytes).unwrap(), log);
    }

    #[test]
    fn empty_log_roundtrip() {
        assert_eq!(decode_log(encode_log(&[])).unwrap(), Vec::<LoggedEvent>::new());
    }

    #[test]
    fn corruption_yields_none_not_panic() {
        let bytes = encode_log(&sample_log());
        // Truncations at every prefix length must fail cleanly or decode
        // fully (only the full length decodes).
        for cut in 0..bytes.len() - 1 {
            assert!(decode_log(bytes.slice(0..cut)).is_none(), "cut at {cut}");
        }
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode_log(Bytes::from(bad)).is_none());
        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 9;
        assert!(decode_log(Bytes::from(bad)).is_none());
    }

    #[test]
    fn persisted_log_replays_identically() {
        use crate::graph::PrimTarget;
        use crate::LocalEventDetector;
        use sentinel_snoop::{parse_event_expr, ParamContext};

        let online = LocalEventDetector::new(0);
        online
            .declare_primitive("m", "C", EventModifier::End, "void f()", PrimTarget::AnyInstance)
            .unwrap();
        let seq = online.define_named("mm", &parse_event_expr("(m ; m)").unwrap()).unwrap();
        online.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        let recorder = Arc::new(EventRecorder::default());
        online.set_event_sink(recorder.clone());
        for _ in 0..4 {
            online.notify_method("C", "void f()", EventModifier::End, 1, Vec::new(), Some(9));
        }
        online.clear_event_sink();
        let stored = encode_log(&recorder.take());

        // "Later, elsewhere": decode and replay.
        let restored = decode_log(stored).unwrap();
        let batch = LocalEventDetector::new(1);
        batch
            .declare_primitive("m", "C", EventModifier::End, "void f()", PrimTarget::AnyInstance)
            .unwrap();
        let seq = batch.define_named("mm", &parse_event_expr("(m ; m)").unwrap()).unwrap();
        batch.subscribe(seq, ParamContext::Chronicle, 1).unwrap();
        let dets = batch.replay(&restored);
        assert_eq!(dets.len(), 2, "4 m's -> 2 chronicle pairs");
    }
}
