//! The Sentinel wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame is a fixed 16-byte header followed by an optional payload
//! whose encoding the header's *version byte* selects — version 1 is
//! UTF-8 JSON text (rendered/parsed with [`sentinel_obs::json`], the same
//! serializer the stats snapshots use), version 2 is the compact binary
//! codec in [`crate::codec`] (CBOR-style tags over the same value trees):
//!
//! | offset | size | field       | value                                  |
//! |-------:|-----:|-------------|----------------------------------------|
//! |      0 |    2 | magic       | `b"SN"`                                |
//! |      2 |    1 | version     | `1` = JSON payload, `2` = binary codec |
//! |      3 |    1 | opcode      | [`Opcode`] discriminant                |
//! |      4 |    8 | request id  | `u64` little-endian, chosen by sender  |
//! |     12 |    4 | payload len | `u32` little-endian, ≤ [`MAX_PAYLOAD`] |
//! |     16 |    n | payload     | JSON text or codec bytes (absent if 0) |
//!
//! Both versions carry the *same* decoded [`Frame`]: the version byte is
//! a per-frame codec tag, not a session mode, so the server answers each
//! request in the version it arrived in. A session sends its `Hello` in
//! v1 JSON (stating its `max_version`; the reply names the highest
//! version both sides speak) and every later frame in v2.
//!
//! Responses echo the request id, which is what lets a client pipeline
//! many requests on one connection and match replies as they return.
//! Decoding is strict and total: malformed input yields a typed
//! [`DecodeError`], never a panic, and an incomplete buffer is simply
//! `Ok(None)` (read more bytes and retry).

use std::fmt;
use std::io::{self, Read, Write};

use sentinel_obs::json;

use crate::codec;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"SN";
/// The baseline protocol version: JSON payload bodies.
pub const VERSION: u8 = 1;
/// The compact-codec protocol version: binary payload bodies.
pub const VERSION_BINARY: u8 = 2;
/// Highest version this build speaks.
pub const VERSION_MAX: u8 = VERSION_BINARY;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Hard ceiling on a frame's payload (1 MiB). Oversized frames are
/// rejected at decode time before any allocation of the stated size.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Frame opcodes. Requests occupy `0x01..=0x14` (`0x10..=0x14` are the
/// replication/cluster opcodes); responses have the high bit set
/// (`0x80..`), so [`Opcode::is_response`] is one mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Open a session: `{"client": name}` → `Ok {"session": id}`.
    Hello = 0x01,
    /// Register a reactive class: `{"name", "attrs": [[name, type]...]}`.
    DefineClass = 0x02,
    /// Define an event: `{"name", "expr"?}` (no `expr` = explicit event).
    DefineEvent = 0x03,
    /// Define a rule from the server-side action catalog:
    /// `{"name", "event", "action", "context"?, "coupling"?, "priority"?}`.
    DefineRule = 0x04,
    /// Enable a rule by name: `{"name"}`.
    EnableRule = 0x05,
    /// Disable a rule by name: `{"name"}`.
    DisableRule = 0x06,
    /// Delete a rule by name: `{"name"}`.
    DropRule = 0x07,
    /// Signal a primitive event and wait for immediate rules:
    /// `{"event", "params"?, "txn"?, "trace"?}` → `Ok {"detections": n}`.
    SignalSync = 0x08,
    /// Queue a signal and return immediately: same payload as
    /// [`Opcode::SignalSync`] → `Ok {"queued": true}`.
    SignalAsync = 0x09,
    /// Fetch the combined stats snapshot (with `net` and `rule_hits`).
    Stats = 0x0A,
    /// Fetch per-trace roll-ups → `Ok {"traces": [...]}`.
    TraceSummaries = 0x0B,
    /// Fetch the Chrome trace-event export → `Ok {"chrome": "..."}`.
    ExportTrace = 0x0C,
    /// Liveness probe; the payload is echoed back.
    Ping = 0x0D,
    /// Ask the server to shut down gracefully (drains the detector).
    Shutdown = 0x0E,
    /// Fetch the live telemetry scrape: `Ok {"prom": "<exposition
    /// text>", "telemetry": {<time-series ring snapshot>}}`.
    MetricsScrape = 0x0F,
    /// A follower announces itself: `{"follower": name}` →
    /// `Ok {"tip": seq, "app": id}`.
    ReplSubscribe = 0x10,
    /// Bootstrap catch-up: → `Ok {"seq", "catalog": [op...],
    /// "snapshot": "<hex>", "clock": ts}` — the primary's graph snapshot
    /// and full catalog at replication sequence `seq`, cut with
    /// signalling paused.
    ReplSnapshot = 0x11,
    /// Tail the replication stream: `{"from": seq, "max"?: n}` →
    /// `Ok {"entries": [...], "tip": seq}`.
    ReplFrames = 0x12,
    /// Acknowledge an apply watermark: `{"follower": name, "applied":
    /// seq}` → `Ok {}`.
    ReplAck = 0x13,
    /// Promote this node to primary (idempotent): → `Ok {"role":
    /// "primary"}`.
    Promote = 0x14,
    /// Signal many events in one frame, processed in array order:
    /// `{"signals": [{"event", "params"?, "txn"?, "trace"?}, ...]}` →
    /// `Ok {"accepted": n, "detections": total}`. The batch counts as
    /// *one* unit against the global in-flight cap, so a `Busy` rejection
    /// always covers the whole batch and a retry preserves event order.
    SignalBatch = 0x15,
    /// Success response; payload shape depends on the request.
    Ok = 0x80,
    /// Server-reported failure: `{"code", "message"}`.
    Err = 0x81,
    /// Backpressure rejection: `{"scope", "inflight", "limit"}`.
    Busy = 0x82,
}

impl Opcode {
    /// Every opcode, requests then responses (used by the round-trip
    /// property tests).
    pub const ALL: [Opcode; 24] = [
        Opcode::Hello,
        Opcode::DefineClass,
        Opcode::DefineEvent,
        Opcode::DefineRule,
        Opcode::EnableRule,
        Opcode::DisableRule,
        Opcode::DropRule,
        Opcode::SignalSync,
        Opcode::SignalAsync,
        Opcode::Stats,
        Opcode::TraceSummaries,
        Opcode::ExportTrace,
        Opcode::Ping,
        Opcode::Shutdown,
        Opcode::MetricsScrape,
        Opcode::ReplSubscribe,
        Opcode::ReplSnapshot,
        Opcode::ReplFrames,
        Opcode::ReplAck,
        Opcode::Promote,
        Opcode::SignalBatch,
        Opcode::Ok,
        Opcode::Err,
        Opcode::Busy,
    ];

    /// Decodes a wire byte; `None` for unassigned values.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| *op as u8 == b)
    }

    /// True for the response opcodes (`Ok`/`Err`/`Busy`).
    pub fn is_response(self) -> bool {
        self as u8 & 0x80 != 0
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the frame asks for or answers.
    pub opcode: Opcode,
    /// Correlates a response with its request (client-chosen).
    pub request_id: u64,
    /// JSON payload; [`json::Value::Null`] encodes as an empty payload.
    pub payload: json::Value,
}

impl Frame {
    /// Builds a frame.
    pub fn new(opcode: Opcode, request_id: u64, payload: json::Value) -> Frame {
        Frame { opcode, request_id, payload }
    }
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// First two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Version byte this build does not speak.
    BadVersion(u8),
    /// Unassigned opcode byte.
    UnknownOpcode(u8),
    /// Stated payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload present but not valid UTF-8 JSON.
    BadPayload(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            DecodeError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            DecodeError::BadPayload(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a frame could not be encoded (only size can fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Rendered payload exceeds [`MAX_PAYLOAD`] bytes.
    Oversized(usize),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Oversized(n) => write!(f, "payload of {n} bytes exceeds {MAX_PAYLOAD}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes a frame to wire bytes in the baseline (version 1, JSON)
/// encoding — the encoding of `Hello`.
pub fn encode(frame: &Frame) -> Result<Vec<u8>, EncodeError> {
    encode_with(frame, VERSION)
}

/// Encodes a frame to wire bytes in the given protocol version
/// (`1` = JSON text payload, `2` = compact binary payload).
pub fn encode_with(frame: &Frame, version: u8) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(64);
    encode_into(frame, version, &mut out)?;
    Ok(out)
}

/// Appends one frame's wire bytes to `out` (see [`encode_with`]). On
/// error `out` is left exactly as it was, so a caller can encode straight
/// into a queue that already holds other frames.
pub fn encode_into(frame: &Frame, version: u8, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(if version == VERSION_BINARY { VERSION_BINARY } else { VERSION });
    out.push(frame.opcode as u8);
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // payload length, patched below
    let body = match &frame.payload {
        json::Value::Null => Ok(()),
        p if version == VERSION_BINARY => {
            codec::encode_value(p, out).map_err(|_| EncodeError::Oversized(usize::MAX))
        }
        p => {
            write!(out, "{p}").expect("a Vec takes every byte");
            Ok(())
        }
    };
    let len = out.len() - start - HEADER_LEN;
    if body.is_ok() && len <= MAX_PAYLOAD {
        out[start + 12..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        return Ok(());
    }
    out.truncate(start);
    Err(body.err().unwrap_or(EncodeError::Oversized(len)))
}

/// Validates a 16-byte header, returning
/// `(version, opcode, request_id, payload_len)`. `max_version` bounds the
/// versions accepted: a ceiling of 1 rejects v2 frames.
fn decode_header(
    h: &[u8; HEADER_LEN],
    max_version: u8,
) -> Result<(u8, Opcode, u64, usize), DecodeError> {
    if h[0..2] != MAGIC {
        return Err(DecodeError::BadMagic([h[0], h[1]]));
    }
    if h[2] < VERSION || h[2] > max_version {
        return Err(DecodeError::BadVersion(h[2]));
    }
    let opcode = Opcode::from_u8(h[3]).ok_or(DecodeError::UnknownOpcode(h[3]))?;
    let request_id = u64::from_le_bytes(h[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
    if len as usize > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len));
    }
    Ok((h[2], opcode, request_id, len as usize))
}

fn parse_payload(version: u8, bytes: &[u8]) -> Result<json::Value, DecodeError> {
    if bytes.is_empty() {
        return Ok(json::Value::Null);
    }
    if version == VERSION_BINARY {
        return codec::decode_value(bytes).map_err(DecodeError::BadPayload);
    }
    let text = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadPayload("invalid utf-8"))?;
    json::Value::parse(text).map_err(|e| DecodeError::BadPayload(e.message))
}

/// Tries to decode one frame from the front of `buf`, accepting every
/// version this build speaks (see [`decode_with`]).
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; drop `consumed`
///   bytes from the buffer before decoding again.
/// * `Ok(None)` — the buffer holds a valid prefix of a frame; read more.
/// * `Err(_)` — the stream is corrupt at the buffer's front; the only
///   safe recovery is closing the connection.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
    decode_with(buf, VERSION_MAX).map(|r| r.map(|(f, _, used)| (f, used)))
}

/// [`decode`] with an explicit version ceiling, also reporting which
/// version the frame arrived in — a polyglot server answers each request
/// in the version it came in, so v1 clients never see a v2 byte.
pub fn decode_with(buf: &[u8], max_version: u8) -> Result<Option<(Frame, u8, usize)>, DecodeError> {
    if buf.len() < HEADER_LEN {
        // Reject garbage early: a wrong magic is detectable from the
        // first bytes alone, before a full header arrives.
        if !MAGIC.starts_with(&buf[..buf.len().min(2)]) {
            return Err(DecodeError::BadMagic([
                buf.first().copied().unwrap_or_default(),
                buf.get(1).copied().unwrap_or_default(),
            ]));
        }
        return Ok(None);
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("checked length");
    let (version, opcode, request_id, len) = decode_header(header, max_version)?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = parse_payload(version, &buf[HEADER_LEN..total])?;
    Ok(Some((Frame { opcode, request_id, payload }, version, total)))
}

/// Transport-or-framing error for the stream helpers.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer sent bytes that do not decode.
    Decode(DecodeError),
    /// The frame to send does not encode (oversized payload).
    Encode(EncodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Decode(e) => write!(f, "decode: {e}"),
            WireError::Encode(e) => write!(f, "encode: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}
impl From<EncodeError> for WireError {
    fn from(e: EncodeError) -> Self {
        WireError::Encode(e)
    }
}

/// Writes one frame in the baseline (JSON) encoding, returning the bytes
/// put on the wire.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, WireError> {
    write_frame_with(w, frame, VERSION)
}

/// Writes one frame in the given protocol version.
pub fn write_frame_with<W: Write>(
    w: &mut W,
    frame: &Frame,
    version: u8,
) -> Result<usize, WireError> {
    let bytes = encode_with(frame, version)?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads exactly one frame (either payload version), blocking until it is
/// complete.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(Frame, usize), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (version, opcode, request_id, len) = decode_header(&header, VERSION_MAX)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let payload = parse_payload(version, &payload)?;
    Ok((Frame { opcode, request_id, payload }, HEADER_LEN + len))
}

// ---------------------------------------------------------------------------
// Event-parameter (de)serialization — the tagged-JSON value codec lives in
// `sentinel-core::durable` (the catalog persists rule specs in the same
// format); re-exported here so wire-protocol users keep their import path.
// ---------------------------------------------------------------------------

pub use sentinel_core::durable::{
    params_from_json, params_to_json, value_from_json, value_to_json,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sentinel_detector::Value as EventValue;

    use super::*;

    fn frame(op: Opcode) -> Frame {
        Frame::new(op, 42, json::Value::obj([("k", json::Value::UInt(7))]))
    }

    #[test]
    fn encode_decode_round_trips() {
        for op in Opcode::ALL {
            let f = frame(op);
            let bytes = encode(&f).unwrap();
            let (back, used) = decode(&bytes).unwrap().expect("complete");
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn empty_payload_is_null() {
        let f = Frame::new(Opcode::Stats, 1, json::Value::Null);
        let bytes = encode(&f).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        let (back, _) = decode(&bytes).unwrap().unwrap();
        assert_eq!(back.payload, json::Value::Null);
    }

    #[test]
    fn incomplete_buffers_ask_for_more() {
        let bytes = encode(&frame(Opcode::Ping)).unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert_eq!(decode(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_headers_are_typed_errors() {
        let good = encode(&frame(Opcode::Ping)).unwrap();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(DecodeError::BadMagic(_))));
        let mut bad = good.clone();
        bad[2] = 9;
        assert!(matches!(decode(&bad), Err(DecodeError::BadVersion(9))));
        let mut bad = good.clone();
        bad[3] = 0x7F;
        assert!(matches!(decode(&bad), Err(DecodeError::UnknownOpcode(0x7F))));
        let mut bad = good;
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bad), Err(DecodeError::Oversized(_))));
    }

    #[test]
    fn oversized_payload_refuses_to_encode() {
        let f = Frame::new(Opcode::Ping, 0, json::Value::str("x".repeat(MAX_PAYLOAD)));
        assert!(matches!(encode(&f), Err(EncodeError::Oversized(_))));
    }

    #[test]
    fn encode_into_appends_what_encode_with_returns() {
        for version in [VERSION, VERSION_BINARY] {
            for op in Opcode::ALL {
                for f in [frame(op), Frame::new(op, 3, json::Value::Null)] {
                    let mut out = Vec::new();
                    encode_into(&f, version, &mut out).unwrap();
                    assert_eq!(out, encode_with(&f, version).unwrap(), "{op:?} v{version}");
                }
            }
        }
    }

    #[test]
    fn encode_into_keeps_the_bytes_already_queued() {
        for version in [VERSION, VERSION_BINARY] {
            let first = encode_with(&frame(Opcode::Ping), version).unwrap();
            let mut out = first.clone();
            encode_into(&frame(Opcode::Ok), version, &mut out).unwrap();
            assert_eq!(&out[..first.len()], &first[..]);
            let (a, used) = decode(&out).unwrap().expect("first frame");
            let (b, rest) = decode(&out[used..]).unwrap().expect("second frame");
            assert_eq!((a, b), (frame(Opcode::Ping), frame(Opcode::Ok)));
            assert_eq!(used + rest, out.len());
        }
    }

    #[test]
    fn encode_into_leaves_out_unchanged_on_error() {
        let big = Frame::new(Opcode::Ping, 0, json::Value::str("x".repeat(MAX_PAYLOAD)));
        let mut deep = json::Value::Null;
        for _ in 0..=codec::MAX_DEPTH + 1 {
            deep = json::Value::Arr(vec![deep]);
        }
        let deep = Frame::new(Opcode::Ok, 1, deep);
        let cases = [(&big, VERSION), (&big, VERSION_BINARY), (&deep, VERSION_BINARY)];
        for (f, version) in cases {
            let mut out = encode_with(&frame(Opcode::Stats), VERSION_BINARY).unwrap();
            let before = out.clone();
            assert!(encode_into(f, version, &mut out).is_err(), "v{version} must refuse");
            assert_eq!(out, before, "v{version} left bytes behind");
        }
    }

    #[test]
    fn binary_frames_round_trip_and_are_version_tagged() {
        for op in Opcode::ALL {
            let f = frame(op);
            let bytes = encode_with(&f, VERSION_BINARY).unwrap();
            assert_eq!(bytes[2], VERSION_BINARY);
            let (back, version, used) =
                decode_with(&bytes, VERSION_MAX).unwrap().expect("complete");
            assert_eq!(back, f);
            assert_eq!(version, VERSION_BINARY);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn v1_ceiling_rejects_binary_frames_like_an_old_build() {
        let bytes = encode_with(&frame(Opcode::Ping), VERSION_BINARY).unwrap();
        assert!(matches!(
            decode_with(&bytes, VERSION),
            Err(DecodeError::BadVersion(VERSION_BINARY))
        ));
        // The permissive entry point still takes it.
        assert!(decode(&bytes).unwrap().is_some());
    }

    #[test]
    fn params_round_trip() {
        let params: Vec<(Arc<str>, EventValue)> = vec![
            (Arc::from("i"), EventValue::Int(-3)),
            (Arc::from("f"), EventValue::Float(2.5)),
            (Arc::from("b"), EventValue::Bool(true)),
            (Arc::from("s"), EventValue::Str(Arc::from("hi"))),
            (Arc::from("o"), EventValue::Oid(9)),
            (Arc::from("n"), EventValue::Null),
        ];
        let j = params_to_json(&params);
        let text = j.to_string();
        let parsed = json::Value::parse(&text).unwrap();
        assert_eq!(params_from_json(&parsed).unwrap(), params);
    }

    #[test]
    fn opcode_bytes_are_stable() {
        assert_eq!(Opcode::Hello as u8, 0x01);
        assert_eq!(Opcode::Shutdown as u8, 0x0E);
        assert_eq!(Opcode::MetricsScrape as u8, 0x0F);
        assert_eq!(Opcode::ReplSubscribe as u8, 0x10);
        assert_eq!(Opcode::ReplSnapshot as u8, 0x11);
        assert_eq!(Opcode::ReplFrames as u8, 0x12);
        assert_eq!(Opcode::ReplAck as u8, 0x13);
        assert_eq!(Opcode::Promote as u8, 0x14);
        assert_eq!(Opcode::SignalBatch as u8, 0x15);
        assert!(!Opcode::Promote.is_response());
        assert!(!Opcode::SignalBatch.is_response());
        assert_eq!(Opcode::Ok as u8, 0x80);
        assert!(Opcode::Busy.is_response());
        assert!(!Opcode::SignalSync.is_response());
        assert_eq!(Opcode::from_u8(0x00), None);
        assert_eq!(Opcode::from_u8(0xFF), None);
    }
}
