//! The in-memory replication stream a primary ships to its followers.
//!
//! Every durable mutation — journal event appends, epoch fences, and DDL
//! catalog ops — is also pushed onto one totally-ordered [`ReplicationLog`].
//! A follower pulls `[from, from+max)` slices of that log over the wire
//! (`ReplFrames`), applies them in log order, and acknowledges a watermark;
//! the log keeps per-follower ack state so the primary can report lag.
//!
//! **Ordering.** Log order is *not* the `(epoch, ts, shard)` recovery merge
//! order, but it is state-equivalent to it: events on the same shard are
//! pushed in shard-FIFO order (the shard worker serialises its appends),
//! fences and catalog ops are pushed under a whole-graph barrier (no append
//! in flight), and shards own disjoint operator-DAG components — so any
//! interleaving of *different* shards within one epoch reaches the same
//! graph state. A follower applying the log is therefore, by construction,
//! a valid recovery prefix of the primary.
//!
//! **Seeding.** On open the log is seeded from recovery in deterministic
//! merge order, so a log sequence number is stable across primary restarts
//! and a follower's ack watermark survives both ends restarting. The log
//! holds the full history in memory — the same order of cost as the
//! recovery scan itself; journal-backed tailing is future work.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use sentinel_detector::log::{decode_event, encode_event, LoggedEvent};
use sentinel_detector::FenceKind;
use sentinel_obs::flight::{self, FlightKind};
use sentinel_obs::json;

use crate::catalog::CatalogOp;

/// One totally-ordered replication entry. Its log position is its
/// sequence number; `tip` is the next sequence to be assigned.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplEntry {
    /// A journal event append (`index` = global journal record index).
    Event {
        /// Global journal record index on the primary.
        index: u64,
        /// Detector shard that owns the event.
        shard: u32,
        /// Epoch the record was stamped with.
        epoch: u64,
        /// The event itself.
        ev: LoggedEvent,
    },
    /// An epoch fence (`position` = journal records preceding it).
    Fence {
        /// Journal records preceding the fence.
        position: u64,
        /// The epoch this fence closes.
        epoch: u64,
        /// Fence kind.
        kind: FenceKind,
        /// Logical timestamp carried by the fence.
        ts: u64,
    },
    /// A DDL catalog operation (`at_index` embedded in the op JSON).
    Catalog {
        /// Journal record index current when the op executed.
        at_index: u64,
        /// The operation.
        op: CatalogOp,
    },
}

/// Lower-hex encodes arbitrary bytes (snapshot shipping, event frames).
pub fn bytes_to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
    }
    out
}

/// Inverse of [`bytes_to_hex`]; `None` on odd length or non-hex digits.
pub fn bytes_from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

/// Hex-encodes a [`LoggedEvent`] with the journal's byte-faithful codec.
pub fn event_to_hex(ev: &LoggedEvent) -> String {
    let mut buf = BytesMut::new();
    encode_event(&mut buf, ev);
    bytes_to_hex(&buf)
}

/// Decodes an event hex-encoded by [`event_to_hex`].
pub fn event_from_hex(s: &str) -> Option<LoggedEvent> {
    let mut buf = Bytes::from(bytes_from_hex(s)?);
    let ev = decode_event(&mut buf)?;
    if !buf.is_empty() {
        return None;
    }
    Some(ev)
}

fn fence_kind_tag(kind: FenceKind) -> (&'static str, u64) {
    match kind {
        FenceKind::Barrier => ("barrier", 0),
        FenceKind::FlushTxn(txn) => ("flush_txn", txn),
        FenceKind::AdvanceTime(to) => ("advance_time", to),
    }
}

fn fence_kind_from(tag: &str, arg: u64) -> Option<FenceKind> {
    Some(match tag {
        "barrier" => FenceKind::Barrier,
        "flush_txn" => FenceKind::FlushTxn(arg),
        "advance_time" => FenceKind::AdvanceTime(arg),
        _ => return None,
    })
}

impl ReplEntry {
    /// Wire encoding of one entry.
    pub fn to_json(&self) -> json::Value {
        match self {
            ReplEntry::Event { index, shard, epoch, ev } => json::Value::obj([
                ("t", json::Value::str("event")),
                ("index", json::Value::UInt(*index)),
                ("shard", json::Value::UInt(u64::from(*shard))),
                ("epoch", json::Value::UInt(*epoch)),
                ("ev", json::Value::Str(event_to_hex(ev))),
            ]),
            ReplEntry::Fence { position, epoch, kind, ts } => {
                let (tag, arg) = fence_kind_tag(*kind);
                json::Value::obj([
                    ("t", json::Value::str("fence")),
                    ("position", json::Value::UInt(*position)),
                    ("epoch", json::Value::UInt(*epoch)),
                    ("kind", json::Value::str(tag)),
                    ("arg", json::Value::UInt(arg)),
                    ("ts", json::Value::UInt(*ts)),
                ])
            }
            ReplEntry::Catalog { at_index, op } => json::Value::obj([
                ("t", json::Value::str("catalog")),
                ("op", op.to_json(*at_index)),
            ]),
        }
    }

    /// Decodes an entry encoded by [`ReplEntry::to_json`].
    pub fn from_json(v: &json::Value) -> Option<ReplEntry> {
        match v.get("t")?.as_str()? {
            "event" => Some(ReplEntry::Event {
                index: v.get("index")?.as_u64()?,
                shard: u32::try_from(v.get("shard")?.as_u64()?).ok()?,
                epoch: v.get("epoch")?.as_u64()?,
                ev: event_from_hex(v.get("ev")?.as_str()?)?,
            }),
            "fence" => Some(ReplEntry::Fence {
                position: v.get("position")?.as_u64()?,
                epoch: v.get("epoch")?.as_u64()?,
                kind: fence_kind_from(v.get("kind")?.as_str()?, v.get("arg")?.as_u64()?)?,
                ts: v.get("ts")?.as_u64()?,
            }),
            "catalog" => {
                let (at_index, op) = CatalogOp::from_json(v.get("op")?)?;
                Some(ReplEntry::Catalog { at_index, op })
            }
            _ => None,
        }
    }
}

/// Per-follower ack state: the watermark it last acknowledged and when.
#[derive(Debug, Clone)]
pub struct FollowerAck {
    /// Follower name (from its `ReplSubscribe`).
    pub name: String,
    /// Log sequence the follower has durably applied (entries `< applied`).
    pub applied: u64,
    /// Milliseconds since the last ack arrived.
    pub age_ms: u64,
}

#[derive(Debug)]
struct AckState {
    applied: u64,
    at: Instant,
}

/// The totally-ordered replication stream plus per-follower ack state.
#[derive(Debug, Default)]
pub struct ReplicationLog {
    entries: Mutex<Vec<ReplEntry>>,
    acks: Mutex<BTreeMap<String, AckState>>,
}

impl ReplicationLog {
    /// Appends one entry; its sequence number is the log position.
    pub fn push(&self, entry: ReplEntry) {
        self.entries.lock().push(entry);
    }

    /// The next sequence number to be assigned (= entries so far).
    pub fn tip(&self) -> u64 {
        self.entries.lock().len() as u64
    }

    /// The wire encoding of entries `[from, from+max)`, plus the current
    /// tip. Serving a slice records a `ship` flight event.
    pub fn range_json(&self, from: u64, max: u64) -> (Vec<json::Value>, u64) {
        let entries = self.entries.lock();
        let tip = entries.len() as u64;
        let lo = (from.min(tip)) as usize;
        let hi = (from.saturating_add(max).min(tip)) as usize;
        let out: Vec<json::Value> = entries[lo..hi].iter().map(ReplEntry::to_json).collect();
        drop(entries);
        if !out.is_empty() {
            flight::global().record_static(FlightKind::Ship, "repl", from, out.len() as u64);
        }
        (out, tip)
    }

    /// The wire-encoded DDL catalog ops among the first `upto` entries,
    /// in log order — a bootstrapping follower rebuilds its schema from
    /// this prefix, then tails the live stream from `upto`.
    pub fn catalog_prefix(&self, upto: u64) -> Vec<json::Value> {
        let entries = self.entries.lock();
        let hi = (upto.min(entries.len() as u64)) as usize;
        entries[..hi]
            .iter()
            .filter_map(|e| match e {
                ReplEntry::Catalog { at_index, op } => Some(op.to_json(*at_index)),
                _ => None,
            })
            .collect()
    }

    /// Records a follower's ack watermark (entries `< applied` applied).
    pub fn ack(&self, follower: &str, applied: u64) {
        let mut acks = self.acks.lock();
        let state =
            acks.entry(follower.to_string()).or_insert(AckState { applied: 0, at: Instant::now() });
        state.applied = state.applied.max(applied);
        state.at = Instant::now();
        drop(acks);
        flight::global().record(FlightKind::Ack, std::sync::Arc::from(follower), applied, 0);
    }

    /// Snapshot of every follower's ack state.
    pub fn followers(&self) -> Vec<FollowerAck> {
        self.acks
            .lock()
            .iter()
            .map(|(name, st)| FollowerAck {
                name: name.clone(),
                applied: st.applied,
                age_ms: st.at.elapsed().as_millis() as u64,
            })
            .collect()
    }

    /// Replication lag in log entries of the furthest-behind follower
    /// (`None` when no follower has subscribed).
    pub fn max_lag(&self) -> Option<u64> {
        let tip = self.tip();
        self.acks.lock().values().map(|st| tip.saturating_sub(st.applied)).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_detector::Value;
    use std::sync::Arc;

    fn ev(i: u64) -> LoggedEvent {
        LoggedEvent::Explicit {
            name: format!("e{i}"),
            params: vec![(Arc::from("i"), Value::Int(i as i64)), (Arc::from("s"), Value::str("x"))],
            txn: (i % 2 == 0).then_some(i),
            ts: i + 1,
        }
    }

    #[test]
    fn entries_roundtrip_through_json() {
        let entries = [
            ReplEntry::Event { index: 3, shard: 1, epoch: 2, ev: ev(7) },
            ReplEntry::Fence { position: 4, epoch: 2, kind: FenceKind::FlushTxn(9), ts: 11 },
            ReplEntry::Fence { position: 4, epoch: 3, kind: FenceKind::Barrier, ts: 12 },
            ReplEntry::Fence { position: 5, epoch: 4, kind: FenceKind::AdvanceTime(99), ts: 99 },
            ReplEntry::Catalog { at_index: 6, op: CatalogOp::DeclareExplicit { name: "n".into() } },
        ];
        for entry in &entries {
            let j = entry.to_json();
            // Through the parser too, as the wire does.
            let parsed = json::Value::parse(&j.to_string()).unwrap();
            assert_eq!(ReplEntry::from_json(&parsed).as_ref(), Some(entry), "{j}");
        }
    }

    #[test]
    fn a_shard_that_does_not_fit_u32_is_rejected() {
        let entry = ReplEntry::Event { index: 0, shard: u32::MAX, epoch: 0, ev: ev(1) };
        let mut j = entry.to_json();
        assert_eq!(ReplEntry::from_json(&j), Some(entry));
        if let json::Value::Obj(pairs) = &mut j {
            pairs.iter_mut().find(|(k, _)| k == "shard").unwrap().1 = json::Value::UInt(1 << 32);
        }
        // `as u32` would have landed it in stream 0.
        assert_eq!(ReplEntry::from_json(&j), None);
    }

    #[test]
    fn event_hex_is_byte_faithful() {
        let e = ev(3);
        let hex = event_to_hex(&e);
        assert_eq!(event_from_hex(&hex), Some(e));
        assert!(event_from_hex("zz").is_none());
        assert!(event_from_hex("abc").is_none(), "odd length");
    }

    #[test]
    fn log_range_ack_and_lag() {
        let log = ReplicationLog::default();
        assert_eq!(log.tip(), 0);
        assert_eq!(log.max_lag(), None);
        for i in 0..5 {
            log.push(ReplEntry::Event { index: i, shard: 0, epoch: 0, ev: ev(i) });
        }
        let (slice, tip) = log.range_json(2, 2);
        assert_eq!(tip, 5);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].get("index").and_then(json::Value::as_u64), Some(2));
        let (rest, _) = log.range_json(4, 100);
        assert_eq!(rest.len(), 1);
        let (none, tip) = log.range_json(99, 10);
        assert!(none.is_empty());
        assert_eq!(tip, 5);

        log.ack("f1", 3);
        log.ack("f2", 5);
        log.ack("f1", 2); // stale ack never regresses the watermark
        assert_eq!(log.max_lag(), Some(2));
        let followers = log.followers();
        assert_eq!(followers.len(), 2);
        assert_eq!(followers[0].name, "f1");
        assert_eq!(followers[0].applied, 3);
    }
}
