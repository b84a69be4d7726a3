//! Checkpointable event-graph state.
//!
//! A [`GraphSnapshot`] captures everything the detector accumulates while
//! detecting composites — per-node, per-parameter-context operator state
//! (buffered occurrences, open windows, pending temporal alarms) plus the
//! logical clock — so a crashed process can restore the snapshot and
//! replay only the primitive-event journal suffix recorded after it
//! (`crates/durable`). Graph *shape* is deliberately not part of the
//! snapshot: the persistent catalog replays DDL in definition order, which
//! rebuilds identical [`EventId`]s; the snapshot is validated against the
//! rebuilt graph (ids and names must match) before any state is applied.
//!
//! Provenance spans are not persisted — a recovered occurrence carries no
//! span and simply starts a fresh trace if it later terminates a traced
//! composite.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::clock::Timestamp;
use crate::graph::EventId;
use crate::log::{
    claimed, get_opt_u64, get_params, get_str, put_opt_u64, put_params, put_str, take_u32,
    take_u64, take_u8,
};
use crate::nodes::{CtxState, Window};
use crate::occurrence::Occurrence;

/// Snapshot magic bytes.
const MAGIC: &[u8; 4] = b"SSNP";
/// Snapshot format version: 2, the layout with a shard label per node.
const VERSION: u32 = 2;

// The fewest bytes an encoded item takes, which bounds what a count read
// from the input may reserve (see `claimed`). An occurrence: event, name
// length, time, txn tag, app, source tag, parameter and constituent counts.
const MIN_OCCURRENCE: usize = 4 + 4 + 8 + 1 + 4 + 1 + 4 + 4;
// A window: start tag, mid count, due tag, tick count.
const MIN_WINDOW: usize = 1 + 4 + 1 + 4;
// A context state: buffer and window counts, last-inner tag, pending count.
const MIN_CTX_STATE: usize = 4 + 4 + 1 + 4;
// A node: id, name length, shard label, four context states.
const MIN_NODE: usize = 4 + 4 + 4 + 4 * MIN_CTX_STATE;

/// Captured state of one graph node (only nodes holding any state are
/// included; absent nodes restore to empty state).
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The node's id in the graph it was captured from.
    pub id: EventId,
    /// The node's display name — restore cross-checks it against the
    /// rebuilt graph so a snapshot can never be applied to the wrong node.
    pub name: Arc<str>,
    /// Shard (connected component) label of the node at capture time.
    /// Informational: restore re-derives sharding from the rebuilt graph,
    /// so snapshots cut before a component merge apply cleanly.
    pub shard: u32,
    /// Per-context operator state, in `ParamContext::ALL` order.
    pub state: [CtxState; 4],
}

/// A consistent snapshot of all detection state in the event graph.
#[derive(Debug, Clone, Default)]
pub struct GraphSnapshot {
    /// Logical clock value at capture time (≥ every timestamp inside).
    pub clock: Timestamp,
    /// State-bearing nodes.
    pub nodes: Vec<NodeSnapshot>,
}

/// Why a snapshot refused to restore into a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot references a node id the graph does not have.
    UnknownNode(EventId),
    /// The node with this id has a different name than the snapshot
    /// expects (the graph was rebuilt differently).
    NameMismatch {
        /// The offending node.
        id: EventId,
        /// Name recorded in the snapshot.
        expected: Arc<str>,
        /// Name found in the graph.
        found: Arc<str>,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::UnknownNode(id) => {
                write!(f, "snapshot references unknown node {id:?}")
            }
            RestoreError::NameMismatch { id, expected, found } => {
                write!(f, "snapshot node {id:?} expects `{expected}`, graph has `{found}`")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

// --- codec -------------------------------------------------------------

fn put_occurrence(out: &mut BytesMut, occ: &Occurrence) {
    out.put_u32_le(occ.event.0);
    put_str(out, &occ.event_name);
    out.put_u64_le(occ.at);
    put_opt_u64(out, occ.txn);
    out.put_u32_le(occ.app);
    put_opt_u64(out, occ.source);
    put_params(out, &occ.params);
    out.put_u32_le(occ.constituents.len() as u32);
    for c in &occ.constituents {
        put_occurrence(out, c);
    }
}

fn get_occurrence(buf: &mut Bytes) -> Option<Arc<Occurrence>> {
    let event = EventId(take_u32(buf)?);
    let event_name: Arc<str> = Arc::from(get_str(buf)?);
    let at = take_u64(buf)?;
    let txn = get_opt_u64(buf)?;
    let app = take_u32(buf)?;
    let source = get_opt_u64(buf)?;
    let params = get_params(buf)?;
    let n = take_u32(buf)? as usize;
    let mut constituents = Vec::with_capacity(claimed(n, buf, MIN_OCCURRENCE));
    for _ in 0..n {
        constituents.push(get_occurrence(buf)?);
    }
    Some(Arc::new(Occurrence {
        event,
        event_name,
        at,
        txn,
        app,
        source,
        params,
        constituents,
        span: None,
    }))
}

fn put_window(out: &mut BytesMut, w: &Window) {
    match &w.start {
        Some(o) => {
            out.put_u8(1);
            put_occurrence(out, o);
        }
        None => out.put_u8(0),
    }
    out.put_u32_le(w.mids.len() as u32);
    for m in &w.mids {
        put_occurrence(out, m);
    }
    put_opt_u64(out, w.next_due);
    out.put_u32_le(w.ticks.len() as u32);
    for t in &w.ticks {
        out.put_u64_le(*t);
    }
}

fn get_window(buf: &mut Bytes) -> Option<Window> {
    let start = match take_u8(buf)? {
        0 => None,
        1 => Some(get_occurrence(buf)?),
        _ => return None,
    };
    let n = take_u32(buf)? as usize;
    let mut mids = Vec::with_capacity(claimed(n, buf, MIN_OCCURRENCE));
    for _ in 0..n {
        mids.push(get_occurrence(buf)?);
    }
    let next_due = get_opt_u64(buf)?;
    let n = take_u32(buf)? as usize;
    let mut ticks = Vec::with_capacity(claimed(n, buf, 8));
    for _ in 0..n {
        ticks.push(take_u64(buf)?);
    }
    Some(Window { start, mids, next_due, ticks })
}

fn put_ctx_state(out: &mut BytesMut, st: &CtxState) {
    out.put_u32_le(st.bufs.len() as u32);
    for b in &st.bufs {
        out.put_u32_le(b.len() as u32);
        for o in b {
            put_occurrence(out, o);
        }
    }
    out.put_u32_le(st.windows.len() as u32);
    for w in &st.windows {
        put_window(out, w);
    }
    put_opt_u64(out, st.last_inner);
    out.put_u32_le(st.pending.len() as u32);
    for (due, anchor) in &st.pending {
        out.put_u64_le(*due);
        put_occurrence(out, anchor);
    }
}

fn get_ctx_state(buf: &mut Bytes) -> Option<CtxState> {
    let n = take_u32(buf)? as usize;
    let mut bufs = Vec::with_capacity(claimed(n, buf, 4));
    for _ in 0..n {
        let m = take_u32(buf)? as usize;
        let mut q = VecDeque::with_capacity(claimed(m, buf, MIN_OCCURRENCE));
        for _ in 0..m {
            q.push_back(get_occurrence(buf)?);
        }
        bufs.push(q);
    }
    let n = take_u32(buf)? as usize;
    let mut windows = VecDeque::with_capacity(claimed(n, buf, MIN_WINDOW));
    for _ in 0..n {
        windows.push_back(get_window(buf)?);
    }
    let last_inner = get_opt_u64(buf)?;
    let n = take_u32(buf)? as usize;
    let mut pending = Vec::with_capacity(claimed(n, buf, 8 + MIN_OCCURRENCE));
    for _ in 0..n {
        let due = take_u64(buf)?;
        pending.push((due, get_occurrence(buf)?));
    }
    Some(CtxState { bufs, windows, last_inner, pending })
}

impl GraphSnapshot {
    /// Serializes the snapshot into a self-contained byte stream.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_slice(MAGIC);
        out.put_u32_le(VERSION);
        out.put_u64_le(self.clock);
        out.put_u32_le(self.nodes.len() as u32);
        for node in &self.nodes {
            out.put_u32_le(node.id.0);
            put_str(&mut out, &node.name);
            out.put_u32_le(node.shard);
            for st in &node.state {
                put_ctx_state(&mut out, st);
            }
        }
        out.freeze()
    }

    /// Deserializes a snapshot; `None` on any corruption or on another
    /// format version.
    pub fn decode(mut buf: Bytes) -> Option<GraphSnapshot> {
        if buf.remaining() < 20 || &buf.split_to(4)[..] != MAGIC {
            return None;
        }
        if buf.get_u32_le() != VERSION {
            return None;
        }
        let clock = buf.get_u64_le();
        let n = buf.get_u32_le() as usize;
        let mut nodes = Vec::with_capacity(claimed(n, &buf, MIN_NODE));
        for _ in 0..n {
            let id = EventId(take_u32(&mut buf)?);
            let name: Arc<str> = Arc::from(get_str(&mut buf)?);
            let shard = take_u32(&mut buf)?;
            let state = [
                get_ctx_state(&mut buf)?,
                get_ctx_state(&mut buf)?,
                get_ctx_state(&mut buf)?,
                get_ctx_state(&mut buf)?,
            ];
            nodes.push(NodeSnapshot { id, name, shard, state });
        }
        if buf.has_remaining() {
            return None;
        }
        Some(GraphSnapshot { clock, nodes })
    }

    /// Whether the snapshot carries no state at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PrimTarget;
    use crate::LocalEventDetector;
    use sentinel_snoop::ast::EventModifier;
    use sentinel_snoop::{parse_event_expr, ParamContext};

    fn half_detected() -> LocalEventDetector {
        let d = LocalEventDetector::new(3);
        d.declare_primitive("a", "C", EventModifier::End, "void a()", PrimTarget::AnyInstance)
            .unwrap();
        d.declare_primitive("b", "C", EventModifier::End, "void b()", PrimTarget::AnyInstance)
            .unwrap();
        let seq = d.define_named("ab", &parse_event_expr("(a ; b)").unwrap()).unwrap();
        for ctx in ParamContext::ALL {
            d.subscribe(seq, ctx, 1).unwrap();
        }
        // Half of the SEQ: initiator buffered, nothing detected yet.
        d.notify_method(
            "C",
            "void a()",
            EventModifier::End,
            9,
            vec![(Arc::from("x"), crate::Value::Int(41))],
            Some(7),
        );
        d
    }

    #[test]
    fn snapshot_roundtrips_through_codec() {
        let d = half_detected();
        let snap = d.snapshot_state();
        assert!(!snap.is_empty());
        assert_eq!(snap.clock, 1);
        let decoded = GraphSnapshot::decode(snap.encode()).unwrap();
        assert_eq!(decoded.encode(), snap.encode());
        assert_eq!(decoded.clock, snap.clock);
        assert_eq!(decoded.nodes.len(), snap.nodes.len());
    }

    #[test]
    fn corrupt_snapshots_decode_to_none() {
        let snap = half_detected().snapshot_state();
        let bytes = snap.encode();
        for cut in 0..bytes.len() - 1 {
            assert!(GraphSnapshot::decode(bytes.slice(0..cut)).is_none(), "cut at {cut}");
        }
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(GraphSnapshot::decode(Bytes::from(bad)).is_none());
    }

    #[test]
    fn restore_resumes_half_detected_composite() {
        let d = half_detected();
        let snap = d.snapshot_state();

        // A fresh process: same definitions, no signals yet.
        let d2 = LocalEventDetector::new(3);
        d2.declare_primitive("a", "C", EventModifier::End, "void a()", PrimTarget::AnyInstance)
            .unwrap();
        d2.declare_primitive("b", "C", EventModifier::End, "void b()", PrimTarget::AnyInstance)
            .unwrap();
        let seq = d2.define_named("ab", &parse_event_expr("(a ; b)").unwrap()).unwrap();
        for ctx in ParamContext::ALL {
            d2.subscribe(seq, ctx, 1).unwrap();
        }
        d2.restore_snapshot(&snap).unwrap();

        // The terminator alone completes the pre-crash half.
        let dets = d2.notify_method("C", "void b()", EventModifier::End, 9, Vec::new(), Some(7));
        assert_eq!(dets.len(), 4, "one detection per context");
        for det in &dets {
            let prims = det.occurrence.param_list();
            assert_eq!(prims.len(), 2);
            assert_eq!(prims[0].param("x"), Some(&crate::Value::Int(41)));
            assert!(prims[0].at < prims[1].at, "pre-crash initiator ordered first");
        }
    }

    #[test]
    fn restore_rejects_mismatched_graphs() {
        let d = half_detected();
        let snap = d.snapshot_state();

        let empty = LocalEventDetector::new(3);
        match empty.restore_snapshot(&snap) {
            Err(RestoreError::UnknownNode(_)) => {}
            other => panic!("expected UnknownNode, got {other:?}"),
        }

        // Same ids, different names: declaring an extra primitive first
        // shifts every later node, so the snapshot's id points at a node
        // with another name.
        let skewed = LocalEventDetector::new(3);
        skewed
            .declare_primitive("z", "C", EventModifier::End, "void z()", PrimTarget::AnyInstance)
            .unwrap();
        skewed
            .declare_primitive("a", "C", EventModifier::End, "void a()", PrimTarget::AnyInstance)
            .unwrap();
        skewed
            .declare_primitive("b", "C", EventModifier::End, "void b()", PrimTarget::AnyInstance)
            .unwrap();
        let seq = skewed.define_named("ab", &parse_event_expr("(a ; b)").unwrap()).unwrap();
        for ctx in ParamContext::ALL {
            skewed.subscribe(seq, ctx, 1).unwrap();
        }
        match skewed.restore_snapshot(&snap) {
            Err(RestoreError::NameMismatch { .. }) => {}
            other => panic!("expected NameMismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rebuilds_temporal_alarms() {
        let d = LocalEventDetector::new(0);
        d.declare_primitive("e", "C", EventModifier::End, "void e()", PrimTarget::AnyInstance)
            .unwrap();
        let plus = d.define_named("late", &parse_event_expr("PLUS(e, 100)").unwrap()).unwrap();
        d.subscribe(plus, ParamContext::Recent, 1).unwrap();
        d.notify_method("C", "void e()", EventModifier::End, 1, Vec::new(), None); // ts=1, due=101
        let snap = d.snapshot_state();

        let d2 = LocalEventDetector::new(0);
        d2.declare_primitive("e", "C", EventModifier::End, "void e()", PrimTarget::AnyInstance)
            .unwrap();
        let plus = d2.define_named("late", &parse_event_expr("PLUS(e, 100)").unwrap()).unwrap();
        d2.subscribe(plus, ParamContext::Recent, 1).unwrap();
        d2.restore_snapshot(&snap).unwrap();
        assert!(d2.advance_time(100).is_empty());
        let dets = d2.advance_time(101);
        assert_eq!(dets.len(), 1, "pending PLUS alarm survives the restore");
        assert_eq!(dets[0].occurrence.at, 101);
    }
}
