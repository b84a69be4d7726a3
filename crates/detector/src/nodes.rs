//! Snoop operator semantics in the four parameter contexts.
//!
//! Each graph node keeps one [`CtxState`] per context, populated lazily
//! while the context's subscription counter is non-zero. An arriving child
//! occurrence is fed to [`NodeKind::on_child`], which applies the
//! operator's pairing/consumption policy for the given context and pushes
//! zero or more *emissions* (constituent groups that become composite
//! occurrences of this node) onto the caller's buffer.
//!
//! Consumption policies (VLDB '94 semantics, see crate docs and DESIGN.md):
//!
//! * **Recent** — buffers hold only the most recent occurrence per role and
//!   are *not* consumed by detection.
//! * **Chronicle** — FIFO pairing, participants consumed.
//! * **Continuous** — every initiator opens a window; one terminator fires
//!   all open windows and consumes them.
//! * **Cumulative** — everything buffered participates in (and is consumed
//!   by) the next detection.

use std::collections::VecDeque;
use std::sync::{Arc, LazyLock};

use sentinel_snoop::ParamContext;

use crate::clock::Timestamp;
use crate::graph::{NodeKind, NodeState};
use crate::occurrence::{Occurrence, Value};

/// An open detection window (for `NOT`, `A`, `A*`, `P`, `P*`).
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// The initiating occurrence.
    pub start: Option<Arc<Occurrence>>,
    /// Accumulated middle occurrences (`A`/`A*`).
    pub mids: Vec<Arc<Occurrence>>,
    /// Next periodic alarm (for `P`/`P*`).
    pub next_due: Option<Timestamp>,
    /// Accumulated periodic ticks (for `P*`).
    pub ticks: Vec<Timestamp>,
}

/// Per-context runtime state of a node.
#[derive(Debug, Clone, Default)]
pub struct CtxState {
    /// Role-indexed occurrence buffers (binary operators, ANY).
    pub bufs: Vec<VecDeque<Arc<Occurrence>>>,
    /// Open windows (interval operators).
    pub windows: VecDeque<Window>,
    /// Timestamp of the last `inner` occurrence (recent-context NOT).
    pub last_inner: Option<Timestamp>,
    /// Pending `PLUS` alarms: `(due, anchor)`.
    pub pending: Vec<(Timestamp, Arc<Occurrence>)>,
}

impl CtxState {
    fn buf(&mut self, role: usize, n: usize) -> &mut VecDeque<Arc<Occurrence>> {
        if self.bufs.len() < n {
            self.bufs.resize_with(n, VecDeque::new);
        }
        &mut self.bufs[role]
    }

    /// Whether this state holds anything (diagnostics).
    pub fn is_empty(&self) -> bool {
        self.bufs.iter().all(VecDeque::is_empty)
            && self.windows.is_empty()
            && self.pending.is_empty()
    }
}

/// One detection produced by a node: the constituents of the new composite
/// occurrence, plus optional extra parameters and an explicit occurrence
/// time (used by temporal operators whose time is the alarm tick, not a
/// constituent's tick).
#[derive(Debug)]
pub struct Emission {
    /// Constituent occurrences (will be sorted chronologically).
    pub constituents: Vec<Arc<Occurrence>>,
    /// Extra parameters attached to the composite (e.g. periodic ticks).
    pub params: Vec<(Arc<str>, Value)>,
    /// Occurrence time override (None ⇒ latest constituent).
    pub at: Option<Timestamp>,
}

impl Emission {
    fn of(constituents: Vec<Arc<Occurrence>>) -> Emission {
        Emission { constituents, params: Vec::new(), at: None }
    }
}

/// The parameter name of a `PLUS` firing's alarm time.
static FIRED_AT: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("fired_at"));
/// The parameter name of a `P` tick (and of each tick a `P*` reports).
static TICK: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("tick"));

impl NodeKind {
    /// Feeds a child occurrence (arriving in `role`) to `state`, the
    /// node's state for context `ctx`, pushing what it detects onto `out`.
    ///
    /// The caller guarantees the node is active in `ctx`.
    pub fn on_child(
        &self,
        state: &mut CtxState,
        role: u8,
        occ: &Arc<Occurrence>,
        ctx: ParamContext,
        out: &mut Vec<Emission>,
    ) {
        match self {
            NodeKind::Primitive { .. } => {} // leaves have no children
            NodeKind::Or(_, _) => out.push(Emission::of(vec![occ.clone()])),
            NodeKind::And(_, _) => on_and(state, role, occ, ctx, out),
            NodeKind::Seq(_, _) => on_seq(state, role, occ, ctx, out),
            NodeKind::Any { m, children } => {
                on_any(state, role, occ, ctx, *m as usize, children.len(), out)
            }
            NodeKind::Not { .. } => on_not(state, role, occ, ctx, out),
            NodeKind::Aperiodic { .. } => on_aperiodic(state, role, occ, ctx, out),
            NodeKind::AperiodicStar { .. } => on_aperiodic_star(state, role, occ, ctx, out),
            NodeKind::Periodic { period, .. } => {
                on_periodic(state, role, occ, ctx, *period, false, out)
            }
            NodeKind::PeriodicStar { period, .. } => {
                on_periodic(state, role, occ, ctx, *period, true, out)
            }
            NodeKind::Plus { delta, .. } => state.pending.push((occ.at + delta, occ.clone())),
        }
    }

    /// Feeds an occurrence that arrives in *both* roles of a binary
    /// operator at once — self-composition like `a ; a` ("two consecutive
    /// a's") or `a ^ a` ("a occurred twice"), where the left and right
    /// children are the same node.
    ///
    /// Semantics: a single buffer of prior occurrences; the new occurrence
    /// first tries to *terminate* (pair with buffered predecessors per the
    /// context policy), then — in non-consuming recent context always, in
    /// consuming contexts only when it did not terminate — becomes an
    /// initiator itself. `OR` self-composition fires exactly once per
    /// occurrence.
    pub fn on_child_dual(
        &self,
        state: &mut CtxState,
        occ: &Arc<Occurrence>,
        ctx: ParamContext,
        out: &mut Vec<Emission>,
    ) {
        match self {
            NodeKind::Or(_, _) => out.push(Emission::of(vec![occ.clone()])),
            NodeKind::And(_, _) | NodeKind::Seq(_, _) => {
                let buf = state.buf(0, 2);
                match ctx {
                    ParamContext::Recent => {
                        if let Some(prev) = buf.back() {
                            out.push(Emission::of(vec![prev.clone(), occ.clone()]));
                        }
                        buf.clear();
                        buf.push_back(occ.clone());
                    }
                    ParamContext::Chronicle => {
                        if let Some(prev) = buf.pop_front() {
                            out.push(Emission::of(vec![prev, occ.clone()]));
                        } else {
                            buf.push_back(occ.clone());
                        }
                    }
                    ParamContext::Continuous => {
                        out.extend(buf.drain(..).map(|prev| Emission::of(vec![prev, occ.clone()])));
                        buf.push_back(occ.clone());
                    }
                    ParamContext::Cumulative => {
                        if buf.is_empty() {
                            buf.push_back(occ.clone());
                        } else {
                            let mut cons: Vec<_> = buf.drain(..).collect();
                            cons.push(occ.clone());
                            out.push(Emission::of(cons));
                        }
                    }
                }
            }
            // Other operators with duplicated children keep per-role
            // delivery (handled by the caller in descending role order).
            _ => {}
        }
    }

    /// Fires every temporal alarm of `state` (the node's state for one
    /// context) due at or before `now`, pushing the emissions onto `out`.
    pub fn fire_alarms(&self, state: &mut CtxState, now: Timestamp, out: &mut Vec<Emission>) {
        match self {
            NodeKind::Plus { .. } => {
                let first = out.len();
                state.pending.retain(|(d, o)| {
                    if *d <= now {
                        out.push(Emission {
                            constituents: vec![o.clone()],
                            params: vec![(FIRED_AT.clone(), Value::Int(*d as i64))],
                            at: Some(*d),
                        });
                        false
                    } else {
                        true
                    }
                });
                out[first..].sort_by_key(|e| e.at);
            }
            NodeKind::Periodic { period, .. } => {
                for w in state.windows.iter_mut() {
                    while let Some(d) = w.next_due {
                        if d > now {
                            break;
                        }
                        out.push(Emission {
                            constituents: w.start.iter().cloned().collect(),
                            params: vec![(TICK.clone(), Value::Int(d as i64))],
                            at: Some(d),
                        });
                        w.next_due = Some(d + period);
                    }
                }
            }
            NodeKind::PeriodicStar { period, .. } => {
                // P* only emits at `end`: a due alarm is only recorded.
                for w in state.windows.iter_mut() {
                    while let Some(d) = w.next_due {
                        if d > now {
                            break;
                        }
                        w.ticks.push(d);
                        w.next_due = Some(d + period);
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether this is a binary operator (whose two roles a
    /// self-composition fills at once, see [`Self::on_child_dual`]).
    pub fn is_binary(&self) -> bool {
        matches!(self, NodeKind::And(..) | NodeKind::Or(..) | NodeKind::Seq(..))
    }
}

impl NodeState {
    /// Earliest pending alarm across all contexts (None if none).
    pub fn earliest_due(&self) -> Option<Timestamp> {
        let mut best: Option<Timestamp> = None;
        for state in &self.ctx {
            for (d, _) in &state.pending {
                best = Some(best.map_or(*d, |b| b.min(*d)));
            }
            for w in &state.windows {
                if let Some(d) = w.next_due {
                    best = Some(best.map_or(d, |b| b.min(d)));
                }
            }
        }
        best
    }

    /// Removes every buffered occurrence that involves transaction `txn`
    /// (events must not cross transaction boundaries, §3.2 item 3).
    ///
    /// A window whose *initiator* belongs to `txn` is dropped whole — its
    /// mids are invalid without the occurrence that opened the window —
    /// while a window with a surviving initiator only loses the mids that
    /// involve `txn`. Returns the number of occurrences removed (flush
    /// statistics).
    pub fn flush_txn(&mut self, txn: u64) -> usize {
        let mut removed = 0;
        for state in &mut self.ctx {
            for buf in &mut state.bufs {
                let before = buf.len();
                buf.retain(|o| !o.involves_txn(txn));
                removed += before - buf.len();
            }
            state.windows.retain(|w| {
                let drop_whole = w.start.as_ref().is_some_and(|s| s.involves_txn(txn));
                if drop_whole {
                    removed += 1 + w.mids.len();
                }
                !drop_whole
            });
            for w in &mut state.windows {
                let before = w.mids.len();
                w.mids.retain(|o| !o.involves_txn(txn));
                removed += before - w.mids.len();
            }
            let before = state.pending.len();
            state.pending.retain(|(_, o)| !o.involves_txn(txn));
            removed += before - state.pending.len();
        }
        removed
    }

    /// Clears all buffered state in every context (full event-graph flush).
    pub fn flush_all_state(&mut self) {
        self.ctx = Default::default();
    }
}

// --- AND ------------------------------------------------------------------

fn on_and(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    out: &mut Vec<Emission>,
) {
    let other = 1 - role as usize;
    let role = role as usize;
    match ctx {
        ParamContext::Recent => {
            let buf = state.buf(role, 2);
            buf.clear();
            buf.push_back(occ.clone());
            if let Some(o) = state.bufs[other].back() {
                out.push(Emission::of(vec![o.clone(), occ.clone()]));
            }
        }
        ParamContext::Chronicle => {
            state.buf(role, 2).push_back(occ.clone());
            while !state.bufs[0].is_empty() && !state.bufs[1].is_empty() {
                if let (Some(l), Some(r)) = (state.bufs[0].pop_front(), state.bufs[1].pop_front()) {
                    out.push(Emission::of(vec![l, r]));
                }
            }
        }
        ParamContext::Continuous => {
            state.buf(role, 2);
            if state.bufs[other].is_empty() {
                state.bufs[role].push_back(occ.clone());
            } else {
                let partners = state.bufs[other].drain(..);
                out.extend(partners.map(|p| Emission::of(vec![p, occ.clone()])));
            }
        }
        ParamContext::Cumulative => {
            state.buf(role, 2).push_back(occ.clone());
            if !state.bufs[0].is_empty() && !state.bufs[1].is_empty() {
                let mut cons: Vec<_> = state.bufs[0].drain(..).collect();
                cons.extend(state.bufs[1].drain(..));
                out.push(Emission::of(cons));
            }
        }
    }
}

// --- SEQ ------------------------------------------------------------------

fn on_seq(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    out: &mut Vec<Emission>,
) {
    match (role, ctx) {
        (0, ParamContext::Recent) => {
            let buf = state.buf(0, 2);
            buf.clear();
            buf.push_back(occ.clone());
        }
        (0, _) => state.buf(0, 2).push_back(occ.clone()),
        (1, ParamContext::Recent) => {
            if let Some(l) = state.buf(0, 2).back().filter(|l| l.at < occ.at) {
                out.push(Emission::of(vec![l.clone(), occ.clone()]));
            }
        }
        (1, ParamContext::Chronicle) => {
            // Oldest initiator strictly before the terminator.
            let buf = state.buf(0, 2);
            if buf.front().is_some_and(|l| l.at < occ.at) {
                let l = buf.pop_front().expect("front() was Some");
                out.push(Emission::of(vec![l, occ.clone()]));
            }
        }
        (1, ParamContext::Continuous) => {
            let buf = state.buf(0, 2);
            let lefts = buf.iter().filter(|l| l.at < occ.at);
            out.extend(lefts.map(|l| Emission::of(vec![l.clone(), occ.clone()])));
            buf.retain(|l| l.at >= occ.at);
        }
        (1, ParamContext::Cumulative) => {
            let buf = state.buf(0, 2);
            if buf.iter().any(|l| l.at < occ.at) {
                let mut cons: Vec<_> = buf.iter().filter(|l| l.at < occ.at).cloned().collect();
                buf.retain(|l| l.at >= occ.at);
                cons.push(occ.clone());
                out.push(Emission::of(cons));
            }
        }
        _ => {}
    }
}

// --- ANY ------------------------------------------------------------------

fn on_any(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    m: usize,
    n: usize,
    out: &mut Vec<Emission>,
) {
    let role = role as usize;
    match ctx {
        ParamContext::Recent => {
            let buf = state.buf(role, n);
            buf.clear();
            buf.push_back(occ.clone());
            let distinct = state.bufs.iter().filter(|b| !b.is_empty()).count();
            if distinct >= m {
                // The arriving occurrence + the (m-1) most recent others.
                let mut others: Vec<Arc<Occurrence>> = state
                    .bufs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != role)
                    .filter_map(|(_, b)| b.back().cloned())
                    .collect();
                others.sort_by_key(|o| std::cmp::Reverse(o.at));
                others.truncate(m - 1);
                let mut cons = others;
                cons.push(occ.clone());
                out.push(Emission::of(cons));
            }
        }
        ParamContext::Chronicle | ParamContext::Continuous => {
            state.buf(role, n).push_back(occ.clone());
            let distinct = state.bufs.iter().filter(|b| !b.is_empty()).count();
            if distinct >= m {
                // Consume the m oldest heads among distinct types.
                let mut heads: Vec<usize> = (0..n).filter(|i| !state.bufs[*i].is_empty()).collect();
                heads.sort_by_key(|i| state.bufs[*i].front().map(|o| o.at));
                heads.truncate(m);
                let cons: Vec<_> =
                    heads.into_iter().filter_map(|i| state.bufs[i].pop_front()).collect();
                out.push(Emission::of(cons));
            }
        }
        ParamContext::Cumulative => {
            state.buf(role, n).push_back(occ.clone());
            let distinct = state.bufs.iter().filter(|b| !b.is_empty()).count();
            if distinct >= m {
                let mut cons = Vec::new();
                for b in &mut state.bufs {
                    cons.extend(b.drain(..));
                }
                out.push(Emission::of(cons));
            }
        }
    }
}

// --- NOT ------------------------------------------------------------------

fn on_not(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    out: &mut Vec<Emission>,
) {
    match role {
        0 => {
            // start: open a window.
            if ctx == ParamContext::Recent {
                state.windows.clear();
            }
            state.windows.push_back(Window { start: Some(occ.clone()), ..Window::default() });
        }
        1 => {
            // inner: poison — open windows can never complete.
            state.last_inner = Some(occ.at);
            state.windows.clear();
        }
        2 => {
            // end: fire unpoisoned windows whose start precedes it.
            let opened_before = |w: &Window| w.start.as_ref().is_some_and(|s| s.at < occ.at);
            let pair = |s: Arc<Occurrence>| Emission::of(vec![s, occ.clone()]);
            match ctx {
                // The window is retained: recent does not consume.
                ParamContext::Recent => {
                    let fired = state.windows.back().filter(|w| opened_before(w));
                    out.extend(fired.and_then(|w| w.start.clone()).map(pair));
                }
                ParamContext::Chronicle => {
                    if state.windows.front().is_some_and(opened_before) {
                        out.extend(state.windows.pop_front().and_then(|w| w.start).map(pair));
                    }
                }
                ParamContext::Continuous | ParamContext::Cumulative => {
                    let mut starts = Vec::new();
                    state.windows.retain(|w| {
                        let fire = opened_before(w);
                        if fire {
                            starts.extend(w.start.clone());
                        }
                        !fire
                    });
                    if ctx == ParamContext::Continuous {
                        out.extend(starts.into_iter().map(pair));
                    } else if !starts.is_empty() {
                        starts.push(occ.clone());
                        out.push(Emission::of(starts));
                    }
                }
            }
        }
        _ => {}
    }
}

// --- A --------------------------------------------------------------------

fn on_aperiodic(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    out: &mut Vec<Emission>,
) {
    match role {
        0 => {
            if ctx == ParamContext::Recent || ctx == ParamContext::Cumulative {
                // One (most recent / merged) window.
                state.windows.clear();
            }
            state.windows.push_back(Window { start: Some(occ.clone()), ..Window::default() });
        }
        1 => match ctx {
            ParamContext::Recent | ParamContext::Chronicle => {
                if let Some(s) = state.windows.front().and_then(|w| w.start.clone()) {
                    out.push(Emission::of(vec![s, occ.clone()]));
                }
            }
            ParamContext::Continuous => {
                let starts = state.windows.iter().filter_map(|w| w.start.clone());
                out.extend(starts.map(|s| Emission::of(vec![s, occ.clone()])));
            }
            ParamContext::Cumulative => {
                if let Some(w) = state.windows.front_mut() {
                    w.mids.push(occ.clone());
                    let mut cons = vec![w.start.clone().expect("A window has a start")];
                    cons.extend(w.mids.iter().cloned());
                    out.push(Emission::of(cons));
                }
            }
        },
        2 => {
            // end closes windows; A emits nothing at close.
            match ctx {
                ParamContext::Chronicle => {
                    state.windows.pop_front();
                }
                _ => state.windows.clear(),
            }
        }
        _ => {}
    }
}

// --- A* -------------------------------------------------------------------

fn on_aperiodic_star(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    out: &mut Vec<Emission>,
) {
    match role {
        0 => {
            if ctx == ParamContext::Recent || ctx == ParamContext::Cumulative {
                state.windows.clear();
            }
            state.windows.push_back(Window { start: Some(occ.clone()), ..Window::default() });
        }
        1 => match ctx {
            ParamContext::Continuous => {
                for w in state.windows.iter_mut() {
                    w.mids.push(occ.clone());
                }
            }
            _ => {
                if let Some(w) = state.windows.front_mut() {
                    w.mids.push(occ.clone());
                }
            }
        },
        2 => {
            let closing: Vec<Window> = match ctx {
                ParamContext::Chronicle => state.windows.pop_front().into_iter().collect(),
                _ => state.windows.drain(..).collect(),
            };
            // A* fires only for windows with at least one mid.
            let closing = closing.into_iter().filter(|w| !w.mids.is_empty());
            match ctx {
                ParamContext::Cumulative => {
                    let mut cons: Vec<Arc<Occurrence>> = Vec::new();
                    for w in closing {
                        cons.extend(w.start);
                        cons.extend(w.mids);
                    }
                    if !cons.is_empty() {
                        cons.push(occ.clone());
                        out.push(Emission::of(cons));
                    }
                }
                _ => {
                    for w in closing {
                        let mut cons = Vec::with_capacity(w.mids.len() + 2);
                        cons.extend(w.start);
                        cons.extend(w.mids);
                        cons.push(occ.clone());
                        out.push(Emission::of(cons));
                    }
                }
            }
        }
        _ => {}
    }
}

// --- P / P* ---------------------------------------------------------------

fn on_periodic(
    state: &mut CtxState,
    role: u8,
    occ: &Arc<Occurrence>,
    ctx: ParamContext,
    period: u64,
    star: bool,
    out: &mut Vec<Emission>,
) {
    match role {
        0 => {
            if ctx == ParamContext::Recent || ctx == ParamContext::Cumulative {
                state.windows.clear();
            }
            state.windows.push_back(Window {
                start: Some(occ.clone()),
                next_due: Some(occ.at + period),
                ..Window::default()
            });
        }
        2 => {
            let closing: Vec<Window> = match ctx {
                ParamContext::Chronicle => state.windows.pop_front().into_iter().collect(),
                _ => state.windows.drain(..).collect(),
            };
            if !star {
                return; // P emits per tick, nothing at close.
            }
            for w in closing.into_iter().filter(|w| !w.ticks.is_empty()) {
                let mut cons = Vec::with_capacity(2);
                cons.extend(w.start);
                cons.push(occ.clone());
                let params =
                    w.ticks.iter().map(|t| (TICK.clone(), Value::Int(*t as i64))).collect();
                out.push(Emission { constituents: cons, params, at: None });
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    //! Operator-level unit tests drive `on_child` directly through a tiny
    //! harness; full-pipeline tests live in `detector.rs` and `/tests`.

    use super::*;
    use crate::graph::{EventGraph, PrimTarget};
    use sentinel_snoop::ast::EventModifier;
    use sentinel_snoop::parse_event_expr;

    struct Harness {
        g: EventGraph,
        node: crate::graph::EventId,
        seq: Timestamp,
    }

    impl Harness {
        fn new(expr: &str, ctx: ParamContext) -> Harness {
            let mut g = EventGraph::new();
            for name in ["s", "m", "t", "a", "b", "c"] {
                g.declare_primitive(
                    name,
                    "C",
                    EventModifier::End,
                    "void f()",
                    PrimTarget::AnyInstance,
                )
                .unwrap();
            }
            let e = parse_event_expr(expr).unwrap();
            let node = g.build_expr(&e, false).unwrap();
            g.subscribe(node, ctx, 1).unwrap();
            Harness { g, node, seq: 0 }
        }

        fn occ_in(&mut self, name: &str, txn: u64) -> Arc<Occurrence> {
            self.seq += 1;
            let id = self.g.lookup(name).unwrap();
            Occurrence::primitive(id, Arc::from(name), self.seq, Some(txn), 0, None, Vec::new())
        }

        /// Sends `name` to the node under test in the role it occupies.
        fn send(&mut self, name: &str, ctx: ParamContext) -> Vec<Vec<Timestamp>> {
            self.send_txn(name, ctx, 1)
        }

        /// [`Self::send`] with an explicit transaction id.
        fn send_txn(&mut self, name: &str, ctx: ParamContext, txn: u64) -> Vec<Vec<Timestamp>> {
            let occ = self.occ_in(name, txn);
            let child = self.g.lookup(name).unwrap();
            let roles: Vec<u8> = self
                .g
                .node(self.node)
                .kind
                .children()
                .into_iter()
                .filter(|(c, _)| *c == child)
                .map(|(_, r)| r)
                .collect();
            let mut ems = Vec::new();
            let node = self.g.node(self.node);
            for role in roles {
                node.kind.on_child(
                    &mut node.state.lock().ctx[ctx.index()],
                    role,
                    &occ,
                    ctx,
                    &mut ems,
                );
            }
            ems.iter()
                .map(|em| {
                    let mut ts: Vec<_> = em.constituents.iter().map(|o| o.at).collect();
                    ts.sort_unstable();
                    ts
                })
                .collect()
        }

        /// Fires the node's alarms due at `now` in `ctx`.
        fn fire(&self, now: Timestamp, ctx: ParamContext) -> Vec<Emission> {
            let (node, mut ems) = (self.g.node(self.node), Vec::new());
            node.kind.fire_alarms(&mut node.state.lock().ctx[ctx.index()], now, &mut ems);
            ems
        }

        /// Feeds `occ` to both roles of the binary node at once.
        fn dual(&self, occ: &Arc<Occurrence>, ctx: ParamContext) -> Vec<Emission> {
            let (node, mut ems) = (self.g.node(self.node), Vec::new());
            node.kind.on_child_dual(&mut node.state.lock().ctx[ctx.index()], occ, ctx, &mut ems);
            ems
        }

        fn state(&self) -> parking_lot::MutexGuard<'_, NodeState> {
            self.g.node(self.node).state.lock()
        }
    }

    #[test]
    fn and_recent_reuses_latest() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("a ^ b", ctx);
        assert!(h.send("a", ctx).is_empty()); // a@1
        assert_eq!(h.send("b", ctx), vec![vec![1, 2]]);
        // Another b pairs with the same (most recent) a.
        assert_eq!(h.send("b", ctx), vec![vec![1, 3]]);
        // New a overwrites; next b pairs with it.
        assert_eq!(h.send("a", ctx), vec![vec![3, 4]]); // pairs with latest b@3
        assert_eq!(h.send("b", ctx), vec![vec![4, 5]]);
    }

    #[test]
    fn and_chronicle_pairs_fifo_and_consumes() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("a ^ b", ctx);
        h.send("a", ctx); // a@1
        h.send("a", ctx); // a@2
        assert_eq!(h.send("b", ctx), vec![vec![1, 3]]); // oldest a first
        assert_eq!(h.send("b", ctx), vec![vec![2, 4]]);
        assert!(h.send("b", ctx).is_empty(), "all initiators consumed");
    }

    #[test]
    fn and_continuous_terminator_fires_all_open() {
        let ctx = ParamContext::Continuous;
        let mut h = Harness::new("a ^ b", ctx);
        h.send("a", ctx); // a@1
        h.send("a", ctx); // a@2
        let fired = h.send("b", ctx); // b@3 pairs with both
        assert_eq!(fired, vec![vec![1, 3], vec![2, 3]]);
        assert!(h.send("b", ctx).is_empty(), "initiators consumed");
    }

    #[test]
    fn and_cumulative_takes_everything_once() {
        let ctx = ParamContext::Cumulative;
        let mut h = Harness::new("a ^ b", ctx);
        h.send("a", ctx);
        h.send("a", ctx);
        let fired = h.send("b", ctx);
        assert_eq!(fired, vec![vec![1, 2, 3]]);
        assert!(h.send("b", ctx).is_empty());
    }

    #[test]
    fn seq_requires_strict_order() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("a ; b", ctx);
        assert!(h.send("b", ctx).is_empty(), "terminator before initiator");
        h.send("a", ctx);
        assert_eq!(h.send("b", ctx), vec![vec![2, 3]]);
    }

    #[test]
    fn seq_chronicle_consumes_oldest() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("a ; b", ctx);
        h.send("a", ctx); // 1
        h.send("a", ctx); // 2
        assert_eq!(h.send("b", ctx), vec![vec![1, 3]]);
        assert_eq!(h.send("b", ctx), vec![vec![2, 4]]);
        assert!(h.send("b", ctx).is_empty());
    }

    #[test]
    fn seq_continuous_and_cumulative() {
        let ctx = ParamContext::Continuous;
        let mut h = Harness::new("a ; b", ctx);
        h.send("a", ctx);
        h.send("a", ctx);
        assert_eq!(h.send("b", ctx), vec![vec![1, 3], vec![2, 3]]);

        let ctx = ParamContext::Cumulative;
        let mut h = Harness::new("a ; b", ctx);
        h.send("a", ctx);
        h.send("a", ctx);
        assert_eq!(h.send("b", ctx), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn or_fires_for_each_side_in_every_context() {
        for ctx in ParamContext::ALL {
            let mut h = Harness::new("a | b", ctx);
            assert_eq!(h.send("a", ctx), vec![vec![1]]);
            assert_eq!(h.send("b", ctx), vec![vec![2]]);
        }
    }

    #[test]
    fn any_two_of_three() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("ANY(2, a, b, c)", ctx);
        assert!(h.send("a", ctx).is_empty());
        assert!(h.send("a", ctx).is_empty(), "same type doesn't count twice");
        assert_eq!(h.send("c", ctx), vec![vec![1, 3]]);
        // a@2 still buffered; b completes the next pair.
        assert_eq!(h.send("b", ctx), vec![vec![2, 4]]);
    }

    #[test]
    fn any_recent_reemits_nonconsuming() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("ANY(2, a, b, c)", ctx);
        h.send("a", ctx);
        assert_eq!(h.send("b", ctx), vec![vec![1, 2]]);
        assert_eq!(h.send("c", ctx), vec![vec![2, 3]], "pairs with most recent distinct");
    }

    #[test]
    fn any_cumulative_drains_all() {
        let ctx = ParamContext::Cumulative;
        let mut h = Harness::new("ANY(2, a, b, c)", ctx);
        h.send("a", ctx);
        h.send("a", ctx);
        assert_eq!(h.send("b", ctx), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn not_fires_without_inner() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("NOT(m)[s, t]", ctx);
        h.send("s", ctx);
        assert_eq!(h.send("t", ctx), vec![vec![1, 2]]);
        // Recent keeps the window: another t fires again.
        assert_eq!(h.send("t", ctx), vec![vec![1, 3]]);
    }

    #[test]
    fn not_poisoned_by_inner() {
        for ctx in ParamContext::ALL {
            let mut h = Harness::new("NOT(m)[s, t]", ctx);
            h.send("s", ctx);
            h.send("m", ctx); // poison
            assert!(h.send("t", ctx).is_empty(), "ctx {ctx}: inner occurred");
        }
    }

    #[test]
    fn not_continuous_fires_all_windows() {
        let ctx = ParamContext::Continuous;
        let mut h = Harness::new("NOT(m)[s, t]", ctx);
        h.send("s", ctx);
        h.send("s", ctx);
        assert_eq!(h.send("t", ctx), vec![vec![1, 3], vec![2, 3]]);
        assert!(h.send("t", ctx).is_empty(), "windows consumed");
    }

    #[test]
    fn aperiodic_fires_per_mid_within_window() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("A(s, m, t)", ctx);
        assert!(h.send("m", ctx).is_empty(), "no window yet");
        h.send("s", ctx);
        assert_eq!(h.send("m", ctx), vec![vec![2, 3]]);
        assert_eq!(h.send("m", ctx), vec![vec![2, 4]]);
        h.send("t", ctx); // closes
        assert!(h.send("m", ctx).is_empty(), "window closed");
    }

    #[test]
    fn aperiodic_star_accumulates_until_end() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("A*(s, m, t)", ctx);
        h.send("s", ctx); // 1
        assert!(h.send("m", ctx).is_empty()); // 2
        assert!(h.send("m", ctx).is_empty()); // 3
        assert_eq!(h.send("t", ctx), vec![vec![1, 2, 3, 4]]);
        // Fires exactly once per window: a second t is silent.
        assert!(h.send("t", ctx).is_empty());
    }

    #[test]
    fn aperiodic_star_without_mids_is_silent() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("A*(s, m, t)", ctx);
        h.send("s", ctx);
        assert!(h.send("t", ctx).is_empty(), "zero mids: no detection");
    }

    #[test]
    fn aperiodic_star_continuous_multiple_windows() {
        let ctx = ParamContext::Continuous;
        let mut h = Harness::new("A*(s, m, t)", ctx);
        h.send("s", ctx); // 1
        h.send("m", ctx); // 2 -> window 1
        h.send("s", ctx); // 3
        h.send("m", ctx); // 4 -> windows 1 and 2
        let fired = h.send("t", ctx); // 5
        assert_eq!(fired, vec![vec![1, 2, 4, 5], vec![3, 4, 5]]);
    }

    #[test]
    fn plus_alarm_fires_at_due_time() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("PLUS(a, 10)", ctx);
        h.send("a", ctx); // at=1, due=11
        let due = h.state().earliest_due();
        assert_eq!(due, Some(11));
        let ems = h.fire(10, ctx);
        assert!(ems.is_empty(), "not due yet");
        let ems = h.fire(11, ctx);
        assert_eq!(ems.len(), 1);
        assert_eq!(ems[0].at, Some(11));
        assert_eq!(h.state().earliest_due(), None);
    }

    #[test]
    fn periodic_ticks_between_start_and_end() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("P(s, 5, t)", ctx);
        h.send("s", ctx); // at=1 -> due 6, 11, 16…
        let ems = h.fire(13, ctx);
        let ticks: Vec<_> = ems.iter().map(|e| e.at.unwrap()).collect();
        assert_eq!(ticks, vec![6, 11]);
        h.send("t", ctx); // close
        assert!(h.fire(100, ctx).is_empty());
    }

    #[test]
    fn periodic_star_reports_ticks_at_end() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("P*(s, 5, t)", ctx);
        h.send("s", ctx);
        assert!(h.fire(13, ctx).is_empty());
        let fired = h.send("t", ctx);
        assert_eq!(fired.len(), 1, "one emission with accumulated ticks");
    }

    #[test]
    fn not_chronicle_consumes_oldest_window() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("NOT(m)[s, t]", ctx);
        h.send("s", ctx); // window 1
        h.send("s", ctx); // window 2
        assert_eq!(h.send("t", ctx), vec![vec![1, 3]], "oldest window fires");
        assert_eq!(h.send("t", ctx), vec![vec![2, 4]], "then the next");
        assert!(h.send("t", ctx).is_empty(), "all consumed");
    }

    #[test]
    fn not_cumulative_merges_all_windows() {
        let ctx = ParamContext::Cumulative;
        let mut h = Harness::new("NOT(m)[s, t]", ctx);
        h.send("s", ctx);
        h.send("s", ctx);
        assert_eq!(h.send("t", ctx), vec![vec![1, 2, 3]], "one emission, all starts");
    }

    #[test]
    fn aperiodic_chronicle_pairs_with_oldest_window() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("A(s, m, t)", ctx);
        h.send("s", ctx); // w1@1
        h.send("s", ctx); // w2@2
        assert_eq!(h.send("m", ctx), vec![vec![1, 3]], "oldest window's start");
        h.send("t", ctx); // closes oldest (w1)
        assert_eq!(h.send("m", ctx), vec![vec![2, 5]], "now w2 is oldest");
        h.send("t", ctx); // closes w2
        assert!(h.send("m", ctx).is_empty());
    }

    #[test]
    fn aperiodic_continuous_fires_per_open_window() {
        let ctx = ParamContext::Continuous;
        let mut h = Harness::new("A(s, m, t)", ctx);
        h.send("s", ctx); // 1
        h.send("s", ctx); // 2
        assert_eq!(h.send("m", ctx), vec![vec![1, 3], vec![2, 3]]);
        h.send("t", ctx); // closes all
        assert!(h.send("m", ctx).is_empty());
    }

    #[test]
    fn aperiodic_recent_new_start_replaces_window() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("A(s, m, t)", ctx);
        h.send("s", ctx); // 1
        h.send("s", ctx); // 2 replaces
        assert_eq!(h.send("m", ctx), vec![vec![2, 3]], "most recent start");
    }

    #[test]
    fn aperiodic_star_chronicle_closes_oldest_only() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("A*(s, m, t)", ctx);
        h.send("s", ctx); // w1@1
        h.send("m", ctx); // 2 -> w1 (front window)
        h.send("s", ctx); // w2@3
        let fired = h.send("t", ctx); // 4: closes w1
        assert_eq!(fired, vec![vec![1, 2, 4]]);
        // w2 has no mids: its close is silent.
        assert!(h.send("t", ctx).is_empty());
    }

    #[test]
    fn any_continuous_consumes_like_chronicle() {
        // Documented simplification: continuous ANY == chronicle ANY.
        let ctx = ParamContext::Continuous;
        let mut h = Harness::new("ANY(2, a, b, c)", ctx);
        h.send("a", ctx);
        assert_eq!(h.send("b", ctx), vec![vec![1, 2]]);
        assert!(h.send("b", ctx).is_empty(), "a was consumed");
    }

    #[test]
    fn periodic_chronicle_windows_close_fifo() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("P(s, 5, t)", ctx);
        h.send("s", ctx); // w1@1: ticks 6, 11…
        h.send("s", ctx); // w2@2: ticks 7, 12…
        let ems = h.fire(8, ctx);
        let ticks: Vec<_> = ems.iter().map(|e| e.at.unwrap()).collect();
        assert_eq!(ticks, vec![6, 7], "both windows tick");
        h.send("t", ctx); // closes w1 only
        let ems = h.fire(13, ctx);
        let ticks: Vec<_> = ems.iter().map(|e| e.at.unwrap()).collect();
        assert_eq!(ticks, vec![12], "only w2 remains");
    }

    #[test]
    fn plus_multiple_pending_fire_in_due_order() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("PLUS(a, 10)", ctx);
        h.send("a", ctx); // @1 due 11
        h.send("a", ctx); // @2 due 12
        let ems = h.fire(20, ctx);
        let due: Vec<_> = ems.iter().map(|e| e.at.unwrap()).collect();
        assert_eq!(due, vec![11, 12]);
    }

    #[test]
    fn dual_role_seq_recent_is_overlapping() {
        let ctx = ParamContext::Recent;
        let mut h = Harness::new("a ; a", ctx);
        let child = h.g.lookup("a").unwrap();
        let _ = child;
        // Dual-role goes through on_child_dual.
        let send_dual = |h: &mut Harness| {
            h.seq += 1;
            let occ = Occurrence::primitive(
                h.g.lookup("a").unwrap(),
                Arc::from("a"),
                h.seq,
                Some(1),
                0,
                None,
                Vec::new(),
            );
            h.dual(&occ, ctx)
                .into_iter()
                .map(|em| {
                    let mut ts: Vec<_> = em.constituents.iter().map(|o| o.at).collect();
                    ts.sort_unstable();
                    ts
                })
                .collect::<Vec<_>>()
        };
        assert!(send_dual(&mut h).is_empty());
        assert_eq!(send_dual(&mut h), vec![vec![1, 2]]);
        assert_eq!(send_dual(&mut h), vec![vec![2, 3]], "recent: overlapping pairs");
    }

    #[test]
    fn dual_role_chronicle_is_non_overlapping() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("a ^ a", ctx);
        let send_dual = |h: &mut Harness| {
            h.seq += 1;
            let occ = Occurrence::primitive(
                h.g.lookup("a").unwrap(),
                Arc::from("a"),
                h.seq,
                Some(1),
                0,
                None,
                Vec::new(),
            );
            h.dual(&occ, ctx).into_iter().map(|em| em.constituents.len()).collect::<Vec<_>>()
        };
        assert!(send_dual(&mut h).is_empty()); // 1 buffered
        assert_eq!(send_dual(&mut h), vec![2]); // (1,2)
        assert!(send_dual(&mut h).is_empty()); // 3 buffered
        assert_eq!(send_dual(&mut h), vec![2]); // (3,4)
    }

    #[test]
    fn flush_txn_clears_buffers_and_windows() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("a ; b", ctx);
        h.send("a", ctx); // txn 1 buffered
        h.state().flush_txn(1);
        assert!(h.send("b", ctx).is_empty(), "initiator flushed with its txn");
    }

    /// A half-open A* window whose *initiator* belongs to the flushed
    /// transaction is dropped whole, even when its mids belong to other
    /// (still live) transactions — mids are meaningless without the
    /// occurrence that opened the window.
    #[test]
    fn flush_txn_drops_window_when_initiator_aborts() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("A*(s, m, t)", ctx);
        h.send_txn("s", ctx, 1); // window opened by txn 1
        h.send_txn("m", ctx, 2); // mid from txn 2
        let removed = h.state().flush_txn(1);
        assert_eq!(removed, 2, "initiator + the mid stranded with it");
        assert!(
            h.send_txn("t", ctx, 2).is_empty(),
            "no window may close after its initiator's transaction aborted"
        );
    }

    /// The converse: a window whose initiator survives the flush keeps
    /// detecting, losing only the mids of the flushed transaction.
    #[test]
    fn flush_txn_keeps_window_but_strips_aborted_mids() {
        let ctx = ParamContext::Chronicle;
        let mut h = Harness::new("A*(s, m, t)", ctx);
        h.send_txn("s", ctx, 2); // window owned by txn 2        (at=1)
        h.send_txn("m", ctx, 1); // mid from txn 1, to be flushed (at=2)
        h.send_txn("m", ctx, 2); // mid from txn 2               (at=3)
        let removed = h.state().flush_txn(1);
        assert_eq!(removed, 1, "only the aborted mid");
        let fired = h.send_txn("t", ctx, 2); // terminator        (at=4)
        assert_eq!(fired, vec![vec![1, 3, 4]], "window closes without the flushed mid");
    }
}
