//! One shard's detection state and the propagation core that changes it.
//!
//! A shard is a connected component of the event graph (see
//! [`EventGraph`]). Everything a signal on the shard mutates lives in its
//! [`Shard`]: each node's [`NodeState`], in the slot the graph gave the
//! node, the shard's pending temporal alarms and its signal count. The
//! detector keeps one `Mutex<Shard>` per shard, so the lock that orders a
//! shard's signals is the lock that guards its state. Nothing here locks:
//! every method takes the shard by `&mut` and the graph topology by `&`,
//! which the caller holds under the detector's read (or write) lock.

use std::collections::BTreeSet;
use std::sync::Arc;

use sentinel_obs::span::{SpanContext, TraceStore};
use sentinel_obs::Field;
use sentinel_snoop::ParamContext;

use crate::clock::Timestamp;
use crate::detector::Detection;
use crate::graph::{EventGraph, EventId, Node};
use crate::nodes::{CtxState, Emission};
use crate::occurrence::Occurrence;

/// The detection state of one node and its traffic counters.
#[derive(Debug, Default)]
pub struct NodeState {
    /// Per-context detection state.
    pub ctx: [CtxState; 4],
    /// Occurrences this node emitted, per context (composite detections
    /// and temporal firings).
    pub emitted: [u64; 4],
    /// Child occurrences delivered to this node, per context.
    pub consumed: [u64; 4],
    /// Occurrences of this node's event: one per signal of a leaf, one per
    /// emission of an operator.
    pub count: u64,
}

impl NodeState {
    /// Total occurrences emitted across all contexts.
    pub fn total_emitted(&self) -> u64 {
        self.emitted.iter().sum()
    }

    /// Total child occurrences consumed across all contexts.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.iter().sum()
    }
}

/// Where one propagation's results go: composite occurrences carry the
/// application id, "detect" spans go to the span store when one is
/// enabled, and detections are collected in detection order.
pub(crate) struct Output<'a> {
    /// The application stamped on composite occurrences.
    pub(crate) app: u32,
    /// The span store, when it is enabled.
    pub(crate) tracer: Option<&'a TraceStore>,
    /// Detections so far, in detection order.
    pub(crate) detections: Vec<Detection>,
}

/// Which context each emission of one delivery belongs to: `ends[i]` is
/// the emission count after context `ParamContext::ALL[i]` was fed.
fn context_of(ends: &[usize; 4], emission: usize) -> ParamContext {
    ParamContext::ALL[ends.partition_point(|&e| e <= emission)]
}

/// Short static name of a parameter context for trace fields.
fn ctx_name(ctx: ParamContext) -> &'static str {
    match ctx {
        ParamContext::Recent => "recent",
        ParamContext::Chronicle => "chronicle",
        ParamContext::Continuous => "continuous",
        ParamContext::Cumulative => "cumulative",
    }
}

/// The state of one shard. Labels merged away by DDL keep an empty shard.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Per-node state, indexed by [`Node::slot`].
    pub(crate) states: Vec<NodeState>,
    /// Pending temporal alarms `(due, node)`, earliest first; a `(due,
    /// node)` is queued at most once.
    pub(crate) alarms: BTreeSet<(Timestamp, EventId)>,
    /// Primitive signals processed by this shard.
    pub(crate) signals: u64,
    /// Scratch: composite occurrences still to deliver, `(node,
    /// occurrence, context)`. Empty between calls.
    work: Vec<(EventId, Arc<Occurrence>, ParamContext)>,
    /// Scratch: emissions of the delivery in progress.
    emissions: Vec<Emission>,
    /// Scratch: emissions of the alarm firing in progress.
    fired: Vec<Emission>,
}

impl Shard {
    /// The state of `node`, a node of this shard.
    pub(crate) fn state(&self, node: &Node) -> &NodeState {
        &self.states[node.slot as usize]
    }

    /// Mutable state of `node`, a node of this shard.
    pub(crate) fn state_mut(&mut self, node: &Node) -> &mut NodeState {
        &mut self.states[node.slot as usize]
    }

    /// Takes over `other`'s nodes, alarms and signal count. `other`'s
    /// slots follow this shard's, as the graph renumbered them.
    pub(crate) fn absorb(&mut self, other: Shard) {
        self.states.extend(other.states);
        self.alarms.extend(other.alarms);
        self.signals += other.signals;
    }

    /// Counts one occurrence of `leaf` and propagates it, built by `occ`,
    /// unless nothing consumes it: an occurrence no parent or rule sees is
    /// never built.
    pub(crate) fn deliver_leaf(
        &mut self,
        graph: &EventGraph,
        out: &mut Output<'_>,
        leaf: &Node,
        occ: impl FnOnce() -> Arc<Occurrence>,
    ) {
        self.state_mut(leaf).count += 1;
        if leaf.has_consumers() {
            self.propagate(graph, out, leaf.id, occ(), None);
        }
    }

    /// Pushes an occurrence created at `origin` through the graph.
    /// `ctx_filter` is None for leaf occurrences (which feed every active
    /// context of each parent) and Some(c) for operator emissions (which
    /// stay within their context). Everything reachable from `origin`
    /// lives in this shard.
    fn propagate(
        &mut self,
        graph: &EventGraph,
        out: &mut Output<'_>,
        origin: EventId,
        occ: Arc<Occurrence>,
        ctx_filter: Option<ParamContext>,
    ) {
        let mut next = Some((origin, occ, ctx_filter));
        while let Some((node_id, occ, filter)) =
            next.take().or_else(|| self.work.pop().map(|(id, occ, ctx)| (id, occ, Some(ctx))))
        {
            let node = graph.node(node_id);
            // Deliver to rule subscribers of this node.
            let contexts: &[ParamContext] = match filter {
                Some(ref ctx) => std::slice::from_ref(ctx),
                // A primitive occurrence satisfies a direct rule
                // subscription in any context (contexts only matter for
                // composite grouping).
                None => &ParamContext::ALL,
            };
            for &ctx in contexts {
                let subscribers = &node.rule_subs[ctx.index()];
                if subscribers.is_empty() {
                    continue;
                }
                out.detections.push(Detection {
                    event: node_id,
                    context: ctx,
                    occurrence: occ.clone(),
                    subscribers: subscribers.clone(),
                });
            }
            // Feed parents, once per delivery. The edges to one parent are
            // adjacent: a binary operator whose two children are the same
            // node (`a ; a`) receives the occurrence once through the
            // dual-role path; other multi-role deliveries go terminator-role
            // first (descending), so an occurrence can close a window
            // opened by an earlier occurrence before re-initiating.
            for edges in node.parents.chunk_by(|a, b| a.0 == b.0) {
                let parent = graph.node(edges[0].0);
                let dual = edges.len() == 2 && parent.kind.is_binary();
                let st = &mut self.states[parent.slot as usize];
                let mut ends = [0; 4];
                let mut fed = false;
                for ctx in ParamContext::ALL {
                    let i = ctx.index();
                    if filter.unwrap_or(ctx) == ctx && parent.active(ctx) {
                        fed = true;
                        let before = self.emissions.len();
                        st.consumed[i] += 1;
                        let state = &mut st.ctx[i];
                        if dual {
                            parent.kind.on_child_dual(state, &occ, ctx, &mut self.emissions);
                        } else {
                            for &(_, role) in edges {
                                parent.kind.on_child(state, role, &occ, ctx, &mut self.emissions);
                            }
                        }
                        let emitted = (self.emissions.len() - before) as u64;
                        st.emitted[i] += emitted;
                        st.count += emitted;
                    }
                    ends[i] = self.emissions.len();
                }
                let due = if fed && parent.kind.is_temporal() { st.earliest_due() } else { None };
                for (k, em) in self.emissions.drain(..).enumerate() {
                    let ctx = context_of(&ends, k);
                    let comp = Self::make_occurrence(out, parent, em, ctx);
                    self.work.push((parent.id, comp, ctx));
                }
                if let Some(due) = due {
                    self.schedule(parent.id, due);
                }
            }
        }
    }

    /// Builds the composite occurrence for one operator emission. When a
    /// span store is enabled, records a per-context "detect" span: its
    /// trace/parent come from the terminating constituent (the one whose
    /// signal completed the detection) and it links every constituent's
    /// span — the linked parameter list, lifted into the trace model.
    fn make_occurrence(
        out: &Output<'_>,
        node: &Node,
        em: Emission,
        ctx: ParamContext,
    ) -> Arc<Occurrence> {
        let name = node.name.clone();
        let span = out.tracer.map(|s| {
            let terminator = em.constituents.iter().max_by_key(|o| o.at);
            let anchor = terminator
                .and_then(|o| o.span)
                .or_else(|| em.constituents.iter().rev().find_map(|o| o.span));
            let (trace, parent) = match anchor {
                Some(a) => (a.trace, Some(a.span)),
                // No traced constituent (e.g. a periodic alarm tick, or
                // tracing enabled mid-composition): start a fresh trace.
                None => (s.new_trace(), None),
            };
            let links: Vec<SpanContext> = em.constituents.iter().filter_map(|o| o.span).collect();
            let h = s.start(trace, parent, "detect", name.clone());
            let ctx_out = h.ctx;
            s.finish_linked(h, 0, links, vec![("context", Field::from(ctx_name(ctx)))]);
            ctx_out
        });
        if em.at.is_none() && em.params.is_empty() {
            Occurrence::composite_spanned(node.id, name, em.constituents, span)
        } else {
            let mut constituents = em.constituents;
            constituents.sort_by_key(|o| o.at);
            let at = em.at.unwrap_or_else(|| constituents.last().map_or(0, |o| o.at));
            let txn = constituents.last().and_then(|o| o.txn);
            Arc::new(Occurrence {
                event: node.id,
                event_name: name,
                at,
                txn,
                app: out.app,
                source: None,
                params: em.params,
                constituents,
                span,
            })
        }
    }

    /// Queues a temporal node's next alarm, unless that `(due, node)` is
    /// queued already.
    pub(crate) fn schedule(&mut self, node: EventId, due: Timestamp) {
        self.alarms.insert((due, node));
    }

    /// Fires every alarm of this shard due at `now`.
    pub(crate) fn fire_due_alarms(
        &mut self,
        graph: &EventGraph,
        out: &mut Output<'_>,
        now: Timestamp,
    ) {
        while let Some(&(due, node_id)) = self.alarms.first() {
            if due > now {
                break;
            }
            self.alarms.pop_first();
            let node = graph.node(node_id);
            // Every context fires before any emission propagates: the
            // propagation only reaches the node's ancestors, never its
            // own state.
            let st = &mut self.states[node.slot as usize];
            let mut ends = [0; 4];
            for ctx in ParamContext::ALL {
                let i = ctx.index();
                if node.active(ctx) {
                    let before = self.fired.len();
                    node.kind.fire_alarms(&mut st.ctx[i], now, &mut self.fired);
                    let emitted = (self.fired.len() - before) as u64;
                    st.emitted[i] += emitted;
                    st.count += emitted;
                }
                ends[i] = self.fired.len();
            }
            let due = st.earliest_due();
            let mut fired = std::mem::take(&mut self.fired);
            for (k, em) in fired.drain(..).enumerate() {
                let ctx = context_of(&ends, k);
                let occ = Self::make_occurrence(out, node, em, ctx);
                self.propagate(graph, out, node_id, occ, Some(ctx));
            }
            self.fired = fired;
            if let Some(due) = due {
                self.schedule(node_id, due);
            }
        }
    }

    /// Drops every buffered occurrence of transaction `txn` from this
    /// shard's nodes; returns how many were dropped.
    pub(crate) fn flush_txn(&mut self, txn: u64) -> u64 {
        self.states.iter_mut().map(|st| st.flush_txn(txn) as u64).sum()
    }

    /// Clears the detection state of `event`'s sub-graph, which lies in
    /// this shard.
    pub(crate) fn flush_event(&mut self, graph: &EventGraph, event: EventId) {
        let mut stack = vec![event];
        while let Some(id) = stack.pop() {
            let node = graph.node(id);
            stack.extend(node.kind.children().into_iter().map(|(child, _)| child));
            self.state_mut(node).flush_all_state();
        }
    }

    /// Clears every node's detection state and every pending alarm.
    pub(crate) fn flush_all(&mut self) {
        for st in &mut self.states {
            st.flush_all_state();
        }
        self.alarms.clear();
    }
}
