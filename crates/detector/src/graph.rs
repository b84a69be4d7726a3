//! The event graph: operator DAG with shared sub-expressions, subscriber
//! edges and per-context reference counters (paper §3.2).
//!
//! * Leaf nodes are primitive events — method events (class- or
//!   instance-level), transaction events, or explicit events.
//! * Internal nodes are Snoop operators; structurally identical nodes are
//!   hash-consed so "common event sub-expressions are represented only once
//!   in the event graph" (§3.1).
//! * "Every node of the event graph has outgoing edges equal to the number
//!   of subscribers it has" — here: `parents` edges to operator nodes (with
//!   the child *role*: left/right, start/mid/end, …) plus per-context rule
//!   subscriber lists.
//! * Each node carries a counter per parameter context; a rule subscription
//!   propagates its context through the sub-graph, and a node detects in a
//!   context only while that counter is non-zero (§3.2 item 1).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sentinel_snoop::ast::{EventExpr, EventModifier};
use sentinel_snoop::ParamContext;

use crate::detector::SubscriberId;
use crate::nodes::CtxState;

/// Identifies a node of the event graph — and doubles as the identifier of
/// the event that node detects.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct EventId(pub u32);

/// Whether a method-event leaf fires for all instances of its class or for
/// one specific instance (paper §3.1 class-level vs instance-level events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimTarget {
    /// Class-level: all instances.
    AnyInstance,
    /// Instance-level: only the object with this oid.
    Instance(u64),
}

/// The operator (or leaf flavour) of a graph node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A primitive event leaf.
    Primitive {
        /// Class the monitored method belongs to (None for explicit and
        /// transaction events, which match by name alone).
        class: Option<Arc<str>>,
        /// Which invocation edge(s) fire it.
        modifier: EventModifier,
        /// Canonical method signature (None for explicit events).
        sig: Option<Arc<str>>,
        /// Class- or instance-level.
        target: PrimTarget,
    },
    /// Conjunction (roles: 0 = left, 1 = right).
    And(EventId, EventId),
    /// Disjunction (roles: 0 = left, 1 = right).
    Or(EventId, EventId),
    /// Sequence (roles: 0 = first, 1 = second).
    Seq(EventId, EventId),
    /// `ANY(m, …)` (role = child index).
    Any {
        /// Required number of distinct constituent types.
        m: u32,
        /// Candidate children.
        children: Vec<EventId>,
    },
    /// `NOT(inner)[start, end]` (roles: 0 = start, 1 = inner, 2 = end).
    Not {
        /// Interval opener.
        start: EventId,
        /// Monitored (must not occur).
        inner: EventId,
        /// Interval closer.
        end: EventId,
    },
    /// `A(start, mid, end)` (roles: 0 = start, 1 = mid, 2 = end).
    Aperiodic {
        /// Window opener.
        start: EventId,
        /// Monitored event.
        mid: EventId,
        /// Window closer.
        end: EventId,
    },
    /// `A*(start, mid, end)` (roles as [`NodeKind::Aperiodic`]).
    AperiodicStar {
        /// Window opener.
        start: EventId,
        /// Accumulated event.
        mid: EventId,
        /// Window closer / detection point.
        end: EventId,
    },
    /// `P(start, t, end)` (roles: 0 = start, 2 = end).
    Periodic {
        /// Window opener.
        start: EventId,
        /// Period in ticks.
        period: u64,
        /// Window closer.
        end: EventId,
    },
    /// `P*(start, t, end)` (roles as [`NodeKind::Periodic`]).
    PeriodicStar {
        /// Window opener.
        start: EventId,
        /// Period in ticks.
        period: u64,
        /// Window closer / detection point.
        end: EventId,
    },
    /// `PLUS(inner, t)` (role: 0 = inner).
    Plus {
        /// Anchoring event.
        inner: EventId,
        /// Offset in ticks.
        delta: u64,
    },
}

impl NodeKind {
    /// `(child, role)` pairs of this operator.
    pub fn children(&self) -> Vec<(EventId, u8)> {
        match self {
            NodeKind::Primitive { .. } => Vec::new(),
            NodeKind::And(a, b) | NodeKind::Or(a, b) | NodeKind::Seq(a, b) => {
                vec![(*a, 0), (*b, 1)]
            }
            NodeKind::Any { children, .. } => {
                children.iter().enumerate().map(|(i, c)| (*c, i as u8)).collect()
            }
            NodeKind::Not { start, inner, end } => vec![(*start, 0), (*inner, 1), (*end, 2)],
            NodeKind::Aperiodic { start, mid, end }
            | NodeKind::AperiodicStar { start, mid, end } => {
                vec![(*start, 0), (*mid, 1), (*end, 2)]
            }
            NodeKind::Periodic { start, end, .. } | NodeKind::PeriodicStar { start, end, .. } => {
                vec![(*start, 0), (*end, 2)]
            }
            NodeKind::Plus { inner, .. } => vec![(*inner, 0)],
        }
    }

    /// Whether this node produces time-driven occurrences.
    pub fn is_temporal(&self) -> bool {
        matches!(
            self,
            NodeKind::Periodic { .. } | NodeKind::PeriodicStar { .. } | NodeKind::Plus { .. }
        )
    }
}

/// One node of the event graph.
///
/// Its topology — `kind`, `name`, `parents`, `ctx_count` and `rule_subs` —
/// changes only under the graph write lock (`&mut EventGraph`), so a
/// signal holding the read lock reads it without locking the node. Only
/// the detection state and its counters, which signals mutate, sit behind
/// the node's own mutex.
#[derive(Debug)]
pub struct Node {
    /// This node's id.
    pub id: EventId,
    /// Display/lookup name (named events keep their name; anonymous
    /// sub-expressions get their canonical expression string).
    pub name: Arc<str>,
    /// Operator or leaf flavour.
    pub kind: NodeKind,
    /// Subscriber edges to parent operator nodes: `(parent, role at
    /// parent)`, kept sorted by parent and then by descending role, so the
    /// edges to one parent are adjacent and terminator roles come first.
    pub parents: Vec<(EventId, u8)>,
    /// Per-context active-subscription counters.
    pub ctx_count: [u32; 4],
    /// Rule subscribers per context.
    pub rule_subs: [Vec<SubscriberId>; 4],
    /// Detection state and traffic counters.
    pub state: Mutex<NodeState>,
}

/// The part of a node that signals mutate, behind the node's mutex.
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

impl Node {
    fn new(id: EventId, name: Arc<str>, kind: NodeKind) -> Self {
        Node {
            id,
            name,
            kind,
            parents: Vec::new(),
            ctx_count: [0; 4],
            rule_subs: Default::default(),
            state: Mutex::default(),
        }
    }

    /// Whether any context is active on this node.
    pub fn any_active(&self) -> bool {
        self.ctx_count.iter().any(|&c| c > 0)
    }

    /// Whether `ctx` is active on this node.
    #[inline]
    pub fn active(&self, ctx: ParamContext) -> bool {
        self.ctx_count[ctx.index()] > 0
    }

    /// Whether the occurrence of this node's event reaches anything: a
    /// parent operator or a rule subscriber.
    pub fn has_consumers(&self) -> bool {
        !self.parents.is_empty() || self.rule_subs.iter().any(|s| !s.is_empty())
    }
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

/// Errors raised while building or subscribing to the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A name was redefined with a different structure.
    Redefinition(String),
    /// An expression referenced an unknown event and auto-declaration was
    /// disabled.
    UnknownEvent(String),
    /// Subscribe/unsubscribe on an unknown event id.
    UnknownId(EventId),
    /// Unsubscribe without a matching subscription.
    NotSubscribed,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Redefinition(n) => write!(f, "event `{n}` redefined incompatibly"),
            GraphError::UnknownEvent(n) => write!(f, "unknown event `{n}`"),
            GraphError::UnknownId(id) => write!(f, "unknown event id {id:?}"),
            GraphError::NotSubscribed => f.write_str("no matching subscription"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The event graph.
///
/// Each node's state sits behind its own mutex so shard workers can mutate
/// disjoint connected components concurrently while sharing one graph
/// behind a read lock; the detector's per-shard order locks serialize all
/// access *within* a component, so the node mutexes are uncontended in
/// practice and exist to make the sharing data-race-free.
#[derive(Debug, Default)]
pub struct EventGraph {
    nodes: Vec<Node>,
    /// name -> node (named events: primitives, explicit, named composites).
    names: HashMap<Arc<str>, EventId>,
    /// Structural sharing of operator nodes.
    interned: HashMap<NodeKind, EventId>,
    /// class name -> primitive leaves declared on it ("each of the primitive
    /// events defined is maintained as a list based on the class on which it
    /// is defined", §3.2).
    by_class: HashMap<Arc<str>, Vec<EventId>>,
    /// Shard label per node, parallel to `nodes`. A shard is a connected
    /// component of the operator DAG (with all method leaves of one class
    /// coupled, since a single `notify` feeds them atomically); composing
    /// a node over children in different components unions them.
    labels: Vec<u32>,
    /// Labels ever allocated. Labels are never recycled, so after merges
    /// some labels below this bound own no nodes.
    allocated_shards: u32,
    /// `(winner, loser)` component unions not yet applied by the detector
    /// (which migrates per-shard runtime state loser → winner).
    merges: Vec<(u32, u32)>,
}

impl EventGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates that `id` names a node of this graph. The unchecked
    /// accessors below index directly (internal ids are valid by
    /// construction); public detector entry points taking caller-supplied
    /// ids go through this first.
    pub fn check(&self, id: EventId) -> Result<(), GraphError> {
        if (id.0 as usize) < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownId(id))
        }
    }

    /// Borrows a node. Its topology reads need no lock; its state is
    /// behind [`Node::state`].
    pub fn node(&self, id: EventId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutably borrow a node (exclusive graph access, no locking).
    pub fn node_mut(&mut self, id: EventId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Shard (connected component) label of a node.
    pub fn shard_of(&self, id: EventId) -> u32 {
        self.labels[id.0 as usize]
    }

    /// Number of shard labels ever allocated. Shard-indexed tables are
    /// sized by this; merged-away labels simply go idle.
    pub fn shard_count(&self) -> u32 {
        self.allocated_shards
    }

    /// Shard label per node, parallel to node ids.
    pub fn shard_labels(&self) -> &[u32] {
        &self.labels
    }

    /// Drains the component unions performed since the last call, as
    /// `(winner, loser)` label pairs in the order they happened. The
    /// detector applies these by migrating per-shard runtime state.
    pub fn take_merges(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.merges)
    }

    /// Number of nodes (the ablation benches report this).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a named event.
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.names.get(name).copied()
    }

    /// Name of an event id.
    pub fn name_of(&self, id: EventId) -> Arc<str> {
        self.node(id).name.clone()
    }

    /// Primitive leaves declared on `class`.
    pub fn class_events(&self, class: &str) -> &[EventId] {
        self.by_class.get(class).map_or(&[], |v| v.as_slice())
    }

    /// The interned name of `class` and its primitive leaves, if it has any.
    pub fn class_entry(&self, class: &str) -> Option<(&Arc<str>, &[EventId])> {
        self.by_class.get_key_value(class).map(|(k, v)| (k, v.as_slice()))
    }

    fn push_node(&mut self, name: Arc<str>, kind: NodeKind) -> EventId {
        let id = EventId(self.nodes.len() as u32);
        let children = kind.children();
        let shard = if children.is_empty() {
            let s = self.allocated_shards;
            self.allocated_shards += 1;
            s
        } else {
            // A composite joins its children's components: the smallest
            // label wins (deterministic across identical DDL sequences,
            // which snapshot byte-equality tests rely on).
            let winner =
                children.iter().map(|(c, _)| self.labels[c.0 as usize]).min().expect("children");
            for (c, _) in &children {
                let l = self.labels[c.0 as usize];
                if l != winner {
                    self.merge_shards(winner, l);
                }
            }
            winner
        };
        self.nodes.push(Node::new(id, name, kind));
        self.labels.push(shard);
        for (child, role) in children {
            let parents = &mut self.nodes[child.0 as usize].parents;
            parents.push((id, role));
            parents.sort_by_key(|&(p, r)| (p, std::cmp::Reverse(r)));
        }
        id
    }

    /// Relabels every node in component `loser` to `winner` and queues the
    /// union for the detector's runtime-state migration.
    fn merge_shards(&mut self, winner: u32, loser: u32) {
        debug_assert_ne!(winner, loser);
        for l in &mut self.labels {
            if *l == loser {
                *l = winner;
            }
        }
        self.merges.push((winner, loser));
    }

    /// Declares a method-event primitive (idempotent on identical redefinition).
    pub fn declare_primitive(
        &mut self,
        name: &str,
        class: &str,
        modifier: EventModifier,
        sig: &str,
        target: PrimTarget,
    ) -> Result<EventId, GraphError> {
        let kind = NodeKind::Primitive {
            class: Some(Arc::from(class)),
            modifier,
            sig: Some(Arc::from(sig)),
            target,
        };
        if let Some(&existing) = self.names.get(name) {
            return if self.nodes[existing.0 as usize].kind == kind {
                Ok(existing)
            } else {
                Err(GraphError::Redefinition(name.to_string()))
            };
        }
        let name: Arc<str> = Arc::from(name);
        let id = self.push_node(name.clone(), kind);
        self.names.insert(name, id);
        let list = self.by_class.entry(Arc::from(class)).or_default();
        list.push(id);
        let first = list[0];
        // One `notify` feeds every method leaf of the class atomically, so
        // the class's leaves are detection-order-coupled: keep them in one
        // shard (this also makes every signal single-shard).
        let (a, b) = (self.labels[first.0 as usize], self.labels[id.0 as usize]);
        if a != b {
            self.merge_shards(a.min(b), a.max(b));
        }
        Ok(id)
    }

    /// Declares an explicit (abstract) event matched by name only —
    /// transaction events, global events, user-raised events.
    pub fn declare_explicit(&mut self, name: &str) -> EventId {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let kind = NodeKind::Primitive {
            class: None,
            modifier: EventModifier::Both,
            sig: None,
            target: PrimTarget::AnyInstance,
        };
        let name: Arc<str> = Arc::from(name);
        let id = self.push_node(name.clone(), kind);
        self.names.insert(name, id);
        id
    }

    /// Builds (with sharing) the sub-graph for `expr`. Unknown references
    /// are auto-declared as explicit events when `auto_declare` is set,
    /// otherwise they are an error.
    pub fn build_expr(
        &mut self,
        expr: &EventExpr,
        auto_declare: bool,
    ) -> Result<EventId, GraphError> {
        let id = match expr {
            EventExpr::Ref(name) => match self.names.get(name.as_str()) {
                Some(&id) => id,
                None if auto_declare => self.declare_explicit(name),
                None => return Err(GraphError::UnknownEvent(name.clone())),
            },
            EventExpr::And(a, b) => {
                let a = self.build_expr(a, auto_declare)?;
                let b = self.build_expr(b, auto_declare)?;
                self.intern(expr, NodeKind::And(a, b))
            }
            EventExpr::Or(a, b) => {
                let a = self.build_expr(a, auto_declare)?;
                let b = self.build_expr(b, auto_declare)?;
                self.intern(expr, NodeKind::Or(a, b))
            }
            EventExpr::Seq(a, b) => {
                let a = self.build_expr(a, auto_declare)?;
                let b = self.build_expr(b, auto_declare)?;
                self.intern(expr, NodeKind::Seq(a, b))
            }
            EventExpr::Any { m, events } => {
                let children = events
                    .iter()
                    .map(|e| self.build_expr(e, auto_declare))
                    .collect::<Result<Vec<_>, _>>()?;
                self.intern(expr, NodeKind::Any { m: *m, children })
            }
            EventExpr::Not { inner, start, end } => {
                let start = self.build_expr(start, auto_declare)?;
                let inner = self.build_expr(inner, auto_declare)?;
                let end = self.build_expr(end, auto_declare)?;
                self.intern(expr, NodeKind::Not { start, inner, end })
            }
            EventExpr::Aperiodic { start, inner, end } => {
                let start = self.build_expr(start, auto_declare)?;
                let mid = self.build_expr(inner, auto_declare)?;
                let end = self.build_expr(end, auto_declare)?;
                self.intern(expr, NodeKind::Aperiodic { start, mid, end })
            }
            EventExpr::AperiodicStar { start, inner, end } => {
                let start = self.build_expr(start, auto_declare)?;
                let mid = self.build_expr(inner, auto_declare)?;
                let end = self.build_expr(end, auto_declare)?;
                self.intern(expr, NodeKind::AperiodicStar { start, mid, end })
            }
            EventExpr::Periodic { start, period, end } => {
                let start = self.build_expr(start, auto_declare)?;
                let end = self.build_expr(end, auto_declare)?;
                self.intern(expr, NodeKind::Periodic { start, period: *period, end })
            }
            EventExpr::PeriodicStar { start, period, end } => {
                let start = self.build_expr(start, auto_declare)?;
                let end = self.build_expr(end, auto_declare)?;
                self.intern(expr, NodeKind::PeriodicStar { start, period: *period, end })
            }
            EventExpr::Plus { inner, delta } => {
                let inner = self.build_expr(inner, auto_declare)?;
                self.intern(expr, NodeKind::Plus { inner, delta: *delta })
            }
        };
        Ok(id)
    }

    fn intern(&mut self, expr: &EventExpr, kind: NodeKind) -> EventId {
        if let Some(&id) = self.interned.get(&kind) {
            return id;
        }
        let id = self.push_node(Arc::from(expr.to_string()), kind.clone());
        self.interned.insert(kind, id);
        id
    }

    /// Composes an operator node over *existing* node ids (interned like
    /// expression-built nodes). Used by the rule manager's deferred-mode
    /// rewrite, which wraps an already-built event in
    /// `A*(begin-transaction, E, pre-commit-transaction)`.
    pub fn compose(&mut self, name: &str, kind: NodeKind) -> EventId {
        if let Some(&id) = self.interned.get(&kind) {
            return id;
        }
        let id = self.push_node(Arc::from(name), kind.clone());
        self.interned.insert(kind, id);
        id
    }

    /// Adds an additional name for an existing event (the preprocessor
    /// registers class events under `CLASS.event` and aliases the bare
    /// `event` name when it is still free). Fails on conflict.
    pub fn alias(&mut self, name: &str, id: EventId) -> Result<(), GraphError> {
        self.check(id)?;
        match self.names.get(name) {
            Some(&existing) if existing == id => Ok(()),
            Some(_) => Err(GraphError::Redefinition(name.to_string())),
            None => {
                self.names.insert(Arc::from(name), id);
                Ok(())
            }
        }
    }

    /// Defines a *named* composite event (`event e4 = e1 ^ e2`).
    pub fn define_named(
        &mut self,
        name: &str,
        expr: &EventExpr,
        auto_declare: bool,
    ) -> Result<EventId, GraphError> {
        let id = self.build_expr(expr, auto_declare)?;
        if let Some(&existing) = self.names.get(name) {
            return if existing == id {
                Ok(id)
            } else {
                Err(GraphError::Redefinition(name.to_string()))
            };
        }
        let name: Arc<str> = Arc::from(name);
        self.names.insert(name.clone(), id);
        // Upgrade the node's display name from the anonymous expression
        // string to its first user-given name (for traces/DOT/stats).
        let node = &mut self.nodes[id.0 as usize];
        if !matches!(node.kind, NodeKind::Primitive { .. }) && node.name.contains(['(', ' ']) {
            node.name = name;
        }
        Ok(id)
    }

    /// Subscribes `sub` to `event` in context `ctx`: increments the context
    /// counter on the whole sub-graph (detection in that context begins on
    /// the 0→1 transition) and records the rule subscriber at the root.
    pub fn subscribe(
        &mut self,
        event: EventId,
        ctx: ParamContext,
        sub: SubscriberId,
    ) -> Result<(), GraphError> {
        self.check(event)?;
        self.bump_ctx(event, ctx, 1);
        self.nodes[event.0 as usize].rule_subs[ctx.index()].push(sub);
        Ok(())
    }

    /// Reverses [`Self::subscribe`]; when a node's counter returns to zero
    /// its detection state for that context is dropped ("if the counter is
    /// reset to 0, events are no longer detected in that context").
    pub fn unsubscribe(
        &mut self,
        event: EventId,
        ctx: ParamContext,
        sub: SubscriberId,
    ) -> Result<(), GraphError> {
        self.check(event)?;
        let subs = &mut self.nodes[event.0 as usize].rule_subs[ctx.index()];
        let Some(pos) = subs.iter().position(|s| *s == sub) else {
            return Err(GraphError::NotSubscribed);
        };
        subs.remove(pos);
        self.bump_ctx(event, ctx, -1);
        Ok(())
    }

    fn bump_ctx(&mut self, event: EventId, ctx: ParamContext, delta: i32) {
        let mut stack = vec![event];
        while let Some(id) = stack.pop() {
            let node = &mut self.nodes[id.0 as usize];
            let c = &mut node.ctx_count[ctx.index()];
            if delta > 0 {
                *c += delta as u32;
            } else {
                *c = c.saturating_sub((-delta) as u32);
                if *c == 0 {
                    node.state.get_mut().ctx[ctx.index()] = CtxState::default();
                }
            }
            for (child, _) in node.kind.children() {
                stack.push(child);
            }
        }
    }

    /// Ids of all temporal nodes with at least one active context (the
    /// detector's alarm scan set).
    pub fn temporal_nodes(&self) -> Vec<EventId> {
        self.nodes.iter().filter(|n| n.kind.is_temporal() && n.any_active()).map(|n| n.id).collect()
    }

    /// All node ids (diagnostics).
    pub fn node_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.nodes.len()).map(|i| EventId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_snoop::parse_event_expr;

    fn graph_with_prims() -> EventGraph {
        let mut g = EventGraph::new();
        g.declare_primitive(
            "e1",
            "STOCK",
            EventModifier::End,
            "int sell_stock(int qty)",
            PrimTarget::AnyInstance,
        )
        .unwrap();
        g.declare_primitive(
            "e2",
            "STOCK",
            EventModifier::Begin,
            "void set_price(float price)",
            PrimTarget::AnyInstance,
        )
        .unwrap();
        g
    }

    #[test]
    fn primitive_declaration_is_idempotent_and_conflicts_detected() {
        let mut g = graph_with_prims();
        let id = g
            .declare_primitive(
                "e1",
                "STOCK",
                EventModifier::End,
                "int sell_stock(int qty)",
                PrimTarget::AnyInstance,
            )
            .unwrap();
        assert_eq!(Some(id), g.lookup("e1"));
        let err = g.declare_primitive(
            "e1",
            "STOCK",
            EventModifier::Begin,
            "int sell_stock(int qty)",
            PrimTarget::AnyInstance,
        );
        assert!(matches!(err, Err(GraphError::Redefinition(_))));
    }

    #[test]
    fn class_event_lists_are_maintained() {
        let g = graph_with_prims();
        assert_eq!(g.class_events("STOCK").len(), 2);
        assert!(g.class_events("BOND").is_empty());
    }

    #[test]
    fn common_subexpressions_are_shared() {
        let mut g = graph_with_prims();
        let expr1 = parse_event_expr("e1 ^ e2").unwrap();
        let expr2 = parse_event_expr("(e1 ^ e2) ; e1").unwrap();
        let a = g.build_expr(&expr1, false).unwrap();
        let before = g.len();
        let b = g.build_expr(&expr2, false).unwrap();
        assert_ne!(a, b);
        // Only the SEQ node is new; the AND node is reused.
        assert_eq!(g.len(), before + 1);
        assert!(g.node(a).parents.iter().any(|(p, _)| *p == b));
    }

    #[test]
    fn unknown_refs_error_or_autodeclare() {
        let mut g = EventGraph::new();
        let expr = parse_event_expr("mystery").unwrap();
        assert!(matches!(g.build_expr(&expr, false), Err(GraphError::UnknownEvent(_))));
        let id = g.build_expr(&expr, true).unwrap();
        assert_eq!(g.lookup("mystery"), Some(id));
    }

    #[test]
    fn subscription_counters_propagate_and_reset() {
        let mut g = graph_with_prims();
        let expr = parse_event_expr("e1 ^ e2").unwrap();
        let and = g.define_named("e4", &expr, false).unwrap();
        let e1 = g.lookup("e1").unwrap();

        g.subscribe(and, ParamContext::Chronicle, 7).unwrap();
        assert_eq!(g.node(and).ctx_count[ParamContext::Chronicle.index()], 1);
        assert_eq!(g.node(e1).ctx_count[ParamContext::Chronicle.index()], 1);
        assert_eq!(g.node(e1).ctx_count[ParamContext::Recent.index()], 0);

        g.subscribe(and, ParamContext::Chronicle, 8).unwrap();
        assert_eq!(g.node(e1).ctx_count[ParamContext::Chronicle.index()], 2);

        g.unsubscribe(and, ParamContext::Chronicle, 7).unwrap();
        g.unsubscribe(and, ParamContext::Chronicle, 8).unwrap();
        assert_eq!(g.node(and).ctx_count[ParamContext::Chronicle.index()], 0);
        assert_eq!(g.node(e1).ctx_count[ParamContext::Chronicle.index()], 0);
        assert!(matches!(
            g.unsubscribe(and, ParamContext::Chronicle, 7),
            Err(GraphError::NotSubscribed)
        ));
    }

    #[test]
    fn duplicated_child_counts_twice() {
        let mut g = graph_with_prims();
        let expr = parse_event_expr("e1 ^ e1").unwrap();
        let and = g.build_expr(&expr, false).unwrap();
        let e1 = g.lookup("e1").unwrap();
        g.subscribe(and, ParamContext::Recent, 1).unwrap();
        assert_eq!(g.node(e1).ctx_count[0], 2, "one increment per edge");
        g.unsubscribe(and, ParamContext::Recent, 1).unwrap();
        assert_eq!(g.node(e1).ctx_count[0], 0);
    }

    #[test]
    fn named_event_reuse_and_conflict() {
        let mut g = graph_with_prims();
        let expr = parse_event_expr("e1 | e2").unwrap();
        let id1 = g.define_named("x", &expr, false).unwrap();
        let id2 = g.define_named("x", &expr, false).unwrap();
        assert_eq!(id1, id2);
        let other = parse_event_expr("e1 ^ e2").unwrap();
        assert!(matches!(g.define_named("x", &other, false), Err(GraphError::Redefinition(_))));
    }

    #[test]
    fn temporal_nodes_listed_when_active() {
        let mut g = graph_with_prims();
        let expr = parse_event_expr("P(e1, 10, e2)").unwrap();
        let p = g.build_expr(&expr, false).unwrap();
        assert!(g.temporal_nodes().is_empty(), "inactive until subscribed");
        g.subscribe(p, ParamContext::Recent, 1).unwrap();
        assert_eq!(g.temporal_nodes(), vec![p]);
    }

    #[test]
    fn shards_are_connected_components() {
        let mut g = EventGraph::new();
        let a = g.declare_explicit("a");
        let b = g.declare_explicit("b");
        let c = g.declare_explicit("c");
        assert_ne!(g.shard_of(a), g.shard_of(b));
        assert_ne!(g.shard_of(b), g.shard_of(c));

        // Composing over a and b unions their components.
        let expr = parse_event_expr("a ; b").unwrap();
        let seq = g.build_expr(&expr, false).unwrap();
        assert_eq!(g.shard_of(a), g.shard_of(b));
        assert_eq!(g.shard_of(seq), g.shard_of(a));
        assert_ne!(g.shard_of(c), g.shard_of(a));
        let merges = g.take_merges();
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].0, g.shard_of(a));
        assert!(g.take_merges().is_empty(), "merges drain once");

        // A later bridge over both components merges again.
        let expr = parse_event_expr("b ^ c").unwrap();
        g.build_expr(&expr, false).unwrap();
        assert_eq!(g.shard_of(a), g.shard_of(c));
        assert_eq!(g.take_merges().len(), 1);
    }

    #[test]
    fn class_method_leaves_share_a_shard() {
        let g = graph_with_prims();
        let (e1, e2) = (g.lookup("e1").unwrap(), g.lookup("e2").unwrap());
        assert_eq!(g.shard_of(e1), g.shard_of(e2), "one notify feeds both leaves");
    }

    #[test]
    fn roles_are_stable() {
        let kind = NodeKind::Aperiodic { start: EventId(0), mid: EventId(1), end: EventId(2) };
        assert_eq!(kind.children(), vec![(EventId(0), 0), (EventId(1), 1), (EventId(2), 2)]);
        let kind = NodeKind::Periodic { start: EventId(0), period: 5, end: EventId(2) };
        assert_eq!(kind.children(), vec![(EventId(0), 0), (EventId(2), 2)]);
    }
}
