//! Event-graph visualization: Graphviz DOT export.
//!
//! The Sentinel rule debugger (Tamizuddin, reference \[12\] of the paper)
//! visualizes "the interaction among rules, among events and rules, and
//! among rules and database objects". This module renders the *static*
//! half of that picture — the event graph with its operator nodes,
//! subscriber edges and per-context counters; `sentinel-rules`' debugger
//! renders the *dynamic* half (the firing trace).

use std::fmt::Write as _;

use crate::graph::{EventGraph, Node, NodeKind, PrimTarget};

/// Renders the event graph as Graphviz DOT.
///
/// * leaves (primitive events) are boxes — method events show
///   `class::signature` and the begin/end modifier, explicit events just
///   their name;
/// * operator nodes are ellipses labelled with the operator;
/// * child→parent edges are labelled with the child's role where it is not
///   obvious (`start`/`mid`/`end` for interval operators);
/// * nodes with at least one active context are bold, annotated with
///   `R/C/O/U` counters (recent/chronicle/continuous/cumulative) and the
///   number of rule subscribers, plus the `(emitted, consumed)` totals
///   `traffic` reports once the node has seen any occurrence.
pub fn to_dot(graph: &EventGraph, traffic: impl Fn(&Node) -> (u64, u64)) -> String {
    let mut out = String::from("digraph event_graph {\n  rankdir=BT;\n  node [fontsize=10];\n");
    for id in graph.node_ids() {
        let node = graph.node(id);
        let (shape, label) = match &node.kind {
            NodeKind::Primitive { class, modifier, sig, target } => {
                let mut label = node.name.to_string();
                if let (Some(c), Some(s)) = (class, sig) {
                    let _ = write!(label, "\\n{c}::{s} [{modifier}]");
                }
                if let PrimTarget::Instance(oid) = target {
                    let _ = write!(label, "\\noid#{oid} only");
                }
                ("box", label)
            }
            NodeKind::And(..) => ("ellipse", format!("AND\\n{}", node.name)),
            NodeKind::Or(..) => ("ellipse", format!("OR\\n{}", node.name)),
            NodeKind::Seq(..) => ("ellipse", format!("SEQ\\n{}", node.name)),
            NodeKind::Any { m, children } => {
                ("ellipse", format!("ANY {m}/{}\\n{}", children.len(), node.name))
            }
            NodeKind::Not { .. } => ("ellipse", format!("NOT\\n{}", node.name)),
            NodeKind::Aperiodic { .. } => ("ellipse", format!("A\\n{}", node.name)),
            NodeKind::AperiodicStar { .. } => ("ellipse", format!("A*\\n{}", node.name)),
            NodeKind::Periodic { period, .. } => {
                ("ellipse", format!("P t={period}\\n{}", node.name))
            }
            NodeKind::PeriodicStar { period, .. } => {
                ("ellipse", format!("P* t={period}\\n{}", node.name))
            }
            NodeKind::Plus { delta, .. } => ("ellipse", format!("PLUS +{delta}\\n{}", node.name)),
        };
        let mut attrs = format!("shape={shape}, label=\"{label}");
        if node.any_active() {
            let c = &node.ctx_count;
            let subs: usize = node.rule_subs.iter().map(Vec::len).sum();
            let _ = write!(attrs, "\\nctx R{}/C{}/O{}/U{} rules={subs}", c[0], c[1], c[2], c[3]);
            let (emitted, consumed) = traffic(node);
            if emitted + consumed > 0 {
                let _ = write!(attrs, "\\nemit={emitted} cons={consumed}");
            }
            attrs.push_str("\", style=bold");
        } else {
            attrs.push('"');
        }
        let _ = writeln!(out, "  n{} [{}];", id.0, attrs);
    }
    // Edges: child -> parent with role labels for interval operators.
    for id in graph.node_ids() {
        let node = graph.node(id);
        for (child, role) in node.kind.children() {
            let label = match (&node.kind, role) {
                (
                    NodeKind::Not { .. }
                    | NodeKind::Aperiodic { .. }
                    | NodeKind::AperiodicStar { .. },
                    0,
                ) => "start",
                (NodeKind::Not { .. }, 1) => "not",
                (NodeKind::Aperiodic { .. } | NodeKind::AperiodicStar { .. }, 1) => "mid",
                (
                    NodeKind::Not { .. }
                    | NodeKind::Aperiodic { .. }
                    | NodeKind::AperiodicStar { .. }
                    | NodeKind::Periodic { .. }
                    | NodeKind::PeriodicStar { .. },
                    2,
                ) => "end",
                (NodeKind::Periodic { .. } | NodeKind::PeriodicStar { .. }, 0) => "start",
                (NodeKind::Seq(..), 0) => "1st",
                (NodeKind::Seq(..), 1) => "2nd",
                _ => "",
            };
            if label.is_empty() {
                let _ = writeln!(out, "  n{} -> n{};", child.0, id.0);
            } else {
                let _ =
                    writeln!(out, "  n{} -> n{} [label=\"{label}\", fontsize=8];", child.0, id.0);
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_snoop::ast::EventModifier;
    use sentinel_snoop::{parse_event_expr, ParamContext};

    fn sample_graph() -> EventGraph {
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
        g.declare_primitive(
            "ibm_only",
            "STOCK",
            EventModifier::End,
            "int sell_stock(int qty)",
            PrimTarget::Instance(7),
        )
        .unwrap();
        let and = g.define_named("e4", &parse_event_expr("e1 ^ e2").unwrap(), false).unwrap();
        g.define_named("win", &parse_event_expr("A*(e2, e1, e2)").unwrap(), false).unwrap();
        g.subscribe(and, ParamContext::Cumulative, 42).unwrap();
        g
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = sample_graph();
        let dot = to_dot(&g, |n| if &*n.name == "e4" { (3, 5) } else { (0, 0) });
        assert!(dot.starts_with("digraph event_graph {"));
        assert!(dot.contains("STOCK::int sell_stock(int qty) [end]"));
        assert!(dot.contains("AND"));
        assert!(dot.contains("A*"));
        assert!(dot.contains("oid#7 only"));
        // Active AND node shows counters and bold style.
        assert!(dot.contains("ctx R0/C0/O0/U1 rules=1\\nemit=3 cons=5"));
        assert!(dot.contains("style=bold"));
        // Interval roles labelled.
        assert!(dot.contains("label=\"start\""));
        assert!(dot.contains("label=\"mid\""));
        assert!(dot.contains("label=\"end\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_edge_count_matches_graph() {
        let g = sample_graph();
        let dot = to_dot(&g, |_| (0, 0));
        let expected_edges: usize = g.node_ids().map(|id| g.node(id).kind.children().len()).sum();
        let arrow_count = dot.matches(" -> ").count();
        assert_eq!(arrow_count, expected_edges);
    }

    #[test]
    fn empty_graph_renders() {
        let dot = to_dot(&EventGraph::new(), |_| (0, 0));
        assert!(dot.contains("digraph"));
    }
}
