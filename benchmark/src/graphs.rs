//! The two event graphs the workloads run on, each defined once and
//! installed three ways: over the wire, on an in-process `Sentinel`, and
//! on a bare `LocalEventDetector` (subscriptions but no rule bodies).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sentinel_core::detector::{LocalEventDetector, Value};
use sentinel_core::obs::json;
use sentinel_core::rules::manager::RuleOptions;
use sentinel_core::snoop::{parse_event_expr, ParamContext};
use sentinel_core::Sentinel;
use sentinel_net::{ClientError, RuleSpec, SentinelClient};

use crate::params::{DETECT_COMPONENTS, DETECT_LEAVES_PER_COMPONENT};

// --- the wire graph (NET-1) ----------------------------------------------
//
// `pair = seq_a ; seq_b` in chronicle context; rule `pair_watch` raises
// `cascade` on every pair and rule `cascade_count` counts the cascades.
// Each connection alternates `seq_a`, `seq_b`, so in every interleaving a
// `seq_b` closes exactly one pair and fires exactly two immediate rules.

pub const WIRE_EXPLICIT: [&str; 3] = ["seq_a", "seq_b", "cascade"];
pub const WIRE_PAIR_EXPR: &str = "seq_a ; seq_b";
/// Immediate rules fired per completed pair.
pub const WIRE_FIRINGS_PER_PAIR: u64 = 2;

/// Defines the wire graph through a client connection.
pub fn define_wire_remote(admin: &SentinelClient) -> Result<(), ClientError> {
    for name in WIRE_EXPLICIT {
        admin.define_event(name, None)?;
    }
    admin.define_event("pair", Some(WIRE_PAIR_EXPR))?;
    admin.define_rule(&RuleSpec::raise("pair_watch", "pair", "cascade").context("chronicle"))?;
    admin.define_rule(&RuleSpec::count("cascade_count", "cascade"))?;
    Ok(())
}

/// Defines the wire graph on an in-process Sentinel with the same catalog
/// rule actions a server builds from the wire specs.
pub fn define_wire_local(s: &Sentinel) {
    for name in WIRE_EXPLICIT {
        s.declare_explicit(name).expect("declare wire event");
    }
    s.define_event("pair", WIRE_PAIR_EXPR).expect("define pair");
    let raise = json::Value::obj([
        ("name", json::Value::str("pair_watch")),
        ("event", json::Value::str("pair")),
        ("context", json::Value::str("chronicle")),
        (
            "action",
            json::Value::obj([
                ("action", json::Value::str("raise")),
                ("event", json::Value::str("cascade")),
            ]),
        ),
    ]);
    let count = json::Value::obj([
        ("name", json::Value::str("cascade_count")),
        ("event", json::Value::str("cascade")),
        ("action", json::Value::obj([("action", json::Value::str("count"))])),
    ]);
    s.define_rule_spec(&raise).expect("pair_watch");
    s.define_rule_spec(&count).expect("cascade_count");
}

/// The wire graph on a bare detector: the two rules' subscriptions
/// without their bodies.
pub fn define_wire_bare(det: &LocalEventDetector) {
    for name in WIRE_EXPLICIT {
        det.declare_explicit(name);
    }
    let pair = det.define_named("pair", &parse_event_expr(WIRE_PAIR_EXPR).unwrap()).unwrap();
    det.subscribe(pair, ParamContext::Chronicle, 1).unwrap();
    let cascade = det.lookup("cascade").expect("declared above");
    det.subscribe(cascade, ParamContext::Recent, 2).unwrap();
}

/// The single parameter a wire signal carries.
pub fn wire_params(v: i64) -> Vec<(Arc<str>, Value)> {
    thread_local! {
        static NAME: Arc<str> = Arc::from("v");
    }
    vec![(NAME.with(Arc::clone), Value::Int(v))]
}

// --- the detect graph ------------------------------------------------------
//
// Eight disjoint components of eight leaves; each component holds the ten
// Snoop operators as roots, nested up to depth 3 over shared
// sub-expressions (`a ^ b`, `c | d`, `a ; b`, `e ^ f` each occur in
// several roots and are hash-consed into one node). A ninth component
// holds the two canary composites whose detection counts have a closed
// form.

pub const DETECT_LEAVES: usize = DETECT_COMPONENTS * DETECT_LEAVES_PER_COMPONENT;
pub const DETECT_PARAM_NAMES: [&str; 4] = ["price", "qty", "flag", "acct"];
pub const CANARY_ROOTS: [(&str, &str); 2] =
    [("canary_seq", "canary_a ; canary_b"), ("canary_and", "canary_a ^ canary_b")];

/// Name of leaf `rank` (Zipf rank): ranks are dealt round-robin over the
/// components, so every component gets hot and cold leaves.
pub fn leaf_name(rank: usize) -> String {
    format!("c{}_{}", rank % DETECT_COMPONENTS, (b'a' + (rank / DETECT_COMPONENTS) as u8) as char)
}

/// Event names in block-index order: the 64 leaves, then the canaries.
pub fn detect_event_names() -> Vec<String> {
    let mut names: Vec<String> = (0..DETECT_LEAVES).map(leaf_name).collect();
    names.push("canary_a".to_string());
    names.push("canary_b".to_string());
    names
}

/// `(root name, Snoop expression)` for every component's ten roots.
pub fn detect_roots() -> Vec<(String, String)> {
    let mut roots = Vec::new();
    for c in 0..DETECT_COMPONENTS {
        let l = |j: u8| format!("c{c}_{}", (b'a' + j) as char);
        let (a, b, cc, d, e, f, g, h) = (l(0), l(1), l(2), l(3), l(4), l(5), l(6), l(7));
        let ab = format!("({a} ^ {b})");
        let cd = format!("({cc} | {d})");
        let seq_ab = format!("({a} ; {b})");
        let ef = format!("({e} ^ {f})");
        let exprs = [
            ("and", format!("{ab} ^ {cd}")),
            ("or", format!("{seq_ab} | {ef}")),
            ("seq", format!("({ab} ; {cd}) ; {e}")),
            ("not", format!("NOT({g})[{ab}, {cd}]")),
            ("any", format!("ANY(2, {seq_ab}, {cc}, {ef})")),
            ("a", format!("A({ab}, {e}, {h})")),
            ("astar", format!("A*({a}, {cd}, {h})")),
            ("p", format!("P({g}, 16, {h})")),
            ("pstar", format!("P*({g}, 16, {ef})")),
            ("plus", format!("PLUS({seq_ab}, 8)")),
        ];
        roots.extend(exprs.into_iter().map(|(op, expr)| (format!("c{c}_op_{op}"), expr)));
    }
    roots
}

/// Detections counted per parameter context (`ParamContext::ALL` order),
/// graph roots and canaries apart.
#[derive(Default)]
pub struct DetectCounters {
    pub roots: [AtomicU64; 4],
    pub canaries: [AtomicU64; 4],
}

impl DetectCounters {
    pub fn roots(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.roots[i].load(Ordering::Relaxed))
    }
    pub fn canaries(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.canaries[i].load(Ordering::Relaxed))
    }
}

/// Installs the detect graph on a Sentinel: every root (and canary) is
/// subscribed in all four contexts by a rule that only counts.
pub fn define_detect_local(s: &Sentinel) -> Arc<DetectCounters> {
    let counters = Arc::new(DetectCounters::default());
    for name in detect_event_names() {
        s.declare_explicit(&name).expect("declare leaf");
    }
    let canaries = CANARY_ROOTS.iter().map(|(n, e)| (n.to_string(), e.to_string(), true));
    let roots = detect_roots().into_iter().map(|(n, e)| (n, e, false));
    for (name, expr, canary) in roots.chain(canaries) {
        s.define_event(&name, &expr).expect("define root");
        for (i, &ctx) in ParamContext::ALL.iter().enumerate() {
            let c = counters.clone();
            s.define_rule(
                &format!("{name}_{i}"),
                &name,
                Arc::new(|_| true),
                Arc::new(move |_| {
                    let slot = if canary { &c.canaries[i] } else { &c.roots[i] };
                    slot.fetch_add(1, Ordering::Relaxed);
                }),
                RuleOptions::default().context(ctx),
            )
            .expect("count rule");
        }
    }
    counters
}

/// Which contexts a bare detect detector subscribes its roots in.
#[derive(Clone, Copy, PartialEq)]
pub enum Subscribe {
    Nothing,
    All,
    Only(ParamContext),
}

/// Installs the detect graph on a bare detector. Subscriber ids encode
/// `canary` in bit 0 so replayed detections can be told apart.
pub fn define_detect_bare(det: &LocalEventDetector, sub: Subscribe) {
    for name in detect_event_names() {
        det.declare_explicit(&name);
    }
    let canaries = CANARY_ROOTS.iter().map(|(n, e)| (n.to_string(), e.to_string(), 1u64));
    let roots = detect_roots().into_iter().map(|(n, e)| (n, e, 0u64));
    for (k, (name, expr, canary)) in roots.chain(canaries).enumerate() {
        let id = det.define_named(&name, &parse_event_expr(&expr).unwrap()).unwrap();
        for (i, &ctx) in ParamContext::ALL.iter().enumerate() {
            let wanted = match sub {
                Subscribe::Nothing => false,
                Subscribe::All => true,
                Subscribe::Only(only) => only == ctx,
            };
            if wanted {
                det.subscribe(id, ctx, ((k * 4 + i) as u64) << 1 | canary).unwrap();
            }
        }
    }
}

/// Index of `ctx` in `ParamContext::ALL`.
pub fn ctx_index(ctx: ParamContext) -> usize {
    ParamContext::ALL.iter().position(|&c| c == ctx).expect("ALL lists every context")
}
