//! The event bridges: where the passive DBMS becomes active.
//!
//! [`EventBridge`] implements the OODB's invocation hooks — it is the
//! runtime equivalent of the code the Sentinel post-processor inserts into
//! wrapper methods: collect the parameter list once, `Notify` the local
//! composite event detector (begin edge before the body, end edge after),
//! and hand the resulting detections to the rule scheduler, suspending the
//! caller until immediate rules finish (§3.2.1, Figure 2 steps 1–2, 6).
//!
//! [`TxnBridge`] observes the storage engine's transaction lifecycle and
//! signals the `begin-transaction` / `pre-commit-transaction` /
//! `commit-transaction` / `abort-transaction` system events (§3.2's
//! reactive system class), then finishes the rule-subtransaction tree.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use sentinel_detector::{LocalEventDetector, MethodRoute, Value};
use sentinel_oodb::invoke::{DbResult, InvocationHooks, MethodCall};
use sentinel_oodb::AttrValue;
use sentinel_rules::RuleScheduler;
use sentinel_snoop::ast::EventModifier;
use sentinel_storage::txn::{TxnEvent, TxnObserver};
use sentinel_storage::TxnId;

/// Converts an OODB attribute value into a detector parameter value.
pub fn attr_to_value(v: &AttrValue) -> Value {
    match v {
        AttrValue::Int(i) => Value::Int(*i),
        AttrValue::Float(f) => Value::Float(*f),
        AttrValue::Bool(b) => Value::Bool(*b),
        AttrValue::Str(s) => Value::str(s),
        AttrValue::Ref(o) => Value::Oid(o.0),
        AttrValue::Null => Value::Null,
    }
}

/// Converts a detector parameter value back into an OODB attribute value.
pub fn value_to_attr(v: &Value) -> AttrValue {
    match v {
        Value::Int(i) => AttrValue::Int(*i),
        Value::Float(f) => AttrValue::Float(*f),
        Value::Bool(b) => AttrValue::Bool(*b),
        Value::Str(s) => AttrValue::Str(s.to_string()),
        Value::Oid(o) => AttrValue::Ref(sentinel_oodb::Oid(*o)),
        Value::Null => AttrValue::Null,
    }
}

/// A wrapper's cached route. Holding the wrapper's interned class and
/// signature keeps their addresses, the cache key, from being reused.
struct CachedRoute {
    class: Arc<str>,
    _sig: Arc<str>,
    route: Arc<MethodRoute>,
}

/// Method-invocation → primitive-event bridge.
pub struct EventBridge {
    detector: Arc<LocalEventDetector>,
    scheduler: Arc<RuleScheduler>,
    /// One route per wrapper, keyed by the addresses of the `MethodCall`'s
    /// interned `class` and `sig`.
    routes: RwLock<HashMap<(usize, usize), CachedRoute>>,
}

impl EventBridge {
    /// A bridge feeding `detector` and dispatching through `scheduler`.
    pub fn new(detector: Arc<LocalEventDetector>, scheduler: Arc<RuleScheduler>) -> Self {
        EventBridge { detector, scheduler, routes: RwLock::new(HashMap::new()) }
    }

    /// The wrapper's route: cached, or resolved and cached when missing or
    /// older than the detector's DDL generation.
    fn route(&self, call: &MethodCall) -> Arc<MethodRoute> {
        let key = (call.class.as_ptr() as usize, call.sig.as_ptr() as usize);
        if let Some(cached) = self.routes.read().get(&key) {
            if cached.route.generation == self.detector.route_generation() {
                return cached.route.clone();
            }
        }
        let route = Arc::new(self.detector.method_route(&call.chain, &call.sig));
        let mut routes = self.routes.write();
        // Entries whose wrapper the database dropped can never be hit.
        routes.retain(|_, c| Arc::strong_count(&c.class) > 1);
        let cached =
            CachedRoute { class: call.class.clone(), _sig: call.sig.clone(), route: route.clone() };
        routes.insert(key, cached);
        route
    }

    /// One wrapper edge: `Notify` each class the route names for it — none
    /// is no detector work at all — then run the immediate rules while the
    /// invoking application waits. `params` is converted on first use.
    fn notify(
        &self,
        call: &MethodCall,
        edge: EventModifier,
        route: &mut Arc<MethodRoute>,
        params: &mut Option<Vec<(Arc<str>, Value)>>,
    ) {
        if route.generation != self.detector.route_generation() {
            *route = self.route(call);
        }
        let classes = route.classes(edge);
        if classes.is_empty() {
            return;
        }
        // Parameter collection (the wrapper's PARA_LIST): the method
        // arguments, converted once for both edges and every class.
        let params = params.get_or_insert_with(|| {
            call.args.iter().map(|(n, v)| (Arc::from(n.as_str()), attr_to_value(v))).collect()
        });
        let mut detections = Vec::new();
        for class in classes {
            detections.extend(self.detector.notify_method(
                class,
                &call.sig,
                edge,
                call.oid.0,
                &params[..],
                Some(call.txn.0),
            ));
        }
        self.scheduler.dispatch(detections);
    }
}

impl InvocationHooks for EventBridge {
    fn around(
        &self,
        call: &MethodCall,
        body: &mut dyn FnMut() -> DbResult<AttrValue>,
    ) -> DbResult<AttrValue> {
        let mut route = self.route(call);
        let mut params = None;
        self.notify(call, EventModifier::Begin, &mut route, &mut params);
        let result = body()?;
        self.notify(call, EventModifier::End, &mut route, &mut params);
        Ok(result)
    }
}

/// Transaction-event bridge.
pub struct TxnBridge {
    detector: Arc<LocalEventDetector>,
    scheduler: Arc<RuleScheduler>,
}

impl TxnBridge {
    /// A bridge feeding `detector` and dispatching through `scheduler`.
    pub fn new(detector: Arc<LocalEventDetector>, scheduler: Arc<RuleScheduler>) -> Self {
        TxnBridge { detector, scheduler }
    }
}

impl TxnObserver for TxnBridge {
    fn on_txn_event(&self, txn: TxnId, event: TxnEvent) {
        let detections = self.detector.signal_explicit(event.event_name(), Vec::new(), Some(txn.0));
        self.scheduler.dispatch(detections);
        match event {
            TxnEvent::Commit => self.scheduler.on_txn_end(txn.0, true),
            TxnEvent::Abort => self.scheduler.on_txn_end(txn.0, false),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversion_roundtrip() {
        let values = [
            AttrValue::Int(3),
            AttrValue::Float(1.5),
            AttrValue::Bool(true),
            AttrValue::Str("x".into()),
            AttrValue::Ref(sentinel_oodb::Oid(9)),
            AttrValue::Null,
        ];
        for v in values {
            assert_eq!(value_to_attr(&attr_to_value(&v)), v);
        }
    }
}
