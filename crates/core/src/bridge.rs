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

use std::sync::Arc;

use sentinel_detector::{LocalEventDetector, Value};
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

/// Method-invocation → primitive-event bridge.
pub struct EventBridge {
    detector: Arc<LocalEventDetector>,
    scheduler: Arc<RuleScheduler>,
}

impl EventBridge {
    /// A bridge feeding `detector` and dispatching through `scheduler`.
    pub fn new(detector: Arc<LocalEventDetector>, scheduler: Arc<RuleScheduler>) -> Self {
        EventBridge { detector, scheduler }
    }

    fn notify(&self, call: &MethodCall, edge: EventModifier, params: &[(Arc<str>, Value)]) {
        // Class-level events declared on an ancestor fire for descendants:
        // notify once per class in the inheritance chain. Each class's
        // primitive-event list filters by signature/edge/instance.
        let mut detections = Vec::new();
        for class in call.chain.iter() {
            detections.extend(self.detector.notify_method(
                class,
                &call.sig,
                edge,
                call.oid.0,
                params.to_vec(),
                Some(call.txn.0),
            ));
        }
        // Immediate rules execute now; the invoking application waits.
        self.scheduler.dispatch(detections);
    }
}

impl InvocationHooks for EventBridge {
    fn around(
        &self,
        call: &MethodCall,
        body: &mut dyn FnMut() -> DbResult<AttrValue>,
    ) -> DbResult<AttrValue> {
        // Parameter collection (the wrapper's PARA_LIST): the method
        // arguments, converted once for both edges and every class.
        let params: Vec<(Arc<str>, Value)> =
            call.args.iter().map(|(n, v)| (Arc::from(n.as_str()), attr_to_value(v))).collect();
        self.notify(call, EventModifier::Begin, &params);
        let result = body()?;
        self.notify(call, EventModifier::End, &params);
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
