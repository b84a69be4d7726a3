//! Rule objects: the RULE class of the paper's generated code
//! (`RULE *R1 = new RULE("R1", STOCK_e4, cond1, action1, CUMULATIVE)`).

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use sentinel_detector::clock::Timestamp;
use sentinel_detector::{EventId, Occurrence};
use sentinel_snoop::{CouplingMode, ParamContext, TriggerMode};
use sentinel_txn::SubTxnId;

/// Rule identifier (doubles as the detector's `SubscriberId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// What a condition/action receives when its rule fires: the composite
/// occurrence (with the linked parameter list) plus execution context.
#[derive(Debug, Clone)]
pub struct RuleInvocation {
    /// The fired rule.
    pub rule: RuleId,
    /// Rule name (for tracing).
    pub rule_name: Arc<str>,
    /// The triggering occurrence.
    pub occurrence: Arc<Occurrence>,
    /// Nesting depth (0 = triggered from the application).
    pub depth: u32,
    /// Top-level transaction the rule runs inside, if any.
    pub txn: Option<u64>,
    /// The subtransaction this rule body runs as (Figure 3's
    /// `begin_subtransaction(current)`), when the scheduler packages it.
    pub subtxn: Option<SubTxnId>,
}

/// Condition function: side-effect free, returns whether the action runs.
pub type CondFn = Arc<dyn Fn(&RuleInvocation) -> bool + Send + Sync>;

/// Action function.
pub type ActionFn = Arc<dyn Fn(&RuleInvocation) + Send + Sync>;

/// A defined ECA rule.
pub struct Rule {
    /// Identifier.
    pub id: RuleId,
    /// Rule name (unique per manager).
    pub name: Arc<str>,
    /// The event the rule reacts to, as the *user* specified it.
    pub event: EventId,
    /// The event actually subscribed to (differs from `event` for deferred
    /// rules, which subscribe to the `A*` rewrite).
    pub subscribed_event: EventId,
    /// Parameter context.
    pub context: ParamContext,
    /// Coupling mode as specified by the user.
    pub coupling: CouplingMode,
    /// Priority class (higher runs first).
    pub priority: u32,
    /// Trigger mode.
    pub trigger: TriggerMode,
    /// Logical time of rule definition (the `NOW` cutoff).
    pub defined_at: Timestamp,
    /// Whether the rule is currently enabled.
    pub enabled: bool,
    /// Condition.
    pub condition: CondFn,
    /// Action.
    pub action: ActionFn,
    /// Firings of this rule's name: shared by every rule defined under it
    /// (see [`crate::manager::RuleManager::hit_counts`]).
    pub hits: Arc<AtomicU64>,
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("event", &self.event)
            .field("context", &self.context)
            .field("coupling", &self.coupling)
            .field("priority", &self.priority)
            .field("trigger", &self.trigger)
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Rule {
    /// Whether this occurrence satisfies the rule's trigger mode: a `NOW`
    /// rule only accepts occurrences whose constituents all happened after
    /// the rule was defined.
    pub fn accepts(&self, occ: &Occurrence) -> bool {
        match self.trigger {
            TriggerMode::Previous => true,
            TriggerMode::Now => occ.earliest() >= self.defined_at,
        }
    }
}

/// Errors from rule management.
#[derive(Debug)]
pub enum RuleError {
    /// Duplicate rule name.
    Duplicate(String),
    /// Unknown rule id.
    Unknown(RuleId),
    /// Unknown event name in a rule specification.
    UnknownEvent(String),
    /// Rule referenced an undefined named priority class.
    UnknownPriorityClass(String),
    /// Underlying event-graph error.
    Graph(sentinel_detector::graph::GraphError),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::Duplicate(n) => write!(f, "rule `{n}` already defined"),
            RuleError::Unknown(id) => write!(f, "unknown rule {id}"),
            RuleError::UnknownEvent(n) => write!(f, "unknown event `{n}` in rule"),
            RuleError::UnknownPriorityClass(n) => {
                write!(f, "unknown priority class `{n}`")
            }
            RuleError::Graph(e) => write!(f, "event graph error: {e}"),
        }
    }
}

impl std::error::Error for RuleError {}

impl From<sentinel_detector::graph::GraphError> for RuleError {
    fn from(e: sentinel_detector::graph::GraphError) -> Self {
        RuleError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_rule(trigger: TriggerMode, defined_at: Timestamp) -> Rule {
        Rule {
            id: RuleId(1),
            name: Arc::from("R1"),
            event: EventId(0),
            subscribed_event: EventId(0),
            context: ParamContext::Recent,
            coupling: CouplingMode::Immediate,
            priority: 0,
            trigger,
            defined_at,
            enabled: true,
            condition: Arc::new(|_| true),
            action: Arc::new(|_| {}),
            hits: Arc::default(),
        }
    }

    fn occ_at(at: Timestamp) -> Arc<Occurrence> {
        Occurrence::primitive(EventId(0), Arc::from("e"), at, None, 0, None, Vec::new())
    }

    #[test]
    fn now_rejects_pre_definition_constituents() {
        let r = mk_rule(TriggerMode::Now, 10);
        assert!(!r.accepts(&occ_at(5)));
        assert!(r.accepts(&occ_at(10)));
        assert!(r.accepts(&occ_at(15)));
    }

    #[test]
    fn previous_accepts_everything() {
        let r = mk_rule(TriggerMode::Previous, 10);
        assert!(r.accepts(&occ_at(5)));
    }

    #[test]
    fn debug_format_omits_closures() {
        let r = mk_rule(TriggerMode::Now, 0);
        let s = format!("{r:?}");
        assert!(s.contains("R1"));
        assert!(s.contains("Immediate"));
    }
}
