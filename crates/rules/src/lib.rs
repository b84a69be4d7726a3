//! # sentinel-rules
//!
//! ECA rule management, scheduling and execution for the Sentinel active
//! OODBMS — the paper's §2.2/§3.2.3 rule model:
//!
//! * **Rule objects** ([`rule`]) with event subscription, parameter context,
//!   coupling mode (immediate / deferred / detached), priority class and
//!   trigger mode (`NOW` / `PREVIOUS`).
//! * **Rule manager** ([`manager`]): definition, run-time enable / disable /
//!   delete, and the deferred→immediate rewrite via
//!   `A*(begin-transaction, E, pre-commit-transaction)`.
//! * **Rule scheduler** ([`scheduler`]): rules packaged as nested
//!   subtransactions executed on a priority thread pool (Figure 3) —
//!   prioritized serial execution *across* priority classes, concurrent
//!   execution *within* a class, depth-first nested triggering with derived
//!   priorities, and suppression of event signalling during condition
//!   evaluation (conditions are side-effect free).
//! * **Rule debugger** ([`debugger`]): traces and visualizes the
//!   interaction among events and rules (reference \[12\] of the paper).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod debugger;
pub mod manager;
pub mod rule;
pub mod scheduler;

pub use debugger::{RuleDebugger, TraceEvent};
pub use manager::RuleManager;
pub use rule::{ActionFn, CondFn, Rule, RuleError, RuleId, RuleInvocation};
pub use scheduler::{ExecutionMode, RuleScheduler, SavepointHooks, SchedulerStats};
