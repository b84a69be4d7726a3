//! # sentinel-core
//!
//! **Sentinel**: the integrated active object-oriented DBMS of
//! *"ECA Rule Integration into an OODBMS: Architecture and Implementation"*
//! (Chakravarthy, Krishnaprasad, Tamizuddin, Badani — ICDE 1995).
//!
//! This crate wires every substrate into the architecture of Figure 1:
//!
//! * the passive OODB (`sentinel-oodb`, the Open OODB analogue) gains
//!   **primitive event detection** through invocation hooks ([`bridge`]) —
//!   the same seam the Sentinel post-processor uses to insert `Notify(...)`
//!   calls into wrapper methods;
//! * the storage engine's transaction events (`begin`, `pre-commit`,
//!   `commit`, `abort`) are turned into system events, driving **deferred
//!   rule execution** and the **event-graph flush** at transaction
//!   boundaries (as deactivatable system rules, exactly as §3.2.2
//!   describes);
//! * the **pre-processor** ([`preprocessor`]) accepts the paper's §3.1
//!   surface syntax (reactive class definitions with event interfaces,
//!   named events, rules) and registers everything against a running
//!   system; [`codegen`] renders the §3.2-style generated-code listing;
//! * the **local composite event detector** and **rule scheduler** are
//!   driven from the hooks, giving immediate / deferred / detached coupling,
//!   priority scheduling and nested rule execution;
//! * the **global event detector** ([`global`]) consumes events forwarded
//!   from multiple applications and detects inter-application composite
//!   events (Figure 2), executing detached rules in their own top-level
//!   transactions.
//!
//! The entry point is [`sentinel::Sentinel`]; see `examples/quickstart.rs`
//! for the paper's STOCK walk-through.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bridge;
pub mod codegen;
pub mod durable;
pub mod global;
pub mod preprocessor;
pub mod replica;
pub mod sentinel;
pub mod telemetry;

pub use durable::{params_from_json, params_to_json, value_from_json, value_to_json, JournalSink};
pub use preprocessor::{FunctionTable, Preprocessor};
pub use sentinel::{Sentinel, SentinelConfig, SentinelError, SentinelStats, ServeHandle};

// Re-export the subsystem crates so applications depend on one crate.
pub use sentinel_detector as detector;
pub use sentinel_durable as durable_store;
pub use sentinel_obs as obs;
pub use sentinel_oodb as oodb;
pub use sentinel_rules as rules;
pub use sentinel_snoop as snoop;
pub use sentinel_storage as storage;
pub use sentinel_txn as txn;
