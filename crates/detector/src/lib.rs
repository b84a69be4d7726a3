//! # sentinel-detector
//!
//! The **local composite event detector** of the Sentinel active OODBMS
//! (paper §2.3/§3.2): an event graph whose leaves are primitive events
//! (method invocations, transaction events, explicit events) and whose
//! internal nodes are Snoop operators, detecting composite events in the
//! four parameter contexts *simultaneously in a single graph* with
//! per-context reference counters.
//!
//! Key properties reproduced from the paper:
//!
//! * **Single graph, multiple contexts** — every node keeps a counter per
//!   context; a rule subscription propagates its context down the sub-graph,
//!   incrementing counters, and detection in a context starts when its
//!   counter leaves zero and stops when it returns to zero (§3.2 item 1).
//! * **Demand-driven propagation** — occurrences flow only to nodes with an
//!   active context ("does not propagate parameters to irrelevant nodes").
//! * **Shared sub-expressions** — the graph hash-conses operator nodes so
//!   common sub-expressions are represented once (§3.1).
//! * **Linked parameter lists** — a composite occurrence holds `Arc`
//!   references to its constituents; parameters are never copied, "only the
//!   pointers have to be adjusted" (§3.2 item 2).
//! * **Transaction hygiene** — [`detector::LocalEventDetector::flush_txn`]
//!   removes all buffered occurrences of a transaction so events never cross
//!   transaction boundaries (§3.2 item 3); it is wired to commit/abort by
//!   `sentinel-core`.
//! * **Online and batch detection** — an [`EventRecorder`] sink records a
//!   primitive event log that replays over a fresh graph ([`log`]).
//! * **Detector/application separation** — [`DetectorPool`] runs the
//!   detector on worker threads behind channels, the thread-based
//!   separation of Figure 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod detector;
pub mod graph;
pub mod log;
pub mod nodes;
pub mod occurrence;
pub mod service;
mod shard;
pub mod snapshot;
pub mod viz;

pub use clock::LogicalClock;
pub use detector::{
    Detection, DetectorStats, EventSink, FenceKind, LocalEventDetector, MethodRoute, NodeStats,
    Paused, ShardStats, SubscriberId,
};
pub use graph::{EventId, GraphError};
pub use log::EventRecorder;
pub use occurrence::{Occurrence, Value};
pub use service::{DetectorPool, DoneCallback, ServiceMetrics};
pub use snapshot::{GraphSnapshot, NodeSnapshot, RestoreError};
