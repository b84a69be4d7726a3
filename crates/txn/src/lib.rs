//! # sentinel-txn
//!
//! Nested transaction manager for rule execution — the substrate of the
//! paper's §2.3/§3.2.3 rule execution model (designed in R. Badani's
//! thesis, reference \[2\] of the paper):
//!
//! > "For rule execution, a nested transaction manager is implemented with
//! > its own lock manager. This is in addition to the concurrency control
//! > and recovery provided by the Exodus for top-level transactions. Each
//! > rule (i.e., condition and action portions of a rule) is packaged into
//! > a subtransaction. … Light weight processes are used both for
//! > prioritized and concurrent rule execution."
//!
//! Three pieces:
//!
//! * [`nested`] — Moss-style subtransaction trees: each top-level
//!   transaction anchors a tree; subtransactions commit *into their parent*
//!   or abort (releasing their effects), with lock inheritance on commit.
//! * [`locks`] — the nested lock manager: a lock conflicts only with locks
//!   held by non-ancestors; on subtransaction commit its locks are
//!   inherited by the parent.
//! * [`pool`] — the priority thread pool ("a free thread id from a pool of
//!   free threads", Figure 3): fixed workers, highest-priority-first
//!   dispatch, and a quiesce barrier so the triggering transaction can
//!   suspend until all rule threads finish.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod locks;
pub mod nested;
pub mod pool;

pub use locks::{LockMode, NestedLockManager};
pub use nested::{NestedError, NestedTxnManager, SubTxnId, SubTxnState};
pub use pool::PriorityPool;
