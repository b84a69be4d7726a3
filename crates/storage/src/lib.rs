//! # sentinel-storage
//!
//! Page-based persistent storage manager for the Sentinel active OODBMS —
//! the reproduction's stand-in for the **Exodus storage manager** that the
//! ICDE 1995 paper uses underneath the Open OODB Toolkit.
//!
//! The paper relies on Exodus for exactly two things: *concurrency control*
//! and *recovery* for **top-level transactions** (rule subtransactions get
//! their own nested transaction manager in `sentinel-txn`). This crate
//! provides both, built from scratch:
//!
//! * [`disk`] — a page-granular disk manager (file-backed or in-memory),
//! * [`page`] — 4 KiB slotted pages holding variable-length records,
//! * [`buffer`] — a pin-counted LRU buffer pool,
//! * [`heap`] — heap files addressed by record id ([`common::Rid`]),
//! * [`frame`] — the checksummed frame every log record is written in,
//! * [`wal`] — a checksummed write-ahead log,
//! * [`lock`] — a strict two-phase lock manager with deadlock detection,
//! * [`txn`] — the top-level transaction manager,
//! * [`recovery`] — ARIES-style analysis / redo / undo restart,
//! * [`engine`] — the [`engine::StorageEngine`] facade used by `sentinel-oodb`.
//!
//! Transactions expose the hook points Sentinel needs: `begin`, `pre-commit`
//! (signalled *before* the commit record is forced, which is what the deferred
//! coupling-mode rewrite keys on), `commit` and `abort`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod common;
pub mod disk;
pub mod engine;
pub mod frame;
pub mod heap;
pub mod iospan;
pub mod lock;
pub mod page;
pub mod recovery;
pub mod txn;
pub mod wal;

pub use common::{Lsn, PageId, Rid, StorageError, StorageResult, TxnId};
pub use engine::{StorageEngine, StorageStats};
pub use frame::crc32;
