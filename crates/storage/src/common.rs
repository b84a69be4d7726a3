//! Identifiers, errors and the logical clock shared by the whole system.
//!
//! Sentinel's event semantics (Snoop intervals, `SEQ` ordering, periodic
//! events) depend only on a *total order* of occurrences, never on wall-clock
//! durations. We therefore use a process-wide monotonic [`LogicalClock`];
//! this makes online and batch (event-log) detection bit-for-bit reproducible.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A page number inside a database file. Pages are [`crate::page::PAGE_SIZE`]
/// bytes and are the unit of buffering and disk I/O.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel value used for "no page" in free-list chains.
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Returns true if this is the invalid sentinel.
    #[inline]
    pub fn is_invalid(self) -> bool {
        self == Self::INVALID
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A record id: physical address of a record as `(page, slot)`.
///
/// This is what the OODB layer stores in its OID → location index (the
/// "object translation" module of the Open OODB architecture in Figure 1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Rid {
    /// Page the record lives on.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Creates a record id.
    #[inline]
    pub fn new(page: PageId, slot: u16) -> Self {
        Rid { page, slot }
    }

    /// Packs the rid into a single `u64` (used as a lock-resource key).
    #[inline]
    pub fn as_u64(self) -> u64 {
        (u64::from(self.page.0) << 16) | u64::from(self.slot)
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// A top-level transaction identifier, allocated monotonically.
///
/// Rule subtransactions in `sentinel-txn` carry their own nested ids; this id
/// identifies the Exodus-level (client) transaction, and is the id that event
/// occurrences are stamped with so the detector can flush per-transaction
/// state at commit/abort (paper §3.2.2, "events crossing transaction
/// boundaries").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Log sequence number: byte offset of a record in the write-ahead log.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// LSN meaning "no log record" (e.g. `prev_lsn` of a BEGIN record).
    pub const NULL: Lsn = Lsn(u64::MAX);

    /// Returns true for the null sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "LSN(-)")
        } else {
            write!(f, "LSN({})", self.0)
        }
    }
}

/// A monotone logical timestamp (one tick per event occurrence).
pub type Timestamp = u64;

/// Process-wide monotonic logical clock.
///
/// Every primitive event occurrence draws a fresh tick; composite occurrences
/// inherit the tick of their terminating constituent (Snoop's "occurrence
/// time = time of the detecting event").
#[derive(Debug, Default)]
pub struct LogicalClock {
    now: AtomicU64,
}

impl LogicalClock {
    /// A clock starting at tick 0.
    pub const fn new() -> Self {
        LogicalClock { now: AtomicU64::new(0) }
    }

    /// Draws the next tick (strictly increasing across threads).
    #[inline]
    pub fn tick(&self) -> Timestamp {
        self.now.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Reads the current tick without advancing.
    #[inline]
    pub fn peek(&self) -> Timestamp {
        self.now.load(Ordering::Relaxed)
    }

    /// Advances the clock to at least `to` (used when replaying event logs
    /// in batch mode so new online events sort after replayed ones).
    pub fn advance_to(&self, to: Timestamp) {
        self.now.fetch_max(to, Ordering::Relaxed);
    }
}

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// A page id was out of range for the file.
    PageOutOfBounds(PageId),
    /// The buffer pool is full of pinned pages.
    BufferPoolFull,
    /// A record did not fit in a page.
    RecordTooLarge {
        /// Requested record size.
        len: usize,
        /// Largest size a page can hold.
        max: usize,
    },
    /// A rid referenced a missing or deleted record.
    RecordNotFound(Rid),
    /// Lock acquisition was chosen as a deadlock victim.
    Deadlock(TxnId),
    /// Lock wait exceeded its timeout.
    LockTimeout(TxnId),
    /// Operation on a transaction in the wrong state (e.g. already committed).
    InvalidTxnState(TxnId, &'static str),
    /// The WAL contained a torn or corrupt record (checksum mismatch).
    CorruptLog {
        /// Offset of the bad record.
        at: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Catalog/metadata inconsistency.
    Corrupt(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::PageOutOfBounds(p) => write!(f, "page {p} out of bounds"),
            StorageError::BufferPoolFull => write!(f, "buffer pool full (all frames pinned)"),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::RecordNotFound(rid) => write!(f, "record {rid} not found"),
            StorageError::Deadlock(t) => write!(f, "{t} chosen as deadlock victim"),
            StorageError::LockTimeout(t) => write!(f, "{t} timed out waiting for a lock"),
            StorageError::InvalidTxnState(t, s) => write!(f, "{t} in invalid state: {s}"),
            StorageError::CorruptLog { at, reason } => {
                write!(f, "corrupt log record at offset {at}: {reason}")
            }
            StorageError::Corrupt(s) => write!(f, "corrupt storage metadata: {s}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_strictly_monotonic() {
        let c = LogicalClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.peek(), b);
    }

    #[test]
    fn clock_advance_to_never_goes_backwards() {
        let c = LogicalClock::new();
        c.advance_to(100);
        assert_eq!(c.peek(), 100);
        c.advance_to(50);
        assert_eq!(c.peek(), 100);
        assert_eq!(c.tick(), 101);
    }

    #[test]
    fn rid_round_trips_through_u64() {
        let rid = Rid::new(PageId(77), 13);
        let packed = rid.as_u64();
        assert_eq!(packed, (77u64 << 16) | 13);
    }

    #[test]
    fn error_display_is_informative() {
        let e = StorageError::RecordNotFound(Rid::new(PageId(1), 2));
        assert!(e.to_string().contains("P1:2"));
        let e = StorageError::Deadlock(TxnId(9));
        assert!(e.to_string().contains("T9"));
    }
}
