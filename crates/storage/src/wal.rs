//! Write-ahead log.
//!
//! Record-granularity ("physiological") logging: each heap mutation is
//! logged with enough information to redo it (after image) and undo it
//! (before image). Records are framed as
//!
//! ```text
//! [len: u32][crc32: u32][payload: len bytes]
//! ```
//!
//! so the recovery scan can detect a torn tail — a record whose checksum
//! does not match is treated as the end of the log, exactly like ARIES.
//!
//! Payload encoding is a small hand-rolled binary format (tag byte + fields)
//! rather than serde, so the on-disk format is stable and inspectable.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};
use parking_lot::Mutex;
use sentinel_obs::span::TraceStore;
use sentinel_obs::{Counter, Field};

use crate::common::{Lsn, PageId, Rid, StorageError, StorageResult, TxnId};
use crate::frame::{frames, put_frame, HEADER};
use crate::iospan::IoTracer;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// Starting transaction.
        txn: TxnId,
    },
    /// Transaction committed (forced before commit returns).
    Commit {
        /// Committing transaction.
        txn: TxnId,
    },
    /// Transaction rolled back (all its updates were undone).
    Abort {
        /// Aborting transaction.
        txn: TxnId,
    },
    /// A record was inserted at `rid`.
    Insert {
        /// Mutating transaction.
        txn: TxnId,
        /// Location of the new record.
        rid: Rid,
        /// After image.
        data: Bytes,
    },
    /// The record at `rid` was rewritten.
    Update {
        /// Mutating transaction.
        txn: TxnId,
        /// Location of the record.
        rid: Rid,
        /// Before image (for undo).
        before: Bytes,
        /// After image (for redo).
        after: Bytes,
    },
    /// The record at `rid` was deleted.
    Delete {
        /// Mutating transaction.
        txn: TxnId,
        /// Location of the removed record.
        rid: Rid,
        /// Before image (for undo).
        data: Bytes,
    },
    /// Fuzzy checkpoint: the set of transactions active when it was taken.
    Checkpoint {
        /// Transactions live at checkpoint time.
        active: Vec<TxnId>,
    },
    /// Compensation record written while undoing `txn` (keeps undo idempotent
    /// across repeated crashes).
    Clr {
        /// Transaction being rolled back.
        txn: TxnId,
        /// The rid whose change was compensated.
        rid: Rid,
        /// LSN of the next record of this txn that still needs undo.
        undo_next: Lsn,
    },
}

const TAG_INSERT: u8 = 4;
const TAG_UPDATE: u8 = 5;
const TAG_DELETE: u8 = 6;

fn put_rid(out: &mut Vec<u8>, rid: Rid) {
    out.put_u32_le(rid.page.0);
    out.put_u16_le(rid.slot);
}

/// Payload of the three records that carry record images: tag, txn, rid,
/// then each image length-prefixed.
fn put_images(out: &mut Vec<u8>, tag: u8, txn: TxnId, rid: Rid, images: &[&[u8]]) {
    out.put_u8(tag);
    out.put_u64_le(txn.0);
    put_rid(out, rid);
    for image in images {
        out.put_u32_le(image.len() as u32);
        out.put_slice(image);
    }
}

impl LogRecord {
    /// Transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Clr { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => {
                out.put_u8(1);
                out.put_u64_le(txn.0);
            }
            LogRecord::Commit { txn } => {
                out.put_u8(2);
                out.put_u64_le(txn.0);
            }
            LogRecord::Abort { txn } => {
                out.put_u8(3);
                out.put_u64_le(txn.0);
            }
            LogRecord::Insert { txn, rid, data } => {
                put_images(out, TAG_INSERT, *txn, *rid, &[data])
            }
            LogRecord::Update { txn, rid, before, after } => {
                put_images(out, TAG_UPDATE, *txn, *rid, &[before, after]);
            }
            LogRecord::Delete { txn, rid, data } => {
                put_images(out, TAG_DELETE, *txn, *rid, &[data])
            }
            LogRecord::Checkpoint { active } => {
                out.put_u8(7);
                out.put_u32_le(active.len() as u32);
                for t in active {
                    out.put_u64_le(t.0);
                }
            }
            LogRecord::Clr { txn, rid, undo_next } => {
                out.put_u8(8);
                out.put_u64_le(txn.0);
                put_rid(out, *rid);
                out.put_u64_le(undo_next.0);
            }
        }
    }

    fn decode(mut buf: Bytes, at: u64) -> StorageResult<Self> {
        fn need(buf: &Bytes, n: usize, at: u64) -> StorageResult<()> {
            if buf.remaining() < n {
                Err(StorageError::CorruptLog { at, reason: "truncated payload" })
            } else {
                Ok(())
            }
        }
        fn get_bytes(buf: &mut Bytes, at: u64) -> StorageResult<Bytes> {
            need(buf, 4, at)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len, at)?;
            Ok(buf.split_to(len))
        }
        fn get_rid(buf: &mut Bytes, at: u64) -> StorageResult<Rid> {
            need(buf, 6, at)?;
            let page = PageId(buf.get_u32_le());
            let slot = buf.get_u16_le();
            Ok(Rid::new(page, slot))
        }
        need(&buf, 1, at)?;
        let tag = buf.get_u8();
        let rec = match tag {
            1..=3 => {
                need(&buf, 8, at)?;
                let txn = TxnId(buf.get_u64_le());
                match tag {
                    1 => LogRecord::Begin { txn },
                    2 => LogRecord::Commit { txn },
                    _ => LogRecord::Abort { txn },
                }
            }
            4 => {
                need(&buf, 8, at)?;
                let txn = TxnId(buf.get_u64_le());
                let rid = get_rid(&mut buf, at)?;
                let data = get_bytes(&mut buf, at)?;
                LogRecord::Insert { txn, rid, data }
            }
            5 => {
                need(&buf, 8, at)?;
                let txn = TxnId(buf.get_u64_le());
                let rid = get_rid(&mut buf, at)?;
                let before = get_bytes(&mut buf, at)?;
                let after = get_bytes(&mut buf, at)?;
                LogRecord::Update { txn, rid, before, after }
            }
            6 => {
                need(&buf, 8, at)?;
                let txn = TxnId(buf.get_u64_le());
                let rid = get_rid(&mut buf, at)?;
                let data = get_bytes(&mut buf, at)?;
                LogRecord::Delete { txn, rid, data }
            }
            7 => {
                need(&buf, 4, at)?;
                let n = buf.get_u32_le() as usize;
                need(&buf, n * 8, at)?;
                let active = (0..n).map(|_| TxnId(buf.get_u64_le())).collect();
                LogRecord::Checkpoint { active }
            }
            8 => {
                need(&buf, 8, at)?;
                let txn = TxnId(buf.get_u64_le());
                let rid = get_rid(&mut buf, at)?;
                need(&buf, 8, at)?;
                let undo_next = Lsn(buf.get_u64_le());
                LogRecord::Clr { txn, rid, undo_next }
            }
            _ => return Err(StorageError::CorruptLog { at, reason: "unknown record tag" }),
        };
        Ok(rec)
    }
}

/// Sink the WAL appends to.
pub trait LogStore: Send + Sync {
    /// Appends raw bytes at the end, returning the offset they start at.
    fn append(&self, data: &[u8]) -> StorageResult<u64>;
    /// Reads the whole log contents.
    fn read_all(&self) -> StorageResult<Vec<u8>>;
    /// Forces appended data to the medium.
    fn sync(&self) -> StorageResult<()>;
    /// Current length in bytes.
    fn len(&self) -> StorageResult<u64>;
    /// Whether the log is empty.
    fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }
    /// Truncates to `len` bytes (used by tests to simulate torn tails).
    fn truncate(&self, len: u64) -> StorageResult<()>;
}

/// File-backed log store.
pub struct FileLogStore {
    file: Mutex<std::fs::File>,
}

impl FileLogStore {
    /// Opens (creating if necessary) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileLogStore { file: Mutex::new(file) })
    }
}

impl LogStore for FileLogStore {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let mut f = self.file.lock();
        let off = f.seek(SeekFrom::End(0))?;
        f.write_all(data)?;
        Ok(off)
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn len(&self) -> StorageResult<u64> {
        Ok(self.file.lock().metadata()?.len())
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.file.lock().set_len(len)?;
        Ok(())
    }
}

/// In-memory log store for tests/benchmarks.
#[derive(Default)]
pub struct MemLogStore {
    data: Mutex<Vec<u8>>,
}

impl MemLogStore {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let mut d = self.data.lock();
        let off = d.len() as u64;
        d.extend_from_slice(data);
        Ok(off)
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        Ok(self.data.lock().clone())
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }

    fn len(&self) -> StorageResult<u64> {
        Ok(self.data.lock().len() as u64)
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.data.lock().truncate(len as usize);
        Ok(())
    }
}

/// Point-in-time snapshot of WAL traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (forced or not).
    pub appends: u64,
    /// Forces of the log to stable storage.
    pub forces: u64,
    /// Total framed bytes appended.
    pub bytes: u64,
}

/// The write-ahead log: append + scan over a [`LogStore`].
pub struct Wal {
    store: Arc<dyn LogStore>,
    /// Highest LSN whose bytes have been `sync`ed.
    flushed: Mutex<Lsn>,
    appends: Counter,
    forces: Counter,
    bytes: Counter,
    io: IoTracer,
    /// The frame under construction, reused by every append.
    frame: Mutex<Vec<u8>>,
}

impl Wal {
    /// Wraps a log store.
    pub fn new(store: Arc<dyn LogStore>) -> Self {
        Wal {
            store,
            flushed: Mutex::new(Lsn(0)),
            appends: Counter::new(),
            forces: Counter::new(),
            bytes: Counter::new(),
            io: IoTracer::default(),
            frame: Mutex::new(Vec::new()),
        }
    }

    /// Installs the trace store used to tag log forces with provenance
    /// spans (see [`crate::iospan`]).
    pub fn set_trace_store(&self, store: Arc<TraceStore>) {
        self.io.set_store(store);
    }

    /// Appends a record, returning its LSN. Does **not** force.
    pub fn append(&self, rec: &LogRecord) -> StorageResult<Lsn> {
        self.append_payload(|out| rec.encode(out))
    }

    /// Appends an [`LogRecord::Insert`] whose after image is borrowed.
    pub(crate) fn append_insert(&self, txn: TxnId, rid: Rid, data: &[u8]) -> StorageResult<Lsn> {
        self.append_payload(|out| put_images(out, TAG_INSERT, txn, rid, &[data]))
    }

    /// Appends an [`LogRecord::Update`] whose images are borrowed.
    pub(crate) fn append_update(
        &self,
        txn: TxnId,
        rid: Rid,
        before: &[u8],
        after: &[u8],
    ) -> StorageResult<Lsn> {
        self.append_payload(|out| put_images(out, TAG_UPDATE, txn, rid, &[before, after]))
    }

    /// Appends a [`LogRecord::Delete`] whose before image is borrowed.
    pub(crate) fn append_delete(&self, txn: TxnId, rid: Rid, data: &[u8]) -> StorageResult<Lsn> {
        self.append_payload(|out| put_images(out, TAG_DELETE, txn, rid, &[data]))
    }

    /// Frames one payload in the reused buffer and hands it to the store
    /// in a single append.
    fn append_payload(&self, payload: impl FnOnce(&mut Vec<u8>)) -> StorageResult<Lsn> {
        let mut frame = self.frame.lock();
        frame.clear();
        put_frame(&mut frame, payload);
        let off = self.store.append(&frame)?;
        self.appends.inc();
        self.bytes.add(frame.len() as u64);
        Ok(Lsn(off))
    }

    /// Appends and forces (used for COMMIT).
    pub fn append_forced(&self, rec: &LogRecord) -> StorageResult<Lsn> {
        let lsn = self.append(rec)?;
        self.flush()?;
        Ok(lsn)
    }

    /// Forces everything appended so far.
    pub fn flush(&self) -> StorageResult<()> {
        self.io.tagged(
            "wal_force",
            "wal",
            || vec![("bytes", Field::U64(self.bytes.get()))],
            || {
                self.store.sync()?;
                *self.flushed.lock() = Lsn(self.store.len()?);
                self.forces.inc();
                Ok(())
            },
        )
    }

    /// Snapshot of the append/force counters.
    pub fn stats(&self) -> WalStats {
        WalStats { appends: self.appends.get(), forces: self.forces.get(), bytes: self.bytes.get() }
    }

    /// Scans all intact records from the start; stops at the first torn or
    /// corrupt frame (returning what was read before it).
    pub fn scan(&self) -> StorageResult<Vec<(Lsn, LogRecord)>> {
        let raw = Bytes::from(self.store.read_all()?);
        frames(&raw)
            .map(|(at, payload)| {
                let body = at + HEADER;
                let rec = LogRecord::decode(raw.slice(body..body + payload.len()), at as u64)?;
                Ok((Lsn(at as u64), rec))
            })
            .collect()
    }

    /// Underlying store (tests use this to simulate crashes).
    pub fn store(&self) -> &Arc<dyn LogStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal() -> Wal {
        Wal::new(Arc::new(MemLogStore::new()))
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: TxnId(1) },
            LogRecord::Insert {
                txn: TxnId(1),
                rid: Rid::new(PageId(3), 4),
                data: Bytes::from_static(b"obj-a"),
            },
            LogRecord::Update {
                txn: TxnId(1),
                rid: Rid::new(PageId(3), 4),
                before: Bytes::from_static(b"obj-a"),
                after: Bytes::from_static(b"obj-b"),
            },
            LogRecord::Delete {
                txn: TxnId(1),
                rid: Rid::new(PageId(3), 4),
                data: Bytes::from_static(b"obj-b"),
            },
            LogRecord::Checkpoint { active: vec![TxnId(1), TxnId(2)] },
            LogRecord::Clr { txn: TxnId(2), rid: Rid::new(PageId(9), 1), undo_next: Lsn(17) },
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::Abort { txn: TxnId(2) },
        ]
    }

    #[test]
    fn append_scan_roundtrip() {
        let w = wal();
        let recs = sample_records();
        for r in &recs {
            w.append(r).unwrap();
        }
        let scanned: Vec<_> = w.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(scanned, recs);
    }

    #[test]
    fn borrowed_appenders_write_the_bytes_of_the_owned_records() {
        let (owned, borrowed) = (wal(), wal());
        let rid = Rid::new(PageId(3), 4);
        for r in &sample_records()[1..4] {
            owned.append(r).unwrap();
        }
        borrowed.append_insert(TxnId(1), rid, b"obj-a").unwrap();
        borrowed.append_update(TxnId(1), rid, b"obj-a", b"obj-b").unwrap();
        borrowed.append_delete(TxnId(1), rid, b"obj-b").unwrap();
        assert_eq!(owned.store().read_all().unwrap(), borrowed.store().read_all().unwrap());
    }

    #[test]
    fn lsns_are_strictly_increasing_offsets() {
        let w = wal();
        let a = w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        let b = w.append(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
        assert!(b > a);
        assert_eq!(a, Lsn(0));
    }

    #[test]
    fn torn_tail_is_dropped() {
        let w = wal();
        w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        w.append(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
        let keep = w.store().len().unwrap();
        w.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        // Tear the last record in half.
        w.store().truncate(keep + 5).unwrap();
        let scanned = w.scan().unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[1].1, LogRecord::Commit { txn: TxnId(1) });
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        let store = Arc::new(MemLogStore::new());
        let w = Wal::new(store.clone());
        w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        let second = w.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        // Flip a payload byte of the second record.
        {
            let mut d = store.data.lock();
            let idx = second.0 as usize + 8; // into payload
            d[idx] ^= 0xFF;
        }
        let scanned = w.scan().unwrap();
        assert_eq!(scanned.len(), 1);
    }

    #[test]
    fn empty_log_scans_empty() {
        assert!(wal().scan().unwrap().is_empty());
    }

    #[test]
    fn stats_count_appends_forces_and_bytes() {
        let w = wal();
        w.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        w.append_forced(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
        let s = w.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.forces, 1);
        assert_eq!(s.bytes, w.store().len().unwrap());
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: TxnId(5) }.txn(), Some(TxnId(5)));
        assert_eq!(LogRecord::Checkpoint { active: vec![] }.txn(), None);
    }
}
