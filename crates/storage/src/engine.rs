//! The storage engine facade: transactional record storage with WAL,
//! strict 2PL and restart recovery.
//!
//! This is the surface `sentinel-oodb` programs against — the equivalent of
//! the Exodus client interface the Open OODB uses. All records live in one
//! heap spanning every page of the database file, so no separate catalog of
//! heap extents needs to be recovered: after restart the heap is simply
//! re-attached to pages `0..num_pages`.

use std::sync::Arc;

use sentinel_obs::json;

use crate::buffer::{BufferPool, BufferPoolStats};
use crate::common::{PageId, Rid, StorageResult, TxnId};
use crate::disk::DiskManager;
use crate::heap::HeapFile;
use crate::lock::{LockManager, LockMode};
use crate::recovery;
use crate::txn::{TxnEvent, TxnManager, TxnObserver, UndoOp};
use crate::wal::{LogRecord, LogStore, MemLogStore, Wal, WalStats};

/// Combined storage-layer counters: WAL traffic + buffer-pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// WAL append/force counters.
    pub wal: WalStats,
    /// Buffer-pool hit/miss and page I/O counters.
    pub buffer: BufferPoolStats,
}

impl StorageStats {
    /// Serializes the snapshot as a JSON value.
    pub fn to_json(&self) -> json::Value {
        json::Value::obj([
            (
                "wal",
                json::Value::obj([
                    ("appends", self.wal.appends.into()),
                    ("forces", self.wal.forces.into()),
                    ("bytes", self.wal.bytes.into()),
                ]),
            ),
            (
                "buffer",
                json::Value::obj([
                    ("hits", self.buffer.hits.into()),
                    ("misses", self.buffer.misses.into()),
                    ("page_reads", self.buffer.page_reads.into()),
                    ("page_writes", self.buffer.page_writes.into()),
                    ("hit_ratio", self.buffer.hit_ratio().into()),
                ]),
            ),
        ])
    }
}

/// Transactional storage engine (Exodus analogue).
pub struct StorageEngine {
    heap: HeapFile,
    wal: Wal,
    locks: LockManager,
    txns: TxnManager,
    pool: Arc<BufferPool>,
}

impl StorageEngine {
    /// Opens an engine over the given disk + log, running restart recovery.
    pub fn open(disk: Arc<dyn DiskManager>, log: Arc<dyn LogStore>) -> StorageResult<Self> {
        Self::open_with_capacity(disk, log, 256)
    }

    /// [`Self::open`] with an explicit buffer-pool capacity (in frames).
    pub fn open_with_capacity(
        disk: Arc<dyn DiskManager>,
        log: Arc<dyn LogStore>,
        frames: usize,
    ) -> StorageResult<Self> {
        let pool = Arc::new(BufferPool::new(disk.clone(), frames));
        let pages: Vec<PageId> = (0..disk.num_pages()).map(PageId).collect();
        let heap = HeapFile::attach(pool.clone(), pages);
        let wal = Wal::new(log);
        let txns = TxnManager::new();
        let engine = StorageEngine { heap, wal, locks: LockManager::new(), txns, pool };
        recovery::recover(&engine.wal, &engine.heap, &engine.txns)?;
        Ok(engine)
    }

    /// An ephemeral in-memory engine (tests, benchmarks, examples).
    pub fn in_memory() -> Self {
        Self::open(Arc::new(crate::disk::MemDisk::new()), Arc::new(MemLogStore::new()))
            .expect("in-memory engine cannot fail to open")
    }

    /// Registers a transaction-event observer (the Sentinel event bridge).
    pub fn add_txn_observer(&self, obs: Arc<dyn TxnObserver>) {
        self.txns.add_observer(obs);
    }

    /// Begins a top-level transaction; fires the `begin-transaction` event.
    pub fn begin(&self) -> StorageResult<TxnId> {
        let txn = self.txns.begin();
        self.wal.append(&LogRecord::Begin { txn })?;
        self.txns.notify(txn, TxnEvent::Begin);
        Ok(txn)
    }

    /// Inserts a record; returns its rid. Takes an exclusive lock on the rid.
    pub fn insert(&self, txn: TxnId, data: &[u8]) -> StorageResult<Rid> {
        self.txns.check_active(txn)?;
        let rid = self.heap.insert(data)?;
        self.locks.lock(txn, rid.as_u64(), LockMode::Exclusive)?;
        self.wal.append_insert(txn, rid, data)?;
        self.txns.push_undo(txn, UndoOp::Insert(rid))?;
        Ok(rid)
    }

    /// Reads the record at `rid` under a shared lock.
    pub fn read(&self, txn: TxnId, rid: Rid) -> StorageResult<Vec<u8>> {
        self.read_with(txn, rid, <[u8]>::to_vec)
    }

    /// Like [`Self::read`], but hands the record to `f` where it lies in
    /// its pinned page, without copying it out. `f` runs under the page
    /// latch and must not call back into the engine.
    pub fn read_with<R>(
        &self,
        txn: TxnId,
        rid: Rid,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<R> {
        self.txns.check_active(txn)?;
        self.locks.lock(txn, rid.as_u64(), LockMode::Shared)?;
        self.heap.read_with(rid, f)
    }

    /// Rewrites the record at `rid` under an exclusive lock.
    pub fn update(&self, txn: TxnId, rid: Rid, data: &[u8]) -> StorageResult<()> {
        self.txns.check_active(txn)?;
        self.locks.lock(txn, rid.as_u64(), LockMode::Exclusive)?;
        let before = self.heap.update(rid, data)?;
        self.wal.append_update(txn, rid, &before, data)?;
        self.txns.push_undo(txn, UndoOp::Update(rid, before))?;
        Ok(())
    }

    /// Deletes the record at `rid` under an exclusive lock.
    pub fn delete(&self, txn: TxnId, rid: Rid) -> StorageResult<()> {
        self.txns.check_active(txn)?;
        self.locks.lock(txn, rid.as_u64(), LockMode::Exclusive)?;
        let before = self.heap.delete(rid)?;
        self.wal.append_delete(txn, rid, &before)?;
        self.txns.push_undo(txn, UndoOp::Delete(rid, before))?;
        Ok(())
    }

    /// Commits `txn`: fires `pre-commit`, forces the commit record, releases
    /// locks, fires `commit`.
    ///
    /// The `pre-commit` event fires while the transaction can still do work —
    /// deferred rules execute inside this window and their writes belong to
    /// the same transaction (paper §2.3 / §3.1: the deferred rewrite
    /// terminates on `pre-commit`).
    pub fn commit(&self, txn: TxnId) -> StorageResult<()> {
        self.txns.check_active(txn)?;
        // Deferred-rule window: observers may call back into the engine for
        // this txn, so the state flips to Preparing only afterwards.
        self.txns.notify(txn, TxnEvent::PreCommit);
        self.txns.prepare(txn)?;
        self.wal.append_forced(&LogRecord::Commit { txn })?;
        self.txns.finish_commit(txn)?;
        self.locks.release_all(txn);
        self.txns.notify(txn, TxnEvent::Commit);
        self.txns.forget(txn);
        Ok(())
    }

    /// Applies a list of undo operations (newest first), logging
    /// compensations as ordinary records so redo repeats them (see the
    /// recovery module docs).
    fn apply_undo(&self, txn: TxnId, undo: Vec<UndoOp>) -> StorageResult<()> {
        for op in undo {
            match op {
                UndoOp::Insert(rid) => {
                    let before = self.heap.delete(rid)?;
                    self.wal.append_delete(txn, rid, &before)?;
                }
                UndoOp::Update(rid, before) => {
                    let current = self.heap.update(rid, &before)?;
                    self.wal.append_update(txn, rid, &current, &before)?;
                }
                UndoOp::Delete(rid, data) => {
                    self.heap.insert_at(rid, &data)?;
                    self.wal.append_insert(txn, rid, &data)?;
                }
            }
        }
        Ok(())
    }

    /// Takes a savepoint mark for `txn` (subtransaction-level recovery: a
    /// rule body records the mark when it starts).
    pub fn savepoint(&self, txn: TxnId) -> StorageResult<u64> {
        Ok(self.txns.undo_mark(txn)? as u64)
    }

    /// Rolls `txn` back to a savepoint mark — undoes (with compensation
    /// logging) every operation performed after the mark, leaving the
    /// transaction active and its earlier work intact. This is the
    /// "recovery at the rule/subtransaction level" the paper's conclusion
    /// calls for: an aborted rule subtransaction undoes only its own writes.
    pub fn rollback_to(&self, txn: TxnId, mark: u64) -> StorageResult<()> {
        let undo = self.txns.take_undo_suffix(txn, mark as usize)?;
        self.apply_undo(txn, undo)
    }

    /// Aborts `txn`: undoes its changes (logging compensations), releases
    /// locks, fires `abort`.
    pub fn abort(&self, txn: TxnId) -> StorageResult<()> {
        let undo = self.txns.take_undo_for_abort(txn)?;
        self.apply_undo(txn, undo)?;
        self.wal.append_forced(&LogRecord::Abort { txn })?;
        self.locks.release_all(txn);
        self.txns.notify(txn, TxnEvent::Abort);
        self.txns.forget(txn);
        Ok(())
    }

    /// Takes a fuzzy checkpoint: flushes all dirty pages, then logs the set
    /// of active transactions.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.pool.flush_all()?;
        self.wal.append_forced(&LogRecord::Checkpoint { active: self.txns.active_txns() })?;
        Ok(())
    }

    /// Non-transactional full scan (used to rebuild indexes at startup).
    pub fn scan(&self) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        self.heap.scan()
    }

    /// Non-transactional point read (no locks; used by read-only tooling).
    pub fn read_raw(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        self.heap.get(rid)
    }

    /// Flushes dirty pages and the log (orderly shutdown).
    pub fn shutdown(&self) -> StorageResult<()> {
        self.wal.flush()?;
        self.pool.flush_all()
    }

    /// Installs the trace store on the WAL and buffer pool so log forces
    /// and page I/O performed inside a span are tagged with provenance.
    pub fn set_trace_store(&self, store: Arc<sentinel_obs::span::TraceStore>) {
        self.wal.set_trace_store(store.clone());
        self.pool.set_trace_store(store);
    }

    /// The WAL (exposed for diagnostics and tests).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The buffer pool (exposed for diagnostics and tests).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Snapshot of the storage-layer counters (WAL + buffer pool).
    pub fn stats(&self) -> StorageStats {
        StorageStats { wal: self.wal.stats(), buffer: self.pool.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::StorageError;
    use crate::disk::MemDisk;

    fn engine_with_handles() -> (Arc<MemDisk>, Arc<MemLogStore>, StorageEngine) {
        let disk = Arc::new(MemDisk::new());
        let log = Arc::new(MemLogStore::new());
        let eng = StorageEngine::open(
            disk.clone() as Arc<dyn DiskManager>,
            log.clone() as Arc<dyn LogStore>,
        )
        .unwrap();
        (disk, log, eng)
    }

    #[test]
    fn committed_data_is_readable_in_next_txn() {
        let eng = StorageEngine::in_memory();
        let t1 = eng.begin().unwrap();
        let rid = eng.insert(t1, b"v1").unwrap();
        eng.commit(t1).unwrap();
        let t2 = eng.begin().unwrap();
        assert_eq!(eng.read(t2, rid).unwrap(), b"v1");
        eng.commit(t2).unwrap();
    }

    #[test]
    fn abort_rolls_back_insert_update_delete() {
        let eng = StorageEngine::in_memory();
        // Seed data.
        let t0 = eng.begin().unwrap();
        let keep = eng.insert(t0, b"keep").unwrap();
        let doomed = eng.insert(t0, b"doomed").unwrap();
        eng.commit(t0).unwrap();

        let t1 = eng.begin().unwrap();
        let fresh = eng.insert(t1, b"fresh").unwrap();
        eng.update(t1, keep, b"mutated").unwrap();
        eng.delete(t1, doomed).unwrap();
        eng.abort(t1).unwrap();

        let t2 = eng.begin().unwrap();
        assert_eq!(eng.read(t2, keep).unwrap(), b"keep");
        assert_eq!(eng.read(t2, doomed).unwrap(), b"doomed");
        assert!(matches!(eng.read(t2, fresh), Err(StorageError::RecordNotFound(_))));
        eng.commit(t2).unwrap();
    }

    #[test]
    fn write_write_conflict_blocks_until_commit() {
        use std::time::Duration;
        let eng = Arc::new(StorageEngine::in_memory());
        let t0 = eng.begin().unwrap();
        let rid = eng.insert(t0, b"x").unwrap();
        eng.commit(t0).unwrap();

        let t1 = eng.begin().unwrap();
        eng.update(t1, rid, b"by-t1").unwrap();
        let eng2 = eng.clone();
        let h = std::thread::spawn(move || {
            let t2 = eng2.begin().unwrap();
            eng2.update(t2, rid, b"by-t2").unwrap();
            eng2.commit(t2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        eng.commit(t1).unwrap();
        h.join().unwrap();
        let t3 = eng.begin().unwrap();
        assert_eq!(eng.read(t3, rid).unwrap(), b"by-t2");
        eng.commit(t3).unwrap();
    }

    #[test]
    fn stats_reflect_wal_and_buffer_traffic() {
        let eng = StorageEngine::in_memory();
        let t = eng.begin().unwrap();
        let rid = eng.insert(t, b"counted").unwrap();
        eng.commit(t).unwrap();
        let t2 = eng.begin().unwrap();
        eng.read(t2, rid).unwrap();
        eng.commit(t2).unwrap();

        let s = eng.stats();
        // begin + insert + commit + begin + commit = 5 records, 2 forced.
        assert_eq!(s.wal.appends, 5);
        assert_eq!(s.wal.forces, 2);
        assert!(s.wal.bytes > 0);
        assert!(s.buffer.hits + s.buffer.misses > 0);
        let j = s.to_json();
        assert_eq!(j.get("wal").and_then(|w| w.get("appends")).and_then(|v| v.as_u64()), Some(5));
        assert!(j.to_string().contains("\"hit_ratio\":"));
    }

    #[test]
    fn work_on_committed_txn_is_rejected() {
        let eng = StorageEngine::in_memory();
        let t = eng.begin().unwrap();
        let rid = eng.insert(t, b"a").unwrap();
        eng.commit(t).unwrap();
        assert!(eng.update(t, rid, b"b").is_err());
    }

    #[test]
    fn restart_preserves_committed_and_discards_uncommitted() {
        let (disk, log, eng) = engine_with_handles();
        let t1 = eng.begin().unwrap();
        let committed = eng.insert(t1, b"durable").unwrap();
        eng.commit(t1).unwrap();
        let t2 = eng.begin().unwrap();
        let lost = eng.insert(t2, b"volatile").unwrap();
        eng.update(t2, committed, b"overwritten").unwrap();
        // Crash: drop the engine without commit/shutdown (pages may or may
        // not have hit "disk"; the WAL decides).
        drop(eng);

        let eng2 = StorageEngine::open(disk, log).unwrap();
        let t = eng2.begin().unwrap();
        assert_eq!(eng2.read(t, committed).unwrap(), b"durable");
        assert!(matches!(eng2.read(t, lost), Err(StorageError::RecordNotFound(_))));
        eng2.commit(t).unwrap();
    }

    #[test]
    fn pre_commit_event_fires_before_commit_event() {
        use parking_lot::Mutex;
        struct Recorder(Mutex<Vec<TxnEvent>>);
        impl TxnObserver for Recorder {
            fn on_txn_event(&self, _t: TxnId, e: TxnEvent) {
                self.0.lock().push(e);
            }
        }
        let eng = StorageEngine::in_memory();
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        eng.add_txn_observer(rec.clone());
        let t = eng.begin().unwrap();
        eng.commit(t).unwrap();
        assert_eq!(*rec.0.lock(), vec![TxnEvent::Begin, TxnEvent::PreCommit, TxnEvent::Commit]);
    }

    #[test]
    fn observer_can_write_during_pre_commit_window() {
        // A deferred rule writing at pre-commit must land in the same txn.
        struct DeferredWriter {
            eng: std::sync::Weak<StorageEngine>,
            rid: Mutex<Option<Rid>>,
        }
        use parking_lot::Mutex;
        impl TxnObserver for DeferredWriter {
            fn on_txn_event(&self, txn: TxnId, e: TxnEvent) {
                if e == TxnEvent::PreCommit {
                    if let Some(eng) = self.eng.upgrade() {
                        let rid = eng.insert(txn, b"deferred-write").unwrap();
                        *self.rid.lock() = Some(rid);
                    }
                }
            }
        }
        let eng = Arc::new(StorageEngine::in_memory());
        let obs = Arc::new(DeferredWriter { eng: Arc::downgrade(&eng), rid: Mutex::new(None) });
        eng.add_txn_observer(obs.clone());
        let t = eng.begin().unwrap();
        eng.commit(t).unwrap();
        let rid = obs.rid.lock().unwrap();
        let t2 = eng.begin().unwrap();
        assert_eq!(eng.read(t2, rid).unwrap(), b"deferred-write");
        eng.commit(t2).unwrap();
    }

    #[test]
    fn savepoint_rollback_is_partial_and_nestable() {
        let eng = StorageEngine::in_memory();
        let t = eng.begin().unwrap();
        let a = eng.insert(t, b"keep").unwrap();
        let sp1 = eng.savepoint(t).unwrap();
        let b = eng.insert(t, b"inner-1").unwrap();
        eng.update(t, a, b"mutated").unwrap();
        let sp2 = eng.savepoint(t).unwrap();
        let c = eng.insert(t, b"inner-2").unwrap();
        // Roll back the innermost savepoint: only c disappears.
        eng.rollback_to(t, sp2).unwrap();
        assert!(eng.read(t, c).is_err());
        assert_eq!(eng.read(t, b).unwrap(), b"inner-1");
        assert_eq!(eng.read(t, a).unwrap(), b"mutated");
        // Roll back the outer savepoint: b and the update disappear.
        eng.rollback_to(t, sp1).unwrap();
        assert!(eng.read(t, b).is_err());
        assert_eq!(eng.read(t, a).unwrap(), b"keep");
        // The transaction is still usable and commits its remaining work.
        eng.commit(t).unwrap();
        let t2 = eng.begin().unwrap();
        assert_eq!(eng.read(t2, a).unwrap(), b"keep");
        eng.commit(t2).unwrap();
    }

    #[test]
    fn savepoint_rollback_survives_crash_recovery() {
        let (disk, log, eng) = engine_with_handles();
        let t = eng.begin().unwrap();
        let a = eng.insert(t, b"base").unwrap();
        let sp = eng.savepoint(t).unwrap();
        eng.update(t, a, b"rule-write").unwrap();
        eng.rollback_to(t, sp).unwrap();
        eng.commit(t).unwrap();
        drop(eng);
        let eng2 = StorageEngine::open(disk, log).unwrap();
        let t = eng2.begin().unwrap();
        assert_eq!(eng2.read(t, a).unwrap(), b"base", "compensations redone correctly");
        eng2.commit(t).unwrap();
    }

    #[test]
    fn checkpoint_then_restart_recovers() {
        let (disk, log, eng) = engine_with_handles();
        let t = eng.begin().unwrap();
        let rid = eng.insert(t, b"pre-ckpt").unwrap();
        eng.commit(t).unwrap();
        eng.checkpoint().unwrap();
        let t2 = eng.begin().unwrap();
        let rid2 = eng.insert(t2, b"post-ckpt").unwrap();
        eng.commit(t2).unwrap();
        drop(eng);
        let eng2 = StorageEngine::open(disk, log).unwrap();
        let t = eng2.begin().unwrap();
        assert_eq!(eng2.read(t, rid).unwrap(), b"pre-ckpt");
        assert_eq!(eng2.read(t, rid2).unwrap(), b"post-ckpt");
        eng2.commit(t).unwrap();
    }

    #[test]
    fn log_bytes_of_a_fixed_script_are_pinned() {
        let (_, log, eng) = engine_with_handles();
        let t = eng.begin().unwrap();
        let a = eng.insert(t, b"alpha-object").unwrap();
        let b = eng.insert(t, &[0x5A; 300]).unwrap();
        let c = eng.insert(t, b"c").unwrap();
        eng.update(t, a, b"alpha-object-v2").unwrap();
        eng.update(t, b, &[0xA5; 280]).unwrap();
        eng.update(t, a, b"a3").unwrap();
        eng.update(t, c, b"gamma").unwrap();
        eng.delete(t, b).unwrap();
        let sp = eng.savepoint(t).unwrap();
        eng.update(t, a, b"rule-write").unwrap();
        eng.insert(t, b"rule-insert").unwrap();
        eng.rollback_to(t, sp).unwrap();
        eng.commit(t).unwrap();
        let t2 = eng.begin().unwrap();
        eng.insert(t2, b"doomed").unwrap();
        eng.update(t2, a, b"doomed-update").unwrap();
        eng.abort(t2).unwrap();
        // Length and checksum of the log this script wrote before the
        // table CRC and the one-buffer framing existed (commit 4427bb8).
        let bytes = log.read_all().unwrap();
        assert_eq!(bytes.len(), 1843);
        assert_eq!(crate::crc32(&bytes), 0x717C_302E);
    }
}
