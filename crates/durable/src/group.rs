//! Group commit: a committer thread that batches fsyncs across every
//! shard's journal stream, so N appenders under [`FsyncPolicy::Always`]
//! share one `fsync` per dirty stream instead of issuing N.
//!
//! Appenders write their frame under the stream lock, then register the
//! append with [`GroupCommit::note_append`] and (policy permitting) block
//! in [`GroupCommit::wait_durable`] until the committer reports their
//! sequence number synced. The committer wakes on the first pending
//! append, optionally sleeps a configurable accumulation window
//! (`group_window_us`) to let a batch build up, snapshots the pending
//! sequence, fsyncs every dirty stream and publishes the new durable
//! watermark. [`FsyncPolicy::EveryN`] and [`FsyncPolicy::Never`] map
//! onto the same machinery — appends never block, and the committer only
//! fires on the record-count / byte thresholds (`Never` only on the byte
//! threshold, if one is configured).
//!
//! The committer **never re-enters the detector** — appenders blocked in
//! `wait_durable` hold their shard's mutex, so anything the
//! committer did that needed a quiesce would deadlock. Checkpoints
//! therefore run on a separate thread (see [`Checkpointer`]).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use sentinel_obs::durability::DurabilityMetrics;

use crate::sharded::ShardedJournal;
use crate::FsyncPolicy;

/// Shared appender/committer state.
#[derive(Debug, Default)]
struct GcState {
    /// Sequence number of the newest registered append.
    pending: u64,
    /// Newest sequence number known durable.
    synced: u64,
    /// Payload bytes appended since the last group commit.
    pending_bytes: u64,
    /// Records appended since the last group commit.
    pending_records: u64,
    shutdown: bool,
}

/// The group-commit rendezvous: appenders on one side, the committer
/// thread on the other.
#[derive(Default)]
pub struct GroupCommit {
    state: Mutex<GcState>,
    /// Signalled by appenders when work is pending (and at shutdown).
    appended: Condvar,
    /// Signalled by the committer when the durable watermark advances.
    synced: Condvar,
}

impl std::fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit").field("state", &*self.state.lock()).finish()
    }
}

impl GroupCommit {
    /// Registers one appended record of `bytes` payload bytes; returns
    /// the sequence number to wait on.
    pub fn note_append(&self, bytes: u64) -> u64 {
        let mut st = self.state.lock();
        st.pending += 1;
        st.pending_bytes += bytes;
        st.pending_records += 1;
        let seq = st.pending;
        self.appended.notify_all();
        seq
    }

    /// Blocks until sequence `seq` is durable (or the engine shut down).
    pub fn wait_durable(&self, seq: u64) {
        let mut st = self.state.lock();
        while st.synced < seq && !st.shutdown {
            self.synced.wait(&mut st);
        }
    }

    /// Marks everything up to `seq` durable (used by explicit flushes
    /// that sync the streams themselves).
    pub fn complete(&self, seq: u64) {
        let mut st = self.state.lock();
        if st.synced < seq {
            st.synced = seq;
            st.pending_bytes = 0;
            st.pending_records = 0;
            self.synced.notify_all();
        }
    }

    /// Current pending sequence number.
    pub fn pending(&self) -> u64 {
        self.state.lock().pending
    }

    /// Wakes the committer and all waiters for shutdown.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.appended.notify_all();
        self.synced.notify_all();
    }
}

/// Tunables for one committer thread.
#[derive(Debug, Clone, Copy)]
pub struct CommitterConfig {
    /// The engine's fsync policy.
    pub fsync: FsyncPolicy,
    /// Accumulation window after the first pending append, µs.
    pub group_window_us: u64,
    /// Byte threshold that forces a commit regardless of policy
    /// (0 = disabled).
    pub group_bytes: u64,
}

impl CommitterConfig {
    /// Is a commit due for the given pending counters?
    fn due(&self, records: u64, bytes: u64) -> bool {
        if records == 0 {
            return false;
        }
        if self.group_bytes > 0 && bytes >= self.group_bytes {
            return true;
        }
        match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => records >= n.max(1),
            FsyncPolicy::Never => false,
        }
    }
}

/// How often the committer refreshes the on-disk flight-recorder dump at
/// most. The dump is a bounded JSON write off the append path; the
/// throttle keeps it from turning every group commit into a file write
/// under fsync-per-append workloads.
const FLIGHT_DUMP_THROTTLE: Duration = Duration::from_millis(25);

/// The committer loop body; run on a dedicated thread. Exits when
/// [`GroupCommit::shutdown`] fires — deliberately *without* a final
/// sync, so dropping an engine keeps crash semantics (what the policy
/// left unsynced stays unsynced). As a side duty the committer keeps the
/// flight-recorder dump in `flight_dump` fresh (time-throttled), so a
/// SIGKILL post-mortem finds the ring at most a throttle window stale.
pub fn committer_loop(
    journal: Arc<ShardedJournal>,
    gc: Arc<GroupCommit>,
    metrics: Arc<DurabilityMetrics>,
    cfg: CommitterConfig,
    flight_dump: std::path::PathBuf,
) {
    let mut last_flight_dump: Option<std::time::Instant> = None;
    loop {
        // Wait for enough pending work (or shutdown).
        {
            let mut st = gc.state.lock();
            while !st.shutdown && !cfg.due(st.pending_records, st.pending_bytes) {
                gc.appended.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
        }
        // Let a batch accumulate.
        if cfg.group_window_us > 0 {
            std::thread::sleep(Duration::from_micros(cfg.group_window_us));
        }
        // Snapshot the target, then sync outside the state lock so
        // appenders keep appending into the next batch.
        let (target, records) = {
            let mut st = gc.state.lock();
            let out = (st.pending, st.pending_records);
            st.pending_bytes = 0;
            st.pending_records = 0;
            out
        };
        let t0 = std::time::Instant::now();
        let synced_files = journal.sync_dirty().unwrap_or(0);
        metrics.journal_fsyncs.add(synced_files);
        metrics.group_commits.inc();
        metrics.group_commit_records.add(records);
        metrics.group_commit_flush.record(t0.elapsed().as_nanos() as u64);
        // Publish the watermark even if a sync errored — a hung appender
        // is worse than optimistic accounting on a dying disk.
        {
            let mut st = gc.state.lock();
            if st.synced < target {
                st.synced = target;
                gc.synced.notify_all();
            }
        }
        // Waiters are released; refresh the flight-recorder dump off the
        // ack path, at most once per throttle window.
        if !last_flight_dump.is_some_and(|at| at.elapsed() < FLIGHT_DUMP_THROTTLE)
            && sentinel_obs::flight::global().dump_if_dirty(&flight_dump).unwrap_or(false)
        {
            last_flight_dump = Some(std::time::Instant::now());
        }
    }
}

#[derive(Debug, Default)]
struct CkState {
    pending: bool,
    shutdown: bool,
}

/// Trigger state for the asynchronous checkpointer thread. Checkpoints
/// quiesce the whole detector, which appenders blocked on a group commit
/// would deadlock — so the cadence trigger only sets a flag here and a
/// dedicated thread (never the committer, never an appender) runs the
/// installed hook. Back-to-back triggers coalesce.
#[derive(Default)]
pub struct Checkpointer {
    state: Mutex<CkState>,
    cv: Condvar,
    hook: parking_lot::RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer").field("state", &*self.state.lock()).finish()
    }
}

impl Checkpointer {
    /// Installs the closure the checkpointer thread runs per trigger.
    pub fn set_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.hook.write() = Some(hook);
    }

    /// Requests a checkpoint soon (coalescing with any pending request).
    pub fn trigger(&self) {
        let mut st = self.state.lock();
        st.pending = true;
        self.cv.notify_all();
    }

    /// Stops the checkpointer thread.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.cv.notify_all();
    }
}

/// The checkpointer loop body; run on a dedicated thread.
pub fn checkpointer_loop(ck: Arc<Checkpointer>) {
    loop {
        {
            let mut st = ck.state.lock();
            while !st.pending && !st.shutdown {
                ck.cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            st.pending = false;
        }
        let hook = ck.hook.read().clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_thresholds() {
        let always =
            CommitterConfig { fsync: FsyncPolicy::Always, group_window_us: 0, group_bytes: 0 };
        assert!(!always.due(0, 0));
        assert!(always.due(1, 10));
        let every =
            CommitterConfig { fsync: FsyncPolicy::EveryN(4), group_window_us: 0, group_bytes: 128 };
        assert!(!every.due(3, 10));
        assert!(every.due(4, 10));
        assert!(every.due(1, 128), "byte threshold overrides the count");
        let never =
            CommitterConfig { fsync: FsyncPolicy::Never, group_window_us: 0, group_bytes: 0 };
        assert!(!never.due(1000, 1 << 20));
    }

    #[test]
    fn waiters_release_in_seq_order() {
        let gc = Arc::new(GroupCommit::default());
        let s1 = gc.note_append(8);
        let s2 = gc.note_append(8);
        assert_eq!((s1, s2), (1, 2));
        let waiter = {
            let gc = gc.clone();
            std::thread::spawn(move || gc.wait_durable(2))
        };
        gc.complete(2);
        waiter.join().unwrap();
        assert_eq!(gc.pending(), 2);
    }

    #[test]
    fn shutdown_releases_waiters() {
        let gc = Arc::new(GroupCommit::default());
        gc.note_append(1);
        let waiter = {
            let gc = gc.clone();
            std::thread::spawn(move || gc.wait_durable(1))
        };
        gc.shutdown();
        waiter.join().unwrap();
    }
}
