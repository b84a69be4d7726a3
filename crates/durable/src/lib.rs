//! # sentinel-durable
//!
//! The durability subsystem of the Sentinel reproduction: everything the
//! paper's Exodus-backed Open OODB got "for free" from its storage
//! manager but the *rule subsystem* itself never had — persistence for
//! the DDL catalog, the primitive event stream, and the half-detected
//! state of the composite event graph.
//!
//! The stores cooperating in one data directory:
//!
//! * [`catalog`] — an append-only, checksummed DDL journal
//!   (`catalog.log`). Class registrations, event declarations and rule
//!   define/enable/disable/drop are framed as JSON and replayed on open
//!   to rebuild the schema, the Snoop event graph, and the rule set.
//! * [`sharded`] — the durable primitive-event journal, one
//!   segment-rotated stream **per detector shard** plus an epoch fence
//!   log, so parallel detection journals without a single serialising
//!   appender. Recovery merges the streams at the fences back into
//!   happened-before order.
//! * [`group`] — the group-commit committer thread that batches fsyncs
//!   across all streams (the [`FsyncPolicy`] maps onto it), and the
//!   asynchronous checkpointer that runs cadence checkpoints off the
//!   signalling threads.
//! * [`checkpoint`] — periodic [`sentinel_detector::GraphSnapshot`]
//!   checkpoints tagged with a journal offset, so recovery loads the
//!   newest valid checkpoint and replays only the journal suffix —
//!   half-detected composites resume exactly where the crash left them.
//!
//! All stores share the truncate-at-first-bad-record discipline of
//! `sentinel_storage::frame`: a torn or bit-flipped tail shortens
//! history, it never panics and never corrupts what came before it.
//!
//! This crate is policy-free: it moves bytes and reports what it found.
//! `sentinel-core` owns the semantics — interleaving catalog ops and
//! fences with journal records, validating checkpoints against the
//! rebuilt graph, and replaying the suffix through the detector.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod checkpoint;
pub mod group;
pub mod repl;
pub mod sharded;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use sentinel_detector::log::LoggedEvent;
use sentinel_detector::{FenceKind, GraphSnapshot};
use sentinel_obs::flight::{self, FlightKind};
use sentinel_obs::{DurabilityMetrics, RecoveryReport};

pub use catalog::{CatalogFile, CatalogOp};
pub use repl::{FollowerAck, ReplEntry, ReplicationLog};
pub use sharded::{ShardedJournal, ShardedRecovery};

use group::{Checkpointer, CommitterConfig, GroupCommit};

/// File name of the JSON recovery report written after each open.
pub const RECOVERY_REPORT_FILE: &str = "recovery-report.json";

/// Errors from the durability layer.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable i/o error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// When appended events become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every append blocks until its record is fsynced — by the next
    /// group commit, so concurrent appenders share the fsync (no events
    /// lost on crash).
    Always,
    /// Group-commit once every N appended events; appends never block.
    EveryN(u64),
    /// Never fsync from the append path; only on rotation, explicit
    /// flush, checkpoints, and graceful shutdown.
    Never,
}

/// Tuning knobs for a durable engine.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Journal fsync policy (default: [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Rotate journal stream segments once they pass this size
    /// (default 4 MiB).
    pub segment_bytes: u64,
    /// Take a checkpoint every N journal records; `0` disables automatic
    /// checkpoints (default 1024).
    pub checkpoint_every: u64,
    /// Group-commit accumulation window, µs: after the first pending
    /// append wakes the committer it sleeps this long so a batch builds
    /// up (default 0 — commit immediately).
    pub group_window_us: u64,
    /// Force a group commit once this many payload bytes are pending,
    /// regardless of the fsync policy; `0` disables (default 0).
    pub group_bytes: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 4 * 1024 * 1024,
            checkpoint_every: 1024,
            group_window_us: 0,
            group_bytes: 0,
        }
    }
}

/// Everything a [`DurableEngine::open`] recovered from the data
/// directory, for `sentinel-core` to replay.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Catalog operations as `(at_index, op)` in append order; `at_index`
    /// is the journal record index current when the op executed.
    pub catalog_ops: Vec<(u64, CatalogOp)>,
    /// Decodable checkpoints, newest first, as `(tag, snapshot)`. The
    /// caller restores the first one that validates against the rebuilt
    /// graph and replays `events[tag..]`.
    pub checkpoints: Vec<(u64, GraphSnapshot)>,
    /// Every valid journal record, merged across streams into replay
    /// order.
    pub events: Vec<LoggedEvent>,
    /// Fences in epoch order as `(position, kind)`: `position` counts the
    /// records of `events` that precede the fence. The caller re-applies
    /// flush/advance fences at their positions during suffix replay.
    pub fences: Vec<(u64, FenceKind)>,
    /// Partially filled report: counts of what the scan found. The caller
    /// completes `checkpoint_tag`, `replayed_records`, and any extra
    /// `checkpoints_rejected` from live-graph validation.
    pub report: RecoveryReport,
}

/// The durable engine: one open data directory holding the catalog, the
/// sharded event journal, checkpoints, and the group-commit /
/// checkpointer threads.
///
/// Lock ordering: journal streams before `catalog`, never the reverse.
#[derive(Debug)]
pub struct DurableEngine {
    dir: PathBuf,
    opts: DurableOptions,
    metrics: Arc<DurabilityMetrics>,
    journal: Arc<ShardedJournal>,
    catalog: Mutex<CatalogFile>,
    /// Records appended across the engine's lifetime (= next record
    /// index). Monotone; reads under any shard lock are consistent
    /// because fences/DDL exclude appends.
    records: AtomicU64,
    /// The open epoch new records are stamped with (= fences cut so far).
    epoch: AtomicU64,
    gc: Arc<GroupCommit>,
    ckpt: Arc<Checkpointer>,
    committer: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    /// The replication stream followers tail (seeded from recovery so log
    /// sequence numbers are stable across restarts).
    repl: Arc<ReplicationLog>,
}

/// Seeds the replication log from what recovery found, in the exact merge
/// order `sentinel-core` replays: catalog ops stamped `at_index <= i` and
/// fences at `position <= i` precede journal record `i`. A log sequence
/// number is therefore a deterministic function of the recovered history.
fn seed_replication(repl: &ReplicationLog, recovery: &Recovery) {
    let mut cursor = 0usize;
    let mut fcursor = 0usize;
    let mut epoch = 0u64;
    let mut interleave = |repl: &ReplicationLog, upto: u64, epoch: &mut u64| {
        while cursor < recovery.catalog_ops.len() && recovery.catalog_ops[cursor].0 <= upto {
            let (at_index, op) = &recovery.catalog_ops[cursor];
            repl.push(ReplEntry::Catalog { at_index: *at_index, op: op.clone() });
            cursor += 1;
        }
        while fcursor < recovery.fences.len() && recovery.fences[fcursor].0 <= upto {
            let (position, kind) = recovery.fences[fcursor];
            repl.push(ReplEntry::Fence { position, epoch: *epoch, kind, ts: 0 });
            *epoch += 1;
            fcursor += 1;
        }
    };
    for (i, ev) in recovery.events.iter().enumerate() {
        interleave(repl, i as u64, &mut epoch);
        repl.push(ReplEntry::Event { index: i as u64, shard: 0, epoch, ev: ev.clone() });
    }
    interleave(repl, u64::MAX, &mut epoch);
}

/// Fails on the first `events-*.seg` file in `dir`, naming it.
fn refuse_single_stream_journal(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if name.starts_with("events-") && name.ends_with(".seg") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: single-stream journal segment from before sharding; \
                     this build reads only per-shard streams",
                    path.display()
                ),
            ));
        }
    }
    Ok(())
}

impl DurableEngine {
    /// Opens (creating if needed) the data directory, scans and repairs
    /// all stores, and returns the engine plus what it recovered.
    ///
    /// A directory holding a single-stream `events-*.seg` segment, the
    /// journal layout from before sharding, is refused with an error that
    /// names the file: this build does not read it, and skipping it would
    /// drop history without a word.
    pub fn open(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(Arc<DurableEngine>, Recovery), DurableError> {
        fs::create_dir_all(dir)?;
        refuse_single_stream_journal(dir)?;
        let (journal, srec) = ShardedJournal::open(dir, opts.segment_bytes)?;
        let (catalog, crec) = CatalogFile::open(dir)?;
        let ckpts = checkpoint::scan_checkpoints(dir)?;

        let mut report = RecoveryReport {
            catalog_ops: crec.ops.len() as u64,
            checkpoint_tag: None,
            checkpoints_scanned: ckpts.scanned,
            checkpoints_rejected: ckpts.rejected,
            journal_segments: srec.segments,
            journal_records: srec.events.len() as u64,
            replayed_records: 0,
            truncated_bytes: srec.truncated_bytes + crec.truncated_bytes,
            journal_fences: srec.fences.len() as u64,
            ..RecoveryReport::default()
        };
        report.phases.fence_repair_us = srec.fence_repair_us;
        report.phases.stream_merge_us = srec.stream_merge_us;
        let recovery = Recovery {
            catalog_ops: crec.ops,
            checkpoints: ckpts.checkpoints,
            events: srec.events,
            fences: srec.fences,
            report,
        };

        let repl = Arc::new(ReplicationLog::default());
        seed_replication(&repl, &recovery);

        let metrics = Arc::new(DurabilityMetrics::default());
        let journal = Arc::new(journal);
        let gc = Arc::new(GroupCommit::default());
        let ckpt = Arc::new(Checkpointer::default());
        let committer = {
            let journal = journal.clone();
            let gc = gc.clone();
            let metrics = metrics.clone();
            let cfg = CommitterConfig {
                fsync: opts.fsync,
                group_window_us: opts.group_window_us,
                group_bytes: opts.group_bytes,
            };
            let flight_dump = dir.join(flight::FLIGHT_RECORDER_FILE);
            std::thread::Builder::new()
                .name("sentinel-committer".into())
                .spawn(move || group::committer_loop(journal, gc, metrics, cfg, flight_dump))
                .map_err(DurableError::Io)?
        };
        let checkpointer = {
            let ckpt = ckpt.clone();
            std::thread::Builder::new()
                .name("sentinel-checkpointer".into())
                .spawn(move || group::checkpointer_loop(ckpt))
                .map_err(DurableError::Io)?
        };

        let engine = DurableEngine {
            dir: dir.to_path_buf(),
            opts,
            metrics,
            journal,
            catalog: Mutex::new(catalog),
            records: AtomicU64::new(recovery.events.len() as u64),
            epoch: AtomicU64::new(srec.next_epoch),
            gc,
            ckpt,
            committer: Some(committer),
            checkpointer: Some(checkpointer),
            repl,
        };
        if let Some((tag, _)) = recovery.checkpoints.first() {
            engine.metrics.last_checkpoint_tag.set(*tag);
        }
        Ok((Arc::new(engine), recovery))
    }

    /// The data directory this engine persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the engine was opened with.
    pub fn options(&self) -> &DurableOptions {
        &self.opts
    }

    /// Appends one DDL operation to the catalog (always fsynced),
    /// stamping it with the current journal position. Callers hold a
    /// whole-graph barrier across DDL, so the position is stable.
    pub fn append_catalog(&self, op: &CatalogOp) -> Result<(), DurableError> {
        let at_index = self.records.load(Ordering::SeqCst);
        self.catalog.lock().append(op, at_index)?;
        self.repl.push(ReplEntry::Catalog { at_index, op: op.clone() });
        self.metrics.catalog_appends.inc();
        Ok(())
    }

    /// Appends one event to `shard`'s journal stream, stamped with the
    /// open epoch. Under [`FsyncPolicy::Always`] this blocks until the
    /// committer's next group commit covers the record. Returns the
    /// record's global index.
    ///
    /// Safe to call from concurrent signalling threads (one per shard);
    /// must **not** be called while holding a whole-graph barrier the
    /// committer would need — it never needs one.
    pub fn append_event(&self, shard: u32, ev: &LoggedEvent) -> Result<u64, DurableError> {
        let index = self.records.fetch_add(1, Ordering::SeqCst);
        let epoch = self.epoch.load(Ordering::SeqCst);
        let out = self.journal.append(shard, epoch, ev)?;
        self.repl.push(ReplEntry::Event { index, shard, epoch, ev: ev.clone() });
        self.metrics.journal_appends.inc();
        self.metrics.journal_bytes.add(out.bytes);
        if out.rotated {
            self.metrics.journal_rotations.inc();
            self.metrics.journal_fsyncs.inc();
        }
        let seq = self.gc.note_append(out.bytes);
        if self.opts.fsync == FsyncPolicy::Always {
            self.gc.wait_durable(seq);
        }
        if self.checkpoint_due(index + 1) {
            self.ckpt.trigger();
        }
        Ok(index)
    }

    /// Appends (and fsyncs) one fence closing the open epoch, then
    /// advances the epoch. Callers hold a whole-graph ordering point
    /// (quiesce or graph write lock), so no record append is in flight.
    pub fn append_fence(&self, kind: FenceKind, ts: u64) -> Result<(), DurableError> {
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.journal.append_fence(epoch, kind, ts)?;
        let position = self.records.load(Ordering::SeqCst);
        self.repl.push(ReplEntry::Fence { position, epoch, kind, ts });
        self.metrics.journal_fences.inc();
        self.metrics.journal_fsyncs.inc();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Index the next journal append will get (= records logged so far).
    pub fn next_index(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// The replication stream followers tail.
    pub fn replication(&self) -> &Arc<ReplicationLog> {
        &self.repl
    }

    /// Installs the closure the checkpointer thread runs when the
    /// checkpoint cadence fires. The closure must capture only weak
    /// references to the engine (and detector) or the engine never
    /// drops.
    pub fn set_checkpoint_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.ckpt.set_hook(hook);
    }

    /// Whether appending record `idx` should trigger an automatic
    /// checkpoint (`checkpoint_every` records apart, never at zero).
    pub fn checkpoint_due(&self, idx: u64) -> bool {
        self.opts.checkpoint_every > 0 && idx > 0 && idx % self.opts.checkpoint_every == 0
    }

    /// Writes a checkpoint covering journal records `< tag`. The journal
    /// streams are flushed first so the checkpoint never claims coverage
    /// of records that could be lost behind it.
    pub fn write_checkpoint(&self, tag: u64, snap: &GraphSnapshot) -> Result<(), DurableError> {
        let started = Instant::now();
        let target = self.gc.pending();
        let result = (|| -> io::Result<u64> {
            let synced = self.journal.sync_dirty()?;
            self.metrics.journal_fsyncs.add(synced);
            checkpoint::write_checkpoint(&self.dir, tag, snap)
        })();
        self.gc.complete(target);
        match result {
            Ok(bytes) => {
                self.metrics.checkpoints.inc();
                self.metrics.checkpoint_bytes.add(bytes);
                self.metrics.last_checkpoint_tag.set(tag);
                self.metrics.checkpoint_duration.record_duration(started.elapsed());
                flight::global().record_static(FlightKind::Checkpoint, "checkpoint", tag, bytes);
                Ok(())
            }
            Err(e) => {
                self.metrics.checkpoint_failures.inc();
                Err(e.into())
            }
        }
    }

    /// Forces every dirty journal stream to disk (the catalog and fence
    /// log are always synced). Also freshens the flight-recorder dump —
    /// flush runs on graceful shutdown, where the ring should be current.
    pub fn flush(&self) -> Result<(), DurableError> {
        let target = self.gc.pending();
        let synced = self.journal.sync_dirty()?;
        self.metrics.journal_fsyncs.add(synced);
        self.gc.complete(target);
        let _ = flight::global().dump_if_dirty(&self.dir.join(flight::FLIGHT_RECORDER_FILE));
        Ok(())
    }

    /// The engine's live metrics; [`DurabilityMetrics::to_json`] is the
    /// `durability` stats section.
    pub fn metrics(&self) -> &DurabilityMetrics {
        &self.metrics
    }

    /// Writes `report` as `recovery-report.json` in the data directory.
    pub fn write_report(&self, report: &RecoveryReport) -> Result<(), DurableError> {
        fs::write(self.dir.join(RECOVERY_REPORT_FILE), format!("{}\n", report.to_json()))?;
        Ok(())
    }
}

impl Drop for DurableEngine {
    /// Stops the committer and checkpointer. Deliberately does **not**
    /// flush: dropping an engine models a crash for whatever the fsync
    /// policy left unsynced (graceful shutdown calls [`Self::flush`]
    /// explicitly). If the last reference dies on the checkpointer's own
    /// thread the handle is detached instead of self-joined.
    fn drop(&mut self) {
        self.gc.shutdown();
        self.ckpt.shutdown();
        for handle in [self.committer.take(), self.checkpointer.take()].into_iter().flatten() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_detector::{LocalEventDetector, Value};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sentinel-eng-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ev(i: u64) -> LoggedEvent {
        LoggedEvent::Explicit {
            name: "bump".into(),
            params: vec![("i".into(), Value::Int(i as i64))],
            txn: None,
            ts: i + 1,
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = tmp("rt");
        {
            let (eng, rec) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
            assert!(rec.events.is_empty() && rec.catalog_ops.is_empty());
            eng.append_catalog(&CatalogOp::DeclareExplicit { name: "bump".into() }).unwrap();
            for i in 0..5 {
                assert_eq!(eng.append_event(0, &ev(i)).unwrap(), i);
            }
            eng.append_catalog(&CatalogOp::DropRule { name: "r".into() }).unwrap();
            let snap = LocalEventDetector::new(1).snapshot_state();
            eng.write_checkpoint(3, &snap).unwrap();
            let m = eng.metrics();
            assert_eq!(m.journal_appends.get(), 5);
            assert_eq!(m.catalog_appends.get(), 2);
            assert_eq!(m.checkpoints.get(), 1);
            assert_eq!(m.last_checkpoint_tag.get(), 3);
            assert!(m.group_commits.get() >= 1, "Always policy rides group commits");
        }
        let (eng, rec) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(rec.events.len(), 5);
        assert_eq!(rec.catalog_ops.len(), 2);
        assert_eq!(rec.catalog_ops[0].0, 0, "first op before any events");
        assert_eq!(rec.catalog_ops[1].0, 5, "second op after five events");
        assert_eq!(rec.checkpoints.len(), 1);
        assert_eq!(rec.checkpoints[0].0, 3);
        assert_eq!(rec.report.journal_records, 5);
        assert_eq!(rec.report.truncated_bytes, 0);
        assert_eq!(eng.next_index(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fences_advance_epochs_and_recover_in_order() {
        let dir = tmp("fence");
        {
            let (eng, _) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
            eng.append_event(0, &ev(0)).unwrap();
            eng.append_event(1, &ev(1)).unwrap();
            eng.append_fence(FenceKind::FlushTxn(3), 2).unwrap();
            eng.append_event(1, &ev(2)).unwrap();
            eng.append_fence(FenceKind::Barrier, 3).unwrap();
        }
        let (eng, rec) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.fences, vec![(2, FenceKind::FlushTxn(3)), (3, FenceKind::Barrier)]);
        assert_eq!(rec.report.journal_fences, 2);
        // New appends continue in the next epoch.
        eng.append_event(0, &ev(3)).unwrap();
        drop(eng);
        let (_, rec) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(rec.events.len(), 4);
        assert_eq!(rec.fences.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_single_stream_segment_fails_open_and_names_the_file() {
        let dir = tmp("stray");
        fs::create_dir_all(&dir).unwrap();
        // The 12-byte header the single-stream journal began a segment with.
        fs::write(dir.join("events-000000.seg"), [&b"SJN1"[..], &[0; 8]].concat()).unwrap();
        let err = DurableEngine::open(&dir, DurableOptions::default()).unwrap_err();
        assert!(err.to_string().contains("events-000000.seg"), "{err}");
        assert!(dir.join("events-000000.seg").exists(), "the file is left for the operator");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_cadence() {
        let dir = tmp("cadence");
        let opts = DurableOptions { checkpoint_every: 4, ..DurableOptions::default() };
        let (eng, _) = DurableEngine::open(&dir, opts).unwrap();
        let due: Vec<u64> = (0..13).filter(|&i| eng.checkpoint_due(i)).collect();
        assert_eq!(due, vec![4, 8, 12]);
        let off = DurableOptions { checkpoint_every: 0, ..DurableOptions::default() };
        drop(eng);
        fs::remove_dir_all(&dir).unwrap();
        let dir = tmp("cadence-off");
        let (eng, _) = DurableEngine::open(&dir, off).unwrap();
        assert!((0..100).all(|i| !eng.checkpoint_due(i)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_hook_runs_on_cadence() {
        let dir = tmp("hook");
        let opts = DurableOptions { checkpoint_every: 2, ..DurableOptions::default() };
        let (eng, _) = DurableEngine::open(&dir, opts).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        eng.set_checkpoint_hook(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        for i in 0..6 {
            eng.append_event(0, &ev(i)).unwrap();
        }
        // The checkpointer is asynchronous; give it a moment.
        for _ in 0..200 {
            if hits.load(Ordering::SeqCst) >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(hits.load(Ordering::SeqCst) >= 1, "cadence must reach the hook");
        drop(eng);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_report_is_written() {
        let dir = tmp("report");
        let (eng, rec) = DurableEngine::open(&dir, DurableOptions::default()).unwrap();
        eng.write_report(&rec.report).unwrap();
        let text = fs::read_to_string(dir.join(RECOVERY_REPORT_FILE)).unwrap();
        let parsed = sentinel_obs::json::Value::parse(text.trim()).unwrap();
        assert_eq!(
            parsed.get("journal_records").and_then(sentinel_obs::json::Value::as_u64),
            Some(0)
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
